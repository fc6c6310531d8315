//! Two-phase commit with a premature-commit bug.
//!
//! The coordinator collects votes from all participants and must commit
//! only if *everyone* voted YES. The buggy coordinator commits as soon as
//! the first YES arrives — an atomicity violation whose manifestation
//! depends on vote arrival order, i.e. exactly the "scheduling bugs and
//! corner cases" model checking is adept at (§2.1). The fixed version
//! waits for all votes.

use fixd_core::Monitor;
use fixd_healer::{migrate, Patch};
use fixd_runtime::{Context, Message, Pid, Program, World, WorldConfig};

/// Coordinator → participant: VOTE-REQ.
pub const VOTE_REQ: u16 = 20;
/// Participant → coordinator: VOTE (payload: 1 = yes, 0 = no).
pub const VOTE: u16 = 21;
/// Coordinator → participant: decision (payload: 1 = COMMIT, 0 = ABORT).
pub const DECISION: u16 = 22;

/// Coordinator (P0). `wait_for_all = false` is the bug.
pub struct Coordinator {
    pub yes_votes: u8,
    pub no_votes: u8,
    pub decided: Option<bool>,
    pub wait_for_all: bool,
}

impl Coordinator {
    /// The buggy coordinator (commits on the first YES).
    pub fn buggy() -> Self {
        Self {
            yes_votes: 0,
            no_votes: 0,
            decided: None,
            wait_for_all: false,
        }
    }

    /// The fixed coordinator.
    pub fn fixed() -> Self {
        Self {
            wait_for_all: true,
            ..Self::buggy()
        }
    }

    fn participants(ctx: &Context) -> u8 {
        (ctx.world_size() - 1) as u8
    }

    fn decide(&mut self, ctx: &mut Context, commit: bool) {
        self.decided = Some(commit);
        // One decision buffer, aliased by every participant's copy.
        let decision = fixd_runtime::Payload::from([u8::from(commit)]);
        for i in 1..ctx.world_size() as u32 {
            ctx.send(Pid(i), DECISION, decision.clone());
        }
        ctx.output(vec![b'D', u8::from(commit)]);
    }
}

impl Program for Coordinator {
    fn on_start(&mut self, ctx: &mut Context) {
        let req = fixd_runtime::Payload::empty();
        for i in 1..ctx.world_size() as u32 {
            ctx.send(Pid(i), VOTE_REQ, req.clone());
        }
    }

    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        if msg.tag != VOTE || self.decided.is_some() {
            return;
        }
        if msg.payload[0] == 1 {
            self.yes_votes += 1;
        } else {
            self.no_votes += 1;
        }
        let all = Self::participants(ctx);
        if self.no_votes > 0 {
            self.decide(ctx, false);
        } else if self.wait_for_all {
            if self.yes_votes == all {
                self.decide(ctx, true);
            }
        } else if self.yes_votes >= 1 {
            // BUG: premature commit without hearing everyone.
            self.decide(ctx, true);
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }

    fn snapshot_to(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&[
            self.yes_votes,
            self.no_votes,
            match self.decided {
                None => 2,
                Some(false) => 0,
                Some(true) => 1,
            },
            u8::from(self.wait_for_all),
        ]);
    }

    fn restore(&mut self, b: &[u8]) {
        self.yes_votes = b[0];
        self.no_votes = b[1];
        self.decided = match b[2] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        };
        self.wait_for_all = b[3] != 0;
    }

    fn clone_program(&self) -> Box<dyn Program> {
        Box::new(Self {
            yes_votes: self.yes_votes,
            no_votes: self.no_votes,
            decided: self.decided,
            wait_for_all: self.wait_for_all,
        })
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> &'static str {
        "2pc-coordinator"
    }
}

/// Participant (P1..): votes according to `will_vote`, obeys the decision.
pub struct Participant {
    pub will_vote: bool,
    pub committed: Option<bool>,
}

impl Participant {
    /// A participant that will vote `yes`.
    pub fn new(yes: bool) -> Self {
        Self {
            will_vote: yes,
            committed: None,
        }
    }
}

impl Program for Participant {
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        match msg.tag {
            VOTE_REQ => ctx.send(Pid(0), VOTE, [u8::from(self.will_vote)]),
            DECISION => self.committed = Some(msg.payload[0] == 1),
            _ => {}
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        super::snapshot_vec(self)
    }
    fn snapshot_to(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&[
            u8::from(self.will_vote),
            match self.committed {
                None => 2,
                Some(false) => 0,
                Some(true) => 1,
            },
        ]);
    }
    fn restore(&mut self, b: &[u8]) {
        self.will_vote = b[0] != 0;
        self.committed = match b[1] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        };
    }
    fn clone_program(&self) -> Box<dyn Program> {
        Box::new(Self {
            will_vote: self.will_vote,
            committed: self.committed,
        })
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn name(&self) -> &'static str {
        "2pc-participant"
    }
}

/// Atomicity monitor: nobody may learn COMMIT if any participant will
/// vote NO.
pub fn atomicity_monitor() -> Monitor {
    let check = |committed: bool, any_no: bool| !(committed && any_no);
    Monitor::global(
        "2pc-atomicity",
        move |w| {
            let any_no = (1..w.num_procs()).any(|i| {
                w.program::<Participant>(Pid(i as u32))
                    .is_some_and(|p| !p.will_vote)
            });
            let committed = (1..w.num_procs()).any(|i| {
                w.program::<Participant>(Pid(i as u32))
                    .is_some_and(|p| p.committed == Some(true))
            });
            check(committed, any_no)
        },
        move |s| {
            let any_no = (1..s.width()).any(|i| {
                s.program::<Participant>(Pid(i as u32))
                    .is_some_and(|p| !p.will_vote)
            });
            let committed = (1..s.width()).any(|i| {
                s.program::<Participant>(Pid(i as u32))
                    .is_some_and(|p| p.committed == Some(true))
            });
            check(committed, any_no)
        },
    )
}

/// Build a 2PC world over an explicit [`WorldConfig`] (campaign matrices
/// inject network pathologies through the config).
pub fn tpc_world_cfg(cfg: WorldConfig, votes: &[bool], buggy: bool) -> World {
    let mut w = World::new(cfg);
    w.add_process(Box::new(if buggy {
        Coordinator::buggy()
    } else {
        Coordinator::fixed()
    }));
    for &v in votes {
        w.add_process(Box::new(Participant::new(v)));
    }
    w
}

/// Build a 2PC world: coordinator + participants with the given votes.
pub fn tpc_world(seed: u64, votes: &[bool], buggy: bool) -> World {
    tpc_world_cfg(WorldConfig::seeded(seed), votes, buggy)
}

/// Program factory for the Investigator (same topology, from scratch).
pub fn tpc_factory(
    votes: Vec<bool>,
    buggy: bool,
) -> impl Fn() -> Vec<Box<dyn Program>> + Send + Sync {
    move || {
        let mut v: Vec<Box<dyn Program>> = vec![Box::new(if buggy {
            Coordinator::buggy()
        } else {
            Coordinator::fixed()
        })];
        for &y in &votes {
            v.push(Box::new(Participant::new(y)));
        }
        v
    }
}

/// The coordinator fix as a Healer patch (state layout unchanged except
/// the flag, which the migration flips).
pub fn coordinator_patch() -> Patch {
    Patch::code_only("2pc-wait-for-all", 1, 2, || Box::new(Coordinator::fixed()))
        .with_migration(migrate::from_fn(|old| {
            let mut b = old.to_vec();
            if b.len() != 4 {
                return Err(fixd_healer::MigrateError::Malformed(
                    "coordinator state".into(),
                ));
            }
            b[3] = 1; // wait_for_all = true
            Ok(b)
        }))
        .with_precondition(
            |old| old.len() == 4 && old[2] == 2, /* not yet decided */
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_coordinator_aborts_on_any_no() {
        let mut w = tpc_world(1, &[true, false, true], false);
        w.run_to_quiescence(10_000);
        let monitor = atomicity_monitor();
        assert!(monitor.violated_in(&w).is_none());
        let c = w.program::<Coordinator>(Pid(0)).unwrap();
        assert_eq!(c.decided, Some(false));
    }

    #[test]
    fn fixed_coordinator_commits_on_all_yes() {
        let mut w = tpc_world(1, &[true, true, true], false);
        w.run_to_quiescence(10_000);
        let c = w.program::<Coordinator>(Pid(0)).unwrap();
        assert_eq!(c.decided, Some(true));
        for i in 1..4 {
            assert_eq!(
                w.program::<Participant>(Pid(i)).unwrap().committed,
                Some(true)
            );
        }
    }

    #[test]
    fn buggy_coordinator_violates_atomicity_on_some_schedule() {
        // With FIFO the YES (from P1) may arrive before the NO —
        // manifestation depends on ordering; assert the violation is
        // reachable across seeds with jitter.
        let monitor = atomicity_monitor();
        let mut violated = false;
        for seed in 0..30 {
            let mut cfg = WorldConfig::seeded(seed);
            cfg.net = fixd_runtime::NetworkConfig::jittery(1, 60);
            let mut w = World::new(cfg);
            w.add_process(Box::new(Coordinator::buggy()));
            for &v in &[true, false] {
                w.add_process(Box::new(Participant::new(v)));
            }
            while w.step().is_some() {
                if monitor.violated_in(&w).is_some() {
                    violated = true;
                    break;
                }
            }
            if violated {
                break;
            }
        }
        assert!(violated);
    }

    #[test]
    fn patch_flips_the_flag_only_before_decision() {
        let patch = coordinator_patch();
        let undecided = Coordinator::buggy().snapshot();
        assert!(patch.applicable_to(&undecided));
        let prog = patch.instantiate(&undecided).unwrap();
        let c = prog.as_any().downcast_ref::<Coordinator>().unwrap();
        assert!(c.wait_for_all);
        // Already decided: precondition refuses (decision can't be unmade
        // by a code swap; rollback must go deeper).
        let mut decided = Coordinator::buggy();
        decided.decided = Some(true);
        assert!(!patch.applicable_to(&decided.snapshot()));
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut c = Coordinator::buggy();
        c.yes_votes = 2;
        c.decided = Some(true);
        let mut d = Coordinator::fixed();
        d.restore(&c.snapshot());
        assert_eq!(d.snapshot(), c.snapshot());
    }
}
