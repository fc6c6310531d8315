//! Distributed speculations (paper §4.2, after \[Ţăpuş, PhD 2006\]).
//!
//! > *"A speculation defines a computation that is based on an assumption
//! > whose verification may be performed in parallel with the
//! > computation. If the assumption is validated then the speculation is
//! > committed ... if the assumption is invalidated then the speculation
//! > is aborted and the process is rolled back to the state it had before
//! > entering the speculation."*
//!
//! Implementation notes mapping to the paper:
//!
//! * entering a speculation takes a *lightweight checkpoint* (a COW
//!   [`crate::checkpoint::TmCheckpoint`]);
//! * messages sent while speculative carry the speculation id
//!   ([`fixd_runtime::MsgMeta::spec_id`]); receivers are **absorbed**
//!   (their own entry checkpoint is taken before the receive executes);
//! * abort rolls back *all absorbed processes* to their entry
//!   checkpoints and purges speculative messages still in flight;
//! * after an abort the application may take *"a different execution
//!   path"* — the [`AbortReport`] names the rolled-back processes so the
//!   caller (ultimately the Healer) can steer them.
//!
//! A process participates in at most one speculation at a time; a
//! speculative message arriving at a process already inside a different
//! active speculation *links* the two (aborting either rolls back the
//! members of both), a conservative approximation of nested speculations.

use fixd_runtime::{Pid, World};

use crate::cic::TimeMachine;
use crate::dependency::NO_ROLLBACK;
use crate::recovery::RollbackReport;

/// Lifecycle of a speculation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecStatus {
    Active,
    Committed,
    Aborted,
}

/// One speculation: who is inside it, and where they entered.
#[derive(Clone, Debug)]
pub struct Speculation {
    /// Nonzero id (0 is reserved for "not speculative").
    pub id: u64,
    /// The process that initiated the speculation.
    pub initiator: Pid,
    /// Human-readable description of the assumption.
    pub assumption: String,
    /// Members and their entry checkpoint indices.
    pub members: Vec<(Pid, u64)>,
    /// Speculations linked to this one by cross-speculative messages.
    pub linked: Vec<u64>,
    pub status: SpecStatus,
}

impl Speculation {
    /// Is `pid` a member?
    pub fn contains(&self, pid: Pid) -> bool {
        self.members.iter().any(|(p, _)| *p == pid)
    }
}

/// Outcome of an abort — who lost state.
#[derive(Clone, Debug, Default)]
pub struct AbortReport {
    /// The aborted speculation (plus any linked ones).
    pub specs_aborted: Vec<u64>,
    /// Processes rolled back to their entry checkpoints.
    pub rolled_back: Vec<Pid>,
    /// Underlying rollback accounting.
    pub rollback: RollbackReport,
}

impl TimeMachine {
    /// Begin a speculation at `pid` based on `assumption`. Takes the
    /// entry checkpoint and starts stamping `pid`'s sends with the
    /// speculation id. Returns the speculation id.
    pub fn speculate(&mut self, world: &mut World, pid: Pid, assumption: &str) -> u64 {
        self.init(world);
        let id = self.specs.len() as u64 + 1;
        let entry = self.checkpoint_now(world, pid);
        self.specs.push(Speculation {
            id,
            initiator: pid,
            assumption: assumption.to_string(),
            members: vec![(pid, entry)],
            linked: Vec::new(),
            status: SpecStatus::Active,
        });
        self.spec_of[pid.idx()] = id;
        self.restamp(world, pid);
        id
    }

    fn restamp(&self, world: &mut World, pid: Pid) {
        let mut meta = world.meta_template(pid);
        meta.ckpt_index = self.intervals[pid.idx()];
        meta.spec_id = self.spec_of[pid.idx()];
        world.set_meta_template(pid, meta);
    }

    /// Absorb `pid` into active speculation `spec_id` (called by the
    /// driver when a speculative message is about to be delivered).
    pub(crate) fn absorb(&mut self, world: &mut World, pid: Pid, spec_id: u64) {
        let Some(spec) = self.specs.get(spec_id as usize - 1) else {
            return;
        };
        if spec.status != SpecStatus::Active {
            return;
        }
        let current = self.spec_of[pid.idx()];
        if current == spec_id {
            return; // already inside
        }
        if current != 0 {
            // Cross-speculation message: link the two speculations.
            let a = spec_id as usize - 1;
            let b = current as usize - 1;
            if !self.specs[a].linked.contains(&current) {
                self.specs[a].linked.push(current);
            }
            if !self.specs[b].linked.contains(&spec_id) {
                self.specs[b].linked.push(spec_id);
            }
            return;
        }
        // Entry checkpoint: under EveryReceive policy one was just taken
        // for this delivery; otherwise take one now.
        let entry = if self.cfg.policy == crate::cic::CheckpointPolicy::EveryReceive {
            self.intervals[pid.idx()]
        } else {
            self.checkpoint_now(world, pid)
        };
        self.specs[spec_id as usize - 1].members.push((pid, entry));
        self.spec_of[pid.idx()] = spec_id;
        self.restamp(world, pid);
    }

    /// Commit a speculation: the assumption held. Members simply stop
    /// being speculative; no state is touched.
    pub fn commit(&mut self, world: &mut World, id: u64) -> bool {
        let Some(spec) = self.specs.get_mut(id as usize - 1) else {
            return false;
        };
        if spec.status != SpecStatus::Active {
            return false;
        }
        spec.status = SpecStatus::Committed;
        let members: Vec<Pid> = spec.members.iter().map(|(p, _)| *p).collect();
        for pid in members {
            if self.spec_of[pid.idx()] == id {
                self.spec_of[pid.idx()] = 0;
                self.restamp(world, pid);
            }
        }
        true
    }

    /// Abort a speculation: the assumption failed. Every member (of this
    /// speculation and of any linked ones) rolls back to its entry
    /// checkpoint; speculative messages still in flight are purged.
    pub fn abort(&mut self, world: &mut World, id: u64) -> Option<AbortReport> {
        let spec = self.specs.get(id as usize - 1)?;
        if spec.status != SpecStatus::Active {
            return None;
        }
        // Gather the closure over linked speculations.
        let mut ids = vec![id];
        let mut i = 0;
        while i < ids.len() {
            let s = &self.specs[ids[i] as usize - 1];
            for &l in &s.linked {
                if !ids.contains(&l) && self.specs[l as usize - 1].status == SpecStatus::Active {
                    ids.push(l);
                }
            }
            i += 1;
        }
        // Build the rollback line: member → entry checkpoint.
        let n = self.stores.len();
        let mut line = vec![NO_ROLLBACK; n];
        let mut rolled = Vec::new();
        for &sid in &ids {
            for &(pid, entry) in &self.specs[sid as usize - 1].members {
                if line[pid.idx()] > entry {
                    line[pid.idx()] = entry;
                }
            }
        }
        for (i, &l) in line.iter().enumerate() {
            if l != NO_ROLLBACK {
                rolled.push(Pid(i as u32));
            }
        }
        // Purge speculative messages of the aborted closure first (they
        // must never be delivered even if their sender's line survives).
        let ids_for_purge = ids.clone();
        world.purge_events(move |kind| match kind {
            fixd_runtime::EventKind::Deliver { msg } => ids_for_purge.contains(&msg.meta.spec_id),
            _ => false,
        });
        let rollback = self.apply_line(world, &line).ok()?;
        for &sid in &ids {
            self.specs[sid as usize - 1].status = SpecStatus::Aborted;
        }
        // apply_line already cleared spec_of for rolled-back processes.
        Some(AbortReport {
            specs_aborted: ids,
            rolled_back: rolled,
            rollback,
        })
    }

    /// Resolve a speculation from the verification outcome: commit when
    /// the assumption validated, abort otherwise.
    pub fn resolve(&mut self, world: &mut World, id: u64, valid: bool) -> Option<AbortReport> {
        if valid {
            self.commit(world, id);
            None
        } else {
            self.abort(world, id)
        }
    }

    /// Look up a speculation.
    pub fn speculation(&self, id: u64) -> Option<&Speculation> {
        self.specs.get(id as usize - 1)
    }

    /// The active speculation `pid` is inside, if any.
    pub fn active_spec_of(&self, pid: Pid) -> Option<u64> {
        match self.spec_of[pid.idx()] {
            0 => None,
            s => Some(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cic::{CheckpointPolicy, TimeMachineConfig};
    use fixd_runtime::{Context, Message, Program, WorldConfig};

    /// A worker that applies increments it receives; P0 seeds the chain
    /// P0 → P1 → P2 with `depth` hops.
    #[derive(Clone)]
    struct Chain {
        value: u64,
    }
    impl Program for Chain {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                self.value += 1;
                ctx.send(Pid(1), 1, vec![2]);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            self.value += 10;
            if msg.payload[0] > 0 && ctx.world_size() > 2 {
                let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
                ctx.send(next, 1, vec![msg.payload[0] - 1]);
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.value.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.value = u64::from_le_bytes(b.try_into().unwrap());
        }
    }

    fn setup(n: usize) -> (World, TimeMachine) {
        let mut w = World::new(WorldConfig::seeded(21));
        for _ in 0..n {
            w.add_process(Box::new(Chain { value: 0 }));
        }
        let tm = TimeMachine::new(
            n,
            TimeMachineConfig {
                policy: CheckpointPolicy::EveryReceive,
                page_size: 64,
            },
        );
        (w, tm)
    }

    #[test]
    fn speculative_messages_absorb_receivers() {
        let (mut w, mut tm) = setup(3);
        tm.init(&mut w);
        let spec = tm.speculate(&mut w, Pid(0), "assume config flag F is on");
        // P0 starts, sends speculative message down the chain.
        tm.run(&mut w, 10_000);
        let s = tm.speculation(spec).unwrap();
        assert_eq!(s.status, SpecStatus::Active);
        assert!(s.contains(Pid(0)));
        assert!(s.contains(Pid(1)), "P1 absorbed via speculative message");
        assert!(s.contains(Pid(2)), "absorption is transitive");
        assert_eq!(tm.active_spec_of(Pid(1)), Some(spec));
    }

    #[test]
    fn commit_keeps_state_and_clears_speculative_status() {
        let (mut w, mut tm) = setup(3);
        tm.init(&mut w);
        let spec = tm.speculate(&mut w, Pid(0), "assumption");
        tm.run(&mut w, 10_000);
        let before: Vec<u64> = (0..3)
            .map(|i| w.program::<Chain>(Pid(i)).unwrap().value)
            .collect();
        assert!(tm.commit(&mut w, spec));
        let after: Vec<u64> = (0..3)
            .map(|i| w.program::<Chain>(Pid(i)).unwrap().value)
            .collect();
        assert_eq!(before, after);
        assert_eq!(tm.active_spec_of(Pid(0)), None);
        assert_eq!(tm.speculation(spec).unwrap().status, SpecStatus::Committed);
        assert!(!tm.commit(&mut w, spec), "double commit refused");
    }

    #[test]
    fn abort_restores_pre_speculation_state_everywhere() {
        let (mut w, mut tm) = setup(3);
        tm.init(&mut w);
        let pre: Vec<u64> = (0..3)
            .map(|i| w.program::<Chain>(Pid(i)).unwrap().value)
            .collect();
        let spec = tm.speculate(&mut w, Pid(0), "assumption");
        tm.run(&mut w, 10_000);
        // Speculative execution changed state.
        assert_ne!(
            pre,
            (0..3)
                .map(|i| w.program::<Chain>(Pid(i)).unwrap().value)
                .collect::<Vec<_>>()
        );
        let report = tm.abort(&mut w, spec).unwrap();
        let post: Vec<u64> = (0..3)
            .map(|i| w.program::<Chain>(Pid(i)).unwrap().value)
            .collect();
        assert_eq!(pre, post, "abort must fully undo speculative effects");
        assert_eq!(report.rolled_back.len(), 3);
        assert_eq!(tm.speculation(spec).unwrap().status, SpecStatus::Aborted);
        assert!(tm.abort(&mut w, spec).is_none(), "double abort refused");
    }

    #[test]
    fn abort_purges_inflight_speculative_messages() {
        let (mut w, mut tm) = setup(3);
        tm.init(&mut w);
        let spec = tm.speculate(&mut w, Pid(0), "assumption");
        // Execute only P0's start: its speculative send is now in flight.
        let ev = w.peek().unwrap();
        tm.before_step(&mut w, &ev);
        let rec = w.step().unwrap();
        tm.after_step(&mut w, &rec);
        while let Some(ev) = w.peek() {
            if matches!(ev.kind, fixd_runtime::EventKind::Deliver { .. }) {
                break;
            }
            tm.before_step(&mut w, &ev);
            let rec = w.step().unwrap();
            tm.after_step(&mut w, &rec);
        }
        assert!(!w.inflight_messages().is_empty());
        // Speculative stamping (spec_id in the meta) must not have
        // copied payload bytes: every in-flight speculative message
        // still aliases the allocation recorded in its sender's traced
        // effects.
        for m in &w.inflight_messages() {
            let sent = w
                .trace()
                .records()
                .flat_map(|r| &r.effects.sends)
                .find(|s| s.id == m.id)
                .expect("in-flight message has a recorded send");
            assert!(
                sent.payload.ptr_eq(&m.payload),
                "speculative in-flight payload must alias the sender's record"
            );
        }
        tm.abort(&mut w, spec).unwrap();
        assert!(w.inflight_messages().is_empty(), "speculative mail purged");
        // P0's entry checkpoint predates its on_start, so the abort
        // reboots it; the chain re-executes NON-speculatively (the
        // alternate path), and the purged speculative copy is never
        // delivered — P1 sees the value exactly once.
        tm.run(&mut w, 10_000);
        assert_eq!(w.program::<Chain>(Pid(1)).unwrap().value, 10);
        assert_eq!(tm.active_spec_of(Pid(1)), None);
    }

    #[test]
    fn resolve_dispatches_commit_or_abort() {
        let (mut w, mut tm) = setup(3);
        tm.init(&mut w);
        let s1 = tm.speculate(&mut w, Pid(0), "valid assumption");
        tm.run(&mut w, 10_000);
        assert!(tm.resolve(&mut w, s1, true).is_none());
        assert_eq!(tm.speculation(s1).unwrap().status, SpecStatus::Committed);

        let s2 = tm.speculate(&mut w, Pid(1), "invalid assumption");
        let report = tm.resolve(&mut w, s2, false).unwrap();
        assert!(report.specs_aborted.contains(&s2));
    }

    #[test]
    fn linked_speculations_abort_together() {
        let (mut w, mut tm) = setup(2);
        tm.init(&mut w);
        // Two concurrent speculations on different processes.
        let s0 = tm.speculate(&mut w, Pid(0), "A");
        let s1 = tm.speculate(&mut w, Pid(1), "B");
        // P0 sends (speculatively under s0) to P1 who is inside s1:
        // the speculations become linked.
        tm.run(&mut w, 10_000);
        let sp0 = tm.speculation(s0).unwrap();
        assert!(sp0.linked.contains(&s1) || tm.speculation(s1).unwrap().linked.contains(&s0));
        let report = tm.abort(&mut w, s0).unwrap();
        assert!(
            report.specs_aborted.contains(&s1),
            "linked spec aborted too"
        );
        assert_eq!(tm.speculation(s1).unwrap().status, SpecStatus::Aborted);
    }
}
