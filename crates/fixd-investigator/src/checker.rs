//! [`ModelD`] — the assembled model checker (front-end + back-end), plus
//! from-checkpoint investigation.
//!
//! This is the facade the FixD glue (fixd-core) drives. It bundles a
//! [`WorldModel`] (real programs + environment model) with invariants and
//! an exploration configuration, and supports the two investigation modes
//! the paper contrasts:
//!
//! * **from the initial state** — what CMC does; explores the entire
//!   history (baseline in experiments F3/F4);
//! * **from a restored global checkpoint** (Fig. 4) — what FixD does
//!   after a fault: the peers' checkpoints are assembled into a
//!   [`WorldState`] and exploration starts there, investigating only the
//!   neighborhood of the fault.

use fixd_runtime::Program;

use crate::envmodel::NetModel;
use crate::explorer::{ExploreConfig, ExploreReport, Explorer, GuidedOutcome};
use crate::invariant::Invariant;
use crate::worldmodel::{ModelAction, WorldModel, WorldState};

/// The ModelD model checker over a distributed application.
pub struct ModelD {
    model: WorldModel,
    invariants: Vec<Invariant<WorldState>>,
    cfg: ExploreConfig,
}

impl ModelD {
    /// Check an application from its initial state (CMC-style whole-run
    /// verification).
    pub fn from_initial(
        seed: u64,
        net: NetModel,
        factory: impl Fn() -> Vec<Box<dyn Program>> + Send + Sync + 'static,
    ) -> Self {
        Self {
            model: WorldModel::new(seed, net, factory),
            invariants: Vec::new(),
            cfg: ExploreConfig::default(),
        }
    }

    /// Check an application from a restored consistent global state —
    /// FixD's fault-response mode (Fig. 4).
    pub fn from_checkpoint(seed: u64, net: NetModel, state: WorldState) -> Self {
        Self {
            model: WorldModel::from_state(seed, net, state),
            invariants: Vec::new(),
            cfg: ExploreConfig::default(),
        }
    }

    /// Add a safety property.
    pub fn invariant(mut self, inv: Invariant<WorldState>) -> Self {
        self.invariants.push(inv);
        self
    }

    /// Set the exploration configuration.
    pub fn config(mut self, cfg: ExploreConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Swap the environment model (§4.3's action swap).
    pub fn set_net(&mut self, net: NetModel) {
        self.model.set_net(net);
    }

    /// The underlying model (e.g. for custom exploration).
    pub fn model(&self) -> &WorldModel {
        &self.model
    }

    fn engine(&self) -> Explorer<'_, WorldModel> {
        Explorer::new(&self.model, self.cfg.clone()).invariants(self.invariants.iter().cloned())
    }

    /// Run the exploration on as many workers as it can use (see
    /// [`Explorer::run`]). Returns the report with violation trails.
    pub fn run(&self) -> ExploreReport<ModelAction> {
        self.engine().run()
    }

    /// Run with `threads` workers (see [`Explorer::run_parallel`]).
    pub fn run_parallel(&self, threads: usize) -> ExploreReport<ModelAction> {
        self.engine().run_parallel(threads)
    }

    /// Execute a single prescribed path (the "conventional execution"
    /// mode of §4.3) and report violations along it.
    pub fn run_guided(&self, path: &[ModelAction]) -> GuidedOutcome<WorldState, ModelAction> {
        self.engine().run_guided(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::Message;
    use fixd_runtime::{Context, Pid};

    /// A tiny 2PC-ish protocol with a bug: the coordinator commits after
    /// the FIRST vote instead of waiting for all — classic atomicity
    /// violation that only some interleavings expose.
    #[derive(Clone)]
    pub struct Coord {
        pub votes: u8,
        pub committed: bool,
        pub n_participants: u8,
    }
    impl Program for Coord {
        fn on_start(&mut self, ctx: &mut Context) {
            for i in 1..ctx.world_size() as u32 {
                ctx.send(Pid(i), 1, vec![]); // VOTE-REQ
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            if msg.tag == 2 {
                self.votes += 1;
                // BUG: should be `self.votes == self.n_participants`.
                if self.votes >= 1 && !self.committed {
                    self.committed = true;
                    for i in 1..ctx.world_size() as u32 {
                        ctx.send(Pid(i), 3, vec![]); // COMMIT
                    }
                }
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![self.votes, u8::from(self.committed), self.n_participants]
        }
        fn restore(&mut self, b: &[u8]) {
            self.votes = b[0];
            self.committed = b[1] != 0;
            self.n_participants = b[2];
        }
    }

    #[derive(Clone)]
    pub struct Participant {
        pub will_vote: bool,
        pub committed: bool,
    }
    impl Program for Participant {
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            match msg.tag {
                1 if self.will_vote => ctx.send(Pid(0), 2, vec![]), // VOTE-YES
                3 => self.committed = true,
                _ => {}
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![u8::from(self.will_vote), u8::from(self.committed)]
        }
        fn restore(&mut self, b: &[u8]) {
            self.will_vote = b[0] != 0;
            self.committed = b[1] != 0;
        }
    }

    /// Atomicity: nobody commits unless every participant voted yes.
    fn atomicity() -> Invariant<WorldState> {
        Invariant::new("atomic-commit", |s: &WorldState| {
            let n = s.width();
            let voters = (1..n)
                .filter(|&i| {
                    s.program::<Participant>(Pid(i as u32))
                        .is_some_and(|p| p.will_vote)
                })
                .count();
            let committed = (1..n).any(|i| {
                s.program::<Participant>(Pid(i as u32))
                    .is_some_and(|p| p.committed)
            });
            !committed || voters == n - 1
        })
    }

    fn factory() -> Vec<Box<dyn Program>> {
        vec![
            Box::new(Coord {
                votes: 0,
                committed: false,
                n_participants: 2,
            }) as Box<dyn Program>,
            Box::new(Participant {
                will_vote: true,
                committed: false,
            }),
            Box::new(Participant {
                will_vote: false,
                committed: false,
            }), // NO-voter
        ]
    }

    #[test]
    fn modeld_finds_the_premature_commit() {
        let md = ModelD::from_initial(1, NetModel::reliable(), factory).invariant(atomicity());
        let report = md.run();
        assert!(!report.violations.is_empty(), "{}", report.summary());
        let trail = &report.violations[0];
        assert_eq!(trail.violation, "atomic-commit");
        // The bug needs at least: start P0+P1, VOTE-REQ to P1, VOTE back
        // (premature COMMIT), COMMIT delivered — 5 steps.
        assert!(trail.depth >= 5, "depth={}", trail.depth);
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        let md = ModelD::from_initial(1, NetModel::reliable(), factory).invariant(atomicity());
        let seq = md.run();
        let par = md.run_parallel(4);
        assert_eq!(seq.states, par.states);
        assert_eq!(!seq.violations.is_empty(), !par.violations.is_empty());
    }

    #[test]
    fn trail_replays_in_guided_mode() {
        let md = ModelD::from_initial(1, NetModel::reliable(), factory).invariant(atomicity());
        let report = md.run();
        let trail = &report.violations[0];
        let out = md.run_guided(&trail.labels);
        assert!(out.stuck_at.is_none(), "trail must be feasible");
        assert_eq!(out.executed, trail.depth);
        assert!(
            out.violations.iter().any(|(_, n)| n == "atomic-commit"),
            "replaying the trail reproduces the violation"
        );
    }

    #[test]
    fn from_checkpoint_explores_fewer_states() {
        // Whole-history exploration vs. investigation from midway.
        let md_full = ModelD::from_initial(1, NetModel::reliable(), factory).invariant(atomicity());
        let full = md_full.run();

        // Build the "checkpoint": run the real path up to the votes being
        // in flight, then investigate only from there.
        let model = WorldModel::new(1, NetModel::reliable(), factory);
        use crate::system::TransitionSystem;
        let mut s = model.initial();
        for pid in 0..3u32 {
            s = model.apply(&s, &ModelAction::Start { pid: Pid(pid) });
        }
        // Deliver both VOTE-REQs.
        s = model.apply(
            &s,
            &ModelAction::Deliver {
                src: Pid(0),
                dst: Pid(1),
            },
        );
        s = model.apply(
            &s,
            &ModelAction::Deliver {
                src: Pid(0),
                dst: Pid(2),
            },
        );

        let md_ckpt = ModelD::from_checkpoint(1, NetModel::reliable(), s).invariant(atomicity());
        let from_ckpt = md_ckpt.run();
        assert!(
            !from_ckpt.violations.is_empty(),
            "bug still found from checkpoint"
        );
        assert!(
            from_ckpt.states < full.states,
            "from-checkpoint should be cheaper: {} vs {}",
            from_ckpt.states,
            full.states
        );
    }

    #[test]
    fn lossy_net_model_expands_the_space() {
        let reliable = ModelD::from_initial(1, NetModel::reliable(), factory).run();
        let lossy = ModelD::from_initial(1, NetModel::lossy(), factory).run();
        assert!(lossy.states > reliable.states);
    }
}
