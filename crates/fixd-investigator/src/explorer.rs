//! The back-end exploration engine's public face: configuration,
//! report, and the [`Explorer`] builder. The loop itself is
//! [`crate::frontier`].
//!
//! "The back-end component is responsible for performing the actual state
//! transitions, keeping track of the visited execution paths (calculating
//! the reachability graph), and verifying that no user-specified
//! invariants are violated." (§4.3)
//!
//! Features mapped to the paper:
//! * exhaustive exploration with visited-state deduplication (Fig. 3);
//! * customizable search order ([`SearchOrder`]);
//! * guided single-path execution ([`Explorer::run_guided`]) — "we can
//!   ensure that we only pursue a single execution path (the path the
//!   'conventional' implementation would take)";
//! * trails to every violation ([`crate::Trail`]);
//! * deadlock reporting (as CMC does).

use std::sync::OnceLock;

use crate::frontier::{explore, SOLO_ITEMS};
use crate::invariant::Invariant;
pub use crate::search::SearchOrder;
use crate::system::TransitionSystem;
use crate::trail::Trail;

/// Exploration limits and options.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Stop after this many distinct states (the paper's motivating
    /// limit: "prohibitively expensive, memory-wise, to model a
    /// moderately complex system of more than 5-10 processes", §2.1).
    pub max_states: usize,
    /// Do not expand states deeper than this.
    pub max_depth: usize,
    /// The order one worker expands states in. More than one worker
    /// share the LIFO lanes of a work-stealing queue and ignore it. A
    /// run no limit stops reports the same in every order, so there the
    /// order is a cost and [`SearchOrder::Dfs`] the cheap one
    /// ([`Self::exhaustive`]); the order decides what a stopped run (a
    /// hunt, a `max_states` cut) gets to see, and there
    /// [`SearchOrder::Bfs`], the default, has seen the shortest
    /// counterexamples.
    pub order: SearchOrder,
    /// Return after the first violation (bug hunting) instead of
    /// collecting up to `max_violations`.
    pub stop_at_first_violation: bool,
    /// Cap on collected violation trails. From
    /// [`Explorer::run_parallel`] at more than one worker a few more can
    /// come back: every worker finishes the successor it is on.
    pub max_violations: usize,
    /// Report unexpected terminal states as deadlocks.
    pub detect_deadlocks: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            max_states: 1_000_000,
            max_depth: 100_000,
            order: SearchOrder::Bfs,
            stop_at_first_violation: false,
            max_violations: 16,
            detect_deadlocks: true,
        }
    }
}

impl ExploreConfig {
    /// Bug-hunting preset: DFS, stop at first violation.
    pub fn hunt() -> Self {
        Self {
            order: SearchOrder::Dfs,
            stop_at_first_violation: true,
            ..Self::default()
        }
    }

    /// The preset for a space that finishes: LIFO order, `max_states` as
    /// the fuse. The report of a run that finishes is the same in every
    /// order, and LIFO gets there holding a stack of states where BFS
    /// holds a layer, and expands each while it is still in cache; a
    /// guard turns the lane where the graph punishes the order (see
    /// [`SearchOrder::Dfs`]). [`Explorer::run`] gives such a run every
    /// core ([`Explorer::workers`]). If the fuse blows, what the run had
    /// seen is what a one-worker depth-first search sees.
    ///
    /// A bounded guarantee over a space that does not finish ("no
    /// violation within 60 steps") is [`Self::default`] with
    /// [`Self::max_depth`] instead: its verdict does not depend on the
    /// order either, and if `max_states` cuts it, BFS has at least seen
    /// every state closer than the cut.
    pub fn exhaustive(max_states: usize) -> Self {
        Self {
            max_states,
            order: SearchOrder::Dfs,
            ..Self::default()
        }
    }
}

/// What an exploration found.
#[derive(Clone, Debug)]
pub struct ExploreReport<L> {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions executed (successor computations).
    pub transitions: u64,
    /// Deepest state reached.
    pub max_depth_reached: usize,
    /// Trails to invariant violations, sorted by `(depth, end
    /// fingerprint, name)`.
    pub violations: Vec<Trail<L>>,
    /// Trails to unexpected terminal states, sorted the same way.
    pub deadlocks: Vec<Trail<L>>,
    /// True if a limit (states/depth/violations) cut the search short.
    pub truncated: bool,
}

impl<L> ExploreReport<L> {
    /// No violations and no deadlocks found.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.deadlocks.is_empty()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "states={} transitions={} depth={} violations={} deadlocks={}{}",
            self.states,
            self.transitions,
            self.max_depth_reached,
            self.violations.len(),
            self.deadlocks.len(),
            if self.truncated { " (truncated)" } else { "" }
        )
    }
}

/// Outcome of a guided (single-path) run.
#[derive(Clone, Debug)]
pub struct GuidedOutcome<S, L> {
    /// Steps successfully executed.
    pub executed: usize,
    /// Invariant violations hit along the path: (step index, name).
    pub violations: Vec<(usize, String)>,
    /// Step index at which the prescribed label was not enabled (path
    /// infeasible from there), if any.
    pub stuck_at: Option<usize>,
    /// State after the executed prefix.
    pub final_state: S,
    /// The prescribed path (returned for convenience).
    pub path: Vec<L>,
}

/// The exploration engine over a [`TransitionSystem`].
pub struct Explorer<'a, T: TransitionSystem> {
    sys: &'a T,
    invariants: Vec<Invariant<T::State>>,
    terminal_checks: Vec<Invariant<T::State>>,
    cfg: ExploreConfig,
}

impl<'a, T: TransitionSystem> Explorer<'a, T> {
    /// An explorer over `sys` with the given configuration.
    pub fn new(sys: &'a T, cfg: ExploreConfig) -> Self {
        Self {
            sys,
            invariants: Vec::new(),
            terminal_checks: Vec::new(),
            cfg,
        }
    }

    /// Add a safety property (builder style).
    pub fn invariant(mut self, inv: Invariant<T::State>) -> Self {
        self.invariants.push(inv);
        self
    }

    /// Add several safety properties.
    pub fn invariants(mut self, invs: impl IntoIterator<Item = Invariant<T::State>>) -> Self {
        self.invariants.extend(invs);
        self
    }

    /// Add a **terminal** property — checked only on states with no
    /// enabled transitions. This is the bounded "eventually" check that
    /// complements safety invariants: e.g. *"when the protocol quiesces,
    /// every participant has learned the decision"*. A terminal state
    /// failing the check yields a trail named `eventually: <name>`.
    pub fn terminal_invariant(mut self, inv: Invariant<T::State>) -> Self {
        self.terminal_checks.push(inv);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExploreConfig {
        &self.cfg
    }

    /// Explore within the configured bounds on [`Self::workers`]
    /// workers, the others starting only once the calling thread has
    /// expanded a thousand states alone (a smaller run spawns nothing).
    /// The report is a function of the system and the configuration
    /// alone: a run that no limit stops reports the same at any worker
    /// count, and one that `max_states` or `max_violations` stops after
    /// the others have started is explored again on the calling thread
    /// alone, so that what it reports is what one worker sees when it
    /// stops.
    pub fn run(&self) -> ExploreReport<T::Label> {
        let workers = self.workers();
        if workers > 1 {
            let (report, cut) = self.explore(workers, SOLO_ITEMS);
            if !cut {
                return report;
            }
        }
        self.run_parallel(1)
    }

    /// The worker count [`Self::run`] explores with. A run meant to
    /// finish, one in the LIFO order ([`ExploreConfig::exhaustive`]) that
    /// does not stop at its first violation, takes every core the
    /// process may use: its report does not depend on the worker count,
    /// and only a blown fuse costs it the serial re-run. Any other run
    /// takes one: it is a hunt, a diagnosis or a bounded check, which a
    /// limit is expected to stop, and whose cut depends on the order.
    pub fn workers(&self) -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        let finishes = self.cfg.order == SearchOrder::Dfs && !self.cfg.stop_at_first_violation;
        if !finishes {
            return 1;
        }
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Explore with `workers` workers (the calling thread is one of
    /// them). A run that no limit cuts short reports exactly what
    /// [`Explorer::run`] reports, trails included, at any worker count;
    /// see [`crate::frontier`] for what a truncated run holds. A panic
    /// on any worker (a handler, an invariant) stops the run and reaches
    /// the caller with its own payload.
    pub fn run_parallel(&self, workers: usize) -> ExploreReport<T::Label> {
        self.explore(workers, 0).0
    }

    fn explore(&self, workers: usize, solo: usize) -> (ExploreReport<T::Label>, bool) {
        explore(
            self.sys,
            &self.invariants,
            &self.terminal_checks,
            &self.cfg,
            workers,
            solo,
        )
    }

    /// Execute exactly one prescribed path (§4.3's "single execution
    /// path"), checking invariants along the way.
    pub fn run_guided(&self, path: &[T::Label]) -> GuidedOutcome<T::State, T::Label> {
        let mut state = self.sys.initial();
        let mut violations = Vec::new();
        if let Some(inv) = Invariant::first_violated(&self.invariants, &state) {
            violations.push((0usize, inv.name.clone()));
        }
        let mut executed = 0;
        let mut stuck_at = None;
        for (i, l) in path.iter().enumerate() {
            if !self.sys.enabled(&state).iter().any(|e| e == l) {
                stuck_at = Some(i);
                break;
            }
            state = self.sys.apply(&state, l);
            executed += 1;
            if let Some(inv) = Invariant::first_violated(&self.invariants, &state) {
                violations.push((i + 1, inv.name.clone()));
            }
        }
        GuidedOutcome {
            executed,
            violations,
            stuck_at,
            final_state: state,
            path: path.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guarded::GuardedSystemBuilder;

    /// Peterson-free naive mutex: two flags, both may enter — a seeded
    /// mutual-exclusion bug the explorer must find.
    /// State: [in_cs_a, in_cs_b, done_a, done_b]
    fn naive_mutex() -> crate::guarded::GuardedSystem<[bool; 4]> {
        GuardedSystemBuilder::new([false, false, false, false])
            .action("enter-a", |s: &[bool; 4]| !s[0] && !s[2], |s| s[0] = true)
            .action("enter-b", |s: &[bool; 4]| !s[1] && !s[3], |s| s[1] = true)
            .action(
                "leave-a",
                |s: &[bool; 4]| s[0],
                |s| {
                    s[0] = false;
                    s[2] = true;
                },
            )
            .action(
                "leave-b",
                |s: &[bool; 4]| s[1],
                |s| {
                    s[1] = false;
                    s[3] = true;
                },
            )
            .build()
    }

    fn mutex_invariant() -> Invariant<[bool; 4]> {
        Invariant::new("mutual-exclusion", |s: &[bool; 4]| !(s[0] && s[1]))
    }

    #[test]
    fn finds_mutex_violation_with_shortest_trail() {
        let sys = naive_mutex();
        let report = Explorer::new(&sys, ExploreConfig::default())
            .invariant(mutex_invariant())
            .run();
        assert!(!report.violations.is_empty());
        // BFS: shortest counterexample is enter-a, enter-b (depth 2).
        assert_eq!(report.violations[0].depth, 2);
        assert_eq!(report.violations[0].violation, "mutual-exclusion");
    }

    #[test]
    fn dfs_also_finds_it() {
        let sys = naive_mutex();
        let report = Explorer::new(&sys, ExploreConfig::hunt())
            .invariant(mutex_invariant())
            .run();
        assert_eq!(report.violations.len(), 1);
        assert!(report.truncated, "stopped early");
    }

    #[test]
    fn random_order_reproducible() {
        let sys = naive_mutex();
        // Exhaustive, and as a hunt that stops at the first violation
        // (what it has seen by then depends on the draws alone).
        for stop_at_first_violation in [false, true] {
            let run = |seed| {
                Explorer::new(
                    &sys,
                    ExploreConfig {
                        order: SearchOrder::Random { seed },
                        stop_at_first_violation,
                        ..ExploreConfig::default()
                    },
                )
                .invariant(mutex_invariant())
                .run()
            };
            let a = run(3);
            let b = run(3);
            assert_eq!((a.states, a.transitions), (b.states, b.transitions));
            assert!(!a.violations.is_empty());
            assert_eq!(a.violations, b.violations);
        }
    }

    #[test]
    fn exhaustive_state_count_without_invariants() {
        // Without the violation cut, count the full reachable graph.
        let sys = naive_mutex();
        let report = Explorer::new(&sys, ExploreConfig::default()).run();
        // States: each process is in one of 3 phases (idle, cs, done) —
        // 9 combined states reachable.
        assert_eq!(report.states, 9);
        assert!(report.clean());
        assert!(!report.truncated);
    }

    #[test]
    fn max_states_truncates() {
        let sys = naive_mutex();
        let report = Explorer::new(&sys, ExploreConfig::exhaustive(3)).run();
        assert!(report.truncated);
        assert!(report.states <= 3);
    }

    #[test]
    fn deadlock_detection() {
        // A system that wedges: both grab the other's resource.
        // state: (a_has, b_has) of resources (r1, r2)
        let sys = GuardedSystemBuilder::new((0u8, 0u8))
            .action("a-take-r1", |s: &(u8, u8)| s.0 == 0, |s| s.0 = 1)
            .action(
                "a-take-r2",
                |s: &(u8, u8)| s.0 == 1 && s.1 != 2,
                |s| s.0 = 3,
            )
            .action("b-take-r2", |s: &(u8, u8)| s.1 == 0, |s| s.1 = 2)
            .action(
                "b-take-r1",
                |s: &(u8, u8)| s.1 == 2 && s.0 != 1 && s.0 != 3,
                |s| s.1 = 3,
            )
            .expected_terminal(|s| s.0 == 3 || s.1 == 3)
            .build();
        let report = Explorer::new(&sys, ExploreConfig::default()).run();
        assert!(
            !report.deadlocks.is_empty(),
            "a-take-r1 + b-take-r2 wedges: {}",
            report.summary()
        );
        assert_eq!(report.deadlocks[0].violation, "deadlock");
    }

    #[test]
    fn guided_run_follows_single_path() {
        let sys = naive_mutex();
        let path = vec![sys
            .enabled(&[false; 4])
            .into_iter()
            .find(|l| l.name == "enter-a")
            .unwrap()];
        let out = Explorer::new(&sys, ExploreConfig::default())
            .invariant(mutex_invariant())
            .run_guided(&path);
        assert_eq!(out.executed, 1);
        assert!(out.violations.is_empty());
        assert!(out.stuck_at.is_none());
        assert!(out.final_state[0]);
    }

    #[test]
    fn guided_run_reports_infeasible_step() {
        let sys = naive_mutex();
        let enter_a = sys
            .enabled(&[false; 4])
            .into_iter()
            .find(|l| l.name == "enter-a")
            .unwrap();
        // enter-a twice: second occurrence is not enabled.
        let out =
            Explorer::new(&sys, ExploreConfig::default()).run_guided(&[enter_a.clone(), enter_a]);
        assert_eq!(out.executed, 1);
        assert_eq!(out.stuck_at, Some(1));
    }

    #[test]
    fn guided_run_detects_violation_on_path() {
        let sys = naive_mutex();
        let at = |s: &[bool; 4], n: &str| sys.enabled(s).into_iter().find(|l| l.name == n).unwrap();
        let s0 = [false; 4];
        let a = at(&s0, "enter-a");
        let s1 = sys.apply(&s0, &a);
        let b = at(&s1, "enter-b");
        let out = Explorer::new(&sys, ExploreConfig::default())
            .invariant(mutex_invariant())
            .run_guided(&[a, b]);
        assert_eq!(out.violations, vec![(2, "mutual-exclusion".to_string())]);
    }

    #[test]
    fn terminal_invariants_check_quiescent_states_only() {
        // Counter to 3; "eventually: reached 3" must hold at every
        // terminal state — and does. "eventually: is even" fails.
        let sys = GuardedSystemBuilder::new(0u8)
            .action("inc", |s: &u8| *s < 3, |s| *s += 1)
            .build();
        let ok = Explorer::new(&sys, ExploreConfig::default())
            .terminal_invariant(Invariant::new("reached-3", |s: &u8| *s == 3))
            .run();
        assert!(ok.clean(), "{}", ok.summary());

        let sys2 = GuardedSystemBuilder::new(0u8)
            .action("inc", |s: &u8| *s < 3, |s| *s += 1)
            .action("stop-early", |s: &u8| *s == 1, |s| *s = 103) // dead end
            .build();
        let bad = Explorer::new(&sys2, ExploreConfig::default())
            .terminal_invariant(Invariant::new("reached-3", |s: &u8| {
                *s == 3 || *s == 103 + 100
            }))
            .run();
        assert!(!bad.violations.is_empty());
        assert!(bad
            .violations
            .iter()
            .any(|t| t.violation == "eventually: reached-3"));
        // Non-terminal states (0,1,2) never trigger the terminal check:
        // the only violating trails end in terminal states (3 or 103).
        for t in &bad.violations {
            assert!(t.depth >= 2, "trail {t:?} must end terminal");
        }
    }

    #[test]
    fn report_summary_format() {
        let sys = naive_mutex();
        let report = Explorer::new(&sys, ExploreConfig::default()).run();
        let s = report.summary();
        assert!(s.contains("states=9"));
        assert!(s.contains("violations=0"));
    }
}
