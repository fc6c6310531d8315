//! Property-based tests for the Investigator: order-independence of the
//! report, agreement with a textbook BFS at any worker count, trail
//! feasibility.

mod common;

use proptest::prelude::*;

use common::{naive_bfs, on_held, summary, Counted};
use fixd_investigator::system::TransitionSystem;
use fixd_investigator::{
    ExploreConfig, Explorer, GuardedSystemBuilder, Invariant, ModelD, NetModel, SearchOrder,
};
use fixd_runtime::{Context, Message, Pid, Program};

/// A bounded random-ish guarded system: `k` counters with caps.
fn counters(caps: Vec<u8>) -> fixd_investigator::GuardedSystem<Vec<u8>> {
    let n = caps.len();
    let mut b = GuardedSystemBuilder::new(vec![0u8; n]);
    for (i, cap) in caps.into_iter().enumerate() {
        b = b.action(
            &format!("inc{i}"),
            move |s: &Vec<u8>| s[i] < cap,
            move |s| s[i] += 1,
        );
    }
    b.build()
}

/// [`counters`] with shortcuts: `jumps[j] = (i, by)` moves counter `i`
/// forward by `by` at once, so paths of different length meet in most
/// states. The jumps are declared first: a LIFO search takes the last
/// enabled label first, walks the long way round and has depths to
/// correct when it unwinds.
fn counters_with_jumps(
    caps: Vec<u8>,
    jumps: &[(usize, u8)],
) -> fixd_investigator::GuardedSystem<Vec<u8>> {
    let n = caps.len();
    let mut sys = GuardedSystemBuilder::new(vec![0u8; n]).build();
    for (j, &(i, by)) in jumps.iter().enumerate() {
        let (i, cap) = (i % n, caps[i % n]);
        sys.add_action(fixd_investigator::Action::new(
            &format!("jump{j}"),
            move |s: &Vec<u8>| s[i] + by <= cap,
            move |s| s[i] += by,
        ));
    }
    for action in counters(caps).actions() {
        sys.add_action(action.clone());
    }
    sys
}

/// The `exhaustive` preset against BFS and the textbook reference on
/// `sys`, field by field, trails included; returns how many `apply`s
/// the preset spent on states it had expanded before, on one worker
/// (where that count is a function of the system).
fn preset_equals_bfs(sys: &fixd_investigator::GuardedSystem<Vec<u8>>, top: Vec<u8>) -> u64 {
    let below_top = Invariant::new("below-top", move |s: &Vec<u8>| *s != top);
    let bfs = Explorer::new(sys, ExploreConfig::default())
        .invariant(below_top.clone())
        .run();
    let counted = Counted::new(sys);
    let preset = Explorer::new(&counted, ExploreConfig::exhaustive(1_000_000))
        .invariant(on_held(below_top.clone()))
        .run_parallel(1);
    assert_eq!(naive_bfs(sys, &[below_top]), summary(&preset));
    assert_eq!(summary(&bfs), summary(&preset));
    assert_eq!(bfs.violations, preset.violations);
    assert_eq!(bfs.deadlocks, preset.deadlocks);
    counted.counts.applies() - preset.transitions
}

/// A system sized so that the guard provably fires: under 8192 states
/// the threshold is 1024 requeues, a requeue applies at most one label
/// per action, and more re-applies than that were counted.
#[test]
fn exhaustive_preset_equals_bfs_after_the_flip() {
    let jumps = [(0, 2), (1, 3), (2, 2), (0, 5)];
    let sys = counters_with_jumps(vec![15, 15, 15], &jumps);
    let again = preset_equals_bfs(&sys, vec![15, 15, 15]);
    assert!(again > 1024 * (3 + jumps.len() as u64), "{again}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// What `order_independence` holds for plain counters holds for the
    /// `exhaustive` preset where path lengths differ, on systems too
    /// small for the guard and on ones that turn the lane.
    #[test]
    fn exhaustive_preset_equals_bfs_with_shortcuts(
        caps in proptest::collection::vec(0u8..16, 1..4),
        jumps in proptest::collection::vec((0usize..3, 2u8..6), 0..5),
    ) {
        let sys = counters_with_jumps(caps.clone(), &jumps);
        preset_equals_bfs(&sys, caps);
    }

    /// The reachable state count is the product of (cap+1), and the
    /// whole report, trails included, is the same for BFS, DFS, and
    /// random order.
    #[test]
    fn order_independence(caps in proptest::collection::vec(0u8..4, 1..4), seed in any::<u64>()) {
        let expected: usize = caps.iter().map(|&c| usize::from(c) + 1).product();
        let top = caps.clone();
        let below_top = Invariant::new("below-top", move |s: &Vec<u8>| *s != top);
        let sys = counters(caps);
        let run = |order| {
            Explorer::new(&sys, ExploreConfig { order, ..ExploreConfig::default() })
                .invariant(below_top.clone())
                .run()
        };
        let bfs = run(SearchOrder::Bfs);
        prop_assert_eq!(bfs.states, expected);
        prop_assert_eq!(bfs.violations.len(), 1);
        for order in [SearchOrder::Dfs, SearchOrder::Random { seed }] {
            let report = run(order);
            prop_assert_eq!(summary(&bfs), summary(&report));
            prop_assert_eq!(&bfs.violations, &report.violations);
        }
    }

    /// Any worker count visits exactly what a textbook BFS visits.
    #[test]
    fn parallel_equals_sequential(caps in proptest::collection::vec(0u8..5, 1..4),
                                  threads in 1usize..5) {
        let sys = counters(caps);
        let par = Explorer::new(&sys, ExploreConfig::default()).run_parallel(threads);
        prop_assert_eq!(naive_bfs(&sys, &[]), summary(&par));
    }

    /// Every violation trail the explorer returns is feasible: guided
    /// re-execution reaches a state violating the same invariant.
    #[test]
    fn trails_are_feasible(caps in proptest::collection::vec(1u8..4, 2..4), bad_sum in 1u32..6) {
        let sys = counters(caps.clone());
        let max_sum: u32 = caps.iter().map(|&c| u32::from(c)).sum();
        prop_assume!(bad_sum <= max_sum);
        let inv = Invariant::new("sum-bound", move |s: &Vec<u8>| {
            s.iter().map(|&v| u32::from(v)).sum::<u32>() < bad_sum
        });
        let explorer = Explorer::new(&sys, ExploreConfig::default()).invariant(inv);
        let report = explorer.run();
        prop_assert!(!report.violations.is_empty());
        for trail in &report.violations {
            let out = explorer.run_guided(&trail.labels);
            prop_assert!(out.stuck_at.is_none(), "infeasible trail");
            prop_assert!(out.violations.iter().any(|(_, n)| n == "sum-bound"));
        }
        // BFS minimality: the first trail has depth == bad_sum (shortest
        // way to reach the bound).
        prop_assert_eq!(report.violations[0].depth as u32, bad_sum);
    }
}

/// Real-program model checking: a broadcastier app with a seeded bug.
#[derive(Clone)]
struct Bcast {
    hits: u8,
    limit: u8,
}
impl Program for Bcast {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            ctx.broadcast(1, [2]);
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.hits += 1;
        if msg.payload[0] > 0 {
            ctx.send(msg.src, 1, vec![msg.payload[0] - 1]);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        vec![self.hits, self.limit]
    }
    fn restore(&mut self, b: &[u8]) {
        self.hits = b[0];
        self.limit = b[1];
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// World-model exploration is deterministic and its reachable count
    /// is stable across repeated runs; loss models only grow the space.
    #[test]
    fn world_model_deterministic_and_monotone(n in 2usize..4, seed in 0u64..50) {
        let factory = move || -> Vec<Box<dyn Program>> {
            (0..n).map(|_| Box::new(Bcast { hits: 0, limit: 3 }) as Box<dyn Program>).collect()
        };
        let run = |net| {
            ModelD::from_initial(seed, net, factory)
                .config(ExploreConfig { max_states: 200_000, ..ExploreConfig::default() })
                .run()
        };
        let a = run(NetModel::reliable());
        let b = run(NetModel::reliable());
        prop_assert_eq!(a.states, b.states);
        prop_assert_eq!(a.transitions, b.transitions);
        let lossy = run(NetModel::lossy());
        prop_assert!(lossy.states >= a.states);
    }

    /// Model-state fingerprints never collide with start-order
    /// permutations that lead to genuinely different states; equal
    /// outcomes merge (sanity of the canonical fingerprint).
    #[test]
    fn fingerprint_canonicalization(seed in 0u64..50) {
        let factory = move || -> Vec<Box<dyn Program>> {
            (0..3).map(|_| Box::new(Bcast { hits: 0, limit: 3 }) as Box<dyn Program>).collect()
        };
        let model = fixd_investigator::WorldModel::new(seed, NetModel::reliable(), factory);
        let s0 = model.initial();
        use fixd_investigator::ModelAction::*;
        // Start orders (0,1) and (1,0) both yield "0 and 1 started".
        let a = model.apply(&model.apply(&s0, &Start { pid: Pid(0) }), &Start { pid: Pid(1) });
        let b = model.apply(&model.apply(&s0, &Start { pid: Pid(1) }), &Start { pid: Pid(0) });
        prop_assert_eq!(model.fingerprint(&a), model.fingerprint(&b));
        prop_assert_ne!(model.fingerprint(&a), model.fingerprint(&s0));
    }
}
