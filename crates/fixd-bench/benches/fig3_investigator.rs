//! **Experiment F3** (paper Fig. 3, §2.1, §4.3): Investigator state-space
//! exploration — growth with process count and search-order comparison.
//!
//! §2.1's claim under test: *"it is often prohibitively expensive,
//! memory-wise, to model a moderately complex system of more than 5-10
//! processes"*. The state-count table printed at the end shows the
//! exponential wall; the criterion series time bounded exploration and
//! time-to-first-violation per search order. Parallel exploration is
//! included as the mitigation knob. A last table prices the search
//! order on runs that are not hunts: what BFS pays for holding a layer
//! of states, and what LIFO pays where paths of different length meet.

#[path = "../../fixd-investigator/tests/common/mod.rs"]
mod common;

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use common::{on_held, Counted};
use fixd_examples::chord::{ChordNode, ChordRing, KV_READ_MARK};
use fixd_examples::token_ring::{mutex_monitor, RingNode};
use fixd_examples::two_phase_commit::tpc_factory;
use fixd_investigator::{
    ExploreConfig, Explorer, Invariant, ModelD, NetModel, SearchOrder, WorldModel, WorldState,
};
use fixd_runtime::{Pid, Program};

fn factory(n: usize) -> impl Fn() -> Vec<Box<dyn Program>> + Send + Sync {
    move || {
        (0..n)
            .map(|i| -> Box<dyn Program> {
                if i == 2 {
                    Box::new(RingNode::buggy(5))
                } else {
                    Box::new(RingNode::correct())
                }
            })
            .collect()
    }
}

/// `fixd-benchmark`'s `explore-chordkv` target: a dense 3-member keyed
/// store, 2 puts a member, reliable network (227k states, finishes).
fn chord_kv() -> WorldModel {
    WorldModel::new(1, NetModel::reliable(), || {
        let members: Vec<Pid> = (0..3).map(Pid).collect();
        let ring = Arc::new(ChordRing::new(&members));
        (0..3)
            .map(|_| {
                Box::new(ChordNode::new(Arc::clone(&ring), 0, 0).with_kv_workload(2))
                    as Box<dyn Program>
            })
            .collect()
    })
}

fn no_bad_reads() -> Invariant<WorldState> {
    Invariant::new("no-bad-read", |s: &WorldState| {
        s.outputs()
            .iter()
            .all(|(_, p)| p.first() != Some(&KV_READ_MARK) || p.get(1) == Some(&1))
    })
}

/// The search order as a cost: the target a LIFO lane wins on (every
/// path to a Chord-KV state has the same length, so nothing is ever
/// relaxed and BFS only pays for holding a layer of states), and two
/// cut 2PC models whose loss, duplication and crash branches join paths
/// of different length, where LIFO without its guard expands a state
/// several times over (the two 2PC `Dfs` rows at the commit before the
/// guard, same host: 2.71 and 1.71 `apply`s a transition, 4.3x and 2.4x
/// the wall time of BFS, 250 and 301 states queued at the peak).
/// `/tr` above 1.00 is re-expansion; `peak live` is the queue length,
/// in states. The cut is sized for a shared host (BFS holds 180k
/// states at it); the ratios grow with it.
fn order_costs(_: &mut Criterion) {
    const CUT: usize = 400_000;
    let cut = ExploreConfig {
        max_states: CUT,
        max_depth: 60,
        ..ExploreConfig::default()
    };
    let tpc = |net| WorldModel::new(1, net, tpc_factory(vec![true; 3], false));
    let targets = [
        (
            "chord-kv 3x2 puts",
            chord_kv(),
            vec![no_bad_reads()],
            ExploreConfig::exhaustive(2_000_000),
        ),
        (
            "2pc x3 adversarial(1)",
            tpc(NetModel::adversarial(1)),
            vec![],
            cut.clone(),
        ),
        (
            "2pc x3 duplicating()",
            tpc(NetModel::duplicating()),
            vec![],
            cut,
        ),
    ];
    println!("\n--- F3 search order as a cost (one worker; 2PC cut at {CUT} states, depth 60) ---");
    println!(
        "{:<22} {:<5} {:>8} {:>10} {:>10} {:>5} {:>7} {:>9} {:>10}",
        "target",
        "order",
        "states",
        "transit.",
        "applies",
        "/tr",
        "wall s",
        "states/s",
        "peak live"
    );
    for (name, model, invariants, cfg) in &targets {
        for order in [SearchOrder::Bfs, SearchOrder::Dfs] {
            let counted = Counted::new(model);
            let explorer = Explorer::new(
                &counted,
                ExploreConfig {
                    order: order.clone(),
                    ..cfg.clone()
                },
            )
            .invariants(invariants.iter().cloned().map(on_held));
            let (r, wall) = fixd_bench::time_it(|| explorer.run());
            println!(
                "{name:<22} {:<5} {:>8} {:>10} {:>10} {:>5.2} {:>7.2} {:>9.0} {:>10}",
                format!("{order:?}"),
                r.states,
                r.transitions,
                counted.counts.applies(),
                counted.counts.applies() as f64 / r.transitions as f64,
                wall.as_secs_f64(),
                r.states as f64 / wall.as_secs_f64(),
                counted.counts.peak_live(),
            );
        }
    }
}

fn bench_exploration(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_state_space_growth");
    group.sample_size(10);
    for &n in &[3usize, 4, 5] {
        group.bench_with_input(BenchmarkId::new("exhaust_bounded", n), &n, |b, &n| {
            b.iter(|| {
                ModelD::from_initial(1, NetModel::reliable(), fixd_bench::shouter_factory(n))
                    .config(ExploreConfig {
                        max_states: 30_000,
                        stop_at_first_violation: false,
                        max_violations: 10_000,
                        ..ExploreConfig::default()
                    })
                    .run()
                    .states
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fig3_search_orders_first_violation");
    group.sample_size(10);
    for (name, order) in [
        ("bfs", SearchOrder::Bfs),
        ("dfs", SearchOrder::Dfs),
        ("random", SearchOrder::Random { seed: 3 }),
    ] {
        group.bench_function(name, |b| {
            let order = order.clone();
            b.iter(|| {
                ModelD::from_initial(1, NetModel::reliable(), factory(4))
                    .invariant(mutex_monitor().invariant())
                    .config(ExploreConfig {
                        order: order.clone(),
                        stop_at_first_violation: true,
                        max_states: 2_000_000,
                        ..ExploreConfig::default()
                    })
                    .run()
            });
        });
    }
    group.finish();

    // Ablation: sleep-set partial-order reduction on/off (DESIGN.md §5.6).
    let mut group = c.benchmark_group("fig3_reduction_ablation");
    group.sample_size(10);
    for (name, use_reduction) in [("full", false), ("sleep_sets", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                ModelD::from_initial(1, NetModel::reliable(), fixd_bench::shouter_factory(4))
                    .config(ExploreConfig {
                        order: SearchOrder::Dfs,
                        use_reduction,
                        max_states: 100_000,
                        ..ExploreConfig::default()
                    })
                    .run()
                    .transitions
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fig3_parallel_workers");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("workers", threads), &threads, |b, &t| {
            b.iter(|| {
                ModelD::from_initial(1, NetModel::reliable(), factory(4))
                    .config(ExploreConfig {
                        max_states: 30_000,
                        ..ExploreConfig::default()
                    })
                    .run_parallel(t)
                    .states
            });
        });
    }
    group.finish();

    println!("\n--- F3 state-space growth (all-to-all broadcast, bounded at 200k states) ---");
    for n in 3..=6 {
        let report = ModelD::from_initial(1, NetModel::reliable(), fixd_bench::shouter_factory(n))
            .config(ExploreConfig {
                max_states: 200_000,
                stop_at_first_violation: false,
                max_violations: 10_000,
                ..ExploreConfig::default()
            })
            .run();
        println!(
            "n={n}: {:>8} states {:>9} transitions{}",
            report.states,
            report.transitions,
            if report.truncated {
                "  << truncated: the §2.1 wall"
            } else {
                ""
            }
        );
    }
}

criterion_group!(benches, bench_exploration, order_costs);
criterion_main!(benches);
