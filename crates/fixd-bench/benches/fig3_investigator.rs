//! **Experiment F3** (paper Fig. 3, §2.1, §4.3): Investigator state-space
//! exploration — growth with process count and search-order comparison.
//!
//! §2.1's claim under test: *"it is often prohibitively expensive,
//! memory-wise, to model a moderately complex system of more than 5-10
//! processes"*. The state-count table printed at the end shows the
//! exponential wall; the criterion series time bounded exploration and
//! time-to-first-violation per search order. Parallel exploration is
//! included as the mitigation knob. A table prices the search order on
//! runs that are not hunts: what BFS pays for holding a layer of states,
//! and what LIFO pays where paths of different length meet. The first
//! table splits one explored transition into its parts (see
//! [`part_costs`]); it runs first, on a heap no exploration has grown.
//!
//! The bench counts allocations (`fixd_bench::CountingAlloc` is its
//! global allocator), so every series pays one relaxed atomic add per
//! allocation, and the multi-worker series contend on it.

#[path = "../../fixd-investigator/tests/common/mod.rs"]
mod common;

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use common::{on_held, Counted};
use fixd_bench::{alloc_events, CountingAlloc};
use fixd_examples::chord::{ChordNode, ChordRing, KV_READ_MARK};
use fixd_examples::token_ring::{mutex_monitor, RingNode};
use fixd_examples::two_phase_commit::tpc_factory;
use fixd_investigator::system::TransitionSystem;
use fixd_investigator::{
    ExploreConfig, Explorer, Invariant, ModelAction, ModelD, NetModel, SearchOrder, WorldModel,
    WorldState,
};
use fixd_runtime::wire::content_hash;
use fixd_runtime::{CloneProgram, Pid, Program};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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
            let (r, wall) = fixd_bench::time_it(|| explorer.run_parallel(1));
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
    // What `run` makes of the exhaustive target: every core the process
    // may use. The workers contend on the counting allocator's atomic.
    let (name, model, invariants, cfg) = &targets[0];
    let explorer = Explorer::new(model, cfg.clone()).invariants(invariants.iter().cloned());
    let (r, wall) = fixd_bench::time_it(|| explorer.run());
    println!(
        "{name:<22} run() on {} workers: {} states, {:.2} s, {:.0} states/s",
        explorer.workers(),
        r.states,
        wall.as_secs_f64(),
        r.states as f64 / wall.as_secs_f64(),
    );
}

/// Hand-timed calls behind each row of the part table.
const PART_REPS: u32 = 20_000;

/// The part table's rows at the parent of the commit that made channels
/// shared runs, gave handlers a per-thread arena, passed Chord's send
/// buffers as arrays and cached the fingerprint as a sum: ns and
/// allocations a call, by this same function on a 2-vCPU Intel Xeon
/// (medians of five runs, alternated with five of the change, which read
/// 761, 658, 805, 172, 237, 377, 3, 3, 41, 127 and 146 ns).
const PARENT: [(&str, f64, f64); 11] = [
    ("apply+drop start", 834.0, 9.0),
    ("apply+drop deliver", 723.0, 12.0),
    ("apply+drop timer", 1008.0, 19.0),
    ("apply+drop drop", 159.0, 2.0),
    ("apply+drop dup", 384.0, 7.0),
    ("apply+drop crash", 364.0, 6.0),
    ("fingerprint", 58.0, 0.0),
    ("fingerprint of a child", 55.0, 0.0),
    ("snapshot_hash", 40.0, 0.0),
    ("clone_program", 130.0, 3.0),
    ("WorldState clone+drop", 141.0, 2.0),
];

/// Mean ns and allocations of one `f()` over [`PART_REPS`] calls.
fn per_call<R>(mut f: impl FnMut() -> R) -> (f64, f64) {
    black_box(f());
    let (allocs, start) = (alloc_events(), Instant::now());
    for _ in 0..PART_REPS {
        black_box(f());
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / f64::from(PART_REPS);
    let allocs = (alloc_events() - allocs) as f64 / f64::from(PART_REPS);
    (ns, allocs)
}

/// A mid-run state of [`chord_kv`]: P0 and P1 started, then the first
/// enabled delivery or timer taken, six times over. P2 is still to
/// start; three messages and a timer are pending.
fn mid_run(model: &WorldModel) -> WorldState {
    let mut state = model.initial();
    for pid in [Pid(0), Pid(1)] {
        state = model.apply(&state, &ModelAction::Start { pid });
    }
    for _ in 0..6 {
        let next = (model.enabled(&state).into_iter())
            .find(|l| !matches!(l, ModelAction::Start { .. }))
            .expect("mid-run work is left");
        state = model.apply(&state, &next);
    }
    state
}

/// One explored transition of the `explore-chordkv` model split into its
/// parts, each timed by hand on one mid-run state ([`mid_run`]): `apply`
/// and dropping the successor for one action of each kind (loss,
/// duplication and crash enabled for the table), the state fingerprint
/// (of the state and of a delivered successor), and the three things a
/// transition does to the acting process or the state as a whole: hash
/// its snapshot, `clone_program` it, clone and drop the state. Printed
/// beside [`PARENT`]'s figures.
fn part_costs(_: &mut Criterion) {
    let mut model = chord_kv();
    let state = mid_run(&model);
    model.set_net(NetModel::adversarial(1));
    let enabled = model.enabled(&state);
    let first = |kind: fn(&ModelAction) -> bool| {
        enabled
            .iter()
            .find(|l| kind(l))
            .cloned()
            .expect("every kind is enabled")
    };
    let actions = [
        first(|l| matches!(l, ModelAction::Start { .. })),
        first(|l| matches!(l, ModelAction::Deliver { .. })),
        first(|l| matches!(l, ModelAction::FireTimer { .. })),
        first(|l| matches!(l, ModelAction::DropHead { .. })),
        first(|l| matches!(l, ModelAction::DupHead { .. })),
        first(|l| matches!(l, ModelAction::Crash { .. })),
    ];
    let mut rows: Vec<(f64, f64)> = (actions.iter())
        .map(|l| per_call(|| drop(model.apply(&state, l))))
        .collect();
    let child = model.apply(&state, &actions[1]);
    rows.push(per_call(|| model.fingerprint(&state)));
    rows.push(per_call(|| model.fingerprint(&child)));
    let ModelAction::Deliver { dst, .. } = actions[1] else {
        unreachable!("the second action is a delivery")
    };
    let program = state.program::<ChordNode>(dst).expect("a Chord node");
    let mut buf = Vec::new();
    rows.push(per_call(|| {
        buf.clear();
        program.snapshot_to(&mut buf);
        content_hash(&buf)
    }));
    rows.push(per_call(|| drop(program.clone_program())));
    rows.push(per_call(|| drop(state.clone())));

    println!(
        "\n--- F3 one explored transition by part (chord-kv 3x2 puts, mid-run: {state:?}) ---"
    );
    println!(
        "{:<24} {:>10} {:>8} {:>10} {:>8}",
        "part", "parent ns", "allocs", "ns", "allocs"
    );
    for ((name, parent_ns, parent_allocs), (ns, allocs)) in PARENT.iter().zip(&rows) {
        println!("{name:<24} {parent_ns:>10.0} {parent_allocs:>8.2} {ns:>10.0} {allocs:>8.2}");
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

criterion_group!(benches, part_costs, bench_exploration, order_costs);
criterion_main!(benches);
