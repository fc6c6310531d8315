//! Equivalence suite for the exploration loop: on random guarded
//! systems and on the example apps' world models it must produce exactly
//! a textbook BFS's reachable set, state count, transition count, depths
//! and violation verdicts at every worker count, and identical canonical
//! trails across worker counts and schedules.

mod common;

use std::sync::Arc;

use proptest::prelude::*;

use common::{naive_bfs, summary, Counted};
use fixd_examples::two_phase_commit::tpc_factory;
use fixd_investigator::{
    ExploreConfig, Explorer, GuardedSystemBuilder, Invariant, NetModel, SearchOrder, WorldModel,
    WorldState,
};
use fixd_runtime::{Pid, Program};

/// A random bounded guarded system: `k` counters with caps, plus
/// `transfers` cross-coupling actions that move a unit from one counter
/// to another (guarded to stay within caps, so the space stays finite).
fn random_system(
    caps: Vec<u8>,
    transfers: Vec<(usize, usize)>,
) -> fixd_investigator::GuardedSystem<Vec<u8>> {
    let n = caps.len();
    let mut b = GuardedSystemBuilder::new(vec![0u8; n]);
    for (i, cap) in caps.iter().copied().enumerate() {
        b = b.action(
            &format!("inc{i}"),
            move |s: &Vec<u8>| s[i] < cap,
            move |s| s[i] += 1,
        );
    }
    for (t, (from, to)) in transfers.into_iter().enumerate() {
        let (from, to) = (from % n, to % n);
        if from == to {
            continue;
        }
        let cap_to = caps[to];
        b = b.action(
            &format!("mv{t}_{from}_{to}"),
            move |s: &Vec<u8>| s[from] > 0 && s[to] < cap_to,
            move |s| {
                s[from] -= 1;
                s[to] += 1;
            },
        );
    }
    b.build()
}

fn uncapped() -> ExploreConfig {
    ExploreConfig {
        // No violation cap: every violating state is collected, so the
        // comparison is over complete (schedule-free) sets.
        max_violations: usize::MAX,
        ..ExploreConfig::default()
    }
}

/// Regression for `run_parallel(n > 1)` running slower than `run()` on
/// models that relax a lot: three-participant 2PC under loss,
/// duplication and a crash joins paths of different length everywhere,
/// and LIFO lanes expanded a state three times over. The lanes' guard
/// turns them; the count is `apply` calls per counted transition.
#[test]
fn stealing_lanes_do_not_thrash_on_two_phase_commit() {
    let model = WorldModel::new(
        1,
        NetModel::adversarial(1),
        tpc_factory(vec![true; 3], false),
    );
    let counted = Counted::new(&model);
    let cfg = ExploreConfig {
        max_states: 40_000,
        max_depth: 60,
        ..ExploreConfig::default()
    };
    let report = Explorer::new(&counted, cfg).run_parallel(2);
    assert!(report.truncated);
    let per_transition = counted.counts.applies() as f64 / report.transitions as f64;
    assert!(
        per_transition <= 1.5,
        "{per_transition} applies a transition"
    );
}

/// The `heal-loop` apps in its shapes, and the 1-put Chord-KV model, on
/// a reliable network.
fn app_models() -> Vec<(&'static str, WorldModel)> {
    use fixd_examples::chord::{ChordNode, ChordRing};
    use fixd_examples::kvstore::{self, BackupV1, Client, Primary};
    use fixd_examples::pipeline::{Cruncher, Source};
    use fixd_examples::token_ring::RingNode;
    let net = NetModel::reliable();
    vec![
        (
            "kvstore v1",
            WorldModel::new(1, net, || {
                vec![
                    Box::new(Client {
                        script: kvstore::script(3, 1),
                    }) as Box<dyn Program>,
                    Box::new(Primary::default()),
                    Box::new(BackupV1::default()),
                ]
            }),
        ),
        (
            "pipeline",
            WorldModel::new(2, net, || {
                vec![
                    Box::new(Source { n_items: 6 }) as Box<dyn Program>,
                    Box::new(Cruncher::buggy(50, 4)),
                ]
            }),
        ),
        (
            "token ring",
            WorldModel::new(3, net, || {
                (0..4)
                    .map(|i| {
                        Box::new(if i == 1 {
                            RingNode::buggy(10)
                        } else {
                            RingNode::correct()
                        }) as Box<dyn Program>
                    })
                    .collect()
            }),
        ),
        (
            "2pc",
            WorldModel::new(4, net, tpc_factory(vec![true, true, false], true)),
        ),
        (
            "chord-kv",
            WorldModel::new(5, net, || {
                let ring = Arc::new(ChordRing::new(&[Pid(0), Pid(1), Pid(2)]));
                (0..3)
                    .map(|_| {
                        Box::new(ChordNode::new(Arc::clone(&ring), 0, 0).with_kv_workload(1))
                            as Box<dyn Program>
                    })
                    .collect()
            }),
        ),
    ]
}

/// Something the apps can get wrong, so that violations are compared
/// too: a read answered wrong, a duplicated token held twice over.
fn app_invariants() -> [Invariant<WorldState>; 2] {
    [
        Invariant::new("no-bad-read", |s: &WorldState| {
            (s.outputs().iter()).all(|(_, p)| {
                p.first() != Some(&fixd_examples::chord::KV_READ_MARK) || p.get(1) == Some(&1)
            })
        }),
        Invariant::new("one-token", |s: &WorldState| {
            (0..s.width() as u32)
                .filter(|&i| {
                    s.program::<fixd_examples::token_ring::RingNode>(Pid(i))
                        .is_some_and(|r| r.holding)
                })
                .count()
                <= 1
        }),
    ]
}

/// Real program code, not a toy: on every app model the loop reports
/// what the textbook BFS reports, in both one-worker orders and on two
/// workers (which share the stealing lanes whatever the order).
#[test]
fn app_models_equal_the_textbook_bfs() {
    let invariants = app_invariants();
    for (name, model) in app_models() {
        let reference = naive_bfs(&model, &invariants);
        for order in [SearchOrder::Bfs, SearchOrder::Dfs] {
            let cfg = ExploreConfig {
                order: order.clone(),
                ..uncapped()
            };
            let explorer = Explorer::new(&model, cfg).invariants(invariants.iter().cloned());
            for workers in [1usize, 2] {
                let report = explorer.run_parallel(workers);
                assert_eq!(
                    reference,
                    summary(&report),
                    "{name} {order:?} workers={workers}"
                );
            }
        }
    }
}

/// Regression for a schedule-dependent `transitions` count: a state
/// requeued by a depth relaxation between the engine reading "not yet
/// expanded" and writing "expanded" was accounted twice. This is the
/// shape `stealing_equals_serial` caught it on (the transfers make
/// depths relax); four explorations at once on up to eight workers each
/// keep far more threads runnable than the host has cores, so workers
/// are preempted between their critical sections.
#[test]
fn counts_hold_under_oversubscription() {
    let sys = random_system(vec![3, 2, 2, 1], vec![(2, 1), (0, 3)]);
    let inv = Invariant::new("sum-bound", |s: &Vec<u8>| {
        s.iter().map(|&v| u32::from(v)).sum::<u32>() < 6
    });
    let reference = naive_bfs(&sys, std::slice::from_ref(&inv));
    assert_eq!((reference.states, reference.transitions), (67, 217));
    let explorer = Explorer::new(&sys, uncapped()).invariant(inv);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for round in 0..100 {
                    for workers in [1usize, 2, 4, 8] {
                        let par = explorer.run_parallel(workers);
                        assert_eq!(reference, summary(&par), "workers={workers} round={round}");
                    }
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Reachable set, state count, transitions, depth, deadlocks and
    /// violation verdicts equal the textbook BFS's at 1/2/4/8 workers,
    /// and the reports equal each other trail by trail.
    #[test]
    fn stealing_equals_serial(
        caps in proptest::collection::vec(1u8..4, 2..5),
        transfers in proptest::collection::vec((0usize..5, 0usize..5), 0..3),
        bad_sum in 2u32..7,
    ) {
        let sys = random_system(caps.clone(), transfers);
        let inv = Invariant::new("sum-bound", move |s: &Vec<u8>| {
            s.iter().map(|&v| u32::from(v)).sum::<u32>() < bad_sum
        });
        let reference = naive_bfs(&sys, std::slice::from_ref(&inv));
        let explorer = Explorer::new(&sys, uncapped()).invariant(inv);
        let serial = explorer.run();
        for workers in [1usize, 2, 4, 8] {
            let par = explorer.run_parallel(workers);
            prop_assert_eq!(&reference, &summary(&par), "workers={}", workers);
            prop_assert_eq!(&serial.violations, &par.violations, "workers={}", workers);
            prop_assert_eq!(&serial.deadlocks, &par.deadlocks, "workers={}", workers);
        }
    }

    /// Violation trails are canonical: byte-identical label sequences at
    /// every worker count, and each is feasible and shortest.
    #[test]
    fn trails_canonical_across_worker_counts(
        caps in proptest::collection::vec(1u8..4, 2..4),
        bad_sum in 1u32..5,
    ) {
        let max_sum: u32 = caps.iter().map(|&c| u32::from(c)).sum();
        prop_assume!(bad_sum <= max_sum);
        let sys = random_system(caps, Vec::new());
        let inv = Invariant::new("sum-bound", move |s: &Vec<u8>| {
            s.iter().map(|&v| u32::from(v)).sum::<u32>() < bad_sum
        });
        let explorer = Explorer::new(&sys, uncapped()).invariant(inv);
        let mut baseline: Option<Vec<Vec<String>>> = None;
        for workers in [1usize, 2, 4, 8] {
            let par = explorer.run_parallel(workers);
            prop_assert!(!par.violations.is_empty());
            let trails: Vec<Vec<String>> = par
                .violations
                .iter()
                .map(|t| t.labels.iter().map(|l| l.name.clone()).collect())
                .collect();
            // Every trail is shortest (relaxed depths are exact BFS
            // distances) and feasible.
            for t in &par.violations {
                prop_assert_eq!(t.depth as u32, bad_sum, "BFS-minimal trail");
            }
            let guided = explorer.run_guided(&par.violations[0].labels);
            prop_assert!(guided.stuck_at.is_none(), "trail must replay");
            match &baseline {
                None => baseline = Some(trails),
                Some(prev) => prop_assert_eq!(prev, &trails, "workers={}", workers),
            }
        }
    }
}
