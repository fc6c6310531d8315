//! Equivalence suite for the work-stealing frontier engine: on random
//! guarded systems, the engine must produce exactly the serial
//! `Explorer`'s reachable set, state count, transition count, and
//! violation verdicts at every worker count — and byte-identical
//! canonical trails across worker counts and schedules.

use proptest::prelude::*;

use fixd_investigator::parallel::explore_parallel;
use fixd_investigator::{ExploreConfig, ExploreReport, Explorer, GuardedSystemBuilder, Invariant};

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
        // No violation cap: both engines collect every violating state,
        // so the comparison is over complete (schedule-free) sets.
        max_violations: usize::MAX,
        ..ExploreConfig::default()
    }
}

/// (depth, end key, violation name) for every violation, sorted — the
/// canonical verdict set.
fn verdicts(
    r: &ExploreReport<fixd_investigator::guarded::GuardedLabel>,
) -> Vec<(usize, u64, String)> {
    let mut v: Vec<_> = r
        .violations
        .iter()
        .map(|t| (t.depth, t.end_fingerprint, t.violation.clone()))
        .collect();
    v.sort();
    v
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
    let seq = Explorer::new(&sys, uncapped()).invariant(inv.clone()).run();
    assert_eq!((seq.states, seq.transitions), (67, 217));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for round in 0..100 {
                    for workers in [1usize, 2, 4, 8] {
                        let par = explore_parallel(
                            &sys,
                            std::slice::from_ref(&inv),
                            &uncapped(),
                            workers,
                        );
                        assert_eq!(
                            (seq.states, seq.transitions, seq.deadlocks.len()),
                            (par.states, par.transitions, par.deadlocks.len()),
                            "workers={workers} round={round}"
                        );
                        assert_eq!(verdicts(&seq), verdicts(&par), "workers={workers}");
                    }
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Reachable set, state count, transitions, and violation verdicts
    /// equal the serial explorer's at 1/2/4/8 workers.
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
        let seq = Explorer::new(&sys, uncapped())
            .invariant(inv.clone())
            .run();
        for workers in [1usize, 2, 4, 8] {
            let par = explore_parallel(&sys, std::slice::from_ref(&inv), &uncapped(), workers);
            prop_assert_eq!(seq.states, par.states, "states (workers={})", workers);
            prop_assert_eq!(seq.transitions, par.transitions, "transitions (workers={})", workers);
            prop_assert_eq!(seq.max_depth_reached, par.max_depth_reached, "depth (workers={})", workers);
            prop_assert_eq!(verdicts(&seq), verdicts(&par), "verdicts (workers={})", workers);
            prop_assert_eq!(seq.deadlocks.len(), par.deadlocks.len());
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
        let mut baseline: Option<Vec<Vec<String>>> = None;
        for workers in [1usize, 2, 4, 8] {
            let par = explore_parallel(&sys, std::slice::from_ref(&inv), &uncapped(), workers);
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
            let guided = Explorer::new(&sys, ExploreConfig::default())
                .invariant(inv.clone())
                .run_guided(&par.violations[0].labels);
            prop_assert!(guided.stuck_at.is_none(), "trail must replay");
            match &baseline {
                None => baseline = Some(trails),
                Some(prev) => prop_assert_eq!(prev, &trails, "workers={}", workers),
            }
        }
    }
}
