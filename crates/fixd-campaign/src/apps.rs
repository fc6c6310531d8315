//! The standard scenario matrix over the five example applications.
//!
//! Every app column carries its own safety postcondition (sound under
//! every pathology it opts into) plus liveness postconditions for the
//! cases marked [`FaultCase::lossless`] — the ones where nothing can be
//! lost. An app opts out of pathologies that break
//! its protocol assumptions — e.g. the token ring is not idempotent, so
//! network duplication would mint a second token and "violate" mutual
//! exclusion by design, which is the bug the *buggy* ring variant
//! already covers elsewhere.

use std::sync::Arc;

use fixd_core::DetectedFault;
use fixd_examples::chord::ChordNode;
use fixd_examples::token_ring::RingNode;
use fixd_examples::two_phase_commit::{Coordinator, Participant};
use fixd_examples::wal_counter::WalCounter;
use fixd_examples::{chord, kvstore, pipeline, token_ring, two_phase_commit, wal_counter};
use fixd_runtime::{DeliveryPolicy, FaultPlan, NetworkConfig, Partition, Pid, SharedDisk, World};

use crate::spec::{
    AppSpec, CampaignSpec, CellCheck, CheckFn, FaultCase,
    Pathology::{self, Clean, Corruption, Crash, Duplication, Loss, Partition as Part, Reorder},
};

/// A cell check that returns its first failure as `Err` ([`fail`], or
/// `?` on [`program`]).
fn check(
    f: impl Fn(&World, &FaultCase, Option<&DetectedFault>) -> Result<CellCheck, CellCheck>
        + Send
        + Sync
        + 'static,
) -> CheckFn {
    Arc::new(move |w, case, fault| f(w, case, fault).unwrap_or_else(|failed| failed))
}

/// End a [`check`] with a failing verdict.
fn fail(reason: impl Into<String>, metrics: Vec<(String, u64)>) -> Result<CellCheck, CellCheck> {
    Err(CellCheck::fail(reason, metrics))
}

/// `pid`'s program as a `T`, or the failing verdict that names the pid
/// and the type: a cell whose world lacks the program its check reads
/// fails; it does not panic its campaign worker.
fn program<T: 'static>(w: &World, pid: Pid) -> Result<&T, CellCheck> {
    w.program::<T>(pid).ok_or_else(|| {
        CellCheck::fail(
            format!("{pid} holds no {}", std::any::type_name::<T>()),
            Vec::new(),
        )
    })
}

/// Split `n` processes into two halves (the standard partition shape).
fn half_split(n: usize) -> Partition {
    let first: Vec<Pid> = (0..n / 2).map(|i| Pid(i as u32)).collect();
    let second: Vec<Pid> = (n / 2..n).map(|i| Pid(i as u32)).collect();
    Partition::split(n, &[&first, &second])
}

/// The standard fault-case rows: crash × loss × dup × reorder ×
/// corruption × partition (early-heal and mid-run), plus the clean
/// control row and the combined loss+dup stressor.
///
/// The `partition-early-heal` window `[6, 9)` is chosen to miss every
/// send instant of the FIFO-latency-10 apps (sends land at t ∈ {0, 5,
/// 10, 20, ...}), so the partition heals before any message would cross
/// it: the run must then complete exactly like the clean one —
/// the heal-after-merge property.
pub fn standard_cases() -> Vec<FaultCase> {
    vec![
        FaultCase::net_only("clean", Clean, NetworkConfig::default()).lossless(),
        FaultCase::planned("crash", Crash, |n, seed| {
            let victim = Pid((seed % n as u64) as u32);
            FaultPlan::none().crash(victim, 5 + (seed % 13) * 3)
        }),
        FaultCase::net_only("loss", Loss, NetworkConfig::lossy(0.1)),
        FaultCase::net_only("dup", Duplication, NetworkConfig::duplicating(0.2)).lossless(),
        FaultCase::net_only("reorder", Reorder, NetworkConfig::jittery(1, 50)).lossless(),
        FaultCase::net_only("corruption", Corruption, NetworkConfig::corrupting(0.25)),
        FaultCase::net_only(
            "loss+dup",
            Duplication,
            NetworkConfig {
                policy: DeliveryPolicy::RandomDelay { min: 1, max: 50 },
                drop_prob: 0.1,
                dup_prob: 0.2,
                ..NetworkConfig::default()
            },
        )
        .also(&[Loss, Reorder]),
        FaultCase::planned("partition-early-heal", Part, |n, _| {
            FaultPlan::none().partition(6, half_split(n), Some(9))
        })
        .lossless(),
        FaultCase::planned("partition-mid", Part, |n, _| {
            FaultPlan::none().partition(20, half_split(n), Some(60))
        }),
    ]
}

/// Token ring (4 correct nodes): mutual exclusion must hold under every
/// supported pathology; the full 3n+1 critical-section count under the
/// lossless cases.
pub fn token_ring_app() -> AppSpec {
    const N: usize = 4;
    AppSpec {
        name: "token_ring",
        supports: &[Clean, Crash, Loss, Reorder, Part],
        build: Arc::new(|cfg| token_ring::ring_world_cfg(cfg, N, None)),
        monitors: Arc::new(|| vec![token_ring::mutex_monitor()]),
        check: check(|w, case, fault| {
            let entries: u64 = (0..N)
                .map(|i| program::<RingNode>(w, Pid(i as u32)).map(|node| node.entries))
                .sum::<Result<_, _>>()?;
            let full = 3 * N as u64 + 1;
            let metrics = vec![("entries".to_string(), entries)];
            if let Some(f) = fault {
                return fail(format!("unexpected violation: {}", f.monitor), metrics);
            }
            if entries > full {
                return fail(format!("too many CS entries: {entries} > {full}"), metrics);
            }
            if case.lossless && entries != full {
                return fail(format!("ring incomplete: {entries} != {full}"), metrics);
            }
            Ok(CellCheck::pass(metrics))
        }),
    }
}

/// The shared primary/backup postconditions, over either kv pair:
/// gap-free applied sequence, never ahead of the primary, byte-identical
/// stores once caught up, and full catch-up under lossless cases.
/// Returns the first failure.
fn kv_postconditions(
    applied: u64,
    applied_count: u64,
    seq: u64,
    stores_equal: bool,
    lossless: bool,
) -> Option<String> {
    if applied != applied_count {
        return Some("gap in applied sequence".to_string());
    }
    if applied > seq {
        return Some("backup ahead of primary".to_string());
    }
    if applied == seq && !stores_equal {
        return Some("caught-up backup diverged from primary".to_string());
    }
    if lossless && applied != seq {
        return Some(format!("backup incomplete: {applied} != {seq}"));
    }
    None
}

/// Primary/backup KV store with the fixed (hold-back) backup: the
/// applied sequence is always gap-free, never ahead of the primary, and
/// byte-identical to the primary once caught up.
pub fn kvstore_app() -> AppSpec {
    AppSpec {
        name: "kvstore",
        supports: &[Clean, Crash, Loss, Duplication, Reorder],
        build: Arc::new(|cfg| {
            let script = kvstore::script(10, cfg.seed);
            kvstore::kv_world_v2_cfg(cfg, script)
        }),
        monitors: Arc::new(|| vec![kvstore::gap_monitor()]),
        check: check(|w, case, fault| {
            let p = program::<kvstore::Primary>(w, Pid(1))?;
            let b = program::<kvstore::BackupV2>(w, Pid(2))?;
            let metrics = vec![
                ("applied".to_string(), b.applied),
                ("seq".to_string(), p.seq),
            ];
            if let Some(f) = fault {
                return fail(format!("unexpected violation: {}", f.monitor), metrics);
            }
            if let Some(failure) = kv_postconditions(
                b.applied,
                b.applied_count,
                p.seq,
                b.store == p.store,
                case.lossless,
            ) {
                return fail(failure, metrics);
            }
            Ok(CellCheck::pass(metrics))
        }),
    }
}

/// Primary/backup KV store with the **buggy** arrival-order backup
/// ([`fixd_examples::kvstore::BackupV1`]) — the detection-power column.
///
/// Unlike every other app spec, a monitor violation here is the
/// *expected* outcome: under reordering the backup applies stale REPLs
/// and the gap monitor must catch it in a healthy fraction of cells.
/// The cell check records `detected` (0/1) as a metric and only *fails*
/// when detection happens somewhere it cannot (the clean FIFO control,
/// where arrival order equals send order and the bug is unreachable).
/// `tests/campaign.rs::buggy_backup_detection_rate` asserts the
/// aggregate detection fraction, so detection power is
/// regression-tested rather than assumed.
pub fn kvstore_buggy_app() -> AppSpec {
    AppSpec {
        name: "kvstore_buggy",
        supports: &[Clean, Reorder],
        build: Arc::new(|cfg| {
            let script = kvstore::script(12, cfg.seed);
            kvstore::kv_world_v1_cfg(cfg, script)
        }),
        monitors: Arc::new(|| vec![kvstore::gap_monitor()]),
        check: check(|w, case, fault| {
            let detected = u64::from(fault.is_some());
            let metrics = vec![("detected".to_string(), detected)];
            if case.pathology == Clean && detected == 1 {
                // The clean FIFO control cannot reorder: a "detection"
                // there is a false positive of the monitor.
                return fail("violation on the clean control", metrics);
            }
            // Sanity on undetected (run-to-completion) cells: the
            // primary itself stays sound. Detected cells stop at the
            // violation, so the stream may legitimately be unfinished.
            if detected == 0 {
                let p = program::<kvstore::Primary>(w, Pid(1))?;
                if p.seq != 12 {
                    return fail(format!("primary lost PUTs: {}", p.seq), metrics);
                }
            }
            Ok(CellCheck::pass(metrics))
        }),
    }
}

/// Checksummed KV pair: everything the fixed backup guarantees, plus
/// corruption survival — a corrupted REPL is rejected (counted in the
/// `rejected` metric) instead of poisoning the store.
pub fn kvstore_ck_app() -> AppSpec {
    AppSpec {
        name: "kvstore_ck",
        supports: &[Clean, Loss, Duplication, Reorder, Corruption],
        build: Arc::new(|cfg| {
            let script = kvstore::script(10, cfg.seed);
            kvstore::kv_world_ck_cfg(cfg, script)
        }),
        monitors: Arc::new(|| vec![kvstore::gap_monitor()]),
        check: check(|w, case, fault| {
            let p = program::<kvstore::PrimaryV2>(w, Pid(1))?;
            let b = program::<kvstore::BackupV3>(w, Pid(2))?;
            let metrics = vec![
                ("applied".to_string(), b.applied),
                ("seq".to_string(), p.seq),
                ("rejected".to_string(), b.rejected),
            ];
            if let Some(f) = fault {
                return fail(format!("unexpected violation: {}", f.monitor), metrics);
            }
            if let Some(failure) = kv_postconditions(
                b.applied,
                b.applied_count,
                p.seq,
                b.store == p.store,
                case.lossless,
            ) {
                return fail(failure, metrics);
            }
            if case.lossless && b.rejected != 0 {
                return fail("clean network rejected REPLs", metrics);
            }
            Ok(CellCheck::pass(metrics))
        }),
    }
}

/// Source → cruncher pipeline (correct cruncher): every recorded result
/// matches the reference computation, under every pathology — a
/// corrupted work item is still crunched faithfully for whatever index
/// it decodes to.
pub fn pipeline_app() -> AppSpec {
    const N_ITEMS: u64 = 8;
    const COST: u64 = 50;
    AppSpec {
        name: "pipeline",
        supports: &[Clean, Crash, Loss, Duplication, Reorder, Corruption],
        build: Arc::new(|cfg| pipeline::pipeline_world_cfg(cfg, N_ITEMS, COST, None)),
        monitors: Arc::new(|| vec![pipeline::results_monitor()]),
        check: check(|w, case, fault| {
            let c = program::<pipeline::Cruncher>(w, Pid(1))?;
            let metrics = vec![("results".to_string(), c.results.len() as u64)];
            if let Some(f) = fault {
                return fail(format!("unexpected violation: {}", f.monitor), metrics);
            }
            if let Some(&(i, r)) = c
                .results
                .iter()
                .find(|&&(i, r)| r != pipeline::crunch(i, COST))
            {
                return fail(format!("wrong result for item {i}: {r}"), metrics);
            }
            // Duplication can only add deliveries; every other lossless
            // case must crunch the exact workload.
            let n = c.results.len() as u64;
            let can_duplicate = case.net.dup_prob > 0.0;
            if case.lossless && can_duplicate && n < N_ITEMS {
                return fail(format!("lost items under dup: {n}"), metrics);
            }
            if case.lossless && !can_duplicate && n != N_ITEMS {
                return fail(format!("incomplete pipeline: {n} != {N_ITEMS}"), metrics);
            }
            Ok(CellCheck::pass(metrics))
        }),
    }
}

/// Write-ahead-logged counter: the in-memory value always equals the
/// increments actually delivered, and the durable value never runs
/// ahead of it.
pub fn wal_counter_app() -> AppSpec {
    const N_OPS: u64 = 20;
    const SYNC_EVERY: u64 = 4;
    AppSpec {
        name: "wal_counter",
        supports: &[Clean, Crash, Loss, Reorder],
        // A fresh disk per cell: the closure runs once per world build.
        build: Arc::new(|cfg| {
            wal_counter::wal_world_cfg(cfg, N_OPS, SYNC_EVERY, SharedDisk::new())
        }),
        monitors: Arc::new(Vec::new),
        check: check(|w: &World, case, fault| {
            let c = program::<WalCounter>(w, Pid(1))?;
            let durable = c.durable_value();
            let metrics = vec![
                ("value".to_string(), c.value),
                ("durable".to_string(), durable),
            ];
            if let Some(f) = fault {
                return fail(format!("unexpected violation: {}", f.monitor), metrics);
            }
            if c.value > N_OPS {
                return fail(format!("over-counted: {}", c.value), metrics);
            }
            if c.value != w.delivered_count(Pid(1)) {
                return fail("value drifted from delivered increments", metrics);
            }
            if durable > c.value {
                return fail("durable value ran ahead of memory", metrics);
            }
            if case.lossless && c.value != N_OPS {
                return fail(format!("lost increments: {}", c.value), metrics);
            }
            Ok(CellCheck::pass(metrics))
        }),
    }
}

/// Two-phase commit with the *fixed* coordinator and one NO voter:
/// atomicity holds everywhere, every participant that learns a decision
/// learns the coordinator's, and the lossless cases decide everywhere.
pub fn two_phase_commit_app() -> AppSpec {
    const VOTES: [bool; 3] = [true, false, true];
    AppSpec {
        name: "two_phase_commit",
        supports: &[Clean, Crash, Loss, Reorder, Part],
        build: Arc::new(|cfg| two_phase_commit::tpc_world_cfg(cfg, &VOTES, false)),
        monitors: Arc::new(|| vec![two_phase_commit::atomicity_monitor()]),
        check: check(|w, case, fault| {
            let c = program::<Coordinator>(w, Pid(0))?;
            let decided: Vec<Option<bool>> = (1..=VOTES.len() as u32)
                .map(|i| program::<Participant>(w, Pid(i)).map(|p| p.committed))
                .collect::<Result<_, _>>()?;
            let n_decided = decided.iter().filter(|d| d.is_some()).count() as u64;
            let metrics = vec![("decided".to_string(), n_decided)];
            if let Some(f) = fault {
                return fail(format!("unexpected violation: {}", f.monitor), metrics);
            }
            for (i, d) in decided.iter().enumerate() {
                if d.is_some() && *d != c.decided {
                    return fail(
                        format!("participant {} disagrees with coordinator", i + 1),
                        metrics,
                    );
                }
            }
            if case.lossless {
                if c.decided != Some(false) {
                    return fail("coordinator must abort (one NO vote)", metrics);
                }
                if n_decided != VOTES.len() as u64 {
                    return fail(format!("only {n_decided} participants decided"), metrics);
                }
            }
            Ok(CellCheck::pass(metrics))
        }),
    }
}

/// Chord DHT column for the **wide** matrix: `n` members stabilize and
/// issue lookups; every lookup must resolve (`bad == 0`), and the
/// lossless cases must complete the full lookup workload. Wide cells are
/// where sharded campaign execution pays off, so this column is used by
/// `fixd-benchmark`'s `campaign-wide-sharded` workload and the
/// sharded-equality tests rather than the standard (narrow) matrix —
/// adding it there would redefine the golden fixture for no coverage
/// gain.
pub fn chord_app(n: usize, stabilize_rounds: u32, lookups: u32, work: u64) -> AppSpec {
    AppSpec {
        name: "chord",
        supports: &[Clean, Reorder],
        build: Arc::new(move |cfg| chord::chord_world_cfg(cfg, n, stabilize_rounds, lookups, work)),
        monitors: Arc::new(Vec::new),
        check: check(move |w, case, fault| {
            let (mut ok, mut bad) = (0u64, 0u64);
            for i in 0..n {
                let s = &program::<ChordNode>(w, Pid(i as u32))?.stats;
                ok += s.ok;
                bad += s.bad;
            }
            let metrics = vec![("ok".to_string(), ok), ("bad".to_string(), bad)];
            if let Some(f) = fault {
                return fail(format!("unexpected violation: {}", f.monitor), metrics);
            }
            if bad != 0 {
                return fail(format!("{bad} lookups resolved wrong"), metrics);
            }
            let want = n as u64 * lookups as u64;
            if case.lossless && ok != want {
                return fail(format!("incomplete lookups: {ok} != {want}"), metrics);
            }
            Ok(CellCheck::pass(metrics))
        }),
    }
}

/// The Chord keyed-storage column: every member issues `puts` writes
/// routed to their ring owners, replicated to the owner's successor,
/// and read back (on ack) against the value it wrote. Safety: no bad
/// reads, ever. Liveness (lossless cases): every write is acked, every
/// read-after-write succeeds, and replication actually happened.
/// Not part of [`standard_matrix`] — an extra column for seed-search
/// sweeps and exploration targets.
pub fn chord_kv_app(n: usize, stabilize_rounds: u32, puts: u32) -> AppSpec {
    AppSpec {
        name: "chord_kv",
        supports: &[Clean, Reorder],
        build: Arc::new(move |cfg| chord::chord_kv_world_cfg(cfg, n, stabilize_rounds, puts)),
        monitors: Arc::new(Vec::new),
        check: check(move |w, case, fault| {
            let mut t = fixd_examples::chord::KvStats::default();
            for i in 0..n {
                let s = program::<ChordNode>(w, Pid(i as u32))?.kv_stats;
                t.put_acked += s.put_acked;
                t.get_ok += s.get_ok;
                t.get_bad += s.get_bad;
                t.replicas += s.replicas;
            }
            let metrics = vec![
                ("put_acked".to_string(), t.put_acked),
                ("get_ok".to_string(), t.get_ok),
                ("bad".to_string(), t.get_bad),
                ("replicas".to_string(), t.replicas),
            ];
            if let Some(f) = fault {
                return fail(format!("unexpected violation: {}", f.monitor), metrics);
            }
            if t.get_bad != 0 {
                return fail(format!("{} bad keyed reads", t.get_bad), metrics);
            }
            let want = n as u64 * u64::from(puts);
            if case.lossless {
                if t.put_acked != want || t.get_ok != want {
                    return fail(
                        format!(
                            "incomplete kv workload: {}/{want} acked, {}/{want} read back",
                            t.put_acked, t.get_ok
                        ),
                        metrics,
                    );
                }
                if n > 1 && t.replicas == 0 {
                    return fail("no replica writes observed", metrics);
                }
            }
            Ok(CellCheck::pass(metrics))
        }),
    }
}

/// The wide matrix: one Chord column over clean + reorder cases. Cells
/// are wide (many processes) and handler-heavy, which is the regime the
/// sharded campaign driver targets.
pub fn wide_matrix(n: usize, seeds: &[u64]) -> CampaignSpec {
    wide_matrix_work(n, seeds, 0)
}

/// [`wide_matrix`] with a per-delivery compute burn on every Chord
/// member — the handler-heavy variant `fixd-benchmark`'s
/// `campaign-wide-sharded` workload measures.
pub fn wide_matrix_work(n: usize, seeds: &[u64], work: u64) -> CampaignSpec {
    CampaignSpec::new()
        .app(chord_app(n, 3, 2, work))
        .case(FaultCase::net_only("clean", Clean, NetworkConfig::default()).lossless())
        .case(FaultCase::net_only("reorder", Reorder, NetworkConfig::jittery(1, 50)).lossless())
        .seeds(seeds.iter().copied())
}

/// The full standard matrix: all five example apps × the standard fault
/// cases × the given seeds.
pub fn standard_matrix(seeds: &[u64]) -> CampaignSpec {
    let mut spec = CampaignSpec::new()
        .app(token_ring_app())
        .app(kvstore_app())
        .app(kvstore_ck_app())
        .app(pipeline_app())
        .app(wal_counter_app())
        .app(two_phase_commit_app())
        .seeds(seeds.iter().copied());
    spec.cases = standard_cases();
    spec
}

/// All pathologies the standard matrix exercises.
pub fn standard_pathologies() -> Vec<Pathology> {
    vec![Clean, Crash, Loss, Duplication, Reorder, Corruption, Part]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_check_over_the_wrong_world_fails_the_cell() {
        // The token ring's check over a kvstore world: pid 0 is no
        // `RingNode`, so the cell fails and names what it looked for.
        let w =
            kvstore::kv_world_v2_cfg(fixd_runtime::WorldConfig::seeded(1), kvstore::script(2, 1));
        let case = &standard_cases()[0];
        let verdict = (token_ring_app().check)(&w, case, None);
        let failure = verdict.failure.expect("the check fails");
        assert!(
            failure.starts_with("P0 holds no ") && failure.ends_with("RingNode"),
            "{failure}"
        );
    }

    #[test]
    fn standard_matrix_shape() {
        let spec = standard_matrix(&[0, 1]);
        assert_eq!(spec.apps.len(), 6);
        assert_eq!(spec.cases.len(), 9);
        // Every case row is used by at least one app, and every app
        // supports the clean control case.
        for case in &spec.cases {
            assert!(
                spec.apps.iter().any(|a| case.supported_by(a)),
                "case {} unused",
                case.name
            );
        }
        for app in &spec.apps {
            assert!(app.supports.contains(&Clean), "{} lacks clean", app.name);
        }
        assert_eq!(spec.cells().len(), spec.expected_cells());
    }

    #[test]
    fn chord_kv_column_passes_clean_and_reorder() {
        use crate::driver::run_cell_sharded;
        let spec = CampaignSpec::new()
            .app(chord_kv_app(12, 2, 2))
            .case(FaultCase::net_only("clean", Clean, NetworkConfig::default()).lossless())
            .case(FaultCase::net_only("reorder", Reorder, NetworkConfig::jittery(1, 50)).lossless())
            .seeds([3, 4]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            let out = run_cell_sharded(&spec, cell, 1);
            assert!(out.violation.is_none(), "cell {}: {:?}", cell.index, out);
            assert!(
                out.check_failure.is_none(),
                "cell {}: {:?}",
                cell.index,
                out
            );
            let bad = out.metrics.iter().find(|(k, _)| k == "bad").unwrap().1;
            assert_eq!(bad, 0, "bad keyed reads in cell {}", cell.index);
        }
    }

    #[test]
    fn early_heal_window_misses_all_send_instants() {
        // The FIFO apps send at t ∈ {0, 5, 10, 15, 20, ...}; the window
        // [6, 9) must contain none of them.
        for t in [0u64, 5, 10, 15, 20] {
            assert!(!(6..9).contains(&t));
        }
    }
}
