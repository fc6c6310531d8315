//! Fault-injection campaigns: FixD's machinery must stay sound across
//! seeds, fault plans, and network pathologies — crash faults, message
//! loss, duplication, reordering, partitions, and corruption.
//!
//! The sweeps run on the `fixd::campaign` engine: every test builds a
//! [`CampaignSpec`] matrix and fans its cells across cores; assertions
//! live in the apps' postconditions plus campaign-level aggregates.
//! `cargo test --release --test campaign -- --nocapture` prints each
//! sweep's cell-count summary (the CI campaign job greps for it).

use fixd::campaign::{
    kvstore_app, kvstore_buggy_app, kvstore_ck_app, run_campaign, run_campaign_sharded,
    standard_cases, standard_matrix, token_ring_app, two_phase_commit_app, CampaignReport,
    CampaignSpec, FaultCase, Pathology,
};
use fixd::examples::{kvstore, token_ring, two_phase_commit as tpc};
use fixd::prelude::*;
use fixd::runtime::{DeliveryPolicy, NetworkConfig};

/// Run `spec` with [`run_campaign`] (one shard per cell), check that its
/// report JSON is byte-identical at 2 and 8 shards per cell, and return
/// the one-shard report.
fn run_at_shards_1_2_8(spec: &CampaignSpec) -> CampaignReport {
    let report = run_campaign(spec);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    for shards in [2, 8] {
        assert_eq!(
            run_campaign_sharded(spec, threads, shards).to_json(),
            report.to_json(),
            "report diverged at {shards} shards"
        );
    }
    report
}

/// The headline sweep: every example app × every standard pathology,
/// in parallel, with an exact expected cell count so silently skipped
/// sweeps fail loudly.
#[test]
fn standard_matrix_covers_all_apps_and_pathologies() {
    let spec = standard_matrix(&[0, 1, 2, 3]);
    let report = run_campaign(&spec);
    println!("{}", report.summary());

    assert_eq!(
        report.total_cells(),
        spec.expected_cells(),
        "cells were silently skipped"
    );
    let apps = report.apps_covered();
    for name in [
        "token_ring",
        "kvstore",
        "kvstore_ck",
        "pipeline",
        "wal_counter",
        "two_phase_commit",
    ] {
        assert!(apps.contains(name), "app {name} missing from the sweep");
    }
    let paths = report.pathologies_covered();
    assert!(paths.len() >= 5, "need ≥5 pathologies, got {:?}", paths);
    for p in [
        Pathology::Crash,
        Pathology::Loss,
        Pathology::Duplication,
        Pathology::Corruption,
        Pathology::Partition,
    ] {
        assert!(paths.contains(&p), "pathology {} missing", p.as_str());
    }
    assert_eq!(
        report.violations(),
        0,
        "no monitor may fire on correct apps"
    );
    assert_eq!(report.check_failures(), 0, "all app postconditions hold");
    assert_eq!(
        report.quiescent_cells(),
        report.total_cells(),
        "every cell must drain within its step budget"
    );
    // The machinery was actually engaged in every cell.
    assert!(report.cells.iter().all(|c| c.scroll_entries > 0));
    assert!(report.cells.iter().all(|c| c.checkpoints > 0));
}

/// Acceptance: the report is byte-identical for a fixed spec regardless
/// of thread count — 1 thread vs. many produce the same JSON.
#[test]
fn report_is_thread_count_invariant() {
    let spec = standard_matrix(&[5, 6]);
    let serial = run_campaign_sharded(&spec, 1, 1);
    let wide = run_campaign_sharded(&spec, 8, 1);
    assert_eq!(serial, wide);
    assert_eq!(
        serial.to_json(),
        wide.to_json(),
        "campaign JSON must not depend on thread interleaving"
    );
}

/// Tentpole acceptance: the campaign report is byte-identical whether
/// cells execute serially or on a sharded world, at every shard count.
/// A sharded world commits each step through the serial code, and the
/// supervisor drives it like a serial one, so the Scroll/Time
/// Machine/monitor figures (and the JSON down to the last byte) cannot
/// drift from serial.
#[test]
fn report_is_shard_count_invariant() {
    let spec = standard_matrix(&[7, 8]);
    let serial = run_campaign_sharded(&spec, 2, 1);
    for shards in [2usize, 4, 8] {
        let sharded = run_campaign_sharded(&spec, 8, shards);
        assert_eq!(
            serial.to_json(),
            sharded.to_json(),
            "report diverged at shards={shards}"
        );
    }
}

/// The wide (Chord) matrix — the regime sharded campaigns target — is
/// shard-count invariant too, including under reordering jitter.
#[test]
fn wide_matrix_is_shard_count_invariant() {
    use fixd::campaign::wide_matrix;
    let spec = wide_matrix(16, &[0, 1]);
    let serial = run_campaign_sharded(&spec, 1, 1);
    assert_eq!(serial.check_failures(), 0);
    assert_eq!(serial.violations(), 0);
    for shards in [2usize, 4, 8] {
        let sharded = run_campaign_sharded(&spec, 8, shards);
        assert_eq!(
            serial.to_json(),
            sharded.to_json(),
            "wide report diverged at shards={shards}"
        );
    }
}

/// Every sharded cell runs on its shards, and reports the one-shard
/// run's outcome. The world's own process table is the serial one at
/// every step, so nothing may fall back anywhere: not a clean cell, not
/// a cell whose monitor fires (kvstore's gap monitor, the token ring's
/// global mutual-exclusion monitor), and not a cell a step budget cuts
/// before it quiesces.
#[test]
fn sharded_cells_run_on_the_sharded_executor() {
    use fixd::campaign::{run_cell_sharded_timed, wide_matrix, AppSpec, CellCheck};
    use std::sync::Arc;

    // Each cell at each shard count against its one-shard outcome;
    // returns how many cells a monitor stopped.
    let run = |spec: &CampaignSpec, shard_counts: &[usize]| {
        let mut detected = 0;
        for cell in spec.cells() {
            let (want, t) = run_cell_sharded_timed(spec, &cell, 1);
            assert!(t.serial);
            detected += usize::from(want.violation.is_some());
            for &shards in shard_counts {
                let (out, t) = run_cell_sharded_timed(spec, &cell, shards);
                let at = format!(
                    "{}/{} seed {} at {shards} shards",
                    out.app, out.case, out.seed
                );
                assert!(!t.serial, "{at} ran on one shard");
                assert_eq!(out, want, "{at} drifted from the one-shard run");
            }
        }
        detected
    };

    let wide = wide_matrix(16, &[0, 1]);
    let standard = standard_matrix(&[7, 8]);
    assert_eq!(standard.expected_cells(), 70);
    run(&wide, &[2, 4, 8]);
    run(&standard, &[2]);

    // Detected cells: the buggy backup under clean FIFO and reordering.
    let mut buggy = CampaignSpec::new().app(kvstore_buggy_app()).seeds(0..6);
    buggy.cases = standard_cases()
        .into_iter()
        .filter(|c| c.name == "clean" || c.name == "reorder")
        .collect();
    assert!(
        run(&buggy, &[2, 4, 8]) > 0,
        "no kvstore_buggy cell detected"
    );

    // A global monitor: the ring node that duplicates the token.
    let ring = CampaignSpec::new()
        .app(AppSpec {
            name: "token_ring_dup",
            supports: &[Pathology::Clean, Pathology::Reorder],
            build: Arc::new(|cfg| token_ring::ring_world_cfg(cfg, 4, Some((1, 2)))),
            monitors: Arc::new(|| vec![token_ring::mutex_monitor()]),
            check: Arc::new(|_, _, _| CellCheck::default()),
        })
        .case(FaultCase::net_only(
            "clean",
            Pathology::Clean,
            NetworkConfig::default(),
        ))
        .case(FaultCase::net_only(
            "reorder",
            Pathology::Reorder,
            NetworkConfig::jittery(1, 50),
        ))
        .seeds(0..3);
    assert!(run(&ring, &[2, 8]) > 0, "the ring bug never fired");

    // A budget that cuts every cell before it quiesces. Not the WAL
    // counter's: its disk lives outside the processes, so a cut world's
    // disk also holds the writes of the rest of the shards' window.
    let mut cut = standard_matrix(&[7]);
    cut.apps.retain(|a| a.name != "wal_counter");
    cut.max_steps = 9;
    run(&cut, &[2, 8]);
    assert!(cut
        .cells()
        .iter()
        .all(|c| !run_cell_sharded_timed(&cut, c, 2).0.quiescent));
}

/// A fault detected on a sharded world is the serial run's fault: same
/// monitor, same culprit, same virtual time and the same serial step
/// index, and the supervisor stops the world right there.
#[test]
fn sharded_detection_stops_at_the_serial_step() {
    let detect = |shards: usize| {
        let mut w = token_ring::ring_world_cfg(WorldConfig::seeded(3), 4, Some((1, 2)));
        w.shard(shards);
        let mut fixd = Fixd::new(4, FixdConfig::seeded(3)).monitor(token_ring::mutex_monitor());
        let out = fixd.supervise(&mut w, 10_000);
        let fault = out
            .fault
            .expect("the duplicated token breaks mutual exclusion");
        (fault, out.steps, w.trace().pushed(), w.fingerprint())
    };
    let want = detect(1);
    assert_eq!(want.0.after_steps, want.1);
    for shards in [2, 8] {
        assert_eq!(detect(shards), want, "at {shards} shards");
    }
}

/// Checkpoint dedup across a campaign: every cell of the standard
/// matrix interns its checkpoint pages into ONE shared [`PageStore`],
/// and holding the whole matrix's checkpoints at once costs at most
/// two thirds of what the processes' histories cost when each is
/// deduplicated against itself only.
#[test]
fn shared_page_store_dedups_checkpoints_across_cells() {
    let spec = standard_matrix(&[0, 1, 2, 3, 4]);
    let shared = PageStore::new();
    // The supervisors stay alive: their checkpoints pin their pages.
    let mut supervisors = Vec::new();
    let (mut per_process, mut biggest_cell) = (0, 0);
    for cell in spec.cells() {
        let (app, case) = (&spec.apps[cell.app], &spec.cases[cell.case]);
        let mut wcfg = WorldConfig::seeded(cell.seed);
        wcfg.net = case.net.clone();
        let mut world = (app.build)(wcfg);
        let n = world.num_procs();
        world.set_fault_plan((case.plan)(n, cell.seed));
        let mut cfg = FixdConfig::seeded(cell.seed);
        cfg.page_store = Some(shared.clone());
        let mut fixd = Fixd::new(n, cfg);
        for m in (app.monitors)() {
            fixd = fixd.monitor(m);
        }
        let out = fixd.supervise(&mut world, spec.max_steps);
        assert!(out.fault.is_none(), "standard matrix must stay clean");
        let tm = fixd.time_machine();
        per_process += (0..n as u32)
            .map(|pid| tm.store(Pid(pid)).unique_bytes())
            .sum::<usize>();
        biggest_cell = biggest_cell.max(tm.total_checkpoint_bytes());
        supervisors.push(fixd);
    }
    let shared_bytes = shared.unique_bytes();
    // The pages are in the shared store: it holds at least what the
    // biggest cell alone references (an empty store dedups perfectly).
    assert!(
        biggest_cell > 0 && shared_bytes >= biggest_cell,
        "shared store holds {shared_bytes} B, one cell alone references {biggest_cell} B"
    );
    assert!(
        2 * per_process >= 3 * shared_bytes,
        "shared store holds {shared_bytes} B, per-process histories {per_process} B: under 1.5x"
    );
}

/// Crash campaign: under arbitrary single-process crash timing — every
/// victim crossed with seed-spread crash times up to t = 138, spanning
/// the whole ring run — FixD supervision never panics, mutual exclusion
/// holds, and the scroll records every executed handler event.
#[test]
fn crash_campaign_token_ring() {
    let victim_case = |victim: u32, name: &'static str| {
        FaultCase::planned(name, Pathology::Crash, move |_, seed| {
            FaultPlan::none().crash(Pid(victim), 5 + seed * 7)
        })
    };
    let mut spec = CampaignSpec::new().app(token_ring_app()).seeds(0..20);
    spec.cases = vec![
        victim_case(0, "crash-victim-0"),
        victim_case(1, "crash-victim-1"),
        victim_case(2, "crash-victim-2"),
        victim_case(3, "crash-victim-3"),
    ];
    let report = run_at_shards_1_2_8(&spec);
    println!("{}", report.summary());
    assert_eq!(report.total_cells(), 80, "4 victims × 20 crash times");
    assert_eq!(report.violations(), 0);
    assert_eq!(report.check_failures(), 0);
    assert!(report.cells.iter().all(|c| c.scroll_entries >= 4));
}

/// Loss/duplication campaign over the kvstore: the v2 backup tolerates
/// duplication (idempotent per seq) and loss only stalls, never
/// corrupts — the gap-free/prefix assertions live in the app spec.
#[test]
fn lossy_dup_campaign_kvstore_v2() {
    let mut spec = CampaignSpec::new().app(kvstore_app()).seeds(0..15);
    spec.cases = vec![FaultCase::net_only(
        "loss+dup",
        Pathology::Duplication,
        NetworkConfig {
            policy: DeliveryPolicy::RandomDelay { min: 1, max: 50 },
            drop_prob: 0.1,
            dup_prob: 0.2,
            ..NetworkConfig::default()
        },
    )
    .also(&[Pathology::Loss, Pathology::Reorder])];
    let report = run_at_shards_1_2_8(&spec);
    println!("{}", report.summary());
    assert_eq!(report.total_cells(), 15);
    assert_eq!(report.violations(), 0);
    assert_eq!(report.check_failures(), 0);
    // The pathology actually happened somewhere in the sweep.
    assert!(report.cells.iter().map(|c| c.dropped).sum::<u64>() > 0);
    assert!(report.cells.iter().map(|c| c.duplicated).sum::<u64>() > 0);
}

/// Corruption campaign over the *checksummed* kvstore pair: corrupted
/// REPLs flow through the machinery without panics, the checksum/reject
/// path actually fires (aggregate `rejected` metric), and the backup
/// never applies garbage.
#[test]
fn corruption_campaign_kvstore_checksummed() {
    let mut spec = CampaignSpec::new().app(kvstore_ck_app()).seeds(0..12);
    spec.cases = standard_cases()
        .into_iter()
        .filter(|c| c.name == "corruption")
        .collect();
    let report = run_at_shards_1_2_8(&spec);
    println!("{}", report.summary());
    assert_eq!(report.total_cells(), 12);
    assert_eq!(report.violations(), 0);
    assert_eq!(report.check_failures(), 0);
    let corrupted: u64 = report.cells.iter().map(|c| c.corrupted).sum();
    assert!(
        corrupted > 0,
        "the corrupting network must corrupt something"
    );
    let rejected = report.metric_total("rejected");
    assert!(
        rejected > 0,
        "the checksum/reject path must fire across the sweep (corrupted={corrupted})"
    );
    assert!(
        rejected <= corrupted,
        "rejects can only come from corruptions"
    );
}

/// Partition campaign over the token ring and 2PC: a partition healed
/// before any message would cross it leaves the run exactly complete
/// (heal-after-merge), and a mid-run partition window only delays or
/// stalls — never corrupts and never violates safety.
#[test]
fn partition_campaign_heals_after_merge() {
    let mut spec = CampaignSpec::new()
        .app(token_ring_app())
        .app(two_phase_commit_app())
        .seeds(0..10);
    spec.cases = standard_cases()
        .into_iter()
        .filter(|c| c.pathology == Pathology::Partition)
        .collect();
    assert_eq!(spec.cases.len(), 2, "early-heal and mid-run windows");
    let report = run_at_shards_1_2_8(&spec);
    println!("{}", report.summary());
    assert_eq!(report.total_cells(), 2 * 2 * 10);
    assert_eq!(report.violations(), 0, "partitions never break safety");
    assert_eq!(
        report.check_failures(),
        0,
        "heal-after-merge postconditions hold"
    );
    // Early heal ⇒ complete runs: the full 13 CS entries and all 3
    // participants decided, every seed.
    for c in report.select("token_ring", "partition-early-heal") {
        assert_eq!(
            c.metrics,
            vec![("entries".to_string(), 13)],
            "seed {}",
            c.seed
        );
    }
    for c in report.select("two_phase_commit", "partition-early-heal") {
        assert_eq!(
            c.metrics,
            vec![("decided".to_string(), 3)],
            "seed {}",
            c.seed
        );
    }
    // The mid-run window really dropped traffic somewhere.
    let mid_dropped: u64 = report
        .select("", "partition-mid")
        .iter()
        .map(|c| c.dropped)
        .sum();
    assert!(mid_dropped > 0, "mid-run partition must drop something");
}

/// Detection-power campaign (ROADMAP follow-on b): the *buggy*
/// arrival-order backup crossed with the standard clean and reorder
/// cases. Detection is asserted as a *rate*, not a lucky seed: the gap
/// monitor must fire in at least a third of the reordering cells, and
/// never on the clean FIFO control. If a runtime or scroll change
/// silently weakens the monitors, this sweep fails loudly — detection
/// power is regression-tested, not assumed.
#[test]
fn buggy_backup_detection_rate() {
    let mut spec = CampaignSpec::new().app(kvstore_buggy_app()).seeds(0..30);
    spec.cases = standard_cases()
        .into_iter()
        .filter(|c| c.name == "clean" || c.name == "reorder")
        .collect();
    assert_eq!(spec.cases.len(), 2);
    let report = run_at_shards_1_2_8(&spec);
    println!("{}", report.summary());
    assert_eq!(report.total_cells(), 60, "2 cases × 30 seeds");
    assert_eq!(
        report.check_failures(),
        0,
        "no false positives on the clean control, primaries stay sound"
    );

    let clean_detected: u64 = report
        .select("kvstore_buggy", "clean")
        .iter()
        .map(|c| c.metrics.iter().find(|(k, _)| k == "detected").unwrap().1)
        .sum();
    assert_eq!(clean_detected, 0, "FIFO cannot trigger the ordering bug");

    let reorder_cells = report.select("kvstore_buggy", "reorder");
    let detected: u64 = reorder_cells
        .iter()
        .map(|c| c.metrics.iter().find(|(k, _)| k == "detected").unwrap().1)
        .sum();
    let rate = detected as f64 / reorder_cells.len() as f64;
    println!(
        "detection rate under reorder: {detected}/{} ({rate:.2})",
        reorder_cells.len()
    );
    assert!(
        rate >= 1.0 / 3.0,
        "detection power regressed: only {detected}/{} reorder cells caught the bug",
        reorder_cells.len()
    );
    // Detected cells are exactly the cells reporting a violation, and a
    // detected cell stops at the fault instead of draining.
    assert_eq!(report.violations() as u64, detected);
}

/// Corruption without checksums stays *detectable*: the plain v2 backup
/// applies corrupted REPLs, and the replicas-agree monitor catches the
/// divergence on some seeds (the motivation for the checksummed pair).
#[test]
fn corruption_is_survivable_and_detectable() {
    let mut detected = 0;
    for seed in 0..20u64 {
        let mut cfg = WorldConfig::seeded(seed);
        cfg.net = NetworkConfig {
            corrupt_prob: 0.5,
            ..NetworkConfig::default()
        };
        let mut w = World::new(cfg);
        w.add_process(Box::new(kvstore::Client {
            script: kvstore::script(6, seed),
        }));
        w.add_process(Box::new(kvstore::Primary::default()));
        w.add_process(Box::new(kvstore::BackupV2::default()));
        let mut fixd = Fixd::new(3, FixdConfig::seeded(seed)).monitor(Monitor::global(
            "replicas-agree-on-applied-prefix",
            |w: &World| {
                let (Some(p), Some(b)) = (
                    w.program::<kvstore::Primary>(Pid(1)),
                    w.program::<kvstore::BackupV2>(Pid(2)),
                ) else {
                    return true;
                };
                // Every key the backup has fully applied must match the
                // primary (corruption of a REPL payload breaks this).
                b.applied < p.seq || b.store.iter().all(|(k, v)| p.store.get(k) == Some(v))
            },
            |_| true,
        ));
        if fixd.supervise(&mut w, 100_000).fault.is_some() {
            detected += 1;
        }
    }
    assert!(detected > 0, "corruption must be detectable by the monitor");
}

/// Global snapshots survive arbitrary pause points: capture, run
/// ahead, restore, and the world replays to the identical outcome.
#[test]
fn snapshot_restore_campaign() {
    for seed in 0..10u64 {
        for pause in [2u64, 5, 9, 14] {
            let mut w = token_ring::ring_world(3, seed, None);
            w.run_steps(pause);
            let snap = w.global_snapshot();
            let mut reference = w.clone();
            reference.run_to_quiescence(100_000);
            let want: u64 = (0..3)
                .map(|i| {
                    reference
                        .program::<token_ring::RingNode>(Pid(i))
                        .unwrap()
                        .entries
                })
                .sum();
            // Run the original ahead, then rewind.
            w.run_to_quiescence(100_000);
            w.restore_snapshot(&snap);
            w.run_to_quiescence(100_000);
            let got: u64 = (0..3)
                .map(|i| w.program::<token_ring::RingNode>(Pid(i)).unwrap().entries)
                .sum();
            assert_eq!(got, want, "seed {seed} pause {pause}");
        }
    }
}

/// Liveness via terminal checks: under a lossy network model the 2PC
/// decision can be lost — "eventually everyone decides" fails, and the
/// Investigator produces the trail showing which loss kills it.
#[test]
fn lossy_2pc_fails_eventual_decision() {
    use fixd::investigator::{Explorer, WorldModel};

    let model = WorldModel::new(
        1,
        NetModel::lossy(),
        tpc::tpc_factory(vec![true, true], false), // FIXED coordinator
    );
    let eventually_decided = Invariant::new(
        "all-participants-decided",
        |s: &fixd::investigator::WorldState| {
            (1..s.width()).all(|i| {
                s.program::<tpc::Participant>(Pid(i as u32))
                    .is_none_or(|p| p.committed.is_some())
            })
        },
    );
    let explorer = Explorer::new(
        &model,
        ExploreConfig {
            max_violations: usize::MAX,
            ..ExploreConfig::exhaustive(1_000_000)
        },
    )
    .terminal_invariant(eventually_decided);
    let report = explorer.run();
    assert!(
        report
            .violations
            .iter()
            .any(|t| t.violation == "eventually: all-participants-decided"),
        "losing the DECISION must violate the terminal property: {}",
        report.summary()
    );
    // Terminal checks run at any worker count, with the same trails.
    assert!(!report.truncated);
    assert_eq!(report.violations, explorer.run_parallel(4).violations);

    // Under a reliable model the same property holds.
    let model2 = WorldModel::new(
        1,
        NetModel::reliable(),
        tpc::tpc_factory(vec![true, true], false),
    );
    let eventually_decided2 = Invariant::new(
        "all-participants-decided",
        |s: &fixd::investigator::WorldState| {
            (1..s.width()).all(|i| {
                s.program::<tpc::Participant>(Pid(i as u32))
                    .is_none_or(|p| p.committed.is_some())
            })
        },
    );
    let clean = Explorer::new(&model2, ExploreConfig::exhaustive(1_000_000))
        .terminal_invariant(eventually_decided2)
        .run();
    assert!(clean.clean() && !clean.truncated, "{}", clean.summary());
}
