//! Cross-crate integration tests: the full FixD workflow (Figs. 4–5 of
//! the paper) on the example applications, end to end — Scroll, Time
//! Machine, Investigator, and Healer cooperating on one world.

use fixd_baselines::{Cmc, Liblog};
use fixd_core::{Fixd, FixdConfig};
use fixd_examples::catalogue::HealApp;
use fixd_examples::kvstore;
use fixd_examples::pipeline;
use fixd_examples::token_ring::{self, mutex_monitor, RingNode};
use fixd_examples::two_phase_commit::{self as tpc, atomicity_monitor};
use fixd_healer::update::HealError;
use fixd_healer::Patch;
use fixd_investigator::{ExploreConfig, NetModel};
use fixd_runtime::{Pid, Program, WorldConfig};

/// Workspace-wiring smoke test: one end-to-end supervise → detect →
/// diagnose flow driven purely through the facade `prelude`, proving
/// the `fixd` crate re-exports everything the happy path needs.
#[test]
fn facade_prelude_smoke_supervise_detect_diagnose() {
    use fixd::prelude::*;

    let mut world = fixd::examples::token_ring::ring_world(4, 1, Some((2, 5)));
    let mut supervisor =
        Fixd::new(4, FixdConfig::seeded(1)).monitor(fixd::examples::token_ring::mutex_monitor());
    let fault = supervisor
        .supervise(&mut world, 10_000)
        .fault
        .expect("fault detected");
    assert_eq!(fault.monitor, "mutual-exclusion");
    let report = supervisor
        .diagnose(&mut world, fault)
        .expect("diagnosis succeeds");
    assert!(
        report.reproduced(),
        "investigator reproduces the fault from the checkpoint"
    );
    assert!(report.render().contains("mutual-exclusion"));
}

/// Workspace-wiring smoke test for the campaign engine: the facade
/// prelude can build, fan out, and serialize a small standard matrix.
#[test]
fn facade_prelude_campaign_smoke() {
    use fixd::prelude::*;

    let spec = fixd::campaign::standard_matrix(&[2]);
    let report = run_campaign_sharded(&spec, 2, 1);
    assert_eq!(report.total_cells(), spec.expected_cells());
    assert_eq!(report.violations(), 0);
    assert_eq!(report.check_failures(), 0);
    assert!(report.pathologies_covered().contains(&Pathology::Crash));
    assert!(report.to_json().contains("\"total_cells\""));
}

#[test]
fn token_ring_full_loop() {
    // Buggy node 2 duplicates/misroutes the token; mutual exclusion breaks.
    let mut world = token_ring::ring_world(4, 1, Some((2, 5)));
    let mut fixd = Fixd::new(4, FixdConfig::seeded(1)).monitor(mutex_monitor());

    // Detect.
    let out = fixd.supervise(&mut world, 10_000);
    let fault = out.fault.expect("mutex violation detected");
    assert_eq!(fault.monitor, "mutual-exclusion");

    // Diagnose: rollback + investigate + report.
    let report = fixd
        .diagnose(&mut world, fault)
        .expect("diagnosis succeeds");
    assert!(
        report.reproduced(),
        "investigator confirms the bug:\n{}",
        report.render()
    );
    assert!(!report.trails.is_empty());
    assert!(report.render().contains("mutual-exclusion"));

    // Heal the buggy node in place and resume.
    let rolled_pid = Pid(2);
    let heal = fixd
        .heal_update(&mut world, rolled_pid, &token_ring::ring_patch())
        .expect("heal");
    assert!(heal.procs_updated.contains(&rolled_pid));
    let end = fixd.supervise(&mut world, 100_000);
    assert!(end.fault.is_none(), "mutex holds after the fix");
    assert!(end.quiescent);
}

#[test]
fn kvstore_detect_heal_converge_many_seeds() {
    let ops = kvstore::script(12, 5);
    let mut healed_runs = 0;
    for seed in 0..60u64 {
        let mut world = kvstore::kv_world(seed, ops.clone(), (1, 80));
        let mut fixd = Fixd::new(3, FixdConfig::seeded(seed)).monitor(kvstore::gap_monitor());
        let out = fixd.supervise(&mut world, 20_000);
        let Some(fault) = out.fault else { continue };
        // Full loop on this seed.
        let report = fixd.diagnose(&mut world, fault).expect("diagnose");
        assert!(report.states_explored >= 1);
        fixd.heal_update(&mut world, Pid(2), &kvstore::backup_patch())
            .expect("heal");
        let end = fixd.supervise(&mut world, 100_000);
        assert!(
            end.fault.is_none(),
            "seed {seed}: fixed backup violates again?"
        );
        assert!(end.quiescent, "seed {seed} should quiesce");
        let primary = world
            .program::<kvstore::Primary>(Pid(1))
            .unwrap()
            .store
            .clone();
        let backup = world.program::<kvstore::BackupV2>(Pid(2)).unwrap();
        assert_eq!(backup.store, primary, "seed {seed}: backup converges");
        healed_runs += 1;
    }
    assert!(
        healed_runs >= 3,
        "expect several seeds to manifest the bug, got {healed_runs}"
    );
}

#[test]
fn fixd_beats_cmc_on_states_for_the_same_bug() {
    let votes = vec![true, false, true];
    // CMC: whole space from the initial state.
    let cmc = Cmc::new(
        1,
        NetModel::reliable(),
        tpc::tpc_factory(votes.clone(), true),
    )
    .invariant(atomicity_monitor().invariant())
    .config(ExploreConfig::default())
    .run();
    assert!(!cmc.violations.is_empty());

    // FixD: find a manifesting schedule, then investigate from checkpoint.
    let mut found = None;
    for seed in 0..60u64 {
        let mut w = HealApp::Tpc {
            votes: votes.clone(),
        }
        .build(seed);
        let mut fixd = Fixd::new(4, FixdConfig::seeded(seed)).monitor(atomicity_monitor());
        let out = fixd.supervise(&mut w, 10_000);
        if let Some(fault) = out.fault {
            found = Some((w, fixd, fault));
            break;
        }
    }
    let (mut world, mut fixd, fault) = found.expect("bug manifests on some seed");
    let report = fixd.diagnose(&mut world, fault).expect("diagnose");
    assert!(report.reproduced());
    assert!(
        report.states_explored < cmc.states,
        "from-checkpoint ({}) must explore fewer states than CMC ({})",
        report.states_explored,
        cmc.states
    );
}

#[test]
fn scroll_supports_liblog_style_offline_replay_of_supervised_run() {
    // Supervise a clean pipeline run with FixD, then replay the cruncher
    // offline from FixD's own scroll.
    let seed = 11;
    let mut world = pipeline::pipeline_world(seed, 10, 50, None);
    let mut fixd = Fixd::new(2, FixdConfig::seeded(seed)).monitor(pipeline::results_monitor());
    let out = fixd.supervise(&mut world, 10_000);
    assert!(out.quiescent && out.fault.is_none());

    let scroll = fixd.scroll();
    let mut fresh = pipeline::Cruncher::correct(50);
    let outcome = fixd_scroll::replay_process(Pid(1), 2, seed, &mut fresh, &scroll.scroll(Pid(1)));
    assert_eq!(outcome.fidelity, fixd_scroll::Fidelity::Exact);
    assert_eq!(fresh.results.len(), 10);
    assert_eq!(
        fresh.snapshot(),
        world.checkpoint_process(Pid(1)).state,
        "offline replay reconstructs the exact final state"
    );
}

/// Local playback re-executes the counter's handlers, whose disk writes
/// already happened in the supervised run: the replay must leave the
/// disk as the run left it.
#[test]
fn scroll_replay_leaves_the_shared_disk_alone() {
    use fixd_examples::wal_counter::{wal_world, WalCounter};
    use fixd_runtime::SharedDisk;

    let seed = 3;
    let disk = SharedDisk::new();
    let mut world = wal_world(seed, 20, 4, disk.clone(), None);
    let mut fixd = Fixd::new(2, FixdConfig::seeded(seed));
    let out = fixd.supervise(&mut world, 10_000);
    assert!(out.quiescent && out.fault.is_none());
    let mut fresh = WalCounter::recover(disk.clone(), 4);
    fresh.value = 0;
    let stats = disk.stats();
    let durable = disk.durable_fingerprint();
    assert_eq!((stats.writes, stats.syncs), (20, 5));

    let outcome =
        fixd_scroll::replay_process(Pid(1), 2, seed, &mut fresh, &fixd.scroll().scroll(Pid(1)));
    assert_eq!(outcome.fidelity, fixd_scroll::Fidelity::Exact);
    assert_eq!(fresh.value, 20, "the replay re-ran every increment");
    assert_eq!(disk.stats(), stats, "replay wrote, deleted or synced");
    assert_eq!(disk.durable_fingerprint(), durable);
}

#[test]
fn liblog_baseline_handles_the_same_world() {
    let mut world = pipeline::pipeline_world(3, 8, 50, None);
    let (ll, report) = Liblog::record(&mut world, 3, 10_000);
    assert!(report.quiescent);
    let trace = ll.global_trace();
    fixd_scroll::check_causal_consistency(&trace).unwrap();
    let mut fresh = pipeline::Cruncher::correct(50);
    assert_eq!(ll.replay(Pid(1), &mut fresh), fixd_scroll::Fidelity::Exact);
}

#[test]
fn pipeline_salvage_vs_restart_work_accounting() {
    // Poison at item 12 of 16: update-from-checkpoint must salvage ~12
    // items; restart salvages none.
    const N_ITEMS: u64 = 16;
    let n_items = N_ITEMS;
    let poison = 12u64;
    let run = |restart: bool| -> (u64, usize) {
        let n_items = N_ITEMS;
        let seed = 2;
        let mut world = pipeline::pipeline_world(seed, n_items, 50, Some(poison));
        let mut fixd = Fixd::new(2, FixdConfig::seeded(seed)).monitor(pipeline::results_monitor());
        let out = fixd.supervise(&mut world, 100_000);
        let fault = out.fault.expect("poison detected");
        let patch = pipeline::cruncher_patch(50);
        let salvaged = if restart {
            // Restart strategy: both processes from scratch on new code.
            // Cruncher first (discarding its stale mail), then the source
            // (which re-sends the whole workload).
            let r = fixd.heal_restart(&mut world, &patch, &[Pid(1)]);
            let source_patch =
                Patch::code_only("src", 1, 2, move || Box::new(pipeline::Source { n_items }));
            fixd.heal_restart(&mut world, &source_patch, &[Pid(0)]);
            r.salvaged_events
        } else {
            let _report = fixd.diagnose(&mut world, fault).expect("diagnose");
            let r = fixd.heal_update(&mut world, Pid(1), &patch).expect("heal");
            r.salvaged_events
        };
        let end = fixd.supervise(&mut world, 100_000);
        assert!(end.fault.is_none());
        let c = world.program::<pipeline::Cruncher>(Pid(1)).unwrap();
        (salvaged, c.results.len())
    };
    let (salvaged_update, done_update) = run(false);
    let (salvaged_restart, done_restart) = run(true);
    assert_eq!(
        done_update as u64, n_items,
        "update path completes all items"
    );
    assert_eq!(
        done_restart as u64, n_items,
        "restart path completes all items"
    );
    assert_eq!(salvaged_restart, 0);
    assert!(
        salvaged_update >= poison,
        "update salvages the pre-poison work: {salvaged_update}"
    );
}

#[test]
fn characteristics_matrix_is_fig8() {
    let rows = fixd_core::matrix();
    assert_eq!(rows.len(), 8);
    let fixd_row = rows.iter().find(|r| r.name.contains("FixD")).unwrap();
    assert!(fixd_row.caps.preventive && fixd_row.caps.opportunistic);
    let text = fixd_core::render_matrix();
    assert!(text.contains("liblog"));
}

#[test]
fn deterministic_supervision_across_identical_runs() {
    let run = || {
        let mut world = token_ring::ring_world(5, 9, Some((3, 7)));
        let mut fixd = Fixd::new(5, FixdConfig::seeded(9)).monitor(mutex_monitor());
        let out = fixd.supervise(&mut world, 10_000);
        (
            out.steps,
            out.fault.map(|f| (f.monitor, f.at)),
            fixd.scroll().total_entries(),
        )
    };
    assert_eq!(run(), run());
}

/// Every shipped program is copied and inspected through the blanket
/// `CloneProgram` impl and `dyn Program`'s downcasts: after some
/// supervised steps, each pid's copy has its snapshot and name, and the
/// pid downcasts to its own type and to no other shipped type.
#[test]
fn shipped_programs_clone_and_downcast_through_the_blanket_impl() {
    use fixd_examples::{chord, wal_counter as wal};
    fn is<T: Program>(p: &dyn Program) -> bool {
        p.downcast_ref::<T>().is_some()
    }
    type IsType = fn(&dyn Program) -> bool;
    let types: [(&str, IsType); 14] = [
        ("ring-node", is::<RingNode>),
        ("kv-client", is::<kvstore::Client>),
        ("kv-primary", is::<kvstore::Primary>),
        ("kv-backup-v1", is::<kvstore::BackupV1>),
        ("kv-backup-v2", is::<kvstore::BackupV2>),
        ("kv-primary-v2", is::<kvstore::PrimaryV2>),
        ("kv-backup-v3", is::<kvstore::BackupV3>),
        ("source", is::<pipeline::Source>),
        ("cruncher", is::<pipeline::Cruncher>),
        ("2pc-coordinator", is::<tpc::Coordinator>),
        ("2pc-participant", is::<tpc::Participant>),
        ("chord-node", is::<chord::ChordNode>),
        ("wal-driver", is::<wal::Driver>),
        ("wal-counter", is::<wal::WalCounter>),
    ];
    let script = vec![(1, 10), (2, 20), (1, 30), (3, 40)];
    let worlds = [
        token_ring::ring_world(3, 1, None),
        kvstore::kv_world(1, script.clone(), (1, 20)),
        kvstore::kv_world_v2_cfg(WorldConfig::seeded(1), script.clone()),
        kvstore::kv_world_ck_cfg(WorldConfig::seeded(1), script),
        pipeline::pipeline_world(1, 8, 10, Some(5)),
        tpc::tpc_world(1, &[true, false, true], false),
        chord::chord_world(4, 1, 2, 2),
        chord::chord_kv_world(4, 1, 2, 2),
        wal::wal_world(1, 8, 3, fixd_runtime::SharedDisk::new(), None),
    ];
    let mut seen = std::collections::BTreeSet::new();
    for mut w in worlds {
        let n = w.num_procs();
        Fixd::new(n, FixdConfig::seeded(1)).supervise(&mut w, 40);
        for i in 0..n {
            w.with_program(Pid(i as u32), |p| {
                let copy = p.clone_program();
                assert_eq!(copy.snapshot(), p.snapshot(), "{}", p.name());
                assert_eq!(copy.name(), p.name());
                for (name, is_type) in &types {
                    let own = *name == p.name();
                    assert_eq!(is_type(p), own, "{} as {name}", p.name());
                    assert_eq!(is_type(copy.as_ref()), own, "copy of {}", p.name());
                }
                seen.insert(p.name());
            });
        }
    }
    assert_eq!(seen.len(), types.len(), "every shipped program type ran");
}

/// Every catalogue entry through the whole loop on fixed seeds:
/// supervise to the fault, diagnose (the fault must be reproduced),
/// heal by dynamic update, resume to a quiescent, converged world. A seed
/// on which the bug does not show must still end quiescent; every entry
/// must show it, and heal, on some seed.
///
/// One refusal is known and counted, not hidden: the Healer patches every
/// process on the recovery line, and the coordinator patch's
/// precondition rejects a participant, so a 2PC line that holds one
/// refuses the heal. (`heal-loop` leaves those schedules out.)
#[test]
fn every_catalogue_app_heals_and_converges() {
    let apps = |seed: u64| {
        let n = 4 + (seed % 3) as usize;
        let buggy = 1 + (seed as usize % (n - 1));
        [
            HealApp::Kv {
                puts: 8 + (seed % 12) as usize,
            },
            HealApp::Pipeline {
                items: 16 + seed % 24,
            },
            HealApp::Ring {
                n,
                buggy,
                dup_at: (3 * n - 1 - buggy) as u8,
            },
            HealApp::Tpc {
                votes: (0..3 + seed % 3).map(|v| v != seed % 3).collect(),
            },
            HealApp::ChordKv {
                n: 3 + (seed % 3) as usize,
                puts: 2,
                forgetful: 0,
                forget_at: (seed % 2) as u32,
            },
        ]
    };
    let (mut detected, mut healed) = ([0u32; 5], [0u32; 5]);
    let (mut clean, mut refused) = (0, 0);
    for seed in 0..8u64 {
        for (k, app) in apps(seed).into_iter().enumerate() {
            let what = format!("{app:?} seed {seed}");
            let mut world = app.build(seed);
            let mut fixd = (app.monitors().into_iter()).fold(
                Fixd::new(world.num_procs(), FixdConfig::seeded(seed)),
                Fixd::monitor,
            );
            let detect = fixd.supervise(&mut world, 100_000);
            let Some(fault) = detect.fault else {
                assert!(detect.quiescent, "{what}: no fault, no quiescence");
                clean += 1;
                continue;
            };
            detected[k] += 1;
            let report = fixd.diagnose(&mut world, fault).expect(&what);
            assert!(report.reproduced(), "{what}:\n{}", report.render());
            let (patch, pid) = app.patch();
            match fixd.heal_update(&mut world, pid, &patch) {
                Ok(_) => healed[k] += 1,
                Err(HealError::PreconditionFailed(p)) if matches!(app, HealApp::Tpc { .. }) => {
                    assert!(p != pid, "{what}: the coordinator refused its own patch");
                    refused += 1;
                    continue;
                }
                Err(e) => panic!("{what}: heal refused: {e:?}"),
            }
            let end = fixd.supervise(&mut world, 100_000);
            assert!(end.fault.is_none() && end.quiescent, "{what}: {end:?}");
            assert!(app.converged(&world), "{what}: did not converge");
        }
    }
    assert!(
        healed.iter().all(|&h| h > 0),
        "detected {detected:?}, healed {healed:?}, {clean} clean, {refused} refused"
    );
}

/// The catalogue's late symptom: a Chord-KV member acknowledges a put it
/// never stores, and only the origin's read-after-write check shows it.
/// The culprit is found in the Scroll from the bad read's key, and the
/// events that causally follow it up to the detection are counted: at
/// least three are needed (the ack at the origin, the read at the owner,
/// the answer at the origin), and this seed has 22. The loop then heals
/// the member, which the Healer rolls back to before the loss.
#[test]
fn late_symptom_is_traced_back_through_the_scroll_and_healed() {
    use fixd_examples::chord::{GET_REPLY, PUT_REQ};
    use fixd_scroll::{EntryKind, ScrollEntry, SendRefs};
    use std::collections::BTreeSet;

    let (seed, forgetful) = (0, 1);
    let app = HealApp::ChordKv {
        n: 4,
        puts: 2,
        forgetful,
        forget_at: 0,
    };
    let mut world = app.build(seed);
    let mut fixd = Fixd::new(4, FixdConfig::seeded(seed)).monitor(app.monitors().remove(0));
    let fault = fixd.supervise(&mut world, 100_000).fault.expect("bad read");
    let origin = fault.pid.expect("a local monitor names the reader");

    let scrolls: Vec<Vec<ScrollEntry>> = (0..4)
        .map(|i| fixd.scroll().scroll(Pid(i)).into_owned())
        .collect();
    let delivered = |e: &ScrollEntry, tag| match &e.kind {
        EntryKind::Deliver { msg } if msg.tag == tag => Some(msg.payload.clone()),
        _ => None,
    };
    // The detecting event: the origin's last entry, a "not found" answer.
    let detect = scrolls[origin.idx()].last().expect("the origin ran");
    let answer = delivered(detect, GET_REPLY).expect("detected on a read answer");
    assert_eq!(answer[16], 0, "the owner did not find the key");
    // The culprit: the owner's delivery of that key's put.
    let culprit = scrolls[forgetful]
        .iter()
        .find(|e| delivered(e, PUT_REQ).is_some_and(|p| p[..8] == answer[..8]))
        .expect("the forgotten put reached its owner");
    // Happens-before from process order and each delivery's send
    // reference: what follows the culprit, and what precedes the
    // detection, the detection itself included.
    let refs = SendRefs::new(scrolls.iter().map(Vec::as_slice));
    let sender = |e: &ScrollEntry| match &e.kind {
        EntryKind::Deliver { msg } => refs.sender(msg),
        _ => None,
    };
    let reach =
        |from: (Pid, u64), forward: bool| {
            let mut seen = BTreeSet::from([from]);
            let mut todo = vec![from];
            while let Some((p, k)) = todo.pop() {
                let scroll = &scrolls[p.idx()];
                let mut next: Vec<(Pid, u64)> = Vec::new();
                if forward {
                    next.extend((k + 1 < scroll.len() as u64).then_some((p, k + 1)));
                    next.extend(scrolls.iter().flatten().filter_map(|e| {
                        (sender(e) == Some((p, k))).then_some((e.pid, e.local_seq))
                    }));
                } else {
                    next.extend(k.checked_sub(1).map(|j| (p, j)));
                    next.extend(sender(&scroll[k as usize]));
                }
                for n in next {
                    if seen.insert(n) {
                        todo.push(n);
                    }
                }
            }
            seen
        };
    let after = reach((culprit.pid, culprit.local_seq), true);
    let before = reach((detect.pid, detect.local_seq), false);
    let lag = after.intersection(&before).count() - 1;
    assert_eq!(lag, 22, "events from the culprit to the detection");

    let report = fixd.diagnose(&mut world, fault).expect("diagnose");
    assert!(report.reproduced(), "{}", report.render());
    let (patch, pid) = app.patch();
    let heal = fixd.heal_update(&mut world, pid, &patch).expect("heal");
    assert!(heal.procs_updated.contains(&pid));
    let end = fixd.supervise(&mut world, 100_000);
    assert!(end.fault.is_none() && end.quiescent, "{end:?}");
    assert!(app.converged(&world));
}
