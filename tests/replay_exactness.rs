//! Replay exactness of the Time Machine's checkpoints on the example
//! apps: a checkpoint without a process image is restored by replaying
//! the process's logged handler events on the newest image before it,
//! and what that gives must be, byte for byte, the state the process
//! had when the checkpoint was taken.
//!
//! The oracle is the test's own [`World::checkpoint_process`] of the
//! receiver, taken right after the Time Machine checkpointed it ahead
//! of each receive. Every app runs 16 seeds through supervision with a
//! mid-run rollback — `Fixd::respond` at the detected fault, then
//! `Fixd::heal_update`, which rolls back again and swaps the code; the
//! write-ahead-logged counter has no bug and rolls back directly — then
//! resumes. After the run every retained checkpoint is materialized
//! and compared, and the newest-first walk must offer the same states.
//! The counter's disk must not notice any of it.
//!
//! The Scroll's local playback is held to the world's clocks the same
//! way: the same apps and seeds, and one 96-member Chord run, recorded
//! with a Scroll that spills at a small threshold, replay every pid from
//! its decoded Scroll — messages that keep only their sender's clock
//! component — and after every replayed step the harness's clock must
//! be the one the entry recorded.

use std::collections::BTreeMap;

use fixd_core::{DetectedFault, Fixd, FixdConfig, Monitor};
use fixd_examples::catalogue::HealApp;
use fixd_examples::chord::chord_world;
use fixd_examples::wal_counter::wal_world;
use fixd_healer::Patch;
use fixd_runtime::{DiskReplayGuard, EventKind, Pid, SharedDisk, SoloHarness, World};
use fixd_scroll::codec::decode_segment;
use fixd_scroll::{replay_step, SpillConfig};

const SEEDS: u64 = 16;
const MAX_STEPS: u64 = 20_000;

/// Every pid's checkpoint states as the world had them: (pid, index) →
/// state bytes.
type Oracle = BTreeMap<(u32, u64), Vec<u8>>;

/// Forget the checkpoints a rollback discarded.
fn prune(oracle: &mut Oracle, fixd: &mut Fixd) {
    let tm = fixd.time_machine();
    oracle.retain(|&(p, i), _| i < tm.store(Pid(p)).len() as u64);
}

/// What a run does at its first fault (or, for a run without monitors,
/// after `at` steps).
enum Midway {
    Heal { patch: Patch, pid: Pid },
    Rollback { at: u64, pid: Pid, back: u64 },
}

/// Supervise `w` step by step, recording the oracle, with one mid-run
/// rollback, to quiescence.
fn run(label: &str, mut w: World, monitors: &[Monitor], midway: Midway) -> (Fixd, Oracle) {
    let n = w.num_procs();
    let mut fixd =
        (monitors.iter().cloned()).fold(Fixd::new(n, FixdConfig::seeded(0)), Fixd::monitor);
    let mut oracle = Oracle::new();
    fixd.time_machine().init(&mut w);
    for p in 0..n as u32 {
        oracle.insert((p, 0), w.checkpoint_process(Pid(p)).state.to_bytes());
    }
    let mut done_midway = false;
    for step in 0..MAX_STEPS {
        let Some(ev) = w.peek() else { break };
        fixd.time_machine().before_step(&mut w, &ev);
        if let EventKind::Deliver { msg } = &ev.kind {
            let idx = fixd.time_machine().interval(msg.dst);
            oracle.insert(
                (msg.dst.0, idx),
                w.checkpoint_process(msg.dst).state.to_bytes(),
            );
        }
        let Some(rec) = w.step() else { break };
        fixd.time_machine().after_step(&mut w, &rec);
        if done_midway {
            continue;
        }
        match &midway {
            Midway::Heal { patch, pid } => {
                let Some(blamed) = monitors.iter().find_map(|m| m.violated_in(&w)) else {
                    continue;
                };
                let fault = DetectedFault {
                    monitor: "m".into(),
                    pid: blamed,
                    at: w.now(),
                    after_steps: step + 1,
                };
                fixd.respond(&mut w, &fault)
                    .unwrap_or_else(|e| panic!("{label}: respond: {e}"));
                prune(&mut oracle, &mut fixd);
                // A refusal may come after the rollback; either way the
                // run goes on from the rolled-back world.
                let _ = fixd.heal_update(&mut w, *pid, patch);
                prune(&mut oracle, &mut fixd);
                done_midway = true;
            }
            Midway::Rollback { at, pid, back } => {
                if step + 1 < *at {
                    continue;
                }
                let tm = fixd.time_machine();
                let target = tm.interval(*pid).saturating_sub(*back);
                tm.rollback(&mut w, *pid, target)
                    .unwrap_or_else(|e| panic!("{label}: rollback: {e}"));
                prune(&mut oracle, &mut fixd);
                done_midway = true;
            }
        }
    }
    assert!(
        done_midway,
        "{label}: the run never reached its midway point"
    );
    (fixd, oracle)
}

/// Every retained checkpoint materializes to its oracle state, and the
/// newest-first walk offers exactly those states. Returns the number of
/// checkpoints checked.
fn verify(label: &str, fixd: &mut Fixd, oracle: &Oracle) -> usize {
    let tm = fixd.time_machine();
    let n = tm.width();
    let mut replayed = 0;
    for (&(p, i), want) in oracle {
        let store = tm.store(Pid(p));
        let got = store.materialize(i);
        assert!(
            got.as_deref() == Some(want.as_slice()),
            "{label}: P{p} checkpoint {i} materialized to another state"
        );
        replayed += usize::from(!store.get(i).is_some_and(|c| c.has_image()));
    }
    assert!(replayed > 0, "{label}: every checkpoint holds an image");
    for p in 0..n as u32 {
        let store = tm.store(Pid(p));
        let mut walked = Vec::new();
        assert_eq!(
            store.newest_where(|s| {
                walked.push(s.to_vec());
                false
            }),
            None
        );
        let want: Vec<&Vec<u8>> = oracle
            .range((p, 0)..(p + 1, 0))
            .rev()
            .map(|(_, s)| s)
            .collect();
        assert!(
            walked.iter().eq(want.iter().copied()),
            "{label}: P{p}'s walk offered other states than its checkpoints'"
        );
        assert_eq!(walked.len(), store.len(), "{label}: P{p}");
    }
    oracle.len()
}

/// Run `app` at `seed` to its first fault, heal it there, resume, and
/// verify every checkpoint.
fn check(label: &str, app: HealApp, seed: u64) {
    let label = format!("{label} seed {seed}");
    let (patch, pid) = app.patch();
    let midway = Midway::Heal { patch, pid };
    let (mut fixd, oracle) = run(&label, app.build(seed), &app.monitors(), midway);
    verify(&label, &mut fixd, &oracle);
}

#[test]
fn kvstore_checkpoints_replay_exactly() {
    for seed in 0..SEEDS {
        check("kvstore", HealApp::Kv { puts: 12 }, seed);
    }
}

#[test]
fn pipeline_checkpoints_replay_exactly() {
    for seed in 0..SEEDS {
        check("pipeline", HealApp::Pipeline { items: 24 + seed }, seed);
    }
}

/// The token ring at `seed`: four to six nodes, the buggy one and its
/// round varying with the seed.
fn ring_app(seed: u64) -> HealApp {
    let n = 4 + (seed % 3) as usize;
    let buggy = 1 + (seed as usize % (n - 1));
    let dup_at = (3 * n - 1 - buggy) as u8;
    HealApp::Ring { n, buggy, dup_at }
}

/// 2PC at `seed`: three to five participants, one voting NO.
fn tpc_app(seed: u64) -> HealApp {
    HealApp::Tpc {
        votes: (0..3 + seed % 3).map(|v| v != seed % 3).collect(),
    }
}

#[test]
fn token_ring_checkpoints_replay_exactly() {
    for seed in 0..SEEDS {
        check("ring", ring_app(seed), seed);
    }
}

/// The buggy coordinator breaks atomicity only on some schedules: the
/// first 16 seeds on which it does.
#[test]
fn two_phase_commit_checkpoints_replay_exactly() {
    let faulty = |seed: &u64| {
        let (mut w, monitors) = (tpc_app(*seed).build(*seed), tpc_app(*seed).monitors());
        while w.step().is_some() {
            if monitors.iter().any(|m| m.violated_in(&w).is_some()) {
                return true;
            }
        }
        false
    };
    for seed in (0..).filter(faulty).take(SEEDS as usize) {
        check("2pc", tpc_app(seed), seed);
    }
}

/// The counter writes its disk in every handler: replaying those
/// handlers to materialize a checkpoint must not write it again.
#[test]
fn wal_counter_checkpoints_replay_exactly_and_leave_the_disk_alone() {
    for seed in 0..SEEDS {
        let disk = SharedDisk::new();
        let w = wal_world(seed, 20, 4, disk.clone(), None);
        let midway = Midway::Rollback {
            at: 12 + seed % 5,
            pid: Pid(1),
            back: 1 + seed % 4,
        };
        let label = format!("wal seed {seed}");
        let (mut fixd, oracle) = run(&label, w, &[], midway);
        let (stats, durable) = (disk.stats(), disk.durable_fingerprint());
        let checked = verify(&label, &mut fixd, &oracle);
        assert!(checked > 20, "{label}: {checked} checkpoints");
        assert_eq!(disk.stats(), stats, "{label}: replay used the disk");
        assert_eq!(disk.durable_fingerprint(), durable, "{label}");
    }
}

/// Resident Scroll bytes a process keeps before its prefix spills.
const SPILL_AT: usize = 256;

/// Supervise `build()`'s world at `seed` to quiescence, its Scroll
/// spilled at `SPILL_AT`, then replay every pid from its whole Scroll
/// decoded ([`replay_step`] on a fresh harness and program). After every
/// step the effects and the clock are the recorded ones. Returns the
/// steps replayed.
fn replay_restores_recorded_clocks(label: &str, seed: u64, build: impl Fn() -> World) -> usize {
    let mut w = build();
    let n = w.num_procs();
    let mut cfg = FixdConfig::seeded(seed);
    cfg.scroll_spill = Some(SpillConfig::new(SharedDisk::new(), SPILL_AT));
    let mut fixd = Fixd::new(n, cfg);
    assert!(fixd.supervise(&mut w, MAX_STEPS).quiescent, "{label}");
    let store = fixd.scroll();
    assert!(store.spilled_segments() > 0, "{label}: nothing spilled");

    let fresh = build();
    let _disk = DiskReplayGuard::new();
    let mut steps = 0;
    for pid in (0..n as u32).map(Pid) {
        let entries = decode_segment(&store.encode_segment(pid)).expect("the Scroll decodes");
        let mut program = fresh.with_program(pid, |p| p.clone_program());
        let mut harness = SoloHarness::new(pid, n, seed);
        for e in &entries {
            let Some(effects) = replay_step(&mut harness, program.as_mut(), e) else {
                continue;
            };
            let at = format!("{label}: {pid} #{}", e.local_seq);
            assert_eq!(effects.fingerprint(), e.effects_fp, "{at}: effects");
            assert_eq!(harness.context().vc, e.vc, "{at}: clock");
            steps += 1;
        }
    }
    steps
}

#[test]
fn decoded_scroll_replay_restores_every_recorded_clock() {
    let mut steps = 0;
    for seed in 0..SEEDS {
        let apps = [
            ("kvstore", HealApp::Kv { puts: 12 }),
            ("pipeline", HealApp::Pipeline { items: 24 + seed }),
            ("ring", ring_app(seed)),
            ("2pc", tpc_app(seed)),
        ];
        for (name, app) in apps {
            let label = format!("{name} seed {seed}");
            steps += replay_restores_recorded_clocks(&label, seed, || app.build(seed));
        }
        steps += replay_restores_recorded_clocks(&format!("wal seed {seed}"), seed, || {
            wal_world(seed, 20, 4, SharedDisk::new(), None)
        });
    }
    steps += replay_restores_recorded_clocks("chord 96", 1, || chord_world(96, 1, 3, 16));
    assert!(steps > 10_000, "{steps} steps replayed");
}
