//! Replay exactness of the Time Machine's checkpoints on the example
//! apps: a checkpoint without a process image is restored by replaying
//! the process's logged handler events on the newest image before it,
//! and what that gives must be, byte for byte, the state the process
//! had when the checkpoint was taken.
//!
//! The oracle is the test's own [`World::checkpoint_process`] of the
//! receiver, and its [`World::proc_context`], taken right after the
//! Time Machine checkpointed it ahead of each receive: replay derives
//! the context of a checkpoint without an image too. Every app runs 16
//! seeds (Chord-KV 8) through supervision with a mid-run rollback —
//! `Fixd::respond` at the detected fault, then `Fixd::heal_update`,
//! which rolls back again and swaps the code; the write-ahead-logged
//! counter has no bug and rolls back directly — then resumes. After the
//! run every retained checkpoint is materialized and compared, state
//! and context, and the newest-first walk must offer the same states.
//! The counter's disk must not notice any of it.
//!
//! The Scroll's local playback is held to the world the same way: the
//! same apps and seeds, and one 96-member Chord run, recorded with a
//! Scroll that spills at a small threshold, replay every pid from its
//! decoded Scroll, and every replayed step's effects must be the ones
//! the entry recorded. Each delivery's send reference must name the
//! entry whose handler sent it — found, without the lookup, as the step
//! that sent the very message the delivery holds — and the same apps'
//! Scrolls merged into one total order, resident or spilled, must put
//! every receipt after that entry.

use std::collections::BTreeMap;

use fixd_core::{DetectedFault, Fixd, FixdConfig, Monitor};
use fixd_examples::catalogue::HealApp;
use fixd_examples::chord::chord_world;
use fixd_examples::wal_counter::wal_world;
use fixd_healer::Patch;
use fixd_runtime::{
    DiskReplayGuard, EventKind, Pid, ProcContext, SharedDisk, SharedMessage, SoloHarness, World,
};
use fixd_scroll::codec::decode_segment;
use fixd_scroll::merge::check_send_before_receive;
use fixd_scroll::{
    check_causal_consistency, merge_total_order, replay_step, EntryKind, RecordConfig,
    ScrollRecorder, SendRefs, SpillConfig,
};

const SEEDS: u64 = 16;
const MAX_STEPS: u64 = 20_000;

/// Every pid's checkpoints as the world had them: (pid, index) → state
/// bytes and [`context`].
type Oracle = BTreeMap<(u32, u64), (Vec<u8>, String)>;

/// A process context as compared here: its checkpoint index aside,
/// which the Time Machine stamps anew on every restore.
fn context(mut ctx: ProcContext) -> String {
    ctx.ckpt_index = 0;
    format!("{ctx:?}")
}

/// What the oracle records for `pid` in `w` now.
fn taken(w: &World, pid: Pid) -> (Vec<u8>, String) {
    let state = w.checkpoint_process(pid).state.to_bytes();
    (state, context(w.proc_context(pid)))
}

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
        oracle.insert((p, 0), taken(&w, Pid(p)));
    }
    let mut done_midway = false;
    for step in 0..MAX_STEPS {
        let Some(ev) = w.peek() else { break };
        fixd.time_machine().before_step(&mut w, &ev);
        if let EventKind::Deliver { msg } = &ev.kind {
            let idx = fixd.time_machine().interval(msg.dst);
            oracle.insert((msg.dst.0, idx), taken(&w, msg.dst));
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

/// Every retained checkpoint materializes to its oracle state and
/// context, and the newest-first walk offers exactly those states.
/// Returns the number of checkpoints checked.
fn verify(label: &str, fixd: &mut Fixd, oracle: &Oracle) -> usize {
    let tm = fixd.time_machine();
    let n = tm.width();
    let mut replayed = 0;
    for (&(p, i), (want, want_ctx)) in oracle {
        let store = tm.store(Pid(p));
        let got = store
            .materialize_checkpoint(i)
            .expect("a retained checkpoint");
        assert!(
            got.state.as_bytes() == want.as_slice(),
            "{label}: P{p} checkpoint {i} materialized to another state"
        );
        assert_eq!(
            &context(got.ctx),
            want_ctx,
            "{label}: P{p} checkpoint {i} materialized to another context"
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
            .map(|(_, (s, _))| s)
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

/// Does `app` at `seed`, run unsupervised, break a monitor?
fn faulty(app: &HealApp, seed: u64) -> bool {
    let (mut w, monitors) = (app.build(seed), app.monitors());
    while w.step().is_some() {
        if monitors.iter().any(|m| m.violated_in(&w).is_some()) {
            return true;
        }
    }
    false
}

/// The buggy coordinator breaks atomicity only on some schedules: the
/// first 16 seeds on which it does.
#[test]
fn two_phase_commit_checkpoints_replay_exactly() {
    for seed in (0..)
        .filter(|&s| faulty(&tpc_app(s), s))
        .take(SEEDS as usize)
    {
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
/// step the effects are the recorded ones. Returns the steps replayed.
fn replay_decoded_scroll(label: &str, seed: u64, build: impl Fn() -> World) -> usize {
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
            steps += 1;
        }
    }
    steps
}

/// Every catalogue app at `seed`, the late-symptom Chord-KV included.
fn catalogue(seed: u64) -> [(&'static str, HealApp); 5] {
    [
        ("kvstore", HealApp::Kv { puts: 12 }),
        ("pipeline", HealApp::Pipeline { items: 24 + seed }),
        ("ring", ring_app(seed)),
        ("2pc", tpc_app(seed)),
        (
            "chord-kv",
            HealApp::ChordKv {
                n: 3 + (seed % 3) as usize,
                puts: 2,
                forgetful: 0,
                forget_at: (seed % 2) as u32,
            },
        ),
    ]
}

/// The late-symptom Chord-KV entry of the catalogue, on the first 8
/// seeds whose run loses a write.
#[test]
fn chord_kv_checkpoints_replay_exactly() {
    let chord_kv = |seed| {
        let [.., (_, app)] = catalogue(seed);
        app
    };
    for seed in (0..).filter(|&s| faulty(&chord_kv(s), s)).take(8) {
        check("chord-kv", chord_kv(seed), seed);
    }
}

#[test]
fn decoded_scroll_replays_every_pid_exactly() {
    let mut steps = 0;
    for seed in 0..SEEDS {
        for (name, app) in catalogue(seed) {
            let label = format!("{name} seed {seed}");
            steps += replay_decoded_scroll(&label, seed, || app.build(seed));
        }
        steps += replay_decoded_scroll(&format!("wal seed {seed}"), seed, || {
            wal_world(seed, 20, 4, SharedDisk::new(), None)
        });
    }
    steps += replay_decoded_scroll("chord 96", 1, || chord_world(96, 1, 3, 16));
    assert!(steps > 10_000, "{steps} steps replayed");
}

/// The merge emits a receipt only after the entry its send reference
/// names, so the merged Scroll is a linear extension of happens-before:
/// no receipt sorts before the entry whose handler sent it, resident or
/// spilled.
#[test]
fn merged_scroll_orders_every_send_before_its_receipt() {
    for seed in 0..8 {
        for (name, app) in catalogue(seed) {
            for spill in [None, Some(SPILL_AT)] {
                let label = format!("{name} seed {seed}, spill {spill:?}");
                let mut w = app.build(seed);
                let mut cfg = FixdConfig::seeded(seed);
                cfg.scroll_spill = spill.map(|at| SpillConfig::new(SharedDisk::new(), at));
                let mut fixd = Fixd::new(w.num_procs(), cfg);
                assert!(fixd.supervise(&mut w, MAX_STEPS).quiescent, "{label}");
                let merged = merge_total_order(fixd.scroll());
                assert_eq!(check_send_before_receive(&merged), Ok(()), "{label}");
                assert_eq!(check_causal_consistency(&merged), Ok(()), "{label}");
            }
        }
    }
}

/// The send-reference lookup against an oracle that does not use it:
/// while a catalogue run is recorded, each delivery's sending entry is
/// found as the earlier step whose `effects.sends` holds the very
/// message delivered (`SharedMessage::ptr_eq`: one allocation is shared
/// from send to delivery, as `hot_path_aliasing` pins). The lookup over
/// the recorded Scroll, resident or spilled at `SPILL_AT`, must name the
/// same entry for every delivery.
#[test]
fn send_references_name_the_step_that_sent_each_delivery() {
    let mut checked = 0;
    for seed in 0..8 {
        for (name, app) in catalogue(seed) {
            for spill in [None, Some(SPILL_AT)] {
                let label = format!("{name} seed {seed}, spill {spill:?}");
                let mut w = app.build(seed);
                let n = w.num_procs();
                let mut rec = match spill {
                    None => ScrollRecorder::new(n, RecordConfig::default()),
                    Some(at) => ScrollRecorder::with_spill(
                        n,
                        RecordConfig::default(),
                        SpillConfig::new(SharedDisk::new(), at),
                    ),
                };
                // Every send so far, with the entry whose handler made it.
                let mut sent: Vec<(SharedMessage, (Pid, u64))> = Vec::new();
                let mut want = BTreeMap::new();
                for _ in 0..MAX_STEPS {
                    let Some(step) = w.step() else { break };
                    rec.observe(&w, &step);
                    let Some(pid) = step.event.kind.pid() else {
                        continue;
                    };
                    let seq = rec.store().len(pid) as u64 - 1;
                    if let EventKind::Deliver { msg } = &step.event.kind {
                        let (_, by) = sent
                            .iter()
                            .find(|(m, _)| m.ptr_eq(msg))
                            .unwrap_or_else(|| panic!("{label}: {pid} #{seq}: no step sent it"));
                        want.insert((pid, seq), *by);
                    }
                    for m in &step.effects.sends {
                        sent.push((m.clone(), (pid, seq)));
                    }
                }
                let store = rec.into_store();
                assert_eq!(spill.is_some(), store.spilled_segments() > 0, "{label}");
                let scrolls: Vec<_> = (0..n as u32).map(|p| store.scroll(Pid(p))).collect();
                let refs = SendRefs::new(scrolls.iter().map(|s| &s[..]));
                for (pid, scroll) in (0..n as u32).map(Pid).zip(&scrolls) {
                    for e in scroll.iter() {
                        let EntryKind::Deliver { msg } = &e.kind else {
                            continue;
                        };
                        let at = (pid, e.local_seq);
                        assert_eq!(refs.sender(msg), want.get(&at).copied(), "{label}: {at:?}");
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 1_000, "{checked} deliveries checked");
}
