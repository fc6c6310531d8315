//! Deterministic local playback of one process from its scroll.
//!
//! This is the paper's §2.2 alternative to global replay: *"record the
//! interaction between the local component and a remote one and treat the
//! remote entity as a black box defined only by the interaction with the
//! local component."* The replayed process receives exactly the recorded
//! messages and timer firings; its RNG stream is re-derived from the same
//! seed; and every handler's
//! effects are checked against the recorded fingerprint, so divergence
//! (a non-reproducible bug, or a changed program) is detected at the
//! first differing step.
//!
//! A replay starts either at the process's `Start` ([`replay_process`])
//! or from one of the world's checkpoints of it ([`replay_from`]): the
//! checkpoint carries the process's whole runtime context, so replaying
//! the Scroll suffix after it mints the ids and draws the randoms the
//! world did.
//!
//! Playback re-executes handlers whose effects already happened: sends,
//! timers and outputs are only compared, never applied, and a
//! [`DiskReplayGuard`] drops the handlers' [`fixd_runtime::SharedDisk`]
//! writes while they run.

use fixd_runtime::{DiskReplayGuard, Effects, Pid, ProcCheckpoint, Program, SoloHarness};

use crate::entry::{EntryKind, ScrollEntry};

/// Did the replay reproduce the recorded run?
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fidelity {
    /// Every replayed handler produced byte-identical effects.
    Exact,
    /// The replay diverged at this local sequence number.
    Divergent {
        at_local_seq: u64,
        expected_fp: u64,
        actual_fp: u64,
    },
}

/// Result of a local replay.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Handler invocations replayed.
    pub steps: u64,
    /// Fidelity verdict (first divergence wins).
    pub fidelity: Fidelity,
    /// Final program state after replay.
    pub final_state: Vec<u8>,
    /// States after each replayed step (local_seq → snapshot), captured
    /// when `capture_states` is set — the "step through the execution"
    /// debugger facility of §2.2.
    pub states: Vec<Vec<u8>>,
}

/// Replay options.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayConfig {
    /// Capture a state snapshot after every step (costly; for stepping).
    pub capture_states: bool,
    /// Stop at the first divergence instead of continuing.
    pub stop_on_divergence: bool,
}

/// Replay `pid`'s scroll against a fresh program instance.
///
/// * `width` and `seed` must match the recorded world (they determine
///   `Context::world_size` and the RNG stream).
/// * `program` must be in its initial state (as at the recorded `Start`).
pub fn replay_process(
    pid: Pid,
    width: usize,
    seed: u64,
    program: &mut dyn Program,
    entries: &[ScrollEntry],
) -> ReplayOutcome {
    replay_process_with(pid, width, seed, program, entries, ReplayConfig::default())
}

/// [`replay_process`] with explicit options.
pub fn replay_process_with(
    pid: Pid,
    width: usize,
    seed: u64,
    program: &mut dyn Program,
    entries: &[ScrollEntry],
    cfg: ReplayConfig,
) -> ReplayOutcome {
    replay_in(
        pid,
        SoloHarness::new(pid, width, seed),
        program,
        entries,
        cfg,
    )
}

/// Replay the Scroll suffix `entries` of the process checkpointed in
/// `ck` — the entries recorded after the checkpoint was taken — in a
/// `width`-process system, resuming from the checkpoint's context.
/// `program` must hold the checkpointed state (restored from `ck.state`).
pub fn replay_from(
    ck: &ProcCheckpoint,
    width: usize,
    program: &mut dyn Program,
    entries: &[ScrollEntry],
    cfg: ReplayConfig,
) -> ReplayOutcome {
    replay_in(
        ck.pid,
        SoloHarness::resume(ck, width),
        program,
        entries,
        cfg,
    )
}

fn replay_in(
    pid: Pid,
    mut harness: SoloHarness,
    program: &mut dyn Program,
    entries: &[ScrollEntry],
    cfg: ReplayConfig,
) -> ReplayOutcome {
    let mut steps = 0u64;
    let mut fidelity = Fidelity::Exact;
    let mut states = Vec::new();
    let _disk = DiskReplayGuard::new();

    for e in entries {
        debug_assert_eq!(e.pid, pid, "entry from wrong scroll");
        let Some(effects) = replay_step(&mut harness, program, e) else {
            continue;
        };
        steps += 1;
        if cfg.capture_states {
            states.push(program.snapshot());
        }
        let actual_fp = effects.fingerprint();
        if actual_fp != e.effects_fp && fidelity == Fidelity::Exact {
            fidelity = Fidelity::Divergent {
                at_local_seq: e.local_seq,
                expected_fp: e.effects_fp,
                actual_fp,
            };
            if cfg.stop_on_divergence {
                break;
            }
        }
    }

    ReplayOutcome {
        steps,
        fidelity,
        final_state: program.snapshot(),
        states,
    }
}

/// Run the handler entry `e` recorded on `harness`'s process, at its
/// recorded time. `None`, and nothing run, for an entry that runs no
/// handler (a crash, a restart, dropped mail).
///
/// The effects are returned, never applied. A handler that writes a
/// [`fixd_runtime::SharedDisk`] writes it again unless the caller holds
/// a [`DiskReplayGuard`], as [`replay_process`] and [`replay_from`] do.
pub fn replay_step(
    harness: &mut SoloHarness,
    program: &mut dyn Program,
    e: &ScrollEntry,
) -> Option<Effects> {
    if !e.kind.is_replayable() {
        return None;
    }
    harness.set_now(e.at);
    match &e.kind {
        EntryKind::Start => Some(harness.start(program)),
        EntryKind::Deliver { msg } => Some(harness.deliver(program, msg)),
        EntryKind::TimerFire { timer } => Some(harness.timer(program, *timer)),
        EntryKind::Crash | EntryKind::Restart | EntryKind::DroppedMail { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{record_run, RecordConfig};
    use fixd_runtime::{Context, Message, World, WorldConfig};

    #[derive(Clone)]
    struct Acc {
        sum: u64,
        noise: u64,
    }
    impl Program for Acc {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                for i in 0..3u8 {
                    ctx.send(Pid(1), 1, vec![i]);
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            self.sum += u64::from(msg.payload[0]);
            self.noise ^= ctx.random();
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut b = self.sum.to_le_bytes().to_vec();
            b.extend_from_slice(&self.noise.to_le_bytes());
            b
        }
        fn restore(&mut self, b: &[u8]) {
            self.sum = u64::from_le_bytes(b[0..8].try_into().unwrap());
            self.noise = u64::from_le_bytes(b[8..16].try_into().unwrap());
        }
    }

    fn record(seed: u64) -> (crate::ScrollStore, Vec<u8>) {
        let mut w = World::new(WorldConfig::seeded(seed));
        w.add_process(Box::new(Acc { sum: 0, noise: 0 }));
        w.add_process(Box::new(Acc { sum: 0, noise: 0 }));
        let (store, _) = record_run(&mut w, RecordConfig::default(), 1_000);
        let final_state = w.checkpoint_process(Pid(1)).state.to_bytes();
        (store, final_state)
    }

    #[test]
    fn replay_reproduces_final_state_exactly() {
        let (store, want) = record(42);
        let mut fresh = Acc { sum: 0, noise: 0 };
        let out = replay_process(Pid(1), 2, 42, &mut fresh, &store.scroll(Pid(1)));
        assert_eq!(out.fidelity, Fidelity::Exact);
        assert_eq!(out.final_state, want);
        assert_eq!(out.steps, 4); // start + 3 deliveries
    }

    #[test]
    fn replay_detects_changed_program() {
        let (store, _) = record(42);
        // A "buggy fix": doubles the payload — divergence must be caught.
        #[derive(Clone)]
        struct Acc2(Acc);
        impl Program for Acc2 {
            fn on_start(&mut self, ctx: &mut Context) {
                self.0.on_start(ctx)
            }
            fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
                self.0.sum += 2 * u64::from(msg.payload[0]);
                self.0.noise ^= ctx.random();
                ctx.output(b"extra".to_vec()); // extra effect => fp differs
            }
            fn snapshot(&self) -> Vec<u8> {
                self.0.snapshot()
            }
            fn restore(&mut self, b: &[u8]) {
                self.0.restore(b)
            }
        }
        let mut changed = Acc2(Acc { sum: 0, noise: 0 });
        let out = replay_process(Pid(1), 2, 42, &mut changed, &store.scroll(Pid(1)));
        match out.fidelity {
            Fidelity::Divergent { at_local_seq, .. } => {
                assert_eq!(at_local_seq, 1, "first delivery diverges (start matches)");
            }
            Fidelity::Exact => panic!("divergence not detected"),
        }
    }

    #[test]
    fn wrong_seed_diverges_via_rng() {
        let (store, want) = record(42);
        let mut fresh = Acc { sum: 0, noise: 0 };
        let out = replay_process(Pid(1), 2, 43, &mut fresh, &store.scroll(Pid(1)));
        // Different RNG stream => different noise => different state,
        // and effect fingerprints (recorded draws) differ.
        assert_ne!(out.fidelity, Fidelity::Exact);
        assert_ne!(out.final_state, want);
    }

    #[test]
    fn capture_states_steps_through_execution() {
        let (store, _) = record(7);
        let mut fresh = Acc { sum: 0, noise: 0 };
        let out = replay_process_with(
            Pid(1),
            2,
            7,
            &mut fresh,
            &store.scroll(Pid(1)),
            ReplayConfig {
                capture_states: true,
                stop_on_divergence: false,
            },
        );
        assert_eq!(out.states.len() as u64, out.steps);
        // Sum strictly increases over the deliveries with payload > 0.
        let sums: Vec<u64> = out
            .states
            .iter()
            .map(|s| u64::from_le_bytes(s[0..8].try_into().unwrap()))
            .collect();
        assert!(sums.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stop_on_divergence_halts_early() {
        let (store, _) = record(42);
        let mut fresh = Acc { sum: 0, noise: 0 };
        let out = replay_process_with(
            Pid(1),
            2,
            999, // wrong seed: diverges immediately on rng draw
            &mut fresh,
            &store.scroll(Pid(1)),
            ReplayConfig {
                capture_states: false,
                stop_on_divergence: true,
            },
        );
        assert!(out.steps < 4);
    }
}
