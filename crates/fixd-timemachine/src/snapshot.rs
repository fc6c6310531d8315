//! Coordinated global checkpoints (stop-the-world).
//!
//! Two roles in the reproduction:
//!
//! 1. the **eager full-copy baseline** that speculation COW checkpoints
//!    are measured against (experiment F2; the paper claims speculative
//!    checkpoints "introduce less overhead than certain types of
//!    traditional checkpointing");
//! 2. the substrate for FixD's fault-response protocol (Fig. 4), where
//!    the detecting process "collects these responses to piece together a
//!    consistent global checkpoint of the system".
//!
//! In a real deployment this is a Chandy–Lamport-style marker protocol;
//! in the deterministic simulator, the world is quiescent between events,
//! so a cut taken between events with the channel state (in-flight
//! messages and pending timers) captured explicitly is exactly the
//! consistent snapshot the marker protocol would deliver.

use fixd_runtime::{EventKind, Pid, ProcCheckpoint, SharedMessage, TimerId, VTime, World};

/// A consistent global checkpoint: every process state plus channel
/// contents (in-flight messages) plus pending timers.
///
/// Captured in-flight messages **alias** the queued messages themselves
/// (shared `SharedMessage` handles) rather than copying them, so
/// checkpointing a world with heavy mail in flight costs reference-count
/// bumps, not memcpys — see `snapshot_aliases_inflight_payloads`.
#[derive(Clone, Debug)]
pub struct GlobalCheckpoint {
    pub at: VTime,
    pub ckpts: Vec<ProcCheckpoint>,
    pub inflight: Vec<SharedMessage>,
    pub timers: Vec<(Pid, TimerId, VTime)>,
}

impl GlobalCheckpoint {
    /// Total state bytes captured (eager copy cost metric).
    pub fn state_bytes(&self) -> usize {
        self.ckpts.iter().map(|c| c.state.len()).sum::<usize>()
            + self.inflight.iter().map(|m| m.payload.len()).sum::<usize>()
    }

    /// Order-dependent fingerprint of the captured states.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0x6107_u64;
        for c in &self.ckpts {
            h = fixd_runtime::wire::fnv_mix(h, c.fingerprint());
        }
        for m in &self.inflight {
            h = fixd_runtime::wire::fnv_mix(h, m.content_fingerprint());
        }
        h
    }
}

/// Capture a coordinated snapshot of the whole world, state bytes held
/// inline (the eager full-copy baseline of experiment F2).
pub fn coordinated_snapshot(world: &World) -> GlobalCheckpoint {
    GlobalCheckpoint {
        at: world.now(),
        ckpts: (0..world.num_procs())
            .map(|i| world.checkpoint_process(Pid(i as u32)))
            .collect(),
        inflight: world.inflight_messages(),
        timers: world.pending_timers(),
    }
}

/// Capture a coordinated snapshot whose process states page into the
/// shared content-addressed `store`: a global checkpoint of a world
/// whose state mostly matches already-interned pages (previous global
/// checkpoints, the Time Machine's incremental history, replicas with
/// equal state) costs refcounts, not copies.
pub fn coordinated_snapshot_in(
    world: &World,
    store: &fixd_runtime::PageStore,
    page_size: usize,
) -> GlobalCheckpoint {
    let mut scratch = Vec::new();
    GlobalCheckpoint {
        at: world.now(),
        ckpts: (0..world.num_procs())
            .map(|i| {
                world.checkpoint_process_in(Pid(i as u32), store, page_size, None, &mut scratch)
            })
            .collect(),
        inflight: world.inflight_messages(),
        timers: world.pending_timers(),
    }
}

/// Restore the world to a previously captured global checkpoint: every
/// process state is restored, the network is cleared and re-seeded with
/// the captured in-flight messages, pending timers are re-armed.
pub fn restore_global(world: &mut World, g: &GlobalCheckpoint) {
    for c in &g.ckpts {
        world.restore_checkpoint(c);
    }
    world.purge_events(|k| matches!(k, EventKind::Deliver { .. } | EventKind::TimerFire { .. }));
    let now = world.now();
    for m in &g.inflight {
        world.inject_message(m.clone(), now);
    }
    for (pid, timer, fire_at) in &g.timers {
        world.inject_timer(*pid, *timer, (*fire_at).max(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Context, PageStore, Program, TimerId as RtTimerId, World, WorldConfig};

    struct Beat {
        beats: u64,
        acks: u64,
    }
    impl Program for Beat {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.set_timer(5);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context, _t: RtTimerId) {
            self.beats += 1;
            ctx.send(Pid(1), 1, vec![self.beats as u8]);
            if self.beats < 6 {
                ctx.set_timer(5);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &fixd_runtime::Message) {
            if ctx.pid() == Pid(1) {
                ctx.send(Pid(0), 2, msg.payload.clone());
            } else {
                self.acks += 1;
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut b = self.beats.to_le_bytes().to_vec();
            b.extend_from_slice(&self.acks.to_le_bytes());
            b
        }
        fn restore(&mut self, b: &[u8]) {
            self.beats = u64::from_le_bytes(b[0..8].try_into().unwrap());
            self.acks = u64::from_le_bytes(b[8..16].try_into().unwrap());
        }
        fn clone_program(&self) -> Box<dyn Program> {
            Box::new(Beat {
                beats: self.beats,
                acks: self.acks,
            })
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn beat_world() -> World {
        let mut w = World::new(WorldConfig::seeded(9));
        w.add_process(Box::new(Beat { beats: 0, acks: 0 }));
        w.add_process(Box::new(Beat { beats: 0, acks: 0 }));
        w
    }

    #[test]
    fn snapshot_captures_channels_and_timers() {
        let mut w = beat_world();
        w.run_steps(6); // mid-protocol: mail and timers in flight
        let g = coordinated_snapshot(&w);
        assert_eq!(g.ckpts.len(), 2);
        assert!(
            !g.inflight.is_empty() || !g.timers.is_empty(),
            "mid-run snapshot must capture channel/timer state"
        );
        assert!(g.state_bytes() >= 32);
    }

    #[test]
    fn snapshot_aliases_inflight_payloads() {
        // Checkpointing in-flight mail must share the queued messages
        // themselves (clocks, metadata, and payload in one shared
        // allocation), not copy them.
        let mut w = beat_world();
        for _ in 0..40 {
            w.step();
            let g = coordinated_snapshot(&w);
            if g.inflight.is_empty() {
                continue;
            }
            let queued = w.inflight_messages();
            assert_eq!(queued.len(), g.inflight.len());
            for (captured, live) in g.inflight.iter().zip(&queued) {
                assert_eq!(captured.id, live.id);
                assert!(
                    captured.ptr_eq(live),
                    "checkpointed message must alias the queued one"
                );
                assert!(
                    captured.payload.ptr_eq(&live.payload),
                    "and with it the payload bytes"
                );
                // At least: world queue + snapshot + our fresh clone all
                // share one message allocation.
                assert!(
                    captured.strong_count() >= 3,
                    "expected ≥3 handles on one message, got {}",
                    captured.strong_count()
                );
            }
            return; // found and verified a mid-flight snapshot
        }
        panic!("no snapshot with in-flight messages found");
    }

    #[test]
    fn restore_resumes_to_same_final_state() {
        let mut w = beat_world();
        w.run_steps(6);
        let g = coordinated_snapshot(&w);
        // Continue to completion, note the outcome.
        let mut w_ref = w.clone();
        w_ref.run_to_quiescence(10_000);
        let want = (
            w_ref.program::<Beat>(Pid(0)).unwrap().beats,
            w_ref.program::<Beat>(Pid(0)).unwrap().acks,
        );
        // Keep running the original further, then restore and re-run.
        w.run_to_quiescence(10_000);
        restore_global(&mut w, &g);
        w.run_to_quiescence(10_000);
        let got = (
            w.program::<Beat>(Pid(0)).unwrap().beats,
            w.program::<Beat>(Pid(0)).unwrap().acks,
        );
        assert_eq!(got, want, "restore must resume to the same outcome");
    }

    #[test]
    fn paged_snapshot_dedups_repeated_captures() {
        let mut w = beat_world();
        w.run_steps(4);
        let store = PageStore::new();
        let a = coordinated_snapshot_in(&w, &store, 64);
        let bytes_one = store.unique_bytes();
        // Capture again without state change: nothing new interned.
        let b = coordinated_snapshot_in(&w, &store, 64);
        assert_eq!(store.unique_bytes(), bytes_one);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Paged and inline forms agree byte-for-byte and hash-for-hash.
        let inline = coordinated_snapshot(&w);
        assert_eq!(inline.fingerprint(), a.fingerprint());
        assert_eq!(inline.state_bytes(), a.state_bytes());
        // Restore from the paged form works like the inline one.
        w.run_to_quiescence(10_000);
        restore_global(&mut w, &a);
        let restored = coordinated_snapshot(&w);
        assert_eq!(restored.fingerprint(), inline.fingerprint());
    }

    #[test]
    fn snapshot_fingerprint_distinguishes_states() {
        let mut w = beat_world();
        w.run_steps(4);
        let a = coordinated_snapshot(&w);
        w.run_steps(3);
        let b = coordinated_snapshot(&w);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn quiescent_snapshot_has_empty_channels() {
        let mut w = beat_world();
        w.run_to_quiescence(10_000);
        let g = coordinated_snapshot(&w);
        assert!(g.inflight.is_empty());
        assert!(g.timers.is_empty());
    }
}
