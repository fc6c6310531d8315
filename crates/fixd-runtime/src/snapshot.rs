//! [`GlobalSnapshot`]: the one value for a consistent cut of a
//! [`World`](crate::World).
//!
//! Fig. 4 of the paper has the detecting process "piece together a
//! consistent global checkpoint of the system that is fed to the
//! Investigator". In a real deployment that is a marker-based snapshot
//! protocol; in the deterministic simulator the world is
//! quiescent between events, so a cut taken there, with the channel
//! state (in-flight messages and pending timers) and liveness captured
//! explicitly, is exactly the snapshot the marker protocol would deliver.
//!
//! [`World::global_snapshot`](crate::World::global_snapshot) captures
//! one, [`World::restore_snapshot`](crate::World::restore_snapshot) puts
//! a world back to it, [`GlobalSnapshot::fingerprint`] pins it, and the
//! Investigator builds its start state from it.

use crate::event::{SharedMessage, TimerId};
use crate::wire;
use crate::world::ProcCheckpoint;
use crate::{Pid, VTime};

/// Every process, the mail in flight and the pending timers of a world
/// at one instant.
///
/// Captured in-flight messages **alias** the queued messages themselves
/// (shared [`SharedMessage`] handles) rather than copying them, so a
/// snapshot of a world with heavy mail in flight costs reference-count
/// bumps, not memcpys — see `snapshot_aliases_inflight_payloads`.
#[derive(Clone, Debug)]
pub struct GlobalSnapshot {
    pub at: VTime,
    /// One checkpoint per pid, in pid order. A dormant lazy process
    /// contributes the fresh state it would materialize with.
    pub procs: Vec<ProcCheckpoint>,
    /// Queued deliveries, in scheduling order.
    pub inflight: Vec<SharedMessage>,
    /// Pending (not yet fired, not cancelled) timers
    /// `(pid, timer, fire_at)`, in scheduling order.
    pub timers: Vec<(Pid, TimerId, VTime)>,
    /// Crashed pids, ascending.
    pub crashed: Vec<Pid>,
}

impl GlobalSnapshot {
    /// Order-dependent fingerprint over every process's state bytes
    /// (FNV-1a: campaign reports and fixtures pin it).
    pub fn fingerprint(&self) -> u64 {
        fold_states(self.procs.iter().map(|c| c.state.content_fnv1a()))
    }
}

/// The fold [`GlobalSnapshot::fingerprint`] and
/// [`World::fingerprint`](crate::World::fingerprint) share, over the
/// FNV-1a hashes of each pid's state bytes in pid order.
pub(crate) fn fold_states(state_hashes: impl IntoIterator<Item = u64>) -> u64 {
    state_hashes.into_iter().fold(0xfeed_f00d, wire::fnv_mix)
}

#[cfg(test)]
mod tests {
    use crate::event::Message;
    use crate::{Context, Pid, Program, TimerId, World, WorldConfig};

    #[derive(Clone)]
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
        fn on_timer(&mut self, ctx: &mut Context, _t: TimerId) {
            self.beats += 1;
            ctx.send(Pid(1), 1, vec![self.beats as u8]);
            if self.beats < 6 {
                ctx.set_timer(5);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
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
        let g = w.global_snapshot();
        assert_eq!(g.procs.len(), 2);
        assert!(
            !g.inflight.is_empty() || !g.timers.is_empty(),
            "mid-run snapshot must capture channel/timer state"
        );
        assert!(g.procs.iter().map(|c| c.state.len()).sum::<usize>() >= 32);
    }

    #[test]
    fn snapshot_aliases_inflight_payloads() {
        // Checkpointing in-flight mail must share the queued messages
        // themselves (checkpoint index and payload in one shared
        // allocation), not copy them.
        let mut w = beat_world();
        for _ in 0..40 {
            w.step();
            let g = w.global_snapshot();
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
        let g = w.global_snapshot();
        // Continue to completion, note the outcome.
        let mut w_ref = w.clone();
        w_ref.run_to_quiescence(10_000);
        let want = (
            w_ref.program::<Beat>(Pid(0)).unwrap().beats,
            w_ref.program::<Beat>(Pid(0)).unwrap().acks,
        );
        // Keep running the original further, then restore and re-run.
        w.run_to_quiescence(10_000);
        w.restore_snapshot(&g);
        assert_eq!(w.global_snapshot().fingerprint(), g.fingerprint());
        w.run_to_quiescence(10_000);
        let got = (
            w.program::<Beat>(Pid(0)).unwrap().beats,
            w.program::<Beat>(Pid(0)).unwrap().acks,
        );
        assert_eq!(got, want, "restore must resume to the same outcome");
    }

    #[test]
    fn snapshot_fingerprint_distinguishes_states() {
        let mut w = beat_world();
        w.run_steps(4);
        let a = w.global_snapshot();
        w.run_steps(3);
        let b = w.global_snapshot();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(b.fingerprint(), w.fingerprint());
    }

    #[test]
    fn quiescent_snapshot_has_empty_channels() {
        let mut w = beat_world();
        w.run_to_quiescence(10_000);
        let g = w.global_snapshot();
        assert!(g.inflight.is_empty());
        assert!(g.timers.is_empty());
    }
}
