//! liblog-style logging and replay debugging.
//!
//! "liblog \[1\], uses logging and replay to identify bugs in distributed
//! applications and to present the user with a trace of the distributed
//! execution. The tool assumes though that all processes involved in the
//! distributed computation use the logging mechanism that they provide."
//! (§2.3) — i.e. diagnosis only: no rollback of the *live* system, no
//! treatment. Implemented over the Scroll substrate with full recording
//! (liblog intercepts every libc call, so drops are recorded too).

use fixd_runtime::{Pid, Program, RunReport, World};
use fixd_scroll::{
    merge_total_order, replay_process, Fidelity, RecordConfig, ScrollEntry, ScrollRecorder,
    ScrollStore,
};

/// The liblog comparator: record a run, then replay/inspect offline.
pub struct Liblog {
    store: ScrollStore,
    seed: u64,
    width: usize,
}

impl Liblog {
    /// Record `world` to quiescence (or `max_steps`). All processes log —
    /// liblog's stated requirement.
    pub fn record(world: &mut World, seed: u64, max_steps: u64) -> (Self, RunReport) {
        let mut rec = ScrollRecorder::new(world.num_procs(), RecordConfig { record_drops: true });
        let d0 = world.stats();
        let mut steps = 0;
        while steps < max_steps {
            let Some(step) = world.step() else { break };
            rec.observe(world, &step);
            steps += 1;
        }
        let d1 = world.stats();
        let report = RunReport {
            steps,
            delivered: d1.delivered - d0.delivered,
            dropped: d1.dropped - d0.dropped,
            end_time: world.now(),
            quiescent: steps < max_steps,
        };
        (
            Self {
                store: rec.into_store(),
                seed,
                width: world.num_procs(),
            },
            report,
        )
    }

    /// The recorded log.
    pub fn store(&self) -> &ScrollStore {
        &self.store
    }

    /// Present the user with "a trace of the distributed execution":
    /// the merged, causally consistent total order.
    pub fn global_trace(&self) -> Vec<ScrollEntry> {
        merge_total_order(&self.store)
    }

    /// Offline deterministic replay of one process against a fresh
    /// program instance. Returns whether the replay was exact.
    pub fn replay(&self, pid: Pid, fresh: &mut dyn Program) -> Fidelity {
        replay_process(pid, self.width, self.seed, fresh, &self.store.scroll(pid)).fidelity
    }

    /// Log size in bytes (the cost liblog pays for full recording).
    pub fn log_bytes(&self) -> usize {
        self.store.encoded_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Context, Message, WorldConfig};

    #[derive(Clone)]
    struct Echo {
        n: u64,
    }
    impl Program for Echo {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, vec![3]);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            self.n += 1;
            if msg.payload[0] > 0 {
                ctx.send(msg.src, 1, vec![msg.payload[0] - 1]);
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.n.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.n = u64::from_le_bytes(b.try_into().unwrap());
        }
    }

    fn world(seed: u64) -> World {
        let mut w = World::new(WorldConfig::seeded(seed));
        w.add_process(Box::new(Echo { n: 0 }));
        w.add_process(Box::new(Echo { n: 0 }));
        w
    }

    #[test]
    fn records_and_merges_global_trace() {
        let mut w = world(9);
        let (ll, report) = Liblog::record(&mut w, 9, 10_000);
        assert!(report.quiescent);
        let trace = ll.global_trace();
        assert_eq!(trace.len(), ll.store().total_entries());
        assert!(ll.log_bytes() > 0);
        fixd_scroll::check_causal_consistency(&trace).unwrap();
    }

    #[test]
    fn replay_is_exact_with_same_program() {
        let mut w = world(9);
        let (ll, _) = Liblog::record(&mut w, 9, 10_000);
        let mut fresh = Echo { n: 0 };
        assert_eq!(ll.replay(Pid(1), &mut fresh), Fidelity::Exact);
        assert_eq!(fresh.n, w.program::<Echo>(Pid(1)).unwrap().n);
    }

    #[test]
    fn replay_detects_code_drift() {
        let mut w = world(9);
        let (ll, _) = Liblog::record(&mut w, 9, 10_000);
        #[derive(Clone)]
        struct Echo2;
        impl Program for Echo2 {
            fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
                // Drifted: always responds, even at 0.
                ctx.send(msg.src, 1, vec![0]);
            }
            fn snapshot(&self) -> Vec<u8> {
                vec![]
            }
            fn restore(&mut self, _b: &[u8]) {}
        }
        assert_ne!(ll.replay(Pid(1), &mut Echo2), Fidelity::Exact);
    }
}
