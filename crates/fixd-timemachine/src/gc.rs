//! Garbage collection of Time-Machine history.
//!
//! Once a line of checkpoints is *stable* (no detector will roll past
//! it), older checkpoints and logged deliveries can never be needed
//! again and are reclaimed. Each process keeps the newest image at or
//! before its stable point and its handler log from that image on: the
//! checkpoints from the stable point on replay from it. A delivery stays
//! logged while its receive is at or above the receiver's stable point —
//! a rollback to the line may re-inject it — or its send is at or above
//! the sender's: as a dependency edge it then makes a rollback past the
//! line fail with `CheckpointCollected` instead of orphaning the
//! receive. Checkpoint indices are stable identifiers (messages in the
//! log refer to them), so collection moves a watermark rather than
//! renumbering.

use crate::cic::TimeMachine;
use crate::dependency::NO_ROLLBACK;

/// What one GC pass reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    pub checkpoints_dropped: usize,
    pub log_entries_dropped: usize,
    /// Checkpoint bytes held after the pass (content-dedup-aware).
    pub bytes_after: usize,
    /// Page bytes the shared store **actually freed** during this pass —
    /// only pages whose refcount dropped to zero count. A page still
    /// referenced by any live checkpoint, another process's history, or
    /// a cloned (branch) Time Machine is not freed and not reported.
    pub page_bytes_freed: u64,
}

impl TimeMachine {
    /// Collect history strictly below the `stable` line
    /// (`stable[p]` = lowest checkpoint index of `p` that must stay
    /// restorable; [`NO_ROLLBACK`] = collect everything but the latest).
    pub fn gc(&mut self, stable: &[u64]) -> GcReport {
        let freed_before = self.page_store.stats().freed_bytes;
        let keep_from: Vec<u64> = (self.stores.iter().enumerate())
            .map(|(i, store)| match stable.get(i).copied() {
                Some(NO_ROLLBACK) | None => store.latest_index().unwrap_or(0),
                Some(s) => s,
            })
            .collect();
        let mut report = GcReport::default();
        for (store, &keep) in self.stores.iter_mut().zip(&keep_from) {
            report.checkpoints_dropped += store.gc_before(keep);
        }
        let before_log = self.delivery_log.len();
        self.delivery_log.retain(|rec| {
            let e = rec.edge();
            e.dst_interval >= keep_from[e.dst.idx()] || e.src_interval >= keep_from[e.src.idx()]
        });
        report.log_entries_dropped = before_log - self.delivery_log.len();
        report.bytes_after = self.total_checkpoint_bytes();
        report.page_bytes_freed = self.page_store.stats().freed_bytes - freed_before;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cic::{CheckpointPolicy, TimeMachineConfig};
    use crate::recovery::RollbackError;
    use fixd_runtime::{Context, Pid, Program, World, WorldConfig};

    #[derive(Clone)]
    struct Pump;
    impl Program for Pump {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, vec![20]);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &fixd_runtime::Message) {
            if msg.payload[0] > 0 {
                let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
                ctx.send(next, 1, vec![msg.payload[0] - 1]);
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![1, 2, 3, 4]
        }
        fn restore(&mut self, _b: &[u8]) {}
    }

    fn setup() -> (World, TimeMachine) {
        let mut w = World::new(WorldConfig::seeded(31));
        w.add_process(Box::new(Pump));
        w.add_process(Box::new(Pump));
        let tm = TimeMachine::new(
            2,
            TimeMachineConfig {
                policy: CheckpointPolicy::EveryReceive,
                page_size: 64,
            },
        );
        (w, tm)
    }

    #[test]
    fn gc_reclaims_old_history() {
        let (mut w, mut tm) = setup();
        tm.run(&mut w, 10_000);
        let ckpts_before = tm.total_checkpoints();
        assert!(ckpts_before > 10);
        // Everything is stable: keep only the latest per process.
        let stable = vec![NO_ROLLBACK, NO_ROLLBACK];
        let report = tm.gc(&stable);
        assert!(report.checkpoints_dropped > 0);
        assert!(report.log_entries_dropped > 0);
    }

    #[test]
    fn gc_preserves_rollback_to_stable_point() {
        let (mut w, mut tm) = setup();
        tm.run(&mut w, 10_000);
        let fail = Pid(1);
        let keep = tm.interval(fail).saturating_sub(1);
        let mut stable = vec![0u64, 0u64];
        stable[fail.idx()] = keep;
        stable[0] = 0; // keep all of P0
        tm.gc(&stable);
        // Rollback to the kept checkpoint must still work.
        let report = tm.rollback(&mut w, fail, keep).unwrap();
        assert!(report.procs_rolled >= 1);
    }

    #[test]
    fn gc_below_stable_blocks_deep_rollback() {
        let (mut w, mut tm) = setup();
        tm.run(&mut w, 10_000);
        let fail = Pid(1);
        let keep = tm.interval(fail);
        let stable = vec![keep, keep];
        tm.gc(&stable);
        if keep >= 2 {
            let err = tm.rollback(&mut w, fail, 0).unwrap_err();
            assert!(matches!(
                err,
                RollbackError::CheckpointCollected { .. } | RollbackError::NoSuchCheckpoint { .. }
            ));
        }
    }

    #[test]
    fn gc_keeps_a_collected_receive_of_a_send_above_the_line() {
        // P0 sends in its interval k what P1 receives in its interval
        // k + 1. Rolling P0 back to 2 undoes its interval-2 send, so P1
        // must go back to 3: below its stable point 5, collected.
        let (mut w, mut tm) = setup();
        tm.run(&mut w, 10_000);
        tm.gc(&[2, 5]);
        let err = RollbackError::CheckpointCollected {
            pid: Pid(1),
            index: 3,
        };
        assert_eq!(tm.rollback(&mut w, Pid(0), 2), Err(err));
    }

    /// Pump variant whose state actually mutates, so GC'd checkpoints
    /// hold pages nothing else references. The token makes 41 hops:
    /// each process's images then fall at 0, 8 and 16 handler events,
    /// and a pass that keeps the latest checkpoint drops the image at 8,
    /// whose counter page no other image holds (the image at 0 is all
    /// zero pages, shared with every later image).
    #[derive(Clone)]
    struct MutPump {
        buf: Vec<u8>,
        n: u64,
    }
    impl Program for MutPump {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, vec![40]);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &fixd_runtime::Message) {
            self.n += 1;
            let i = (self.n as usize * 131) % self.buf.len();
            self.buf[i] = self.buf[i].wrapping_add(1);
            if msg.payload[0] > 0 {
                let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
                ctx.send(next, 1, vec![msg.payload[0] - 1]);
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut b = self.n.to_le_bytes().to_vec();
            b.extend_from_slice(&self.buf);
            b
        }
        fn restore(&mut self, b: &[u8]) {
            self.n = u64::from_le_bytes(b[0..8].try_into().unwrap());
            self.buf = b[8..].to_vec();
        }
    }

    #[test]
    fn gc_reports_bytes_actually_freed() {
        let mut w = World::new(WorldConfig::seeded(31));
        for _ in 0..2 {
            w.add_process(Box::new(MutPump {
                buf: vec![0; 1024],
                n: 0,
            }));
        }
        let mut tm = TimeMachine::new(
            2,
            TimeMachineConfig {
                policy: CheckpointPolicy::EveryReceive,
                page_size: 64,
            },
        );
        tm.run(&mut w, 10_000);
        let before = tm.total_checkpoint_bytes();
        let report = tm.gc(&[NO_ROLLBACK, NO_ROLLBACK]);
        assert!(report.checkpoints_dropped > 0);
        assert!(
            report.page_bytes_freed > 0,
            "mutated pages of dropped checkpoints must be returned"
        );
        assert!(report.bytes_after < before);
        // Store accounting agrees with the live-image view: no leaks,
        // nothing freed that a live checkpoint still references.
        assert_eq!(tm.page_store().unique_bytes(), tm.total_checkpoint_bytes());
    }

    #[test]
    fn gc_keeps_pages_shared_with_surviving_branch() {
        // A cloned Time Machine (a copy-on-write branch) keeps its own
        // handles on every page; collecting the trunk's history must not
        // free pages the branch still references.
        let mut w = World::new(WorldConfig::seeded(31));
        for _ in 0..2 {
            w.add_process(Box::new(MutPump {
                buf: vec![0; 1024],
                n: 0,
            }));
        }
        let mut tm = TimeMachine::new(
            2,
            TimeMachineConfig {
                policy: CheckpointPolicy::EveryReceive,
                page_size: 64,
            },
        );
        tm.run(&mut w, 10_000);
        let branch = tm.clone();
        let held_by_branch = branch.total_checkpoint_bytes();
        let report = tm.gc(&[NO_ROLLBACK, NO_ROLLBACK]);
        assert!(report.checkpoints_dropped > 0);
        assert_eq!(
            report.page_bytes_freed, 0,
            "every trunk page is still referenced by the branch"
        );
        assert_eq!(branch.total_checkpoint_bytes(), held_by_branch);
        // Dropping the branch releases the now-unreferenced history.
        let live_after = tm.total_checkpoint_bytes();
        drop(branch);
        assert_eq!(tm.page_store().unique_bytes(), live_after);
    }

    #[test]
    fn gc_is_idempotent() {
        let (mut w, mut tm) = setup();
        tm.run(&mut w, 10_000);
        let stable = vec![NO_ROLLBACK, NO_ROLLBACK];
        tm.gc(&stable);
        let second = tm.gc(&stable);
        assert_eq!(second.checkpoints_dropped, 0);
        assert_eq!(second.log_entries_dropped, 0);
    }
}
