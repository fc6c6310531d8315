//! Flashback-style checkpointing with **eager full copies**.
//!
//! Flashback (§2.3) creates "lightweight 'shadow' processes that utilize
//! a copy-on-write mechanism" — in the kernel. The baseline we need for
//! experiment F2 is the *traditional* alternative the paper's §4.2
//! compares speculations against: checkpoints that copy the entire
//! process state each time. This module is that comparator; the COW
//! variant lives in `fixd-timemachine::page`.

use fixd_runtime::{Pid, ProcCheckpoint, VTime, World};

/// Eager full-copy checkpoint store for one world.
#[derive(Clone, Debug, Default)]
pub struct FlashbackCheckpointer {
    checkpoints: Vec<Vec<ProcCheckpoint>>,
    bytes_copied: u64,
}

impl FlashbackCheckpointer {
    /// A checkpointer for `n` processes.
    pub fn new(n: usize) -> Self {
        Self {
            checkpoints: vec![Vec::new(); n],
            bytes_copied: 0,
        }
    }

    /// Take an eager full checkpoint of `pid`. Returns its index.
    pub fn take(&mut self, world: &World, pid: Pid) -> u64 {
        let ck = world.checkpoint_process(pid);
        self.bytes_copied += ck.state.len() as u64;
        let v = &mut self.checkpoints[pid.idx()];
        v.push(ck);
        (v.len() - 1) as u64
    }

    /// Restore `pid` to checkpoint `index`, discarding later checkpoints.
    pub fn restore(&mut self, world: &mut World, pid: Pid, index: u64) -> bool {
        let v = &mut self.checkpoints[pid.idx()];
        let Some(ck) = v.get(index as usize) else {
            return false;
        };
        world.restore_checkpoint(ck);
        v.truncate(index as usize + 1);
        true
    }

    /// Latest checkpoint index of `pid`.
    pub fn latest_index(&self, pid: Pid) -> Option<u64> {
        let n = self.checkpoints[pid.idx()].len();
        n.checked_sub(1).map(|i| i as u64)
    }

    /// Total bytes copied across all takes (the eager cost metric F2
    /// compares against COW sharing).
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }

    /// Bytes currently held (every checkpoint stores a full copy).
    pub fn bytes_held(&self) -> usize {
        self.checkpoints
            .iter()
            .flat_map(|v| v.iter())
            .map(|c| c.state.len())
            .sum()
    }

    /// Number of checkpoints held for `pid`.
    pub fn count(&self, pid: Pid) -> usize {
        self.checkpoints[pid.idx()].len()
    }

    /// Virtual time of a checkpoint.
    pub fn taken_at(&self, pid: Pid, index: u64) -> Option<VTime> {
        self.checkpoints[pid.idx()]
            .get(index as usize)
            .map(|c| c.taken_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Context, Program, WorldConfig};

    #[derive(Clone)]
    struct Blob {
        data: Vec<u8>,
    }
    impl Program for Blob {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                for _ in 0..4 {
                    ctx.send(Pid(1), 1, vec![1]);
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Context, _msg: &fixd_runtime::Message) {
            self.data[0] = self.data[0].wrapping_add(1); // tiny mutation
        }
        fn snapshot(&self) -> Vec<u8> {
            self.data.clone()
        }
        fn restore(&mut self, b: &[u8]) {
            self.data = b.to_vec();
        }
    }

    fn world() -> World {
        let mut w = World::new(WorldConfig::seeded(2));
        w.add_process(Box::new(Blob {
            data: vec![0; 4096],
        }));
        w.add_process(Box::new(Blob {
            data: vec![0; 4096],
        }));
        w
    }

    #[test]
    fn eager_cost_is_full_size_every_time() {
        let mut w = world();
        let mut fb = FlashbackCheckpointer::new(2);
        for _ in 0..3 {
            fb.take(&w, Pid(1));
            w.run_steps(2);
        }
        assert_eq!(fb.bytes_copied(), 3 * 4096);
        assert_eq!(fb.bytes_held(), 3 * 4096);
        assert_eq!(fb.count(Pid(1)), 3);
    }

    #[test]
    fn restore_roundtrip() {
        let mut w = world();
        let mut fb = FlashbackCheckpointer::new(2);
        w.run_steps(3);
        let fp = w.checkpoint_process(Pid(1)).fingerprint();
        let idx = fb.take(&w, Pid(1));
        w.run_to_quiescence(1_000);
        assert!(fb.restore(&mut w, Pid(1), idx));
        assert_eq!(w.checkpoint_process(Pid(1)).fingerprint(), fp);
        assert!(!fb.restore(&mut w, Pid(1), 99), "unknown index refused");
    }

    #[test]
    fn eager_holds_more_than_cow_for_small_mutations() {
        // The F2 claim in miniature: same checkpoint schedule, tiny
        // mutations => COW holds ~1 copy + deltas, eager holds N copies.
        let mut w = world();
        let mut fb = FlashbackCheckpointer::new(2);
        let mut store = fixd_timemachine::CheckpointStore::new(Pid(1), 256);
        for _ in 0..5 {
            fb.take(&w, Pid(1));
            store.take(&w);
            w.run_steps(2);
        }
        let eager = fb.bytes_held();
        let cow = store.unique_bytes();
        assert!(
            cow < eager / 2,
            "COW ({cow} B) should be far below eager ({eager} B)"
        );
    }
}
