//! Scroll statistics — the measurements behind experiment **F1**
//! (Scroll overhead and log size).

use fixd_runtime::Pid;

use crate::entry::EntryKind;
use crate::storage::ScrollStore;

/// Aggregate statistics over a scroll store.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrollStats {
    pub total_entries: usize,
    pub starts: usize,
    pub deliveries: usize,
    pub timer_fires: usize,
    pub crashes: usize,
    pub restarts: usize,
    pub dropped_mail: usize,
    /// Total random draws recorded.
    pub random_draws: usize,
    /// Total sends performed by recorded handlers (not entries themselves
    /// — evidence for the "only nondeterministic actions" claim: sends are
    /// deterministic consequences and need no entry).
    pub handler_sends: u64,
    /// Encoded size of the whole store, bytes.
    pub encoded_bytes: usize,
    /// Per-process entry counts.
    pub per_process: Vec<usize>,
}

impl ScrollStats {
    /// Compute statistics for `store`.
    pub fn compute(store: &ScrollStore) -> Self {
        let mut s = ScrollStats {
            per_process: vec![0; store.width()],
            ..Default::default()
        };
        for i in 0..store.width() {
            let pid = Pid(i as u32);
            for e in store.scroll(pid).iter() {
                s.total_entries += 1;
                s.per_process[i] += 1;
                s.random_draws += e.randoms.len();
                s.handler_sends += e.sends;
                match &e.kind {
                    EntryKind::Start => s.starts += 1,
                    EntryKind::Deliver { .. } => s.deliveries += 1,
                    EntryKind::TimerFire { .. } => s.timer_fires += 1,
                    EntryKind::Crash => s.crashes += 1,
                    EntryKind::Restart => s.restarts += 1,
                    EntryKind::DroppedMail { .. } => s.dropped_mail += 1,
                }
            }
        }
        s.encoded_bytes = store.encoded_size();
        s
    }

    /// Mean encoded bytes per entry (0 if empty).
    pub fn bytes_per_entry(&self) -> f64 {
        if self.total_entries == 0 {
            0.0
        } else {
            self.encoded_bytes as f64 / self.total_entries as f64
        }
    }

    /// One-line summary for experiment output.
    pub fn summary(&self) -> String {
        format!(
            "entries={} (deliver={} timer={} start={} crash={}) draws={} bytes={} ({:.1} B/entry)",
            self.total_entries,
            self.deliveries,
            self.timer_fires,
            self.starts,
            self.crashes,
            self.random_draws,
            self.encoded_bytes,
            self.bytes_per_entry()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::ScrollEntry;
    use fixd_runtime::TimerId;

    fn push(store: &mut ScrollStore, pid: u32, seq: u64, kind: EntryKind, randoms: Vec<u64>) {
        store.append(ScrollEntry {
            pid: Pid(pid),
            local_seq: seq,
            at: 0,
            kind,
            randoms: randoms.into(),
            effects_fp: 0,
            sends: 2,
        });
    }

    #[test]
    fn counts_by_kind() {
        let mut store = ScrollStore::new(2);
        push(&mut store, 0, 0, EntryKind::Start, vec![]);
        push(
            &mut store,
            0,
            1,
            EntryKind::TimerFire { timer: TimerId(1) },
            vec![1, 2],
        );
        push(&mut store, 1, 0, EntryKind::Start, vec![]);
        push(&mut store, 1, 1, EntryKind::Crash, vec![]);
        let s = ScrollStats::compute(&store);
        assert_eq!(s.total_entries, 4);
        assert_eq!(s.starts, 2);
        assert_eq!(s.timer_fires, 1);
        assert_eq!(s.crashes, 1);
        assert_eq!(s.random_draws, 2);
        assert_eq!(s.handler_sends, 8);
        assert_eq!(s.per_process, vec![2, 2]);
        assert!(s.encoded_bytes > 0);
        assert!(s.bytes_per_entry() > 0.0);
    }

    #[test]
    fn empty_store_stats() {
        let s = ScrollStats::compute(&ScrollStore::new(3));
        assert_eq!(s.total_entries, 0);
        assert_eq!(s.bytes_per_entry(), 0.0);
        assert!(s.summary().contains("entries=0"));
    }
}
