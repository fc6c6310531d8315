//! A model of durable storage with crash semantics.
//!
//! Paper §4.5 (future work): *"it would be useful to have models of
//! various components such as network communication or disk access"*.
//! This is the disk-access model: a key-value store with a volatile
//! write buffer and an explicit `sync` barrier, shared between a process
//! and its environment via [`SharedDisk`]. Crash semantics follow real
//! disks: **unsynced writes are lost**, synced data survives the process
//! (it is environment state, not process state — a restarted or replaced
//! program sees the same durable contents).
//!
//! Programs hold a [`SharedDisk`] handle (cheap to clone); the handle
//! survives [`crate::World::replace_program`] when the replacement
//! factory captures it, which is exactly how crash-recovery applications
//! (write-ahead logs) are modeled — see the `wal_counter` example app.
//!
//! Note on determinism: disk operations are deterministic functions of
//! their inputs, so they need no Scroll entries; only the *crash timing*
//! (which decides what was synced) is nondeterministic, and crashes are
//! already first-class events. Programs explored by the Investigator
//! should not share one disk across branches — give each branch its own
//! handle (the model checker's `clone_program` shares handles, so
//! disk-backed programs are for runtime/recovery scenarios, not for
//! state-space exploration; assert with [`SharedDisk::handle_count`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

/// Operation counters for cost accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    pub writes: u64,
    pub reads: u64,
    pub syncs: u64,
    /// Unsynced writes discarded by crashes.
    pub writes_lost: u64,
}

#[derive(Debug, Default)]
struct DiskInner {
    /// Durable contents (survives crashes).
    durable: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Volatile write buffer (lost on crash).
    buffer: BTreeMap<Vec<u8>, Option<Vec<u8>>>, // None = pending delete
    stats: DiskStats,
}

/// A shared handle to one simulated disk.
#[derive(Clone, Debug, Default)]
pub struct SharedDisk {
    inner: Arc<Mutex<DiskInner>>,
}

impl SharedDisk {
    /// An empty disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer a write. Not durable until [`SharedDisk::sync`].
    pub fn write(&self, key: &[u8], value: &[u8]) {
        let mut d = self.inner.lock();
        d.stats.writes += 1;
        d.buffer.insert(key.to_vec(), Some(value.to_vec()));
    }

    /// Buffer a delete. Not durable until [`SharedDisk::sync`].
    pub fn delete(&self, key: &[u8]) {
        let mut d = self.inner.lock();
        d.stats.writes += 1;
        d.buffer.insert(key.to_vec(), None);
    }

    /// Read through the buffer (read-your-writes semantics).
    pub fn read(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.read_with(key, |v| v.map(<[u8]>::to_vec))
    }

    /// [`SharedDisk::read`] without the copy: `f` sees the stored value
    /// in place, under the disk's lock (so `f` must not touch this disk).
    /// Counts as one read.
    pub fn read_with<R>(&self, key: &[u8], f: impl FnOnce(Option<&[u8]>) -> R) -> R {
        let mut d = self.inner.lock();
        d.stats.reads += 1;
        let value = match d.buffer.get(key) {
            Some(v) => v.as_deref(),
            None => d.durable.get(key).map(Vec::as_slice),
        };
        f(value)
    }

    /// Flush the write buffer to durable storage (the `fsync` barrier).
    pub fn sync(&self) {
        let mut d = self.inner.lock();
        d.stats.syncs += 1;
        // The buffered keys and values move into the durable map: a
        // sync copies nothing.
        for (k, v) in std::mem::take(&mut d.buffer) {
            match v {
                Some(v) => {
                    d.durable.insert(k, v);
                }
                None => {
                    d.durable.remove(&k);
                }
            }
        }
    }

    /// Crash the disk's owner: every unsynced write is lost. Durable
    /// contents are untouched. Call when the owning process crashes.
    pub fn crash(&self) {
        let mut d = self.inner.lock();
        let lost = d.buffer.len() as u64;
        d.stats.writes_lost += lost;
        d.buffer.clear();
    }

    /// Durable contents only (what a restarted process recovers).
    pub fn durable_snapshot(&self) -> BTreeMap<Vec<u8>, Vec<u8>> {
        self.inner.lock().durable.clone()
    }

    /// Number of unsynced (at-risk) writes.
    pub fn dirty_count(&self) -> usize {
        self.inner.lock().buffer.len()
    }

    /// Operation counters.
    pub fn stats(&self) -> DiskStats {
        self.inner.lock().stats
    }

    /// How many handles alias this disk (Investigator-safety check: a
    /// program explored by the model checker must not share its disk
    /// across branches).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Do the two handles alias one disk?
    pub fn same_disk(&self, other: &SharedDisk) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Deterministic fingerprint of the durable contents.
    pub fn durable_fingerprint(&self) -> u64 {
        let d = self.inner.lock();
        let mut h = 0xD15Cu64;
        for (k, v) in &d.durable {
            h = crate::wire::fnv_mix(h, crate::wire::fnv1a(k));
            h = crate::wire::fnv_mix(h, crate::wire::fnv1a(v));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_writes_before_sync() {
        let d = SharedDisk::new();
        d.write(b"k", b"v1");
        assert_eq!(d.read(b"k"), Some(b"v1".to_vec()));
        assert_eq!(d.dirty_count(), 1);
        assert!(d.durable_snapshot().is_empty(), "not durable yet");
    }

    #[test]
    fn sync_makes_writes_durable() {
        let d = SharedDisk::new();
        d.write(b"k", b"v1");
        d.sync();
        assert_eq!(d.dirty_count(), 0);
        assert_eq!(d.durable_snapshot().get(&b"k"[..]), Some(&b"v1".to_vec()));
        // A later crash loses nothing.
        d.crash();
        assert_eq!(d.read(b"k"), Some(b"v1".to_vec()));
        assert_eq!(d.stats().writes_lost, 0);
    }

    #[test]
    fn crash_loses_unsynced_writes_only() {
        let d = SharedDisk::new();
        d.write(b"a", b"1");
        d.sync();
        d.write(b"b", b"2"); // unsynced
        d.write(b"a", b"9"); // unsynced overwrite
        d.crash();
        assert_eq!(
            d.read(b"a"),
            Some(b"1".to_vec()),
            "old durable value survives"
        );
        assert_eq!(d.read(b"b"), None);
        assert_eq!(d.stats().writes_lost, 2);
    }

    #[test]
    fn delete_semantics_through_sync_and_crash() {
        let d = SharedDisk::new();
        d.write(b"k", b"v");
        d.sync();
        d.delete(b"k");
        assert_eq!(d.read(b"k"), None, "buffered delete visible");
        d.crash();
        assert_eq!(d.read(b"k"), Some(b"v".to_vec()), "unsynced delete undone");
        d.delete(b"k");
        d.sync();
        assert_eq!(d.read(b"k"), None);
        assert!(d.durable_snapshot().is_empty());
    }

    /// One buffer holding a write, a delete and overwrites of the same
    /// keys: the last buffered operation per key wins, the buffer ends
    /// empty, and every operation is counted once.
    #[test]
    fn sync_applies_the_last_buffered_operation_per_key() {
        let d = SharedDisk::new();
        d.write(b"gone", b"old");
        d.write(b"kept", b"old");
        d.sync();
        d.write(b"k", b"v1");
        d.delete(b"k");
        d.write(b"k", b"v2"); // write, delete, overwrite: v2 lands
        d.write(b"gone", b"new");
        d.delete(b"gone"); // overwrite then delete: removed
        d.delete(b"never-written");
        assert_eq!(d.dirty_count(), 3, "one buffered slot per key");
        d.sync();
        let want: BTreeMap<Vec<u8>, Vec<u8>> = [
            (b"k".to_vec(), b"v2".to_vec()),
            (b"kept".to_vec(), b"old".to_vec()),
        ]
        .into();
        assert_eq!(d.durable_snapshot(), want);
        assert_eq!(d.dirty_count(), 0);
        assert_eq!(
            d.stats(),
            DiskStats {
                writes: 8,
                reads: 0,
                syncs: 2,
                writes_lost: 0
            }
        );
        // An empty buffer syncs to the same contents.
        d.sync();
        assert_eq!(d.durable_snapshot(), want);
    }

    #[test]
    fn crash_between_write_and_sync_loses_the_write() {
        let d = SharedDisk::new();
        d.write(b"k", b"v");
        d.crash();
        d.sync();
        assert!(d.durable_snapshot().is_empty(), "nothing left to flush");
        assert_eq!(d.read(b"k"), None);
        assert_eq!(d.stats().writes_lost, 1);
    }

    #[test]
    fn handles_alias_one_disk() {
        let d = SharedDisk::new();
        let d2 = d.clone();
        d.write(b"k", b"v");
        d.sync();
        assert_eq!(d2.read(b"k"), Some(b"v".to_vec()));
        assert_eq!(d.handle_count(), 2);
        assert!(d.same_disk(&d2));
        assert!(
            !d.same_disk(&SharedDisk::new()),
            "equal contents, other disk"
        );
    }

    /// The borrowing read sees what `read` returns — buffered writes and
    /// deletes included — and counts the same.
    #[test]
    fn read_with_borrows_what_read_returns() {
        let d = SharedDisk::new();
        d.write(b"a", b"durable");
        d.write(b"gone", b"x");
        d.sync();
        d.write(b"b", b"buffered");
        d.delete(b"gone");
        for key in [&b"a"[..], b"b", b"gone", b"never"] {
            assert_eq!(d.read_with(key, |v| v.map(<[u8]>::to_vec)), d.read(key));
        }
        assert_eq!(d.stats().reads, 8);
    }

    #[test]
    fn fingerprint_tracks_durable_only() {
        let d = SharedDisk::new();
        let empty = d.durable_fingerprint();
        d.write(b"k", b"v");
        assert_eq!(d.durable_fingerprint(), empty, "buffered write invisible");
        d.sync();
        assert_ne!(d.durable_fingerprint(), empty);
    }
}
