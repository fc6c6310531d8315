//! [`Payload`] — one shared, immutable message-payload buffer.
//!
//! The paper's supervised-execution loop observes every message several
//! times over: the network delivers it, the Scroll records it (§3.1), and
//! the Time Machine captures it again inside consistent checkpoints
//! (§3.2). With `Vec<u8>` payloads each of those observation points paid
//! for a full byte copy. `Payload` is a **view** (offset + length) into a
//! shared `Arc<[u8]>` buffer: the bytes are materialized **once**, at
//! send time, and every later observer — duplicate deliveries, scroll
//! entries, trace records, in-flight checkpoint captures — aliases the
//! same allocation. Since the allocation-free-step-loop refactor a view
//! may also cover a *sub-range* of a larger buffer: decoding a spilled
//! scroll segment produces one buffer for the whole segment and every
//! decoded message payload aliases its slice of it
//! ([`Payload::slice_of`]), instead of one fresh allocation per entry.
//! The only component allowed to materialize a *second* copy is the
//! corruption fault path, which flips a byte through the copy-on-write
//! [`Payload::to_mut`].
//!
//! The module keeps two **thread-local** counters so the win is a
//! measured number rather than a claim:
//!
//! * **copied** bytes — bytes physically written into a payload
//!   allocation (initial materialization and copy-on-write splits);
//! * **aliased** bytes — bytes a [`Payload::clone`] (or a zero-copy
//!   [`Payload::slice_of`]) *shared* instead of copying, i.e. exactly
//!   the bytes the pre-`Payload` code would have `memcpy`ed.
//!
//! Thread-locality is what makes the counters *attributable*: a
//! deterministic simulation runs one [`crate::World`] per thread at a
//! time, so a world can snapshot the counters at construction and report
//! exact per-world (and therefore per-campaign-cell) deltas — see
//! [`crate::World::payload_stats`]. Campaign cells report those
//! per-cell figures; `fixd-campaign`'s
//! `cells_report_exact_payload_accounting` holds their sum over the
//! standard matrix to a few copied bytes per delivered message.

use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static BYTES_COPIED: Cell<u64> = const { Cell::new(0) };
    static BYTES_ALIASED: Cell<u64> = const { Cell::new(0) };
}

fn add_copied(n: u64) {
    BYTES_COPIED.with(|c| c.set(c.get().wrapping_add(n)));
}

fn add_aliased(n: u64) {
    BYTES_ALIASED.with(|c| c.set(c.get().wrapping_add(n)));
}

/// Count payload bytes that were *shared* rather than copied by a
/// non-`Payload` handle (e.g. a [`crate::SharedMessage`] clone, which
/// aliases its message's payload without touching the `Payload` itself).
pub(crate) fn note_aliased(n: usize) {
    add_aliased(n as u64);
}

/// Snapshot of one thread's payload copy/alias counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PayloadStats {
    /// Bytes physically copied into payload allocations (materialization
    /// from `Vec<u8>`/`&[u8]` plus copy-on-write splits in [`Payload::to_mut`]).
    pub copied: u64,
    /// Bytes shared by `Payload::clone` instead of copied — the bytes a
    /// `Vec<u8>` payload representation would have duplicated.
    pub aliased: u64,
}

impl PayloadStats {
    /// Counter deltas since `earlier` (for scoped measurements).
    pub fn since(self, earlier: PayloadStats) -> PayloadStats {
        PayloadStats {
            copied: self.copied.wrapping_sub(earlier.copied),
            aliased: self.aliased.wrapping_sub(earlier.aliased),
        }
    }

    /// Component-wise sum — folds per-worker-thread deltas into one
    /// figure (a sharded world's handler work runs on scoped threads
    /// whose thread-local counters die with them).
    pub fn plus(self, other: PayloadStats) -> PayloadStats {
        PayloadStats {
            copied: self.copied.wrapping_add(other.copied),
            aliased: self.aliased.wrapping_add(other.aliased),
        }
    }
}

/// Current values of this thread's payload counters. Counters are
/// per-thread and monotone; diff two snapshots (see
/// [`PayloadStats::since`]) to measure a region of interest that runs on
/// one thread — which every deterministic world does.
pub fn stats() -> PayloadStats {
    PayloadStats {
        copied: BYTES_COPIED.with(Cell::get),
        aliased: BYTES_ALIASED.with(Cell::get),
    }
}

/// An immutable, cheaply clonable message payload: a `(offset, length)`
/// view into one shared allocation (`Arc<[u8]>`).
///
/// * Construction from owned or borrowed bytes copies once (counted).
/// * [`Clone`] is a reference-count bump — O(1), no bytes move.
/// * [`Payload::slice_of`] carves a sub-view out of an existing payload
///   without touching the bytes (the segment-decode fast path).
/// * Reading is transparent: `Payload` derefs to `[u8]`, so indexing,
///   slicing, iteration, and `&msg.payload` as a `&[u8]` argument all
///   work exactly as they did when the field was a `Vec<u8>`.
/// * The single sanctioned mutation point is [`Payload::to_mut`]
///   (copy-on-write), used by the fault-injection corruption path.
#[derive(Debug, Eq)]
pub struct Payload {
    buf: Arc<[u8]>,
    off: usize,
    len: usize,
}

// Hash over the byte contents — consistent with `PartialEq`, which is
// content equality (with a same-view fast path).
impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl Payload {
    /// The empty payload. All empties alias one process-wide zero-length
    /// buffer — `Arc<[u8]>` always heap-allocates its header, and the
    /// arena's recycle path empties every returning message, so a fresh
    /// `Arc::from(&[][..])` here would put an allocation back into the
    /// loop the arena exists to keep allocation-free.
    pub fn empty() -> Self {
        static EMPTY: std::sync::OnceLock<Arc<[u8]>> = std::sync::OnceLock::new();
        Payload {
            buf: EMPTY.get_or_init(|| Arc::from(&[][..])).clone(),
            off: 0,
            len: 0,
        }
    }

    fn whole(buf: Arc<[u8]>) -> Self {
        let len = buf.len();
        Payload { buf, off: 0, len }
    }

    /// Copy `bytes` into a fresh shared allocation (counted as copied).
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        add_copied(bytes.len() as u64);
        Payload::whole(Arc::from(bytes))
    }

    /// Wrap already-materialized bytes **without** bumping the copied
    /// counter. For byte strings that are *not* message payloads (e.g.
    /// program outputs joining the `Payload` representation): the
    /// counters specifically measure message-payload copy traffic, and
    /// that metric must not shift when other surfaces adopt the type.
    /// A borrowed `&[u8]` is copied once into the shared allocation; a
    /// `Vec<u8>` is copied too (`Arc<[u8]>` keeps its counts in front
    /// of the bytes), so hand over a slice rather than a fresh `Vec`.
    pub fn untracked(bytes: impl Into<Arc<[u8]>>) -> Self {
        Payload::whole(bytes.into())
    }

    /// A zero-copy sub-view of `base`: the returned payload aliases
    /// `base`'s backing buffer (counted as aliased — these are bytes a
    /// copying decoder would have materialized afresh).
    ///
    /// Panics if `range` is out of bounds of `base`.
    pub fn slice_of(base: &Payload, range: std::ops::Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= base.len);
        add_aliased((range.end - range.start) as u64);
        Payload {
            buf: Arc::clone(&base.buf),
            off: base.off + range.start,
            len: range.end - range.start,
        }
    }

    /// The payload bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }

    /// Do `self` and `other` denote the same view of one allocation?
    /// (True aliasing — the zero-copy property tests assert with this.)
    pub fn ptr_eq(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf) && self.off == other.off && self.len == other.len
    }

    /// Do `self` and `other` share one backing allocation (possibly as
    /// different sub-views)? Segment-decode aliasing tests assert with
    /// this: every decoded payload shares the segment's buffer.
    pub fn shares_buffer(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// How many `Payload` handles currently share this allocation.
    pub fn strong_count(&self) -> usize {
        Arc::strong_count(&self.buf)
    }

    /// Copy-on-write mutable access: if this handle is the unique owner
    /// of its whole buffer the bytes are mutated in place (zero copies);
    /// otherwise the view is split into a private copy first (counted as
    /// copied).
    ///
    /// Only the corruption fault path should need this — everything else
    /// in the runtime treats payloads as immutable.
    pub fn to_mut(&mut self) -> &mut [u8] {
        let covers_whole = self.off == 0 && self.len == self.buf.len();
        if !covers_whole || Arc::get_mut(&mut self.buf).is_none() {
            add_copied(self.len as u64);
            let private: Arc<[u8]> = Arc::from(self.as_slice());
            *self = Payload::whole(private);
        }
        Arc::get_mut(&mut self.buf).expect("payload unique after copy-on-write split")
    }

    /// Clone the view (internal helper so `Clone` can count).
    fn share(&self) -> Payload {
        add_aliased(self.len as u64);
        Payload {
            buf: Arc::clone(&self.buf),
            off: self.off,
            len: self.len,
        }
    }
}

#[allow(clippy::non_canonical_clone_impl)] // counts aliased bytes
impl Clone for Payload {
    fn clone(&self) -> Self {
        self.share()
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        add_copied(v.len() as u64);
        Payload::whole(Arc::from(v))
    }
}

impl From<&[u8]> for Payload {
    fn from(b: &[u8]) -> Self {
        Payload::copy_from_slice(b)
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(b: &[u8; N]) -> Self {
        Payload::copy_from_slice(b)
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(b: [u8; N]) -> Self {
        Payload::copy_from_slice(&b)
    }
}

impl From<&Payload> for Payload {
    fn from(p: &Payload) -> Self {
        p.clone()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_reads() {
        let p = Payload::from(vec![1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert_eq!(p[1], 2);
        assert_eq!(p.as_slice(), &[1, 2, 3]);
        assert_eq!(p, [1u8, 2, 3]);
        assert_eq!(p, vec![1u8, 2, 3]);
        assert_eq!(Payload::from(b"abc"), b"abc");
        assert!(Payload::empty().is_empty());
        assert!(Payload::default().is_empty());
    }

    #[test]
    fn clone_aliases_one_allocation() {
        let p = Payload::from(vec![9; 1024]);
        let q = p.clone();
        assert!(p.ptr_eq(&q));
        assert_eq!(p.strong_count(), 2);
        assert_eq!(p, q);
        // Equal content in a different allocation is == but not aliased.
        let r = Payload::from(vec![9; 1024]);
        assert_eq!(p, r);
        assert!(!p.ptr_eq(&r));
    }

    #[test]
    fn slice_of_shares_the_buffer() {
        let base = Payload::from((0u8..200).collect::<Vec<u8>>());
        let view = Payload::slice_of(&base, 10..20);
        assert_eq!(view.len(), 10);
        assert_eq!(view.as_slice(), &base.as_slice()[10..20]);
        assert!(view.shares_buffer(&base), "no new allocation");
        assert!(!view.ptr_eq(&base), "different view of the same buffer");
        assert_eq!(base.strong_count(), 2);
        // A sub-view of a sub-view still aliases the original buffer.
        let inner = Payload::slice_of(&view, 2..5);
        assert!(inner.shares_buffer(&base));
        assert_eq!(inner.as_slice(), &base.as_slice()[12..15]);
        // Content equality against an equal standalone payload holds.
        assert_eq!(inner, Payload::from(&base.as_slice()[12..15]));
    }

    #[test]
    fn slice_counts_aliased_not_copied() {
        let base = Payload::from(vec![5; 64]);
        let before = stats();
        let _v = Payload::slice_of(&base, 8..40);
        let delta = stats().since(before);
        assert_eq!(delta.copied, 0, "slicing must not copy");
        assert_eq!(delta.aliased, 32);
    }

    #[test]
    fn to_mut_in_place_when_unique() {
        // Pointer identity proves zero copies (counters are process-wide
        // and other test threads may bump them concurrently).
        let mut p = Payload::from(vec![1, 2, 3]);
        let addr = p.as_slice().as_ptr();
        p.to_mut()[0] ^= 0xFF;
        assert_eq!(
            p.as_slice().as_ptr(),
            addr,
            "unique owner mutates in place — no copy"
        );
        assert_eq!(p[0], 0xFE);
    }

    #[test]
    fn to_mut_copies_once_when_shared() {
        let mut p = Payload::from(vec![7; 100]);
        let q = p.clone();
        p.to_mut()[0] = 0;
        assert!(!p.ptr_eq(&q), "p split away from q");
        assert_eq!(q[0], 7, "the other owner is untouched");
        assert_eq!(p[0], 0);
        // The split made p unique again: further mutation is in-place.
        let addr = p.as_slice().as_ptr();
        p.to_mut()[1] = 1;
        assert_eq!(p.as_slice().as_ptr(), addr);
    }

    #[test]
    fn to_mut_on_a_view_splits_only_the_view() {
        let base = Payload::from((0u8..100).collect::<Vec<u8>>());
        let mut view = Payload::slice_of(&base, 50..60);
        view.to_mut()[0] = 0xAA;
        assert!(!view.shares_buffer(&base), "view split to a private copy");
        assert_eq!(view.len(), 10);
        assert_eq!(view[0], 0xAA);
        assert_eq!(base[50], 50, "the shared buffer is untouched");
        assert_eq!(&view[1..], &base.as_slice()[51..60]);
    }

    #[test]
    fn counters_track_copies_and_aliases() {
        let before = stats();
        let p = Payload::from(vec![0; 50]);
        let _q = p.clone();
        let _r = p.clone();
        let delta = stats().since(before);
        assert!(delta.copied >= 50);
        assert!(delta.aliased >= 100, "two clones alias 50 bytes each");
    }

    #[test]
    fn untracked_construction_leaves_counters_alone() {
        let before = stats();
        let p = Payload::untracked(vec![3; 4096]);
        let delta = stats().since(before);
        assert_eq!(delta.copied, 0, "outputs must not skew the payload metric");
        assert_eq!(p.len(), 4096);
    }

    #[test]
    fn hash_matches_content_equality() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |p: &Payload| {
            let mut s = DefaultHasher::new();
            p.hash(&mut s);
            s.finish()
        };
        let a = Payload::from(vec![1, 2]);
        let b = Payload::from(vec![1, 2]);
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
        // A view and a standalone payload with equal bytes hash alike.
        let base = Payload::from(vec![9, 1, 2, 9]);
        let v = Payload::slice_of(&base, 1..3);
        assert_eq!(v, a);
        assert_eq!(h(&v), h(&a));
    }
}
