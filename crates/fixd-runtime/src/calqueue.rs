//! Calendar event queue: the hot-path replacement for the
//! `BinaryHeap<QueuedEvent>` that scheduled every world event through
//! O(log n) sift operations.
//!
//! Virtual time in a FixD world advances in small increments (network
//! latencies and timer delays are a handful of ticks), so pending events
//! cluster in a narrow moving band of timestamps. A calendar queue
//! exploits that: a ring of [`SPAN`] single-tick buckets covers the band
//! `[base, base + SPAN)`; an insert indexes its bucket directly and a pop
//! reads the cursor bucket — O(1) amortized either way, independent of
//! how many events are pending. Events beyond the band land in an
//! **overflow** min-heap and migrate into the ring as the cursor
//! approaches them; events before `base` (never produced by the runtime,
//! whose inserts are monotone, but accepted for totality) land in a
//! **past** min-heap that drains first.
//!
//! Pop order is exactly the binary heap's: ascending `(at, key)`. Within
//! one bucket (one tick) entries almost always arrive in ascending key
//! order — scheduling sequence numbers are minted monotonically — so a
//! bucket is an append-only `Vec` with a cursor; the rare out-of-order
//! arrival flips a `sorted` flag and the active tail is sorted lazily on
//! the next pop. Equivalence with the heap is pinned by a property test
//! below and by the golden-determinism fingerprints at shards 1/2/4/8.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::VTime;

/// Width of the bucket ring, in virtual-time ticks. Covers typical
/// latency/timer bands with slack; anything further out overflows (and
/// costs heap ops only until the cursor catches up).
const SPAN: usize = 128;

/// An entry schedulable by the calendar: a timestamp plus a secondary
/// key that breaks ties at equal `at` (the serial world's scheduling
/// seq; a shard's [`SeqKey`](crate::shard) mint).
pub(crate) trait CalEntry {
    type Key: Ord + Copy;
    fn cal_at(&self) -> VTime;
    fn cal_key(&self) -> Self::Key;
}

/// Min-heap adapter: `BinaryHeap` is a max-heap, so invert `(at, key)`.
#[derive(Clone)]
struct Rev<E>(E);

impl<E: CalEntry> PartialEq for Rev<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.cal_at() == other.0.cal_at() && self.0.cal_key() == other.0.cal_key()
    }
}
impl<E: CalEntry> Eq for Rev<E> {}
impl<E: CalEntry> PartialOrd for Rev<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E: CalEntry> Ord for Rev<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.cal_at(), other.0.cal_key()).cmp(&(self.0.cal_at(), self.0.cal_key()))
    }
}

/// One tick's entries, kept in **descending** key order once prepared so
/// a pop is a `Vec::pop` — a move, never a clone (cloning here would
/// bump the zero-copy alias counters the payload gates watch). Pushes
/// append; the lazy descending sort runs when the cursor reaches the
/// bucket (pdqsort recognizes the common ascending-mint arrival order in
/// O(n)). Exhausted buckets keep their capacity, so a steady-state
/// push/pop cycle performs no allocation.
#[derive(Clone)]
struct Bucket<E> {
    items: Vec<E>,
    /// `items` is in descending key order, ready to pop from the end.
    desc: bool,
}

impl<E: CalEntry> Bucket<E> {
    const fn new() -> Self {
        Self {
            items: Vec::new(),
            desc: true,
        }
    }

    #[inline]
    fn push(&mut self, e: E) {
        if self.desc && self.items.last().is_some_and(|l| l.cal_key() < e.cal_key()) {
            self.desc = false;
        }
        self.items.push(e);
    }

    /// Put the bucket in pop-ready (descending-key) order. Entries of
    /// one bucket share `at`, so key order alone is total order.
    #[inline]
    fn prepare(&mut self) {
        if !self.desc {
            self.items
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.cal_key()));
            self.desc = true;
        }
    }

    fn pop(&mut self) -> Option<E> {
        debug_assert!(self.desc);
        self.items.pop()
    }
}

/// The calendar queue. See module docs for the structure; the public
/// surface mirrors what [`crate::World`] and the shards need: `push`,
/// `pop`, `peek`, `min_at`, `iter`, `drain_all`, and [`CalQueue::absorb`]
/// — the batch-insertion helper of `apply_effects`.
pub(crate) struct CalQueue<E: CalEntry> {
    buckets: Vec<Bucket<E>>,
    /// Index of the bucket covering tick `base`.
    cursor: usize,
    /// Virtual time covered by `buckets[cursor]`.
    base: VTime,
    /// Entries currently in the ring.
    ring_len: usize,
    overflow: BinaryHeap<Rev<E>>,
    past: BinaryHeap<Rev<E>>,
    len: usize,
    stats: CalQueueStats,
}

/// Lifetime tier-placement counters for one calendar queue: where each
/// `push` landed. The ring is the O(1) tier; a high ring share is what
/// justifies the calendar layout over a binary heap, so the step bench
/// reports it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalQueueStats {
    /// Pushes that landed in a near-future ring bucket (O(1)).
    pub ring_pushes: u64,
    /// Pushes beyond the ring's span (heap tier; migrated ringward as
    /// the cursor advances).
    pub overflow_pushes: u64,
    /// Pushes behind the cursor (heap tier; rollback re-injection).
    pub past_pushes: u64,
}

impl<E: CalEntry + Clone> Clone for CalQueue<E> {
    fn clone(&self) -> Self {
        Self {
            buckets: self.buckets.clone(),
            cursor: self.cursor,
            base: self.base,
            ring_len: self.ring_len,
            overflow: self.overflow.clone(),
            past: self.past.clone(),
            len: self.len,
            stats: self.stats,
        }
    }
}

impl<E: CalEntry + Clone> CalQueue<E> {
    pub(crate) fn new() -> Self {
        Self {
            buckets: (0..SPAN).map(|_| Bucket::new()).collect(),
            cursor: 0,
            base: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            past: BinaryHeap::new(),
            len: 0,
            stats: CalQueueStats::default(),
        }
    }

    /// Lifetime tier-placement counters (not part of observable
    /// simulation state — they describe queue mechanics, not events).
    pub(crate) fn stats(&self) -> CalQueueStats {
        self.stats
    }

    pub(crate) fn push(&mut self, e: E) {
        let at = e.cal_at();
        if self.len == 0 {
            // Empty queue: re-anchor so the entry lands in the cursor
            // bucket (every bucket is clear when the queue is empty).
            self.base = at;
        }
        self.len += 1;
        if at < self.base {
            self.stats.past_pushes += 1;
            self.past.push(Rev(e));
            return;
        }
        let d = at - self.base;
        if d < SPAN as u64 {
            let idx = (self.cursor + d as usize) % SPAN;
            self.buckets[idx].push(e);
            self.ring_len += 1;
            self.stats.ring_pushes += 1;
        } else {
            self.stats.overflow_pushes += 1;
            self.overflow.push(Rev(e));
        }
    }

    /// Drain `batch` into the queue in one call (the batched-insertion
    /// surface of `World::apply_effects`; the batch vector keeps its
    /// capacity for reuse).
    pub(crate) fn absorb(&mut self, batch: &mut Vec<E>) {
        for e in batch.drain(..) {
            self.push(e);
        }
    }

    /// Advance the cursor to the globally minimal pending tick and make
    /// its bucket pop-ready. A no-op when the ring and the overflow heap
    /// are both empty.
    fn normalize(&mut self) {
        if self.ring_len == 0 {
            // Ring exhausted: jump the calendar to the overflow minimum.
            let Some(head) = self.overflow.peek() else {
                return;
            };
            self.base = head.0.cal_at();
        } else {
            while self.buckets[self.cursor].items.is_empty() {
                self.cursor = (self.cursor + 1) % SPAN;
                self.base += 1;
            }
        }
        // Migrate overflow entries the band now covers. Doing this on
        // every normalize keeps the invariant that the ring holds *all*
        // entries with `at < base + SPAN` — a same-tick entry must never
        // hide in the overflow behind a bucketed one with a larger key.
        while let Some(head) = self.overflow.peek_mut() {
            let at = head.0.cal_at();
            if at - self.base >= SPAN as u64 {
                break;
            }
            let idx = (self.cursor + (at - self.base) as usize) % SPAN;
            self.buckets[idx].push(PeekMut::pop(head).0);
            self.ring_len += 1;
        }
        self.buckets[self.cursor].prepare();
    }

    /// Remove and return the entry with the smallest `(at, key)`.
    pub(crate) fn pop(&mut self) -> Option<E> {
        if self.len == 0 {
            return None;
        }
        // Past entries are strictly before `base`, hence before every
        // ring/overflow entry; among themselves the heap orders them.
        let e = match self.past.pop() {
            Some(Rev(e)) => e,
            None => {
                self.normalize();
                let e = self.buckets[self.cursor].pop()?;
                self.ring_len -= 1;
                e
            }
        };
        self.len -= 1;
        Some(e)
    }

    /// [`CalQueue::pop`], if the entry it would return is due before
    /// `end`.
    pub(crate) fn pop_before(&mut self, end: VTime) -> Option<E> {
        if self.peek()?.cal_at() >= end {
            return None;
        }
        self.pop()
    }

    /// The entry the next `pop` returns, without removing it. `&mut`
    /// because it advances the cursor and applies the lazy bucket sort.
    pub(crate) fn peek(&mut self) -> Option<&E> {
        if self.len == 0 {
            return None;
        }
        if !self.past.is_empty() {
            return self.past.peek().map(|p| &p.0);
        }
        self.normalize();
        self.buckets[self.cursor].items.last()
    }

    /// Smallest pending `at` without normalizing (so `&self`): the
    /// window-scheduling probe (the shards' `min_pending`).
    /// O(SPAN) bucket scan — off the per-event path.
    pub(crate) fn min_at(&self) -> Option<VTime> {
        if self.len == 0 {
            return None;
        }
        let mut t: Option<VTime> = self.past.peek().map(|p| p.0.cal_at());
        if t.is_none() && self.ring_len > 0 {
            for i in 0..SPAN {
                if !self.buckets[(self.cursor + i) % SPAN].items.is_empty() {
                    t = Some(self.base + i as u64);
                    break;
                }
            }
        }
        match (t, self.overflow.peek().map(|p| p.0.cal_at())) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Every pending entry, in arbitrary order (checkpoint surfaces sort
    /// the result themselves).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &E> {
        self.buckets
            .iter()
            .flat_map(|b| b.items.iter())
            .chain(self.overflow.iter().map(|r| &r.0))
            .chain(self.past.iter().map(|r| &r.0))
    }

    /// Take every pending entry out (arbitrary order) and reset the
    /// calendar to empty — the drain/rebuild surface `purge_events`
    /// uses. Bucket capacities are kept.
    pub(crate) fn drain_all(&mut self) -> Vec<E> {
        let mut out = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            out.append(&mut b.items);
            b.desc = true;
        }
        out.extend(std::mem::take(&mut self.overflow).into_iter().map(|r| r.0));
        out.extend(std::mem::take(&mut self.past).into_iter().map(|r| r.0));
        self.ring_len = 0;
        self.len = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Minimal entry: timestamp + minted sequence number, the shape both
    /// `QueuedEvent` and `ShardEvent` reduce to for ordering purposes.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct E {
        at: VTime,
        seq: u64,
    }

    impl CalEntry for E {
        type Key = u64;
        fn cal_at(&self) -> VTime {
            self.at
        }
        fn cal_key(&self) -> u64 {
            self.seq
        }
    }

    // Model heap ordering: invert (at, seq) so BinaryHeap pops minimum —
    // exactly the `QueuedEvent` Ord the calendar queue replaced.
    impl PartialOrd for E {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for E {
        fn cmp(&self, other: &Self) -> Ordering {
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    #[test]
    fn pops_in_at_seq_order_across_tiers() {
        // Entries land in the past heap (after the cursor advances), the
        // ring, and the overflow tier; pops must interleave them all in
        // (at, seq) order.
        let mut q = CalQueue::new();
        q.push(E { at: 50, seq: 0 });
        assert_eq!(q.pop(), Some(E { at: 50, seq: 0 })); // base anchored at 50
        q.push(E { at: 60, seq: 2 });
        q.push(E { at: 10, seq: 1 }); // before base: past tier
        q.push(E { at: 10_000, seq: 3 }); // far future: overflow tier
        q.push(E { at: 60, seq: 4 }); // same tick as seq 2
        assert_eq!(q.pop(), Some(E { at: 10, seq: 1 }));
        assert_eq!(q.pop(), Some(E { at: 60, seq: 2 }));
        assert_eq!(q.pop(), Some(E { at: 60, seq: 4 }));
        assert_eq!(q.pop(), Some(E { at: 10_000, seq: 3 }));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_tick_overflow_merges_before_larger_keys() {
        // A far-future entry (overflow) and a later-minted entry at the
        // same tick (bucketed after re-anchor) must pop in seq order:
        // the overflow migration on normalize is what guarantees it.
        let mut q = CalQueue::new();
        q.push(E { at: 0, seq: 0 });
        q.push(E { at: 5_000, seq: 1 }); // overflow
        assert_eq!(q.pop(), Some(E { at: 0, seq: 0 }));
        q.push(E { at: 5_000, seq: 2 }); // ring? no — still overflow until re-anchor
        assert_eq!(q.pop(), Some(E { at: 5_000, seq: 1 }));
        assert_eq!(q.pop(), Some(E { at: 5_000, seq: 2 }));
    }

    #[test]
    fn vtime_max_entries_are_reachable() {
        // Timer deadlines saturate at VTime::MAX; the band arithmetic
        // must not lose them to an unreachable overflow tier.
        let mut q = CalQueue::new();
        q.push(E {
            at: VTime::MAX,
            seq: 1,
        });
        q.push(E { at: 0, seq: 0 });
        assert_eq!(q.pop(), Some(E { at: 0, seq: 0 }));
        assert_eq!(
            q.pop(),
            Some(E {
                at: VTime::MAX,
                seq: 1,
            })
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clone_preserves_pending_order() {
        let mut q = CalQueue::new();
        for (i, at) in [3u64, 1, 200, 1, 7].into_iter().enumerate() {
            q.push(E { at, seq: i as u64 });
        }
        let mut c = q.clone();
        let mut a = Vec::new();
        let mut b = Vec::new();
        while let Some(e) = q.pop() {
            a.push(e);
        }
        while let Some(e) = c.pop() {
            b.push(e);
        }
        assert_eq!(a, b);
    }

    /// One step of a random schedule: pushes mint seq from a counter and
    /// draw `at` as an offset from the last popped time (mostly small —
    /// the runtime's monotone near-future pattern — with occasional far
    /// jumps into the overflow tier), interleaved with pops.
    #[derive(Clone, Debug)]
    enum Op {
        Push(u64),
        Pop,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            prop_oneof![
                (0u64..16).prop_map(Op::Push),
                (0u64..16).prop_map(Op::Push),
                (100u64..2_000).prop_map(Op::Push),
                Just(Op::Pop),
                Just(Op::Pop),
            ],
            0..400,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The calendar queue is observationally identical to the
        /// `BinaryHeap` it replaced: over arbitrary interleavings of
        /// monotone-ish pushes and pops, every pop returns the same
        /// `(at, seq)` entry.
        #[test]
        fn pop_order_matches_binary_heap(ops in ops()) {
            let mut cal = CalQueue::new();
            let mut heap = std::collections::BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64; // last popped at: pushes are at >= now
            for op in &ops {
                match op {
                    Op::Push(delta) => {
                        let e = E { at: now.saturating_add(*delta), seq };
                        seq += 1;
                        cal.push(e.clone());
                        heap.push(e);
                    }
                    Op::Pop => {
                        let want = heap.pop();
                        let got = cal.pop();
                        prop_assert_eq!(&got, &want);
                        if let Some(e) = got {
                            now = e.at;
                        }
                    }
                }
            }
            // Drain both: the tails must agree too.
            loop {
                let want = heap.pop();
                let got = cal.pop();
                prop_assert_eq!(&got, &want);
                if got.is_none() {
                    break;
                }
            }
        }

        /// Totality: even with non-monotone pushes (an `at` before
        /// entries already popped — a pattern the runtime never emits
        /// but `inject_message` clamps against), pop order is still
        /// globally ascending `(at, seq)`.
        #[test]
        fn pop_order_total_under_arbitrary_pushes(ats in proptest::collection::vec(0u64..300, 1..120)) {
            let mut cal = CalQueue::new();
            let mut heap = std::collections::BinaryHeap::new();
            for (i, at) in ats.iter().enumerate() {
                // Pop a few mid-stream so the cursor advances past some
                // of the later pushes.
                if i % 5 == 4 {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
                let e = E { at: *at, seq: i as u64 };
                cal.push(e.clone());
                heap.push(e);
            }
            loop {
                let want = heap.pop();
                let got = cal.pop();
                prop_assert_eq!(&got, &want);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
