//! Logical clocks: Lamport scalar clocks and vector clocks.
//!
//! Vector clocks are the causality backbone of the reproduction: the Scroll
//! uses them to merge per-process logs into a causally consistent total
//! order (§3.1 of the paper), and the Time Machine uses them to reason
//! about consistent cuts when assembling global checkpoints (§3.2, Fig. 6).
//!
//! The representation is **sparse**: a clock stores only its nonzero
//! `(pid, count)` components, sorted by pid, with the first few pairs held
//! inline (no heap allocation at all for clocks that have observed at most
//! [`INLINE_PAIRS`] processes). A process's clock therefore costs memory
//! and time proportional to its *causal footprint* — the set of processes
//! whose events it has (transitively) observed — not the width of the
//! world. That is what lets a message or scroll entry in a 10^6-process
//! world carry a clock of a handful of entries instead of an 8 MB vector,
//! and it is the load-bearing change behind the `scale_demo` gate
//! (steps/sec independent of world width).
//!
//! Past the inline tier the pairs sit in an immutable shared buffer and
//! the clock is a **copy-on-write handle** on it: `clone` bumps a
//! refcount, `tick`/`merge` write in place through the only handle and
//! copy once through one of several. A message, the checkpoint taken
//! before its delivery and the Scroll entry of the step that sent it are
//! then three handles on one buffer instead of three copies of it.
//! Handles are values — no write is ever visible through another handle
//! — and `Send + Sync` like the `Arc` inside them.
//!
//! All operations keep semantics identical to the classic dense
//! fixed-width implementation; the equivalence is pinned by a property
//! test against a dense reference model in `tests/prop_runtime.rs`.

use std::sync::Arc;

use crate::wire::put_varint;
use crate::Pid;

/// A classic Lamport scalar clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LamportClock {
    t: u64,
}

impl LamportClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self { t: 0 }
    }

    /// Current value.
    #[inline]
    pub fn time(&self) -> u64 {
        self.t
    }

    /// Advance for a local event; returns the new timestamp.
    #[inline]
    pub fn tick(&mut self) -> u64 {
        self.t += 1;
        self.t
    }

    /// Merge an observed remote timestamp (receive rule), then tick.
    /// Returns the new timestamp.
    #[inline]
    pub fn observe(&mut self, remote: u64) -> u64 {
        self.t = self.t.max(remote);
        self.tick()
    }
}

/// Partial-order comparison result between two vector clocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Causality {
    /// `a == b`.
    Equal,
    /// `a` happened strictly before `b`.
    Before,
    /// `b` happened strictly before `a`.
    After,
    /// Neither precedes the other.
    Concurrent,
}

/// Pairs held inline before spilling to a shared heap buffer. Three
/// pairs cover the overwhelmingly common case (a process that has only
/// exchanged messages with one or two peers) without any allocation.
///
/// Capacity picked from measured delivery censuses (the `clock_nnz`
/// histogram in `BENCH_scale.json` and the census line `shard_demo`
/// prints): in the Chord workload inline ≤3 covers 14.6% of delivered
/// clocks (a fourth pair adds only +2.8%, at +12 bytes on *every*
/// clock — messages, pooled arena shells, records), and in the gossip
/// workload 9.7% (max nnz 27). Busy processes' clocks spill regardless
/// of any affordable cap. A spilled clock is a handle on an immutable
/// shared buffer: copying it is a refcount bump, mutating it writes in
/// place when the handle is the only one and copies once otherwise, and
/// the arena's recycled shells copy into the buffer they solely hold
/// (`clone_from`). So spilling costs no steady-state allocation on the
/// bare path and one copy per delivery under supervision — the inline
/// tier only needs to catch protocol startup and sparse edges, which
/// three pairs do.
pub const INLINE_PAIRS: usize = 3;

/// One nonzero component.
type Pair = (u32, u64);

/// Sparse storage: either a few inline pairs or a shared sorted buffer.
/// Invariant (both variants): pids strictly increasing, all counts > 0.
#[derive(Clone, Debug)]
enum Repr {
    Inline {
        len: u8,
        pids: [u32; INLINE_PAIRS],
        counts: [u64; INLINE_PAIRS],
    },
    /// `buf[..len]` are the pairs; `buf[len..]` is spare capacity with
    /// unspecified contents. Copy-on-write: a buffer is written only
    /// through `Arc::get_mut`, i.e. while exactly one handle exists, so
    /// the pairs another handle sees never change and every handle on
    /// one buffer carries the same `len`.
    Heap { len: u32, buf: Arc<[Pair]> },
}

/// A sparse vector clock over the processes of a world.
///
/// Conceptually the clock is an infinite vector of `u64` components, one
/// per possible pid, almost all zero; only the nonzero components are
/// stored. A zero clock is the same value regardless of the world's
/// width, so clocks from worlds of different widths compare meaningfully
/// (the dense implementation's width-mismatch panic is gone along with
/// the widths themselves).
///
/// A clock is a value: `clone` of a spilled clock shares its buffer, but
/// no mutation of one handle is ever visible through another.
#[derive(Debug)]
pub struct VectorClock {
    repr: Repr,
}

impl Clone for VectorClock {
    /// A refcount bump for a spilled clock, a 40-byte copy otherwise.
    fn clone(&self) -> Self {
        Self {
            repr: self.repr.clone(),
        }
    }

    /// Clone into an existing clock. A target that solely holds a large
    /// enough buffer is overwritten in place and shares nothing with
    /// `source` afterwards — the arena's pooled message shells lean on
    /// this, so a recycled send stamps its clock without allocating and
    /// without making the sender's next `tick` copy. Any other target
    /// becomes a handle on `source`'s buffer.
    fn clone_from(&mut self, source: &Self) {
        if let (Repr::Heap { len, buf }, Repr::Heap { len: n, buf: src }) =
            (&mut self.repr, &source.repr)
        {
            if let Some(dst) = Arc::get_mut(buf).and_then(|d| d.get_mut(..*n as usize)) {
                dst.copy_from_slice(&src[..*n as usize]);
                *len = *n;
                return;
            }
        }
        self.repr = source.repr.clone();
    }
}

impl Default for VectorClock {
    fn default() -> Self {
        Self::ZERO
    }
}

/// First index at or after `from` whose pid is `>= p`. Callers walk two
/// sorted lists in step; `sparse` says the other list is much the
/// shorter one, where a binary search per component beats walking every
/// pair in between (8 pairs into 700: 80 probes, not 700 steps).
#[inline]
fn seek(s: &[Pair], mut from: usize, p: u32, sparse: bool) -> usize {
    if sparse {
        return from + s[from..].partition_point(|&(q, _)| q < p);
    }
    while from < s.len() && s[from].0 < p {
        from += 1;
    }
    from
}

/// Whether a list of `short` pairs is sparse against one of `long`.
#[inline]
fn sparse(short: usize, long: usize) -> bool {
    short * 16 < long
}

/// Raise `a`'s components to `b`'s where both have the pid; returns how
/// many of `b`'s pids `a` lacks.
fn max_common(a: &mut [Pair], b: &[Pair]) -> usize {
    let sp = sparse(b.len(), a.len());
    let (mut i, mut missing) = (0, 0);
    for &(p, c) in b {
        i = seek(a, i, p, sp);
        match a.get_mut(i) {
            Some((q, d)) if *q == p => {
                *d = (*d).max(c);
                i += 1;
            }
            _ => missing += 1,
        }
    }
    missing
}

/// Read-only twin of [`max_common`] for a buffer that may not be
/// written: how many of `b`'s pids `a` lacks, and whether `b` exceeds
/// `a` on any pid they share.
fn survey(a: &[Pair], b: &[Pair]) -> (usize, bool) {
    let sp = sparse(b.len(), a.len());
    let (mut i, mut missing, mut exceeds) = (0, 0, false);
    for &(p, c) in b {
        i = seek(a, i, p, sp);
        match a.get(i) {
            Some(&(q, d)) if q == p => {
                exceeds |= c > d;
                i += 1;
            }
            _ => missing += 1,
        }
    }
    (missing, exceeds)
}

/// Second half of an in-place merge: `buf[..len]` already holds `a`
/// maxed against `b` ([`max_common`]); open gaps for the pids of `b` it
/// lacks, working from the back so nothing is overwritten before it is
/// moved. `buf` is exactly `len` + missing long.
fn insert_missing(buf: &mut [Pair], len: usize, b: &[Pair]) {
    let (mut i, mut j, mut k) = (len, b.len(), buf.len());
    // `k == i` once every missing pair is placed: the rest of `a` is
    // already where it belongs.
    while k > i {
        let y = b[j - 1];
        if i > 0 && buf[i - 1].0 >= y.0 {
            if buf[i - 1].0 == y.0 {
                j -= 1;
            }
            buf[k - 1] = buf[i - 1];
            i -= 1;
        } else {
            buf[k - 1] = y;
            j -= 1;
        }
        k -= 1;
    }
}

/// The pairs [`VectorClock::put_wire_delta`] writes, and how many.
struct DeltaOut<'a> {
    buf: &'a mut Vec<u8>,
    /// The previous pair's pid (0 before the first).
    last: u32,
    count: u64,
}

impl DeltaOut<'_> {
    /// One changed component: `p`'s gap, then the zigzagged difference.
    #[inline]
    fn put(&mut self, p: u32, diff: u64) {
        let gap = u64::from(p - self.last);
        let zigzag = (diff << 1) ^ ((diff as i64 >> 63) as u64);
        if gap | zigzag < 0x80 {
            self.buf.extend_from_slice(&[gap as u8, zigzag as u8]);
        } else {
            put_varint(self.buf, gap);
            put_varint(self.buf, zigzag);
        }
        self.last = p;
        self.count += 1;
    }
}

impl VectorClock {
    /// The zero clock. `const`, so dormant (never-materialized) processes
    /// can share one static clock instead of allocating anything.
    pub const ZERO: VectorClock = VectorClock {
        repr: Repr::Inline {
            len: 0,
            pids: [0; INLINE_PAIRS],
            counts: [0; INLINE_PAIRS],
        },
    };

    /// A zero clock. The width argument is kept for source compatibility
    /// with the dense implementation and is ignored: a sparse zero clock
    /// is the same value at every width.
    pub fn new(_n: usize) -> Self {
        Self::ZERO
    }

    /// Construct from explicit dense components (test helper and the v1
    /// codec's decode target); zero components are dropped.
    pub fn from_vec(counts: Vec<u64>) -> Self {
        Self::from_pairs(
            counts
                .into_iter()
                .enumerate()
                .filter(|&(_, c)| c > 0)
                .map(|(i, c)| (i as u32, c))
                .collect(),
        )
    }

    /// Construct from sorted `(pid, count)` pairs (the v2 codec's decode
    /// target). Pairs must be strictly increasing by pid with nonzero
    /// counts; out-of-order or zero-count inputs are normalized.
    pub fn from_pairs(mut pairs: Vec<(u32, u64)>) -> Self {
        if !pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            pairs.sort_unstable_by_key(|&(p, _)| p);
            pairs.dedup_by(|a, b| {
                if a.0 == b.0 {
                    b.1 = b.1.max(a.1);
                    true
                } else {
                    false
                }
            });
        }
        pairs.retain(|&(_, c)| c > 0);
        Self::from_sorted(&pairs)
    }

    /// The clock whose one nonzero component is `p`'s count `c` (the
    /// zero clock for `c == 0`): inline, so it allocates nothing. The
    /// v4 codec's decode target for a message's clock.
    pub fn single(p: Pid, c: u64) -> Self {
        if c == 0 {
            return Self::ZERO;
        }
        Self::from_sorted(&[(p.0, c)])
    }

    /// A clock holding `pairs` (sorted, nonzero), inline when they fit.
    fn from_sorted(pairs: &[Pair]) -> Self {
        let n = pairs.len();
        if n > INLINE_PAIRS {
            return Self {
                repr: Repr::Heap {
                    len: n as u32,
                    buf: Arc::from(pairs),
                },
            };
        }
        let (mut pids, mut counts) = ([0; INLINE_PAIRS], [0; INLINE_PAIRS]);
        for (i, &(p, c)) in pairs.iter().enumerate() {
            pids[i] = p;
            counts[i] = c;
        }
        Self {
            repr: Repr::Inline {
                len: n as u8,
                pids,
                counts,
            },
        }
    }

    /// The stored pairs as one slice. An inline clock keeps pids and
    /// counts in separate arrays (that is what packs it into 40 bytes),
    /// so its pairs are zipped into the caller's `scratch` first.
    #[inline]
    fn as_pairs<'a>(&'a self, scratch: &'a mut [Pair; INLINE_PAIRS]) -> &'a [Pair] {
        match &self.repr {
            Repr::Inline { len, pids, counts } => {
                *scratch = std::array::from_fn(|i| (pids[i], counts[i]));
                &scratch[..*len as usize]
            }
            Repr::Heap { len, buf } => &buf[..*len as usize],
        }
    }

    /// Iterate the nonzero components as `(Pid, count)`, in pid order.
    pub fn entries(&self) -> impl Iterator<Item = (Pid, u64)> + '_ {
        ClockIter { vc: self, i: 0 }
    }

    /// Append the sparse wire form the Scroll codec stores: `nnz`, then
    /// a `(pid, count)` varint pair per nonzero component, in pid order.
    /// Lives beside the representation so it walks the pair slice with
    /// the buffer grown once; a pair of two small values — nearly every
    /// pair of a world under a hundred processes wide — goes out as two
    /// bytes in one write.
    pub fn put_wire(&self, buf: &mut Vec<u8>) {
        let mut scratch = [(0, 0); INLINE_PAIRS];
        let pairs = self.as_pairs(&mut scratch);
        // A varint is at most 10 bytes; the common pair is 2.
        buf.reserve(10 + 2 * pairs.len());
        put_varint(buf, pairs.len() as u64);
        for &(p, c) in pairs {
            if u64::from(p) | c < 0x80 {
                buf.extend_from_slice(&[p as u8, c as u8]);
            } else {
                put_varint(buf, u64::from(p));
                put_varint(buf, c);
            }
        }
    }

    /// Append the delta wire form the Scroll codec stores for an entry's
    /// clock (segment formats v3 and v4): the number of components in
    /// which `self` differs from `base`, then per differing component, in
    /// pid order, a varint pair `(pid gap, zigzag(new.wrapping_sub(old)))`.
    /// The first gap is the pid itself, every later one the distance to
    /// the previous pair's pid (so never zero). A component either side
    /// lacks counts as zero, so a clock that lost a pid or went down — a
    /// rollback's re-execution — is as exact as one that rose.
    ///
    /// Allocates nothing into a buffer with room: one byte is reserved
    /// for the count and patched in place (shifting the pairs only when
    /// more than 127 components differ). Two clocks over the same pids,
    /// the steady state of a process's log, are walked in step; pid sets
    /// that differ fall through to a merge walk from the first mismatch.
    pub fn put_wire_delta(&self, base: &VectorClock, buf: &mut Vec<u8>) {
        let (mut sa, mut sb) = ([(0, 0); INLINE_PAIRS], [(0, 0); INLINE_PAIRS]);
        let (new, old) = (self.as_pairs(&mut sa), base.as_pairs(&mut sb));
        let at = buf.len();
        buf.push(0);
        if self.shares_storage_with(base) {
            return;
        }
        // The common changed pair is two bytes.
        buf.reserve(2 * new.len().max(old.len()));
        let mut out = DeltaOut {
            buf,
            last: 0,
            count: 0,
        };
        // In step, 64 pairs at a time: one branch-free pass finds
        // whether the pids agree and which counts changed, then only the
        // changed ones are visited. A chunk whose pids disagree is left
        // to the merge walk below.
        let mut i = 0;
        for (a, b) in new.chunks(64).zip(old.chunks(64)) {
            let (mut same, mut changed) = (true, 0u64);
            for (k, (x, y)) in a.iter().zip(b).enumerate() {
                same &= x.0 == y.0;
                changed |= u64::from(x.1 != y.1) << k;
            }
            if !same || a.len() != b.len() {
                break;
            }
            while changed != 0 {
                let k = changed.trailing_zeros() as usize;
                out.put(a[k].0, a[k].1.wrapping_sub(b[k].1));
                changed &= changed - 1;
            }
            i += a.len();
        }
        let mut j = i;
        loop {
            match (new.get(i), old.get(j)) {
                (Some(&(p, c)), Some(&(q, d))) if p == q => {
                    if c != d {
                        out.put(p, c.wrapping_sub(d));
                    }
                    i += 1;
                    j += 1;
                }
                (Some(&(p, c)), Some(&(q, _))) if p < q => {
                    out.put(p, c);
                    i += 1;
                }
                (Some(&(p, c)), None) => {
                    out.put(p, c);
                    i += 1;
                }
                (_, Some(&(q, d))) => {
                    out.put(q, d.wrapping_neg());
                    j += 1;
                }
                (None, None) => break,
            }
        }
        let count = out.count;
        if count < 0x80 {
            buf[at] = count as u8;
            return;
        }
        // A wider count: append it, rotate it in front of the pairs, and
        // drop the byte reserved for it.
        let end = buf.len();
        put_varint(buf, count);
        let width = buf.len() - end;
        buf[at + 1..].rotate_right(width);
        buf.remove(at);
    }

    /// The inverse of [`VectorClock::put_wire_delta`]: `self` with each
    /// `(pid, difference)` of `delta` added to its component (wrapping;
    /// a component either side lacks is zero, and one that comes out
    /// zero is dropped). `delta` is in strictly increasing pid order, as
    /// the wire form is; out of order it still yields a valid clock, but
    /// not a meaningful one. The runs of unchanged components between
    /// two changed ones are copied as slices.
    pub fn with_delta(&self, delta: &[(u32, u64)]) -> VectorClock {
        let mut scratch = [(0, 0); INLINE_PAIRS];
        let old = self.as_pairs(&mut scratch);
        let mut out = Vec::with_capacity(old.len() + delta.len());
        let mut j = 0;
        for &(p, diff) in delta {
            let mut k = j;
            while k < old.len() && old[k].0 < p {
                k += 1;
            }
            out.extend_from_slice(&old[j..k]);
            j = k;
            let c = match old.get(j) {
                Some(&(q, c)) if q == p => {
                    j += 1;
                    c
                }
                _ => 0,
            };
            if c != diff.wrapping_neg() {
                out.push((p, c.wrapping_add(diff)));
            }
        }
        out.extend_from_slice(&old[j..]);
        if delta.windows(2).all(|w| w[0].0 < w[1].0) {
            return Self::from_sorted(&out);
        }
        Self::from_pairs(out)
    }

    /// Number of nonzero components (the clock's causal footprint).
    #[inline]
    pub fn nnz(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap { len, .. } => *len as usize,
        }
    }

    /// True iff every component is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.nnz() == 0
    }

    /// Heap bytes this clock's pairs occupy beyond its inline footprint:
    /// zero up to [`INLINE_PAIRS`] components, 16 per component past
    /// that. A function of the value alone — not of how much capacity
    /// the buffer happens to have, nor of how many handles share it — so
    /// equal clocks report equal bytes (spill thresholds, the arena
    /// census and cross-executor comparisons rely on that).
    pub fn resident_bytes(&self) -> usize {
        match self.nnz() {
            n if n > INLINE_PAIRS => n * std::mem::size_of::<Pair>(),
            _ => 0,
        }
    }

    /// Whether two spilled clocks are handles on the same buffer (and so
    /// cost their footprint once). Test probe: the answer is about
    /// storage, not value — equal clocks may well not share.
    #[doc(hidden)]
    pub fn shares_storage_with(&self, other: &VectorClock) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Heap { buf: a, .. }, Repr::Heap { buf: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Let go of a buffer some other handle also holds, becoming the
    /// zero clock; a solely held buffer is kept for its capacity. The
    /// arena calls this on recycle so a pooled shell never pins a buffer
    /// a Scroll entry or checkpoint owns (and never counts it twice).
    pub(crate) fn release_shared(&mut self) {
        if matches!(&self.repr, Repr::Heap { buf, .. } if Arc::strong_count(buf) > 1) {
            *self = Self::ZERO;
        }
    }

    /// The spilled pairs `(len, buf)` of a [`Repr::Heap`], writable,
    /// grown by `extra` unwritten slots at the end: in place when this
    /// handle is the only one and the capacity is there, otherwise in a
    /// fresh exact-fit buffer (the one copy of copy-on-write).
    fn heap_mut<'a>(len: &mut u32, buf: &'a mut Arc<[Pair]>, extra: usize) -> &'a mut [Pair] {
        let n = *len as usize;
        let want = n + extra;
        // A count of one cannot rise under us (nobody else has a handle
        // to clone, and no `Weak` is ever made), so this plain load
        // decides; a racing drop elsewhere only costs a spare copy.
        if buf.len() < want || Arc::strong_count(buf) > 1 {
            *buf = if extra == 0 {
                Arc::from(&buf[..n])
            } else {
                // One allocation: `Arc<[T]>` collects an exact-size
                // iterator straight into its own block.
                buf[..n]
                    .iter()
                    .copied()
                    .chain(std::iter::repeat_n((0, 0), extra))
                    .collect()
            };
        }
        *len = want as u32;
        // Sole handle now (counted or just copied): no copy here.
        &mut Arc::make_mut(buf)[..want]
    }

    /// Position of `p` among the stored pairs, or where it would insert.
    #[inline]
    fn find(&self, p: u32) -> Result<usize, usize> {
        match &self.repr {
            Repr::Inline { len, pids, .. } => {
                let len = *len as usize;
                // Linear scan: at most INLINE_PAIRS comparisons.
                for (i, &q) in pids[..len].iter().enumerate() {
                    if q == p {
                        return Ok(i);
                    }
                    if q > p {
                        return Err(i);
                    }
                }
                Err(len)
            }
            Repr::Heap { len, buf } => buf[..*len as usize].binary_search_by_key(&p, |&(q, _)| q),
        }
    }

    /// Component for process `p` (zero if never observed).
    #[inline]
    pub fn get(&self, p: Pid) -> u64 {
        self.find(p.0).map_or(0, |i| self.count_at(i))
    }

    /// The stored count at position `i`.
    #[inline]
    fn count_at(&self, i: usize) -> u64 {
        match &self.repr {
            Repr::Inline { counts, .. } => counts[i],
            Repr::Heap { buf, .. } => buf[i].1,
        }
    }

    /// The stored count at position `i`, writable (the copy-on-write
    /// copy happens here for a shared spilled clock).
    #[inline]
    fn count_mut(&mut self, i: usize) -> &mut u64 {
        match &mut self.repr {
            Repr::Inline { counts, .. } => &mut counts[i],
            Repr::Heap { len, buf } => &mut Self::heap_mut(len, buf, 0)[i].1,
        }
    }

    /// Insert the new component `(p, c)` at position `i`.
    fn insert_at(&mut self, i: usize, p: u32, c: u64) {
        match &mut self.repr {
            Repr::Inline { len, pids, counts } => {
                let n = *len as usize;
                if n < INLINE_PAIRS {
                    // Shift the tail right and insert in place.
                    pids.copy_within(i..n, i + 1);
                    counts.copy_within(i..n, i + 1);
                    pids[i] = p;
                    counts[i] = c;
                    *len += 1;
                } else {
                    // Spill to the heap, inserting the new pair on the way.
                    let mut out = [(p, c); INLINE_PAIRS + 1];
                    for k in 0..n {
                        out[k + usize::from(k >= i)] = (pids[k], counts[k]);
                    }
                    *self = Self::from_sorted(&out);
                }
            }
            Repr::Heap { len, buf } => {
                let n = *len as usize;
                let buf = Self::heap_mut(len, buf, 1);
                buf.copy_within(i..n, i + 1);
                buf[i] = (p, c);
            }
        }
    }

    /// Increment the component of process `p` (local event rule).
    #[inline]
    pub fn tick(&mut self, p: Pid) -> u64 {
        match self.find(p.0) {
            Ok(i) => {
                let c = self.count_mut(i);
                *c += 1;
                *c
            }
            Err(i) => {
                self.insert_at(i, p.0, 1);
                1
            }
        }
    }

    /// Undo `by` ticks of process `p`: lower its component by `by`,
    /// dropping it when that reaches zero (a component lower than `by`
    /// is dropped too). `by == 0` touches nothing. A solely held spilled
    /// clock is written in place.
    pub fn untick(&mut self, p: Pid, by: u64) {
        if by == 0 {
            return;
        }
        let Ok(i) = self.find(p.0) else { return };
        if self.count_at(i) > by {
            *self.count_mut(i) -= by;
            return;
        }
        match &mut self.repr {
            Repr::Inline { len, pids, counts } => {
                let n = *len as usize;
                pids.copy_within(i + 1..n, i);
                counts.copy_within(i + 1..n, i);
                *len -= 1;
            }
            Repr::Heap { len, buf } => {
                let n = *len as usize;
                Self::heap_mut(len, buf, 0).copy_within(i + 1..n, i);
                *len -= 1;
            }
        }
    }

    /// Raise the component of `p` to at least `c`.
    fn raise(&mut self, p: Pid, c: u64) {
        match self.find(p.0) {
            Ok(i) if self.count_at(i) < c => *self.count_mut(i) = c,
            Ok(_) => {}
            Err(i) => self.insert_at(i, p.0, c),
        }
    }

    /// Pointwise maximum with `other` (receive rule, without the tick).
    ///
    /// Between two spilled clocks, one forward two-pointer pass maxes
    /// the shared pids in place and counts the pids `self` lacks; none
    /// lacking — the steady state — ends there, otherwise the buffer
    /// grows once (if it must) and a backward pass slots them in.
    /// Through one of several handles the first pass only reads: if
    /// `other` brings nothing new nothing is copied, otherwise the one
    /// copy is made already sized for the pids to come and the same two
    /// passes run on it. An inline clock on either side is at most three
    /// pairs, raised one by one into the other side.
    pub fn merge(&mut self, other: &VectorClock) {
        let Repr::Heap { len: m, buf: b } = &other.repr else {
            other.entries().for_each(|(p, c)| self.raise(p, c));
            return;
        };
        let Repr::Heap { len, buf } = &mut self.repr else {
            // Merge commutes: start from a handle on `other`'s buffer.
            let few = std::mem::replace(self, other.clone());
            few.entries().for_each(|(p, c)| self.raise(p, c));
            return;
        };
        if Arc::ptr_eq(buf, b) {
            return;
        }
        let (n, b) = (*len as usize, &b[..*m as usize]);
        let (missing, copy) = match Arc::get_mut(buf) {
            Some(own) => (max_common(&mut own[..n], b), false),
            None => match survey(&buf[..n], b) {
                (0, false) => return,
                (missing, _) => (missing, true),
            },
        };
        if copy || missing > 0 {
            let pairs = Self::heap_mut(len, buf, missing);
            if copy {
                max_common(&mut pairs[..n], b);
            }
            insert_missing(pairs, n, b);
        }
    }

    /// `self <= other` pointwise (over the conceptual infinite vectors).
    pub fn leq(&self, other: &VectorClock) -> bool {
        // Every nonzero component of self must be covered by other — so
        // other needs at least as many of them.
        if self.nnz() > other.nnz() {
            return false;
        }
        if self.shares_storage_with(other) {
            return true;
        }
        let (mut sa, mut sb) = ([(0, 0); INLINE_PAIRS], [(0, 0); INLINE_PAIRS]);
        let (a, b) = (self.as_pairs(&mut sa), other.as_pairs(&mut sb));
        let sp = sparse(a.len(), b.len());
        let mut j = 0;
        a.iter().all(|&(p, c)| {
            j = seek(b, j, p, sp);
            let covered = matches!(b.get(j), Some(&(q, d)) if q == p && c <= d);
            j += 1;
            covered
        })
    }

    /// Full causal comparison.
    pub fn compare(&self, other: &VectorClock) -> Causality {
        let le = self.leq(other);
        let ge = other.leq(self);
        match (le, ge) {
            (true, true) => Causality::Equal,
            (true, false) => Causality::Before,
            (false, true) => Causality::After,
            (false, false) => Causality::Concurrent,
        }
    }

    /// True iff the two clocks are causally unrelated.
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        self.compare(other) == Causality::Concurrent
    }

    /// Sum of all components — a convenient monotone "event count" measure.
    pub fn total(&self) -> u64 {
        self.entries().map(|(_, c)| c).sum()
    }
}

struct ClockIter<'a> {
    vc: &'a VectorClock,
    i: usize,
}

impl Iterator for ClockIter<'_> {
    type Item = (Pid, u64);
    #[inline]
    fn next(&mut self) -> Option<(Pid, u64)> {
        let i = self.i;
        self.i += 1;
        match &self.vc.repr {
            Repr::Inline { len, pids, counts } => {
                if i < *len as usize {
                    Some((Pid(pids[i]), counts[i]))
                } else {
                    None
                }
            }
            Repr::Heap { len, buf } => buf[..*len as usize].get(i).map(|&(p, c)| (Pid(p), c)),
        }
    }
}

// Equality, hashing, and ordering are defined over the *logical* pair
// sequence so an inline clock and a heap clock with the same components
// are the same value (the representation is an implementation detail).
impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        if self.shares_storage_with(other) {
            return true;
        }
        let (mut sa, mut sb) = ([(0, 0); INLINE_PAIRS], [(0, 0); INLINE_PAIRS]);
        self.as_pairs(&mut sa) == other.as_pairs(&mut sb)
    }
}

impl Eq for VectorClock {}

impl std::hash::Hash for VectorClock {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_usize(self.nnz());
        for (p, c) in self.entries() {
            state.write_u32(p.0);
            state.write_u64(c);
        }
    }
}

impl std::fmt::Display for VectorClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, (p, c)) in self.entries().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}:{}", p.0, c)?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lamport_tick_and_observe() {
        let mut c = LamportClock::new();
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.observe(10), 11);
        assert_eq!(c.observe(3), 12); // max(11,3)=11 then tick -> 12
        assert_eq!(c.time(), 12);
    }

    #[test]
    fn vc_tick_merge_order() {
        let mut a = VectorClock::new(3);
        let mut b = VectorClock::new(3);
        a.tick(Pid(0));
        b.tick(Pid(1));
        assert_eq!(a.compare(&b), Causality::Concurrent);
        // b receives from a
        b.merge(&a);
        b.tick(Pid(1));
        assert_eq!(a.compare(&b), Causality::Before);
        assert_eq!(b.compare(&a), Causality::After);
        let c = b.clone();
        assert_eq!(b.compare(&c), Causality::Equal);
    }

    #[test]
    fn vc_display_and_total() {
        let v = VectorClock::from_vec(vec![1, 0, 2]);
        assert_eq!(v.to_string(), "⟨0:1,2:2⟩");
        assert_eq!(v.total(), 3);
        assert_eq!(v.get(Pid(2)), 2);
        assert_eq!(v.get(Pid(9)), 0, "out-of-range reads as 0");
        assert_eq!(v.nnz(), 2, "zero components are not stored");
    }

    #[test]
    fn vc_leq_reflexive_and_antisymmetric_cases() {
        let a = VectorClock::from_vec(vec![1, 2]);
        let b = VectorClock::from_vec(vec![2, 2]);
        assert!(a.leq(&a));
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
    }

    /// `with_delta` undoes `put_wire_delta`'s differences: rises,
    /// falls, pids gained and lost, a component cancelled to zero,
    /// inline and heap clocks. A delta out of pid order still leaves a
    /// clock whose pairs are sorted and nonzero.
    #[test]
    fn with_delta_applies_wrapping_differences() {
        let heap = VectorClock::from_pairs((0..8).map(|p| (2 * p, 5)).collect());
        let cases = [
            (VectorClock::ZERO, vec![(3, 7)], vec![(3, 7)]),
            (
                VectorClock::from_vec(vec![4, 0, 2]),
                vec![(0, u64::MAX), (1, 1), (2, 0u64.wrapping_sub(2))],
                vec![(0, 3), (1, 1)],
            ),
            (
                heap.clone(),
                vec![(1, 9), (4, 1), (14, 0u64.wrapping_sub(5)), (99, 2)],
                vec![
                    (0, 5),
                    (1, 9),
                    (2, 5),
                    (4, 6),
                    (6, 5),
                    (8, 5),
                    (10, 5),
                    (12, 5),
                    (99, 2),
                ],
            ),
        ];
        for (base, delta, want) in cases {
            assert_eq!(base.with_delta(&delta), VectorClock::from_pairs(want));
        }
        let shuffled = heap.with_delta(&[(9, 1), (2, 1), (9, 3)]);
        let pids: Vec<u32> = shuffled.entries().map(|(p, _)| p.0).collect();
        assert!(pids.windows(2).all(|w| w[0] < w[1]), "{shuffled}");
        assert!(shuffled.entries().all(|(_, c)| c > 0));
    }

    #[test]
    fn zero_clocks_equal_at_any_width() {
        assert_eq!(VectorClock::new(0), VectorClock::new(1_000_000));
        assert_eq!(VectorClock::ZERO, VectorClock::from_vec(vec![0; 64]));
        assert!(VectorClock::ZERO.is_zero());
        assert_eq!(VectorClock::ZERO.resident_bytes(), 0);
    }

    #[test]
    fn inline_spills_to_heap_and_back_compares() {
        // Fill past the inline capacity and check every op still agrees
        // with the dense picture.
        let mut v = VectorClock::ZERO;
        for p in [7u32, 3, 11, 1, 9] {
            v.tick(Pid(p));
        }
        assert_eq!(v.nnz(), 5);
        for p in [1u32, 3, 7, 9, 11] {
            assert_eq!(v.get(Pid(p)), 1, "pid {p}");
        }
        assert_eq!(v.get(Pid(0)), 0);
        let pairs: Vec<(u32, u64)> = v.entries().map(|(p, c)| (p.0, c)).collect();
        assert_eq!(pairs, vec![(1, 1), (3, 1), (7, 1), (9, 1), (11, 1)]);
        // Equality across representations.
        let rebuilt = VectorClock::from_pairs(pairs);
        assert_eq!(v, rebuilt);
        assert!(v.resident_bytes() > 0, "spilled clock is heap-backed");
    }

    #[test]
    fn inline_insert_keeps_sorted_order() {
        let mut v = VectorClock::ZERO;
        v.tick(Pid(5));
        v.tick(Pid(2)); // inserts before 5
        v.tick(Pid(8)); // appends
        let pairs: Vec<(u32, u64)> = v.entries().map(|(p, c)| (p.0, c)).collect();
        assert_eq!(pairs, vec![(2, 1), (5, 1), (8, 1)]);
        v.tick(Pid(5));
        assert_eq!(v.get(Pid(5)), 2);
    }

    #[test]
    fn merge_in_place_and_rebuild_paths() {
        // In-place path: other's support ⊆ self's support.
        let mut a = VectorClock::from_vec(vec![1, 5, 2]);
        let b = VectorClock::from_vec(vec![4, 2, 2]);
        a.merge(&b);
        assert_eq!(a, VectorClock::from_vec(vec![4, 5, 2]));
        // Rebuild path: disjoint supports.
        let mut c = VectorClock::from_pairs(vec![(0, 1), (10, 3)]);
        let d = VectorClock::from_pairs(vec![(5, 2), (20, 7)]);
        c.merge(&d);
        assert_eq!(
            c,
            VectorClock::from_pairs(vec![(0, 1), (5, 2), (10, 3), (20, 7)])
        );
        // Merging zero is a no-op; merging into zero is a copy.
        let mut z = VectorClock::ZERO;
        z.merge(&c);
        assert_eq!(z, c);
        c.merge(&VectorClock::ZERO);
        assert_eq!(z, c);
    }

    /// Missing pids at the front, middle and back of the target, into
    /// a solely held buffer (in place, growing once) and into a shared
    /// one (copied once, already sized for the result) — same value
    /// either way, and the other holder of the shared buffer sees
    /// nothing.
    #[test]
    fn merge_slots_missing_pids_in_at_front_middle_and_back() {
        let target = || VectorClock::from_pairs(vec![(10, 1), (20, 5), (30, 1), (40, 1)]);
        let other = VectorClock::from_pairs(vec![(5, 2), (20, 3), (25, 4), (30, 9), (50, 6)]);
        let want = VectorClock::from_pairs(vec![
            (5, 2),
            (10, 1),
            (20, 5),
            (25, 4),
            (30, 9),
            (40, 1),
            (50, 6),
        ]);
        let mut unique = target();
        unique.merge(&other);
        assert_eq!(unique, want);
        let mut shared = target();
        let holder = shared.clone();
        shared.merge(&other);
        assert_eq!(shared, want);
        assert_eq!(holder, target());
        assert!(!shared.shares_storage_with(&holder));
    }

    #[test]
    fn spilled_clocks_share_until_written() {
        let a = VectorClock::from_vec(vec![1, 2, 3, 4, 5]);
        let mut b = a.clone();
        assert!(a.shares_storage_with(&b), "clone is a handle");
        // Nothing new: no copy, still shared.
        b.merge(&a);
        b.merge(&VectorClock::from_vec(vec![1, 1]));
        assert!(a.shares_storage_with(&b));
        // A write copies once; the source never sees it.
        assert_eq!(b.tick(Pid(2)), 4);
        assert!(!a.shares_storage_with(&b));
        assert_eq!(a.get(Pid(2)), 3);
        // Merging into zero adopts the buffer.
        let mut z = VectorClock::ZERO;
        z.merge(&a);
        assert!(z.shares_storage_with(&a));
        // Inline clocks have no storage to share.
        let i = VectorClock::from_vec(vec![1, 2]);
        assert!(!i.shares_storage_with(&i.clone()));
    }

    #[test]
    fn clone_from_copies_into_a_sole_holder_and_shares_otherwise() {
        let src = VectorClock::from_vec(vec![1, 2, 3, 4]);
        // Sole holder with room (6 >= 4): overwritten in place.
        let mut shell = VectorClock::from_vec(vec![9; 6]);
        shell.clone_from(&src);
        assert_eq!(shell, src);
        assert!(!shell.shares_storage_with(&src));
        // ... and the capacity outlives the shorter value.
        let wide = VectorClock::from_vec(vec![7; 6]);
        shell.clone_from(&wide);
        assert_eq!(shell, wide);
        assert!(!shell.shares_storage_with(&wide));
        // Shared target: the other holder keeps its value.
        let mut shared = VectorClock::from_vec(vec![9; 6]);
        let holder = shared.clone();
        shared.clone_from(&src);
        assert!(shared.shares_storage_with(&src));
        assert_eq!(holder, VectorClock::from_vec(vec![9; 6]));
        // Too small a buffer: share.
        let mut small = VectorClock::from_vec(vec![1; 4]);
        small.clone_from(&wide);
        assert!(small.shares_storage_with(&wide));
        // release_shared keeps a solely held buffer, drops a shared one.
        small.release_shared();
        assert!(small.is_zero());
        shell.release_shared();
        assert_eq!(shell, wide);
    }

    #[test]
    fn untick_inverts_tick_inline_and_spilled() {
        for width in [2u32, 3, 8] {
            let start = VectorClock::from_pairs((0..width).map(|p| (p, 5)).collect());
            let mut vc = start.clone();
            for p in [Pid(1), Pid(9)] {
                vc.tick(p);
                vc.tick(p);
                vc.untick(p, 2);
                assert_eq!(vc, start, "width {width}, {p:?}");
            }
            // Down to zero drops the component; `by == 0` is a no-op.
            vc.untick(Pid(0), 5);
            vc.untick(Pid(width - 1), 9);
            vc.untick(Pid(1), 0);
            let want = (1..width - 1).map(|p| (Pid(p), 5));
            assert!(vc.entries().eq(want), "width {width}: {vc}");
            assert_eq!(vc.get(Pid(0)), 0);
        }
        // Through a shared buffer the other handle keeps its value.
        let mut a = VectorClock::from_vec(vec![3; 6]);
        let b = a.clone();
        a.untick(Pid(2), 1);
        assert_eq!((a.get(Pid(2)), b.get(Pid(2))), (2, 3));
        let mut c = b.clone();
        c.untick(Pid(5), 3);
        assert_eq!((c.nnz(), b.nnz()), (5, 6));
    }

    #[test]
    fn leq_handles_missing_components_as_zero() {
        let a = VectorClock::from_pairs(vec![(3, 1)]);
        let b = VectorClock::from_pairs(vec![(2, 9), (3, 1)]);
        assert!(a.leq(&b), "a's implicit zeros are <= b everywhere");
        assert!(!b.leq(&a), "b[2]=9 > a[2]=0");
        assert_eq!(a.compare(&b), Causality::Before);
    }

    #[test]
    fn from_pairs_normalizes_unsorted_and_zero_counts() {
        let v = VectorClock::from_pairs(vec![(9, 1), (2, 0), (4, 3)]);
        let pairs: Vec<(u32, u64)> = v.entries().map(|(p, c)| (p.0, c)).collect();
        assert_eq!(pairs, vec![(4, 3), (9, 1)]);
    }

    #[test]
    fn hash_agrees_across_reprs() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |v: &VectorClock| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let mut inline = VectorClock::ZERO;
        inline.tick(Pid(4));
        inline.tick(Pid(4));
        let heap = {
            // Force the heap representation of the same logical value.
            let mut v = VectorClock::ZERO;
            for p in 0..=4u32 {
                v.tick(Pid(p));
            }
            VectorClock::from_pairs(
                v.entries()
                    .filter(|(p, _)| p.0 == 4)
                    .map(|(p, c)| (p.0, c + 1))
                    .collect(),
            )
        };
        assert_eq!(inline, heap);
        assert_eq!(hash(&inline), hash(&heap));
    }
}
