//! Vector clocks.
//!
//! Every process carries one, ticked on its start, on each send and on
//! each delivery (which also merges the sender's clock in). Nothing that
//! runs a step, takes or restores a checkpoint, rolls back or heals reads
//! it: the Time Machine works from the checkpoint indices messages carry
//! and its dependency graph (§4.2, Fig. 6). The readers are the Scroll's
//! entry clocks (§3.1), `Cut::frontier` and the merge checks, which read
//! them after the fact, and the Investigator's `WorldState` hash.
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
//! refcount, `tick`/`merge`/`receive` write in place through the only
//! handle and copy once through one of several. A message, the
//! checkpoint taken before its delivery and the Scroll entry of the step
//! that sent it are then three handles on one buffer instead of three
//! copies of it. Handles are values — no write is ever visible through
//! another handle — and `Send + Sync` like the `Arc` inside them.
//!
//! A clock sits in one of three tiers. Inline, it holds up to
//! [`INLINE_PAIRS`] pairs with `u64` counts. Spilled, its buffer holds
//! `u32` counts, 8 bytes a component — the *narrow* tier, every count a
//! run reaches in practice — unless some count exceeds `u32::MAX`, in
//! which case the buffer holds `(u32, u64)` pairs, 16 bytes a component —
//! the *wide* tier. The tier is a function of the value: the constructors
//! choose it from the counts they receive, a narrow clock is copied once
//! into the wide tier when a `tick`, `merge` or `receive` must store a
//! wider count, and an `untick` that brings every count back to `u32`
//! range moves it back. No count ever wraps. The public API, the
//! wire forms, `Eq` and `Hash` are all in `u64`, so the tier never shows
//! except in [`VectorClock::resident_bytes`].
//!
//! All operations keep semantics identical to the classic dense
//! fixed-width implementation; the equivalence is pinned by a property
//! test against a dense reference model in `tests/prop_runtime.rs`.

use std::sync::Arc;

use crate::wire::put_varint;
use crate::Pid;

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

/// One nonzero component of the narrow heap tier.
type NarrowPair = (u32, u32);
/// One nonzero component of an inline clock or of the wide heap tier.
type WidePair = (u32, u64);

/// A heap tier's count type. Every walk over a pair list is written
/// once, generic over it (and, for walks over two lists, over both
/// sides'), and compares and emits counts as `u64`.
trait Count: Copy + Default + Ord {
    fn get(self) -> u64;
}

impl Count for u32 {
    #[inline]
    fn get(self) -> u64 {
        u64::from(self)
    }
}

impl Count for u64 {
    #[inline]
    fn get(self) -> u64 {
        self
    }
}

/// Sparse storage: a few inline pairs, or a shared sorted buffer in the
/// narrow or the wide tier. Invariant (every variant): pids strictly
/// increasing, all counts > 0. A clock is [`Repr::Wide`] exactly when a
/// spilled clock holds a count above `u32::MAX`.
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
    Heap { len: u32, buf: Arc<[NarrowPair]> },
    /// [`Repr::Heap`] for a clock with a count above `u32::MAX`.
    Wide { len: u32, buf: Arc<[WidePair]> },
}

/// A clock's pairs as one slice, in its tier's count type.
enum Pairs<'a> {
    Narrow(&'a [NarrowPair]),
    Wide(&'a [WidePair]),
}

/// Evaluate `$body` with `$a` and `$b` bound to the slices of two
/// [`Pairs`], whichever tier each is in: one generic walk, instantiated
/// per pairing of tiers.
macro_rules! both_pairs {
    (($a:ident, $b:ident) = ($x:expr, $y:expr) => $body:expr) => {
        match ($x, $y) {
            (Pairs::Narrow($a), Pairs::Narrow($b)) => $body,
            (Pairs::Narrow($a), Pairs::Wide($b)) => $body,
            (Pairs::Wide($a), Pairs::Narrow($b)) => $body,
            (Pairs::Wide($a), Pairs::Wide($b)) => $body,
        }
    };
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
    /// enough buffer of the source's tier is overwritten in place and
    /// shares nothing with `source` afterwards — the arena's pooled
    /// message shells lean on this, so a recycled send stamps its clock
    /// without allocating and without making the sender's next `tick`
    /// copy. Any other target becomes a handle on `source`'s buffer.
    fn clone_from(&mut self, source: &Self) {
        let copied = match (&mut self.repr, &source.repr) {
            (Repr::Heap { len, buf }, Repr::Heap { len: n, buf: src }) => {
                copy_into(len, buf, &src[..*n as usize])
            }
            (Repr::Wide { len, buf }, Repr::Wide { len: n, buf: src }) => {
                copy_into(len, buf, &src[..*n as usize])
            }
            _ => false,
        };
        if !copied {
            self.repr = source.repr.clone();
        }
    }
}

impl Default for VectorClock {
    fn default() -> Self {
        Self::ZERO
    }
}

/// Overwrite `buf` with `src` if this handle solely holds it and it has
/// room; whether it did.
fn copy_into<C: Count>(len: &mut u32, buf: &mut Arc<[(u32, C)]>, src: &[(u32, C)]) -> bool {
    let Some(dst) = Arc::get_mut(buf).and_then(|d| d.get_mut(..src.len())) else {
        return false;
    };
    dst.copy_from_slice(src);
    *len = src.len() as u32;
    true
}

/// First index at or after `from` whose pid is `>= p`. Callers walk two
/// sorted lists in step; `sparse` says the other list is much the
/// shorter one, where a binary search per component beats walking every
/// pair in between (8 pairs into 700: 80 probes, not 700 steps).
#[inline]
fn seek<C>(s: &[(u32, C)], mut from: usize, p: u32, sparse: bool) -> usize {
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
fn max_common<C: Count, D: Count + Into<C>>(a: &mut [(u32, C)], b: &[(u32, D)]) -> usize {
    let sp = sparse(b.len(), a.len());
    let (mut i, mut missing) = (0, 0);
    for &(p, c) in b {
        i = seek(a, i, p, sp);
        match a.get_mut(i) {
            Some((q, d)) if *q == p => {
                *d = (*d).max(c.into());
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
fn survey<C: Count, D: Count>(a: &[(u32, C)], b: &[(u32, D)]) -> (usize, bool) {
    let sp = sparse(b.len(), a.len());
    let (mut i, mut missing, mut exceeds) = (0, 0, false);
    for &(p, c) in b {
        i = seek(a, i, p, sp);
        match a.get(i) {
            Some(&(q, d)) if q == p => {
                exceeds |= c.get() > d.get();
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
fn insert_missing<C: Count, D: Count + Into<C>>(buf: &mut [(u32, C)], len: usize, b: &[(u32, D)]) {
    let (mut i, mut j, mut k) = (len, b.len(), buf.len());
    // `k == i` once every missing pair is placed: the rest of `a` is
    // already where it belongs.
    while k > i {
        let (p, c) = b[j - 1];
        if i > 0 && buf[i - 1].0 >= p {
            if buf[i - 1].0 == p {
                j -= 1;
            }
            buf[k - 1] = buf[i - 1];
            i -= 1;
        } else {
            buf[k - 1] = (p, c.into());
            j -= 1;
        }
        k -= 1;
    }
}

/// The spilled pairs `(len, buf)`, writable, grown by `extra` unwritten
/// slots at the end: in place when this handle is the only one and the
/// capacity is there, otherwise in a fresh exact-fit buffer (the one
/// copy of copy-on-write).
fn heap_mut<'a, C: Count>(
    len: &mut u32,
    buf: &'a mut Arc<[(u32, C)]>,
    extra: usize,
) -> &'a mut [(u32, C)] {
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
                .chain(std::iter::repeat_n((0, C::default()), extra))
                .collect()
        };
    }
    *len = want as u32;
    // Sole handle now (counted or just copied): no copy here.
    &mut Arc::make_mut(buf)[..want]
}

/// Raise the spilled clock `(len, buf)` to `b` pointwise, after first
/// writing `tick`'s count at `tick`'s position when there is one (the
/// receive rule's tick, which always writes). One forward pass maxes the
/// shared pids and counts the pids `buf` lacks; none lacking — the
/// steady state — ends there, otherwise the buffer grows once (if it
/// must) and a backward pass slots them in. Through one of several
/// handles the first pass only reads: with nothing to write nothing is
/// copied, otherwise the one copy is made already sized for the pids to
/// come and the same two passes run on it.
fn merge_pairs<C: Count, D: Count + Into<C>>(
    len: &mut u32,
    buf: &mut Arc<[(u32, C)]>,
    b: &[(u32, D)],
    tick: Option<(usize, C)>,
) {
    let n = *len as usize;
    let (missing, copy) = match Arc::get_mut(buf) {
        Some(own) => {
            if let Some((i, c)) = tick {
                own[i].1 = c;
            }
            (max_common(&mut own[..n], b), false)
        }
        None => match survey(&buf[..n], b) {
            (0, false) if tick.is_none() => return,
            (missing, _) => (missing, true),
        },
    };
    if copy || missing > 0 {
        let pairs = heap_mut(len, buf, missing);
        if copy {
            if let Some((i, c)) = tick {
                pairs[i].1 = c;
            }
            max_common(&mut pairs[..n], b);
        }
        insert_missing(pairs, n, b);
    }
}

/// Insert `pair` at position `i` of the spilled clock `(len, buf)`.
fn insert_pair<C: Count>(len: &mut u32, buf: &mut Arc<[(u32, C)]>, i: usize, pair: (u32, C)) {
    let n = *len as usize;
    let buf = heap_mut(len, buf, 1);
    buf.copy_within(i..n, i + 1);
    buf[i] = pair;
}

/// Remove the pair at position `i` of the spilled clock `(len, buf)`.
fn remove_pair<C: Count>(len: &mut u32, buf: &mut Arc<[(u32, C)]>, i: usize) {
    let n = *len as usize;
    heap_mut(len, buf, 0).copy_within(i + 1..n, i);
    *len -= 1;
}

/// `a <= b` pointwise; `b` is at least as long as `a`.
fn leq_pairs<A: Count, B: Count>(a: &[(u32, A)], b: &[(u32, B)]) -> bool {
    let sp = sparse(a.len(), b.len());
    let mut j = 0;
    a.iter().all(|&(p, c)| {
        j = seek(b, j, p, sp);
        let covered = matches!(b.get(j), Some(&(q, d)) if q == p && c.get() <= d.get());
        j += 1;
        covered
    })
}

/// Whether two pair lists hold the same components.
fn eq_pairs<A: Count, B: Count>(a: &[(u32, A)], b: &[(u32, B)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&(p, c), &(q, d))| p == q && c.get() == d.get())
}

/// [`VectorClock::put_wire`]'s pairs.
fn put_wire_pairs<C: Count>(pairs: &[(u32, C)], buf: &mut Vec<u8>) {
    // A varint is at most 10 bytes; the common pair is 2.
    buf.reserve(10 + 2 * pairs.len());
    put_varint(buf, pairs.len() as u64);
    for &(p, c) in pairs {
        let c = c.get();
        if u64::from(p) | c < 0x80 {
            buf.extend_from_slice(&[p as u8, c as u8]);
        } else {
            put_varint(buf, u64::from(p));
            put_varint(buf, c);
        }
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

    /// Every component in which `new` differs from `old`, in pid order.
    /// In step, 64 pairs at a time: one branch-free pass finds whether
    /// the pids agree and which counts changed, then only the changed
    /// ones are visited. From the first chunk whose pids disagree on, a
    /// merge walk.
    fn put_changes<A: Count, B: Count>(&mut self, new: &[(u32, A)], old: &[(u32, B)]) {
        let mut i = 0;
        for (a, b) in new.chunks(64).zip(old.chunks(64)) {
            let (mut same, mut changed) = (true, 0u64);
            for (k, (x, y)) in a.iter().zip(b).enumerate() {
                same &= x.0 == y.0;
                changed |= u64::from(x.1.get() != y.1.get()) << k;
            }
            if !same || a.len() != b.len() {
                break;
            }
            while changed != 0 {
                let k = changed.trailing_zeros() as usize;
                self.put(a[k].0, a[k].1.get().wrapping_sub(b[k].1.get()));
                changed &= changed - 1;
            }
            i += a.len();
        }
        let mut j = i;
        loop {
            match (new.get(i), old.get(j)) {
                (Some(&(p, c)), Some(&(q, d))) if p == q => {
                    if c.get() != d.get() {
                        self.put(p, c.get().wrapping_sub(d.get()));
                    }
                    i += 1;
                    j += 1;
                }
                (Some(&(p, c)), Some(&(q, _))) if p < q => {
                    self.put(p, c.get());
                    i += 1;
                }
                (Some(&(p, c)), None) => {
                    self.put(p, c.get());
                    i += 1;
                }
                (_, Some(&(q, d))) => {
                    self.put(q, d.get().wrapping_neg());
                    j += 1;
                }
                (None, None) => break,
            }
        }
    }
}

/// `old` with each `(pid, difference)` of `delta` added to its
/// component ([`VectorClock::with_delta`]), as wide pairs: the runs of
/// unchanged components between two changed ones are copied over.
fn apply_delta<C: Count>(old: &[(u32, C)], delta: &[(u32, u64)]) -> Vec<WidePair> {
    let mut out = Vec::with_capacity(old.len() + delta.len());
    let mut j = 0;
    for &(p, diff) in delta {
        let mut k = j;
        while k < old.len() && old[k].0 < p {
            k += 1;
        }
        out.extend(old[j..k].iter().map(|&(q, c)| (q, c.get())));
        j = k;
        let c = match old.get(j) {
            Some(&(q, c)) if q == p => {
                j += 1;
                c.get()
            }
            _ => 0,
        };
        if c != diff.wrapping_neg() {
            out.push((p, c.wrapping_add(diff)));
        }
    }
    out.extend(old[j..].iter().map(|&(q, c)| (q, c.get())));
    out
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

    /// A clock holding `pairs` (sorted, nonzero), inline when they fit,
    /// otherwise in the narrow tier unless a count needs the wide one.
    fn from_sorted(pairs: &[WidePair]) -> Self {
        let n = pairs.len();
        if n > INLINE_PAIRS {
            let len = n as u32;
            let repr = if pairs.iter().all(|&(_, c)| c <= u64::from(u32::MAX)) {
                Repr::Heap {
                    len,
                    // Every count was just checked to fit.
                    buf: pairs.iter().map(|&(p, c)| (p, c as u32)).collect(),
                }
            } else {
                Repr::Wide {
                    len,
                    buf: Arc::from(pairs),
                }
            };
            return Self { repr };
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
    fn as_pairs<'a>(&'a self, scratch: &'a mut [WidePair; INLINE_PAIRS]) -> Pairs<'a> {
        match &self.repr {
            Repr::Inline { len, pids, counts } => {
                *scratch = std::array::from_fn(|i| (pids[i], counts[i]));
                Pairs::Wide(&scratch[..*len as usize])
            }
            Repr::Heap { len, buf } => Pairs::Narrow(&buf[..*len as usize]),
            Repr::Wide { len, buf } => Pairs::Wide(&buf[..*len as usize]),
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
        match self.as_pairs(&mut scratch) {
            Pairs::Narrow(pairs) => put_wire_pairs(pairs, buf),
            Pairs::Wide(pairs) => put_wire_pairs(pairs, buf),
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
        let mut out = DeltaOut {
            buf,
            last: 0,
            count: 0,
        };
        both_pairs!((new, old) = (new, old) => {
            // The common changed pair is two bytes.
            out.buf.reserve(2 * new.len().max(old.len()));
            out.put_changes(new, old)
        });
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
    /// not a meaningful one. The tier follows the resulting counts.
    pub fn with_delta(&self, delta: &[(u32, u64)]) -> VectorClock {
        let mut scratch = [(0, 0); INLINE_PAIRS];
        let out = match self.as_pairs(&mut scratch) {
            Pairs::Narrow(old) => apply_delta(old, delta),
            Pairs::Wide(old) => apply_delta(old, delta),
        };
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
            Repr::Heap { len, .. } | Repr::Wide { len, .. } => *len as usize,
        }
    }

    /// True iff every component is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.nnz() == 0
    }

    /// Heap bytes this clock's pairs occupy beyond its inline footprint:
    /// zero up to [`INLINE_PAIRS`] components, past that 8 per component
    /// in the narrow tier and 16 in the wide one. A function of the value
    /// alone — the tier is one, and the figure counts neither the
    /// capacity the buffer happens to have nor how many handles share
    /// it — so equal clocks report equal bytes (the arena census relies
    /// on that).
    pub fn resident_bytes(&self) -> usize {
        match &self.repr {
            Repr::Heap { len, .. } if *len as usize > INLINE_PAIRS => {
                *len as usize * std::mem::size_of::<NarrowPair>()
            }
            Repr::Wide { len, .. } if *len as usize > INLINE_PAIRS => {
                *len as usize * std::mem::size_of::<WidePair>()
            }
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
            (Repr::Wide { buf: a, .. }, Repr::Wide { buf: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Whether the pairs sit in a heap buffer (either tier).
    #[inline]
    fn is_spilled(&self) -> bool {
        !matches!(self.repr, Repr::Inline { .. })
    }

    /// Let go of a buffer some other handle also holds, becoming the
    /// zero clock; a solely held buffer is kept for its capacity. The
    /// arena calls this on recycle so a pooled shell never pins a buffer
    /// a Scroll entry or checkpoint owns (and never counts it twice).
    pub(crate) fn release_shared(&mut self) {
        let shared = match &self.repr {
            Repr::Inline { .. } => false,
            Repr::Heap { buf, .. } => Arc::strong_count(buf) > 1,
            Repr::Wide { buf, .. } => Arc::strong_count(buf) > 1,
        };
        if shared {
            *self = Self::ZERO;
        }
    }

    /// Copy a narrow clock into the wide tier, with room for `extra`
    /// more pairs: one allocation. Any other clock is left as it is.
    fn widen(&mut self, extra: usize) {
        if let Repr::Heap { len, buf } = &self.repr {
            let wide = buf[..*len as usize]
                .iter()
                .map(|&(p, c)| (p, u64::from(c)))
                .chain(std::iter::repeat_n((0, 0), extra))
                .collect();
            self.repr = Repr::Wide {
                len: *len,
                buf: wide,
            };
        }
    }

    /// Move a wide clock whose counts all fit `u32` again back to the
    /// narrow tier (or inline), so the tier stays a function of the
    /// value.
    fn settle(&mut self) {
        if let Repr::Wide { len, buf } = &self.repr {
            let pairs = &buf[..*len as usize];
            if pairs.iter().all(|&(_, c)| c <= u64::from(u32::MAX)) {
                *self = Self::from_sorted(pairs);
            }
        }
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
            Repr::Wide { len, buf } => buf[..*len as usize].binary_search_by_key(&p, |&(q, _)| q),
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
            Repr::Heap { buf, .. } => u64::from(buf[i].1),
            Repr::Wide { buf, .. } => buf[i].1,
        }
    }

    /// Overwrite the stored count at position `i` with `c` (nonzero).
    /// The copy-on-write copy happens here for a shared spilled clock,
    /// and a narrow clock widens for a count above `u32::MAX`.
    #[inline]
    fn set_count(&mut self, i: usize, c: u64) {
        match &mut self.repr {
            Repr::Inline { counts, .. } => counts[i] = c,
            Repr::Heap { len, buf } => match u32::try_from(c) {
                Ok(c) => heap_mut(len, buf, 0)[i].1 = c,
                Err(_) => self.widen_and_set(i, c),
            },
            Repr::Wide { len, buf } => heap_mut(len, buf, 0)[i].1 = c,
        }
    }

    /// [`VectorClock::set_count`] of a count that a narrow clock cannot
    /// hold: out of line, so the common write stays small enough to
    /// inline.
    #[cold]
    fn widen_and_set(&mut self, i: usize, c: u64) {
        self.widen(0);
        self.set_count(i, c);
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
            Repr::Heap { len, buf } => match u32::try_from(c) {
                Ok(c) => insert_pair(len, buf, i, (p, c)),
                Err(_) => {
                    self.widen(1);
                    self.insert_at(i, p, c);
                }
            },
            Repr::Wide { len, buf } => insert_pair(len, buf, i, (p, c)),
        }
    }

    /// Increment the component of process `p` (local event rule).
    #[inline]
    pub fn tick(&mut self, p: Pid) -> u64 {
        match self.find(p.0) {
            Ok(i) => {
                let c = self.count_at(i) + 1;
                self.set_count(i, c);
                c
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
        let c = self.count_at(i);
        if c > by {
            self.set_count(i, c - by);
        } else {
            match &mut self.repr {
                Repr::Inline { len, pids, counts } => {
                    let n = *len as usize;
                    pids.copy_within(i + 1..n, i);
                    counts.copy_within(i + 1..n, i);
                    *len -= 1;
                }
                Repr::Heap { len, buf } => remove_pair(len, buf, i),
                Repr::Wide { len, buf } => remove_pair(len, buf, i),
            }
        }
        self.settle();
    }

    /// Raise the component of `p` to at least `c`.
    fn raise(&mut self, p: Pid, c: u64) {
        match self.find(p.0) {
            Ok(i) if self.count_at(i) < c => self.set_count(i, c),
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
        if let Repr::Inline { len, pids, counts } = &other.repr {
            for (&p, &c) in pids.iter().zip(counts).take(*len as usize) {
                self.raise(Pid(p), c);
            }
        } else if !self.is_spilled() {
            // Merge commutes: start from a handle on `other`'s buffer.
            let few = std::mem::replace(self, other.clone());
            few.entries().for_each(|(p, c)| self.raise(p, c));
        } else if !self.shares_storage_with(other) {
            self.merge_with(other, None);
        }
    }

    /// The receive rule: `tick(p)`, then `merge(other)`, with one result.
    /// When both clocks are spilled and `self` already counts `p` — the
    /// steady state of a delivery — it is one pass: the pids `other`
    /// brings are surveyed first, so a clock shared with a checkpoint
    /// or a Scroll entry is copied once, already sized for them, where
    /// `tick` would copy it and `merge` grow the copy again.
    pub fn receive(&mut self, p: Pid, other: &VectorClock) {
        if self.is_spilled() && other.is_spilled() {
            if let Ok(i) = self.find(p.0) {
                let c = self.count_at(i) + 1;
                self.merge_with(other, Some((i, c)));
                return;
            }
        }
        self.tick(p);
        self.merge(other);
    }

    /// Write `tick`'s count at `tick`'s position, if there is one, then
    /// raise this clock to `other` pointwise. Two spilled clocks — all
    /// that `merge` and `receive` hand it — take [`merge_pairs`] in this
    /// clock's tier, a narrow one widening first to meet a count above
    /// `u32::MAX`; an inline clock on either side would have its pairs
    /// raised one by one.
    fn merge_with(&mut self, other: &VectorClock, tick: Option<(usize, u64)>) {
        let narrow_tick = tick
            .map(|(i, c)| u32::try_from(c).map(|c| (i, c)))
            .transpose();
        match (&mut self.repr, &other.repr, narrow_tick) {
            (Repr::Heap { len, buf }, Repr::Heap { len: m, buf: b }, Ok(tick)) => {
                merge_pairs(len, buf, &b[..*m as usize], tick)
            }
            (Repr::Wide { len, buf }, Repr::Heap { len: m, buf: b }, _) => {
                merge_pairs(len, buf, &b[..*m as usize], tick)
            }
            (Repr::Wide { len, buf }, Repr::Wide { len: m, buf: b }, _) => {
                merge_pairs(len, buf, &b[..*m as usize], tick)
            }
            (Repr::Heap { .. }, Repr::Heap { .. } | Repr::Wide { .. }, _) => {
                self.widen(0);
                self.merge_with(other, tick);
            }
            _ => {
                if let Some((i, c)) = tick {
                    self.set_count(i, c);
                }
                other.entries().for_each(|(p, c)| self.raise(p, c));
            }
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
        both_pairs!((a, b) = (self.as_pairs(&mut sa), other.as_pairs(&mut sb)) => leq_pairs(a, b))
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
            Repr::Heap { len, buf } => buf[..*len as usize]
                .get(i)
                .map(|&(p, c)| (Pid(p), u64::from(c))),
            Repr::Wide { len, buf } => buf[..*len as usize].get(i).map(|&(p, c)| (Pid(p), c)),
        }
    }
}

// Equality, hashing, and ordering are defined over the *logical* pair
// sequence so clocks with the same components are the same value in
// whichever tier each sits (the representation is an implementation
// detail).
impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        if self.shares_storage_with(other) {
            return true;
        }
        let (mut sa, mut sb) = ([(0, 0); INLINE_PAIRS], [(0, 0); INLINE_PAIRS]);
        both_pairs!((a, b) = (self.as_pairs(&mut sa), other.as_pairs(&mut sb)) => eq_pairs(a, b))
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

    /// Which tier a clock sits in.
    fn tier(v: &VectorClock) -> &'static str {
        match v.repr {
            Repr::Inline { .. } => "inline",
            Repr::Heap { .. } => "narrow",
            Repr::Wide { .. } => "wide",
        }
    }

    /// Equal values are equal clocks with equal hashes and equal
    /// resident bytes in whichever tier each sits: inline against a
    /// narrow buffer, inline against a wide one, and a narrow clock
    /// ticked into the wide tier and unticked back.
    #[test]
    fn hash_agrees_across_reprs() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |v: &VectorClock| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let same = |a: &VectorClock, b: &VectorClock, tiers: [&str; 2]| {
            assert_eq!([tier(a), tier(b)], tiers);
            assert_eq!(a, b);
            assert_eq!(hash(a), hash(b));
            assert_eq!(a.resident_bytes(), b.resident_bytes());
        };
        // A spilled clock unticked down to one pair keeps its buffer.
        let mut narrow = VectorClock::from_pairs((0..=4).map(|p| (p, 1)).collect());
        narrow.tick(Pid(4));
        (0..4).for_each(|p| narrow.untick(Pid(p), 1));
        same(
            &VectorClock::single(Pid(4), 2),
            &narrow,
            ["inline", "narrow"],
        );

        let big = u64::from(u32::MAX) + 7;
        let mut wide = VectorClock::from_pairs(vec![(0, 1), (1, 5), (3, 1), (4, big)]);
        wide.untick(Pid(0), 1);
        let inline = VectorClock::from_pairs(vec![(1, 5), (3, 1), (4, big)]);
        same(&inline, &wide, ["inline", "wide"]);

        let start = VectorClock::from_pairs((0..8).map(|p| (p, u64::from(u32::MAX) - 1)).collect());
        let mut crossed = start.clone();
        crossed.tick(Pid(3));
        assert_eq!(tier(&crossed), "narrow", "u32::MAX still fits");
        crossed.tick(Pid(3));
        assert_eq!(tier(&crossed), "wide");
        assert_eq!(crossed.get(Pid(3)), u64::from(u32::MAX) + 1);
        assert_ne!(crossed, start);
        crossed.untick(Pid(3), 2);
        same(&start, &crossed, ["narrow", "narrow"]);
    }

    /// A narrow clock widens for every way a wider count reaches it —
    /// tick, merge, receive, and the constructors — without touching
    /// another handle on its buffer; the wire forms and `with_delta`
    /// round-trip counts either side of `u32::MAX`.
    #[test]
    fn narrow_clocks_widen_for_wide_counts() {
        let max = u64::from(u32::MAX);
        let narrow = VectorClock::from_pairs((0..6).map(|p| (2 * p, max)).collect());
        let big = VectorClock::from_pairs((0..6).map(|p| (2 * p + 1, max + 1)).collect());
        assert_eq!([tier(&narrow), tier(&big)], ["narrow", "wide"]);
        assert_eq!(narrow.resident_bytes(), 6 * 8);
        assert_eq!(big.resident_bytes(), 6 * 16);

        let mut merged = narrow.clone();
        merged.merge(&big);
        assert_eq!(tier(&merged), "wide");
        assert_eq!(
            (merged.nnz(), merged.get(Pid(0)), merged.get(Pid(1))),
            (12, max, max + 1)
        );
        assert_eq!((tier(&narrow), narrow.nnz()), ("narrow", 6));

        // The receive's own tick widens, and from a wide clock too.
        let mut ticked = narrow.clone();
        ticked.receive(Pid(2), &VectorClock::from_vec(vec![1; 5]));
        assert_eq!(
            (tier(&ticked), ticked.get(Pid(2)), ticked.get(Pid(1))),
            ("wide", max + 1, 1)
        );
        let mut received = narrow.clone();
        received.receive(Pid(0), &big);
        let mut want = narrow.clone();
        want.tick(Pid(0));
        want.merge(&big);
        assert_eq!(received, want);
        assert_eq!(narrow.get(Pid(0)), max);

        // An inline clock's wide count raised into a narrow one.
        let mut raised = narrow.clone();
        raised.merge(&VectorClock::single(Pid(7), u64::MAX));
        assert_eq!((tier(&raised), raised.get(Pid(7))), ("wide", u64::MAX));

        let shifted = narrow.with_delta(&[(0, 1), (4, 2u64.wrapping_neg())]);
        assert_eq!(tier(&shifted), "wide");
        assert_eq!(
            (shifted.get(Pid(0)), shifted.get(Pid(4))),
            (max + 1, max - 2)
        );
        assert_eq!(
            shifted.with_delta(&[(0, u64::MAX)]),
            narrow.with_delta(&[(4, 2u64.wrapping_neg())])
        );
        // Across tiers the delta is the same bytes: two changed pairs,
        // (gap 0, zigzag(+1)) and (gap 4, zigzag(-2)).
        let mut buf = Vec::new();
        shifted.put_wire_delta(&narrow, &mut buf);
        assert_eq!(buf, [2, 0, 2, 4, 3]);
        assert!(narrow.leq(&merged) && big.leq(&merged) && !merged.leq(&big));
    }
}
