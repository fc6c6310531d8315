//! The work-stealing frontier engine.
//!
//! Exploration factored cspx-style into three replaceable parts:
//!
//! * a [`TransitionProvider`] — where states and their successors come
//!   from (every [`TransitionSystem`] is one for free);
//! * a [`StateStore`] — the deduplicating visited set that assigns each
//!   distinct state its 64-bit key ([`FingerprintStore`] hashes states,
//!   [`PagedStateStore`] interns their serialized bytes into a shared
//!   [`fixd_store::PageStore`] so the page hashes ARE the identity and a
//!   revisit is a refcount bump, not a rehash of the full state);
//! * a [`WorkQueue`] — how pending states are distributed over workers
//!   ([`StealQueue`]: per-worker deques, owners pop LIFO, idle workers
//!   steal half a victim's deque from the front).
//!
//! Unlike the old layer-barriered parallel BFS, nothing here
//! synchronizes on depth: workers expand whatever is nearest, and a
//! per-state *relaxation* rule keeps the result deterministic anyway.
//! Every discovered edge `p --(label #i)--> c` offers the candidate
//! tuple `(depth(p)+1, key(p), i)` to `c`; the state keeps the
//! lexicographic minimum and is re-expanded when its depth strictly
//! improves. At quiescence every depth equals the exact BFS distance and
//! every parent pointer is the canonical minimum over shortest-path
//! predecessors — so the reachable set, the verdict, every violation
//! trail, and the transition count are byte-identical for ANY worker
//! count and ANY steal schedule.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use fixd_store::{PageStore, PagedImage, StoreStats, DEFAULT_PAGE_SIZE};

use crate::explorer::{ExploreConfig, ExploreReport};
use crate::invariant::Invariant;
use crate::system::TransitionSystem;
use crate::trail::Trail;

/// Supplies the root state and successor transitions to the engine.
///
/// Blanket-implemented for every [`TransitionSystem`]; implement it
/// directly for sources that are not transition systems (e.g. replaying
/// a recorded graph).
pub trait TransitionProvider: Sync {
    /// Global state of the explored system.
    type State: Clone + Send;
    /// Transition label.
    type Label: Clone + Send + PartialEq + std::fmt::Debug;

    /// The exploration root.
    fn root(&self) -> Self::State;

    /// All `(label, successor)` pairs enabled in `s`, in the system's
    /// canonical label order (the order indexes the canonical-parent
    /// tie-break).
    fn successors(&self, s: &Self::State) -> Vec<(Self::Label, Self::State)>;

    /// Is a state with no successors an acceptable end state (not a
    /// deadlock)?
    fn expected_terminal(&self, _s: &Self::State) -> bool {
        true
    }
}

impl<T: TransitionSystem> TransitionProvider for T {
    type State = T::State;
    type Label = T::Label;

    fn root(&self) -> T::State {
        self.initial()
    }

    fn successors(&self, s: &T::State) -> Vec<(T::Label, T::State)> {
        self.enabled(s)
            .into_iter()
            .map(|l| {
                let next = self.apply(s, &l);
                (l, next)
            })
            .collect()
    }

    fn expected_terminal(&self, s: &T::State) -> bool {
        self.is_expected_terminal(s)
    }
}

/// Dedup counters of a [`StateStore`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Interns that found the state already present.
    pub hits: u64,
    /// Interns that inserted a fresh state.
    pub misses: u64,
}

impl DedupStats {
    /// Fraction of interns that deduplicated (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The deduplicating visited set: maps each distinct state to a stable
/// 64-bit key. `intern` must be linearizable (exactly one caller sees
/// `fresh == true` per distinct state) and the key must not depend on
/// intern order.
pub trait StateStore<S>: Sync {
    /// Intern a state; returns its key and whether this call inserted it.
    fn intern(&self, s: &S) -> (u64, bool);

    /// Distinct states interned so far.
    fn len(&self) -> usize;

    /// True before anything was interned.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters.
    fn dedup_stats(&self) -> DedupStats;
}

const STORE_SHARDS: usize = 64;

/// A [`StateStore`] keyed by a caller-provided 64-bit hash function
/// (typically [`TransitionSystem::fingerprint`]): the exact visited-set
/// semantics of the serial [`crate::Explorer`].
pub struct FingerprintStore<F> {
    shards: Vec<Mutex<std::collections::HashSet<u64>>>,
    hash: F,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<F> FingerprintStore<F> {
    /// An empty store hashing states with `hash`.
    pub fn new(hash: F) -> Self {
        Self {
            shards: (0..STORE_SHARDS)
                .map(|_| Mutex::new(std::collections::HashSet::new()))
                .collect(),
            hash,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<S, F: Fn(&S) -> u64 + Sync> StateStore<S> for FingerprintStore<F> {
    fn intern(&self, s: &S) -> (u64, bool) {
        let key = (self.hash)(s);
        let fresh = self.shards[(key % STORE_SHARDS as u64) as usize]
            .lock()
            .insert(key);
        if fresh {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (key, fresh)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|m| m.lock().len()).sum()
    }

    fn dedup_stats(&self) -> DedupStats {
        DedupStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// A [`StateStore`] whose identity is **content hashes through
/// `fixd-store` paging**: each state is serialized and interned as a
/// [`PagedImage`] in a shared [`PageStore`]; its key is
/// [`PagedImage::identity`] (FNV over the page keys). States that share
/// pages — localized mutations, common substructure, other explorations
/// over the same store — share storage, and re-interning a visited state
/// is per-page refcount bumps on hash hits rather than a rehash of the
/// full state.
pub struct PagedStateStore<F> {
    pages: PageStore,
    page_size: usize,
    encode: F,
    shards: Vec<Mutex<HashMap<u64, PagedImage>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<F> PagedStateStore<F> {
    /// A store serializing states with `encode` into `pages`. The
    /// encoding must be canonical: equal states (as the exploration
    /// should identify them) must encode to equal bytes.
    pub fn new(pages: PageStore, encode: F) -> Self {
        Self::with_page_size(pages, encode, DEFAULT_PAGE_SIZE)
    }

    /// Same, with an explicit page size.
    pub fn with_page_size(pages: PageStore, encode: F, page_size: usize) -> Self {
        Self {
            pages,
            page_size,
            encode,
            shards: (0..STORE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The backing page store (shared; clone to hold onto it).
    pub fn page_store(&self) -> &PageStore {
        &self.pages
    }

    /// Page-level intern counters from the backing store.
    pub fn page_stats(&self) -> StoreStats {
        self.pages.stats()
    }
}

impl<S, F: Fn(&S, &mut Vec<u8>) + Sync> StateStore<S> for PagedStateStore<F> {
    fn intern(&self, s: &S) -> (u64, bool) {
        let mut buf = Vec::new();
        (self.encode)(s, &mut buf);
        let img = PagedImage::from_bytes_with(&self.pages, &buf, self.page_size);
        let key = img.identity();
        let mut shard = self.shards[(key % STORE_SHARDS as u64) as usize].lock();
        let fresh = match shard.entry(key) {
            std::collections::hash_map::Entry::Vacant(e) => {
                // Keep the image: its handles keep the pages resident, so
                // every future revisit dedups against them.
                e.insert(img);
                true
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                // `img` drops here; its refcount bumps roll back and the
                // interned copy stays.
                false
            }
        };
        drop(shard);
        if fresh {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (key, fresh)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|m| m.lock().len()).sum()
    }

    fn dedup_stats(&self) -> DedupStats {
        DedupStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Distributes pending state keys over `workers` workers.
pub trait WorkQueue<I>: Sync {
    /// Enqueue `item` on `worker`'s lane.
    fn push(&self, worker: usize, item: I);

    /// Dequeue work for `worker` — its own lane first, then (for
    /// stealing queues) other workers' lanes.
    fn pop(&self, worker: usize) -> Option<I>;

    /// Successful steal operations so far (0 for non-stealing queues).
    fn steals(&self) -> u64 {
        0
    }
}

/// Per-worker deques with steal-half: owners push/pop LIFO at the back
/// (depth-first locality, hot caches); an idle worker scans the other
/// lanes and moves the front *half* of the first non-empty one into its
/// own lane (the front of a lane is its oldest, shallowest work — the
/// part the owner would reach last). Two locks are never held at once.
pub struct StealQueue<I> {
    lanes: Vec<Mutex<VecDeque<I>>>,
    steals: AtomicU64,
}

impl<I> StealQueue<I> {
    /// A queue with one lane per worker.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one lane");
        Self {
            lanes: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            steals: AtomicU64::new(0),
        }
    }

    /// Number of lanes.
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }
}

impl<I: Send> WorkQueue<I> for StealQueue<I> {
    fn push(&self, worker: usize, item: I) {
        self.lanes[worker].lock().push_back(item);
    }

    fn pop(&self, worker: usize) -> Option<I> {
        if let Some(item) = self.lanes[worker].lock().pop_back() {
            return Some(item);
        }
        let n = self.lanes.len();
        for off in 1..n {
            let victim = (worker + off) % n;
            let mut stolen: VecDeque<I> = {
                let mut lane = self.lanes[victim].lock();
                let len = lane.len();
                if len == 0 {
                    continue;
                }
                lane.drain(..len.div_ceil(2)).collect()
            };
            self.steals.fetch_add(1, Ordering::Relaxed);
            let item = stolen.pop_back();
            if !stolen.is_empty() {
                let mut own = self.lanes[worker].lock();
                // Preserve relative order at the front of our lane so the
                // stolen batch stays stealable-from in turn.
                while let Some(i) = stolen.pop_back() {
                    own.push_front(i);
                }
            }
            return item;
        }
        None
    }

    fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }
}

/// Per-state record in the exploration graph.
struct Info<S, L> {
    state: S,
    depth: usize,
    /// Canonical in-edge: `(parent key, label index, label)`, minimized
    /// lexicographically by `(depth, parent key, label index)`.
    parent: Option<(u64, u32, L)>,
    /// A queue entry for this key exists.
    queued: bool,
    /// Children have been processed at least once (guards the one-time
    /// transition/deadlock accounting).
    expanded: bool,
    /// False for violating states: they relax (their trail must be
    /// shortest) but are never expanded, matching the serial engine.
    expandable: bool,
}

struct InfoMap<S, L> {
    shards: Vec<Mutex<HashMap<u64, Info<S, L>>>>,
}

impl<S, L> InfoMap<S, L> {
    fn new() -> Self {
        Self {
            shards: (0..STORE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    #[inline]
    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Info<S, L>>> {
        &self.shards[(key % STORE_SHARDS as u64) as usize]
    }
}

/// What one engine run measured about itself (the report carries the
/// verdict; this carries the performance story).
#[derive(Clone, Debug, Default)]
pub struct FrontierMetrics {
    /// Workers used.
    pub workers: usize,
    /// Per-worker busy time (lock waits included): the critical path of
    /// the run under perfect scheduling is the maximum entry.
    pub busy: Vec<Duration>,
    /// Per-worker count of nodes popped and processed. On hosts with
    /// fewer cores than workers the busy clocks absorb preemption, so
    /// load balance is the contention-free signal: the modelled critical
    /// path is `max_share()` of the serial work.
    pub processed: Vec<u64>,
    /// Successful steals.
    pub steals: u64,
    /// Visited-set dedup counters.
    pub dedup: DedupStats,
    /// States re-expanded because their depth improved after their first
    /// expansion (the price of barrier-free determinism; ~0 in practice).
    pub reexpansions: u64,
}

impl FrontierMetrics {
    /// The longest per-worker busy time — the modelled critical path.
    pub fn critical_path(&self) -> Duration {
        self.busy.iter().max().copied().unwrap_or_default()
    }

    /// The busiest worker's share of all processed nodes, in `[1/workers,
    /// 1.0]`. Under uniform per-node cost, a run balanced to share `s`
    /// completes in `s` of the serial time on enough cores.
    pub fn max_share(&self) -> f64 {
        let total: u64 = self.processed.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = self.processed.iter().copied().max().unwrap_or(0);
        max as f64 / total as f64
    }
}

/// Explore `provider` over `store` and `queue` with `workers` workers.
///
/// Semantics (states, transitions, violations, deadlocks, truncation)
/// match the serial [`crate::Explorer`] in BFS order, independent of
/// `workers`; see the module docs for why. `cfg.order` and
/// `cfg.use_reduction` are ignored (the engine is BFS-equivalent and
/// unreduced). Violation and deadlock trails are sorted canonically by
/// `(depth, end key, violation name)`.
pub fn explore_frontier<P, St, Q>(
    provider: &P,
    store: &St,
    queue: &Q,
    invariants: &[Invariant<P::State>],
    cfg: &ExploreConfig,
    workers: usize,
) -> (ExploreReport<P::Label>, FrontierMetrics)
where
    P: TransitionProvider,
    St: StateStore<P::State>,
    Q: WorkQueue<u64>,
{
    assert!(workers > 0, "need at least one worker");

    let infos: InfoMap<P::State, P::Label> = InfoMap::new();
    let pending = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let truncated = AtomicBool::new(false);
    let violation_count = AtomicUsize::new(0);
    let reexpansions = AtomicU64::new(0);
    // (end key, violation name): recorded once per violating state by
    // whichever worker freshly interned it.
    let violations: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
    let deadlocks: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    // Root: interned, recorded, and (matching the serial engine) always
    // expandable — even a violating root is expanded unless the run
    // stops at the first violation.
    let root = provider.root();
    let (root_key, _) = store.intern(&root);
    let mut root_violating = false;
    if let Some(inv) = invariants.iter().find(|i| !i.holds(&root)) {
        violations.lock().push((root_key, inv.name.clone()));
        violation_count.store(1, Ordering::Relaxed);
        root_violating = true;
    }
    infos.shard(root_key).lock().insert(
        root_key,
        Info {
            state: root,
            depth: 0,
            parent: None,
            queued: true,
            expanded: false,
            expandable: true,
        },
    );
    let stop_now = root_violating && cfg.stop_at_first_violation;
    if stop_now {
        stop.store(true, Ordering::Relaxed);
    } else {
        pending.fetch_add(1, Ordering::Relaxed);
        queue.push(0, root_key);
    }

    let transitions_total = AtomicU64::new(0);
    let lanes: Vec<(Duration, u64)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let infos = &infos;
            let pending = &pending;
            let stop = &stop;
            let truncated = &truncated;
            let violation_count = &violation_count;
            let violations = &violations;
            let deadlocks = &deadlocks;
            let transitions_total = &transitions_total;
            let reexpansions = &reexpansions;
            handles.push(scope.spawn(move || {
                let mut busy = Duration::ZERO;
                let mut processed = 0u64;
                let mut transitions = 0u64;
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Some(key) = queue.pop(w) else {
                        if pending.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    };
                    let t0 = Instant::now();
                    process_key::<P, St, Q>(
                        provider,
                        store,
                        queue,
                        invariants,
                        cfg,
                        w,
                        key,
                        infos,
                        pending,
                        stop,
                        truncated,
                        violation_count,
                        violations,
                        deadlocks,
                        reexpansions,
                        &mut transitions,
                    );
                    busy += t0.elapsed();
                    processed += 1;
                    // Only after the children are pushed: pending == 0
                    // then proves global quiescence.
                    pending.fetch_sub(1, Ordering::Release);
                }
                transitions_total.fetch_add(transitions, Ordering::Relaxed);
                (busy, processed)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    // Assemble the report from the converged graph.
    let mut max_depth_reached = 0usize;
    for shard in &infos.shards {
        for info in shard.lock().values() {
            max_depth_reached = max_depth_reached.max(info.depth);
        }
    }
    let depth_of = |key: u64| -> usize {
        infos
            .shard(key)
            .lock()
            .get(&key)
            .map(|i| i.depth)
            .unwrap_or(0)
    };
    let reconstruct = |end: u64, violation: &str| -> Trail<P::Label> {
        let mut labels = Vec::new();
        let mut at = end;
        while at != root_key {
            let parent = infos
                .shard(at)
                .lock()
                .get(&at)
                .and_then(|i| i.parent.clone());
            match parent {
                Some((prev, _, l)) => {
                    labels.push(l);
                    at = prev;
                }
                None => break,
            }
        }
        labels.reverse();
        Trail {
            depth: labels.len(),
            labels,
            violation: violation.to_string(),
            end_fingerprint: end,
        }
    };

    let mut violation_ends = violations.into_inner();
    violation_ends.sort_by(|a, b| (depth_of(a.0), a.0, &a.1).cmp(&(depth_of(b.0), b.0, &b.1)));
    let mut deadlock_ends = deadlocks.into_inner();
    deadlock_ends.sort_by_key(|&k| (depth_of(k), k));

    let report = ExploreReport {
        states: store.len(),
        transitions: transitions_total.load(Ordering::Relaxed),
        max_depth_reached,
        violations: violation_ends
            .into_iter()
            .take(cfg.max_violations)
            .map(|(k, name)| reconstruct(k, &name))
            .collect(),
        deadlocks: deadlock_ends
            .into_iter()
            .map(|k| reconstruct(k, "deadlock"))
            .collect(),
        // A violating root under stop-at-first is a complete answer, not
        // a truncation — matching the serial engine's early return.
        truncated: truncated.load(Ordering::Relaxed),
    };
    let (busy, processed): (Vec<Duration>, Vec<u64>) = lanes.into_iter().unzip();
    let metrics = FrontierMetrics {
        workers,
        busy,
        processed,
        steals: queue.steals(),
        dedup: store.dedup_stats(),
        reexpansions: reexpansions.load(Ordering::Relaxed),
    };
    (report, metrics)
}

/// Expand one popped key: read its current depth, compute successors,
/// account once, and relax every out-edge.
#[allow(clippy::too_many_arguments)]
fn process_key<P, St, Q>(
    provider: &P,
    store: &St,
    queue: &Q,
    invariants: &[Invariant<P::State>],
    cfg: &ExploreConfig,
    worker: usize,
    key: u64,
    infos: &InfoMap<P::State, P::Label>,
    pending: &AtomicUsize,
    stop: &AtomicBool,
    truncated: &AtomicBool,
    violation_count: &AtomicUsize,
    violations: &Mutex<Vec<(u64, String)>>,
    deadlocks: &Mutex<Vec<u64>>,
    reexpansions: &AtomicU64,
    transitions: &mut u64,
) where
    P: TransitionProvider,
    St: StateStore<P::State>,
    Q: WorkQueue<u64>,
{
    // The one-time accounting is claimed in the critical section that
    // reads it: between two sections, a depth relaxation could requeue
    // the key and a second worker would also see it unexpanded. A state
    // at the depth cap is not expanded, so it stays unclaimed for the
    // improver's requeue to account.
    let (state, depth, mut first) = {
        let mut shard = infos.shard(key).lock();
        let info = shard.get_mut(&key).expect("queued key has an info entry");
        info.queued = false;
        let first = !info.expanded;
        if info.depth < cfg.max_depth {
            info.expanded = true;
        }
        (info.state.clone(), info.depth, first)
    };

    let succs = provider.successors(&state);
    if succs.is_empty() {
        if depth >= cfg.max_depth {
            // A terminal state is accounted at any depth; claim it now.
            let mut shard = infos.shard(key).lock();
            let info = shard.get_mut(&key).expect("entry");
            first = !std::mem::replace(&mut info.expanded, true);
        }
        if first && cfg.detect_deadlocks && !provider.expected_terminal(&state) {
            deadlocks.lock().push(key);
        }
        return;
    }
    if depth >= cfg.max_depth {
        // Not expanded: if the depth later improves below the cap, the
        // improver requeues it.
        truncated.store(true, Ordering::Relaxed);
        return;
    }
    if first {
        *transitions += succs.len() as u64;
    } else {
        reexpansions.fetch_add(1, Ordering::Relaxed);
    }

    let child_depth = depth + 1;
    for (idx, (label, next)) in succs.into_iter().enumerate() {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let (ckey, fresh) = store.intern(&next);
        let candidate = (child_depth, key, idx as u32);
        if fresh {
            // We own classification: check invariants outside any lock,
            // then publish the entry.
            let bad = invariants
                .iter()
                .find(|i| !i.holds(&next))
                .map(|i| i.name.clone());
            let expandable = bad.is_none();
            {
                let mut shard = infos.shard(ckey).lock();
                shard.insert(
                    ckey,
                    Info {
                        state: next,
                        depth: child_depth,
                        parent: Some((key, idx as u32, label)),
                        queued: expandable,
                        expanded: false,
                        expandable,
                    },
                );
            }
            if let Some(name) = bad {
                violations.lock().push((ckey, name));
                let seen = violation_count.fetch_add(1, Ordering::Relaxed) + 1;
                if seen >= cfg.max_violations || cfg.stop_at_first_violation {
                    truncated.store(true, Ordering::Relaxed);
                    stop.store(true, Ordering::Relaxed);
                }
            } else {
                pending.fetch_add(1, Ordering::Release);
                queue.push(worker, ckey);
            }
            if store.len() >= cfg.max_states {
                truncated.store(true, Ordering::Relaxed);
                stop.store(true, Ordering::Relaxed);
            }
        } else {
            // Relax: keep the lexicographic minimum (depth, parent key,
            // label index); requeue on strict depth improvement. The
            // retry loop covers the tiny window where the fresh interner
            // has not yet published its info entry.
            loop {
                let mut shard = infos.shard(ckey).lock();
                let Some(info) = shard.get_mut(&ckey) else {
                    drop(shard);
                    std::thread::yield_now();
                    continue;
                };
                let current = (
                    info.depth,
                    info.parent.as_ref().map(|p| p.0).unwrap_or(0),
                    info.parent.as_ref().map(|p| p.1).unwrap_or(0),
                );
                if info.parent.is_some() && candidate < current {
                    let improved_depth = candidate.0 < current.0;
                    info.depth = candidate.0;
                    info.parent = Some((key, idx as u32, label.clone()));
                    if improved_depth && info.expandable && !info.queued {
                        info.queued = true;
                        drop(shard);
                        pending.fetch_add(1, Ordering::Release);
                        queue.push(worker, ckey);
                    }
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::Explorer;
    use crate::guarded::GuardedSystemBuilder;

    #[test]
    fn steal_queue_owner_lifo_and_steal_half() {
        let q: StealQueue<u64> = StealQueue::new(2);
        for i in 0..8 {
            q.push(0, i);
        }
        // Owner pops LIFO.
        assert_eq!(q.pop(0), Some(7));
        // Thief takes half the victim's lane from the front (oldest).
        let stolen = q.pop(1).expect("steals from lane 0");
        assert!(stolen < 4, "stole from the front, got {stolen}");
        assert_eq!(q.steals(), 1);
        // Everything drains exactly once between the two workers.
        let mut drained = vec![7, stolen];
        while let Some(i) = q.pop(0) {
            drained.push(i);
        }
        while let Some(i) = q.pop(1) {
            drained.push(i);
        }
        drained.sort_unstable();
        assert_eq!(drained, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn fingerprint_store_interns_once() {
        let store = FingerprintStore::new(|s: &u64| *s ^ 0xABCD);
        let (k1, fresh1) = store.intern(&7);
        let (k2, fresh2) = store.intern(&7);
        assert_eq!(k1, k2);
        assert!(fresh1);
        assert!(!fresh2);
        assert_eq!(store.len(), 1);
        let stats = store.dedup_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn paged_store_identity_is_content_hash_and_pages_shared() {
        let pages = PageStore::new();
        let store = PagedStateStore::with_page_size(
            pages.clone(),
            |s: &Vec<u8>, out: &mut Vec<u8>| out.extend_from_slice(s),
            64,
        );
        let a: Vec<u8> = vec![1u8; 640];
        let mut b = a.clone();
        b[630] = 2; // differs in the last page only
        let (ka, fa) = StateStore::intern(&store, &a);
        let (kb, fb) = StateStore::intern(&store, &b);
        assert!(fa && fb);
        assert_ne!(ka, kb);
        // Content sharing: the two states share the all-ones page.
        assert!(
            pages.stats().live_bytes < a.len() + b.len(),
            "pages shared across states"
        );
        // Revisit: same key, not fresh, and no new pages.
        let pages_before = pages.stats().live_pages;
        let (ka2, fa2) = StateStore::intern(&store, &a);
        assert_eq!(ka, ka2);
        assert!(!fa2);
        assert_eq!(pages.stats().live_pages, pages_before);
        assert_eq!(StateStore::<Vec<u8>>::len(&store), 2);
    }

    /// The engine over a paged store must agree with the serial explorer
    /// when the encoding is exactly as discriminating as the
    /// fingerprint.
    #[test]
    fn paged_store_exploration_matches_serial() {
        let sys = GuardedSystemBuilder::new([0u8; 3])
            .action("x", |s: &[u8; 3]| s[0] < 3, |s| s[0] += 1)
            .action("y", |s: &[u8; 3]| s[1] < 3, |s| s[1] += 1)
            .action("z", |s: &[u8; 3]| s[2] < 3, |s| s[2] += 1)
            .build();
        let seq = Explorer::new(&sys, ExploreConfig::default()).run();
        for workers in [1usize, 4] {
            let store = PagedStateStore::with_page_size(
                PageStore::new(),
                |s: &[u8; 3], out: &mut Vec<u8>| out.extend_from_slice(s),
                16,
            );
            let queue = StealQueue::new(workers);
            let (par, metrics) = explore_frontier(
                &sys,
                &store,
                &queue,
                &[],
                &ExploreConfig::default(),
                workers,
            );
            assert_eq!(seq.states, par.states, "workers={workers}");
            assert_eq!(seq.transitions, par.transitions);
            assert!(par.clean());
            // Every revisited edge target was a dedup hit.
            assert_eq!(metrics.dedup.misses as usize, par.states);
            assert_eq!(
                metrics.dedup.hits + metrics.dedup.misses,
                par.transitions + 1,
                "one intern per computed successor plus the root"
            );
        }
    }

    #[test]
    fn metrics_report_busy_lanes() {
        let sys = GuardedSystemBuilder::new([0u8; 2])
            .action("a", |s: &[u8; 2]| s[0] < 40, |s| s[0] += 1)
            .action("b", |s: &[u8; 2]| s[1] < 40, |s| s[1] += 1)
            .build();
        let store = FingerprintStore::new(|s: &[u8; 2]| u64::from(s[0]) << 8 | u64::from(s[1]));
        let queue = StealQueue::new(4);
        let (report, metrics) =
            explore_frontier(&sys, &store, &queue, &[], &ExploreConfig::default(), 4);
        assert_eq!(report.states, 41 * 41);
        assert_eq!(metrics.workers, 4);
        assert_eq!(metrics.busy.len(), 4);
        assert!(metrics.critical_path() >= *metrics.busy.iter().min().unwrap());
        // Every reachable state is popped at least once; re-expansions
        // can only add to the count.
        assert!(metrics.processed.iter().sum::<u64>() >= report.states as u64);
        let share = metrics.max_share();
        assert!((0.25..=1.0).contains(&share), "share={share}");
    }
}
