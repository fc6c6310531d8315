//! The exploration loop: the one engine behind [`crate::Explorer`].
//!
//! cspx-shaped: the [`TransitionSystem`] supplies states, a sharded map
//! is the visited set *and* the reachability graph, and a queue decides
//! what is expanded next, so **the queue is the search order**. One
//! worker drains a `Frontier` in [`ExploreConfig::order`] (BFS, seeded
//! random) or, for DFS, the one lane of a `StealQueue`; more than one
//! share a `StealQueue` (owners pop LIFO, idle workers steal the oldest
//! half of a lane) and ignore `order`. [`crate::Explorer::run`] picks the
//! count: every core for a run meant to finish, one for any other
//! ([`crate::Explorer::workers`]).
//!
//! Which order for what: a run meant to finish takes the LIFO lane
//! ([`ExploreConfig::exhaustive`]); its report does not depend on the
//! order, and the lane holds a stack of states where BFS holds a layer
//! (Chord-KV, 227k states: 48 states queued at the peak against 18,716,
//! 1.7x the states per second). A run that a limit may stop, a
//! diagnosis or a bounded check of an unbounded space, stays on
//! [`ExploreConfig::default`]: BFS, so that what it saw before the cut
//! are the shallowest states. What LIFO costs where path lengths differ,
//! and the guard that bounds it, are `StealQueue`'s docs.
//!
//! A queue item owns its state, so a state is dropped as soon as it has
//! been expanded; the map keeps only `key -> (depth, canonical parent,
//! flags)`, keyed by [`TransitionSystem::fingerprint`].
//!
//! # What is deterministic when
//!
//! Nothing synchronizes on depth. Every edge `p --(label #i)--> c`
//! offers `c` the tuple `(depth(p) + 1, key(p), i)`; `c` keeps the
//! lexicographic minimum and is queued again whenever its depth strictly
//! improves (the worker that found the improvement has just computed
//! `c`'s state, so it queues that copy, at that depth). An item is
//! expanded at the depth it was queued at, so popping one looks nothing
//! up; an item that has gone stale makes offers that lose to those of
//! the item queued after it. Transitions, deadlocks and terminal checks
//! are counted once per state, by the item queued at its discovery.
//!
//! When the queue runs dry every depth is the exact BFS distance and
//! every parent the canonical minimum over shortest-path predecessors.
//! A run that no limit stopped therefore reports the same states,
//! transitions, depth, deadlocks, violations and trails, label by label,
//! for **any** search order, worker count and steal schedule.
//! `violations` and `deadlocks` come sorted by `(depth, end fingerprint,
//! name)`, not in discovery order. The depth cap alone does not make a
//! run schedule-dependent either: whether it truncated the run is read
//! off the final graph.
//!
//! A run stopped by `max_states`, `max_violations` or
//! `stop_at_first_violation` reports what it had when it stopped. At one
//! worker that is a function of the system and the configuration alone,
//! the requeue at which the guard turns a LIFO lane included (in BFS
//! order: the counts of a textbook BFS cut at the same point).
//! At more than one worker it depends on the schedule, and a few more
//! than `max_violations` trails can come back, because every worker
//! finishes the successor it is on; [`crate::Explorer::run`] therefore
//! explores such a run again on one worker.
//!
//! # Panics
//!
//! A panic in the system or an invariant on any worker stops every
//! other worker and is resumed on the caller with its own payload. It
//! cannot hang the run: the item being expanded never leaves `pending`,
//! so the others would otherwise wait for a quiescence that never comes.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::explorer::{ExploreConfig, ExploreReport};
use crate::invariant::Invariant;
use crate::search::Frontier;
use crate::system::TransitionSystem;
use crate::trail::Trail;

/// The LIFO lanes: one per worker, so one lane is [`SearchOrder::Dfs`]
/// at one worker. Owners push and pop at the back (a state is expanded
/// while the caches still hold it, and a lane holds a stack of states,
/// not a BFS layer); an idle worker scans the other lanes and moves the
/// front *half* of the first non-empty one into its own (the front of a
/// lane is its oldest, shallowest work, the part the owner would reach
/// last). Two locks are never held at once.
///
/// LIFO with depth relaxation is a label-correcting search: where paths
/// of different length meet it expands a subgraph once per improvement
/// of its entry depth. The lanes therefore carry a guard: the loop
/// reports every state a relaxation queued again ([`Self::requeued`]),
/// and once those pass [`Self::REQUEUE_FLOOR`] and an eighth of the
/// visited states, every lane is drained from the front for the rest of
/// the run: oldest first, which is breadth-first but for what the lanes
/// held at the flip. One flag, set once; at one worker it is set at the
/// same requeue in every run.
pub(crate) struct StealQueue<I> {
    lanes: Vec<Mutex<VecDeque<I>>>,
    requeues: AtomicUsize,
    fifo: AtomicBool,
}

impl<I> StealQueue<I> {
    /// Below this many requeues the guard holds still whatever the run's
    /// size: a diagnosis-sized run is over before the order matters.
    const REQUEUE_FLOOR: usize = 1024;

    /// A queue with one lane per worker.
    pub fn new(workers: usize) -> Self {
        Self {
            lanes: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            requeues: AtomicUsize::new(0),
            fifo: AtomicBool::new(false),
        }
    }

    pub fn push(&self, worker: usize, item: I) {
        self.lanes[worker].lock().push_back(item);
    }

    /// The next item of a lane: its newest, or its oldest once the guard
    /// has turned the lanes around.
    fn take(&self, lane: &mut VecDeque<I>) -> Option<I> {
        if self.fifo.load(Ordering::Relaxed) {
            lane.pop_front()
        } else {
            lane.pop_back()
        }
    }

    /// `worker`'s next item, or else the next of a stolen half.
    pub fn pop(&self, worker: usize) -> Option<I> {
        if let Some(item) = self.take(&mut self.lanes[worker].lock()) {
            return Some(item);
        }
        let n = self.lanes.len();
        for off in 1..n {
            let mut stolen: VecDeque<I> = {
                let mut lane = self.lanes[(worker + off) % n].lock();
                let len = lane.len();
                lane.drain(..len.div_ceil(2)).collect()
            };
            let item = self.take(&mut stolen);
            if item.is_some() {
                // In front of anything pushed meanwhile, in the victim's
                // order, so the batch can be stolen from in turn.
                let mut own = self.lanes[worker].lock();
                for i in stolen.into_iter().rev() {
                    own.push_front(i);
                }
                return item;
            }
        }
        None
    }

    /// The guard: a relaxation queued an already visited state again,
    /// with `states` visited so far.
    pub fn requeued(&self, states: usize) {
        if self.fifo.load(Ordering::Relaxed) {
            return;
        }
        let requeues = self.requeues.fetch_add(1, Ordering::Relaxed) + 1;
        if requeues > Self::REQUEUE_FLOOR.max(states / 8) {
            self.fifo.store(true, Ordering::Relaxed);
        }
    }
}

/// The pending work, and with it the search order.
enum Queue<I> {
    Ordered(Mutex<Frontier<I>>),
    Stealing(StealQueue<I>),
}

impl<I> Queue<I> {
    fn push(&self, worker: usize, item: I) {
        match self {
            Queue::Ordered(f) => f.lock().push(item),
            Queue::Stealing(q) => q.push(worker, item),
        }
    }

    fn pop(&self, worker: usize) -> Option<I> {
        match self {
            Queue::Ordered(f) => f.lock().pop(),
            Queue::Stealing(q) => q.pop(worker),
        }
    }

    /// A relaxation queued a visited state again. BFS at one worker
    /// never does; the random order pays for its draws as it always has.
    fn requeued(&self, states: usize) {
        if let Queue::Stealing(q) = self {
            q.requeued(states);
        }
    }
}

/// A state waiting to be expanded. It owns the state: nothing else
/// keeps one alive.
struct Item<S> {
    key: u64,
    state: S,
    /// The depth the graph held for `key` when this item was queued.
    depth: u32,
    /// This item carries the state's one-time accounting (transitions,
    /// deadlock, terminal checks). The item queued when the state is
    /// discovered has it; one queued by a later relaxation does not,
    /// unless the depth cap made an earlier item hand it back.
    first: bool,
}

/// What the graph knows of a visited state: its canonical in-edge,
/// minimal by `(depth, parent key, label index)`, and two flags. Laid out
/// to cost what the visited set alone would (24 bytes for a 12-byte
/// label, 32 a state with the key): the table is the run's largest
/// allocation and every transition probes it.
///
/// The label index is not stored. Every expansion of a parent offers
/// its labels in index order, so of the edges one parent has to one
/// child the lowest-indexed is offered first at any depth, and a later
/// offer with an equal `(depth, parent key)` changes nothing.
struct Node<L> {
    /// Key of the parent on the canonical in-edge (unused in the root).
    parent: u64,
    /// Label of the canonical in-edge; `None` in the root.
    label: Option<L>,
    /// `depth << 2 | OWED | VIOLATING`.
    bits: u32,
}

/// The state violates an invariant: its depth still relaxes (the trail
/// must be shortest) but it is never expanded.
const VIOLATING: u32 = 1;
/// The depth cap kept the item that carried the one-time accounting
/// from expanding: the relaxation that brings the state under the cap
/// takes it along, and a run that ends with one still here is truncated.
const OWED: u32 = 2;
/// Depths are 30 bits; a graph that deep does not fit in memory.
const MAX_DEPTH: u32 = (1 << 30) - 1;

impl<L> Node<L> {
    fn depth(&self) -> u32 {
        self.bits >> 2
    }
}

/// Visited set and reachability graph in one, sharded by key.
struct Graph<L> {
    shards: Vec<Mutex<HashMap<u64, Node<L>>>>,
}

impl<L> Graph<L> {
    /// One table for one worker (nobody to contend with; a diagnosis
    /// explores a few dozen states), sixteen per worker otherwise.
    fn new(workers: usize) -> Self {
        let shards = if workers == 1 { 1 } else { 16 * workers };
        Self {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Node<L>>> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Move the nodes into the tables of a `workers`-worker run.
    fn spread(&mut self, workers: usize) {
        let old = std::mem::replace(self, Self::new(workers));
        let n = self.shards.len() as u64;
        for (key, node) in old.shards.into_iter().flat_map(Mutex::into_inner) {
            self.shards[(key % n) as usize].get_mut().insert(key, node);
        }
    }
}

/// Everything the workers of one run share.
struct Run<'a, T: TransitionSystem> {
    sys: &'a T,
    invariants: &'a [Invariant<T::State>],
    terminal_checks: &'a [Invariant<T::State>],
    cfg: &'a ExploreConfig,
    queue: Queue<Item<T::State>>,
    graph: Graph<T::Label>,
    states: AtomicUsize,
    transitions: AtomicU64,
    /// Items queued or being expanded; 0 proves quiescence.
    pending: AtomicUsize,
    stop: AtomicBool,
    truncated: AtomicBool,
    /// `(end key, violation name)`, once per violating state.
    violations: Mutex<Vec<(u64, String)>>,
    deadlocks: Mutex<Vec<u64>>,
}

/// How many items [`crate::Explorer::run`] lets worker 0 expand alone
/// before the other workers start. A run that ends sooner (a test, a
/// diagnosis-sized space) spawns no thread and is the one-worker run
/// exactly, so a limit that stops it by then needs no second run. The
/// 227k-state Chord-KV target is 0.5 % through when the others join.
pub(crate) const SOLO_ITEMS: usize = 1024;

/// Explore `sys` with `workers` workers; the calling thread is worker 0,
/// so one worker spawns nothing. Worker 0 expands up to `solo` items
/// alone before the others start, and a run that ends by then spawns
/// nothing either. See the module docs for what the report holds and
/// when it is deterministic. The flag says whether `max_states`,
/// `max_violations` or `stop_at_first_violation` stopped the run after
/// the other workers had started: only then can the report depend on
/// the schedule (the depth cap does not count; its verdict is read off
/// the final graph). A panic on any worker stops the others and is
/// resumed on the caller, with its own payload.
pub(crate) fn explore<T: TransitionSystem>(
    sys: &T,
    invariants: &[Invariant<T::State>],
    terminal_checks: &[Invariant<T::State>],
    cfg: &ExploreConfig,
    workers: usize,
    solo: usize,
) -> (ExploreReport<T::Label>, bool) {
    assert!(workers > 0, "need at least one worker");
    let mut run = Run {
        sys,
        invariants,
        terminal_checks,
        cfg,
        queue: match Frontier::new(&cfg.order).filter(|_| workers == 1) {
            Some(frontier) => Queue::Ordered(Mutex::new(frontier)),
            None => Queue::Stealing(StealQueue::new(workers)),
        },
        // Worker 0's solo items use one table, as one worker's do.
        graph: Graph::new(if solo > 0 { 1 } else { workers }),
        states: AtomicUsize::new(1),
        transitions: AtomicU64::new(0),
        pending: AtomicUsize::new(1),
        stop: AtomicBool::new(false),
        truncated: AtomicBool::new(false),
        violations: Mutex::new(Vec::new()),
        deadlocks: Mutex::new(Vec::new()),
    };

    // The root is expanded even when it violates, unless the run stops
    // at the first violation: then it is the whole answer, untruncated.
    let root = sys.initial();
    let key = sys.fingerprint(&root);
    run.graph.shard(key).lock().insert(
        key,
        Node {
            parent: 0,
            label: None,
            bits: 0,
        },
    );
    let root_violation = Invariant::first_violated(invariants, &root);
    if let Some(inv) = root_violation {
        run.violations.lock().push((key, inv.name.clone()));
    }
    if root_violation.is_some() && cfg.stop_at_first_violation {
        run.stop.store(true, Ordering::Relaxed);
    } else {
        run.queue.push(
            0,
            Item {
                key,
                state: root,
                depth: 0,
                first: true,
            },
        );
        run.work(0, if workers == 1 { usize::MAX } else { solo });
    }
    // Work left after worker 0's solo items: the others join.
    let helped = !run.stop.load(Ordering::Relaxed) && run.pending.load(Ordering::Acquire) > 0;
    if helped {
        if solo > 0 {
            run.graph.spread(workers);
        }
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers)
                .map(|w| {
                    let run = &run;
                    scope.spawn(move || run.work(w, usize::MAX))
                })
                .collect();
            run.work(0, usize::MAX);
            for helper in helpers {
                if let Err(panic) = helper.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
    }
    let (report, cut) = run.report();
    (report, cut && helped)
}

/// Stops the run when its worker unwinds. The item the worker was
/// expanding never leaves `pending`, so without this the others would
/// wait for quiescence forever, and the scope for them.
struct StopOnUnwind<'a>(&'a AtomicBool);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

impl<T: TransitionSystem> Run<'_, T> {
    /// Expand items until the run is over or `limit` of them are done.
    fn work(&self, worker: usize, limit: usize) {
        let _stop = StopOnUnwind(&self.stop);
        let (mut transitions, mut expanded) = (0, 0);
        while expanded < limit && !self.stop.load(Ordering::Relaxed) {
            let Some(item) = self.queue.pop(worker) else {
                if self.pending.load(Ordering::Acquire) == 0 {
                    break;
                }
                std::thread::yield_now();
                continue;
            };
            self.expand(worker, item, &mut transitions);
            // Only after the successors are queued: `pending == 0` then
            // proves global quiescence.
            self.pending.fetch_sub(1, Ordering::Release);
            expanded += 1;
        }
        self.transitions.fetch_add(transitions, Ordering::Relaxed);
    }

    /// Expand one popped item at the depth it was queued at. If the
    /// state has come closer since, the relaxation that found that also
    /// queued an item at the better depth: this expansion's offers lose
    /// to that one's, and the accounting is `first`'s either way.
    fn expand(&self, worker: usize, item: Item<T::State>, transitions: &mut u64) {
        let Item {
            key,
            state,
            mut depth,
            first,
        } = item;
        let enabled = self.sys.enabled(&state);
        if enabled.is_empty() {
            if first {
                self.check_terminal(key, &state);
            }
            return;
        }
        if depth as usize >= self.cfg.max_depth {
            // Judged at the depth the graph holds now: under the cap, the
            // state is expanded after all; at it, the accounting waits in
            // the node for a relaxation to pick up.
            let mut shard = self.graph.shard(key).lock();
            let node = shard.get_mut(&key).expect("a queued key has a node");
            depth = node.depth();
            if depth as usize >= self.cfg.max_depth {
                node.bits |= if first { OWED } else { 0 };
                return;
            }
        }
        assert!(depth < MAX_DEPTH, "graph deeper than 2^30");
        for label in enabled {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let next = self.sys.apply(&state, &label);
            if first {
                *transitions += 1;
            }
            self.offer(worker, (depth + 1, key), label, next);
        }
    }

    /// Deadlock and terminal ("eventually") checks of a state with no
    /// enabled transition.
    fn check_terminal(&self, key: u64, state: &T::State) {
        if self.cfg.detect_deadlocks && !self.sys.is_expected_terminal(state) {
            self.deadlocks.lock().push(key);
        }
        for t in self.terminal_checks {
            if !t.holds(state) && self.violation(key, format!("eventually: {}", t.name)) {
                return;
            }
        }
    }

    /// Record a violation; true if it is the last one the configuration
    /// allows, in which case the run is told to stop.
    fn violation(&self, key: u64, name: String) -> bool {
        let seen = {
            let mut violations = self.violations.lock();
            violations.push((key, name));
            violations.len()
        };
        let last = self.cfg.stop_at_first_violation || seen >= self.cfg.max_violations;
        if last {
            self.cut_short();
        }
        last
    }

    fn cut_short(&self) {
        self.truncated.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Offer `next` the in-edge `(depth, parent key)` labelled `label`:
    /// insert it if new, else keep the minimum, and queue it if it is
    /// new or strictly closer to the root than it was.
    fn offer(&self, worker: usize, edge: (u32, u64), label: T::Label, next: T::State) {
        let (depth, parent) = edge;
        let key = self.sys.fingerprint(&next);
        let mut violated = None;
        let first = match self.graph.shard(key).lock().entry(key) {
            Entry::Vacant(slot) => {
                // Classified under the shard lock: no relaxation can
                // queue a state before it is known not to violate.
                violated = Invariant::first_violated(self.invariants, &next);
                slot.insert(Node {
                    parent,
                    label: Some(label),
                    bits: depth << 2 | if violated.is_some() { VIOLATING } else { 0 },
                });
                let states = self.states.fetch_add(1, Ordering::Relaxed) + 1;
                if violated.is_none() && states >= self.cfg.max_states {
                    return self.cut_short();
                }
                true
            }
            Entry::Occupied(mut slot) => {
                // Nothing beats the root's depth 0.
                let node = slot.get_mut();
                if edge >= (node.depth(), node.parent) {
                    return;
                }
                let closer = depth < node.depth();
                let requeue = closer && node.bits & VIOLATING == 0;
                let first = requeue && node.bits & OWED != 0;
                let flags = node.bits & (VIOLATING | if first { 0 } else { OWED });
                *node = Node {
                    parent,
                    label: Some(label),
                    bits: depth << 2 | flags,
                };
                if !requeue {
                    return;
                }
                self.queue.requeued(self.states.load(Ordering::Relaxed));
                first
            }
        };
        if let Some(inv) = violated {
            self.violation(key, inv.name.clone());
            return;
        }
        self.pending.fetch_add(1, Ordering::Release);
        self.queue.push(
            worker,
            Item {
                key,
                state: next,
                depth,
                first,
            },
        );
    }

    /// Assemble the report from the graph the workers left. The tables
    /// are read in place: a clean run allocates nothing here, so nothing
    /// small and late sits between the freed states and the freed tables
    /// (measured: one such chunk made glibc hand the heap back during
    /// the caller's *next* exploration instead of at the end of this
    /// one, doubling the time of a small run after a large one).
    fn report(self) -> (ExploreReport<T::Label>, bool) {
        let mut max_depth_reached = 0;
        // The depth cap left a state with successors unexpanded
        // (terminal states are accounted at any depth).
        let mut capped = false;
        for shard in &self.graph.shards {
            for node in shard.lock().values() {
                max_depth_reached = max_depth_reached.max(node.depth() as usize);
                capped |= node.bits & OWED != 0;
            }
        }
        let graph = &self.graph;
        let trail = |end: u64, violation: String| {
            let mut labels = Vec::new();
            let mut at = end;
            loop {
                let shard = graph.shard(at).lock();
                let node = &shard[&at];
                let Some(label) = node.label.clone() else {
                    break;
                };
                labels.push(label);
                at = node.parent;
            }
            labels.reverse();
            Trail {
                depth: labels.len(),
                labels,
                violation,
                end_fingerprint: end,
            }
        };
        let mut violations: Vec<Trail<T::Label>> = (self.violations.into_inner().into_iter())
            .map(|(end, name)| trail(end, name))
            .collect();
        let mut deadlocks: Vec<Trail<T::Label>> = (self.deadlocks.into_inner().into_iter())
            .map(|end| trail(end, "deadlock".to_string()))
            .collect();
        fn key<L>(t: &Trail<L>) -> (usize, u64, &str) {
            (t.depth, t.end_fingerprint, &t.violation)
        }
        for trails in [&mut violations, &mut deadlocks] {
            trails.sort_by(|a, b| key(a).cmp(&key(b)));
        }
        let cut = self.truncated.load(Ordering::Relaxed);
        let report = ExploreReport {
            states: self.states.load(Ordering::Relaxed),
            transitions: self.transitions.load(Ordering::Relaxed),
            max_depth_reached,
            violations,
            deadlocks,
            truncated: cut || capped,
        };
        (report, cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::Explorer;
    use crate::guarded::{GuardedSystem, GuardedSystemBuilder};
    use crate::search::SearchOrder;
    use std::sync::Arc;

    #[test]
    fn steal_queue_owner_lifo_and_steal_half() {
        let q: StealQueue<u64> = StealQueue::new(2);
        for i in 0..8 {
            q.push(0, i);
        }
        // Owner pops LIFO.
        assert_eq!(q.pop(0), Some(7));
        // Thief takes half the victim's lane from the front (oldest) and
        // keeps the newest of that half for itself.
        assert_eq!(q.pop(1), Some(3));
        // Everything drains exactly once between the two workers.
        let mut drained = vec![7, 3];
        drained.extend(std::iter::from_fn(|| q.pop(0)));
        drained.extend(std::iter::from_fn(|| q.pop(1)));
        drained.sort_unstable();
        assert_eq!(drained, (0..8).collect::<Vec<_>>());
    }

    /// One lane is `SearchOrder::Dfs`: LIFO until the requeues pass the
    /// floor and an eighth of the visited states, oldest first from then
    /// on, for owner and thief alike.
    #[test]
    fn a_lane_is_lifo_until_the_guard_turns_it() {
        const FLOOR: usize = StealQueue::<u64>::REQUEUE_FLOOR;
        for (states, allowed) in [(0, FLOOR), (8 * FLOOR, FLOOR), (16 * FLOOR, 2 * FLOOR)] {
            let q: StealQueue<u64> = StealQueue::new(2);
            for i in 0..8 {
                q.push(0, i);
            }
            assert_eq!(q.pop(0), Some(7));
            for _ in 0..allowed {
                q.requeued(states);
            }
            assert_eq!(q.pop(0), Some(6), "{allowed} requeues at {states} states");
            q.requeued(states);
            assert_eq!(q.pop(0), Some(0), "one more: oldest first");
            // The thief takes the oldest of the oldest half, and the rest
            // of its batch keeps the victim's order.
            assert_eq!(q.pop(1), Some(1));
            assert_eq!(q.pop(1), Some(2));
            assert_eq!(q.pop(1), Some(3));
            assert_eq!(q.pop(0), Some(4));
            assert_eq!(q.pop(0), Some(5));
            assert_eq!(q.pop(0).or(q.pop(1)), None);
        }
    }

    /// What the `Node` docs promise for the product's label type.
    #[test]
    fn a_world_model_node_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Node<crate::ModelAction>>(), 24);
    }

    fn grid(n: u8) -> GuardedSystem<[u8; 3]> {
        GuardedSystemBuilder::new([0u8; 3])
            .action("x", move |s: &[u8; 3]| s[0] < n, |s| s[0] += 1)
            .action("y", move |s: &[u8; 3]| s[1] < n, |s| s[1] += 1)
            .action("z", move |s: &[u8; 3]| s[2] < n, |s| s[2] += 1)
            .build()
    }

    fn corner(n: u8) -> Invariant<[u8; 3]> {
        Invariant::new("corner", move |s: &[u8; 3]| *s != [n, n, n])
    }

    fn names(t: &Trail<crate::guarded::GuardedLabel>) -> Vec<&str> {
        t.labels.iter().map(|l| l.name.as_str()).collect()
    }

    #[test]
    fn parallel_matches_sequential_state_count() {
        let sys = grid(4);
        let explorer = Explorer::new(&sys, ExploreConfig::default());
        let (seq, par) = (explorer.run(), explorer.run_parallel(4));
        // 5^3 states; each axis steps 4 times in each of the 25
        // positions of the other two.
        assert_eq!((seq.states, seq.transitions), (125, 300));
        assert_eq!((par.states, par.transitions), (125, 300));
    }

    #[test]
    fn parallel_finds_violations() {
        let sys = grid(4);
        let par = Explorer::new(&sys, ExploreConfig::default())
            .invariant(corner(4))
            .run_parallel(4);
        assert_eq!(par.violations.len(), 1);
        assert_eq!(par.violations[0].depth, 12, "BFS trail to the corner");
    }

    #[test]
    fn max_states_respected() {
        let sys = grid(10);
        let cfg = ExploreConfig::exhaustive(50);
        let par = Explorer::new(&sys, cfg).run_parallel(4);
        assert!(par.truncated);
        // Workers in flight may overshoot slightly, but not unboundedly.
        assert!(par.states < 500, "states={}", par.states);
    }

    /// The grid corner has binom(12; 4,4,4) = 34650 shortest paths, so
    /// any schedule dependence in parent resolution shows up here. The
    /// trail must be identical at every worker count and across repeated
    /// runs (the canonical minimum (depth, parent key, label index)
    /// chain), shortest (depth 12), and feasible.
    #[test]
    fn violation_trails_deterministic_across_worker_counts() {
        let sys = grid(4);
        let explorer = Explorer::new(&sys, ExploreConfig::default()).invariant(corner(4));
        let first = explorer.run();
        assert_eq!(first.violations.len(), 1);
        assert_eq!(first.violations[0].depth, 12);
        let guided = explorer.run_guided(&first.violations[0].labels);
        assert!(guided.stuck_at.is_none(), "trail infeasible");
        assert!(!guided.violations.is_empty());
        for threads in [1usize, 2, 4, 8] {
            for round in 0..3 {
                let par = explorer.run_parallel(threads);
                assert_eq!(
                    first.violations, par.violations,
                    "canonical min trail (threads={threads}, round={round})"
                );
            }
        }
    }

    /// Deadlock trails are canonical too.
    #[test]
    fn deadlock_reports_deterministic() {
        let sys = GuardedSystemBuilder::new((0u8, 0u8))
            .action("a-take-r1", |s: &(u8, u8)| s.0 == 0, |s| s.0 = 1)
            .action(
                "a-take-r2",
                |s: &(u8, u8)| s.0 == 1 && s.1 != 2,
                |s| s.0 = 3,
            )
            .action("b-take-r2", |s: &(u8, u8)| s.1 == 0, |s| s.1 = 2)
            .action(
                "b-take-r1",
                |s: &(u8, u8)| s.1 == 2 && s.0 != 1 && s.0 != 3,
                |s| s.1 = 3,
            )
            .expected_terminal(|s| s.0 == 3 || s.1 == 3)
            .build();
        let explorer = Explorer::new(&sys, ExploreConfig::default());
        let first = explorer.run();
        assert!(!first.deadlocks.is_empty());
        for threads in [2usize, 4, 8] {
            assert_eq!(
                first.deadlocks,
                explorer.run_parallel(threads).deadlocks,
                "threads={threads}"
            );
        }
    }

    /// Terminal ("eventually") checks run in the one loop, so every
    /// worker count reports them, once per terminal state.
    #[test]
    fn terminal_invariants_at_every_worker_count() {
        let sys = GuardedSystemBuilder::new(0u8)
            .action("inc", |s: &u8| *s < 3, |s| *s += 1)
            .action("stop-early", |s: &u8| *s == 1, |s| *s = 103) // dead end
            .build();
        let explorer = Explorer::new(&sys, ExploreConfig::default())
            .terminal_invariant(Invariant::new("reached-3", |s: &u8| *s == 3));
        let first = explorer.run();
        assert_eq!(first.violations.len(), 1);
        assert_eq!(first.violations[0].violation, "eventually: reached-3");
        assert_eq!(names(&first.violations[0]), ["inc", "stop-early"]);
        for threads in [2usize, 4, 8] {
            assert_eq!(first.violations, explorer.run_parallel(threads).violations);
        }
    }

    /// A chain 0..=5 that DFS walks first and a shortcut 0 -> 100 it
    /// takes last; both join at 101, and 104 violates. DFS reaches 101 at
    /// depth 6, expands it, and has dropped that copy by the time the
    /// shortcut offers depth 2: the offer carries its own copy, so the
    /// tail is expanded again and every depth ends BFS-minimal.
    fn shortcut() -> (GuardedSystem<u8>, Invariant<u8>) {
        let sys = GuardedSystemBuilder::new(0u8)
            .action("short", |s: &u8| *s == 0, |s| *s = 100)
            .action("long", |s: &u8| *s < 5, |s| *s += 1)
            .action("join", |s: &u8| *s == 5 || *s == 100, |s| *s = 101)
            .action("tail", |s: &u8| (101..104).contains(s), |s| *s += 1)
            .build();
        (sys, Invariant::new("not-104", |s: &u8| *s != 104))
    }

    #[test]
    fn exhaustive_dfs_reports_bfs_minimal_trails() {
        let (sys, inv) = shortcut();
        let run = |cfg: ExploreConfig| Explorer::new(&sys, cfg).invariant(inv.clone()).run();
        let hunt = run(ExploreConfig::hunt());
        assert_eq!(hunt.violations[0].depth, 9, "DFS takes the chain first");
        let bfs = run(ExploreConfig::default());
        assert_eq!(
            names(&bfs.violations[0]),
            ["short", "join", "tail", "tail", "tail"]
        );
        assert_eq!(
            (bfs.states, bfs.transitions, bfs.max_depth_reached),
            (11, 11, 5)
        );
        for order in [SearchOrder::Dfs, SearchOrder::Random { seed: 7 }] {
            let other = run(ExploreConfig {
                order: order.clone(),
                ..ExploreConfig::default()
            });
            assert_eq!(
                (
                    bfs.states,
                    bfs.transitions,
                    bfs.max_depth_reached,
                    bfs.truncated
                ),
                (
                    other.states,
                    other.transitions,
                    other.max_depth_reached,
                    other.truncated
                ),
                "{order:?}"
            );
            assert_eq!(bfs.violations, other.violations, "{order:?}");
        }
    }

    /// Whether the depth cap truncated a run does not depend on the
    /// order: DFS first pops 101 at depth 6, at a cap of 6, but the
    /// shortcut brings it to depth 2 and it is expanded after all, with
    /// its transitions counted once.
    #[test]
    fn depth_cap_verdict_does_not_depend_on_the_order() {
        let (sys, _) = shortcut();
        let run = |order, max_depth| {
            let cfg = ExploreConfig {
                order,
                max_depth,
                ..ExploreConfig::default()
            };
            let r = Explorer::new(&sys, cfg).run();
            (r.states, r.transitions, r.max_depth_reached, r.truncated)
        };
        assert_eq!(run(SearchOrder::Bfs, 6), (11, 11, 5, false));
        assert_eq!(run(SearchOrder::Dfs, 6), (11, 11, 5, false));
        // 4 (on the chain) and 103 are left unexpanded at depth 4.
        assert_eq!(run(SearchOrder::Bfs, 4), (9, 8, 4, true));
        assert_eq!(run(SearchOrder::Dfs, 4), (9, 8, 4, true));
    }

    /// `shortcut()` scaled up until the LIFO order hurts: the chain is
    /// 0..=n and every state `i` on it has its own shortcut, through
    /// `1000 + i`, to the join at 2000, which a tail of 64 states
    /// follows; the last of them violates. DFS walks the chain first and
    /// reaches the join at depth n + 1; unwinding, every shortcut brings
    /// it one step closer and the tail is expanded again: about 64 n
    /// requeues. Drained from the front, the lane has the shortcut of
    /// state 0 first and every other one loses to it. Each shortcut also
    /// has a leaf of its own, `3000 + i`, so states are still being
    /// discovered while the lane unwinds.
    fn shortcuts(n: u16, applies: &Arc<AtomicU64>) -> (GuardedSystem<u16>, Invariant<u16>) {
        let counted = |effect: fn(&mut u16)| {
            let applies = Arc::clone(applies);
            move |s: &mut u16| {
                applies.fetch_add(1, Ordering::Relaxed);
                effect(s)
            }
        };
        let sys = GuardedSystemBuilder::new(0u16)
            .action("short", move |s: &u16| *s < n, counted(|s| *s += 1000))
            .action("long", move |s: &u16| *s < n, counted(|s| *s += 1))
            .action(
                "join",
                move |s: &u16| *s == n || (1000..2000).contains(s),
                counted(|s| *s = 2000),
            )
            .action(
                "tail",
                |s: &u16| (2000..2064).contains(s),
                counted(|s| *s += 1),
            )
            .action(
                "leaf",
                |s: &u16| (1000..2000).contains(s),
                counted(|s| *s += 2000),
            )
            .build();
        (sys, Invariant::new("tail-end", |s: &u16| *s != 2064))
    }

    /// The guard bounds what the LIFO order can cost, and the report is
    /// BFS's before the flip (too few shortcuts to reach the floor) and
    /// after it, under a depth cap included: accounting that an item
    /// owed to the cap is picked up whichever end the lane is drained
    /// from.
    #[test]
    fn the_guard_bounds_relaxation_and_keeps_the_report() {
        const FLOOR: u64 = StealQueue::<()>::REQUEUE_FLOOR as u64;
        let applies = Arc::new(AtomicU64::new(0));
        let run = |n: u16, order: SearchOrder, max_depth: usize| {
            let (sys, inv) = shortcuts(n, &applies);
            let cfg = ExploreConfig {
                order,
                max_depth,
                ..ExploreConfig::default()
            };
            applies.store(0, Ordering::Relaxed);
            let r = Explorer::new(&sys, cfg).invariant(inv).run_parallel(1);
            (r, applies.load(Ordering::Relaxed))
        };
        // The cap of 100 is under the depths DFS first finds the tail at
        // (65 and up) and over every BFS distance (66 at most); the cap
        // of 40 cuts the chain in any order.
        for (n, max_depth) in [(8, 1000), (64, 1000), (64, 100), (64, 40)] {
            let (bfs, bfs_applies) = run(n, SearchOrder::Bfs, max_depth);
            let (dfs, dfs_applies) = run(n, SearchOrder::Dfs, max_depth);
            let case = format!("n={n} max_depth={max_depth}");
            assert_eq!(bfs_applies, bfs.transitions, "BFS relaxes nothing");
            assert_eq!(
                (
                    bfs.states,
                    bfs.transitions,
                    bfs.max_depth_reached,
                    bfs.truncated
                ),
                (
                    dfs.states,
                    dfs.transitions,
                    dfs.max_depth_reached,
                    dfs.truncated
                ),
                "{case}"
            );
            assert_eq!(bfs.violations, dfs.violations, "{case}");
            assert_eq!(bfs.truncated, max_depth == 40, "{case}");
            if !bfs.truncated {
                assert_eq!(bfs.violations[0].depth, 66, "short, join, 64 tails");
            }
            // One apply a requeue. Eight shortcuts stay under the floor
            // and cost what they cost: seven improve the join, 64
            // requeues each. Sixty-four would cost 4032; they are
            // stopped at the floor, plus the pass over the tail under
            // way at the flip and the one the shortcut of 0 starts.
            let again = dfs_applies - dfs.transitions;
            match (n, max_depth) {
                (8, _) => assert_eq!(again, 7 * 64),
                (_, 40) => assert!(again < FLOOR, "{case}: {again}"),
                _ => assert!((FLOOR..=FLOOR + 2 * 64).contains(&again), "{case}: {again}"),
            }
        }
    }

    /// A one-worker run is a function of system and configuration, the
    /// guard included: a cut run reports the same counts every time,
    /// whether it was cut before the lane turned or after.
    #[test]
    fn one_worker_cut_runs_repeat_exactly() {
        let counts = |r: ExploreReport<crate::guarded::GuardedLabel>| {
            assert!(r.truncated);
            (r.states, r.transitions, r.max_depth_reached)
        };
        let grid = grid(10);
        let early = || counts(Explorer::new(&grid, ExploreConfig::exhaustive(50)).run_parallel(1));
        // The first dive finds the chain, its 64 shortcuts, the join and
        // the tail (194 states); the leaves come one per unwound
        // shortcut, and sixteen shortcuts are past the floor.
        let applies = Arc::new(AtomicU64::new(0));
        let (sys, _) = shortcuts(64, &applies);
        let late = || {
            applies.store(0, Ordering::Relaxed);
            let r = Explorer::new(&sys, ExploreConfig::exhaustive(194 + 40)).run_parallel(1);
            (counts(r), applies.load(Ordering::Relaxed))
        };
        let (first_early, first_late) = (early(), late());
        // Forty shortcuts unwound in LIFO order are 2,500 requeues.
        let ((_, transitions, _), late_applies) = first_late;
        let floor = StealQueue::<()>::REQUEUE_FLOOR as u64;
        assert!(
            late_applies - transitions < floor + 64,
            "cut after the flip"
        );
        for _ in 0..20 {
            assert_eq!(first_early, early());
            assert_eq!(first_late, late());
        }
    }

    /// One transition per applied successor, `stop` tested before each.
    /// The first two violating states are consecutive successors of one
    /// parent (the second run applies exactly one transition more), so
    /// the run capped at one violation stops in the middle of that
    /// expansion and must not count the successors it never applied.
    #[test]
    fn run_cut_mid_expansion_counts_what_it_applied() {
        let sys = grid(4);
        let cut = |max_violations| {
            let cfg = ExploreConfig {
                max_violations,
                ..ExploreConfig::default()
            };
            let r = Explorer::new(&sys, cfg)
                .invariant(Invariant::new("sum-bound", |s: &[u8; 3]| {
                    s.iter().map(|&v| u32::from(v)).sum::<u32>() < 5
                }))
                .run();
            assert_eq!(r.violations.len(), max_violations);
            (r.states, r.transitions, r.truncated)
        };
        assert_eq!(cut(1), (36, 61, true));
        assert_eq!(cut(2), (37, 62, true));
        assert_eq!(cut(16), (51, 94, true));
    }

    /// `run` gives every core to a run meant to finish and one worker to
    /// any other, and a run a limit cuts reports what one worker sees
    /// when it stops, however many it started on.
    #[test]
    fn run_takes_every_core_only_for_a_run_meant_to_finish() {
        let sys = grid(1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = |cfg| Explorer::new(&sys, cfg).workers();
        assert_eq!(workers(ExploreConfig::exhaustive(50)), cores);
        assert_eq!(workers(ExploreConfig::default()), 1);
        assert_eq!(workers(ExploreConfig::hunt()), 1);
        let random = ExploreConfig {
            order: SearchOrder::Random { seed: 1 },
            ..ExploreConfig::default()
        };
        assert_eq!(workers(random), 1);

        // Cut before the other workers start, and after; 28 states sum
        // to 30.
        let sys = grid(12);
        let sum_bound = Invariant::new("sum-bound", |s: &[u8; 3]| {
            s.iter().map(|&v| u32::from(v)).sum::<u32>() < 30
        });
        for cfg in [
            ExploreConfig::exhaustive(50),
            ExploreConfig::exhaustive(2000),
            ExploreConfig {
                max_violations: 20,
                ..ExploreConfig::exhaustive(10_000)
            },
        ] {
            let explorer = Explorer::new(&sys, cfg).invariant(sum_bound.clone());
            let one = explorer.run_parallel(1);
            assert!(one.truncated);
            for _ in 0..10 {
                let run = explorer.run();
                assert_eq!(one.violations, run.violations);
                assert_eq!(counts(&one), counts(&run));
            }
        }
    }

    fn counts<L>(r: &ExploreReport<L>) -> (usize, u64, usize, bool) {
        (r.states, r.transitions, r.max_depth_reached, r.truncated)
    }

    /// Worker 0 explores `solo` items alone, then the others join. A run
    /// that ends before they join is the one-worker run, cut or not; the
    /// flag is raised only by a limit that stops the run after they did.
    #[test]
    fn the_other_workers_join_after_the_solo_items() {
        let sys = grid(10);
        let whole = ExploreConfig::exhaustive(1_000_000);
        let one = Explorer::new(&sys, whole.clone()).run_parallel(1);
        for solo in [0, 1, 100, SOLO_ITEMS, 5000] {
            let (r, cut) = explore(&sys, &[], &[], &whole, 2, solo);
            assert_eq!(counts(&one), counts(&r), "solo={solo}");
            assert!(!cut);
        }
        let fuse = ExploreConfig::exhaustive(50);
        let one = Explorer::new(&sys, fuse.clone()).run_parallel(1);
        let (r, cut) = explore(&sys, &[], &[], &fuse, 2, SOLO_ITEMS);
        assert_eq!(counts(&one), counts(&r));
        assert!(!cut, "cut before anyone joined");
        // Ten expansions find at most 31 states.
        let (r, cut) = explore(&sys, &[], &[], &fuse, 2, 10);
        assert!(cut && r.truncated);
    }

    /// `explore` on a thread of its own: the message it panicked with, or
    /// a failure if it returned or has not come back within a minute.
    fn panic_message(explore: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(explore));
            let _ = tx.send(outcome.err().map(|payload| {
                (payload.downcast_ref::<String>().cloned())
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            }));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(Some(message)) => message,
            Ok(None) => panic!("the run did not panic"),
            Err(_) => panic!("the run hung after a worker panicked"),
        }
    }

    /// A panic in the system or in an invariant, on whichever worker
    /// meets it, stops the run and reaches the caller with its own
    /// message, at every worker count.
    #[test]
    fn a_panicking_worker_reaches_the_caller_and_never_hangs() {
        for workers in [1usize, 2, 4, 8] {
            for _ in 0..4 {
                let message = panic_message(move || {
                    let sys = GuardedSystemBuilder::new([0u8; 3])
                        .action("x", |s: &[u8; 3]| s[0] < 6, |s| s[0] += 1)
                        .action("y", |s: &[u8; 3]| s[1] < 6, |s| s[1] += 1)
                        .action(
                            "z",
                            |s: &[u8; 3]| s[2] < 6,
                            |s| {
                                assert!(*s != [3, 3, 3], "handler panicked at {s:?}");
                                s[2] += 1
                            },
                        )
                        .build();
                    Explorer::new(&sys, ExploreConfig::exhaustive(10_000)).run_parallel(workers);
                });
                assert_eq!(
                    message, "handler panicked at [3, 3, 3]",
                    "workers={workers}"
                );
                let message = panic_message(move || {
                    let sys = grid(6);
                    let trip = Invariant::new("trip", |s: &[u8; 3]| {
                        assert!(*s != [4, 2, 5], "invariant panicked at {s:?}");
                        true
                    });
                    Explorer::new(&sys, ExploreConfig::exhaustive(10_000))
                        .invariant(trip)
                        .run_parallel(workers);
                });
                assert_eq!(
                    message, "invariant panicked at [4, 2, 5]",
                    "workers={workers}"
                );
            }
        }
    }

    #[test]
    fn violating_root_under_stop_at_first_is_the_whole_answer() {
        let sys = grid(2);
        let cfg = ExploreConfig {
            stop_at_first_violation: true,
            ..ExploreConfig::default()
        };
        let report = Explorer::new(&sys, cfg)
            .invariant(Invariant::new("never", |_: &[u8; 3]| false))
            .run();
        assert_eq!((report.states, report.transitions), (1, 0));
        assert!(!report.truncated);
        assert!(report.violations[0].is_empty());
    }
}
