//! Sharded worlds: the pid space partitioned across shards, each
//! owning its processes' queues and clocks and executed in parallel
//! with the others, with **deterministic cross-shard message handoff**.
//!
//! ```text
//!             window [T, T+L)          barrier              next window
//!   shard 0:  run own events  ─┐
//!   shard 1:  run own events  ─┼─▶  serial replay of all   ─▶  mailboxes
//!   shard 2:  run own events  ─┘    effects merged by          delivered
//!                                   (at, seq): route sends,
//!                                   mint seqs, push trace
//! ```
//!
//! The schedule is **conservative**: with `L` = the network's minimum
//! delivery latency, any send performed at time `t ≥ T` delivers at
//! `t + L ≥ T + L`, i.e. beyond the window end. So inside a window a
//! shard's processes can only be affected by (a) events already queued
//! before the window and (b) their own timers — both shard-local. All
//! globally ordered state (the scheduling/execution sequence counters,
//! the network RNG, routing, partitions, stats, the trace) is touched
//! only in the serial barrier replay, which processes the shards'
//! staged steps merged by `(at, seq)` — reproducing the serial
//! [`World`](crate::World)'s event sequence and trace **byte for byte**
//! at any shard count.
//!
//! Events scheduled *during* a window are only the pid's own timers; a
//! timer landing inside the current window gets a *provisional* key
//! (per-shard mint index) that the barrier resolves to its serial
//! sequence number before the record is merged — valid because every
//! in-window mint receives a serial seq greater than any pre-window
//! key at the same timestamp (`SeqKey`'s ordering).
//!
//! ## Threads
//!
//! Which thread executes a shard's window has no bearing on the result
//! (a window touches nothing outside its shard), so it is purely a
//! scheduling matter:
//!
//! * **Threads are created once per run call.** `run_to_quiescence` and
//!   `run_supervised` open one thread scope, spawn `shards − 1`
//!   workers, and retire them before returning. Between windows a
//!   worker is parked on a blocking channel receive — it never spins, so
//!   idle workers cost nothing on hosts with fewer cores than shards.
//! * **The calling thread executes a shard itself.** Per window the
//!   coordinator finds the shards with work (an event before the window
//!   end), sends all but the lowest-numbered one to their workers — the
//!   boxed shard travels through the channel *by ownership* and comes
//!   back the same way, so no worker ever borrows the world — runs the
//!   remaining one, and collects the others for the barrier. A sharded
//!   run therefore occupies `shards` threads, not `shards + 1`.
//! * **A window with at most one busy shard runs inline** on the
//!   calling thread with no hand-off; so does every window of a
//!   one-shard world. A shard with no work is not touched at all.
//! * **A handler panic surfaces on the caller.** Each worker has its own
//!   channel pair; one that dies mid-window drops its ends, the
//!   coordinator's receive fails, and the run panics instead of waiting
//!   for a shard that will never come back.
//!
//! A hand-off is a futex wake of a parked thread and, if the worker
//! finishes last, one of the coordinator: on the 2-vCPU reference host
//! 55–80 µs of wall clock per handed-off window beyond the window's
//! critical path, about what spawning a thread costs there (a scope
//! that spawns and joins two threads: 101–105 µs). What this design
//! saves over spawning per window is the coordinator working instead
//! of sleeping, and the lone-shard windows — 20 % of the windows of a
//! 96-member Chord cell under a one-tick-window network at 2 shards.
//! [`ShardTiming`] reports the window counts.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use crate::arena::StepArena;
use crate::calqueue::{CalEntry, CalQueue};

use crate::clock::VectorClock;
use crate::event::{Effects, Event, EventKind, SharedMessage};
use crate::fault::FaultPlan;
use crate::network::{NetStats, Partition};
use crate::procs::{ProcFactory, ProcTable};
use crate::program::Context;
use crate::trace::Trace;
use crate::world::{NetSide, ProcStatus, ReplayStep, RunReport, WorldConfig};
use crate::{Pid, VTime};

/// CPU time consumed by the *calling thread* — the right busy metric
/// for [`ShardTiming`]: on hosts with fewer cores than shards the
/// workers timeshare, and wall clock would charge each shard for time
/// it spent preempted while its siblings ran, flattening the critical
/// path. `CLOCK_THREAD_CPUTIME_ID` counts only cycles this thread
/// actually executed.
#[cfg(target_os = "linux")]
fn thread_cpu_now() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable Timespec matching the C layout;
    // the thread-cputime clock always exists on Linux.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    debug_assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec.max(0) as u64, ts.tv_nsec.max(0) as u32)
}

/// Portable fallback: wall clock since an arbitrary epoch. Deltas are
/// still meaningful, but include preemption on oversubscribed hosts.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_now() -> Duration {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed()
}

/// Queue key: pre-window events carry their final serial scheduling
/// sequence; events minted inside a window carry a per-shard
/// provisional mint index, resolved at the barrier. `Final < any
/// Provisional` at equal time (derive order) is correct because every
/// in-window mint receives a serial seq greater than all pre-window
/// seqs — counters only grow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum SeqKey {
    Final(u64),
    Provisional(u64),
}

#[derive(Clone, Debug)]
struct ShardEvent {
    at: VTime,
    key: SeqKey,
    kind: EventKind,
}

impl PartialEq for ShardEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl Eq for ShardEvent {}
impl PartialOrd for ShardEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ShardEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted: earliest (at, key) pops first.
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

impl CalEntry for ShardEvent {
    type Key = SeqKey;
    #[inline]
    fn cal_at(&self) -> VTime {
        self.at
    }
    #[inline]
    fn cal_key(&self) -> SeqKey {
        self.key
    }
}

/// A route-minted drop awaiting its merge position at the barrier.
struct DropEvent {
    at: VTime,
    seq: u64,
    msg: SharedMessage,
}

impl PartialEq for DropEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for DropEvent {}
impl PartialOrd for DropEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DropEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One executed-but-not-yet-committed step, staged by a shard for the
/// barrier replay.
struct PendingStep {
    at: VTime,
    key: SeqKey,
    kind: EventKind,
    effects: Effects,
    /// The pid's clock after the step and the post-handler program
    /// snapshot, captured only while a supervised run is recording a
    /// replay stream.
    vc_after: Option<VectorClock>,
    post_state: Option<Vec<u8>>,
}

struct Shard {
    table: ProcTable,
    queue: CalQueue<ShardEvent>,
    cancelled: HashSet<(u32, u64)>,
    /// Provisional mint counter for the current window.
    prov_next: u64,
    /// Steps executed this window, in shard-local order; the barrier
    /// pops them from the front, so the buffer outlives the window.
    out: VecDeque<PendingStep>,
    /// Per-shard recycling pool. Shards allocate message boxes inside
    /// their windows; the coordinator (which observes last references at
    /// the barrier) donates reclaimed shells back between windows.
    arena: StepArena,
    busy_window: Duration,
}

impl Shard {
    fn new(seed: u64, stride: u32, offset: u32) -> Self {
        Self {
            table: ProcTable::new(seed, stride, offset),
            queue: CalQueue::new(),
            cancelled: HashSet::new(),
            prov_next: 0,
            out: VecDeque::new(),
            arena: StepArena::new(),
            busy_window: Duration::ZERO,
        }
    }

    /// Execute this shard's events with `at < wend`, staging each
    /// committed step into `out`. Mirrors `World::next_valid` +
    /// `World::step` exactly for the shard-local half of the work.
    fn run_window(&mut self, wend: VTime, n: usize, start_time: VTime, mode: RunMode) {
        let t0 = thread_cpu_now();
        self.prov_next = 0;
        let capturing = mode.capturing;
        while self.queue.peek().is_some_and(|head| head.at < wend) {
            let ev = self.queue.pop().expect("peeked head exists");
            match ev.kind {
                EventKind::TimerFire { pid, timer } => {
                    if self.cancelled.remove(&(pid.0, timer.0)) {
                        continue; // cancelled: silent skip
                    }
                    if self.table.status_of(pid) == ProcStatus::Crashed {
                        continue; // timers die with the process
                    }
                    self.exec(
                        ev.at,
                        ev.key,
                        EventKind::TimerFire { pid, timer },
                        wend,
                        n,
                        start_time,
                        mode,
                    );
                }
                EventKind::Start { pid } => {
                    if self.table.status_of(pid) == ProcStatus::Crashed {
                        continue;
                    }
                    self.exec(
                        ev.at,
                        ev.key,
                        EventKind::Start { pid },
                        wend,
                        n,
                        start_time,
                        mode,
                    );
                }
                EventKind::Deliver { msg } => {
                    if self.table.status_of(msg.dst) == ProcStatus::Crashed {
                        // Surface as an observable drop (same shard, so
                        // the clock capture here is position-exact).
                        // The serial `next_valid` materializes this
                        // conversion with a counted message clone; the
                        // shard moves the handle instead, so mirror the
                        // aliasing count to keep payload accounting
                        // byte-equal between executors.
                        crate::payload::note_aliased(msg.payload.len());
                        let vc_after = capturing.then(|| self.table.vc_of(msg.dst).clone());
                        self.out.push_back(PendingStep {
                            at: ev.at,
                            key: ev.key,
                            kind: EventKind::Drop { msg },
                            effects: Effects::default(),
                            vc_after,
                            post_state: None,
                        });
                    } else {
                        self.exec(
                            ev.at,
                            ev.key,
                            EventKind::Deliver { msg },
                            wend,
                            n,
                            start_time,
                            mode,
                        );
                    }
                }
                EventKind::Crash { pid } => {
                    if self.table.status_of(pid) == ProcStatus::Crashed {
                        continue; // already dead
                    }
                    // Status-only: a dormant target stays dormant.
                    self.table.set_status(pid, ProcStatus::Crashed);
                    let vc_after = capturing.then(|| self.table.vc_of(pid).clone());
                    self.out.push_back(PendingStep {
                        at: ev.at,
                        key: ev.key,
                        kind: EventKind::Crash { pid },
                        effects: Effects::default(),
                        vc_after,
                        post_state: None,
                    });
                }
                other => unreachable!("event kind never queued on a shard: {other:?}"),
            }
        }
        self.busy_window = thread_cpu_now().saturating_sub(t0);
    }

    /// Run one handler and stage its step. Local effect application is
    /// limited to what cannot escape the shard inside a window: own
    /// in-window timers (provisional keys), timer cancels, self-crash
    /// status. Everything global replays at the barrier.
    #[allow(clippy::too_many_arguments)]
    fn exec(
        &mut self,
        at: VTime,
        key: SeqKey,
        kind: EventKind,
        wend: VTime,
        n: usize,
        start_time: VTime,
        mode: RunMode,
    ) {
        let pid = kind.pid().expect("executable events target a pid");
        // Virtual "now" as the serial world would see it: monotonic,
        // floored at the configured start time.
        let at_eff = at.max(start_time);
        if let EventKind::Deliver { msg } = &kind {
            let e = self.table.ent_mut(pid);
            e.vc.tick(pid);
            e.vc.merge(&msg.vc);
            e.lamport = e.lamport.max(msg.meta.lamport) + 1;
            e.delivered += 1;
            if mode.supervised {
                // A supervised serial run checkpoints the receiver
                // before every delivery and stamps the new checkpoint
                // index into its meta template (which flows into every
                // message it subsequently sends). The index equals the
                // delivery ordinal — index 0 is the init checkpoint —
                // so the executor can stamp it without the Time
                // Machine being present.
                e.meta_template.ckpt_index = e.delivered;
            }
        }
        let effects = {
            let e = self.table.ent_mut(pid);
            if matches!(kind, EventKind::Start { .. }) {
                e.vc.tick(pid);
                e.lamport += 1;
            }
            let mut ctx = Context::new(
                pid,
                at_eff,
                n,
                &mut e.rng,
                &mut e.vc,
                &mut e.lamport,
                &mut e.next_msg_id,
                &mut e.next_timer_id,
                e.meta_template,
                &mut self.arena,
            );
            match &kind {
                EventKind::Start { .. } => e.program.on_start(&mut ctx),
                EventKind::Deliver { msg } => e.program.on_message(&mut ctx, msg),
                EventKind::TimerFire { timer, .. } => e.program.on_timer(&mut ctx, *timer),
                _ => unreachable!("exec only runs handler events"),
            }
            ctx.into_effects()
        };
        // In-window timers execute this window under a provisional key;
        // later ones are minted and queued by the barrier replay.
        for (timer, fire_at) in &effects.timers_set {
            if *fire_at < wend {
                let key = SeqKey::Provisional(self.prov_next);
                self.prov_next += 1;
                self.queue.push(ShardEvent {
                    at: *fire_at,
                    key,
                    kind: EventKind::TimerFire { pid, timer: *timer },
                });
            }
        }
        for t in &effects.timers_cancelled {
            self.cancelled.insert((pid.0, t.0));
        }
        if effects.crashed {
            self.table.set_status(pid, ProcStatus::Crashed);
        }
        let vc_after = mode.capturing.then(|| self.table.vc_of(pid).clone());
        let post_state = mode.capturing.then(|| {
            self.table
                .ent(pid)
                .expect("exec materialized the pid")
                .program
                .snapshot()
        });
        self.out.push_back(PendingStep {
            at,
            key,
            kind,
            effects,
            vc_after,
            post_state,
        });
    }
}

/// A shard's home slot in [`ShardedWorld`]. The parallel phase moves a
/// busy shard out to the worker that executes its window and back again
/// before the barrier, so everywhere else the slot is full and reads
/// as the shard itself.
struct Slot(Option<Box<Shard>>);

impl Deref for Slot {
    type Target = Shard;
    fn deref(&self) -> &Shard {
        self.0
            .as_deref()
            .expect("shard is home outside the parallel phase")
    }
}

impl DerefMut for Slot {
    fn deref_mut(&mut self) -> &mut Shard {
        self.0
            .as_deref_mut()
            .expect("shard is home outside the parallel phase")
    }
}

/// One shard out for one window. Handed to a worker and handed back
/// **by ownership**, which is what lets a worker outlive the window
/// without borrowing the world.
struct Job {
    shard: Box<Shard>,
    wend: VTime,
}

/// The coordinator's ends of one worker's two channels. Each worker has
/// its own pair so that a worker dying mid-window (a handler panic)
/// disconnects `done` and the coordinator's receive fails instead of
/// waiting for a shard that will never come back.
struct Link {
    job: SyncSender<Job>,
    done: Receiver<Job>,
}

/// Accounting of one sharded run: the parallel critical path (sum over
/// windows of the slowest shard) and the serial coordinator time — what
/// a modelled speedup is computed from on machines with fewer cores
/// than shards. The durations are measurements and differ from run to
/// run; `windows` and `inline_windows` are deterministic counters.
#[derive(Clone, Copy, Debug)]
pub struct ShardTiming {
    /// Sum over windows of the slowest shard's window time (thread-CPU
    /// time, whichever thread ran the window) — the parallel phase's
    /// critical path. A shard that sits a window out contributes zero
    /// to it.
    pub critical: Duration,
    /// Time spent in the serial barrier replay.
    pub coordinator: Duration,
    /// Conservative windows executed. The window grid is global, so
    /// this is the same number at every shard count.
    pub windows: u64,
    /// Windows in which at most one shard had work and ran on the
    /// calling thread with no hand-off.
    pub inline_windows: u64,
}

/// A [`World`](crate::World)-equivalent simulator that executes windows
/// of events on `S` shards in parallel and commits them through a serial
/// `(at, seq)` barrier merge. For any shard count the event sequence,
/// trace, and captured replay stream are byte-identical to the serial
/// `World`'s. See module docs for the discipline.
pub struct ShardedWorld {
    cfg: WorldConfig,
    n: usize,
    /// Lower bound on delivery latency across the default policy *and
    /// every link override* — the floor any window can shrink to, and
    /// the bound used past a pending partition flip (which may revive
    /// a currently-dead fast link). The actual per-window lookahead is
    /// recomputed each window by [`ShardedWorld::window_end`].
    lat_all: VTime,
    shards: Vec<Slot>,
    /// Fault-plan partition flips, minted at seal: `(at, seq, next)`,
    /// sorted by `(at, seq)` — coordinator-owned events.
    partition_pending: VecDeque<(VTime, u64, Partition)>,
    partition: Partition,
    faults: FaultPlan,
    now: VTime,
    sched_seq: u64,
    exec_seq: u64,
    net_rng: crate::rng::DetRng,
    stats: NetStats,
    trace: Trace,
    steps: u64,
    sealed: bool,
    serial: Duration,
    critical: Duration,
    windows: u64,
    inline_windows: u64,
    event_batch: Vec<crate::world::QueuedEvent>,
    /// Reusable delivery-plan scratch for the barrier's routing (same
    /// role as the serial world's).
    plan_scratch: Vec<crate::network::DeliveryOutcome>,
    /// Barrier scratch (both: empty between windows, capacity kept).
    /// Provisional-key resolution: per shard, mint index → serial
    /// scheduling seq.
    prov_map: Vec<Vec<u64>>,
    /// Barrier scratch: route-minted drops awaiting their merge slot.
    drops: BinaryHeap<DropEvent>,
    /// Mirror supervised-serial message stamping during execution (see
    /// [`Shard::exec`]); enabled by [`ShardedWorld::run_supervised`].
    supervised: bool,
    /// When present, the barrier appends every committed step here as a
    /// [`ReplayStep`] for mirror-world supervision.
    capture: Option<Vec<ReplayStep>>,
    /// Thread-local payload counters at construction (coordinator
    /// thread baseline).
    payload_base: crate::payload::PayloadStats,
    /// Payload deltas folded in from retired worker threads.
    payload_accum: crate::payload::PayloadStats,
    /// Coordinator recycling pool: barrier records draw from here, and
    /// trace evictions (the point where the world sees last references)
    /// return shells here; shards take message shells between windows.
    arena: StepArena,
}

/// Flags threaded through one run call into the shard workers.
#[derive(Clone, Copy)]
struct RunMode {
    /// Capture per-step vector clocks and post-handler program
    /// snapshots for a replay stream.
    capturing: bool,
    /// Stamp checkpoint ordinals into receiver meta templates, exactly
    /// as a supervised serial run's Time Machine would.
    supervised: bool,
}

impl ShardedWorld {
    /// A fresh sharded world with `shards` shards. Panics if the
    /// network's minimum delivery latency is zero: the conservative
    /// window needs every send to land strictly after the window it
    /// was made in.
    pub fn new(cfg: WorldConfig, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let mut lat_all = cfg.net.policy.min_latency();
        for l in &cfg.net.links {
            lat_all = lat_all.min(l.policy.min_latency());
        }
        assert!(
            lat_all >= 1,
            "sharded execution requires a minimum network delivery latency of at least 1 \
             virtual tick (got 0): a zero-latency send could influence its own window"
        );
        let net_rng = crate::rng::DetRng::derive(cfg.seed, u64::MAX);
        let trace = match cfg.trace_cap {
            Some(cap) => Trace::bounded(cap),
            None => Trace::unbounded(),
        };
        let slots: Vec<Slot> = (0..shards)
            .map(|s| {
                Slot(Some(Box::new(Shard::new(
                    cfg.seed,
                    shards as u32,
                    s as u32,
                ))))
            })
            .collect();
        Self {
            partition: Partition::none(0),
            now: cfg.start_time,
            lat_all,
            cfg,
            n: 0,
            shards: slots,
            partition_pending: VecDeque::new(),
            faults: FaultPlan::none(),
            sched_seq: 0,
            exec_seq: 0,
            net_rng,
            stats: NetStats::default(),
            trace,
            steps: 0,
            sealed: false,
            serial: Duration::ZERO,
            critical: Duration::ZERO,
            windows: 0,
            inline_windows: 0,
            event_batch: Vec::new(),
            plan_scratch: Vec::new(),
            prov_map: vec![Vec::new(); shards],
            drops: BinaryHeap::new(),
            supervised: false,
            capture: None,
            payload_base: crate::payload::stats(),
            payload_accum: crate::payload::PayloadStats::default(),
            arena: StepArena::new(),
        }
    }

    /// End of the conservative window starting at `tmin`, recomputed
    /// **per window** from the live per-edge delivery policies:
    ///
    /// * a link whose endpoints are currently partitioned apart, or
    ///   whose source is crashed, cannot deliver this window — its
    ///   (possibly small) latency does not narrow the window;
    /// * wildcard links always count (any pid may send over them);
    /// * a pending fault-plan partition flip at `tp` may revive a dead
    ///   fast link, so the window never extends past `tp + lat_all`.
    ///
    /// Recomputing per window is what keeps the bound fresh across
    /// every mid-run mutation of delivery timing (partition flips,
    /// crashes): a bound pinned at construction would be unsound the
    /// moment a heal exposed a faster live link.
    fn window_end(&self, tmin: VTime) -> VTime {
        let mut lat_now = self.cfg.net.policy.min_latency();
        for l in &self.cfg.net.links {
            let live = match (l.src, l.dst) {
                (Some(s), Some(d)) => {
                    self.partition.connected(s, d)
                        && self.shards[self.owner(s)].table.status_of(s) != ProcStatus::Crashed
                }
                _ => true,
            };
            if live {
                lat_now = lat_now.min(l.policy.min_latency());
            }
        }
        let mut wend = tmin.saturating_add(lat_now);
        if let Some((tp, _, _)) = self.partition_pending.front() {
            // tp >= tmin (tmin is the global queue minimum) and
            // lat_all >= 1, so the window still advances.
            wend = wend.min(tp.saturating_add(self.lat_all));
        }
        wend
    }

    #[inline]
    fn owner(&self, pid: Pid) -> usize {
        pid.idx() % self.shards.len()
    }

    /// Add a process (same pid assignment as
    /// [`World::add_process`](crate::World::add_process)).
    pub fn add_process(&mut self, program: Box<dyn crate::program::Program>) -> Pid {
        assert!(!self.sealed, "cannot add processes after the world started");
        let pid = Pid(self.n as u32);
        self.n += 1;
        for sh in &mut self.shards {
            sh.table.grow_to(self.n);
        }
        let s = self.owner(pid);
        self.shards[s].table.install(pid, program);
        pid
    }

    /// Add `count` lazily materialized processes (see
    /// [`World::add_lazy_processes`](crate::World::add_lazy_processes)).
    /// The factory is shared by all shards; each materializes only the
    /// pids it owns.
    pub fn add_lazy_processes(
        &mut self,
        count: usize,
        factory: impl Fn(Pid) -> Box<dyn crate::program::Program> + Send + Sync + 'static,
    ) -> std::ops::Range<u32> {
        assert!(!self.sealed, "cannot add processes after the world started");
        let start = self.n as u32;
        let end = start + count as u32;
        self.n += count;
        let f: ProcFactory = Arc::new(factory);
        for sh in &mut self.shards {
            sh.table.grow_to(self.n);
            sh.table.add_lazy(start, end, Arc::clone(&f));
        }
        start..end
    }

    /// Install a fault plan. Must precede the first run call.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !self.sealed,
            "fault plan must be installed before the world starts"
        );
        self.faults = plan;
    }

    /// Schedule a fresh `on_start` for `pid` at the current time —
    /// mints its scheduling seq immediately, exactly like
    /// [`World::schedule_start`](crate::World::schedule_start).
    pub fn schedule_start(&mut self, pid: Pid) {
        let seq = self.sched_seq;
        self.sched_seq += 1;
        let s = self.owner(pid);
        self.shards[s].queue.push(ShardEvent {
            at: self.now,
            key: SeqKey::Final(seq),
            kind: EventKind::Start { pid },
        });
    }

    /// Mint the seal-time events in the serial world's exact order:
    /// fault-plan crashes, partition flips, then start events for
    /// materialized pids ascending.
    fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        self.partition = Partition::none(self.n);
        let crashes = self.faults.scheduled_crashes();
        for (pid, at) in crashes {
            let seq = self.sched_seq;
            self.sched_seq += 1;
            let s = self.owner(pid);
            self.shards[s].queue.push(ShardEvent {
                at,
                key: SeqKey::Final(seq),
                kind: EventKind::Crash { pid },
            });
        }
        for (at, partition) in self.faults.scheduled_partitions(self.n) {
            let seq = self.sched_seq;
            self.sched_seq += 1;
            self.partition_pending.push_back((at, seq, partition));
        }
        let start = self.cfg.start_time;
        let mut started: Vec<Pid> = self
            .shards
            .iter()
            .flat_map(|sh| sh.table.materialized_pids().collect::<Vec<_>>())
            .collect();
        started.sort_unstable();
        for pid in started {
            let seq = self.sched_seq;
            self.sched_seq += 1;
            let s = self.owner(pid);
            self.shards[s].queue.push(ShardEvent {
                at: start,
                key: SeqKey::Final(seq),
                kind: EventKind::Start { pid },
            });
        }
    }

    /// Earliest pending event time across all shards and the
    /// coordinator's partition schedule — the next window's start.
    /// Shard-count-invariant: it is the global queue minimum.
    fn min_pending(&self) -> Option<VTime> {
        let mut t: Option<VTime> = None;
        for sh in &self.shards {
            if let Some(at) = sh.queue.min_at() {
                t = Some(t.map_or(at, |x| x.min(at)));
            }
        }
        if let Some((at, _, _)) = self.partition_pending.front() {
            let at = *at;
            t = Some(t.map_or(at, |x| x.min(at)));
        }
        t
    }

    /// Run until quiescent or the step budget is exhausted. The budget
    /// is checked at window granularity (never mid-window), so a run
    /// may overshoot `max_steps` — deterministically, and identically
    /// for every shard count, because the window grid is global.
    pub fn run_to_quiescence(&mut self, max_steps: u64) -> RunReport {
        self.run(max_steps)
    }

    /// Run like [`ShardedWorld::run_to_quiescence`], but in
    /// **supervised mode**: receiver meta templates are stamped with
    /// checkpoint ordinals exactly as a supervised serial run's Time
    /// Machine would (so sent message bytes match), and every committed
    /// step is captured as a [`ReplayStep`]. Feed the returned stream
    /// to [`crate::World::begin_replay`] on a mirror world and the real
    /// supervision loop — Scroll, Time Machine, monitors — runs against
    /// it unchanged, producing byte-identical results to serial
    /// supervised execution.
    ///
    /// Must be the world's first and only run call (stamping has to
    /// cover every delivery from the start).
    pub fn run_supervised(&mut self, max_steps: u64) -> (RunReport, Vec<ReplayStep>) {
        assert!(
            !self.sealed,
            "supervised capture must cover the run from its first event"
        );
        self.supervised = true;
        self.capture = Some(Vec::new());
        let report = self.run(max_steps);
        let stream = self.capture.take().unwrap_or_default();
        (report, stream)
    }

    /// The engine behind both run calls. It spawns its `shards - 1`
    /// worker threads once and retires them before it returns; see the
    /// module docs.
    fn run(&mut self, max_steps: u64) -> RunReport {
        self.seal();
        let mode = RunMode {
            capturing: self.capture.is_some(),
            supervised: self.supervised,
        };
        let d0 = self.stats.delivered;
        let x0 = self.stats.dropped;
        let s0 = self.steps;
        let n = self.n;
        let start_time = self.cfg.start_time;
        let worker_payload = std::thread::scope(|scope| {
            // Worker `s` serves shard `s`; shard 0 has none — the
            // calling thread always executes a shard itself.
            let (links, workers): (Vec<_>, Vec<_>) = (1..self.shards.len())
                .map(|_| {
                    let (job, jobs) = sync_channel::<Job>(1);
                    let (dones, done) = sync_channel::<Job>(1);
                    let worker = scope.spawn(move || {
                        // A worker outlives its windows, so its payload
                        // traffic is a delta, not the counters' value.
                        let base = crate::payload::stats();
                        // Parked on the receive between windows; both
                        // loop exits mean the coordinator is gone.
                        while let Ok(mut j) = jobs.recv() {
                            j.shard.run_window(j.wend, n, start_time, mode);
                            if dones.send(j).is_err() {
                                break;
                            }
                        }
                        crate::payload::stats().since(base)
                    });
                    (Link { job, done }, worker)
                })
                .unzip();
            while self.steps - s0 < max_steps {
                let Some(tmin) = self.min_pending() else {
                    break;
                };
                let wend = self.window_end(tmin);
                self.run_window(wend, mode, &links);
                let t0 = thread_cpu_now();
                self.barrier_replay(wend);
                self.serial += thread_cpu_now().saturating_sub(t0);
            }
            drop(links); // wakes every parked worker into its exit
            workers
                .into_iter()
                .map(|w| w.join().expect("shard worker panicked"))
                .fold(crate::payload::PayloadStats::default(), |a, d| a.plus(d))
        });
        self.payload_accum = self.payload_accum.plus(worker_payload);
        RunReport {
            steps: self.steps - s0,
            delivered: self.stats.delivered - d0,
            dropped: self.stats.dropped - x0,
            end_time: self.now,
            quiescent: self.min_pending().is_none(),
        }
    }

    /// Parallel phase: every shard with work executes its window. The
    /// lowest such shard runs on the calling thread, the others go out
    /// to their parked workers first and are collected after it; a
    /// window with at most one busy shard involves no other thread.
    fn run_window(&mut self, wend: VTime, mode: RunMode, links: &[Link]) {
        let n = self.n;
        let start_time = self.cfg.start_time;
        // Close the recycling loop: barrier evictions landed in the
        // coordinator's pool, but the allocating happens in the shards'
        // handlers — hand the reclaimed shells back before dispatch.
        let pooled = self.arena.stats().msgs_pooled;
        if pooled > 0 {
            let share = (pooled / self.shards.len()).max(1);
            for sh in &mut self.shards {
                sh.arena.take_messages_from(&mut self.arena, share);
            }
        }
        let mut own: Option<usize> = None;
        for (s, slot) in self.shards.iter_mut().enumerate() {
            // Work is an event inside the window.
            if slot.queue.peek().is_none_or(|head| head.at >= wend) {
                slot.busy_window = Duration::ZERO;
            } else if own.is_none() {
                own = Some(s);
            } else {
                let shard = slot.0.take().expect("shard is home at window start");
                links[s - 1]
                    .job
                    .send(Job { shard, wend })
                    .expect("shard worker panicked");
            }
        }
        if let Some(s) = own {
            // Handler payload traffic lands on this thread's counters,
            // already covered by `payload_base`.
            self.shards[s].run_window(wend, n, start_time, mode);
        }
        let mut inline = true;
        for (s, slot) in self.shards.iter_mut().enumerate() {
            if slot.0.is_none() {
                // A worker that panicked dropped its end of `done`.
                let j = links[s - 1].done.recv().expect("shard worker panicked");
                slot.0 = Some(j.shard);
                inline = false;
            }
        }
        self.windows += 1;
        self.inline_windows += u64::from(inline);
        self.critical += self
            .shards
            .iter()
            .map(|s| s.busy_window)
            .max()
            .unwrap_or_default();
    }

    /// Serial phase: commit the shards' staged steps merged by
    /// `(at, seq)`, replaying all globally ordered effects — exec-seq
    /// minting, routing (network RNG draws, partitions, stats), timer
    /// scheduling, trace/crash records — in the serial world's order.
    fn barrier_replay(&mut self, wend: VTime) {
        let shard_count = self.shards.len();

        #[derive(Clone, Copy)]
        enum Src {
            Shard(usize),
            Drop,
            Partition,
        }

        loop {
            let mut best: Option<(VTime, u64, Src)> = None;
            let consider = |at: VTime, seq: u64, src: Src, best: &mut Option<(VTime, u64, Src)>| {
                if best.is_none_or(|(ba, bs, _)| (at, seq) < (ba, bs)) {
                    *best = Some((at, seq, src));
                }
            };
            for (s, sh) in self.shards.iter().enumerate() {
                if let Some(ps) = sh.out.front() {
                    let seq = match ps.key {
                        SeqKey::Final(q) => q,
                        SeqKey::Provisional(m) => *self.prov_map[s]
                            .get(m as usize)
                            .expect("provisional key resolved before its record merges"),
                    };
                    consider(ps.at, seq, Src::Shard(s), &mut best);
                }
            }
            if let Some(d) = self.drops.peek() {
                consider(d.at, d.seq, Src::Drop, &mut best);
            }
            if let Some((at, seq, _)) = self.partition_pending.front() {
                if *at < wend {
                    consider(*at, *seq, Src::Partition, &mut best);
                }
            }
            let Some((at, _seq, src)) = best else { break };
            let at_eff = at.max(self.cfg.start_time);
            self.now = self.now.max(at_eff);

            match src {
                Src::Drop => {
                    let d = self.drops.pop().expect("peeked drop exists");
                    let k = self.exec_seq;
                    self.exec_seq += 1;
                    self.stats.dropped += 1;
                    self.steps += 1;
                    let effects = self.arena.make_effects();
                    let record = self.arena.make_record(
                        Event {
                            seq: k,
                            at: at_eff,
                            kind: EventKind::Drop { msg: d.msg },
                        },
                        effects,
                    );
                    if let Some(evicted) = self.trace.push(Arc::clone(&record)) {
                        self.arena.recycle_record(evicted);
                    }
                    if let Some(cap) = self.capture.as_mut() {
                        cap.push(ReplayStep {
                            record,
                            vc_after: None,
                            post_state: None,
                        });
                    }
                }
                Src::Partition => {
                    let (_, _, partition) = self
                        .partition_pending
                        .pop_front()
                        .expect("peeked partition exists");
                    self.partition = partition.clone();
                    let k = self.exec_seq;
                    self.exec_seq += 1;
                    self.steps += 1;
                    let effects = self.arena.make_effects();
                    let record = self.arena.make_record(
                        Event {
                            seq: k,
                            at: at_eff,
                            kind: EventKind::PartitionChange { partition },
                        },
                        effects,
                    );
                    if let Some(evicted) = self.trace.push(Arc::clone(&record)) {
                        self.arena.recycle_record(evicted);
                    }
                    if let Some(cap) = self.capture.as_mut() {
                        cap.push(ReplayStep {
                            record,
                            vc_after: None,
                            post_state: None,
                        });
                    }
                }
                Src::Shard(s) => {
                    let ps = self.shards[s].out.pop_front().expect("peeked step exists");
                    let pid = ps.kind.pid().expect("shard steps target a pid");
                    let k = self.exec_seq;
                    self.exec_seq += 1;
                    // Replay effects in apply_effects order: sends
                    // routed first (through the same NetSide helper the
                    // serial world uses), then timers minted.
                    let mut batch = std::mem::take(&mut self.event_batch);
                    NetSide {
                        faults: &self.faults,
                        net: &self.cfg.net,
                        partition: &self.partition,
                        net_rng: &mut self.net_rng,
                        stats: &mut self.stats,
                        sched_seq: &mut self.sched_seq,
                        plan_scratch: &mut self.plan_scratch,
                        now: at_eff,
                    }
                    .route_sends(&ps.effects.sends, &mut batch);
                    for qe in batch.drain(..) {
                        match qe.kind {
                            EventKind::Deliver { msg } => {
                                assert!(
                                    qe.at >= wend,
                                    "conservative window violated: a send delivered \
                                     inside its own window"
                                );
                                let owner = msg.dst.idx() % shard_count;
                                self.shards[owner].queue.push(ShardEvent {
                                    at: qe.at,
                                    key: SeqKey::Final(qe.seq),
                                    kind: EventKind::Deliver { msg },
                                });
                            }
                            EventKind::Drop { msg } => self.drops.push(DropEvent {
                                at: qe.at,
                                seq: qe.seq,
                                msg,
                            }),
                            other => unreachable!("routing plans only deliveries/drops: {other:?}"),
                        }
                    }
                    self.event_batch = batch;
                    for (timer, fire_at) in &ps.effects.timers_set {
                        let seq = self.sched_seq;
                        self.sched_seq += 1;
                        if *fire_at < wend {
                            // Executed in-window under a provisional
                            // key; record its serial seq for the merge.
                            // Mint indices are handed out densely and
                            // in order, so index `m` is the `m`-th push
                            // (a minter always precedes its timer in
                            // the same out list).
                            self.prov_map[s].push(seq);
                        } else {
                            self.shards[s].queue.push(ShardEvent {
                                at: *fire_at,
                                key: SeqKey::Final(seq),
                                kind: EventKind::TimerFire { pid, timer: *timer },
                            });
                        }
                    }
                    // Self-crash: the side record precedes the main
                    // record in the trace, with the higher seq — the
                    // serial world's exact (quirky) order.
                    if ps.effects.crashed {
                        let sk = self.exec_seq;
                        self.exec_seq += 1;
                        let side_effects = self.arena.make_effects();
                        let side = self.arena.make_record(
                            Event {
                                seq: sk,
                                at: at_eff,
                                kind: EventKind::Crash { pid },
                            },
                            side_effects,
                        );
                        if let Some(evicted) = self.trace.push(side) {
                            self.arena.recycle_record(evicted);
                        }
                    }
                    match &ps.kind {
                        EventKind::Deliver { .. } => self.stats.delivered += 1,
                        EventKind::Drop { .. } => self.stats.dropped += 1,
                        _ => {}
                    }
                    self.steps += 1;
                    let record = self.arena.make_record(
                        Event {
                            seq: k,
                            at: at_eff,
                            kind: ps.kind,
                        },
                        ps.effects,
                    );
                    if let Some(evicted) = self.trace.push(Arc::clone(&record)) {
                        self.arena.recycle_record(evicted);
                    }
                    if let Some(cap) = self.capture.as_mut() {
                        cap.push(ReplayStep {
                            record,
                            vc_after: ps.vc_after,
                            post_state: ps.post_state,
                        });
                    }
                }
            }
        }
        // Leave the scratch empty (`drops` drained itself): capacity
        // stays.
        for resolved in &mut self.prov_map {
            resolved.clear();
        }
    }

    // ------------------------------------------------------------------
    // Accessors (the `World` read surface the test suites compare)
    // ------------------------------------------------------------------

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of processes.
    pub fn num_procs(&self) -> usize {
        self.n
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Network counters (byte-equal to the serial run's).
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Payload bytes copied/aliased on behalf of this world since its
    /// construction: the coordinator thread's delta plus the folded-in
    /// deltas of every finished worker thread. With the serial world's
    /// counted-clone compensation in the shard workers, the figure is
    /// byte-equal to [`crate::World::payload_stats`] for the same run.
    pub fn payload_stats(&self) -> crate::payload::PayloadStats {
        crate::payload::stats()
            .since(self.payload_base)
            .plus(self.payload_accum)
    }

    /// The committed trace, in serial order.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Liveness of a process.
    pub fn status(&self, pid: Pid) -> ProcStatus {
        self.shards[self.owner(pid)].table.status_of(pid)
    }

    /// A process's current vector clock (dormant pids share the static
    /// zero clock).
    pub fn proc_vc(&self, pid: Pid) -> &VectorClock {
        self.shards[self.owner(pid)].table.vc_of(pid)
    }

    /// Is `pid` materialized on its owning shard?
    pub fn is_materialized(&self, pid: Pid) -> bool {
        self.shards[self.owner(pid)].table.is_materialized(pid)
    }

    /// Materialized processes across all shards.
    pub fn materialized_procs(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.table.materialized_count())
            .sum()
    }

    /// Typed read access to a process's program.
    pub fn program<T: 'static>(&self, pid: Pid) -> Option<&T> {
        self.shards[self.owner(pid)]
            .table
            .ent(pid)?
            .program
            .as_any()
            .downcast_ref::<T>()
    }

    /// Snapshot every process, exactly as
    /// [`World::global_snapshot`](crate::World::global_snapshot).
    pub fn global_snapshot(&self) -> crate::world::GlobalSnapshot {
        let mut states = Vec::with_capacity(self.n);
        let mut vcs = Vec::with_capacity(self.n);
        let mut statuses = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let pid = Pid(i as u32);
            let table = &self.shards[self.owner(pid)].table;
            match table.ent(pid) {
                Some(e) => {
                    states.push(e.program.snapshot());
                    vcs.push(e.vc.clone());
                    statuses.push(e.status);
                }
                None => {
                    let fresh = table.fresh_entry(pid);
                    states.push(fresh.program.snapshot());
                    vcs.push(VectorClock::ZERO);
                    statuses.push(table.status_of(pid));
                }
            }
        }
        crate::world::GlobalSnapshot {
            at: self.now,
            states,
            vcs,
            statuses,
        }
    }

    /// Timing breakdown of the run so far (see [`ShardTiming`]).
    pub fn timing(&self) -> ShardTiming {
        ShardTiming {
            critical: self.critical,
            coordinator: self.serial,
            windows: self.windows,
            inline_windows: self.inline_windows,
        }
    }

    /// The coordinator arena's recycling counters and resident
    /// footprint (barrier records and reclaimed shells pool here).
    pub fn arena_stats(&self) -> crate::arena::ArenaStats {
        self.arena.stats()
    }

    /// Per-shard arena counters and resident footprints, in shard
    /// order — the data for sizing the pool caps at scale.
    pub fn shard_arena_stats(&self) -> Vec<crate::arena::ArenaStats> {
        self.shards.iter().map(|s| s.arena.stats()).collect()
    }
}
