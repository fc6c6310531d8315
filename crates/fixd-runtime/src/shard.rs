//! Sharded execution: how a [`World`](crate::World) runs its handlers
//! after [`World::shard`](crate::World::shard). The pid space is
//! partitioned across shards, each owning copies of its processes and
//! their queues, executed in parallel with the others, with
//! **deterministic cross-shard message handoff**.
//!
//! ```text
//!             window [T, T+L)          merge                  next window
//!   shard 0:  run own events  ─┐
//!   shard 1:  run own events  ─┼─▶  World::step commits the   ─▶  mailboxes
//!   shard 2:  run own events  ─┘    staged steps one at a          delivered
//!                                   time, merged by (at, seq)
//! ```
//!
//! The schedule is **conservative**: with `L` = the network's minimum
//! delivery latency, any send performed at time `t ≥ T` delivers at
//! `t + L ≥ T + L`, i.e. beyond the window end. So inside a window a
//! shard's processes can only be affected by (a) events already queued
//! before the window and (b) their own timers — both shard-local. A
//! shard stages each step it executes: the event, the handler's effects
//! and the acting process's post-step state. All globally ordered state
//! (the scheduling/execution sequence counters, the network RNG,
//! routing, partitions, stats, the trace, the world's own process
//! table) is touched only when the world commits a staged step, which
//! it does through its serial code, one step per `step` call, in
//! `(at, seq)` order — so the world's event sequence, trace and process
//! table are the serial world's **byte for byte** at every step, and
//! the supervisor, its monitors, the Time Machine and the Scroll run on
//! a sharded world unchanged.
//!
//! Events scheduled *during* a window are only the pid's own timers; a
//! timer landing inside the current window gets a *provisional* key
//! (per-shard mint index) that the commit resolves to its serial
//! sequence number before the record is merged — valid because every
//! in-window mint receives a serial seq greater than any pre-window
//! key at the same timestamp (`SeqKey`'s ordering).
//!
//! The shards run ahead of the world by at most one window. Anything
//! that would rewrite the world's past or inject into the window under
//! way (rollback, checkpoint restore, event purges and injections,
//! `Clone`) is refused on a sharded world: it would need the shards to
//! un-stage their lookahead, which needs them to record the events they
//! skip.
//!
//! ## Threads
//!
//! Which thread executes a shard's window has no bearing on the result
//! (a window touches nothing outside its shard), so it is purely a
//! scheduling matter:
//!
//! * **Threads are created once per world.** [`World::shard`](crate::World::shard) spawns
//!   `shards − 1` workers, and dropping the world retires them. Between
//!   windows a worker is parked on a blocking channel receive — it never
//!   spins, so idle workers cost nothing on hosts with fewer cores than
//!   shards.
//! * **The calling thread executes a shard itself.** Per window the
//!   world finds the shards with work (an event before the window end),
//!   sends all but the lowest-numbered one to their workers — the boxed
//!   shard travels through the channel *by ownership* and comes back the
//!   same way, so no worker ever borrows the world — runs the remaining
//!   one, and collects the others. A sharded world therefore occupies
//!   `shards` threads, not `shards + 1`.
//! * **A window with at most one busy shard runs inline** on the
//!   calling thread with no hand-off. A shard with no work is not
//!   touched at all.
//! * **A handler panic surfaces on the caller, with its own payload.**
//!   Each worker has its own channel pair; one that dies mid-window
//!   drops its ends, the world's receive fails, and the world joins the
//!   worker and re-raises its panic instead of waiting for a shard that
//!   will never come back.
//!
//! A hand-off is a futex wake of a parked thread and, if the worker
//! finishes last, one of the caller: on the 2-vCPU reference host
//! 55–80 µs of wall clock per handed-off window beyond the window's
//! critical path. [`ShardTiming`] reports the window counts.
//!
//! ## Payload accounting
//!
//! Payload counters are thread-local, and a window's handlers run on
//! several threads ahead of the world. Each staged step therefore
//! carries its own counter delta, and the world counts it when the step
//! commits: a run cut mid-window reports exactly the serial run's
//! [`PayloadStats`].

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::arena::{ArenaStats, StepArena};
use crate::calqueue::{CalEntry, CalQueue};
use crate::event::{Effects, EventKind};
use crate::network::{NetworkConfig, Partition};
use crate::payload::{self, PayloadStats};
use crate::procs::{Handler, ProcContext, ProcEntry, ProcTable};
use crate::world::{ProcStatus, QueuedEvent, WorldConfig};
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
/// provisional mint index, resolved at commit. `Final < any
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

/// The acting process's state right after a handler ran on its shard:
/// its program bytes and its [`ProcContext`].
pub(crate) struct PostState {
    program: Vec<u8>,
    ctx: ProcContext,
}

impl PostState {
    fn capture(e: &ProcEntry) -> Self {
        Self {
            program: e.program.snapshot(),
            ctx: e.ctx.clone(),
        }
    }

    /// Write this state into the world's entry for the same pid. The
    /// entry keeps its liveness (the commit applies crashes itself) and
    /// its checkpoint index (the Time Machine writes the world's own).
    pub(crate) fn apply(self, e: &mut ProcEntry) {
        e.program.restore(&self.program);
        let ckpt_index = e.ctx.ckpt_index;
        e.ctx = self.ctx;
        e.ctx.ckpt_index = ckpt_index;
    }
}

/// A handler step as its shard ran it: the effects the world routes and
/// the state it writes back.
pub(crate) struct Staged {
    pub(crate) effects: Effects,
    pub(crate) post: PostState,
}

/// One executed-but-not-yet-committed step, staged by a shard, or a
/// world-owned event (a drop, a partition flip) at its merge slot.
pub(crate) struct PendingStep {
    pub(crate) at: VTime,
    key: SeqKey,
    pub(crate) kind: EventKind,
    /// `None` for steps that run no handler (drops, crashes).
    pub(crate) staged: Option<Staged>,
    /// Payload traffic of executing the step, counted when it commits.
    pub(crate) payload: PayloadStats,
}

impl PendingStep {
    /// A world-owned event: no handler ran for it, no traffic yet.
    fn unstaged(qe: QueuedEvent) -> Self {
        Self {
            at: qe.at,
            key: SeqKey::Final(qe.seq),
            kind: qe.kind,
            staged: None,
            payload: PayloadStats::default(),
        }
    }
}

struct Shard {
    table: ProcTable,
    queue: CalQueue<ShardEvent>,
    cancelled: HashSet<(u32, u64)>,
    start_time: VTime,
    /// Provisional mint counter for the current window.
    prov_next: u64,
    /// Steps executed this window, in shard-local order; the world pops
    /// them from the front as it commits.
    out: VecDeque<PendingStep>,
    /// Per-shard recycling pool. Shards allocate message boxes inside
    /// their windows; the world (which observes last references when
    /// its trace evicts) donates reclaimed shells back between windows.
    arena: StepArena,
    busy_window: Duration,
    /// Payload traffic of this window's steps.
    window_payload: PayloadStats,
    /// Stamp checkpoint ordinals into receivers' checkpoint indices, as a
    /// Time Machine under `CheckpointPolicy::EveryReceive` does.
    stamp_receives: bool,
    /// Deliveries this shard has executed.
    deliveries: u64,
}

impl Shard {
    /// Execute this shard's events with `at < wend`, staging each step
    /// into `out`. Admission and the handlers are the world's own
    /// ([`ProcTable::admit`], [`ProcContext::run_handler`]); a crash marks
    /// its pid here too, ahead of the world, so the shard skips what the
    /// world will skip.
    fn run_window(&mut self, wend: VTime) {
        let t0 = thread_cpu_now();
        self.prov_next = 0;
        self.window_payload = PayloadStats::default();
        while let Some(ev) = self.queue.pop_before(wend) {
            let p0 = payload::stats();
            let Some(kind) = self.table.admit(ev.kind, &mut self.cancelled) else {
                continue;
            };
            let (staged, step_payload) = match &kind {
                EventKind::Start { pid } => self.exec(*pid, Handler::Start, ev.at, wend, p0),
                EventKind::Deliver { msg } => {
                    self.exec(msg.dst, Handler::Deliver(msg), ev.at, wend, p0)
                }
                EventKind::TimerFire { pid, timer } => {
                    self.exec(*pid, Handler::Timer(*timer), ev.at, wend, p0)
                }
                EventKind::Crash { pid } => {
                    // Status-only: a dormant target stays dormant.
                    self.table.set_status(*pid, ProcStatus::Crashed);
                    (None, payload::stats().since(p0))
                }
                // Drops (and any other handler-free event) change nothing
                // on the shard: the world applies them at commit.
                _ => (None, payload::stats().since(p0)),
            };
            self.window_payload = self.window_payload.plus(step_payload);
            self.out.push_back(PendingStep {
                at: ev.at,
                key: ev.key,
                kind,
                staged,
                payload: step_payload,
            });
        }
        self.busy_window = thread_cpu_now().saturating_sub(t0);
    }

    /// Run one handler and stage it: its effects and the process's state
    /// after it, plus the step's payload traffic since `p0` — capturing
    /// the post-step state is not part of the step. Local effect
    /// application is limited to what cannot escape the shard inside a
    /// window: own in-window timers (provisional keys), timer cancels,
    /// self-crash status. Everything global happens when the world
    /// commits.
    fn exec(
        &mut self,
        pid: Pid,
        h: Handler,
        at: VTime,
        wend: VTime,
        p0: PayloadStats,
    ) -> (Option<Staged>, PayloadStats) {
        let n = self.table.width();
        let e = self.table.ent_mut(pid);
        if let Handler::Deliver(_) = h {
            self.deliveries += 1;
            if self.stamp_receives {
                // A supervised run checkpoints the receiver before every
                // delivery and stamps the new checkpoint index into its
                // context (which flows into every message it
                // subsequently sends). The index equals the delivery
                // ordinal — index 0 is the init checkpoint — so the shard
                // can stamp it without the Time Machine being present.
                e.ctx.ckpt_index = e.ctx.delivered + 1;
            }
        }
        // Virtual "now" as the serial world would see it: monotonic,
        // floored at the configured start time.
        let effects = e.ctx.run_handler(
            pid,
            e.program.as_mut(),
            h,
            at.max(self.start_time),
            n,
            &mut self.arena,
        );
        // In-window timers execute this window under a provisional key;
        // later ones are minted and queued when the step commits.
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
            e.status = ProcStatus::Crashed;
        }
        let traffic = payload::stats().since(p0);
        let post = PostState::capture(e);
        (Some(Staged { effects, post }), traffic)
    }
}

/// One shard out for one window. Handed to a worker and handed back
/// **by ownership**, which is what lets a worker outlive the window
/// without borrowing the world.
struct Job {
    shard: Box<Shard>,
    wend: VTime,
}

/// One worker and the world's ends of its two channels. Each worker has
/// its own pair so that a worker dying mid-window (a handler panic)
/// disconnects `done` and the world's receive fails instead of waiting
/// for a shard that will never come back.
struct Link {
    job: SyncSender<Job>,
    done: Receiver<Job>,
    worker: JoinHandle<()>,
}

impl Link {
    /// Spawn the worker of shard `s`, parked until its first job.
    fn spawn(s: usize) -> std::io::Result<Self> {
        let (job, jobs) = sync_channel::<Job>(1);
        let (dones, done) = sync_channel::<Job>(1);
        let worker = std::thread::Builder::new()
            .name(format!("fixd-shard-{s}"))
            .spawn(move || {
                // Parked on the receive between windows; both loop exits
                // mean the world's ends are gone.
                while let Ok(mut j) = jobs.recv() {
                    j.shard.run_window(j.wend);
                    if dones.send(j).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Self { job, done, worker })
    }

    /// Close the channels, which wakes a parked worker into its exit,
    /// and wait for the worker: `Err` carries its panic.
    fn retire(self) -> std::thread::Result<()> {
        let Link { job, done, worker } = self;
        drop((job, done));
        worker.join()
    }

    /// The worker closed its channels mid-window: re-raise its panic on
    /// the calling thread, with the handler's own payload.
    fn reraise(self) -> ! {
        match self.retire() {
            Err(payload) => std::panic::resume_unwind(payload),
            // INVARIANT: a worker leaves its loop only once one of its
            // channels is closed, and the world holds its ends of both
            // until it retires the link — so a closed channel under a
            // live world means the worker unwound.
            #[allow(clippy::unreachable)]
            Ok(()) => unreachable!("a shard worker exited while the world held its channels"),
        }
    }
}

/// Accounting of a sharded world's windows: the parallel critical path
/// (sum over windows of the slowest shard), the shards' summed work, and
/// the calling thread's time between windows — what a modelled speedup
/// is computed from on machines with fewer cores than shards. The
/// durations are measurements and differ from run to run; `windows` and
/// `inline_windows` are deterministic counters. All zero on a world
/// that was never sharded.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardTiming {
    /// Sum over windows of the slowest shard's window time (thread-CPU
    /// time, whichever thread ran the window) — the parallel phase's
    /// critical path. A shard that sits a window out contributes zero
    /// to it.
    pub critical: Duration,
    /// Sum over windows of every shard's window time: the work the
    /// windows did, wherever it ran. `critical <= busy <= shards *
    /// critical`; a `busy` near `critical` means one shard did nearly
    /// all the work.
    pub busy: Duration,
    /// Calling-thread CPU time from the end of one window to the start
    /// of the next (or to the step that found the world quiescent):
    /// committing the staged steps, plus whatever the caller does
    /// between steps — supervision, on a supervised world.
    pub coordinator: Duration,
    /// Conservative windows executed. The window grid is global, so
    /// this is the same number at every shard count.
    pub windows: u64,
    /// Windows in which at most one shard had work and ran on the
    /// calling thread with no hand-off.
    pub inline_windows: u64,
}

/// Which staged source the next committed step comes from.
#[derive(Clone, Copy)]
enum Head {
    Shard(usize),
    Drop,
    Partition,
}

/// What a sharded [`World`](crate::World) holds besides its own serial
/// state: the shards, their workers, and the merge of their staged
/// windows.
pub(crate) struct Shards {
    /// The shards, in shard order; all of them are here outside
    /// [`Shards::run_window`]. Boxed: a shard travels to its worker and
    /// back as a pointer.
    #[allow(clippy::vec_box)]
    shards: Vec<Box<Shard>>,
    /// `run_window`'s scratch: each shard's slot for the window, `None`
    /// while its worker holds it. Empty between windows, capacity kept.
    away: Vec<Option<Box<Shard>>>,
    /// `links[s - 1]` is shard `s`'s worker; shard 0 has none — the
    /// calling thread always executes a shard itself.
    links: Vec<Link>,
    /// Lower bound on delivery latency across the default policy *and
    /// every link override* — the floor any window can shrink to, and
    /// the bound used past a pending partition flip (which may revive
    /// a currently-dead fast link). The actual per-window lookahead is
    /// recomputed each window by [`Shards::window_end`].
    lat_all: VTime,
    /// Fault-plan partition flips, minted at seal, sorted by
    /// `(at, seq)` — world-owned events.
    partition_pending: VecDeque<QueuedEvent>,
    /// End of the window under way (`0` before the first).
    wend: VTime,
    /// Provisional-key resolution: per shard, mint index → serial
    /// scheduling seq. Empty between windows, capacity kept.
    prov_map: Vec<Vec<u64>>,
    /// Route-minted drops awaiting their merge slot (earliest on top).
    drops: BinaryHeap<QueuedEvent>,
    /// The step that commits next, once [`Shards::next`] staged it.
    ready: Option<PendingStep>,
    timing: ShardTiming,
    /// Calling-thread CPU clock at the end of the last window.
    last_window_end: Option<Duration>,
}

impl Shards {
    /// `k` shards holding copies of `procs`' processes and lazy
    /// factories, with `k − 1` parked workers; the error of a worker the
    /// OS could not start. Panics if the network's minimum delivery
    /// latency is zero: the conservative window needs every send to land
    /// strictly after the window it was made in.
    pub(crate) fn new(procs: &ProcTable, cfg: &WorldConfig, k: usize) -> std::io::Result<Self> {
        let mut lat_all = cfg.net.policy.min_latency();
        for l in &cfg.net.links {
            lat_all = lat_all.min(l.policy.min_latency());
        }
        assert!(
            lat_all >= 1,
            "sharded execution requires a minimum network delivery latency of at least 1 \
             virtual tick (got 0): a zero-latency send could influence its own window"
        );
        let shards = (0..k)
            .map(|s| {
                Box::new(Shard {
                    table: procs.shard(k as u32, s as u32),
                    queue: CalQueue::new(),
                    cancelled: HashSet::new(),
                    start_time: cfg.start_time,
                    prov_next: 0,
                    out: VecDeque::new(),
                    arena: StepArena::new(),
                    busy_window: Duration::ZERO,
                    window_payload: PayloadStats::default(),
                    stamp_receives: false,
                    deliveries: 0,
                })
            })
            .collect();
        let links = (1..k).map(Link::spawn).collect::<std::io::Result<_>>()?;
        Ok(Self {
            shards,
            away: Vec::with_capacity(k),
            links,
            lat_all,
            partition_pending: VecDeque::new(),
            wend: 0,
            prov_map: vec![Vec::new(); k],
            drops: BinaryHeap::new(),
            ready: None,
            timing: ShardTiming::default(),
            last_window_end: None,
        })
    }

    #[inline]
    fn owner(&self, pid: Pid) -> usize {
        pid.idx() % self.shards.len()
    }

    pub(crate) fn count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn timing(&self) -> ShardTiming {
        self.timing
    }

    pub(crate) fn arena_stats(&self) -> Vec<ArenaStats> {
        self.shards.iter().map(|s| s.arena.stats()).collect()
    }

    /// Switch on the shards' prediction of the Time Machine's
    /// per-receive stamping (see [`Shard::stamp_receives`]).
    pub(crate) fn stamp_receives(&mut self) {
        assert!(
            self.shards.iter().all(|s| s.deliveries == 0),
            "receive stamping must cover every delivery: one has already run"
        );
        for s in &mut self.shards {
            s.stamp_receives = true;
        }
    }

    /// Take over the world's queued events (seal-time starts, crashes
    /// and partition flips; drivers' pre-run starts and injections).
    pub(crate) fn adopt(&mut self, mut events: Vec<QueuedEvent>) {
        events.sort_unstable_by_key(|qe| (qe.at, qe.seq));
        for qe in events {
            self.enqueue(qe);
        }
    }

    /// Queue a world-minted event for a later window: on its pid's
    /// shard, or, without a pid (a partition flip), with the world's own
    /// events.
    fn enqueue(&mut self, qe: QueuedEvent) {
        let Some(pid) = qe.kind.pid() else {
            self.partition_pending.push_back(qe);
            return;
        };
        let s = self.owner(pid);
        self.shards[s].queue.push(ShardEvent {
            at: qe.at,
            key: SeqKey::Final(qe.seq),
            kind: qe.kind,
        });
    }

    /// Take the events one committed step scheduled (`batch`, minted by
    /// the world's serial code): drops join the merge, a timer inside
    /// the window resolves the provisional key its shard ran it under,
    /// and the rest (deliveries, later timers) go to their pids' shards
    /// for a later window.
    pub(crate) fn absorb(&mut self, batch: &mut Vec<QueuedEvent>) {
        for qe in batch.drain(..) {
            match qe.kind {
                EventKind::Drop { .. } => self.drops.push(qe),
                EventKind::TimerFire { pid, .. } if qe.at < self.wend => {
                    // Executed in-window under a provisional key. Mint
                    // indices are handed out densely and in order, so
                    // index `m` is the `m`-th push (a minter always
                    // commits before its timer).
                    let s = self.owner(pid);
                    self.prov_map[s].push(qe.seq);
                }
                _ => {
                    assert!(
                        qe.at >= self.wend,
                        "conservative window violated: a send delivered inside its own window"
                    );
                    self.enqueue(qe);
                }
            }
        }
    }

    /// The staged step that commits next, by `(at, seq)`.
    fn head(&self) -> Option<Head> {
        let mut best: Option<(VTime, u64, Head)> = None;
        let mut consider = |at: VTime, seq: u64, head: Head| {
            if best.is_none_or(|(ba, bs, _)| (at, seq) < (ba, bs)) {
                best = Some((at, seq, head));
            }
        };
        for (s, sh) in self.shards.iter().enumerate() {
            if let Some(ps) = sh.out.front() {
                let seq = match ps.key {
                    SeqKey::Final(q) => q,
                    // INVARIANT: a provisional key is a timer its own
                    // shard minted this window; the minting step comes
                    // first in `out`, and committing it resolved the key
                    // (`absorb`) before this step reached the front.
                    #[allow(clippy::expect_used)]
                    SeqKey::Provisional(m) => *self.prov_map[s]
                        .get(m as usize)
                        .expect("provisional key resolved before its record merges"),
                };
                consider(ps.at, seq, Head::Shard(s));
            }
        }
        if let Some(d) = self.drops.peek() {
            consider(d.at, d.seq, Head::Drop);
        }
        if let Some(p) = self.partition_pending.front() {
            if p.at < self.wend {
                consider(p.at, p.seq, Head::Partition);
            }
        }
        best.map(|(_, _, head)| head)
    }

    /// The step that commits next, staged until [`Shards::take`] takes
    /// it: windows run until one is staged, and `None` once nothing is
    /// pending. `procs` and `partition` are the world's (current at a
    /// window boundary); the payload traffic of windows run on the
    /// calling thread is added to `local`, because its counters already
    /// hold it.
    pub(crate) fn next(
        &mut self,
        net: &NetworkConfig,
        partition: &Partition,
        procs: &ProcTable,
        arena: &mut StepArena,
        local: &mut PayloadStats,
    ) -> Option<&PendingStep> {
        if self.ready.is_none() {
            self.ready = self.stage(net, partition, procs, arena, local);
        }
        self.ready.as_ref()
    }

    /// Take the step [`Shards::next`] staged, to commit it.
    pub(crate) fn take(&mut self) -> Option<PendingStep> {
        self.ready.take()
    }

    /// Remove the step that commits next from its source, running
    /// windows until one is staged.
    fn stage(
        &mut self,
        net: &NetworkConfig,
        partition: &Partition,
        procs: &ProcTable,
        arena: &mut StepArena,
        local: &mut PayloadStats,
    ) -> Option<PendingStep> {
        loop {
            let step = match self.head() {
                Some(Head::Shard(s)) => self.shards[s].out.pop_front(),
                Some(Head::Drop) => self.drops.pop().map(PendingStep::unstaged),
                Some(Head::Partition) => self
                    .partition_pending
                    .pop_front()
                    .map(PendingStep::unstaged),
                None => None,
            };
            if step.is_some() {
                return step;
            }
            for resolved in &mut self.prov_map {
                resolved.clear();
            }
            let Some(tmin) = self.min_pending() else {
                self.settle();
                return None;
            };
            let wend = self.window_end(tmin, net, partition, procs);
            *local = local.plus(self.run_window(wend, arena));
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
    /// crashes): a bound pinned when sharding would be unsound the
    /// moment a heal exposed a faster live link.
    fn window_end(
        &self,
        tmin: VTime,
        net: &NetworkConfig,
        partition: &Partition,
        procs: &ProcTable,
    ) -> VTime {
        let mut lat_now = net.policy.min_latency();
        for l in &net.links {
            let live = match (l.src, l.dst) {
                (Some(s), Some(d)) => {
                    partition.connected(s, d) && procs.status_of(s) != ProcStatus::Crashed
                }
                _ => true,
            };
            if live {
                lat_now = lat_now.min(l.policy.min_latency());
            }
        }
        let mut wend = tmin.saturating_add(lat_now);
        if let Some(p) = self.partition_pending.front() {
            // p.at >= tmin (tmin is the global queue minimum) and
            // lat_all >= 1, so the window still advances.
            wend = wend.min(p.at.saturating_add(self.lat_all));
        }
        wend
    }

    /// Earliest pending event time across all shards and the partition
    /// schedule — the next window's start. Shard-count-invariant: it is
    /// the global queue minimum.
    fn min_pending(&self) -> Option<VTime> {
        self.shards
            .iter()
            .filter_map(|sh| sh.queue.min_at())
            .chain(self.partition_pending.front().map(|p| p.at))
            .min()
    }

    /// Charge the calling thread's time since the last window.
    fn settle(&mut self) {
        if let Some(end) = self.last_window_end {
            let now = thread_cpu_now();
            self.timing.coordinator += now.saturating_sub(end);
            self.last_window_end = Some(now);
        }
    }

    /// Parallel phase: every shard with work executes its window. The
    /// lowest such shard runs on the calling thread, the others go out
    /// to their parked workers first and are collected after it; a
    /// window with at most one busy shard involves no other thread.
    /// Returns the payload traffic of the window run on this thread.
    fn run_window(&mut self, wend: VTime, arena: &mut StepArena) -> PayloadStats {
        self.settle();
        self.wend = wend;
        // Close the recycling loop: trace evictions landed in the
        // world's pool, but the allocating happens in the shards'
        // handlers — hand the reclaimed shells back before dispatch.
        let pooled = arena.stats().msgs_pooled;
        if pooled > 0 {
            let share = (pooled / self.shards.len()).max(1);
            for sh in &mut self.shards {
                sh.arena.take_messages_from(arena, share);
            }
        }
        let mut own: Option<usize> = None;
        for (s, mut shard) in self.shards.drain(..).enumerate() {
            // Work is an event inside the window.
            if shard.queue.peek().is_none_or(|head| head.at >= wend) {
                shard.busy_window = Duration::ZERO;
            } else if own.is_none() {
                own = Some(s);
            } else {
                if self.links[s - 1].job.send(Job { shard, wend }).is_err() {
                    self.links.swap_remove(s - 1).reraise();
                }
                self.away.push(None);
                continue;
            }
            self.away.push(Some(shard));
        }
        let mut local = PayloadStats::default();
        if let Some(shard) = own.and_then(|s| self.away[s].as_deref_mut()) {
            shard.run_window(wend);
            local = shard.window_payload;
        }
        let inline = self.away.iter().all(Option::is_some);
        for (s, slot) in self.away.drain(..).enumerate() {
            let shard = match slot {
                Some(shard) => shard,
                // A worker that panicked dropped its end of `done`.
                None => match self.links[s - 1].done.recv() {
                    Ok(j) => j.shard,
                    Err(_) => self.links.swap_remove(s - 1).reraise(),
                },
            };
            self.shards.push(shard);
        }
        self.timing.windows += 1;
        self.timing.inline_windows += u64::from(inline);
        let busy = self.shards.iter().map(|s| s.busy_window);
        self.timing.critical += busy.clone().max().unwrap_or_default();
        self.timing.busy += busy.sum::<Duration>();
        self.last_window_end = Some(thread_cpu_now());
        local
    }
}

impl Drop for Shards {
    fn drop(&mut self) {
        for link in self.links.drain(..) {
            // A worker that panicked already surfaced on the caller.
            let _ = link.retire();
        }
    }
}
