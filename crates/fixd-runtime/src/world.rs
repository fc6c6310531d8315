//! The [`World`]: a deterministic discrete-event simulation of a
//! distributed application.
//!
//! A world hosts N [`Program`] processes, a simulated network, virtual
//! time, and a fault plan. External *drivers* (the Scroll recorder, the
//! Time Machine manager, the FixD detector) sit in a loop around
//! [`World::peek`]/[`World::step`]:
//!
//! ```text
//! while let Some(next) = world.peek() {
//!     driver.before(&mut world, &next);   // e.g. checkpoint-before-receive
//!     let record = world.step().unwrap();
//!     driver.after(&mut world, &record);  // e.g. record in the Scroll
//! }
//! ```
//!
//! `peek` exposes the next event *before* it executes — exactly the hook
//! the paper's communication-induced checkpointing needs ("each process
//! saves a checkpoint before receiving a new message", Fig. 6).
//!
//! [`World::shard`] makes a world run its handlers on parallel shards
//! (see [`crate::shard`]). The loop above does not change: each `step`
//! still commits one event through this module's code, and the world's
//! own process table is the serial world's at every step.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use crate::arena::{ArenaStats, StepArena};
use crate::calqueue::{CalEntry, CalQueue};
use crate::clock::VectorClock;
use crate::event::{Effects, Event, EventKind, MsgMeta, SharedMessage, TimerId};
use crate::fault::FaultPlan;
use crate::network::{DeliveryOutcome, DropReason, NetStats, NetworkConfig, Partition};
use crate::procs::{Handler, ProcContext, ProcTable};
use crate::program::Program;
use crate::rng::DetRng;
use crate::shard::{ShardTiming, Shards, Staged};
use crate::snapshot::{fold_states, GlobalSnapshot};
use crate::trace::{SharedStepRecord, Trace};
use crate::wire;
use crate::{Pid, VTime};

pub use crate::procs::ProcFactory;

/// Liveness of a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcStatus {
    Running,
    Crashed,
}

/// World construction parameters.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Root seed; all randomness in the run derives from it.
    pub seed: u64,
    /// Network behaviour.
    pub net: NetworkConfig,
    /// Virtual time at which `on_start` handlers run.
    pub start_time: VTime,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            seed: 0xF1BD,
            net: NetworkConfig::default(),
            start_time: 0,
        }
    }
}

impl WorldConfig {
    /// Config with a specific seed, defaults otherwise.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// Everything needed to roll one process back, or to resume it outside
/// the world: program state plus its whole [`ProcContext`] (clocks, RNG
/// position, delivery count, meta template, id counters), carried as one
/// value. Produced by [`World::checkpoint_process`] (inline state bytes)
/// or [`World::checkpoint_process_in`] (state paged straight into a
/// content-addressed [`PageStore`], so equal pages are stored once
/// across processes, checkpoint generations, and speculation branches);
/// consumed by [`World::restore_checkpoint`] and
/// [`crate::SoloHarness::resume`].
///
/// [`PageStore`]: fixd_store::PageStore
#[derive(Clone, Debug)]
pub struct ProcCheckpoint {
    pub pid: Pid,
    /// Opaque program snapshot ([`Program::snapshot`]), inline or paged.
    pub state: fixd_store::SnapshotImage,
    pub ctx: ProcContext,
    pub taken_at: VTime,
}

impl ProcCheckpoint {
    /// Stable fingerprint of the checkpointed state (program bytes + vc).
    /// Streams over pages for paged snapshots — identical to the value
    /// the inline form produces for the same bytes.
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.state.content_fnv1a();
        for (p, c) in self.ctx.vc.entries() {
            h = wire::fnv_mix(h, u64::from(p.0));
            h = wire::fnv_mix(h, c);
        }
        wire::fnv_mix(h, self.ctx.lamport)
    }
}

/// Summary of a run segment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    pub steps: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub end_time: VTime,
    /// True if the run ended because no events remained (vs. budget).
    pub quiescent: bool,
}

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct QueuedEvent {
    pub(crate) at: VTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (at, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl CalEntry for QueuedEvent {
    type Key = u64;
    #[inline]
    fn cal_at(&self) -> VTime {
        self.at
    }
    #[inline]
    fn cal_key(&self) -> u64 {
        self.seq
    }
}

/// The deterministic distributed-system simulator. See module docs.
pub struct World {
    cfg: WorldConfig,
    /// Per-pid state slots (lazy: a dormant slot costs 8 bytes — the
    /// null-pointer niche of `Option<Box<_>>` — which is what lets a
    /// 10^6-process world with 10^3 active processes allocate like a
    /// 10^3-process world). The serial world owns every pid: a
    /// stride-1 [`ProcTable`].
    procs: ProcTable,
    queue: CalQueue<QueuedEvent>,
    /// Reusable scratch for [`World::apply_effects`]: events of one
    /// effects batch collect here, then the queue absorbs them in one call.
    event_batch: Vec<QueuedEvent>,
    /// Reusable scratch for [`NetSide::route_message`]: one send's
    /// delivery plan lands here instead of a fresh `Vec` per send.
    plan_scratch: Vec<DeliveryOutcome>,
    staged: Option<QueuedEvent>,
    cancelled_timers: HashSet<(u32, u64)>,
    partition: Partition,
    now: VTime,
    sched_seq: u64,
    exec_seq: u64,
    net_rng: DetRng,
    faults: FaultPlan,
    trace: Trace,
    stats: NetStats,
    sealed: bool,
    /// Set by [`World::shard`]: the handlers run on these shards, and
    /// the world's queue hands its events over to them at seal.
    shards: Option<Box<Shards>>,
    /// Thread-local payload counter values at construction — the
    /// baseline [`World::payload_stats`] diffs against. A sharded world
    /// raises it by the traffic of the windows it runs on this thread
    /// and lowers it by each step's traffic as the step commits.
    payload_base: crate::payload::PayloadStats,
    /// Recycling pools for the step loop's hot-path boxes.
    arena: StepArena,
}

impl Clone for World {
    fn clone(&self) -> Self {
        self.assert_unsharded("clone");
        Self {
            cfg: self.cfg.clone(),
            procs: self.procs.clone(),
            queue: self.queue.clone(),
            event_batch: Vec::new(),
            plan_scratch: Vec::new(),
            staged: self.staged.clone(),
            cancelled_timers: self.cancelled_timers.clone(),
            partition: self.partition.clone(),
            now: self.now,
            sched_seq: self.sched_seq,
            exec_seq: self.exec_seq,
            net_rng: self.net_rng.clone(),
            faults: self.faults.clone(),
            trace: self.trace.clone(),
            stats: self.stats,
            sealed: self.sealed,
            shards: None,
            payload_base: self.payload_base,
            // Pools are never shared between worlds: the clone starts
            // with empty pools.
            arena: StepArena::new(),
        }
    }
}

impl World {
    /// A fresh, empty world.
    pub fn new(cfg: WorldConfig) -> Self {
        let net_rng = DetRng::derive(cfg.seed, u64::MAX);
        Self {
            partition: Partition::none(0),
            now: cfg.start_time,
            procs: ProcTable::new(cfg.seed, 1, 0),
            cfg,
            queue: CalQueue::new(),
            event_batch: Vec::new(),
            plan_scratch: Vec::new(),
            staged: None,
            cancelled_timers: HashSet::new(),
            sched_seq: 0,
            exec_seq: 0,
            net_rng,
            faults: FaultPlan::none(),
            trace: Trace::default(),
            stats: NetStats::default(),
            sealed: false,
            shards: None,
            payload_base: crate::payload::stats(),
            arena: StepArena::new(),
        }
    }

    /// Run this world's handlers on `k` shards from now on (`k ≤ 1`
    /// is a no-op). Call it after the processes are added and before
    /// the first step. The shards get
    /// [`crate::CloneProgram::clone_program`] copies of the processes
    /// and the lazy factories, and `k − 1` worker threads that live as
    /// long as the world. Each `step` still commits
    /// one event through the world's own code, and the world's process
    /// table is the serial world's after every step, so anything that
    /// drives a serial world through `peek`/`step` drives a sharded one
    /// unchanged. See [`crate::shard`] for the window discipline, and
    /// for what a sharded world refuses. If the OS cannot start the
    /// workers, the world stays on one shard: the same steps, on the
    /// calling thread.
    ///
    /// Panics if the network's minimum delivery latency is zero.
    pub fn shard(&mut self, k: usize) {
        if k <= 1 {
            return;
        }
        assert!(self.shards.is_none(), "a world is sharded once");
        assert!(
            self.exec_seq == 0 && self.staged.is_none(),
            "shard a world before anything executes"
        );
        // Copying the programs is not part of the run.
        let p0 = crate::payload::stats();
        let shards = Shards::new(&self.procs, &self.cfg, k);
        self.payload_base = self.payload_base.plus(crate::payload::stats().since(p0));
        let Ok(mut shards) = shards else {
            return;
        };
        if self.sealed {
            shards.adopt(self.queue.drain_all());
        }
        self.shards = Some(Box::new(shards));
    }

    /// The number of shards the handlers run on (1 unless
    /// [`World::shard`] spread them).
    pub fn shards(&self) -> usize {
        self.shards.as_ref().map_or(1, |s| s.count())
    }

    /// Window accounting of a sharded world (all zero on one shard).
    pub fn shard_timing(&self) -> ShardTiming {
        self.shards.as_ref().map(|s| s.timing()).unwrap_or_default()
    }

    /// Per-shard arena counters and resident footprints, in shard order
    /// (empty on one shard) — the data for sizing the pool caps at
    /// scale.
    pub fn shard_arena_stats(&self) -> Vec<ArenaStats> {
        self.shards
            .as_ref()
            .map(|s| s.arena_stats())
            .unwrap_or_default()
    }

    /// Have the shards stamp each receiver's checkpoint ordinal into its
    /// message-meta template before a delivery runs, exactly as a Time
    /// Machine under `CheckpointPolicy::EveryReceive` does on the
    /// world's own table, so that the messages a shard's handlers send
    /// carry the bytes a supervised serial run's would. The Time Machine
    /// calls this when it initializes; on one shard there is nothing to
    /// predict. Panics if a shard has already run a delivery.
    pub fn predict_receive_checkpoints(&mut self) {
        if let Some(sh) = self.shards.as_deref_mut() {
            sh.stamp_receives();
        }
    }

    /// INVARIANT: what rewrites the world's past or injects events into
    /// it runs on one shard only. The shards run up to a window ahead of
    /// the world, so on `k > 1` these would need un-staging the
    /// lookahead, which needs shards to record the events they skip
    /// (the follow-up that brings rollback and heal to sharded worlds).
    fn assert_unsharded(&self, what: &str) {
        assert!(
            self.shards.is_none(),
            "{what} is not supported on a sharded world"
        );
    }

    /// Add a process. Must be called before the first `peek`/`step`.
    /// Returns the new process's [`Pid`].
    pub fn add_process(&mut self, program: Box<dyn Program>) -> Pid {
        assert!(!self.sealed, "cannot add processes after the world started");
        self.assert_unsharded("add_process");
        let pid = Pid(self.procs.width() as u32);
        self.procs.grow_to(pid.idx() + 1);
        self.procs.install(pid, program);
        pid
    }

    /// Add `count` processes that materialize lazily: each slot costs 8
    /// bytes until the first event touches it, at which point `factory`
    /// builds the program and the full process entry (clock, RNG stream,
    /// counters) is created exactly as [`World::add_process`] would have.
    ///
    /// Lazy processes get **no** automatic `Start` event at seal time —
    /// they boot when a driver calls [`World::schedule_start`] or when a
    /// message is delivered to them (whichever touches them first). This
    /// is what makes a mostly idle wide world cheap: the event queue and
    /// the process table both scale with the *active* population.
    ///
    /// Returns the pid range added. Must be called before the world
    /// starts.
    pub fn add_lazy_processes(
        &mut self,
        count: usize,
        factory: impl Fn(Pid) -> Box<dyn Program> + Send + Sync + 'static,
    ) -> std::ops::Range<u32> {
        assert!(!self.sealed, "cannot add processes after the world started");
        self.assert_unsharded("add_lazy_processes");
        let start = self.procs.width() as u32;
        let end = start + count as u32;
        self.procs.grow_to(start as usize + count);
        self.procs.add_lazy(start, end, Arc::new(factory));
        start..end
    }

    /// Is `pid`'s state materialized (vs. a dormant lazy slot)?
    pub fn is_materialized(&self, pid: Pid) -> bool {
        self.procs.is_materialized(pid)
    }

    /// Number of materialized processes (the "active population").
    pub fn materialized_procs(&self) -> usize {
        self.procs.materialized_count()
    }

    /// Install a fault plan. Must be called before the first `peek`/`step`.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !self.sealed,
            "fault plan must be installed before the world starts"
        );
        self.faults = plan;
    }

    fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        let n = self.procs.width();
        self.partition = Partition::none(n);
        // Fault-plan events are scheduled before the start events so a
        // fault configured at time t takes effect before application
        // handlers that run at t (same-timestamp ties break by seq).
        for (pid, at) in self.faults.scheduled_crashes() {
            self.push_event(at, EventKind::Crash { pid });
        }
        for (at, partition) in self.faults.scheduled_partitions(n) {
            self.push_event(at, EventKind::PartitionChange { partition });
        }
        // Start events only for materialized processes: lazy slots boot
        // via `schedule_start` or first delivery, so the initial queue
        // scales with the active population, not the world width.
        let start = self.cfg.start_time;
        let started: Vec<Pid> = self.procs.materialized_pids().collect();
        for pid in started {
            self.push_event(start, EventKind::Start { pid });
        }
        if let Some(sh) = self.shards.as_deref_mut() {
            sh.adopt(self.queue.drain_all());
        }
    }

    /// Stamp the next scheduling sequence number onto an event.
    #[inline]
    fn make_event(&mut self, at: VTime, kind: EventKind) -> QueuedEvent {
        let seq = self.sched_seq;
        self.sched_seq += 1;
        QueuedEvent { at, seq, kind }
    }

    fn push_event(&mut self, at: VTime, kind: EventKind) {
        let qe = self.make_event(at, kind);
        self.queue.push(qe);
    }

    /// Pop queue entries until one that will actually execute is found
    /// ([`ProcTable::admit`] decides).
    fn next_valid(&mut self) -> Option<QueuedEvent> {
        if let Some(staged) = self.staged.take() {
            return Some(staged);
        }
        while let Some(QueuedEvent { at, seq, kind }) = self.queue.pop() {
            if let Some(kind) = self.procs.admit(kind, &mut self.cancelled_timers) {
                return Some(QueuedEvent { at, seq, kind });
            }
        }
        None
    }

    /// Finalize world construction (clock widths, start events, fault
    /// schedule) without executing anything. Called implicitly by
    /// `peek`/`step`; call explicitly before taking checkpoints of a
    /// world that has not stepped yet.
    pub fn ensure_started(&mut self) {
        self.seal();
    }

    /// The next event that will execute, without executing it. Idempotent:
    /// repeated peeks return the same event until `step` consumes it.
    pub fn peek(&mut self) -> Option<Event> {
        self.seal();
        if let Some(sh) = self.shards.as_deref_mut() {
            let step = sh.next(
                &self.cfg.net,
                &self.partition,
                &self.procs,
                &mut self.arena,
                &mut self.payload_base,
            )?;
            // One counted kind-clone, exactly like the staged-event
            // clone below.
            return Some(Event {
                seq: self.exec_seq,
                at: step.at,
                kind: step.kind.clone(),
            });
        }
        let qe = self.next_valid()?;
        let ev = Event {
            seq: self.exec_seq,
            at: qe.at,
            kind: qe.kind.clone(),
        };
        self.staged = Some(qe);
        Some(ev)
    }

    /// Execute the next event. Returns `None` when the world is quiescent.
    ///
    /// The returned record is sealed into one shared allocation
    /// ([`SharedStepRecord`]); the trace holds the same `Arc`, and any
    /// driver that retains the record (Scroll, Time Machine, campaign
    /// tooling) aliases it too — the whole
    /// step → apply-effects → route → trace cycle performs no deep clone
    /// of the event, its message, or its effects.
    pub fn step(&mut self) -> Option<SharedStepRecord> {
        self.seal();
        // On shards the handler already ran: `staged` holds its effects
        // and the acting process's state after it.
        let (at, kind, staged) = if let Some(sh) = self.shards.as_deref_mut() {
            sh.next(
                &self.cfg.net,
                &self.partition,
                &self.procs,
                &mut self.arena,
                &mut self.payload_base,
            )?;
            let step = sh.take()?;
            self.payload_base = self.payload_base.since(step.payload);
            (step.at, step.kind, step.staged)
        } else {
            let qe = self.next_valid()?;
            (qe.at, qe.kind, None)
        };
        self.now = self.now.max(at);
        let seq = self.exec_seq;
        self.exec_seq += 1;
        let at = self.now;

        let effects = match &kind {
            EventKind::Start { pid } => self.handle(*pid, Handler::Start, staged),
            EventKind::TimerFire { pid, timer } => {
                self.handle(*pid, Handler::Timer(*timer), staged)
            }
            EventKind::Deliver { msg } => {
                self.stats.delivered += 1;
                self.handle(msg.dst, Handler::Deliver(msg), staged)
            }
            EventKind::Drop { .. } => {
                self.stats.dropped += 1;
                Effects::default()
            }
            EventKind::Crash { pid } => {
                // Status-only: crashing a dormant lazy process must not
                // materialize its program just to mark it dead.
                self.procs.set_status(*pid, ProcStatus::Crashed);
                Effects::default()
            }
            EventKind::Restart { .. } => Effects::default(),
            EventKind::PartitionChange { partition } => {
                self.partition = partition.clone();
                Effects::default()
            }
        };

        let record = self.arena.make_record(Event { seq, at, kind }, effects);
        if let Some(evicted) = self.trace.push(Arc::clone(&record)) {
            self.arena.recycle_record(evicted);
        }
        Some(record)
    }

    /// Run `pid`'s handler here, or commit the run its shard staged:
    /// write the process's post-step state into the world's table, then
    /// apply the effects as if the handler had run here.
    fn handle(&mut self, pid: Pid, h: Handler, staged: Option<Staged>) -> Effects {
        let effects = match staged {
            None => {
                let n = self.procs.width();
                let e = self.procs.ent_mut(pid);
                e.ctx
                    .run_handler(pid, e.program.as_mut(), h, self.now, n, &mut self.arena)
            }
            Some(Staged { effects, post }) => {
                // Restoring the copy is not part of the run.
                let p0 = crate::payload::stats();
                post.apply(self.procs.ent_mut(pid));
                self.payload_base = self.payload_base.plus(crate::payload::stats().since(p0));
                effects
            }
        };
        self.apply_effects(pid, effects)
    }

    /// Apply a handler's effects, taking them by value and handing them
    /// back for the step record. Routed sends alias the effects' shared
    /// message handles (a refcount bump each, no `Message` clone), and
    /// outputs stay in the record's effects, not copied to a side list.
    ///
    /// All events one effects batch generates (deliveries, drops, timer
    /// firings) collect into a reusable scratch vector and the calendar
    /// queue absorbs them in a single call, instead of a `queue.push`
    /// per send. On a sharded world the shards absorb them instead, and
    /// have already applied the timer cancels.
    fn apply_effects(&mut self, pid: Pid, effects: Effects) -> Effects {
        let mut batch = std::mem::take(&mut self.event_batch);
        self.net_side().route_sends(&effects.sends, &mut batch);
        for (timer, fire_at) in &effects.timers_set {
            let qe = self.make_event(*fire_at, EventKind::TimerFire { pid, timer: *timer });
            batch.push(qe);
        }
        match self.shards.as_deref_mut() {
            None => {
                self.queue.absorb(&mut batch);
                for t in &effects.timers_cancelled {
                    self.cancelled_timers.insert((pid.0, t.0));
                }
            }
            Some(sh) => sh.absorb(&mut batch),
        }
        self.event_batch = batch;
        if effects.crashed {
            self.procs.set_status(pid, ProcStatus::Crashed);
            let seq = self.exec_seq;
            self.exec_seq += 1;
            self.record_side_event(seq, EventKind::Crash { pid });
        }
        effects
    }

    /// Seal and trace an effect-free side record (crash/restart marks),
    /// drawing the shell from the arena and recycling any eviction.
    fn record_side_event(&mut self, seq: u64, kind: EventKind) {
        let effects = self.arena.make_effects();
        let record = self.arena.make_record(
            Event {
                seq,
                at: self.now,
                kind,
            },
            effects,
        );
        if let Some(evicted) = self.trace.push(record) {
            self.arena.recycle_record(evicted);
        }
    }

    /// Borrow the network-side state one routed send needs.
    #[inline]
    fn net_side(&mut self) -> NetSide<'_> {
        NetSide {
            faults: &self.faults,
            net: &self.cfg.net,
            partition: &self.partition,
            net_rng: &mut self.net_rng,
            stats: &mut self.stats,
            sched_seq: &mut self.sched_seq,
            plan_scratch: &mut self.plan_scratch,
            now: self.now,
        }
    }

    // ------------------------------------------------------------------
    // Run helpers
    // ------------------------------------------------------------------

    /// Step until quiescent or `max_steps` executed.
    pub fn run_to_quiescence(&mut self, max_steps: u64) -> RunReport {
        let d0 = self.stats.delivered;
        let x0 = self.stats.dropped;
        let mut steps = 0;
        let mut quiescent = true;
        while steps < max_steps {
            if self.step().is_none() {
                break;
            }
            steps += 1;
        }
        if steps == max_steps && self.peek().is_some() {
            quiescent = false;
        }
        RunReport {
            steps,
            delivered: self.stats.delivered - d0,
            dropped: self.stats.dropped - x0,
            end_time: self.now,
            quiescent,
        }
    }

    /// Execute exactly `n` events (or fewer if quiescent first).
    pub fn run_steps(&mut self, n: u64) -> RunReport {
        self.run_to_quiescence(n)
    }

    /// Run while the next event's time is `< t`.
    pub fn run_until(&mut self, t: VTime) -> RunReport {
        let d0 = self.stats.delivered;
        let x0 = self.stats.dropped;
        let mut steps = 0;
        loop {
            match self.peek() {
                Some(ev) if ev.at < t => {
                    self.step();
                    steps += 1;
                }
                _ => break,
            }
        }
        RunReport {
            steps,
            delivered: self.stats.delivered - d0,
            dropped: self.stats.dropped - x0,
            end_time: self.now,
            quiescent: self.peek().is_none(),
        }
    }

    // ------------------------------------------------------------------
    // State access & rollback support
    // ------------------------------------------------------------------

    /// Number of processes.
    pub fn num_procs(&self) -> usize {
        self.procs.width()
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Network counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Payload bytes copied/aliased on behalf of this world since its
    /// construction. The counters are thread-local, so the figure is
    /// exact whenever the world's events all run on one thread with no
    /// other world interleaved — which is how the deterministic
    /// simulator and the campaign driver (one cell at a time per worker
    /// thread) operate. Campaign cells report this per cell.
    pub fn payload_stats(&self) -> crate::payload::PayloadStats {
        crate::payload::stats().since(self.payload_base)
    }

    /// Rebase the payload accounting to "now" (e.g. after transferring a
    /// world to another thread, where the thread-local baseline captured
    /// at construction does not apply).
    pub fn reset_payload_base(&mut self) {
        self.payload_base = crate::payload::stats();
    }

    /// Step-arena counters (recycle hit rates, current pool sizes).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Calendar-queue tier-placement counters (ring vs heap tiers).
    pub fn queue_stats(&self) -> crate::calqueue::CalQueueStats {
        self.queue.stats()
    }

    /// Offer a message box back to the arena. Pools it (and returns
    /// `true`) only if this handle was the last reference; callers that
    /// discard a send no other holder aliases — e.g. the Time Machine
    /// dropping an orphaned branch — use this so the box skips the
    /// allocator round-trip.
    pub fn reclaim_message(&mut self, msg: SharedMessage) -> bool {
        self.arena.recycle_message(msg)
    }

    /// The last [`TRACE_TAIL`](crate::TRACE_TAIL) records this world
    /// executed; [`Trace::pushed`] counts them all.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Liveness of a process without materializing it: dormant lazy
    /// processes are `Running` unless a fault crashed them while dormant.
    pub fn status(&self, pid: Pid) -> ProcStatus {
        self.procs.status_of(pid)
    }

    /// A process's current vector clock. Dormant processes share the one
    /// static zero clock — reading a million idle clocks allocates
    /// nothing.
    pub fn proc_vc(&self, pid: Pid) -> &VectorClock {
        self.procs.vc_of(pid)
    }

    /// A process's delivered-message count.
    pub fn delivered_count(&self, pid: Pid) -> u64 {
        self.procs.ent(pid).map_or(0, |e| e.ctx.delivered)
    }

    /// Typed read access to a process's program (`None` for dormant lazy
    /// processes — their program does not exist yet).
    pub fn program<T: 'static>(&self, pid: Pid) -> Option<&T> {
        self.procs.ent(pid)?.program.downcast_ref::<T>()
    }

    /// Typed write access to a process's program (tests / fault setup).
    /// Materializes a dormant lazy process. Starts a new program
    /// generation ([`World::program_generation`]): the caller may change
    /// the state outside a handler.
    pub fn program_mut<T: 'static>(&mut self, pid: Pid) -> Option<&mut T> {
        self.assert_unsharded("program_mut");
        let e = self.procs.ent_mut(pid);
        e.generation += 1;
        e.program.downcast_mut::<T>()
    }

    /// How many times `pid`'s program was changed outside a handler:
    /// replaced ([`World::replace_program`]), restored
    /// ([`World::restore_checkpoint`], [`World::restore_snapshot`]) or
    /// handed out for writing ([`World::program_mut`]). Between two
    /// changes the program's state is its state at the first one plus
    /// the handlers it ran since, on the same code — what the Time
    /// Machine replays its checkpoints from.
    pub fn program_generation(&self, pid: Pid) -> u64 {
        self.procs.ent(pid).map_or(0, |e| e.generation)
    }

    /// A copy of `pid`'s runtime context: what a [`ProcCheckpoint`]
    /// holds besides the state. A dormant lazy process's is the context
    /// it would materialize with.
    pub fn proc_context(&self, pid: Pid) -> ProcContext {
        match self.procs.ent(pid) {
            Some(e) => e.ctx.clone(),
            None => self.procs.fresh_context(pid),
        }
    }

    /// Run a closure over the untyped program (for generic drivers). For
    /// a dormant lazy process the closure sees a transient fresh program
    /// (exactly the state it would materialize with); the slot itself
    /// stays dormant.
    pub fn with_program<R>(&self, pid: Pid, f: impl FnOnce(&dyn Program) -> R) -> R {
        match self.procs.ent(pid) {
            Some(e) => f(e.program.as_ref()),
            None => f(self.procs.fresh_entry(pid).program.as_ref()),
        }
    }

    /// Take a full per-process checkpoint (state + runtime context) with
    /// the state bytes held inline.
    pub fn checkpoint_process(&self, pid: Pid) -> ProcCheckpoint {
        self.checkpoint_with(pid, |p| fixd_store::SnapshotImage::inline(p.snapshot()))
    }

    /// Take a full per-process checkpoint whose state pages straight
    /// into `store`: unchanged pages — relative to *anything* already
    /// interned, not just this process's previous checkpoint — cost a
    /// refcount, not an allocation. `prev`, the image of the process's
    /// previous checkpoint when the caller has one, is where unchanged
    /// pages are looked for first (a byte comparison per page instead of
    /// a hash and a lookup); the resulting image and every store counter
    /// are the same with or without it. The program snapshots into
    /// `scratch` ([`Program::snapshot_to`]; cleared first, contents
    /// unspecified after), a buffer the caller keeps across checkpoints
    /// so that the bytes, which only live until they are paged, need no
    /// allocation of their own. This is the Time Machine's path.
    pub fn checkpoint_process_in(
        &self,
        pid: Pid,
        store: &fixd_store::PageStore,
        page_size: usize,
        prev: Option<&fixd_store::PagedImage>,
        scratch: &mut Vec<u8>,
    ) -> ProcCheckpoint {
        self.checkpoint_with(pid, |p| {
            scratch.clear();
            p.snapshot_to(scratch);
            fixd_store::SnapshotImage::Paged(fixd_store::PagedImage::from_bytes_after(
                store, scratch, page_size, prev,
            ))
        })
    }

    fn checkpoint_with(
        &self,
        pid: Pid,
        snap: impl FnOnce(&dyn Program) -> fixd_store::SnapshotImage,
    ) -> ProcCheckpoint {
        // Checkpointing a dormant lazy process captures the fresh state
        // it would materialize with (deterministic: factory + derived
        // RNG), without materializing the slot.
        let fresh;
        let e = match self.procs.ent(pid) {
            Some(e) => e,
            None => {
                fresh = self.procs.fresh_entry(pid);
                &*fresh
            }
        };
        ProcCheckpoint {
            pid,
            state: snap(e.program.as_ref()),
            ctx: e.ctx.clone(),
            taken_at: self.now,
        }
    }

    /// Restore a process to a previously taken checkpoint. The caller (the
    /// Time Machine) is responsible for global consistency — purging
    /// in-flight messages that the restored past has not yet sent, and
    /// rolling back communication partners.
    pub fn restore_checkpoint(&mut self, ckpt: &ProcCheckpoint) {
        self.restore_proc(ckpt, ProcStatus::Running);
    }

    /// Restore a process to `ckpt` with liveness `status`. A process
    /// that comes back running gets a `Restart` record; one that stays
    /// crashed gets none, its `Crash` is already recorded.
    fn restore_proc(&mut self, ckpt: &ProcCheckpoint, status: ProcStatus) {
        self.assert_unsharded("restore_checkpoint");
        let e = self.procs.ent_mut(ckpt.pid);
        e.program.restore(&ckpt.state.as_bytes());
        e.ctx = ckpt.ctx.clone();
        e.status = status;
        e.generation += 1;
        if status == ProcStatus::Running {
            let seq = self.exec_seq;
            self.exec_seq += 1;
            self.record_side_event(seq, EventKind::Restart { pid: ckpt.pid });
        }
    }

    /// Crash a process immediately (external fault injection). A dormant
    /// lazy target is marked dead without materializing its state.
    pub fn crash_now(&mut self, pid: Pid) {
        self.assert_unsharded("crash_now");
        self.procs.set_status(pid, ProcStatus::Crashed);
        let seq = self.exec_seq;
        self.exec_seq += 1;
        self.record_side_event(seq, EventKind::Crash { pid });
    }

    /// Mark a crashed process running again **without** restoring state
    /// (used by restart-from-scratch strategies; pair with
    /// [`World::replace_program`] or [`World::restore_checkpoint`]).
    pub fn revive(&mut self, pid: Pid) {
        self.assert_unsharded("revive");
        self.procs.set_status(pid, ProcStatus::Running);
    }

    /// Replace a process's program wholesale (the Healer's dynamic update
    /// entry point). Clocks and RNG position are preserved; the new
    /// program's state must already be migrated.
    pub fn replace_program(&mut self, pid: Pid, program: Box<dyn Program>) {
        self.assert_unsharded("replace_program");
        let e = self.procs.ent_mut(pid);
        e.program = program;
        e.generation += 1;
    }

    /// Schedule a fresh `on_start` for `pid` at the current time (used
    /// after revive/replace to boot the new code). A sharded world takes
    /// it only before it starts.
    pub fn schedule_start(&mut self, pid: Pid) {
        if self.sealed {
            self.assert_unsharded("schedule_start after the start");
        }
        self.push_event(self.now, EventKind::Start { pid });
    }

    /// Set the Time-Machine metadata template stamped on `pid`'s future
    /// sends (checkpoint index, speculation id).
    pub fn set_meta_template(&mut self, pid: Pid, meta: MsgMeta) {
        self.procs.ent_mut(pid).ctx.meta = meta;
    }

    /// Current metadata template of `pid`.
    pub fn meta_template(&self, pid: Pid) -> MsgMeta {
        self.procs
            .ent(pid)
            .map_or_else(MsgMeta::default, |e| e.ctx.meta)
    }

    /// Remove queued events matching `pred` (e.g. in-flight messages made
    /// orphan by a rollback). Returns how many were removed. A removed
    /// timer's cancel mark goes with it: left behind, it would swallow
    /// the same timer re-armed later (a restore re-arms captured ones).
    pub fn purge_events(&mut self, mut pred: impl FnMut(&EventKind) -> bool) -> usize {
        self.assert_unsharded("purge_events");
        let mut removed = 0;
        if let Some(staged) = &self.staged {
            if pred(&staged.kind) {
                self.staged = None;
                removed += 1;
            }
        }
        let drained: Vec<QueuedEvent> = self.queue.drain_all();
        for qe in drained {
            if pred(&qe.kind) {
                removed += 1;
                match qe.kind {
                    // A purged in-flight message the queue solely held
                    // goes back to the arena rather than the allocator
                    // (the Time Machine purges orphans on every rollback).
                    EventKind::Deliver { msg } | EventKind::Drop { msg } => {
                        self.arena.recycle_message(msg);
                    }
                    EventKind::TimerFire { pid, timer } => {
                        self.cancelled_timers.remove(&(pid.0, timer.0));
                    }
                    _ => {}
                }
            } else {
                self.queue.push(qe);
            }
        }
        removed
    }

    /// Every queued event (staged one included) in scheduling order.
    ///
    /// O(Q log Q) full-queue sort — audited to stay off the per-step
    /// path: its only callers, [`World::global_snapshot`] (once per
    /// capture) and [`World::inflight_messages`] (the Healer's update
    /// point, tests), run once per capture or update, never per event.
    fn queue_in_order(&self) -> Vec<&QueuedEvent> {
        self.assert_unsharded("reading the event queue");
        let mut qes: Vec<&QueuedEvent> = self.queue.iter().chain(self.staged.iter()).collect();
        qes.sort_by_key(|qe| (qe.at, qe.seq));
        qes
    }

    /// All messages currently in flight (queued `Deliver` events), in
    /// scheduling order. The returned handles alias the queued messages
    /// (refcount bumps — capturing a checkpoint of heavy in-flight mail
    /// copies nothing).
    pub fn inflight_messages(&self) -> Vec<SharedMessage> {
        self.queue_in_order()
            .into_iter()
            .filter_map(|qe| match &qe.kind {
                EventKind::Deliver { msg } => Some(msg.clone()),
                _ => None,
            })
            .collect()
    }

    /// Inject a message directly into the network (drivers use this to
    /// re-send recorded messages during replay-style investigations).
    /// Accepts an owned [`Message`](crate::event::Message) or an
    /// already-shared handle (which is aliased, not copied).
    pub fn inject_message(&mut self, msg: impl Into<SharedMessage>, deliver_at: VTime) {
        if self.sealed {
            self.assert_unsharded("inject_message");
        }
        self.push_event(
            deliver_at.max(self.now),
            EventKind::Deliver { msg: msg.into() },
        );
    }

    /// Re-arm a timer (drivers use this when restoring a global
    /// snapshot that captured pending timers).
    pub fn inject_timer(&mut self, pid: Pid, timer: TimerId, fire_at: VTime) {
        self.assert_unsharded("inject_timer");
        self.push_event(fire_at.max(self.now), EventKind::TimerFire { pid, timer });
    }

    /// Capture a consistent cut: every process's checkpoint, the mail in
    /// flight, the pending timers and the crashed pids at this instant
    /// (see [`GlobalSnapshot`]). Dormant lazy processes contribute the
    /// fresh state they would materialize with, so the snapshot is
    /// well-defined at any width — but it is inherently O(N). Refused on
    /// a sharded world, whose shards hold the queue and run up to a
    /// window ahead; [`World::fingerprint`] works there.
    pub fn global_snapshot(&self) -> GlobalSnapshot {
        self.assert_unsharded("global_snapshot");
        let (mut inflight, mut timers) = (Vec::new(), Vec::new());
        for qe in self.queue_in_order() {
            match &qe.kind {
                EventKind::Deliver { msg } => inflight.push(msg.clone()),
                EventKind::TimerFire { pid, timer }
                    if !self.cancelled_timers.contains(&(pid.0, timer.0)) =>
                {
                    timers.push((*pid, *timer, qe.at));
                }
                _ => {}
            }
        }
        let pids = (0..self.procs.width()).map(|i| Pid(i as u32));
        GlobalSnapshot {
            at: self.now,
            procs: pids.clone().map(|p| self.checkpoint_process(p)).collect(),
            inflight,
            timers,
            crashed: pids
                .filter(|&p| self.status(p) == ProcStatus::Crashed)
                .collect(),
        }
    }

    /// Put the world back to `snap`: every process's state, context and
    /// liveness (a crashed pid stays crashed, with no second `Crash`
    /// record), and the channel state — the queued mail and timers are
    /// replaced by the captured ones, re-injected at `now` (a timer due
    /// later keeps its fire time).
    pub fn restore_snapshot(&mut self, snap: &GlobalSnapshot) {
        for c in &snap.procs {
            let status = match snap.crashed.binary_search(&c.pid) {
                Ok(_) => ProcStatus::Crashed,
                Err(_) => ProcStatus::Running,
            };
            self.restore_proc(c, status);
        }
        self.purge_events(|k| matches!(k, EventKind::Deliver { .. } | EventKind::TimerFire { .. }));
        let now = self.now;
        for m in &snap.inflight {
            self.inject_message(m.clone(), now);
        }
        for &(pid, timer, fire_at) in &snap.timers {
            self.inject_timer(pid, timer, fire_at);
        }
    }

    /// [`GlobalSnapshot::fingerprint`] of this instant, folded straight
    /// off the process table: that table is the serial world's at every
    /// committed step, so this works at any shard count.
    pub fn fingerprint(&self) -> u64 {
        fold_states(
            (0..self.procs.width())
                .map(|i| self.with_program(Pid(i as u32), |p| wire::fnv1a(&p.snapshot()))),
        )
    }

    /// Current partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }
}

/// The network-side state one routed send consumes: fault rules, the
/// delivery policy, the live partition, the network RNG, counters, and
/// the scheduling-sequence mint.
struct NetSide<'a> {
    faults: &'a FaultPlan,
    net: &'a NetworkConfig,
    partition: &'a Partition,
    net_rng: &'a mut DetRng,
    stats: &'a mut NetStats,
    sched_seq: &'a mut u64,
    plan_scratch: &'a mut Vec<DeliveryOutcome>,
    now: VTime,
}

impl NetSide<'_> {
    #[inline]
    fn make_event(&mut self, at: VTime, kind: EventKind) -> QueuedEvent {
        let seq = *self.sched_seq;
        *self.sched_seq += 1;
        QueuedEvent { at, seq, kind }
    }

    /// Route every send of one effects batch into `batch` (each send
    /// aliases the message handle: a refcount bump, no `Message`
    /// clone).
    fn route_sends(&mut self, sends: &[SharedMessage], batch: &mut Vec<QueuedEvent>) {
        for msg in sends {
            self.route_message(msg.clone(), batch);
        }
    }

    /// Plan one send's deliveries/drops into `batch` (scheduling order is
    /// identical to pushing straight into the queue: sequence numbers are
    /// minted here, and the queue orders by `(at, seq)` regardless of
    /// insertion order).
    fn route_message(&mut self, mut msg: SharedMessage, batch: &mut Vec<QueuedEvent>) {
        self.stats.sent += 1;
        self.stats.payload_bytes += msg.payload.len() as u64;
        // Fault-plan rules first (they are targeted and override chance).
        if self.faults.should_drop(msg.src, msg.dst, self.now) {
            let qe = self.make_event(self.now, EventKind::Drop { msg });
            batch.push(qe);
            return;
        }
        if self.faults.should_corrupt(msg.src, msg.dst, self.now) && !msg.payload.is_empty() {
            let i = (self.net_rng.next_u64() as usize) % msg.payload.len();
            // Copy-on-write: the sender's Effects still alias the clean
            // message and buffer, so the flip splits off the one private
            // copy the corruption path is allowed. An empty payload
            // (guarded above) never copies at all — and never indexes
            // `% 0`.
            msg.to_mut().payload.to_mut()[i] ^= 0xFF;
            self.stats.corrupted += 1;
        }
        let connected = self.partition.connected(msg.src, msg.dst);
        self.plan_scratch.clear();
        self.net.plan_for_into(
            msg.src,
            msg.dst,
            self.now,
            &msg.payload,
            connected,
            self.net_rng,
            self.plan_scratch,
        );
        let mut first = true;
        // Consume the scratch front-to-back (sequence numbers are minted
        // in plan order) by value — the corrupted payload moves out, it
        // must not be cloned through the counted `Payload::clone`.
        for i in 0..self.plan_scratch.len() {
            let outcome = std::mem::replace(
                &mut self.plan_scratch[i],
                DeliveryOutcome::Drop {
                    reason: DropReason::Loss,
                },
            );
            match outcome {
                DeliveryOutcome::Deliver {
                    at,
                    corrupted_payload,
                } => {
                    if !first {
                        self.stats.duplicated += 1;
                    }
                    first = false;
                    let mut m = msg.clone();
                    if let Some(p) = corrupted_payload {
                        m.to_mut().payload = p;
                        self.stats.corrupted += 1;
                    }
                    let qe = self.make_event(at, EventKind::Deliver { msg: m });
                    batch.push(qe);
                }
                DeliveryOutcome::Drop { reason: _ } => {
                    let qe = self.make_event(self.now, EventKind::Drop { msg: msg.clone() });
                    batch.push(qe);
                }
            }
        }
        self.plan_scratch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Message;
    use crate::program::Context;

    /// Sends `count` pings around a ring; each process counts receipts.
    #[derive(Clone)]
    struct Ring {
        received: u64,
        hops: u64,
    }

    impl Program for Ring {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
                ctx.send(next, 1, self.hops.to_le_bytes().to_vec());
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            self.received += 1;
            let hops = u64::from_le_bytes(msg.payload[..8].try_into().unwrap());
            if hops > 0 {
                let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
                ctx.send(next, 1, (hops - 1).to_le_bytes().to_vec());
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut b = self.received.to_le_bytes().to_vec();
            b.extend_from_slice(&self.hops.to_le_bytes());
            b
        }
        fn restore(&mut self, bytes: &[u8]) {
            self.received = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
            self.hops = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        }
        fn name(&self) -> &'static str {
            "ring"
        }
    }

    fn ring_world(n: usize, hops: u64, seed: u64) -> World {
        let mut w = World::new(WorldConfig::seeded(seed));
        for _ in 0..n {
            w.add_process(Box::new(Ring { received: 0, hops }));
        }
        w
    }

    #[test]
    fn ring_delivers_exactly_hops_plus_one() {
        let mut w = ring_world(4, 7, 1);
        let report = w.run_to_quiescence(10_000);
        assert!(report.quiescent);
        assert_eq!(report.delivered, 8); // initial + 7 forwarded
        let total: u64 = (0..4)
            .map(|i| w.program::<Ring>(Pid(i)).unwrap().received)
            .sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let mut a = ring_world(5, 20, 42);
        let mut b = ring_world(5, 20, 42);
        a.run_to_quiescence(10_000);
        b.run_to_quiescence(10_000);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn peek_is_idempotent_and_matches_step() {
        let mut w = ring_world(3, 2, 7);
        let p1 = w.peek().unwrap();
        let p2 = w.peek().unwrap();
        assert_eq!(p1, p2);
        let s = w.step().unwrap();
        assert_eq!(s.event.kind, p1.kind);
        assert_eq!(s.event.at, p1.at);
    }

    #[test]
    fn vector_clocks_track_causality() {
        let mut w = ring_world(3, 2, 7);
        w.run_to_quiescence(1_000);
        // P0 started the token; its send is causally before P1's state.
        let vc1 = w.proc_vc(Pid(1));
        assert!(vc1.get(Pid(0)) > 0, "P1 must have observed P0 events");
    }

    #[test]
    fn crash_stops_handlers_and_drops_mail() {
        let mut w = ring_world(3, 10, 7);
        w.set_fault_plan(FaultPlan::none().crash(Pid(1), 15));
        let report = w.run_to_quiescence(10_000);
        assert!(report.quiescent);
        assert_eq!(w.status(Pid(1)), ProcStatus::Crashed);
        assert!(report.dropped > 0, "messages to the dead process drop");
        assert!(report.delivered < 11, "token stops at the crash");
    }

    #[test]
    fn checkpoint_restore_roundtrip_exact() {
        let mut w = ring_world(3, 6, 9);
        w.run_steps(5);
        let ck = w.checkpoint_process(Pid(1));
        let before = ck.fingerprint();
        w.run_to_quiescence(1_000);
        let after_state = w.checkpoint_process(Pid(1)).fingerprint();
        assert_ne!(before, after_state, "state advanced");
        w.restore_checkpoint(&ck);
        assert_eq!(w.checkpoint_process(Pid(1)).fingerprint(), before);
        assert_eq!(w.status(Pid(1)), ProcStatus::Running);
    }

    #[test]
    fn restore_snapshot_keeps_crashed_processes_crashed() {
        let mut w = ring_world(3, 10, 7);
        w.run_steps(4);
        w.crash_now(Pid(2));
        let snap = w.global_snapshot();
        assert_eq!(snap.crashed, vec![Pid(2)]);
        let to_p2 = snap.inflight.iter().filter(|m| m.dst == Pid(2)).count();
        assert!(to_p2 > 0, "the token is on its way to the crashed pid");
        let received = w.program::<Ring>(Pid(2)).unwrap().received;
        w.run_steps(5);
        w.restore_snapshot(&snap);
        assert_eq!(w.status(Pid(2)), ProcStatus::Crashed);
        let crashes = |w: &World| {
            (w.trace().records())
                .filter(|r| matches!(r.event.kind, EventKind::Crash { .. }))
                .count()
        };
        assert_eq!(crashes(&w), 1, "no second Crash record");
        let report = w.run_to_quiescence(1_000);
        assert_eq!(
            report.dropped, to_p2 as u64,
            "mail to the crashed pid drops"
        );
        assert_eq!(w.program::<Ring>(Pid(2)).unwrap().received, received);
    }

    #[test]
    fn purge_events_removes_inflight() {
        let mut w = ring_world(3, 50, 9);
        w.run_steps(4);
        let inflight = w.inflight_messages();
        assert!(!inflight.is_empty());
        let removed = w.purge_events(|k| matches!(k, EventKind::Deliver { .. }));
        assert_eq!(removed, inflight.len());
        assert!(w.inflight_messages().is_empty());
    }

    /// P0 sends one message to P1; payload size is configurable so the
    /// corruption tests can cover the empty (no-op) and non-empty cases.
    #[derive(Clone)]
    struct OneShot {
        payload: Vec<u8>,
    }
    impl Program for OneShot {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, self.payload.clone());
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.payload.clone()
        }
        fn restore(&mut self, b: &[u8]) {
            self.payload = b.to_vec();
        }
    }

    /// The send and deliver records for P0 → P1's single message.
    fn sent_and_delivered(w: &World) -> (SharedMessage, SharedMessage) {
        let sent = w
            .trace()
            .records()
            .flat_map(|r| &r.effects.sends)
            .find(|m| m.dst == Pid(1))
            .expect("send recorded")
            .clone();
        let delivered = w
            .trace()
            .records()
            .find_map(|r| match &r.event.kind {
                EventKind::Deliver { msg } if msg.dst == Pid(1) => Some(msg.clone()),
                _ => None,
            })
            .expect("delivery recorded");
        (sent, delivered)
    }

    #[test]
    fn clean_delivery_aliases_sent_payload() {
        // One allocation from send to deliver to trace: the delivered
        // message's payload is the sender's buffer, not a copy.
        let mut w = World::new(WorldConfig::seeded(1));
        w.add_process(Box::new(OneShot {
            payload: vec![7; 64],
        }));
        w.add_process(Box::new(OneShot { payload: vec![] }));
        w.run_to_quiescence(100);
        let (sent, delivered) = sent_and_delivered(&w);
        assert!(
            sent.payload.ptr_eq(&delivered.payload),
            "clean path must not copy payload bytes"
        );
    }

    #[test]
    fn noop_corruption_performs_zero_copies() {
        // A corrupt-link window over an *empty* payload is a no-op: the
        // fault matches, nothing can flip, and no private copy may be
        // materialized — the delivered payload still aliases the send.
        let mut w = World::new(WorldConfig::seeded(1));
        w.add_process(Box::new(OneShot { payload: vec![] }));
        w.add_process(Box::new(OneShot { payload: vec![] }));
        w.set_fault_plan(FaultPlan::none().corrupt_link(Pid(0), Pid(1), 0, VTime::MAX));
        w.run_to_quiescence(100);
        assert_eq!(w.stats().corrupted, 0, "nothing to corrupt");
        let (sent, delivered) = sent_and_delivered(&w);
        assert!(
            sent.payload.ptr_eq(&delivered.payload),
            "no-op corruption must not split the buffer"
        );
    }

    #[test]
    fn corruption_splits_one_private_copy() {
        // A real corruption is the single sanctioned copy: the delivered
        // payload is private, and the sender's recorded effects keep the
        // clean original.
        let clean = vec![0xAB; 32];
        let mut w = World::new(WorldConfig::seeded(1));
        w.add_process(Box::new(OneShot {
            payload: clean.clone(),
        }));
        w.add_process(Box::new(OneShot { payload: vec![] }));
        w.set_fault_plan(FaultPlan::none().corrupt_link(Pid(0), Pid(1), 0, VTime::MAX));
        w.run_to_quiescence(100);
        assert_eq!(w.stats().corrupted, 1);
        let (sent, delivered) = sent_and_delivered(&w);
        assert!(
            !sent.payload.ptr_eq(&delivered.payload),
            "corruption materializes a private copy"
        );
        assert_eq!(sent.payload, clean, "the sender's record stays clean");
        let diff = delivered
            .payload
            .iter()
            .zip(&clean)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diff, 1, "exactly one byte flipped");
    }

    #[test]
    fn lossy_network_drops_messages() {
        let mut cfg = WorldConfig::seeded(3);
        cfg.net = NetworkConfig::lossy(1.0);
        let mut w = World::new(cfg);
        for _ in 0..3 {
            w.add_process(Box::new(Ring {
                received: 0,
                hops: 5,
            }));
        }
        let report = w.run_to_quiescence(1_000);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.dropped, 1, "the initial send is lost");
    }

    #[test]
    fn fault_plan_drop_link_blocks_token() {
        let mut w = ring_world(3, 10, 11);
        w.set_fault_plan(FaultPlan::none().drop_link(Pid(0), Pid(1), 0, VTime::MAX));
        let report = w.run_to_quiescence(1_000);
        assert_eq!(report.delivered, 0);
    }

    #[test]
    fn world_clone_diverges_independently() {
        let mut w = ring_world(4, 20, 5);
        w.run_steps(6);
        let mut fork = w.clone();
        let fp_w: u64 = {
            w.run_to_quiescence(10_000);
            w.fingerprint()
        };
        let fp_f: u64 = {
            fork.run_to_quiescence(10_000);
            fork.fingerprint()
        };
        assert_eq!(fp_w, fp_f, "same future from the same fork point");
    }

    #[test]
    fn inject_message_is_delivered() {
        let mut w = ring_world(2, 0, 1);
        w.run_to_quiescence(100);
        let msg = Message {
            id: 999,
            src: Pid(0),
            dst: Pid(1),
            tag: 1,
            payload: 3u64.to_le_bytes().to_vec().into(),
            sent_at: w.now(),
            vc: VectorClock::new(2),
            meta: MsgMeta::default(),
        };
        w.inject_message(msg, w.now() + 1);
        let r = w.run_to_quiescence(100);
        assert!(r.delivered >= 1);
    }

    #[test]
    fn meta_template_propagates_to_sends() {
        let mut w = ring_world(2, 3, 1);
        // Seal happens on first peek; set template before any sends.
        w.set_meta_template(
            Pid(0),
            MsgMeta {
                ckpt_index: 7,
                spec_id: 3,
                lamport: 0,
            },
        );
        w.peek();
        w.step(); // P0 start -> send
        let inflight = w.inflight_messages();
        let from_p0: Vec<_> = inflight.iter().filter(|m| m.src == Pid(0)).collect();
        assert!(!from_p0.is_empty());
        assert_eq!(from_p0[0].meta.ckpt_index, 7);
        assert_eq!(from_p0[0].meta.spec_id, 3);
    }

    #[test]
    fn run_until_respects_time_bound() {
        let mut w = ring_world(3, 100, 1);
        let cut = w.run_until(35);
        assert!(w.now() < 35);
        assert!(w.peek().unwrap().at >= 35);
        assert!(!cut.quiescent, "the bound cut the run");

        let mut w = ring_world(3, 2, 1);
        let drained = w.run_until(1_000_000);
        assert_eq!(drained.delivered, 3);
        assert!(drained.quiescent, "the queue drained before the bound");
    }

    #[test]
    fn replace_program_swaps_behavior() {
        let mut w = ring_world(2, 1, 1);
        w.run_to_quiescence(100);
        let old = w.program::<Ring>(Pid(1)).unwrap().received;
        w.replace_program(
            Pid(1),
            Box::new(Ring {
                received: 1000,
                hops: 0,
            }),
        );
        assert_eq!(w.program::<Ring>(Pid(1)).unwrap().received, 1000);
        assert_ne!(old, 1000);
    }
}
