//! The [`TimeMachine`]: communication-induced checkpointing driver and
//! rollback executor.
//!
//! Figure 6 of the paper: *"Each process saves a checkpoint before
//! receiving a new message. If process B fails ... all other processes
//! that communicated with it need to restore their state to form a
//! globally consistent recovery line."* The Time Machine implements that
//! discipline as a driver around [`World::peek`]/[`World::step`]:
//!
//! * **before** a `Deliver` executes, the receiver takes a checkpoint and
//!   the dependency edge is recorded; the checkpoint is an entry per
//!   receive, with a lightweight (COW) image of the state every eighth
//!   handler event and, between images, the handler log that restores
//!   it by replay ([`crate::checkpoint`]);
//! * **after** a handler runs, its event joins its process's log;
//! * message metadata stamps every send with the sender's current
//!   checkpoint interval;
//! * on failure, [`TimeMachine::rollback`] computes the maximal safe
//!   recovery line and restores it — purging orphan messages and
//!   re-injecting logged messages that the restored past has already
//!   sent but the rolled-back receivers have not yet received
//!   (sender-based message logging, as liblog provides in §4.1).

use fixd_runtime::{EventKind, MsgMeta, Pid, SharedMessage, StepRecord, VTime, World};

use crate::checkpoint::CheckpointStore;
use crate::dependency::{DepEdge, DependencyGraph, NO_ROLLBACK};
use crate::recovery::{RecoveryLine, RollbackError, RollbackReport};
use crate::speculation::Speculation;

/// When checkpoints are taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Communication-induced: checkpoint before every receive (Fig. 6).
    /// Guarantees bounded, safe recovery lines.
    EveryReceive,
    /// Independent periodic checkpoints every `every` virtual time units.
    /// The naive baseline: vulnerable to the domino effect (F6).
    Periodic { every: VTime },
    /// Only explicit [`TimeMachine::checkpoint_now`] calls (plus the
    /// initial checkpoint 0).
    OnDemand,
}

/// Time Machine construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct TimeMachineConfig {
    pub policy: CheckpointPolicy,
    /// Page size of the COW state images.
    pub page_size: usize,
}

impl Default for TimeMachineConfig {
    fn default() -> Self {
        Self {
            policy: CheckpointPolicy::EveryReceive,
            page_size: crate::page::DEFAULT_PAGE_SIZE,
        }
    }
}

/// A delivered message retained for replay after rollback. The retained
/// handle **is** the delivered message (shared `SharedMessage`): logging
/// a delivery adds one reference count — no payload copy, no vector
/// clock clone, no `Message` at all.
#[derive(Clone, Debug)]
pub(crate) struct DeliveryRecord {
    pub msg: SharedMessage,
    pub dst_interval: u64,
}

/// The Time Machine. One per [`World`]; drive it with
/// [`TimeMachine::run`] or manually via
/// [`TimeMachine::before_step`]/[`TimeMachine::after_step`].
#[derive(Clone, Debug)]
pub struct TimeMachine {
    pub(crate) cfg: TimeMachineConfig,
    /// The shared content-addressed page store every per-process
    /// [`CheckpointStore`] interns into. Cloning the Time Machine (a
    /// speculation branch) shares it, so branches pay page refcounts,
    /// not page copies, until they diverge.
    pub(crate) page_store: crate::page::PageStore,
    pub(crate) stores: Vec<CheckpointStore>,
    pub(crate) deps: DependencyGraph,
    pub(crate) intervals: Vec<u64>,
    pub(crate) events_handled: Vec<u64>,
    pub(crate) last_periodic: Vec<VTime>,
    pub(crate) delivery_log: Vec<DeliveryRecord>,
    pub(crate) specs: Vec<Speculation>,
    pub(crate) spec_of: Vec<u64>,
    initialized: bool,
}

impl TimeMachine {
    /// A Time Machine for a world of `n` processes, with its own page
    /// store shared across the world's processes.
    pub fn new(n: usize, cfg: TimeMachineConfig) -> Self {
        Self::with_store(n, cfg, crate::page::PageStore::new())
    }

    /// A Time Machine interning checkpoint pages into an externally
    /// provided store — pass one store to many Time Machines (campaign
    /// cells, OS processes) to deduplicate identical state across them.
    pub fn with_store(n: usize, cfg: TimeMachineConfig, pages: crate::page::PageStore) -> Self {
        Self {
            cfg,
            stores: (0..n)
                .map(|i| CheckpointStore::with_store(Pid(i as u32), cfg.page_size, pages.clone()))
                .collect(),
            page_store: pages,
            deps: DependencyGraph::new(),
            intervals: vec![0; n],
            events_handled: vec![0; n],
            last_periodic: vec![0; n],
            delivery_log: Vec::new(),
            specs: Vec::new(),
            spec_of: vec![0; n],
            initialized: false,
        }
    }

    /// Take the initial checkpoint (index 0) of every process. Called
    /// lazily by the driver entry points; call explicitly if you need
    /// checkpoint 0 to capture a specific pre-run state.
    ///
    /// On a sharded world this also has the shards predict the
    /// per-receive stamping ([`World::predict_receive_checkpoints`]), so
    /// it must run before the first delivery, and only the
    /// [`CheckpointPolicy::EveryReceive`] policy is predictable.
    pub fn init(&mut self, world: &mut World) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        world.ensure_started();
        if world.shards() > 1 {
            assert_eq!(
                self.cfg.policy,
                CheckpointPolicy::EveryReceive,
                "a sharded world can only be supervised under CheckpointPolicy::EveryReceive"
            );
            world.predict_receive_checkpoints();
        }
        for i in 0..self.stores.len() {
            let pid = Pid(i as u32);
            let idx = self.stores[i].record(world, self.events_handled[i]);
            debug_assert_eq!(idx, 0);
            self.intervals[i] = 0;
            self.stamp_meta(world, pid);
        }
    }

    fn stamp_meta(&self, world: &mut World, pid: Pid) {
        world.set_meta_template(
            pid,
            MsgMeta {
                ckpt_index: self.intervals[pid.idx()],
                spec_id: self.spec_of[pid.idx()],
                lamport: 0,
            },
        );
    }

    /// Take an on-demand checkpoint of `pid` now. Returns its index.
    pub fn checkpoint_now(&mut self, world: &mut World, pid: Pid) -> u64 {
        self.init(world);
        let i = pid.idx();
        let idx = self.stores[i].record(world, self.events_handled[i]);
        self.intervals[i] = idx;
        self.stamp_meta(world, pid);
        idx
    }

    /// Hook to call with the event [`World::peek`] returned, *before*
    /// [`World::step`] executes it.
    pub fn before_step(&mut self, world: &mut World, ev: &fixd_runtime::Event) {
        self.init(world);
        // The periodic policy checkpoints a process about to run a
        // handler once its period has passed. For a receive this comes
        // before the dependency edge and the delivery log, so both place
        // the receive in the new interval and a rollback to this
        // checkpoint re-delivers it.
        if let CheckpointPolicy::Periodic { every } = self.cfg.policy {
            if let Some(pid) = ev.kind.pid().filter(|_| ev.kind.runs_handler()) {
                let i = pid.idx();
                if world.now().saturating_sub(self.last_periodic[i]) >= every {
                    self.last_periodic[i] = world.now();
                    self.checkpoint_now(world, pid);
                }
            }
        }
        if let EventKind::Deliver { msg } = &ev.kind {
            let dst = msg.dst;
            if self.cfg.policy == CheckpointPolicy::EveryReceive {
                self.checkpoint_now(world, dst);
            }
            self.deps.add(DepEdge {
                src: msg.src,
                src_interval: msg.meta.ckpt_index,
                dst,
                dst_interval: self.intervals[dst.idx()],
            });
            self.delivery_log.push(DeliveryRecord {
                msg: msg.clone(),
                dst_interval: self.intervals[dst.idx()],
            });
            // Speculative-message absorption (paper §4.2: "Processes
            // that receive speculative data are absorbed in the
            // speculation").
            if msg.meta.spec_id != 0 {
                self.absorb(world, dst, msg.meta.spec_id);
            }
        }
    }

    /// Hook to call with the record [`World::step`] returned: a handler
    /// event joins its process's log.
    pub fn after_step(&mut self, _world: &mut World, rec: &StepRecord) {
        if rec.event.kind.runs_handler() {
            if let Some(pid) = rec.event.kind.pid() {
                self.events_handled[pid.idx()] += 1;
                self.stores[pid.idx()].log(&rec.event);
            }
        }
    }

    /// Drive `world` for up to `max_steps` events under Time-Machine
    /// supervision. Returns the number of steps executed.
    pub fn run(&mut self, world: &mut World, max_steps: u64) -> u64 {
        let mut steps = 0;
        while steps < max_steps {
            let Some(ev) = world.peek() else { break };
            self.before_step(world, &ev);
            let Some(rec) = world.step() else { break };
            self.after_step(world, &rec);
            steps += 1;
        }
        steps
    }

    /// Compute (without applying) the recovery line for a failure of
    /// `fail` rolling to checkpoint `target`.
    pub fn plan_rollback(&self, fail: Pid, target: u64) -> RecoveryLine {
        RecoveryLine::new(self.deps.recovery_line(self.stores.len(), fail, target))
    }

    /// Roll the world back: `fail` restores checkpoint `target`, every
    /// dependent process restores its own checkpoint on the computed
    /// recovery line. Orphan in-flight messages are purged; logged
    /// messages that the surviving past sent but rolled-back receivers
    /// have not (re-)received are re-injected.
    pub fn rollback(
        &mut self,
        world: &mut World,
        fail: Pid,
        target: u64,
    ) -> Result<RollbackReport, RollbackError> {
        self.init(world);
        if self.stores[fail.idx()].get(target).is_none() {
            return Err(RollbackError::NoSuchCheckpoint {
                pid: fail,
                index: target,
            });
        }
        let line = self.deps.recovery_line(self.stores.len(), fail, target);
        self.apply_line(world, &line).map(|mut r| {
            r.line = line;
            r
        })
    }

    /// Restore an explicit recovery line. Used by [`Self::rollback`] and
    /// by speculation aborts.
    pub(crate) fn apply_line(
        &mut self,
        world: &mut World,
        line: &[u64],
    ) -> Result<RollbackReport, RollbackError> {
        // Validate first: every required checkpoint must be live.
        for (i, &l) in line.iter().enumerate() {
            if l == NO_ROLLBACK {
                continue;
            }
            let pid = Pid(i as u32);
            if self.stores[i].get(l).is_none() {
                return Err(RollbackError::NoSuchCheckpoint { pid, index: l });
            }
            if !self.stores[i].is_live(l) {
                return Err(RollbackError::CheckpointCollected { pid, index: l });
            }
        }
        let mut report = RollbackReport::default();
        for (i, &l) in line.iter().enumerate() {
            if l == NO_ROLLBACK {
                continue;
            }
            let pid = Pid(i as u32);
            // Validated above, so this restores.
            let Some(events_at) = self.stores[i].restore(world, l) else {
                return Err(RollbackError::NoSuchCheckpoint { pid, index: l });
            };
            report.procs_rolled += 1;
            report.events_undone += self.events_handled[i] - events_at;
            // Rolling back to the initial checkpoint undoes the process's
            // `on_start` itself — re-schedule it so the process reboots.
            if events_at == 0 && self.events_handled[i] > 0 {
                world.schedule_start(pid);
            }
            self.events_handled[i] = events_at;
            self.intervals[i] = l;
            // Exit any speculation whose state was undone.
            self.spec_of[i] = 0;
            self.stamp_meta(world, pid);
        }
        // Purge orphan in-flight messages: sent in an undone interval.
        let line_vec = line.to_vec();
        report.msgs_purged = world.purge_events(|kind| match kind {
            EventKind::Deliver { msg } => {
                let sl = line_vec.get(msg.src.idx()).copied().unwrap_or(NO_ROLLBACK);
                sl != NO_ROLLBACK && msg.meta.ckpt_index >= sl
            }
            _ => false,
        });
        // Re-inject logged messages whose receive was undone but whose
        // send survives.
        let now = world.now();
        let mut kept = Vec::with_capacity(self.delivery_log.len());
        for rec in self.delivery_log.drain(..) {
            let dl = line_vec
                .get(rec.msg.dst.idx())
                .copied()
                .unwrap_or(NO_ROLLBACK);
            let sl = line_vec
                .get(rec.msg.src.idx())
                .copied()
                .unwrap_or(NO_ROLLBACK);
            let send_undone = sl != NO_ROLLBACK && rec.msg.meta.ckpt_index >= sl;
            let recv_undone = dl != NO_ROLLBACK && rec.dst_interval >= dl;
            if send_undone {
                // Orphan: forget it entirely. If this log entry held the
                // last reference, the box returns to the world's arena.
                world.reclaim_message(rec.msg);
                continue;
            }
            if recv_undone {
                world.inject_message(rec.msg.clone(), now);
                report.msgs_replayed += 1;
                continue; // will be re-logged on re-delivery
            }
            kept.push(rec);
        }
        self.delivery_log = kept;
        self.deps.retract(&line_vec);
        Ok(report)
    }

    /// The messages retained for post-rollback replay, in delivery
    /// order. Each handle aliases the message the runtime delivered
    /// (and the trace/Scroll recorded) — the aliasing regression tests
    /// pin that property.
    pub fn logged_deliveries(&self) -> impl Iterator<Item = &SharedMessage> {
        self.delivery_log.iter().map(|r| &r.msg)
    }

    /// Per-process checkpoint stores (read access).
    pub fn store(&self, pid: Pid) -> &CheckpointStore {
        &self.stores[pid.idx()]
    }

    /// Number of processes this Time Machine supervises.
    pub fn width(&self) -> usize {
        self.stores.len()
    }

    /// The dependency graph accumulated so far.
    pub fn dependencies(&self) -> &DependencyGraph {
        &self.deps
    }

    /// Current checkpoint interval of `pid`.
    pub fn interval(&self, pid: Pid) -> u64 {
        self.intervals[pid.idx()]
    }

    /// Handler events executed by `pid` (net of rollbacks).
    pub fn events_handled(&self, pid: Pid) -> u64 {
        self.events_handled[pid.idx()]
    }

    /// Total distinct checkpoint bytes held across **all** processes of
    /// this Time Machine: each content-addressed page counted once even
    /// when referenced from several processes' histories.
    pub fn total_checkpoint_bytes(&self) -> usize {
        crate::page::PagedImage::unique_bytes(self.stores.iter().flat_map(CheckpointStore::images))
    }

    /// The shared page store backing this Time Machine's checkpoints.
    pub fn page_store(&self) -> &crate::page::PageStore {
        &self.page_store
    }

    /// Total checkpoints retained across processes.
    pub fn total_checkpoints(&self) -> usize {
        self.stores.iter().map(CheckpointStore::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Context, Program, WorldConfig};

    /// Each process counts tokens; P0 circulates `hops` tokens around the
    /// ring. State carries a buffer so checkpoints are non-trivial.
    #[derive(Clone)]
    struct Worker {
        counter: u64,
        buf: Vec<u8>,
    }
    impl Worker {
        fn new() -> Self {
            Self {
                counter: 0,
                buf: vec![0; 2048],
            }
        }
    }
    impl Program for Worker {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, vec![16]);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &fixd_runtime::Message) {
            self.counter += 1;
            let i = (self.counter as usize * 131) % self.buf.len();
            self.buf[i] = self.buf[i].wrapping_add(1);
            if msg.payload[0] > 0 {
                let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
                ctx.send(next, 1, vec![msg.payload[0] - 1]);
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut b = self.counter.to_le_bytes().to_vec();
            b.extend_from_slice(&self.buf);
            b
        }
        fn restore(&mut self, b: &[u8]) {
            self.counter = u64::from_le_bytes(b[0..8].try_into().unwrap());
            self.buf = b[8..].to_vec();
        }
    }

    fn setup(n: usize, policy: CheckpointPolicy) -> (World, TimeMachine) {
        let mut w = World::new(WorldConfig::seeded(11));
        for _ in 0..n {
            w.add_process(Box::new(Worker::new()));
        }
        let tm = TimeMachine::new(
            n,
            TimeMachineConfig {
                policy,
                page_size: 256,
            },
        );
        (w, tm)
    }

    #[test]
    fn cic_checkpoints_before_every_receive() {
        let (mut w, mut tm) = setup(3, CheckpointPolicy::EveryReceive);
        tm.run(&mut w, 10_000);
        // Every delivery to a process bumped its interval by one.
        for i in 0..3u32 {
            let pid = Pid(i);
            assert_eq!(
                tm.interval(pid),
                w.delivered_count(pid),
                "interval = receives for {pid}"
            );
        }
        assert!(!tm.dependencies().is_empty());
    }

    #[test]
    fn delivery_log_aliases_delivered_payloads() {
        // The Time Machine's replay log is the second recorder of every
        // message (the Scroll is the first); it must share the delivered
        // buffer, not copy it.
        let (mut w, mut tm) = setup(3, CheckpointPolicy::EveryReceive);
        let mut checked = 0;
        while let Some(ev) = w.peek() {
            tm.before_step(&mut w, &ev);
            let rec = w.step().unwrap();
            tm.after_step(&mut w, &rec);
            if let EventKind::Deliver { msg } = &rec.event.kind {
                let logged = tm
                    .delivery_log
                    .last()
                    .expect("before_step logged the delivery");
                assert_eq!(logged.msg.id, msg.id);
                assert!(
                    logged.msg.payload.ptr_eq(&msg.payload),
                    "delivery log must alias the delivered payload"
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn rollback_restores_consistent_line() {
        let (mut w, mut tm) = setup(3, CheckpointPolicy::EveryReceive);
        tm.run(&mut w, 12); // partway through the token run
        let fail = Pid(1);
        let target = tm.interval(fail).saturating_sub(1);
        let before_events = tm.events_handled(fail);
        let report = tm.rollback(&mut w, fail, target).unwrap();
        assert!(report.procs_rolled >= 1);
        assert!(report.events_undone >= 1);
        assert!(tm.events_handled(fail) < before_events);
        // World continues to run correctly after rollback.
        tm.run(&mut w, 10_000);
        let total: u64 = (0..3)
            .map(|i| w.program::<Worker>(Pid(i)).unwrap().counter)
            .sum();
        assert_eq!(total, 17, "all 17 deliveries eventually (re)processed");
    }

    #[test]
    fn rollback_replays_lost_messages() {
        let (mut w, mut tm) = setup(3, CheckpointPolicy::EveryReceive);
        tm.run(&mut w, 10_000); // run to quiescence
        let fail = Pid(2);
        let target = tm.interval(fail).saturating_sub(2);
        let report = tm.rollback(&mut w, fail, target).unwrap();
        // Quiescent world: the undone receives must come back from the log.
        assert!(report.msgs_replayed >= 1);
        tm.run(&mut w, 10_000);
        let total: u64 = (0..3)
            .map(|i| w.program::<Worker>(Pid(i)).unwrap().counter)
            .sum();
        assert_eq!(total, 17);
    }

    #[test]
    fn rollback_to_any_checkpoint_loses_no_delivery() {
        // A receive's checkpoint is taken before the receive is logged,
        // under either policy, so the log places the receive in the new
        // interval and a rollback to that checkpoint re-delivers it.
        for policy in [
            CheckpointPolicy::EveryReceive,
            CheckpointPolicy::Periodic { every: 1 },
        ] {
            let (mut w, mut tm) = setup(3, policy);
            tm.run(&mut w, 10_000);
            for target in 0..tm.store(Pid(2)).len() as u64 {
                let (mut w, mut tm) = setup(3, policy);
                tm.run(&mut w, 10_000);
                tm.rollback(&mut w, Pid(2), target).unwrap();
                tm.run(&mut w, 10_000);
                let total: u64 = (0..3)
                    .map(|i| w.program::<Worker>(Pid(i)).unwrap().counter)
                    .sum();
                assert_eq!(total, 17, "{policy:?}: rollback of P2 to {target}");
            }
        }
    }

    #[test]
    fn rollback_unknown_checkpoint_errors() {
        let (mut w, mut tm) = setup(2, CheckpointPolicy::EveryReceive);
        tm.run(&mut w, 5);
        let err = tm.rollback(&mut w, Pid(0), 999).unwrap_err();
        assert!(matches!(err, RollbackError::NoSuchCheckpoint { .. }));
    }

    #[test]
    fn periodic_policy_checkpoints_sparsely() {
        let (mut w, mut tm) = setup(3, CheckpointPolicy::Periodic { every: 1_000 });
        tm.run(&mut w, 10_000);
        let cic_like: usize = tm.total_checkpoints();
        // Only initial checkpoints (t spans < 1000 per proc here) or few.
        assert!(
            cic_like <= 6,
            "periodic should take few checkpoints, got {cic_like}"
        );
    }

    #[test]
    fn plan_rollback_matches_applied_line() {
        let (mut w, mut tm) = setup(3, CheckpointPolicy::EveryReceive);
        tm.run(&mut w, 10);
        let fail = Pid(1);
        let target = tm.interval(fail).saturating_sub(1);
        let planned = tm.plan_rollback(fail, target);
        let report = tm.rollback(&mut w, fail, target).unwrap();
        assert_eq!(planned.targets(), report.line.as_slice());
    }

    #[test]
    fn on_demand_policy_only_initial_until_asked() {
        let (mut w, mut tm) = setup(2, CheckpointPolicy::OnDemand);
        tm.run(&mut w, 8);
        assert_eq!(tm.total_checkpoints(), 2, "just the initial pair");
        let idx = tm.checkpoint_now(&mut w, Pid(0));
        assert_eq!(idx, 1);
        assert_eq!(tm.total_checkpoints(), 3);
    }

    #[test]
    fn deterministic_rerun_after_rollback_matches_original() {
        // Roll back to a checkpoint, re-run with no perturbation: final
        // state must equal the original final state (determinism).
        let (mut w1, mut tm1) = setup(3, CheckpointPolicy::EveryReceive);
        tm1.run(&mut w1, 10_000);
        let want = w1.global_snapshot().fingerprint();

        let (mut w2, mut tm2) = setup(3, CheckpointPolicy::EveryReceive);
        tm2.run(&mut w2, 9);
        let fail = Pid(1);
        let t = tm2.interval(fail).saturating_sub(1);
        tm2.rollback(&mut w2, fail, t).unwrap();
        tm2.run(&mut w2, 10_000);
        assert_eq!(w2.global_snapshot().fingerprint(), want);
    }
}
