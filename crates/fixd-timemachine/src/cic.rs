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
//!   the delivery is logged; the checkpoint is an entry per receive,
//!   with a lightweight (COW) image of the state every eighth handler
//!   event and, between images, the handler log that restores it by
//!   replay ([`crate::checkpoint`]). The logged delivery is the one
//!   record of the receive: the message kept for re-injection and the
//!   rollback-dependency edge ([`crate::dependency`]);
//! * **after** a handler runs, its event joins its process's log;
//! * message metadata stamps every send with the sender's current
//!   checkpoint interval;
//! * on failure, [`TimeMachine::rollback`] computes the maximal safe
//!   recovery line and restores it — purging orphan messages and
//!   re-injecting logged messages that the restored past has already
//!   sent but the rolled-back receivers have not yet received
//!   (sender-based message logging, as liblog provides in §4.1).

use fixd_runtime::{EventKind, Pid, SharedMessage, StepRecord, VTime, World};

use crate::checkpoint::CheckpointStore;
use crate::dependency::{recovery_line, DepEdge, NO_ROLLBACK};
use crate::recovery::{RecoveryLine, RollbackError, RollbackReport};

/// When checkpoints are taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Communication-induced: checkpoint before every receive (Fig. 6).
    /// Guarantees bounded, safe recovery lines.
    EveryReceive,
    /// Independent periodic checkpoints every `every` virtual time units.
    /// The naive baseline: vulnerable to the domino effect (F6).
    Periodic { every: VTime },
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

/// A delivered message retained for replay after rollback, and the
/// interval of the receiver it was delivered in. The retained handle
/// **is** the delivered message (shared `SharedMessage`): logging a
/// delivery adds one reference count — no payload copy, no `Message` at
/// all.
#[derive(Clone, Debug)]
pub(crate) struct DeliveryRecord {
    pub msg: SharedMessage,
    pub dst_interval: u64,
}

impl DeliveryRecord {
    /// The rollback dependency this delivery makes.
    pub(crate) fn edge(&self) -> DepEdge {
        DepEdge {
            src: self.msg.src,
            src_interval: self.msg.ckpt_index,
            dst: self.msg.dst,
            dst_interval: self.dst_interval,
        }
    }
}

/// The Time Machine. One per [`World`]; drive it with
/// [`TimeMachine::run`] or manually via
/// [`TimeMachine::before_step`]/[`TimeMachine::after_step`].
#[derive(Clone, Debug)]
pub struct TimeMachine {
    pub(crate) cfg: TimeMachineConfig,
    /// The shared content-addressed page store every per-process
    /// [`CheckpointStore`] interns into. Cloning the Time Machine (a
    /// copy-on-write branch) shares it, so branches pay page refcounts,
    /// not page copies, until they diverge.
    pub(crate) page_store: crate::page::PageStore,
    pub(crate) stores: Vec<CheckpointStore>,
    pub(crate) last_periodic: Vec<VTime>,
    pub(crate) delivery_log: Vec<DeliveryRecord>,
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
            last_periodic: vec![0; n],
            delivery_log: Vec::new(),
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
            let idx = self.stores[i].record(world);
            debug_assert_eq!(idx, 0);
            world.set_ckpt_index(Pid(i as u32), idx);
        }
    }

    /// Take an on-demand checkpoint of `pid` now. Returns its index.
    pub fn checkpoint_now(&mut self, world: &mut World, pid: Pid) -> u64 {
        self.init(world);
        let idx = self.stores[pid.idx()].record(world);
        world.set_ckpt_index(pid, idx);
        idx
    }

    /// Hook to call with the event [`World::peek`] returned, *before*
    /// [`World::step`] executes it.
    pub fn before_step(&mut self, world: &mut World, ev: &fixd_runtime::Event) {
        self.init(world);
        // The periodic policy checkpoints a process about to run a
        // handler once its period has passed. For a receive this comes
        // before the delivery is logged, so the log places the receive in
        // the new interval and a rollback to this checkpoint re-delivers
        // it.
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
            self.delivery_log.push(DeliveryRecord {
                msg: msg.clone(),
                dst_interval: self.interval(dst),
            });
        }
    }

    /// Hook to call with the record [`World::step`] returned: a handler
    /// event joins its process's log.
    pub fn after_step(&mut self, _world: &mut World, rec: &StepRecord) {
        if let Some(pid) = rec.event.kind.pid() {
            self.stores[pid.idx()].log(&rec.event);
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
        let n = self.stores.len();
        RecoveryLine::new(recovery_line(self.dependencies(), n, fail, target))
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
        let line = recovery_line(self.dependencies(), self.stores.len(), fail, target);
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
            let handled = self.stores[i].log_end();
            // Validated above, so this restores.
            let Some(events_at) = self.stores[i].restore(world, l) else {
                return Err(RollbackError::NoSuchCheckpoint { pid, index: l });
            };
            report.procs_rolled += 1;
            report.events_undone += handled - events_at;
            // Rolling back to the initial checkpoint undoes the process's
            // `on_start` itself — re-schedule it so the process reboots.
            if events_at == 0 && handled > 0 {
                world.schedule_start(pid);
            }
            world.set_ckpt_index(pid, l);
        }
        // An interval is undone when its process restores it or an
        // earlier one.
        let undone = |pid: Pid, interval: u64| line.get(pid.idx()).is_some_and(|&l| l <= interval);
        // Purge orphan in-flight messages: sent in an undone interval.
        report.msgs_purged = world.purge_events(|kind| match kind {
            EventKind::Deliver { msg } => undone(msg.src, msg.ckpt_index),
            _ => false,
        });
        // Re-inject logged messages whose receive was undone but whose
        // send survives. A delivery whose send or receive was undone no
        // longer describes the (new) history, so it leaves the log.
        let now = world.now();
        let mut kept = Vec::with_capacity(self.delivery_log.len());
        for rec in self.delivery_log.drain(..) {
            let e = rec.edge();
            if undone(e.src, e.src_interval) {
                // Orphan: forget it entirely. If this log entry held the
                // last reference, the box returns to the world's arena.
                world.reclaim_message(rec.msg);
                continue;
            }
            if undone(e.dst, e.dst_interval) {
                world.inject_message(rec.msg.clone(), now);
                report.msgs_replayed += 1;
                continue; // will be re-logged on re-delivery
            }
            kept.push(rec);
        }
        self.delivery_log = kept;
        report.line = line;
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

    /// The rollback dependencies of the run so far: one edge per logged
    /// delivery, in delivery order.
    pub fn dependencies(&self) -> impl Iterator<Item = DepEdge> + Clone + '_ {
        self.delivery_log.iter().map(DeliveryRecord::edge)
    }

    /// Current checkpoint interval of `pid`: its newest checkpoint's
    /// index.
    pub fn interval(&self, pid: Pid) -> u64 {
        self.stores[pid.idx()].latest_index().unwrap_or(0)
    }

    /// Handler events executed by `pid` (net of rollbacks): the length
    /// of its handler log.
    pub fn events_handled(&self, pid: Pid) -> u64 {
        self.stores[pid.idx()].log_end()
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
        assert!(tm.dependencies().next().is_some());
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
    fn rollback_forgets_undone_deliveries() {
        // A delivery whose send or receive the line undid no longer
        // describes the history, as a message or as a dependency.
        let (mut w, mut tm) = setup(3, CheckpointPolicy::EveryReceive);
        tm.run(&mut w, 12);
        let logged = tm.dependencies().count();
        let target = tm.interval(Pid(1)).saturating_sub(2);
        let report = tm.rollback(&mut w, Pid(1), target).unwrap();
        let undone = |p: Pid, interval: u64| report.line[p.idx()] <= interval;
        assert!(tm
            .dependencies()
            .all(|e| !undone(e.src, e.src_interval) && !undone(e.dst, e.dst_interval)));
        assert!(tm.dependencies().count() < logged);
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
    fn checkpoint_now_takes_the_next_index() {
        // A period longer than the run: only the initial pair until asked.
        let (mut w, mut tm) = setup(2, CheckpointPolicy::Periodic { every: VTime::MAX });
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
