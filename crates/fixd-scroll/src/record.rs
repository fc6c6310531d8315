//! The Scroll recorder: a driver that observes a running world and
//! records the nondeterministic actions of every process.
//!
//! Figure 1 of the paper shows "one application interacting with the
//! Scroll at various points in its execution path" — those points are
//! exactly the events where the environment hands the process something
//! it could not have computed itself: a delivered message, a fired timer,
//! a random draw. Deterministic internal computation is *not* recorded;
//! that asymmetry is what keeps the Scroll cheap (experiment F1 measures
//! it).

use fixd_runtime::{EventKind, Pid, StepRecord, World};

use crate::entry::{EntryKind, ScrollEntry};
use crate::storage::ScrollStore;

/// Recorder knobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecordConfig {
    /// Also record messages dropped by the network (diagnostic only).
    pub record_drops: bool,
}

/// Observes [`StepRecord`]s from a [`World`] and appends scroll entries.
///
/// Usage:
/// ```
/// # use fixd_runtime::{Context, Pid, Program, World, WorldConfig};
/// # use fixd_scroll::{RecordConfig, ScrollRecorder};
/// # #[derive(Clone)]
/// # struct Hello;
/// # impl Program for Hello {
/// #     fn on_start(&mut self, ctx: &mut Context) {
/// #         if ctx.pid() == Pid(0) { ctx.send(Pid(1), 1, vec![]); }
/// #     }
/// #     fn snapshot(&self) -> Vec<u8> { Vec::new() }
/// #     fn restore(&mut self, _: &[u8]) {}
/// # }
/// # let mut world = World::new(WorldConfig::seeded(7));
/// # world.add_process(Box::new(Hello));
/// # world.add_process(Box::new(Hello));
/// let mut rec = ScrollRecorder::new(world.num_procs(), RecordConfig::default());
/// while let Some(step) = world.step() {
///     rec.observe(&world, &step);
/// }
/// let store = rec.into_store();
/// assert_eq!(store.total_entries(), 3); // two starts + one delivery
/// ```
#[derive(Clone, Debug)]
pub struct ScrollRecorder {
    store: ScrollStore,
    cfg: RecordConfig,
    next_seq: Vec<u64>,
}

impl ScrollRecorder {
    /// A recorder for `n` processes.
    pub fn new(n: usize, cfg: RecordConfig) -> Self {
        Self {
            store: ScrollStore::new(n),
            cfg,
            next_seq: vec![0; n],
        }
    }

    /// A recorder whose store seals and spills scroll prefixes to a
    /// [`crate::SpillConfig`]'s disk — supervised runs of any length
    /// keep only each scroll's tail resident.
    pub fn with_spill(n: usize, cfg: RecordConfig, spill: crate::storage::SpillConfig) -> Self {
        Self {
            store: ScrollStore::with_spill(n, spill),
            cfg,
            next_seq: vec![0; n],
        }
    }

    /// Record whatever in `step` was nondeterministic, after it executed.
    /// Everything recorded is read from the step; the world is not read.
    pub fn observe(&mut self, _world: &World, step: &StepRecord) {
        let Some(pid) = step.event.kind.pid() else {
            return;
        };
        let kind = match &step.event.kind {
            EventKind::Start { .. } => EntryKind::Start,
            EventKind::Deliver { msg } => EntryKind::Deliver { msg: msg.clone() },
            EventKind::TimerFire { timer, .. } => EntryKind::TimerFire { timer: *timer },
            EventKind::Crash { .. } => EntryKind::Crash,
            EventKind::Restart { .. } => EntryKind::Restart,
            EventKind::Drop { msg } => {
                if self.cfg.record_drops {
                    EntryKind::DroppedMail { msg: msg.clone() }
                } else {
                    return;
                }
            }
            EventKind::PartitionChange { .. } => return,
        };
        let local_seq = self.next_seq[pid.idx()];
        self.next_seq[pid.idx()] += 1;
        self.store.append(ScrollEntry {
            pid,
            local_seq,
            at: step.event.at,
            kind,
            randoms: step.effects.randoms.clone(),
            effects_fp: step.effects.fingerprint(),
            sends: step.effects.sends.len() as u64,
        });
    }

    /// The store accumulated so far.
    pub fn store(&self) -> &ScrollStore {
        &self.store
    }

    /// Consume the recorder, yielding the store.
    pub fn into_store(self) -> ScrollStore {
        self.store
    }

    /// Forget everything recorded for `pid` past local sequence `n`
    /// (called on rollback: the rolled-back suffix never "happened").
    pub fn truncate(&mut self, pid: Pid, n: u64) {
        self.store.truncate(pid, n as usize);
        self.next_seq[pid.idx()] = n;
    }
}

/// Convenience: run `world` to quiescence (bounded by `max_steps`) while
/// recording, returning the store and the run report.
pub fn record_run(
    world: &mut World,
    cfg: RecordConfig,
    max_steps: u64,
) -> (ScrollStore, fixd_runtime::RunReport) {
    let mut rec = ScrollRecorder::new(world.num_procs(), cfg);
    let d0 = world.stats();
    let mut steps = 0;
    while steps < max_steps {
        let Some(step) = world.step() else { break };
        rec.observe(world, &step);
        steps += 1;
    }
    let d1 = world.stats();
    let report = fixd_runtime::RunReport {
        steps,
        delivered: d1.delivered - d0.delivered,
        dropped: d1.dropped - d0.dropped,
        end_time: world.now(),
        quiescent: steps < max_steps,
    };
    (rec.into_store(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Context, Message, Program, World, WorldConfig};

    #[derive(Clone)]
    struct Chatter {
        count: u64,
    }
    impl Program for Chatter {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, vec![5]);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            self.count += 1;
            let _ = ctx.random();
            if msg.payload[0] > 0 {
                let back = if ctx.pid() == Pid(0) { Pid(1) } else { Pid(0) };
                ctx.send(back, 1, vec![msg.payload[0] - 1]);
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.count.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.count = u64::from_le_bytes(b.try_into().unwrap());
        }
    }

    fn chatter_world(seed: u64) -> World {
        let mut w = World::new(WorldConfig::seeded(seed));
        w.add_process(Box::new(Chatter { count: 0 }));
        w.add_process(Box::new(Chatter { count: 0 }));
        w
    }

    #[test]
    fn records_only_nondeterministic_events() {
        let mut w = chatter_world(1);
        let (store, report) = record_run(&mut w, RecordConfig::default(), 1_000);
        assert!(report.quiescent);
        // 2 starts + 6 deliveries (payload 5..0)
        assert_eq!(store.total_entries(), 8);
        let delivers = store
            .scroll(Pid(1))
            .iter()
            .filter(|e| matches!(e.kind, EntryKind::Deliver { .. }))
            .count();
        assert_eq!(delivers, 3);
    }

    #[test]
    fn randoms_are_recorded() {
        let mut w = chatter_world(1);
        let (store, _) = record_run(&mut w, RecordConfig::default(), 1_000);
        let p0 = store.scroll(Pid(0));
        let deliver_entries: Vec<_> = p0
            .iter()
            .filter(|e| matches!(e.kind, EntryKind::Deliver { .. }))
            .collect();
        assert!(!deliver_entries.is_empty());
        assert!(deliver_entries.iter().all(|e| e.randoms.len() == 1));
    }

    #[test]
    fn local_seq_dense_per_process() {
        let mut w = chatter_world(2);
        let (store, _) = record_run(&mut w, RecordConfig::default(), 1_000);
        for pid in [Pid(0), Pid(1)] {
            for (i, e) in store.scroll(pid).iter().enumerate() {
                assert_eq!(e.local_seq, i as u64);
            }
        }
    }

    #[test]
    fn drops_recorded_only_when_enabled() {
        for (record_drops, expect_dropped_entries) in [(false, false), (true, true)] {
            let mut cfg = WorldConfig::seeded(3);
            cfg.net = fixd_runtime::NetworkConfig::lossy(1.0);
            let mut w = World::new(cfg);
            w.add_process(Box::new(Chatter { count: 0 }));
            w.add_process(Box::new(Chatter { count: 0 }));
            let (store, _) = record_run(&mut w, RecordConfig { record_drops }, 1_000);
            let has_drops = store
                .scroll(Pid(1))
                .iter()
                .any(|e| matches!(e.kind, EntryKind::DroppedMail { .. }));
            assert_eq!(has_drops, expect_dropped_entries);
        }
    }

    #[test]
    fn recorded_entries_alias_delivered_payloads() {
        // The Scroll must not copy payload bytes: every Deliver entry
        // shares the allocation of the message the runtime delivered.
        let mut w = chatter_world(1);
        let mut rec = ScrollRecorder::new(2, RecordConfig::default());
        let mut checked = 0;
        while let Some(step) = w.step() {
            rec.observe(&w, &step);
            if let fixd_runtime::EventKind::Deliver { msg } = &step.event.kind {
                let scroll = rec.store().scroll(msg.dst);
                let e = scroll.last().unwrap();
                let recorded = e.kind.payload().expect("deliver entry has a payload");
                assert!(
                    recorded.ptr_eq(&msg.payload),
                    "scroll entry must alias the delivered buffer"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "the run must deliver something");
    }

    #[test]
    fn duplicated_deliveries_share_one_buffer_in_the_store() {
        // A duplicating network delivers the same message twice; the
        // store holds two entries but only one payload allocation.
        let mut cfg = WorldConfig::seeded(7);
        cfg.net = fixd_runtime::NetworkConfig::duplicating(1.0);
        let mut w = World::new(cfg);
        w.add_process(Box::new(Chatter { count: 0 }));
        w.add_process(Box::new(Chatter { count: 0 }));
        let (store, report) = record_run(&mut w, RecordConfig::default(), 1_000);
        assert!(report.delivered >= 2, "dup network doubles deliveries");
        let (p0, p1) = (store.scroll(Pid(0)), store.scroll(Pid(1)));
        let summed: usize = p0
            .iter()
            .chain(p1.iter())
            .filter_map(|e| e.kind.payload())
            .map(|p| p.len())
            .sum();
        let unique = store.unique_payload_bytes();
        assert!(
            unique < summed,
            "duplicates must alias: unique={unique} summed={summed}"
        );
    }

    #[test]
    fn truncate_resets_seq() {
        let mut w = chatter_world(1);
        let mut rec = ScrollRecorder::new(2, RecordConfig::default());
        for _ in 0..4 {
            let step = w.step().unwrap();
            rec.observe(&w, &step);
        }
        let n0 = rec.store().scroll(Pid(0)).len();
        assert!(n0 >= 1);
        rec.truncate(Pid(0), 1);
        assert_eq!(rec.store().scroll(Pid(0)).len(), 1);
        // Further observation appends densely at seq 1.
        while let Some(step) = w.step() {
            rec.observe(&w, &step);
        }
        let scroll = rec.store().scroll(Pid(0));
        for (i, e) in scroll.iter().enumerate() {
            assert_eq!(e.local_seq, i as u64);
        }
    }
}
