//! The [`Fixd`] supervisor: the four components glued into the workflow
//! of Figs. 4–5.

use fixd_healer::{HealReport, Healer, Patch};
use fixd_investigator::{ExploreReport, Invariant, ModelAction, ModelD, WorldState};
use fixd_runtime::{Pid, World};
use fixd_scroll::{RecordConfig, ScrollQuery, ScrollRecorder, ScrollStore};
use fixd_timemachine::TimeMachine;

use crate::config::FixdConfig;
use crate::detector::{DetectedFault, Monitor, Watch};
use crate::protocol::{newest_good_checkpoint, respond_with, RespondOutcome};
use crate::report::BugReport;

/// Result of a supervised run segment.
#[derive(Debug)]
pub struct SuperviseOutcome {
    /// Events executed in this segment.
    pub steps: u64,
    /// The first detected fault, if any (execution pauses there).
    pub fault: Option<DetectedFault>,
    /// True if the world went quiescent.
    pub quiescent: bool,
}

/// Bookkeeping counters of one supervisor: how much the Scroll and the
/// Time Machine recorded while supervising. Campaign drivers aggregate
/// these across cells.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FixdStats {
    /// Events executed under supervision.
    pub steps: u64,
    /// Scroll entries recorded across all processes.
    pub scroll_entries: usize,
    /// Live checkpoints held by the Time Machine.
    pub checkpoints: usize,
    /// Bytes held in checkpoint pages (after COW sharing).
    pub checkpoint_bytes: usize,
}

/// FixD, assembled: Scroll + Time Machine + Investigator + Healer around
/// one [`World`].
pub struct Fixd {
    cfg: FixdConfig,
    tm: TimeMachine,
    scroll: ScrollRecorder,
    watch: Watch,
    healer: Healer,
    steps: u64,
}

impl Fixd {
    /// A supervisor for a world of `n` processes. When the config names
    /// a shared [`fixd_timemachine::PageStore`] the Time Machine interns
    /// checkpoint pages there; when it names a scroll spill target the
    /// Scroll seals and spills its prefixes there.
    pub fn new(n: usize, cfg: FixdConfig) -> Self {
        let record = RecordConfig {
            record_drops: cfg.record_drops,
        };
        Self {
            tm: match &cfg.page_store {
                Some(store) => TimeMachine::with_store(n, cfg.tm_config(), store.clone()),
                None => TimeMachine::new(n, cfg.tm_config()),
            },
            scroll: match &cfg.scroll_spill {
                Some(spill) => ScrollRecorder::with_spill(n, record, spill.clone()),
                None => ScrollRecorder::new(n, record),
            },
            watch: Watch::default(),
            healer: Healer::new(),
            steps: 0,
            cfg,
        }
    }

    /// Add an invariant monitor (builder style).
    pub fn monitor(mut self, m: Monitor) -> Self {
        self.watch.push(m);
        self
    }

    /// Register a patch with the Healer.
    pub fn register_patch(&mut self, patch: Patch) {
        self.healer.register(patch);
    }

    /// The Time Machine (e.g. for explicit speculations).
    pub fn time_machine(&mut self) -> &mut TimeMachine {
        &mut self.tm
    }

    /// The Scroll accumulated so far.
    pub fn scroll(&self) -> &ScrollStore {
        self.scroll.store()
    }

    /// The configured monitors.
    pub fn monitors(&self) -> &[Monitor] {
        self.watch.monitors()
    }

    /// Drive the world under full FixD supervision (checkpointing +
    /// logging + detection) until a fault fires, the world quiesces, or
    /// `max_steps` execute. Monitors are evaluated every
    /// `check_every` events and once more before returning if events
    /// ran since, so no executed event leaves this call unchecked.
    pub fn supervise(&mut self, world: &mut World, max_steps: u64) -> SuperviseOutcome {
        // `check_every == 0` would make `is_multiple_of` always false
        // and silently disable monitoring; treat it as 1.
        let every = self.cfg.check_every.max(1);
        let mut steps = 0u64;
        let mut unchecked = false;
        let mut quiescent = false;
        // Before the first peek: on a sharded world this switches on the
        // shards' prediction of the Time Machine's stamping.
        self.tm.init(world);
        while steps < max_steps {
            let Some(ev) = world.peek() else {
                quiescent = true;
                break;
            };
            self.tm.before_step(world, &ev);
            let Some(rec) = world.step() else {
                quiescent = true;
                break;
            };
            self.tm.after_step(world, &rec);
            self.scroll.observe(world, &rec);
            steps += 1;
            self.steps += 1;
            unchecked = true;
            if self.steps.is_multiple_of(every) {
                if let Some(fault) = self.watch.check(world, self.steps) {
                    return SuperviseOutcome {
                        steps,
                        fault: Some(fault),
                        quiescent: false,
                    };
                }
                unchecked = false;
            }
        }
        // The tail: events that ran after the last check point.
        let fault = unchecked
            .then(|| self.watch.check(world, self.steps))
            .flatten();
        SuperviseOutcome {
            steps,
            quiescent: quiescent && fault.is_none(),
            fault,
        }
    }

    /// Fig. 4 response: roll back to a checkpoint where the invariants
    /// hold and assemble the consistent global checkpoint. The walk over
    /// the checkpoints trusts the evidence this supervisor's monitors
    /// already verified, and re-verifies the rest.
    pub fn respond(
        &mut self,
        world: &mut World,
        fault: &DetectedFault,
    ) -> Result<RespondOutcome, fixd_timemachine::recovery::RollbackError> {
        let watch = &self.watch;
        respond_with(world, &mut self.tm, fault, |pid, p| {
            watch.holds_for_program(pid, p)
        })
    }

    /// The Investigator-side invariants of the monitors, in order: what
    /// [`Monitor::invariant`] gives, except that an item-wise monitor's
    /// starts from the evidence this supervisor verified and remembers,
    /// for the exploration it is handed to, each explored state's new
    /// items once verified. Its verdicts are [`Monitor::invariant`]'s.
    pub fn invariants(&self) -> impl Iterator<Item = Invariant<WorldState>> + '_ {
        self.watch.invariants()
    }

    /// Investigate an assembled checkpoint: explore execution paths and
    /// return the trails that lead to invariant violations (Fig. 3),
    /// under [`Fixd::invariants`].
    pub fn investigate(&self, state: WorldState) -> ExploreReport<ModelAction> {
        self.invariants()
            .fold(
                ModelD::from_checkpoint(self.cfg.seed, self.cfg.net_model, state)
                    .config(self.cfg.explore.clone()),
                ModelD::invariant,
            )
            .run()
    }

    /// The full detect→respond→investigate→report pipeline, starting from
    /// an already-detected fault.
    pub fn diagnose(
        &mut self,
        world: &mut World,
        fault: DetectedFault,
    ) -> Result<BugReport, fixd_timemachine::recovery::RollbackError> {
        let outcome = self.respond(world, &fault)?;
        let ckpt_fp = {
            // Fingerprint of the assembled checkpoint (via its model).
            use fixd_investigator::system::TransitionSystem;
            let model = fixd_investigator::WorldModel::from_state(
                self.cfg.seed,
                self.cfg.net_model,
                outcome.state.clone(),
            );
            let s = model.initial();
            model.fingerprint(&s)
        };
        let explore = self.investigate(outcome.state);
        let scroll_excerpt = match fault.pid {
            Some(pid) => ScrollQuery::new(&self.scroll.store().scroll(pid)).render(),
            None => String::new(),
        };
        Ok(BugReport::assemble(
            fault,
            outcome.rollback.line.clone(),
            world.now(),
            &explore,
            world.trace().render_tail(10),
            scroll_excerpt,
            ckpt_fp,
        ))
    }

    /// Fig. 5 recovery, option 2: dynamic update from a checkpoint of
    /// `fail`. Picks the *newest* checkpoint whose restored state the
    /// patch precondition accepts and where the local monitors hold —
    /// the paper's "restarted from a previously saved checkpoint where
    /// all invariants are satisfied" with the §4.4 state-equivalence
    /// gate. Falls back deeper automatically (ultimately to checkpoint
    /// 0) when shallow update points are refused. The walk and the check
    /// of the updated world trust what the monitors already verified.
    pub fn heal_update(
        &mut self,
        world: &mut World,
        fail: Pid,
        patch: &Patch,
    ) -> Result<HealReport, fixd_healer::update::HealError> {
        let watch = &self.watch;
        let target = newest_good_checkpoint(world, &self.tm, fail, |p, state| {
            watch.holds_for_program(fail, p) && patch.applicable_to(state)
        });
        self.healer
            .update_from_checkpoint(world, &mut self.tm, fail, target, patch, &[], |w| {
                watch.holds_in(w)
            })
    }

    /// Fig. 5 recovery, option 1: restart processes from scratch on the
    /// patched code.
    pub fn heal_restart(&mut self, world: &mut World, patch: &Patch, pids: &[Pid]) -> HealReport {
        self.healer
            .restart_from_scratch(world, &self.tm, patch, pids)
    }

    /// Events executed under supervision so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Scroll + Time Machine bookkeeping counters for this supervisor.
    pub fn stats(&self) -> FixdStats {
        FixdStats {
            steps: self.steps,
            scroll_entries: self.scroll.store().total_entries(),
            checkpoints: self.tm.total_checkpoints(),
            checkpoint_bytes: self.tm.total_checkpoint_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_healer::migrate;
    use fixd_runtime::{Context, Message, Program, WorldConfig};

    /// A replicated max-register with a lost-update bug: replicas apply
    /// values but the buggy version applies DECREASES too.
    struct MaxRegV1 {
        value: u64,
    }
    impl Program for MaxRegV1 {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                for v in [5u8, 9, 3] {
                    // 3 after 9: the bug will regress the register
                    ctx.send(Pid(1), 1, vec![v]);
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
            // BUG: should be self.value = self.value.max(new)
            self.value = u64::from(msg.payload[0]);
        }
        fn snapshot(&self) -> Vec<u8> {
            self.value.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.value = u64::from_le_bytes(b.try_into().unwrap());
        }
        fn clone_program(&self) -> Box<dyn Program> {
            Box::new(MaxRegV1 { value: self.value })
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    struct MaxRegV2 {
        value: u64,
    }
    impl Program for MaxRegV2 {
        fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
            self.value = self.value.max(u64::from(msg.payload[0]));
        }
        fn snapshot(&self) -> Vec<u8> {
            self.value.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.value = u64::from_le_bytes(b.try_into().unwrap());
        }
        fn clone_program(&self) -> Box<dyn Program> {
            Box::new(MaxRegV2 { value: self.value })
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Monotonicity monitor: the register at P1 must never be below a
    /// previously confirmed high-water mark. Modeled simply: value never
    /// regresses below 9 once the 9 was sent... we keep it simple and
    /// assert value != 3 (the regressed state).
    fn monitors() -> Monitor {
        Monitor::local::<MaxRegV1>("no-regression", |_, r| r.value != 3)
    }

    fn setup() -> (World, Fixd) {
        let mut w = World::new(WorldConfig::seeded(7));
        w.add_process(Box::new(MaxRegV1 { value: 0 }));
        w.add_process(Box::new(MaxRegV1 { value: 0 }));
        let fixd = Fixd::new(2, FixdConfig::seeded(7)).monitor(monitors());
        (w, fixd)
    }

    #[test]
    fn supervise_detects_the_regression() {
        let (mut w, mut fixd) = setup();
        let out = fixd.supervise(&mut w, 10_000);
        let fault = out.fault.expect("regression must be detected");
        assert_eq!(fault.monitor, "no-regression");
        assert_eq!(fault.pid, Some(Pid(1)));
        assert!(!out.quiescent);
        // Scroll recorded the run so far.
        assert!(fixd.scroll().total_entries() > 0);
    }

    /// The run is five steps and the regression is the fifth, so at
    /// `check_every` = 2, 3, 4 the world drains one, two, one step(s)
    /// past the last check point.
    #[test]
    fn sparse_checks_do_not_lose_the_tail() {
        let sparse = |every: u64, m: Monitor| {
            let (w, _) = setup();
            let mut cfg = FixdConfig::seeded(7);
            cfg.check_every = every;
            (w, Fixd::new(2, cfg).monitor(m))
        };
        let (mut w, mut fixd) = setup();
        let at_one = fixd.supervise(&mut w, 10_000).fault.unwrap();
        for every in [2, 3, 4] {
            let (mut w, mut fixd) = sparse(every, monitors());
            let out = fixd.supervise(&mut w, 10_000);
            assert!(!out.quiescent);
            assert_eq!(out.fault.as_ref(), Some(&at_one), "check_every={every}");

            // A clean world still just drains.
            let (mut w, mut fixd) = sparse(every, Monitor::local::<MaxRegV1>("true", |_, _| true));
            let out = fixd.supervise(&mut w, 10_000);
            assert!(out.quiescent && out.fault.is_none());
        }
        // Same at the other exit: a segment that ends between two check
        // points checks what it ran before returning.
        let (mut w, mut fixd) = sparse(1_000, monitors());
        let out = fixd.supervise(&mut w, at_one.after_steps);
        assert_eq!(out.fault, Some(at_one));
    }

    #[test]
    fn diagnose_produces_reproducing_report() {
        let (mut w, mut fixd) = setup();
        let fault = fixd.supervise(&mut w, 10_000).fault.unwrap();
        let report = fixd.diagnose(&mut w, fault).unwrap();
        assert!(
            report.reproduced(),
            "investigator must rediscover the bug:\n{}",
            report.render()
        );
        assert!(report.states_explored >= 2);
        let text = report.render();
        assert!(text.contains("no-regression"));
        assert!(text.contains("trail #1"));
    }

    #[test]
    fn full_loop_detect_diagnose_heal_update() {
        let (mut w, mut fixd) = setup();
        let fault = fixd.supervise(&mut w, 10_000).fault.unwrap();
        let _report = fixd.diagnose(&mut w, fault.clone()).unwrap();
        // The programmer writes the fix; FixD applies it in place.
        let patch = Patch::code_only("maxreg-fix", 1, 2, || Box::new(MaxRegV2 { value: 0 }))
            .with_migration(migrate::identity());
        let heal = fixd.heal_update(&mut w, Pid(1), &patch).unwrap();
        assert!(heal.salvaged_events > 0);
        // Resume: the offending message replays into the FIXED code.
        let out = fixd.supervise(&mut w, 10_000);
        assert!(out.fault.is_none(), "no more regression after the fix");
        assert!(out.quiescent);
        assert_eq!(w.program::<MaxRegV2>(Pid(1)).unwrap().value, 9);
    }

    /// No checkpoint the patch accepts, and checkpoint 0 collected: the
    /// walk still falls back to 0, as `choose_rollback_target` does, and
    /// the refusal comes before anything is rolled back.
    #[test]
    fn heal_update_with_nothing_acceptable_and_no_checkpoint_0_leaves_the_world_alone() {
        use fixd_healer::update::HealError;
        use fixd_timemachine::recovery::RollbackError;

        let (mut w, mut fixd) = setup();
        fixd.supervise(&mut w, 10_000).fault.unwrap();
        assert!(fixd.time_machine().interval(Pid(1)) >= 2);
        fixd.time_machine().gc(&[0, 1]);
        assert!(!fixd.time_machine().store(Pid(1)).is_live(0));
        let before = w.global_snapshot().fingerprint();

        let patch = Patch::code_only("maxreg-fix", 1, 2, || Box::new(MaxRegV2 { value: 0 }))
            .with_precondition(|_| false);
        assert_eq!(
            fixd.heal_update(&mut w, Pid(1), &patch).unwrap_err(),
            HealError::Rollback(RollbackError::CheckpointCollected {
                pid: Pid(1),
                index: 0
            })
        );
        assert_eq!(w.global_snapshot().fingerprint(), before);
        assert_eq!(w.program::<MaxRegV1>(Pid(1)).unwrap().value, 3);
    }

    #[test]
    fn heal_restart_loses_progress_but_fixes() {
        let (mut w, mut fixd) = setup();
        let fault = fixd.supervise(&mut w, 10_000).fault.unwrap();
        let _ = fault;
        let patch = Patch::code_only("maxreg-fix", 1, 2, || Box::new(MaxRegV2 { value: 0 }));
        let heal = fixd.heal_restart(&mut w, &patch, &[Pid(1)]);
        assert_eq!(heal.salvaged_events, 0);
        let out = fixd.supervise(&mut w, 10_000);
        assert!(out.fault.is_none());
        // All original messages were consumed by v1 before the restart;
        // the restarted v2 has only what arrives afterwards (nothing).
        assert_eq!(w.program::<MaxRegV2>(Pid(1)).unwrap().value, 0);
    }

    /// Passes a 64-byte token round the ring until every process has
    /// seen it 500 times: a run as long as the spill test needs, whose
    /// Scroll is dominated by entries, not fixed overhead.
    struct Pump {
        count: u64,
    }
    impl Program for Pump {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, vec![0xA5; 64]);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            self.count += 1;
            if self.count <= 500 {
                let next = Pid((ctx.pid().0 + 1) % ctx.world_size() as u32);
                ctx.send(next, 1, msg.payload.clone());
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.count.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.count = u64::from_le_bytes(b.try_into().unwrap());
        }
        fn clone_program(&self) -> Box<dyn Program> {
            Box::new(Pump { count: self.count })
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn supervised_run_with_spill_and_shared_store_matches_plain_run() {
        use fixd_runtime::SharedDisk;
        use fixd_scroll::SpillConfig;
        use fixd_timemachine::PageStore;

        const RING: usize = 4;
        const SPILL_THRESHOLD: usize = 4096;
        let ring = || {
            let mut w = World::new(WorldConfig::seeded(7));
            for _ in 0..RING {
                w.add_process(Box::new(Pump { count: 0 }));
            }
            w
        };

        // Plain supervisor: everything resident, private page store.
        let mut w1 = ring();
        let mut plain = Fixd::new(RING, FixdConfig::seeded(7));
        assert!(plain.supervise(&mut w1, 10_000).quiescent);

        // Storage-backed supervisor: shared page store + scroll spill,
        // supervised a segment at a time as a long-lived deployment is.
        let mut w2 = ring();
        let pages = PageStore::new();
        let disk = SharedDisk::new();
        let mut cfg = FixdConfig::seeded(7);
        cfg.page_store = Some(pages.clone());
        cfg.scroll_spill = Some(SpillConfig::new(disk.clone(), SPILL_THRESHOLD));
        let mut backed = Fixd::new(RING, cfg);
        loop {
            let out = backed.supervise(&mut w2, 64);
            // However long the run, the Scroll's resident entries stay
            // under threshold × width: what lies beyond is on disk.
            assert!(
                backed.scroll().resident_bytes() < SPILL_THRESHOLD * RING,
                "{} B of scroll entries resident after {} steps",
                backed.scroll().resident_bytes(),
                backed.steps()
            );
            if out.quiescent {
                break;
            }
        }
        assert_eq!(backed.steps(), plain.steps());
        assert!(backed.steps() > 2_000, "the token ran its laps");

        // Identical logical scroll, byte for byte, despite spilling.
        for pid in 0..RING as u32 {
            assert_eq!(
                backed.scroll().encode_segment(Pid(pid)),
                plain.scroll().encode_segment(Pid(pid)),
                "spilled scroll must re-read to the identical wire bytes"
            );
        }
        assert!(
            backed.scroll().spilled_segments() > 0,
            "a run this long must have sealed something"
        );
        // Checkpoints were interned into the caller's shared store.
        assert!(pages.unique_bytes() > 0);
        assert_eq!(
            pages.unique_bytes(),
            backed.time_machine().total_checkpoint_bytes()
        );
        // And the two worlds ended in the same state.
        assert_eq!(
            w1.global_snapshot().fingerprint(),
            w2.global_snapshot().fingerprint()
        );
    }

    #[test]
    fn supervise_runs_to_quiescence_when_clean() {
        let mut w = World::new(WorldConfig::seeded(7));
        w.add_process(Box::new(MaxRegV1 { value: 0 }));
        w.add_process(Box::new(MaxRegV1 { value: 0 }));
        // Monitor that never fires.
        let mut fixd = Fixd::new(2, FixdConfig::seeded(7))
            .monitor(Monitor::local::<MaxRegV1>("true", |_, _| true));
        let out = fixd.supervise(&mut w, 10_000);
        assert!(out.quiescent);
        assert!(out.fault.is_none());
        assert_eq!(fixd.steps(), out.steps);
    }
}
