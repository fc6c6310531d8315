//! The bench-owned copy of `Fixd::supervise` and `Fixd::diagnose`,
//! built from public calls only, with a span around every call into a
//! layer. End-to-end numbers never come from here — they come from the
//! real entry points with tracing off; a test keeps this copy from
//! drifting from them.
//!
//! The Time Machine is the supervisor's own (`Fixd::time_machine`), so
//! `Fixd::investigate` and `Fixd::heal_update` work on the traced
//! session's history. The Scroll recorder is private to `Fixd`, so the
//! traced session keeps its own and reads counters from it.

use fixd::core::{
    assemble_worldstate, choose_rollback_target, BugReport, DetectedFault, Fixd, FixdConfig,
    Monitor, SuperviseOutcome,
};
use fixd::investigator::system::TransitionSystem;
use fixd::investigator::WorldModel;
use fixd::runtime::{Pid, World};
use fixd::scroll::{RecordConfig, ScrollQuery, ScrollRecorder, ScrollStore};
use fixd::timemachine::recovery::RollbackError;
use fixd::timemachine::RollbackReport;

use crate::trace::{Name, Tracer};

pub struct TracedSession {
    pub fixd: Fixd,
    cfg: FixdConfig,
    monitors: Vec<Monitor>,
    recorder: ScrollRecorder,
    steps: u64,
}

/// What the traced diagnosis saw on the way to its report.
pub struct Diagnosis {
    pub report: BugReport,
    pub rendered: String,
    pub rollback: RollbackReport,
}

impl TracedSession {
    pub fn new(n: usize, cfg: FixdConfig, monitors: Vec<Monitor>, tr: &mut Tracer) -> Self {
        let record = RecordConfig {
            record_drops: cfg.record_drops,
        };
        let recorder = match &cfg.scroll_spill {
            Some(spill) => ScrollRecorder::with_spill(n, record, spill.clone()),
            None => ScrollRecorder::new(n, record),
        };
        let fixd = tr.call(Name::FixdNew, || {
            monitors
                .iter()
                .cloned()
                .fold(Fixd::new(n, cfg.clone()), Fixd::monitor)
        });
        Self {
            fixd,
            cfg,
            monitors,
            recorder,
            steps: 0,
        }
    }

    pub fn scroll(&self) -> &ScrollStore {
        self.recorder.store()
    }

    /// The counters `Fixd::stats` would report for this session.
    #[cfg(test)]
    pub fn stats(&mut self) -> fixd::core::FixdStats {
        fixd::core::FixdStats {
            steps: self.steps,
            scroll_entries: self.recorder.store().total_entries(),
            checkpoints: self.fixd.time_machine().total_checkpoints(),
            checkpoint_bytes: self.fixd.time_machine().total_checkpoint_bytes(),
        }
    }

    /// `Fixd::supervise`, statement for statement.
    pub fn supervise(
        &mut self,
        world: &mut World,
        max_steps: u64,
        tr: &mut Tracer,
    ) -> SuperviseOutcome {
        let done = |steps, fault: Option<DetectedFault>, quiescent| SuperviseOutcome {
            steps,
            fault,
            quiescent,
        };
        let mut steps = 0u64;
        while steps < max_steps {
            let Some(ev) = tr.call(Name::Peek, || world.peek()) else {
                return done(steps, None, true);
            };
            tr.call(Name::TmBefore, || {
                self.fixd.time_machine().before_step(world, &ev)
            });
            let Some(rec) = tr.call(Name::Step, || world.step()) else {
                return done(steps, None, true);
            };
            tr.call(Name::TmAfter, || {
                self.fixd.time_machine().after_step(world, &rec)
            });
            tr.call(Name::Observe, || self.recorder.observe(world, &rec));
            steps += 1;
            self.steps += 1;
            if !self.monitors.is_empty() && self.steps.is_multiple_of(self.cfg.check_every.max(1)) {
                let violated = tr.call(Name::Monitor, || {
                    self.monitors
                        .iter()
                        .find_map(|m| m.violated_in(world).map(|pid| (m.name.clone(), pid)))
                });
                if let Some((monitor, pid)) = violated {
                    let fault = DetectedFault {
                        monitor,
                        pid,
                        at: world.now(),
                        after_steps: self.steps,
                    };
                    return done(steps, Some(fault), false);
                }
            }
        }
        done(steps, None, false)
    }

    /// `Fixd::diagnose` (with `respond` inlined) plus the render.
    pub fn diagnose(
        &mut self,
        world: &mut World,
        fault: DetectedFault,
        tr: &mut Tracer,
    ) -> Result<Diagnosis, RollbackError> {
        let fail = fault.pid.unwrap_or_else(|| {
            let tm = self.fixd.time_machine();
            (0..world.num_procs())
                .map(|i| Pid(i as u32))
                .max_by_key(|&p| tm.interval(p))
                .unwrap_or(Pid(0))
        });
        let target = tr.call(Name::ChooseTarget, || {
            choose_rollback_target(world, self.fixd.time_machine(), &self.monitors, fail)
        });
        let rollback = tr.call(Name::Rollback, || {
            self.fixd.time_machine().rollback(world, fail, target)
        })?;
        let (state, ckpt_fp) = tr.call(Name::Assemble, || {
            let state = assemble_worldstate(world);
            let model = WorldModel::from_state(self.cfg.seed, self.cfg.net_model, state.clone());
            let fp = model.fingerprint(&model.initial());
            (state, fp)
        });
        let explore = tr.call(Name::Investigate, || self.fixd.investigate(state));
        let scroll_excerpt = tr.call(Name::Excerpt, || match fault.pid {
            Some(pid) => ScrollQuery::new(&self.recorder.store().scroll(pid)).render(),
            None => String::new(),
        });
        let report = tr.call(Name::ReportAssemble, || {
            BugReport::assemble(
                fault,
                rollback.line.clone(),
                world.now(),
                &explore,
                world.trace().render_tail(10),
                scroll_excerpt,
                ckpt_fp,
            )
        });
        let rendered = tr.call(Name::ReportRender, || report.render());
        Ok(Diagnosis {
            report,
            rendered,
            rollback,
        })
    }
}
