//! The Healer: apply a fix to a running distributed application.
//!
//! Implements both recovery options of §3.4 (Fig. 5):
//!
//! * [`Healer::restart_from_scratch`] — install the new code everywhere
//!   and restart from initial state, discarding all computation;
//! * [`Healer::update_from_checkpoint`] — roll back (with the Time
//!   Machine) to a checkpoint "where all invariants are satisfied",
//!   migrate the restored states across the version boundary, swap the
//!   code in place, and resume — salvaging the checkpointed computation.
//!
//! The second path verifies safety before committing: the invariants
//! must hold on the restored line and the patch precondition must accept
//! every restored state. On refusal the Healer reports why,
//! and the caller can roll back deeper or fall back to restart — the
//! paper's "restarting the program from scratch could be the only
//! option".

use fixd_runtime::{Pid, World};
use fixd_timemachine::{RollbackReport, TimeMachine};

use crate::patch::Patch;
use crate::registry::VersionRegistry;

/// Which §3.4 recovery option was used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryStrategy {
    RestartFromScratch,
    UpdateFromCheckpoint,
}

/// What a healing operation did.
#[derive(Clone, Debug)]
pub struct HealReport {
    pub strategy: RecoveryStrategy,
    /// Processes now running the new version.
    pub procs_updated: Vec<Pid>,
    /// Handler events preserved (not rolled back, not discarded) across
    /// all updated processes — the salvaged computation of §3.4.
    pub salvaged_events: u64,
    /// Handler events discarded (rolled back or reset).
    pub discarded_events: u64,
    /// Rollback details (update-from-checkpoint only).
    pub rollback: Option<RollbackReport>,
}

/// Why a healing operation refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HealError {
    /// The Time Machine could not restore the requested line.
    Rollback(fixd_timemachine::recovery::RollbackError),
    /// The patch precondition rejected the restored state of this process.
    PreconditionFailed(Pid),
    /// The state migration failed for this process.
    Migration(Pid, crate::migrate::MigrateError),
    /// The update point is unsafe: the invariants do not hold on the
    /// restored line (reported against the first target).
    UnsafeUpdatePoint(Pid),
}

impl std::fmt::Display for HealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealError::Rollback(e) => write!(f, "rollback failed: {e}"),
            HealError::PreconditionFailed(p) => write!(f, "{p}: patch precondition failed"),
            HealError::Migration(p, e) => write!(f, "{p}: migration failed: {e}"),
            HealError::UnsafeUpdatePoint(p) => {
                write!(f, "{p}: unsafe update point: invariants do not hold")
            }
        }
    }
}

impl std::error::Error for HealError {}

/// The Healer. Owns the version registry; borrows the world and Time
/// Machine per operation.
#[derive(Debug, Default)]
pub struct Healer {
    registry: VersionRegistry,
}

impl Healer {
    /// A Healer with an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The version registry.
    pub fn registry(&self) -> &VersionRegistry {
        &self.registry
    }

    /// Option 1 (§3.4): restart `pids` from scratch on the new code.
    /// All their computation is discarded; `tm` is consulted only for the
    /// discarded-event accounting.
    pub fn restart_from_scratch(
        &mut self,
        world: &mut World,
        tm: &TimeMachine,
        patch: &Patch,
        pids: &[Pid],
    ) -> HealReport {
        let mut discarded = 0;
        // A restarted process's past is discarded wholesale: stale mail
        // and timers addressed to it must not leak into the fresh run.
        let targets = pids.to_vec();
        world.purge_events(move |k| match k {
            fixd_runtime::EventKind::Deliver { msg } => targets.contains(&msg.dst),
            fixd_runtime::EventKind::TimerFire { pid, .. } => targets.contains(pid),
            _ => false,
        });
        for &pid in pids {
            discarded += tm.events_handled(pid);
            let fresh = (patch.factory)();
            world.replace_program(pid, fresh);
            world.revive(pid);
            world.schedule_start(pid);
            self.registry.set_version(pid, patch.to_version);
        }
        HealReport {
            strategy: RecoveryStrategy::RestartFromScratch,
            procs_updated: pids.to_vec(),
            salvaged_events: 0,
            discarded_events: discarded,
            rollback: None,
        }
    }

    /// Option 2 (§3.4): roll back to a consistent checkpoint where the
    /// invariants hold and dynamically update every process that rolled
    /// back, resuming from the salvaged state.
    ///
    /// * `fail` / `target` — the failed process and the checkpoint to
    ///   restore (typically chosen by the FixD detector: the newest
    ///   checkpoint where `invariants_hold`);
    /// * `patch` — applied to every process on the recovery line (and to
    ///   `also_update` even if they did not roll back);
    /// * `invariants_hold` — evaluated on the restored world before the
    ///   code swap commits.
    #[allow(clippy::too_many_arguments)]
    pub fn update_from_checkpoint(
        &mut self,
        world: &mut World,
        tm: &mut TimeMachine,
        fail: Pid,
        target: u64,
        patch: &Patch,
        also_update: &[Pid],
        invariants_hold: impl Fn(&World) -> bool,
    ) -> Result<HealReport, HealError> {
        // 1. Roll back to a consistent line.
        let rollback = tm
            .rollback(world, fail, target)
            .map_err(HealError::Rollback)?;
        // 2. Determine who gets the new code: rolled-back + requested.
        let mut targets: Vec<Pid> = rollback
            .line
            .iter()
            .enumerate()
            .filter(|(_, &l)| l != fixd_timemachine::NO_ROLLBACK)
            .map(|(i, _)| Pid(i as u32))
            .collect();
        for &p in also_update {
            if !targets.contains(&p) {
                targets.push(p);
            }
        }
        // 3. Safety: invariants must hold on the restored line. Channel
        //    quiescence is deliberately NOT required: the rollback itself
        //    re-injects the undone inputs, and processing those under the
        //    new code is precisely the point of the update.
        if let Some(&first) = targets.first() {
            if !invariants_hold(world) {
                return Err(HealError::UnsafeUpdatePoint(first));
            }
        }
        // 4. Migrate and swap, all-or-nothing: validate first.
        let mut staged = Vec::with_capacity(targets.len());
        for &pid in &targets {
            let old_state = world.checkpoint_process(pid).state.into_bytes();
            if !patch.applicable_to(&old_state) {
                return Err(HealError::PreconditionFailed(pid));
            }
            let new_prog = patch
                .instantiate(&old_state)
                .map_err(|e| HealError::Migration(pid, e))?;
            staged.push((pid, new_prog));
        }
        let mut salvaged = 0;
        for (pid, prog) in staged {
            world.replace_program(pid, prog);
            salvaged += tm.events_handled(pid);
            self.registry.set_version(pid, patch.to_version);
        }
        Ok(HealReport {
            strategy: RecoveryStrategy::UpdateFromCheckpoint,
            procs_updated: targets,
            salvaged_events: salvaged,
            discarded_events: rollback.events_undone,
            rollback: Some(rollback),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migrate;
    use fixd_runtime::{Context, Message, Program, WorldConfig};
    use fixd_timemachine::{CheckpointPolicy, TimeMachineConfig};

    /// v1 accumulator with a bug: it also counts tag-9 "poison" messages.
    #[derive(Clone)]
    struct SumV1 {
        sum: u64,
    }
    impl Program for SumV1 {
        fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
            // BUG: should ignore tag 9.
            self.sum += u64::from(msg.payload[0]);
            let _ = msg.tag;
        }
        fn snapshot(&self) -> Vec<u8> {
            self.sum.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.sum = u64::from_le_bytes(b.try_into().unwrap());
        }
    }

    /// v2: fixed (ignores tag 9) and tracks how many it ignored.
    #[derive(Clone)]
    struct SumV2 {
        sum: u64,
        ignored: u64,
    }
    impl Program for SumV2 {
        fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
            if msg.tag == 9 {
                self.ignored += 1;
            } else {
                self.sum += u64::from(msg.payload[0]);
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut b = self.sum.to_le_bytes().to_vec();
            b.extend_from_slice(&self.ignored.to_le_bytes());
            b
        }
        fn restore(&mut self, b: &[u8]) {
            self.sum = u64::from_le_bytes(b[0..8].try_into().unwrap());
            self.ignored = u64::from_le_bytes(b[8..16].try_into().unwrap());
        }
    }

    /// Driver process that feeds P1 values then a poison message.
    #[derive(Clone)]
    struct Feeder;
    impl Program for Feeder {
        fn on_start(&mut self, ctx: &mut Context) {
            for v in [3u8, 4, 5] {
                ctx.send(Pid(1), 1, vec![v]);
            }
            ctx.send(Pid(1), 9, vec![100]); // poison
        }
        fn snapshot(&self) -> Vec<u8> {
            vec![]
        }
        fn restore(&mut self, _b: &[u8]) {}
    }

    fn setup() -> (World, TimeMachine, Healer) {
        let mut w = World::new(WorldConfig::seeded(17));
        w.add_process(Box::new(Feeder));
        w.add_process(Box::new(SumV1 { sum: 0 }));
        let tm = TimeMachine::new(
            2,
            TimeMachineConfig {
                policy: CheckpointPolicy::EveryReceive,
                ..Default::default()
            },
        );
        (w, tm, Healer::new())
    }

    fn v1_to_v2_patch() -> Patch {
        Patch::code_only("ignore-poison", 1, 2, || {
            Box::new(SumV2 { sum: 0, ignored: 0 })
        })
        .with_migration(migrate::append(0u64.to_le_bytes().to_vec()))
        .with_precondition(|old| old.len() == 8)
    }

    #[test]
    fn update_from_checkpoint_salvages_work() {
        let (mut w, mut tm, mut healer) = setup();
        tm.run(&mut w, 10_000);
        // Bug manifested: poison counted.
        assert_eq!(w.program::<SumV1>(Pid(1)).unwrap().sum, 3 + 4 + 5 + 100);
        // Detector decides: roll P1 back one receive (before the poison),
        // then apply the fixed code.
        let target = tm.interval(Pid(1)) - 1;
        let patch = v1_to_v2_patch();
        let report = healer
            .update_from_checkpoint(&mut w, &mut tm, Pid(1), target, &patch, &[], |_| true)
            .unwrap();
        assert_eq!(report.strategy, RecoveryStrategy::UpdateFromCheckpoint);
        assert!(report.procs_updated.contains(&Pid(1)));
        assert!(report.salvaged_events > 0, "pre-poison work kept");
        assert_eq!(healer.registry().version_of(Pid(1)), 2);
        // Resume: the poison message is replayed to the NEW code.
        tm.run(&mut w, 10_000);
        let v2 = w.program::<SumV2>(Pid(1)).unwrap();
        assert_eq!(v2.sum, 3 + 4 + 5, "fixed code ignores the poison");
        assert_eq!(v2.ignored, 1);
    }

    #[test]
    fn restart_from_scratch_discards_everything() {
        let (mut w, mut tm, mut healer) = setup();
        tm.run(&mut w, 10_000);
        let patch = v1_to_v2_patch();
        let report = healer.restart_from_scratch(&mut w, &tm, &patch, &[Pid(1)]);
        assert_eq!(report.strategy, RecoveryStrategy::RestartFromScratch);
        assert_eq!(report.salvaged_events, 0);
        assert!(report.discarded_events > 0);
        let v2 = w.program::<SumV2>(Pid(1)).unwrap();
        assert_eq!(v2.sum, 0, "fresh state");
    }

    #[test]
    fn precondition_failure_refuses_update() {
        let (mut w, mut tm, mut healer) = setup();
        tm.run(&mut w, 10_000);
        let target = tm.interval(Pid(1)) - 1;
        let patch = v1_to_v2_patch().with_precondition(|_| false);
        let err = healer
            .update_from_checkpoint(&mut w, &mut tm, Pid(1), target, &patch, &[], |_| true)
            .unwrap_err();
        assert!(matches!(err, HealError::PreconditionFailed(p) if p == Pid(1)));
    }

    #[test]
    fn failed_invariants_refuse_update() {
        let (mut w, mut tm, mut healer) = setup();
        tm.run(&mut w, 10_000);
        let target = tm.interval(Pid(1)) - 1;
        let patch = v1_to_v2_patch();
        let err = healer
            .update_from_checkpoint(&mut w, &mut tm, Pid(1), target, &patch, &[], |_| false)
            .unwrap_err();
        assert_eq!(err, HealError::UnsafeUpdatePoint(Pid(1)));
        assert_eq!(
            err.to_string(),
            format!("{}: unsafe update point: invariants do not hold", Pid(1))
        );
    }

    #[test]
    fn bad_rollback_target_propagates() {
        let (mut w, mut tm, mut healer) = setup();
        tm.run(&mut w, 10_000);
        let patch = v1_to_v2_patch();
        let err = healer
            .update_from_checkpoint(&mut w, &mut tm, Pid(1), 10_000, &patch, &[], |_| true)
            .unwrap_err();
        assert!(matches!(err, HealError::Rollback(_)));
    }
}
