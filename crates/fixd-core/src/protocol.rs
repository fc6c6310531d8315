//! The fault-response protocol of Fig. 4.
//!
//! "In the event that one process ... detects a fault locally, the
//! process that detected the fault uses the Time Machine component to
//! roll back its state to a recently stored checkpoint and notifies the
//! other processes in the system that an error has occurred. Upon receipt
//! of this notification, each process ... responds with ... a local
//! checkpoint of the state of that process, and a model of its behavior
//! ...; the checkpoint it provides needs to satisfy global consistency
//! properties."
//!
//! In the reproduction the notification round is subsumed by the Time
//! Machine's recovery-line computation (which *is* the consistency
//! agreement), and the replies are gathered by [`crate::assembly`].

use fixd_investigator::WorldState;
use fixd_runtime::{Pid, Program, World};
use fixd_timemachine::{RollbackReport, TimeMachine};

use crate::assembly::assemble_worldstate;
use crate::detector::{DetectedFault, Monitor};

/// The assembled response to a fault.
#[derive(Debug)]
pub struct RespondOutcome {
    /// Checkpoint index the faulty process rolled back to.
    pub target: u64,
    /// Rollback accounting (recovery line, cascade size, replays).
    pub rollback: RollbackReport,
    /// The consistent global checkpoint, ready for the Investigator.
    pub state: WorldState,
}

/// The checkpoint walk shared by the rollback of Fig. 4 and the dynamic
/// update of Fig. 5: the newest live checkpoint of `fail` that `good`
/// accepts, given the restored program and its state bytes. Falls back
/// to checkpoint 0.
pub(crate) fn newest_good_checkpoint(
    world: &World,
    tm: &TimeMachine,
    fail: Pid,
    good: impl Fn(&dyn Program, &[u8]) -> bool,
) -> u64 {
    let store = tm.store(fail);
    let latest = store.latest_index().unwrap_or(0);
    // One scratch program for the whole walk: `restore` overwrites, as
    // it must for `World::restore_checkpoint` on the live program.
    let mut candidate = world.with_program(fail, |p| p.clone_program());
    for idx in (0..=latest).rev() {
        if !store.is_live(idx) {
            continue;
        }
        let Some(ck) = store.get(idx) else { continue };
        let state = ck.ckpt.state.to_bytes();
        candidate.restore(&state);
        if good(candidate.as_ref(), &state) {
            return idx;
        }
    }
    0
}

/// Pick the newest live checkpoint of `fail` whose restored state passes
/// every (local) monitor — "a point in time where the invariant holds"
/// (§3.2). Falls back to checkpoint 0. Stateless: every monitor checks
/// every candidate in full. [`crate::Fixd::respond`] walks the same
/// checkpoints trusting what its supervisor already verified.
pub fn choose_rollback_target(
    world: &World,
    tm: &TimeMachine,
    monitors: &[Monitor],
    fail: Pid,
) -> u64 {
    newest_good_checkpoint(world, tm, fail, |p, _| {
        monitors.iter().all(|m| m.holds_for_program(fail, p))
    })
}

/// Execute the Fig. 4 response: roll back to `target` (computing the
/// consistent recovery line across all processes), then assemble the
/// global checkpoint for investigation.
pub fn respond(
    world: &mut World,
    tm: &mut TimeMachine,
    monitors: &[Monitor],
    fault: &DetectedFault,
) -> Result<RespondOutcome, fixd_timemachine::recovery::RollbackError> {
    respond_with(world, tm, fault, |pid, p| {
        monitors.iter().all(|m| m.holds_for_program(pid, p))
    })
}

/// [`respond`], with `holds(pid, program)` saying whether a restored
/// program passes the monitors.
pub(crate) fn respond_with(
    world: &mut World,
    tm: &mut TimeMachine,
    fault: &DetectedFault,
    holds: impl Fn(Pid, &dyn Program) -> bool,
) -> Result<RespondOutcome, fixd_timemachine::recovery::RollbackError> {
    // Global monitors without an implicated process: blame the process
    // with the most recent activity (highest checkpoint interval) — its
    // last receive is the likeliest trigger.
    let fail = fault.pid.unwrap_or_else(|| {
        (0..world.num_procs())
            .map(|i| Pid(i as u32))
            .max_by_key(|&p| tm.interval(p))
            .unwrap_or(Pid(0))
    });
    let target = newest_good_checkpoint(world, tm, fail, |p, _| holds(fail, p));
    let rollback = tm.rollback(world, fail, target)?;
    let state = assemble_worldstate(world);
    Ok(RespondOutcome {
        target,
        rollback,
        state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Context, Program, WorldConfig};
    use fixd_timemachine::{CheckpointPolicy, TimeMachineConfig};

    /// Accumulator that goes "bad" once its sum exceeds a threshold.
    #[derive(Clone)]
    struct Acc {
        sum: u64,
    }
    impl Program for Acc {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                for v in [2u8, 3, 50, 1] {
                    ctx.send(Pid(1), 1, vec![v]);
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Context, msg: &fixd_runtime::Message) {
            self.sum += u64::from(msg.payload[0]);
        }
        fn snapshot(&self) -> Vec<u8> {
            self.sum.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.sum = u64::from_le_bytes(b.try_into().unwrap());
        }
    }

    fn setup() -> (World, TimeMachine, Vec<Monitor>) {
        let mut w = World::new(WorldConfig::seeded(5));
        w.add_process(Box::new(Acc { sum: 0 }));
        w.add_process(Box::new(Acc { sum: 0 }));
        let tm = TimeMachine::new(
            2,
            TimeMachineConfig {
                policy: CheckpointPolicy::EveryReceive,
                ..Default::default()
            },
        );
        let monitors = vec![Monitor::local::<Acc>("sum<=10", |_, a| a.sum <= 10)];
        (w, tm, monitors)
    }

    #[test]
    fn target_is_newest_good_checkpoint() {
        let (mut w, mut tm, monitors) = setup();
        tm.run(&mut w, 10_000);
        // Sum trajectory at P1: 0, 2, 5, 55, 56 — checkpoints before each
        // receive hold 0,2,5,55. Newest passing (<=10) is the one holding 5.
        let target = choose_rollback_target(&w, &tm, &monitors, Pid(1));
        let ck = tm.store(Pid(1)).get(target).unwrap();
        let sum = u64::from_le_bytes(ck.ckpt.state.to_bytes().try_into().unwrap());
        assert_eq!(sum, 5);
    }

    #[test]
    fn respond_restores_good_state_and_assembles() {
        let (mut w, mut tm, monitors) = setup();
        tm.run(&mut w, 10_000);
        let fault = DetectedFault {
            monitor: monitors[0].name.clone(),
            pid: monitors[0].violated_in(&w).expect("fault manifest"),
            at: w.now(),
            after_steps: 0,
        };
        assert_eq!(fault.pid, Some(Pid(1)));
        let out = respond(&mut w, &mut tm, &monitors, &fault).unwrap();
        // Restored world passes the monitor again.
        assert!(monitors[0].violated_in(&w).is_none());
        // The assembled state carries the restored sum and the replayed
        // mail (the offending message is back in flight, to be
        // investigated/processed under new code).
        assert_eq!(out.state.program::<Acc>(Pid(1)).unwrap().sum, 5);
        assert!(
            out.state.mail_count() >= 1,
            "undone receives back in flight"
        );
        assert!(out.rollback.procs_rolled >= 1);
    }

    #[test]
    fn hopeless_process_falls_back_to_zero() {
        let (mut w, mut tm, _) = setup();
        tm.run(&mut w, 10_000);
        // A monitor nothing satisfies.
        let impossible = vec![Monitor::local::<Acc>("never", |_, _| false)];
        let target = choose_rollback_target(&w, &tm, &impossible, Pid(1));
        assert_eq!(target, 0);
    }
}
