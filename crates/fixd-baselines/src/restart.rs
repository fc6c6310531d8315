//! Classic restart recovery: kill everything, start over.
//!
//! §3.4: "One option is for the new version of the program that contains
//! the corrected code to be restarted from the beginning. This is the
//! simplest option and is the one that is used classically after a
//! system failure." This baseline is what experiment F5 measures
//! update-from-checkpoint against.

use fixd_runtime::{Pid, Program, World};

/// What a whole-system restart cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestartReport {
    /// Processes reset.
    pub procs_reset: usize,
    /// Messages in flight that were thrown away.
    pub msgs_discarded: usize,
    /// Pending timers thrown away.
    pub timers_discarded: usize,
}

/// Restart every process from scratch on (possibly new) code: replace
/// all programs with `factory()` output, clear the network, schedule
/// fresh starts. All completed computation is discarded.
pub fn restart_all(
    world: &mut World,
    factory: impl Fn() -> Vec<Box<dyn Program>>,
) -> RestartReport {
    let fresh = factory();
    assert_eq!(
        fresh.len(),
        world.num_procs(),
        "factory must produce one program per process"
    );
    let snap = world.global_snapshot();
    let (msgs, timers) = (snap.inflight.len(), snap.timers.len());
    world.purge_events(|k| {
        matches!(
            k,
            fixd_runtime::EventKind::Deliver { .. } | fixd_runtime::EventKind::TimerFire { .. }
        )
    });
    let n = fresh.len();
    for (i, prog) in fresh.into_iter().enumerate() {
        let pid = Pid(i as u32);
        world.replace_program(pid, prog);
        world.revive(pid);
        world.schedule_start(pid);
    }
    RestartReport {
        procs_reset: n,
        msgs_discarded: msgs,
        timers_discarded: timers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Context, WorldConfig};

    #[derive(Clone)]
    struct Work {
        done: u64,
    }
    impl Program for Work {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                for _ in 0..6 {
                    ctx.send(Pid(1), 1, vec![]);
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Context, _m: &fixd_runtime::Message) {
            self.done += 1;
        }
        fn snapshot(&self) -> Vec<u8> {
            self.done.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.done = u64::from_le_bytes(b.try_into().unwrap());
        }
    }

    fn factory() -> Vec<Box<dyn Program>> {
        vec![
            Box::new(Work { done: 0 }) as Box<dyn Program>,
            Box::new(Work { done: 0 }),
        ]
    }

    #[test]
    fn restart_discards_everything_and_reruns() {
        let mut w = World::new(WorldConfig::seeded(4));
        for p in factory() {
            w.add_process(p);
        }
        w.run_steps(5); // partway: some mail consumed, some in flight
        let inflight_before = w.inflight_messages().len();
        assert!(inflight_before > 0);
        let report = restart_all(&mut w, factory);
        assert_eq!(report.procs_reset, 2);
        assert_eq!(report.msgs_discarded, inflight_before);
        assert_eq!(w.program::<Work>(Pid(1)).unwrap().done, 0, "progress gone");
        // The rerun completes the protocol from scratch.
        w.run_to_quiescence(1_000);
        assert_eq!(w.program::<Work>(Pid(1)).unwrap().done, 6);
    }

    #[test]
    fn restart_revives_crashed_processes() {
        let mut w = World::new(WorldConfig::seeded(4));
        for p in factory() {
            w.add_process(p);
        }
        w.run_steps(3);
        w.crash_now(Pid(1));
        restart_all(&mut w, factory);
        assert_eq!(w.status(Pid(1)), fixd_runtime::ProcStatus::Running);
        w.run_to_quiescence(1_000);
        assert_eq!(w.program::<Work>(Pid(1)).unwrap().done, 6);
    }
}
