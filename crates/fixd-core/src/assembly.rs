//! Assembling a consistent global checkpoint into an Investigator state.
//!
//! Fig. 4 of the paper: after the fault, each peer replies with *"a local
//! checkpoint of the state of that process, and a model of its behavior
//! (this model does not have to be abstract; it could simply be the
//! implementation of the process itself)"*; the detecting process
//! *"collects these responses to piece together a consistent global
//! checkpoint of the system that is fed to the Investigator"*.
//!
//! In this reproduction the "model of its behavior" is literally the
//! process's [`fixd_runtime::Program`] (cloned), and the consistent
//! checkpoint is the world's [`fixd_runtime::GlobalSnapshot`] after the
//! Time Machine's rollback. This module pairs the two.

use fixd_investigator::WorldState;
use fixd_runtime::{Pid, World};

/// Build an Investigator [`WorldState`] from the current (post-rollback)
/// world: programs are cloned as their own models, and the world's
/// [`World::global_snapshot`] supplies each process's runtime context,
/// its liveness and the channel state.
pub fn assemble_worldstate(world: &World) -> WorldState {
    let programs = (0..world.num_procs())
        .map(|i| world.with_program(Pid(i as u32), |p| p.clone_program()))
        .collect();
    WorldState::from_snapshot(programs, &world.global_snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_investigator::{
        ExploreConfig, ModelAction, ModelD, NetModel, TransitionSystem, WorldModel,
    };
    use fixd_runtime::{Context, Program, WorldConfig};

    #[derive(Clone)]
    struct Hop {
        hops: u64,
    }
    impl Program for Hop {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, vec![6]);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &fixd_runtime::Message) {
            self.hops += 1;
            if msg.payload[0] > 0 {
                let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
                ctx.send(next, 1, vec![msg.payload[0] - 1]);
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.hops.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.hops = u64::from_le_bytes(b.try_into().unwrap());
        }
    }

    #[test]
    fn assembled_state_reflects_world() {
        let mut w = World::new(WorldConfig::seeded(3));
        w.add_process(Box::new(Hop { hops: 0 }));
        w.add_process(Box::new(Hop { hops: 0 }));
        w.run_steps(4); // token bouncing, mail likely in flight
        let s = assemble_worldstate(&w);
        assert_eq!(s.width(), 2);
        // Program state carried over.
        let world_hops = w.program::<Hop>(Pid(1)).unwrap().hops;
        assert_eq!(s.program::<Hop>(Pid(1)).unwrap().hops, world_hops);
        // Channel state carried over.
        assert_eq!(s.mail_count(), w.inflight_messages().len());
        assert!(s.is_started(Pid(0)));
    }

    #[test]
    fn assembled_state_is_explorable() {
        let mut w = World::new(WorldConfig::seeded(3));
        w.add_process(Box::new(Hop { hops: 0 }));
        w.add_process(Box::new(Hop { hops: 0 }));
        w.run_steps(3);
        let s = assemble_worldstate(&w);
        let report = ModelD::from_checkpoint(3, NetModel::reliable(), s)
            .config(ExploreConfig::default())
            .run();
        assert!(report.states >= 1);
        assert!(report.clean());
    }

    #[test]
    fn quiescent_assembly_has_no_mail() {
        let mut w = World::new(WorldConfig::seeded(3));
        w.add_process(Box::new(Hop { hops: 0 }));
        w.add_process(Box::new(Hop { hops: 0 }));
        w.run_to_quiescence(1_000);
        let s = assemble_worldstate(&w);
        assert_eq!(s.mail_count(), 0);
    }

    #[test]
    fn assembled_state_keeps_crashed_processes_crashed() {
        let mut w = World::new(WorldConfig::seeded(3));
        for _ in 0..3 {
            w.add_process(Box::new(Hop { hops: 0 }));
        }
        // Run until the token is on its way to P2, then crash P2.
        while !w.inflight_messages().iter().any(|m| m.dst == Pid(2)) {
            w.step().expect("the token reaches P2's channel");
        }
        w.crash_now(Pid(2));
        let s = assemble_worldstate(&w);
        assert!(s.is_crashed(Pid(2)));
        let m = WorldModel::from_state(3, NetModel::reliable(), s.clone());
        assert!(
            !(m.enabled(&s).iter()).any(|a| matches!(a, ModelAction::Deliver { dst: Pid(2), .. })),
            "a crashed process receives nothing"
        );
    }
}
