//! [`SoloHarness`] — drive one program's handlers outside a [`crate::World`].
//!
//! This is the execution vehicle for *local playback* (paper §2.2): replay
//! a single process from its Scroll, treating every remote entity as a
//! black box defined only by the recorded interaction. The Investigator
//! also uses it to execute handler steps on cloned program states, once
//! per explored transition.

use std::cell::RefCell;

use crate::arena::StepArena;
use crate::clock::VectorClock;
use crate::event::{Effects, Message, MsgMeta, TimerId};
use crate::program::{Context, Program};
use crate::rng::DetRng;
use crate::{Pid, VTime};

thread_local! {
    /// The pools every [`SoloHarness`] handler run on this thread draws
    /// its [`Context`] from: the draw buffer, and the effects body that
    /// [`SoloHarness::recycle`] hands back.
    // INVARIANT: borrowed for exactly one handler run, so a handler must
    // not itself drive a `SoloHarness` (the nested borrow would panic).
    // No handler does: a `Program` sees only its `Context`.
    static ARENA: RefCell<StepArena> = const { RefCell::new(StepArena::new()) };
}

/// Standalone handler driver for a single process.
///
/// Mirrors exactly the per-process context a [`crate::World`] maintains
/// (vector clock, Lamport clock, RNG stream, id counters), so a handler
/// run under the harness produces byte-identical [`Effects`] to the same
/// handler run inside a world at the same point — the property replay
/// fidelity checks rely on.
#[derive(Clone, Debug)]
pub struct SoloHarness {
    pid: Pid,
    width: usize,
    now: VTime,
    vc: VectorClock,
    lamport: u64,
    rng: DetRng,
    next_msg_id: u64,
    next_timer_id: u64,
    meta: MsgMeta,
}

impl SoloHarness {
    /// A harness for process `pid` of a `width`-process system, with the
    /// process RNG stream derived from `seed` exactly as a world would.
    pub fn new(pid: Pid, width: usize, seed: u64) -> Self {
        Self {
            pid,
            width,
            now: 0,
            vc: VectorClock::new(width),
            lamport: 0,
            rng: DetRng::derive(seed, u64::from(pid.0)),
            next_msg_id: 1,
            next_timer_id: 1,
            meta: MsgMeta::default(),
        }
    }

    /// Set the virtual time the next handler will observe.
    pub fn set_now(&mut self, now: VTime) {
        self.now = now;
    }

    /// Current vector clock of the simulated process.
    pub fn vc(&self) -> &VectorClock {
        &self.vc
    }

    /// Restore harness clocks/RNG from a checkpoint-like tuple (used when
    /// replay starts mid-run from a Time Machine checkpoint).
    pub fn restore_context(&mut self, vc: VectorClock, lamport: u64, rng: DetRng) {
        self.vc = vc;
        self.lamport = lamport;
        self.rng = rng;
    }

    fn run(
        &mut self,
        program: &mut dyn Program,
        call: impl FnOnce(&mut dyn Program, &mut Context),
    ) -> Effects {
        ARENA.with_borrow_mut(|arena| {
            let mut ctx = Context::new(
                self.pid,
                self.now,
                self.width,
                &mut self.rng,
                &mut self.vc,
                &mut self.lamport,
                &mut self.next_msg_id,
                &mut self.next_timer_id,
                self.meta,
                arena,
            );
            call(program, &mut ctx);
            ctx.into_effects()
        })
    }

    /// Hand an effects body a handler run returned back to this thread's
    /// arena, so that a later run reuses its vectors. Drain what you keep
    /// first: any send still held only here is pooled with it.
    pub fn recycle(effects: Effects) {
        ARENA.with_borrow_mut(|arena| arena.recycle_effects(effects));
    }

    /// Run `on_start` (ticks clocks exactly like a world does).
    pub fn start(&mut self, program: &mut dyn Program) -> Effects {
        self.vc.tick(self.pid);
        self.lamport += 1;
        self.run(program, |p, ctx| p.on_start(ctx))
    }

    /// Deliver `msg` (applies the receive clock rules, then runs
    /// `on_message`).
    pub fn deliver(&mut self, program: &mut dyn Program, msg: &Message) -> Effects {
        self.vc.tick(self.pid);
        self.vc.merge(&msg.vc);
        self.lamport = self.lamport.max(msg.meta.lamport) + 1;
        self.run(program, |p, ctx| p.on_message(ctx, msg))
    }

    /// Fire timer `t`.
    pub fn timer(&mut self, program: &mut dyn Program, t: TimerId) -> Effects {
        self.run(program, |p, ctx| p.on_timer(ctx, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};

    struct Counter {
        n: u64,
    }
    impl Program for Counter {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 1, vec![1]);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
            self.n += u64::from(msg.payload[0]);
            ctx.output(self.n.to_le_bytes().to_vec());
        }
        fn snapshot(&self) -> Vec<u8> {
            self.n.to_le_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) {
            self.n = u64::from_le_bytes(b.try_into().unwrap());
        }
        fn clone_program(&self) -> Box<dyn Program> {
            Box::new(Counter { n: self.n })
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn harness_matches_world_execution() {
        // Run in a world.
        let seed = 77;
        let mut w = World::new(WorldConfig::seeded(seed));
        w.add_process(Box::new(Counter { n: 0 }));
        w.add_process(Box::new(Counter { n: 0 }));
        w.run_to_quiescence(100);
        let world_state = w.checkpoint_process(Pid(1)).state;

        // Re-run P1 alone under the harness, feeding the same message.
        let mut h = SoloHarness::new(Pid(1), 2, seed);
        let mut p = Counter { n: 0 };
        h.start(&mut p);
        let msgs: Vec<crate::event::SharedMessage> = w
            .trace()
            .records()
            .iter()
            .filter_map(|r| match &r.event.kind {
                crate::event::EventKind::Deliver { msg } if msg.dst == Pid(1) => Some(msg.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(msgs.len(), 1);
        let eff = h.deliver(&mut p, &msgs[0]);
        assert_eq!(p.snapshot(), world_state, "replayed state matches");
        assert_eq!(eff.outputs.len(), 1);
    }

    #[test]
    fn harness_clock_rules_match_world() {
        let seed = 5;
        let mut w = World::new(WorldConfig::seeded(seed));
        w.add_process(Box::new(Counter { n: 0 }));
        w.add_process(Box::new(Counter { n: 0 }));
        w.run_to_quiescence(100);
        let wc = w.checkpoint_process(Pid(1));

        let mut h = SoloHarness::new(Pid(1), 2, seed);
        let mut p = Counter { n: 0 };
        h.start(&mut p);
        for m in w
            .trace()
            .records()
            .iter()
            .filter_map(|r| match &r.event.kind {
                crate::event::EventKind::Deliver { msg } if msg.dst == Pid(1) => Some(msg.clone()),
                _ => None,
            })
        {
            h.deliver(&mut p, &m);
        }
        assert_eq!(h.vc(), &wc.vc);
    }
}
