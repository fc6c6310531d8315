//! [`SoloHarness`] — drive one program's handlers outside a [`crate::World`].
//!
//! This is the execution vehicle for *local playback* (paper §2.2): replay
//! a single process from its Scroll, treating every remote entity as a
//! black box defined only by the recorded interaction. The Investigator
//! also uses it to execute handler steps on cloned program states, once
//! per explored transition. The harness is the world's own handler
//! function (`ProcContext::run_handler`) over a [`ProcContext`] it
//! holds itself.

use std::cell::RefCell;

use crate::arena::StepArena;
use crate::clock::VectorClock;
use crate::event::{Effects, Message, TimerId};
use crate::procs::{Handler, ProcContext};
use crate::program::Program;
use crate::world::ProcCheckpoint;
use crate::{Pid, VTime};

thread_local! {
    /// The pools every [`SoloHarness`] handler run on this thread draws
    /// its [`crate::Context`] from: the draw buffer, and the effects body
    /// that [`SoloHarness::recycle`] hands back.
    // INVARIANT: borrowed for exactly one handler run, so a handler must
    // not itself drive a `SoloHarness` (the nested borrow would panic).
    // No handler does: a `Program` sees only its `Context`.
    static ARENA: RefCell<StepArena> = const { RefCell::new(StepArena::new()) };
}

/// Standalone handler driver for a single process.
///
/// A handler runs here through the world's own handler function, on the
/// same [`ProcContext`] a world keeps per process, so a harness started
/// fresh with the world's seed — or resumed from one of the world's
/// [`ProcCheckpoint`]s — produces the [`Effects`] the world produced at
/// the same point, ids included.
#[derive(Clone, Debug)]
pub struct SoloHarness {
    pid: Pid,
    width: usize,
    now: VTime,
    ctx: ProcContext,
}

impl SoloHarness {
    /// A harness for process `pid` of a `width`-process system, with the
    /// process RNG stream derived from `seed` exactly as a world would.
    pub fn new(pid: Pid, width: usize, seed: u64) -> Self {
        Self {
            pid,
            width,
            now: 0,
            ctx: ProcContext::new(seed, pid),
        }
    }

    /// A harness that resumes the checkpointed process of a
    /// `width`-process system where the world left it: its whole
    /// context, at the checkpoint's virtual time. The program is the
    /// caller's, restored from `ck.state` or cloned from the world.
    pub fn resume(ck: &ProcCheckpoint, width: usize) -> Self {
        Self {
            pid: ck.pid,
            width,
            now: ck.taken_at,
            ctx: ck.ctx.clone(),
        }
    }

    /// Set the virtual time the next handler will observe.
    pub fn set_now(&mut self, now: VTime) {
        self.now = now;
    }

    /// The simulated process's runtime context.
    pub fn context(&self) -> &ProcContext {
        &self.ctx
    }

    /// Put back the vector clock the next handler starts from, given the
    /// clock it left behind (`after`) and how many times it ticks its own
    /// component (`ticks`: one per send, plus one for a start or a
    /// delivery). The clock becomes `after` with this pid's component
    /// lowered by `ticks`, copied into the context's own buffer where it
    /// can be (no new shared buffer a step). A delivered message's clock
    /// is no later than the receiver's after the delivery, so the merge
    /// then adds nothing and the handler ends at exactly `after` — also
    /// when the message, decoded from a Scroll, holds only its sender's
    /// own component instead of the sender's whole clock.
    pub fn restore_clock(&mut self, after: &VectorClock, ticks: u64) {
        self.ctx.vc.clone_from(after);
        self.ctx.vc.untick(self.pid, ticks);
    }

    fn run(&mut self, program: &mut dyn Program, h: Handler) -> Effects {
        ARENA.with_borrow_mut(|arena| {
            self.ctx
                .run_handler(self.pid, program, h, self.now, self.width, arena)
        })
    }

    /// Hand an effects body a handler run returned back to this thread's
    /// arena, so that a later run reuses its vectors. Drain what you keep
    /// first: any send still held only here is pooled with it.
    pub fn recycle(effects: Effects) {
        ARENA.with_borrow_mut(|arena| arena.recycle_effects(effects));
    }

    /// Run `on_start`.
    pub fn start(&mut self, program: &mut dyn Program) -> Effects {
        self.run(program, Handler::Start)
    }

    /// Deliver `msg` (the receive clock rules, then `on_message`).
    pub fn deliver(&mut self, program: &mut dyn Program, msg: &Message) -> Effects {
        self.run(program, Handler::Deliver(msg))
    }

    /// Fire timer `t`.
    pub fn timer(&mut self, program: &mut dyn Program, t: TimerId) -> Effects {
        self.run(program, Handler::Timer(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig};
    use crate::Context;

    #[derive(Clone)]
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
        for m in w.trace().records().filter_map(|r| match &r.event.kind {
            crate::event::EventKind::Deliver { msg } if msg.dst == Pid(1) => Some(msg.clone()),
            _ => None,
        }) {
            h.deliver(&mut p, &m);
        }
        assert_eq!(h.context().vc, wc.ctx.vc);
    }
}
