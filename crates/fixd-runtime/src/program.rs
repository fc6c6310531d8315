//! The [`Program`] trait — a distributed application process as a real
//! Rust state machine — and the [`Context`] handed to its handlers.
//!
//! The paper's central requirement (§4.3) is that FixD's tools operate on
//! *actual implementations*, not abstract models. `Program` is that actual
//! implementation: the same object is executed by the production runtime
//! ([`crate::World`]), recorded by the Scroll, checkpointed by the Time
//! Machine (via [`Program::snapshot`]/[`Program::restore`]), and explored
//! by the Investigator (via [`Program::clone_program`]).

use crate::arena::StepArena;
use crate::clock::VectorClock;
use crate::event::{Effects, Message, MsgMeta, TimerId};
use crate::procs::ProcContext;
use crate::{Pid, VTime};

/// A process of a distributed application.
///
/// Handlers are atomic: the runtime delivers one event, the handler runs to
/// completion, and its [`Effects`] are applied afterwards. All
/// nondeterminism available to a handler flows through [`Context`].
///
/// State snapshots are opaque byte images. They must be *complete*: after
/// `restore(snapshot())` the program must behave identically. This is what
/// makes checkpoint/rollback (§3.2) and model-checking state hashing (§4.3)
/// possible without language-level reflection.
///
/// `Send + Sync` bounds: programs are plain data state machines (all
/// mutation flows through `&mut self` handlers), and the Investigator
/// shares read-only global states across exploration worker threads.
pub trait Program: Send + Sync {
    /// Called once when the process starts (or is restarted from scratch).
    fn on_start(&mut self, _ctx: &mut Context) {}

    /// Called for each delivered message.
    fn on_message(&mut self, _ctx: &mut Context, _msg: &Message) {}

    /// Called when a timer set by this process fires.
    fn on_timer(&mut self, _ctx: &mut Context, _timer: TimerId) {}

    /// Complete, deterministic byte image of the process state, in a
    /// fresh `Vec`. How the bytes are stored — inline, or paged into a
    /// content-addressed store against the previous checkpoint — is the
    /// checkpointing layer's decision
    /// ([`crate::World::checkpoint_process_in`]), not the program's.
    fn snapshot(&self) -> Vec<u8>;

    /// Append the bytes of [`Program::snapshot`] to `out`. The Time
    /// Machine's checkpoints and the Investigator's state hashes snapshot
    /// through this, into a buffer they reuse, so a program that writes
    /// its image here directly allocates nothing per checkpoint. The
    /// default copies a fresh [`Program::snapshot`]; a program that
    /// overrides this usually defines `snapshot` as `snapshot_to` into an
    /// empty `Vec`, so the two cannot drift.
    fn snapshot_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.snapshot());
    }

    /// Restore from a byte image produced by [`Program::snapshot`].
    fn restore(&mut self, bytes: &[u8]);

    /// Clone the process (state included) for branching exploration.
    fn clone_program(&self) -> Box<dyn Program>;

    /// Downcasting support so invariants and tests can inspect typed state.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Human-readable name for traces and reports.
    fn name(&self) -> &'static str {
        "program"
    }
}

/// The capability surface a handler sees. Buffers all effects; the world
/// applies them after the handler returns (so a crashing handler cannot
/// leave half-applied network state behind).
pub struct Context<'a> {
    pid: Pid,
    now: VTime,
    world_width: usize,
    /// The process's clocks, RNG stream, id counters and meta template;
    /// the handler only reads the template.
    proc: &'a mut ProcContext,
    /// The world's recycling pools: message boxes for `send`, the
    /// effects body, and the draw buffer all come from here.
    arena: &'a mut StepArena,
    /// Collected effects of this handler run.
    pub(crate) effects: Effects,
    /// Draws accumulate here (a unique arena shell) and are sealed into
    /// the shared `effects.randoms` once, in [`Context::into_effects`] —
    /// a handler that draws nothing allocates nothing, and the shell of
    /// one that does is recycled when its record is evicted.
    randoms: std::sync::Arc<Vec<u64>>,
}

impl<'a> Context<'a> {
    pub(crate) fn new(
        pid: Pid,
        now: VTime,
        world_width: usize,
        proc: &'a mut ProcContext,
        arena: &'a mut StepArena,
    ) -> Self {
        let effects = arena.make_effects();
        let randoms = arena.make_randoms();
        Self {
            pid,
            now,
            world_width,
            proc,
            arena,
            effects,
            randoms,
        }
    }

    /// This process's id.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Number of processes in the world (useful for broadcast loops).
    #[inline]
    pub fn world_size(&self) -> usize {
        self.world_width
    }

    /// Send a message. The message is stamped with a fresh id, the sender's
    /// vector clock (ticked), Lamport timestamp, and the Time-Machine
    /// metadata template (checkpoint index / speculation id).
    ///
    /// The payload is materialized into one shared [`Payload`] allocation
    /// here — the only copy on the whole send → deliver → record →
    /// checkpoint path. Accepts `Vec<u8>`, `&[u8]`, byte-string literals,
    /// and existing [`Payload`]s (which are aliased, not re-copied).
    ///
    /// [`Payload`]: crate::payload::Payload
    pub fn send(&mut self, dst: Pid, tag: u16, payload: impl Into<crate::payload::Payload>) {
        let p = &mut *self.proc;
        let id = p.next_msg_id;
        p.next_msg_id += 1;
        p.vc.tick(self.pid);
        p.lamport += 1;
        let meta = MsgMeta {
            lamport: p.lamport,
            ..p.meta
        };
        let msg = self.arena.make_message(
            id,
            self.pid,
            dst,
            tag,
            payload.into(),
            self.now,
            &p.vc,
            meta,
        );
        self.effects.sends.push(msg);
    }

    /// Broadcast to every other process. The payload is materialized
    /// once and every copy of the message aliases it.
    pub fn broadcast(&mut self, tag: u16, payload: impl Into<crate::payload::Payload>) {
        let payload = payload.into();
        for i in 0..self.world_width {
            let dst = Pid(i as u32);
            if dst != self.pid {
                self.send(dst, tag, payload.clone());
            }
        }
    }

    /// Arm a timer `delay` virtual time units from now.
    pub fn set_timer(&mut self, delay: VTime) -> TimerId {
        let id = TimerId(self.proc.next_timer_id);
        self.proc.next_timer_id += 1;
        self.effects
            .timers_set
            .push((id, self.now.saturating_add(delay)));
        id
    }

    /// Cancel a previously set timer (no-op if already fired).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.timers_cancelled.push(id);
    }

    /// Draw a random `u64`. Recorded in the effects (the Scroll logs it as
    /// a nondeterministic outcome, per §3.1).
    pub fn random(&mut self) -> u64 {
        let v = self.proc.rng.next_u64();
        self.record_draw(v);
        v
    }

    /// Draw uniformly from `[0, n)`.
    pub fn random_below(&mut self, n: u64) -> u64 {
        let v = self.proc.rng.below(n);
        self.record_draw(v);
        v
    }

    #[inline]
    fn record_draw(&mut self, v: u64) {
        // The draw buffer is unique until sealed: no copy here.
        std::sync::Arc::make_mut(&mut self.randoms).push(v);
    }

    /// Emit an observable output (the application's "result" channel).
    /// The bytes are wrapped in one shared [`Payload`] allocation
    /// (uncounted: the payload copy/alias counters measure *message*
    /// traffic only); the trace's output index aliases it.
    ///
    /// [`Payload`]: crate::payload::Payload
    pub fn output(&mut self, data: Vec<u8>) {
        self.effects
            .outputs
            .push(crate::payload::Payload::untracked(data));
    }

    /// Emit an observable output from an existing [`Payload`] — aliased,
    /// not copied, so a program that re-emits (part of) a received
    /// message's bytes stays allocation-free.
    ///
    /// [`Payload`]: crate::payload::Payload
    pub fn output_shared(&mut self, data: crate::payload::Payload) {
        self.effects.outputs.push(data);
    }

    /// Ask the runtime to crash this process after the handler returns
    /// (models a local fail-stop fault detected by the application).
    pub fn crash(&mut self) {
        self.effects.crashed = true;
    }

    /// The process's current vector clock (read-only view).
    pub fn vector_clock(&self) -> &VectorClock {
        &self.proc.vc
    }

    pub(crate) fn into_effects(mut self) -> Effects {
        if self.randoms.is_empty() {
            // No draws: hand the shell straight back to the pool and
            // keep the allocation-free `Randoms::EMPTY`.
            self.arena.recycle_randoms(self.randoms);
        } else {
            self.effects.randoms = crate::event::Randoms::from_shell(self.randoms);
        }
        self.effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ctx(f: impl FnOnce(&mut Context)) -> Effects {
        let mut proc = ProcContext {
            next_msg_id: 10,
            next_timer_id: 0,
            meta: MsgMeta {
                ckpt_index: 4,
                spec_id: 9,
                lamport: 0,
            },
            ..ProcContext::new(1, Pid(0))
        };
        let mut arena = StepArena::new();
        let mut ctx = Context::new(Pid(1), 500, 3, &mut proc, &mut arena);
        f(&mut ctx);
        ctx.into_effects()
    }

    #[test]
    fn send_stamps_everything() {
        let eff = run_ctx(|ctx| {
            ctx.send(Pid(2), 5, b"hi".to_vec());
            ctx.send(Pid(0), 6, b"yo".to_vec());
        });
        assert_eq!(eff.sends.len(), 2);
        let m = &eff.sends[0];
        assert_eq!(m.id, 10);
        assert_eq!(m.src, Pid(1));
        assert_eq!(m.dst, Pid(2));
        assert_eq!(m.sent_at, 500);
        assert_eq!(m.meta.ckpt_index, 4);
        assert_eq!(m.meta.spec_id, 9);
        assert_eq!(m.meta.lamport, 1);
        assert_eq!(m.vc.get(Pid(1)), 1);
        let m2 = &eff.sends[1];
        assert_eq!(m2.id, 11);
        assert_eq!(m2.meta.lamport, 2);
        assert_eq!(m2.vc.get(Pid(1)), 2);
    }

    #[test]
    fn broadcast_skips_self() {
        let eff = run_ctx(|ctx| ctx.broadcast(1, b"x"));
        let dsts: Vec<Pid> = eff.sends.iter().map(|m| m.dst).collect();
        assert_eq!(dsts, vec![Pid(0), Pid(2)]);
    }

    #[test]
    fn broadcast_materializes_payload_once() {
        let eff = run_ctx(|ctx| ctx.broadcast(1, b"one allocation for all"));
        assert_eq!(eff.sends.len(), 2);
        assert!(
            eff.sends[0].payload.ptr_eq(&eff.sends[1].payload),
            "every broadcast copy aliases one buffer"
        );
    }

    #[test]
    fn send_accepts_payload_without_recopy() {
        let p = crate::payload::Payload::from(b"reused");
        let clone = p.clone();
        let eff = run_ctx(move |ctx| ctx.send(Pid(2), 1, p));
        assert!(
            eff.sends[0].payload.ptr_eq(&clone),
            "sending an existing Payload aliases it"
        );
    }

    #[test]
    fn timers_absolute_deadline() {
        let eff = run_ctx(|ctx| {
            let t = ctx.set_timer(100);
            ctx.cancel_timer(t);
        });
        assert_eq!(eff.timers_set.len(), 1);
        assert_eq!(eff.timers_set[0].1, 600);
        assert_eq!(eff.timers_cancelled, vec![eff.timers_set[0].0]);
    }

    #[test]
    fn randoms_recorded_in_order() {
        let eff = run_ctx(|ctx| {
            ctx.random();
            ctx.random_below(5);
        });
        assert_eq!(eff.randoms.len(), 2);
        assert!(eff.randoms[1] < 5);
    }

    #[test]
    fn crash_and_output_flags() {
        let eff = run_ctx(|ctx| {
            ctx.output(b"result".to_vec());
            ctx.crash();
        });
        assert!(eff.crashed);
        assert_eq!(eff.outputs.len(), 1);
        assert_eq!(eff.outputs[0], b"result".to_vec());
    }
}
