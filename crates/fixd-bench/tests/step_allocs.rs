//! The step loop's allocation claim, counted: once its pools are warm,
//! the `step → apply_effects → route_message → trace.push` cycle of a
//! default-config [`World`] serves messages, records, effects bodies and
//! draw buffers from the `StepArena` and does not call the allocator.
//!
//! The mesh keeps every hot-path surface live: 16 processes each pass
//! a 1 KiB token on (aliased, never re-materialized), emit a 512 B
//! shared output and take a random draw per delivery, and set a timer;
//! the trace keeps a fixed tail, so evicted records cycle back through
//! the arena. CI runs this file in release as well as debug: the claim is
//! about the optimised loop.
//!
//! One `#[test]` on purpose: the counter is process-wide.

use fixd_bench::{alloc_events, CountingAlloc};
use fixd_runtime::{Context, Message, Payload, Pid, Program, TimerId, World, WorldConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PROCS: usize = 16;
const PAYLOAD_BYTES: usize = 1024;
const OUTPUT_BYTES: usize = 512;
/// Steps before the counting window opens — long enough for every
/// pool and bucket `Vec` to reach its steady capacity.
const WARM_STEPS: u64 = 20_000;
/// Steps counted. The tokens never stop, so every one of them is a
/// steady-state step: no wind-down in which the pools outgrow their
/// `Vec`s because nothing draws from them any more.
const STEADY_STEPS: u64 = 76_048;

/// Passes every token on to its neighbour, forever.
#[derive(Clone)]
struct Gossip {
    out: Payload,
}

impl Program for Gossip {
    fn on_start(&mut self, ctx: &mut Context) {
        // Every process launches one token: 16 circulate at once.
        let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
        ctx.send(next, 1, vec![ctx.pid().0 as u8; PAYLOAD_BYTES]);
        ctx.set_timer(10);
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        let _ = ctx.random();
        ctx.output_shared(self.out.clone());
        let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
        ctx.send(next, 1, msg.payload.clone());
    }
    fn on_timer(&mut self, _ctx: &mut Context, _t: TimerId) {}
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }
    fn restore(&mut self, _b: &[u8]) {}
}

#[test]
fn warm_step_loop_does_not_allocate() {
    let mut w = World::new(WorldConfig::seeded(100));
    for p in 0..PROCS {
        w.add_process(Box::new(Gossip {
            out: Payload::untracked(vec![p as u8; OUTPUT_BYTES]),
        }));
    }
    let step = |w: &mut World| {
        let rec = w.step().expect("the tokens never stop");
        std::hint::black_box(&rec);
    };
    for _ in 0..WARM_STEPS {
        step(&mut w);
    }
    let before = alloc_events();
    for _ in 0..STEADY_STEPS {
        step(&mut w);
    }
    let steady_allocs = alloc_events() - before;
    assert_eq!(
        steady_allocs, 0,
        "{steady_allocs} allocations over {STEADY_STEPS} warm steps"
    );
}
