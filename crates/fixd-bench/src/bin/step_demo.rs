//! Hot-loop throughput demo: steps/sec and allocations per step of the
//! `step → apply_effects → route_message → trace.push` cycle on a
//! gossip mesh that keeps every hot-path surface live.
//!
//! One gate, enforced here (the CI campaign job runs this, so it is a
//! gate, not a claim): **allocs/step ≤ 1** — a counting
//! `#[global_allocator]` tallies every allocation event after a warm-up
//! window; the steady-state step loop must serve messages, records,
//! effects bodies, and draw buffers from the [`StepArena`] pools.
//!
//! The steps/sec figure is printed for the record only: a speed
//! comparison is made between two commits (`fixd-benchmark`, alternated
//! parent/change pairs), not against a retired loop compiled back in.
//!
//! Run: `cargo run -p fixd-bench --bin step_demo --release`
//!
//! [`StepArena`]: fixd_runtime::ArenaStats

use std::hint::black_box;

use fixd_bench::{alloc_events, CountingAlloc};
use fixd_runtime::{Context, Message, Payload, Pid, Program, TimerId, World, WorldConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Steady-state allocation budget per step (post-warm-up).
const MAX_ALLOCS_PER_STEP: f64 = 1.0;
/// Processes in the gossip mesh.
const PROCS: usize = 16;
/// Forwards each process performs before going quiet.
const FORWARDS_PER_PROC: u64 = 6_000;
/// Payload bytes per token (materialized once, aliased per hop).
const PAYLOAD_BYTES: usize = 1024;
/// Output bytes emitted per delivery (materialized once per process,
/// aliased into every record via `output_shared`).
const OUTPUT_BYTES: usize = 512;
/// Bounded trace depth: old records evict, so their boxes cycle back
/// through the arena instead of accumulating.
const TRACE_CAP: usize = 256;
/// Steps before the allocation window opens — long enough for every
/// pool, bucket `Vec`, and clock spill to reach its steady capacity.
const WARM_STEPS: u64 = 20_000;
/// Timed rounds; the median is reported.
const ROUNDS: usize = 5;

/// Every process forwards the received token (aliased payload — no
/// re-materialization) to its neighbour until its forward budget is
/// spent, emitting a pre-materialized shared output per delivery. All
/// hot-path surfaces stay live — sends, outputs, randoms, a timer —
/// and none of them allocates after warm-up.
struct Gossip {
    forwards_left: u64,
    out: Payload,
}

impl Program for Gossip {
    fn on_start(&mut self, ctx: &mut Context) {
        // Every process launches one token: n tokens circulate at once.
        let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
        ctx.send(next, 1, vec![ctx.pid().0 as u8; PAYLOAD_BYTES]);
        ctx.set_timer(10);
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        let _ = ctx.random();
        ctx.output_shared(self.out.clone());
        if self.forwards_left > 0 {
            self.forwards_left -= 1;
            let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
            ctx.send(next, 1, msg.payload.clone());
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context, _t: TimerId) {}
    fn snapshot(&self) -> Vec<u8> {
        self.forwards_left.to_le_bytes().to_vec()
    }
    fn restore(&mut self, b: &[u8]) {
        self.forwards_left = u64::from_le_bytes(b.try_into().unwrap());
    }
    fn clone_program(&self) -> Box<dyn Program> {
        Box::new(Gossip {
            forwards_left: self.forwards_left,
            out: self.out.clone(),
        })
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn gossip_world(seed: u64) -> World {
    let mut cfg = WorldConfig::seeded(seed);
    cfg.trace_cap = Some(TRACE_CAP);
    let mut w = World::new(cfg);
    for p in 0..PROCS {
        w.add_process(Box::new(Gossip {
            forwards_left: FORWARDS_PER_PROC,
            out: Payload::untracked(vec![p as u8; OUTPUT_BYTES]),
        }));
    }
    w
}

struct RunResult {
    steps: u64,
    secs: f64,
    /// Allocation events observed in the post-warm-up window, and the
    /// number of steps that window covered.
    steady_allocs: u64,
    steady_steps: u64,
    payload_copied: u64,
    payload_aliased: u64,
    /// Share of queue pushes that landed in the calendar ring's O(1)
    /// near-future buckets (vs the overflow/past heap tiers).
    ring_push_pct: f64,
}

fn run_once(seed: u64) -> RunResult {
    let mut w = gossip_world(seed);
    let t0 = std::time::Instant::now();
    let mut steps = 0u64;
    let mut window_open = 0u64;
    while let Some(rec) = w.step() {
        black_box(&rec);
        steps += 1;
        if steps == WARM_STEPS {
            window_open = alloc_events();
        }
    }
    let window_close = alloc_events();
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert!(steps > WARM_STEPS, "workload must outlast the warm-up");
    let pay = w.payload_stats();
    let q = w.queue_stats();
    let pushes = q.ring_pushes + q.overflow_pushes + q.past_pushes;
    RunResult {
        steps,
        secs,
        steady_allocs: window_close - window_open,
        steady_steps: steps - WARM_STEPS,
        payload_copied: pay.copied,
        payload_aliased: pay.aliased,
        ring_push_pct: 100.0 * q.ring_pushes as f64 / (pushes.max(1)) as f64,
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    // Warm-up (page in code + allocator arenas) — not measured.
    let _ = run_once(1);

    let mut rates: Vec<f64> = Vec::new();
    let mut allocs: Vec<f64> = Vec::new();
    let mut last = None;
    for round in 0..ROUNDS {
        let run = run_once(100 + round as u64);
        rates.push(run.steps as f64 / run.secs);
        allocs.push(run.steady_allocs as f64 / run.steady_steps as f64);
        last = Some(run);
    }
    let run = last.expect("rounds ran");
    let sps = median(&mut rates);
    let allocs_per_step = median(&mut allocs);
    let worst_allocs_per_step = allocs.iter().cloned().fold(0.0f64, f64::max);

    let copied_per_step = run.payload_copied as f64 / run.steps as f64;
    let aliased_per_step = run.payload_aliased as f64 / run.steps as f64;

    println!(
        "step loop: {} procs × {} forwards, payload {} B, output {} B, trace cap {} → {} steps/run",
        PROCS, FORWARDS_PER_PROC, PAYLOAD_BYTES, OUTPUT_BYTES, TRACE_CAP, run.steps
    );
    println!(
        "step loop:         {sps:>12.0} steps/sec (median of {ROUNDS})\n\
         steady allocs/step: {allocs_per_step:>11.4} (worst round {worst_allocs_per_step:.4}, gate ≤ {MAX_ALLOCS_PER_STEP})\n\
         payload bytes/step: copied {copied_per_step:.1}, aliased {aliased_per_step:.1}\n\
         calendar queue:     {:.1}% of pushes in the O(1) ring tier",
        run.ring_push_pct
    );

    let bench = format!(
        "{{\n  \"bench\": \"step\",\n  \"procs\": {PROCS},\n  \"steps\": {},\n  \"rounds\": {ROUNDS},\n  \"payload_bytes\": {PAYLOAD_BYTES},\n  \"output_bytes\": {OUTPUT_BYTES},\n  \"trace_cap\": {TRACE_CAP},\n  \"steps_per_sec\": {:.1},\n  \"allocs_per_step\": {:.4},\n  \"worst_allocs_per_step\": {:.4},\n  \"max_allocs_per_step\": {:.1},\n  \"payload_copied_per_step\": {:.2},\n  \"payload_aliased_per_step\": {:.2},\n  \"queue_ring_push_pct\": {:.1}\n}}\n",
        run.steps,
        sps,
        allocs_per_step,
        worst_allocs_per_step,
        MAX_ALLOCS_PER_STEP,
        copied_per_step,
        aliased_per_step,
        run.ring_push_pct,
    );
    let path = "BENCH_step.json";
    std::fs::write(path, &bench).expect("write BENCH_step.json");
    println!("wrote {path}");

    assert!(
        allocs_per_step <= MAX_ALLOCS_PER_STEP,
        "steady-state regression: {allocs_per_step:.4} allocations per step \
         exceeds the {MAX_ALLOCS_PER_STEP} budget"
    );
}
