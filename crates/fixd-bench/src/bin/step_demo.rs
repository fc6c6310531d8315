//! Hot-loop throughput demo: measure the allocation-free
//! `step → apply_effects → route_message → trace.push` cycle against the
//! **real clone-per-step baseline** — the pre-refactor deep clones,
//! compiled back in behind the `clone-baseline` cargo feature:
//!
//! * one deep `Message` clone for the handler call
//!   (`HandlerCall::Message(&msg.clone())`),
//! * one deep `Message` clone per routed send
//!   (`route_message(msg.clone())`),
//! * one deep `StepRecord` clone for the trace
//!   (`trace.push(record.clone())`: event kind, every send, every
//!   random, every output),
//!
//! plus the arena turned off, so every box is a fresh allocation. Both
//! modes run the *same* deterministic workload on the *same* simulator
//! binary and produce value-identical traces (pinned by
//! `fixd-runtime/tests/clone_baseline.rs`); the ratio isolates exactly
//! what the arena + calendar-queue refactor removed.
//!
//! Two gates, both enforced here (the CI campaign job runs this, so
//! they are gates, not claims):
//!
//! * **allocs/step ≤ 1** — a counting `#[global_allocator]` tallies
//!   every allocation event after a warm-up window; the steady-state
//!   step loop must serve messages, records, effects bodies, and draw
//!   buffers from the [`StepArena`] pools.
//! * **speedup ≥ 3x** — only when built `--features clone-baseline`
//!   (the baseline clones don't exist in a normal build); without the
//!   feature the baseline column reads `"unavailable"` and only the
//!   allocation gate applies.
//!
//! Run: `cargo run -p fixd-bench --bin step_demo --release \
//!       --features clone-baseline`
//!
//! [`StepArena`]: fixd_runtime::ArenaStats

use std::hint::black_box;

use fixd_bench::{alloc_events, CountingAlloc};
use fixd_runtime::{Context, Message, Payload, Pid, Program, TimerId, World, WorldConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Required steps/sec improvement over the real clone-per-step
/// baseline (enforced only when the baseline is compiled in).
const MIN_SPEEDUP: f64 = 3.0;
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
/// Timed rounds per mode; the median is reported.
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

fn gossip_world(seed: u64, clone_baseline: bool) -> World {
    let mut cfg = WorldConfig::seeded(seed);
    cfg.trace_cap = Some(TRACE_CAP);
    cfg.clone_baseline = clone_baseline;
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

fn run_once(seed: u64, clone_baseline: bool) -> RunResult {
    let mut w = gossip_world(seed, clone_baseline);
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

#[cfg(feature = "clone-baseline")]
const BASELINE_MODE: &str = "real";
#[cfg(not(feature = "clone-baseline"))]
const BASELINE_MODE: &str = "unavailable";

fn main() {
    // Warm-up (page in code + allocator arenas) — not measured.
    let _ = run_once(1, false);

    let mut fast_rates: Vec<f64> = Vec::new();
    let mut base_rates: Vec<f64> = Vec::new();
    let mut fast_allocs: Vec<f64> = Vec::new();
    let mut base_allocs: Vec<f64> = Vec::new();
    let mut fast_last = None;
    for round in 0..ROUNDS {
        let seed = 100 + round as u64;
        let fast = run_once(seed, false);
        fast_rates.push(fast.steps as f64 / fast.secs);
        fast_allocs.push(fast.steady_allocs as f64 / fast.steady_steps as f64);
        // Interleave the modes so drift hits both equally.
        if cfg!(feature = "clone-baseline") {
            let base = run_once(seed, true);
            assert_eq!(fast.steps, base.steps, "same workload in both modes");
            base_rates.push(base.steps as f64 / base.secs);
            base_allocs.push(base.steady_allocs as f64 / base.steady_steps as f64);
        }
        fast_last = Some(fast);
    }
    let fast = fast_last.expect("rounds ran");
    let fast_sps = median(&mut fast_rates);
    let allocs_per_step = median(&mut fast_allocs);
    let worst_allocs_per_step = fast_allocs.iter().cloned().fold(0.0f64, f64::max);
    let (base_sps, base_aps) = if base_rates.is_empty() {
        (0.0, 0.0)
    } else {
        (median(&mut base_rates), median(&mut base_allocs))
    };
    let speedup = if base_sps > 0.0 {
        fast_sps / base_sps
    } else {
        0.0
    };

    let copied_per_step = fast.payload_copied as f64 / fast.steps as f64;
    let aliased_per_step = fast.payload_aliased as f64 / fast.steps as f64;

    println!(
        "step loop: {} procs × {} forwards, payload {} B, output {} B, trace cap {} → {} steps/run",
        PROCS, FORWARDS_PER_PROC, PAYLOAD_BYTES, OUTPUT_BYTES, TRACE_CAP, fast.steps
    );
    println!(
        "optimized:         {fast_sps:>12.0} steps/sec (median of {ROUNDS})\n\
         steady allocs/step: {allocs_per_step:>11.4} (worst round {worst_allocs_per_step:.4}, gate ≤ {MAX_ALLOCS_PER_STEP})\n\
         payload bytes/step: copied {copied_per_step:.1}, aliased {aliased_per_step:.1}\n\
         calendar queue:     {:.1}% of pushes in the O(1) ring tier",
        fast.ring_push_pct
    );
    if cfg!(feature = "clone-baseline") {
        println!(
            "clone-per-step:    {base_sps:>12.0} steps/sec (real baseline, {base_aps:.2} allocs/step)\n\
             speedup:           {speedup:>12.2}x (gate ≥ {MIN_SPEEDUP}x)"
        );
    } else {
        println!(
            "clone-per-step:    unavailable (build with --features clone-baseline for the real A/B)"
        );
    }

    let bench = format!(
        "{{\n  \"bench\": \"step\",\n  \"procs\": {PROCS},\n  \"steps\": {},\n  \"rounds\": {ROUNDS},\n  \"payload_bytes\": {PAYLOAD_BYTES},\n  \"output_bytes\": {OUTPUT_BYTES},\n  \"trace_cap\": {TRACE_CAP},\n  \"steps_per_sec\": {:.1},\n  \"allocs_per_step\": {:.4},\n  \"worst_allocs_per_step\": {:.4},\n  \"max_allocs_per_step\": {:.1},\n  \"baseline\": \"{}\",\n  \"baseline_steps_per_sec\": {:.1},\n  \"baseline_allocs_per_step\": {:.2},\n  \"speedup\": {:.2},\n  \"payload_copied_per_step\": {:.2},\n  \"payload_aliased_per_step\": {:.2},\n  \"queue_ring_push_pct\": {:.1},\n  \"min_speedup\": {:.1}\n}}\n",
        fast.steps,
        fast_sps,
        allocs_per_step,
        worst_allocs_per_step,
        MAX_ALLOCS_PER_STEP,
        BASELINE_MODE,
        base_sps,
        base_aps,
        speedup,
        copied_per_step,
        aliased_per_step,
        fast.ring_push_pct,
        MIN_SPEEDUP,
    );
    let path = "BENCH_step.json";
    std::fs::write(path, &bench).expect("write BENCH_step.json");
    println!("wrote {path}");

    assert!(
        allocs_per_step <= MAX_ALLOCS_PER_STEP,
        "steady-state regression: {allocs_per_step:.4} allocations per step \
         exceeds the {MAX_ALLOCS_PER_STEP} budget"
    );
    if cfg!(feature = "clone-baseline") {
        assert!(
            speedup >= MIN_SPEEDUP,
            "hot-loop regression: {speedup:.2}x over the real clone-per-step \
             baseline is below the required {MIN_SPEEDUP}x"
        );
    }
}
