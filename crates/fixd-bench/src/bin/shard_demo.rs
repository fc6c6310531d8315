//! Sharded-world throughput benchmark: an active-heavy gossip workload
//! (256 eager processes, compute-heavy handlers, every pid busy) run at
//! shard counts 1 → 8.
//!
//! Two claims, one gate:
//!
//! * **determinism** — the trace fingerprint must be identical at every
//!   shard count; a speedup that changes the execution is worthless.
//!   Asserted directly.
//! * **throughput** — 8 shards must run the workload ≥ 2x faster than
//!   1 shard (`MIN_SPEEDUP`). On machines with at least 8 cores the
//!   gate uses measured wall-clock steps/sec; on smaller hosts (CI
//!   containers are often 1-2 cores) the wall clock cannot show a
//!   parallel speedup, so the gate falls back to the **modelled** rate
//!   `steps / (coordinator + critical_path)` from
//!   [`fixd_runtime::ShardTiming`] — the run's own measured per-shard
//!   busy time, combined as a perfectly-scheduled parallel machine
//!   would. One shard is the plain serial world, whose modelled time is
//!   its measured time. The JSON labels which mode gated.
//!
//! Emits `BENCH_shard.json`; exits non-zero on gate failure (the CI
//! bench job runs this).
//!
//! Run: `cargo run -p fixd-bench --bin shard_demo --release`

use std::hint::black_box;

use fixd_runtime::wire::fnv_mix;
use fixd_runtime::{
    clock::INLINE_PAIRS, Context, EventKind, Message, Pid, Program, TimerId, World, WorldConfig,
};

/// Eager processes — every one of them active the whole run.
const N: usize = 256;
/// Hops each gossip seed survives (fan-out 2 per hop).
const TTL: u8 = 5;
/// Deterministic compute per delivery, the "application work" being
/// parallelized: FNV mixing iterations over the payload.
const WORK_ITERS: u64 = 4_000;
/// Shard counts swept; the gate compares the first and last.
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];
/// Timed rounds per shard count; the median rate is reported.
const ROUNDS: usize = 3;
/// Gate: 8 shards must beat 1 shard by at least this factor.
const MIN_SPEEDUP: f64 = 2.0;

/// Gossip with heavy deterministic compute per delivery: each process
/// seeds two chains on start; every delivery burns `WORK_ITERS` of hash
/// work, then forwards to two neighbors until the TTL dies.
struct Churn {
    acc: u64,
    seen: u64,
}

fn work(payload: &[u8], acc: u64) -> u64 {
    let mut h = acc ^ 0x9E37_79B9_7F4A_7C15;
    for i in 0..WORK_ITERS {
        h = fnv_mix(h, i);
        for &b in payload {
            h = fnv_mix(h, u64::from(b));
        }
    }
    h
}

impl Program for Churn {
    fn on_start(&mut self, ctx: &mut Context) {
        let me = ctx.pid().0;
        let n = ctx.world_size() as u32;
        ctx.send(Pid((me + 1) % n), 1, vec![TTL, me as u8]);
        ctx.send(Pid((me + 7) % n), 1, vec![TTL, me as u8]);
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.seen += 1;
        self.acc = work(&msg.payload, self.acc);
        let ttl = msg.payload[0];
        if ttl > 1 {
            let me = ctx.pid().0;
            let n = ctx.world_size() as u32;
            ctx.send(Pid((me + 3) % n), 1, vec![ttl - 1, msg.payload[1]]);
            ctx.send(Pid((me + 11) % n), 1, vec![ttl - 1, msg.payload[1]]);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context, _t: TimerId) {}
    fn snapshot(&self) -> Vec<u8> {
        let mut b = self.acc.to_le_bytes().to_vec();
        b.extend_from_slice(&self.seen.to_le_bytes());
        b
    }
    fn restore(&mut self, b: &[u8]) {
        self.acc = u64::from_le_bytes(b[0..8].try_into().unwrap());
        self.seen = u64::from_le_bytes(b[8..16].try_into().unwrap());
    }
    fn clone_program(&self) -> Box<dyn Program> {
        Box::new(Churn {
            acc: self.acc,
            seen: self.seen,
        })
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Order-dependent fingerprint over the full record sequence.
fn trace_fp(w: &World) -> u64 {
    let mut h = 0x517E_u64;
    for r in w.trace().records() {
        h = fnv_mix(h, r.event.seq);
        h = fnv_mix(h, r.event.at);
        h = fnv_mix(h, r.effects.fingerprint());
    }
    h
}

struct RunResult {
    steps: u64,
    fp: u64,
    secs: f64,
    modelled_secs: f64,
}

fn run_once(shards: usize, seed: u64) -> RunResult {
    let mut w = World::new(WorldConfig::seeded(seed));
    for _ in 0..N {
        w.add_process(Box::new(Churn { acc: 0, seen: 0 }));
    }
    w.shard(shards);
    let t0 = std::time::Instant::now();
    let report = w.run_to_quiescence(10_000_000);
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert!(report.quiescent, "workload must drain");
    let t = w.shard_timing();
    let modelled_secs = if shards > 1 {
        (t.coordinator + t.critical).as_secs_f64().max(1e-9)
    } else {
        secs
    };
    RunResult {
        steps: report.steps,
        fp: trace_fp(&w),
        secs,
        modelled_secs,
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

struct ShardResult {
    shards: usize,
    steps: u64,
    measured: f64,
    modelled: f64,
}

fn main() {
    // The serial reference: identical workload on an unsharded World —
    // the sharded runs' fingerprints are checked against each other,
    // and their step count against the serial run.
    // The serial pass doubles as a clock-sparsity census (the sharded
    // runs execute the identical event sequence): how many delivered
    // messages' vector clocks still fit the inline representation.
    let (serial_steps, nnz_inline, nnz_total, nnz_max) = {
        let mut w = World::new(WorldConfig::seeded(0x5AAD));
        for _ in 0..N {
            w.add_process(Box::new(Churn { acc: 0, seen: 0 }));
        }
        let (mut steps, mut inline, mut total, mut max_nnz) = (0u64, 0u64, 0u64, 0usize);
        while let Some(rec) = w.step() {
            if let EventKind::Deliver { msg } = &rec.event.kind {
                let n = msg.vc.nnz();
                total += 1;
                if n <= INLINE_PAIRS {
                    inline += 1;
                }
                max_nnz = max_nnz.max(n);
            }
            steps += 1;
        }
        (steps, inline, total, max_nnz)
    };

    // Warm-up — not measured.
    black_box(run_once(2, 0x5AAD));

    let mut results: Vec<ShardResult> = Vec::new();
    let mut want_fp = None;
    for &shards in SHARD_COUNTS {
        let mut measured: Vec<f64> = Vec::new();
        let mut modelled: Vec<f64> = Vec::new();
        let mut steps = 0;
        for _ in 0..ROUNDS {
            let r = run_once(shards, 0x5AAD);
            assert_eq!(
                r.steps, serial_steps,
                "sharded step count must match serial at {shards} shards"
            );
            match want_fp {
                None => want_fp = Some(r.fp),
                Some(fp) => assert_eq!(
                    r.fp, fp,
                    "trace fingerprint drifted at {shards} shards — \
                     a speedup that changes the execution is a bug"
                ),
            }
            measured.push(r.steps as f64 / r.secs);
            modelled.push(r.steps as f64 / r.modelled_secs);
            steps = r.steps;
        }
        results.push(ShardResult {
            shards,
            steps,
            measured: median(&mut measured),
            modelled: median(&mut modelled),
        });
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let max_shards = *SHARD_COUNTS.last().unwrap();
    // Wall clock can only exhibit an 8-way speedup with 8 cores to run
    // on; otherwise gate on the modelled rate (see module docs).
    let gate_mode = if cores >= max_shards {
        "measured"
    } else {
        "modelled"
    };
    let rate = |r: &ShardResult| {
        if gate_mode == "measured" {
            r.measured
        } else {
            r.modelled
        }
    };
    let speedup = rate(&results[results.len() - 1]) / rate(&results[0]).max(1e-9);

    println!(
        "shard churn: {N} procs, {} steps/run, ttl {TTL}, {WORK_ITERS} work iters/delivery, \
         {cores} cores → gating on {gate_mode} steps/sec",
        results[0].steps
    );
    println!(
        "{:>7} {:>16} {:>16}",
        "shards", "measured st/s", "modelled st/s"
    );
    for r in &results {
        println!("{:>7} {:>16.0} {:>16.0}", r.shards, r.measured, r.modelled);
    }
    println!(
        "speedup 1 → {max_shards} shards ({gate_mode}): {speedup:.2}x (gate ≥ {MIN_SPEEDUP}x)"
    );
    println!(
        "clock nnz per delivery: inline (≤{INLINE_PAIRS} pairs) covers {:.1}% of {} deliveries, \
         max nnz {}",
        100.0 * nnz_inline as f64 / nnz_total.max(1) as f64,
        nnz_total,
        nnz_max
    );

    let mut json = String::from("{\n  \"bench\": \"shard\",\n");
    json.push_str(&format!(
        "  \"procs\": {N},\n  \"steps\": {},\n  \"rounds\": {ROUNDS},\n  \
         \"cores\": {cores},\n  \"gate_mode\": \"{gate_mode}\",\n",
        results[0].steps
    ));
    json.push_str("  \"shard_counts\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"measured_steps_per_sec\": {:.1}, \
             \"modelled_steps_per_sec\": {:.1}}}{}\n",
            r.shards,
            r.measured,
            r.modelled,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_1_to_{max_shards}\": {speedup:.3},\n  \"min_speedup\": {MIN_SPEEDUP}\n}}\n"
    ));
    let path = "BENCH_shard.json";
    std::fs::write(path, &json).expect("write BENCH_shard.json");
    println!("wrote {path}");

    assert!(
        speedup >= MIN_SPEEDUP,
        "sharding regression: {max_shards} shards only {speedup:.2}x faster than 1 \
         ({gate_mode}; gate ≥ {MIN_SPEEDUP}x)"
    );
}
