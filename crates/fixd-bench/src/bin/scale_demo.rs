//! Wide-world scale benchmark: a fixed 768-member Chord DHT (finger
//! lookups + stabilize rounds + crash/revive churn) embedded in worlds
//! of width 10^3 → 10^6. The member set, their ring, and every event
//! are **identical at every width** — members are pids `0..768`, the
//! ring oracle never consults `world_size()`, and the run asserts the
//! step counts match — so the sweep isolates exactly what world width
//! costs:
//!
//! * **throughput** — with sparse causality clocks and lazy process
//!   slots, stepping must not scale with width. Gate: steps/sec at
//!   10^5 processes within 2x of 10^3 (`MAX_SLOWDOWN`).
//! * **memory** — a dormant process is an 8-byte `Option<Box<_>>`
//!   slot. Gate: the marginal cost per added process between the two
//!   widest worlds stays under `MAX_IDLE_BYTES_PER_PROC` (64 B),
//!   measured by a counting global allocator.
//! * **arena residency** (reported, not gated) — the same workload on
//!   a sharded world at the widest width, with each shard's `StepArena`
//!   pool footprint (`ArenaStats::resident_bytes`) broken down per
//!   pool, so the 4096/1024/1024/1024 caps can be revisited with data.
//!
//! Emits `BENCH_scale.json` and exits non-zero on gate failure — the
//! CI `scale` job runs this, so million-process worlds are a gate, not
//! a claim.
//!
//! Run: `cargo run -p fixd-bench --bin scale_demo --release`

use std::hint::black_box;
use std::sync::Arc;

use fixd_bench::{live_bytes, CountingAlloc};
use fixd_examples::chord::{chord_factory, ChordNode, ChordRing};
use fixd_runtime::{
    clock::INLINE_PAIRS, ArenaStats, EventKind, Pid, World, WorldConfig, EFF_POOL_CAP,
    MSG_POOL_CAP, RAND_POOL_CAP, REC_POOL_CAP,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Active Chord members (pids `0..MEMBERS`) — constant across widths.
const MEMBERS: usize = 768;
/// World widths swept. The throughput gate compares the first and the
/// second-to-last; the memory gate uses the marginal cost between the
/// last two.
const WIDTHS: &[usize] = &[1_000, 10_000, 100_000, 1_000_000];
/// Stabilize rounds per member.
const STABILIZE_ROUNDS: u32 = 6;
/// Lookups issued per member.
const LOOKUPS_PER_MEMBER: u32 = 6;
/// Members crashed (and later revived) by the churn schedule.
const CHURN_VICTIMS: usize = 8;
/// Step at which the victims crash / come back.
const CRASH_AT: u64 = 10_000;
const REVIVE_AT: u64 = 30_000;
/// Timed rounds per width; the median rate is reported.
const ROUNDS: usize = 3;
/// Gate: steps/sec at 10^5 must be within this factor of 10^3.
const MAX_SLOWDOWN: f64 = 2.0;
/// Gate: marginal heap bytes per added (idle) process.
const MAX_IDLE_BYTES_PER_PROC: f64 = 64.0;

/// Labels for the per-delivery clock-sparsity histogram: the nonzero
/// component count (`nnz`) of every delivered message's vector clock.
/// The first [`INLINE_PAIRS`] buckets are the allocation-free inline
/// cases; everything past them spilled to a heap vector.
const NNZ_LABELS: &[&str] = &["1", "2", "3", "4", "5-8", "9-16", "17-32", "33+"];

fn nnz_bucket(nnz: usize) -> usize {
    match nnz {
        0..=4 => nnz.saturating_sub(1),
        5..=8 => 4,
        9..=16 => 5,
        17..=32 => 6,
        _ => 7,
    }
}

/// Shards in the per-shard arena census leg at the widest world.
const ARENA_SHARDS: usize = 8;
/// Trace bound for the census leg: recycling only happens when the
/// world sees last references, i.e. on trace eviction — an unbounded
/// trace pins every shell and the pools (correctly) report ~0 resident
/// bytes. The bounded trace is the steady-state regime the pool caps
/// were sized for.
const ARENA_TRACE_CAP: usize = 4096;

struct RunResult {
    steps: u64,
    secs: f64,
    build_bytes: u64,
    lookups_ok: u64,
    lookups_bad: u64,
    arena: ArenaStats,
}

/// Build a width-`width` world with the 768-member Chord ring active
/// and every other process dormant, run it to quiescence with the
/// deterministic churn schedule, and report steps, time, and memory.
/// When `nnz_hist` is given, tally each delivered message's clock nnz
/// (the event stream is width-invariant, so one tallied run describes
/// every width).
fn run_once(width: usize, seed: u64, mut nnz_hist: Option<&mut [u64]>) -> RunResult {
    let members: Vec<Pid> = (0..MEMBERS as u32).map(Pid).collect();
    let ring = Arc::new(ChordRing::new(&members));

    let before = live_bytes();
    let mut w = World::new(WorldConfig::seeded(seed));
    w.add_lazy_processes(
        width,
        chord_factory(Arc::clone(&ring), STABILIZE_ROUNDS, LOOKUPS_PER_MEMBER),
    );
    for &m in &members {
        w.schedule_start(m);
    }
    let build_bytes = live_bytes().saturating_sub(before) as u64;

    let victims: Vec<Pid> = (0..CHURN_VICTIMS as u32)
        .map(|i| Pid((i + 1) * (MEMBERS as u32 / (CHURN_VICTIMS as u32 + 1))))
        .collect();

    let t0 = std::time::Instant::now();
    let mut steps = 0u64;
    while let Some(rec) = w.step() {
        black_box(&rec);
        if let Some(hist) = nnz_hist.as_deref_mut() {
            if let EventKind::Deliver { msg } = &rec.event.kind {
                hist[nnz_bucket(msg.vc.nnz())] += 1;
            }
        }
        steps += 1;
        if steps == CRASH_AT {
            for &v in &victims {
                w.crash_now(v);
            }
        }
        if steps == REVIVE_AT {
            for &v in &victims {
                w.revive(v);
                w.schedule_start(v);
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);

    assert!(
        w.materialized_procs() <= MEMBERS,
        "only members may materialize: {} > {MEMBERS}",
        w.materialized_procs()
    );
    let mut lookups_ok = 0u64;
    let mut lookups_bad = 0u64;
    for &m in &members {
        if let Some(node) = w.program::<ChordNode>(m) {
            lookups_ok += node.stats.ok;
            lookups_bad += node.stats.bad;
        }
    }
    RunResult {
        steps,
        secs,
        build_bytes,
        lookups_ok,
        lookups_bad,
        arena: w.arena_stats(),
    }
}

/// Run the same (churn-free) Chord workload on a world sharded
/// [`ARENA_SHARDS`] ways at `width` and return the coordinator's and every shard's arena
/// counters after quiescence — the per-shard resident-bytes data that
/// informs the pool caps (4096/1024/1024/1024) at 10^6-wide worlds.
fn sharded_arena_census(width: usize, seed: u64) -> (ArenaStats, Vec<ArenaStats>) {
    let members: Vec<Pid> = (0..MEMBERS as u32).map(Pid).collect();
    let ring = Arc::new(ChordRing::new(&members));

    let mut cfg = WorldConfig::seeded(seed);
    cfg.trace_cap = Some(ARENA_TRACE_CAP);
    let mut w = World::new(cfg);
    w.add_lazy_processes(
        width,
        chord_factory(Arc::clone(&ring), STABILIZE_ROUNDS, LOOKUPS_PER_MEMBER),
    );
    for &m in &members {
        w.schedule_start(m);
    }
    w.shard(ARENA_SHARDS);
    let report = w.run_to_quiescence(10_000_000);
    assert!(report.quiescent, "sharded census workload must drain");
    assert!(
        w.materialized_procs() <= MEMBERS,
        "only members may materialize in the sharded census"
    );
    (w.arena_stats(), w.shard_arena_stats())
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

struct WidthResult {
    width: usize,
    steps: u64,
    steps_per_sec: f64,
    build_bytes: u64,
    lookups_ok: u64,
    lookups_bad: u64,
    arena_resident: usize,
}

/// One arena's counters as a JSON object (fixed key order).
fn arena_json(a: &ArenaStats) -> String {
    format!(
        "{{\"msgs_pooled\": {}, \"records_pooled\": {}, \"effects_pooled\": {}, \
         \"randoms_pooled\": {}, \"msg_bytes\": {}, \"record_bytes\": {}, \
         \"effect_bytes\": {}, \"random_bytes\": {}, \"resident_bytes\": {}}}",
        a.msgs_pooled,
        a.records_pooled,
        a.effects_pooled,
        a.randoms_pooled,
        a.msg_bytes,
        a.record_bytes,
        a.effect_bytes,
        a.random_bytes,
        a.resident_bytes()
    )
}

fn main() {
    // Warm-up (page in code + allocator arenas) — not measured; it
    // doubles as the clock-sparsity census run.
    let mut nnz_hist = vec![0u64; NNZ_LABELS.len()];
    black_box(run_once(1_000, 1, Some(&mut nnz_hist)));

    let mut results: Vec<WidthResult> = Vec::new();
    for &width in WIDTHS {
        let mut rates: Vec<f64> = Vec::new();
        let mut last = None;
        for round in 0..ROUNDS {
            let r = run_once(width, 100 + round as u64, None);
            rates.push(r.steps as f64 / r.secs);
            last = Some(r);
        }
        let r = last.expect("rounds ran");
        results.push(WidthResult {
            width,
            steps: r.steps,
            steps_per_sec: median(&mut rates),
            build_bytes: r.build_bytes,
            lookups_ok: r.lookups_ok,
            lookups_bad: r.lookups_bad,
            arena_resident: r.arena.resident_bytes(),
        });
    }

    // Width invariance: the same workload must produce the same event
    // count at every width — otherwise the rate comparison is vacuous.
    for r in &results[1..] {
        assert_eq!(
            r.steps, results[0].steps,
            "event sequence must not depend on world width"
        );
    }
    for r in &results {
        assert!(
            r.lookups_ok > 0,
            "lookups must resolve at width {}",
            r.width
        );
        assert!(
            r.lookups_ok >= 10 * r.lookups_bad.max(1),
            "stale lookups must be rare at width {}: {} ok vs {} bad",
            r.width,
            r.lookups_ok,
            r.lookups_bad
        );
    }

    let narrow = &results[0];
    let wide = results
        .iter()
        .find(|r| r.width == 100_000)
        .expect("10^5 width in sweep");
    let slowdown = narrow.steps_per_sec / wide.steps_per_sec.max(1e-9);

    let (a, b) = (&results[results.len() - 2], &results[results.len() - 1]);
    let idle_bytes_per_proc =
        (b.build_bytes.saturating_sub(a.build_bytes)) as f64 / (b.width - a.width) as f64;

    println!(
        "chord scale: {MEMBERS} members, {} steps/run, churn {CHURN_VICTIMS} crash+revive",
        narrow.steps
    );
    println!(
        "{:>10} {:>14} {:>16} {:>12} {:>8}",
        "width", "steps/sec", "build bytes", "bytes/proc", "lookups"
    );
    for r in &results {
        println!(
            "{:>10} {:>14.0} {:>16} {:>12.1} {:>8}",
            r.width,
            r.steps_per_sec,
            r.build_bytes,
            r.build_bytes as f64 / r.width as f64,
            r.lookups_ok
        );
    }
    println!(
        "slowdown 10^3 → 10^5: {slowdown:.2}x (gate ≤ {MAX_SLOWDOWN}x)\n\
         marginal idle bytes/proc ({} → {}): {idle_bytes_per_proc:.2} \
         (gate < {MAX_IDLE_BYTES_PER_PROC})",
        a.width, b.width
    );

    let deliveries: u64 = nnz_hist.iter().sum();
    let inline_hits: u64 = nnz_hist[..INLINE_PAIRS].iter().sum();
    let inline_pct = 100.0 * inline_hits as f64 / deliveries.max(1) as f64;
    let hist_line = NNZ_LABELS
        .iter()
        .zip(&nnz_hist)
        .map(|(l, n)| format!("{l}:{n}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "clock nnz per delivery: {hist_line}\n\
         inline (≤{INLINE_PAIRS} pairs) covers {inline_pct:.1}% of deliveries"
    );

    // Per-shard arena census at the widest world: what the recycling
    // pools actually pin at 10^6 processes, shard by shard — the data
    // for revisiting the MSG/REC/EFF/RAND pool caps.
    let widest = *WIDTHS.last().expect("widths non-empty");
    let (coord_arena, shard_arenas) = sharded_arena_census(widest, 7);
    let shard_resident_total: usize = shard_arenas.iter().map(ArenaStats::resident_bytes).sum();
    let arena_total = coord_arena.resident_bytes() + shard_resident_total;
    assert!(
        arena_total > 0,
        "arena pools must retain shells after a {widest}-wide run"
    );
    println!(
        "arena census at width {widest} ({ARENA_SHARDS} shards, trace cap \
         {ARENA_TRACE_CAP}, caps msg={MSG_POOL_CAP} rec={REC_POOL_CAP} \
         eff={EFF_POOL_CAP} rand={RAND_POOL_CAP}):"
    );
    println!(
        "  coordinator: {} B ({} msgs, {} records pooled)",
        coord_arena.resident_bytes(),
        coord_arena.msgs_pooled,
        coord_arena.records_pooled
    );
    for (i, a) in shard_arenas.iter().enumerate() {
        println!(
            "  shard {i}: {} B (msg {} B, rec {} B, eff {} B, rand {} B)",
            a.resident_bytes(),
            a.msg_bytes,
            a.record_bytes,
            a.effect_bytes,
            a.random_bytes
        );
    }
    println!("  total resident: {arena_total} B");

    let mut json = String::from("{\n  \"bench\": \"scale\",\n");
    json.push_str(&format!(
        "  \"members\": {MEMBERS},\n  \"steps\": {},\n  \"rounds\": {ROUNDS},\n",
        narrow.steps
    ));
    json.push_str("  \"widths\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"processes\": {}, \"steps_per_sec\": {:.1}, \"build_bytes\": {}, \
             \"bytes_per_proc\": {:.2}, \"lookups_ok\": {}, \"lookups_bad\": {}, \
             \"arena_resident_bytes\": {}}}{}\n",
            r.width,
            r.steps_per_sec,
            r.build_bytes,
            r.build_bytes as f64 / r.width as f64,
            r.lookups_ok,
            r.lookups_bad,
            r.arena_resident,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"arena\": {{\n    \"width\": {widest},\n    \"shards\": {ARENA_SHARDS},\n    \
         \"trace_cap\": {ARENA_TRACE_CAP},\n    \
         \"pool_caps\": {{\"msgs\": {MSG_POOL_CAP}, \"records\": {REC_POOL_CAP}, \
         \"effects\": {EFF_POOL_CAP}, \"randoms\": {RAND_POOL_CAP}}},\n    \
         \"serial_resident_bytes\": {},\n    \"coordinator\": {},\n",
        results.last().map(|r| r.arena_resident).unwrap_or_default(),
        arena_json(&coord_arena)
    ));
    json.push_str("    \"per_shard\": [\n");
    for (i, a) in shard_arenas.iter().enumerate() {
        json.push_str(&format!(
            "      {}{}\n",
            arena_json(a),
            if i + 1 < shard_arenas.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "    ],\n    \"total_resident_bytes\": {arena_total}\n  }},\n"
    ));
    json.push_str(&format!(
        "  \"clock_nnz\": {{{}}},\n  \"inline_pairs\": {INLINE_PAIRS},\n  \
         \"inline_clock_pct\": {inline_pct:.1},\n",
        NNZ_LABELS
            .iter()
            .zip(&nnz_hist)
            .map(|(l, n)| format!("\"{l}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        "  \"slowdown_1e3_to_1e5\": {slowdown:.3},\n  \"max_slowdown\": {MAX_SLOWDOWN},\n  \
         \"idle_bytes_per_proc\": {idle_bytes_per_proc:.2},\n  \
         \"max_idle_bytes_per_proc\": {MAX_IDLE_BYTES_PER_PROC}\n}}\n"
    ));
    let path = "BENCH_scale.json";
    std::fs::write(path, &json).expect("write BENCH_scale.json");
    println!("wrote {path}");

    assert!(
        slowdown <= MAX_SLOWDOWN,
        "wide-world regression: 10^5 processes run {slowdown:.2}x slower than 10^3 \
         (gate ≤ {MAX_SLOWDOWN}x)"
    );
    assert!(
        idle_bytes_per_proc < MAX_IDLE_BYTES_PER_PROC,
        "dormant processes cost {idle_bytes_per_proc:.2} B each \
         (gate < {MAX_IDLE_BYTES_PER_PROC} B)"
    );
}
