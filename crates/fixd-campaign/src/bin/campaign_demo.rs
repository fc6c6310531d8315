//! Campaign throughput demo: run the standard matrix wide, print the
//! deterministic summary, and emit `BENCH_campaign.json` so the perf
//! trajectory (cells/sec vs. core count) accumulates data points.
//!
//! The 560-cell matrix finishes in tens of milliseconds, so a single
//! round's `cells_per_sec` is mostly clock quantization noise. The demo
//! therefore runs several timed rounds and reports the **median**
//! rate — a stable figure CI can track — alongside the simulation-step
//! throughput (`steps_per_sec`) the allocation-free hot loop feeds.
//!
//! ## Sharded mode
//!
//! The second half benches the sharded cell driver on the *wide* matrix
//! ([`wide_matrix`]: one Chord column, many processes per cell — the
//! regime sharding targets) at shard counts 1 → 8, asserting the
//! outcomes stay identical and gating ≥ [`MIN_SPEEDUP`]x cell
//! throughput at 8 shards. On hosts with fewer than 8 cores the wall
//! clock cannot show a parallel speedup, so the gate falls back to the
//! **modelled** rate from [`fixd_campaign::CellTiming`] — the run's own
//! measured shard critical path + coordinator time, plus the (serial)
//! replay-supervision time, the same convention as `BENCH_shard.json`.
//! The JSON labels which mode gated. The printed table also says what
//! the executor's parallel phase cost on this host: conservative
//! windows per cell (a deterministic count, the same in every sharded
//! row) and the wall-clock wait per cell that the phase added on top of
//! its critical path (hand-off, measured); one-shard cells run on the
//! serial `World` and have neither.
//!
//! Run: `cargo run -p fixd-campaign --bin campaign_demo --release`

use fixd_campaign::{
    default_threads, run_campaign_with_threads, run_cell_sharded_timed, standard_matrix,
    wide_matrix_work, CellOutcome,
};

/// Timed rounds; the median rate is the reported figure.
const ROUNDS: usize = 7;
/// Processes per wide (Chord) cell in the sharded bench.
const WIDE_N: usize = 96;
/// Deterministic compute iterations each wide-cell delivery burns —
/// the handler-heavy regime sharding targets (cf. `shard_demo`'s
/// `WORK_ITERS`); the replay supervisor never re-executes handlers, so
/// this work parallelizes while supervision stays constant.
const WIDE_WORK: u64 = 2_000;
/// Seeds swept by the wide matrix (2 cases × seeds = cells).
const WIDE_SEEDS: &[u64] = &[0, 1];
/// Shard counts swept; the gate compares the first and last.
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];
/// Timed rounds per shard count in the sharded bench.
const WIDE_ROUNDS: usize = 3;
/// Gate: 8 shards must beat 1 shard by at least this factor.
const MIN_SPEEDUP: f64 = 1.5;

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Figures of the wide cells at one shard count: of one round, or the
/// medians over the rounds.
struct ShardRow {
    shards: usize,
    /// Cells/sec.
    measured: f64,
    modelled: f64,
    windows_per_cell: f64,
    handoff_ms_per_cell: f64,
}

/// Run every wide cell at `shards`: the outcomes and the round's row.
fn wide_round(shards: usize) -> (Vec<CellOutcome>, ShardRow) {
    let spec = wide_matrix_work(WIDE_N, WIDE_SEEDS, WIDE_WORK);
    let cells = spec.cells();
    let t0 = std::time::Instant::now();
    let mut model_secs = 0.0;
    let mut windows = 0;
    let mut handoff_secs = 0.0;
    let mut outs = Vec::with_capacity(cells.len());
    for cell in &cells {
        let (out, t) = run_cell_sharded_timed(&spec, cell, shards);
        assert!(
            !t.serial || shards <= 1,
            "wide cell {}/{} fell back to the serial path at {shards} shards",
            out.app,
            out.case
        );
        model_secs += t.exec_secs + t.supervise_secs;
        windows += t.windows;
        handoff_secs += t.handoff_secs;
        outs.push(out);
    }
    let wall = t0.elapsed().as_secs_f64().max(1e-9);
    let n = cells.len() as f64;
    let row = ShardRow {
        shards,
        measured: n / wall,
        modelled: n / model_secs.max(1e-9),
        windows_per_cell: windows as f64 / n,
        handoff_ms_per_cell: handoff_secs * 1e3 / n,
    };
    (outs, row)
}

fn main() {
    let seeds: Vec<u64> = (0..16).collect();
    let spec = standard_matrix(&seeds);
    let expected = spec.expected_cells();
    let threads = default_threads();

    let mut cell_rates: Vec<f64> = Vec::with_capacity(ROUNDS);
    let mut step_rates: Vec<f64> = Vec::with_capacity(ROUNDS);
    let mut wall_ms: Vec<u128> = Vec::with_capacity(ROUNDS);
    let mut report = None;
    for _ in 0..ROUNDS {
        let t0 = std::time::Instant::now();
        let r = run_campaign_with_threads(&spec, threads);
        let wall = t0.elapsed();
        let secs = wall.as_secs_f64().max(1e-9);
        let steps: u64 = r.cells.iter().map(|c| c.steps).sum();
        cell_rates.push(r.total_cells() as f64 / secs);
        step_rates.push(steps as f64 / secs);
        wall_ms.push(wall.as_millis());
        if let Some(prev) = &report {
            assert_eq!(&r, prev, "campaign must be deterministic across rounds");
        }
        report = Some(r);
    }
    let report = report.expect("at least one round ran");
    let total_steps: u64 = report.cells.iter().map(|c| c.steps).sum();
    let cells_per_sec = median(&mut cell_rates);
    let steps_per_sec = median(&mut step_rates);

    println!("{}", report.summary());
    println!(
        "threads: {threads}, rounds: {ROUNDS}, wall per round: {wall_ms:?} ms\n\
         cells/sec (median): {cells_per_sec:.0}, steps/sec (median): {steps_per_sec:.0}"
    );
    assert_eq!(
        report.total_cells(),
        expected,
        "sweep regression: cells were silently skipped"
    );
    assert_eq!(report.violations(), 0, "standard matrix must stay clean");
    assert_eq!(report.check_failures(), 0, "app postconditions must hold");

    // ---- Sharded mode: wide cells, shard counts 1 → 8 ----------------

    // Warm-up — not measured.
    std::hint::black_box(wide_round(2));

    let wide_cells = wide_matrix_work(WIDE_N, WIDE_SEEDS, WIDE_WORK)
        .cells()
        .len();
    let mut rows: Vec<ShardRow> = Vec::new();
    let mut want: Option<Vec<CellOutcome>> = None;
    for &shards in SHARD_COUNTS {
        let mut rounds: Vec<ShardRow> = Vec::new();
        for _ in 0..WIDE_ROUNDS {
            let (outs, row) = wide_round(shards);
            match &want {
                None => want = Some(outs),
                Some(w) => assert_eq!(
                    &outs, w,
                    "wide-cell outcomes drifted at {shards} shards — \
                     a speedup that changes the report is a bug"
                ),
            }
            rounds.push(row);
        }
        let over_rounds =
            |f: fn(&ShardRow) -> f64| median(&mut rounds.iter().map(f).collect::<Vec<_>>());
        rows.push(ShardRow {
            shards,
            measured: over_rounds(|r| r.measured),
            modelled: over_rounds(|r| r.modelled),
            windows_per_cell: over_rounds(|r| r.windows_per_cell),
            handoff_ms_per_cell: over_rounds(|r| r.handoff_ms_per_cell),
        });
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let max_shards = *SHARD_COUNTS.last().unwrap();
    let gate_mode = if cores >= max_shards {
        "measured"
    } else {
        "modelled"
    };
    let rate = |r: &ShardRow| {
        if gate_mode == "measured" {
            r.measured
        } else {
            r.modelled
        }
    };
    let speedup = rate(&rows[rows.len() - 1]) / rate(&rows[0]).max(1e-9);

    println!(
        "wide cells: {wide_cells} × chord(n={WIDE_N}), {cores} cores → \
         gating on {gate_mode} cells/sec"
    );
    println!(
        "{:>7} {:>18} {:>18} {:>14} {:>18}",
        "shards", "measured cells/s", "modelled cells/s", "windows/cell", "hand-off ms/cell"
    );
    for r in &rows {
        println!(
            "{:>7} {:>18.2} {:>18.2} {:>14.1} {:>18.2}",
            r.shards, r.measured, r.modelled, r.windows_per_cell, r.handoff_ms_per_cell
        );
    }
    println!(
        "speedup 1 → {max_shards} shards ({gate_mode}): {speedup:.2}x (gate ≥ {MIN_SPEEDUP}x)"
    );

    let walls: Vec<String> = wall_ms.iter().map(u128::to_string).collect();
    let mut bench = format!(
        "{{\n  \"bench\": \"campaign\",\n  \"total_cells\": {},\n  \"threads\": {},\n  \"rounds\": {},\n  \"wall_ms_per_round\": [{}],\n  \"cells_per_sec\": {:.1},\n  \"total_steps\": {},\n  \"steps_per_sec\": {:.1},\n  \"violations\": {},\n  \"check_failures\": {},\n  \"apps\": {},\n  \"pathologies\": {},\n",
        report.total_cells(),
        threads,
        ROUNDS,
        walls.join(", "),
        cells_per_sec,
        total_steps,
        steps_per_sec,
        report.violations(),
        report.check_failures(),
        report.apps_covered().len(),
        report.pathologies_covered().len(),
    );
    bench.push_str(&format!(
        "  \"sharded\": {{\n    \"app\": \"chord\",\n    \"procs_per_cell\": {WIDE_N},\n    \
         \"wide_cells\": {wide_cells},\n    \"rounds\": {WIDE_ROUNDS},\n    \
         \"cores\": {cores},\n    \"gate_mode\": \"{gate_mode}\",\n"
    ));
    bench.push_str("    \"shard_counts\": [\n");
    for (i, r) in rows.iter().enumerate() {
        bench.push_str(&format!(
            "      {{\"shards\": {}, \"measured_cells_per_sec\": {:.2}, \
             \"modelled_cells_per_sec\": {:.2}}}{}\n",
            r.shards,
            r.measured,
            r.modelled,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    bench.push_str("    ],\n");
    bench.push_str(&format!(
        "    \"speedup_1_to_{max_shards}\": {speedup:.3},\n    \
         \"min_speedup\": {MIN_SPEEDUP}\n  }}\n}}\n"
    ));
    let path = "BENCH_campaign.json";
    std::fs::write(path, &bench).expect("write BENCH_campaign.json");
    println!("wrote {path}");

    // The full deterministic report is the artifact campaign jobs diff.
    std::fs::write("BENCH_campaign_cells.json", report.to_json())
        .expect("write BENCH_campaign_cells.json");
    println!(
        "wrote BENCH_campaign_cells.json ({} cells)",
        report.total_cells()
    );

    assert!(
        speedup >= MIN_SPEEDUP,
        "sharded campaign regression: {max_shards} shards only {speedup:.2}x faster than \
         serial on wide cells ({gate_mode}; gate ≥ {MIN_SPEEDUP}x)"
    );
}
