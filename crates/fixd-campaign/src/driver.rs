//! The campaign driver: fan cells across cores, aggregate
//! deterministically.
//!
//! Cells are independent deterministic simulations, so the driver is an
//! embarrassingly parallel sharded work queue: scoped threads pull cell
//! indices from an atomic counter, run each cell to completion, and the
//! outcomes are re-sorted by spec index afterwards. The report is
//! therefore byte-identical for any thread count (see
//! `tests/campaign.rs::report_is_thread_count_invariant`).
//!
//! ## Sharded cells
//!
//! With `FIXD_SHARDS` (or an explicit shard count) above 1, each cell's
//! world runs its handlers on that many shards ([`World::shard`]) and
//! [`Fixd`] supervises it directly: the sharded world commits one event
//! per step through the serial code, so the Scroll, the Time Machine,
//! the monitors and the payload ledger see exactly the serial run —
//! including the step a monitor fires at and the step a budget cuts.
//! The report is byte-identical to serial execution at any shard count
//! (`tests/campaign.rs` and the golden fixture pin this), and no cell
//! falls back to a serial re-run.
//!
//! Worker threads are budgeted against the shard fan-out
//! ([`fixd_core::knobs::worker_budget`]): `threads × shards` never
//! exceeds the configured thread budget. The product is exact: a
//! sharded cell occupies `shards` threads, because the campaign worker
//! that runs the cell executes one of its shards itself and the world
//! spawns only the other `shards − 1`, once per cell (see
//! [`fixd_runtime::shard`]'s "Threads"). Windows in which a single
//! shard has work run on the campaign worker alone; every other window
//! costs one wake-up per further busy shard — 55–80 µs of wall clock a
//! window on the 2-vCPU reference host.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fixd_core::{Fixd, FixdConfig};
use fixd_runtime::{World, WorldConfig};

use crate::report::{CampaignReport, CellOutcome};
use crate::spec::{CampaignSpec, Cell};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "FIXD_CAMPAIGN_THREADS";

/// Parse a `FIXD_CAMPAIGN_THREADS` value: `Some(n)` only for a positive
/// integer (zero, overflow, garbage, and absence all fall back to
/// auto-detection). Delegates to [`fixd_core::knobs::parse_count`], the
/// same parser behind `FIXD_SHARDS`, so the two knobs accept identical
/// grammars.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| fixd_core::knobs::parse_count(v).ok())
}

/// Worker threads used by [`run_campaign`]: `FIXD_CAMPAIGN_THREADS` if
/// set and positive, otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    let env = std::env::var(THREADS_ENV).ok();
    parse_threads(env.as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    })
}

/// Shards each cell executes on: the `FIXD_SHARDS` knob, else 1
/// (inline serial execution).
pub fn default_shards() -> usize {
    fixd_core::knobs::shards_from_env().unwrap_or(1)
}

/// Run the whole matrix with [`default_threads`] workers and
/// [`default_shards`] shards per cell.
pub fn run_campaign(spec: &CampaignSpec) -> CampaignReport {
    run_campaign_sharded(spec, default_threads(), default_shards())
}

/// Run the whole matrix with an explicit worker count (shards per cell
/// still follow [`default_shards`], i.e. `FIXD_SHARDS`).
pub fn run_campaign_with_threads(spec: &CampaignSpec, threads: usize) -> CampaignReport {
    run_campaign_sharded(spec, threads, default_shards())
}

/// Run the whole matrix with explicit worker and per-cell shard counts.
///
/// `threads` is a *budget*: with every cell occupying `shards` threads
/// (the outer worker running it plus `shards − 1` shard workers), the
/// outer pool is cut to `threads / shards` so the product never
/// oversubscribes the requested parallelism.
pub fn run_campaign_sharded(spec: &CampaignSpec, threads: usize, shards: usize) -> CampaignReport {
    let cells = spec.cells();
    let threads = fixd_core::knobs::worker_budget(threads, shards).clamp(1, cells.len().max(1));
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, CellOutcome)>> = Mutex::new(Vec::with_capacity(cells.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    local.push((i, run_cell_sharded(spec, cell, shards)));
                }
                collected
                    .lock()
                    .expect("campaign worker poisoned the result lock")
                    .append(&mut local);
            });
        }
    });
    let outcomes = collected
        .into_inner()
        .expect("campaign worker poisoned the result lock");
    assert_eq!(
        outcomes.len(),
        cells.len(),
        "campaign driver lost cells: {} of {} completed",
        outcomes.len(),
        cells.len()
    );
    CampaignReport::from_cells(outcomes)
}

/// Execute one cell on one shard: build the world, install the case's
/// fault plan, supervise under the app's monitors, and render the
/// outcome.
pub fn run_cell(spec: &CampaignSpec, cell: &Cell) -> CellOutcome {
    run_cell_sharded(spec, cell, 1)
}

/// [`run_cell`] with the cell's world run on `shards` shards. The
/// outcome is the same at every shard count.
pub fn run_cell_sharded(spec: &CampaignSpec, cell: &Cell, shards: usize) -> CellOutcome {
    run_cell_sharded_timed(spec, cell, shards).0
}

/// Wall-clock decomposition of one cell run: what the tracked benchmark
/// (`fixd-benchmark`, `campaign-wide-sharded`) attributes a sharded
/// cell's time to.
#[derive(Clone, Copy, Debug)]
pub struct CellTiming {
    /// The critical path of the shards' windows (see
    /// [`fixd_runtime::ShardTiming::critical`]); zero on one shard.
    pub exec_secs: f64,
    /// The rest of the [`Fixd::supervise`] call: committing the steps
    /// and supervising them (on one shard, the whole call).
    pub supervise_secs: f64,
    /// The cell ran on one shard.
    pub serial: bool,
}

/// [`run_cell_sharded`] plus the cell's [`CellTiming`].
pub fn run_cell_sharded_timed(
    spec: &CampaignSpec,
    cell: &Cell,
    shards: usize,
) -> (CellOutcome, CellTiming) {
    let app = &spec.apps[cell.app];
    let case = &spec.cases[cell.case];
    let mut cfg = WorldConfig::seeded(cell.seed);
    cfg.net = case.net.clone();
    let mut world: World = (app.build)(cfg);
    let n = world.num_procs();
    world.set_fault_plan((case.plan)(n, cell.seed));
    world.shard(shards);
    let mut fixd = Fixd::new(n, FixdConfig::seeded(cell.seed));
    for m in (app.monitors)() {
        fixd = fixd.monitor(m);
    }
    let t0 = std::time::Instant::now();
    let out = fixd.supervise(&mut world, spec.max_steps);
    let supervise_secs = t0.elapsed().as_secs_f64();
    let exec_secs = world.shard_timing().critical.as_secs_f64();
    let check = (app.check)(&world, case, out.fault.as_ref());
    let stats = fixd.stats();
    let net = world.stats();
    // Exact per-cell payload accounting: the counters are thread-local
    // and this cell ran start-to-finish on this thread with no other
    // world interleaved; a sharded world counts each step's handler
    // traffic, wherever it ran, when the step commits.
    let payload = world.payload_stats();
    let outcome = CellOutcome {
        app: app.name.to_string(),
        case: case.name.to_string(),
        pathology: case.pathology,
        also: case.also.to_vec(),
        seed: cell.seed,
        steps: out.steps,
        end_time: world.now(),
        quiescent: out.quiescent,
        violation: out.fault.map(|f| f.monitor),
        check_failure: check.failure,
        delivered: net.delivered,
        dropped: net.dropped,
        duplicated: net.duplicated,
        corrupted: net.corrupted,
        scroll_entries: stats.scroll_entries as u64,
        checkpoints: stats.checkpoints as u64,
        checkpoint_bytes: stats.checkpoint_bytes as u64,
        payload_copied: payload.copied,
        payload_aliased: payload.aliased,
        fingerprint: world.global_snapshot().fingerprint(),
        metrics: check.metrics,
    };
    let timing = CellTiming {
        exec_secs,
        supervise_secs: (supervise_secs - exec_secs).max(0.0),
        serial: world.shards() <= 1,
    };
    (outcome, timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::standard_matrix;

    #[test]
    fn single_cell_runs_and_reports() {
        let spec = standard_matrix(&[1]);
        let cells = spec.cells();
        let out = run_cell(&spec, &cells[0]);
        assert!(out.steps > 0);
        assert!(out.quiescent);
        assert!(out.violation.is_none());
        assert!(out.check_failure.is_none(), "{:?}", out.check_failure);
    }

    #[test]
    fn driver_executes_every_cell_exactly_once() {
        let spec = standard_matrix(&[0, 1]);
        let report = run_campaign_with_threads(&spec, 3);
        assert_eq!(report.total_cells(), spec.expected_cells());
        // Spec enumeration order is preserved in the report.
        let cells = spec.cells();
        for (cell, out) in cells.iter().zip(&report.cells) {
            assert_eq!(spec.apps[cell.app].name, out.app);
            assert_eq!(spec.cases[cell.case].name, out.case);
            assert_eq!(cell.seed, out.seed);
        }
    }

    #[test]
    fn cells_report_exact_payload_accounting() {
        let spec = standard_matrix(&[3]);
        let report = run_campaign_with_threads(&spec, 4);
        // Every cell delivers mail, so every cell materialized payloads.
        for c in &report.cells {
            if c.delivered > 0 {
                assert!(
                    c.payload_copied > 0,
                    "{}/{} delivered {} msgs but copied 0 payload bytes",
                    c.app,
                    c.case,
                    c.delivered
                );
                assert!(
                    c.payload_aliased > c.payload_copied,
                    "observation points alias far more than the one send copy"
                );
            }
        }
        // Zero copy, over the matrix: a delivered message costs a few
        // copied bytes (one materialization per send, one split per
        // actual corruption), against everything the observation points
        // — delivery duplication, trace records, Scroll entries,
        // checkpoint capture — would copy if payloads were `Vec<u8>`.
        let sum = |f: fn(&CellOutcome) -> u64| report.cells.iter().map(f).sum::<u64>();
        let (copied, aliased) = (sum(|c| c.payload_copied), sum(|c| c.payload_aliased));
        let delivered = sum(|c| c.delivered);
        assert!(
            copied <= 8 * delivered,
            "{copied} B copied for {delivered} delivered messages"
        );
        assert!(
            aliased >= copied,
            "{aliased} B aliased: copying them too would not even double the {copied} B copied"
        );
        // Thread-local attribution makes the figures placement-invariant:
        // the same spec on one thread yields identical per-cell numbers.
        let single = run_campaign_with_threads(&spec, 1);
        for (a, b) in report.cells.iter().zip(&single.cells) {
            assert_eq!(a.payload_copied, b.payload_copied, "{}/{}", a.app, a.case);
            assert_eq!(a.payload_aliased, b.payload_aliased);
        }
    }

    #[test]
    fn thread_env_knob_parses() {
        // The pure parser (no process-env mutation: tests share it).
        assert_eq!(parse_threads(Some("3")), Some(3));
        assert_eq!(parse_threads(Some(" 12 ")), Some(12));
        assert_eq!(parse_threads(Some("0")), None, "zero falls back");
        assert_eq!(parse_threads(Some("-2")), None);
        assert_eq!(parse_threads(Some("many")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(None), None);
        // Overflow is rejected, not wrapped: 2^64 > usize::MAX.
        assert_eq!(parse_threads(Some("18446744073709551616")), None);
        assert_eq!(parse_threads(Some("8 threads")), None);
        // And the fallback path always yields a usable worker count.
        assert!(default_threads() >= 1);
    }
}
