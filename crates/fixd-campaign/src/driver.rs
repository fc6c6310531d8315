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
//! With a shard count above 1 ([`run_campaign_sharded`],
//! [`run_cell_sharded`]), each cell's world runs its handlers on that
//! many shards ([`World::shard`]) and [`Fixd`] supervises it directly:
//! the sharded world commits one event per step through the serial
//! code, so the Scroll, the Time Machine, the monitors and the payload
//! ledger see exactly the serial run — including the step a monitor
//! fires at and the step a budget cuts. The report is byte-identical to
//! serial execution at any shard count (`tests/campaign.rs` and the
//! golden fixture pin this), and no cell falls back to a serial re-run.
//!
//! Worker threads are budgeted against the shard fan-out: `threads ×
//! shards` never exceeds the thread budget. The product is exact: a
//! sharded cell occupies `shards` threads, because the campaign worker
//! that runs the cell executes one of its shards itself and the world
//! spawns only the other `shards − 1`, once per cell (see
//! [`fixd_runtime::shard`]'s "Threads"). Windows in which a single
//! shard has work run on the campaign worker alone; every other window
//! costs one wake-up per further busy shard — 55–80 µs of wall clock a
//! window on the 2-vCPU reference host.

use std::sync::atomic::{AtomicUsize, Ordering};

use fixd_core::{Fixd, FixdConfig};
use fixd_runtime::{World, WorldConfig};

use crate::report::{CampaignReport, CellOutcome};
use crate::spec::{CampaignSpec, Cell};

/// Run the whole matrix on every core the machine offers
/// ([`std::thread::available_parallelism`]), one shard per cell.
pub fn run_campaign(spec: &CampaignSpec) -> CampaignReport {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    run_campaign_sharded(spec, threads, 1)
}

/// Run the whole matrix with explicit worker and per-cell shard counts.
///
/// `threads` is a *budget*: with every cell occupying `shards` threads
/// (the outer worker running it plus `shards − 1` shard workers), the
/// outer pool is cut to `threads / shards` so the product never
/// oversubscribes the requested parallelism.
pub fn run_campaign_sharded(spec: &CampaignSpec, threads: usize, shards: usize) -> CampaignReport {
    let cells = spec.cells();
    let threads = worker_budget(threads, shards).clamp(1, cells.len().max(1));
    let next = AtomicUsize::new(0);
    let outcomes = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        local.push((i, run_cell_sharded(spec, cell, shards)));
                    }
                    local
                })
            })
            .collect();
        let mut outcomes = Vec::with_capacity(cells.len());
        for worker in workers {
            // A cell that panicked re-raises here with its own payload.
            match worker.join() {
                Ok(mut local) => outcomes.append(&mut local),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        outcomes
    });
    assert_eq!(
        outcomes.len(),
        cells.len(),
        "campaign driver lost cells: {} of {} completed",
        outcomes.len(),
        cells.len()
    );
    CampaignReport::from_cells(outcomes)
}

/// Budget outer worker threads against per-cell fan-out: when every
/// cell occupies `fanout` threads, at most `threads / fanout` outer
/// workers, never fewer than one (a fan-out wider than the budget
/// still makes progress, one cell at a time). The product counts every
/// thread there is: an outer worker is one of its cell's `fanout`, not
/// a sleeping extra on top of them.
fn worker_budget(threads: usize, fanout: usize) -> usize {
    (threads / fanout.max(1)).max(1)
}

/// Execute one cell on `shards` shards: build the world, install the
/// case's fault plan, supervise under the app's monitors, and render
/// the outcome. The outcome is the same at every shard count.
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
        fingerprint: world.fingerprint(),
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
    use crate::spec::{AppSpec, CellCheck, FaultCase, Pathology};
    use fixd_runtime::{Context, Message, NetworkConfig, Pid, Program};
    use std::sync::Arc;

    /// Two processes that ping each other; pid 1 panics on its first
    /// message with a marker the campaign caller must see.
    struct Bomb;

    impl Program for Bomb {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                ctx.send(Pid(1), 0, vec![1]);
            }
        }
        fn on_message(&mut self, ctx: &mut Context, _: &Message) {
            panic!("campaign cell bomb on {}", ctx.pid());
        }
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore(&mut self, _: &[u8]) {}
        fn clone_program(&self) -> Box<dyn Program> {
            Box::new(Bomb)
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn bomb_campaign(threads: usize, shards: usize) {
        let spec = CampaignSpec::new()
            .app(AppSpec {
                name: "bomb",
                supports: &[Pathology::Clean],
                build: Arc::new(|cfg| {
                    let mut w = World::new(cfg);
                    w.add_process(Box::new(Bomb));
                    w.add_process(Box::new(Bomb));
                    w
                }),
                monitors: Arc::new(Vec::new),
                check: Arc::new(|_, _, _| CellCheck::default()),
            })
            .case(FaultCase::net_only(
                "clean",
                Pathology::Clean,
                NetworkConfig::default(),
            ))
            .seeds(0..4);
        run_campaign_sharded(&spec, threads, shards);
    }

    #[test]
    #[should_panic(expected = "campaign cell bomb on P1")]
    fn a_panicking_cell_surfaces_with_its_own_message() {
        bomb_campaign(2, 1);
    }

    #[test]
    #[should_panic(expected = "campaign cell bomb on P1")]
    fn a_panicking_sharded_cell_surfaces_with_its_own_message() {
        bomb_campaign(4, 2);
    }

    #[test]
    fn single_cell_runs_and_reports() {
        let spec = standard_matrix(&[1]);
        let cells = spec.cells();
        let out = run_cell_sharded(&spec, &cells[0], 1);
        assert!(out.steps > 0);
        assert!(out.quiescent);
        assert!(out.violation.is_none());
        assert!(out.check_failure.is_none(), "{:?}", out.check_failure);
    }

    #[test]
    fn driver_executes_every_cell_exactly_once() {
        let spec = standard_matrix(&[0, 1]);
        let report = run_campaign_sharded(&spec, 3, 1);
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
        let report = run_campaign_sharded(&spec, 4, 1);
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
        let single = run_campaign_sharded(&spec, 1, 1);
        for (a, b) in report.cells.iter().zip(&single.cells) {
            assert_eq!(a.payload_copied, b.payload_copied, "{}/{}", a.app, a.case);
            assert_eq!(a.payload_aliased, b.payload_aliased);
        }
    }

    #[test]
    fn worker_budget_spends_the_product_not_the_factor() {
        // 8 workers × 4 shards would be 32 threads; the budget caps the
        // outer pool so the product stays within the 8-thread budget.
        assert_eq!(worker_budget(8, 4), 2);
        assert_eq!(worker_budget(8, 1), 8);
        assert_eq!(worker_budget(8, 8), 1);
        // Fan-out wider than the budget: still one worker, never zero.
        assert_eq!(worker_budget(2, 16), 1);
        assert_eq!(worker_budget(1, 1), 1);
        // Degenerate zero fan-out is treated as serial, not a panic.
        assert_eq!(worker_budget(8, 0), 8);
    }
}
