//! `campaign-narrow` and `campaign-wide-sharded`.
//!
//! Narrow: the standard matrix × 256 seeds — thousands of cells of about
//! 19 steps each, so `World`/`Fixd` construction, teardown, snapshot
//! fingerprinting and driver fan-out are the cost and the steady-state
//! step loop does little. Wide: handler-heavy 96-member Chord cells on
//! `ShardedWorld` plus the serial mirror replay — the only workload on
//! that executor. A wide round is 4 seeds (8 cells, under a second), so
//! that ten seconds give a dozen campaign calls to take medians over
//! and one burst of interference on the host spoils few of them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use fixd::campaign::{
    run_campaign_sharded, run_cell_sharded, run_cell_sharded_timed, standard_matrix,
    wide_matrix_work, CampaignReport, CampaignSpec, Cell, CellOutcome,
};
use fixd::core::FixdConfig;
use fixd::runtime::WorldConfig;

use crate::harness::{
    derive_seed, first_problem, timed, trace_metrics, Args, Clock, Digest, Ledger, Outcome, Timed,
    SHARDS, THREADS,
};
use crate::stats::{median, percentile};
use crate::supervise::TracedSession;
use crate::trace::{Name, Tracer};

/// Per-delivery compute burn of the wide cells' Chord members.
const WIDE_WORK: u64 = 2000;

/// Everything one round needs before its clock starts.
struct Round {
    spec: CampaignSpec,
    /// Outcomes of the first cells on the canonical serial path
    /// (`run_cell_sharded` at one shard), which the driver's report —
    /// from two threads, or from two shards and the mirror replay —
    /// must reproduce.
    reference: Vec<CellOutcome>,
}

fn set_up(args: &Args, wide: bool) -> Round {
    let seeds: Vec<u64> = (0..if wide {
        args.size(4, 1)
    } else {
        args.size(256, 4)
    })
        // Small seeds, like every campaign in the repository's tests.
        .map(|i| derive_seed(args.seed, 0xCA4B, i) % (1 << 32))
        .collect();
    let spec = if wide {
        wide_matrix_work(args.size(96, 16), &seeds, args.size(WIDE_WORK, 50))
    } else {
        standard_matrix(&seeds)
    };
    let reference = spec
        .cells()
        .iter()
        .take(if wide { 2 } else { args.size(32, 8) })
        .map(|cell| run_cell_sharded(&spec, cell, 1))
        .collect();
    Round { spec, reference }
}

/// Shards per cell: the wide workload is the sharded one.
fn shards(wide: bool) -> usize {
    if wide {
        SHARDS
    } else {
        1
    }
}

/// The behaviour of a report, without its byte-size fields (checkpoint
/// and payload bytes), which an optimisation may legitimately shrink.
fn behaviour_digest(report: &CampaignReport) -> u64 {
    let mut d = Digest::new();
    for c in &report.cells {
        d.str(&c.app);
        d.str(&c.case);
        d.str(c.violation.as_deref().unwrap_or(""));
        d.str(c.check_failure.as_deref().unwrap_or(""));
        for v in [
            c.seed,
            c.steps,
            c.end_time,
            u64::from(c.quiescent),
            c.delivered,
            c.dropped,
            c.duplicated,
            c.corrupted,
            c.scroll_entries,
            c.checkpoints,
            c.fingerprint,
        ] {
            d.u64(v);
        }
        for (k, v) in &c.metrics {
            d.str(k);
            d.u64(*v);
        }
    }
    d.0
}

/// Check a report against the spec and the reference; one op per cell.
fn check_report(
    what: &str,
    r: &Round,
    report: &CampaignReport,
    first: Option<&CampaignReport>,
    ledger: &mut Ledger,
) {
    ledger.attempted += report.total_cells() as u64;
    let drifted = report
        .cells
        .iter()
        .zip(&r.reference)
        .filter(|(a, b)| a != b)
        .count();
    let bad = report.violations() + report.check_failures() + drifted;
    if let Some(reason) = first_problem(&[
        (report.total_cells() == r.spec.expected_cells(), &|| {
            format!(
                "{what}: {} cells, expected {}",
                report.total_cells(),
                r.spec.expected_cells()
            )
        }),
        (bad == 0, &|| {
            format!(
                "{what}: {} violations, {} check failures, {drifted} cells differ from the serial reference",
                report.violations(),
                report.check_failures()
            )
        }),
        (first.is_none_or(|f| f == report), &|| {
            format!("{what}: report differs between rounds")
        }),
    ]) {
        ledger.fail_n(bad.max(1) as u64, reason);
    }
}

/// The traced copy of the driver's serial `run_cell`, public calls
/// only. Returns what is wrong with the cell, if anything.
fn traced_cell(r: &Round, cell: &Cell, tr: &mut Tracer) -> Option<String> {
    let spec = &r.spec;
    let app = &spec.apps[cell.app];
    let case = &spec.cases[cell.case];
    tr.enter_op(cell.index as u32);
    let mut world = tr.call(Name::WorldBuild, || {
        let mut cfg = WorldConfig::seeded(cell.seed);
        cfg.net = case.net.clone();
        let mut world = (app.build)(cfg);
        let n = world.num_procs();
        world.set_fault_plan((case.plan)(n, cell.seed));
        world
    });
    let mut session = TracedSession::new(
        world.num_procs(),
        FixdConfig::seeded(cell.seed),
        (app.monitors)(),
        tr,
    );
    tr.enter(Name::Detect);
    let out = session.supervise(&mut world, spec.max_steps, tr);
    tr.exit(Name::Detect);
    let check = tr.call(Name::Check, || {
        (app.check)(&world, case, out.fault.as_ref())
    });
    let fingerprint = tr.call(Name::Snapshot, || world.global_snapshot().fingerprint());
    tr.exit(Name::Op);
    let index = cell.index;
    first_problem(&[
        (check.failure.is_none() && out.fault.is_none(), &|| {
            format!("traced cell {index}: violation or check failure")
        }),
        (
            r.reference
                .get(index)
                .is_none_or(|x| (x.steps, x.fingerprint) == (out.steps, fingerprint)),
            &|| format!("traced cell {index}: differs from the serial reference"),
        ),
    ])
}

/// `CellTiming` sums over the wide cells of the traced rounds.
#[derive(Default)]
struct ShardedTimes {
    cells: u64,
    serial: u64,
    exec_s: f64,
    replay_s: f64,
    other_s: f64,
}

/// One traced round; returns its wall. Narrow: the bench-owned
/// `run_cell` copy fanned over `THREADS` workers like the driver's work
/// queue. Wide: the driver's own `run_cell_sharded_timed`, one cell at
/// a time (the driver's budget leaves one worker at two shards a cell).
fn traced_round(
    r: &Round,
    wide: bool,
    tr: &mut Tracer,
    sharded: &mut ShardedTimes,
    ledger: &mut Ledger,
) -> f64 {
    let cells = r.spec.cells();
    let start = Instant::now();
    if wide {
        for cell in &cells {
            tr.enter_op(cell.index as u32);
            let ((outcome, timing), wall) = timed(|| {
                tr.call(Name::CellSharded, || {
                    run_cell_sharded_timed(&r.spec, cell, SHARDS)
                })
            });
            tr.exit(Name::Op);
            sharded.cells += 1;
            sharded.serial += u64::from(timing.serial);
            sharded.exec_s += timing.exec_secs;
            sharded.replay_s += timing.supervise_secs;
            sharded.other_s += wall - timing.exec_secs - timing.supervise_secs;
            ledger.op(first_problem(&[
                (!timing.serial, &|| {
                    format!("cell {}: fell back to the serial path", cell.index)
                }),
                (
                    outcome.violation.is_none() && outcome.check_failure.is_none(),
                    &|| format!("cell {}: violation or check failure", cell.index),
                ),
                (
                    r.reference.get(cell.index).is_none_or(|x| x == &outcome),
                    &|| format!("cell {}: differs from the serial reference", cell.index),
                ),
            ]));
        }
    } else {
        let next = AtomicUsize::new(0);
        let per_thread: Vec<(Tracer, Vec<Option<String>>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut tr = Tracer::new();
                        let mut problems = Vec::new();
                        while let Some(cell) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
                            problems.push(traced_cell(r, cell, &mut tr));
                        }
                        (tr, problems)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("traced campaign worker panicked"))
                .collect()
        });
        for (worker, problems) in per_thread {
            tr.merge(worker);
            problems.into_iter().for_each(|p| ledger.op(p));
        }
    }
    start.elapsed().as_secs_f64()
}

pub fn run(args: &Args, wide: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut timed_part = Timed::default();

    // One discarded warm-up round (first-touch page faults).
    let r = set_up(args, wide);
    let warm = run_campaign_sharded(&r.spec, THREADS, shards(wide));
    check_report("warm-up", &r, &warm, None, &mut out.ledger);

    let mut clock = Clock::new(args.phase_seconds(), args.min_rounds());
    let mut walls = Vec::new();
    while clock.more() {
        let (r, wall) = timed(|| set_up(args, wide));
        timed_part.setups.push(wall);
        let (report, wall) = timed(|| run_campaign_sharded(&r.spec, THREADS, shards(wide)));
        check_report("round", &r, &report, Some(&warm), &mut out.ledger);
        timed_part.rates.push(report.total_cells() as f64 / wall);
        timed_part.begin_round();
        timed_part.op_us(wall * 1e6);
        walls.push(wall);
    }
    let sum = |f: fn(&CellOutcome) -> u64| warm.cells.iter().map(f).sum::<u64>();
    let cells = warm.total_cells() as u64;
    let steps = sum(|c| c.steps);
    timed_part.rounds = clock.rounds;
    timed_part.ops_per_round = cells;
    out.counts.insert("cells", cells);
    out.counts.insert("steps", steps);
    out.counts
        .insert("scroll_entries", sum(|c| c.scroll_entries));
    out.counts.insert("checkpoints", sum(|c| c.checkpoints));
    out.counts
        .insert("report_behaviour_hash", behaviour_digest(&warm));

    let mut traced_rounds = 0;
    if args.trace {
        let r = set_up(args, wide);
        let mut tr = Tracer::new();
        let mut sharded = ShardedTimes::default();
        let mut traced_walls = Vec::new();
        let mut clock = Clock::new(args.phase_seconds(), args.min_rounds());
        while clock.more() {
            traced_walls.push(traced_round(
                &r,
                wide,
                &mut tr,
                &mut sharded,
                &mut out.ledger,
            ));
        }
        traced_rounds = clock.rounds;

        let name = if wide {
            "campaign-wide-sharded"
        } else {
            "campaign-narrow"
        };
        let overhead = median(&traced_walls) / median(&walls) - 1.0;
        let m = &mut out.metrics;
        trace_metrics(&tr, name, overhead, m);
        let per_step = |total: u64| total as f64 / steps as f64;
        let ops = tr.agg(Name::Op);
        let workers = if wide { 1 } else { THREADS };
        m.set(
            "runtime.payload_copied_b_per_step",
            per_step(sum(|c| c.payload_copied)),
        );
        m.set(
            "runtime.payload_aliased_b_per_step",
            per_step(sum(|c| c.payload_aliased)),
        );
        m.set("runtime.delivered_per_step", per_step(sum(|c| c.delivered)));
        m.set("scroll.entries", sum(|c| c.scroll_entries) as f64);
        m.set("timemachine.checkpoints", sum(|c| c.checkpoints) as f64);
        m.set(
            "timemachine.checkpoint_b_per_step",
            per_step(sum(|c| c.checkpoint_bytes)),
        );
        m.set("campaign.cell_us_p50", percentile(&ops.samples_us, 0.5));
        m.set("campaign.cell_us_p90", percentile(&ops.samples_us, 0.9));
        m.set("campaign.steps_per_cell", steps as f64 / cells as f64);
        m.set(
            "campaign.driver_efficiency",
            ops.total_ns as f64 / 1e9 / (workers as f64 * traced_walls.iter().sum::<f64>()),
        );
        m.set("campaign.sharded_exec_ms", sharded.exec_s * 1e3);
        m.set("campaign.sharded_replay_ms", sharded.replay_s * 1e3);
        m.set("campaign.sharded_other_ms", sharded.other_s * 1e3);
        m.set_ratio(
            "campaign.serial_fallback_frac",
            sharded.serial as f64,
            sharded.cells as f64,
        );
    }
    timed_part.summarise(args, traced_rounds, &mut out.metrics);
    out
}
