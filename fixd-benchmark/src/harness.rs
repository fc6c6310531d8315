//! What every workload shares: arguments, the round clock, the op
//! ledger behind `attempted`/`failed`, and the end-to-end summary.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::Metrics;
use crate::stats::{median, percentile};
use crate::trace::{Name, Tracer};

/// All load is closed-loop batch work from one process with these
/// fixed: campaign worker budget and shards per sharded cell. The host
/// this was sized on has two cores.
pub const THREADS: usize = 2;
pub const SHARDS: usize = 2;

pub struct Args {
    /// Workload seed; every world seed derives from it.
    pub seed: u64,
    /// Timed rounds repeat until this much wall time has passed.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes for the test suite (never for reported numbers).
    pub smoke: bool,
}

impl Args {
    /// `full` at the benchmark's scale, `smoke` under `--scale smoke`.
    pub fn size<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Seconds each phase measures for: an untraced run has one phase,
    /// a traced run an untraced and a traced one.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Fewest timed rounds a rate is the median of.
    pub fn min_rounds(&self) -> usize {
        self.size(3, 2)
    }
}

/// A seed for stream `stream`, item `i`, derived from the workload seed
/// (splitmix64 finaliser: nearby inputs give unrelated seeds).
pub fn derive_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Repeats rounds until `seconds` have passed, and at least `min` times.
pub struct Clock {
    start: Instant,
    seconds: f64,
    min: usize,
    pub rounds: usize,
}

impl Clock {
    pub fn new(seconds: f64, min: usize) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            min,
            rounds: 0,
        }
    }

    /// True while another round should run (and counts it).
    pub fn more(&mut self) -> bool {
        let go = self.rounds < self.min || self.start.elapsed().as_secs_f64() < self.seconds;
        self.rounds += usize::from(go);
        go
    }
}

/// Run `f`, returning its result and wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Ops attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Ledger {
    /// One op; `problem` is `Some(reason)` when an output check failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = problem {
            self.fail(reason);
        }
    }

    /// Count a failure of an op already attempted.
    pub fn fail(&mut self, reason: String) {
        self.fail_n(1, reason);
    }

    /// Count `n` failed ops that share one reason.
    pub fn fail_n(&mut self, n: u64, reason: String) {
        self.failed += n;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }
}

/// First failed check of an op, if any: `check(ok, || reason)`.
pub fn first_problem(checks: &[(bool, &dyn Fn() -> String)]) -> Option<String> {
    checks.iter().find(|(ok, _)| !ok).map(|(_, why)| why())
}

/// What one run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    pub ledger: Ledger,
    /// Deterministic counts of one round at this seed (compared with
    /// `expected.json` at the default seed, and between runs by tests).
    pub counts: BTreeMap<&'static str, u64>,
    pub metrics: Metrics,
}

/// The timed, untraced part of a run, from which the end-to-end
/// metrics are computed.
#[derive(Default)]
pub struct Timed {
    /// Wall seconds of each set-up (inputs, build, reference results).
    pub setups: Vec<f64>,
    /// Units of work per second, one per timed batch. A batch is the
    /// finest slice whose wall the real entry points expose — a world,
    /// a hundred loops, an exploration, a campaign call — so that a
    /// burst of interference on the host spoils few of the samples the
    /// median is taken over.
    pub rates: Vec<f64>,
    /// Latency in µs of every user-visible operation, one list per
    /// round. Rounds are identical, so a tail the program causes shows
    /// in every round and a burst of interference on the host in few:
    /// each percentile is taken per round, then the median over rounds.
    op_us: Vec<Vec<f64>>,
    /// Units of work in one round.
    pub ops_per_round: u64,
    /// Timed rounds run.
    pub rounds: usize,
}

impl Timed {
    /// Start the latency list of the next round.
    pub fn begin_round(&mut self) {
        self.op_us.push(Vec::new());
    }

    /// Record one operation's latency in the current round.
    pub fn op_us(&mut self, us: f64) {
        self.op_us
            .last_mut()
            .expect("begin_round precedes the round's operations")
            .push(us);
    }

    fn op_percentile(&self, q: f64) -> f64 {
        let per_round: Vec<f64> = self.op_us.iter().map(|r| percentile(r, q)).collect();
        median(&per_round)
    }

    /// Set the five end-to-end metrics (untraced runs) or their
    /// per-layer context (traced runs).
    pub fn summarise(&self, args: &Args, traced_rounds: usize, m: &mut Metrics) {
        if args.trace {
            m.set("bench.cores", available_cores() as f64);
            m.set("bench.threads", THREADS as f64);
            m.set("bench.shards", SHARDS as f64);
            m.set("bench.rounds", self.rounds as f64);
            m.set("bench.rate_samples", self.rates.len() as f64);
            m.set("bench.traced_rounds", traced_rounds as f64);
            m.set("bench.ops_per_round", self.ops_per_round as f64);
            let samples: usize = self.op_us.iter().map(Vec::len).sum();
            m.set("bench.latency_samples", samples as f64);
        } else {
            m.set("setup_s", median(&self.setups));
            m.set("ops_per_s", median(&self.rates));
            m.set("op_us_p50", self.op_percentile(0.5));
            m.set("op_us_p90", self.op_percentile(0.9));
            m.set("peak_rss_mb", peak_rss_mb());
        }
    }
}

/// End a traced run: set every metric that is a statistic of one span
/// name — whichever spans the workload recorded; the others read 0 —
/// and the tracer's own three, then write the spans out. `overhead` is
/// traced wall ÷ untraced wall − 1 of the same work.
pub fn trace_metrics(tr: &Tracer, workload: &str, overhead: f64, m: &mut Metrics) {
    use Name::*;
    for (metric, span) in [
        ("runtime.step_ns", Step),
        ("runtime.peek_ns", Peek),
        ("scroll.observe_ns", Observe),
        ("timemachine.before_step_ns", TmBefore),
        ("timemachine.after_step_ns", TmAfter),
        ("core.monitor_ns", Monitor),
    ] {
        m.set(metric, tr.mean_ns(span));
    }
    for (metric, span) in [
        ("runtime.world_build_us", WorldBuild),
        ("runtime.snapshot_us", Snapshot),
        ("timemachine.gc_us", Gc),
        ("timemachine.choose_target_us", ChooseTarget),
        ("timemachine.rollback_us", Rollback),
        ("core.fixd_new_us", FixdNew),
        ("core.assemble_us", Assemble),
        ("core.report_render_us", ReportRender),
        ("campaign.check_us", Check),
    ] {
        m.set(metric, tr.mean_ns(span) / 1e3);
    }
    for (metric, span, q) in [
        ("core.detect_us_p50", Detect, 0.5),
        ("core.resume_us_p50", Resume, 0.5),
        ("investigator.investigate_us_p50", Investigate, 0.5),
        ("investigator.investigate_us_p90", Investigate, 0.9),
        ("healer.update_us_p50", HealUpdate, 0.5),
        ("healer.update_us_p90", HealUpdate, 0.9),
    ] {
        m.set(metric, percentile(&tr.agg(span).samples_us, q));
    }
    let (steps, ops) = (tr.agg(Step), tr.agg(Op));
    m.set_ratio(
        "runtime.allocs_per_step",
        steps.allocs as f64,
        steps.count as f64,
    );
    m.set_ratio("core.glue_ns", tr.glue_ns(), steps.count as f64);
    m.set_ratio("core.allocs_per_op", ops.allocs as f64, ops.count as f64);
    m.set("trace.coverage_frac", tr.coverage());
    m.set("trace.overhead_frac", overhead);
    m.set("trace.spans", tr.spans() as f64);
    crate::write_spans(tr, workload);
}

pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of u64 fields — the digest behind the pinned
/// "behaviour" hashes (no byte-size fields go in, so an optimisation
/// may shrink footprints without changing a digest).
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Self(fixd::store::fnv1a(&[]))
    }

    pub fn u64(&mut self, v: u64) {
        self.0 = fixd::store::fnv1a_extend(self.0, &v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.0 = fixd::store::fnv1a_extend(self.0, s.as_bytes());
        self.u64(s.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_runs_the_minimum_then_stops_on_time() {
        let mut c = Clock::new(0.0, 3);
        let mut n = 0;
        while c.more() {
            n += 1;
        }
        assert_eq!((n, c.rounds), (3, 3));
    }

    #[test]
    fn derived_seeds_differ_by_every_argument() {
        let base = derive_seed(1, 2, 3);
        assert_eq!(base, derive_seed(1, 2, 3));
        for other in [
            derive_seed(2, 2, 3),
            derive_seed(1, 3, 3),
            derive_seed(1, 2, 4),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn ledger_counts_ops_and_failures() {
        let mut l = Ledger::default();
        l.op(None);
        l.op(first_problem(&[
            (true, &|| "a".into()),
            (false, &|| "b".into()),
        ]));
        assert_eq!((l.attempted, l.failed), (2, 1));
        assert_eq!(l.reasons, ["b"]);
    }
}
