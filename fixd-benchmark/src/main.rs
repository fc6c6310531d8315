//! The tracked benchmark of the fixd workspace: six workloads over the
//! supervise → detect → diagnose → heal loop. See `README.md` beside
//! this package for the metric tables and how to run, trace and compare.

mod campaign;
mod compare;
mod explore;
mod harness;
mod heal;
mod json;
mod metrics;
mod stats;
mod steady;
mod supervise;
mod trace;

use std::process::{Command, ExitCode};

use harness::{Args, Outcome};
use metrics::{END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Name and reason of every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "steady-wide",
    "steady-spill",
    "heal-loop",
    "explore-chordkv",
    "campaign-narrow",
    "campaign-wide-sharded",
];

/// The seed `expected.json` pins deterministic counts for.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "\
usage: fixd-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale smoke]
       fixd-benchmark --all [--seed N] [--seconds S] [--trace 0|1] [--runs K] [--repeat N] [--out PREFIX]
       fixd-benchmark --compare a.json b.json
workloads: steady-wide steady-spill heal-loop explore-chordkv campaign-narrow campaign-wide-sharded";

pub fn run_workload(name: &str, args: &Args) -> Option<Outcome> {
    Some(match name {
        "steady-wide" => steady::run(args, false),
        "steady-spill" => steady::run(args, true),
        "heal-loop" => heal::run(args),
        "explore-chordkv" => explore::run(args),
        "campaign-narrow" => campaign::run(args, false),
        "campaign-wide-sharded" => campaign::run(args, true),
        _ => return None,
    })
}

/// Write a traced run's spans next to the executable, i.e. inside the
/// build directory. Best effort: the numbers do not depend on it.
pub fn write_spans(tr: &trace::Tracer, workload: &str) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("fixd-benchmark-spans")))
    else {
        return;
    };
    let path = dir.join(format!("{workload}.spans.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

/// Deterministic counts that differ from `expected.json` (default seed,
/// full scale only): a speed-up may not change a simulated statistic.
fn pinned_mismatches(workload: &str, out: &Outcome) -> Vec<String> {
    let expected = json::parse(include_str!("../expected.json")).expect("expected.json parses");
    let Some(pinned) = expected.get(workload).and_then(json::Value::as_obj) else {
        return vec![format!("expected.json has no entry for {workload}")];
    };
    let mut bad: Vec<String> = pinned
        .iter()
        .filter_map(|(k, v)| {
            // Counts are stored as strings: a 64-bit hash does not fit
            // a JSON number exactly.
            let want = v.as_str().and_then(|s| s.parse::<u64>().ok());
            let got = out.counts.get(k.as_str()).copied();
            (want != got).then(|| format!("{workload}.{k}: expected {want:?}, measured {got:?}"))
        })
        .collect();
    bad.extend(
        out.counts
            .keys()
            .filter(|k| !pinned.contains_key(**k))
            .map(|k| format!("{workload}.{k}: measured but not in expected.json")),
    );
    bad
}

struct Cli {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: u64,
    repeat: u64,
    out: Option<String>,
    print_counts: bool,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        compare: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 1,
        repeat: 1,
        out: None,
        print_counts: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--all" => cli.all = true,
            "--compare" => cli.compare = Some((value()?, value()?)),
            "--seed" => cli.seed = num(flag, value()?)?,
            "--seconds" => cli.seconds = num(flag, value()?)?,
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: bad value `{v}`")),
                }
            }
            "--scale" => {
                cli.smoke = match value()?.as_str() {
                    "smoke" => true,
                    "full" => false,
                    v => return Err(format!("--scale: bad value `{v}`")),
                }
            }
            "--runs" => cli.runs = num(flag, value()?)?,
            "--repeat" => cli.repeat = num(flag, value()?)?,
            "--out" => cli.out = Some(value()?),
            "--print-counts" => cli.print_counts = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(cli.seconds >= 0.0 && cli.seconds <= 600.0) {
        return Err("--seconds must be within 0..=600".into());
    }
    Ok(cli)
}

/// Run one workload in this process and print its result: every metric
/// by name with its unit, then the one-line JSON object the driver
/// reads. Any failed output check exits non-zero *without* a result.
fn single(cli: &Cli, workload: &str) -> ExitCode {
    let args = Args {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    if args.trace {
        trace::arm_alloc_counter();
    }
    let Some(out) = run_workload(workload, &args) else {
        eprintln!("unknown workload `{workload}`\n{USAGE}");
        return ExitCode::from(2);
    };
    if cli.print_counts {
        let fields: Vec<String> = out
            .counts
            .iter()
            .map(|(k, v)| format!("{}: \"{v}\"", json::quote(k)))
            .collect();
        println!("{}: {{{}}}", json::quote(workload), fields.join(", "));
    }
    let mut problems = out.ledger.reasons.clone();
    if !args.smoke && args.seed == DEFAULT_SEED {
        problems.extend(pinned_mismatches(workload, &out));
    }
    if out.ledger.failed > 0 || !problems.is_empty() {
        eprintln!(
            "{workload}: {} of {} operations failed their output checks; problems:",
            out.ledger.failed, out.ledger.attempted
        );
        for p in &problems {
            eprintln!("  {p}");
        }
        return ExitCode::FAILURE;
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{workload}: seed {} trace {} cores {} threads {} shards {}",
        args.seed,
        u8::from(args.trace),
        harness::available_cores(),
        harness::THREADS,
        harness::SHARDS
    );
    for d in defs {
        let v = out.metrics.get(d.name).unwrap_or(0.0);
        println!("  {:<40} {v:>16.4} {}", d.name, d.unit);
    }
    if let Some(coverage) = out.metrics.get("trace.coverage_frac") {
        if !args.smoke && coverage < 0.9 {
            eprintln!("{workload}: trace.coverage_frac {coverage:.3} < 0.9");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
        out.ledger.attempted,
        out.metrics.to_json(defs, !args.trace)
    );
    ExitCode::SUCCESS
}

/// Run every workload, each in its own child process (so `peak_rss_mb`
/// is per workload), `runs` times with consecutive seeds; with `--out`
/// write each of the `repeat` sets to `PREFIX.<set>.json`.
fn all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    for set in 1..=cli.repeat {
        let mut records = Vec::new();
        for workload in WORKLOADS {
            for run in 0..cli.runs {
                let seed = cli.seed + run;
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &cli.seconds.to_string()])
                    .args(["--trace", if cli.trace { "1" } else { "0" }]);
                if cli.smoke {
                    cmd.args(["--scale", "smoke"]);
                }
                // `output` waits for the child to end.
                let output = match cmd.output() {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("{workload}: cannot start the child process: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let stdout = String::from_utf8_lossy(&output.stdout);
                if !output.status.success() {
                    eprint!("{}", String::from_utf8_lossy(&output.stderr));
                    eprintln!("{workload}: seed {seed} failed ({})", output.status);
                    return ExitCode::FAILURE;
                }
                let stdout = stdout.trim_end();
                let (table, last) = stdout.rsplit_once('\n').unwrap_or(("", stdout));
                println!("{table}");
                records.push(format!(
                    "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"result\": {last}}}",
                    json::quote(workload),
                    u8::from(cli.trace)
                ));
            }
        }
        if let Some(prefix) = &cli.out {
            let path = format!("{prefix}.{set}.json");
            let body = format!("{{\"runs\": [\n{}\n]}}\n", records.join(",\n"));
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("set {set} written to {path}");
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return compare::run(a, b);
    }
    if cli.all {
        return all(&cli);
    }
    match &cli.workload {
        Some(w) => single(&cli, w),
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
