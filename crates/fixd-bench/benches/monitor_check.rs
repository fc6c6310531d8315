//! What one monitor check costs, and what one explored state costs the
//! Investigator, on the pipeline's `results-correct` invariant — the
//! per-layer figure `fixd-benchmark`'s traced copy of the supervise
//! loop cannot show (it calls `Monitor::violated_in` itself).
//!
//! The world is a source → cruncher pipeline of `n` items (`crunch` at
//! 50 rounds, as on `heal-loop`).
//!
//! Series:
//!
//! * `violated_in/<n>` at 32, 144, 256: the stateless full check of a
//!   world with `n` results — every result re-derived;
//! * ns per check: a clean `Fixd::supervise` run to quiescence, timed
//!   by hand with no monitor, with the invariant as a plain
//!   `Monitor::local` (checked in full after every step) and with the
//!   item-wise `pipeline::results_monitor`. The table takes the
//!   unmonitored run off the other two and divides by the steps: the
//!   average over a list that grows from 0 to `n`;
//! * per explored state: the exploration of the checkpoint assembled
//!   after a fault at item 3n/4, under `Monitor::invariant` (every
//!   result re-derived in every state), and under `Fixd::investigate`
//!   by a supervisor that never supervised (its invariant verifies the
//!   root's results once, then what each state adds) and by the one
//!   that detected the fault (it verifies only what each state adds),
//!   divided by the states;
//! * `item_ok` calls over one whole loop — detect, `diagnose`,
//!   `heal_update`, resume — of an `n`-item pipeline, by phase.
//!
//! Expected shape: a full check costs one `crunch` (≈ 170 ns) a result,
//! so the plain form averages half of `violated_in/<n>`; the item-wise
//! form is one `crunch` plus an equality pass over the list (≈ 0.3 µs
//! at 144); a seeded state costs the exploration itself plus one
//! `crunch` for the one result it adds, an unseeded one that plus the
//! root's full check shared out over the states, and a plain one the
//! full check each. The whole loop verifies the results up to the
//! poisoned one while detecting, one per explored state while
//! diagnosing, none while healing, and the re-derived suffix on resume.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fixd_core::{Fixd, FixdConfig, Monitor};
use fixd_examples::pipeline::{self, Cruncher};
use fixd_investigator::{ModelD, WorldState};
use fixd_runtime::Pid;

const COST: u64 = 50;
const SIZES: [u64; 3] = [32, 144, 256];
/// Hand-timed repetitions behind the tables.
const REPS: u32 = 200;

/// `pipeline::results_monitor` without the item-wise shape.
fn plain_monitor() -> Monitor {
    Monitor::local::<Cruncher>("results-correct", |_, c| {
        c.results
            .iter()
            .all(|&(i, r)| r == pipeline::crunch(i, c.cost))
    })
}

fn supervisor(monitor: Option<Monitor>) -> Fixd {
    let fixd = Fixd::new(2, FixdConfig::seeded(1));
    monitor.into_iter().fold(fixd, Fixd::monitor)
}

/// Mean µs of `f` over [`REPS`] runs, and its last result.
fn mean_us<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let t = Instant::now();
    let mut last = None;
    for _ in 0..REPS {
        last = Some(black_box(f()));
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
    (us, last.expect("REPS > 0"))
}

/// The checkpoint the Investigator is handed when item 3n/4 of `n` is
/// poisoned, and the supervisor that detected it.
fn detected(n: u64) -> (Fixd, WorldState) {
    let mut world = pipeline::pipeline_world(1, n, COST, Some(n * 3 / 4));
    let mut fixd = supervisor(Some(pipeline::results_monitor()));
    let fault = fixd.supervise(&mut world, 100_000).fault.expect("poison");
    let state = fixd.respond(&mut world, &fault).expect("rollback").state;
    (fixd, state)
}

fn bench_monitor_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("violated_in");
    for n in SIZES {
        let mut world = pipeline::pipeline_world(1, n, COST, None);
        world.run_to_quiescence(100_000);
        let monitor = pipeline::results_monitor();
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| monitor.violated_in(black_box(&world)))
        });
    }
    group.finish();

    println!("\nns per check, averaged over a clean supervised run:");
    println!(
        "{:>8} {:>8} {:>10} {:>10}",
        "results", "steps", "plain", "item-wise"
    );
    for n in SIZES {
        // The three forms back to back in every round, medians taken
        // per form: drift hits all three alike.
        let forms = [
            None,
            Some(plain_monitor()),
            Some(pipeline::results_monitor()),
        ];
        let mut ns: [Vec<f64>; 3] = Default::default();
        let mut steps = 0;
        for _ in 0..REPS {
            for (monitor, ns) in forms.iter().zip(&mut ns) {
                let mut world = pipeline::pipeline_world(1, n, COST, None);
                let mut fixd = supervisor(monitor.clone());
                let t = Instant::now();
                steps = black_box(fixd.supervise(&mut world, 100_000)).steps;
                ns.push(t.elapsed().as_secs_f64() * 1e9);
            }
        }
        let [bare, plain, itemwise] = ns.map(|mut v| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        });
        let per_check = |total: f64| (total - bare) / steps as f64;
        println!(
            "{n:>8} {steps:>8} {:>10.0} {:>10.0}",
            per_check(plain),
            per_check(itemwise)
        );
    }

    println!("\nµs per explored state:");
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>10}",
        "results", "states", "plain", "unseeded", "seeded"
    );
    for n in SIZES {
        let (seeded, state) = detected(n);
        let unseeded = supervisor(Some(pipeline::results_monitor()));
        let per_state = |explore: &dyn Fn() -> usize| {
            let (us, states) = mean_us(explore);
            (states, us / states as f64)
        };
        let cfg = FixdConfig::seeded(1);
        let (states, plain) = per_state(&|| {
            ModelD::from_checkpoint(cfg.seed, cfg.net_model, state.clone())
                .config(cfg.explore.clone())
                .invariant(pipeline::results_monitor().invariant())
                .run()
                .states
        });
        let (cold_states, cold) = per_state(&|| unseeded.investigate(state.clone()).states);
        let (warm_states, warm) = per_state(&|| seeded.investigate(state.clone()).states);
        assert_eq!(
            (states, states),
            (cold_states, warm_states),
            "memory must not change the exploration"
        );
        println!("{n:>8} {states:>8} {plain:>10.2} {cold:>10.2} {warm:>10.2}");
    }

    println!("\nitem_ok calls over one whole loop:");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "results", "detect", "diagnose", "heal", "resume", "loop"
    );
    for n in SIZES {
        let calls = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&calls);
        let monitor = Monitor::local_items(
            "results-correct",
            |c: &Cruncher| (c.cost, c.results.as_slice()),
            move |_, &cost, &(item, result)| {
                counter.fetch_add(1, Ordering::Relaxed);
                result == pipeline::crunch(item, cost)
            },
        );
        let counted = || calls.swap(0, Ordering::Relaxed);
        let mut world = pipeline::pipeline_world(1, n, COST, Some(n * 3 / 4));
        let mut fixd = supervisor(Some(monitor));
        let fault = fixd.supervise(&mut world, 100_000).fault.expect("poison");
        let detect = counted();
        fixd.diagnose(&mut world, fault).expect("diagnose");
        let diagnose = counted();
        fixd.heal_update(&mut world, Pid(1), &pipeline::cruncher_patch(COST))
            .expect("heal");
        let heal = counted();
        assert!(fixd.supervise(&mut world, 100_000).quiescent);
        let resume = counted();
        let total = detect + diagnose + heal + resume;
        println!("{n:>8} {detect:>8} {diagnose:>8} {heal:>8} {resume:>8} {total:>8}");
    }
}

criterion_group!(benches, bench_monitor_check);
criterion_main!(benches);
