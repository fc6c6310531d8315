//! **Experiment F1** (paper Fig. 1, §2.2, §3.1): the Scroll's recording
//! cost and log size.
//!
//! Series:
//! * `bare`   — run the world with no logging at all (the floor);
//! * `scroll` — FixD's Scroll: record only nondeterministic actions;
//! * `printf` — format-everything printf debugging (the §1 strawman);
//! * `liblog` — full liblog-style recording (drops included).
//!
//! Expected shape: scroll overhead small and linear in nondeterministic
//! events; printf pays string formatting on every event and effect;
//! the byte-size ordering printed at the end is
//! `scroll < liblog < printf`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fixd_baselines::{Liblog, PrintfLogger};
use fixd_bench::gossip_world;
use fixd_scroll::{record::record_run, RecordConfig, ScrollStats};

fn bench_recording(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_scroll_overhead");
    group.sample_size(20);
    for &n in &[4usize, 8] {
        group.bench_with_input(BenchmarkId::new("bare", n), &n, |b, &n| {
            b.iter(|| {
                let mut w = gossip_world(n, 7, 256, false);
                w.run_to_quiescence(1_000_000)
            });
        });
        group.bench_with_input(BenchmarkId::new("scroll", n), &n, |b, &n| {
            b.iter(|| {
                let mut w = gossip_world(n, 7, 256, false);
                record_run(&mut w, RecordConfig::default(), 1_000_000)
            });
        });
        group.bench_with_input(BenchmarkId::new("printf", n), &n, |b, &n| {
            b.iter(|| {
                let mut w = gossip_world(n, 7, 256, false);
                let mut log = PrintfLogger::new();
                while let Some(step) = w.step() {
                    log.observe(&step);
                }
                log.bytes()
            });
        });
        group.bench_with_input(BenchmarkId::new("liblog", n), &n, |b, &n| {
            b.iter(|| {
                let mut w = gossip_world(n, 7, 256, false);
                Liblog::record(&mut w, 7, 1_000_000)
            });
        });
    }
    group.finish();

    // Size table (printed once; the shape claim of F1).
    println!("\n--- F1 log sizes (gossip, n=8) ---");
    let mut w = gossip_world(8, 7, 256, false);
    let (store, report) = record_run(&mut w, RecordConfig::default(), 1_000_000);
    let stats = ScrollStats::compute(&store);
    let mut w2 = gossip_world(8, 7, 256, false);
    let mut printf = PrintfLogger::new();
    while let Some(step) = w2.step() {
        printf.observe(&step);
    }
    let mut w3 = gossip_world(8, 7, 256, false);
    let (ll, _) = Liblog::record(&mut w3, 7, 1_000_000);
    println!("events executed : {}", report.steps);
    println!(
        "scroll          : {} entries, {} B ({})",
        stats.total_entries,
        stats.encoded_bytes,
        stats.summary()
    );
    println!("liblog          : {} B", ll.log_bytes());
    println!(
        "printf          : {} lines, {} B",
        printf.len(),
        printf.bytes()
    );
}

criterion_group!(benches, bench_recording);
criterion_main!(benches);
