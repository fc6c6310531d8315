//! **Experiment F2** (paper Fig. 2, §4.2): checkpoint cost — speculation
//! copy-on-write vs eager full-copy vs none.
//!
//! §4.2's claim under test: *"checkpoints generated using speculations
//! introduce less overhead than certain types of traditional
//! checkpointing."* Same checkpoint schedule (before every receive),
//! three mechanisms, across state sizes. The table at the end puts both
//! sides of the claim next to each other — bytes held, and wall time per
//! checkpoint with COW and eager timed alternately in this process — and
//! the bench exits non-zero if COW costs more than [`MAX_COW_OVER_EAGER`]
//! times eager at the larger state. Restore latency is also measured.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fixd_baselines::FlashbackCheckpointer;
use fixd_bench::gossip_world;
use fixd_runtime::{EventKind, Pid};
use fixd_timemachine::{CheckpointPolicy, TimeMachine, TimeMachineConfig};

/// Gate on COW ÷ eager wall time at [`GATED_STATE`]. Hashing every byte of every
/// snapshot put it at 5.0x; comparing against the predecessor's pages
/// first puts it near 1.1x. Both sides run in one process, minutes
/// apart at most, so the host's speed cancels out of the ratio.
const MAX_COW_OVER_EAGER: f64 = 2.5;
const GATED_STATE: usize = 64 * 1024;

fn run_with_cow(n: usize, state: usize) -> usize {
    let mut w = gossip_world(n, 3, state, false);
    let mut tm = TimeMachine::new(
        n,
        TimeMachineConfig {
            policy: CheckpointPolicy::EveryReceive,
            page_size: 256,
        },
    );
    tm.run(&mut w, 1_000_000);
    tm.total_checkpoint_bytes()
}

/// Returns the bytes held and the number of checkpoints taken (one per
/// receive — the schedule both mechanisms follow).
fn run_with_eager(n: usize, state: usize) -> (usize, usize) {
    let mut w = gossip_world(n, 3, state, false);
    let mut fb = FlashbackCheckpointer::new(n);
    let mut taken = 0;
    while let Some(ev) = w.peek() {
        if let EventKind::Deliver { msg } = &ev.kind {
            fb.take(&w, msg.dst);
            taken += 1;
        }
        if w.step().is_none() {
            break;
        }
    }
    (fb.bytes_held(), taken)
}

/// Median wall time of `rounds` runs each of COW and eager, alternated
/// so that drift of the host lands on both.
fn time_cow_and_eager(n: usize, state: usize, rounds: usize) -> (Duration, Duration) {
    let mut cow = Vec::with_capacity(rounds);
    let mut eager = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        std::hint::black_box(run_with_cow(n, state));
        cow.push(t.elapsed());
        let t = Instant::now();
        std::hint::black_box(run_with_eager(n, state));
        eager.push(t.elapsed());
    }
    cow.sort();
    eager.sort();
    (cow[rounds / 2], eager[rounds / 2])
}

fn bench_checkpointing(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_checkpoint_overhead");
    group.sample_size(15);
    for &state in &[4 * 1024usize, 64 * 1024] {
        group.bench_with_input(BenchmarkId::new("none", state), &state, |b, &s| {
            b.iter(|| {
                let mut w = gossip_world(4, 3, s, false);
                w.run_to_quiescence(1_000_000)
            });
        });
        group.bench_with_input(
            BenchmarkId::new("cow_speculation", state),
            &state,
            |b, &s| {
                b.iter(|| run_with_cow(4, s));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("eager_full_copy", state),
            &state,
            |b, &s| {
                b.iter(|| run_with_eager(4, s));
            },
        );
    }
    group.finish();

    // Restore (rollback) latency.
    let mut group = c.benchmark_group("fig2_restore_latency");
    group.sample_size(15);
    for &state in &[4 * 1024usize, 64 * 1024] {
        group.bench_with_input(BenchmarkId::new("cow_restore", state), &state, |b, &s| {
            b.iter_batched(
                || {
                    let mut w = gossip_world(4, 3, s, false);
                    let mut tm = TimeMachine::new(
                        4,
                        TimeMachineConfig {
                            policy: CheckpointPolicy::EveryReceive,
                            page_size: 256,
                        },
                    );
                    tm.run(&mut w, 1_000_000);
                    let target = tm.interval(Pid(1)).saturating_sub(2);
                    (w, tm, target)
                },
                |(mut w, mut tm, target)| tm.rollback(&mut w, Pid(1), target).unwrap(),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();

    println!("\n--- F2 checkpoint cost (gossip n=4, checkpoint-before-every-receive) ---");
    println!(
        "{:>7}  {:>10} {:>11} {:>7}   {:>11} {:>11} {:>7}",
        "state B", "COW held B", "eager held", "ratio", "COW us/ckpt", "eager us/ck", "COW/eag"
    );
    let mut gated_ratio = 0.0;
    for &state in &[4 * 1024usize, GATED_STATE] {
        let cow = run_with_cow(4, state);
        let (eager, receives) = run_with_eager(4, state);
        let (cow_t, eager_t) = time_cow_and_eager(4, state, 31);
        let per_ckpt = |t: Duration| t.as_secs_f64() * 1e6 / receives as f64;
        let time_ratio = cow_t.as_secs_f64() / eager_t.as_secs_f64();
        if state == GATED_STATE {
            gated_ratio = time_ratio;
        }
        println!(
            "{:>7}  {:>10} {:>11} {:>6.1}x   {:>11.2} {:>11.2} {:>6.2}x",
            state,
            cow,
            eager,
            eager as f64 / cow as f64,
            per_ckpt(cow_t),
            per_ckpt(eager_t),
            time_ratio
        );
    }
    println!(
        "us/ckpt = median whole-run wall time / receives (31 alternated runs each; \
         the run's own stepping is in both)"
    );
    if gated_ratio > MAX_COW_OVER_EAGER {
        eprintln!(
            "FAIL: COW checkpointing takes {gated_ratio:.2}x eager at {GATED_STATE} B \
             (gate: <= {MAX_COW_OVER_EAGER}x)"
        );
        std::process::exit(1);
    }
}

criterion_group!(benches, bench_checkpointing);
criterion_main!(benches);
