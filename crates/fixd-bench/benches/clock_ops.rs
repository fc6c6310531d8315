//! Vector-clock operation costs by causal footprint: the figure the
//! clock layer owns (every message, Scroll entry and checkpoint carries
//! one, and a delivery ticks and merges one).
//!
//! Series, at `nnz` 3 (inline), 16, 96 (`steady-wide`'s width) and 768
//! (`scale_demo`'s ring), each timed over [`REPS`] repetitions per
//! iteration so the shim's per-iteration timer does not drown the
//! nanosecond-scale ones:
//!
//! * `tick`, `merge`, `clone_from` into a **unique** target — in place,
//!   no allocation (the bare step loop's steady state);
//! * the same into a **shared** target — the one copy of copy-on-write
//!   (a supervised delivery: the checkpoint and the previous Scroll
//!   entry hold the buffer), or a handle swap for `clone_from`;
//! * `merge/sparse`: four evenly spaced pids into the full clock — a
//!   binary search per component instead of a walk once the clock is
//!   sixteen times longer (at `nnz` 3 the four collapse into an inline
//!   clock, raised pair by pair);
//! * `clone`: a refcount bump past the inline tier.
//!
//! Expected shape: unique `tick` near flat in `nnz` (a binary search),
//! unique `merge` linear at a few nanoseconds per pair, shared variants
//! one allocation plus a linear copy on top, `clone` flat.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fixd_runtime::{Pid, VectorClock};

/// Operations per timed iteration.
const REPS: usize = 256;

/// A clock over the even pids `0, 2, ..` with `nnz` components.
fn clock(nnz: usize, count: u64) -> VectorClock {
    VectorClock::from_pairs((0..nnz as u32).map(|i| (2 * i, count)).collect())
}

fn bench_clock_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("clock_ops_x{REPS}"));
    for &nnz in &[3usize, 16, 96, 768] {
        let base = clock(nnz, 5);
        let mid = Pid(2 * (nnz as u32 / 2));
        // Every other pid of `base`, some ahead of it and some behind:
        // the subset a delivered message typically carries.
        let subset = VectorClock::from_pairs(
            (0..nnz as u32)
                .step_by(2)
                .map(|i| (2 * i, 3 + u64::from(i % 3) * 2))
                .collect(),
        );
        // All of `base`'s pids, strictly ahead: forces the shared-target
        // merge to copy every time.
        let ahead = clock(nnz, 9);
        let sparse =
            VectorClock::from_pairs((0..4).map(|k| (2 * (k * nnz as u32 / 4), 1)).collect());

        group.bench_with_input(BenchmarkId::new("tick/unique", nnz), &nnz, |b, _| {
            let mut vc = base.clone();
            vc.tick(mid); // take the one copy now
            b.iter(|| (0..REPS).map(|_| vc.tick(mid)).sum::<u64>());
        });
        group.bench_with_input(BenchmarkId::new("tick/shared", nnz), &nnz, |b, _| {
            b.iter(|| {
                (0..REPS)
                    .map(|_| {
                        let mut vc = base.clone();
                        vc.tick(mid)
                    })
                    .sum::<u64>()
            });
        });
        group.bench_with_input(BenchmarkId::new("merge/unique", nnz), &nnz, |b, _| {
            let mut vc = base.clone();
            vc.tick(mid);
            b.iter(|| (0..REPS).for_each(|_| vc.merge(black_box(&subset))));
        });
        group.bench_with_input(BenchmarkId::new("merge/shared", nnz), &nnz, |b, _| {
            b.iter(|| {
                (0..REPS).for_each(|_| {
                    let mut vc = base.clone();
                    vc.merge(black_box(&ahead));
                    black_box(vc);
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("merge/sparse", nnz), &nnz, |b, _| {
            let mut vc = base.clone();
            vc.tick(mid);
            b.iter(|| (0..REPS).for_each(|_| vc.merge(black_box(&sparse))));
        });
        group.bench_with_input(BenchmarkId::new("clone", nnz), &nnz, |b, _| {
            b.iter(|| (0..REPS).for_each(|_| drop(black_box(base.clone()))));
        });
        group.bench_with_input(BenchmarkId::new("clone_from/unique", nnz), &nnz, |b, _| {
            let mut shell = clock(nnz, 1);
            b.iter(|| (0..REPS).for_each(|_| shell.clone_from(black_box(&base))));
        });
        group.bench_with_input(BenchmarkId::new("clone_from/shared", nnz), &nnz, |b, _| {
            let held = clock(nnz, 1);
            b.iter(|| {
                (0..REPS).for_each(|_| {
                    let mut shell = held.clone();
                    shell.clone_from(black_box(&base));
                    black_box(shell);
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_clock_ops);
criterion_main!(benches);
