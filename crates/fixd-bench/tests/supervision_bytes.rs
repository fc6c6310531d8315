//! The supervision memory claim, gated: a 96-member Chord world (one
//! `steady-wide` world) supervised to quiescence with a resident Scroll
//! and a checkpoint per receive leaves at most [`MAX_HELD_BYTES`] of
//! heap held by the `Fixd` alone — what dropping it frees.
//!
//! While every process carried a vector clock, its buffers were most of
//! it: ≈ 8,300 distinct buffers of ≈ 75 components, shared by Scroll
//! entries, recorded messages, checkpoint contexts and the Time
//! Machine's delivery log. At 16 B a component (`(u32, u64)` pairs) the
//! `Fixd` held 16.43 MiB; at 8 B (`u32` counts) 11.49 MiB, and
//! 11.03 MiB once messages and Scroll entries carried no Lamport
//! timestamp or speculation id; 4.78 MiB without clocks, while each of
//! 7,328 checkpoints (216 B) held a context and 7,232 dependency edges
//! were stored beside the delivery log. Now it holds 2.80 MiB.
//!
//! One `#[test]` on purpose: the live-byte counter is process-wide, and
//! a second test running on another thread would count into this one.

use fixd_bench::{live_bytes, CountingAlloc};
use fixd_core::{Fixd, FixdConfig};
use fixd_examples::chord::chord_world;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WIDTH: usize = 96;
const SEED: u64 = 1;
/// Heap bytes the supervised run's `Fixd` may hold alone.
const MAX_HELD_BYTES: usize = 3 << 20;

#[test]
fn supervised_chord_world_holds_under_its_heap_budget() {
    let mut w = chord_world(WIDTH, SEED, 3, 16);
    let mut fixd = Fixd::new(WIDTH, FixdConfig::seeded(SEED));
    let out = fixd.supervise(&mut w, u64::MAX);
    assert!(
        out.fault.is_none() && out.quiescent,
        "a clean run to quiescence"
    );
    let (entries, live) = (fixd.scroll().total_entries(), live_bytes());
    drop(fixd);
    let held = live - live_bytes();
    println!(
        "{entries} Scroll entries, {held} heap bytes held by the Fixd ({:.2} MiB)",
        held as f64 / f64::from(1 << 20)
    );
    assert!(
        held <= MAX_HELD_BYTES,
        "the Fixd holds {held} B (gate {MAX_HELD_BYTES})"
    );
}
