//! The vector clock's allocation claims, counted: mutating a spilled
//! clock through its only handle never calls the allocator, mutating it
//! through one of several calls it exactly once (the copy-on-write
//! copy — one block, not a buffer plus a header; a receive that ticks
//! and learns new pids included), handing the clock on never does, and
//! writing it as a Scroll delta into a buffer with room never does
//! either.
//!
//! One `#[test]` on purpose: the counter is process-wide, and a second
//! test running on another thread would count into this one's windows.

use fixd_bench::{alloc_events, CountingAlloc};
use fixd_runtime::{Pid, VectorClock};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events `f` causes.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = alloc_events();
    f();
    alloc_events() - before
}

#[test]
fn clock_ops_allocate_only_the_copy_on_write_copy() {
    // `steady-wide`'s width: a 96-component clock over the even pids.
    let pairs = |count: u64| (0..96u32).map(|i| (2 * i, count)).collect::<Vec<_>>();
    let subset = VectorClock::from_pairs(pairs(7).into_iter().step_by(3).collect());
    let mut new_pids = pairs(7);
    new_pids.extend([(1, 1), (95, 1), (301, 1)]);
    let superset = VectorClock::from_pairs(new_pids);
    let mut vc = VectorClock::from_pairs(pairs(5));

    // Sole holder: tick and merge of a subset write in place.
    assert_eq!(allocs(|| _ = vc.tick(Pid(40))), 0);
    assert_eq!(allocs(|| vc.merge(&subset)), 0);
    assert_eq!(vc.get(Pid(6)), 7, "the merge did raise components");

    // Handing the clock on is a refcount bump.
    let mut held = VectorClock::ZERO;
    assert_eq!(allocs(|| held = vc.clone()), 0);
    assert!(held.shares_storage_with(&vc));

    // Shared, nothing new to learn: no copy at all.
    assert_eq!(allocs(|| vc.merge(&subset)), 0);
    assert!(held.shares_storage_with(&vc));

    // Shared and written: exactly the copy, in one block.
    assert_eq!(allocs(|| _ = vc.tick(Pid(40))), 1);
    assert!(!held.shares_storage_with(&vc));
    held = vc.clone();
    let ahead = VectorClock::from_pairs(pairs(9));
    assert_eq!(allocs(|| vc.merge(&ahead)), 1);
    assert_eq!((vc.get(Pid(0)), held.get(Pid(0))), (9, 7));

    // New pids: one block for the grown clock, shared or not.
    held = vc.clone();
    assert_eq!(allocs(|| vc.merge(&superset)), 1);
    assert_eq!(vc.nnz(), 99);
    let mut sole = VectorClock::from_pairs(pairs(5));
    assert_eq!(allocs(|| sole.merge(&superset)), 1);
    assert_eq!(sole.nnz(), 99);

    // A delivery: a shared clock that receives new pids ticks and grows
    // in one exactly-sized copy, where `tick` would copy it and `merge`
    // then grow the copy.
    let mut receiver = VectorClock::from_pairs(pairs(9));
    let checkpoint = receiver.clone();
    assert_eq!(allocs(|| receiver.receive(Pid(40), &superset)), 1);
    assert_eq!((receiver.nnz(), receiver.get(Pid(40))), (99, 10));
    assert_eq!((receiver.get(Pid(301)), checkpoint.get(Pid(40))), (1, 9));

    // A pooled shell that solely holds a big enough buffer is
    // re-stamped in place; afterwards the source is still sole holder
    // of its own buffer, so its next tick is free too.
    let mut shell = VectorClock::from_pairs(superset.entries().map(|(p, _)| (p.0, 1)).collect());
    assert_eq!(allocs(|| shell.clone_from(&sole)), 0);
    assert!(!shell.shares_storage_with(&sole));
    assert_eq!(shell, sole);
    assert_eq!(allocs(|| _ = sole.tick(Pid(40))), 0);
    drop(held);

    // The Scroll's delta wire form into a buffer that has room: over
    // the same pids (the in-step walk), over different pid sets (the
    // merge walk, pids gained and lost), and with more than 127 changed
    // components (the count patched wider in place).
    let mut buf = Vec::with_capacity(4096);
    let base = VectorClock::from_pairs(pairs(5));
    assert_eq!(allocs(|| vc.put_wire_delta(&base, &mut buf)), 0);
    assert_eq!(allocs(|| superset.put_wire_delta(&subset, &mut buf)), 0);
    assert_eq!(allocs(|| subset.put_wire_delta(&superset, &mut buf)), 0);
    let wide = |count: u64| VectorClock::from_pairs((0..200).map(|p| (p, count)).collect());
    let (from, to) = (wide(1), wide(2));
    assert_eq!(allocs(|| to.put_wire_delta(&from, &mut buf)), 0);
    assert!(buf.len() > 400 && buf.capacity() == 4096);
}
