//! What one explored transition costs the allocator, counted: an
//! exhaustive one-worker exploration of the 1-put Chord-KV model (350
//! states, 688 transitions), run once to warm the thread's pools, then
//! once more under the counter. The figure covers the whole run — the
//! visited set, the queue and the report as well as the transitions —
//! divided by the transitions.
//!
//! A transition allocates only for what it changes: the successor's
//! process and channel tables, the acting process's `clone_program`,
//! the messages its handler sends (one box and one payload each), one
//! new run per channel it sends into, and one new output list when it
//! emits. Before channels became shared runs, handlers drew from a
//! per-thread arena and Chord passed its send buffers as arrays, the
//! same run allocated 11,092 times (16.12 a transition); a pop alone
//! cost three allocations.
//!
//! One `#[test]` on purpose: the counter is process-wide.

use std::sync::Arc;

use fixd_bench::{alloc_events, CountingAlloc};
use fixd_examples::chord::{ChordNode, ChordRing};
use fixd_investigator::{ExploreConfig, Explorer, NetModel, WorldModel};
use fixd_runtime::{Pid, Program};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The ceiling, in allocations per transition.
const CEILING: f64 = 11.0;

#[test]
fn an_explored_transition_allocates_only_what_it_changes() {
    let model = WorldModel::new(0xC0DE, NetModel::reliable(), || {
        let ring = Arc::new(ChordRing::new(&[Pid(0), Pid(1), Pid(2)]));
        (0..3)
            .map(|_| {
                Box::new(ChordNode::new(Arc::clone(&ring), 0, 0).with_kv_workload(1))
                    as Box<dyn Program>
            })
            .collect()
    });
    // One worker, on this thread: `run` would take every core, and a
    // fresh worker thread starts with cold pools.
    let explorer = Explorer::new(&model, ExploreConfig::exhaustive(10_000));
    explorer.run_parallel(1);

    let before = alloc_events();
    let report = explorer.run_parallel(1);
    let allocs = alloc_events() - before;
    assert_eq!((report.states, report.transitions), (350, 688));
    let per_transition = allocs as f64 / report.transitions as f64;
    assert!(
        per_transition <= CEILING,
        "{allocs} allocations over {} transitions: {per_transition:.2} each",
        report.transitions
    );
}
