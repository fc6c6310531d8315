//! The Chord keyed-storage workload as an exploration target: model
//! check every interleaving of a small ring under a reliable network
//! and assert the no-bad-read safety property, with the exploration
//! loop agreeing with a textbook BFS at every worker count.

#[path = "../../fixd-investigator/tests/common/mod.rs"]
mod common;

use std::sync::Arc;

use common::{naive_bfs, summary};
use fixd_examples::chord::{ChordNode, ChordRing, KV_READ_MARK};
use fixd_investigator::{ExploreConfig, Explorer, Invariant, NetModel, WorldModel, WorldState};
use fixd_runtime::{Pid, Program};

/// A dense `n`-member keyed-storage ring as a model-checker target
/// (no stabilize rounds, no random lookups: the put/get/replicate
/// traffic is the whole workload).
fn kv_model(n: usize, puts: u32) -> WorldModel {
    WorldModel::new(0xC0DE, NetModel::reliable(), move || {
        let members: Vec<Pid> = (0..n as u32).map(Pid).collect();
        let ring = Arc::new(ChordRing::new(&members));
        (0..n)
            .map(|_| {
                Box::new(ChordNode::new(Arc::clone(&ring), 0, 0).with_kv_workload(puts))
                    as Box<dyn Program>
            })
            .collect()
    })
}

/// Safety: every keyed-read output (`[KV_READ_MARK, ok]`) must carry
/// ok = 1 — no interleaving may return a missing or wrong value.
fn no_bad_reads() -> Invariant<WorldState> {
    Invariant::new("no-bad-read", |s: &WorldState| {
        s.outputs()
            .iter()
            .all(|(_, p)| p.first() != Some(&KV_READ_MARK) || p.get(1) == Some(&1))
    })
}

#[test]
fn chord_kv_has_no_bad_reads_under_all_interleavings() {
    let model = kv_model(3, 1);
    let explorer =
        Explorer::new(&model, ExploreConfig::exhaustive(500_000)).invariant(no_bad_reads());
    let seq = explorer.run();
    assert!(!seq.truncated, "space must be explored exhaustively");
    assert!(seq.states > 10, "the model must actually branch");
    assert!(
        seq.violations.is_empty(),
        "bad read found: {:?}",
        seq.violations.first().map(|t| &t.labels)
    );

    // The same space and verdict as the reference, at every worker count.
    let reference = naive_bfs(&model, &[no_bad_reads()]);
    assert_eq!(reference, summary(&seq));
    for workers in [2usize, 4] {
        let par = explorer.run_parallel(workers);
        assert_eq!(reference, summary(&par), "at {workers} workers");
    }
}
