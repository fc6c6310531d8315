//! A textbook breadth-first search: the independent reference the
//! exploration engine is checked against. No limits, no relaxation, no
//! threads; a violating state is counted and not expanded (the root is
//! always expanded), as the engine documents.

use std::collections::{HashSet, VecDeque};

use fixd_investigator::system::TransitionSystem;
use fixd_investigator::{ExploreReport, Invariant};

#[derive(Debug, PartialEq)]
pub struct Reference {
    pub states: usize,
    pub transitions: u64,
    pub max_depth: usize,
    pub deadlocks: usize,
    /// `(BFS distance, fingerprint, invariant)` of every violating
    /// state, sorted.
    pub violations: Vec<(usize, u64, String)>,
}

pub fn naive_bfs<T: TransitionSystem>(sys: &T, invariants: &[Invariant<T::State>]) -> Reference {
    let violated = |s: &T::State| invariants.iter().find(|i| !i.holds(s));
    let root = sys.initial();
    let root_fp = sys.fingerprint(&root);
    let mut r = Reference {
        states: 1,
        transitions: 0,
        max_depth: 0,
        deadlocks: 0,
        violations: Vec::new(),
    };
    if let Some(inv) = violated(&root) {
        r.violations.push((0, root_fp, inv.name.clone()));
    }
    let mut seen = HashSet::from([root_fp]);
    let mut queue = VecDeque::from([(root, 0usize)]);
    while let Some((state, depth)) = queue.pop_front() {
        let enabled = sys.enabled(&state);
        if enabled.is_empty() && !sys.is_expected_terminal(&state) {
            r.deadlocks += 1;
        }
        for label in enabled {
            let next = sys.apply(&state, &label);
            r.transitions += 1;
            let fp = sys.fingerprint(&next);
            if !seen.insert(fp) {
                continue;
            }
            r.states += 1;
            r.max_depth = r.max_depth.max(depth + 1);
            match violated(&next) {
                Some(inv) => r.violations.push((depth + 1, fp, inv.name.clone())),
                None => queue.push_back((next, depth + 1)),
            }
        }
    }
    r.violations.sort();
    r
}

/// What an untruncated report must equal the reference in, the order
/// of its violations included.
pub fn summary<L>(r: &ExploreReport<L>) -> Reference {
    assert!(!r.truncated, "the reference has no limits");
    let violations = (r.violations.iter())
        .map(|t| (t.depth, t.end_fingerprint, t.violation.clone()))
        .collect();
    Reference {
        states: r.states,
        transitions: r.transitions,
        max_depth: r.max_depth_reached,
        deadlocks: r.deadlocks.len(),
        violations,
    }
}
