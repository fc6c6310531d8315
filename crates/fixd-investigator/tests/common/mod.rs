//! A textbook breadth-first search: the independent reference the
//! exploration engine is checked against. No limits, no relaxation, no
//! threads; a violating state is counted and not expanded (the root is
//! always expanded), as the engine documents. And [`Counted`], which
//! counts what the engine does with a system: the report does not say
//! how often `apply` ran or how many states were held at once.

// Shared by several test and bench targets; none uses all of it.
#![allow(dead_code)]

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use fixd_investigator::system::TransitionSystem;
use fixd_investigator::{ExploreReport, Invariant};

/// What a [`Counted`] system has been asked so far.
#[derive(Default)]
pub struct Counts {
    applies: AtomicU64,
    live: AtomicUsize,
    peak_live: AtomicUsize,
}

impl Counts {
    /// `apply` calls: the counted transitions plus every re-expansion a
    /// relaxation caused.
    pub fn applies(&self) -> u64 {
        self.applies.load(Ordering::Relaxed)
    }

    /// Most states alive at once. A queue item owns its state and
    /// nothing else keeps one, so this is the peak queue length plus the
    /// expansions in flight (a parent and one successor per worker).
    pub fn peak_live(&self) -> usize {
        self.peak_live.load(Ordering::Relaxed)
    }
}

/// A state of a [`Counted`] system: alive until dropped.
pub struct Held<S> {
    pub state: S,
    counts: Arc<Counts>,
}

impl<S> Held<S> {
    fn new(state: S, counts: &Arc<Counts>) -> Self {
        let live = counts.live.fetch_add(1, Ordering::Relaxed) + 1;
        counts.peak_live.fetch_max(live, Ordering::Relaxed);
        Self {
            state,
            counts: Arc::clone(counts),
        }
    }
}

impl<S: Clone> Clone for Held<S> {
    fn clone(&self) -> Self {
        Self::new(self.state.clone(), &self.counts)
    }
}

impl<S> Drop for Held<S> {
    fn drop(&mut self) {
        self.counts.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// `sys` as the engine sees it, with [`Counts`] kept on the side.
pub struct Counted<'a, T> {
    sys: &'a T,
    pub counts: Arc<Counts>,
}

impl<'a, T> Counted<'a, T> {
    pub fn new(sys: &'a T) -> Self {
        Self {
            sys,
            counts: Arc::default(),
        }
    }
}

/// `inv` over the states of a [`Counted`] system.
pub fn on_held<S: 'static>(inv: Invariant<S>) -> Invariant<Held<S>> {
    Invariant::new(&inv.name.clone(), move |s: &Held<S>| inv.holds(&s.state))
}

impl<T: TransitionSystem> TransitionSystem for Counted<'_, T> {
    type State = Held<T::State>;
    type Label = T::Label;

    fn initial(&self) -> Self::State {
        Held::new(self.sys.initial(), &self.counts)
    }
    fn fingerprint(&self, s: &Self::State) -> u64 {
        self.sys.fingerprint(&s.state)
    }
    fn enabled(&self, s: &Self::State) -> Vec<Self::Label> {
        self.sys.enabled(&s.state)
    }
    fn apply(&self, s: &Self::State, l: &Self::Label) -> Self::State {
        self.counts.applies.fetch_add(1, Ordering::Relaxed);
        Held::new(self.sys.apply(&s.state, l), &self.counts)
    }
    fn is_expected_terminal(&self, s: &Self::State) -> bool {
        self.sys.is_expected_terminal(&s.state)
    }
    fn label_name(&self, l: &Self::Label) -> String {
        self.sys.label_name(l)
    }
}

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
