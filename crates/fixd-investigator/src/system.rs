//! The transition-system abstraction the back-end engine explores.
//!
//! Both the abstract guarded-command systems ([`crate::guarded`]) and the
//! real-program world model ([`crate::worldmodel`]) implement this trait,
//! so the same engine checks hand-written models and actual
//! implementations — the property §4.3 of the paper is after.

/// A (possibly infinite) labelled transition system.
pub trait TransitionSystem: Sync {
    /// Global state of the system.
    type State: Clone + Send;
    /// Transition label (an action identifier).
    type Label: Clone + Send + PartialEq + std::fmt::Debug;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Stable 64-bit fingerprint used for visited-state deduplication.
    /// States with equal fingerprints are considered identical.
    fn fingerprint(&self, s: &Self::State) -> u64;

    /// Labels of all transitions enabled in `s` (guards that hold).
    fn enabled(&self, s: &Self::State) -> Vec<Self::Label>;

    /// Apply a transition. `l` must be enabled in `s`.
    fn apply(&self, s: &Self::State, l: &Self::Label) -> Self::State;

    /// Is a state with no enabled transitions an acceptable end state?
    /// Returning `false` marks it a *deadlock* (reported by the engine,
    /// as CMC does for "states in which the system can make no
    /// progress", §4.3).
    fn is_expected_terminal(&self, _s: &Self::State) -> bool {
        true
    }

    /// Human-readable name of a label (trail rendering).
    fn label_name(&self, l: &Self::Label) -> String {
        format!("{l:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter that can +1 or +2 up to a bound: tiny test system.
    struct Counter {
        bound: u64,
    }
    impl TransitionSystem for Counter {
        type State = u64;
        type Label = u64;
        fn initial(&self) -> u64 {
            0
        }
        fn fingerprint(&self, s: &u64) -> u64 {
            *s
        }
        fn enabled(&self, s: &u64) -> Vec<u64> {
            [1u64, 2]
                .into_iter()
                .filter(|d| s + d <= self.bound)
                .collect()
        }
        fn apply(&self, s: &u64, l: &u64) -> u64 {
            s + l
        }
    }

    #[test]
    fn defaults_are_sane() {
        let c = Counter { bound: 3 };
        assert!(c.is_expected_terminal(&3));
        assert_eq!(c.label_name(&1), "1");
        assert_eq!(c.enabled(&2), vec![1]);
        assert_eq!(c.apply(&2, &1), 3);
    }
}
