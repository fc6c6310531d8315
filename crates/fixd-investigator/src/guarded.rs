//! Guarded-command systems and the builder DSL.
//!
//! The ModelD back-end "is based on a guarded command model, where the
//! behavior of the system is described by a set of guarded commands that
//! can be chosen for execution any time" (§4.3). The builder is the Rust
//! analogue of ModelD's Camlp4 front-end. Crucially for the paper's
//! design, the action set is **dynamic**: actions can be added, removed,
//! or replaced between (and during) explorations — the mechanism both the
//! Investigator (swapping real communication for models) and the Healer
//! (injecting updated actions, §4.4) rely on.

use std::sync::Arc;

use crate::system::TransitionSystem;

/// A guarded command: when `guard` holds, `effect` may fire.
#[derive(Clone)]
pub struct Action<S> {
    pub name: String,
    pub guard: Arc<dyn Fn(&S) -> bool + Send + Sync>,
    pub effect: Arc<dyn Fn(&mut S) + Send + Sync>,
}

impl<S> Action<S> {
    /// Build an action.
    pub fn new(
        name: &str,
        guard: impl Fn(&S) -> bool + Send + Sync + 'static,
        effect: impl Fn(&mut S) + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            guard: Arc::new(guard),
            effect: Arc::new(effect),
        }
    }
}

impl<S> std::fmt::Debug for Action<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Action({})", self.name)
    }
}

/// A dynamic set of guarded commands over a state type `S`.
#[derive(Clone)]
pub struct GuardedSystem<S> {
    initial: S,
    actions: Vec<Action<S>>,
    fingerprint: Arc<dyn Fn(&S) -> u64 + Send + Sync>,
    expected_terminal: Arc<dyn Fn(&S) -> bool + Send + Sync>,
}

impl<S: Clone + Send + Sync> GuardedSystem<S> {
    /// All current actions.
    pub fn actions(&self) -> &[Action<S>] {
        &self.actions
    }

    /// **Dynamic action-set change** (§4.3/§4.4): add an action. Returns
    /// its index.
    pub fn add_action(&mut self, a: Action<S>) -> usize {
        self.actions.push(a);
        self.actions.len() - 1
    }

    /// Remove all actions with this name. Returns how many were removed.
    pub fn remove_action(&mut self, name: &str) -> usize {
        let before = self.actions.len();
        self.actions.retain(|a| a.name != name);
        before - self.actions.len()
    }

    /// Replace the actions named `name` with `with` (the Healer's "inject
    /// actions that divert the execution of a program using an updated
    /// version of the actions"). Returns true if something was replaced.
    pub fn replace_action(&mut self, name: &str, with: Action<S>) -> bool {
        let removed = self.remove_action(name) > 0;
        self.add_action(with);
        removed
    }

    /// Change the initial state (e.g. resume exploration from a restored
    /// checkpoint state).
    pub fn set_initial(&mut self, s: S) {
        self.initial = s;
    }
}

impl<S: Clone + Send + Sync> TransitionSystem for GuardedSystem<S> {
    type State = S;
    type Label = GuardedLabel;

    fn initial(&self) -> S {
        self.initial.clone()
    }

    fn fingerprint(&self, s: &S) -> u64 {
        (self.fingerprint)(s)
    }

    fn enabled(&self, s: &S) -> Vec<GuardedLabel> {
        self.actions
            .iter()
            .enumerate()
            .filter(|(_, a)| (a.guard)(s))
            .map(|(i, a)| GuardedLabel {
                index: i,
                name: a.name.clone(),
            })
            .collect()
    }

    fn apply(&self, s: &S, l: &GuardedLabel) -> S {
        let mut next = s.clone();
        (self.actions[l.index].effect)(&mut next);
        next
    }

    fn is_expected_terminal(&self, s: &S) -> bool {
        (self.expected_terminal)(s)
    }

    fn label_name(&self, l: &GuardedLabel) -> String {
        l.name.clone()
    }
}

/// Label of a guarded transition: action index + name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuardedLabel {
    pub index: usize,
    pub name: String,
}

/// Fluent builder — the front-end "syntax extension" analogue (Fig. 7).
///
/// ```
/// use fixd_investigator::GuardedSystemBuilder;
///
/// // Two counters that may each increment to 3.
/// let sys = GuardedSystemBuilder::new([0u8, 0u8])
///     .fingerprint(|s| u64::from(s[0]) << 8 | u64::from(s[1]))
///     .action("inc-a", |s| s[0] < 3, |s| s[0] += 1)
///     .action("inc-b", |s| s[1] < 3, |s| s[1] += 1)
///     .build();
/// use fixd_investigator::system::TransitionSystem;
/// assert_eq!(sys.enabled(&[3, 0]).len(), 1);
/// ```
pub struct GuardedSystemBuilder<S> {
    sys: GuardedSystem<S>,
}

impl<S: Clone + Send + Sync + 'static> GuardedSystemBuilder<S> {
    /// Start from an initial state. The default fingerprint requires
    /// [`std::hash::Hash`]; override with [`Self::fingerprint`] otherwise.
    pub fn new(initial: S) -> Self
    where
        S: std::hash::Hash,
    {
        Self {
            sys: GuardedSystem {
                initial,
                actions: Vec::new(),
                fingerprint: Arc::new(|s: &S| {
                    // FNV over the std hash to decorrelate.
                    use std::hash::Hasher;
                    struct Fnv(u64);
                    impl Hasher for Fnv {
                        fn finish(&self) -> u64 {
                            self.0
                        }
                        fn write(&mut self, bytes: &[u8]) {
                            for &b in bytes {
                                self.0 ^= u64::from(b);
                                self.0 = self.0.wrapping_mul(0x100000001b3);
                            }
                        }
                    }
                    let mut h = Fnv(0xcbf29ce484222325);
                    s.hash(&mut h);
                    h.finish()
                }),
                expected_terminal: Arc::new(|_| true),
            },
        }
    }

    /// Provide an explicit fingerprint function.
    pub fn fingerprint(mut self, f: impl Fn(&S) -> u64 + Send + Sync + 'static) -> Self {
        self.sys.fingerprint = Arc::new(f);
        self
    }

    /// Declare a guarded command.
    pub fn action(
        mut self,
        name: &str,
        guard: impl Fn(&S) -> bool + Send + Sync + 'static,
        effect: impl Fn(&mut S) + Send + Sync + 'static,
    ) -> Self {
        self.sys.actions.push(Action::new(name, guard, effect));
        self
    }

    /// Declare which terminal states are acceptable (others are reported
    /// as deadlocks).
    pub fn expected_terminal(mut self, f: impl Fn(&S) -> bool + Send + Sync + 'static) -> Self {
        self.sys.expected_terminal = Arc::new(f);
        self
    }

    /// Finish.
    pub fn build(self) -> GuardedSystem<S> {
        self.sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_counter() -> GuardedSystem<[u8; 2]> {
        GuardedSystemBuilder::new([0u8, 0u8])
            .action("inc-a", |s| s[0] < 2, |s| s[0] += 1)
            .action("inc-b", |s| s[1] < 2, |s| s[1] += 1)
            .build()
    }

    #[test]
    fn guards_filter_enabled() {
        let sys = two_counter();
        assert_eq!(sys.enabled(&[0, 0]).len(), 2);
        assert_eq!(sys.enabled(&[2, 0]).len(), 1);
        assert_eq!(sys.enabled(&[2, 2]).len(), 0);
    }

    #[test]
    fn apply_runs_effect_without_mutating_source() {
        let sys = two_counter();
        let s = [0u8, 0u8];
        let l = &sys.enabled(&s)[0];
        let next = sys.apply(&s, l);
        assert_eq!(s, [0, 0]);
        assert_eq!(next[0] + next[1], 1);
    }

    #[test]
    fn dynamic_action_set_changes() {
        let mut sys = two_counter();
        assert_eq!(sys.remove_action("inc-b"), 1);
        assert_eq!(sys.enabled(&[0, 0]).len(), 1);
        sys.add_action(Action::new("dec-a", |s: &[u8; 2]| s[0] > 0, |s| s[0] -= 1));
        assert_eq!(sys.enabled(&[1, 0]).len(), 2);
        // Replace inc-a with a doubled version.
        assert!(sys.replace_action(
            "inc-a",
            Action::new("inc-a", |s: &[u8; 2]| s[0] == 0, |s| s[0] += 2)
        ));
        let l = sys
            .enabled(&[0, 0])
            .into_iter()
            .find(|l| l.name == "inc-a")
            .unwrap();
        assert_eq!(sys.apply(&[0, 0], &l)[0], 2);
    }

    #[test]
    fn default_fingerprint_distinguishes_states() {
        let sys = two_counter();
        assert_ne!(sys.fingerprint(&[0, 1]), sys.fingerprint(&[1, 0]));
        assert_eq!(sys.fingerprint(&[1, 1]), sys.fingerprint(&[1, 1]));
    }

    #[test]
    fn set_initial_changes_root() {
        let mut sys = two_counter();
        sys.set_initial([2, 2]);
        assert_eq!(sys.initial(), [2, 2]);
    }
}
