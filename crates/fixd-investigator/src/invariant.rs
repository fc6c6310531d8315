//! Safety properties: named predicates over global states.
//!
//! The engine "verifies that no user-specified invariants are violated"
//! (§4.3). Invariants over the real-program [`crate::WorldState`] can be
//! written directly against typed program state via
//! [`Invariant::for_program`], the ergonomic equivalent of CMC's
//! C-embedded invariants.

use std::sync::Arc;

/// A named safety property: `check` must hold in every reachable state.
#[derive(Clone)]
pub struct Invariant<S> {
    pub name: String,
    pub check: Arc<dyn Fn(&S) -> bool + Send + Sync>,
}

impl<S> Invariant<S> {
    /// Build an invariant from a closure.
    pub fn new(name: &str, check: impl Fn(&S) -> bool + Send + Sync + 'static) -> Self {
        Self {
            name: name.to_string(),
            check: Arc::new(check),
        }
    }

    /// Does the invariant hold in `s`?
    pub fn holds(&self, s: &S) -> bool {
        (self.check)(s)
    }

    /// The first of `invs` that does not hold in `s`.
    pub(crate) fn first_violated<'i>(invs: &'i [Invariant<S>], s: &S) -> Option<&'i Invariant<S>> {
        invs.iter().find(|i| !i.holds(s))
    }

    /// Conjunction of several invariants under one name.
    pub fn all_of(name: &str, invs: Vec<Invariant<S>>) -> Invariant<S>
    where
        S: 'static,
    {
        Invariant::new(name, move |s| invs.iter().all(|i| i.holds(s)))
    }
}

impl Invariant<crate::worldmodel::WorldState> {
    /// An invariant that must hold for *every* process whose program is
    /// of type `P` (a local invariant, lifted pointwise).
    pub fn for_program<P: 'static>(
        name: &str,
        check: impl Fn(fixd_runtime::Pid, &P) -> bool + Send + Sync + 'static,
    ) -> Self {
        Invariant::new(name, move |s: &crate::worldmodel::WorldState| {
            (0..s.width()).all(|i| {
                let pid = fixd_runtime::Pid(i as u32);
                match s.program::<P>(pid) {
                    Some(p) => check(pid, p),
                    None => true,
                }
            })
        })
    }
}

impl<S> std::fmt::Debug for Invariant<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Invariant({})", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_invariant() {
        let inv = Invariant::new("non-negative", |s: &i64| *s >= 0);
        assert!(inv.holds(&0));
        assert!(!inv.holds(&-1));
        assert_eq!(format!("{inv:?}"), "Invariant(non-negative)");
    }

    #[test]
    fn conjunction() {
        let a = Invariant::new("ge0", |s: &i64| *s >= 0);
        let b = Invariant::new("lt10", |s: &i64| *s < 10);
        let both = Invariant::all_of("range", vec![a, b]);
        assert!(both.holds(&5));
        assert!(!both.holds(&-1));
        assert!(!both.holds(&10));
    }
}
