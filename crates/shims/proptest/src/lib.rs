//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace
//! member re-implements the subset of proptest that the fixd property
//! suites consume: the [`Strategy`](strategy::Strategy) trait with
//! `prop_map`/`boxed`, range and tuple strategies, [`collection::vec`],
//! `any::<T>()`,
//! `Just`, `prop_oneof!`, and the `proptest! { #![proptest_config(..)]
//! #[test] fn name(x in strat, ..) { .. } }` macro with
//! `prop_assert!`/`prop_assert_eq!`/`prop_assert_ne!`.
//!
//! Differences from upstream, deliberately accepted for a shim:
//! no shrinking (a failing case reports its inputs and seed instead),
//! and case generation is fully deterministic per test name so CI runs
//! are reproducible.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Generate a value for each `name in strategy` binding, run the body,
/// and repeat for the configured number of cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
     $($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $($(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            $crate::test_runner::run_cases(&config, stringify!($name), |__fixd_rng| {
                $(let $arg =
                    $crate::strategy::Strategy::generate(&($strat), __fixd_rng);)+
                $body
                ::core::result::Result::Ok(())
            });
        })*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Skip (not fail) the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                format!("assumption not satisfied: {}", stringify!($cond)),
            ));
        }
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fail the current case unless the two sides compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::fail(format!(
                            "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
                            l, r
                        )),
                    );
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::fail(format!(
                            "{}\n  left: {:?}\n right: {:?}",
                            format!($($fmt)+),
                            l,
                            r
                        )),
                    );
                }
            }
        }
    };
}

/// Fail the current case if the two sides compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::fail(format!(
                            "assertion failed: `left != right`\n  both: {:?}",
                            l
                        )),
                    );
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::fail(format!(
                            "{}\n  both: {:?}",
                            format!($($fmt)+),
                            l
                        )),
                    );
                }
            }
        }
    };
}

/// Choose uniformly among several strategies producing the same value
/// type (upstream supports weights; the fixd suites only use the
/// unweighted form).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
