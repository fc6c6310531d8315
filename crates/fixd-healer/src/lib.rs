//! # fixd-healer — the Healer
//!
//! Reproduction of the **Healer** component of FixD (paper §3.4, Fig. 5;
//! implementation §4.4): once the Investigator has shown the programmer
//! which execution paths violate invariants and the code has been fixed,
//! the Healer brings the *running* system onto the fixed code. Two
//! recovery strategies, exactly as §3.4 lays out:
//!
//! 1. **Restart from scratch** — "the simplest option and is the one that
//!    is used classically after a system failure";
//! 2. **Dynamic update from a checkpoint** — "restarted from a previously
//!    saved checkpoint where all invariants are satisfied", salvaging
//!    "computation that was correctly performed while executing the
//!    faulty program". This "requires the ability to modify an executing
//!    process in place and provide certain guarantees that dynamically
//!    updating the process does not break type safety or invalidate any
//!    invariants."
//!
//! The guarantees are provided Ginseng-style (§4.4): [`patch`]es carry a
//! state migration function and an update-point precondition;
//! [`quiesce`] identifies safe update points; [`equivalence`] offers a
//! behavioral state-equivalence check (the ModelD-flavoured alternative —
//! "the programmer has to either force rollback to a point where this
//! condition can be automatically verified or has to write the update
//! such that state equivalence is guaranteed").

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod equivalence;
pub mod migrate;
pub mod patch;
pub mod quiesce;
pub mod registry;
pub mod update;

pub use equivalence::{behavioral_equivalence, EquivalenceProbe};
pub use migrate::MigrateError;
pub use patch::Patch;
pub use quiesce::{update_point, UpdatePoint};
pub use registry::VersionRegistry;
pub use update::{HealReport, Healer, RecoveryStrategy};
