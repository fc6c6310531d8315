//! # fixd-investigator — the Investigator (ModelD)
//!
//! Reproduction of the **Investigator** component of FixD (paper §3.3,
//! Figs. 3–4) and of the **ModelD** model checker (§4.3, Fig. 7), one of
//! the paper's stated contributions:
//!
//! > *"a model checker, called ModelD, that verifies safety properties
//! > embedded in \[...\] programs and enables the injection of code in
//! > running programs."*
//!
//! Architecture mirrors Fig. 7:
//!
//! * **back-end engine** ([`explorer`] is its face, [`frontier`] its one
//!   loop, [`search`] the one-worker search orders) — a
//!   guarded-command state-space explorer that "performs the actual state
//!   transitions, keeps track of the visited execution paths (calculating
//!   the reachability graph), and verifies that no user-specified
//!   invariants are violated", with a *dynamically changeable action set*
//!   and *customizable search order* (§4.3);
//! * **front-end** ([`guarded`]'s builder DSL) — the Rust analogue of the
//!   Camlp4 syntax extension: a convenient interface for declaring
//!   guarded commands and invariants;
//! * **real-code checking** ([`worldmodel`]) — the distributed
//!   application's actual [`fixd_runtime::Program`] implementations are
//!   executed as model-checker actions ("each event is a state transition
//!   within the model checker"), with environment components that FixD
//!   cannot control (the network) replaced by *models* ([`envmodel`]);
//! * **trails** ([`trail`]) — the Investigator "returns a set of trails
//!   that lead to invariant violations";
//! * **from-checkpoint investigation** ([`checker`]) — exploration starts
//!   from a restored consistent global checkpoint rather than the initial
//!   state, the key difference from CMC-style whole-history checking
//!   (experiments F3/F4).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod checker;
pub mod envmodel;
pub mod explorer;
pub mod frontier;
pub mod guarded;
pub mod invariant;
pub mod search;
pub mod system;
pub mod trail;
pub mod worldmodel;

pub use checker::ModelD;
pub use envmodel::NetModel;
pub use explorer::{ExploreConfig, ExploreReport, Explorer, SearchOrder};
pub use guarded::{Action, GuardedSystem, GuardedSystemBuilder};
pub use invariant::Invariant;
pub use system::TransitionSystem;
pub use trail::Trail;
pub use worldmodel::{ChannelView, ModelAction, WorldModel, WorldState};
