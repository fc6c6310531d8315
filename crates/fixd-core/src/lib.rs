//! # fixd-core — FixD: Fault Detection, Bug Reporting, and Recoverability
//! # for Distributed Applications
//!
//! Reproduction of Ţăpuş & Noblet, IPPS 2007. This crate is the paper's
//! stated second contribution — *"the design of FixD, which amounts to
//! designing the glue components required to combine the various logging,
//! debugging, and verification tools in an efficient manner"* — gluing:
//!
//! * the **Scroll** (`fixd-scroll`) — logging of nondeterministic actions,
//! * the **Time Machine** (`fixd-timemachine`) — copy-on-write
//!   checkpointing and consistent rollback,
//! * the **Investigator** (`fixd-investigator`) — ModelD, exploring the
//!   real implementation from a restored global checkpoint,
//! * the **Healer** (`fixd-healer`) — dynamic update or restart on the
//!   fixed code,
//!
//! into the workflow of Figs. 4–5:
//!
//! ```text
//! supervise ──fault──▶ respond (rollback + collect {checkpoint, model}
//!     ▲                 from peers + assemble global checkpoint)
//!     │                          │
//!  heal (update /                ▼
//!  restart, Fig. 5) ◀── report ◀── investigate (trails, Fig. 3)
//! ```
//!
//! Entry point: [`Fixd`]. See `examples/` for complete loops.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod assembly;
pub mod characteristics;
pub mod config;
pub mod detector;
pub mod protocol;
pub mod report;
pub mod session;

pub use assembly::assemble_worldstate;
pub use characteristics::{matrix, render_matrix, Capabilities, MatrixRow, Technique};
pub use config::FixdConfig;
pub use detector::{DetectedFault, Monitor};
pub use protocol::{choose_rollback_target, respond, RespondOutcome};
pub use report::BugReport;
pub use session::{Fixd, FixdStats, SuperviseOutcome};
