//! # fixd-timemachine — the Time Machine
//!
//! Reproduction of the **Time Machine** component of FixD (paper §3.2,
//! Fig. 2; implementation §4.2, Fig. 6): rollback of a distributed
//! application to a *consistent global state*, built on the lightweight
//! checkpoints of **distributed speculations** \[Ţăpuş, PhD 2006\].
//!
//! The paper names two defining differences between speculations and
//! traditional checkpoint/rollback:
//!
//! 1. *"Speculations use a copy-on-write mechanism to build lightweight,
//!    incremental checkpoints of processes"* — implemented: [`page`]
//!    provides reference-counted paged state images; consecutive images
//!    share every unchanged page, and the checkpoints between two images
//!    (one image every eight handler events) are restored by replaying
//!    the process's own handler log ([`checkpoint`]). A cloned
//!    [`TimeMachine`] is a copy-on-write branch of the whole history.
//! 2. *"Speculations allow applications to use a different execution path
//!    upon rollback"* — the explicit commit/abort API is not here. It had
//!    no caller in supervision, the Healer or the campaigns, so it was
//!    removed; the Healer steers after a plain [`TimeMachine::rollback`].
//!    Bringing it back means restoring `speculation.rs` from the history
//!    together with a product caller, and giving each message the id of
//!    the speculation its sender ran inside: a new field on
//!    [`fixd_runtime::Message`] and a new Scroll format version (v6
//!    carries the checkpoint index alone).
//!
//! Checkpointing is *communication induced* ([`cic`], Fig. 6): a process
//! saves a lightweight checkpoint before receiving a message, and message
//! metadata carries the sender's checkpoint interval, so each logged
//! delivery is a rollback dependency ([`dependency`]) from which to
//! compute a **safe recovery line** ([`recovery`]) — the "Safe recovery
//! line" of Fig. 6 — instead of cascading unboundedly (the domino effect
//! measured in experiment **F6**).
//!
//! The stop-the-world consistent cut of the fault-response protocol
//! (Fig. 4: "piece together a consistent global checkpoint") is
//! [`fixd_runtime::GlobalSnapshot`], which the world itself captures and
//! restores. Experiment **F2**'s eager full-copy baseline is
//! `fixd-baselines::flashback`.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod checkpoint;
pub mod cic;
pub mod dependency;
pub mod gc;
pub mod page;
pub mod recovery;

pub use checkpoint::{CheckpointStore, TmCheckpoint};
pub use cic::{CheckpointPolicy, TimeMachine, TimeMachineConfig};
pub use dependency::{recovery_line, DepEdge};
pub use gc::GcReport;
pub use page::{PageStats, PageStore, PagedImage, StoreStats, DEFAULT_PAGE_SIZE};
pub use recovery::{RecoveryLine, RollbackReport, NO_ROLLBACK};
