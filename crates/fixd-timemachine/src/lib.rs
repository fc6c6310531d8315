//! # fixd-timemachine — the Time Machine
//!
//! Reproduction of the **Time Machine** component of FixD (paper §3.2,
//! Fig. 2; implementation §4.2, Fig. 6): rollback of a distributed
//! application to a *consistent global state*, implemented with
//! **distributed speculations** \[Ţăpuş, PhD 2006\].
//!
//! The paper names two defining differences between speculations and
//! traditional checkpoint/rollback, both implemented here:
//!
//! 1. *"Speculations use a copy-on-write mechanism to build lightweight,
//!    incremental checkpoints of processes"* — [`page`] provides
//!    reference-counted paged state images; consecutive checkpoints share
//!    every unchanged page ([`checkpoint`]).
//! 2. *"Speculations allow applications to use a different execution path
//!    upon rollback"* — [`speculation`] exposes commit/abort with the
//!    abort outcome reported to the application, which can then steer
//!    (the Healer builds on this).
//!
//! Checkpointing is *communication induced* ([`cic`], Fig. 6): a process
//! saves a lightweight checkpoint before receiving a message, and message
//! metadata carries the sender's checkpoint interval so the
//! rollback-dependency graph ([`dependency`]) can compute a **safe
//! recovery line** ([`recovery`]) — the "Safe recovery line" of Fig. 6 —
//! instead of cascading unboundedly (the domino effect measured in
//! experiment **F6**).
//!
//! The stop-the-world consistent cut of the fault-response protocol
//! (Fig. 4: "piece together a consistent global checkpoint") is
//! [`fixd_runtime::GlobalSnapshot`], which the world itself captures and
//! restores. Experiment **F2**'s eager full-copy baseline is
//! `fixd-baselines::flashback`.

pub mod checkpoint;
pub mod cic;
pub mod dependency;
pub mod gc;
pub mod page;
pub mod recovery;
pub mod speculation;

pub use checkpoint::{CheckpointStore, TmCheckpoint};
pub use cic::{CheckpointPolicy, TimeMachine, TimeMachineConfig};
pub use dependency::{DepEdge, DependencyGraph};
pub use gc::GcReport;
pub use page::{PageStats, PageStore, PagedImage, StoreStats, DEFAULT_PAGE_SIZE};
pub use recovery::{RecoveryLine, RollbackReport, NO_ROLLBACK};
pub use speculation::{AbortReport, SpecStatus, Speculation};
