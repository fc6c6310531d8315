//! # fixd-scroll — the Scroll
//!
//! Reproduction of the **Scroll** component of FixD (paper §3.1, Fig. 1;
//! implementation proposal §4.1):
//!
//! > *"we need a common Scroll where all or most of the components of our
//! > distributed application can record their actions and that may be used
//! > for playback or execution path investigation. It is important to
//! > notice that only nondeterministic actions (involving other
//! > components) and their outcome need to be recorded by the Scroll."*
//!
//! Concretely this crate provides:
//!
//! * [`entry`] / [`codec`] — the log entry vocabulary and a compact,
//!   self-contained binary format (the role liblog's interception log and
//!   Flashback's kernel log play in §4.1);
//! * [`record`] — a [`ScrollRecorder`] driver that observes a running
//!   [`fixd_runtime::World`] and records *only* the nondeterministic
//!   actions: deliveries, timer firings, random draws, crashes;
//! * [`replay`] — deterministic local playback of one process from its
//!   scroll, remote entities treated as black boxes (§2.2), with fidelity
//!   validation against recorded effect fingerprints;
//! * [`merge`] — reconstruction of a *globally consistent* total order
//!   from the per-process logs (§2.2 "record and reconstruct a globally
//!   consistent run of the system");
//! * [`cut`] — consistent-cut computation over the merged log, the
//!   building block the Time Machine uses to agree on global checkpoints;
//! * [`storage`], [`query`], [`stats`] — persistence, trace queries, and
//!   the measurements behind experiment **F1**.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod codec;
pub mod cut;
pub mod entry;
pub mod merge;
pub mod query;
pub mod record;
pub mod replay;
pub mod stats;
pub mod storage;

pub use cut::{latest_consistent_cut, Cut};
pub use entry::{EntryKind, ScrollEntry};
pub use merge::{check_causal_consistency, merge_total_order, CausalViolation};
pub use query::ScrollQuery;
pub use record::{record_run, RecordConfig, ScrollRecorder};
pub use replay::{replay_from, replay_process, replay_step, Fidelity, ReplayOutcome};
pub use stats::ScrollStats;
pub use storage::{ScrollStore, SpillConfig, StorageError};
