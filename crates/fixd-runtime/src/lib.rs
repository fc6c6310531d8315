//! # fixd-runtime — deterministic distributed-system substrate
//!
//! This crate is the execution substrate for the FixD reproduction
//! (Ţăpuş & Noblet, *FixD: Fault Detection, Bug Reporting, and
//! Recoverability for Distributed Applications*, IPPS 2007).
//!
//! The paper's mechanisms (the Scroll, the Time Machine, the Investigator,
//! the Healer) all operate on the *event structure* of a distributed
//! application: message sends and deliveries, timer firings, random draws,
//! crashes. This crate provides that event structure as a deterministic
//! discrete-event simulation:
//!
//! * applications are real Rust state machines implementing [`Program`];
//! * a [`World`] hosts N processes, a simulated [`network`] with
//!   configurable delivery policies (FIFO, random delay, reorder, drop,
//!   duplicate, partition), virtual time, and per-process deterministic
//!   RNG streams;
//! * [`World::shard`] runs a world's handlers on parallel [`shard`]s
//!   with the serial world's exact event sequence, so the supervision
//!   loop works on a sharded world unchanged;
//! * every source of nondeterminism flows through the runtime, so it can be
//!   *recorded* (the Scroll), *checkpointed around* (the Time Machine),
//!   *enumerated* (the Investigator) and *patched* (the Healer);
//! * fault injection ([`fault`]) is part of the substrate, per the
//!   reproduction hint ("multi-process fault injection on one box").
//!
//! Everything is reproducible from a single `u64` seed.
//!
//! ## Quick example
//!
//! ```
//! use fixd_runtime::{World, WorldConfig, Program, Context, Message, Pid};
//!
//! #[derive(Clone)]
//! struct Echo { got: u64 }
//! impl Program for Echo {
//!     fn on_start(&mut self, ctx: &mut Context) {
//!         if ctx.pid() == Pid(0) { ctx.send(Pid(1), 7, b"ping".to_vec()); }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
//!         self.got += 1;
//!         if msg.tag == 7 { ctx.send(msg.src, 8, b"pong".to_vec()); }
//!     }
//!     fn snapshot(&self) -> Vec<u8> { self.got.to_le_bytes().to_vec() }
//!     fn restore(&mut self, b: &[u8]) {
//!         self.got = u64::from_le_bytes(b.try_into().unwrap());
//!     }
//! }
//!
//! let mut w = World::new(WorldConfig::default());
//! w.add_process(Box::new(Echo { got: 0 }));
//! w.add_process(Box::new(Echo { got: 0 }));
//! let report = w.run_to_quiescence(1_000);
//! assert_eq!(report.delivered, 2); // ping + pong
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

mod arena;
mod calqueue;
pub mod clock;
pub mod disk;
pub mod event;
pub mod fault;
pub mod harness;
pub mod network;
pub mod payload;
mod procs;
pub mod program;
pub mod rng;
pub mod shard;
pub mod snapshot;
pub mod topology;
pub mod trace;
pub mod wire;
pub mod world;

pub use arena::{ArenaStats, EFF_POOL_CAP, MSG_POOL_CAP, RAND_POOL_CAP, REC_POOL_CAP};
pub use calqueue::CalQueueStats;
pub use clock::{LamportClock, VectorClock};
pub use disk::{DiskReplayGuard, DiskStats, SharedDisk};
// The content-addressed state store sits below the runtime in the crate
// DAG; re-export the pieces checkpoint-facing code needs so downstream
// crates can use `fixd_runtime::{PageStore, SnapshotImage}` directly.
pub use event::{Effects, Event, EventKind, Message, MsgMeta, Randoms, SharedMessage, TimerId};
pub use fault::{Fault, FaultPlan};
pub use fixd_store::{PageStats, PageStore, PagedImage, SnapshotImage, StoreStats};
pub use harness::SoloHarness;
pub use network::{DeliveryPolicy, LinkPolicy, NetStats, NetworkConfig, Partition};
pub use payload::{Payload, PayloadStats};
pub use procs::ProcContext;
pub use program::{CloneProgram, Context, Program};
pub use rng::DetRng;
pub use shard::ShardTiming;
pub use snapshot::GlobalSnapshot;
pub use topology::Topology;
pub use trace::{SharedStepRecord, StepRecord, Trace, TRACE_TAIL};
pub use world::{ProcCheckpoint, ProcFactory, ProcStatus, RunReport, World, WorldConfig};

/// Virtual time, in abstract "nanoseconds". Purely logical; never tied to
/// the wall clock, so runs are reproducible.
pub type VTime = u64;

/// Process identifier within a [`World`]. Dense, assigned in `add_process`
/// order starting from zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

impl Pid {
    /// Index into per-process vectors.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_display_and_index() {
        assert_eq!(Pid(3).to_string(), "P3");
        assert_eq!(Pid(3).idx(), 3);
        assert!(Pid(1) < Pid(2));
    }
}
