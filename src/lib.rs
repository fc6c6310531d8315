//! # fixd — the FixD facade crate
//!
//! One-stop re-export of the whole FixD workspace (a Rust reproduction of
//! Ţăpuş & Noblet, *FixD: Fault Detection, Bug Reporting, and
//! Recoverability for Distributed Applications*, IPPS 2007).
//!
//! * [`store`] — content-addressed state store: interned, refcounted
//!   pages backing checkpoints, snapshots, and spilled scroll segments;
//! * [`runtime`] — deterministic distributed-system substrate
//!   ([`runtime::Program`], [`runtime::World`]);
//! * [`scroll`] — the Scroll: logging and deterministic replay;
//! * [`timemachine`] — the Time Machine: COW checkpoints, recovery
//!   lines, rollback;
//! * [`investigator`] — the Investigator: the ModelD model checker;
//! * [`healer`] — the Healer: dynamic software update;
//! * [`core`] — the FixD glue: supervision, detection, diagnosis,
//!   reports ([`core::Fixd`]);
//! * [`baselines`] — liblog / CMC / Flashback / restart / printf
//!   comparators;
//! * [`examples`] — example applications (token ring, KV store, 2PC,
//!   work pipeline);
//! * [`campaign`] — the parallel fault-injection campaign engine
//!   (scenario matrices fanned across cores, deterministic reports).
//!
//! ```
//! use fixd::prelude::*;
//!
//! // Supervise the buggy token ring, detect the mutual-exclusion
//! // violation, and diagnose it.
//! let mut world = fixd::examples::token_ring::ring_world(4, 1, Some((2, 5)));
//! let mut supervisor = Fixd::new(4, FixdConfig::seeded(1))
//!     .monitor(fixd::examples::token_ring::mutex_monitor());
//! let fault = supervisor.supervise(&mut world, 10_000).fault.expect("detected");
//! let report = supervisor.diagnose(&mut world, fault).expect("diagnosed");
//! assert!(report.reproduced());
//! ```

pub use fixd_baselines as baselines;
pub use fixd_campaign as campaign;
pub use fixd_core as core;
pub use fixd_examples as examples;
pub use fixd_healer as healer;
pub use fixd_investigator as investigator;
pub use fixd_runtime as runtime;
pub use fixd_scroll as scroll;
pub use fixd_store as store;
pub use fixd_timemachine as timemachine;

/// The items most applications need.
pub mod prelude {
    pub use fixd_campaign::{
        run_campaign, run_campaign_sharded, CampaignReport, CampaignSpec, Pathology,
    };
    pub use fixd_core::{BugReport, DetectedFault, Fixd, FixdConfig, Monitor};
    pub use fixd_healer::{Healer, Patch};
    pub use fixd_investigator::{ExploreConfig, Invariant, ModelD, NetModel, SearchOrder};
    pub use fixd_runtime::{
        Context, FaultPlan, Message, Payload, Pid, Program, TimerId, World, WorldConfig,
    };
    pub use fixd_scroll::{ScrollQuery, ScrollRecorder, ScrollStore, SpillConfig};
    pub use fixd_store::{PageStore, SnapshotImage};
    pub use fixd_timemachine::{CheckpointPolicy, TimeMachine, TimeMachineConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let cfg = FixdConfig::seeded(1);
        let _fixd = Fixd::new(2, cfg);
        let _w = World::new(WorldConfig::seeded(1));
    }
}
