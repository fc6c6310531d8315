//! # fixd-campaign — the parallel fault-injection campaign engine
//!
//! The paper's claim is statistical: the detect → diagnose → heal loop
//! must hold under *many* seeds, fault timings, and network pathologies,
//! not one lucky schedule. This crate turns that into a first-class
//! subsystem:
//!
//! * [`CampaignSpec`] — a cartesian scenario matrix: application columns
//!   ([`AppSpec`]) × fault-scenario rows ([`FaultCase`]: network
//!   pathology + [`fixd_runtime::FaultPlan`]) × seeds;
//! * [`run_campaign`] — fans cells across every core with scoped
//!   threads and a shared work queue; [`run_campaign_sharded`] takes the
//!   worker count and the shards each cell's world runs on as
//!   arguments;
//! * [`CampaignReport`] — per-cell outcomes with violation counts,
//!   scroll/checkpoint stats, and app metrics, aggregated in spec order
//!   so the report (and its JSON) is byte-identical for any thread
//!   count;
//! * [`standard_matrix`] — all five example apps × crash, loss,
//!   duplication, reordering, corruption, and partition pathologies.
//!
//! ```
//! use fixd_campaign::{run_campaign_sharded, standard_matrix};
//!
//! let spec = standard_matrix(&[1, 2]);
//! let report = run_campaign_sharded(&spec, 2, 1);
//! assert_eq!(report.total_cells(), spec.expected_cells());
//! assert_eq!(report.violations(), 0);
//! ```

pub mod apps;
pub mod driver;
pub mod report;
pub mod spec;

pub use apps::{
    chord_app, chord_kv_app, kvstore_app, kvstore_buggy_app, kvstore_ck_app, pipeline_app,
    standard_cases, standard_matrix, standard_pathologies, token_ring_app, two_phase_commit_app,
    wal_counter_app, wide_matrix, wide_matrix_work,
};
pub use driver::{
    run_campaign, run_campaign_sharded, run_cell_sharded, run_cell_sharded_timed, CellTiming,
};
pub use report::{CampaignReport, CellOutcome};
pub use spec::{AppSpec, CampaignSpec, Cell, CellCheck, FaultCase, Pathology};
