//! # fixd-examples — example distributed applications
//!
//! Realistic application scenarios exercising the FixD public API,
//! shared by the runnable examples (`examples/`), the cross-crate
//! integration tests (`tests/`), and the benchmark harness
//! (`fixd-bench`). Each app ships a **buggy** and a **fixed** version
//! plus the patch between them, because the whole FixD loop —
//! detect → roll back → investigate → heal — needs a bug to chase:
//!
//! * [`apps::token_ring`] — token-ring mutual exclusion; the buggy node
//!   duplicates the token, eventually putting two processes in the
//!   critical section at once (safety violation a global monitor
//!   catches);
//! * [`apps::kvstore`] — primary/backup replicated KV store; the buggy
//!   backup applies replication messages out of order, creating sequence
//!   gaps (the lost-update family of bugs);
//! * [`apps::two_phase_commit`] — atomic commit; the buggy coordinator
//!   commits after the *first* YES vote;
//! * [`apps::pipeline`] — a source/cruncher work pipeline for measuring
//!   salvaged computation under the Healer's two recovery strategies;
//! * [`apps::chord`] — a Chord DHT (finger-routed lookups, stabilize
//!   rounds, churn) whose behaviour is independent of world width — the
//!   scenario behind the wide-world scale benchmark.
//!
//! [`catalogue`] is the one place the buggy apps of the whole loop are
//! defined: per app its world, monitors, patch with the pid it is for,
//! and convergence check.

pub mod apps;
pub mod catalogue;

pub use apps::chord;
pub use apps::kvstore;
pub use apps::pipeline;
pub use apps::token_ring;
pub use apps::two_phase_commit;
pub use apps::wal_counter;
