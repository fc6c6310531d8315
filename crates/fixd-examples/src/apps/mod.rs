//! Example application protocols (see crate docs).

use fixd_runtime::Program;

pub mod chord;
pub mod kvstore;
pub mod pipeline;
pub mod token_ring;
pub mod two_phase_commit;
pub mod wal_counter;

/// [`Program::snapshot`] of an app: every app writes its image in
/// [`Program::snapshot_to`], so the checkpoint and exploration paths
/// snapshot into their reused buffers, and `snapshot` is that image in a
/// fresh `Vec` — one definition of the bytes.
fn snapshot_vec(p: &dyn Program) -> Vec<u8> {
    let mut b = Vec::new();
    p.snapshot_to(&mut b);
    b
}
