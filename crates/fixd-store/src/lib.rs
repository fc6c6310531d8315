//! # fixd-store — the content-addressed state store
//!
//! The single backing layer for all durable state in the FixD
//! reproduction. Process state images are chunked into fixed-size pages
//! and *interned* into a [`PageStore`]: an immutable page keyed by a
//! 64-bit content hash, held once no matter how many checkpoints,
//! processes, speculation branches, or coordinated global snapshots
//! reference it. This generalizes the paper's copy-on-write checkpoint
//! sharing (§3.2, Flashback-style shadow processes) from *consecutive
//! checkpoints of one process* to *any two equal pages anywhere*:
//!
//! * consecutive checkpoints of one process share unchanged pages
//!   (classic COW) — found by comparing each chunk with the page the
//!   previous checkpoint holds at that offset, so only chunks that
//!   changed are hashed and looked up
//!   ([`PagedImage::from_bytes_after`]);
//! * checkpoints of **different processes** running the same code over
//!   similar state share pages (replicas, initial states);
//! * **speculation branches** (cloned Time Machines) share everything
//!   until they diverge, page by page;
//! * repeated zero/constant regions **within one image** collapse to a
//!   single page.
//!
//! Reclamation is by reference count: dropping the last [`PageHandle`]
//! to a page removes it from the store and the freed bytes are reported
//! through [`StoreStats`] — so a garbage-collection pass can state how
//! many bytes it *actually* returned, not how many entries it forgot.
//!
//! [`PagedImage`] is the always-paged image the Time Machine stores;
//! [`SnapshotImage`] is the checkpoint-facing wrapper that is either a
//! plain inline byte vector (no store in play) or a paged image interned
//! in a store.

#![forbid(unsafe_code)]

pub mod image;
pub mod store;

pub use image::{PageStats, PagedImage, SnapshotImage, DEFAULT_PAGE_SIZE};
pub use store::{page_hash, PageHandle, PageStore, StoreStats};

/// A stable 64-bit FNV-1a hash — the workspace-wide content fingerprint
/// primitive (deterministic across runs and platforms). Lives here, at
/// the bottom of the crate DAG, so page keys and state fingerprints use
/// one definition; `fixd_runtime::wire::fnv1a` delegates to it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Streaming form of [`fnv1a`]: continue a hash over another chunk.
/// `fnv1a(b"ab") == fnv1a_extend(fnv1a(b"a"), b"b")`, which is what lets
/// a paged image fingerprint itself without reassembling the bytes.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_streaming_matches_oneshot() {
        let data = b"the scroll records only nondeterministic actions";
        for split in [0, 1, 7, data.len()] {
            let (a, b) = data.split_at(split);
            assert_eq!(fnv1a_extend(fnv1a(a), b), fnv1a(data));
        }
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
