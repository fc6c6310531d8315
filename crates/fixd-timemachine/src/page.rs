//! Content-addressed paged state images.
//!
//! A process state snapshot (an opaque byte image) is chunked into
//! fixed-size pages interned in a shared [`PageStore`] keyed by a 64-bit
//! content hash. Building checkpoint *k+1* from checkpoint *k* reuses
//! every page whose content is unchanged, and finds those the cheap
//! way: each chunk of the new snapshot is compared with the page
//! checkpoint *k* holds at the same offset, and only chunks that differ
//! are hashed and looked up in the store
//! ([`PagedImage::from_bytes_after`]) — the user-level analogue of
//! the kernel-level copy-on-write "shadow process" mechanism of
//! Flashback and of the speculation checkpoints of \[6\], which
//! experiment **F2** measures against eager full copies. Content
//! addressing strengthens that beyond classic COW: identical pages
//! deduplicate **across processes, across speculation branches, and
//! across checkpoint generations**, not just between consecutive
//! snapshots of one pid.
//!
//! The implementation lives in the bottom-layer `fixd-store` crate (the
//! same store backs `Program::snapshot` images and spilled scroll
//! segments); this module re-exports it under the Time Machine's
//! historical names and keeps the Time-Machine-facing laws tested here.

pub use fixd_store::{PageHandle, PageStats, PageStore, PagedImage, StoreStats, DEFAULT_PAGE_SIZE};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_identity() {
        let store = PageStore::new();
        for len in [0usize, 1, 255, 256, 257, 1000, 4096] {
            let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let img = PagedImage::from_bytes(&store, &bytes);
            assert_eq!(img.to_bytes(), bytes);
            assert_eq!(img.len(), len);
        }
    }

    #[test]
    fn unchanged_rebuild_shares_everything() {
        let store = PageStore::new();
        let bytes: Vec<u8> = (0..256u32).flat_map(|i| i.to_le_bytes()).collect();
        let a = PagedImage::from_bytes(&store, &bytes);
        let b = PagedImage::from_bytes(&store, &bytes);
        assert_eq!(b.build_stats().fresh, 0);
        assert_eq!(b.build_stats().reused, 4);
        assert_eq!(b.build_stats().share_ratio(), 1.0);
        assert_eq!(b.to_bytes(), bytes);
        assert_eq!(
            PagedImage::unique_bytes([&a, &b].into_iter()),
            bytes.len(),
            "rebuilding an identical image allocates nothing"
        );
    }

    #[test]
    fn localized_mutation_dirties_one_page() {
        let store = PageStore::new();
        let bytes: Vec<u8> = (0..256u32).flat_map(|i| i.to_le_bytes()).collect();
        let a = PagedImage::from_bytes(&store, &bytes);
        let mut mutated = bytes.clone();
        mutated[300] ^= 1; // inside page 1
        let b = PagedImage::from_bytes(&store, &mutated);
        assert_eq!(b.build_stats().fresh, 1);
        assert_eq!(b.build_stats().reused, 3);
        assert_eq!(b.to_bytes(), mutated);
        let _ = a;
    }

    #[test]
    fn unique_bytes_counts_shared_pages_once() {
        let store = PageStore::new();
        let bytes: Vec<u8> = (0..256u32).flat_map(|i| i.to_le_bytes()).collect();
        let a = PagedImage::from_bytes(&store, &bytes);
        let mut mutated = bytes.clone();
        mutated[0] ^= 9;
        let b = PagedImage::from_bytes(&store, &mutated);
        // a: 4 pages, b shares 3 of them + 1 fresh => 5 distinct pages.
        let total = PagedImage::unique_bytes([&a, &b].into_iter());
        assert_eq!(total, 5 * 256);
        assert_eq!(store.unique_bytes(), 5 * 256);
    }

    #[test]
    fn cross_process_and_cross_branch_pages_dedup() {
        // The tentpole property: a second process with equal state, and a
        // cloned (speculation-branch) image, cost no new page bytes.
        let store = PageStore::new();
        let state: Vec<u8> = (0..512u32).flat_map(|i| i.to_le_bytes()).collect();
        let p0 = PagedImage::from_bytes(&store, &state);
        let p1 = PagedImage::from_bytes(&store, &state); // other process
        let branch = p0.clone(); // speculation branch
        assert_eq!(store.unique_bytes(), state.len());
        assert_eq!(
            PagedImage::unique_bytes([&p0, &p1, &branch].into_iter()),
            state.len()
        );
    }

    #[test]
    fn custom_page_size() {
        let store = PageStore::new();
        let img = PagedImage::from_bytes_with(&store, &[1, 2, 3, 4, 5], 2);
        assert_eq!(img.page_count(), 3);
        assert_eq!(img.page_size(), 2);
        assert_eq!(img.to_bytes(), vec![1, 2, 3, 4, 5]);
    }
}
