//! Paged byte images over the content-addressed store, and the
//! [`SnapshotImage`] wrapper program snapshots travel in.

use crate::store::{Page, PageStore};

/// Default page size in bytes. Small enough that localized mutations
/// dirty few pages, large enough that page overhead stays negligible.
pub const DEFAULT_PAGE_SIZE: usize = 256;

/// Sharing statistics from building one image.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageStats {
    /// Pages that deduplicated against content already interned — by an
    /// earlier checkpoint, another process, another branch, or an
    /// earlier chunk of the *same* image.
    pub reused: usize,
    /// Pages freshly interned (content seen for the first time).
    pub fresh: usize,
}

impl PageStats {
    /// Fraction of pages that were shared (0 when empty).
    pub fn share_ratio(&self) -> f64 {
        let total = self.reused + self.fresh;
        if total == 0 {
            0.0
        } else {
            self.reused as f64 / total as f64
        }
    }
}

/// An immutable byte image chunked into content-addressed pages. Every
/// page lives in a [`PageStore`]; equal pages — across checkpoint
/// generations, across processes, across speculation branches — are
/// stored once. Cloning an image bumps per-page refcounts only, and an
/// image is built, cloned and dropped under one acquisition of the
/// store's lock, however many pages it has.
#[derive(Debug)]
pub struct PagedImage {
    /// The store every page is interned in (`None`: the pageless
    /// [`PagedImage::empty`]).
    store: Option<PageStore>,
    pages: Vec<Page>,
    len: usize,
    page_size: usize,
    stats: PageStats,
}

impl PagedImage {
    /// A zero-length image holding no pages (GC tombstones).
    pub fn empty() -> Self {
        Self {
            store: None,
            pages: Vec::new(),
            len: 0,
            page_size: DEFAULT_PAGE_SIZE,
            stats: PageStats::default(),
        }
    }

    /// Page `bytes` into `store` with the default page size.
    pub fn from_bytes(store: &PageStore, bytes: &[u8]) -> Self {
        Self::from_bytes_with(store, bytes, DEFAULT_PAGE_SIZE)
    }

    /// Page `bytes` into `store` with an explicit page size.
    pub fn from_bytes_with(store: &PageStore, bytes: &[u8], page_size: usize) -> Self {
        Self::from_bytes_after(store, bytes, page_size, None)
    }

    /// Page `bytes` into `store` as the successor of `prev` — the copy-
    /// on-write step. Chunk *i* is first compared with `prev`'s page *i*;
    /// when they are equal that page is shared again, and only chunks
    /// that differ are hashed and looked up. The result — pages, keys,
    /// [`PageStats`] and every [`StoreStats`] counter — is the one
    /// paging from scratch gives: a shared page counts as the intern
    /// hit it would have been. A `prev` that cannot line up (another
    /// store, another page size) is ignored.
    ///
    /// [`StoreStats`]: crate::StoreStats
    pub fn from_bytes_after(
        store: &PageStore,
        bytes: &[u8],
        page_size: usize,
        prev: Option<&PagedImage>,
    ) -> Self {
        assert!(page_size > 0, "page size must be positive");
        let prev_pages = match prev {
            Some(p) if p.page_size == page_size && p.is_in(store) => p.pages.as_slice(),
            _ => &[],
        };
        let mut stats = PageStats::default();
        let mut pages = Vec::with_capacity(bytes.len().div_ceil(page_size));
        let mut inner = store.lock();
        for (i, chunk) in bytes.chunks(page_size).enumerate() {
            let page = match prev_pages.get(i) {
                Some(p) if *p.data == *chunk => {
                    stats.reused += 1;
                    inner.reshare(p)
                }
                _ => {
                    let (page, fresh) = inner.intern(chunk);
                    if fresh {
                        stats.fresh += 1;
                    } else {
                        stats.reused += 1;
                    }
                    page
                }
            };
            pages.push(page);
        }
        drop(inner);
        Self {
            store: Some(store.clone()),
            pages,
            len: bytes.len(),
            page_size,
            stats,
        }
    }

    fn is_in(&self, store: &PageStore) -> bool {
        self.store.as_ref().is_some_and(|s| s.ptr_eq(store))
    }

    /// Reassemble the full byte image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for p in &self.pages {
            out.extend_from_slice(&p.data);
        }
        debug_assert_eq!(out.len(), self.len);
        out
    }

    /// Image length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length image.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Configured page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Intern statistics from when this image was built.
    pub fn build_stats(&self) -> PageStats {
        self.stats
    }

    /// Content keys of the pages (identity-based memory accounting).
    pub fn page_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.iter().map(|p| p.key)
    }

    /// Streaming FNV-1a over the logical bytes (no reassembly).
    pub fn content_fnv1a(&self) -> u64 {
        self.pages
            .iter()
            .fold(crate::fnv1a(&[]), |h, p| crate::fnv1a_extend(h, &p.data))
    }

    /// Bytes held by pages, counting each distinct page once across all
    /// the given images — the real memory footprint of a checkpoint
    /// history under content-addressed sharing.
    pub fn unique_bytes<'a>(images: impl Iterator<Item = &'a PagedImage>) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for img in images {
            for p in &img.pages {
                if seen.insert(p.key) {
                    total += p.data.len();
                }
            }
        }
        total
    }
}

impl PartialEq for PagedImage {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.pages.len() == other.pages.len()
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| a.key == b.key && a.data == b.data)
    }
}

impl Clone for PagedImage {
    fn clone(&self) -> Self {
        let pages = match &self.store {
            Some(store) => {
                let mut inner = store.lock();
                self.pages.iter().map(|p| inner.share(p)).collect()
            }
            None => Vec::new(),
        };
        Self {
            store: self.store.clone(),
            pages,
            len: self.len,
            page_size: self.page_size,
            stats: self.stats,
        }
    }
}

impl Drop for PagedImage {
    fn drop(&mut self) {
        if let Some(store) = &self.store {
            let mut inner = store.lock();
            for p in &self.pages {
                inner.release(p);
            }
        }
        // The `Page`s themselves (no `Drop` of their own) go after the
        // lock is released, so freeing page memory is not serialized.
    }
}

/// A complete, deterministic byte image of one process's state — either
/// a plain inline vector (no page store in play: ad-hoc snapshots,
/// tests, baselines) or a [`PagedImage`] interned in a shared
/// [`PageStore`] (the Time Machine's checkpoint path). The two forms
/// are logically identical: equality, length, and fingerprints are
/// content-level.
#[derive(Clone, Debug)]
pub enum SnapshotImage {
    /// Plain owned bytes (the pre-store representation).
    Inline(Vec<u8>),
    /// Pages interned in a content-addressed store.
    Paged(PagedImage),
}

impl SnapshotImage {
    /// Wrap owned bytes without paging them.
    pub fn inline(bytes: Vec<u8>) -> Self {
        SnapshotImage::Inline(bytes)
    }

    /// Page `bytes` straight into `store`.
    pub fn paged(store: &PageStore, bytes: &[u8], page_size: usize) -> Self {
        SnapshotImage::Paged(PagedImage::from_bytes_with(store, bytes, page_size))
    }

    /// Logical length in bytes.
    pub fn len(&self) -> usize {
        match self {
            SnapshotImage::Inline(v) => v.len(),
            SnapshotImage::Paged(p) => p.len(),
        }
    }

    /// True for a zero-length image.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the logical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            SnapshotImage::Inline(v) => v.clone(),
            SnapshotImage::Paged(p) => p.to_bytes(),
        }
    }

    /// The logical bytes without copying when possible: a borrow for the
    /// inline form, a materialization only for the paged form. Restore
    /// paths should prefer this over [`SnapshotImage::to_bytes`].
    pub fn as_bytes(&self) -> std::borrow::Cow<'_, [u8]> {
        match self {
            SnapshotImage::Inline(v) => std::borrow::Cow::Borrowed(v),
            SnapshotImage::Paged(p) => std::borrow::Cow::Owned(p.to_bytes()),
        }
    }

    /// Consume the snapshot, yielding the logical bytes — free for the
    /// inline form (hands back the owned `Vec`), one materialization for
    /// the paged form.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            SnapshotImage::Inline(v) => v,
            SnapshotImage::Paged(p) => p.to_bytes(),
        }
    }

    /// The paged form, when this snapshot went through a store.
    pub fn as_paged(&self) -> Option<&PagedImage> {
        match self {
            SnapshotImage::Paged(p) => Some(p),
            SnapshotImage::Inline(_) => None,
        }
    }

    /// FNV-1a over the logical bytes — identical for both forms, and
    /// identical to hashing the pre-store `Vec<u8>` representation.
    pub fn content_fnv1a(&self) -> u64 {
        match self {
            SnapshotImage::Inline(v) => crate::fnv1a(v),
            SnapshotImage::Paged(p) => p.content_fnv1a(),
        }
    }
}

impl Default for SnapshotImage {
    fn default() -> Self {
        SnapshotImage::Inline(Vec::new())
    }
}

impl From<Vec<u8>> for SnapshotImage {
    fn from(v: Vec<u8>) -> Self {
        SnapshotImage::Inline(v)
    }
}

impl PartialEq for SnapshotImage {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (SnapshotImage::Inline(a), SnapshotImage::Inline(b)) => a == b,
            (SnapshotImage::Paged(a), SnapshotImage::Paged(b)) if a == b => true,
            _ => self.len() == other.len() && self.to_bytes() == other.to_bytes(),
        }
    }
}

impl PartialEq<[u8]> for SnapshotImage {
    fn eq(&self, other: &[u8]) -> bool {
        match self {
            SnapshotImage::Inline(v) => v.as_slice() == other,
            SnapshotImage::Paged(_) => self.len() == other.len() && self.to_bytes() == other,
        }
    }
}

impl PartialEq<Vec<u8>> for SnapshotImage {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<SnapshotImage> for Vec<u8> {
    fn eq(&self, other: &SnapshotImage) -> bool {
        other == self
    }
}

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
    fn identical_image_shares_everything() {
        let store = PageStore::new();
        let bytes: Vec<u8> = (0..1024u32).flat_map(|i| i.to_le_bytes()).collect();
        let a = PagedImage::from_bytes(&store, &bytes);
        let b = PagedImage::from_bytes(&store, &bytes);
        assert_eq!(b.build_stats().fresh, 0);
        assert_eq!(b.build_stats().reused, 16);
        assert_eq!(b.build_stats().share_ratio(), 1.0);
        assert_eq!(
            PagedImage::unique_bytes([&a, &b].into_iter()),
            bytes.len(),
            "two full images, one set of pages"
        );
        assert_eq!(a, b);
    }

    #[test]
    fn localized_mutation_dirties_one_page() {
        let store = PageStore::new();
        let bytes: Vec<u8> = (0..1024u32).flat_map(|i| i.to_le_bytes()).collect();
        let a = PagedImage::from_bytes(&store, &bytes);
        let mut mutated = bytes.clone();
        mutated[300] ^= 1; // inside page 1
        let b = PagedImage::from_bytes(&store, &mutated);
        assert_eq!(b.build_stats().fresh, 1);
        assert_eq!(b.build_stats().reused, 15);
        assert_eq!(b.to_bytes(), mutated);
        assert_eq!(
            PagedImage::unique_bytes([&a, &b].into_iter()),
            bytes.len() + 256
        );
    }

    #[test]
    fn constant_regions_collapse_within_one_image() {
        let store = PageStore::new();
        let img = PagedImage::from_bytes(&store, &vec![0u8; 4096]);
        assert_eq!(img.page_count(), 16);
        assert_eq!(img.build_stats().fresh, 1, "one zero page serves all 16");
        assert_eq!(img.build_stats().reused, 15);
        assert_eq!(store.unique_bytes(), 256);
    }

    #[test]
    fn cross_process_pages_dedup() {
        // Two "processes" (independent images) with identical state: the
        // store holds one copy.
        let store = PageStore::new();
        let state = vec![0xAB; 2048];
        let p0 = PagedImage::from_bytes(&store, &state);
        let p1 = PagedImage::from_bytes(&store, &state);
        assert_eq!(store.unique_bytes(), 256, "constant page stored once");
        assert_eq!(PagedImage::unique_bytes([&p0, &p1].into_iter()), 256);
    }

    #[test]
    fn dropping_images_frees_pages() {
        let store = PageStore::new();
        let bytes: Vec<u8> = (0..512u32).flat_map(|i| i.to_le_bytes()).collect();
        let a = PagedImage::from_bytes(&store, &bytes);
        let b = a.clone();
        assert_eq!(store.unique_bytes(), 2048);
        drop(a);
        assert_eq!(store.unique_bytes(), 2048, "clone keeps pages live");
        drop(b);
        assert_eq!(store.unique_bytes(), 0);
        assert_eq!(store.stats().freed_bytes, 2048);
    }

    #[test]
    fn branch_clone_then_divergence_shares_prefix() {
        // A speculation branch: clone the image, then one branch moves on
        // to a mutated state. Shared pages are held once.
        let store = PageStore::new();
        let base: Vec<u8> = (0..2048u32).flat_map(|i| i.to_le_bytes()).collect();
        let trunk = PagedImage::from_bytes(&store, &base);
        let branch = trunk.clone();
        let mut mutated = base.clone();
        mutated[0] ^= 0xFF;
        let diverged = PagedImage::from_bytes(&store, &mutated);
        let all = PagedImage::unique_bytes([&trunk, &branch, &diverged].into_iter());
        assert_eq!(all, base.len() + 256);
        drop(trunk);
        drop(branch);
        // Base page 0 was only held by trunk/branch and is freed; the
        // diverged image keeps the 31 shared pages plus its own page 0.
        assert_eq!(
            store.unique_bytes(),
            base.len(),
            "diverged image still references the shared tail"
        );
        drop(diverged);
        assert_eq!(store.unique_bytes(), 0);
    }

    #[test]
    fn custom_page_size() {
        let store = PageStore::new();
        let img = PagedImage::from_bytes_with(&store, &[1, 2, 3, 4, 5], 2);
        assert_eq!(img.page_count(), 3);
        assert_eq!(img.page_size(), 2);
        assert_eq!(img.to_bytes(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_image_is_storeless() {
        let img = PagedImage::empty();
        assert!(img.is_empty());
        assert_eq!(img.page_count(), 0);
        assert_eq!(img.to_bytes(), Vec::<u8>::new());
    }

    #[test]
    fn snapshot_forms_are_content_equal() {
        let store = PageStore::new();
        let bytes: Vec<u8> = (0..777).map(|i| (i % 251) as u8).collect();
        let inline = SnapshotImage::inline(bytes.clone());
        let paged = SnapshotImage::paged(&store, &bytes, 256);
        assert_eq!(inline, paged);
        assert_eq!(paged, bytes);
        assert_eq!(bytes, paged);
        assert_eq!(inline.content_fnv1a(), paged.content_fnv1a());
        assert_eq!(paged.content_fnv1a(), crate::fnv1a(&bytes));
        assert_eq!(paged.to_bytes(), bytes);
        assert_eq!(paged.len(), bytes.len());
        assert!(paged.as_paged().is_some());
        assert!(inline.as_paged().is_none());
        assert!(SnapshotImage::default().is_empty());
        // as_bytes borrows the inline form (no copy) and materializes
        // the paged form; into_bytes hands the inline Vec back for free.
        assert!(matches!(
            inline.as_bytes(),
            std::borrow::Cow::Borrowed(b) if b == bytes.as_slice()
        ));
        assert_eq!(&*paged.as_bytes(), bytes.as_slice());
        let addr = match &inline {
            SnapshotImage::Inline(v) => v.as_ptr(),
            SnapshotImage::Paged(_) => unreachable!(),
        };
        let owned = inline.into_bytes();
        assert_eq!(owned.as_ptr(), addr, "into_bytes must not copy Inline");
        assert_eq!(paged.into_bytes(), bytes);
    }
}
