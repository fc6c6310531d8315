//! The [`PageStore`]: interned, refcounted, content-addressed pages.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

/// Content key of a page: [`content_hash`](crate::content_hash) of its
/// bytes. Keys live only in memory (nothing persists one), and XXH64
/// already folds the length in, so a page of `n` zero bytes and one of
/// `m` never probe the same chain start.
pub fn page_hash(bytes: &[u8]) -> u64 {
    crate::content_hash(bytes)
}

/// On the (astronomically unlikely) event of two different pages hashing
/// to one key, the store probes deterministically to the next key.
fn next_probe(key: u64) -> u64 {
    key.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1)
}

/// Counters of one store. `live_*` describe the current contents;
/// the rest are cumulative over the store's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Pages currently interned.
    pub live_pages: usize,
    /// Bytes currently interned (the real resident footprint).
    pub live_bytes: usize,
    /// Interns that found the page already present (bytes NOT copied).
    pub hits: u64,
    /// Interns that inserted a fresh page.
    pub misses: u64,
    /// Bytes deduplicated by hits: what a non-shared layout would have
    /// allocated on top of `live_bytes`.
    pub deduped_bytes: u64,
    /// Bytes physically freed by dropping the last handle to a page —
    /// what GC passes actually returned.
    pub freed_bytes: u64,
}

struct Slot {
    data: Arc<[u8]>,
    refs: u64,
}

/// Pass-through hasher for the slot map: its keys are [`page_hash`]
/// outputs (or [`next_probe`]s of them), already avalanched by XXH64's
/// finaliser, so SipHashing them again on every probe buys nothing. No
/// key comes from outside the program, and the content a key stands for
/// is compared on every intern.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("slot keys are u64 and hash through write_u64");
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The store behind its lock. Every change to a refcount or a counter
/// is one of the four methods below, so an image can be built, shared
/// or released page by page under a single acquisition.
//
// INVARIANT: a slot is present exactly while something holds it, and
// `refs` counts the holders: every live `PageHandle`, and every page of
// a live `PagedImage`, names a present slot with `refs >= 1`. The four
// methods `debug_assert!` it wherever they touch a refcount; release
// builds step past a breach instead of panicking inside a `Drop`.
#[derive(Default)]
pub(crate) struct Inner {
    slots: HashMap<u64, Slot, BuildHasherDefault<KeyHasher>>,
    stats: StoreStats,
}

impl Inner {
    /// Intern `bytes`: one more reference to the slot holding that
    /// content, inserting it when absent (`fresh`).
    pub(crate) fn intern(&mut self, bytes: &[u8]) -> (Page, bool) {
        let mut key = page_hash(bytes);
        loop {
            match self.slots.get_mut(&key) {
                Some(slot) if slot.data.as_ref() == bytes => {
                    debug_assert!(slot.refs >= 1, "present slot without a holder");
                    slot.refs += 1;
                    let data = Arc::clone(&slot.data);
                    self.stats.hits += 1;
                    self.stats.deduped_bytes += bytes.len() as u64;
                    return (Page { key, data }, false);
                }
                Some(_) => {
                    // True 64-bit collision: probe deterministically.
                    key = next_probe(key);
                }
                None => {
                    let data: Arc<[u8]> = Arc::from(bytes);
                    self.slots.insert(
                        key,
                        Slot {
                            data: Arc::clone(&data),
                            refs: 1,
                        },
                    );
                    self.stats.misses += 1;
                    self.stats.live_pages += 1;
                    self.stats.live_bytes += bytes.len();
                    return (Page { key, data }, true);
                }
            }
        }
    }

    /// One more reference to the slot `page` already holds: a share, not
    /// an intern, so `hits`/`deduped_bytes` (content-level dedup) stay.
    pub(crate) fn share(&mut self, page: &Page) -> Page {
        match self.slots.get_mut(&page.key) {
            Some(slot) => {
                debug_assert!(slot.refs >= 1, "shared a page nobody holds");
                slot.refs += 1;
            }
            None => debug_assert!(false, "shared a page whose slot is gone"),
        }
        Page {
            key: page.key,
            data: Arc::clone(&page.data),
        }
    }

    /// [`Inner::share`] for a page found equal, byte for byte, to the
    /// content being interned: what [`Inner::intern`] of those bytes
    /// would have done on its hit path, without hashing them.
    pub(crate) fn reshare(&mut self, page: &Page) -> Page {
        self.stats.hits += 1;
        self.stats.deduped_bytes += page.data.len() as u64;
        self.share(page)
    }

    /// Give back the reference `page` held; the last one frees the slot.
    pub(crate) fn release(&mut self, page: &Page) {
        let Some(slot) = self.slots.get_mut(&page.key) else {
            debug_assert!(false, "released a page whose slot is gone");
            return;
        };
        debug_assert!(slot.refs >= 1, "released a page nobody holds");
        slot.refs = slot.refs.saturating_sub(1);
        if slot.refs == 0 {
            let len = slot.data.len();
            self.slots.remove(&page.key);
            self.stats.live_pages -= 1;
            self.stats.live_bytes -= len;
            self.stats.freed_bytes += len as u64;
        }
    }
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageStoreInner")
            .field("live_pages", &self.stats.live_pages)
            .field("live_bytes", &self.stats.live_bytes)
            .finish()
    }
}

/// One reference to an interned page, without the means to give it
/// back: whoever owns a `Page` ([`PageHandle`], [`PagedImage`]) also
/// knows the store and releases it there. Reads never lock — the `Arc`
/// to the bytes is cached here.
///
/// [`PagedImage`]: crate::PagedImage
#[derive(Debug)]
pub(crate) struct Page {
    pub(crate) key: u64,
    pub(crate) data: Arc<[u8]>,
}

/// A shared content-addressed page store. Cloning the store handle
/// shares the underlying pages — one store can back every process of a
/// world, every speculation branch, and (when passed explicitly) many
/// worlds at once.
#[derive(Clone, Debug, Default)]
pub struct PageStore {
    inner: Arc<Mutex<Inner>>,
}

impl PageStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Do two handles name the same store?
    pub fn ptr_eq(&self, other: &PageStore) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The store's lock, for callers that touch many pages at once.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock()
    }

    /// Intern `bytes` as a page. Returns the handle and whether the page
    /// was `fresh` (inserted now) as opposed to already present.
    pub fn intern(&self, bytes: &[u8]) -> (PageHandle, bool) {
        let (page, fresh) = self.lock().intern(bytes);
        (
            PageHandle {
                store: self.clone(),
                page,
            },
            fresh,
        )
    }

    /// Bytes currently interned, each distinct page counted once — the
    /// resident footprint of everything referencing this store.
    pub fn unique_bytes(&self) -> usize {
        self.lock().stats.live_bytes
    }

    /// Pages currently interned.
    pub fn page_count(&self) -> usize {
        self.lock().stats.live_pages
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Reference count of the page under `key` (0 when absent) —
    /// accounting introspection for GC tests.
    pub fn refs_of(&self, key: u64) -> u64 {
        self.lock().slots.get(&key).map_or(0, |s| s.refs)
    }
}

/// A reference-counted handle to one interned page. Cloning bumps the
/// store refcount; dropping the last handle removes the page and counts
/// its bytes as freed. Reads never lock: the handle caches the `Arc` to
/// the page bytes.
pub struct PageHandle {
    store: PageStore,
    page: Page,
}

impl PageHandle {
    /// The page's content key in its store.
    pub fn key(&self) -> u64 {
        self.page.key
    }

    /// The page bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.page.data
    }

    /// Page length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.page.data.len()
    }

    /// True for the (unusual) zero-length page.
    pub fn is_empty(&self) -> bool {
        self.page.data.is_empty()
    }
}

impl std::ops::Deref for PageHandle {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.page.data
    }
}

impl std::fmt::Debug for PageHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageHandle({:#018x}, {}B)", self.page.key, self.len())
    }
}

impl Clone for PageHandle {
    fn clone(&self) -> Self {
        let page = self.store.lock().share(&self.page);
        Self {
            store: self.store.clone(),
            page,
        }
    }
}

impl Drop for PageHandle {
    fn drop(&mut self) {
        self.store.lock().release(&self.page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_equal_content() {
        let store = PageStore::new();
        let (a, fresh_a) = store.intern(b"same bytes");
        let (b, fresh_b) = store.intern(b"same bytes");
        assert!(fresh_a);
        assert!(!fresh_b);
        assert_eq!(a.key(), b.key());
        assert_eq!(store.page_count(), 1);
        assert_eq!(store.unique_bytes(), 10);
        assert_eq!(store.refs_of(a.key()), 2);
        let s = store.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.deduped_bytes, 10);
    }

    #[test]
    fn distinct_content_distinct_pages() {
        let store = PageStore::new();
        let (a, _) = store.intern(b"alpha");
        let (b, _) = store.intern(b"bravo");
        assert_ne!(a.key(), b.key());
        assert_eq!(store.page_count(), 2);
        assert_eq!(a.as_slice(), b"alpha");
        assert_eq!(&b[..], b"bravo");
    }

    #[test]
    fn drop_of_last_handle_frees_and_reports() {
        let store = PageStore::new();
        let (a, _) = store.intern(&[7u8; 64]);
        let b = a.clone();
        assert_eq!(store.refs_of(a.key()), 2);
        drop(a);
        assert_eq!(store.unique_bytes(), 64, "one handle still live");
        assert_eq!(store.stats().freed_bytes, 0);
        drop(b);
        assert_eq!(store.unique_bytes(), 0);
        assert_eq!(store.page_count(), 0);
        assert_eq!(store.stats().freed_bytes, 64);
    }

    #[test]
    fn reintern_after_free_is_fresh() {
        let store = PageStore::new();
        let (a, _) = store.intern(b"page");
        drop(a);
        let (_b, fresh) = store.intern(b"page");
        assert!(fresh, "freed page must be re-inserted");
        assert_eq!(store.stats().misses, 2);
    }

    #[test]
    fn clones_of_store_share_contents() {
        let store = PageStore::new();
        let alias = store.clone();
        let (_h, _) = store.intern(b"shared");
        assert_eq!(alias.unique_bytes(), 6);
        assert!(store.ptr_eq(&alias));
        assert!(!store.ptr_eq(&PageStore::new()));
    }

    #[test]
    fn colliding_key_probes_on_and_walks_the_chain_back() {
        // No two real pages are known to share a key, so plant what a
        // true 64-bit collision would leave: a slot under A's key holding
        // other bytes, counted as the intern that put it there.
        let (a, b) = (&b"page A"[..], &b"page B, planted"[..]);
        let store = PageStore::new();
        let home = page_hash(a);
        {
            let mut inner = store.lock();
            let planted = Slot {
                data: Arc::from(b),
                refs: 1,
            };
            inner.slots.insert(home, planted);
            inner.stats.misses += 1;
            inner.stats.live_pages += 1;
            inner.stats.live_bytes += b.len();
        }
        let (first, fresh) = store.intern(a);
        assert!(fresh, "A is not B: a new slot one probe on");
        assert_eq!(first.key(), next_probe(home));
        assert_eq!(first.as_slice(), a);
        let (second, fresh) = store.intern(a);
        assert!(!fresh, "the chain leads back to A");
        assert_eq!(second.key(), first.key());
        assert_eq!(store.refs_of(first.key()), 2);
        assert_eq!(store.refs_of(home), 1, "the planted slot is untouched");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.live_pages), (1, 2, 2));
        assert_eq!(s.live_bytes, a.len() + b.len());

        drop((first, second));
        assert_eq!(store.refs_of(next_probe(home)), 0, "A's slot is gone");
        assert_eq!(store.refs_of(home), 1, "the planted slot stays");
        assert_eq!(
            store.stats(),
            StoreStats {
                live_pages: 1,
                live_bytes: b.len(),
                hits: 1,
                misses: 2,
                deduped_bytes: a.len() as u64,
                freed_bytes: a.len() as u64,
            }
        );
    }

    #[test]
    fn empty_page_interns() {
        let store = PageStore::new();
        let (h, fresh) = store.intern(&[]);
        assert!(fresh);
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(store.unique_bytes(), 0);
        assert_eq!(store.page_count(), 1);
    }
}
