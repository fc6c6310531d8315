//! Per-process checkpoint stores over the shared content-addressed
//! page store.

use fixd_runtime::{Pid, ProcCheckpoint, SnapshotImage, World};

use crate::page::{PageStats, PageStore, PagedImage};

/// A Time-Machine checkpoint: the [`fixd_runtime::ProcCheckpoint`] it
/// took, with the state held as a [`PagedImage`] whose pages are
/// interned in the Time Machine's shared [`PageStore`] — so equal pages
/// dedup across checkpoint generations, across processes, and across
/// speculation branches.
#[derive(Clone, Debug)]
pub struct TmCheckpoint {
    /// Checkpoint index = the interval this checkpoint *starts*.
    pub index: u64,
    /// The process's state (paged) and whole runtime context.
    pub ckpt: ProcCheckpoint,
    /// Handler events this process had executed when the checkpoint was
    /// taken (rollback-depth accounting for F6).
    pub events_at: u64,
    /// Page-sharing stats of this checkpoint: pages found already
    /// interned (in its predecessor or anywhere else in the store) versus
    /// pages inserted.
    pub stats: PageStats,
    /// False once garbage collection has dropped the image: the entry
    /// keeps its index (message metadata refers to indices) but can no
    /// longer be restored, nor serve as the predecessor of a new image.
    pub live: bool,
}

impl TmCheckpoint {
    /// The paged state image.
    fn image(&self) -> Option<&PagedImage> {
        self.ckpt.state.as_paged()
    }
}

/// The checkpoint history of one process. All page data lives in the
/// [`PageStore`] handed in at construction; `CheckpointStore`s of
/// different processes (and of different worlds, when the caller shares
/// one store) deduplicate equal pages against each other.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    pid: Pid,
    checkpoints: Vec<TmCheckpoint>,
    page_size: usize,
    pages: PageStore,
    /// What the process snapshots into on every [`CheckpointStore::take`]:
    /// the bytes live only until they are paged, so one buffer, grown to
    /// the largest image once, serves the whole history.
    scratch: Vec<u8>,
}

impl CheckpointStore {
    /// An empty store for `pid` backed by a private page store. Prefer
    /// [`CheckpointStore::with_store`] so processes share pages.
    pub fn new(pid: Pid, page_size: usize) -> Self {
        Self::with_store(pid, page_size, PageStore::new())
    }

    /// An empty store for `pid` interning pages into `pages`.
    pub fn with_store(pid: Pid, page_size: usize, pages: PageStore) -> Self {
        Self {
            pid,
            checkpoints: Vec::new(),
            page_size,
            pages,
            scratch: Vec::new(),
        }
    }

    /// The backing page store handle.
    pub fn page_store(&self) -> &PageStore {
        &self.pages
    }

    /// Take a checkpoint of `pid`'s current state in `world`, interning
    /// pages into the shared store (any page already present — from this
    /// history, another process, or another branch — is reused without a
    /// copy). Pages unchanged since the latest checkpoint are found by
    /// comparing against its image; when that one is gone (GC'd, or there
    /// is none yet) every page goes through the store's hash lookup,
    /// with the same result. Returns the new index.
    pub fn take(&mut self, world: &World, events_at: u64) -> u64 {
        let prev = self
            .checkpoints
            .last()
            .filter(|c| c.live)
            .and_then(TmCheckpoint::image);
        let ckpt = world.checkpoint_process_in(
            self.pid,
            &self.pages,
            self.page_size,
            prev,
            &mut self.scratch,
        );
        let stats = ckpt
            .state
            .as_paged()
            .map_or_else(PageStats::default, PagedImage::build_stats);
        let index = self.checkpoints.len() as u64;
        self.checkpoints.push(TmCheckpoint {
            index,
            ckpt,
            events_at,
            stats,
            live: true,
        });
        index
    }

    /// The checkpoint at `index` (indices are dense from 0).
    pub fn get(&self, index: u64) -> Option<&TmCheckpoint> {
        self.checkpoints.get(index as usize)
    }

    /// Latest checkpoint, if any.
    pub fn latest(&self) -> Option<&TmCheckpoint> {
        self.checkpoints.last()
    }

    /// Latest index, if any.
    pub fn latest_index(&self) -> Option<u64> {
        self.checkpoints.last().map(|c| c.index)
    }

    /// Number of checkpoints retained.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// True when no checkpoints exist.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Restore the process in `world` to checkpoint `index`. Later
    /// checkpoints are discarded (they describe an undone future).
    /// Returns the restored checkpoint's `events_at`.
    pub fn restore(&mut self, world: &mut World, index: u64) -> Option<u64> {
        let ck = self.checkpoints.get(index as usize)?;
        world.restore_checkpoint(&ck.ckpt);
        let events_at = ck.events_at;
        self.checkpoints.truncate(index as usize + 1);
        Some(events_at)
    }

    /// Drop checkpoints with `index < keep_from` (garbage collection).
    /// Entries stay in place so the indices of retained checkpoints do
    /// not move; a dropped entry gives up its image — releasing its page
    /// refcounts, so pages referenced nowhere else are freed by the store
    /// and counted in `StoreStats::freed_bytes` — and is marked not
    /// `live`. Returns the number of checkpoints dropped.
    pub fn gc_before(&mut self, keep_from: u64) -> usize {
        let drop_n = (keep_from as usize).min(self.checkpoints.len());
        let mut dropped = 0;
        for ck in self.checkpoints[..drop_n].iter_mut().filter(|c| c.live) {
            ck.ckpt.state = SnapshotImage::Paged(PagedImage::empty());
            ck.live = false;
            dropped += 1;
        }
        dropped
    }

    /// Is checkpoint `index` still restorable (not GC'd)?
    pub fn is_live(&self, index: u64) -> bool {
        self.get(index).is_some_and(|c| c.live)
    }

    /// Distinct bytes held by the whole history (content-dedup-aware,
    /// within this process only — the per-process baseline figure).
    pub fn unique_bytes(&self) -> usize {
        PagedImage::unique_bytes(self.images())
    }

    /// The images of the retained checkpoints (for cross-store dedup
    /// accounting).
    pub fn images(&self) -> impl Iterator<Item = &PagedImage> {
        self.checkpoints.iter().filter_map(TmCheckpoint::image)
    }

    /// Sum of page-sharing stats across the history.
    pub fn total_stats(&self) -> PageStats {
        let mut s = PageStats::default();
        for c in &self.checkpoints {
            s.reused += c.stats.reused;
            s.fresh += c.stats.fresh;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixd_runtime::{Context, Message, Program, World, WorldConfig};

    /// State: a sizable buffer where each message mutates one cell —
    /// ideal for observing COW sharing.
    #[derive(Clone)]
    struct BigState {
        buf: Vec<u8>,
        writes: u64,
    }
    impl Program for BigState {
        fn on_start(&mut self, ctx: &mut Context) {
            if ctx.pid() == Pid(0) {
                for i in 0..5u8 {
                    ctx.send(Pid(1), 1, vec![i]);
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Context, msg: &Message) {
            let i = usize::from(msg.payload[0]) * 97 % self.buf.len();
            self.buf[i] = self.buf[i].wrapping_add(1);
            self.writes += 1;
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut b = self.writes.to_le_bytes().to_vec();
            b.extend_from_slice(&self.buf);
            b
        }
        fn restore(&mut self, b: &[u8]) {
            self.writes = u64::from_le_bytes(b[0..8].try_into().unwrap());
            self.buf = b[8..].to_vec();
        }
    }

    fn world() -> World {
        let mut w = World::new(WorldConfig::seeded(5));
        w.add_process(Box::new(BigState {
            buf: vec![0; 4096],
            writes: 0,
        }));
        w.add_process(Box::new(BigState {
            buf: vec![0; 4096],
            writes: 0,
        }));
        w
    }

    #[test]
    fn incremental_checkpoints_share_pages() {
        let mut w = world();
        let mut store = CheckpointStore::new(Pid(1), 256);
        store.take(&w, 0);
        w.run_to_quiescence(1_000);
        store.take(&w, 5);
        let last = store.latest().unwrap();
        assert!(last.stats.reused > 0, "most pages unchanged");
        assert!(last.stats.fresh >= 1, "mutated pages copied");
        assert!(last.stats.reused > last.stats.fresh);
        // COW history is much smaller than eager copies.
        let eager = 2 * (4096 + 8);
        assert!(store.unique_bytes() < eager);
    }

    #[test]
    fn restore_returns_exact_state() {
        let mut w = world();
        let mut store = CheckpointStore::new(Pid(1), 256);
        w.run_steps(3);
        let fp_then = w.checkpoint_process(Pid(1)).fingerprint();
        let idx = store.take(&w, 3);
        w.run_to_quiescence(1_000);
        assert_ne!(w.checkpoint_process(Pid(1)).fingerprint(), fp_then);
        let events_at = store.restore(&mut w, idx).unwrap();
        assert_eq!(events_at, 3);
        assert_eq!(w.checkpoint_process(Pid(1)).fingerprint(), fp_then);
    }

    #[test]
    fn restore_truncates_future_checkpoints() {
        let mut w = world();
        let mut store = CheckpointStore::new(Pid(1), 256);
        store.take(&w, 0);
        w.run_steps(4);
        store.take(&w, 4);
        w.run_to_quiescence(1_000);
        store.take(&w, 9);
        assert_eq!(store.len(), 3);
        store.restore(&mut w, 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.latest_index(), Some(1));
    }

    #[test]
    fn gc_tombstones_old_checkpoints() {
        let mut w = world();
        let mut store = CheckpointStore::new(Pid(1), 256);
        for i in 0..4 {
            store.take(&w, i);
            w.run_steps(2);
        }
        let dropped = store.gc_before(2);
        assert_eq!(dropped, 2);
        assert!(!store.is_live(0));
        assert!(!store.is_live(1));
        assert!(store.is_live(2));
        assert!(store.is_live(3));
        // Indices unchanged for live checkpoints.
        assert_eq!(store.get(3).unwrap().index, 3);
        // Second gc is a no-op.
        assert_eq!(store.gc_before(2), 0);
    }

    /// The same history paged from scratch in a store of its own: what
    /// every `take` must equal, whichever predecessor it found its
    /// unchanged pages in.
    struct FromScratch {
        pages: PageStore,
        images: Vec<PagedImage>,
    }

    impl FromScratch {
        fn new() -> Self {
            Self {
                pages: PageStore::new(),
                images: Vec::new(),
            }
        }

        fn take(&mut self, w: &World) {
            let bytes = w.with_program(Pid(1), |p| p.snapshot());
            self.images
                .push(PagedImage::from_bytes_with(&self.pages, &bytes, 256));
        }

        fn assert_matches(&self, store: &CheckpointStore) {
            let ck = store.latest().unwrap();
            let mine = self.images.last().unwrap();
            assert!(ck.image().unwrap().page_keys().eq(mine.page_keys()));
            assert_eq!(ck.image(), Some(mine));
            assert_eq!(ck.stats, mine.build_stats());
            assert_eq!(store.page_store().stats(), self.pages.stats());
        }
    }

    /// `world()` with position-dependent buffer content, so that no two
    /// pages of an image are equal and a shifted layout shares nothing.
    fn patterned_world() -> World {
        let mut w = world();
        for pid in [Pid(0), Pid(1)] {
            let p = w.program_mut::<BigState>(pid).unwrap();
            for (i, b) in p.buf.iter_mut().enumerate() {
                *b = (i * 7 + i / 256) as u8;
            }
        }
        w
    }

    #[test]
    fn take_after_gc_never_diffs_against_a_dropped_image() {
        let mut w = patterned_world();
        let mut store = CheckpointStore::new(Pid(1), 256);
        let mut scratch = FromScratch::new();
        for i in 0..3 {
            store.take(&w, i);
            scratch.take(&w);
            scratch.assert_matches(&store);
            w.run_steps(2);
        }
        // Collect everything, the latest checkpoint included: the next
        // take has no live predecessor and must page from scratch.
        assert_eq!(store.gc_before(3), 3);
        scratch.images.clear();
        assert!(!store.latest().unwrap().live);
        assert_eq!(store.page_store().stats(), scratch.pages.stats());
        assert_eq!(store.page_store().unique_bytes(), 0);
        w.run_steps(2);
        let idx = store.take(&w, 8);
        scratch.take(&w);
        assert_eq!(idx, 3, "indices survive collection");
        scratch.assert_matches(&store);
        let ck = store.latest().unwrap();
        assert_eq!(ck.stats.reused, 0, "nothing of the dropped history is left");
        assert_eq!(ck.stats.fresh, ck.image().unwrap().page_count());
        // And the one after that diffs against it again.
        w.run_steps(1);
        store.take(&w, 9);
        scratch.take(&w);
        scratch.assert_matches(&store);
        assert!(store.latest().unwrap().stats.reused > 0);
    }

    #[test]
    fn take_after_restore_diffs_against_the_restored_checkpoint() {
        let mut w = patterned_world();
        let mut store = CheckpointStore::new(Pid(1), 256);
        let mut scratch = FromScratch::new();
        for i in 0..4 {
            store.take(&w, i);
            scratch.take(&w);
            w.run_steps(2);
        }
        store.restore(&mut w, 1).unwrap();
        scratch.images.truncate(2);
        assert_eq!(store.page_store().stats(), scratch.pages.stats());
        // The state is checkpoint 1's again, and checkpoint 1 is the
        // latest: the new image is all of its pages, none hashed anew.
        store.take(&w, 1);
        scratch.take(&w);
        scratch.assert_matches(&store);
        let ck = store.latest().unwrap();
        assert_eq!(ck.index, 2);
        assert_eq!(ck.stats.fresh, 0);
        assert_eq!(ck.ckpt.state, store.get(1).unwrap().ckpt.state);
    }

    /// `BigState` after a patch that changed its snapshot layout: a
    /// version tag in front moves every byte to a different page offset.
    #[derive(Clone)]
    struct PatchedBigState(BigState);
    impl Program for PatchedBigState {
        fn snapshot(&self) -> Vec<u8> {
            let mut b = b"v2!".to_vec();
            b.extend_from_slice(&self.0.snapshot());
            b
        }
        fn restore(&mut self, b: &[u8]) {
            self.0.restore(&b[3..]);
        }
    }

    #[test]
    fn take_after_a_layout_changing_patch_falls_back_page_by_page() {
        let mut w = patterned_world();
        let mut store = CheckpointStore::new(Pid(1), 256);
        let mut scratch = FromScratch::new();
        w.run_steps(3);
        store.take(&w, 3);
        scratch.take(&w);
        let old = w.program::<BigState>(Pid(1)).unwrap();
        let patched = PatchedBigState(BigState {
            buf: old.buf.clone(),
            writes: old.writes,
        });
        w.replace_program(Pid(1), Box::new(patched));
        store.take(&w, 3);
        scratch.take(&w);
        scratch.assert_matches(&store);
        let ck = store.latest().unwrap();
        assert_eq!(ck.stats.reused, 0, "every page moved");
        assert_eq!(
            ck.ckpt.state.len(),
            store.get(0).unwrap().ckpt.state.len() + 3
        );
        assert_eq!(ck.ckpt.state.to_bytes()[..3], *b"v2!");
    }

    #[test]
    fn first_checkpoint_interns_constant_pages_once() {
        // The 4 KiB zero buffer is 16 identical pages: content
        // addressing stores one and reuses it 15 times even on the very
        // first checkpoint.
        let w = world();
        let mut store = CheckpointStore::new(Pid(0), 256);
        store.take(&w, 0);
        let c = store.latest().unwrap();
        assert!(c.stats.fresh >= 1, "first distinct page is fresh");
        assert!(c.stats.reused >= 15, "constant region collapses");
        assert!(store.unique_bytes() < 4096 + 8);
    }

    #[test]
    fn two_processes_share_one_store() {
        // Identical initial states across pids: the shared store holds
        // one set of pages, the per-process sum counts them twice.
        let w = world();
        let pages = PageStore::new();
        let mut s0 = CheckpointStore::with_store(Pid(0), 256, pages.clone());
        let mut s1 = CheckpointStore::with_store(Pid(1), 256, pages.clone());
        s0.take(&w, 0);
        s1.take(&w, 0);
        let per_process = s0.unique_bytes() + s1.unique_bytes();
        assert_eq!(pages.unique_bytes() * 2, per_process);
        assert!(pages.unique_bytes() < per_process);
    }
}
