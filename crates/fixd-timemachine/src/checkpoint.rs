//! Per-process checkpoint stores over the shared content-addressed
//! page store.
//!
//! A store keeps one entry per checkpoint — its index, the process's
//! whole runtime context, its handler-event count — but writes a
//! *process image* (the state, paged copy-on-write, §4.2) only once
//! eight handler events (`IMAGE_EVERY`) ran since the last one. The
//! checkpoints between two images are restored from the older one by
//! re-running the process's own handler events, which the store logs as
//! they run: the liblog-style log of §4.1 paired with the lightweight
//! checkpoints of §4.2, so a checkpoint before every receive (Fig. 6)
//! does not cost a state copy per receive.
//!
//! Replay re-executes handlers on the code that first ran them: a
//! program replaced, restored or written outside a handler
//! ([`World::program_generation`]) starts a new generation, whose first
//! checkpoint is an image (after a restore, the restored checkpoint
//! becomes it) and whose program is copied once as the generation's
//! replay template. Replay writes nothing outside the process: sends,
//! timers and outputs are dropped, and so are
//! [`fixd_runtime::SharedDisk`] writes ([`DiskReplayGuard`]).

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use fixd_runtime::{
    DiskReplayGuard, Event, EventKind, Pid, ProcCheckpoint, ProcContext, Program, SharedMessage,
    SnapshotImage, SoloHarness, TimerId, VTime, World,
};

use crate::page::{PageStats, PageStore, PagedImage};

/// Handler events after which a process's next checkpoint is an image.
const IMAGE_EVERY: u64 = 8;

/// A program of one generation, state unspecified: what replays the
/// handler events that generation ran. Cloned from the world once per
/// generation and shared by its images.
#[derive(Clone)]
struct Code {
    generation: u64,
    program: Arc<dyn Program>,
}

impl fmt::Debug for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Code")
            .field("generation", &self.generation)
            .field("program", &self.program.name())
            .finish()
    }
}

/// A process image: the paged state, the code that ran on from it, and
/// the world width its handlers saw.
#[derive(Clone, Debug)]
struct Image {
    state: SnapshotImage,
    code: Code,
    width: usize,
}

impl Image {
    fn pages(&self) -> Option<&PagedImage> {
        self.state.as_paged()
    }
}

/// A Time-Machine checkpoint: the process's runtime context when it was
/// taken and, every eighth handler event, an image of its state whose
/// pages are interned in the Time Machine's shared [`PageStore`] — so
/// equal pages dedup across images, across processes, and across
/// speculation branches. The state of a checkpoint without an image is
/// [`CheckpointStore::materialize`]d by replay.
#[derive(Clone, Debug)]
pub struct TmCheckpoint {
    /// Checkpoint index = the interval this checkpoint *starts*.
    pub index: u64,
    /// The process's whole runtime context (clocks, RNG position, id
    /// counters, meta template) when the checkpoint was taken.
    pub ctx: ProcContext,
    /// Virtual time at which the checkpoint was taken.
    pub taken_at: VTime,
    /// Handler events this process had executed when the checkpoint was
    /// taken (rollback-depth accounting for F6).
    pub events_at: u64,
    /// Page-sharing stats of this checkpoint's image: pages found
    /// already interned (in its predecessor or anywhere else in the
    /// store) versus pages inserted. Zero without an image.
    pub stats: PageStats,
    /// False once garbage collection has dropped the checkpoint: the
    /// entry keeps its index (message metadata refers to indices) but
    /// can no longer be restored.
    pub live: bool,
    image: Option<Image>,
}

impl TmCheckpoint {
    /// Does this checkpoint hold an image of the state (else its state
    /// is replayed from the newest image before it)?
    pub fn has_image(&self) -> bool {
        self.image.is_some()
    }

    /// The paged state image, if this checkpoint holds one.
    fn pages(&self) -> Option<&PagedImage> {
        self.image.as_ref().and_then(Image::pages)
    }
}

/// The handler an event ran, as the log keeps it.
#[derive(Clone, Debug)]
enum Logged {
    Start,
    Deliver(SharedMessage),
    Timer(TimerId),
}

/// One handler event of the process: the virtual time the handler saw,
/// and what it handled.
#[derive(Clone, Debug)]
struct LoggedEvent {
    at: VTime,
    handler: Logged,
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
    /// What the process snapshots into on every image: the bytes live
    /// only until they are paged, so one buffer, grown to the largest
    /// image once, serves the whole history.
    scratch: Vec<u8>,
    /// The process's handler events from the `log_from`-th on: entry
    /// `k - log_from` is its `k`-th (a checkpoint's `events_at` counts
    /// the same events).
    log: Vec<LoggedEvent>,
    log_from: u64,
    /// The current generation's replay template, once copied.
    code: Option<Code>,
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
            log: Vec::new(),
            log_from: 0,
            code: None,
        }
    }

    /// The backing page store handle.
    pub fn page_store(&self) -> &PageStore {
        &self.pages
    }

    /// Take a checkpoint of `pid`'s current state in `world` with an
    /// image, interning pages into the shared store (any page already
    /// present — from this history, another process, or another branch
    /// — is reused without a copy). Pages unchanged since the newest
    /// image are found by comparing against it; when there is none (all
    /// collected, or none yet) every page goes through the store's hash
    /// lookup, with the same result. Returns the new index.
    pub fn take(&mut self, world: &World, events_at: u64) -> u64 {
        let code = self.code(world);
        let prev = self.checkpoints.iter().rev().find_map(TmCheckpoint::pages);
        let ProcCheckpoint {
            state,
            ctx,
            taken_at,
            ..
        } = world.checkpoint_process_in(
            self.pid,
            &self.pages,
            self.page_size,
            prev,
            &mut self.scratch,
        );
        let stats = state
            .as_paged()
            .map_or_else(PageStats::default, PagedImage::build_stats);
        self.push(TmCheckpoint {
            index: 0,
            ctx,
            taken_at,
            events_at,
            stats,
            live: true,
            image: Some(Image {
                state,
                code,
                width: world.num_procs(),
            }),
        })
    }

    /// Record a checkpoint of `pid`'s current state in `world`, `events_at`
    /// handler events into its run: an entry with the process's context,
    /// and an image ([`CheckpointStore::take`]) when one is due — at the
    /// first checkpoint, at the first after the program changed outside
    /// a handler, once eight handler events ran since the last image,
    /// and whenever the log does not run up to this checkpoint.
    /// This is the Time Machine's checkpoint. Returns the new index.
    pub fn record(&mut self, world: &World, events_at: u64) -> u64 {
        let generation = world.program_generation(self.pid);
        let due = self
            .checkpoints
            .iter()
            .rev()
            .find_map(|c| c.image.as_ref().map(|img| (c.events_at, img)))
            .is_none_or(|(at, img)| {
                img.code.generation != generation
                    || img.width != world.num_procs()
                    || events_at >= at + IMAGE_EVERY
            });
        if due || self.log_end() != events_at {
            return self.take(world, events_at);
        }
        self.push(TmCheckpoint {
            index: 0,
            ctx: world.proc_context(self.pid),
            taken_at: world.now(),
            events_at,
            stats: PageStats::default(),
            live: true,
            image: None,
        })
    }

    /// The replay template of the process's current program generation
    /// in `world`, copied on the generation's first use.
    fn code(&mut self, world: &World) -> Code {
        let generation = world.program_generation(self.pid);
        match &self.code {
            Some(code) if code.generation == generation => code.clone(),
            _ => {
                let program = world.with_program(self.pid, |p| p.clone_program());
                let code = Code {
                    generation,
                    program: Arc::from(program),
                };
                self.code = Some(code.clone());
                code
            }
        }
    }

    /// Append `ck` as the next checkpoint; returns its index.
    fn push(&mut self, ck: TmCheckpoint) -> u64 {
        let index = self.checkpoints.len() as u64;
        self.checkpoints.push(TmCheckpoint { index, ..ck });
        index
    }

    /// Log the handler event `ev` of this process, which it ran after
    /// its newest checkpoint. Events that run no handler are ignored.
    pub(crate) fn log(&mut self, ev: &Event) {
        let handler = match &ev.kind {
            EventKind::Start { .. } => Logged::Start,
            EventKind::Deliver { msg } => Logged::Deliver(msg.clone()),
            EventKind::TimerFire { timer, .. } => Logged::Timer(*timer),
            _ => return,
        };
        self.log.push(LoggedEvent { at: ev.at, handler });
    }

    /// The count of handler events logged so far, collected ones
    /// included.
    fn log_end(&self) -> u64 {
        self.log_from + self.log.len() as u64
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

    /// The state bytes of live checkpoint `index`: its image, or the
    /// newest image before it with the logged handler events between
    /// them re-run on that image's code. `None` for a collected or
    /// unknown checkpoint.
    pub fn materialize(&self, index: u64) -> Option<Vec<u8>> {
        let i = usize::try_from(index).ok()?;
        let base = self.base_of(i)?;
        let mut state = None;
        self.replay(base, i..i + 1, |_, bytes| {
            state = Some(std::mem::take(bytes))
        });
        state
    }

    /// The newest live checkpoint whose state bytes `accept` takes,
    /// offered newest first. Each image's replay runs once for all the
    /// checkpoints it restores, not once per checkpoint.
    pub fn newest_where(&self, mut accept: impl FnMut(&[u8]) -> bool) -> Option<u64> {
        let mut end = self.checkpoints.len();
        while let Some(base) = self.checkpoints[..end]
            .iter()
            .rposition(|c| c.image.is_some())
        {
            // The newest checkpoint is the usual pick: it is offered
            // straight off the replay, and the older ones, kept for
            // newest-first order, only if it is refused.
            let mut hit = None;
            self.replay(base, end - 1..end, |i, state| {
                hit = accept(state).then_some(i);
            });
            if hit.is_none() {
                let mut states = Vec::new();
                self.replay(base, base..end - 1, |i, state| {
                    states.push((i, state.clone()));
                });
                hit = states
                    .into_iter()
                    .rev()
                    .find_map(|(i, state)| accept(&state).then_some(i));
            }
            if let Some(i) = hit {
                return Some(i as u64);
            }
            end = base;
        }
        None
    }

    /// The image live checkpoint `i` replays from.
    fn base_of(&self, i: usize) -> Option<usize> {
        if !self.checkpoints.get(i)?.live {
            return None;
        }
        self.checkpoints[..=i]
            .iter()
            .rposition(|c| c.image.is_some())
    }

    /// Replay forward from the image of checkpoint `base`, handing
    /// `visit` the state bytes of every live checkpoint in `wanted`, in
    /// order. Stops early where the log does not reach.
    fn replay(
        &self,
        base: usize,
        wanted: Range<usize>,
        mut visit: impl FnMut(usize, &mut Vec<u8>),
    ) {
        let Some((ck, image)) = self
            .checkpoints
            .get(base)
            .and_then(|c| Some((c, c.image.as_ref()?)))
        else {
            return;
        };
        // One buffer holds the image's bytes, then each snapshot; a
        // visitor may take it.
        let mut buf = image.state.to_bytes();
        let live = |i: usize| wanted.contains(&i) && self.checkpoints[i].live;
        let end = wanted.end.min(self.checkpoints.len());
        let mut program = (end > base + 1).then(|| {
            let mut program = image.code.program.clone_program();
            program.restore(&buf);
            program
        });
        if live(base) {
            visit(base, &mut buf);
        }
        let Some(program) = program.as_mut() else {
            return;
        };
        let mut harness = SoloHarness::resume(
            &ProcCheckpoint {
                pid: self.pid,
                state: SnapshotImage::inline(Vec::new()),
                ctx: ck.ctx.clone(),
                taken_at: ck.taken_at,
            },
            image.width,
        );
        let _disk = DiskReplayGuard::new();
        let Some(skip) = ck.events_at.checked_sub(self.log_from) else {
            return;
        };
        let mut events = self.log.iter().skip(skip as usize);
        let mut ran = ck.events_at;
        for i in base + 1..end {
            while ran < self.checkpoints[i].events_at {
                let Some(ev) = events.next() else { return };
                harness.set_now(ev.at);
                let program = program.as_mut();
                SoloHarness::recycle(match &ev.handler {
                    Logged::Start => harness.start(program),
                    Logged::Deliver(msg) => harness.deliver(program, msg),
                    Logged::Timer(t) => harness.timer(program, *t),
                });
                ran += 1;
            }
            if live(i) {
                buf.clear();
                program.snapshot_to(&mut buf);
                visit(i, &mut buf);
            }
        }
    }

    /// Restore the process in `world` to live checkpoint `index`: its
    /// state goes into the live program, its context replaces the
    /// process's. Later checkpoints, and the handler events logged
    /// after this one, are discarded (they describe an undone future).
    /// The process runs on from here in a new program generation (a
    /// restore starts one), so the checkpoint becomes an image of that
    /// generation: the base the rest of the run replays from, which a
    /// later walk or rollback to it reads without replaying. Returns the
    /// restored checkpoint's `events_at`.
    pub fn restore(&mut self, world: &mut World, index: u64) -> Option<u64> {
        let i = usize::try_from(index).ok()?;
        let state = self.materialize(index)?;
        let ck = self.checkpoints.get(i)?;
        let restored = ProcCheckpoint {
            pid: self.pid,
            state: SnapshotImage::inline(state),
            ctx: ck.ctx.clone(),
            taken_at: ck.taken_at,
        };
        world.restore_checkpoint(&restored);
        let events_at = ck.events_at;
        self.checkpoints.truncate(i + 1);
        self.log
            .truncate(events_at.saturating_sub(self.log_from) as usize);
        let code = self.code(world);
        let (older, rest) = self.checkpoints.split_at_mut(i);
        let ck = rest.first_mut()?;
        let state = match ck.image.take() {
            Some(image) => image.state,
            None => {
                let prev = older.iter().rev().find_map(TmCheckpoint::pages);
                let pages = PagedImage::from_bytes_after(
                    &self.pages,
                    &restored.state.into_bytes(),
                    self.page_size,
                    prev,
                );
                ck.stats = pages.build_stats();
                SnapshotImage::Paged(pages)
            }
        };
        ck.image = Some(Image {
            state,
            code,
            width: world.num_procs(),
        });
        Some(events_at)
    }

    /// Drop checkpoints with `index < keep_from` (garbage collection).
    /// Entries stay in place so the indices of retained checkpoints do
    /// not move; a dropped entry is marked not `live`. The newest image
    /// at or before `keep_from` stays, with the log from it on: the
    /// checkpoints from `keep_from` on replay from it. Older images give
    /// up their pages — releasing their refcounts, so pages referenced
    /// nowhere else are freed by the store and counted in
    /// `StoreStats::freed_bytes`. Returns the number of checkpoints
    /// dropped.
    pub fn gc_before(&mut self, keep_from: u64) -> usize {
        let len = self.checkpoints.len();
        let drop_n = (keep_from as usize).min(len);
        let mut dropped = 0;
        for ck in self.checkpoints[..drop_n].iter_mut().filter(|c| c.live) {
            ck.live = false;
            dropped += 1;
        }
        // The first image any kept checkpoint replays from.
        let base = if drop_n == len {
            len
        } else {
            self.checkpoints[..=drop_n]
                .iter()
                .rposition(|c| c.image.is_some())
                .or_else(|| self.checkpoints.iter().position(|c| c.image.is_some()))
                .unwrap_or(len)
        };
        for ck in &mut self.checkpoints[..base] {
            ck.image = None;
        }
        let log_from = self
            .checkpoints
            .get(base)
            .map_or_else(|| self.log_end(), |c| c.events_at);
        self.log
            .drain(..(log_from.saturating_sub(self.log_from) as usize).min(self.log.len()));
        self.log_from = self.log_from.max(log_from);
        dropped
    }

    /// Is checkpoint `index` still restorable (not GC'd)?
    pub fn is_live(&self, index: u64) -> bool {
        self.get(index).is_some_and(|c| c.live)
    }

    /// Distinct bytes held by the history's images (content-dedup-aware,
    /// within this process only — the per-process baseline figure).
    pub fn unique_bytes(&self) -> usize {
        PagedImage::unique_bytes(self.images())
    }

    /// The images the history holds (for cross-store dedup accounting).
    pub fn images(&self) -> impl Iterator<Item = &PagedImage> {
        self.checkpoints.iter().filter_map(TmCheckpoint::pages)
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
            assert!(ck.pages().unwrap().page_keys().eq(mine.page_keys()));
            assert_eq!(ck.pages(), Some(mine));
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
        assert_eq!(ck.stats.fresh, ck.pages().unwrap().page_count());
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
        assert_eq!(ck.pages(), store.get(1).unwrap().pages());
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
            ck.pages().unwrap().len(),
            store.get(0).unwrap().pages().unwrap().len() + 3
        );
        assert_eq!(ck.pages().unwrap().to_bytes()[..3], *b"v2!");
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
