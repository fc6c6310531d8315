//! Property-based tests for the Time Machine: paged-image laws,
//! recovery-line safety, rollback determinism, CIC intervals.

use std::collections::BTreeMap;

use proptest::prelude::*;

use fixd_runtime::{Context, EventKind, Message, Pid, Program, World, WorldConfig};
use fixd_timemachine::{
    recovery_line, CheckpointPolicy, DepEdge, PageStore, PagedImage, TimeMachine,
    TimeMachineConfig, NO_ROLLBACK,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Paging is lossless for arbitrary byte images and page sizes.
    #[test]
    fn paged_image_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..2000),
                             page in 1usize..512) {
        let store = PageStore::new();
        let img = PagedImage::from_bytes_with(&store, &bytes, page);
        prop_assert_eq!(img.to_bytes(), bytes);
    }

    /// Interning a second image is lossless, its stats add up, and the
    /// store's footprint never exceeds the two images' combined size.
    #[test]
    fn reintern_lossless(a in proptest::collection::vec(any::<u8>(), 0..1500),
                         b in proptest::collection::vec(any::<u8>(), 0..1500)) {
        let store = PageStore::new();
        let ia = PagedImage::from_bytes(&store, &a);
        let ib = PagedImage::from_bytes(&store, &b);
        let stats = ib.build_stats();
        prop_assert_eq!(ia.to_bytes(), a.clone());
        prop_assert_eq!(ib.to_bytes(), b.clone());
        prop_assert_eq!(stats.reused + stats.fresh, ib.page_count());
        prop_assert!(store.unique_bytes() <= a.len() + b.len());
        prop_assert_eq!(
            store.unique_bytes(),
            PagedImage::unique_bytes([&ia, &ib].into_iter())
        );
    }

    /// Mutating one byte of an already-interned image interns exactly
    /// one fresh page (constant images collapse to very few pages, and
    /// the dirtied page is the only new content).
    #[test]
    fn sparse_mutation_sparse_pages(len in 256usize..2048, at in 0usize..2048) {
        let at = at % len;
        let store = PageStore::new();
        let base = vec![0xAAu8; len];
        let mut mutated = base.clone();
        mutated[at] ^= 1;
        let _ia = PagedImage::from_bytes(&store, &base);
        let ib = PagedImage::from_bytes(&store, &mutated);
        prop_assert_eq!(ib.build_stats().fresh, 1);
    }
}

// Random dependency graphs: the recovery line must be *consistent*
// (no orphan edge survives) — the F6 safety property.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recovery_line_is_consistent(
        edges in proptest::collection::vec((0u32..5, 0u64..8, 0u32..5, 0u64..8), 0..30),
        fail in 0u32..5,
        target in 0u64..8,
    ) {
        let g: Vec<DepEdge> = edges
            .into_iter()
            .filter(|&(s, _, d, _)| s != d)
            .map(|(s, si, d, di)| DepEdge { src: Pid(s), src_interval: si, dst: Pid(d), dst_interval: di })
            .collect();
        let line = recovery_line(g.iter().copied(), 5, Pid(fail), target);
        // Consistency: no edge whose send was undone has a surviving
        // receive.
        for e in &g {
            let sl = line[e.src.idx()];
            let dl = line[e.dst.idx()];
            if sl != NO_ROLLBACK && sl <= e.src_interval {
                prop_assert!(
                    dl != NO_ROLLBACK && dl <= e.dst_interval,
                    "orphan edge {:?} under line {:?}", e, line
                );
            }
        }
        // The failed process honors its target.
        prop_assert!(line[fail as usize] <= target);
    }
}

/// Worker app with a sizable mutating buffer, so checkpoints hold real
/// page data and GC passes have something to reclaim.
#[derive(Clone)]
struct BufFlow {
    buf: Vec<u8>,
    n: u64,
}
impl Program for BufFlow {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            ctx.send(Pid(1), 1, vec![40]);
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.n += 1;
        let i = (self.n as usize * 151) % self.buf.len();
        self.buf[i] = self.buf[i].wrapping_add(1);
        if msg.payload[0] > 0 {
            let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
            ctx.send(next, 1, vec![msg.payload[0] - 1]);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        let mut b = self.n.to_le_bytes().to_vec();
        b.extend_from_slice(&self.buf);
        b
    }
    fn restore(&mut self, b: &[u8]) {
        self.n = u64::from_le_bytes(b[0..8].try_into().unwrap());
        self.buf = b[8..].to_vec();
    }
}

fn buf_setup(n: usize, seed: u64) -> (World, TimeMachine) {
    let mut w = World::new(WorldConfig::seeded(seed));
    for _ in 0..n {
        w.add_process(Box::new(BufFlow {
            buf: vec![0; 2048],
            n: 0,
        }));
    }
    let tm = TimeMachine::new(
        n,
        TimeMachineConfig {
            policy: CheckpointPolicy::EveryReceive,
            page_size: 64,
        },
    );
    (w, tm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GC accounting safety (the content-addressed-store law): under any
    /// interleaving of checkpoint takes, `gc_before` passes, and
    /// Time-Machine branch clones/drops,
    ///
    /// 1. no page referenced by a live checkpoint (of the trunk OR a
    ///    live branch) is ever reclaimed — every such page keeps a
    ///    positive store refcount and its checkpoint's content hash is
    ///    unchanged;
    /// 2. no page leaks — the store's `unique_bytes` equals the dedup'd
    ///    footprint of exactly the live images.
    #[test]
    fn gc_never_reclaims_referenced_pages(
        seed in 0u64..500,
        ops in proptest::collection::vec((0u8..5, 0u64..6), 1..12),
    ) {
        const N: usize = 3;
        let (mut w, mut tm) = buf_setup(N, seed);
        tm.init(&mut w);
        let mut branch: Option<TimeMachine> = None;
        for (op, arg) in ops {
            match op {
                0 => {
                    tm.run(&mut w, 1 + arg * 3);
                }
                1 => {
                    let pid = Pid((arg % N as u64) as u32);
                    tm.checkpoint_now(&mut w, pid);
                }
                2 => {
                    // State bytes of the checkpoints that must survive.
                    let stable: Vec<u64> = (0..N)
                        .map(|i| tm.interval(Pid(i as u32)).saturating_sub(arg))
                        .collect();
                    let mut keep_states = Vec::new();
                    for (i, &s) in stable.iter().enumerate() {
                        let store = tm.store(Pid(i as u32));
                        for idx in s..=tm.interval(Pid(i as u32)) {
                            if store.is_live(idx) {
                                keep_states.push((i, idx, store.materialize(idx)));
                            }
                        }
                    }
                    tm.gc(&stable);
                    for (i, idx, state) in keep_states {
                        let store = tm.store(Pid(i as u32));
                        prop_assert!(store.is_live(idx), "P{i} ckpt {idx} wrongly collected");
                        prop_assert_eq!(
                            store.materialize(idx), state,
                            "P{} ckpt {} content changed under gc", i, idx
                        );
                    }
                }
                3 => {
                    branch = Some(tm.clone());
                }
                _ => {
                    branch = None;
                }
            }
            // Accounting invariant: the store holds exactly the pages of
            // the live images — trunk plus any live branch — and every
            // live page has a positive refcount.
            let mut imgs: Vec<&PagedImage> = Vec::new();
            for i in 0..N {
                imgs.extend(tm.store(Pid(i as u32)).images());
            }
            if let Some(b) = &branch {
                for i in 0..N {
                    imgs.extend(b.store(Pid(i as u32)).images());
                }
            }
            for img in &imgs {
                for key in img.page_keys() {
                    prop_assert!(
                        tm.page_store().refs_of(key) > 0,
                        "page {key:#x} of a live checkpoint has no store refcount"
                    );
                }
            }
            prop_assert_eq!(
                tm.page_store().unique_bytes(),
                PagedImage::unique_bytes(imgs.into_iter()),
                "store bytes must equal the live images' dedup'd footprint"
            );
        }
    }
}

/// Worker app for end-to-end rollback properties.
#[derive(Clone)]
struct Flow {
    sum: u64,
}
impl Program for Flow {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            ctx.send(Pid(1), 1, vec![10]);
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.sum += u64::from(msg.payload[0]);
        if msg.payload[0] > 0 {
            let next = Pid(((ctx.pid().0 as usize + 1) % ctx.world_size()) as u32);
            ctx.send(next, 1, vec![msg.payload[0] - 1]);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        self.sum.to_le_bytes().to_vec()
    }
    fn restore(&mut self, b: &[u8]) {
        self.sum = u64::from_le_bytes(b.try_into().unwrap());
    }
}

fn flow_setup(n: usize, seed: u64) -> (World, TimeMachine) {
    let mut w = World::new(WorldConfig::seeded(seed));
    for _ in 0..n {
        w.add_process(Box::new(Flow { sum: 0 }));
    }
    let tm = TimeMachine::new(
        n,
        TimeMachineConfig {
            policy: CheckpointPolicy::EveryReceive,
            page_size: 64,
        },
    );
    (w, tm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Roll back anywhere, resume, and the final global state equals the
    /// never-rolled-back run (rollback transparency).
    #[test]
    fn rollback_transparency(seed in 0u64..200, n in 2usize..5,
                             pause in 1u64..20, back in 1u64..4) {
        let reference = {
            let (mut w, mut tm) = flow_setup(n, seed);
            tm.run(&mut w, 10_000);
            w.global_snapshot().fingerprint()
        };
        let (mut w, mut tm) = flow_setup(n, seed);
        tm.run(&mut w, pause);
        let fail = Pid(((seed as usize) % n) as u32);
        let cur = tm.interval(fail);
        let target = cur.saturating_sub(back);
        if tm.store(fail).get(target).is_some() {
            tm.rollback(&mut w, fail, target).unwrap();
        }
        tm.run(&mut w, 10_000);
        prop_assert_eq!(w.global_snapshot().fingerprint(), reference);
    }

    /// CIC invariant: a process's interval index always equals its
    /// delivered-message count under EveryReceive.
    #[test]
    fn cic_interval_tracks_receives(seed in 0u64..200, n in 2usize..5, steps in 1u64..40) {
        let (mut w, mut tm) = flow_setup(n, seed);
        tm.run(&mut w, steps);
        for i in 0..n {
            let pid = Pid(i as u32);
            prop_assert_eq!(tm.interval(pid), w.delivered_count(pid));
        }
    }
}

/// Run `tm` over `w` for up to `steps` events, recording into `oracle`
/// the receiver's state right after each receive's checkpoint.
fn drive(
    w: &mut World,
    tm: &mut TimeMachine,
    oracle: &mut BTreeMap<(u32, u64), Vec<u8>>,
    steps: u64,
) {
    for _ in 0..steps {
        let Some(ev) = w.peek() else { return };
        tm.before_step(w, &ev);
        if let EventKind::Deliver { msg } = &ev.kind {
            let state = w.checkpoint_process(msg.dst).state.to_bytes();
            oracle.insert((msg.dst.0, tm.interval(msg.dst)), state);
        }
        let Some(rec) = w.step() else { return };
        tm.after_step(w, &rec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replay exactness: every retained checkpoint — an image, or the
    /// handler events since the newest image replayed on it —
    /// materializes to the state its process had when it was taken,
    /// across a rollback mid-run and the run resumed after it.
    #[test]
    fn checkpoints_materialize_to_the_state_they_were_taken_in(
        seed in 0u64..500, n in 2usize..5, long in any::<bool>(),
        pause in 1u64..60, back in 0u64..12,
    ) {
        let (mut w, mut tm) = if long { buf_setup(n, seed) } else { flow_setup(n, seed) };
        tm.init(&mut w);
        let mut oracle = BTreeMap::new();
        for p in 0..n as u32 {
            oracle.insert((p, 0), w.checkpoint_process(Pid(p)).state.to_bytes());
        }
        drive(&mut w, &mut tm, &mut oracle, pause);
        let fail = Pid((seed % n as u64) as u32);
        let target = tm.interval(fail).saturating_sub(back);
        tm.rollback(&mut w, fail, target).unwrap();
        oracle.retain(|&(p, i), _| i < tm.store(Pid(p)).len() as u64);
        drive(&mut w, &mut tm, &mut oracle, 10_000);
        for (&(p, i), want) in &oracle {
            let got = tm.store(Pid(p)).materialize(i);
            prop_assert!(
                got.as_ref() == Some(want),
                "P{} checkpoint {} materialized to another state", p, i
            );
        }
    }
}
