//! Property-based tests for the Scroll: codec bijection, spilled
//! read-back equivalence, merge consistency, cut lattice properties,
//! replay fidelity.

use proptest::prelude::*;

use fixd_runtime::wire::put_varint;
use fixd_runtime::{
    Context, Message, NetworkConfig, Pid, Program, SharedDisk, TimerId, VectorClock, World,
    WorldConfig,
};
use fixd_scroll::record::record_run;
use fixd_scroll::{
    codec, cut, merge_total_order, replay_process, EntryKind, Fidelity, RecordConfig, ScrollEntry,
    ScrollStore, SpillConfig,
};

/// Sparse clocks as a wide world produces them: up to 130 components,
/// densely sampled around the inline/heap boundary (3 | 4 pairs), pids
/// from one-byte to three-byte varints, counts straddling every varint
/// length change that matters (127 | 128, 2^14) up to `u64::MAX`.
/// Duplicate pids collapse in `from_pairs`, so `nnz` may come out lower.
fn arb_clock() -> impl Strategy<Value = VectorClock> {
    let pid = prop_oneof![0u32..8, 120u32..136, 0u32..((1 << 20) + 1)];
    let count = prop_oneof![
        1u64..4,
        126u64..130,
        ((1 << 14) - 2)..((1u64 << 14) + 2),
        Just(u64::MAX),
        any::<u64>(),
    ];
    let nnz = prop_oneof![0usize..6, 0usize..131];
    (nnz, proptest::collection::vec((pid, count), 130)).prop_map(|(nnz, mut pairs)| {
        pairs.truncate(nnz);
        VectorClock::from_pairs(pairs)
    })
}

/// The v2 clock wire form spelled out pair by pair — the oracle for
/// [`VectorClock::put_wire`], byte for byte.
fn naive_put_clock(buf: &mut Vec<u8>, vc: &VectorClock) {
    put_varint(buf, vc.nnz() as u64);
    for (p, c) in vc.entries() {
        put_varint(buf, u64::from(p.0));
        put_varint(buf, c);
    }
}

/// The v3 entry-clock delta spelled out over the union of both clocks'
/// pids — the oracle for [`VectorClock::put_wire_delta`], byte for byte.
fn naive_put_delta(buf: &mut Vec<u8>, vc: &VectorClock, base: &VectorClock) {
    let mut pids: Vec<Pid> = vc.entries().chain(base.entries()).map(|(p, _)| p).collect();
    pids.sort_unstable();
    pids.dedup();
    let changed: Vec<(Pid, u64)> = pids
        .into_iter()
        .map(|p| (p, vc.get(p).wrapping_sub(base.get(p))))
        .filter(|&(_, d)| d != 0)
        .collect();
    put_varint(buf, changed.len() as u64);
    let mut last = 0;
    for (p, d) in changed {
        put_varint(buf, u64::from(p.0 - last));
        fixd_runtime::wire::put_varint_i64(buf, d as i64);
        last = p.0;
    }
}

/// One step of a process's clock from one entry to the next.
#[derive(Clone, Debug)]
enum ClockStep {
    /// A local event: the own component rises.
    Tick,
    /// A receive: merge a clock that may name pids not seen before.
    Learn(VectorClock),
    /// A rollback's re-execution: back to the clock of an earlier entry
    /// (index modulo the history so far).
    FallBack(usize),
    /// Components lost: keep those whose bit in the mask is set.
    Forget(u64),
}

fn arb_clock_step() -> impl Strategy<Value = ClockStep> {
    prop_oneof![
        Just(ClockStep::Tick),
        Just(ClockStep::Tick),
        arb_clock().prop_map(ClockStep::Learn),
        any::<usize>().prop_map(ClockStep::FallBack),
        any::<u64>().prop_map(ClockStep::Forget),
    ]
}

/// Steps of three processes, interleaved.
fn arb_clock_walk() -> impl Strategy<Value = Vec<(u32, ClockStep, u8)>> {
    proptest::collection::vec((0u32..3, arb_clock_step(), any::<u8>()), 0..48)
}

/// Three processes' scrolls driven by their clock walks: each step is
/// one entry whose clock is the process's clock after the step.
struct Walker {
    clocks: Vec<Vec<VectorClock>>,
}

impl Walker {
    fn new() -> Self {
        Self {
            clocks: vec![vec![]; 3],
        }
    }

    /// The entry `step` makes of `pid`'s next clock, at `local_seq`.
    fn entry(&mut self, pid: u32, step: &ClockStep, salt: u8, local_seq: u64) -> ScrollEntry {
        let history = &mut self.clocks[pid as usize];
        let mut vc = history.last().cloned().unwrap_or_default();
        match step {
            // A learned count may already be `u64::MAX`.
            ClockStep::Tick if vc.get(Pid(pid)) < u64::MAX => _ = vc.tick(Pid(pid)),
            ClockStep::Tick => {}
            ClockStep::Learn(other) => vc.merge(other),
            ClockStep::FallBack(k) if !history.is_empty() => {
                vc = history[k % history.len()].clone()
            }
            ClockStep::FallBack(_) => {}
            ClockStep::Forget(mask) => {
                let kept = vc
                    .entries()
                    .enumerate()
                    .filter(|(i, _)| mask >> (i % 64) & 1 == 1);
                vc = VectorClock::from_pairs(kept.map(|(_, (p, c))| (p.0, c)).collect());
            }
        }
        history.push(vc.clone());
        let kind = if salt.is_multiple_of(3) {
            EntryKind::TimerFire {
                timer: TimerId(u64::from(salt)),
            }
        } else {
            EntryKind::Deliver {
                msg: Message {
                    id: local_seq,
                    src: Pid(u32::from(salt) % 3),
                    dst: Pid(pid),
                    tag: 1,
                    payload: vec![salt; usize::from(salt % 24)].into(),
                    sent_at: local_seq,
                    vc: vc.clone(),
                    ckpt_index: 0,
                }
                .into(),
            }
        };
        ScrollEntry {
            pid: Pid(pid),
            local_seq,
            at: local_seq * 3,
            vc,
            kind,
            randoms: vec![u64::from(salt)].into(),
            effects_fp: u64::from(salt),
            sends: 0,
        }
    }
}

/// Strategy for arbitrary messages.
fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u64>(),
        0u32..8,
        0u32..8,
        any::<u16>(),
        proptest::collection::vec(any::<u8>(), 0..32),
        any::<u64>(),
        arb_clock(),
        any::<u64>(),
    )
        .prop_map(
            |(id, src, dst, tag, payload, sent_at, vc, ckpt_index)| Message {
                id,
                src: Pid(src),
                dst: Pid(dst),
                tag,
                payload: payload.into(),
                sent_at,
                vc,
                ckpt_index,
            },
        )
}

fn arb_kind() -> impl Strategy<Value = EntryKind> {
    prop_oneof![
        Just(EntryKind::Start),
        Just(EntryKind::Crash),
        Just(EntryKind::Restart),
        any::<u64>().prop_map(|t| EntryKind::TimerFire { timer: TimerId(t) }),
        arb_message().prop_map(|m| EntryKind::Deliver { msg: m.into() }),
        arb_message().prop_map(|m| EntryKind::DroppedMail { msg: m.into() }),
    ]
}

fn arb_entry() -> impl Strategy<Value = ScrollEntry> {
    (
        0u32..8,
        any::<u64>(),
        any::<u64>(),
        arb_clock(),
        arb_kind(),
        proptest::collection::vec(any::<u64>(), 0..4),
        any::<u64>(),
        0u64..100,
    )
        .prop_map(|(pid, seq, at, vc, kind, randoms, fp, sends)| ScrollEntry {
            pid: Pid(pid),
            local_seq: seq,
            at,
            vc,
            kind,
            randoms: randoms.into(),
            effects_fp: fp,
            sends,
        })
}

/// A recorded stream over three pids: arbitrary entries renumbered so
/// every pid's `local_seq` is dense, in stream order.
fn arb_stream() -> impl Strategy<Value = Vec<ScrollEntry>> {
    proptest::collection::vec((0u32..3, arb_entry()), 0..40).prop_map(|stream| {
        let mut next = [0u64; 3];
        stream
            .into_iter()
            .map(|(pid, e)| {
                let local_seq = next[pid as usize];
                next[pid as usize] += 1;
                ScrollEntry {
                    pid: Pid(pid),
                    local_seq,
                    ..e
                }
            })
            .collect()
    })
}

/// Spill thresholds from "every append seals" to "never seals".
fn arb_threshold() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        64usize..1024,
        512usize..4096,
        Just(usize::MAX)
    ]
}

fn spilling(disk: &SharedDisk, threshold: usize) -> ScrollStore {
    ScrollStore::with_spill(3, SpillConfig::new(disk.clone(), threshold))
}

/// The spilling store reads back, as bytes and as counts, exactly what
/// the resident control holds: the splice equals the control's encoding
/// equals a decode-and-re-encode of the spilled scroll.
fn assert_reads_back_as(spilled: &ScrollStore, control: &ScrollStore, what: &str) {
    for pid in (0..3).map(Pid) {
        let spliced = spilled.encode_segment(pid);
        assert_eq!(
            spliced,
            control.encode_segment(pid),
            "{what}: {pid:?} splice"
        );
        assert_eq!(
            spliced,
            codec::encode_segment(&spilled.scroll(pid)),
            "{what}: {pid:?} re-encode"
        );
        assert_eq!(spilled.len(pid), control.len(pid), "{what}: {pid:?} len");
    }
    assert_eq!(spilled.encoded_size(), control.encoded_size(), "{what}");
    assert_eq!(spilled.total_entries(), control.total_entries(), "{what}");
}

/// [`assert_reads_back_as`], plus every entry one at a time and the
/// summed size against the bytes themselves.
fn assert_splits_read_back_as(spilled: &ScrollStore, control: &ScrollStore, what: &str) {
    assert_reads_back_as(spilled, control, what);
    let mut bytes = 0;
    for pid in (0..3).map(Pid) {
        assert_eq!(
            spilled.scroll(pid),
            control.scroll(pid),
            "{what}: {pid:?} scroll"
        );
        for i in 0..=control.len(pid) {
            assert_eq!(
                spilled.entry(pid, i),
                control.entry(pid, i),
                "{what}: {pid:?} entry {i}"
            );
        }
        bytes += spilled.encode_segment(pid).len();
    }
    assert_eq!(spilled.encoded_size(), bytes, "{what}: encoded_size");
}

/// Ping-pong app used for recorded-run properties.
#[derive(Clone)]
struct Pong {
    n: u64,
    x: u64,
}
impl Program for Pong {
    fn on_start(&mut self, ctx: &mut Context) {
        if ctx.pid() == Pid(0) {
            ctx.send(Pid(1), 1, vec![(self.n % 13) as u8]);
        }
    }
    fn on_message(&mut self, ctx: &mut Context, msg: &Message) {
        self.x = self.x.wrapping_add(ctx.random());
        if msg.payload[0] > 0 {
            let dst = Pid((ctx.pid().0 + 1) % ctx.world_size() as u32);
            ctx.send(dst, 1, vec![msg.payload[0] - 1]);
        }
    }
    fn snapshot(&self) -> Vec<u8> {
        let mut b = self.n.to_le_bytes().to_vec();
        b.extend_from_slice(&self.x.to_le_bytes());
        b
    }
    fn restore(&mut self, b: &[u8]) {
        self.n = u64::from_le_bytes(b[0..8].try_into().unwrap());
        self.x = u64::from_le_bytes(b[8..16].try_into().unwrap());
    }
}

fn run_world(n: usize, seed: u64, hops: u64, jitter: bool) -> (fixd_scroll::ScrollStore, World) {
    let mut cfg = WorldConfig::seeded(seed);
    if jitter {
        cfg.net = NetworkConfig::jittery(1, 30);
    }
    let mut w = World::new(cfg);
    for _ in 0..n {
        w.add_process(Box::new(Pong { n: hops, x: 0 }));
    }
    let (store, _) = record_run(&mut w, RecordConfig::default(), 5_000);
    (store, w)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The entry codec is a bijection.
    #[test]
    fn entry_codec_bijection(entries in proptest::collection::vec(arb_entry(), 0..12)) {
        let buf = codec::encode_segment(&entries);
        prop_assert_eq!(codec::decode_segment(&buf).unwrap(), entries);
    }

    /// The clock encoder that walks the pair slice writes what the
    /// varint-per-pair one does, after whatever the buffer already holds.
    #[test]
    fn clock_wire_form_matches_the_naive_encoder(vc in arb_clock(), prefix in 0usize..3) {
        let (mut fast, mut naive) = (vec![0xAB; prefix], vec![0xAB; prefix]);
        vc.put_wire(&mut fast);
        naive_put_clock(&mut naive, &vc);
        prop_assert_eq!(fast, naive);
    }

    /// The delta encoder that walks both pair slices writes what the
    /// union-of-pids oracle does, after whatever the buffer already
    /// holds, and an entry written over it decodes back against the same
    /// base.
    #[test]
    fn clock_delta_wire_form_matches_the_naive_encoder(vc in arb_clock(),
                                                       base in arb_clock(),
                                                       kin in any::<u64>(),
                                                       prefix in 0usize..3) {
        // Half the cases share most pids (the steady state of one log).
        let vc = if kin.is_multiple_of(2) {
            let mut near = base.clone();
            near.merge(&vc);
            near
        } else {
            vc
        };
        let (mut fast, mut naive) = (vec![0xAB; prefix], vec![0xAB; prefix]);
        vc.put_wire_delta(&base, &mut fast);
        naive_put_delta(&mut naive, &vc, &base);
        prop_assert_eq!(&fast, &naive);
        let entry = ScrollEntry {
            pid: Pid(1), local_seq: 0, at: 0, vc,
            kind: EntryKind::Start, randoms: vec![].into(), effects_fp: 0, sends: 0,
        };
        let mut buf = Vec::new();
        codec::encode_entry(&mut buf, &entry, &base);
        prop_assert_eq!(codec::decode_entry(&buf, &mut 0, &base).unwrap(), entry);
    }

    /// Where a scroll is split into sealed segments does not change its
    /// bytes: three processes whose clocks rise, gain pids, fall back to
    /// an earlier entry's clock and lose pids, stored spilled at a
    /// random threshold, read back as their unspilled control — as
    /// bytes, as the whole scroll, entry by entry, and as the summed
    /// size — before and after a truncation into the sealed prefix that
    /// more of the walk then appends behind.
    #[test]
    fn splitting_a_scroll_into_segments_does_not_change_its_bytes(
        walk in arb_clock_walk(),
        more in arb_clock_walk(),
        threshold in arb_threshold(),
        pick in any::<u64>(),
        victim in 0u32..3,
    ) {
        let disk = SharedDisk::new();
        let mut spilled = spilling(&disk, threshold);
        let mut control = ScrollStore::new(3);
        let mut walker = Walker::new();
        let mut seals = 0;
        for (pid, step, salt) in &walk {
            let e = walker.entry(*pid, step, *salt, control.len(Pid(*pid)) as u64);
            let before = spilled.spilled_segments();
            spilled.append(e.clone());
            control.append(e);
            if *pid == victim && spilled.spilled_segments() > before {
                seals = spilled.len(Pid(victim));
            }
        }
        assert_splits_read_back_as(&spilled, &control, "as recorded");

        // Into the sealed prefix (anywhere in the log if nothing sealed).
        let n = (pick % (seals.max(spilled.len(Pid(victim))) as u64 + 1)) as usize;
        let n = if seals > 0 { n.min(seals - 1) } else { n };
        spilled.truncate(Pid(victim), n);
        control.truncate(Pid(victim), n);
        walker.clocks[victim as usize].truncate(n);
        assert_splits_read_back_as(&spilled, &control, "truncated");
        for (pid, step, salt) in &more {
            let e = walker.entry(*pid, step, *salt, control.len(Pid(*pid)) as u64);
            spilled.append(e.clone());
            control.append(e);
        }
        assert_splits_read_back_as(&spilled, &control, "appended after the truncation");
    }

    /// Spilled read-back is the unspilled encoding, byte for byte, at
    /// any threshold — and stays so through every way a store's sealed
    /// prefix changes: truncation inside a sealed segment, at a segment
    /// boundary, at the sealed/resident boundary and to zero (each
    /// followed by an append), and an explicit seal that empties the
    /// tail.
    #[test]
    fn spilled_read_back_equals_the_unspilled_encoding(stream in arb_stream(),
                                                        threshold in arb_threshold(),
                                                        pick in any::<u64>(),
                                                        extra in arb_entry()) {
        let disk = SharedDisk::new();
        let mut spilled = spilling(&disk, threshold);
        let mut control = ScrollStore::new(3);
        // Where each pid's seals fell, as scroll lengths.
        let mut seals: [Vec<usize>; 3] = Default::default();
        for e in &stream {
            let before = spilled.spilled_segments();
            spilled.append(e.clone());
            control.append(e.clone());
            if spilled.spilled_segments() > before {
                seals[e.pid.idx()].push(spilled.len(e.pid));
            }
        }
        if threshold == 1 {
            prop_assert_eq!(spilled.spilled_segments(), stream.len());
            prop_assert_eq!(spilled.resident_entries(), 0);
        }
        if threshold == usize::MAX {
            prop_assert_eq!(spilled.spilled_segments(), 0);
        }
        assert_reads_back_as(&spilled, &control, "as recorded");

        for pid in (0..3).map(Pid) {
            let (len, seals) = (spilled.len(pid), &seals[pid.idx()]);
            let sealed = seals.last().copied().unwrap_or(0);
            let cuts = [
                ("to zero", 0),
                ("sealed/resident boundary", sealed),
                ("first segment boundary", seals.first().copied().unwrap_or(0)),
                ("inside the last sealed segment", sealed.saturating_sub(1)),
                ("anywhere", (pick % (len as u64 + 1)) as usize),
            ];
            for (what, n) in cuts {
                let (mut s, mut c) = (spilled.clone(), control.clone());
                s.truncate(pid, n);
                c.truncate(pid, n);
                assert_reads_back_as(&s, &c, what);
                let next = ScrollEntry { pid, local_seq: n as u64, ..extra.clone() };
                s.append(next.clone());
                c.append(next);
                assert_reads_back_as(&s, &c, what);
            }
        }

        for pid in (0..3).map(Pid) {
            spilled.seal(pid);
        }
        prop_assert_eq!(spilled.resident_entries(), 0);
        assert_reads_back_as(&spilled, &control, "sealed to an empty tail");
    }

    /// Message encode/decode is identity under the shared-buffer
    /// `Payload` type for arbitrary payload sizes — empty through
    /// multi-KiB — and the decoded payload is a fresh allocation of the
    /// same bytes (content-equal, not aliased: it came off the wire).
    #[test]
    fn payload_roundtrip_identity(len in prop_oneof![Just(0usize), 1usize..64, 1024usize..4096],
                                  seed in any::<u64>()) {
        let payload: Vec<u8> = (0..len).map(|i| (seed.wrapping_add(i as u64) % 256) as u8).collect();
        let msg = Message {
            id: seed,
            src: Pid(0),
            dst: Pid(1),
            tag: 7,
            payload: payload.clone().into(),
            sent_at: 1,
            vc: VectorClock::from_vec(vec![1, 0]),
            ckpt_index: 0,
        };
        let mut buf = Vec::new();
        codec::encode_message(&mut buf, &msg);
        let mut pos = 0;
        let back = codec::decode_message(&buf, &mut pos).unwrap();
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(back.payload.as_slice(), payload.as_slice());
        prop_assert!(!back.payload.ptr_eq(&msg.payload), "decode allocates fresh bytes");
        // And through a whole segment.
        let entry = ScrollEntry {
            pid: Pid(1), local_seq: 0, at: 0,
            vc: VectorClock::from_vec(vec![0, 1]),
            kind: EntryKind::Deliver { msg: msg.into() },
            randoms: vec![].into(), effects_fp: 0, sends: 0,
        };
        let seg = codec::encode_segment(std::slice::from_ref(&entry));
        prop_assert_eq!(codec::decode_segment(&seg).unwrap(), vec![entry]);
    }

    /// Truncated segments never decode successfully (no silent garbage).
    #[test]
    fn truncation_always_detected(entries in proptest::collection::vec(arb_entry(), 1..6),
                                  frac in 0.01f64..0.99) {
        let buf = codec::encode_segment(&entries);
        let cut_at = ((buf.len() as f64) * frac) as usize;
        if cut_at < buf.len() {
            prop_assert!(codec::decode_segment(&buf[..cut_at]).is_err());
        }
    }

    /// Merged logs are always linear extensions of happens-before, under
    /// FIFO and reordering networks alike — also when the scrolls spilled
    /// and their messages read back with only the sender's clock
    /// component, which is all the send-before-receive check reads.
    #[test]
    fn merge_causally_consistent(seed in 0u64..300, n in 2usize..5, hops in 1u64..10,
                                 jitter in any::<bool>(), threshold in 1usize..64) {
        let (store, _) = run_world(n, seed, hops, jitter);
        let merged = merge_total_order(&store);
        prop_assert!(fixd_scroll::check_causal_consistency(&merged).is_ok());
        prop_assert!(fixd_scroll::merge::check_send_before_receive(&merged).is_ok());
        let mut spilled = ScrollStore::with_spill(n, SpillConfig::new(SharedDisk::new(), threshold));
        for pid in (0..n as u32).map(Pid) {
            store.scroll(pid).iter().for_each(|e| spilled.append(e.clone()));
        }
        prop_assert!(spilled.spilled_segments() > 0);
        let spilled_merged = merge_total_order(&spilled);
        prop_assert_eq!(&spilled_merged, &merged);
        prop_assert!(fixd_scroll::merge::check_send_before_receive(&spilled_merged).is_ok());
    }

    /// `latest_consistent_cut` always produces a consistent cut that
    /// respects the limit.
    #[test]
    fn latest_cut_is_consistent(seed in 0u64..300, n in 2usize..5, hops in 2u64..10,
                                pid in 0u32..2, limit in 0usize..6) {
        let (store, _) = run_world(n, seed, hops, true);
        let c = cut::latest_consistent_cut(&store, Pid(pid), limit);
        prop_assert!(c.is_consistent(&store));
        prop_assert!(c.count(Pid(pid)) <= limit.min(store.len(Pid(pid))));
    }

    /// Local replay from the scroll reproduces the recorded final state
    /// exactly, for every process.
    #[test]
    fn replay_fidelity(seed in 0u64..200, n in 2usize..4, hops in 1u64..8) {
        let (store, w) = run_world(n, seed, hops, false);
        for i in 0..n {
            let pid = Pid(i as u32);
            let mut fresh = Pong { n: hops, x: 0 };
            let out = replay_process(pid, n, seed, &mut fresh, &store.scroll(pid));
            prop_assert_eq!(&out.fidelity, &Fidelity::Exact, "P{} diverged", i);
            prop_assert_eq!(out.final_state, w.checkpoint_process(pid).state);
        }
    }

    /// The scroll records exactly the handler-running events: entry count
    /// equals starts + deliveries + timer fires.
    #[test]
    fn scroll_counts_match_run(seed in 0u64..200, hops in 1u64..10) {
        let (store, w) = run_world(3, seed, hops, false);
        let delivered: u64 = (0..3).map(|i| w.delivered_count(Pid(i))).sum();
        let expected = 3 /* starts */ + delivered as usize;
        prop_assert_eq!(store.total_entries(), expected);
    }
}
