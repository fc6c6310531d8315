//! Property-based tests for the Scroll: codec bijection, spilled
//! read-back equivalence, merge consistency, cut lattice properties,
//! replay fidelity.

use proptest::prelude::*;

use fixd_runtime::wire::put_varint;
use fixd_runtime::{
    Context, Message, MsgMeta, NetworkConfig, Pid, Program, SharedDisk, TimerId, VectorClock,
    World, WorldConfig,
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
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(id, src, dst, tag, payload, sent_at, vc, ck, sp, lam)| Message {
                id,
                src: Pid(src),
                dst: Pid(dst),
                tag,
                payload: payload.into(),
                sent_at,
                vc,
                meta: MsgMeta {
                    ckpt_index: ck,
                    spec_id: sp,
                    lamport: lam,
                },
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
        any::<u64>(),
        arb_clock(),
        arb_kind(),
        proptest::collection::vec(any::<u64>(), 0..4),
        any::<u64>(),
        0u64..100,
    )
        .prop_map(
            |(pid, seq, at, lamport, vc, kind, randoms, fp, sends)| ScrollEntry {
                pid: Pid(pid),
                local_seq: seq,
                at,
                lamport,
                vc,
                kind,
                randoms: randoms.into(),
                effects_fp: fp,
                sends,
            },
        )
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

/// Ping-pong app used for recorded-run properties.
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
    fn clone_program(&self) -> Box<dyn Program> {
        Box::new(Pong {
            n: self.n,
            x: self.x,
        })
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
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
            meta: MsgMeta::default(),
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
            pid: Pid(1), local_seq: 0, at: 0, lamport: 1,
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
    /// FIFO and reordering networks alike.
    #[test]
    fn merge_causally_consistent(seed in 0u64..300, n in 2usize..5, hops in 1u64..10,
                                 jitter in any::<bool>()) {
        let (store, _) = run_world(n, seed, hops, jitter);
        let merged = merge_total_order(&store);
        prop_assert!(fixd_scroll::check_causal_consistency(&merged).is_ok());
        prop_assert!(fixd_scroll::merge::check_send_before_receive(&merged).is_ok());
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
