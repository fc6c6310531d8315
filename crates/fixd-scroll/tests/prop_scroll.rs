//! Property-based tests for the Scroll: codec bijection, spilled
//! read-back equivalence, merge consistency, cut lattice properties,
//! replay fidelity.

use proptest::prelude::*;

use fixd_runtime::{
    Context, DeliveryPolicy, Message, NetworkConfig, Pid, Program, SharedDisk, TimerId, World,
    WorldConfig,
};
use fixd_scroll::record::record_run;
use fixd_scroll::{
    codec, cut, merge_total_order, replay_process, EntryKind, Fidelity, RecordConfig, ScrollEntry,
    ScrollStore, SpillConfig,
};

/// A walk over three processes' scrolls: per step, the pid that appends
/// and a salt that picks the entry's kind and sizes.
fn arb_walk() -> impl Strategy<Value = Vec<(u32, u8)>> {
    proptest::collection::vec((0u32..3, any::<u8>()), 0..48)
}

/// The entry `salt` makes for `pid` at `local_seq`: a timer firing or a
/// delivery with a payload of up to 23 bytes, and one random draw.
fn walk_entry(pid: u32, salt: u8, local_seq: u64) -> ScrollEntry {
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
                ckpt_index: 0,
            }
            .into(),
        }
    };
    ScrollEntry {
        pid: Pid(pid),
        local_seq,
        at: local_seq * 3,
        kind,
        randoms: vec![u64::from(salt)].into(),
        effects_fp: u64::from(salt),
        sends: u64::from(salt % 4),
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
        any::<u64>(),
    )
        .prop_map(
            |(id, src, dst, tag, payload, sent_at, ckpt_index)| Message {
                id,
                src: Pid(src),
                dst: Pid(dst),
                tag,
                payload: payload.into(),
                sent_at,
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
        arb_kind(),
        proptest::collection::vec(any::<u64>(), 0..4),
        any::<u64>(),
        0u64..100,
    )
        .prop_map(|(pid, seq, at, kind, randoms, fp, sends)| ScrollEntry {
            pid: Pid(pid),
            local_seq: seq,
            at,
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

fn run_world(
    n: usize,
    seed: u64,
    hops: u64,
    net: NetworkConfig,
) -> (fixd_scroll::ScrollStore, World) {
    let mut cfg = WorldConfig::seeded(seed);
    cfg.net = net;
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

    /// Where a scroll is split into sealed segments does not change its
    /// bytes: three processes' scrolls of timer firings and deliveries of
    /// varied sizes, stored spilled at a random threshold, read back as
    /// their unspilled control — as bytes, as the whole scroll, entry by
    /// entry, and as the summed size — before and after a truncation
    /// into the sealed prefix that more of the walk then appends behind.
    #[test]
    fn splitting_a_scroll_into_segments_does_not_change_its_bytes(
        walk in arb_walk(),
        more in arb_walk(),
        threshold in arb_threshold(),
        pick in any::<u64>(),
        victim in 0u32..3,
    ) {
        let disk = SharedDisk::new();
        let mut spilled = spilling(&disk, threshold);
        let mut control = ScrollStore::new(3);
        let mut seals = 0;
        for &(pid, salt) in &walk {
            let e = walk_entry(pid, salt, control.len(Pid(pid)) as u64);
            let before = spilled.spilled_segments();
            spilled.append(e.clone());
            control.append(e);
            if pid == victim && spilled.spilled_segments() > before {
                seals = spilled.len(Pid(victim));
            }
        }
        assert_splits_read_back_as(&spilled, &control, "as recorded");

        // Into the sealed prefix (anywhere in the log if nothing sealed).
        let n = (pick % (seals.max(spilled.len(Pid(victim))) as u64 + 1)) as usize;
        let n = if seals > 0 { n.min(seals - 1) } else { n };
        spilled.truncate(Pid(victim), n);
        control.truncate(Pid(victim), n);
        assert_splits_read_back_as(&spilled, &control, "truncated");
        for &(pid, salt) in &more {
            let e = walk_entry(pid, salt, control.len(Pid(pid)) as u64);
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
    /// and were read back. A zero-latency network delivers a message at
    /// the time it was sent, so a receipt at a lower pid ties with its
    /// send on time and must still wait for it.
    #[test]
    fn merge_causally_consistent(seed in 0u64..300, n in 2usize..5, hops in 1u64..10,
                                 net in 0u8..3, threshold in 1usize..64) {
        let net = match net {
            0 => NetworkConfig::default(),
            1 => NetworkConfig::jittery(1, 30),
            _ => NetworkConfig {
                policy: DeliveryPolicy::Fifo { latency: 0 },
                ..NetworkConfig::default()
            },
        };
        let (store, _) = run_world(n, seed, hops, net);
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
    /// respects the limit. Consistency is also checked without the cut
    /// code: the cut's prefixes, merged, must hold the send of every
    /// delivery they hold.
    #[test]
    fn latest_cut_is_consistent(seed in 0u64..300, n in 2usize..5, hops in 2u64..10,
                                pid in 0u32..2, limit in 0usize..6) {
        let (store, _) = run_world(n, seed, hops, NetworkConfig::jittery(1, 30));
        let c = cut::latest_consistent_cut(&store, Pid(pid), limit);
        prop_assert!(c.is_consistent(&store));
        prop_assert!(c.count(Pid(pid)) <= limit.min(store.len(Pid(pid))));
        let mut prefix = ScrollStore::new(n);
        for p in (0..n as u32).map(Pid) {
            store.scroll(p)[..c.count(p)].iter().for_each(|e| prefix.append(e.clone()));
        }
        let merged = merge_total_order(&prefix);
        prop_assert!(fixd_scroll::merge::check_send_before_receive(&merged).is_ok());
    }

    /// Local replay from the scroll reproduces the recorded final state
    /// exactly, for every process.
    #[test]
    fn replay_fidelity(seed in 0u64..200, n in 2usize..4, hops in 1u64..8) {
        let (store, w) = run_world(n, seed, hops, NetworkConfig::default());
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
        let (store, w) = run_world(3, seed, hops, NetworkConfig::default());
        let delivered: u64 = (0..3).map(|i| w.delivered_count(Pid(i))).sum();
        let expected = 3 /* starts */ + delivered as usize;
        prop_assert_eq!(store.total_entries(), expected);
    }
}
