//! Wire-format stability: the scroll segment encoding is a persistent,
//! versioned on-disk format. Four guarantees are pinned here:
//!
//! 1. **v4 golden** — the current codec (entry clocks as deltas against
//!    the entry before, a base clock in the header, a message's clock as
//!    its sender's component) must reproduce the blessed fixture
//!    byte-for-byte. The fixture lives in
//!    `tests/fixtures/golden_segment_v4.hex`; re-bless (only ever on a
//!    deliberate, versioned format change) with
//!    `FIXD_BLESS=1 cargo test -p fixd-scroll --test wire_format`.
//! 2. **v3 back-compat** — segments written by the v3 codec (messages
//!    with their sender's whole clock) must still decode to the same
//!    entries. `tests/fixtures/golden_segment_v3.hex` is frozen: the v3
//!    encoder is gone, so it can never be regenerated — do not edit or
//!    re-bless.
//! 3. **v2 back-compat** — the same for segments written by the v2 codec
//!    (absolute sparse varint clocks), frozen in
//!    `tests/fixtures/golden_segment_v2.hex`.
//! 4. **v1 back-compat** — the same for segments written by the v1 codec
//!    (dense `u64`-list clocks, pre-sparse refactor). The v1 bytes are
//!    frozen inline below.
//!
//! Entries compare as the Scroll writes them ([`EntryKind`]'s equality):
//! a message's clock on its sender's component, so a v1–v3 entry that
//! decodes with the sender's whole clock equals the original too.
//!
//! And one robustness guarantee: hostile bytes — arbitrary ones, every
//! truncation and single-byte mutation of the four goldens, and
//! hand-built malformed clock deltas and message clocks — make either
//! decoder return an error, never panic, and the copying and the
//! zero-copy decoder always agree.

use fixd_runtime::{Message, MsgMeta, Payload, Pid, TimerId, VectorClock};
use fixd_scroll::codec::{
    decode_segment, decode_segment_shared, encode_segment, CodecError, FORMAT_VERSION,
};
use fixd_scroll::entry::{EntryKind, ScrollEntry};
use proptest::prelude::*;

const V2_FIXTURE: &str = "tests/fixtures/golden_segment_v2.hex";
const V3_FIXTURE: &str = "tests/fixtures/golden_segment_v3.hex";
const V4_FIXTURE: &str = "tests/fixtures/golden_segment_v4.hex";

/// Frozen v1 segment (version byte 0x01, dense clocks) produced by the
/// pre-sparse codec on exactly the entries from [`golden_entries`].
const GOLDEN_SEGMENT_V1_HEX: &[&str] = &[
    "0107000200f8060a03030205030700ffffffffffffffffff01effdb6f50d03010201f806",
    "0a03030205030700ffffffffffffffffff01effdb6f50d032a0102ac02077061796c6f61",
    "64d20903030100020009010202f8060a03030205030700ffffffffffffffffff01effdb6",
    "f50d032a0102ac0200d20903030100020009020203f8060a03030205030700ffffffffff",
    "ffffffff01effdb6f50d034d030204f8060a03030205030700ffffffffffffffffff01ef",
    "fdb6f50d03040205f8060a03030205030700ffffffffffffffffff01effdb6f50d030502",
    "06f8060a03030205030700ffffffffffffffffff01effdb6f50d032a0102ac02d8040001",
    "02030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425",
    "262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f40414243444546474849",
    "4a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d",
    "6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f9091",
    "92939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5",
    "b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9",
    "dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fa000102",
    "030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212223242526",
    "2728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a",
    "4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e",
    "6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192",
    "939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6",
    "b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9da",
    "dbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fa00010203",
    "0405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021222324252627",
    "28292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b",
    "4c4d4e4f505152535455565758595a5b5c5d5e5f6061d20903030100020009",
];

fn hex_to_bytes(hex: &str) -> Vec<u8> {
    let hex: String = hex.chars().filter(|c| !c.is_whitespace()).collect();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

fn bytes_to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2 + bytes.len() / 36 + 1);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && i % 36 == 0 {
            out.push('\n');
        }
        out.push_str(&format!("{b:02x}"));
    }
    out.push('\n');
    out
}

fn v1_golden_bytes() -> Vec<u8> {
    hex_to_bytes(&GOLDEN_SEGMENT_V1_HEX.concat())
}

fn sample_msg(payload: Vec<u8>) -> Message {
    Message {
        id: 42,
        src: Pid(1),
        dst: Pid(2),
        tag: 300,
        payload: payload.into(),
        sent_at: 1234,
        vc: VectorClock::from_vec(vec![3, 1, 0]),
        meta: MsgMeta {
            ckpt_index: 2,
            spec_id: 0,
            lamport: 9,
        },
    }
}

fn sample_entry(local_seq: u64, kind: EntryKind) -> ScrollEntry {
    ScrollEntry {
        pid: Pid(2),
        local_seq,
        at: 888,
        lamport: 10,
        vc: VectorClock::from_vec(vec![3, 2, 5]),
        kind,
        randoms: vec![7, 0, u64::MAX].into(),
        effects_fp: 0xdeadbeef,
        sends: 3,
    }
}

/// Every entry kind, with empty, short, and multi-hundred-byte payloads
/// (the exact inputs both codec generations were run on).
fn golden_entries() -> Vec<ScrollEntry> {
    vec![
        sample_entry(0, EntryKind::Start),
        sample_entry(
            1,
            EntryKind::Deliver {
                msg: sample_msg(b"payload".to_vec()).into(),
            },
        ),
        sample_entry(
            2,
            EntryKind::Deliver {
                msg: sample_msg(vec![]).into(),
            },
        ),
        sample_entry(3, EntryKind::TimerFire { timer: TimerId(77) }),
        sample_entry(4, EntryKind::Crash),
        sample_entry(5, EntryKind::Restart),
        sample_entry(
            6,
            EntryKind::DroppedMail {
                msg: sample_msg((0u16..600).map(|i| (i % 251) as u8).collect()).into(),
            },
        ),
    ]
}

/// [`golden_entries`], then the same process's scroll going on with
/// clocks that rise on its own pid, gain a far pid, fall back and lose
/// pids (the shape a rollback's re-execution leaves), and take a count
/// to `u64::MAX`: the delta encoding's every case, in the v3 golden.
fn v3_golden_entries() -> Vec<ScrollEntry> {
    let clocks = [
        vec![(0, 3), (1, 2), (2, 6)],
        vec![(0, 4), (1, 2), (2, 7), (300, 1)],
        vec![(0, 4), (2, 3)],
        vec![(0, 4), (2, 4), (70_000, u64::MAX)],
    ];
    let mut entries = golden_entries();
    for (i, pairs) in clocks.into_iter().enumerate() {
        let seq = entries.len() as u64;
        entries.push(ScrollEntry {
            vc: VectorClock::from_pairs(pairs),
            ..sample_entry(
                seq,
                EntryKind::TimerFire {
                    timer: TimerId(i as u64),
                },
            )
        });
    }
    entries
}

/// [`v3_golden_entries`], then deliveries whose sender's component is
/// zero (the message's clock decodes as the zero clock), takes more than
/// one varint byte, and belongs to a far pid: the v4 message clock's
/// every case, in the v4 golden.
fn v4_golden_entries() -> Vec<ScrollEntry> {
    let mut entries = v3_golden_entries();
    let senders = [
        (Pid(2), VectorClock::from_vec(vec![3, 1, 0])),
        (Pid(0), VectorClock::from_pairs(vec![(0, 300), (5, 1)])),
        (
            Pid(70_000),
            VectorClock::from_pairs(vec![(1, 4), (70_000, u64::MAX)]),
        ),
    ];
    for (src, vc) in senders {
        let seq = entries.len() as u64;
        let msg = Message {
            src,
            vc,
            ..sample_msg(vec![seq as u8])
        };
        entries.push(sample_entry(seq, EntryKind::Deliver { msg: msg.into() }));
    }
    entries
}

#[test]
fn segment_encoding_matches_blessed_golden() {
    let encoded = encode_segment(&v4_golden_entries());
    assert_eq!(encoded[0], FORMAT_VERSION, "segment leads with its version");
    assert_eq!(FORMAT_VERSION, 4);
    if std::env::var("FIXD_BLESS").is_ok() {
        std::fs::create_dir_all("tests/fixtures").unwrap();
        std::fs::write(V4_FIXTURE, bytes_to_hex(&encoded)).unwrap();
        return;
    }
    let want = hex_to_bytes(
        &std::fs::read_to_string(V4_FIXTURE)
            .expect("golden fixture missing — run with FIXD_BLESS=1 on known-good code"),
    );
    assert_eq!(
        encoded.len(),
        want.len(),
        "segment length drifted from the recorded format"
    );
    assert_eq!(encoded, want, "wire format must not change");
}

#[test]
fn blessed_golden_round_trips() {
    let Ok(fixture) = std::fs::read_to_string(V4_FIXTURE) else {
        return; // first bless run
    };
    let entries = decode_segment(&hex_to_bytes(&fixture)).expect("v4 golden decodes");
    assert_eq!(entries, v4_golden_entries(), "decoded = original entries");
    // What a v4 message keeps of its clock: the sender's component.
    let clocks: Vec<VectorClock> = entries
        .iter()
        .filter_map(|e| match &e.kind {
            EntryKind::Deliver { msg } => Some(msg.vc.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(
        clocks,
        [
            VectorClock::single(Pid(1), 1),
            VectorClock::single(Pid(1), 1),
            VectorClock::ZERO,
            VectorClock::single(Pid(0), 300),
            VectorClock::single(Pid(70_000), u64::MAX),
        ]
    );
}

#[test]
fn v3_delta_clock_segments_still_decode() {
    let bytes = v3_golden_bytes();
    assert_eq!(bytes[0], 3, "frozen golden was written as v3");
    let entries = decode_segment(&bytes).expect("v3 segment decodes");
    assert_eq!(
        entries,
        v3_golden_entries(),
        "v3 segments must decode to the same entries"
    );
    // A v3 message still decodes with its sender's whole clock.
    let EntryKind::Deliver { msg } = &entries[1].kind else {
        panic!("entry 1 is a delivery");
    };
    assert_eq!(msg.vc, VectorClock::from_vec(vec![3, 1, 0]));
}

#[test]
fn v2_sparse_clock_segments_still_decode() {
    let bytes = v2_golden_bytes();
    assert_eq!(bytes[0], 2, "frozen golden was written as v2");
    let entries = decode_segment(&bytes).expect("v2 segment decodes");
    assert_eq!(
        entries,
        golden_entries(),
        "v2 sparse-clock segments must decode to the same entries"
    );
}

#[test]
fn v1_dense_clock_segments_still_decode() {
    let bytes = v1_golden_bytes();
    assert_eq!(bytes[0], 1, "frozen golden was written as v1");
    let entries = decode_segment(&bytes).expect("v1 segment decodes");
    assert_eq!(
        entries,
        golden_entries(),
        "v1 dense-clock segments must decode to the same entries"
    );
}

/// The point of the v2 clock encoding: cost scales with the causal
/// footprint (nonzero components), not the world width. A clock whose
/// support is two processes out of a million must encode in a handful
/// of bytes — v1's dense list would have needed ~10^6 varints.
#[test]
fn v2_clock_cost_scales_with_footprint_not_width() {
    let narrow = {
        let mut e = sample_entry(0, EntryKind::Start);
        e.vc = VectorClock::from_pairs(vec![(0, 3), (1, 5)]);
        encode_segment(&[e])
    };
    let wide = {
        let mut e = sample_entry(0, EntryKind::Start);
        e.vc = VectorClock::from_pairs(vec![(0, 3), (999_999, 5)]);
        encode_segment(&[e])
    };
    assert!(
        wide.len() <= narrow.len() + 4,
        "wide-world clock must not pay for dormant processes: \
         {} bytes vs {} at width 2",
        wide.len(),
        narrow.len()
    );
}

/// Both decoders on `bytes`, as `Some(entries)` or `None`: a panic
/// fails the caller, and unequal results are a disagreement.
fn decode_both(bytes: &[u8]) -> (Option<Vec<ScrollEntry>>, Option<Vec<ScrollEntry>>) {
    let copied = decode_segment(bytes).ok();
    let shared = decode_segment_shared(&Payload::from(bytes.to_vec())).ok();
    (copied, shared)
}

fn v2_golden_bytes() -> Vec<u8> {
    hex_to_bytes(&std::fs::read_to_string(V2_FIXTURE).expect("v2 golden fixture"))
}

fn v3_golden_bytes() -> Vec<u8> {
    hex_to_bytes(&std::fs::read_to_string(V3_FIXTURE).expect("v3 golden fixture"))
}

fn v4_golden_bytes() -> Vec<u8> {
    hex_to_bytes(&std::fs::read_to_string(V4_FIXTURE).expect("v4 golden fixture"))
}

/// Every proper prefix is an error; every other value of any one byte
/// decodes or errs, the same way in both decoders. One thread a golden.
#[test]
fn every_truncation_and_byte_mutation_of_the_goldens_decodes_or_errs() {
    let hostile = |version: u8, golden: Vec<u8>| {
        for cut in 0..golden.len() {
            let (copied, shared) = decode_both(&golden[..cut]);
            assert_eq!(copied, shared, "v{version} cut at {cut}");
            assert!(copied.is_none(), "v{version} cut at {cut} decoded");
        }
        let mut mutated = golden.clone();
        for at in 0..golden.len() {
            for byte in (0..=u8::MAX).filter(|&b| b != golden[at]) {
                mutated[at] = byte;
                let (copied, shared) = decode_both(&mutated);
                assert_eq!(copied, shared, "v{version} byte {at} set to {byte:#04x}");
            }
            mutated[at] = golden[at];
        }
    };
    std::thread::scope(|scope| {
        scope.spawn(|| hostile(1, v1_golden_bytes()));
        scope.spawn(|| hostile(2, v2_golden_bytes()));
        scope.spawn(|| hostile(3, v3_golden_bytes()));
        hostile(4, v4_golden_bytes());
    });
}

/// A v3 segment of one Start entry of pid 2 whose clock delta is
/// `delta`, behind a header whose base clock is `base` (both as wire
/// bytes).
fn v3_segment(base: &[u8], delta: &[u8]) -> Vec<u8> {
    let mut seg = vec![3, 1];
    seg.extend_from_slice(base);
    // tag, pid, seq, at, lamport
    seg.extend_from_slice(&[0, 2, 0, 0, 0]);
    seg.extend_from_slice(delta);
    // no randoms, fingerprint, sends
    seg.extend_from_slice(&[0, 0, 0]);
    seg
}

/// Malformed clock deltas and base clocks, built by hand: each is a
/// typed error from both decoders, never a panic, never a clock.
#[test]
fn hostile_clock_deltas_are_refused() {
    let zero = [0];
    let cases: [(&str, Vec<u8>, CodecError); 6] = [
        (
            "pid gap past u32::MAX",
            v3_segment(&zero, &[1, 0x80, 0x80, 0x80, 0x80, 0x10, 2]),
            CodecError::BadPid(1 << 32),
        ),
        (
            "pid gaps summing past u32::MAX",
            v3_segment(&zero, &[2, 1, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, 2]),
            CodecError::BadPid(1 << 32),
        ),
        (
            "zero gap after the first pair",
            v3_segment(&zero, &[2, 5, 2, 0, 2]),
            CodecError::BadDelta,
        ),
        (
            "a component that does not change",
            v3_segment(&zero, &[1, 5, 0]),
            CodecError::BadDelta,
        ),
        (
            "a pair count the remaining bytes cannot hold",
            v3_segment(&zero, &[0x7f, 1, 2]),
            CodecError::Truncated,
        ),
        (
            "a header base clock cut short",
            vec![3, 0, 2, 0, 1, 7],
            CodecError::Truncated,
        ),
    ];
    for (what, bytes, want) in cases {
        assert_eq!(decode_segment(&bytes), Err(want.clone()), "{what}");
        let shared = decode_segment_shared(&Payload::from(bytes.clone()));
        assert_eq!(shared, Err(want), "{what}");
    }
    // The same frames with well-formed clocks do decode: the refusals
    // above are the malformed bytes, not the framing.
    // Base ⟨2:4⟩; delta: pid 0 by +1, pid 300 (gap 0xac 0x02) by -1.
    let ok = decode_segment(&v3_segment(&[1, 2, 4], &[2, 0, 2, 0xac, 0x02, 1]))
        .expect("a well-formed delta decodes");
    assert_eq!(
        ok[0].vc,
        VectorClock::from_pairs(vec![(0, 1), (2, 4), (300, u64::MAX)])
    );
}

/// A v4 segment of one Deliver entry whose message ends in `clock`, the
/// bytes where its sender's clock component goes.
fn v4_delivery(clock: &[u8]) -> Vec<u8> {
    // Header over the zero base; tag, pid, seq, at, lamport, an empty
    // delta, no randoms, fingerprint, sends.
    let mut seg = vec![4, 1, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0];
    // id, src 1, dst 2, tag, empty payload, sent_at.
    seg.extend_from_slice(&[0, 1, 2, 0, 0, 0]);
    seg.extend_from_slice(clock);
    seg
}

/// A message's sender component cut short — a varint whose last byte
/// says more follows, or that ends before the metadata — is
/// `Truncated` from both decoders, never a panic.
#[test]
fn a_cut_short_sender_component_is_truncated() {
    let cases: [(&str, &[u8]); 3] = [
        ("a varint cut inside", &[0x80]),
        ("a long varint cut inside", &[0xff, 0xff, 0xff]),
        ("no metadata after it", &[5]),
    ];
    for (what, clock) in cases {
        let bytes = v4_delivery(clock);
        assert_eq!(decode_segment(&bytes), Err(CodecError::Truncated), "{what}");
        let shared = decode_segment_shared(&Payload::from(bytes));
        assert_eq!(shared, Err(CodecError::Truncated), "{what}");
    }
    // Whole, it decodes to the one-component clock.
    let ok = decode_segment(&v4_delivery(&[0x81, 0x01, 0, 0, 0])).expect("decodes");
    let EntryKind::Deliver { msg } = &ok[0].kind else {
        panic!("a delivery");
    };
    assert_eq!(msg.vc, VectorClock::single(Pid(1), 129));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, raw or behind a plausible header (a known
    /// version and a small entry count), so that the entry decoder is
    /// reached, not only the header checks.
    #[test]
    fn arbitrary_bytes_decode_or_err_alike(
        framed in any::<bool>(),
        version in 0u8..6,
        count in 0u8..4,
        body in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let bytes = if framed {
            [vec![version, count], body].concat()
        } else {
            body
        };
        let (copied, shared) = decode_both(&bytes);
        prop_assert_eq!(copied, shared, "{:02x?}", bytes);
    }
}
