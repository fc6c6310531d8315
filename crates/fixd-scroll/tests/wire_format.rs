//! Wire-format stability: the scroll segment encoding is a persistent,
//! versioned on-disk format. Two guarantees are pinned here:
//!
//! 1. **v2 golden** — the current codec (sparse varint clocks) must
//!    reproduce the blessed fixture byte-for-byte. The fixture lives in
//!    `tests/fixtures/golden_segment_v2.hex`; re-bless (only ever on a
//!    deliberate, versioned format change) with
//!    `FIXD_BLESS=1 cargo test -p fixd-scroll --test wire_format`.
//! 2. **v1 back-compat** — segments written by the v1 codec (dense
//!    `u64`-list clocks, pre-sparse refactor) must still decode to the
//!    same entries. The v1 bytes are frozen inline below; the v1
//!    encoder is gone, so these can never be regenerated — do not edit.
//!
//! And one robustness guarantee: hostile bytes — arbitrary ones, and
//! every truncation and single-byte mutation of both goldens — make
//! either decoder return an error, never panic, and the copying and the
//! zero-copy decoder always agree.

use fixd_runtime::{Message, MsgMeta, Payload, Pid, TimerId, VectorClock};
use fixd_scroll::codec::{decode_segment, decode_segment_shared, encode_segment, FORMAT_VERSION};
use fixd_scroll::entry::{EntryKind, ScrollEntry};
use proptest::prelude::*;

const V2_FIXTURE: &str = "tests/fixtures/golden_segment_v2.hex";

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

#[test]
fn segment_encoding_matches_blessed_golden() {
    let encoded = encode_segment(&golden_entries());
    assert_eq!(encoded[0], FORMAT_VERSION, "segment leads with its version");
    if std::env::var("FIXD_BLESS").is_ok() {
        std::fs::create_dir_all("tests/fixtures").unwrap();
        std::fs::write(V2_FIXTURE, bytes_to_hex(&encoded)).unwrap();
        return;
    }
    let want = hex_to_bytes(
        &std::fs::read_to_string(V2_FIXTURE)
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
    let Ok(fixture) = std::fs::read_to_string(V2_FIXTURE) else {
        return; // first bless run
    };
    let entries = decode_segment(&hex_to_bytes(&fixture)).expect("v2 golden decodes");
    assert_eq!(entries, golden_entries(), "decoded = original entries");
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
        hostile(2, v2_golden_bytes());
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, raw or behind a plausible header (a known
    /// version and a small entry count), so that the entry decoder is
    /// reached, not only the header checks.
    #[test]
    fn arbitrary_bytes_decode_or_err_alike(
        framed in any::<bool>(),
        version in 0u8..4,
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
