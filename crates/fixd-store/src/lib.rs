//! # fixd-store — the content-addressed state store
//!
//! The single backing layer for all durable state in the FixD
//! reproduction. Process state images are chunked into fixed-size pages
//! and *interned* into a [`PageStore`]: an immutable page keyed by a
//! 64-bit content hash, held once no matter how many checkpoints,
//! processes, speculation branches, or coordinated global snapshots
//! reference it. This generalizes the paper's copy-on-write checkpoint
//! sharing (§3.2, Flashback-style shadow processes) from *consecutive
//! checkpoints of one process* to *any two equal pages anywhere*:
//!
//! * consecutive checkpoints of one process share unchanged pages
//!   (classic COW) — found by comparing each chunk with the page the
//!   previous checkpoint holds at that offset, so only chunks that
//!   changed are hashed and looked up
//!   ([`PagedImage::from_bytes_after`]);
//! * checkpoints of **different processes** running the same code over
//!   similar state share pages (replicas, initial states);
//! * **speculation branches** (cloned Time Machines) share everything
//!   until they diverge, page by page;
//! * repeated zero/constant regions **within one image** collapse to a
//!   single page.
//!
//! Reclamation is by reference count: dropping the last [`PageHandle`]
//! to a page removes it from the store and the freed bytes are reported
//! through [`StoreStats`] — so a garbage-collection pass can state how
//! many bytes it *actually* returned, not how many entries it forgot.
//!
//! [`PagedImage`] is the always-paged image the Time Machine stores;
//! [`SnapshotImage`] is the checkpoint-facing wrapper that is either a
//! plain inline byte vector (no store in play) or a paged image interned
//! in a store.
//!
//! Two content hashes live here, one rule between them. [`fnv1a`]
//! fingerprints every value that something outside the process pins —
//! a fixture, a report, an app contract (snapshot fingerprints, the
//! `SharedDisk` fingerprint); it never changes value. [`content_hash`]
//! (XXH64, a word at a time) keys what is found only through memory:
//! page keys, the Investigator's per-process state hashes, and the
//! Scroll's sealed-segment keys, which are reached only through the
//! store's in-memory segment record.

#![forbid(unsafe_code)]

pub mod image;
pub mod store;

pub use image::{PageStats, PagedImage, SnapshotImage, DEFAULT_PAGE_SIZE};
pub use store::{page_hash, PageHandle, PageStore, StoreStats};

/// A stable 64-bit FNV-1a hash — the fingerprint of every value that
/// something outside the process pins (a fixture, report or app
/// contract): snapshot and message fingerprints, the `SharedDisk`
/// fingerprint, kvstore's partitions. It is a serial byte-at-a-time
/// chain; a key found only through memory uses [`content_hash`]
/// instead. `fixd_runtime::wire::fnv1a` delegates here.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Streaming form of [`fnv1a`]: continue a hash over another chunk.
/// `fnv1a(b"ab") == fnv1a_extend(fnv1a(b"a"), b"b")`, which is what lets
/// a paged image fingerprint itself without reassembling the bytes.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// XXH64 with seed 0 — the key of content found only through memory:
/// [`PageStore`] page keys, the Investigator's cached per-process state
/// hashes, and the Scroll's sealed-segment keys and read-back checks
/// (the blob on the simulated disk is reached only through the store's
/// in-memory record of its key and hash). Four independent lanes take a
/// 32-byte stripe a step, so it runs a word at a time where [`fnv1a`]
/// runs a byte at a time; the length is folded in. Deterministic across
/// runs and platforms, but free to change value with the function:
/// nothing outside the process may pin it.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8-byte word"));
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for s in &mut stripes {
            v[0] = xxh_round(v[0], word(&s[0..]));
            v[1] = xxh_round(v[1], word(&s[8..]));
            v[2] = xxh_round(v[2], word(&s[16..]));
            v[3] = xxh_round(v[3], word(&s[24..]));
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(h, |h, lane| {
            (h ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
        })
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ xxh_round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if let Some((half, rest)) = tail.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = rest;
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// One XXH64 lane step.
#[inline(always)]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_matches_published_xxh64_vectors() {
        for (input, want) in [
            (&b""[..], 0xef46_db37_51d8_e999),
            (b"a", 0xd24e_c4f1_a98c_6e5b),
            (b"abc", 0x44bc_2cf5_ad77_0999),
            // 39 bytes: one stripe, then the 4-byte and 1-byte tails.
            (
                b"Nobody inspects the spammish repetition",
                0xfbce_a83c_8a37_8bf1,
            ),
        ] {
            assert_eq!(content_hash(input), want, "{:?}", input);
        }
    }

    #[test]
    fn content_hash_separates_prefixes_and_ignores_alignment() {
        let buf: Vec<u8> = (0..=100u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let mut seen = std::collections::HashSet::new();
        for n in 0..=100 {
            assert!(seen.insert(content_hash(&buf[..n])), "prefix {n}");
        }
        // Words are read unaligned: a slice at an odd offset hashes as
        // its copy at the start of a fresh allocation does.
        let odd = &buf[3..3 + 77];
        let aligned = odd.to_vec();
        assert_eq!(content_hash(odd), content_hash(&aligned));
    }

    #[test]
    fn fnv_streaming_matches_oneshot() {
        let data = b"the scroll records only nondeterministic actions";
        for split in [0, 1, 7, data.len()] {
            let (a, b) = data.split_at(split);
            assert_eq!(fnv1a_extend(fnv1a(a), b), fnv1a(data));
        }
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
