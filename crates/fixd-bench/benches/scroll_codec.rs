//! Scroll codec and spill costs per sealed segment: the figure the
//! Scroll's storage layer owns (a spilling run seals a segment every
//! dozen-odd entries, and read-back touches every one of them again).
//!
//! Segments are [`ENTRIES`] deliveries of one process, each with a
//! 16-byte payload, one random draw and one send — the shape of
//! `steady-spill`'s 96-wide Chord worlds (≈ 15 entries a segment).
//!
//! Series:
//!
//! * `encode`: one segment into a reused buffer, also printed as MB/s;
//! * `seal`: one `ScrollStore::seal` of a resident segment, by a store
//!   and onto a disk that hold the earlier ones. The table then splits
//!   a seal into the parts it is made of — encode, content hash
//!   ([`content_hash`], the seal's key), disk (stack key, in-place
//!   probe, exact-fit write, sync), dropping the resident entries —
//!   each timed by hand in the same round as the seal itself, and
//!   prints the parts, their sum and the seal; the sum should land
//!   within 10 % of the seal;
//! * `read_back/splice` and `read_back/decode`, per sealed segment:
//!   `ScrollStore::encode_segment(pid)` (bytes copied straight out of
//!   the disk's blobs, hash-verified, nothing decoded) against
//!   `ScrollStore::scroll(pid)` (every blob copied once, hash-verified
//!   and decoded);
//! * `hash`, table only: [`fnv1a`] (the pinned-value fingerprint, and
//!   the seal key until the key moved) against [`content_hash`] (XXH64,
//!   the key of pages, explored states and sealed segments) in ns/byte
//!   at a 256 B page, at `steady-spill`'s mean seal (≈ 1.1 KB in format
//!   v4, 2.7 KB in v3) and at 8 KiB — the record of what the move
//!   bought.
//!
//! Expected shape: encode the largest part of a seal and the hash a few
//! per cent of it, splice more than ten times cheaper than decode. On a
//! 2-vCPU host the seal went 14.2 → 7.9 µs and the splice 7.3 → 0.61 µs
//! a sealed segment when the key moved off FNV-1a and read-back began
//! borrowing from the disk; decode, which now checks the hash too, held
//! at ≈ 19–21 µs. While entries carried clocks (72 components here, one
//! in seven rising an entry), format v4 took `ScrollStore::seal` from
//! 19.8 to 12.0 µs for 4,534 → 1,309 B a segment; format v6 writes no
//! clock at all.

use std::cell::RefCell;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use fixd_runtime::wire::{content_hash, fnv1a};
use fixd_runtime::{Message, Pid, SharedDisk};
use fixd_scroll::codec::encode_segment_into;
use fixd_scroll::{EntryKind, ScrollEntry, ScrollStore, SpillConfig};

/// Entries per segment.
const ENTRIES: u64 = 15;
/// Sealed segments behind the read-back series.
const SEGMENTS: u64 = 32;
/// Hand-timed repetitions behind the table.
const REPS: u64 = 1_000;

/// Segment number `round` of pid 0's scroll: distinct bytes per round,
/// so a content-addressed disk stores every one.
fn segment(round: u64) -> Vec<ScrollEntry> {
    (round * ENTRIES..(round + 1) * ENTRIES)
        .map(|seq| ScrollEntry {
            pid: Pid(0),
            local_seq: seq,
            at: seq * 7,
            kind: EntryKind::Deliver {
                msg: Message {
                    id: seq,
                    src: Pid(1),
                    dst: Pid(0),
                    tag: 3,
                    payload: vec![seq as u8; 16].into(),
                    sent_at: seq * 7,
                    ckpt_index: 0,
                }
                .into(),
            },
            randoms: vec![seq].into(),
            effects_fp: seq.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            sends: 1,
        })
        .collect()
}

/// A store that seals only when asked.
fn store_on(disk: &SharedDisk) -> ScrollStore {
    ScrollStore::with_spill(1, SpillConfig::new(disk.clone(), usize::MAX))
}

/// Append segment `round` to the resident tail, ready to seal.
fn append_segment(store: &mut ScrollStore, round: u64) {
    segment(round).into_iter().for_each(|e| store.append(e));
}

/// A store with [`SEGMENTS`] sealed segments and an empty tail.
fn spilled(disk: &SharedDisk) -> ScrollStore {
    let mut store = store_on(disk);
    for round in 0..SEGMENTS {
        append_segment(&mut store, round);
        store.seal(Pid(0));
    }
    store
}

/// The disk's share of a seal, as `seal_impl` does it: build the key on
/// the stack, probe it in place, store an exact-fit copy, sync.
fn spill_blob(disk: &SharedDisk, blob: &[u8], hash: u64) {
    let mut key = *b"scrollseg/0000000000000000";
    write!(&mut key[10..], "{hash:016x}").expect("16 hex digits fit");
    let vacant = disk.read_with(&key, |stored| stored.is_none());
    assert!(vacant, "every round's blob is new");
    disk.write(&key, blob);
    disk.sync();
}

fn bench_scroll_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("scroll_codec");
    let entries = segment(0);
    let mut buf = Vec::new();
    group.bench_function("encode", |b| {
        b.iter(|| {
            buf.clear();
            encode_segment_into(&mut buf, black_box(&entries));
            buf.len()
        });
    });
    group.bench_function("seal", |b| {
        // One store across iterations, as in a run: set-up and routine
        // take turns on it.
        let store = RefCell::new(store_on(&SharedDisk::new()));
        let mut round = 0;
        b.iter_batched(
            || {
                append_segment(&mut store.borrow_mut(), round);
                round += 1;
            },
            |()| store.borrow_mut().seal(Pid(0)),
            BatchSize::SmallInput,
        );
    });
    let disk = SharedDisk::new();
    let store = spilled(&disk);
    group.bench_function(format!("read_back/splice_x{SEGMENTS}"), |b| {
        b.iter(|| store.encode_segment(Pid(0)));
    });
    group.bench_function(format!("read_back/decode_x{SEGMENTS}"), |b| {
        b.iter(|| store.scroll(Pid(0)).len());
    });
    group.finish();
    print_table();
}

/// Mean microseconds of `timed()` over [`REPS`] calls.
fn mean_us<O>(mut timed: impl FnMut() -> O) -> f64 {
    let start = Instant::now();
    for _ in 0..REPS {
        black_box(timed());
    }
    start.elapsed().as_secs_f64() * 1e6 / REPS as f64
}

/// The derived figures: MB/s, the split of a seal, read-back per
/// sealed segment.
fn print_table() {
    println!("\n--- scroll codec, {ENTRIES}-entry segments ---");
    let mut buf = Vec::new();
    let entries = segment(0);
    let us = mean_us(|| {
        buf.clear();
        encode_segment_into(&mut buf, black_box(&entries));
    });
    println!(
        "encode         : {:>5} B/segment {us:>7.2} µs {:>7.1} MB/s",
        buf.len(),
        buf.len() as f64 / us
    );

    // One round times each part of a seal by hand and then the seal
    // itself, on twin disks growing in step: parts and whole meet the
    // same allocator and the same map depth.
    let (parts_disk, mut store) = (SharedDisk::new(), store_on(&SharedDisk::new()));
    let [mut encode, mut hash, mut disk, mut free, mut seal] = [Duration::ZERO; 5];
    let lap = |total: &mut Duration, start: Instant| *total += start.elapsed();
    for round in 0..REPS {
        let entries = segment(round);
        buf.clear();
        let start = Instant::now();
        encode_segment_into(&mut buf, black_box(&entries));
        lap(&mut encode, start);
        let start = Instant::now();
        let key = black_box(content_hash(&buf));
        lap(&mut hash, start);
        let start = Instant::now();
        spill_blob(&parts_disk, &buf, key);
        lap(&mut disk, start);
        // These entries own their messages outright, so freeing them
        // costs more than in a supervised run, where the trace holds the
        // same messages.
        let start = Instant::now();
        drop(entries);
        lap(&mut free, start);
        append_segment(&mut store, round);
        let start = Instant::now();
        store.seal(Pid(0));
        lap(&mut seal, start);
    }
    let [encode, hash, disk, free, seal] =
        [encode, hash, disk, free, seal].map(|d| d.as_secs_f64() * 1e6 / REPS as f64);
    let sum = encode + hash + disk + free;
    println!(
        "seal           : {} B/segment; encode {encode:.2} + hash {hash:.2} + disk {disk:.2} \
         + drop {free:.2} = {sum:.2} µs; ScrollStore::seal {seal:.2} µs (parts/seal {:.2})",
        buf.len(),
        sum / seal
    );
    for len in [256, 1_080, 8 << 10] {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 131 % 251) as u8).collect();
        let ns_per_byte = |us: f64| us * 1e3 / len as f64;
        let fnv = ns_per_byte(mean_us(|| fnv1a(black_box(&bytes))));
        let xxh = ns_per_byte(mean_us(|| content_hash(black_box(&bytes))));
        println!(
            "hash {len:>5} B   : fnv1a {fnv:.3} ns/B, content_hash {xxh:.3} ns/B ({:.1}x)",
            fnv / xxh
        );
    }

    let disk = SharedDisk::new();
    let store = spilled(&disk);
    let per_segment = |us: f64| us / SEGMENTS as f64;
    let splice = per_segment(mean_us(|| store.encode_segment(Pid(0))));
    let decode = per_segment(mean_us(|| store.scroll(Pid(0)).len()));
    println!(
        "read-back      : encode_segment(pid) {splice:.2} µs/sealed segment (splice, \
         hash-verified), scroll(pid) {decode:.2} µs (decode)"
    );
}

criterion_group!(benches, bench_scroll_codec);
criterion_main!(benches);
