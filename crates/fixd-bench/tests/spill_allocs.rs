//! The spill read-back's copy claim, counted: `encode_segment(pid)` over
//! a scroll that lives wholly in sealed segments allocates its output,
//! pre-sized to the sealed bytes, and nothing else. Each blob is checked
//! and copied where it lies on the disk (`SharedDisk::read_with`) under a
//! disk key built on the stack.
//!
//! Before the borrowing read, the same call allocated 1 + 2 per sealed
//! segment (65 here): the output, and for every segment its key as a
//! `Vec` and `SharedDisk::read`'s clone of the blob.
//!
//! One `#[test]` on purpose: the counter is process-wide.

use fixd_bench::{alloc_events, CountingAlloc};
use fixd_runtime::{Message, Pid, SharedDisk};
use fixd_scroll::{EntryKind, ScrollEntry, ScrollStore, SpillConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SEGMENTS: u64 = 32;
const ENTRIES: u64 = 15;

fn delivery(seq: u64) -> ScrollEntry {
    ScrollEntry {
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
        effects_fp: seq,
        sends: 1,
    }
}

#[test]
fn spilled_read_back_allocates_only_its_output() {
    let disk = SharedDisk::new();
    let mut store = ScrollStore::with_spill(1, SpillConfig::new(disk, usize::MAX));
    let mut control = ScrollStore::new(1);
    for round in 0..SEGMENTS {
        for seq in round * ENTRIES..(round + 1) * ENTRIES {
            store.append(delivery(seq));
            control.append(delivery(seq));
        }
        store.seal(Pid(0));
    }
    assert_eq!(store.spilled_segments(), SEGMENTS as usize);
    assert_eq!(store.resident_entries(), 0, "the tail is sealed too");
    let want = control.encode_segment(Pid(0));

    let before = alloc_events();
    let bytes = store.encode_segment(Pid(0));
    let allocs = alloc_events() - before;
    assert_eq!(bytes, want);
    assert_eq!(
        allocs, 1,
        "{allocs} allocations reading back {SEGMENTS} sealed segments"
    );
}
