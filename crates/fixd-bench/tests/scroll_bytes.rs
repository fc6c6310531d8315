//! The Scroll's size claim, gated: a supervised 96-member Chord world
//! whose Scroll spills to a `SharedDisk` (the shape of a long-lived
//! deployment, 4 KiB resident per process) encodes in at most
//! [`MAX_BYTES_PER_ENTRY`] bytes an entry, and its spilled encoding is
//! byte-identical to the encoding of the same run kept resident.
//!
//! Format v2 wrote every entry's whole sparse clock (≈ 96 pairs here)
//! and read 314 B an entry; v3 writes the components that changed since
//! the process's previous entry and reads ≈ 186 B; v4 writes of a
//! message's clock only its sender's component and reads 66.5 B; v5
//! drops an entry's and a message's Lamport timestamps and a message's
//! speculation id and reads 62.9 B; v6 writes no clock at all and reads
//! 32.8 B.

use fixd_core::{Fixd, FixdConfig};
use fixd_examples::chord::chord_world;
use fixd_runtime::{Pid, SharedDisk};
use fixd_scroll::SpillConfig;

const WIDTH: usize = 96;
const SEED: u64 = 1;
const SPILL_THRESHOLD: usize = 4 * 1024;
/// Encoded bytes an entry may average, spilled prefix and resident tail.
const MAX_BYTES_PER_ENTRY: f64 = 35.0;

fn supervised(spill: Option<SpillConfig>) -> Fixd {
    let mut w = chord_world(WIDTH, SEED, 3, 16);
    let mut cfg = FixdConfig::seeded(SEED);
    cfg.scroll_spill = spill;
    let mut fixd = Fixd::new(WIDTH, cfg);
    let out = fixd.supervise(&mut w, u64::MAX);
    assert!(
        out.fault.is_none() && out.quiescent,
        "a clean run to quiescence"
    );
    fixd
}

#[test]
fn spilled_chord_scroll_stays_under_its_byte_budget() {
    let disk = SharedDisk::new();
    let spilled = supervised(Some(SpillConfig::new(disk, SPILL_THRESHOLD)));
    let resident = supervised(None);
    let store = spilled.scroll();
    assert!(store.spilled_segments() > 0, "the run spilled");

    let mut bytes = 0;
    for pid in (0..WIDTH as u32).map(Pid) {
        let encoded = store.encode_segment(pid);
        assert_eq!(
            encoded,
            resident.scroll().encode_segment(pid),
            "{pid:?}: the spilled scroll re-encodes as the resident one"
        );
        bytes += encoded.len();
    }
    assert_eq!(bytes, store.encoded_size());
    let per_entry = bytes as f64 / store.total_entries() as f64;
    println!(
        "{} entries, {bytes} encoded bytes ({per_entry:.1} B/entry), {} B spilled in {} segments",
        store.total_entries(),
        store.spilled_bytes(),
        store.spilled_segments()
    );
    assert!(
        per_entry <= MAX_BYTES_PER_ENTRY,
        "{per_entry:.1} encoded bytes an entry (gate {MAX_BYTES_PER_ENTRY})"
    );
}
