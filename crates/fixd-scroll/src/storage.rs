//! The scroll store: per-process logs with size accounting, sealed
//! segments spilled to durable storage, and file persistence.
//!
//! Long supervised runs used to grow without bound: every entry of every
//! process stayed resident forever. The store now seals a process's
//! scroll prefix once its resident weight passes a threshold: the prefix
//! is encoded through the ordinary segment codec (same wire format as
//! [`ScrollStore::save_dir`]) and written to a [`SharedDisk`] as a
//! **content-addressed blob** (keyed by the `content_hash` of its bytes,
//! so identical segments — e.g. across replicas or re-recorded runs
//! sharing one disk — are stored once). Resident memory stays bounded by
//! `threshold × processes`.
//!
//! The key is XXH64 (`fixd_runtime::wire::content_hash`), not the FNV-1a
//! that fingerprints pinned values: a seal's key is found only through
//! the in-memory `SegmentRef` that recorded it (and by a later seal's
//! dedup probe, which computes it the same way), so nothing outside the
//! process pins it. The bytes under the key are what is pinned, and they
//! do not depend on the hash.
//!
//! A sealed blob **is** that stretch of the scroll's encoding, produced
//! once, behind a header of its own. An entry's clock is a delta against
//! the entry before it (formats v3 and v4), so the header carries the clock the
//! blob's first entry continues from: the process's last sealed clock,
//! which the store keeps per process for exactly this and for encoding
//! the resident tail behind the sealed blobs. Each blob still decodes
//! alone, and the bodies still chain into the scroll's encoding. Every
//! read-back borrows the blob where it lies on the disk
//! ([`SharedDisk::read_with`]) and checks it against the length and
//! content hash its seal recorded before using a byte of it. What reads
//! it back falls in three groups:
//!
//! * **as bytes** — [`ScrollStore::encode_segment`] (and
//!   [`ScrollStore::save_dir`] through it) writes one header over the
//!   zero clock, splices each blob's entries in after it, unparsed (the
//!   concatenation property documented at [`codec::FORMAT_VERSION`]),
//!   copied straight out of the disk, and encodes the resident tail
//!   against the last sealed clock;
//! * **decoded** — [`ScrollStore::scroll`] (so queries, merges, stats
//!   and replay see the full log), [`ScrollStore::entry`] and a
//!   [`ScrollStore::truncate`] into the sealed prefix copy each blob
//!   they need once into a shared buffer and parse it;
//! * **not at all** — [`ScrollStore::len`], [`ScrollStore::encoded_size`]
//!   and the other counters are arithmetic on what each seal recorded.
//!
//! A blob that fails a check is a [`StorageError::Missing`] or
//! [`StorageError::Corrupt`]: returned by [`ScrollStore::save_dir`], a
//! panic with the same message from the readers that return no
//! `Result`.

use std::borrow::Cow;
use std::io::{Read, Write};
use std::path::Path;

use fixd_runtime::wire::content_hash;
use fixd_runtime::{Payload, Pid, SharedDisk, VectorClock};

use crate::codec::{self, CodecError};
use crate::entry::ScrollEntry;

/// Structured error from scroll persistence: the filesystem failed, the
/// bytes did not decode, or a sealed segment did not come back from the
/// spill disk as it was sealed.
#[derive(Debug)]
pub enum StorageError {
    /// Filesystem-level failure (missing file, permissions, short write).
    Io(std::io::Error),
    /// The bytes were read but are not a valid scroll segment.
    Codec(CodecError),
    /// A sealed segment's blob is gone from the spill disk.
    Missing {
        /// The segment's key on the disk.
        key: u64,
    },
    /// A sealed segment's blob is not the bytes its seal recorded.
    Corrupt {
        /// The segment's key on the disk.
        key: u64,
        /// The check it failed: `"stored length"`, `"content hash"`,
        /// `"header"` or `"entry count"`.
        what: &'static str,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "scroll storage I/O error: {e}"),
            StorageError::Codec(e) => write!(f, "scroll storage codec error: {e}"),
            StorageError::Missing { key } => {
                write!(
                    f,
                    "spilled scroll segment {key:016x} missing from SharedDisk"
                )
            }
            StorageError::Corrupt { key, what } => {
                write!(f, "spilled scroll segment {key:016x} corrupt: {what}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Codec(e) => Some(e),
            StorageError::Missing { .. } | StorageError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<CodecError> for StorageError {
    fn from(e: CodecError) -> Self {
        StorageError::Codec(e)
    }
}

/// Where and when sealed scroll segments are spilled.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// The durable layer sealed segments are written to (synced — a
    /// crash after a spill loses nothing).
    pub disk: SharedDisk,
    /// Per-process resident-weight threshold in bytes: when a scroll's
    /// resident entries weigh at least this much, the whole resident
    /// prefix is sealed and spilled.
    pub threshold_bytes: usize,
}

impl SpillConfig {
    /// Spill to `disk` once a per-process scroll weighs `threshold_bytes`.
    pub fn new(disk: SharedDisk, threshold_bytes: usize) -> Self {
        assert!(threshold_bytes > 0, "spill threshold must be positive");
        Self {
            disk,
            threshold_bytes,
        }
    }
}

/// One sealed, spilled scroll segment — the only way back to its blob:
/// nothing outside the process holds or recomputes `key` or `hash`, so
/// both are `content_hash` (XXH64) and may change with that function;
/// the blob's bytes may not. The blob is a segment of the current format
/// whose header's base clock is the last clock sealed before it;
/// `header` says how long that header is, so sizes stay arithmetic.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SegmentRef {
    /// The blob's key on the disk: its content hash, unless the seal
    /// probed past a colliding blob.
    key: u64,
    /// `content_hash` of the encoded segment, whatever key it landed
    /// under; every read-back verifies the blob against it.
    hash: u64,
    /// Entries inside.
    entries: usize,
    /// Encoded size in bytes.
    bytes: usize,
    /// Bytes of the blob's header (version, count, base clock); the
    /// rest is its body.
    header: usize,
}

impl SegmentRef {
    fn corrupt(&self, what: &'static str) -> StorageError {
        StorageError::Corrupt {
            key: self.key,
            what,
        }
    }
}

/// `scrollseg/<key as 16 hex digits>`, on the stack.
fn disk_key(key: u64) -> [u8; 26] {
    let mut at = *b"scrollseg/0000000000000000";
    for (i, digit) in at[10..].iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(key >> (60 - 4 * i)) as usize & 0xf];
    }
    at
}

/// A read-back that returns no `Result` panics with the error's message.
// INVARIANT: the store writes every sealed blob itself and nothing in
// the library removes or rewrites one, so a read fails only when the disk
// was damaged behind the store's back — and then the reader panics. The
// readers that call this (`scroll`, `entry`, `truncate`,
// `encode_segment`) return no `Result` because `fixd-benchmark` calls
// `ScrollStore::scroll` and `encode_segment` with their present
// signatures; typed errors there (and deleting this helper) wait for a
// change to the benchmark.
#[allow(clippy::panic)]
fn or_panic<T>(read: Result<T, StorageError>) -> T {
    read.unwrap_or_else(|e| panic!("{e}"))
}

/// Approximate resident weight of one entry: fixed header fields plus
/// the variable payload, random draws, and clock components. Used only
/// to decide when to seal; the spilled blob's exact size is recorded in
/// its [`SegmentRef`].
fn entry_weight(e: &ScrollEntry) -> usize {
    let payload = e.kind.payload().map_or(0, |p| p.len());
    48 + payload + 8 * e.randoms.len() + 16 * e.vc.nnz()
}

/// In-memory store of per-process scrolls. The "common Scroll" of the
/// paper is logically one log; physically (as in liblog) each process
/// appends locally and the logs are merged on demand ([`crate::merge`]).
/// With a [`SpillConfig`] installed, only each scroll's tail is
/// resident; sealed prefixes live on the configured [`SharedDisk`].
#[derive(Clone, Debug, Default)]
pub struct ScrollStore {
    /// Resident tails, per process.
    per_pid: Vec<Vec<ScrollEntry>>,
    /// Sealed, spilled prefixes, per process, oldest first.
    spilled: Vec<Vec<SegmentRef>>,
    /// Approximate resident bytes per process (see [`entry_weight`]).
    resident_weight: Vec<usize>,
    /// Per process, the clock of the last sealed entry (zero while
    /// nothing is sealed): the base of the next seal's header and of the
    /// resident tail's encoding.
    sealed_last: Vec<VectorClock>,
    spill: Option<SpillConfig>,
    /// Encode buffer every seal reuses; empty between seals.
    seal_buf: Vec<u8>,
}

impl ScrollStore {
    /// A store for `n` processes, fully resident.
    pub fn new(n: usize) -> Self {
        Self {
            per_pid: vec![Vec::new(); n],
            spilled: vec![Vec::new(); n],
            resident_weight: vec![0; n],
            sealed_last: vec![VectorClock::ZERO; n],
            spill: None,
            seal_buf: Vec::new(),
        }
    }

    /// A store for `n` processes that seals and spills each scroll's
    /// prefix to `spill.disk` whenever its resident weight reaches
    /// `spill.threshold_bytes`.
    pub fn with_spill(n: usize, spill: SpillConfig) -> Self {
        let mut s = Self::new(n);
        s.spill = Some(spill);
        s
    }

    /// Number of processes covered.
    pub fn width(&self) -> usize {
        self.per_pid.len()
    }

    /// Entries in `pid`'s scroll, sealed and resident. Reads nothing
    /// back: every seal recorded how many entries it took.
    pub fn len(&self, pid: Pid) -> usize {
        let i = pid.idx();
        self.per_pid.get(i).map_or(0, |resident| {
            self.spilled[i].iter().map(|s| s.entries).sum::<usize>() + resident.len()
        })
    }

    /// Append an entry to its process's scroll. Enforces dense local
    /// sequence numbers. May seal and spill the resident prefix.
    pub fn append(&mut self, e: ScrollEntry) {
        let i = e.pid.idx();
        debug_assert_eq!(e.local_seq, self.len(e.pid) as u64, "non-dense local_seq");
        self.resident_weight[i] += entry_weight(&e);
        self.per_pid[i].push(e);
        if let Some(cfg) = &self.spill {
            if self.resident_weight[i] >= cfg.threshold_bytes {
                self.seal(Pid(i as u32));
            }
        }
    }

    /// Seal `pid`'s resident entries into a segment and spill it to the
    /// configured disk. No-op without a spill config or with an empty
    /// resident tail.
    pub fn seal(&mut self, pid: Pid) {
        let Some(cfg) = &self.spill else { return };
        let i = pid.idx();
        if self.per_pid[i].is_empty() {
            return;
        }
        let (entries, base) = (&self.per_pid[i], &self.sealed_last[i]);
        let mut blob = std::mem::take(&mut self.seal_buf);
        codec::put_segment_header(&mut blob, entries.len(), base);
        let header = blob.len();
        codec::put_entries(&mut blob, base, entries);
        // Content-addressed: identical segments (same bytes) are written
        // once per disk. A 64-bit hash can collide, so compare the stored
        // blob in place and probe deterministically to the next key on
        // mismatch (same discipline as `fixd_store::PageStore::intern`).
        let hash = content_hash(&blob);
        let mut key = hash;
        loop {
            let at = disk_key(key);
            match cfg.disk.read_with(&at, |stored| stored.map(|s| s == blob)) {
                None => {
                    // The disk keeps an exact-fit copy; the buffer's
                    // growth slack stays here.
                    cfg.disk.write(&at, &blob);
                    cfg.disk.sync();
                    break;
                }
                Some(true) => break,
                Some(false) => key = key.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1),
            }
        }
        self.spilled[i].push(SegmentRef {
            key,
            hash,
            entries: entries.len(),
            bytes: blob.len(),
            header,
        });
        blob.clear();
        self.seal_buf = blob;
        if let Some(last) = self.per_pid[i].pop() {
            self.sealed_last[i] = last.vc;
        }
        self.per_pid[i].clear();
        self.resident_weight[i] = 0;
    }

    /// `f` over one sealed blob where it lies on the disk, once the blob
    /// has the length and content hash its seal recorded. The hash sees
    /// what a decoder cannot: a flipped count inside a clock still
    /// parses, to another clock.
    fn with_blob<R>(
        &self,
        seg: &SegmentRef,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, StorageError> {
        // Segments are sealed only under a spill config; without one,
        // there is no disk to find the blob on.
        let Some(cfg) = self.spill.as_ref() else {
            return Err(StorageError::Missing { key: seg.key });
        };
        cfg.disk.read_with(&disk_key(seg.key), |blob| match blob {
            None => Err(StorageError::Missing { key: seg.key }),
            Some(b) if b.len() != seg.bytes => Err(seg.corrupt("stored length")),
            Some(b) if content_hash(b) != seg.hash => Err(seg.corrupt("content hash")),
            Some(b) => Ok(f(b)),
        })
    }

    /// Append one sealed segment's entries to `out` as the bytes they
    /// were sealed as, copied out of the disk — nothing is decoded.
    fn splice_segment(&self, seg: &SegmentRef, out: &mut Vec<u8>) -> Result<(), StorageError> {
        // Every segment is sealed by this store at the current version.
        self.with_blob(seg, |blob| {
            codec::segment_body(blob, seg.entries).map(|body| out.extend_from_slice(body))
        })?
        .ok_or_else(|| seg.corrupt("header"))
    }

    /// Re-read and decode one spilled segment. The blob is copied once
    /// into a shared buffer and every decoded entry's payload is a
    /// zero-copy view into it ([`codec::decode_segment_shared`]) —
    /// re-reading a segment of N messages performs one buffer
    /// materialization, not N payload allocations. The views pin the
    /// blob: a caller retaining one entry's payload keeps the whole
    /// segment buffer alive (copy out via `Payload::copy_from_slice` for
    /// long retention).
    fn read_segment(&self, seg: &SegmentRef) -> Result<Vec<ScrollEntry>, StorageError> {
        // Untracked: the segment blob is framing + clocks + payloads,
        // not message-payload traffic; the per-entry views below count
        // as aliased (bytes a copying decoder would have re-copied).
        let shared = self.with_blob(seg, |blob| Payload::untracked(blob))?;
        let entries = codec::decode_segment_shared(&shared)?;
        if entries.len() != seg.entries {
            return Err(seg.corrupt("entry count"));
        }
        Ok(entries)
    }

    /// The scroll of one process, oldest first — including any sealed
    /// segments, which are transparently re-read from the spill disk
    /// (borrowed, zero-cost, when nothing was spilled).
    pub fn scroll(&self, pid: Pid) -> Cow<'_, [ScrollEntry]> {
        let Some(resident) = self.per_pid.get(pid.idx()) else {
            return Cow::Borrowed(&[]);
        };
        let spilled = &self.spilled[pid.idx()];
        if spilled.is_empty() {
            return Cow::Borrowed(resident.as_slice());
        }
        let mut full = Vec::with_capacity(self.len(pid));
        for seg in spilled {
            full.extend(or_panic(self.read_segment(seg)));
        }
        full.extend(resident.iter().cloned());
        Cow::Owned(full)
    }

    /// Entry `idx` of `pid`'s scroll: borrowed when it is resident (cuts
    /// and rollbacks sit near the tail), otherwise decoded out of the one
    /// sealed segment that holds it.
    pub fn entry(&self, pid: Pid, idx: usize) -> Option<Cow<'_, ScrollEntry>> {
        let resident = self.per_pid.get(pid.idx())?;
        let mut first = 0;
        for seg in &self.spilled[pid.idx()] {
            if idx < first + seg.entries {
                let mut entries = or_panic(self.read_segment(seg));
                return Some(Cow::Owned(entries.swap_remove(idx - first)));
            }
            first += seg.entries;
        }
        resident.get(idx - first).map(Cow::Borrowed)
    }

    /// Total entries across all processes (resident + spilled).
    pub fn total_entries(&self) -> usize {
        self.per_pid.iter().map(Vec::len).sum::<usize>()
            + self
                .spilled
                .iter()
                .flatten()
                .map(|s| s.entries)
                .sum::<usize>()
    }

    /// Entries currently resident in memory, across all processes.
    pub fn resident_entries(&self) -> usize {
        self.per_pid.iter().map(Vec::len).sum()
    }

    /// Approximate resident entry bytes across all processes — the
    /// figure the spill threshold bounds (`< threshold × width` at every
    /// point in a spilling run).
    pub fn resident_bytes(&self) -> usize {
        self.resident_weight.iter().sum()
    }

    /// Sealed segments spilled so far, across all processes.
    pub fn spilled_segments(&self) -> usize {
        self.spilled.iter().map(Vec::len).sum()
    }

    /// Encoded bytes spilled so far, across all processes (distinct
    /// segments may share disk blobs; this sums the logical sizes).
    pub fn spilled_bytes(&self) -> usize {
        self.spilled.iter().flatten().map(|s| s.bytes).sum()
    }

    /// Entries of `pid` truncated to the first `n` (used when rolling a
    /// process back: its scroll beyond the restored point is invalid).
    /// Truncating into a sealed segment un-spills: the surviving prefix
    /// becomes resident again (spilled blobs stay on the disk — they are
    /// content-addressed and may back other stores).
    pub fn truncate(&mut self, pid: Pid, n: usize) {
        let i = pid.idx();
        let spilled_n = self.len(pid) - self.per_pid[i].len();
        if n >= spilled_n {
            self.per_pid[i].truncate(n - spilled_n);
        } else {
            let mut full = Vec::with_capacity(n);
            for seg in &self.spilled[i] {
                if full.len() >= n {
                    break;
                }
                full.extend(or_panic(self.read_segment(seg)));
            }
            full.truncate(n);
            self.spilled[i].clear();
            self.sealed_last[i] = VectorClock::ZERO;
            self.per_pid[i] = full;
        }
        self.resident_weight[i] = self.per_pid[i].iter().map(entry_weight).sum();
        // Un-spilling may have re-resided far more than the threshold;
        // re-seal so the resident bound holds even if nothing is ever
        // appended again.
        if let Some(cfg) = &self.spill {
            if self.resident_weight[i] >= cfg.threshold_bytes {
                self.seal(Pid(i as u32));
            }
        }
    }

    /// Encode one process's full scroll as a segment (spilled prefix
    /// included — the wire format is identical with or without spilling).
    /// Sealed segments are not decoded: after one header for the whole
    /// scroll, each blob's entries are copied in as sealed, and only the
    /// resident tail is encoded.
    ///
    /// Panics when a sealed blob is missing or damaged
    /// ([`ScrollStore::save_dir`] returns that as an error).
    pub fn encode_segment(&self, pid: Pid) -> Vec<u8> {
        or_panic(self.try_encode_segment(pid))
    }

    fn try_encode_segment(&self, pid: Pid) -> Result<Vec<u8>, StorageError> {
        let i = pid.idx();
        let resident = self.per_pid.get(i).map_or(&[][..], Vec::as_slice);
        let spilled = self.spilled.get(i).map_or(&[][..], Vec::as_slice);
        let sealed_bytes: usize = spilled.iter().map(|s| s.bytes).sum();
        let mut out = Vec::with_capacity(16 + sealed_bytes + resident.len() * 32);
        codec::put_segment_header(&mut out, self.len(pid), &VectorClock::ZERO);
        for seg in spilled {
            self.splice_segment(seg, &mut out)?;
        }
        let base = self.sealed_last.get(i).unwrap_or(&VectorClock::ZERO);
        codec::put_entries(&mut out, base, resident);
        Ok(out)
    }

    /// Total encoded size in bytes across all processes (the F1 "log
    /// size" metric): the length [`ScrollStore::encode_segment`] would
    /// return, summed, without reading a sealed byte — each seal
    /// recorded its blob's size, so only resident tails are encoded.
    pub fn encoded_size(&self) -> usize {
        let mut tail = Vec::new();
        let mut total = 0;
        for (i, resident) in self.per_pid.iter().enumerate() {
            total += codec::segment_header_len(self.len(Pid(i as u32)));
            for seg in &self.spilled[i] {
                total += seg.bytes - seg.header;
            }
            tail.clear();
            codec::put_entries(&mut tail, &self.sealed_last[i], resident);
            total += tail.len();
        }
        total
    }

    /// Payload bytes referenced by **resident** entries, counting each
    /// shared allocation once. Recorded entries alias the buffers the
    /// runtime delivered (and duplicates re-deliver the same buffer), so
    /// this resident-memory figure is usually far below the sum of
    /// per-entry payload lengths — the zero-copy property, measured.
    /// Spilled entries hold no payload memory at all.
    pub fn unique_payload_bytes(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.per_pid
            .iter()
            .flatten()
            .filter_map(|e| e.kind.payload())
            .filter(|p| seen.insert(p.as_slice().as_ptr()))
            .map(|p| p.len())
            .sum()
    }

    /// Persist all segments to `dir` as `scroll-<pid>.bin` (full logical
    /// scrolls: spilled prefixes are folded back in). A sealed blob that
    /// is gone or damaged on the spill disk is a
    /// [`StorageError::Missing`] / [`StorageError::Corrupt`]; the files
    /// of lower pids may already have been written.
    pub fn save_dir(&self, dir: &Path) -> Result<(), StorageError> {
        std::fs::create_dir_all(dir)?;
        for i in 0..self.per_pid.len() {
            let bytes = self.try_encode_segment(Pid(i as u32))?;
            let mut f = std::fs::File::create(dir.join(format!("scroll-{i}.bin")))?;
            f.write_all(&bytes)?;
        }
        Ok(())
    }

    /// Load a store previously written by [`ScrollStore::save_dir`].
    /// The loaded store is fully resident and has no spill config.
    pub fn load_dir(dir: &Path, n: usize) -> Result<Self, StorageError> {
        let mut store = ScrollStore::new(n);
        for i in 0..n {
            let mut bytes = Vec::new();
            std::fs::File::open(dir.join(format!("scroll-{i}.bin")))?.read_to_end(&mut bytes)?;
            store.per_pid[i] = codec::decode_segment(&bytes)?;
            store.resident_weight[i] = store.per_pid[i].iter().map(entry_weight).sum();
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryKind;
    use fixd_runtime::{Message, MsgMeta, VectorClock};

    fn entry(pid: u32, seq: u64) -> ScrollEntry {
        ScrollEntry {
            pid: Pid(pid),
            local_seq: seq,
            at: seq * 10,
            lamport: seq + 1,
            vc: VectorClock::from_vec(vec![seq + 1, 0]),
            kind: EntryKind::Start,
            randoms: vec![].into(),
            effects_fp: 0,
            sends: 0,
        }
    }

    fn deliver_entry(pid: u32, seq: u64, payload: Vec<u8>) -> ScrollEntry {
        ScrollEntry {
            kind: EntryKind::Deliver {
                msg: Message {
                    id: seq,
                    src: Pid(1 - pid),
                    dst: Pid(pid),
                    tag: 1,
                    payload: payload.into(),
                    sent_at: seq,
                    vc: VectorClock::from_vec(vec![seq, 0]),
                    meta: MsgMeta::default(),
                }
                .into(),
            },
            ..entry(pid, seq)
        }
    }

    /// Entries of pid 0 that live in sealed segments.
    fn sealed_len(s: &ScrollStore) -> usize {
        s.len(Pid(0)) - s.per_pid[0].len()
    }

    #[test]
    fn append_and_read_back() {
        let mut s = ScrollStore::new(2);
        s.append(entry(0, 0));
        s.append(entry(0, 1));
        s.append(entry(1, 0));
        assert_eq!(s.scroll(Pid(0)).len(), 2);
        assert_eq!(s.scroll(Pid(1)).len(), 1);
        assert_eq!(s.total_entries(), 3);
        assert!(s.scroll(Pid(9)).is_empty());
    }

    #[test]
    fn truncate_drops_tail() {
        let mut s = ScrollStore::new(1);
        for i in 0..5 {
            s.append(entry(0, i));
        }
        s.truncate(Pid(0), 2);
        assert_eq!(s.scroll(Pid(0)).len(), 2);
    }

    #[test]
    fn encoded_size_grows_with_entries() {
        let mut s = ScrollStore::new(1);
        let empty = s.encoded_size();
        for i in 0..10 {
            s.append(entry(0, i));
        }
        assert!(s.encoded_size() > empty);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let mut s = ScrollStore::new(2);
        s.append(entry(0, 0));
        s.append(entry(1, 0));
        s.append(entry(1, 1));
        let dir = std::env::temp_dir().join(format!("fixd-scroll-test-{}", std::process::id()));
        s.save_dir(&dir).unwrap();
        let loaded = ScrollStore::load_dir(&dir, 2).unwrap();
        assert_eq!(loaded.scroll(Pid(0)), s.scroll(Pid(0)));
        assert_eq!(loaded.scroll(Pid(1)), s.scroll(Pid(1)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dir_reports_structured_errors() {
        let dir = std::env::temp_dir().join(format!(
            "fixd-scroll-err-{}-{}",
            std::process::id(),
            line!()
        ));
        // Missing directory → Io.
        match ScrollStore::load_dir(&dir, 1) {
            Err(StorageError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
        // Corrupt bytes → Codec (and the error displays + sources).
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("scroll-0.bin"), [99u8, 1, 2, 3]).unwrap();
        match ScrollStore::load_dir(&dir, 1) {
            Err(e @ StorageError::Codec(_)) => {
                assert!(e.to_string().contains("codec"));
                assert!(std::error::Error::source(&e).is_some());
            }
            other => panic!("expected Codec error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spilled_save_dir_roundtrips_full_scroll() {
        // Satellite: save/load through a temp dir with a spilling store —
        // the persisted bytes are the full logical scroll.
        let disk = SharedDisk::new();
        let mut s = ScrollStore::with_spill(2, SpillConfig::new(disk, 256));
        for i in 0..40 {
            s.append(deliver_entry(0, i, vec![i as u8; 24]));
        }
        assert!(s.spilled_segments() > 0);
        let dir = std::env::temp_dir().join(format!("fixd-scroll-spill-{}", std::process::id()));
        s.save_dir(&dir).unwrap();
        let loaded = ScrollStore::load_dir(&dir, 2).unwrap();
        assert_eq!(loaded.scroll(Pid(0)), s.scroll(Pid(0)));
        assert_eq!(loaded.total_entries(), 40);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_seals_prefix_and_rereads_transparently() {
        let disk = SharedDisk::new();
        let mut spilling = ScrollStore::with_spill(1, SpillConfig::new(disk.clone(), 300));
        let mut control = ScrollStore::new(1);
        for i in 0..50 {
            spilling.append(deliver_entry(0, i, vec![i as u8; 16]));
            control.append(deliver_entry(0, i, vec![i as u8; 16]));
        }
        assert!(spilling.spilled_segments() >= 2, "prefix sealed repeatedly");
        assert!(spilling.resident_entries() < 50);
        assert_eq!(spilling.total_entries(), 50);
        // Transparent re-read: the logical scroll is identical.
        assert_eq!(spilling.scroll(Pid(0)), control.scroll(Pid(0)));
        // And the on-disk wire format is byte-identical.
        assert_eq!(
            spilling.encode_segment(Pid(0)),
            control.encode_segment(Pid(0))
        );
        // Durable: the blobs were synced.
        assert_eq!(disk.dirty_count(), 0);
        assert!(disk.stats().syncs as usize >= spilling.spilled_segments());
    }

    #[test]
    fn resident_bytes_stay_bounded() {
        let threshold = 400;
        let disk = SharedDisk::new();
        let mut s = ScrollStore::with_spill(2, SpillConfig::new(disk, threshold));
        for i in 0..200 {
            for pid in 0..2 {
                s.append(deliver_entry(pid, i, vec![0xA5; 32]));
                assert!(
                    s.resident_bytes() < threshold * s.width(),
                    "resident bytes must stay below threshold × width"
                );
            }
        }
        assert!(s.spilled_bytes() > 0);
    }

    #[test]
    fn truncate_into_spilled_prefix_unspills() {
        let disk = SharedDisk::new();
        let mut s = ScrollStore::with_spill(1, SpillConfig::new(disk, 300));
        for i in 0..50 {
            s.append(deliver_entry(0, i, vec![i as u8; 16]));
        }
        let spilled_before = sealed_len(&s);
        assert!(spilled_before > 3);
        let cut = spilled_before - 2; // inside the sealed region
        s.truncate(Pid(0), cut);
        assert_eq!(s.scroll(Pid(0)).len(), cut);
        assert_eq!(s.total_entries(), cut);
        // Un-spilling re-seals: the resident bound holds even with no
        // further appends.
        assert!(
            s.resident_bytes() < 300,
            "truncate must not leave an over-threshold resident prefix"
        );
        // Density restored: appends continue at local_seq == cut.
        s.append(deliver_entry(0, cut as u64, vec![1; 4]));
        assert_eq!(s.total_entries(), cut + 1);
    }

    /// Boundary pin: truncating exactly at the sealed/resident boundary
    /// (`n` == the sealed entry count) must take the fast path — drop the
    /// resident tail, touch no sealed segment, unspill nothing.
    #[test]
    fn truncate_exactly_at_sealed_boundary_keeps_segments_spilled() {
        let disk = SharedDisk::new();
        let mut s = ScrollStore::with_spill(1, SpillConfig::new(disk, 300));
        for i in 0..50 {
            s.append(deliver_entry(0, i, vec![i as u8; 16]));
        }
        let spilled_n = sealed_len(&s);
        let segs = s.spilled[0].len();
        assert!(spilled_n > 0 && segs > 1, "need a multi-segment prefix");
        assert!(!s.per_pid[0].is_empty(), "need a resident tail to drop");
        s.truncate(Pid(0), spilled_n);
        assert_eq!(s.scroll(Pid(0)).len(), spilled_n);
        assert_eq!(s.total_entries(), spilled_n);
        assert!(s.per_pid[0].is_empty(), "resident tail dropped entirely");
        assert_eq!(s.spilled[0].len(), segs, "sealed segments untouched");
        assert_eq!(s.resident_bytes(), 0);
        // Appends resume dense at local_seq == spilled_n.
        s.append(deliver_entry(0, spilled_n as u64, vec![1; 4]));
        assert_eq!(s.total_entries(), spilled_n + 1);
    }

    /// Boundary pin: truncating to an *interior* segment boundary
    /// unspills exactly the kept prefix — the `full.len() >= n` break
    /// fires on equality, reading no segment past the cut.
    #[test]
    fn truncate_at_interior_segment_boundary_unspills_exactly() {
        let disk = SharedDisk::new();
        let mut s = ScrollStore::with_spill(1, SpillConfig::new(disk, 300));
        for i in 0..50 {
            s.append(deliver_entry(0, i, vec![i as u8; 16]));
        }
        assert!(s.spilled[0].len() > 1, "need at least two sealed segments");
        let first = s.spilled[0][0].entries;
        s.truncate(Pid(0), first);
        assert_eq!(s.scroll(Pid(0)).len(), first);
        assert_eq!(s.total_entries(), first);
        // Un-spilling re-seals when over threshold; either way the
        // resident bound holds.
        assert!(s.resident_bytes() < 300);
        s.append(deliver_entry(0, first as u64, vec![1; 4]));
        assert_eq!(s.total_entries(), first + 1);
    }

    /// Boundary pin: truncating a *fully spilled* scroll (empty resident
    /// tail) to zero clears every sealed segment and restarts the scroll
    /// dense from local_seq 0.
    #[test]
    fn truncate_fully_spilled_prefix_to_zero() {
        let disk = SharedDisk::new();
        let mut s = ScrollStore::with_spill(1, SpillConfig::new(disk, 200));
        for i in 0..30 {
            s.append(deliver_entry(0, i, vec![7; 16]));
        }
        // Seal the tail too, so everything lives in sealed segments.
        s.seal(Pid(0));
        assert!(s.per_pid[0].is_empty());
        assert_eq!(sealed_len(&s), 30);
        s.truncate(Pid(0), 0);
        assert_eq!(s.total_entries(), 0);
        assert!(s.scroll(Pid(0)).is_empty());
        assert!(s.spilled[0].is_empty(), "sealed segments cleared");
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.spilled_bytes(), 0);
        // The scroll restarts dense from zero.
        s.append(deliver_entry(0, 0, vec![2; 4]));
        assert_eq!(s.scroll(Pid(0)).len(), 1);
    }

    #[test]
    fn identical_segments_are_stored_once_on_disk() {
        // Two stores sharing one disk spill identical prefixes: the
        // content-addressed blob exists once.
        let disk = SharedDisk::new();
        let mut a = ScrollStore::with_spill(1, SpillConfig::new(disk.clone(), 200));
        let mut b = ScrollStore::with_spill(1, SpillConfig::new(disk.clone(), 200));
        for i in 0..30 {
            a.append(deliver_entry(0, i, vec![7; 16]));
            b.append(deliver_entry(0, i, vec![7; 16]));
        }
        assert!(a.spilled_segments() > 0);
        assert_eq!(a.spilled_segments(), b.spilled_segments());
        let blobs = disk
            .durable_snapshot()
            .keys()
            .filter(|k| k.starts_with(b"scrollseg/"))
            .count();
        assert_eq!(
            blobs,
            a.spilled_segments(),
            "second store's identical segments dedup on disk"
        );
    }

    /// A 50-entry scroll of pid 0 spilled at a 300-byte threshold (a
    /// handful of sealed segments and a resident tail), and its disk.
    fn spilled_store() -> (ScrollStore, SharedDisk) {
        let disk = SharedDisk::new();
        let mut s = ScrollStore::with_spill(2, SpillConfig::new(disk.clone(), 300));
        for i in 0..50 {
            s.append(deliver_entry(0, i, vec![i as u8; 16]));
        }
        assert!(s.spilled[0].len() > 2 && !s.per_pid[0].is_empty());
        (s, disk)
    }

    /// The disk after [`spilled_store`], blobs and keys pinned apart.
    #[test]
    fn sealed_keys_and_blobs_are_pinned() {
        let (s, disk) = spilled_store();
        assert_eq!((s.spilled_segments(), s.spilled_bytes()), (12, 1869));
        assert_eq!(disk.durable_snapshot().len(), 12);
        // The bytes, as FNV-1a over every blob in seal order. Sealed
        // bytes are the Scroll's wire format; no faster seal may move
        // one. Re-pinned for format v3 (delta entry clocks, a base clock
        // in each header): these one-component clocks cost what they
        // did, and the eleven non-zero bases add 34 bytes. Re-pinned for
        // format v4 (a message's clock as its sender's component): each
        // message here carries `{0: seq}` from pid 1, three bytes in v3
        // and one (`vc[1] = 0`) now, so every sealed delivery past the
        // first is two bytes shorter (1963 → 1869 bytes).
        let blobs: Vec<u8> = s.spilled[0]
            .iter()
            .flat_map(|seg| disk.read(&disk_key(seg.key)).expect("sealed blob"))
            .collect();
        assert_eq!(fixd_runtime::wire::fnv1a(&blobs), 0xc137_eec0_87e7_28ea);
        // The keys, through the whole disk's fingerprint. Re-pinned when
        // keys moved from FNV-1a to `content_hash` (a key is found only
        // through the store's in-memory `SegmentRef`, so it may move with
        // the hash function), and with the blobs for formats v3 and v4.
        assert_eq!(disk.durable_fingerprint(), 0x9b57_1e32_1a5a_538a);
    }

    /// Counting reads nothing back, and reading bytes back reads each
    /// sealed blob of that pid exactly once.
    #[test]
    fn counting_reads_no_blob_and_splicing_reads_each_once() {
        let (s, disk) = spilled_store();
        let reads = || disk.stats().reads;
        let before = reads();
        assert_eq!(s.len(Pid(0)), 50);
        assert_eq!(s.len(Pid(1)), 0);
        assert_eq!(s.len(Pid(9)), 0, "out of range counts as empty");
        let full = crate::cut::Cut::full(&s);
        assert_eq!(full.counts(), [50, 0]);
        let size = s.encoded_size();
        // A cut inside the resident tail borrows its frontier.
        assert_eq!(
            full.frontier(&s, Pid(0)).as_ref(),
            Some(&s.per_pid[0].last().unwrap().vc)
        );
        assert_eq!(reads(), before, "no disk read for counts, sizes, tail");

        let bytes: usize = (0..2).map(|p| s.encode_segment(Pid(p)).len()).sum();
        assert_eq!(bytes, size);
        assert_eq!(
            reads() - before,
            s.spilled[0].len() as u64,
            "one read per sealed segment of the pid, none for the other"
        );

        // A frontier inside the sealed prefix decodes the one segment
        // that holds it; `scroll` reads them all.
        let before = reads();
        let first = s.spilled[0][0].entries;
        let cut = crate::cut::Cut::new(vec![first + 1, 0]);
        assert_eq!(
            cut.frontier(&s, Pid(0)).as_ref(),
            Some(&s.scroll(Pid(0))[first].vc)
        );
        assert_eq!(reads() - before, 1 + s.spilled[0].len() as u64);
        assert!(s.entry(Pid(0), 50).is_none() && s.entry(Pid(9), 0).is_none());
    }

    #[test]
    fn stats_touch_each_sealed_segment_once() {
        let (s, disk) = spilled_store();
        let before = disk.stats().reads;
        let stats = crate::stats::ScrollStats::compute(&s);
        assert_eq!(disk.stats().reads - before, s.spilled[0].len() as u64);
        assert_eq!(stats.total_entries, 50);
        // Pid 1's empty scroll is a three-byte header.
        assert_eq!(stats.encoded_bytes, s.encode_segment(Pid(0)).len() + 3);
    }

    /// What a test does to the first sealed blob of [`spilled_store`],
    /// behind the store's back (same key, `write` + `sync`).
    enum Damage {
        /// One count inside a clock raised: the segment still decodes,
        /// to other entries. Only the content hash can tell.
        FlipClockCount,
        /// The last byte cut off.
        Truncate,
        /// A well-formed segment of one entry fewer.
        OtherCount,
        /// The blob deleted.
        Delete,
    }

    fn damaged(how: Damage) -> ScrollStore {
        let (s, disk) = spilled_store();
        let seg = &s.spilled[0][0];
        let key = disk_key(seg.key);
        let mut blob = disk.read(&key).expect("sealed blob on disk");
        match how {
            Damage::FlipClockCount => {
                // [version][count][zero base] then the first entry: tag,
                // pid, seq, at, lamport, then its clock as a delta over
                // the base: one pair, pid 0, zigzag(+1).
                assert_eq!(blob[8..11], [1, 0, 2], "entry 0's clock is ⟨0:1⟩");
                blob[10] = 6;
                disk.write(&key, &blob);
            }
            Damage::Truncate => {
                blob.pop();
                disk.write(&key, &blob);
            }
            Damage::OtherCount => {
                let mut entries = codec::decode_segment(&blob).unwrap();
                entries.pop();
                disk.write(&key, &codec::encode_segment(&entries));
            }
            Damage::Delete => disk.delete(&key),
        }
        disk.sync();
        s
    }

    fn splice(s: ScrollStore) {
        s.encode_segment(Pid(0));
    }

    /// `save_dir` into a directory of the test's own, removed afterwards.
    fn save_into_scratch(s: &ScrollStore) -> Result<(), StorageError> {
        let test = std::thread::current();
        let dir = std::env::temp_dir().join(format!(
            "fixd-scroll-{}-{}",
            std::process::id(),
            test.name().unwrap_or("damaged")
        ));
        let saved = s.save_dir(&dir);
        std::fs::remove_dir_all(&dir).ok();
        saved
    }

    /// `save_dir` returns the damage as a typed error instead of
    /// panicking; the row then panics with its message, like the other
    /// readers, so one expected string covers every way of reading back.
    fn save(s: ScrollStore) {
        let err = save_into_scratch(&s).expect_err("a damaged blob must not save");
        assert!(
            matches!(
                err,
                StorageError::Missing { .. } | StorageError::Corrupt { .. }
            ),
            "{err:?}"
        );
        panic!("{err}");
    }

    fn decode(s: ScrollStore) {
        s.scroll(Pid(0));
    }

    fn truncate_into_first_segment(mut s: ScrollStore) {
        s.truncate(Pid(0), 1);
    }

    /// Every way of reading a damaged blob back fails with the store's
    /// corruption message: the splice, which has no decoder to stumble
    /// over it, and the decoding paths, which a flipped count inside a
    /// clock would get through (it parses, to another clock) — every
    /// read-back checks the content hash its seal recorded.
    macro_rules! damaged_blob_panics {
        ($($name:ident: $how:ident, $read:ident => $message:literal;)*) => {$(
            #[test]
            #[should_panic(expected = $message)]
            fn $name() {
                $read(damaged(Damage::$how));
            }
        )*};
    }

    damaged_blob_panics! {
        flipped_clock_count_fails_the_splice: FlipClockCount, splice => "corrupt: content hash";
        flipped_clock_count_fails_save_dir: FlipClockCount, save => "corrupt: content hash";
        flipped_clock_count_fails_scroll: FlipClockCount, decode => "corrupt: content hash";
        flipped_clock_count_fails_truncate: FlipClockCount, truncate_into_first_segment => "corrupt: content hash";
        truncated_blob_fails_the_splice: Truncate, splice => "corrupt: stored length";
        truncated_blob_fails_save_dir: Truncate, save => "corrupt: stored length";
        truncated_blob_fails_scroll: Truncate, decode => "corrupt: stored length";
        truncated_blob_fails_truncate: Truncate, truncate_into_first_segment => "corrupt: stored length";
        other_count_fails_the_splice: OtherCount, splice => "corrupt: stored length";
        other_count_fails_save_dir: OtherCount, save => "corrupt: stored length";
        other_count_fails_scroll: OtherCount, decode => "corrupt: stored length";
        other_count_fails_truncate: OtherCount, truncate_into_first_segment => "corrupt: stored length";
        deleted_blob_fails_the_splice: Delete, splice => "missing from SharedDisk";
        deleted_blob_fails_save_dir: Delete, save => "missing from SharedDisk";
        deleted_blob_fails_scroll: Delete, decode => "missing from SharedDisk";
        deleted_blob_fails_truncate: Delete, truncate_into_first_segment => "missing from SharedDisk";
    }

    /// A seal record at odds with its intact blob — the store's own bug,
    /// not the disk's: the length and hash match, the entry count does
    /// not. The splice refuses the header, a decode the entry count.
    #[test]
    fn a_seal_record_at_odds_with_its_blob_is_corrupt() {
        let (mut s, _) = spilled_store();
        s.spilled[0][0].entries += 1;
        assert!(matches!(
            save_into_scratch(&s),
            Err(StorageError::Corrupt { what: "header", .. })
        ));
        let decoded = std::panic::catch_unwind(|| s.scroll(Pid(0)).len());
        let message = *decoded.unwrap_err().downcast::<String>().unwrap();
        assert!(message.ends_with("corrupt: entry count"), "{message}");
    }

    /// Another blob already sits under the key a seal computes: the seal
    /// probes to the next key, and read-back verifies the blob against
    /// the recorded content hash — not against the key it landed under.
    #[test]
    fn a_probed_segment_still_splices_and_still_verifies() {
        let entries: Vec<ScrollEntry> = (0..5).map(|i| deliver_entry(0, i, vec![9; 8])).collect();
        let blob = codec::encode_segment(&entries);
        let hash = content_hash(&blob);
        assert_eq!(&disk_key(0xabc), b"scrollseg/0000000000000abc");
        assert_eq!(&disk_key(u64::MAX - 1), b"scrollseg/fffffffffffffffe");
        let disk = SharedDisk::new();
        disk.write(&disk_key(hash), b"some other store's segment");
        disk.sync();

        let mut s = ScrollStore::with_spill(1, SpillConfig::new(disk.clone(), 1 << 20));
        entries.iter().for_each(|e| s.append(e.clone()));
        s.seal(Pid(0));
        let seg = s.spilled[0][0].clone();
        assert_eq!(seg.hash, hash);
        assert_ne!(seg.key, hash, "probed past the planted blob");
        assert_eq!(
            disk.read(&disk_key(hash)).unwrap(),
            b"some other store's segment"
        );
        assert_eq!(disk.read(&disk_key(seg.key)).unwrap(), blob);
        assert_eq!(s.encode_segment(Pid(0)), blob);
        assert_eq!(s.scroll(Pid(0)), entries);
        // A second seal of the same bytes finds the probed blob again.
        let mut again = ScrollStore::with_spill(1, SpillConfig::new(disk.clone(), 1 << 20));
        entries.iter().for_each(|e| again.append(e.clone()));
        again.seal(Pid(0));
        assert_eq!(again.spilled[0][0], seg);

        // Damage under the probed key is caught by the recorded hash.
        let mut flipped = blob.clone();
        *flipped.last_mut().unwrap() ^= 1;
        disk.write(&disk_key(seg.key), &flipped);
        disk.sync();
        let caught = std::panic::catch_unwind(|| s.encode_segment(Pid(0)));
        let message = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("corrupt: content hash"), "{message}");
    }
}
