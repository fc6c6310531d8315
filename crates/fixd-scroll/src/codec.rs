//! Binary codec for scroll entries.
//!
//! Compact, self-contained, versioned. Varint-based so small ids and
//! clocks cost one byte; payloads are length-prefixed. The format is the
//! reproduction's analogue of liblog's on-disk log (§4.1).

use fixd_runtime::wire::{
    get_payload, get_u64s, get_varint, get_varint_i64, put_bytes, put_u64s, put_varint,
};
use fixd_runtime::{Message, Payload, Pid, TimerId, VectorClock};

use crate::entry::{EntryKind, ScrollEntry};

/// Format version byte written at the head of every segment.
///
/// * v1 — dense vector clocks: a length-prefixed `u64` list with one
///   component per process, zeros included. Still decoded for old
///   segments.
/// * v2 — sparse vector clocks: a length-prefixed list of
///   `(pid, count)` varint pairs, nonzero components only. An entry's
///   clock costs bytes proportional to its causal footprint instead of
///   the world width, which is what keeps segments of a 10^5-process
///   world readable. Still decoded for old segments.
/// * v3 — an entry's clock as a **delta** against the clock of the entry
///   before it in the segment ([`VectorClock::put_wire_delta`]): the
///   components that changed, as `(pid gap, zigzag(new - old))` varint
///   pairs under a count. From one entry of a process to the next few
///   components change (≈ 14 of ≈ 96 in `steady-spill`'s 96-wide Chord
///   worlds), so this drops most of the bytes v2 spent on entry clocks
///   (314 → 186 B an entry there). The wrapping difference is exact in both
///   directions: a clock that falls back (a rollback's re-execution
///   appended behind the undone entries) or loses a pid costs what one
///   that rose does. A message's own clock (`Deliver`, `DroppedMail`)
///   stays in the absolute v2 form. Still decoded for old segments.
/// * v4 — a message's clock as its **sender's own component** only, one
///   varint, decoded as the one-component clock `{src: c}` (the zero
///   clock for 0). The Scroll reads nothing else of it: the
///   send-before-receive check compares `vc[src]`
///   ([`crate::merge::check_send_before_receive`]), replay fidelity
///   hashes sends without their clocks, and replay puts the receiver's
///   clock back from the entry's own `vc`
///   ([`crate::replay::replay_step`]) instead of merging the sender's.
///   The rest of the sender's clock was ≈ 120 of the 186 B an entry v3
///   spent in `steady-spill`'s 96-wide Chord worlds (66.5 B an entry
///   then). A message equals its decoded copy under [`EntryKind`]'s
///   equality, which compares the clocks on the sender's component.
///   Still decoded for old segments.
/// * v5 — no Lamport timestamp on an entry and no speculation id or
///   Lamport timestamp on a message: a message carries its sender's
///   checkpoint index alone, and [`crate::merge_total_order`] keys on
///   the entry's clock instead. Three varints fewer: 66.5 → 63.0 B an
///   entry in `steady-spill`'s worlds. v1–v4 segments still decode: their
///   decoder reads those varints and discards them.
///
/// **The header carries the base.** A segment is a header — this byte,
/// the entry count as a varint, then the absolute v2 clock its first
/// entry is a delta against — followed by the entries back to back. The
/// base is [`VectorClock::ZERO`] (one byte) for a segment that starts a
/// scroll, and the clock of the entry just before it otherwise: a
/// sealed blob carries its process's last sealed clock
/// ([`crate::ScrollStore::seal`]). So any one segment decodes on its own.
///
/// **Bodies still concatenate.** Nothing in an entry refers to its
/// offset or to the segment it sits in, and what it does refer to — the
/// entry before it — is the same entry whether or not a segment boundary
/// falls in between, because each segment's base is the clock its body
/// continues from. The encoding of a scroll is therefore one header with
/// the zero base plus the header-less bodies of any split of it into
/// segments, in order, and [`crate::ScrollStore::encode_segment`] builds
/// it exactly so, copying sealed blobs without parsing them
/// (`segment_body` walks past the base clock's varints without
/// decoding it). A later version that adds a trailer, a checksum over
/// the whole segment, offsets, or compression that reaches further back
/// than the header's base breaks that and must give the store another
/// way to read sealed bytes back.
pub const FORMAT_VERSION: u8 = 5;

/// Append a segment header: the version byte, the entry count and the
/// clock the first entry's delta is taken against.
pub(crate) fn put_segment_header(buf: &mut Vec<u8>, entries: usize, base: &VectorClock) {
    buf.push(FORMAT_VERSION);
    put_varint(buf, entries as u64);
    base.put_wire(buf);
}

/// Bytes [`put_segment_header`] writes for `entries` entries over the
/// zero base (the header of a whole scroll's encoding).
pub(crate) fn segment_header_len(entries: usize) -> usize {
    let bits = 64 - (entries as u64 | 1).leading_zeros() as usize;
    2 + bits.div_ceil(7)
}

/// The entries of a current-version segment of exactly `entries`
/// entries, as bytes: `blob` minus its header. `None` when the header
/// says anything else or is cut short. The base clock is stepped over
/// varint by varint, never decoded; nothing past the header is looked
/// at.
pub(crate) fn segment_body(blob: &[u8], entries: usize) -> Option<&[u8]> {
    let mut pos = 1;
    if *blob.first()? != FORMAT_VERSION || get_varint(blob, &mut pos)? != entries as u64 {
        return None;
    }
    let pairs = get_varint(blob, &mut pos)?;
    // Each pair is two varints of at least a byte: a count the rest of
    // the blob cannot hold is refused without walking it.
    if pairs > (blob.len() - pos) as u64 / 2 {
        return None;
    }
    for _ in 0..2 * pairs {
        get_varint(blob, &mut pos)?;
    }
    Some(&blob[pos..])
}

/// Read a pid varint. A value above `u32::MAX` names no pid: it is
/// refused, not truncated into one that exists.
fn get_pid(buf: &[u8], pos: &mut usize) -> Result<Pid> {
    let v = need(get_varint(buf, pos))?;
    u32::try_from(v).map(Pid).map_err(|_| CodecError::BadPid(v))
}

/// Decode an absolute clock in the given format version: v1 reads the
/// dense component list, v2 and later the sparse pair list
/// ([`VectorClock::put_wire`] writes it). Both land in the same
/// in-memory [`VectorClock`] (dense zeros are dropped on the way in).
fn get_clock(buf: &[u8], pos: &mut usize, version: u8) -> Result<VectorClock> {
    if version == 1 {
        return Ok(VectorClock::from_vec(need(get_u64s(buf, pos))?));
    }
    let n = pair_count(buf, pos)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let p = get_pid(buf, pos)?;
        let c = need(get_varint(buf, pos))?;
        pairs.push((p.0, c));
    }
    Ok(VectorClock::from_pairs(pairs))
}

/// A clock's pair count. A pair is at least two bytes: a count the rest
/// of the buffer cannot hold is refused before anything is reserved for
/// it.
fn pair_count(buf: &[u8], pos: &mut usize) -> Result<usize> {
    let n = need(get_varint(buf, pos))?;
    if n > buf.len().saturating_sub(*pos) as u64 / 2 {
        return Err(CodecError::Truncated);
    }
    Ok(n as usize)
}

/// Decode a v3 entry clock: the delta [`VectorClock::put_wire_delta`]
/// wrote against `prev`, applied to it ([`VectorClock::with_delta`]).
/// Only the canonical form is accepted — pids strictly increasing (no
/// zero gap after the first pair, none past `u32::MAX`) and no zero
/// difference — so each clock has one encoding. `delta` is scratch the
/// caller may reuse from entry to entry.
fn get_clock_delta(
    buf: &[u8],
    pos: &mut usize,
    prev: &VectorClock,
    delta: &mut Vec<(u32, u64)>,
) -> Result<VectorClock> {
    let n = pair_count(buf, pos)?;
    if n == 0 {
        return Ok(prev.clone());
    }
    delta.clear();
    delta.reserve(n);
    let mut last = 0u64;
    for k in 0..n {
        let gap = need(get_varint(buf, pos))?;
        if k > 0 && gap == 0 {
            return Err(CodecError::BadDelta);
        }
        let p = last.saturating_add(gap);
        let p32 = u32::try_from(p).map_err(|_| CodecError::BadPid(p))?;
        last = p;
        let diff = need(get_varint_i64(buf, pos))? as u64;
        if diff == 0 {
            return Err(CodecError::BadDelta);
        }
        delta.push((p32, diff));
    }
    Ok(prev.with_delta(delta))
}

/// Encoding error (only produced on decode).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended early or a length field overran the buffer.
    Truncated,
    /// Unknown entry-kind tag.
    BadTag(u8),
    /// Unsupported format version.
    BadVersion(u8),
    /// A pid field above `u32::MAX`.
    BadPid(u64),
    /// A clock delta that is not canonical: a pid named twice (a zero
    /// gap after the first pair) or a component that did not change.
    BadDelta,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated scroll data"),
            CodecError::BadTag(t) => write!(f, "unknown entry tag {t}"),
            CodecError::BadVersion(v) => write!(f, "unsupported scroll format version {v}"),
            CodecError::BadPid(p) => write!(f, "pid {p} out of range"),
            CodecError::BadDelta => write!(f, "non-canonical clock delta"),
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

fn need<T>(v: Option<T>) -> Result<T> {
    v.ok_or(CodecError::Truncated)
}

/// Where decoded payload bytes come from.
///
/// * [`PayloadSource::Copy`] materializes each payload into its own
///   fresh allocation (the pre-refactor behaviour, kept for decoding
///   from a plain byte slice);
/// * [`PayloadSource::View`] carves zero-copy [`Payload`] views out of
///   one shared segment buffer — decoding a segment of N messages costs
///   N reference-count bumps instead of N allocations.
enum PayloadSource<'a> {
    Copy,
    View(&'a Payload),
}

impl PayloadSource<'_> {
    /// Read one length-prefixed payload (the `put_bytes` framing).
    fn take(&self, buf: &[u8], pos: &mut usize) -> Option<Payload> {
        match self {
            // One implementation owns the wire framing.
            PayloadSource::Copy => get_payload(buf, pos),
            PayloadSource::View(seg) => {
                let len = get_varint(buf, pos)? as usize;
                let end = pos.checked_add(len)?;
                if end > buf.len() {
                    return None;
                }
                let p = Payload::slice_of(seg, *pos..end);
                *pos = end;
                Some(p)
            }
        }
    }
}

/// Encode a message: every field, its clock as the sender's own
/// component only (format v4 on).
pub fn encode_message(buf: &mut Vec<u8>, m: &Message) {
    put_varint(buf, m.id);
    put_varint(buf, u64::from(m.src.0));
    put_varint(buf, u64::from(m.dst.0));
    put_varint(buf, u64::from(m.tag));
    put_bytes(buf, &m.payload);
    put_varint(buf, m.sent_at);
    put_varint(buf, m.vc.get(m.src));
    put_varint(buf, m.ckpt_index);
}

/// Decode a message written by [`encode_message`], copying its payload
/// into a fresh allocation. Prefer [`decode_segment_shared`] (or decode
/// from a [`Payload`]) on whole segments: there every entry's payload
/// aliases the one segment buffer instead.
pub fn decode_message(buf: &[u8], pos: &mut usize) -> Result<Message> {
    decode_message_from(buf, pos, &PayloadSource::Copy, FORMAT_VERSION)
}

fn decode_message_from(
    buf: &[u8],
    pos: &mut usize,
    source: &PayloadSource<'_>,
    version: u8,
) -> Result<Message> {
    let id = need(get_varint(buf, pos))?;
    let src = get_pid(buf, pos)?;
    let dst = get_pid(buf, pos)?;
    let tag = need(get_varint(buf, pos))? as u16;
    let payload = need(source.take(buf, pos))?;
    let sent_at = need(get_varint(buf, pos))?;
    let vc = if version >= 4 {
        VectorClock::single(src, need(get_varint(buf, pos))?)
    } else {
        get_clock(buf, pos, version)?
    };
    let ckpt_index = need(get_varint(buf, pos))?;
    if version < 5 {
        // The legacy speculation id and Lamport timestamp, discarded.
        need(get_varint(buf, pos))?;
        need(get_varint(buf, pos))?;
    }
    Ok(Message {
        id,
        src,
        dst,
        tag,
        payload,
        sent_at,
        vc,
        ckpt_index,
    })
}

/// Encode one scroll entry, its clock as a delta against `prev` (the
/// clock of the entry before it in the segment, or the header's base).
pub fn encode_entry(buf: &mut Vec<u8>, e: &ScrollEntry, prev: &VectorClock) {
    buf.push(e.kind.tag());
    put_varint(buf, u64::from(e.pid.0));
    put_varint(buf, e.local_seq);
    put_varint(buf, e.at);
    e.vc.put_wire_delta(prev, buf);
    put_u64s(buf, e.randoms.as_slice());
    put_varint(buf, e.effects_fp);
    put_varint(buf, e.sends);
    match &e.kind {
        EntryKind::Deliver { msg } | EntryKind::DroppedMail { msg } => encode_message(buf, msg),
        EntryKind::TimerFire { timer } => put_varint(buf, timer.0),
        EntryKind::Start | EntryKind::Crash | EntryKind::Restart => {}
    }
}

/// Decode one scroll entry written by [`encode_entry`] against `prev`
/// (payloads copied; see [`decode_segment_shared`]).
pub fn decode_entry(buf: &[u8], pos: &mut usize, prev: &VectorClock) -> Result<ScrollEntry> {
    let mut chain = Chain {
        prev: prev.clone(),
        delta: Vec::new(),
    };
    decode_entry_from(buf, pos, &PayloadSource::Copy, FORMAT_VERSION, &mut chain)
}

/// What one entry's clock is decoded against: the clock of the entry
/// before it (v3 deltas apply to it; v1 and v2 clocks are absolute), and
/// a delta buffer the entries of a segment share.
struct Chain {
    prev: VectorClock,
    delta: Vec<(u32, u64)>,
}

/// One entry of a `version` segment; `chain.prev` becomes its clock.
fn decode_entry_from(
    buf: &[u8],
    pos: &mut usize,
    source: &PayloadSource<'_>,
    version: u8,
    chain: &mut Chain,
) -> Result<ScrollEntry> {
    let tag = *buf.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    let pid = get_pid(buf, pos)?;
    let local_seq = need(get_varint(buf, pos))?;
    let at = need(get_varint(buf, pos))?;
    if version < 5 {
        // The legacy Lamport timestamp, discarded.
        need(get_varint(buf, pos))?;
    }
    let vc = if version >= 3 {
        get_clock_delta(buf, pos, &chain.prev, &mut chain.delta)?
    } else {
        get_clock(buf, pos, version)?
    };
    chain.prev = vc.clone();
    let randoms = need(get_u64s(buf, pos))?.into();
    let effects_fp = need(get_varint(buf, pos))?;
    let sends = need(get_varint(buf, pos))?;
    let kind = match tag {
        0 => EntryKind::Start,
        1 => EntryKind::Deliver {
            msg: decode_message_from(buf, pos, source, version)?.into(),
        },
        2 => EntryKind::TimerFire {
            timer: TimerId(need(get_varint(buf, pos))?),
        },
        3 => EntryKind::Crash,
        4 => EntryKind::Restart,
        5 => EntryKind::DroppedMail {
            msg: decode_message_from(buf, pos, source, version)?.into(),
        },
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(ScrollEntry {
        pid,
        local_seq,
        at,
        vc,
        kind,
        randoms,
        effects_fp,
        sends,
    })
}

/// Encode a whole segment (header over the zero base, then entries).
pub fn encode_segment(entries: &[ScrollEntry]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + entries.len() * 32);
    encode_segment_into(&mut buf, entries);
    buf
}

/// [`encode_segment`], appended to a buffer the caller owns.
pub fn encode_segment_into(buf: &mut Vec<u8>, entries: &[ScrollEntry]) {
    put_segment_header(buf, entries.len(), &VectorClock::ZERO);
    put_entries(buf, &VectorClock::ZERO, entries);
}

/// `entries` back to back, each clock a delta against the one before it
/// and the first against `base`: a segment body, header-less.
pub(crate) fn put_entries(buf: &mut Vec<u8>, base: &VectorClock, entries: &[ScrollEntry]) {
    let mut prev = base;
    for e in entries {
        encode_entry(buf, e, prev);
        prev = &e.vc;
    }
}

/// Decode a whole segment written by [`encode_segment`], copying each
/// payload into its own allocation.
pub fn decode_segment(buf: &[u8]) -> Result<Vec<ScrollEntry>> {
    decode_segment_from(buf, &PayloadSource::Copy)
}

/// Decode a whole segment held in a shared [`Payload`] buffer: every
/// decoded message payload is a zero-copy view aliasing `seg`'s
/// allocation ([`Payload::slice_of`]) — no per-entry payload
/// materialization at all. This is the spill re-read path: one buffer
/// per segment re-read, reference-count bumps per entry.
///
/// The views pin the whole segment buffer: retaining even one decoded
/// payload keeps `seg`'s allocation alive. Callers holding a payload
/// long past the segment should copy it out
/// ([`Payload::copy_from_slice`]) to release the buffer.
pub fn decode_segment_shared(seg: &Payload) -> Result<Vec<ScrollEntry>> {
    decode_segment_from(seg.as_slice(), &PayloadSource::View(seg))
}

/// The shortest entry in any version: the tag byte and seven one-byte
/// varints (pid, sequence, time, an empty clock or delta, no randoms,
/// fingerprint, sends). A v1–v4 entry is a byte longer (its Lamport
/// timestamp), so the bound holds for them too.
const MIN_ENTRY_BYTES: usize = 8;

fn decode_segment_from(buf: &[u8], source: &PayloadSource<'_>) -> Result<Vec<ScrollEntry>> {
    let mut pos = 0usize;
    let version = *buf.first().ok_or(CodecError::Truncated)?;
    pos += 1;
    // v1 (dense clocks) stays decodable: old segments on disk outlive
    // the in-memory representation that wrote them.
    if version == 0 || version > FORMAT_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let n = need(get_varint(buf, &mut pos))?;
    let prev = if version >= 3 {
        get_clock(buf, &mut pos, version)?
    } else {
        VectorClock::ZERO
    };
    let mut chain = Chain {
        prev,
        delta: Vec::new(),
    };
    // The count is input: refuse one the remaining bytes cannot hold
    // before reserving for it.
    if n > ((buf.len() - pos) / MIN_ENTRY_BYTES) as u64 {
        return Err(CodecError::Truncated);
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(decode_entry_from(
            buf, &mut pos, source, version, &mut chain,
        )?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`get_clock_delta`] with a fresh delta buffer.
    fn delta_of(buf: &[u8], pos: &mut usize, prev: &VectorClock) -> Result<VectorClock> {
        get_clock_delta(buf, pos, prev, &mut Vec::new())
    }

    fn sample_msg() -> Message {
        Message {
            id: 42,
            src: Pid(1),
            dst: Pid(2),
            tag: 300,
            payload: b"payload".into(),
            sent_at: 1234,
            vc: VectorClock::from_vec(vec![3, 1, 0]),
            ckpt_index: 2,
        }
    }

    fn sample_entry(kind: EntryKind) -> ScrollEntry {
        ScrollEntry {
            pid: Pid(2),
            local_seq: 17,
            at: 888,
            vc: VectorClock::from_vec(vec![3, 2, 5]),
            kind,
            randoms: vec![7, 0, u64::MAX].into(),
            effects_fp: 0xdeadbeef,
            sends: 3,
        }
    }

    /// A message decodes to what the Scroll keeps of it, compared as
    /// [`EntryKind`] compares messages: its clock holds the sender's
    /// component only.
    #[test]
    fn message_roundtrip() {
        let m = sample_msg();
        let mut buf = Vec::new();
        encode_message(&mut buf, &m);
        let mut pos = 0;
        let back = decode_message(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back.vc, VectorClock::single(m.src, 1));
        let deliver = |msg: Message| EntryKind::Deliver { msg: msg.into() };
        assert_eq!(deliver(back), deliver(m));
    }

    #[test]
    fn entry_roundtrip_all_kinds() {
        let kinds = vec![
            EntryKind::Start,
            EntryKind::Deliver {
                msg: sample_msg().into(),
            },
            EntryKind::TimerFire { timer: TimerId(77) },
            EntryKind::Crash,
            EntryKind::Restart,
            EntryKind::DroppedMail {
                msg: sample_msg().into(),
            },
        ];
        let prevs = [
            VectorClock::ZERO,
            VectorClock::from_vec(vec![3, 2, 5]),
            VectorClock::from_vec(vec![9, 0, 1, 4]),
        ];
        for kind in kinds {
            let e = sample_entry(kind);
            for prev in &prevs {
                let mut buf = Vec::new();
                encode_entry(&mut buf, &e, prev);
                let mut pos = 0;
                assert_eq!(decode_entry(&buf, &mut pos, prev).unwrap(), e);
                assert_eq!(pos, buf.len());
            }
        }
    }

    #[test]
    fn segment_roundtrip() {
        let entries = vec![
            sample_entry(EntryKind::Start),
            sample_entry(EntryKind::Deliver {
                msg: sample_msg().into(),
            }),
        ];
        let buf = encode_segment(&entries);
        assert_eq!(decode_segment(&buf).unwrap(), entries);
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = encode_segment(&[]);
        buf[0] = 99;
        assert_eq!(decode_segment(&buf), Err(CodecError::BadVersion(99)));
    }

    #[test]
    fn truncation_rejected() {
        let entries = vec![sample_entry(EntryKind::Deliver {
            msg: sample_msg().into(),
        })];
        let buf = encode_segment(&entries);
        for cutoff in [1usize, buf.len() / 2, buf.len() - 1] {
            assert!(decode_segment(&buf[..cutoff]).is_err(), "cutoff {cutoff}");
        }
    }

    /// A count is input. One the remaining bytes cannot hold is
    /// `Truncated` before a single slot is reserved for it (these used
    /// to reserve 2^20 entries — about 110 MB — and 2^16 pairs).
    #[test]
    fn hostile_counts_are_refused_before_allocating() {
        // A four-byte "segment" claiming 2^20 - 1 entries.
        assert_eq!(
            decode_segment(&[2, 0xff, 0xff, 0x3f]),
            Err(CodecError::Truncated)
        );
        // A Start entry whose clock claims 2^16 pairs in three bytes,
        // alone and inside a segment with room to spare behind it.
        let entry = [0, 0, 0, 0, 0x80, 0x80, 0x04];
        let zero = VectorClock::ZERO;
        assert_eq!(
            decode_entry(&entry, &mut 0, &zero),
            Err(CodecError::Truncated)
        );
        let mut seg = vec![FORMAT_VERSION, 1, 0];
        seg.extend_from_slice(&entry);
        seg.extend_from_slice(&[0; 64]);
        assert_eq!(decode_segment(&seg), Err(CodecError::Truncated));
        // Counts that do fit still decode: the bounds are exact.
        let smallest = ScrollEntry {
            pid: Pid(0),
            local_seq: 0,
            at: 0,
            vc: VectorClock::ZERO,
            kind: EntryKind::Start,
            randoms: vec![].into(),
            effects_fp: 0,
            sends: 0,
        };
        let buf = encode_segment(&[smallest.clone(), smallest.clone()]);
        assert_eq!(buf.len(), 3 + 2 * MIN_ENTRY_BYTES);
        assert_eq!(decode_segment(&buf).unwrap().len(), 2);
        let wide = ScrollEntry {
            vc: VectorClock::from_pairs((0..100).map(|p| (p, 1)).collect()),
            ..smallest
        };
        let buf = encode_segment(std::slice::from_ref(&wide));
        assert_eq!(decode_segment(&buf).unwrap(), vec![wide]);
    }

    #[test]
    fn segment_header_helpers_agree_with_the_encoder() {
        let bases = [
            VectorClock::ZERO,
            VectorClock::from_pairs(vec![(0, 3), (200, 1), (70_000, u64::MAX)]),
            VectorClock::from_pairs((0..300).map(|p| (p, 1)).collect()),
        ];
        for n in [0usize, 1, 127, 128, 16_383, 16_384, 1 << 21, usize::MAX] {
            for base in &bases {
                let mut header = Vec::new();
                put_segment_header(&mut header, n, base);
                if base.is_zero() {
                    assert_eq!(header.len(), segment_header_len(n), "{n} entries");
                }
                header.extend_from_slice(b"body");
                assert_eq!(segment_body(&header, n), Some(&b"body"[..]));
                assert_eq!(segment_body(&header, n ^ 1), None, "another count");
                header[0] = 2;
                assert_eq!(segment_body(&header, n), None, "another version");
            }
        }
        assert_eq!(segment_body(&[], 0), None);
        assert_eq!(segment_body(&[FORMAT_VERSION], 0), None);
        assert_eq!(segment_body(&[FORMAT_VERSION, 0x80], 0), None);
        assert_eq!(segment_body(&[FORMAT_VERSION, 0], 0), None, "no base");
        assert_eq!(
            segment_body(&[FORMAT_VERSION, 0, 1, 5], 0),
            None,
            "half a pair"
        );
        assert_eq!(segment_body(&[FORMAT_VERSION, 0, 0], 0), Some(&[][..]));
    }

    /// `2^32 + 1` as a varint.
    const PID_2_32_PLUS_1: [u8; 5] = [0x81, 0x80, 0x80, 0x80, 0x10];

    /// A pid varint above `u32::MAX` is `BadPid`, wherever it sits: a
    /// message's source or destination, an entry's pid, a base clock's
    /// pair, a delta's pid gap. It used to decode as `Pid(1)`.
    #[test]
    fn hostile_pids_are_refused_not_truncated() {
        let bad = CodecError::BadPid((1 << 32) + 1);
        let pid = |hostile: bool| {
            if hostile {
                &PID_2_32_PLUS_1[..]
            } else {
                &[1][..]
            }
        };
        // id, src, dst, tag, empty payload, sent_at, the sender's clock
        // component, checkpoint index: the pid of `field` (0 src, 1 dst)
        // is hostile.
        let message = |field: usize| {
            let mut b = vec![0];
            b.extend_from_slice(pid(field == 0));
            b.extend_from_slice(pid(field == 1));
            b.extend_from_slice(&[0, 0, 0, 1, 0]);
            b
        };
        for field in 0..2 {
            let got = decode_message(&message(field), &mut 0).unwrap_err();
            assert_eq!(got, bad, "field {field}");
        }
        let ok = decode_message(&message(2), &mut 0).unwrap();
        assert_eq!((ok.src, ok.dst, ok.vc.get(Pid(1))), (Pid(1), Pid(1), 1));
        // A Start entry with a hostile pid, alone and in a segment.
        let zero = VectorClock::ZERO;
        let mut entry = vec![0];
        entry.extend_from_slice(&PID_2_32_PLUS_1);
        entry.extend_from_slice(&[0; 6]);
        assert_eq!(decode_entry(&entry, &mut 0, &zero).unwrap_err(), bad);
        let mut seg = vec![FORMAT_VERSION, 1, 0];
        seg.extend_from_slice(&entry);
        assert_eq!(decode_segment(&seg).unwrap_err(), bad);
        // A Deliver entry whose message carries one.
        let mut entry = vec![1, 0, 0, 0, 0, 0, 0, 0];
        entry.extend_from_slice(&message(1));
        assert_eq!(decode_entry(&entry, &mut 0, &zero).unwrap_err(), bad);
        // A segment whose base clock carries one.
        let mut seg = vec![FORMAT_VERSION, 0, 1];
        seg.extend_from_slice(&PID_2_32_PLUS_1);
        seg.push(1);
        assert_eq!(decode_segment(&seg).unwrap_err(), bad);
        // A delta whose pid gap carries one, alone or past a first pair.
        let mut delta = vec![1];
        delta.extend_from_slice(&PID_2_32_PLUS_1);
        delta.push(2);
        assert_eq!(delta_of(&delta, &mut 0, &zero).unwrap_err(), bad);
        let mut delta = vec![2, 1, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, 2];
        assert_eq!(
            delta_of(&delta, &mut 0, &zero).unwrap_err(),
            CodecError::BadPid(1 + u64::from(u32::MAX))
        );
        delta[3] = 0xfe;
        let ok = delta_of(&delta, &mut 0, &zero).unwrap();
        assert_eq!((ok.get(Pid(1)), ok.get(Pid(u32::MAX))), (1, 1));
    }

    /// Every truncation of a segment that cuts into its header is
    /// refused; one past it is the body cut short (nothing past the
    /// header is looked at). No single-byte mutation panics, a mutated
    /// version byte is refused, and whatever is accepted is the blob's
    /// tail.
    #[test]
    fn segment_body_survives_every_truncation_and_mutation() {
        let entries = 300;
        let base = VectorClock::from_pairs(vec![(0, 3), (200, 1)]);
        let mut blob = Vec::new();
        put_segment_header(&mut blob, entries, &base);
        let header = blob.len();
        assert_eq!(header, 9);
        blob.extend_from_slice(b"any body at all");
        for cut in 0..=blob.len() {
            let want = (cut >= header).then(|| &blob[header..cut]);
            assert_eq!(segment_body(&blob[..cut], entries), want, "cut at {cut}");
        }
        for i in 0..blob.len() {
            for byte in 0..=255u8 {
                let mut m = blob.clone();
                if m[i] == byte {
                    continue;
                }
                m[i] = byte;
                match segment_body(&m, entries) {
                    Some(body) => {
                        assert!(i > 0, "a mutated version byte was accepted");
                        assert!(m.ends_with(body), "byte {i} = {byte:#x}");
                    }
                    None => assert!(i < header, "a mutated body byte {i} was refused"),
                }
            }
        }
    }

    /// Both clock encodings: every truncation is refused, no single-byte
    /// mutation panics or reads past the buffer, and a pair count the
    /// buffer cannot hold is refused before anything is reserved (a
    /// `usize::MAX` reservation would panic).
    #[test]
    fn get_clock_survives_every_truncation_and_mutation() {
        let vc = VectorClock::from_pairs(vec![(0, 3), (2, 200), (70_000, 1), (9, u64::MAX)]);
        let mut v1 = Vec::new();
        put_u64s(&mut v1, &[3, 0, 200, 0, 0, 7]);
        let mut v2 = Vec::new();
        vc.put_wire(&mut v2);
        for (version, buf) in [(1, &v1), (2, &v2)] {
            let mut pos = 0;
            get_clock(buf, &mut pos, version).unwrap();
            assert_eq!(pos, buf.len());
            for cut in 0..buf.len() {
                assert!(
                    get_clock(&buf[..cut], &mut 0, version).is_err(),
                    "v{version} cut at {cut}"
                );
            }
            for i in 0..buf.len() {
                for byte in 0..=255u8 {
                    let mut m = buf.clone();
                    m[i] = byte;
                    let mut pos = 0;
                    if get_clock(&m, &mut pos, version).is_ok() {
                        assert!(pos <= m.len(), "v{version} byte {i} = {byte:#x}");
                    }
                }
            }
        }
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        huge.extend_from_slice(&[0; 32]);
        for version in [1, 2] {
            assert_eq!(
                get_clock(&huge, &mut 0, version),
                Err(CodecError::Truncated),
                "v{version}"
            );
        }
        assert_eq!(delta_of(&huge, &mut 0, &vc), Err(CodecError::Truncated));
    }

    /// The v3 entry clock against every shape of its predecessor: the
    /// delta decodes back to the clock, and nothing else is accepted for
    /// it — every truncation is refused, no single-byte mutation panics
    /// or reads past the buffer.
    #[test]
    fn clock_delta_round_trips_and_survives_every_truncation_and_mutation() {
        let wide = |count: u64| VectorClock::from_pairs((0..140).map(|p| (2 * p, count)).collect());
        let cases = [
            (VectorClock::ZERO, VectorClock::ZERO),
            (VectorClock::ZERO, VectorClock::from_vec(vec![3, 2, 5])),
            (
                VectorClock::from_vec(vec![3, 2, 5]),
                VectorClock::from_vec(vec![4, 2, 5]),
            ),
            // Falls back, loses a pid, gains one.
            (
                VectorClock::from_pairs(vec![(0, 9), (2, 200), (9, u64::MAX)]),
                VectorClock::from_pairs(vec![(0, 3), (5, 1), (9, 1), (70_000, 7)]),
            ),
            (wide(5), VectorClock::ZERO),
            // More than 127 components change: a two-byte count.
            (wide(5), wide(6)),
            (VectorClock::ZERO, wide(u64::MAX)),
        ];
        for (prev, vc) in &cases {
            let mut buf = Vec::new();
            vc.put_wire_delta(prev, &mut buf);
            let mut pos = 0;
            assert_eq!(&delta_of(&buf, &mut pos, prev).unwrap(), vc);
            assert_eq!(pos, buf.len());
            for cut in 0..buf.len() {
                assert!(delta_of(&buf[..cut], &mut 0, prev).is_err(), "cut at {cut}");
            }
            if buf.len() > 40 {
                continue;
            }
            for i in 0..buf.len() {
                for byte in 0..=255u8 {
                    let mut m = buf.clone();
                    m[i] = byte;
                    let mut pos = 0;
                    if delta_of(&m, &mut pos, prev).is_ok() {
                        assert!(pos <= m.len(), "byte {i} = {byte:#x}");
                    }
                }
            }
        }
        // Non-canonical deltas: a repeated pid, a component unchanged.
        let prev = VectorClock::from_vec(vec![1, 1]);
        for hostile in [[2, 0, 2, 0, 2], [2, 0, 2, 1, 0]] {
            assert_eq!(
                delta_of(&hostile, &mut 0, &prev),
                Err(CodecError::BadDelta),
                "{hostile:?}"
            );
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let e = sample_entry(EntryKind::Start);
        let zero = VectorClock::ZERO;
        let mut buf = Vec::new();
        encode_entry(&mut buf, &e, &zero);
        buf[0] = 200;
        let mut pos = 0;
        assert_eq!(
            decode_entry(&buf, &mut pos, &zero),
            Err(CodecError::BadTag(200))
        );
    }
}
