//! Binary codec for scroll entries.
//!
//! Compact, self-contained, versioned. Varint-based so small ids and
//! counts cost one byte; payloads are length-prefixed. The format is the
//! reproduction's analogue of liblog's on-disk log (§4.1).

use fixd_runtime::wire::{
    get_payload, get_u64s, get_varint, get_varint_i64, put_bytes, put_u64s, put_varint,
};
use fixd_runtime::{Message, Payload, Pid, TimerId};

use crate::entry::{EntryKind, ScrollEntry};

/// Format version byte written at the head of every segment.
///
/// * v1 — dense vector clocks: a length-prefixed `u64` list with one
///   component per process, zeros included, on every entry and message.
/// * v2 — sparse vector clocks: a length-prefixed list of
///   `(pid, count)` varint pairs, nonzero components only.
/// * v3 — an entry's clock as a **delta** against the clock of the entry
///   before it in the segment: the components that changed, as
///   `(pid gap, zigzag(new - old))` varint pairs under a count, and the
///   segment header carries the absolute clock its first entry continues
///   from. 314 → 186 B an entry in `steady-spill`'s 96-wide Chord worlds.
/// * v4 — a message's clock as its sender's own component only, one
///   varint: 66.5 B an entry there.
/// * v5 — no Lamport timestamp on an entry and no speculation id or
///   Lamport timestamp on a message: 63.0 B an entry there.
/// * v6 — no clock at all: no entry clock delta, no message clock
///   component and no base clock in the segment header. Causality is
///   read from each message's send reference, its `(src, id)`, and the
///   entries' `sends` ([`crate::sendref`]), which every version writes.
///   The entry clock delta was 29.0 B and the message component 1.0 B of
///   v5's 62.9 B an entry in a spilled 96-member Chord run.
///
/// v1–v5 segments still decode. Their clocks, Lamport timestamps and
/// speculation ids are parsed — a truncated or malformed one is refused
/// as it always was (a v3 delta must be canonical) — and then dropped.
///
/// A segment is a header — this byte and the entry count as a varint —
/// followed by the entries back to back. Nothing in an entry refers to
/// its offset, to the segment it sits in or to the entry before it, so
/// the encoding of a scroll is one header plus the header-less bodies of
/// any split of it into segments, in order, and
/// [`crate::ScrollStore::encode_segment`] builds it exactly so, copying
/// sealed blobs without parsing them. A later version that adds a
/// trailer, a checksum over the whole segment, offsets, or compression
/// across entries breaks that and must give the store another way to
/// read sealed bytes back.
pub const FORMAT_VERSION: u8 = 6;

/// Append a segment header: the version byte and the entry count.
pub(crate) fn put_segment_header(buf: &mut Vec<u8>, entries: usize) {
    buf.push(FORMAT_VERSION);
    put_varint(buf, entries as u64);
}

/// Bytes [`put_segment_header`] writes for `entries` entries.
pub(crate) fn segment_header_len(entries: usize) -> usize {
    let bits = 64 - (entries as u64 | 1).leading_zeros() as usize;
    1 + bits.div_ceil(7)
}

/// The entries of a current-version segment of exactly `entries`
/// entries, as bytes: `blob` minus its header. `None` when the header
/// says anything else or is cut short. Nothing past the header is looked
/// at.
pub(crate) fn segment_body(blob: &[u8], entries: usize) -> Option<&[u8]> {
    let mut pos = 1;
    if *blob.first()? != FORMAT_VERSION || get_varint(blob, &mut pos)? != entries as u64 {
        return None;
    }
    Some(&blob[pos..])
}

/// Read a pid varint. A value above `u32::MAX` names no pid: it is
/// refused, not truncated into one that exists.
fn get_pid(buf: &[u8], pos: &mut usize) -> Result<Pid> {
    let v = need(get_varint(buf, pos))?;
    u32::try_from(v).map(Pid).map_err(|_| CodecError::BadPid(v))
}

/// Step over an absolute v1–v5 clock: v1's dense component list, or the
/// sparse pair list of v2 on.
fn skip_clock(buf: &[u8], pos: &mut usize, version: u8) -> Result<()> {
    if version == 1 {
        return need(get_u64s(buf, pos)).map(drop);
    }
    for _ in 0..pair_count(buf, pos)? {
        get_pid(buf, pos)?;
        need(get_varint(buf, pos))?;
    }
    Ok(())
}

/// A clock's pair count. A pair is at least two bytes: a count the rest
/// of the buffer cannot hold is refused before anything is read for it.
fn pair_count(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let n = need(get_varint(buf, pos))?;
    if n > buf.len().saturating_sub(*pos) as u64 / 2 {
        return Err(CodecError::Truncated);
    }
    Ok(n)
}

/// Step over a v3–v5 entry clock delta. Only the canonical form is
/// accepted — pids strictly increasing (no zero gap after the first
/// pair, none past `u32::MAX`) and no zero difference — as when it was
/// applied.
fn skip_clock_delta(buf: &[u8], pos: &mut usize) -> Result<()> {
    let mut last = 0u64;
    for k in 0..pair_count(buf, pos)? {
        let gap = need(get_varint(buf, pos))?;
        if k > 0 && gap == 0 {
            return Err(CodecError::BadDelta);
        }
        last = last.saturating_add(gap);
        if u32::try_from(last).is_err() {
            return Err(CodecError::BadPid(last));
        }
        if need(get_varint_i64(buf, pos))? == 0 {
            return Err(CodecError::BadDelta);
        }
    }
    Ok(())
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
    /// A v3–v5 clock delta that is not canonical: a pid named twice (a
    /// zero gap after the first pair) or a component that did not
    /// change.
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

/// Encode a message: every field.
pub fn encode_message(buf: &mut Vec<u8>, m: &Message) {
    put_varint(buf, m.id);
    put_varint(buf, u64::from(m.src.0));
    put_varint(buf, u64::from(m.dst.0));
    put_varint(buf, u64::from(m.tag));
    put_bytes(buf, &m.payload);
    put_varint(buf, m.sent_at);
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
    match version {
        // The legacy sender's clock component, discarded.
        4 | 5 => {
            need(get_varint(buf, pos))?;
        }
        // The legacy sender's whole clock, discarded.
        1..=3 => skip_clock(buf, pos, version)?,
        _ => {}
    }
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
        ckpt_index,
    })
}

/// Encode one scroll entry.
pub fn encode_entry(buf: &mut Vec<u8>, e: &ScrollEntry) {
    buf.push(e.kind.tag());
    put_varint(buf, u64::from(e.pid.0));
    put_varint(buf, e.local_seq);
    put_varint(buf, e.at);
    put_u64s(buf, e.randoms.as_slice());
    put_varint(buf, e.effects_fp);
    put_varint(buf, e.sends);
    match &e.kind {
        EntryKind::Deliver { msg } | EntryKind::DroppedMail { msg } => encode_message(buf, msg),
        EntryKind::TimerFire { timer } => put_varint(buf, timer.0),
        EntryKind::Start | EntryKind::Crash | EntryKind::Restart => {}
    }
}

/// Decode one scroll entry written by [`encode_entry`] (payloads copied;
/// see [`decode_segment_shared`]).
pub fn decode_entry(buf: &[u8], pos: &mut usize) -> Result<ScrollEntry> {
    decode_entry_from(buf, pos, &PayloadSource::Copy, FORMAT_VERSION)
}

/// One entry of a `version` segment.
fn decode_entry_from(
    buf: &[u8],
    pos: &mut usize,
    source: &PayloadSource<'_>,
    version: u8,
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
    // The legacy entry clock, discarded.
    match version {
        3..=5 => skip_clock_delta(buf, pos)?,
        1 | 2 => skip_clock(buf, pos, version)?,
        _ => {}
    }
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
        kind,
        randoms,
        effects_fp,
        sends,
    })
}

/// Encode a whole segment (header, then entries).
pub fn encode_segment(entries: &[ScrollEntry]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + entries.len() * 32);
    encode_segment_into(&mut buf, entries);
    buf
}

/// [`encode_segment`], appended to a buffer the caller owns.
pub fn encode_segment_into(buf: &mut Vec<u8>, entries: &[ScrollEntry]) {
    put_segment_header(buf, entries.len());
    put_entries(buf, entries);
}

/// `entries` back to back: a segment body, header-less.
pub(crate) fn put_entries(buf: &mut Vec<u8>, entries: &[ScrollEntry]) {
    for e in entries {
        encode_entry(buf, e);
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

/// The shortest entry in any version: the tag byte and six one-byte
/// varints (pid, sequence, time, no randoms, fingerprint, sends). A
/// v1–v5 entry is longer (its clock, and before v5 its Lamport
/// timestamp), so the bound holds for them too.
const MIN_ENTRY_BYTES: usize = 7;

fn decode_segment_from(buf: &[u8], source: &PayloadSource<'_>) -> Result<Vec<ScrollEntry>> {
    let mut pos = 0usize;
    let version = *buf.first().ok_or(CodecError::Truncated)?;
    pos += 1;
    // Every older version stays decodable: old segments on disk outlive
    // the in-memory representation that wrote them.
    if version == 0 || version > FORMAT_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let n = need(get_varint(buf, &mut pos))?;
    if (3..=5).contains(&version) {
        // The legacy base clock, discarded.
        skip_clock(buf, &mut pos, version)?;
    }
    // The count is input: refuse one the remaining bytes cannot hold
    // before reserving for it.
    if n > ((buf.len() - pos) / MIN_ENTRY_BYTES) as u64 {
        return Err(CodecError::Truncated);
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(decode_entry_from(buf, &mut pos, source, version)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msg() -> Message {
        Message {
            id: 42,
            src: Pid(1),
            dst: Pid(2),
            tag: 300,
            payload: b"payload".into(),
            sent_at: 1234,
            ckpt_index: 2,
        }
    }

    fn sample_entry(kind: EntryKind) -> ScrollEntry {
        ScrollEntry {
            pid: Pid(2),
            local_seq: 17,
            at: 888,
            kind,
            randoms: vec![7, 0, u64::MAX].into(),
            effects_fp: 0xdeadbeef,
            sends: 3,
        }
    }

    #[test]
    fn message_roundtrip() {
        let m = sample_msg();
        let mut buf = Vec::new();
        encode_message(&mut buf, &m);
        let mut pos = 0;
        let back = decode_message(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back, m);
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
        for kind in kinds {
            let e = sample_entry(kind);
            let mut buf = Vec::new();
            encode_entry(&mut buf, &e);
            let mut pos = 0;
            assert_eq!(decode_entry(&buf, &mut pos).unwrap(), e);
            assert_eq!(pos, buf.len());
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
        // A v2 Start entry whose clock claims 2^16 pairs in three bytes,
        // inside a segment with room to spare behind it.
        let mut seg = vec![2, 1, 0, 0, 0, 0, 0, 0x80, 0x80, 0x04];
        seg.extend_from_slice(&[0; 64]);
        assert_eq!(decode_segment(&seg), Err(CodecError::Truncated));
        // Counts that do fit still decode: the bounds are exact.
        let smallest = ScrollEntry {
            pid: Pid(0),
            local_seq: 0,
            at: 0,
            kind: EntryKind::Start,
            randoms: vec![].into(),
            effects_fp: 0,
            sends: 0,
        };
        let buf = encode_segment(&[smallest.clone(), smallest.clone()]);
        assert_eq!(buf.len(), 2 + 2 * MIN_ENTRY_BYTES);
        assert_eq!(decode_segment(&buf).unwrap().len(), 2);
    }

    #[test]
    fn segment_header_helpers_agree_with_the_encoder() {
        for n in [0usize, 1, 127, 128, 16_383, 16_384, 1 << 21, usize::MAX] {
            let mut header = Vec::new();
            put_segment_header(&mut header, n);
            assert_eq!(header.len(), segment_header_len(n), "{n} entries");
            header.extend_from_slice(b"body");
            assert_eq!(segment_body(&header, n), Some(&b"body"[..]));
            assert_eq!(segment_body(&header, n ^ 1), None, "another count");
            header[0] = 5;
            assert_eq!(segment_body(&header, n), None, "another version");
        }
        assert_eq!(segment_body(&[], 0), None);
        assert_eq!(segment_body(&[FORMAT_VERSION], 0), None);
        assert_eq!(segment_body(&[FORMAT_VERSION, 0x80], 0), None);
        assert_eq!(segment_body(&[FORMAT_VERSION, 0], 0), Some(&[][..]));
    }

    /// `2^32 + 1` as a varint.
    const PID_2_32_PLUS_1: [u8; 5] = [0x81, 0x80, 0x80, 0x80, 0x10];

    /// A pid varint above `u32::MAX` is `BadPid`, wherever it sits: a
    /// message's source or destination, an entry's pid, a legacy base
    /// clock's pair, a legacy delta's pid gap. It used to decode as
    /// `Pid(1)`.
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
        // id, src, dst, tag, empty payload, sent_at, checkpoint index:
        // the pid of `field` (0 src, 1 dst) is hostile.
        let message = |field: usize| {
            let mut b = vec![0];
            b.extend_from_slice(pid(field == 0));
            b.extend_from_slice(pid(field == 1));
            b.extend_from_slice(&[0, 0, 0, 0]);
            b
        };
        for field in 0..2 {
            let got = decode_message(&message(field), &mut 0).unwrap_err();
            assert_eq!(got, bad, "field {field}");
        }
        let ok = decode_message(&message(2), &mut 0).unwrap();
        assert_eq!((ok.src, ok.dst), (Pid(1), Pid(1)));
        // A Start entry with a hostile pid, alone and in a segment.
        let mut entry = vec![0];
        entry.extend_from_slice(&PID_2_32_PLUS_1);
        entry.extend_from_slice(&[0; 5]);
        assert_eq!(decode_entry(&entry, &mut 0).unwrap_err(), bad);
        let mut seg = vec![FORMAT_VERSION, 1];
        seg.extend_from_slice(&entry);
        assert_eq!(decode_segment(&seg).unwrap_err(), bad);
        // A Deliver entry whose message carries one.
        let mut entry = vec![1, 0, 0, 0, 0, 0, 0];
        entry.extend_from_slice(&message(1));
        assert_eq!(decode_entry(&entry, &mut 0).unwrap_err(), bad);
        // A v5 segment whose base clock carries one.
        let mut seg = vec![5, 0, 1];
        seg.extend_from_slice(&PID_2_32_PLUS_1);
        seg.push(1);
        assert_eq!(decode_segment(&seg).unwrap_err(), bad);
        // A v5 delta whose pid gap carries one, alone or past a first
        // pair.
        let v5_start = |delta: &[u8]| {
            let mut seg = vec![5, 1, 0, 0, 0, 0, 0];
            seg.extend_from_slice(delta);
            seg.extend_from_slice(&[0, 0, 0]);
            decode_segment(&seg)
        };
        let mut delta = vec![1];
        delta.extend_from_slice(&PID_2_32_PLUS_1);
        delta.push(2);
        assert_eq!(v5_start(&delta).unwrap_err(), bad);
        let mut delta = vec![2, 1, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, 2];
        assert_eq!(
            v5_start(&delta).unwrap_err(),
            CodecError::BadPid(1 + u64::from(u32::MAX))
        );
        delta[3] = 0xfe;
        assert_eq!(v5_start(&delta).unwrap().len(), 1);
    }

    /// Every truncation of a segment that cuts into its header is
    /// refused; one past it is the body cut short (nothing past the
    /// header is looked at). No single-byte mutation panics, a mutated
    /// version byte is refused, and whatever is accepted is the blob's
    /// tail.
    #[test]
    fn segment_body_survives_every_truncation_and_mutation() {
        let entries = 300;
        let mut blob = Vec::new();
        put_segment_header(&mut blob, entries);
        let header = blob.len();
        assert_eq!(header, 3);
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

    /// Both legacy clock encodings: every truncation is refused, no
    /// single-byte mutation panics or reads past the buffer, and a pair
    /// count the buffer cannot hold is refused before it is walked.
    #[test]
    fn skip_clock_survives_every_truncation_and_mutation() {
        let mut v1 = Vec::new();
        put_u64s(&mut v1, &[3, 0, 200, 0, 0, 7]);
        let mut v2 = Vec::new();
        for x in [4, 0, 3, 2, 200, 9, u64::MAX, 70_000, 1] {
            put_varint(&mut v2, x);
        }
        for (version, buf) in [(1, &v1), (2, &v2)] {
            let mut pos = 0;
            skip_clock(buf, &mut pos, version).unwrap();
            assert_eq!(pos, buf.len());
            for cut in 0..buf.len() {
                assert!(
                    skip_clock(&buf[..cut], &mut 0, version).is_err(),
                    "v{version} cut at {cut}"
                );
            }
            for i in 0..buf.len() {
                for byte in 0..=255u8 {
                    let mut m = buf.clone();
                    m[i] = byte;
                    let mut pos = 0;
                    if skip_clock(&m, &mut pos, version).is_ok() {
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
                skip_clock(&huge, &mut 0, version),
                Err(CodecError::Truncated),
                "v{version}"
            );
        }
        assert_eq!(skip_clock_delta(&huge, &mut 0), Err(CodecError::Truncated));
    }

    /// Canonical v3–v5 clock deltas, built by hand (the encoder is
    /// gone): each is stepped over whole, every truncation is refused,
    /// and no single-byte mutation panics or reads past the buffer.
    #[test]
    fn clock_delta_survives_every_truncation_and_mutation() {
        let mut wide = vec![0x8c, 0x01];
        wide.extend((0..140).flat_map(|p| [if p == 0 { 0 } else { 2 }, 2]));
        let cases: [Vec<u8>; 4] = [
            vec![0],
            // pid 0 by +1, pid 300 (gap 0xac 0x02) by -1.
            vec![2, 0, 2, 0xac, 0x02, 1],
            // pid 70_000 by a large difference.
            vec![1, 0xf0, 0xa2, 0x04, 0xfe, 0xff, 0xff, 0xff, 0x0f],
            // More than 127 components change: a two-byte count.
            wide,
        ];
        for buf in &cases {
            let mut pos = 0;
            skip_clock_delta(buf, &mut pos).unwrap();
            assert_eq!(pos, buf.len());
            for cut in 0..buf.len() {
                assert!(
                    skip_clock_delta(&buf[..cut], &mut 0).is_err(),
                    "cut at {cut}"
                );
            }
            if buf.len() > 40 {
                continue;
            }
            for i in 0..buf.len() {
                for byte in 0..=255u8 {
                    let mut m = buf.clone();
                    m[i] = byte;
                    let mut pos = 0;
                    if skip_clock_delta(&m, &mut pos).is_ok() {
                        assert!(pos <= m.len(), "byte {i} = {byte:#x}");
                    }
                }
            }
        }
        // Non-canonical deltas: a repeated pid, a component unchanged.
        for hostile in [[2, 0, 2, 0, 2], [2, 0, 2, 1, 0]] {
            assert_eq!(
                skip_clock_delta(&hostile, &mut 0),
                Err(CodecError::BadDelta),
                "{hostile:?}"
            );
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let e = sample_entry(EntryKind::Start);
        let mut buf = Vec::new();
        encode_entry(&mut buf, &e);
        buf[0] = 200;
        let mut pos = 0;
        assert_eq!(decode_entry(&buf, &mut pos), Err(CodecError::BadTag(200)));
    }
}
