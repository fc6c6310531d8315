//! Binary codec for scroll entries.
//!
//! Compact, self-contained, versioned. Varint-based so small ids and
//! clocks cost one byte; payloads are length-prefixed. The format is the
//! reproduction's analogue of liblog's on-disk log (§4.1).

use fixd_runtime::wire::{get_payload, get_u64s, get_varint, put_bytes, put_u64s, put_varint};
use fixd_runtime::{Message, MsgMeta, Payload, Pid, TimerId, VectorClock};

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
///   world readable.
///
/// **Segments concatenate.** A segment is a header — this byte, then
/// the entry count as a varint — followed by the entries back to back,
/// and an entry is self-delimiting: nothing in it refers to its offset,
/// its neighbours or the segment it sits in. The encoding of a scroll
/// is therefore one header plus the header-less bodies of any split of
/// it into segments, in order, and [`crate::ScrollStore::encode_segment`]
/// builds it exactly so, copying sealed blobs without parsing them
/// (`segment_body`). A later version that adds a trailer, a checksum
/// over the whole segment, offsets or cross-entry compression breaks
/// that and must give the store another way to read sealed bytes back.
pub const FORMAT_VERSION: u8 = 2;

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
/// says anything else. Nothing past the header is looked at.
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

/// Decode a clock in the given format version: v1 reads the dense
/// component list, v2 the sparse pair list ([`VectorClock::put_wire`]
/// writes it). Both land in the same in-memory [`VectorClock`] (dense
/// zeros are dropped on the way in).
fn get_clock(buf: &[u8], pos: &mut usize, version: u8) -> Result<VectorClock> {
    if version == 1 {
        return Ok(VectorClock::from_vec(need(get_u64s(buf, pos))?));
    }
    let n = need(get_varint(buf, pos))? as usize;
    // A pair is at least two bytes: a count the rest of the buffer
    // cannot hold is refused before anything is reserved for it.
    if n > buf.len().saturating_sub(*pos) / 2 {
        return Err(CodecError::Truncated);
    }
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let p = get_pid(buf, pos)?;
        let c = need(get_varint(buf, pos))?;
        pairs.push((p.0, c));
    }
    Ok(VectorClock::from_pairs(pairs))
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
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated scroll data"),
            CodecError::BadTag(t) => write!(f, "unknown entry tag {t}"),
            CodecError::BadVersion(v) => write!(f, "unsupported scroll format version {v}"),
            CodecError::BadPid(p) => write!(f, "pid {p} out of range"),
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

/// Encode a message (full fidelity: clocks and metadata included).
pub fn encode_message(buf: &mut Vec<u8>, m: &Message) {
    put_varint(buf, m.id);
    put_varint(buf, u64::from(m.src.0));
    put_varint(buf, u64::from(m.dst.0));
    put_varint(buf, u64::from(m.tag));
    put_bytes(buf, &m.payload);
    put_varint(buf, m.sent_at);
    m.vc.put_wire(buf);
    put_varint(buf, m.meta.ckpt_index);
    put_varint(buf, m.meta.spec_id);
    put_varint(buf, m.meta.lamport);
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
    let vc = get_clock(buf, pos, version)?;
    let ckpt_index = need(get_varint(buf, pos))?;
    let spec_id = need(get_varint(buf, pos))?;
    let lamport = need(get_varint(buf, pos))?;
    Ok(Message {
        id,
        src,
        dst,
        tag,
        payload,
        sent_at,
        vc,
        meta: MsgMeta {
            ckpt_index,
            spec_id,
            lamport,
        },
    })
}

/// Encode one scroll entry.
pub fn encode_entry(buf: &mut Vec<u8>, e: &ScrollEntry) {
    buf.push(e.kind.tag());
    put_varint(buf, u64::from(e.pid.0));
    put_varint(buf, e.local_seq);
    put_varint(buf, e.at);
    put_varint(buf, e.lamport);
    e.vc.put_wire(buf);
    put_u64s(buf, e.randoms.as_slice());
    put_varint(buf, e.effects_fp);
    put_varint(buf, e.sends);
    match &e.kind {
        EntryKind::Deliver { msg } | EntryKind::DroppedMail { msg } => encode_message(buf, msg),
        EntryKind::TimerFire { timer } => put_varint(buf, timer.0),
        EntryKind::Start | EntryKind::Crash | EntryKind::Restart => {}
    }
}

/// Decode one scroll entry (payloads copied; see [`decode_segment_shared`]).
pub fn decode_entry(buf: &[u8], pos: &mut usize) -> Result<ScrollEntry> {
    decode_entry_from(buf, pos, &PayloadSource::Copy, FORMAT_VERSION)
}

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
    let lamport = need(get_varint(buf, pos))?;
    let vc = get_clock(buf, pos, version)?;
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
        lamport,
        vc,
        kind,
        randoms,
        effects_fp,
        sends,
    })
}

/// Encode a whole segment (version byte + count + entries).
pub fn encode_segment(entries: &[ScrollEntry]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + entries.len() * 32);
    encode_segment_into(&mut buf, entries);
    buf
}

/// [`encode_segment`], appended to a buffer the caller owns (a store
/// sealing segment after segment reuses one).
pub fn encode_segment_into(buf: &mut Vec<u8>, entries: &[ScrollEntry]) {
    put_segment_header(buf, entries.len());
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

/// The shortest entry in any version: the tag byte and eight one-byte
/// varints (pid, sequence, time, lamport, an empty clock, no randoms,
/// fingerprint, sends).
const MIN_ENTRY_BYTES: usize = 9;

fn decode_segment_from(buf: &[u8], source: &PayloadSource<'_>) -> Result<Vec<ScrollEntry>> {
    let mut pos = 0usize;
    let version = *buf.first().ok_or(CodecError::Truncated)?;
    pos += 1;
    // v1 (dense clocks) stays decodable: old segments on disk outlive
    // the in-memory representation that wrote them.
    if version == 0 || version > FORMAT_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let n = need(get_varint(buf, &mut pos))? as usize;
    // The count is input: refuse one the remaining bytes cannot hold
    // before reserving for it.
    if n > (buf.len() - pos) / MIN_ENTRY_BYTES {
        return Err(CodecError::Truncated);
    }
    let mut out = Vec::with_capacity(n);
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
            vc: VectorClock::from_vec(vec![3, 1, 0]),
            meta: MsgMeta {
                ckpt_index: 2,
                spec_id: 0,
                lamport: 9,
            },
        }
    }

    fn sample_entry(kind: EntryKind) -> ScrollEntry {
        ScrollEntry {
            pid: Pid(2),
            local_seq: 17,
            at: 888,
            lamport: 10,
            vc: VectorClock::from_vec(vec![3, 2, 5]),
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
        assert_eq!(decode_message(&buf, &mut pos).unwrap(), m);
        assert_eq!(pos, buf.len());
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
        let entry = [0, 0, 0, 0, 0, 0x80, 0x80, 0x04];
        assert_eq!(decode_entry(&entry, &mut 0), Err(CodecError::Truncated));
        let mut seg = vec![FORMAT_VERSION, 1];
        seg.extend_from_slice(&entry);
        seg.extend_from_slice(&[0; 64]);
        assert_eq!(decode_segment(&seg), Err(CodecError::Truncated));
        // Counts that do fit still decode: the bounds are exact.
        let smallest = ScrollEntry {
            pid: Pid(0),
            local_seq: 0,
            at: 0,
            lamport: 0,
            vc: VectorClock::ZERO,
            kind: EntryKind::Start,
            randoms: vec![].into(),
            effects_fp: 0,
            sends: 0,
        };
        let buf = encode_segment(&[smallest.clone(), smallest.clone()]);
        assert_eq!(buf.len(), 2 + 2 * MIN_ENTRY_BYTES);
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
        for n in [0usize, 1, 127, 128, 16_383, 16_384, 1 << 21, usize::MAX] {
            let mut header = Vec::new();
            put_segment_header(&mut header, n);
            assert_eq!(header.len(), segment_header_len(n), "{n} entries");
            header.extend_from_slice(b"body");
            assert_eq!(segment_body(&header, n), Some(&b"body"[..]));
            assert_eq!(segment_body(&header, n ^ 1), None, "another count");
            header[0] = 1;
            assert_eq!(segment_body(&header, n), None, "another version");
        }
        assert_eq!(segment_body(&[], 0), None);
        assert_eq!(segment_body(&[FORMAT_VERSION], 0), None);
        assert_eq!(segment_body(&[FORMAT_VERSION, 0x80], 0), None);
    }

    /// `2^32 + 1` as a varint.
    const PID_2_32_PLUS_1: [u8; 5] = [0x81, 0x80, 0x80, 0x80, 0x10];

    /// A pid varint above `u32::MAX` is `BadPid`, wherever it sits: a
    /// message's source, destination or clock pair, an entry's pid. It
    /// used to decode as `Pid(1)`.
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
        // id, src, dst, tag, empty payload, sent_at, one clock pair,
        // meta: the pid of `field` (0 src, 1 dst, 2 clock) is hostile.
        let message = |field: usize| {
            let mut b = vec![0];
            b.extend_from_slice(pid(field == 0));
            b.extend_from_slice(pid(field == 1));
            b.extend_from_slice(&[0, 0, 0, 1]);
            b.extend_from_slice(pid(field == 2));
            b.extend_from_slice(&[1, 0, 0, 0]);
            b
        };
        for field in 0..3 {
            let got = decode_message(&message(field), &mut 0).unwrap_err();
            assert_eq!(got, bad, "field {field}");
        }
        let ok = decode_message(&message(3), &mut 0).unwrap();
        assert_eq!((ok.src, ok.dst, ok.vc.get(Pid(1))), (Pid(1), Pid(1), 1));
        // A Start entry with a hostile pid, alone and in a segment.
        let mut entry = vec![0];
        entry.extend_from_slice(&PID_2_32_PLUS_1);
        entry.extend_from_slice(&[0; 7]);
        assert_eq!(decode_entry(&entry, &mut 0).unwrap_err(), bad);
        let mut seg = vec![FORMAT_VERSION, 1];
        seg.extend_from_slice(&entry);
        assert_eq!(decode_segment(&seg).unwrap_err(), bad);
        // A Deliver entry whose message carries one.
        let mut entry = vec![1, 0, 0, 0, 0, 0, 0, 0, 0];
        entry.extend_from_slice(&message(1));
        assert_eq!(decode_entry(&entry, &mut 0).unwrap_err(), bad);
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
