//! Minimal binary encoding helpers (LEB128 varints + length-prefixed
//! slices) used by example programs to snapshot their state and by the
//! Scroll's codec. Hand-rolled so the log/wire format is fully
//! self-contained, with no external serialization dependency.

/// Append an unsigned LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decode an unsigned LEB128 varint from `buf[*pos..]`, advancing `pos`.
/// Returns `None` on truncation or overlong (>10 byte) encodings.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // overflow
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// ZigZag-encode a signed integer then varint it.
pub fn put_varint_i64(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Inverse of [`put_varint_i64`].
pub fn get_varint_i64(buf: &[u8], pos: &mut usize) -> Option<i64> {
    let z = get_varint(buf, pos)?;
    Some(((z >> 1) as i64) ^ -((z & 1) as i64))
}

/// Append a length-prefixed byte slice.
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_varint(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

/// Decode a length-prefixed byte slice.
pub fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = get_varint(buf, pos)? as usize;
    let end = pos.checked_add(len)?;
    if end > buf.len() {
        return None;
    }
    let out = &buf[*pos..end];
    *pos = end;
    Some(out)
}

/// Decode a length-prefixed byte slice into a fresh shared [`Payload`]
/// allocation (the one copy a decode inherently needs; every later
/// observer of the decoded message aliases it).
///
/// [`Payload`]: crate::payload::Payload
pub fn get_payload(buf: &[u8], pos: &mut usize) -> Option<crate::payload::Payload> {
    get_bytes(buf, pos).map(crate::payload::Payload::from)
}

/// Append a `u64` slice, length-prefixed.
pub fn put_u64s(buf: &mut Vec<u8>, xs: &[u64]) {
    put_varint(buf, xs.len() as u64);
    for &x in xs {
        put_varint(buf, x);
    }
}

/// Decode a `u64` vector written by [`put_u64s`].
pub fn get_u64s(buf: &[u8], pos: &mut usize) -> Option<Vec<u64>> {
    let n = get_varint(buf, pos)? as usize;
    // Each element is at least one byte; reject absurd lengths early.
    if n > buf.len().saturating_sub(*pos) {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_varint(buf, pos)?);
    }
    Some(out)
}

/// A stable 64-bit FNV-1a hash (deterministic across runs and platforms,
/// unlike `DefaultHasher`): the fingerprint of every value something
/// outside the process pins — snapshots, messages, effects, the disk's
/// fingerprint. Delegates to [`fixd_store::fnv1a`]. Keys found only
/// through memory (pages, explored states, sealed Scroll segments) use
/// [`content_hash`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fixd_store::fnv1a(bytes)
}

pub use fixd_store::content_hash;

/// Continue an FNV-1a hash over the LEB128 encoding of `v`: the bytes
/// [`put_varint`] would append, hashed without a buffer to append to.
pub(crate) fn fnv1a_varint(mut h: u64, mut v: u64) -> u64 {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return fixd_store::fnv1a_extend(h, &[byte]);
        }
        h = fixd_store::fnv1a_extend(h, &[byte | 0x80]);
    }
}

/// Combine two fingerprints order-dependently.
pub fn fnv_mix(a: u64, b: u64) -> u64 {
    let mut h = a ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_add(b);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncated_is_none() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
    }

    #[test]
    fn signed_roundtrip() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300, 300] {
            let mut buf = Vec::new();
            put_varint_i64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint_i64(&buf, &mut pos), Some(v));
        }
    }

    #[test]
    fn bytes_roundtrip_and_bounds() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        put_bytes(&mut buf, b"");
        let mut pos = 0;
        assert_eq!(get_bytes(&buf, &mut pos), Some(&b"hello"[..]));
        assert_eq!(get_bytes(&buf, &mut pos), Some(&b""[..]));
        assert_eq!(get_bytes(&buf, &mut pos), None, "exhausted");
        // corrupt length
        let bad = [0x05, b'h', b'i'];
        let mut p = 0;
        assert_eq!(get_bytes(&bad, &mut p), None);
    }

    #[test]
    fn payload_roundtrip_matches_bytes() {
        // `get_payload` must read exactly the `put_bytes` framing.
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"zero-copy");
        let mut pos = 0;
        let p = get_payload(&buf, &mut pos).unwrap();
        assert_eq!(p, b"zero-copy");
        assert_eq!(pos, buf.len());
        let mut p2 = 0;
        assert_eq!(get_payload(&[0x05, b'h', b'i'], &mut p2), None, "truncated");
    }

    #[test]
    fn u64s_roundtrip() {
        let xs = vec![0, 1, u64::MAX, 42];
        let mut buf = Vec::new();
        put_u64s(&mut buf, &xs);
        let mut pos = 0;
        assert_eq!(get_u64s(&buf, &mut pos), Some(xs));
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv_mix(1, 2), fnv_mix(2, 1));
    }
}
