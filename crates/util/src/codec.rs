//! Byte-cursor helpers shared by every serialised artifact format.
//!
//! Every format is little-endian with a 4-byte magic tag; decoders return
//! `None` on any truncation or tag mismatch rather than panicking, so
//! corrupted artifacts are rejected loudly by the caller. The vector
//! stores and the lexical index (both in `mcqa-index`) serialise through
//! these primitives.

/// A bounds-checked read cursor over serialised bytes.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Consume the 4-byte magic tag, failing when it doesn't match.
    pub fn expect_magic(&mut self, magic: &[u8; 4]) -> Option<()> {
        (self.take(4)? == magic).then_some(())
    }

    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A `u32` used as a length/count: additionally bounded by the bytes
    /// remaining, so a corrupted count cannot trigger a huge allocation.
    pub fn count(&mut self, elem_size: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n.checked_mul(elem_size.max(1))? <= self.remaining()).then_some(n)
    }

    /// An LEB128 varint (at most 10 bytes for a u64).
    pub fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..70).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return None; // overflow past 64 bits
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    pub fn f32_vec(&mut self, len: usize) -> Option<Vec<f32>> {
        let raw = self.take(len.checked_mul(4)?)?;
        Some(
            raw.chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect(),
        )
    }

    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed (trailing garbage rejected).
    pub fn exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

pub fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&u32::try_from(v).expect("count fits u32").to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// LEB128 varint: 7 payload bits per byte, low bits first.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-fold a signed delta into an unsigned varint payload (small
/// magnitudes of either sign stay short).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_rejects_truncation() {
        let mut out = Vec::new();
        out.extend_from_slice(b"TEST");
        put_u32(&mut out, 7);
        put_u64(&mut out, 99);
        let mut r = Reader::new(&out);
        r.expect_magic(b"TEST").unwrap();
        assert_eq!(r.u32(), Some(7));
        assert_eq!(r.u64(), Some(99));
        assert!(r.exhausted());
        let mut short = Reader::new(&out[..6]);
        short.expect_magic(b"TEST").unwrap();
        assert_eq!(short.u32(), None, "truncated read fails");
    }

    #[test]
    fn corrupt_count_rejected() {
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX as usize);
        let mut r = Reader::new(&out);
        assert_eq!(r.count(8), None, "count larger than remaining bytes rejected");
    }

    #[test]
    fn varint_roundtrip() {
        let values =
            [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        let mut out = Vec::new();
        for &v in &values {
            put_varint(&mut out, v);
        }
        let mut r = Reader::new(&out);
        for &v in &values {
            assert_eq!(r.varint(), Some(v));
        }
        assert!(r.exhausted());
        // Truncated varint rejected.
        let mut out = Vec::new();
        put_varint(&mut out, u64::MAX);
        assert_eq!(Reader::new(&out[..out.len() - 1]).varint(), None);
        // Unterminated garbage rejected rather than looping.
        assert_eq!(Reader::new(&[0x80u8; 11]).varint(), None);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small varints.
        assert!(zigzag(-1) < 256);
        assert!(zigzag(1) < 256);
    }
}
