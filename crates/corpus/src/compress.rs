//! `SPZ`: a compact LZ77-family codec for SPDF text streams.
//!
//! Real PDF parsers spend their lives undoing stream encodings; giving the
//! SPDF container a genuine codec means the parse substrate exercises real
//! decode logic with real failure modes (truncated streams, corrupt match
//! offsets) rather than `String::from_utf8` over plain bytes.
//!
//! Format: a stream of ops.
//!
//! ```text
//! 0x00  varint(len)  bytes...      literal run (len >= 1)
//! 0x01  varint(dist) varint(len)   match: copy `len` bytes from `dist` back
//! ```
//!
//! Greedy matcher with a 3-byte hash-chain over a sliding window. Window
//! 8 KiB, min match 4, max match 1 KiB.

use mcqa_util::codec::{put_varint, Reader};

/// Maximum look-back distance.
const WINDOW: usize = 8 * 1024;
/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// Maximum match length per op.
const MAX_MATCH: usize = 1024;

/// Errors produced when decoding a corrupt SPZ stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpzError {
    /// Stream ended inside an op.
    Truncated,
    /// Unknown op tag byte.
    BadTag(u8),
    /// A match referenced data before the start of output.
    BadDistance { distance: usize, available: usize },
    /// A varint ran past 10 bytes.
    BadVarint,
    /// Decoded output exceeded the declared cap.
    TooLong { cap: usize },
}

impl std::fmt::Display for SpzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpzError::Truncated => write!(f, "stream truncated inside an op"),
            SpzError::BadTag(t) => write!(f, "unknown op tag {t:#04x}"),
            SpzError::BadDistance { distance, available } => {
                write!(f, "match distance {distance} exceeds available {available}")
            }
            SpzError::BadVarint => write!(f, "malformed varint"),
            SpzError::TooLong { cap } => write!(f, "output exceeds cap {cap}"),
        }
    }
}

impl std::error::Error for SpzError {}

/// A varint off the cursor. `Reader::varint` fails on a stream that ends
/// inside the varint and on one that runs past 64 bits; bytes left over
/// tell the two apart.
fn get_varint(r: &mut Reader<'_>) -> Result<u64, SpzError> {
    r.varint().ok_or(if r.exhausted() { SpzError::Truncated } else { SpzError::BadVarint })
}

/// Compress `input` into a fresh buffer.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    if input.is_empty() {
        return out;
    }

    // Hash chains: head[h] = most recent position with 3-byte hash h;
    // prev[i % WINDOW] = previous position with the same hash.
    const HASH_BITS: usize = 14;
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; WINDOW];
    let hash3 = |d: &[u8]| -> usize {
        let h = (d[0] as u32)
            .wrapping_mul(506832829)
            .wrapping_add((d[1] as u32).wrapping_mul(2654435761))
            .wrapping_add((d[2] as u32).wrapping_mul(2246822519));
        (h >> (32 - HASH_BITS as u32)) as usize
    };

    let mut literal_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
        let mut s = from;
        while s < to {
            let len = (to - s).min(u32::MAX as usize);
            out.push(0x00);
            put_varint(out, len as u64);
            out.extend_from_slice(&input[s..s + len]);
            s += len;
        }
    };

    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= input.len() {
            let h = hash3(&input[i..]);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && i - cand <= WINDOW && chain < 32 {
                // Candidate match length.
                let max_len = (input.len() - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < max_len && input[cand + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l == max_len {
                        break;
                    }
                }
                cand = prev[cand % WINDOW];
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            flush_literals(&mut out, literal_start, i, input);
            out.push(0x01);
            put_varint(&mut out, best_dist as u64);
            put_varint(&mut out, best_len as u64);
            // Insert hash entries for the matched region.
            let end = i + best_len;
            while i < end && i + 3 <= input.len() {
                let h = hash3(&input[i..]);
                prev[i % WINDOW] = head[h];
                head[h] = i;
                i += 1;
            }
            i = end;
            literal_start = i;
        } else {
            if i + 3 <= input.len() {
                let h = hash3(&input[i..]);
                prev[i % WINDOW] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
    flush_literals(&mut out, literal_start, input.len(), input);
    out
}

/// Decompress an SPZ stream, refusing to produce more than `cap` bytes
/// (guards against decompression bombs from corrupt inputs).
pub fn decompress(data: &[u8], cap: usize) -> Result<Vec<u8>, SpzError> {
    let mut out: Vec<u8> = Vec::new();
    let mut r = Reader::new(data);
    while let Some(tag) = r.u8() {
        match tag {
            0x00 => {
                let len = get_varint(&mut r)? as usize;
                let literal = r.take(len).ok_or(SpzError::Truncated)?;
                if out.len() + len > cap {
                    return Err(SpzError::TooLong { cap });
                }
                out.extend_from_slice(literal);
            }
            0x01 => {
                let dist = get_varint(&mut r)? as usize;
                let len = get_varint(&mut r)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(SpzError::BadDistance { distance: dist, available: out.len() });
                }
                if out.len() + len > cap {
                    return Err(SpzError::TooLong { cap });
                }
                // Byte-at-a-time copy: overlapping matches are legal.
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            t => return Err(SpzError::BadTag(t)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_roundtrip() {
        let c = compress(b"");
        assert!(c.is_empty());
        assert_eq!(decompress(&c, 1024).unwrap(), b"");
    }

    #[test]
    fn short_roundtrip() {
        for s in [&b"a"[..], b"ab", b"abc", b"abcd", b"hello world"] {
            let c = compress(s);
            assert_eq!(decompress(&c, 1 << 20).unwrap(), s, "{s:?}");
        }
    }

    #[test]
    fn repetitive_text_compresses() {
        let text = "the dose response curve shows the dose response of the dose. ".repeat(64);
        let c = compress(text.as_bytes());
        assert!(c.len() < text.len() / 3, "{} vs {}", c.len(), text.len());
        assert_eq!(decompress(&c, 1 << 22).unwrap(), text.as_bytes());
    }

    #[test]
    fn overlapping_match_roundtrip() {
        // "aaaa..." forces dist=1 overlapping copies.
        let text = vec![b'a'; 5000];
        let c = compress(&text);
        assert!(c.len() < 100, "run-length-like input should shrink: {}", c.len());
        assert_eq!(decompress(&c, 1 << 20).unwrap(), text);
    }

    #[test]
    fn pseudo_random_roundtrip() {
        // Incompressible data must still roundtrip (as literals).
        let mut data = Vec::with_capacity(10_000);
        let mut x = 0x12345678u64;
        for _ in 0..10_000 {
            x = mcqa_util::splitmix64(x);
            data.push((x & 0xff) as u8);
        }
        let c = compress(&data);
        assert_eq!(decompress(&c, 1 << 20).unwrap(), data);
    }

    #[test]
    fn long_match_chains_roundtrip() {
        let mut text = String::new();
        for i in 0..200 {
            text.push_str("irradiated cells accumulate double-strand breaks ");
            text.push_str(&i.to_string());
            text.push(' ');
        }
        let c = compress(text.as_bytes());
        assert_eq!(decompress(&c, 1 << 22).unwrap(), text.as_bytes());
        assert!(c.len() < text.len() / 2);
    }

    #[test]
    fn truncated_stream_errors() {
        let text = b"some compressible text some compressible text some compressible text";
        let c = compress(text);
        for cut in [1, c.len() / 2, c.len() - 1] {
            let r = decompress(&c[..cut], 1 << 20);
            // Either an explicit error or a short (prefix) output; never a panic.
            if let Ok(out) = r {
                assert!(out.len() <= text.len());
            }
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(decompress(&[0xFF], 10), Err(SpzError::BadTag(0xFF)));
    }

    #[test]
    fn bad_distance_rejected() {
        // match dist=5 with empty output
        let mut s = vec![0x01];
        put_varint(&mut s, 5);
        put_varint(&mut s, 3);
        assert!(matches!(decompress(&s, 10), Err(SpzError::BadDistance { .. })));
    }

    #[test]
    fn bomb_capped() {
        // A legal stream that would expand beyond the cap must error.
        let payload = vec![b'x'; 100];
        let c = compress(&payload);
        assert!(matches!(decompress(&c, 10), Err(SpzError::TooLong { cap: 10 })));
    }

    #[test]
    fn varint_edge_cases() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(get_varint(&mut r).unwrap(), v);
            assert!(r.exhausted());
        }
        // Unterminated varint
        assert_eq!(get_varint(&mut Reader::new(&[0x80, 0x80])), Err(SpzError::Truncated));
        // Eleven continuation bytes run past 64 bits with data left over.
        assert_eq!(get_varint(&mut Reader::new(&[0xff; 12])), Err(SpzError::BadVarint));
    }
}
