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
//! 8 KiB, min match 4, max match 1 KiB. The chains live per thread and are
//! reused without clearing; the output depends on the input alone, byte
//! for byte what the first, table-per-call formulation wrote (the tests
//! keep it as the oracle), since a blob's length decides where transit
//! corruption lands.

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

/// Hash bits of the match finder's chain heads.
const HASH_BITS: usize = 14;

/// The match finder's hash chains, kept per thread so a call neither
/// allocates nor clears them: `head[h]` is the most recent position with
/// 3-byte hash `h`, `prev[p % WINDOW]` the previous position with the same
/// hash as `p`. Positions are absolute — a call's byte `i` is `base + i`,
/// and every call starts its `base` more than `WINDOW` past the last
/// position of the one before — so an entry left by an earlier call is
/// more than `WINDOW` back and fails the window test like an empty slot.
struct MatchTables {
    head: Vec<u32>,
    prev: Vec<u32>,
    /// First free absolute position: the next call's `base`.
    next_base: u32,
}

impl MatchTables {
    /// Zeroed tables: position 0 is more than `WINDOW` before any `base`.
    fn new() -> Self {
        MatchTables {
            head: vec![0; 1 << HASH_BITS],
            prev: vec![0; WINDOW],
            next_base: WINDOW as u32 + 1,
        }
    }

    /// The `base` of a call over `len` bytes, reserving its positions.
    /// When they would not fit in a `u32`, the tables start over.
    fn claim(&mut self, len: usize) -> u32 {
        let span = u32::try_from(len + WINDOW + 1).expect("SPZ input under 4 GiB");
        if self.next_base.checked_add(span).is_none() {
            *self = Self::new();
        }
        let base = self.next_base;
        self.next_base += span;
        base
    }

    /// Chain position `i` of `input` (absolute `base + i`) under its hash.
    #[inline]
    fn insert(&mut self, input: &[u8], base: u32, i: usize) {
        let h = hash3(&input[i..]);
        let pos = base + i as u32;
        self.prev[pos as usize % WINDOW] = self.head[h];
        self.head[h] = pos;
    }
}

thread_local! {
    static MATCH_TABLES: std::cell::RefCell<MatchTables> =
        std::cell::RefCell::new(MatchTables::new());
}

fn hash3(d: &[u8]) -> usize {
    let h = (d[0] as u32)
        .wrapping_mul(506832829)
        .wrapping_add((d[1] as u32).wrapping_mul(2654435761))
        .wrapping_add((d[2] as u32).wrapping_mul(2246822519));
    (h >> (32 - HASH_BITS as u32)) as usize
}

/// Length of the common prefix of `a` and `b`, up to `max` (both at least
/// `max` long), compared eight bytes at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8], max: usize) -> usize {
    let mut l = 0usize;
    while l + 8 <= max {
        let x = u64::from_le_bytes(a[l..l + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(b[l..l + 8].try_into().expect("8 bytes"));
        if x != y {
            return l + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Compress `input` into a fresh buffer.
///
/// # Panics
///
/// On an input within `WINDOW` bytes of 4 GiB or longer: positions are
/// `u32`s (an SPDF object records its length in one too).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    if input.is_empty() {
        return out;
    }
    MATCH_TABLES.with_borrow_mut(|tables| {
        let base = tables.claim(input.len());
        compress_into(&mut out, input, base, tables);
    });
    out
}

fn flush_literals(out: &mut Vec<u8>, literals: &[u8]) {
    for run in literals.chunks(u32::MAX as usize) {
        out.push(0x00);
        put_varint(out, run.len() as u64);
        out.extend_from_slice(run);
    }
}

/// Greedy parse of `input` (absolute positions from `base`) into `out`.
fn compress_into(out: &mut Vec<u8>, input: &[u8], base: u32, tables: &mut MatchTables) {
    let mut literal_start = 0usize;
    let mut i = 0usize;
    while i < input.len() {
        // A candidate must beat `best_len` to count, so the first one with
        // the longest match wins, and none shorter than `MIN_MATCH` does.
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= input.len() {
            let max_len = (input.len() - i).min(MAX_MATCH);
            let pos = base + i as u32;
            let mut cand = tables.head[hash3(&input[i..])];
            let mut chain = 0;
            while pos - cand <= WINDOW as u32 && chain < 32 {
                let at = (cand - base) as usize;
                // Only a candidate that agrees at `best_len` can beat it.
                if input[at + best_len] == input[i + best_len] {
                    let l = common_prefix(&input[at..], &input[i..], max_len);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - at;
                        if l == max_len {
                            break;
                        }
                    }
                }
                cand = tables.prev[cand as usize % WINDOW];
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            flush_literals(out, &input[literal_start..i]);
            out.push(0x01);
            put_varint(out, best_dist as u64);
            put_varint(out, best_len as u64);
            // Insert hash entries for the matched region.
            let end = i + best_len;
            for k in i..end.min(input.len().saturating_sub(2)) {
                tables.insert(input, base, k);
            }
            i = end;
            literal_start = i;
        } else {
            if i + 3 <= input.len() {
                tables.insert(input, base, i);
            }
            i += 1;
        }
    }
    flush_literals(out, &input[literal_start..]);
}

/// Decompress an SPZ stream, refusing to produce more than `cap` bytes
/// (guards against decompression bombs from corrupt inputs).
pub fn decompress(data: &[u8], cap: usize) -> Result<Vec<u8>, SpzError> {
    // Reserve what the input bounds, never `cap`: a corrupt header may
    // declare anything up to the container's limit.
    let mut out: Vec<u8> = Vec::with_capacity(data.len().min(cap));
    let mut r = Reader::new(data);
    while let Some(tag) = r.u8() {
        match tag {
            0x00 => {
                let len = get_varint(&mut r)? as usize;
                let literal = r.take(len).ok_or(SpzError::Truncated)?;
                // `out` never outgrows `cap`, so this side cannot wrap;
                // `out.len() + len` could, for a varint near `u64::MAX`.
                if len > cap - out.len() {
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
                if len > cap - out.len() {
                    return Err(SpzError::TooLong { cap });
                }
                let start = out.len() - dist;
                if dist >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping: the copy reads bytes it writes.
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
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

    /// The compressor before its tables became per-thread `u32` chains:
    /// `compress` must match it byte for byte.
    fn compress_oracle(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        if input.is_empty() {
            return out;
        }
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; WINDOW];
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

    /// The decoder before its match copy went slice-wise: `decompress`
    /// must return the same `Result` on every stream this one survives.
    fn decompress_oracle(data: &[u8], cap: usize) -> Result<Vec<u8>, SpzError> {
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

    /// Bytes drawn from the first `alphabet` symbols: small alphabets make
    /// long and overlapping matches, 256 makes incompressible noise.
    fn random_bytes(seed: u64, len: usize, alphabet: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = mcqa_util::splitmix64(x);
                (x % alphabet) as u8
            })
            .collect()
    }

    /// The payloads of every object of a document as the SPDF writer
    /// stores them: one text per section.
    fn document_objects(doc: &crate::doc::Document) -> Vec<Vec<u8>> {
        let blob = crate::SpdfWriter::write_document(doc);
        crate::SpdfReader::read(&blob).expect("a fresh blob reads")
    }

    #[test]
    fn compress_matches_the_oracle_on_random_bytes() {
        for (seed, len, alphabet) in [
            (1, 0, 4),
            (2, 3, 2),
            (3, 7, 2),
            (4, 100, 2),
            (5, 5_000, 3),
            (6, 20_000, 16),
            (7, 20_000, 256),
            (8, 40_000, 1),
            (9, 3_000, 64),
        ] {
            let data = random_bytes(seed, len, alphabet);
            assert_eq!(compress(&data), compress_oracle(&data), "{seed} {len} {alphabet}");
        }
        // Tables reused across calls of any length, in any order.
        let long = random_bytes(10, 30_000, 4);
        let short = random_bytes(11, 40, 4);
        for data in [&long, &short, &long, &short] {
            assert_eq!(compress(data), compress_oracle(data));
        }
    }

    #[test]
    fn compress_matches_the_oracle_on_a_tiny_corpus() {
        // `PipelineConfig::tiny(42)`'s ontology and acquisition.
        let ont = mcqa_ontology::Ontology::generate(&mcqa_ontology::OntologyConfig {
            seed: 42,
            entities_per_kind: 60,
            qualitative_facts: 600,
            quantitative_facts: 150,
        });
        let lib = crate::CorpusLibrary::build(
            &ont,
            &crate::AcquisitionConfig::paper_scale(0.01, 42),
            mcqa_runtime::Executor::global(),
        );
        let mut objects = 0;
        for doc in lib.documents() {
            for data in document_objects(doc) {
                assert_eq!(compress(&data), compress_oracle(&data), "{:?}", doc.id);
                objects += 1;
            }
        }
        assert!(objects > 200, "{objects}");
    }

    #[test]
    fn tables_start_over_when_positions_run_out() {
        let data = random_bytes(12, 5_000, 3);
        let mut tables = MatchTables::new();
        // Room for this call, right at the top of the position space.
        tables.next_base = u32::MAX - (data.len() + WINDOW + 1) as u32;
        for expect_reset in [false, true] {
            let base = tables.claim(data.len());
            assert_eq!(base == WINDOW as u32 + 1, expect_reset);
            let mut out = Vec::new();
            compress_into(&mut out, &data, base, &mut tables);
            assert_eq!(out, compress_oracle(&data));
        }
    }

    #[test]
    fn decompress_matches_the_oracle_under_mutation() {
        let ont = mcqa_ontology::Ontology::generate(&mcqa_ontology::OntologyConfig {
            seed: 7,
            entities_per_kind: 25,
            qualitative_facts: 200,
            quantitative_facts: 10,
        });
        let doc = crate::synth::synthesize(
            &ont,
            &crate::SynthConfig::default(),
            crate::DocId(3),
            crate::DocKind::FullPaper,
        );
        let check = |stream: &[u8], cap: usize| {
            let got = decompress(stream, cap);
            if let Ok(out) = &got {
                assert!(out.len() <= cap, "{} > cap {cap}", out.len());
            }
            assert_eq!(got, decompress_oracle(stream, cap));
        };
        for data in document_objects(&doc) {
            let stream = compress(&data);
            let cap = data.len();
            for cut in 0..=stream.len() {
                check(&stream[..cut], cap);
            }
            let mut mutated = stream.clone();
            for at in 0..stream.len() {
                for mask in [0x40, 0xFF] {
                    mutated[at] ^= mask;
                    check(&mutated, cap);
                    mutated[at] ^= mask;
                }
            }
        }
    }

    #[test]
    fn huge_match_length_is_refused_not_fatal() {
        // A one-byte literal, then a match whose length varint is near
        // `u64::MAX`: `out.len() + len` would overflow the cap check.
        let stream = [
            0x00, 0x01, b'a', 0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            0x01,
        ];
        assert_eq!(decompress(&stream, 100), Err(SpzError::TooLong { cap: 100 }));
        // The same length on a literal: the stream ends first.
        let literal = [0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, b'a'];
        assert_eq!(decompress(&literal, 100), Err(SpzError::Truncated));
    }

    #[test]
    fn match_copies_agree_with_byte_loop_at_every_distance() {
        let mut stream = vec![0x00];
        put_varint(&mut stream, 16);
        stream.extend_from_slice(b"0123456789abcdef");
        for (dist, len) in [(1, 9), (3, 3), (4, 7), (16, 16), (16, 5), (2, 40), (30, 30)] {
            stream.push(0x01);
            put_varint(&mut stream, dist);
            put_varint(&mut stream, len);
        }
        assert_eq!(decompress(&stream, 1 << 10), decompress_oracle(&stream, 1 << 10));
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
