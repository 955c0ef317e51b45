//! SPDF — the *Synthetic Portable Document Format* binary container.
//!
//! A deliberately PDF-shaped format so the parsing substrate does real
//! structured binary work: magic + versioned header, an object table of
//! text streams (one per section, SPZ-compressed when that wins), and a
//! checksummed trailer.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! +--------+---------+-------------+
//! | "SPDF" | version | object_count|      header (4 + 2 + 4 bytes)
//! +--------+---------+-------------+
//! | type u8 | flags u8 | raw_len u32 | stored_len u32 | payload... |  × N
//! +--------+-----------+
//! | "TRLR" | fnv64 checksum of everything before the trailer |
//! +--------+-----------+
//! ```
//!
//! `type` is always [`TEXT_OBJECT`]; both readers refuse any other value.
//! `flags & 1` marks an SPZ-compressed payload (`raw_len` = decompressed
//! size). The strict reader validates everything, the trailer checksum
//! included; [`SpdfReader::salvage`] walks the same object table without
//! refusing, and keeps every object that decodes. That walk is the
//! fallback of the AdaParse-style engine in `mcqa-core`'s `parse` module,
//! taken only when the strict read fails.

use crate::compress::{compress, decompress, SpzError};
use crate::doc::Document;

/// Container magic.
pub const MAGIC: &[u8; 4] = b"SPDF";
/// Trailer magic.
pub const TRAILER_MAGIC: &[u8; 4] = b"TRLR";
/// Current format version.
pub const VERSION: u16 = 1;
/// The type byte of a text-stream object, the one object type.
pub const TEXT_OBJECT: u8 = 1;
/// Decompression cap per object (guards corrupt streams).
const MAX_OBJECT_BYTES: usize = 16 << 20;

/// Errors from strict SPDF reading.
#[derive(Debug, Clone, PartialEq)]
pub enum SpdfError {
    /// Leading magic missing.
    BadMagic,
    /// Unknown version.
    UnsupportedVersion(u16),
    /// File ended early.
    Truncated { at: &'static str },
    /// Unknown object type byte.
    BadObjectType(u8),
    /// Declared size exceeds sanity cap.
    ObjectTooLarge { raw_len: usize },
    /// Trailer magic missing.
    BadTrailer,
    /// Trailer checksum mismatch.
    ChecksumMismatch { expected: u64, actual: u64 },
    /// An SPZ stream failed to decode.
    Stream { object: usize, source: SpzError },
    /// Decompressed size differed from the declared `raw_len`.
    RawLenMismatch { object: usize, declared: usize, actual: usize },
}

impl std::fmt::Display for SpdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpdfError::BadMagic => write!(f, "not an SPDF file (bad magic)"),
            SpdfError::UnsupportedVersion(v) => write!(f, "unsupported SPDF version {v}"),
            SpdfError::Truncated { at } => write!(f, "file truncated at {at}"),
            SpdfError::BadObjectType(b) => write!(f, "unknown object type {b:#04x}"),
            SpdfError::ObjectTooLarge { raw_len } => {
                write!(f, "object too large ({raw_len} bytes)")
            }
            SpdfError::BadTrailer => write!(f, "missing trailer"),
            SpdfError::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum mismatch: expected {expected:#018x}, got {actual:#018x}")
            }
            SpdfError::Stream { object, source } => write!(f, "object {object}: {source}"),
            SpdfError::RawLenMismatch { object, declared, actual } => {
                write!(f, "object {object}: declared {declared} bytes, decoded {actual}")
            }
        }
    }
}

impl std::error::Error for SpdfError {}

/// SPDF writer.
pub struct SpdfWriter;

impl SpdfWriter {
    /// Encode text streams into an SPDF byte blob, one object each.
    pub fn write_objects(objects: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(objects.len() as u32).to_le_bytes());
        for data in objects {
            let compressed = compress(data);
            // Only keep compression when it wins.
            let (flags, stored): (u8, &[u8]) =
                if compressed.len() < data.len() { (1, &compressed) } else { (0, data) };
            out.push(TEXT_OBJECT);
            out.push(flags);
            out.extend_from_slice(&(data.len() as u32).to_le_bytes());
            out.extend_from_slice(&(stored.len() as u32).to_le_bytes());
            out.extend_from_slice(stored);
        }
        let checksum = mcqa_util::fnv1a(&out);
        out.extend_from_slice(TRAILER_MAGIC);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Render a logical document into SPDF: one text object per section
    /// (`"<title>\n\n<section text>"`).
    pub fn write_document(doc: &Document) -> Vec<u8> {
        let section_texts: Vec<String> =
            doc.sections.iter().map(|s| format!("{}\n\n{}", s.title, s.text())).collect();
        let objects: Vec<&[u8]> = section_texts.iter().map(|t| t.as_bytes()).collect();
        Self::write_objects(&objects)
    }
}

/// SPDF reader: strict and salvage modes. Both return the decoded
/// payload of each object, in order.
pub struct SpdfReader;

impl SpdfReader {
    /// Strict read: every structural invariant is validated.
    pub fn read(bytes: &[u8]) -> Result<Vec<Vec<u8>>, SpdfError> {
        let (objects, body_end, declared) = Self::read_objects_inner(bytes, true)?;
        // Trailer.
        let trailer = &bytes[body_end..];
        if trailer.len() < 12 || &trailer[..4] != TRAILER_MAGIC {
            return Err(SpdfError::BadTrailer);
        }
        let expected = u64::from_le_bytes(trailer[4..12].try_into().expect("8 bytes"));
        let actual = mcqa_util::fnv1a(&bytes[..body_end]);
        if expected != actual {
            return Err(SpdfError::ChecksumMismatch { expected, actual });
        }
        debug_assert_eq!(objects.len(), declared);
        Ok(objects)
    }

    /// Salvage read: tolerate truncation, trailer and checksum damage, and
    /// per-object stream corruption; return every object that still
    /// decodes, in order (none when the header itself is unreadable). The
    /// trailer is not read: [`SpdfReader::read`] is the one place the
    /// checksum is verified. On a blob the strict read accepts, the walk
    /// meets no defect, so it returns the same objects.
    pub fn salvage(bytes: &[u8]) -> Vec<Vec<u8>> {
        Self::read_objects_inner(bytes, false).map(|(objects, ..)| objects).unwrap_or_default()
    }

    /// Shared object-table walk. In strict mode any defect is fatal; in
    /// salvage mode defects stop the walk but keep prior objects.
    fn read_objects_inner(
        bytes: &[u8],
        strict: bool,
    ) -> Result<(Vec<Vec<u8>>, usize, usize), SpdfError> {
        if bytes.len() < 10 {
            return Err(SpdfError::Truncated { at: "header" });
        }
        if &bytes[..4] != MAGIC {
            return Err(SpdfError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(SpdfError::UnsupportedVersion(version));
        }
        let declared = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes")) as usize;

        let mut objects = Vec::with_capacity(declared.min(64));
        let mut pos = 10usize;
        for obj_idx in 0..declared {
            let fail = |e: SpdfError| -> Result<(Vec<Vec<u8>>, usize, usize), SpdfError> { Err(e) };
            if pos + 10 > bytes.len() {
                if strict {
                    return fail(SpdfError::Truncated { at: "object header" });
                }
                return Ok((objects, pos, declared));
            }
            let type_byte = bytes[pos];
            let flags = bytes[pos + 1];
            let raw_len =
                u32::from_le_bytes(bytes[pos + 2..pos + 6].try_into().expect("4 bytes")) as usize;
            let stored_len =
                u32::from_le_bytes(bytes[pos + 6..pos + 10].try_into().expect("4 bytes")) as usize;
            pos += 10;

            if type_byte != TEXT_OBJECT {
                if strict {
                    return fail(SpdfError::BadObjectType(type_byte));
                }
                return Ok((objects, pos - 10, declared));
            }
            if raw_len > MAX_OBJECT_BYTES {
                if strict {
                    return fail(SpdfError::ObjectTooLarge { raw_len });
                }
                return Ok((objects, pos - 10, declared));
            }
            if pos + stored_len > bytes.len() {
                if strict {
                    return fail(SpdfError::Truncated { at: "object payload" });
                }
                return Ok((objects, pos - 10, declared));
            }
            let stored = &bytes[pos..pos + stored_len];
            pos += stored_len;

            let data = if flags & 1 != 0 {
                match decompress(stored, raw_len.max(1)) {
                    Ok(d) => d,
                    Err(source) => {
                        if strict {
                            return fail(SpdfError::Stream { object: obj_idx, source });
                        }
                        continue; // skip the damaged object, keep walking
                    }
                }
            } else {
                stored.to_vec()
            };
            if data.len() != raw_len {
                if strict {
                    return fail(SpdfError::RawLenMismatch {
                        object: obj_idx,
                        declared: raw_len,
                        actual: data.len(),
                    });
                }
                continue;
            }
            objects.push(data);
        }
        Ok((objects, pos, declared))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{DocId, DocKind};
    use crate::synth::{synthesize, SynthConfig};
    use mcqa_ontology::{Ontology, OntologyConfig};

    fn sample_doc() -> Document {
        let ont = Ontology::generate(&OntologyConfig {
            seed: 7,
            entities_per_kind: 25,
            qualitative_facts: 200,
            quantitative_facts: 10,
        });
        synthesize(&ont, &SynthConfig::default(), DocId(3), DocKind::FullPaper)
    }

    #[test]
    fn document_roundtrip() {
        let doc = sample_doc();
        let bytes = SpdfWriter::write_document(&doc);
        let objects = SpdfReader::read(&bytes).expect("strict read");
        assert_eq!(objects.len(), doc.sections.len());
        // The text objects carry the sections in order.
        let texts: Vec<String> =
            objects.into_iter().map(|o| String::from_utf8(o).unwrap()).collect();
        for (t, s) in texts.iter().zip(&doc.sections) {
            assert!(t.starts_with(&s.title));
            assert!(t.contains(&s.text()));
        }
    }

    #[test]
    fn compression_engages_on_prose() {
        let doc = sample_doc();
        let bytes = SpdfWriter::write_document(&doc);
        let plain_size: usize =
            doc.sections.iter().map(|s| s.title.len() + 2 + s.text().len()).sum();
        assert!(bytes.len() < plain_size, "container should compress prose");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = SpdfWriter::write_document(&sample_doc());
        bytes[0] = b'X';
        assert_eq!(SpdfReader::read(&bytes), Err(SpdfError::BadMagic));
        assert!(SpdfReader::salvage(&bytes).is_empty());
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = SpdfWriter::write_document(&sample_doc());
        bytes[4] = 0xEE;
        assert!(matches!(SpdfReader::read(&bytes), Err(SpdfError::UnsupportedVersion(_))));
    }

    #[test]
    fn checksum_flip_detected_and_salvageable() {
        let mut bytes = SpdfWriter::write_document(&sample_doc());
        let intact = SpdfReader::read(&bytes).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // damage the checksum itself
        assert!(matches!(SpdfReader::read(&bytes), Err(SpdfError::ChecksumMismatch { .. })));
        // Salvage does not read the trailer: every object survives.
        assert_eq!(SpdfReader::salvage(&bytes), intact);
    }

    #[test]
    fn truncation_detected_and_prefix_salvaged() {
        let doc = sample_doc();
        let bytes = SpdfWriter::write_document(&doc);
        let cut = bytes.len() * 2 / 3;
        let truncated = &bytes[..cut];
        assert!(SpdfReader::read(truncated).is_err());
        let s = SpdfReader::salvage(truncated);
        assert!(s.len() < doc.sections.len(), "some objects must be lost");
        // Whatever was recovered is a prefix of the sections, intact.
        let intact = SpdfReader::read(&bytes).unwrap();
        assert_eq!(s[..], intact[..s.len()]);
    }

    #[test]
    fn payload_bitflip_detected() {
        let doc = sample_doc();
        let mut bytes = SpdfWriter::write_document(&doc);
        // Flip a byte in the middle of the object region (past the header).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x55;
        let r = SpdfReader::read(&bytes);
        assert!(r.is_err(), "bitflip must not pass strict validation");
    }

    /// A well-formed one-object SPDF blob whose text object carries
    /// `stream` as its SPZ payload, declaring `raw_len` decoded bytes.
    fn blob_with_stream(stream: &[u8], raw_len: u32) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&[TEXT_OBJECT, 1]);
        out.extend_from_slice(&raw_len.to_le_bytes());
        out.extend_from_slice(&(stream.len() as u32).to_le_bytes());
        out.extend_from_slice(stream);
        let checksum = mcqa_util::fnv1a(&out);
        out.extend_from_slice(TRAILER_MAGIC);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn hostile_match_length_is_an_error_not_a_crash() {
        // A literal "a", then a match of length ≈ u64::MAX: the cap check
        // once overflowed on it (a panic in debug builds, an allocation
        // abort in release ones).
        let stream = [
            0x00, 0x01, b'a', 0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            0x01,
        ];
        let bytes = blob_with_stream(&stream, 100);
        assert_eq!(
            SpdfReader::read(&bytes),
            Err(SpdfError::Stream { object: 0, source: SpzError::TooLong { cap: 100 } })
        );
        assert!(SpdfReader::salvage(&bytes).is_empty());
    }

    #[test]
    fn empty_and_garbage_inputs() {
        assert!(matches!(SpdfReader::read(&[]), Err(SpdfError::Truncated { .. })));
        assert!(matches!(SpdfReader::read(b"%PDF-1.7 garbage"), Err(SpdfError::BadMagic)));
        let garbage: Vec<u8> = (0..200u8).collect();
        assert!(SpdfReader::read(&garbage).is_err());
    }

    #[test]
    fn write_objects_raw_api() {
        let bytes = SpdfWriter::write_objects(&[b"hello", b"world"]);
        let back = SpdfReader::read(&bytes).unwrap();
        assert_eq!(back, [b"hello".to_vec(), b"world".to_vec()]);
    }

    #[test]
    fn a_damaged_object_type_is_refused() {
        let mut bytes = SpdfWriter::write_objects(&[b"hello"]);
        assert_eq!(bytes[10], TEXT_OBJECT);
        bytes[10] = 0;
        let body = bytes.len() - 12;
        let checksum = mcqa_util::fnv1a(&bytes[..body]);
        bytes[body + 4..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(SpdfReader::read(&bytes), Err(SpdfError::BadObjectType(0)));
        assert!(SpdfReader::salvage(&bytes).is_empty());
    }

    #[test]
    fn object_count_zero() {
        let bytes = SpdfWriter::write_objects(&[]);
        let back = SpdfReader::read(&bytes).unwrap();
        assert!(back.is_empty());
    }
}
