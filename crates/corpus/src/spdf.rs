//! SPDF — the *Synthetic Portable Document Format* binary container.
//!
//! A deliberately PDF-shaped format so the parsing substrate does real
//! structured binary work: magic + versioned header, a typed object table
//! (JSON metadata, SPZ-compressed text streams), and a checksummed trailer.
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
//! `flags & 1` marks an SPZ-compressed payload (`raw_len` = decompressed
//! size). The strict reader validates everything; [`SpdfReader::salvage`]
//! recovers what it can from damaged files, which is what gives the
//! AdaParse-style engine in `mcqa-core`'s `parse` module a genuine
//! fallback path.

use mcqa_ontology::Topic;
use serde::{Deserialize, Serialize};

use crate::compress::{compress, decompress, SpzError};
use crate::doc::{DocId, DocKind, Document};

/// Container magic.
pub const MAGIC: &[u8; 4] = b"SPDF";
/// Trailer magic.
pub const TRAILER_MAGIC: &[u8; 4] = b"TRLR";
/// Current format version.
pub const VERSION: u16 = 1;
/// Decompression cap per object (guards corrupt streams).
const MAX_OBJECT_BYTES: usize = 16 << 20;

/// The type of an SPDF object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// JSON document metadata.
    Meta,
    /// A text stream (one per section).
    Text,
}

impl ObjectKind {
    fn to_byte(self) -> u8 {
        match self {
            ObjectKind::Meta => 0,
            ObjectKind::Text => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(ObjectKind::Meta),
            1 => Some(ObjectKind::Text),
            _ => None,
        }
    }
}

/// A decoded SPDF object.
#[derive(Debug, Clone, PartialEq)]
pub struct SpdfObject {
    /// Object type.
    pub kind: ObjectKind,
    /// Decompressed payload.
    pub data: Vec<u8>,
}

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
    /// Metadata JSON failed to parse.
    BadMetadata(String),
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
            SpdfError::BadMetadata(e) => write!(f, "bad metadata JSON: {e}"),
        }
    }
}

impl std::error::Error for SpdfError {}

/// Serialisable document metadata stored in the Meta object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DocMeta {
    /// Document id.
    pub id: u32,
    /// `"paper"` or `"abstract"`.
    pub(crate) kind: String,
    /// Title.
    pub(crate) title: String,
    /// Author surnames.
    pub(crate) authors: Vec<String>,
    /// Publication year.
    pub(crate) year: u16,
    /// Venue.
    pub(crate) venue: String,
    /// Primary topic.
    pub(crate) topic: Topic,
    /// Search keywords.
    pub(crate) keywords: Vec<String>,
}

impl DocMeta {
    /// Build from a logical document.
    pub(crate) fn from_document(doc: &Document) -> Self {
        Self {
            id: doc.id.0,
            kind: match doc.kind {
                DocKind::FullPaper => "paper".to_string(),
                DocKind::Abstract => "abstract".to_string(),
            },
            title: doc.title.clone(),
            authors: doc.authors.clone(),
            year: doc.year,
            venue: doc.venue.clone(),
            topic: doc.topic,
            keywords: doc.keywords.clone(),
        }
    }

    /// The document id.
    pub fn doc_id(&self) -> DocId {
        DocId(self.id)
    }
}

/// SPDF writer.
pub struct SpdfWriter;

impl SpdfWriter {
    /// Encode raw objects into an SPDF byte blob.
    pub fn write_objects(objects: &[(ObjectKind, &[u8])]) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(objects.len() as u32).to_le_bytes());
        for (kind, data) in objects {
            let compressed = compress(data);
            // Only keep compression when it wins.
            let (flags, stored): (u8, &[u8]) =
                if compressed.len() < data.len() { (1, &compressed) } else { (0, data) };
            out.push(kind.to_byte());
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

    /// Render a logical document into SPDF: one Meta object followed by one
    /// Text object per section (`"<title>\n\n<section text>"`).
    pub fn write_document(doc: &Document) -> Vec<u8> {
        let meta = DocMeta::from_document(doc);
        let meta_json = serde_json::to_vec(&meta).expect("metadata serialises");
        let section_texts: Vec<String> =
            doc.sections.iter().map(|s| format!("{}\n\n{}", s.title, s.text())).collect();
        let mut objects: Vec<(ObjectKind, &[u8])> = Vec::with_capacity(1 + section_texts.len());
        objects.push((ObjectKind::Meta, meta_json.as_slice()));
        for t in &section_texts {
            objects.push((ObjectKind::Text, t.as_bytes()));
        }
        Self::write_objects(&objects)
    }
}

/// Outcome of a salvage read.
#[derive(Debug, Clone, PartialEq)]
pub struct SalvageResult {
    /// Objects recovered (possibly fewer than declared).
    pub objects: Vec<SpdfObject>,
    /// Human-readable descriptions of the problems encountered.
    pub issues: Vec<String>,
}

/// SPDF reader: strict and salvage modes.
pub struct SpdfReader;

impl SpdfReader {
    /// Strict read: every structural invariant is validated.
    pub fn read(bytes: &[u8]) -> Result<Vec<SpdfObject>, SpdfError> {
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

    /// Salvage read: tolerate truncation, checksum damage, and per-object
    /// stream corruption; recover every object that still decodes.
    pub fn salvage(bytes: &[u8]) -> SalvageResult {
        let mut issues = Vec::new();
        match Self::read_objects_inner(bytes, false) {
            Ok((objects, body_end, declared)) => {
                if objects.len() < declared {
                    issues.push(format!(
                        "recovered {}/{} declared objects",
                        objects.len(),
                        declared
                    ));
                }
                let trailer = &bytes[body_end.min(bytes.len())..];
                if trailer.len() < 12 || &trailer[..4] != TRAILER_MAGIC {
                    issues.push("trailer missing or truncated".to_string());
                } else {
                    let expected = u64::from_le_bytes(trailer[4..12].try_into().expect("8 bytes"));
                    let actual = mcqa_util::fnv1a(&bytes[..body_end]);
                    if expected != actual {
                        issues.push("checksum mismatch (content may be damaged)".to_string());
                    }
                }
                SalvageResult { objects, issues }
            }
            Err(e) => SalvageResult { objects: Vec::new(), issues: vec![e.to_string()] },
        }
    }

    /// Shared object-table walk. In strict mode any defect is fatal; in
    /// salvage mode defects stop the walk but keep prior objects.
    #[allow(clippy::type_complexity)]
    fn read_objects_inner(
        bytes: &[u8],
        strict: bool,
    ) -> Result<(Vec<SpdfObject>, usize, usize), SpdfError> {
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
            let fail =
                |e: SpdfError| -> Result<(Vec<SpdfObject>, usize, usize), SpdfError> { Err(e) };
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

            let Some(kind) = ObjectKind::from_byte(type_byte) else {
                if strict {
                    return fail(SpdfError::BadObjectType(type_byte));
                }
                return Ok((objects, pos - 10, declared));
            };
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
            objects.push(SpdfObject { kind, data });
        }
        Ok((objects, pos, declared))
    }

    /// Decode the Meta object of a strict-read object list.
    pub fn metadata(objects: &[SpdfObject]) -> Result<DocMeta, SpdfError> {
        let meta = objects
            .iter()
            .find(|o| o.kind == ObjectKind::Meta)
            .ok_or(SpdfError::BadMetadata("no Meta object".to_string()))?;
        serde_json::from_slice(&meta.data).map_err(|e| SpdfError::BadMetadata(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(objects.len(), 1 + doc.sections.len());
        let meta = SpdfReader::metadata(&objects).unwrap();
        assert_eq!(meta.doc_id(), doc.id);
        assert_eq!(meta.kind, "paper");
        assert_eq!(meta.title, doc.title);
        // Text objects carry the sections in order.
        let texts: Vec<String> = objects
            .iter()
            .filter(|o| o.kind == ObjectKind::Text)
            .map(|o| String::from_utf8(o.data.clone()).unwrap())
            .collect();
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
            doc.sections.iter().map(|s| s.text().len()).sum::<usize>() + doc.title.len();
        assert!(bytes.len() < plain_size + 4096, "container should compress prose");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = SpdfWriter::write_document(&sample_doc());
        bytes[0] = b'X';
        assert_eq!(SpdfReader::read(&bytes), Err(SpdfError::BadMagic));
        let s = SpdfReader::salvage(&bytes);
        assert!(s.objects.is_empty());
        assert!(!s.issues.is_empty());
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
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // damage the checksum itself
        assert!(matches!(SpdfReader::read(&bytes), Err(SpdfError::ChecksumMismatch { .. })));
        let s = SpdfReader::salvage(&bytes);
        assert!(!s.objects.is_empty(), "salvage keeps objects");
        assert!(s.issues.iter().any(|i| i.contains("checksum")));
    }

    #[test]
    fn truncation_detected_and_prefix_salvaged() {
        let doc = sample_doc();
        let bytes = SpdfWriter::write_document(&doc);
        let cut = bytes.len() * 2 / 3;
        let truncated = &bytes[..cut];
        assert!(SpdfReader::read(truncated).is_err());
        let s = SpdfReader::salvage(truncated);
        assert!(s.objects.len() < 1 + doc.sections.len(), "some objects must be lost");
        assert!(!s.issues.is_empty());
        // Whatever was recovered must be internally valid.
        if let Some(first) = s.objects.first() {
            assert_eq!(first.kind, ObjectKind::Meta);
            assert!(SpdfReader::metadata(&s.objects).is_ok());
        }
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

    /// A well-formed one-object SPDF blob whose Text object carries
    /// `stream` as its SPZ payload, declaring `raw_len` decoded bytes.
    fn blob_with_stream(stream: &[u8], raw_len: u32) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&[ObjectKind::Text.to_byte(), 1]);
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
        let s = SpdfReader::salvage(&bytes);
        assert!(s.objects.is_empty());
        assert_eq!(s.issues, vec!["recovered 0/1 declared objects".to_string()]);
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
        let objs: Vec<(ObjectKind, &[u8])> =
            vec![(ObjectKind::Meta, b"{}".as_slice()), (ObjectKind::Text, b"hello".as_slice())];
        let bytes = SpdfWriter::write_objects(&objs);
        let back = SpdfReader::read(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].data, b"{}");
        assert_eq!(back[1].data, b"hello");
    }

    #[test]
    fn object_count_zero() {
        let bytes = SpdfWriter::write_objects(&[]);
        let back = SpdfReader::read(&bytes).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn metadata_roundtrips_every_topic() {
        let mut doc = sample_doc();
        for t in Topic::ALL {
            doc.topic = t;
            let objects = SpdfReader::read(&SpdfWriter::write_document(&doc)).unwrap();
            assert_eq!(SpdfReader::metadata(&objects).unwrap().topic, t);
        }
    }

    /// A Meta object whose `title` and `keywords` are spliced in as raw JSON.
    fn meta_objects(title: &str, keywords: &str) -> Vec<SpdfObject> {
        let json = format!(
            r#"{{"id":3,"kind":"paper","title":{title},"authors":["Ada"],"year":2020,"venue":"V","topic":"DnaRepair","keywords":{keywords}}}"#
        );
        SpdfReader::read(&SpdfWriter::write_objects(&[(ObjectKind::Meta, json.as_bytes())]))
            .expect("a well-formed container")
    }

    #[test]
    fn hostile_metadata_is_rejected_not_fatal() {
        let ok = SpdfReader::metadata(&meta_objects(r#""café 😀""#, "[]")).unwrap();
        assert_eq!(ok.title, "café 😀");
        let deep = "[".repeat(200_000);
        for (title, keywords) in
            [(r#""\ud800\u0041""#, "[]"), (r#""\ud800\uffff""#, "[]"), (r#""t""#, deep.as_str())]
        {
            let r = SpdfReader::metadata(&meta_objects(title, keywords));
            assert!(matches!(r, Err(SpdfError::BadMetadata(_))), "{title}: {r:?}");
        }
    }
}
