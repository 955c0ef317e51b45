//! Chunk records with document and fact provenance.

use mcqa_corpus::DocId;
use mcqa_ontology::FactId;

/// One semantic chunk, with provenance back to its document and the facts
/// its text states (resolved through the corpus mention oracle).
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkRecord {
    /// Corpus-wide chunk id (stable: `doc_id << 16 | per-doc index`).
    pub chunk_id: u64,
    /// Source document.
    pub doc: DocId,
    /// Chunk text.
    pub text: String,
    /// Token count.
    pub tokens: usize,
    /// Facts stated verbatim inside this chunk (provenance oracle).
    pub facts: Vec<FactId>,
}

impl ChunkRecord {
    /// Compose the corpus-wide id.
    pub(crate) fn make_id(doc: DocId, index_in_doc: u32) -> u64 {
        ((doc.0 as u64) << 16) | (index_in_doc as u64 & 0xFFFF)
    }

    /// The synthetic "file path" recorded in question provenance
    /// (mirrors the paper's `file path` field in Figure 2).
    pub(crate) fn file_path(&self) -> String {
        format!("corpus/doc_{:06}.spdf", self.doc.0)
    }
}

/// Which of a document's mention sentences a chunk states verbatim: the
/// provenance oracle's `text.contains(pattern)` for every pattern, in one
/// pass over the text.
///
/// A pattern of at least 8 bytes is keyed by its first 8 bytes, and the key
/// sets one bit of a 256-bit filter. The scan loads the 8 bytes at each
/// offset, skips it unless its filter bit is set, and confirms an equal key
/// with `starts_with`. Shorter patterns, the empty one included, keep
/// `str::contains`. Byte-level matching is exact: a byte match of valid
/// UTF-8 inside valid UTF-8 always lies on char boundaries.
pub(crate) struct MentionMatcher<'p> {
    patterns: Vec<&'p str>,
    /// `(key, pattern index)` of every pattern of ≥ 8 bytes, sorted.
    keyed: Vec<(u64, usize)>,
    /// The indices of the patterns under 8 bytes.
    short: Vec<usize>,
    filter: [u64; 4],
}

impl<'p> MentionMatcher<'p> {
    /// A matcher over `patterns`, which [`Self::matches`] reports by index.
    pub(crate) fn new(patterns: impl IntoIterator<Item = &'p str>) -> Self {
        let patterns: Vec<&str> = patterns.into_iter().collect();
        let (mut keyed, mut short) = (Vec::new(), Vec::new());
        let mut filter = [0u64; 4];
        for (i, p) in patterns.iter().enumerate() {
            match key(p.as_bytes()) {
                Some(k) => {
                    let bit = filter_bit(k);
                    filter[bit >> 6] |= 1 << (bit & 63);
                    keyed.push((k, i));
                }
                None => short.push(i),
            }
        }
        keyed.sort_unstable();
        Self { patterns, keyed, short, filter }
    }

    /// The indices of the patterns that occur in `text`, ascending.
    pub(crate) fn matches(&self, text: &str) -> Vec<usize> {
        let mut found = vec![false; self.patterns.len()];
        for &i in &self.short {
            found[i] = text.contains(self.patterns[i]);
        }
        if !self.keyed.is_empty() {
            let bytes = text.as_bytes();
            for (at, window) in bytes.windows(8).enumerate() {
                let k = key(window).expect("an 8-byte window");
                let bit = filter_bit(k);
                if self.filter[bit >> 6] & (1 << (bit & 63)) == 0 {
                    continue;
                }
                let first = self.keyed.partition_point(|&(pk, _)| pk < k);
                for &(_, i) in self.keyed[first..].iter().take_while(|&&(pk, _)| pk == k) {
                    if !found[i] && bytes[at..].starts_with(self.patterns[i].as_bytes()) {
                        found[i] = true;
                    }
                }
            }
        }
        (0..found.len()).filter(|&i| found[i]).collect()
    }
}

/// The first 8 bytes of `bytes` as a little-endian `u64`, if it has 8.
#[inline]
fn key(bytes: &[u8]) -> Option<u64> {
    bytes.first_chunk::<8>().map(|b| u64::from_le_bytes(*b))
}

/// A key's bit in the 256-bit filter (multiplicative hash, top 8 bits).
#[inline]
fn filter_bit(key: u64) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn id_packs_doc_above_index() {
        for (d, i) in [(0u32, 0u32), (5, 3), (70_000, 65_535), (u32::MAX / 2, 12)] {
            let id = ChunkRecord::make_id(DocId(d), i);
            assert_eq!((id >> 16, id & 0xFFFF), (u64::from(d), u64::from(i)));
        }
    }

    #[test]
    fn ids_unique_across_docs() {
        let a = ChunkRecord::make_id(DocId(1), 0);
        let b = ChunkRecord::make_id(DocId(0), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn file_path_format() {
        let c = ChunkRecord {
            chunk_id: ChunkRecord::make_id(DocId(42), 1),
            doc: DocId(42),
            text: "t".into(),
            tokens: 1,
            facts: vec![],
        };
        assert_eq!(c.file_path(), "corpus/doc_000042.spdf");
    }

    /// The oracle the matcher replaced: one `contains` per pattern.
    fn oracle(patterns: &[String], text: &str) -> Vec<usize> {
        (0..patterns.len()).filter(|&i| text.contains(patterns[i].as_str())).collect()
    }

    proptest! {
        #[test]
        fn matcher_agrees_with_per_pattern_contains(
            text in "[ab樹é. ]{0,80}",
            picks in proptest::collection::vec(any::<u64>(), 0..24),
            noise in "[ab樹é. ]{0,12}",
        ) {
            // Char boundaries of `text`, so any two cut a valid substring.
            let cuts: Vec<usize> =
                text.char_indices().map(|(at, _)| at).chain([text.len()]).collect();
            let patterns: Vec<String> = picks
                .iter()
                .map(|&x| {
                    let (a, b) = (x as usize % cuts.len(), (x >> 20) as usize % cuts.len());
                    match x % 6 {
                        // A substring of the text: short, long, empty, or
                        // the whole text when the cuts are its ends.
                        0 | 1 => text[cuts[a.min(b)]..cuts[a.max(b)]].to_string(),
                        2 => text.clone(),
                        3 => String::new(),
                        // Many patterns on one 8-byte key (and filter bit)
                        // that differ after it; some occur in `noise`'s
                        // extension of the text below.
                        4 => {
                            let tail: String = noise.chars().take(x as usize % 4).collect();
                            format!("aaaaaaaa{tail}")
                        }
                        _ => noise.clone(),
                    }
                })
                .collect();
            // Duplicates, and overlapping occurrences of a shared prefix.
            let patterns = [patterns.clone(), patterns].concat();
            let text = format!("{text}aaaaaaaaaa{noise}aaaaaaaaa");
            let matcher = MentionMatcher::new(patterns.iter().map(String::as_str));
            prop_assert_eq!(matcher.matches(&text), oracle(&patterns, &text));
        }
    }

    #[test]
    fn matcher_on_edge_texts() {
        let patterns: Vec<String> =
            ["", "a", "abcdefgh", "abcdefghi", "bcdefghi", "樹樹樹", "樹樹樹a"]
                .map(String::from)
                .into();
        let matcher = MentionMatcher::new(patterns.iter().map(String::as_str));
        for text in
            ["", "a", "abcdefg", "abcdefgh", "xabcdefghi", "樹樹樹", "樹樹樹a", "abcdefghbcdefghi"]
        {
            assert_eq!(matcher.matches(text), oracle(&patterns, text), "{text:?}");
        }
        assert_eq!(MentionMatcher::new([]).matches("anything"), Vec::<usize>::new());
    }
}
