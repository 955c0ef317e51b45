//! A compact English stopword list tuned for scientific prose.

/// Alphabetically sorted stopwords (binary-searchable).
pub(crate) const STOPWORDS: &[&str] = &[
    "a", "about", "above", "after", "again", "all", "also", "an", "and", "any", "are", "as", "at",
    "be", "because", "been", "before", "being", "below", "between", "both", "but", "by", "can",
    "could", "did", "do", "does", "doing", "down", "during", "each", "few", "for", "from",
    "further", "had", "has", "have", "having", "he", "her", "here", "hers", "him", "his", "how",
    "i", "if", "in", "into", "is", "it", "its", "itself", "just", "more", "most", "my", "no",
    "nor", "not", "now", "of", "off", "on", "once", "only", "or", "other", "our", "ours", "out",
    "over", "own", "same", "she", "should", "so", "some", "such", "than", "that", "the", "their",
    "theirs", "them", "then", "there", "these", "they", "this", "those", "through", "to", "too",
    "under", "until", "up", "very", "was", "we", "were", "what", "when", "where", "which", "while",
    "who", "whom", "why", "will", "with", "would", "you", "your", "yours",
];

/// No stopword is longer than this many bytes.
const MAX_LEN: usize = 7;

/// A word of at most [`MAX_LEN`] bytes as one integer — its bytes, most
/// significant first and zero-padded, then its length — so that integer
/// order is the words' lexicographic order and a lookup compares seven
/// integers instead of seven strings.
const fn pack(word: &[u8]) -> u64 {
    let mut packed = 0u64;
    let mut i = 0;
    while i < MAX_LEN {
        packed = packed << 8 | if i < word.len() { word[i] as u64 } else { 0 };
        i += 1;
    }
    packed << 8 | word.len() as u64
}

/// [`STOPWORDS`], packed (and therefore still sorted).
const PACKED: [u64; STOPWORDS.len()] = {
    let mut table = [0u64; STOPWORDS.len()];
    let mut i = 0;
    while i < STOPWORDS.len() {
        assert!(STOPWORDS[i].len() <= MAX_LEN);
        table[i] = pack(STOPWORDS[i].as_bytes());
        i += 1;
    }
    table
};

/// True when `word` (already lowercase) is a stopword.
pub fn is_stopword(word: &str) -> bool {
    word.len() <= MAX_LEN && PACKED.binary_search(&pack(word.as_bytes())).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_and_unique() {
        for w in STOPWORDS.windows(2) {
            assert!(w[0] < w[1], "{:?} >= {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn packed_lookup_agrees_with_the_string_table() {
        assert!(PACKED.windows(2).all(|w| w[0] < w[1]), "packing must keep the order");
        let probes = ["", "a", "a\0", "ab", "th", "thee", "these", "through", "throughs", "Über"];
        for w in STOPWORDS.iter().chain(&probes) {
            assert_eq!(is_stopword(w), STOPWORDS.binary_search(w).is_ok(), "{w:?}");
        }
    }

    #[test]
    fn membership() {
        assert!(is_stopword("the"));
        assert!(is_stopword("during"));
        assert!(!is_stopword("radiation"));
        assert!(!is_stopword("apoptosis"));
        assert!(!is_stopword(""));
    }
}
