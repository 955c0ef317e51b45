//! Deterministic word tokenisation.
//!
//! One tokeniser is used everywhere — chunk budgets, context-window
//! truncation, embedding features — so token counts are comparable across
//! the whole pipeline (the paper's stages share PubMedBERT's tokeniser in
//! the same way).
//!
//! Tokenisation rules:
//! * split on any char that is not alphanumeric or `-`,
//! * drop pure `-` strings,
//! * lowercase everything.
//!
//! The rules live in exactly one place: the `TokenRuns` scanner finds the
//! runs, [`for_each_token`] lowercases them, and every other entry point
//! ([`tokenize`], [`content_tokens`], [`token_count`], [`truncate_tokens`])
//! is a thin user of those two.

use std::ops::Range;

/// One maximal run of token characters (alphanumerics and `-`) in a text.
struct Run {
    /// Byte range of the run in the scanned text.
    span: Range<usize>,
    /// False for a pure-dash run, which is not a token.
    has_alnum: bool,
    /// True when lowercasing is the identity (ASCII, no uppercase), so the
    /// token is the source slice itself.
    verbatim: bool,
}

/// Char class bit: part of a run.
const IN_RUN: u8 = 1;
/// Char class bit: alphanumeric (every run char but `-`).
const ALNUM: u8 = 2;
/// Char class bit: lowercasing may change it.
const FOLDS: u8 = 4;

/// Class bits of every ASCII byte.
const ASCII_CLASS: [u8; 128] = {
    let mut table = [0u8; 128];
    let mut b = 0u8;
    while b < 128 {
        table[b as usize] = if b.is_ascii_uppercase() {
            IN_RUN | ALNUM | FOLDS
        } else if b.is_ascii_alphanumeric() {
            IN_RUN | ALNUM
        } else if b == b'-' {
            IN_RUN
        } else {
            0
        };
        b += 1;
    }
    table
};

/// The tokeniser's state machine: an iterator over the [`Run`]s of a text.
struct TokenRuns<'a> {
    text: &'a str,
    pos: usize,
}

impl TokenRuns<'_> {
    /// Class bits and byte width of the char starting at byte `at`. ASCII
    /// is a table lookup; anything else is decoded and asked.
    #[inline]
    fn classify(&self, at: usize) -> (u8, usize) {
        let b = self.text.as_bytes()[at];
        if b.is_ascii() {
            return (ASCII_CLASS[b as usize], 1);
        }
        let c = self.text[at..].chars().next().expect("`at` is a char boundary");
        (if c.is_alphanumeric() { IN_RUN | ALNUM | FOLDS } else { 0 }, c.len_utf8())
    }
}

impl Iterator for TokenRuns<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        let len = self.text.len();
        let mut i = self.pos;
        while i < len {
            let (class, width) = self.classify(i);
            if class & IN_RUN != 0 {
                break;
            }
            i += width;
        }
        let start = i;
        let mut seen = 0u8;
        while i < len {
            let (class, width) = self.classify(i);
            if class & IN_RUN == 0 {
                break;
            }
            seen |= class;
            i += width;
        }
        self.pos = i;
        (i > start).then_some(Run {
            span: start..i,
            has_alnum: seen & ALNUM != 0,
            verbatim: seen & FOLDS == 0,
        })
    }
}

fn runs(text: &str) -> TokenRuns<'_> {
    TokenRuns { text, pos: 0 }
}

/// Visit every token of `text` in order: lowercase alphanumeric words,
/// keeping internal hyphens (`"non-homologous"`, `"eqd2"`; `"t1/2"` splits
/// at the slash).
///
/// The `&str` handed to `visit` is only valid for that call: a token that
/// is already lowercase ASCII is a slice of `text`, anything else is
/// lowercased into one scratch buffer reused across tokens — so a pass
/// over a text allocates at most once, not once per token.
pub fn for_each_token(text: &str, mut visit: impl FnMut(&str)) {
    let mut scratch = String::new();
    for run in runs(text).filter(|r| r.has_alnum) {
        let raw = &text[run.span];
        if run.verbatim {
            visit(raw);
            continue;
        }
        // Per-char mapping (not `str::to_lowercase`, whose final-sigma rule
        // depends on the neighbouring chars).
        scratch.clear();
        scratch.extend(raw.chars().flat_map(char::to_lowercase));
        visit(&scratch);
    }
}

/// Visit the content tokens of `text`: [`for_each_token`] minus stopwords.
///
/// This is the **one** corpus-side *and* query-side tokenisation every
/// retrieval channel uses — the vocabulary, the hash embeddings, the BM25
/// lexical index, and the simulated reranker all come through here, so a
/// query can never tokenise differently from the corpus it searches.
pub fn for_each_content_token(text: &str, mut visit: impl FnMut(&str)) {
    for_each_token(text, |tok| {
        if !crate::stopwords::is_stopword(tok) {
            visit(tok);
        }
    });
}

/// The tokens of `text` as owned strings (see [`for_each_token`]).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, |tok| out.push(tok.to_string()));
    out
}

/// The content tokens of `text` as owned strings (see
/// [`for_each_content_token`]).
pub fn content_tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_content_token(text, |tok| out.push(tok.to_string()));
    out
}

/// Number of tokens in `text` without materialising them.
pub fn token_count(text: &str) -> usize {
    runs(text).filter(|r| r.has_alnum).count()
}

/// Truncate `text` to at most `max_tokens` tokens, preserving the original
/// surface form (whitespace/punctuation) of the kept prefix.
///
/// Used for context-window truncation in the simulated models: a 2k-window
/// model sees only the first 2k tokens of its prompt, exactly like a real
/// model whose tokenizer hits its limit.
pub fn truncate_tokens(text: &str, max_tokens: usize) -> &str {
    if max_tokens == 0 {
        return "";
    }
    let mut count = 0usize;
    for run in runs(text) {
        // Cut before whatever starts once the budget is filled — a stray
        // dash run included.
        if count == max_tokens {
            return &text[..run.span.start];
        }
        count += usize::from(run.has_alnum);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokenisation() {
        assert_eq!(
            tokenize("The HX-29 cell line was irradiated."),
            vec!["the", "hx-29", "cell", "line", "was", "irradiated"]
        );
    }

    #[test]
    fn punctuation_and_case() {
        assert_eq!(tokenize("EQD2 = BED/(1+2/3)!"), vec!["eqd2", "bed", "1", "2", "3"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("—–…"), Vec::<String>::new());
    }

    #[test]
    fn hyphens_kept_inside_words() {
        assert_eq!(tokenize("non-homologous end-joining"), vec!["non-homologous", "end-joining"]);
        // Pure dashes are dropped.
        assert_eq!(tokenize("a - b"), vec!["a", "b"]);
    }

    #[test]
    fn content_tokens_drop_stopwords_only() {
        assert_eq!(
            content_tokens("The HX-29 cell line was irradiated."),
            vec!["hx-29", "cell", "line", "irradiated"]
        );
        assert_eq!(content_tokens("the of and"), Vec::<String>::new());
        assert_eq!(content_tokens(""), Vec::<String>::new());
    }

    #[test]
    fn corpus_and_query_tokenization_agree() {
        // The contract the lexical index relies on: filtering `tokenize`
        // by the stopword list is exactly `content_tokens`, for any text —
        // so a query-side caller and a corpus-side caller can never
        // diverge.
        let samples = [
            "Radiation induces apoptosis in tumour cells.",
            "EQD2 = BED/(1+2/3)!",
            "non-homologous end-joining — the of and",
            "α-kinase führt 5µm Überleben",
            "",
        ];
        for s in samples {
            let filtered: Vec<String> =
                tokenize(s).into_iter().filter(|t| !crate::stopwords::is_stopword(t)).collect();
            assert_eq!(content_tokens(s), filtered, "{s:?}");
        }
    }

    #[test]
    fn count_matches_tokenize() {
        let samples = [
            "",
            "one",
            "The p53-mediator axis, under hypoxic conditions, activates apoptosis.",
            "x - - y--z 42 Gy (3.5%)",
            "trailing word",
        ];
        for s in samples {
            assert_eq!(token_count(s), tokenize(s).len(), "{s:?}");
        }
    }

    #[test]
    fn truncate_basics() {
        let s = "alpha beta gamma delta";
        assert_eq!(truncate_tokens(s, 0), "");
        assert_eq!(truncate_tokens(s, 2).trim_end(), "alpha beta");
        assert_eq!(truncate_tokens(s, 4), s);
        assert_eq!(truncate_tokens(s, 100), s);
    }

    #[test]
    fn truncate_respects_token_count() {
        let s = "Clustered lesions, induced by carbon ions, resist repair (p < 0.05).";
        for k in 0..=token_count(s) {
            let t = truncate_tokens(s, k);
            assert!(token_count(t) <= k, "k={k} got {:?}", t);
            if k > 0 {
                assert_eq!(token_count(t), k);
            }
        }
    }

    #[test]
    fn truncate_preserves_prefix_surface() {
        let s = "A, B; C";
        let t = truncate_tokens(s, 2);
        assert!(s.starts_with(t));
        assert_eq!(tokenize(t), vec!["a", "b"]);
    }

    #[test]
    fn unicode_safety() {
        // Multi-byte chars must not split mid-boundary.
        let s = "α-kinase führt 5µm Überleben";
        let t = truncate_tokens(s, 2);
        assert!(s.starts_with(t));
        assert!(token_count(t) <= 2);
        let toks = tokenize("Überleben");
        assert_eq!(toks, vec!["überleben"]);
    }
}
