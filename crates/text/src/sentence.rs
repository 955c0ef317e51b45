//! Abbreviation-aware sentence segmentation.
//!
//! Scientific prose is full of `"e.g."`, `"et al."`, `"Fig. 3"`, and decimal
//! numbers; naïvely splitting on `.` shreds it. The segmenter below splits
//! on `.`, `!`, `?` followed by whitespace and an uppercase/numeric start,
//! unless the period terminates a known abbreviation or an initial.

/// Abbreviations that never end a sentence.
const ABBREVIATIONS: &[&str] = &[
    "e.g", "i.e", "et al", "cf", "vs", "fig", "figs", "eq", "ref", "refs", "approx", "resp", "ca",
    "no", "nos", "vol", "dr", "prof", "inc", "etc",
];

/// `word` lowercased char by char, without allocating.
fn lower_chars(word: &str) -> impl DoubleEndedIterator<Item = char> + '_ {
    word.chars().flat_map(char::to_lowercase)
}

/// True when `word` lowercases to a single one-byte letter.
fn is_initial(word: &str) -> bool {
    let mut chars = lower_chars(word);
    matches!((chars.next(), chars.next()), (Some(c), None) if c.is_ascii_alphabetic())
}

/// True when `word`, ignoring case, is `abbrev` or ends in `.abbrev`
/// (`"Fig"`, `"Suppl.Fig"`).
fn ends_with_abbreviation(word: &str, abbrev: &str) -> bool {
    let mut tail = lower_chars(word).rev();
    abbrev.chars().rev().all(|c| tail.next() == Some(c)) && matches!(tail.next(), None | Some('.'))
}

/// Split `text` into sentences. Whitespace is trimmed from each sentence;
/// empty sentences are dropped.
pub fn split_sentences(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '.' || c == '!' || c == '?' {
            // Look ahead: sentence boundary requires whitespace then an
            // uppercase letter, digit, or end of text.
            let mut j = i + 1;
            // Consume closing quotes/brackets directly after the mark.
            while j < bytes.len() && matches!(bytes[j] as char, ')' | ']' | '"' | '\'') {
                j += 1;
            }
            let ws_start = j;
            while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                j += 1;
            }
            let has_ws = j > ws_start;
            let next_ok = j >= bytes.len()
                || (has_ws && {
                    // Safe: j is on a char boundary because whitespace and
                    // ASCII consumed above are single-byte; for multi-byte
                    // chars we fall back to a char lookup.
                    match text[j..].chars().next() {
                        Some(nc) => nc.is_uppercase() || nc.is_numeric(),
                        None => true,
                    }
                });

            let is_abbrev = c == '.' && {
                let before = &text[start..i];
                let last_word = before
                    .rsplit(|ch: char| ch.is_whitespace() || ch == '(' || ch == ',')
                    .next()
                    .unwrap_or("");
                let word = last_word.trim_end_matches('.');
                // Single letters are initials ("J. Smith"); known
                // abbreviations and decimal contexts also block splits.
                is_initial(word)
                    || ABBREVIATIONS.iter().any(|a| ends_with_abbreviation(word, a))
                    || (i + 1 < bytes.len() && (bytes[i + 1] as char).is_numeric())
            };

            if next_ok && !is_abbrev {
                let s = text[start..ws_start].trim();
                if !s.is_empty() {
                    out.push(s);
                }
                start = j;
                i = j;
                continue;
            }
        }
        i += 1;
    }
    let tail = text[start..].trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Text fragments around every rule of the splitter: marks with and
    /// without closing quotes and brackets, abbreviations, initials,
    /// decimals, Unicode letters and whitespace, and whitespace runs.
    #[rustfmt::skip]
    const PIECES: &[&str] = &[
        "Radiation", " dose", "HX-29", "α-kinase", " İstanbul", " Überleben", "樹", "t1/2", " x",
        "-", "--", "(", ",", "A", "9", " ", "  \n\t ", "\u{85}", "\u{a0}", "\u{2003}", "\u{1}",
        ".", "!", "?", ".)", ".]", ".\"", "?'", "!)\"", " e.g.", "e.g", " et al.", " Fig.",
        " Suppl.Fig.", " etc.", " J.", " 2.5", "0.37", ". ", "! ", "? ",
    ];

    proptest! {
        #[test]
        fn sentences_partition_the_tokens(
            picks in proptest::collection::vec(0usize..PIECES.len(), 0..48),
            noise in "[aZ9.!?)\"' \n\té樹İ-]{0,60}",
        ) {
            // `quality::score` divides the text's token count by the
            // sentence count: no token may straddle a split.
            let (head, tail) = picks.split_at(picks.len() / 2);
            let text: String = head
                .iter()
                .map(|&i| PIECES[i])
                .chain([noise.as_str()])
                .chain(tail.iter().map(|&i| PIECES[i]))
                .collect();
            let summed: usize =
                split_sentences(&text).iter().map(|s| crate::token_count(s)).sum();
            prop_assert_eq!(summed, crate::token_count(&text), "{:?}", text);
        }
    }

    #[test]
    fn simple_split() {
        let s = "First sentence. Second one! Third? Done.";
        let parts = split_sentences(s);
        assert_eq!(parts, vec!["First sentence.", "Second one!", "Third?", "Done."]);
    }

    #[test]
    fn abbreviations_do_not_split() {
        let s = "Repair is slow, e.g. in hypoxia. See Fig. 3 for details.";
        let parts = split_sentences(s);
        assert_eq!(parts.len(), 2, "{parts:?}");
        assert!(parts[0].ends_with("hypoxia."));
        assert!(parts[1].starts_with("See Fig. 3"));
    }

    #[test]
    fn abbreviation_checks_match_the_lowercased_formulation() {
        // The allocation-free checks against what they replaced:
        // `to_lowercase()` the word, then compare / `ends_with(".{a}")`.
        let words = [
            "",
            "J",
            "j",
            "\u{212A}",
            "İ",
            "ß",
            "9",
            "Fig",
            "FIG",
            "figs",
            "xfig",
            "Suppl.Fig",
            "suppl.figs",
            "e.g",
            "E.G",
            "i.e",
            "al",
            "et al",
            ".vs",
            "Σ",
            "approx",
            "Dr",
            "no.no",
        ];
        for w in words {
            let lw = w.to_lowercase();
            assert_eq!(
                is_initial(w),
                lw.len() == 1 && lw.chars().all(|c| c.is_alphabetic()),
                "initial {w:?}"
            );
            for a in ABBREVIATIONS {
                assert_eq!(
                    ends_with_abbreviation(w, a),
                    lw == *a || lw.ends_with(&format!(".{a}")),
                    "{w:?} vs {a:?}"
                );
            }
        }
    }

    #[test]
    fn decimals_do_not_split() {
        let s = "The dose was 2.5 Gy per fraction. Survival fell to 0.37 overall.";
        let parts = split_sentences(s);
        assert_eq!(parts.len(), 2, "{parts:?}");
    }

    #[test]
    fn initials_do_not_split() {
        let s = "As shown by J. Smith. The effect persisted.";
        let parts = split_sentences(s);
        assert_eq!(parts.len(), 2, "{parts:?}");
        assert_eq!(parts[0], "As shown by J. Smith.");
    }

    #[test]
    fn et_al_does_not_split() {
        let s = "Reported by Chen et al. Nevertheless results differ.";
        let parts = split_sentences(s);
        assert_eq!(parts.len(), 2, "{parts:?}");
        assert!(parts[0].ends_with("et al."));
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(split_sentences("").is_empty());
        assert!(split_sentences("   \n\t ").is_empty());
        assert_eq!(split_sentences("No terminal punctuation"), vec!["No terminal punctuation"]);
    }

    #[test]
    fn lowercase_continuation_does_not_split() {
        // "pH 7.4 buffer. we" — lowercase after period: treated as same
        // sentence (protects against mid-citation splits).
        let s = "Cells were kept in buffer. we then irradiated them.";
        let parts = split_sentences(s);
        assert_eq!(parts.len(), 1, "{parts:?}");
    }

    #[test]
    fn sentences_cover_text() {
        let s = "One. Two! Three? Four.";
        let parts = split_sentences(s);
        let glued: String = parts.join(" ");
        assert_eq!(glued, s);
    }

    #[test]
    fn unicode_content_survives() {
        let s = "The α/β ratio was 10 Gy. Überleben fell sharply.";
        let parts = split_sentences(s);
        assert_eq!(parts.len(), 2, "{parts:?}");
    }
}
