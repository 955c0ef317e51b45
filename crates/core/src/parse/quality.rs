//! Output-quality scoring: AdaParse's quality predictor, reproduced.
//!
//! The adaptive engine needs a cheap judgement of "does this parse look
//! like clean scientific text?" to decide whether the fast path's output
//! is acceptable. Score components:
//!
//! * printable ratio — binary garbage drags this down;
//! * mean sentence length in tokens — shredded text has absurd values;
//! * lexical validity — fraction of tokens that are alphabetic-ish;
//! * structure — documents should have at least one non-empty section.

use super::record::ParsedDocument;

/// A quality verdict in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QualityScore(pub(crate) f64);

impl QualityScore {
    /// The acceptance threshold used by the adaptive engine's fast path.
    pub(crate) const ACCEPT: f64 = 0.7;
}

/// True when at least half of `token`'s chars are alphabetic. An ASCII
/// token's chars are its bytes.
fn is_wordy(token: &str) -> bool {
    if token.is_ascii() {
        return token.bytes().filter(u8::is_ascii_alphabetic).count() * 2 >= token.len();
    }
    let (mut chars, mut alphabetic) = (0usize, 0usize);
    for c in token.chars() {
        chars += 1;
        alphabetic += usize::from(c.is_alphabetic());
    }
    alphabetic * 2 >= chars
}

/// Score a parsed document.
pub(crate) fn score(doc: &ParsedDocument) -> QualityScore {
    if doc.sections.is_empty() || doc.text_len() == 0 {
        return QualityScore(0.0);
    }
    let text: String = doc.sections.iter().map(|s| s.text.as_str()).collect::<Vec<_>>().join(" ");

    // Printable ratio. An ASCII char is a byte, and a control char there
    // is an ASCII control byte.
    let (total_chars, printable) = if text.is_ascii() {
        let printable = text.bytes().filter(|&b| !b.is_ascii_control() || b == b'\n' || b == b'\t');
        (text.len(), printable.count())
    } else {
        let (mut total_chars, mut printable) = (0usize, 0usize);
        for c in text.chars() {
            total_chars += 1;
            printable += usize::from(!c.is_control() || c == '\n' || c == '\t');
        }
        (total_chars, printable)
    };
    let printable_ratio = printable as f64 / total_chars.max(1) as f64;

    // Lexical validity: a token is wordy when at least half its chars are
    // alphabetic (`t` is the lowercased token, as `tokenize` yields it).
    let (mut tokens, mut wordy) = (0usize, 0usize);
    mcqa_text::for_each_token(&text, |t| {
        tokens += 1;
        wordy += usize::from(is_wordy(t));
    });
    let lexical = if tokens == 0 { 0.0 } else { wordy as f64 / tokens as f64 };

    // Sentence shape. A split consumes only whitespace between sentences,
    // so no token straddles one and the text's count is the sentences' sum.
    let sentences = mcqa_text::sentences(&text).count();
    let sentence_score = if sentences == 0 {
        0.0
    } else {
        let mean_len = tokens as f64 / sentences as f64;
        // Clean scientific prose averages ~8–40 tokens/sentence.
        if (4.0..=60.0).contains(&mean_len) {
            1.0
        } else if mean_len > 0.0 {
            0.4
        } else {
            0.0
        }
    };

    // Weighted blend.
    let s = 0.35 * printable_ratio + 0.3 * sentence_score + 0.35 * lexical;
    QualityScore(s.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::record::ParsedSection;

    fn doc_with_text(text: &str) -> ParsedDocument {
        ParsedDocument {
            sections: vec![ParsedSection { title: "Body".into(), text: text.into() }],
            issues: vec![],
        }
    }

    const CLEAN_PROSE: &str = "Radiation induces double-strand breaks in DNA. Repair pathways \
         respond within minutes of exposure. Survival depends on dose and \
         fractionation schedule. These findings inform clinical practice.";

    /// Control characters, punctuation, and digits — what a mis-decoded
    /// binary stream looks like after lossy UTF-8 conversion.
    fn binary_garbage() -> String {
        (0u8..48).cycle().take(600).map(|b| b as char).collect()
    }

    fn numeric_shred() -> String {
        "0x3f 9 1 4 7 2 2 8 1 9 0 3 3 7 1 ".repeat(40)
    }

    /// The score as first written — two `chars()` walks for the printable
    /// ratio, the tokens materialised as `String`s for lexical validity —
    /// with the wordy test counting chars on both sides (it once compared
    /// alphabetic chars with the token's byte length). `score` must agree
    /// with it to the bit.
    fn score_oracle(doc: &ParsedDocument) -> QualityScore {
        if doc.sections.is_empty() || doc.text_len() == 0 {
            return QualityScore(0.0);
        }
        let text: String =
            doc.sections.iter().map(|s| s.text.as_str()).collect::<Vec<_>>().join(" ");
        let total_chars = text.chars().count().max(1);
        let printable =
            text.chars().filter(|c| !c.is_control() || *c == '\n' || *c == '\t').count();
        let printable_ratio = printable as f64 / total_chars as f64;
        let sentences = mcqa_text::split_sentences(&text);
        let sentence_score = if sentences.is_empty() {
            0.0
        } else {
            let mean_len = sentences.iter().map(|s| mcqa_text::token_count(s) as f64).sum::<f64>()
                / sentences.len() as f64;
            if (4.0..=60.0).contains(&mean_len) {
                1.0
            } else if mean_len > 0.0 {
                0.4
            } else {
                0.0
            }
        };
        let tokens = mcqa_text::tokenize(&text);
        let lexical = if tokens.is_empty() {
            0.0
        } else {
            let wordy = tokens
                .iter()
                .filter(|t| {
                    t.chars().filter(|c| c.is_alphabetic()).count() * 2 >= t.chars().count()
                })
                .count();
            wordy as f64 / tokens.len() as f64
        };
        let s = 0.35 * printable_ratio + 0.3 * sentence_score + 0.35 * lexical;
        QualityScore(s.clamp(0.0, 1.0))
    }

    #[test]
    fn one_pass_score_matches_the_oracle_bitwise() {
        let texts = [
            CLEAN_PROSE.to_string(),
            binary_garbage(),
            numeric_shred(),
            String::new(),
            // Tokens whose lowercase form has another byte length ("İ" is
            // 2 bytes, "i̇" 3; "ẞ" is 3, "ß" 2), digits-with-letters on the
            // wordy threshold, control characters between them.
            "İSTANBUL ẞ-Faktor 5ΜM ÜBERLEBEN\u{1}A1 B22 Ǆ9 x-9-9.\tİİ1234 \u{7}".to_string(),
            // Runs, but no tokens: the lexical term is 0 / 0 → 0.
            "- -- --- \u{2}-".to_string(),
        ];
        for text in &texts {
            let doc = doc_with_text(text);
            assert_eq!(score(&doc).0.to_bits(), score_oracle(&doc).0.to_bits(), "{text:?}");
        }
        let two_sections = ParsedDocument {
            sections: vec![
                ParsedSection { title: "A".into(), text: CLEAN_PROSE.into() },
                ParsedSection { title: "B".into(), text: numeric_shred() },
            ],
            issues: vec![],
        };
        assert_eq!(score(&two_sections).0.to_bits(), score_oracle(&two_sections).0.to_bits());
    }

    #[test]
    fn cjk_prose_is_wordy() {
        // One alphabetic char is one char whatever its byte length: "樹"
        // is a word, not a third of one.
        assert!(is_wordy("樹") && is_wordy("放射線") && is_wordy("x9") && is_wordy("ü1"));
        assert!(!is_wordy("9") && !is_wordy("a12") && !is_wordy("٣٤α"));
        let prose = "放射線は細胞の二本鎖切断を誘発する。修復経路は数分以内に応答する。\
                     生存率は線量と分割スケジュールに依存する。これらの知見は臨床に役立つ。";
        let doc = doc_with_text(prose);
        assert_eq!(score(&doc).0.to_bits(), score_oracle(&doc).0.to_bits());
        let mut lexical = (0usize, 0usize);
        mcqa_text::for_each_token(prose, |t| {
            lexical.0 += 1;
            lexical.1 += usize::from(is_wordy(t));
        });
        assert_eq!(lexical.0, lexical.1, "every CJK token is wordy");
        // So CJK prose clears the fast path's bar instead of escalating.
        assert!(score(&doc).0 >= QualityScore::ACCEPT, "score {}", score(&doc).0);
    }

    #[test]
    fn clean_prose_scores_high() {
        let s = score(&doc_with_text(CLEAN_PROSE));
        assert!(s.0 >= QualityScore::ACCEPT, "score {}", s.0);
    }

    #[test]
    fn binary_garbage_scores_low() {
        let s = score(&doc_with_text(&binary_garbage()));
        assert!(s.0 < QualityScore::ACCEPT, "score {}", s.0);
    }

    #[test]
    fn numeric_shred_scores_low() {
        let s = score(&doc_with_text(&numeric_shred()));
        assert!(s.0 < 0.7, "score {}", s.0);
    }

    #[test]
    fn empty_document_scores_zero() {
        let empty = ParsedDocument { sections: vec![], issues: vec![] };
        assert_eq!(score(&empty).0, 0.0);
        assert_eq!(score(&doc_with_text("")).0, 0.0);
    }

    #[test]
    fn score_bounded() {
        for text in ["a", "Word.", "Many many many words go here today."] {
            let s = score(&doc_with_text(text)).0;
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
