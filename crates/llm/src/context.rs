//! Retrieved-context assembly: one prompt per (question, source).
//!
//! The paper attributes part of the small-model result to prompt
//! truncation: a retrieval hit only helps if the supporting passage fits
//! the model's context window, and chunks are long. This module used to
//! pack passages greedily, in rank order, into each model card's window,
//! and the evaluator assembled every (question, source) once per card.
//!
//! On this corpus that packing never dropped a passage. Counted at
//! seed 42 with `repro rates` under each retrieval mode, for all eight
//! cards (a passage drops exactly when the full prompt overflows the
//! window, so the largest full prompt bounds every card):
//!
//! | scale | contexts per card (synthetic + exam) | largest prompt, dense / lexical / hybrid | dropped |
//! |---|---|---|---|
//! | 0.02 | 1 720 + 1 340 | 1 128 / 1 149 / 1 146 tokens | 0 |
//! | 0.2 | 16 764 + 1 340 | 1 159 / 1 153 / 1 153 tokens | 0 |
//! | 1.0 | 86 536 + 1 340 | 1 160 / 1 158 / 1 159 tokens | 0 |
//!
//! The smallest window in Table 1 is 2 048 tokens (OLMo-7B, TinyLlama),
//! so every card read the same contexts and the same usable-hit rates. The
//! window therefore went: a context holds every retrieved passage, the
//! evaluator assembles each (question, source) once per run, and a card's
//! window is only Table 1's printed column.

use mcqa_ontology::FactId;

/// One retrieved passage handed to a model.
///
/// A passage borrows its text from the store that holds it (a chunk
/// record, a trace record) and carries its token count from where it is
/// built ([`Passage::new`]): the caller passes the count its store already
/// holds for the text, and debug builds check it against the text. Text
/// and count are private so the two cannot drift apart afterwards, and
/// [`assemble`] reads the count instead of tokenising the same text again.
#[derive(Debug, Clone, PartialEq)]
pub struct Passage<'a> {
    /// Passage text (injected into the prompt).
    text: &'a str,
    /// `token_count(text)`.
    tokens: usize,
    /// Ground truth: the fact this passage states/supports, if any.
    /// (Filled by the evaluator from the corpus/trace oracle; the model
    /// only "sees" the text, but the simulator needs the label to decide
    /// whether extraction is possible.)
    pub supports: Option<FactId>,
}

impl<'a> Passage<'a> {
    /// A passage over `text`, which costs `tokens` =
    /// [`mcqa_text::token_count`]`(text)` — a count the caller already
    /// holds (a chunk record's, one taken per trace), so building a passage
    /// copies and tokenises nothing in release builds.
    pub fn new(text: &'a str, tokens: usize, supports: Option<FactId>) -> Self {
        debug_assert_eq!(tokens, mcqa_text::token_count(text), "passage token count");
        Self { text, tokens, supports }
    }

    /// Passage text (injected into the prompt).
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// Tokens the passage costs in a prompt.
    pub fn tokens(&self) -> usize {
        self.tokens
    }
}

/// The context a model reads: every retrieved passage.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledContext {
    /// Passages in the prompt, in retrieval order.
    pub passages: usize,
    /// True when a passage supports the question's fact (a *usable* hit).
    pub relevant: bool,
    /// Prompt tokens consumed (stem + options + passages).
    pub prompt_tokens: usize,
}

/// Fixed prompt-scaffold overhead (instructions, separators) in tokens.
const SCAFFOLD_TOKENS: usize = 48;

/// Assemble a prompt for a question about `fact`, whose rendered text
/// costs `question_tokens` ([`crate::PreparedItem::tokens`]: it depends on
/// the item alone, so a caller assembling one item for many sources counts
/// it once), from retrieved `passages`.
///
/// Layout mirrors the usual RAG prompt: scaffold + passages (retrieval
/// order) + question + options.
pub fn assemble(fact: FactId, question_tokens: usize, passages: &[Passage]) -> AssembledContext {
    AssembledContext {
        passages: passages.len(),
        relevant: passages.iter().any(|p| p.supports == Some(fact)),
        prompt_tokens: question_tokens
            + SCAFFOLD_TOKENS
            + passages.iter().map(|p| p.tokens).sum::<usize>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcq::{BenchKind, McqItem};

    fn item() -> McqItem {
        McqItem {
            qid: 1,
            bench: BenchKind::Synthetic,
            fact: FactId(42),
            stem: "Which pathway is activated by TRK2 following irradiation?".into(),
            options: (0..7).map(|i| format!("option number {i}")).collect(),
            correct: 0,
            difficulty: 0.3,
            is_math: false,
        }
    }

    /// A passage of `n` distinct words, its text living as long as the test
    /// binary (a passage borrows its text).
    fn passage(n: usize, supports: Option<FactId>) -> Passage<'static> {
        let text = (0..n).map(|i| format!("w{i}")).collect::<Vec<_>>().join(" ");
        Passage::new(Box::leak(text.into_boxed_str()), n, supports)
    }

    /// [`assemble`] for the fixture item.
    fn assemble_item(passages: &[Passage]) -> AssembledContext {
        assemble(item().fact, item().prompt_tokens(), passages)
    }

    #[test]
    fn passage_carries_its_token_count() {
        let p = passage(37, None);
        assert_eq!(p.tokens(), mcqa_text::token_count(p.text()));
        assert_eq!(p.tokens(), 37);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "passage token count")]
    fn a_wrong_token_count_is_loud_in_debug_builds() {
        Passage::new("three short words", 4, None);
    }

    #[test]
    fn every_passage_is_in_the_prompt() {
        let ps = vec![passage(200, None), passage(200, Some(FactId(42)))];
        let ctx = assemble_item(&ps);
        assert_eq!(ctx.passages, 2);
        assert!(ctx.relevant, "a hit at rank 2 is usable");
        assert_eq!(ctx.prompt_tokens, item().prompt_tokens() + SCAFFOLD_TOKENS + 400);
    }

    #[test]
    fn zero_passages() {
        let ctx = assemble_item(&[]);
        assert_eq!(ctx.passages, 0);
        assert!(!ctx.relevant);
        assert_eq!(ctx.prompt_tokens, item().prompt_tokens() + SCAFFOLD_TOKENS);
    }

    #[test]
    fn irrelevant_passage_supporting_other_fact() {
        let ps = vec![passage(50, Some(FactId(7)))];
        let ctx = assemble_item(&ps);
        assert!(!ctx.relevant, "supports a different fact");
        assert_eq!(ctx.passages, 1);
    }
}
