//! Retrieved-context assembly and context-window truncation.
//!
//! This is the mechanistic heart of the paper's small-model result: a
//! retrieval hit only helps if the supporting passage *survives prompt
//! truncation*. The truncation here is real token accounting, not a
//! parameter. On this corpus it never drops a usable hit: at scale 0.02,
//! seed 42 chunks are ≈ 60 tokens at the median and 251 at most, and
//! `repro rates --scale 0.02 --seed 42` prints the same usable-hit rates
//! for all eight models, from a 2K window to 128K; the scale-1.0 pin's
//! rates are equal across the eight models too.

use mcqa_ontology::FactId;

/// One retrieved passage handed to a model.
///
/// A passage borrows its text from the store that holds it (a chunk
/// record, a trace record) and carries its token count from where it is
/// built ([`Passage::new`]): the caller passes the count its store already
/// holds for the text, and debug builds check it against the text. Text
/// and count are private so the two cannot drift apart afterwards, and
/// [`assemble`] reads the count for every model card instead of tokenising
/// the same text again.
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

/// The context actually visible to the model after truncation.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledContext {
    /// Passages fully inside the window, in retrieval order.
    pub passages_in_window: usize,
    /// True when a passage supporting the question's fact survived
    /// truncation (a *usable* hit).
    pub relevant_in_window: bool,
    /// Prompt tokens consumed (stem + options + surviving passages).
    pub prompt_tokens: usize,
}

/// Fixed prompt-scaffold overhead (instructions, separators) in tokens.
const SCAFFOLD_TOKENS: usize = 48;

/// Assemble a prompt for a question about `fact`, whose rendered text
/// costs `question_tokens` ([`crate::PreparedItem::tokens`]: it depends on
/// the item alone, so a caller assembling one item for many models or
/// sources counts it once), from retrieved `passages` under a
/// `context_window` budget.
///
/// Layout mirrors the usual RAG prompt: scaffold + passages (retrieval
/// order) + question + options. Passages that do not fit *entirely* are
/// dropped (partial evidence is useless for MCQ extraction); the question
/// itself is always kept (models see the question even when context must
/// be truncated away).
pub fn assemble(
    fact: FactId,
    question_tokens: usize,
    passages: &[Passage],
    context_window: usize,
) -> AssembledContext {
    let budget = context_window.saturating_sub(question_tokens + SCAFFOLD_TOKENS);

    let mut used = 0usize;
    let mut in_window = 0usize;
    let mut relevant_in_window = false;
    for p in passages {
        if used + p.tokens <= budget {
            used += p.tokens;
            in_window += 1;
            relevant_in_window |= p.supports == Some(fact);
        }
        // Passages after an overflow are still skipped individually —
        // a shorter later passage may fit (greedy packing in rank order).
    }

    AssembledContext {
        passages_in_window: in_window,
        relevant_in_window,
        prompt_tokens: question_tokens + SCAFFOLD_TOKENS + used,
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

    /// `n` distinct words led by `prefix`, living as long as the test
    /// binary (a passage borrows its text).
    fn words(prefix: char, n: usize) -> &'static str {
        let text = (0..n).map(|i| format!("{prefix}{i}")).collect::<Vec<_>>().join(" ");
        Box::leak(text.into_boxed_str())
    }

    fn passage(n: usize, supports: Option<FactId>) -> Passage<'static> {
        Passage::new(words('w', n), n, supports)
    }

    /// [`assemble`] for the fixture item.
    fn assemble_item(passages: &[Passage], window: usize) -> AssembledContext {
        assemble(item().fact, item().prompt_tokens(), passages, window)
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
    fn everything_fits_in_large_window() {
        let ps = vec![passage(200, Some(FactId(42))), passage(200, None)];
        let ctx = assemble_item(&ps, 32_768);
        assert_eq!(ctx.passages_in_window, 2);
        assert!(ctx.relevant_in_window);
        assert!(ctx.prompt_tokens > 400);
    }

    #[test]
    fn truncation_drops_late_passages() {
        // Window fits question + scaffold + ~one 200-token passage.
        let q_tokens = mcqa_text::token_count(&item().render());
        let window = q_tokens + 48 + 250;
        let ps = vec![
            passage(200, None),             // rank 1: fits
            passage(200, Some(FactId(42))), // rank 2: dropped → hit lost to truncation
        ];
        let ctx = assemble_item(&ps, window);
        assert_eq!(ctx.passages_in_window, 1);
        assert!(!ctx.relevant_in_window, "the window lost the hit");
    }

    #[test]
    fn short_traces_survive_where_chunks_die() {
        let q_tokens = mcqa_text::token_count(&item().render());
        let window = q_tokens + 48 + 300;
        // Five 250-token chunks: only the first fits.
        let chunks: Vec<Passage> = (0..5).map(|_| passage(250, None)).collect();
        let c1 = assemble_item(&chunks, window);
        assert_eq!(c1.passages_in_window, 1);
        // Five 50-token traces: all fit... budget 300 → 6 × 50 = 300 fits 5.
        let traces: Vec<Passage> = (0..5)
            .map(|i| Passage::new(words('t', 50), 50, (i == 4).then_some(FactId(42))))
            .collect();
        let c2 = assemble_item(&traces, window);
        assert_eq!(c2.passages_in_window, 5);
        assert!(c2.relevant_in_window, "trace at rank 5 still usable");
    }

    #[test]
    fn greedy_packing_takes_later_shorter_passage() {
        let q_tokens = mcqa_text::token_count(&item().render());
        let window = q_tokens + 48 + 100;
        let ps = vec![passage(200, None), passage(80, Some(FactId(42)))];
        let ctx = assemble_item(&ps, window);
        assert_eq!(ctx.passages_in_window, 1, "the shorter rank-2 passage fits");
        assert!(ctx.relevant_in_window);
    }

    #[test]
    fn zero_passages() {
        let ctx = assemble_item(&[], 2048);
        assert_eq!(ctx.passages_in_window, 0);
        assert!(!ctx.relevant_in_window);
    }

    #[test]
    fn tiny_window_keeps_question_only() {
        let ps = vec![passage(100, Some(FactId(42)))];
        let ctx = assemble_item(&ps, 10);
        assert_eq!(ctx.passages_in_window, 0);
        assert!(!ctx.relevant_in_window);
    }

    #[test]
    fn irrelevant_passage_supporting_other_fact() {
        let ps = vec![passage(50, Some(FactId(7)))];
        let ctx = assemble_item(&ps, 4096);
        assert!(!ctx.relevant_in_window, "supports a different fact");
        assert_eq!(ctx.passages_in_window, 1);
    }
}
