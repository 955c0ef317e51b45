//! Retrieved-context assembly and context-window truncation.
//!
//! This is the mechanistic heart of the paper's small-model result: a
//! retrieval hit only helps if the supporting passage *survives prompt
//! truncation*. Five ~250-token chunks plus the question overflow a 2K
//! window; five ~80-token traces do not. The truncation here is real token
//! accounting, not a parameter.

use mcqa_ontology::FactId;
use serde::{Deserialize, Serialize};

use crate::mcq::McqItem;
use crate::trace::TraceMode;

/// Where a retrieved passage came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PassageSource {
    /// A paper-derived semantic chunk.
    Chunk,
    /// A reasoning trace in the given mode.
    Trace(TraceMode),
}

/// One retrieved passage handed to a model.
///
/// A passage carries its token count from where it is built
/// ([`Passage::new`]): the caller passes the count its store already holds
/// for the text, and debug builds check it against the text. Text and count
/// are private so the two cannot drift apart afterwards, and [`assemble`]
/// reads the count for every model card instead of tokenising the same
/// text again.
#[derive(Debug, Clone, PartialEq)]
pub struct Passage {
    /// Passage text (injected into the prompt).
    text: String,
    /// `token_count(text)`.
    tokens: usize,
    /// Source type.
    pub source: PassageSource,
    /// Ground truth: the fact this passage states/supports, if any.
    /// (Filled by the evaluator from the corpus/trace oracle; the model
    /// only "sees" the text, but the simulator needs the label to decide
    /// whether extraction is possible.)
    pub supports: Option<FactId>,
    /// Retrieval score (for ordering diagnostics).
    pub score: f32,
}

impl Passage {
    /// A passage over `text`, which costs `tokens` =
    /// [`mcqa_text::token_count`]`(&text)` — a count the caller already
    /// holds (a chunk record's, one taken per trace), so building a passage
    /// tokenises nothing in release builds.
    pub fn new(
        text: String,
        tokens: usize,
        source: PassageSource,
        supports: Option<FactId>,
        score: f32,
    ) -> Self {
        debug_assert_eq!(tokens, mcqa_text::token_count(&text), "passage token count");
        Self { text, tokens, source, supports, score }
    }

    /// Passage text (injected into the prompt).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Tokens the passage costs in a prompt.
    pub fn tokens(&self) -> usize {
        self.tokens
    }
}

/// The context actually visible to the model after truncation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssembledContext {
    /// Passages fully inside the window, in retrieval order.
    pub passages_in_window: usize,
    /// Passages supplied by retrieval.
    pub passages_total: usize,
    /// True when a passage supporting the question's fact survived
    /// truncation (a *usable* hit).
    pub relevant_in_window: bool,
    /// True when retrieval returned a supporting passage at all (hit
    /// before truncation) — the difference to `relevant_in_window` is
    /// pure window loss.
    pub relevant_retrieved: bool,
    /// Prompt tokens consumed (stem + options + surviving passages).
    pub prompt_tokens: usize,
}

/// Fixed prompt-scaffold overhead (instructions, separators) in tokens.
const SCAFFOLD_TOKENS: usize = 48;

/// Tokens the rendered question (stem + lettered options) costs in a
/// prompt — the `question_tokens` [`assemble`] takes. It depends on the
/// item alone, so a caller assembling one item for many models or sources
/// counts it once.
pub fn question_tokens(item: &McqItem) -> usize {
    mcqa_text::token_count(&item.render())
}

/// Assemble a prompt for a question about `fact`, costing
/// [`question_tokens`], from retrieved `passages` under a `context_window`
/// budget.
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
    let mut relevant_retrieved = false;
    for p in passages {
        let is_relevant = p.supports == Some(fact);
        relevant_retrieved |= is_relevant;
        if used + p.tokens <= budget {
            used += p.tokens;
            in_window += 1;
            relevant_in_window |= is_relevant;
        }
        // Passages after an overflow are still skipped individually —
        // a shorter later passage may fit (greedy packing in rank order).
    }

    AssembledContext {
        passages_in_window: in_window,
        passages_total: passages.len(),
        relevant_in_window,
        relevant_retrieved,
        prompt_tokens: question_tokens + SCAFFOLD_TOKENS + used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcq::BenchKind;

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

    fn passage(words: usize, supports: Option<FactId>) -> Passage {
        Passage::new(
            (0..words).map(|i| format!("w{i}")).collect::<Vec<_>>().join(" "),
            words,
            PassageSource::Chunk,
            supports,
            0.9,
        )
    }

    /// [`assemble`] for the fixture item.
    fn assemble_item(passages: &[Passage], window: usize) -> AssembledContext {
        assemble(item().fact, question_tokens(&item()), passages, window)
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
        Passage::new("three short words".into(), 4, PassageSource::Chunk, None, 0.5);
    }

    #[test]
    fn everything_fits_in_large_window() {
        let ps = vec![passage(200, Some(FactId(42))), passage(200, None)];
        let ctx = assemble_item(&ps, 32_768);
        assert_eq!(ctx.passages_in_window, 2);
        assert!(ctx.relevant_in_window);
        assert!(ctx.relevant_retrieved);
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
        assert!(ctx.relevant_retrieved, "retrieval found it");
        assert!(!ctx.relevant_in_window, "but the window lost it");
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
            .map(|i| {
                Passage::new(
                    (0..50).map(|j| format!("t{j}")).collect::<Vec<_>>().join(" "),
                    50,
                    PassageSource::Trace(TraceMode::Efficient),
                    if i == 4 { Some(FactId(42)) } else { None },
                    0.8,
                )
            })
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
        assert_eq!(ctx.passages_total, 0);
        assert!(!ctx.relevant_retrieved);
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
        assert!(!ctx.relevant_retrieved, "supports a different fact");
        assert_eq!(ctx.passages_in_window, 1);
    }
}
