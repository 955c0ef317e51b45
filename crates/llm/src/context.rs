//! Retrieved-context assembly: one prompt per (question, source).
//!
//! A simulated model reads three numbers from its retrieved context: how
//! many passages it holds, whether one of them supports the question's
//! fact, and how many prompt tokens it costs. [`assemble`] computes them
//! from each retrieved passage's token count and oracle label, so a
//! context is built without copying or tokenising any passage text. A
//! context holds every retrieved passage, whatever the model card.

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

/// Assemble a prompt for a question whose rendered text costs
/// `question_tokens` ([`crate::PreparedItem::tokens`]: it depends on the
/// item alone, so a caller assembling one item for many sources counts it
/// once), from retrieved `passages`: each one's token count and whether it
/// supports the question's fact.
///
/// Layout mirrors the usual RAG prompt: scaffold + passages (retrieval
/// order) + question + options.
pub fn assemble(
    question_tokens: usize,
    passages: impl IntoIterator<Item = (usize, bool)>,
) -> AssembledContext {
    let mut ctx = AssembledContext {
        passages: 0,
        relevant: false,
        prompt_tokens: question_tokens + SCAFFOLD_TOKENS,
    };
    for (tokens, supports) in passages {
        ctx.passages += 1;
        ctx.relevant |= supports;
        ctx.prompt_tokens += tokens;
    }
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcq::test_item;

    /// [`assemble`] for the fixture item.
    fn assemble_item(passages: &[(usize, bool)]) -> AssembledContext {
        assemble(test_item().prompt_tokens(), passages.iter().copied())
    }

    #[test]
    fn every_passage_is_in_the_prompt() {
        let ctx = assemble_item(&[(200, false), (150, true)]);
        assert_eq!(ctx.passages, 2);
        assert!(ctx.relevant, "a hit at rank 2 is usable");
        assert_eq!(ctx.prompt_tokens, test_item().prompt_tokens() + SCAFFOLD_TOKENS + 350);
    }

    #[test]
    fn zero_passages() {
        let ctx = assemble_item(&[]);
        assert_eq!(ctx.passages, 0);
        assert!(!ctx.relevant);
        assert_eq!(ctx.prompt_tokens, test_item().prompt_tokens() + SCAFFOLD_TOKENS);
    }

    #[test]
    fn unsupporting_passages_are_not_a_usable_hit() {
        let ctx = assemble_item(&[(50, false), (60, false)]);
        assert!(!ctx.relevant, "no passage supports the question's fact");
        assert_eq!(ctx.passages, 2);
        assert_eq!(ctx.prompt_tokens, test_item().prompt_tokens() + SCAFFOLD_TOKENS + 110);
    }
}
