//! The paper's JSON record schemas.
//!
//! * [`QuestionRecord`] reproduces Figure 2: question text, options,
//!   answer, type, provenance (`chunk_id` + file path), and the relevance
//!   and quality checks that make filtering transparent.
//! * [`TraceRecord`] reproduces Figure 3: the three reasoning modes with
//!   the final answer excluded, linked back to the question.

use mcqa_llm::TraceMode;
use mcqa_ontology::Topic;
use serde::Serialize;

/// Provenance of a generated question (Figure 2's lineage block).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Provenance {
    /// Source chunk id.
    pub chunk_id: u64,
    /// Source container path.
    pub file_path: String,
    /// Source document id.
    pub doc_id: u32,
    /// The supporting fact (simulation ground truth; a real deployment
    /// would not have this field — it is what makes the reproduction
    /// verifiable).
    pub fact_id: u64,
}

/// Quality-control block (Figure 2's `quality` object).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QualityBlock {
    /// Judge score, 1–10.
    pub score: u8,
    /// Judge reasoning.
    pub(crate) reasoning: String,
    /// Whether the item passed the acceptance threshold.
    pub(crate) passed: bool,
}

/// The Figure-2 question record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuestionRecord {
    /// Benchmark-wide question id.
    pub question_id: u64,
    /// Question stem.
    pub question: String,
    /// Options in display order (seven on the synthetic benchmark).
    pub(crate) options: Vec<String>,
    /// Correct answer as `"C"`-style letter.
    pub answer_letter: char,
    /// Correct answer text.
    pub(crate) answer_text: String,
    /// Question type tag (`"multiple-choice"`).
    pub(crate) question_type: String,
    /// Topical subfield.
    pub topic: Topic,
    /// Lineage to the source chunk and document.
    pub provenance: Provenance,
    /// Relevance check: does the source chunk actually state the fact the
    /// question tests?
    pub relevance_check: bool,
    /// Quality check from the LLM judge.
    pub quality: QualityBlock,
}

/// The Figure-3 reasoning-trace record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceRecord {
    /// Trace id (unique across modes).
    pub trace_id: u64,
    /// The question this trace reasons about.
    pub question_id: u64,
    /// Reasoning mode.
    pub mode: TraceMode,
    /// The reasoning text (final answer excluded).
    pub trace: String,
    /// The teacher that produced it.
    pub(crate) teacher: String,
    /// Leakage control flag (always true; audited in tests).
    pub answer_excluded: bool,
    /// The supporting fact (ground truth for retrieval relevance).
    pub fact_id: u64,
}

/// Write records to a JSONL string (one line per record).
pub fn to_jsonl_document<T: Serialize>(records: &[T]) -> String {
    records
        .iter()
        .map(|r| serde_json::to_string(r).expect("record serialises"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_question() -> QuestionRecord {
        QuestionRecord {
            question_id: 17,
            question: "Which pathway is activated by TRK2 following irradiation?".into(),
            options: (0..7).map(|i| format!("opt{i}")).collect(),
            answer_letter: 'B',
            answer_text: "opt1".into(),
            question_type: "multiple-choice".into(),
            topic: Topic::DnaRepair,
            provenance: Provenance {
                chunk_id: 655_361,
                file_path: "corpus/doc_000010.spdf".into(),
                doc_id: 10,
                fact_id: 99,
            },
            relevance_check: true,
            quality: QualityBlock { score: 8, reasoning: "clear".into(), passed: true },
        }
    }

    #[test]
    fn question_schema_has_figure2_fields() {
        let line = serde_json::to_string(&sample_question()).unwrap();
        assert!(!line.contains('\n'));
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        for field in [
            "question_id",
            "question",
            "options",
            "answer_letter",
            "question_type",
            "provenance",
            "relevance_check",
            "quality",
        ] {
            assert!(v.get(field).is_some(), "missing {field}");
        }
        assert!(v["provenance"].get("chunk_id").is_some());
        assert!(v["provenance"].get("file_path").is_some());
        assert!(v["quality"].get("score").is_some());
        assert!(v["quality"].get("reasoning").is_some());
    }

    #[test]
    fn trace_schema_has_figure3_fields() {
        let t = TraceRecord {
            trace_id: 3,
            question_id: 17,
            mode: TraceMode::Focused,
            trace: "Principle: ... final answer withheld.".into(),
            teacher: "GPT-4.1-sim".into(),
            answer_excluded: true,
            fact_id: 99,
        };
        let v: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        for field in ["trace_id", "question_id", "mode", "trace", "answer_excluded"] {
            assert!(v.get(field).is_some(), "missing {field}");
        }
        assert_eq!(v["mode"].as_str(), Some("Focused"));
        assert_eq!(v["fact_id"].as_u64(), Some(99));
    }

    #[test]
    fn jsonl_document_layout() {
        let doc = to_jsonl_document(&[sample_question(), sample_question()]);
        assert_eq!(doc.lines().count(), 2);
        for line in doc.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["question_id"].as_u64(), Some(17));
        }
    }
}
