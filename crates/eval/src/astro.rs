//! The Astro-exam stand-in (paper §2.2, §3.2).
//!
//! The real 2023 ASTRO Radiation and Cancer Biology Study Guide is a
//! proprietary PDF. We reproduce its *structure* from the same ontology
//! the corpus was generated from — which is exactly the epistemic
//! situation of the paper: the exam tests the same field the literature
//! describes, but was written independently, in a different register:
//!
//! * 337 questions; 2 require reading a figure and are excluded (paper
//!   excludes 2 multimodal items) → 335 evaluated;
//! * 146 of the 335 require quantitative reasoning (BED/EQD2, LQ
//!   survival, decay, inverse square, OER) — built from quantitative
//!   facts with "typical student error" distractors;
//! * 189 are recall questions written in exam register
//!   ([`mcqa_ontology::realize::QuestionStyle::Exam`]), whose phrasing is
//!   deliberately distant from the corpus prose (that is why exam-time
//!   retrieval is harder, as in the paper);
//! * 5 options per question;
//! * facts are drawn salience-weighted: exams test the core curriculum.

use mcqa_llm::{BenchKind, Classifier, McqItem};
use mcqa_ontology::{realize, Ontology};
use mcqa_runtime::Executor;
use mcqa_util::KeyedStochastic;
use serde::{Deserialize, Serialize};

/// Exam generation settings (defaults = the paper's accounting).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AstroConfig {
    /// Seed (independent of the pipeline seed).
    pub seed: u64,
    /// Recall (non-math) questions.
    pub recall_questions: usize,
    /// Quantitative questions.
    pub math_questions: usize,
    /// Multimodal questions (generated, then excluded).
    pub multimodal_questions: usize,
}

impl Default for AstroConfig {
    fn default() -> Self {
        Self { seed: 2023, recall_questions: 189, math_questions: 146, multimodal_questions: 2 }
    }
}

/// The generated exam.
#[derive(Debug, Clone)]
pub struct AstroExam {
    /// Evaluated questions (multimodal items excluded), recall first.
    pub items: Vec<McqItem>,
    /// Stems of the excluded multimodal questions (for the accounting).
    pub excluded_multimodal: Vec<String>,
    /// Ground-truth math flags (index-aligned with `items`).
    pub truth_is_math: Vec<bool>,
}

impl AstroExam {
    /// Generate the exam from the ontology.
    ///
    /// The `is_math` flag on each item is assigned by the `classifier`
    /// adapter (playing GPT-5's role in the paper) via one batched
    /// endpoint call on `exec`'s pool; the generator's own ground truth is
    /// kept in `truth_is_math` so the classifier's agreement is
    /// measurable.
    pub fn generate(
        ontology: &Ontology,
        config: &AstroConfig,
        classifier: &Classifier,
        exec: &Executor,
    ) -> Self {
        let rng = KeyedStochastic::new(config.seed ^ 0xA57_20E8);
        let reg = ontology.registry();
        let mut items = Vec::new();
        let mut truth = Vec::new();

        // --- Recall questions: salience-weighted fact draw, exam register.
        let facts = ontology.facts();
        assert!(
            facts.len() >= config.recall_questions,
            "ontology too small for the exam: {} facts < {}",
            facts.len(),
            config.recall_questions
        );
        let weights: Vec<f64> = facts.iter().map(|f| (0.1 + f.salience).powi(3)).collect();
        let mut chosen = Vec::with_capacity(config.recall_questions);
        let mut used = std::collections::HashSet::new();
        let mut draw = 0u64;
        while chosen.len() < config.recall_questions {
            draw += 1;
            assert!(
                draw < (config.recall_questions as u64 + facts.len() as u64) * 64,
                "exam fact sampling failed to converge"
            );
            if let Some(i) = rng.weighted_choice(&weights, &["fact", &draw.to_string()]) {
                if used.insert(i) {
                    chosen.push(&facts[i]);
                }
            }
        }

        for (qi, fact) in chosen.iter().enumerate() {
            let (stem, answer) = realize::question(fact, reg, realize::QuestionStyle::Exam);
            let distractors = ontology.distractors(fact, 4, &format!("astro-{qi}"));
            let mut options: Vec<String> = vec![answer];
            options.extend(distractors.iter().map(|d| reg.get(*d).name.clone()));
            if options.len() != 5 {
                continue; // kind pool exhausted; skip (compensated below)
            }
            let perm = rng.permutation(5, &["shuffle", &qi.to_string()]);
            let shuffled: Vec<String> = perm.iter().map(|&i| options[i].clone()).collect();
            let correct = perm.iter().position(|&i| i == 0).expect("answer present");
            items.push(McqItem {
                qid: qi as u64,
                bench: BenchKind::AstroExam,
                fact: fact.id,
                stem,
                options: shuffled,
                correct,
                difficulty: fact.difficulty,
                is_math: false, // assigned by the classifier below
            });
            truth.push(false);
        }

        // --- Math questions from quantitative facts.
        let quant = ontology.quant_facts();
        assert!(
            quant.len() >= config.math_questions,
            "ontology has {} quantitative facts < {}",
            quant.len(),
            config.math_questions
        );
        let qperm = rng.permutation(quant.len(), &["quant"]);
        for (mi, &qi) in qperm.iter().take(config.math_questions).enumerate() {
            let qf = &quant[qi];
            let (stem, answer) = realize::math_stem(qf);
            let mut options: Vec<String> = vec![answer];
            options.extend(
                qf.distinct_distractors()
                    .into_iter()
                    .take(4)
                    .map(|d| realize::format_quantity(d, &qf.unit)),
            );
            let perm = rng.permutation(5, &["mshuffle", &mi.to_string()]);
            let shuffled: Vec<String> = perm.iter().map(|&i| options[i].clone()).collect();
            let correct = perm.iter().position(|&i| i == 0).expect("answer present");
            items.push(McqItem {
                qid: (1000 + mi) as u64,
                bench: BenchKind::AstroExam,
                fact: qf.id,
                stem,
                options: shuffled,
                correct,
                difficulty: qf.difficulty,
                is_math: false, // assigned by the classifier below
            });
            truth.push(true);
        }

        // --- Multimodal questions: generated, flagged, excluded.
        let excluded_multimodal: Vec<String> = (0..config.multimodal_questions)
            .map(|i| {
                format!(
                    "Refer to the survival-curve figure shown: which curve corresponds to the \
                     cell line irradiated under hypoxic conditions? (Figure {}.)",
                    i + 1
                )
            })
            .collect();

        // GPT-5's role: classify the evaluated questions in one batched
        // endpoint call.
        let flags = classifier.classify_batch(exec, &items);
        for (item, is_math) in items.iter_mut().zip(flags) {
            item.is_math = is_math;
        }

        Self { items, excluded_multimodal, truth_is_math: truth }
    }

    /// Number of evaluated questions (paper: 335).
    pub fn evaluated(&self) -> usize {
        self.items.len()
    }

    /// The no-math subset (by classifier, as in the paper).
    pub fn no_math_items(&self) -> Vec<&McqItem> {
        self.items.iter().filter(|i| !i.is_math).collect()
    }

    /// Classifier agreement with the generator's ground truth.
    pub fn classifier_agreement(&self) -> f64 {
        if self.items.is_empty() {
            return 1.0;
        }
        let agree =
            self.items.iter().zip(&self.truth_is_math).filter(|(i, t)| i.is_math == **t).count();
        agree as f64 / self.items.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_ontology::OntologyConfig;
    use std::sync::Arc;

    fn ontology() -> Arc<Ontology> {
        Arc::new(Ontology::generate(&OntologyConfig {
            seed: 42,
            entities_per_kind: 60,
            qualitative_facts: 600,
            quantitative_facts: 150,
        }))
    }

    fn generate(ont: &Arc<Ontology>, config: &AstroConfig) -> AstroExam {
        let sim = mcqa_llm::SimEndpoint::new(42, Arc::clone(ont));
        let hub = Arc::new(mcqa_llm::ModelHub::new(Box::new(sim)));
        AstroExam::generate(ont, config, &Classifier::new(hub, 42), Executor::global())
    }

    #[test]
    fn paper_accounting() {
        let ont = ontology();
        let exam = generate(&ont, &AstroConfig::default());
        assert_eq!(exam.evaluated() + exam.excluded_multimodal.len(), 337);
        assert_eq!(exam.excluded_multimodal.len(), 2);
        // 189 + 146 = 335 (a few recall slots may be skipped if pools run
        // dry; must not happen at this ontology size).
        assert_eq!(exam.evaluated(), 335);
        let math = exam.items.iter().filter(|i| i.is_math).count();
        assert!(
            (140..=152).contains(&math),
            "classifier found {math} math questions; paper has 146"
        );
    }

    #[test]
    fn questions_structurally_valid() {
        let ont = ontology();
        let exam = generate(&ont, &AstroConfig::default());
        for item in &exam.items {
            item.validate().unwrap_or_else(|e| panic!("qid {}: {e}", item.qid));
            assert_eq!(item.options.len(), 5);
            assert_eq!(item.bench, BenchKind::AstroExam);
        }
    }

    #[test]
    fn classifier_agreement_high() {
        let ont = ontology();
        let exam = generate(&ont, &AstroConfig::default());
        let agreement = exam.classifier_agreement();
        assert!(agreement >= 0.97, "classifier agreement {agreement:.3}");
    }

    #[test]
    fn deterministic() {
        let ont = ontology();
        let a = generate(&ont, &AstroConfig::default());
        let b = generate(&ont, &AstroConfig::default());
        assert_eq!(a.items, b.items);
    }

    #[test]
    fn exam_register_differs_from_pipeline_register() {
        // Exam stems must not reuse the synthetic question templates
        // (lexical distance is what makes exam retrieval harder).
        let ont = ontology();
        let exam = generate(&ont, &AstroConfig::default());
        let synth_markers = ["Which of the following is", "By which mechanism"];
        let exam_style = exam
            .items
            .iter()
            .filter(|i| !i.is_math)
            .filter(|i| !synth_markers.iter().any(|m| i.stem.starts_with(m)))
            .count();
        let nomath = exam.items.iter().filter(|i| !i.is_math).count();
        assert!(exam_style * 10 >= nomath * 9, "{exam_style}/{nomath} stems in exam register");
    }

    #[test]
    fn salience_weighting_prefers_core_curriculum() {
        let ont = ontology();
        let exam = generate(&ont, &AstroConfig::default());
        let exam_salience: f64 = exam
            .items
            .iter()
            .filter(|i| !i.is_math)
            .filter_map(|i| ont.fact(i.fact))
            .map(|f| f.salience)
            .sum::<f64>()
            / exam.no_math_items().len().max(1) as f64;
        let corpus_salience: f64 =
            ont.facts().iter().map(|f| f.salience).sum::<f64>() / ont.facts().len() as f64;
        assert!(
            exam_salience > corpus_salience,
            "exam salience {exam_salience:.3} vs corpus mean {corpus_salience:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_ontology_rejected() {
        let ont = Arc::new(Ontology::generate(&OntologyConfig {
            seed: 1,
            entities_per_kind: 20,
            qualitative_facts: 50,
            quantitative_facts: 10,
        }));
        generate(&ont, &AstroConfig::default());
    }
}
