//! The forward answer cascade: a calibrated model answering one MCQ.

use std::borrow::Cow;

use mcqa_text::token_count;
use mcqa_util::{KeyedStochastic, StableHasher};
use serde::Serialize;

use crate::cards::ModelCard;
use crate::context::AssembledContext;
use crate::mcq::{BenchKind, McqItem, OPTION_LETTERS};
use crate::solver::Calibration;
use crate::trace::TraceMode;

/// Which retrieval condition an answer was produced under (None =
/// baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Condition {
    /// Direct prompting, no retrieval.
    Baseline,
    /// RAG from paper chunks.
    RagChunks,
    /// RAG from reasoning traces of the given mode.
    RagTraces(TraceMode),
}

impl Condition {
    /// Label used in tables and reports.
    pub fn label(self) -> &'static str {
        match self {
            Condition::Baseline => "baseline",
            Condition::RagChunks => "rag-chunks",
            Condition::RagTraces(TraceMode::Detailed) => "rag-rt-detailed",
            Condition::RagTraces(TraceMode::Focused) => "rag-rt-focused",
            Condition::RagTraces(TraceMode::Efficient) => "rag-rt-efficient",
        }
    }

    /// All five evaluation conditions in the paper's column order.
    pub fn all() -> [Condition; 5] {
        [
            Condition::Baseline,
            Condition::RagChunks,
            Condition::RagTraces(TraceMode::Detailed),
            Condition::RagTraces(TraceMode::Focused),
            Condition::RagTraces(TraceMode::Efficient),
        ]
    }
}

/// The outcome of one answer attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerOutcome {
    /// Chosen option index (`None` when the output was unparseable).
    pub chosen: Option<usize>,
    /// The raw completion text (what the grading judge sees): borrowed
    /// for every well-formed answer, so a cached outcome clones without
    /// allocating.
    pub text: Cow<'static, str>,
    /// `token_count(text)`, taken where the text is written.
    tokens: usize,
}

impl AnswerOutcome {
    fn new(chosen: Option<usize>, text: Cow<'static, str>) -> Self {
        Self { chosen, tokens: token_count(&text), text }
    }

    /// Tokens the completion text costs: the answer's completion tokens,
    /// and the part of its grading prompt the completion fills.
    pub(crate) fn tokens(&self) -> usize {
        self.tokens
    }
}

/// A model card joined with its calibration — ready to answer questions.
///
/// The pair is digested once, at construction, and is read-only afterwards
/// (crate-private fields, no setter), so [`ResolvedModel::key`] always
/// describes the card and calibration it sits beside. An answer call
/// borrows the model and is addressed in the response cache by that digest.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedModel {
    /// The behaviour card.
    pub(crate) card: ModelCard,
    /// Calibrated forward parameters.
    pub(crate) cal: Calibration,
    /// Digest of `card` and `cal`.
    key: u64,
}

impl ResolvedModel {
    /// Join `card` with `cal` and digest the pair.
    ///
    /// The digest hashes the derive-generated JSON of both halves, which
    /// covers every field by construction — a field added to a card or a
    /// calibration is part of the identity without anyone remembering to
    /// hash it. That costs a few microseconds and runs once per evaluated
    /// card, not once per request.
    pub fn new(card: ModelCard, cal: Calibration) -> Self {
        let mut h = StableHasher::new();
        h.write_str(&serde_json::to_string(&card).expect("model cards serialise"));
        h.write_str(&serde_json::to_string(&cal).expect("calibrations serialise"));
        Self { card, cal, key: h.finish() }
    }

    /// The digest of this model's card and calibration: equal for equal
    /// (card, calibration) pairs, distinct otherwise (up to a 64-bit
    /// collision).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// P(model knows the fact behind `item`), difficulty-modulated.
    fn p_know(&self, item: &McqItem) -> f64 {
        let k = match item.bench {
            BenchKind::Synthetic => self.cal.k_synth,
            BenchKind::AstroExam => self.cal.k_exam,
        };
        // Mild difficulty modulation, mean 1.0 over d ~ U(0,1).
        (k * (1.1 - 0.2 * item.difficulty)).clamp(0.0, 1.0)
    }

    fn format_reliability(&self, bench: BenchKind) -> f64 {
        match bench {
            BenchKind::Synthetic => self.card.format_synth,
            BenchKind::AstroExam => self.card.format_exam,
        }
    }

    fn extraction(&self, bench: BenchKind, cond: Condition) -> f64 {
        match (bench, cond) {
            (_, Condition::Baseline) => 0.0,
            (BenchKind::Synthetic, Condition::RagChunks) => self.cal.e_synth_chunk,
            (BenchKind::Synthetic, Condition::RagTraces(m)) => self.cal.e_synth_trace[m.index()],
            (BenchKind::AstroExam, Condition::RagChunks) => self.cal.e_exam_chunk,
            (BenchKind::AstroExam, Condition::RagTraces(m)) => self.cal.e_exam_trace[m.index()],
        }
    }

    /// Math-question accuracy under `cond` (encodes the empirical
    /// interference effects from Tables 3/4, e.g. Llama-3's RT collapse).
    fn math_accuracy(&self, cond: Condition) -> f64 {
        match cond {
            Condition::Baseline => self.cal.math[0],
            Condition::RagChunks => self.cal.math[1],
            Condition::RagTraces(_) => self.cal.math[2],
        }
    }

    /// Answer one item deterministically (keyed on seed/model/question/
    /// condition). Crate-private: outside callers reach it through
    /// [`crate::ModelHub::answer`], past the cache and ledger.
    pub(crate) fn answer(
        &self,
        item: &McqItem,
        cond: Condition,
        context: Option<&AssembledContext>,
        seed: u64,
    ) -> AnswerOutcome {
        let qid = Decimal::new(item.qid);
        let draws = Draws::new(seed, self.card.name, qid.as_str(), cond);

        let n = item.options.len();

        // Math questions run a separate (empirically calibrated) channel.
        if item.is_math {
            let correct = draws.bern("math", self.math_accuracy(cond));
            let chosen = if correct {
                item.correct
            } else {
                wrong_option(item, draws.pick("math-wrong", n - 1))
            };
            return AnswerOutcome::new(Some(chosen), answer_text(chosen));
        }

        // 1. Answer-format failure: output no parseable letter.
        if !draws.bern("format", self.format_reliability(item.bench)) {
            return AnswerOutcome::new(None, malformed_text(draws.pick("malform", 3), item));
        }

        let knew = draws.bern("know", self.p_know(item));

        // 2. Context extraction path.
        let relevant = context.map(|c| c.relevant_in_window).unwrap_or(false);
        let has_context = context.map(|c| c.passages_in_window > 0).unwrap_or(false);
        let correct = if relevant {
            let e = self.extraction(item.bench, cond);
            if draws.bern("extract", e) {
                true
            } else if knew && !draws.bern("distract", self.card.distraction) {
                // Extraction failed: the (long) context still competes with
                // the model's own knowledge — this is how chunk RAG can
                // *hurt* distractible models even on retrieval hits
                // (paper: OLMo 0.446 → 0.269 on the exam).
                true
            } else {
                draws.bern("guess", self.card.guess_prob(n))
            }
        } else if has_context {
            // Irrelevant context: distraction can override knowledge.
            (knew && !draws.bern("distract", self.card.distraction))
                || draws.bern("guess", self.card.guess_prob(n))
        } else {
            knew || draws.bern("guess", self.card.guess_prob(n))
        };

        let chosen =
            if correct { item.correct } else { wrong_option(item, draws.pick("wrong", n - 1)) };
        AnswerOutcome::new(Some(chosen), answer_text(chosen))
    }
}

/// The completion of a well-formed answer choosing option `chosen`:
/// `format!("Answer: {}", OPTION_LETTERS[chosen])`, as a static string.
fn answer_text(chosen: usize) -> Cow<'static, str> {
    const TEXTS: [&str; OPTION_LETTERS.len()] = [
        "Answer: A",
        "Answer: B",
        "Answer: C",
        "Answer: D",
        "Answer: E",
        "Answer: F",
        "Answer: G",
        "Answer: H",
        "Answer: I",
        "Answer: J",
    ];
    Cow::Borrowed(TEXTS[chosen])
}

/// A `u64` in decimal, formatted on the stack: `as_str` reads what
/// `to_string` would, without the heap.
struct Decimal {
    /// The digits, right-aligned: `u64::MAX` has 20.
    digits: [u8; 20],
    /// Index of the first digit.
    start: usize,
}

impl Decimal {
    fn new(mut x: u64) -> Self {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (x % 10) as u8;
            x /= 10;
            if x == 0 {
                break;
            }
        }
        Self { digits, start }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.digits[self.start..]).expect("decimal digits are ASCII")
    }
}

/// The keyed draws of one (model, question, condition) answer. Each draw
/// hashes the key path `[what, model name, qid, condition label]`, every
/// part borrowed: the qid is formatted once per answer, on the caller's
/// stack, and the label is static.
struct Draws<'a> {
    ks: KeyedStochastic,
    name: &'a str,
    qid: &'a str,
    condition: &'static str,
}

impl<'a> Draws<'a> {
    fn new(seed: u64, name: &'a str, qid: &'a str, condition: Condition) -> Self {
        Self {
            ks: KeyedStochastic::new(seed ^ 0x0511_7A25),
            name,
            qid,
            condition: condition.label(),
        }
    }

    fn bern(&self, what: &str, p: f64) -> bool {
        self.ks.bernoulli(p, &[what, self.name, self.qid, self.condition])
    }

    fn pick(&self, what: &str, n: usize) -> usize {
        self.ks.below(n, &[what, self.name, self.qid, self.condition])
    }
}

/// The `i`-th wrong option (0-based over the distractors).
fn wrong_option(item: &McqItem, i: usize) -> usize {
    let mut idx = i % (item.options.len() - 1);
    if idx >= item.correct {
        idx += 1;
    }
    idx
}

/// Unparseable completions (what a struggling 1B model actually emits).
fn malformed_text(variant: usize, item: &McqItem) -> Cow<'static, str> {
    match variant {
        0 => Cow::Borrowed(""),
        1 => Cow::Owned(format!(
            "This question concerns {}... all of the options seem plausible in some contexts.",
            item.stem.split_whitespace().take(4).collect::<Vec<_>>().join(" ")
        )),
        _ => Cow::Borrowed(
            "I am not able to determine the correct choice from the given information. \
             Multiple answers could apply depending on assumptions.",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cards::MODEL_CARDS;
    use crate::solver::{resolve, PipelineRates};
    use mcqa_ontology::FactId;
    use proptest::prelude::*;

    fn model(i: usize) -> ResolvedModel {
        let card = MODEL_CARDS[i].clone();
        let cal = resolve(&card, &PipelineRates::nominal());
        ResolvedModel::new(card, cal)
    }

    fn item(qid: u64, bench: BenchKind, difficulty: f64) -> McqItem {
        let n = bench.n_options();
        McqItem {
            qid,
            bench,
            fact: FactId(qid),
            stem: format!("Question number {qid} about radiobiology?"),
            options: (0..n).map(|i| format!("candidate {i}")).collect(),
            correct: (qid as usize) % n,
            difficulty,
            is_math: false,
        }
    }

    fn ctx(relevant: bool, passages: usize) -> AssembledContext {
        AssembledContext {
            passages_in_window: passages,
            relevant_in_window: relevant,
            prompt_tokens: 500,
        }
    }

    /// Monte-Carlo accuracy over many items.
    fn mc_accuracy(
        m: &ResolvedModel,
        bench: BenchKind,
        cond: Condition,
        context: impl Fn(u64) -> Option<AssembledContext>,
        n: u64,
    ) -> f64 {
        let mut correct = 0u64;
        for qid in 0..n {
            let it = item(qid, bench, (qid % 100) as f64 / 100.0);
            let out = m.answer(&it, cond, context(qid).as_ref(), 42);
            if out.chosen == Some(it.correct) {
                correct += 1;
            }
        }
        correct as f64 / n as f64
    }

    #[test]
    fn deterministic() {
        let m = model(0);
        let it = item(7, BenchKind::Synthetic, 0.5);
        let a = m.answer(&it, Condition::Baseline, None, 42);
        let b = m.answer(&it, Condition::Baseline, None, 42);
        assert_eq!(a, b);
        let c = m.answer(&it, Condition::Baseline, None, 43);
        // Different seeds can change outcomes (not guaranteed per item, but
        // the structure must stay valid).
        assert!(c.chosen.is_none() || c.chosen.unwrap() < it.options.len());
    }

    #[test]
    fn baseline_matches_target_within_mc_noise() {
        for i in 0..MODEL_CARDS.len() {
            let m = model(i);
            let acc = mc_accuracy(&m, BenchKind::Synthetic, Condition::Baseline, |_| None, 20_000);
            let target = m.card.targets.synth_baseline;
            assert!(
                (acc - target).abs() < 0.015,
                "{}: baseline {acc:.3} vs target {target:.3}",
                m.card.name
            );
        }
    }

    #[test]
    fn full_hit_chunks_match_target_at_nominal_rate() {
        // Supply relevant context at exactly the nominal rate the solver
        // calibrated against: accuracy must land on the table value.
        let rates = PipelineRates::nominal();
        for i in [1usize, 3, 6] {
            // TinyLlama, SmolLM3, Llama-3.1 span the size range.
            let m = model(i);
            let hit = rates.synth_chunk;
            let ks = KeyedStochastic::new(7);
            let acc = mc_accuracy(
                &m,
                BenchKind::Synthetic,
                Condition::RagChunks,
                |qid| Some(ctx(ks.bernoulli(hit, &["hit", &qid.to_string()]), 5)),
                20_000,
            );
            let target = m.card.targets.synth_chunks;
            assert!(
                (acc - target).abs() < 0.02,
                "{}: chunks {acc:.3} vs target {target:.3}",
                m.card.name
            );
        }
    }

    #[test]
    fn traces_beat_chunks_under_calibrated_rates() {
        let rates = PipelineRates::nominal();
        for i in 0..MODEL_CARDS.len() {
            let m = model(i);
            let ks = KeyedStochastic::new(9);
            let chunk_acc = mc_accuracy(
                &m,
                BenchKind::Synthetic,
                Condition::RagChunks,
                |qid| Some(ctx(ks.bernoulli(rates.synth_chunk, &["hc", &qid.to_string()]), 5)),
                12_000,
            );
            let trace_acc = mc_accuracy(
                &m,
                BenchKind::Synthetic,
                Condition::RagTraces(TraceMode::Focused),
                |qid| Some(ctx(ks.bernoulli(rates.synth_trace[1], &["ht", &qid.to_string()]), 5)),
                12_000,
            );
            assert!(
                trace_acc > chunk_acc - 0.02,
                "{}: trace {trace_acc:.3} vs chunk {chunk_acc:.3}",
                m.card.name
            );
        }
    }

    #[test]
    fn irrelevant_context_hurts_distractible_models() {
        let olmo = model(0); // distraction 0.85
        let baseline =
            mc_accuracy(&olmo, BenchKind::AstroExam, Condition::Baseline, |_| None, 15_000);
        let distracted = mc_accuracy(
            &olmo,
            BenchKind::AstroExam,
            Condition::RagChunks,
            |_| Some(ctx(false, 5)),
            15_000,
        );
        assert!(
            distracted < baseline - 0.05,
            "OLMo should collapse under irrelevant context: {distracted:.3} vs {baseline:.3}"
        );
    }

    #[test]
    fn math_channel_reproduces_llama3_rt_collapse() {
        let llama3 = MODEL_CARDS.iter().position(|c| c.name == "Llama-3-8B-Instruct").unwrap();
        let m = model(llama3);
        let mut math_item = item(3, BenchKind::AstroExam, 0.5);
        math_item.is_math = true;
        let mut base = 0;
        let mut rt = 0;
        let n = 10_000;
        for qid in 0..n {
            let mut it = item(qid, BenchKind::AstroExam, 0.5);
            it.is_math = true;
            if m.answer(&it, Condition::Baseline, None, 1).chosen == Some(it.correct) {
                base += 1;
            }
            if m.answer(&it, Condition::RagTraces(TraceMode::Focused), Some(&ctx(true, 5)), 1)
                .chosen
                == Some(it.correct)
            {
                rt += 1;
            }
        }
        let base_acc = base as f64 / n as f64;
        let rt_acc = rt as f64 / n as f64;
        assert!(rt_acc < base_acc - 0.2, "math RT collapse: {rt_acc:.3} vs {base_acc:.3}");
    }

    #[test]
    fn malformed_answers_ungradeable() {
        let tiny = model(1); // format_exam 0.45
        let mut malformed = 0;
        let n = 4_000;
        for qid in 0..n {
            let it = item(qid, BenchKind::AstroExam, 0.5);
            if tiny.answer(&it, Condition::Baseline, None, 11).chosen.is_none() {
                malformed += 1;
            }
        }
        let frac = malformed as f64 / n as f64;
        assert!((frac - 0.55).abs() < 0.05, "malformed fraction {frac}");
    }

    proptest! {
        #[test]
        fn borrowed_key_draws_equal_the_owned_key_path(
            seed in any::<u64>(),
            what in ".{0,12}",
            name in ".{0,24}",
            qid in any::<u64>(),
            cond in 0usize..5,
            p in 0.0f64..1.0,
            n in 1usize..usize::MAX,
        ) {
            // The oracle: the key path as it was built before draws borrowed
            // their parts — four owned strings per draw, collected into a
            // `Vec<&str>`.
            let cond = Condition::all()[cond];
            let key: [String; 4] =
                [what.clone(), name.clone(), qid.to_string(), cond.label().to_string()];
            let parts: Vec<&str> = key.iter().map(String::as_str).collect();
            let ks = KeyedStochastic::new(seed ^ 0x0511_7A25);

            let qid = Decimal::new(qid);
            let draws = Draws::new(seed, &name, qid.as_str(), cond);
            prop_assert_eq!(draws.bern(&what, p), ks.bernoulli(p, &parts));
            prop_assert_eq!(draws.pick(&what, n), ks.below(n, &parts));
        }
    }

    #[test]
    fn wrong_option_never_correct() {
        let it = item(5, BenchKind::Synthetic, 0.2);
        for i in 0..12 {
            assert_ne!(wrong_option(&it, i), it.correct);
        }
    }

    #[test]
    fn condition_labels_unique() {
        let labels: std::collections::HashSet<&str> =
            Condition::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn condition_labels_read_as_formatted() {
        let labels = Condition::all().map(Condition::label);
        assert_eq!(
            labels,
            ["baseline", "rag-chunks", "rag-rt-detailed", "rag-rt-focused", "rag-rt-efficient"]
        );
        for mode in TraceMode::ALL {
            assert_eq!(Condition::RagTraces(mode).label(), format!("rag-rt-{}", mode.label()));
        }
    }

    #[test]
    fn answer_texts_are_the_formatted_bytes() {
        // The grade cache key and the judge both read the text.
        for (i, letter) in OPTION_LETTERS.iter().enumerate() {
            let text = answer_text(i);
            assert!(matches!(text, Cow::Borrowed(_)));
            assert_eq!(text, format!("Answer: {letter}"));
        }
    }

    #[test]
    fn stack_decimal_reads_as_to_string() {
        for x in [0, 9, 10, 99, 100, 1_000_000_007, u64::MAX / 10, u64::MAX - 1, u64::MAX] {
            assert_eq!(Decimal::new(x).as_str(), x.to_string());
        }
    }
}
