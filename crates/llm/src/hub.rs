//! [`ModelHub`]: the one way to a completion.
//!
//! The hub owns the simulator that plays every model role (the teacher,
//! judge and classifier, seeded at construction, plus the ontology the
//! teacher grounds questions in) and the per-role [`CallLedger`] — calls,
//! batch sizes and token estimates — that every call is tallied in. The
//! hub counts, it does not time: a call is the simulator's completion and
//! a few counter adds, and the stage that runs it times the batch.
//!
//! Each call kind has its own typed entry point, which takes the fields the
//! role reads plus the call's seed, returns the role's own output type and
//! is served by one generic path: the simulator completes the call, and
//! its prompt-token estimate adds counts its inputs already carry, so no
//! prompt text is built. Nothing is retained between calls: the simulator
//! is a pure function of the call's typed fields and its seed, so a
//! repeated call (the no-math re-answer pass, a repeated `run_cards`)
//! computes the same completion again, at the cost of a lookup. The
//! batched entry points run the same path per item on the caller's pool,
//! so serial and batched execution stay bit-identical *and* identically
//! accounted.

use std::sync::Arc;

use mcqa_ontology::Ontology;
use mcqa_runtime::{run_stage, Executor};

use crate::answer::{AnswerOutcome, Condition, ResolvedModel};
use crate::context::AssembledContext;
use crate::judge::{GradeResult, QualityJudgment};
use crate::ledger::CallLedger;
use crate::mcq::{McqItem, PreparedItem};
use crate::sim::{Answer, Call, Grade, Simulator};
use crate::teacher::{GeneratedQuestion, QuestionPrompt};
use crate::trace::TraceMode;

/// The simulator plus its ledger.
pub struct ModelHub {
    sim: Simulator,
    ledger: CallLedger,
}

impl ModelHub {
    /// The hub over `ontology`, every simulated role seeded from `seed`
    /// (the pipeline's master seed).
    pub fn new(seed: u64, ontology: Arc<Ontology>) -> Self {
        Self { sim: Simulator::new(seed, ontology), ledger: CallLedger::new() }
    }

    /// The call ledger.
    pub fn ledger(&self) -> &CallLedger {
        &self.ledger
    }

    /// The teacher: one 7-option MCQ per prompt, on `exec`'s pool
    /// (index-aligned with `prompts`).
    pub fn questions(
        &self,
        exec: &Executor,
        seed: u64,
        prompts: &[QuestionPrompt<'_>],
    ) -> Vec<GeneratedQuestion> {
        self.serve_batch(exec, seed, prompts)
    }

    /// The teacher: one reasoning trace per (accepted question, mode), the
    /// keyed answer withheld, on `exec`'s pool.
    pub fn traces(
        &self,
        exec: &Executor,
        seed: u64,
        prompts: &[(&McqItem, TraceMode)],
    ) -> Vec<String> {
        self.serve_batch(exec, seed, prompts)
    }

    /// The judge: a 1–10 quality verdict per (candidate, salience of its
    /// fact), on `exec`'s pool.
    pub fn quality_scores(
        &self,
        exec: &Executor,
        seed: u64,
        prompts: &[(&GeneratedQuestion, f64)],
    ) -> Vec<QualityJudgment> {
        self.serve_batch(exec, seed, prompts)
    }

    /// The judge: grade `answer`'s completion against option `correct` of
    /// `n_options`.
    pub fn grade(
        &self,
        seed: u64,
        answer: &AnswerOutcome,
        correct: usize,
        n_options: usize,
    ) -> GradeResult {
        self.serve(seed, &Grade { answer, correct, n_options })
    }

    /// The classifier: whether each item requires mathematical reasoning,
    /// on `exec`'s pool.
    pub fn math_flags(&self, exec: &Executor, seed: u64, items: &[McqItem]) -> Vec<bool> {
        self.serve_batch(exec, seed, items)
    }

    /// An evaluated model answers one prepared item under `condition`. The
    /// item's token count was taken when it was prepared, so a call costs
    /// what depends on the (model, condition, context) and nothing more.
    pub fn answer(
        &self,
        seed: u64,
        model: &ResolvedModel,
        item: &PreparedItem,
        condition: Condition,
        context: Option<&AssembledContext>,
    ) -> AnswerOutcome {
        self.serve(seed, &Answer { model, item, condition, context })
    }

    /// Serve one call: the simulator's completion, tallied in the ledger.
    fn serve<C: Call>(&self, seed: u64, call: &C) -> C::Output {
        let (output, tokens_out) = call.complete(&self.sim, seed);
        self.ledger.record_call(C::ROLE, call.tokens_in(), tokens_out);
        output
    }

    /// Serve a batch, fanned out on `exec`'s pool and tallied as one
    /// submission. Results are index-aligned with `calls` and bit-identical
    /// to serving them one by one.
    fn serve_batch<C: Call>(&self, exec: &Executor, seed: u64, calls: &[C]) -> Vec<C::Output> {
        if !calls.is_empty() {
            self.ledger.record_batch(C::ROLE, calls.len());
        }
        run_stage(exec, "model-batch", (0..calls.len()).collect(), |i| self.serve(seed, &calls[i]))
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    use crate::cards::MODEL_CARDS;
    use crate::ledger::{Role, RoleStats};
    use crate::mcq::BenchKind;
    use crate::sim::tests::prompt;
    use crate::solver::{resolve, PipelineRates};
    use mcqa_ontology::{FactId, OntologyConfig};
    use proptest::prelude::*;

    fn ontology() -> &'static Arc<Ontology> {
        static ONT: OnceLock<Arc<Ontology>> = OnceLock::new();
        ONT.get_or_init(|| {
            Arc::new(Ontology::generate(&OntologyConfig {
                seed: 42,
                entities_per_kind: 30,
                qualitative_facts: 400,
                quantitative_facts: 20,
            }))
        })
    }

    /// The bare simulator: the oracle a hub's completions must equal.
    fn simulator() -> &'static Simulator {
        static SIM: OnceLock<Simulator> = OnceLock::new();
        SIM.get_or_init(|| Simulator::new(42, Arc::clone(ontology())))
    }

    fn fresh_hub() -> ModelHub {
        ModelHub::new(42, Arc::clone(ontology()))
    }

    fn resolved(i: usize) -> ResolvedModel {
        let card = MODEL_CARDS[i % MODEL_CARDS.len()].clone();
        let cal = resolve(&card, &PipelineRates::nominal());
        ResolvedModel::new(card, cal)
    }

    fn item(x: u64) -> McqItem {
        McqItem {
            qid: x,
            bench: BenchKind::Synthetic,
            fact: FactId(x % 50),
            stem: format!("Question number {x} about radiobiology?"),
            options: (0..7).map(|i| format!("candidate {i}")).collect(),
            correct: (x as usize) % 7,
            difficulty: (x % 100) as f64 / 100.0,
            is_math: x.is_multiple_of(3),
        }
    }

    /// What `x` answers: one of eight models, one of five conditions, with
    /// or without a context.
    fn answer_call<'a>(
        x: u64,
        models: &'a [ResolvedModel],
        items: &'a [PreparedItem],
        context: &'a AssembledContext,
    ) -> Answer<'a> {
        Answer {
            model: &models[(x as usize) % models.len()],
            item: &items[(x as usize / 8) % items.len()],
            condition: Condition::all()[(x / 3) as usize % 5],
            context: x.is_multiple_of(2).then_some(context),
        }
    }

    fn fixtures() -> (Vec<ResolvedModel>, Vec<PreparedItem>, AssembledContext) {
        let context = AssembledContext { passages: 3, relevant: true, prompt_tokens: 400 };
        (
            (0..8).map(resolved).collect(),
            (0..6).map(|x| PreparedItem::new(item(x))).collect(),
            context,
        )
    }

    /// A ledger row of `calls` calls in `batches` batches, all batched.
    fn stats(calls: u64, batches: u64, tokens_in: u64, tokens_out: u64) -> RoleStats {
        RoleStats { calls, batches, batched_calls: calls, tokens_in, tokens_out }
    }

    #[test]
    fn hub_teacher_matches_the_direct_simulator() {
        let hub = fresh_hub();
        let direct = crate::teacher::TeacherModel::new(42);
        let facts = &ontology().facts()[..12];
        let prompts: Vec<QuestionPrompt> = facts
            .iter()
            .map(|fact| QuestionPrompt { fact, salt: "c1".into(), passage_tokens: 3 })
            .collect();
        let exec = Executor::global();
        let via = hub.questions(exec, 42, &prompts);
        let expected: Vec<GeneratedQuestion> =
            facts.iter().map(|f| direct.generate_question(ontology(), f, "c1")).collect();
        assert_eq!(via, expected);

        let items: Vec<McqItem> = via
            .iter()
            .map(|q| McqItem {
                qid: 0,
                bench: BenchKind::Synthetic,
                fact: q.fact,
                stem: q.stem.clone(),
                options: q.options.clone(),
                correct: q.recorded_key,
                difficulty: 0.5,
                is_math: false,
            })
            .collect();
        for mode in TraceMode::ALL {
            let asked: Vec<(&McqItem, TraceMode)> = items.iter().map(|q| (q, mode)).collect();
            let expected: Vec<String> =
                items.iter().map(|q| direct.generate_trace(ontology(), q, mode)).collect();
            assert_eq!(hub.traces(exec, 42, &asked), expected);
        }
    }

    #[test]
    fn serving_a_call_twice_runs_the_simulator_twice_and_tallies_it_twice() {
        let hub = fresh_hub();
        let (models, items, context) = fixtures();
        let call = answer_call(4, &models, &items, &context);
        let (expected, answer_tokens) = call.complete(simulator(), 42);
        let grade = Grade { answer: &expected, correct: 0, n_options: 7 };
        let (verdict, grade_tokens) = grade.complete(simulator(), 42);
        for round in 1..=2 {
            let answer = hub.answer(42, call.model, call.item, call.condition, call.context);
            assert_eq!(answer, expected, "hub must not change completions");
            assert_eq!(hub.grade(42, &answer, 0, 7), verdict);
            let answerer = hub.ledger().role(Role::Answerer);
            assert_eq!(
                (answerer.calls, answerer.tokens_in, answerer.tokens_out),
                (round, round * call.tokens_in() as u64, round * answer_tokens as u64)
            );
            let judge = hub.ledger().role(Role::Judge);
            assert_eq!(
                (judge.calls, judge.tokens_in, judge.tokens_out),
                (round, round * grade.tokens_in() as u64, round * grade_tokens as u64)
            );
        }
    }

    #[test]
    fn batch_goes_through_the_same_path() {
        let hub = fresh_hub();
        let items: Vec<McqItem> = (0..20).map(|i| item(i % 2)).collect();
        let exec = Executor::global();

        // An empty batch is served without a trace: callers need not guard it.
        assert!(hub.math_flags(exec, 42, &[]).is_empty());
        assert_eq!(hub.ledger().total(), RoleStats::default());

        let batched = hub.math_flags(exec, 42, &items);
        let serial: Vec<bool> = items.iter().map(|i| i.complete(simulator(), 42).0).collect();
        assert_eq!(batched, serial);
        let tokens_in: usize = items.iter().map(|i| i.tokens_in()).sum();
        let tokens_in = tokens_in as u64;
        assert_eq!(hub.ledger().role(Role::Classifier), stats(20, 1, tokens_in, 3 * 20));

        // A second batch of the same items is served and tallied afresh.
        assert_eq!(hub.math_flags(exec, 42, &items), batched);
        assert_eq!(hub.ledger().role(Role::Classifier), stats(40, 2, 2 * tokens_in, 3 * 40));
    }

    #[test]
    fn every_kind_lands_on_its_own_role() {
        let hub = fresh_hub();
        let exec = Executor::global();
        let (models, items, _) = fixtures();
        let fact = &ontology().facts()[0];
        let q = hub.questions(exec, 42, &[prompt(fact, "c")]).remove(0);
        hub.quality_scores(exec, 42, &[(&q, 0.5)]);
        hub.traces(exec, 42, &[(items[0].item(), TraceMode::Detailed)]);
        hub.math_flags(exec, 42, &[item(4)]);
        let answer = hub.answer(42, &models[0], &items[0], Condition::RagChunks, None);
        hub.grade(42, &answer, 1, 7);
        let calls: Vec<(Role, u64, u64)> =
            hub.ledger().snapshot().into_iter().map(|(r, s)| (r, s.calls, s.batches)).collect();
        assert_eq!(
            calls,
            [
                (Role::Teacher, 2, 2),
                (Role::Judge, 2, 1),
                (Role::Classifier, 1, 1),
                (Role::Answerer, 1, 0),
            ]
        );
    }

    // Properties of the completion surface: a batch is observationally
    // identical to serial completion at any worker count and any split,
    // completions equal the bare simulator's however often they are asked,
    // and the call ledger tallies the same counts whatever the shape.

    proptest! {
        #[test]
        fn batches_are_bit_identical_to_serial(
            keys in proptest::collection::vec(any::<u64>(), 0..24),
        ) {
            let items: Vec<McqItem> = keys.iter().map(|&x| item(x % 40)).collect();
            let serial_hub = fresh_hub();
            let serial_flags: Vec<bool> = items.iter().map(|i| serial_hub.serve(42, i)).collect();
            let bare: Vec<bool> = items.iter().map(|i| i.complete(simulator(), 42).0).collect();
            prop_assert_eq!(&serial_flags, &bare);
            let serial = serial_hub.ledger().role(Role::Classifier);
            for workers in [1usize, 4] {
                let exec = Executor::new(workers);
                let hub = fresh_hub();
                prop_assert_eq!(&hub.math_flags(&exec, 42, &items), &serial_flags, "workers {}", workers);
                let submitted = u64::from(!items.is_empty());
                prop_assert_eq!(
                    hub.ledger().role(Role::Classifier),
                    stats(serial.calls, submitted, serial.tokens_in, serial.tokens_out),
                    "workers {}", workers
                );
            }
        }

        #[test]
        fn repeated_calls_are_observationally_pure(
            keys in proptest::collection::vec(any::<u64>(), 1..16),
        ) {
            // Serve the list twice through a fresh hub: the second pass must
            // be byte-identical to the first, and tallied exactly as it.
            let (models, items, context) = fixtures();
            let calls: Vec<Answer> = keys.iter().map(|&x| answer_call(x, &models, &items, &context)).collect();
            let hub = fresh_hub();
            let serve = |hub: &ModelHub| -> Vec<(AnswerOutcome, GradeResult)> {
                calls
                    .iter()
                    .map(|a| {
                        let answer = hub.answer(42, a.model, a.item, a.condition, a.context);
                        let grade = hub.grade(42, &answer, a.item.item().correct, 7);
                        (answer, grade)
                    })
                    .collect()
            };
            let first = serve(&hub);
            let tallied = hub.ledger().total();
            let second = serve(&hub);
            prop_assert_eq!(&second, &first);
            let total = hub.ledger().total();
            prop_assert_eq!(total.calls, 2 * tallied.calls);
            prop_assert_eq!((total.tokens_in, total.tokens_out), (2 * tallied.tokens_in, 2 * tallied.tokens_out));
            // And the completions equal the bare simulator's.
            for (a, (answer, grade)) in calls.iter().zip(&first) {
                prop_assert_eq!(&a.complete(simulator(), 42).0, answer);
                let g = Grade { answer, correct: a.item.item().correct, n_options: 7 };
                prop_assert_eq!(&g.complete(simulator(), 42).0, grade);
            }
        }

        #[test]
        fn ledger_conserves_counts_across_batch_shapes(
            keys in proptest::collection::vec(any::<u64>(), 1..32),
            split in any::<u64>(),
        ) {
            let items: Vec<McqItem> = keys.iter().map(|&x| item(x % 12)).collect();
            let exec = Executor::new(4);

            // Shape A: one batch. Shape B: two batches split at an arbitrary
            // point. Shape C: all serial.
            let cut = (split as usize) % (items.len() + 1);
            let shapes: [Vec<&[McqItem]>; 3] =
                [vec![&items[..]], vec![&items[..cut], &items[cut..]], vec![]];
            let mut outputs: Vec<Vec<bool>> = Vec::new();
            let mut tallies = Vec::new();
            for (si, shape) in shapes.iter().enumerate() {
                let hub = fresh_hub();
                let mut out = Vec::new();
                if shape.is_empty() {
                    out.extend(items.iter().map(|i| hub.serve(42, i)));
                } else {
                    for part in shape {
                        out.extend(hub.math_flags(&exec, 42, part));
                    }
                }
                let total = hub.ledger().total();
                // Conservation: every item is exactly one call, and every
                // call reaches the simulator.
                prop_assert_eq!(total.calls as usize, items.len(), "shape {}", si);
                prop_assert_eq!(total.backend_calls(), total.calls, "shape {}", si);
                // One batch per non-empty submission.
                let nonempty = shape.iter().filter(|p| !p.is_empty()).count();
                prop_assert_eq!(total.batches as usize, nonempty, "shape {}", si);
                outputs.push(out);
                tallies.push((total.calls, total.tokens_in, total.tokens_out));
            }
            prop_assert_eq!(&outputs[0], &outputs[1], "batch split cannot change results");
            prop_assert_eq!(&outputs[0], &outputs[2], "serial vs batched identical");
            prop_assert_eq!(tallies[0], tallies[1], "batch split cannot change the ledger");
            prop_assert_eq!(tallies[0], tallies[2], "serial vs batched ledgers identical");
        }
    }
}
