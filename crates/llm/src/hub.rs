//! [`ModelHub`]: the one way to a completion.
//!
//! The hub owns the simulator that plays every model role (the teacher,
//! judge and classifier, seeded at construction, plus the ontology the
//! teacher grounds questions in) and stacks the two services every caller
//! goes through:
//!
//! * the content-addressed [`ResponseCaches`] — repeated calls (the
//!   no-math re-answer pass, repeated `run_cards`, ablations) short-circuit
//!   without touching the simulator;
//! * the per-role [`CallLedger`] — calls, batch sizes, token estimates,
//!   cache hit rate.
//!
//! Each call kind has its own typed entry point, which takes the fields the
//! role reads plus the call's seed, returns the role's own output type and
//! is served by one generic path: the kind's key walks its typed fields
//! (only for a kind that is cached at all), its prompt-token estimate adds
//! counts its inputs already carry, and no prompt text is built. The
//! batched entry points run the same path per item on the caller's pool, so
//! serial and batched execution stay bit-identical *and* identically
//! accounted.

use std::sync::Arc;
use std::time::Instant;

use mcqa_ontology::Ontology;
use mcqa_runtime::{run_stage, Executor};
use mcqa_util::StableHasher;

use crate::answer::{AnswerOutcome, Condition, ResolvedModel};
use crate::context::AssembledContext;
use crate::judge::{GradeResult, QualityJudgment};
use crate::ledger::CallLedger;
use crate::mcq::{McqItem, PreparedItem};
use crate::response_cache::ResponseCaches;
use crate::sim::{Answer, Call, Grade, Simulator};
use crate::teacher::{GeneratedQuestion, QuestionPrompt};
use crate::trace::TraceMode;

/// The simulator plus its caches and ledger.
pub struct ModelHub {
    sim: Simulator,
    cache: ResponseCaches,
    ledger: CallLedger,
}

impl ModelHub {
    /// The hub over `ontology`, every simulated role seeded from `seed`
    /// (the pipeline's master seed).
    pub fn new(seed: u64, ontology: Arc<Ontology>) -> Self {
        Self {
            sim: Simulator::new(seed, ontology),
            cache: ResponseCaches::default(),
            ledger: CallLedger::new(),
        }
    }

    /// The call ledger.
    pub fn ledger(&self) -> &CallLedger {
        &self.ledger
    }

    /// The response caches.
    pub fn cache(&self) -> &ResponseCaches {
        &self.cache
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
    /// item's count and digest were taken when it was prepared, so a call
    /// costs what depends on the (model, condition, context) and nothing
    /// more.
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

    /// Serve one call through its kind's cache, tallying the ledger.
    ///
    /// A kind that is not cached ([`Call::CACHED`] is `None`) hashes no key
    /// and retains nothing; its ledger accounting is that of a simulator
    /// call, exactly as when it was a guaranteed cache miss.
    ///
    /// A cached kind is single-flight
    /// ([`crate::ResponseCache::get_or_complete`]): only the caller that
    /// runs the simulator records a miss, and one that arrives while that
    /// completion is in flight waits for it and records a hit. A waiter may
    /// occupy a pool worker, so a completion must not wait on work it
    /// submits to that pool; the simulator submits none.
    fn serve<C: Call>(&self, seed: u64, call: &C) -> C::Output {
        let (mut busy, mut tokens_out) = (0, 0);
        let mut simulate = || {
            let start = Instant::now();
            let (output, tokens) = call.complete(&self.sim, seed);
            busy = start.elapsed().as_nanos() as u64;
            tokens_out = tokens;
            output
        };
        let (output, completed) = match C::CACHED {
            Some(cached) => {
                let mut h = StableHasher::new();
                (cached.key)(call, &mut h);
                h.write_u64(seed);
                (cached.cache)(&self.cache).get_or_complete(h.finish(), simulate)
            }
            None => (simulate(), true),
        };
        let tokens_in = if completed { call.tokens_in() } else { 0 };
        self.ledger.record_call(C::ROLE, !completed, tokens_in, tokens_out, busy);
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
    use crate::sim::tests::{key, prompt};
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
    fn cache_short_circuits_and_matches_the_simulator() {
        let hub = fresh_hub();
        let (models, items, _) = fixtures();
        let answer = hub.answer(42, &models[0], &items[0], Condition::Baseline, None);
        let direct = Answer {
            model: &models[0],
            item: &items[0],
            condition: Condition::Baseline,
            context: None,
        };
        assert_eq!(answer, direct.complete(simulator(), 42).0, "hub must not change completions");
        let first = hub.grade(42, &answer, 0, 7);
        assert_eq!(
            first,
            Grade { answer: &answer, correct: 0, n_options: 7 }.complete(simulator(), 42).0
        );
        assert_eq!(hub.cache().len(), 2, "one answer, one grade");
        assert_eq!(hub.grade(42, &answer, 0, 7), first, "cached completion is indistinguishable");
        assert_eq!(hub.cache().len(), 2);

        let judge = hub.ledger().role(Role::Judge);
        assert_eq!((judge.calls, judge.cache_hits, judge.backend_calls()), (2, 1, 1));
        assert_eq!(judge.tokens_in as usize, 11 + answer.tokens(), "a hit costs no tokens");
        let answerer = hub.ledger().role(Role::Answerer);
        assert_eq!((answerer.calls, answerer.tokens_out as usize), (1, answer.tokens()));
    }

    #[test]
    fn once_only_kinds_bypass_the_cache_without_changing_completions() {
        let hub = fresh_hub();
        let exec = Executor::global();
        let prompts: Vec<QuestionPrompt> =
            ontology().facts()[..3].iter().map(|f| prompt(f, "s0")).collect();

        let first = hub.questions(exec, 42, &prompts);
        let bare: Vec<_> = prompts.iter().map(|p| p.complete(simulator(), 42).0).collect();
        assert_eq!(first, bare, "hub must not change completions");
        assert!(hub.cache().is_empty(), "once-only calls retain nothing");
        // Serving the same prompts again is still correct (deterministic
        // simulator), it just pays the simulator instead of the cache.
        assert_eq!(hub.questions(exec, 42, &prompts), first);
        let teacher = hub.ledger().role(Role::Teacher);
        assert_eq!((teacher.calls, teacher.batches, teacher.cache_hits), (6, 2, 0));
        assert_eq!(teacher.backend_calls(), 6);
        let tokens_in: usize = prompts.iter().map(|p| p.tokens_in()).sum();
        assert_eq!(teacher.tokens_in as usize, 2 * tokens_in);

        // A cached kind on the same hub still short-circuits.
        let flags = [item(1), item(1)];
        hub.math_flags(exec, 42, &flags);
        assert_eq!(hub.cache().len(), 1);
        assert_eq!(hub.ledger().role(Role::Classifier).cache_hits, 1);
    }

    #[test]
    fn batch_goes_through_the_same_cached_path() {
        let hub = fresh_hub();
        let items: Vec<McqItem> = (0..20).map(|i| item(i % 2)).collect();
        let exec = Executor::global();

        // An empty batch is served without a trace: callers need not guard it.
        assert!(hub.math_flags(exec, 42, &[]).is_empty());
        assert_eq!(hub.ledger().total(), RoleStats::default());
        assert!(hub.cache().is_empty());

        let batched = hub.math_flags(exec, 42, &items);
        let cold = hub.ledger().role(Role::Classifier);
        assert_eq!((cold.calls, cold.batches, cold.batched_calls), (20, 1, 20));
        // Only two distinct completions exist and each is stored once.
        // Items running side by side that touch one key first wait for a
        // single completion, so exactly one item per key reached the
        // simulator, on any schedule.
        assert_eq!(hub.cache().len(), 2);
        assert_eq!(cold.backend_calls(), 2);
        assert_eq!(cold.cache_hits, 18);

        // With both keys stored, every item of a second batch reads the
        // cache and none reaches the simulator.
        assert_eq!(hub.math_flags(exec, 42, &items), batched);
        let warm = hub.ledger().role(Role::Classifier);
        assert_eq!((warm.calls, warm.batches, warm.batched_calls), (40, 2, 40));
        assert_eq!(warm.cache_hits, cold.cache_hits + 20);
        assert_eq!(warm.backend_calls(), cold.backend_calls());

        // Another seed is another identity.
        hub.math_flags(exec, 43, &items[..1]);
        assert_eq!(hub.cache().len(), 3);
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
        assert_eq!(hub.cache().len(), 3, "flag, answer, grade");
    }

    // Properties of the completion surface: a batch is observationally
    // identical to serial completion at any worker count, the response
    // cache is a pure short-circuit, and the call ledger conserves counts
    // across batch shapes.

    proptest! {
        #[test]
        fn batches_are_bit_identical_to_serial(
            keys in proptest::collection::vec(any::<u64>(), 0..24),
        ) {
            let items: Vec<McqItem> = keys.iter().map(|&x| item(x % 40)).collect();
            let serial_flags: Vec<_> = items.iter().map(|i| i.complete(simulator(), 42).0).collect();
            for workers in [1usize, 4] {
                let exec = Executor::new(workers);
                let hub = fresh_hub();
                prop_assert_eq!(&hub.math_flags(&exec, 42, &items), &serial_flags, "workers {}", workers);
            }
        }

        #[test]
        fn cache_short_circuit_is_observationally_pure(
            keys in proptest::collection::vec(any::<u64>(), 1..16),
        ) {
            // Serve the list twice through a fresh hub: the second pass is
            // all cache hits and must be byte-identical to the first.
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
            let cached = hub.cache().len();
            let tallied = hub.ledger().total();
            let second = serve(&hub);
            prop_assert_eq!(&second, &first);
            prop_assert_eq!(hub.cache().len(), cached, "second pass adds nothing");
            let total = hub.ledger().total();
            prop_assert_eq!(total.calls, 2 * tallied.calls);
            prop_assert_eq!(total.cache_hits, tallied.cache_hits + tallied.calls, "every repeat is a hit");
            prop_assert_eq!((total.tokens_in, total.tokens_out), (tallied.tokens_in, tallied.tokens_out));
            // And the cached completions equal the bare simulator's.
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
                // Conservation: every item is exactly one call, and the
                // simulator served each distinct key once — concurrent first
                // touches of one key share a single completion.
                let distinct: std::collections::HashSet<u64> =
                    items.iter().map(|i| key(i, 42)).collect();
                prop_assert_eq!(total.calls as usize, items.len(), "shape {}", si);
                prop_assert_eq!(hub.cache().len(), distinct.len(), "shape {}", si);
                prop_assert_eq!(total.backend_calls() as usize, distinct.len(), "shape {}", si);
                // One batch per non-empty submission.
                let nonempty = shape.iter().filter(|p| !p.is_empty()).count();
                prop_assert_eq!(total.batches as usize, nonempty, "shape {}", si);
                outputs.push(out);
            }
            prop_assert_eq!(&outputs[0], &outputs[1], "batch split cannot change results");
            prop_assert_eq!(&outputs[0], &outputs[2], "serial vs batched identical");
        }
    }

    #[test]
    fn a_model_is_digested_from_its_card_and_its_calibration() {
        // One calibration source, eight cards: eight digests, reproducibly.
        let digests: std::collections::HashSet<u64> =
            (0..MODEL_CARDS.len()).map(|i| resolved(i).key()).collect();
        assert_eq!(digests.len(), MODEL_CARDS.len());
        assert_eq!(resolved(3).key(), resolved(3).key());
        // One card, two calibrations: the solver's output is part of the
        // identity, down to one perturbed measured rate.
        let card = &MODEL_CARDS[3];
        let nominal = PipelineRates::nominal();
        let perturbed = PipelineRates { synth_chunk: nominal.synth_chunk - 0.01, ..nominal };
        let key = |rates| ResolvedModel::new(card.clone(), resolve(card, rates)).key();
        assert_ne!(key(&nominal), key(&perturbed));
    }
}
