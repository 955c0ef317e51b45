//! The evaluator: rate measurement → card calibration → parallel
//! answering → judge grading.

use std::sync::Mutex;

use mcqa_core::PipelineOutput;
use mcqa_llm::answer::Condition;
use mcqa_llm::{
    resolve, AssembledContext, ModelCard, ModelHub, PipelineRates, PreparedItem, ResolvedModel,
    MODEL_CARDS,
};
use mcqa_runtime::{run_stage, Executor, RunReport, StageMetrics};
use mcqa_serve::{QueryMode, QueryService};
use mcqa_util::Accuracy;
use serde::Serialize;

use crate::astro::AstroExam;
use crate::retrieval::{retrieval_service, PassageTexts, RetrievalBundle, Source};

/// One answering pass: its questions, their assembled contexts, and the
/// mask of questions it asks (`None`: all of them).
type Pass<'p> = (&'p [PreparedItem], &'p [[AssembledContext; 4]], Option<&'p [bool]>);

/// Evaluation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Seed for the answer cascade.
    pub seed: u64,
    /// Retrieval depth for RAG (passages per query).
    pub retrieval_k: usize,
    /// Which retrieval channel(s) every bundle queries through — dense
    /// (the default), lexical, or hybrid.
    pub retrieval: QueryMode,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self { seed: 42, retrieval_k: 8, retrieval: QueryMode::Dense }
    }
}

/// Results for one model.
#[derive(Debug, Clone, Serialize)]
pub struct ModelEval {
    /// Model name (Table 1).
    pub name: String,
    /// The calibration the solver produced.
    pub calibration: mcqa_llm::solver::Calibration,
    /// Synthetic benchmark accuracy per condition (paper Table 2).
    pub synth: Vec<(Condition, Accuracy)>,
    /// Astro (all questions) accuracy per condition (Table 3).
    pub(crate) astro_all: Vec<(Condition, Accuracy)>,
    /// Astro no-math accuracy per condition (Table 4).
    pub(crate) astro_nomath: Vec<(Condition, Accuracy)>,
}

impl ModelEval {
    fn lookup(rows: &[(Condition, Accuracy)], cond: Condition) -> f64 {
        rows.iter().find(|(c, _)| *c == cond).map(|(_, a)| a.value()).unwrap_or(0.0)
    }

    /// Accuracy on the synthetic benchmark under `cond`.
    pub fn synth_accuracy(&self, cond: Condition) -> f64 {
        Self::lookup(&self.synth, cond)
    }

    /// Accuracy on the full Astro set under `cond`.
    pub fn astro_all_accuracy(&self, cond: Condition) -> f64 {
        Self::lookup(&self.astro_all, cond)
    }

    /// Accuracy on the Astro no-math subset under `cond`.
    pub(crate) fn astro_nomath_accuracy(&self, cond: Condition) -> f64 {
        Self::lookup(&self.astro_nomath, cond)
    }

    /// Best reasoning-trace accuracy on (all, no-math) Astro sets.
    pub fn astro_best_rt(&self) -> (f64, f64) {
        let best = |rows: &[(Condition, Accuracy)]| {
            rows.iter()
                .filter(|(c, _)| matches!(c, Condition::RagTraces(_)))
                .map(|(_, a)| a.value())
                .fold(0.0, f64::max)
        };
        (best(&self.astro_all), best(&self.astro_nomath))
    }

    /// Best reasoning-trace accuracy on the synthetic benchmark.
    pub fn synth_best_rt(&self) -> f64 {
        self.synth
            .iter()
            .filter(|(c, _)| matches!(c, Condition::RagTraces(_)))
            .map(|(_, a)| a.value())
            .fold(0.0, f64::max)
    }
}

/// A complete evaluation run.
#[derive(Debug, Clone)]
pub struct EvalRun {
    /// Per-model results, in card order.
    pub models: Vec<ModelEval>,
    /// The run's measured usable-hit rates: every model reads the same
    /// contexts, so one set calibrates every card.
    pub rates: PipelineRates,
    /// Synthetic benchmark size.
    pub(crate) synth_questions: usize,
    /// Astro evaluated size (paper: 335).
    pub astro_questions: usize,
    /// Astro no-math subset size (paper: 189).
    pub astro_nomath_questions: usize,
    /// Runtime stage metrics for the evaluation itself (retrieve, assemble,
    /// answer+grade), aggregated across model cards.
    pub report: RunReport,
}

/// The evaluator. Runs every fan-out — retrieval, context assembly, the
/// answer+grade loop — on the pipeline's own [`Executor`], and every model
/// call (classifier, answerers, grading judge) through the pipeline's own
/// model hub, so evaluation lands on the same scheduler, metrics surface
/// and call ledger as the pipeline.
pub struct Evaluator<'a> {
    output: &'a PipelineOutput,
    config: EvalConfig,
    exam: AstroExam,
    /// The synthetic and exam questions, each counted and digested once
    /// for every (card, condition) that answers it.
    synth_items: Vec<PreparedItem>,
    exam_items: Vec<PreparedItem>,
    /// Every (question, source) context of each benchmark, assembled once
    /// and read by every card.
    synth_ctx: Vec<[AssembledContext; 4]>,
    astro_ctx: Vec<[AssembledContext; 4]>,
    /// Which exam questions are not mathematical (Table 4's subset).
    nomath_mask: Vec<bool>,
    /// The usable-hit rates every card is calibrated against.
    rates: PipelineRates,
    hub: &'a ModelHub,
    exec: Executor,
    /// The serving front door every retrieval bundle replays through: the
    /// same admission queue and micro-batching dispatcher online traffic
    /// uses, over the pipeline's own registry, encoder and executor. Each
    /// bundle is one replay over all four sources — one admission unit,
    /// one dispatch, one reply — and both bundles share the service, so a
    /// stem is encoded once however many sources and bundles ask for it.
    /// It is private to this evaluator, so a replay never queues ahead of
    /// online traffic.
    service: QueryService,
    report: Mutex<RunReport>,
    /// Snapshot of the report right after construction: the one-time
    /// retrieval and assembly prep, attributed in full to every run's
    /// report.
    prep_report: RunReport,
}

impl<'a> Evaluator<'a> {
    /// Prepare retrieval, contexts and hit rates for both benchmarks.
    pub fn new(output: &'a PipelineOutput, config: EvalConfig) -> Self {
        let exec = output.executor.clone();
        let hub = &*output.models;
        let exam = AstroExam::generate(&output.ontology, hub, config.seed, &exec);
        let service = retrieval_service(output);
        let texts = PassageTexts::new(output);
        let (synth_bundle, synth_m) = RetrievalBundle::build_metered(
            &texts,
            &output.items,
            config.retrieval_k,
            config.retrieval,
            &service,
        );
        let (astro_bundle, astro_m) = RetrievalBundle::build_metered(
            &texts,
            &exam.items,
            config.retrieval_k,
            config.retrieval,
            &service,
        );
        let synth_items: Vec<_> = output.items.iter().cloned().map(PreparedItem::new).collect();
        let exam_items: Vec<_> = exam.items.iter().cloned().map(PreparedItem::new).collect();
        let (synth_ctx, synth_a) = assemble_all(&exec, &synth_items, &synth_bundle);
        let (astro_ctx, astro_a) = assemble_all(&exec, &exam_items, &astro_bundle);
        let mut report = RunReport::new();
        for m in [synth_m, astro_m, synth_a, astro_a] {
            report.absorb(m);
        }

        // Measured usable-hit rates (the solver's h values).
        let nomath_mask: Vec<bool> = exam.items.iter().map(|i| !i.is_math).collect();
        let synth = Source::ALL.map(|s| synth_bundle.hit_rate(s, None));
        let astro = Source::ALL.map(|s| astro_bundle.hit_rate(s, Some(&nomath_mask)));
        let rates = PipelineRates {
            synth_chunk: synth[0],
            synth_trace: [synth[1], synth[2], synth[3]],
            astro_chunk: astro[0],
            astro_trace: [astro[1], astro[2], astro[3]],
        };
        Self {
            output,
            config,
            synth_items,
            exam_items,
            exam,
            synth_ctx,
            astro_ctx,
            nomath_mask,
            rates,
            hub,
            exec,
            service,
            prep_report: report.clone(),
            report: Mutex::new(report),
        }
    }

    /// Fold one stage execution into the evaluation report.
    fn absorb(&self, m: StageMetrics) {
        self.report.lock().expect("report lock").absorb(m);
    }

    /// The evaluation stage report accumulated so far (retrieve, assemble,
    /// answer+grade rows) — **cumulative** across every card this evaluator
    /// has evaluated. [`Evaluator::run_cards`] attaches a per-run view to
    /// its `EvalRun` instead.
    pub fn report(&self) -> RunReport {
        self.report.lock().expect("report lock").clone()
    }

    /// One run's stage report: the one-time prep rows (retrieval, assembly)
    /// in full, plus — for every other stage — the strict `after − before`
    /// delta. Stages the run never touched contribute nothing, so repeated
    /// runs on one evaluator cannot inherit each other's work.
    fn report_delta(prep: &RunReport, after: &RunReport, before: &RunReport) -> RunReport {
        let mut out = prep.clone();
        for s in after.stages() {
            let zero = StageMetrics::single(&s.name, 0, 0, 0.0);
            let p = before.stages().iter().find(|p| p.name == s.name).unwrap_or(&zero);
            let d = StageMetrics {
                name: s.name.clone(),
                items: s.items - p.items,
                panics: s.panics - p.panics,
                produced: s.produced - p.produced,
                elapsed_secs: s.elapsed_secs - p.elapsed_secs,
            };
            if d.items > 0 || d.produced > 0 || d.elapsed_secs > 0.0 {
                out.absorb(d);
            }
        }
        out
    }

    /// The generated exam.
    pub fn exam(&self) -> &AstroExam {
        &self.exam
    }

    /// Ledger snapshot of the retrieval service every bundle replayed
    /// through (admission, batch-size, and per-stage time accounting).
    pub fn serve_stats(&self) -> mcqa_serve::ServiceSnapshot {
        self.service.stats()
    }

    /// Evaluate one model card against the contexts and rates
    /// [`Evaluator::new`] prepared.
    pub fn evaluate_card(&self, card: &ModelCard) -> ModelEval {
        let calibration = resolve(card, &self.rates);
        let model = ResolvedModel::new(card.clone(), calibration.clone());
        let seed = self.config.seed;

        // One `eval-answer` stage: the synthetic, full-exam and no-math
        // passes under every condition. The no-math pass re-asks full-exam
        // questions; the simulator answers each re-ask afresh, exactly as
        // it answered the full-exam pass.
        let conditions = Condition::all();
        let passes: [Pass<'_>; 3] = [
            (&self.synth_items, &self.synth_ctx, None),
            (&self.exam_items, &self.astro_ctx, None),
            (&self.exam_items, &self.astro_ctx, Some(&self.nomath_mask)),
        ];
        let picked = passes.map(|(items, _, mask)| -> Vec<usize> {
            (0..items.len()).filter(|&i| mask.is_none_or(|m| m[i])).collect()
        });
        // Pass by pass, condition by condition: each (pass, condition)
        // owns one contiguous run of the stage's grades.
        let work: Vec<(usize, Condition, usize)> = picked
            .iter()
            .enumerate()
            .flat_map(|(p, ids)| {
                conditions.iter().flat_map(move |&c| ids.iter().map(move |&i| (p, c, i)))
            })
            .collect();
        let (grades, metrics) = run_stage(&self.exec, "eval-answer", work, |(p, cond, i)| {
            let (items, contexts, _) = passes[p];
            let ctx = match cond {
                Condition::Baseline => None,
                Condition::RagChunks => Some(&contexts[i][0]),
                Condition::RagTraces(m) => Some(&contexts[i][1 + m.index()]),
            };
            let answer = self.hub.answer(seed, &model, &items[i], cond, ctx);
            let question = items[i].item();
            self.hub.grade(seed, &answer, question.correct, question.options.len()).correct
        });
        self.absorb(metrics);
        let mut grades = grades.into_iter();
        let [synth, astro_all, astro_nomath] = picked.map(|ids| {
            let accuracy = |cond| {
                let mut acc = Accuracy::new();
                grades.by_ref().take(ids.len()).for_each(|g| acc.record(g));
                (cond, acc)
            };
            conditions.iter().copied().map(accuracy).collect::<Vec<_>>()
        });

        ModelEval { name: card.name.to_string(), calibration, synth, astro_all, astro_nomath }
    }

    /// Evaluate the paper's full model roster.
    pub fn run(&self) -> EvalRun {
        self.run_cards(&MODEL_CARDS)
    }

    /// Evaluate a custom card list. The attached report covers *this*
    /// run's stage work (plus the shared retrieval prep), so repeated runs
    /// on one evaluator don't inflate each other's numbers.
    pub fn run_cards(&self, cards: &[ModelCard]) -> EvalRun {
        let before = self.report();
        let models = cards.iter().map(|c| self.evaluate_card(c)).collect();
        EvalRun {
            models,
            rates: self.rates,
            synth_questions: self.output.items.len(),
            astro_questions: self.exam.items.len(),
            astro_nomath_questions: self.exam.no_math_items().len(),
            report: Self::report_delta(&self.prep_report, &self.report(), &before),
        }
    }
}

/// The `eval-assemble` stage: every (item, source) context of one
/// benchmark, in [`Source::ALL`] order.
fn assemble_all(
    exec: &Executor,
    items: &[PreparedItem],
    bundle: &RetrievalBundle,
) -> (Vec<[AssembledContext; 4]>, StageMetrics) {
    run_stage(exec, "eval-assemble", (0..items.len()).collect(), |qi| {
        let item = &items[qi];
        Source::ALL.map(|s| {
            mcqa_llm::context::assemble(item.item().fact, item.tokens(), bundle.passages(qi, s))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_core::{Pipeline, PipelineConfig};

    fn eval_run() -> &'static (mcqa_core::PipelineOutput, EvalRun) {
        static OUT: std::sync::OnceLock<(mcqa_core::PipelineOutput, EvalRun)> =
            std::sync::OnceLock::new();
        OUT.get_or_init(|| {
            let output = Pipeline::run(&PipelineConfig::tiny(42));
            let run = {
                let evaluator = Evaluator::new(&output, EvalConfig::default());
                evaluator.run_cards(&MODEL_CARDS)
            };
            (output, run)
        })
    }

    #[test]
    fn run_covers_all_models_and_conditions() {
        let (output, run) = eval_run();
        assert_eq!(run.models.len(), 8);
        assert_eq!(run.synth_questions, output.items.len());
        assert_eq!(run.astro_questions, 335);
        for m in &run.models {
            assert_eq!(m.synth.len(), 5);
            assert_eq!(m.astro_all.len(), 5);
            for (_, acc) in &m.synth {
                assert_eq!(acc.total as usize, run.synth_questions);
            }
            for (_, acc) in &m.astro_all {
                assert_eq!(acc.total as usize, 335);
            }
            for (_, acc) in &m.astro_nomath {
                assert_eq!(acc.total as usize, run.astro_nomath_questions);
            }
        }
    }

    #[test]
    fn report_delta_isolates_one_run() {
        let m =
            |name: &str, items: usize, secs: f64| StageMetrics::single(name, items, items, secs);
        let mut prep = RunReport::new();
        prep.absorb(m("eval-retrieve", 100, 1.0));
        // A first run already happened before this run's snapshot.
        let mut before = prep.clone();
        before.absorb(m("eval-assemble", 40, 0.1));
        before.absorb(m("eval-answer", 500, 2.0));
        // This run answers again but never assembles.
        let mut after = before.clone();
        after.absorb(m("eval-answer", 500, 2.5));
        let delta = Evaluator::report_delta(&prep, &after, &before);
        let get = |n: &str| delta.stages().iter().find(|s| s.name == n);
        assert_eq!(get("eval-retrieve").unwrap().items, 100, "prep carried over whole");
        let answer = get("eval-answer").unwrap();
        assert_eq!(answer.items, 500, "only this run's answering counted");
        assert!((answer.elapsed_secs - 2.5).abs() < 1e-12);
        assert!(get("eval-assemble").is_none(), "untouched stages contribute nothing");
        // A run that did no work reports prep only.
        let empty = Evaluator::report_delta(&prep, &after, &after);
        assert_eq!(empty.stages().len(), 1);
        assert_eq!(empty.stages()[0].name, "eval-retrieve");
    }

    #[test]
    fn eval_report_covers_runtime_stages() {
        // Evaluation runs on the pipeline's scheduler, so its stages must
        // appear on the same metrics surface as the pipeline's.
        let (output, run) = eval_run();
        let n_items = output.items.len();
        let names: Vec<&str> = run.report.stages().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["eval-retrieve", "eval-assemble", "eval-answer"]);
        // Retrieval goes through the timed multi-query path: its row
        // reports a measured questions/s, not an unmeasured inline loop.
        let retrieve = &run.report.stages()[0];
        assert!(retrieve.items > 0 && retrieve.elapsed_secs > 0.0, "{retrieve:?}");
        // Each question's contexts are assembled once, whatever the cards.
        assert_eq!(run.report.stages()[1].items, n_items + run.astro_questions);
        let answer = run.report.stages().iter().find(|s| s.name == "eval-answer").unwrap();
        // 8 cards × 5 conditions × (synth + astro-all + astro-nomath).
        let expected = 8 * 5 * (n_items + run.astro_questions + run.astro_nomath_questions);
        assert_eq!(answer.items, expected);
        assert_eq!(answer.produced, expected, "every answer graded");
        assert!(answer.throughput() > 0.0, "elapsed must be recorded");
    }

    #[test]
    fn evaluation_routes_through_the_shared_model_hub() {
        // Every eval-time model call lands on the pipeline's hub: the
        // ledger accounts for answerer/classifier traffic, the no-math
        // re-answer pass included (its requests repeat the full-exam
        // pass's, and each is served again).
        let (output, run) = eval_run();
        let ledger = output.models.ledger();
        let ans = ledger.role(mcqa_llm::Role::Answerer);
        assert_eq!(
            ans.calls as usize,
            8 * 5 * (run.synth_questions + run.astro_questions + run.astro_nomath_questions),
            "one answer per card × condition × (synthetic, full-exam, no-math) question"
        );
        let clf = ledger.role(mcqa_llm::Role::Classifier);
        assert_eq!(clf.calls as usize, run.astro_questions, "one classification per exam item");
        assert_eq!(clf.batches, 1, "classification is one batched hub call");
        let judge = ledger.role(mcqa_llm::Role::Judge);
        assert!(judge.calls >= ans.calls, "every answer is graded through the judge role");
    }

    #[test]
    fn synthetic_shape_rt_over_chunks_over_baseline() {
        // The paper's headline result must *emerge* from the run.
        let (_, run) = eval_run();
        for m in &run.models {
            let base = m.synth_accuracy(Condition::Baseline);
            let chunks = m.synth_accuracy(Condition::RagChunks);
            let rt = m.synth_best_rt();
            assert!(chunks > base - 0.03, "{}: chunks {chunks:.3} vs baseline {base:.3}", m.name);
            assert!(rt > chunks - 0.03, "{}: rt {rt:.3} vs chunks {chunks:.3}", m.name);
            assert!(rt > base, "{}: rt {rt:.3} vs baseline {base:.3}", m.name);
        }
    }

    #[test]
    fn synthetic_accuracies_near_paper_targets() {
        let (_, run) = eval_run();
        for m in &run.models {
            let card = MODEL_CARDS.iter().find(|c| c.name == m.name).unwrap();
            let base = m.synth_accuracy(Condition::Baseline);
            assert!(
                (base - card.targets.synth_baseline).abs() < 0.05,
                "{}: baseline {base:.3} vs paper {:.3}",
                m.name,
                card.targets.synth_baseline
            );
            let chunks = m.synth_accuracy(Condition::RagChunks);
            // The tiny fixture's chunk-hit rate sits below the solvable
            // range for the strongest chunk targets, so residuals up to
            // ~0.08 are expected here (the scale-0.1 repro run lands within
            // 0.022 — see `repro residuals --scale 0.1`).
            assert!(
                (chunks - card.targets.synth_chunks).abs() < 0.09,
                "{}: chunks {chunks:.3} vs paper {:.3}",
                m.name,
                card.targets.synth_chunks
            );
        }
    }

    #[test]
    fn small_models_gain_most_from_traces() {
        let (_, run) = eval_run();
        let gain = |name: &str| {
            let m = run.models.iter().find(|m| m.name == name).unwrap();
            let b = m.synth_accuracy(Condition::Baseline);
            (m.synth_best_rt() - b) / b.max(1e-9)
        };
        let tiny = gain("TinyLlama-1.1B-Chat");
        let llama31 = gain("Llama-3.1-8B-Instruct");
        assert!(
            tiny > llama31 * 2.0,
            "relative gains must anticorrelate with size: tiny {tiny:.2} vs llama3.1 {llama31:.2}"
        );
    }

    #[test]
    fn every_context_fits_the_smallest_window() {
        // The evaluator assembles each context once for every card, which
        // is only sound while no card's window would drop a passage, under
        // any retrieval mode.
        let (output, run) = eval_run();
        let smallest = MODEL_CARDS.iter().map(|c| c.context_window).min().unwrap();
        let hybrid = QueryMode::Hybrid { fusion: Default::default(), rerank: false, depth: 0 };
        for retrieval in [QueryMode::Dense, QueryMode::Lexical, hybrid] {
            let evaluator =
                Evaluator::new(output, EvalConfig { retrieval, ..EvalConfig::default() });
            let contexts = evaluator.synth_ctx.iter().chain(&evaluator.astro_ctx).flatten();
            let largest = contexts.map(|c| c.prompt_tokens).max().unwrap_or(0);
            let mode = retrieval.label();
            assert!(largest > 0, "{mode}: no context was assembled");
            assert!(
                largest <= smallest,
                "{mode}: a {largest}-token prompt overflows the smallest window \
                 ({smallest} tokens): context-window truncation would bind again, so contexts \
                 and hit rates would be per card"
            );
        }
        for (card, model) in MODEL_CARDS.iter().zip(&run.models) {
            assert_eq!(model.calibration, resolve(card, &run.rates), "one set of rates per run");
        }
    }
}
