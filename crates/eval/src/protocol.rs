//! The evaluator: rate measurement → card calibration → parallel
//! answering → judge grading.

use std::sync::{Arc, Mutex};

use mcqa_core::PipelineOutput;
use mcqa_llm::answer::Condition;
use mcqa_llm::{
    resolve, Answerer, AssembledContext, Classifier, Judge, McqItem, ModelCard, ModelEndpoint,
    PipelineRates, PreparedItem, TraceMode, MODEL_CARDS,
};
use mcqa_runtime::{run_stage_batched, Executor, RunReport, StageMetrics};
use mcqa_serve::{QueryMode, QueryService};
use mcqa_util::Accuracy;
use serde::Serialize;

use crate::astro::{AstroConfig, AstroExam};
use crate::retrieval::{retrieval_service, RetrievalBundle, Source};

/// Evaluation configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EvalConfig {
    /// Seed for the answer cascade.
    pub seed: u64,
    /// Retrieval depth for RAG (passages per query).
    pub retrieval_k: usize,
    /// Which retrieval channel(s) every bundle queries through — dense
    /// (the default), lexical, or hybrid.
    pub retrieval: QueryMode,
    /// Astro exam settings.
    pub astro: AstroConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            retrieval_k: 8,
            retrieval: QueryMode::Dense,
            astro: AstroConfig::default(),
        }
    }
}

/// Results for one model.
#[derive(Debug, Clone, Serialize)]
pub struct ModelEval {
    /// Model name (Table 1).
    pub name: String,
    /// Measured usable-hit rates for this model's context window.
    pub rates: PipelineRates,
    /// The calibration the solver produced.
    pub calibration: mcqa_llm::solver::Calibration,
    /// Synthetic benchmark accuracy per condition (paper Table 2).
    pub synth: Vec<(Condition, Accuracy)>,
    /// Astro (all questions) accuracy per condition (Table 3).
    pub astro_all: Vec<(Condition, Accuracy)>,
    /// Astro no-math accuracy per condition (Table 4).
    pub astro_nomath: Vec<(Condition, Accuracy)>,
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
    pub fn astro_nomath_accuracy(&self, cond: Condition) -> f64 {
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
#[derive(Debug, Clone, Serialize)]
pub struct EvalRun {
    /// Per-model results, in card order.
    pub models: Vec<ModelEval>,
    /// Synthetic benchmark size.
    pub synth_questions: usize,
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
/// model hub, so evaluation lands on the same scheduler, metrics surface,
/// response cache, and call ledger as the pipeline.
pub struct Evaluator<'a> {
    output: &'a PipelineOutput,
    config: EvalConfig,
    exam: AstroExam,
    /// The synthetic and exam questions, each rendered and digested once
    /// for every (card, condition) that answers it.
    synth_items: Vec<Arc<PreparedItem>>,
    exam_items: Vec<Arc<PreparedItem>>,
    synth_bundle: RetrievalBundle,
    astro_bundle: RetrievalBundle,
    endpoint: Arc<dyn ModelEndpoint>,
    judge: Judge,
    exec: Executor,
    /// The serving front door every retrieval bundle replays through: the
    /// same admission queue and micro-batching dispatcher online traffic
    /// uses, over the pipeline's own registry, encoder and executor. Both
    /// bundles share it, so a stem is encoded once however many sources
    /// and bundles ask for it. It is private to this evaluator: a replay
    /// is one dispatch, and it never queues ahead of online traffic.
    service: QueryService,
    report: Mutex<RunReport>,
    /// Snapshot of the report right after construction: the one-time
    /// retrieval prep, attributed in full to every run's report.
    prep_report: RunReport,
}

impl<'a> Evaluator<'a> {
    /// Prepare retrieval for both benchmarks.
    pub fn new(output: &'a PipelineOutput, config: EvalConfig) -> Self {
        let exec = output.executor.clone();
        let endpoint: Arc<dyn ModelEndpoint> = output.models.clone();
        let classifier = Classifier::new(endpoint.clone(), config.seed);
        let exam = AstroExam::generate(&output.ontology, &config.astro, &classifier, &exec);
        let service = retrieval_service(output, config.seed, config.retrieval);
        let (synth_bundle, synth_m) = RetrievalBundle::build_metered(
            output,
            &output.items,
            config.retrieval_k,
            config.retrieval,
            &service,
        );
        let (astro_bundle, astro_m) = RetrievalBundle::build_metered(
            output,
            &exam.items,
            config.retrieval_k,
            config.retrieval,
            &service,
        );
        let mut report = RunReport::new();
        report.absorb(synth_m);
        report.absorb(astro_m);
        let judge = Judge::new(endpoint.clone(), config.seed);
        let prepare = |items: &[McqItem]| {
            items.iter().map(|i| Arc::new(PreparedItem::new(i.clone()))).collect()
        };
        Self {
            output,
            config,
            synth_items: prepare(&output.items),
            exam_items: prepare(&exam.items),
            exam,
            synth_bundle,
            astro_bundle,
            endpoint,
            judge,
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

    /// One run's stage report: the one-time prep rows (`prep`, retrieval)
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
                ok: s.ok - p.ok,
                errors: s.errors - p.errors,
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

    /// Assemble contexts for every (item, source) under one window size.
    fn assemble_all(
        &self,
        items: &[McqItem],
        bundle: &RetrievalBundle,
        window: usize,
    ) -> Vec<[AssembledContext; 4]> {
        let (results, metrics) =
            run_stage_batched(&self.exec, "eval-assemble", (0..items.len()).collect(), 0, |qi| {
                let mk = |s: Source| {
                    mcqa_llm::context::assemble(
                        items[qi].fact,
                        bundle.question_tokens(qi),
                        bundle.passages(qi, s),
                        window,
                    )
                };
                Ok::<_, String>([
                    mk(Source::Chunks),
                    mk(Source::Traces(TraceMode::Detailed)),
                    mk(Source::Traces(TraceMode::Focused)),
                    mk(Source::Traces(TraceMode::Efficient)),
                ])
            });
        self.absorb(metrics);
        results.into_iter().map(|r| r.expect("assembly cannot fail")).collect()
    }

    /// Usable-hit rates over a set of assembled contexts (optionally
    /// restricted by a mask).
    fn hit_rates(contexts: &[[AssembledContext; 4]], mask: Option<&[bool]>) -> [f64; 4] {
        let mut counts = [0usize; 4];
        let mut total = 0usize;
        for (i, cs) in contexts.iter().enumerate() {
            if let Some(m) = mask {
                if !m[i] {
                    continue;
                }
            }
            total += 1;
            for (s, c) in cs.iter().enumerate() {
                if c.relevant_in_window {
                    counts[s] += 1;
                }
            }
        }
        if total == 0 {
            return [0.0; 4];
        }
        [
            counts[0] as f64 / total as f64,
            counts[1] as f64 / total as f64,
            counts[2] as f64 / total as f64,
            counts[3] as f64 / total as f64,
        ]
    }

    /// Evaluate one model card.
    pub fn evaluate_card(&self, card: &ModelCard) -> ModelEval {
        let window = card.context_window;
        let synth_ctx = self.assemble_all(&self.output.items, &self.synth_bundle, window);
        let astro_ctx = self.assemble_all(&self.exam.items, &self.astro_bundle, window);

        // Measured usable-hit rates (the solver's h values).
        let synth_rates = Self::hit_rates(&synth_ctx, None);
        let nomath_mask: Vec<bool> = self.exam.items.iter().map(|i| !i.is_math).collect();
        let astro_rates = Self::hit_rates(&astro_ctx, Some(&nomath_mask));
        let rates = PipelineRates {
            synth_chunk: synth_rates[0],
            synth_trace: [synth_rates[1], synth_rates[2], synth_rates[3]],
            astro_chunk: astro_rates[0],
            astro_trace: [astro_rates[1], astro_rates[2], astro_rates[3]],
        };

        let calibration = resolve(card, &rates);
        let model = Answerer::new(
            self.endpoint.clone(),
            card.clone(),
            calibration.clone(),
            self.config.seed,
        );

        let conditions = Condition::all();

        let run_bench = |items: &[Arc<PreparedItem>],
                         contexts: &[[AssembledContext; 4]],
                         mask: Option<&[bool]>|
         -> Vec<(Condition, Accuracy)> {
            conditions
                .iter()
                .map(|cond| {
                    let picked: Vec<usize> =
                        (0..items.len()).filter(|i| mask.map(|m| m[*i]).unwrap_or(true)).collect();
                    let (grades, metrics) =
                        run_stage_batched(&self.exec, "eval-answer", picked, 0, |i| {
                            let item = &items[i];
                            let ctx = match cond {
                                Condition::Baseline => None,
                                Condition::RagChunks => Some(&contexts[i][0]),
                                Condition::RagTraces(m) => {
                                    let mi =
                                        TraceMode::ALL.iter().position(|x| x == m).expect("mode");
                                    Some(&contexts[i][1 + mi])
                                }
                            };
                            let out = model.answer(item, *cond, ctx);
                            let question = item.item();
                            let grade = self.judge.grade(
                                &out.text,
                                question.correct,
                                question.options.len(),
                            );
                            Ok::<_, String>(grade.correct)
                        });
                    self.absorb(metrics);
                    let mut acc = Accuracy::new();
                    for g in grades {
                        acc.record(g.expect("answering cannot fail"));
                    }
                    (*cond, acc)
                })
                .collect()
        };

        let synth = run_bench(&self.synth_items, &synth_ctx, None);
        let astro_all = run_bench(&self.exam_items, &astro_ctx, None);
        let astro_nomath = run_bench(&self.exam_items, &astro_ctx, Some(&nomath_mask));

        ModelEval {
            name: card.name.to_string(),
            rates,
            calibration,
            synth,
            astro_all,
            astro_nomath,
        }
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
            synth_questions: self.output.items.len(),
            astro_questions: self.exam.items.len(),
            astro_nomath_questions: self.exam.no_math_items().len(),
            report: Self::report_delta(&self.prep_report, &self.report(), &before),
        }
    }
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
        let answer = run.report.stages().iter().find(|s| s.name == "eval-answer").unwrap();
        // 8 cards × 5 conditions × (synth + astro-all + astro-nomath).
        let expected = 8 * 5 * (n_items + run.astro_questions + run.astro_nomath_questions);
        assert_eq!(answer.items, expected);
        assert_eq!(answer.errors, 0);
        assert!(answer.throughput() > 0.0, "elapsed must be recorded");
    }

    #[test]
    fn evaluation_routes_through_the_shared_model_hub() {
        // Every eval-time model call lands on the pipeline's hub: the
        // ledger accounts for answerer/classifier traffic, and the
        // response cache short-circuits the no-math re-answer pass (whose
        // requests are byte-identical to the full-exam pass's).
        let (output, run) = eval_run();
        let ledger = output.models.ledger();
        let ans = ledger.role(mcqa_llm::Role::Answerer);
        let expected_answers =
            8 * 5 * (run.synth_questions + run.astro_questions + run.astro_nomath_questions);
        assert_eq!(ans.calls as usize, expected_answers);
        // Exact on every schedule: answer keys are distinct within a stage,
        // and the no-math pass starts after the full-exam pass has finished.
        // A key that aliased two requests would raise the count, one that
        // split a request would lower it.
        assert_eq!(
            ans.cache_hits as usize,
            8 * 5 * run.astro_nomath_questions,
            "the no-math pass, and nothing else, is served from the cache"
        );
        let clf = ledger.role(mcqa_llm::Role::Classifier);
        assert_eq!(clf.calls as usize, run.astro_questions, "one classification per exam item");
        assert_eq!(clf.batches, 1, "classification is one batched endpoint call");
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
    fn rates_truncation_effect_visible() {
        // A 2k-window model must lose more chunk hits to truncation than a
        // 128k-window model on the same retrievals.
        let (_, run) = eval_run();
        let olmo = run.models.iter().find(|m| m.name == "OLMo-7B").unwrap();
        let gemma = run.models.iter().find(|m| m.name == "Gemma 3 4B-IT").unwrap();
        assert!(
            olmo.rates.synth_chunk <= gemma.rates.synth_chunk + 1e-9,
            "olmo chunk hit {} vs gemma {}",
            olmo.rates.synth_chunk,
            gemma.rates.synth_chunk
        );
    }
}
