//! Rendering the paper's tables and figures from an [`EvalRun`].
//!
//! Every renderer prints the *measured* values in the paper's layout plus
//! a paper-target column block and the per-cell delta, so a write-up can
//! quote the output directly (`repro residuals` prints the calibration
//! residual census).

use mcqa_llm::answer::Condition;
use mcqa_llm::{TraceMode, GPT4_ASTRO_REFERENCE, MODEL_CARDS};
use mcqa_util::stats::relative_improvement_pct;
use serde::Serialize;

use crate::protocol::{EvalRun, ModelEval};

fn paper_card(name: &str) -> &'static mcqa_llm::ModelCard {
    MODEL_CARDS.iter().find(|c| c.name == name).expect("card exists")
}

/// Table 2: synthetic benchmark, five conditions per model.
pub fn render_table2(run: &EvalRun) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 2 — synthetic benchmark ({} questions), measured | paper | Δ\n",
        run.synth_questions
    ));
    out.push_str(&format!(
        "{:<26} {:>21} {:>21} {:>21} {:>21} {:>21}\n",
        "Model", "Baseline", "RAG-Chunks", "RAG-RT-Detail", "RAG-RT-Focused", "RAG-RT-Efficient"
    ));
    out.push_str(&"-".repeat(136));
    out.push('\n');
    let mut max_delta = 0.0f64;
    for m in &run.models {
        let t = &paper_card(&m.name).targets;
        let cells = [
            (m.synth_accuracy(Condition::Baseline), t.synth_baseline),
            (m.synth_accuracy(Condition::RagChunks), t.synth_chunks),
            (m.synth_accuracy(Condition::RagTraces(TraceMode::Detailed)), t.synth_rt[0]),
            (m.synth_accuracy(Condition::RagTraces(TraceMode::Focused)), t.synth_rt[1]),
            (m.synth_accuracy(Condition::RagTraces(TraceMode::Efficient)), t.synth_rt[2]),
        ];
        out.push_str(&format!("{:<26}", m.name));
        for (measured, paper) in cells {
            let delta = measured - paper;
            max_delta = max_delta.max(delta.abs());
            out.push_str(&format!(" {:>6.3}|{:>5.3}|{:>+6.3}", measured, paper, delta));
        }
        out.push('\n');
    }
    out.push_str(&format!("max |Δ| = {max_delta:.3}\n"));
    out
}

/// Tables 3/4 share a layout: baseline / chunks / best-RT.
fn render_astro_table(
    run: &EvalRun,
    title: &str,
    n: usize,
    get: impl Fn(&ModelEval) -> (f64, f64, f64),
    paper: impl Fn(&mcqa_llm::BenchTargets) -> (f64, f64, f64),
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title} ({n} questions), measured | paper | Δ\n"));
    out.push_str(&format!(
        "{:<26} {:>21} {:>21} {:>21}\n",
        "Model", "Baseline", "RAG-Chunks", "RAG-RTs (best)"
    ));
    out.push_str(&"-".repeat(94));
    out.push('\n');
    let mut max_delta = 0.0f64;
    for m in &run.models {
        let t = &paper_card(&m.name).targets;
        let (mb, mc, mr) = get(m);
        let (pb, pc, pr) = paper(t);
        out.push_str(&format!("{:<26}", m.name));
        for (measured, paper) in [(mb, pb), (mc, pc), (mr, pr)] {
            let delta = measured - paper;
            max_delta = max_delta.max(delta.abs());
            out.push_str(&format!(" {:>6.3}|{:>5.3}|{:>+6.3}", measured, paper, delta));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "GPT-4 reference (Astro, Beattie et al. [5]): {GPT4_ASTRO_REFERENCE:.3}; \
         models above it with best-RT: {}\n",
        run.models
            .iter()
            .filter(|m| get(m).2 > GPT4_ASTRO_REFERENCE)
            .map(|m| m.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("max |Δ| = {max_delta:.3}\n"));
    out
}

/// Table 3: Astro exam, all questions.
pub fn render_table3(run: &EvalRun) -> String {
    render_astro_table(
        run,
        "Table 3 — Astro exam (all questions)",
        run.astro_questions,
        |m| {
            (
                m.astro_all_accuracy(Condition::Baseline),
                m.astro_all_accuracy(Condition::RagChunks),
                m.astro_best_rt().0,
            )
        },
        |t| (t.astro_all_baseline, t.astro_all_chunks, t.astro_all_rt_best),
    )
}

/// Table 4: Astro exam, no-math subset.
pub fn render_table4(run: &EvalRun) -> String {
    render_astro_table(
        run,
        "Table 4 — Astro exam (no-math subset)",
        run.astro_nomath_questions,
        |m| {
            (
                m.astro_nomath_accuracy(Condition::Baseline),
                m.astro_nomath_accuracy(Condition::RagChunks),
                m.astro_best_rt().1,
            )
        },
        |t| (t.astro_nomath_baseline, t.astro_nomath_chunks, t.astro_nomath_rt_best),
    )
}

/// Which figure to render (the paper's improvement bar charts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureSeries {
    /// Figure 4: synthetic benchmark.
    Fig4Synthetic,
    /// Figure 5: Astro, all questions.
    Fig5AstroAll,
    /// Figure 6: Astro, no-math subset.
    Fig6AstroNoMath,
}

/// One model's bar pair in an improvement figure.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ImprovementPoint {
    /// Model name.
    pub model: String,
    /// % improvement of best-RT over baseline.
    pub rt_vs_baseline_pct: f64,
    /// % improvement of best-RT over RAG-chunks.
    pub rt_vs_chunks_pct: f64,
}

/// Compute the improvement series for one figure.
pub fn figure_series(run: &EvalRun, fig: FigureSeries) -> Vec<ImprovementPoint> {
    run.models
        .iter()
        .map(|m| {
            let (base, chunks, rt) = match fig {
                FigureSeries::Fig4Synthetic => (
                    m.synth_accuracy(Condition::Baseline),
                    m.synth_accuracy(Condition::RagChunks),
                    m.synth_best_rt(),
                ),
                FigureSeries::Fig5AstroAll => (
                    m.astro_all_accuracy(Condition::Baseline),
                    m.astro_all_accuracy(Condition::RagChunks),
                    m.astro_best_rt().0,
                ),
                FigureSeries::Fig6AstroNoMath => (
                    m.astro_nomath_accuracy(Condition::Baseline),
                    m.astro_nomath_accuracy(Condition::RagChunks),
                    m.astro_best_rt().1,
                ),
            };
            ImprovementPoint {
                model: m.name.clone(),
                rt_vs_baseline_pct: relative_improvement_pct(base, rt).unwrap_or(0.0),
                rt_vs_chunks_pct: relative_improvement_pct(chunks, rt).unwrap_or(0.0),
            }
        })
        .collect()
}

/// Render an improvement figure as a text bar chart.
pub fn render_fig(run: &EvalRun, fig: FigureSeries) -> String {
    let title = match fig {
        FigureSeries::Fig4Synthetic => "Figure 4 — % accuracy improvement (synthetic benchmark)",
        FigureSeries::Fig5AstroAll => "Figure 5 — % accuracy improvement (Astro, all questions)",
        FigureSeries::Fig6AstroNoMath => "Figure 6 — % accuracy improvement (Astro, no-math)",
    };
    let series = figure_series(run, fig);
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!(
        "{:<26} {:>14} {:>14}  (bars: ▇ = 10%)\n",
        "Model", "RT vs base", "RT vs chunks"
    ));
    out.push_str(&"-".repeat(90));
    out.push('\n');
    for p in &series {
        let bar = |pct: f64| -> String {
            let blocks = (pct.abs() / 10.0).round() as usize;
            let glyph = if pct >= 0.0 { "▇" } else { "▼" };
            glyph.repeat(blocks.min(40))
        };
        out.push_str(&format!(
            "{:<26} {:>+13.1}% {:>+13.1}%  {} | {}\n",
            p.model,
            p.rt_vs_baseline_pct,
            p.rt_vs_chunks_pct,
            bar(p.rt_vs_baseline_pct),
            bar(p.rt_vs_chunks_pct),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcqa_util::Accuracy;

    /// A hand-built run (no pipeline) for fast renderer tests.
    fn fake_run() -> EvalRun {
        let mk_acc = |p: f64, n: u64| Accuracy { correct: (p * n as f64).round() as u64, total: n };
        let conds = Condition::all();
        let models = MODEL_CARDS
            .iter()
            .map(|c| {
                let t = &c.targets;
                let synth_vals =
                    [t.synth_baseline, t.synth_chunks, t.synth_rt[0], t.synth_rt[1], t.synth_rt[2]];
                let astro_vals = [
                    t.astro_all_baseline,
                    t.astro_all_chunks,
                    t.astro_all_rt_best,
                    t.astro_all_rt_best,
                    t.astro_all_rt_best,
                ];
                let nomath_vals = [
                    t.astro_nomath_baseline,
                    t.astro_nomath_chunks,
                    t.astro_nomath_rt_best,
                    t.astro_nomath_rt_best,
                    t.astro_nomath_rt_best,
                ];
                ModelEval {
                    name: c.name.to_string(),
                    rates: mcqa_llm::PipelineRates::nominal(),
                    calibration: mcqa_llm::resolve(c, &mcqa_llm::PipelineRates::nominal()),
                    synth: conds
                        .iter()
                        .zip(synth_vals)
                        .map(|(c, v)| (*c, mk_acc(v, 1000)))
                        .collect(),
                    astro_all: conds
                        .iter()
                        .zip(astro_vals)
                        .map(|(c, v)| (*c, mk_acc(v, 335)))
                        .collect(),
                    astro_nomath: conds
                        .iter()
                        .zip(nomath_vals)
                        .map(|(c, v)| (*c, mk_acc(v, 189)))
                        .collect(),
                }
            })
            .collect();
        EvalRun {
            models,
            synth_questions: 1000,
            astro_questions: 335,
            astro_nomath_questions: 189,
            report: mcqa_runtime::RunReport::new(),
        }
    }

    #[test]
    fn table2_lists_models_and_small_deltas() {
        let run = fake_run();
        let t = render_table2(&run);
        for c in &MODEL_CARDS {
            assert!(t.contains(c.name), "{t}");
        }
        // The fake run IS the paper: deltas must be rounding-only.
        assert!(t.contains("max |Δ| = 0.00"), "{t}");
    }

    #[test]
    fn table3_reports_gpt4_reference() {
        let run = fake_run();
        let t = render_table3(&run);
        assert!(t.contains("GPT-4 reference"));
        // Paper: SmolLM3 (0.772) and Llama-3.1 (0.686) clear the 0.60 line.
        assert!(t.contains("SmolLM3-3B"));
    }

    #[test]
    fn table4_uses_nomath_counts() {
        let run = fake_run();
        let t = render_table4(&run);
        assert!(t.contains("(189 questions)"), "{t}");
    }

    #[test]
    fn figure_series_match_paper_directions() {
        let run = fake_run();
        let fig4 = figure_series(&run, FigureSeries::Fig4Synthetic);
        for p in &fig4 {
            assert!(p.rt_vs_baseline_pct > 0.0, "{p:?}");
            assert!(p.rt_vs_chunks_pct > 0.0, "{p:?}");
        }
        // TinyLlama's relative gain dwarfs Llama-3.1's (paper: ~4× vs ~12%).
        let tiny = fig4.iter().find(|p| p.model.contains("TinyLlama")).unwrap();
        let llama = fig4.iter().find(|p| p.model.contains("3.1")).unwrap();
        assert!(tiny.rt_vs_baseline_pct > 200.0, "{tiny:?}");
        assert!(llama.rt_vs_baseline_pct < 20.0, "{llama:?}");

        // Figure 5: chunk-RAG beats RT for Llama-3 on Astro-all (negative bar).
        let fig5 = figure_series(&run, FigureSeries::Fig5AstroAll);
        let llama3 = fig5.iter().find(|p| p.model == "Llama-3-8B-Instruct").unwrap();
        assert!(llama3.rt_vs_baseline_pct < 0.0, "{llama3:?}");

        // Figure 6: all positive vs baseline.
        let fig6 = figure_series(&run, FigureSeries::Fig6AstroNoMath);
        for p in &fig6 {
            assert!(p.rt_vs_baseline_pct > 0.0, "{p:?}");
        }
    }

    #[test]
    fn figures_render_with_bars() {
        let run = fake_run();
        for fig in
            [FigureSeries::Fig4Synthetic, FigureSeries::Fig5AstroAll, FigureSeries::Fig6AstroNoMath]
        {
            let text = render_fig(&run, fig);
            assert!(text.contains("Figure"));
            assert!(text.contains('%'));
            assert!(text.lines().count() >= 11, "{text}");
        }
    }
}
