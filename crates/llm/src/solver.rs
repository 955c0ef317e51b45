//! Inverting the answer cascade: from paper targets + measured retrieval
//! rates to forward simulation parameters.
//!
//! The cascade for a non-math question is
//!
//! ```text
//! acc = F · [ h · (E + (1−E)·P_ctx)  +  (1−h) · P_ctx ]
//!
//! P_self = K + (1−K)·g               (no context: own knowledge)
//! P_ctx  = K·(1−D) + (1−K·(1−D))·g   (context present: distraction
//!                                     competes with knowledge whenever
//!                                     extraction does not succeed)
//! ```
//!
//! where `F` = format reliability, `g` = elimination-adjusted guess
//! probability, `K` = effective knowledge coverage, `D` = distraction
//! susceptibility, `h` = *measured* usable-hit rate and `E` = extraction
//! skill. Baselines give `K` (set `h = 0, D = 0`); each RAG target then
//! gives `E` under the measured `h`. Values clamp to `[0, 1]`; residuals
//! are reported so `repro residuals` can show where the mechanism could
//! not reach the paper's number.

use serde::{Deserialize, Serialize};

use crate::cards::ModelCard;
use crate::trace::TraceMode;

/// Measured usable-hit rates for one model (after its window truncation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineRates {
    /// P(supporting chunk in window | synthetic benchmark question).
    pub synth_chunk: f64,
    /// Same for each trace mode on the synthetic benchmark.
    pub synth_trace: [f64; 3],
    /// P(supporting chunk in window | Astro non-math question).
    pub astro_chunk: f64,
    /// P(supporting trace in window | Astro non-math question), per mode.
    pub astro_trace: [f64; 3],
}

impl PipelineRates {
    /// A neutral default for tests (roughly what the real pipeline yields
    /// for a large-window model).
    pub fn nominal() -> Self {
        Self {
            synth_chunk: 0.85,
            synth_trace: [0.97, 0.97, 0.97],
            astro_chunk: 0.45,
            astro_trace: [0.65, 0.65, 0.65],
        }
    }
}

/// One solved (clamped) parameter with its residual target error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolvedParam {
    /// Which parameter (e.g. `"E[synth,chunks]"`).
    pub name: String,
    /// The clamped value in `[0, 1]`.
    pub value: f64,
    /// `achieved − target` accuracy at the clamped value (0 when the
    /// target was exactly reachable).
    pub residual: f64,
}

/// The forward parameters for one model after calibration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// Effective knowledge coverage on the synthetic benchmark.
    pub k_synth: f64,
    /// Effective knowledge coverage on exam-style questions.
    pub k_exam: f64,
    /// Extraction skill from chunks on the synthetic benchmark.
    pub e_synth_chunk: f64,
    /// Extraction skill from traces (per mode) on the synthetic benchmark.
    pub e_synth_trace: [f64; 3],
    /// Extraction skill from chunks on the exam.
    pub e_exam_chunk: f64,
    /// Extraction skill from traces (per mode) on the exam.
    pub e_exam_trace: [f64; 3],
    /// Math-question accuracy under `[baseline, chunks, traces]`.
    pub math: [f64; 3],
    /// Solve diagnostics.
    pub solved: Vec<SolvedParam>,
}

/// Forward accuracy for given parameters (the cascade above).
///
/// With `h = 0` and `d = 0` this is the no-context baseline; with context
/// present the distraction factor applies to every non-extraction path.
pub fn forward_accuracy(f: f64, h: f64, e: f64, k: f64, d: f64, g: f64) -> f64 {
    let keff = k * (1.0 - d);
    let p_ctx = keff + (1.0 - keff) * g;
    f * (h * (e + (1.0 - e) * p_ctx) + (1.0 - h) * p_ctx)
}

/// Solve `K` from a no-retrieval baseline: `acc = F·(K + (1−K)·g)`.
fn solve_k(target: f64, f: f64, g: f64) -> (f64, f64) {
    let raw = (target / f.max(1e-9) - g) / (1.0 - g).max(1e-9);
    let k = raw.clamp(0.0, 1.0);
    let achieved = f * (k + (1.0 - k) * g);
    (k, achieved - target)
}

/// Solve `E` from a RAG target given the other parameters.
fn solve_e(target: f64, f: f64, h: f64, k: f64, d: f64, g: f64) -> (f64, f64) {
    let keff = k * (1.0 - d);
    let p_ctx = keff + (1.0 - keff) * g;
    let denom = h * (1.0 - p_ctx);
    let raw = if denom <= 1e-9 {
        // Retrieval never hits (or the context path saturates): extraction
        // skill is unidentifiable; keep it at a neutral midpoint.
        0.5
    } else {
        (target / f.max(1e-9) - p_ctx) / denom
    };
    let e = raw.clamp(0.0, 1.0);
    let achieved = forward_accuracy(f, h, e, k, d, g);
    (e, achieved - target)
}

/// Calibrate one model card against measured rates.
pub fn resolve(card: &ModelCard, rates: &PipelineRates) -> Calibration {
    let g7 = card.guess_prob(7);
    let g5 = card.guess_prob(5);
    let t = &card.targets;
    let mut solved = Vec::new();
    let mut record = |name: &str, value: f64, residual: f64| {
        solved.push(SolvedParam { name: name.to_string(), value, residual });
        value
    };

    let (k_synth, r) = solve_k(t.synth_baseline, card.format_synth, g7);
    record("K[synth]", k_synth, r);
    let (k_exam, r) = solve_k(t.astro_nomath_baseline, card.format_exam, g5);
    record("K[exam]", k_exam, r);

    let (e_sc, r) = solve_e(
        t.synth_chunks,
        card.format_synth,
        rates.synth_chunk,
        k_synth,
        card.distraction,
        g7,
    );
    record("E[synth,chunks]", e_sc, r);

    let mut e_synth_trace = [0.0f64; 3];
    for (i, mode) in TraceMode::ALL.iter().enumerate() {
        let (e, r) = solve_e(
            t.synth_rt[i],
            card.format_synth,
            rates.synth_trace[i],
            k_synth,
            card.distraction,
            g7,
        );
        e_synth_trace[i] = e;
        record(&format!("E[synth,{}]", mode.label()), e, r);
    }

    let (e_ec, r) = solve_e(
        t.astro_nomath_chunks,
        card.format_exam,
        rates.astro_chunk,
        k_exam,
        card.distraction,
        g5,
    );
    record("E[exam,chunks]", e_ec, r);

    let mut e_exam_trace = [0.0f64; 3];
    for (i, mode) in TraceMode::ALL.iter().enumerate() {
        let (e, r) = solve_e(
            t.astro_nomath_rt_best,
            card.format_exam,
            rates.astro_trace[i],
            k_exam,
            card.distraction,
            g5,
        );
        e_exam_trace[i] = e;
        record(&format!("E[exam,{}]", mode.label()), e, r);
    }

    let math = t.math_targets();

    Calibration {
        k_synth,
        k_exam,
        e_synth_chunk: e_sc,
        e_synth_trace,
        e_exam_chunk: e_ec,
        e_exam_trace,
        math,
        solved,
    }
}

/// `MODEL_CARDS[i]`, nominally calibrated, for this crate's unit tests.
#[cfg(test)]
pub(crate) fn test_resolved_model(i: usize) -> std::sync::Arc<crate::answer::ResolvedModel> {
    let card = crate::cards::MODEL_CARDS[i].clone();
    let cal = resolve(&card, &PipelineRates::nominal());
    std::sync::Arc::new(crate::answer::ResolvedModel::new(card, cal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cards::MODEL_CARDS;

    #[test]
    fn baseline_roundtrips_through_forward_model() {
        for card in &MODEL_CARDS {
            let cal = resolve(card, &PipelineRates::nominal());
            let g7 = card.guess_prob(7);
            // h = 0 reproduces the baseline exactly (K was solved from it).
            let acc = forward_accuracy(card.format_synth, 0.0, 0.0, cal.k_synth, 0.0, g7);
            assert!(
                (acc - card.targets.synth_baseline).abs() < 1e-9,
                "{}: baseline {acc} vs {}",
                card.name,
                card.targets.synth_baseline
            );
        }
    }

    #[test]
    fn rag_targets_roundtrip_when_unclamped() {
        let rates = PipelineRates::nominal();
        for card in &MODEL_CARDS {
            let cal = resolve(card, &rates);
            let g7 = card.guess_prob(7);
            let acc = forward_accuracy(
                card.format_synth,
                rates.synth_chunk,
                cal.e_synth_chunk,
                cal.k_synth,
                card.distraction,
                g7,
            );
            // Within clamping, the forward model must hit the target.
            let resid = cal.solved.iter().find(|s| s.name == "E[synth,chunks]").unwrap().residual;
            assert!(
                (acc - (card.targets.synth_chunks + resid)).abs() < 1e-9,
                "{}: acc {acc}",
                card.name
            );
        }
    }

    #[test]
    fn all_params_in_unit_interval() {
        for card in &MODEL_CARDS {
            let cal = resolve(card, &PipelineRates::nominal());
            let mut vals = vec![cal.k_synth, cal.k_exam, cal.e_synth_chunk, cal.e_exam_chunk];
            vals.extend(cal.e_synth_trace);
            vals.extend(cal.e_exam_trace);
            vals.extend(cal.math);
            for v in vals {
                assert!((0.0..=1.0).contains(&v), "{}: {v}", card.name);
            }
        }
    }

    #[test]
    fn stronger_models_know_more() {
        let by_name = |n: &str| {
            let c = MODEL_CARDS.iter().find(|c| c.name == n).unwrap();
            resolve(c, &PipelineRates::nominal()).k_synth
        };
        assert!(by_name("Llama-3-8B-Instruct") > by_name("OLMo-7B"));
        assert!(by_name("OLMo-7B") > by_name("TinyLlama-1.1B-Chat"));
    }

    #[test]
    fn trace_extraction_exceeds_chunk_extraction_on_synth() {
        // The paper's central claim, reflected in solved skills under
        // nominal rates: traces are easier to use than chunks.
        for card in &MODEL_CARDS {
            let cal = resolve(card, &PipelineRates::nominal());
            let best_trace = cal.e_synth_trace.iter().cloned().fold(0.0, f64::max);
            assert!(
                best_trace >= cal.e_synth_chunk * 0.9,
                "{}: trace {best_trace} vs chunk {}",
                card.name,
                cal.e_synth_chunk
            );
        }
    }

    #[test]
    fn zero_hit_rate_degenerates_gracefully() {
        let card = &MODEL_CARDS[0];
        let rates = PipelineRates {
            synth_chunk: 0.0,
            synth_trace: [0.0; 3],
            astro_chunk: 0.0,
            astro_trace: [0.0; 3],
        };
        let cal = resolve(card, &rates);
        assert!((0.0..=1.0).contains(&cal.e_synth_chunk));
        // With h=0 the forward accuracy equals the miss branch regardless
        // of E.
        let g7 = card.guess_prob(7);
        let acc = forward_accuracy(
            card.format_synth,
            0.0,
            cal.e_synth_chunk,
            cal.k_synth,
            card.distraction,
            g7,
        );
        assert!(acc < card.targets.synth_chunks, "unreachable target shows as residual");
    }

    #[test]
    fn residuals_reported_for_unreachable_targets() {
        let card = &MODEL_CARDS[1]; // TinyLlama: huge RAG gains
        let rates = PipelineRates {
            synth_chunk: 0.1, // far too low to reach 0.434 from 0.176
            synth_trace: [0.97; 3],
            astro_chunk: 0.45,
            astro_trace: [0.65; 3],
        };
        let cal = resolve(card, &rates);
        let chunk_param = cal.solved.iter().find(|s| s.name == "E[synth,chunks]").unwrap();
        assert!(
            chunk_param.residual < -0.05,
            "clamped solve must report shortfall: {chunk_param:?}"
        );
        assert_eq!(chunk_param.value, 1.0, "skill clamps at its ceiling");
    }
}
