//! Quantitative radiobiology facts with exactly computable answers.
//!
//! The Astro exam's maths subset (146 of 335 questions in the paper) asks
//! for dose calculations rather than recall. These use the standard
//! radiobiology formulae, so a simulated model's "maths skill" gates a
//! genuinely different computation path than fact recall:
//!
//! * **Linear-quadratic survival**: `SF = exp(-(αD + βD²))`
//! * **Biologically effective dose**: `BED = n·d·(1 + d/(α/β))`
//! * **Equivalent dose in 2 Gy fractions**: `EQD2 = BED / (1 + 2/(α/β))`
//! * **Radioactive decay**: `A = A₀ · 2^(−t/T½)`
//! * **Inverse square law**: `I₂ = I₁ · (r₁/r₂)²`
//! * **Oxygen enhancement ratio**: `D_hypoxic = OER · D_oxic`

use mcqa_util::KeyedStochastic;

use crate::fact::FactId;
use crate::topic::Topic;

/// The family of quantitative problem a [`QuantFact`] encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MathKind {
    /// Surviving fraction from the linear-quadratic model.
    LqSurvival,
    /// Biologically effective dose of a fractionation schedule.
    Bed,
    /// EQD2 of a fractionation schedule.
    Eqd2,
    /// Source activity after a decay interval.
    Decay,
    /// Dose rate change with distance.
    InverseSquare,
    /// Dose required under hypoxia given an OER.
    Oer,
}

impl MathKind {
    /// All math kinds in canonical order.
    pub(crate) const ALL: [MathKind; 6] = [
        MathKind::LqSurvival,
        MathKind::Bed,
        MathKind::Eqd2,
        MathKind::Decay,
        MathKind::InverseSquare,
        MathKind::Oer,
    ];
}

/// A quantitative fact: parameters plus the exact answer and the distractor
/// values produced by *typical student errors* (dropping the quadratic term,
/// inverting a ratio, halving instead of squaring, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantFact {
    /// Unique id in the same namespace as qualitative facts.
    pub id: FactId,
    /// The problem family.
    pub(crate) kind: MathKind,
    /// Topic bucket (fractionation / radionuclides / hypoxia ...).
    pub(crate) topic: Topic,
    /// Named parameters, rendered into the stem.
    pub(crate) params: Vec<(String, f64)>,
    /// The exact numeric answer.
    pub(crate) answer: f64,
    /// Unit suffix for rendering (e.g. `"Gy"`).
    pub unit: String,
    /// Plausible wrong values from common calculation errors.
    pub(crate) error_answers: Vec<f64>,
    /// Difficulty in `[0, 1]` (arithmetical complexity).
    pub difficulty: f64,
}

impl QuantFact {
    /// Generate the `i`-th quantitative fact deterministically.
    ///
    /// `id_base` offsets the fact-id namespace so quantitative ids never
    /// collide with qualitative ones.
    pub(crate) fn generate(seed: u64, i: u64, id_base: u64) -> QuantFact {
        let rng = KeyedStochastic::new(seed ^ 0x0AB5_010E);
        Self::generate_inner(&rng, i, id_base)
    }

    fn generate_inner(rng: &KeyedStochastic, i: u64, id_base: u64) -> QuantFact {
        let key = i.to_string();
        let kind = MathKind::ALL[rng.below(MathKind::ALL.len(), &["mk", &key])];
        let id = FactId(id_base + i);
        match kind {
            MathKind::LqSurvival => {
                let alpha = 0.1 + 0.05 * rng.below(7, &["a", &key]) as f64; // 0.10..0.40
                let beta = 0.01 + 0.005 * rng.below(7, &["b", &key]) as f64; // 0.01..0.04
                let d = (1 + rng.below(8, &["d", &key])) as f64; // 1..8 Gy
                let answer = (-(alpha * d + beta * d * d)).exp();
                QuantFact {
                    id,
                    kind,
                    topic: Topic::Fractionation,
                    params: vec![
                        ("alpha".into(), alpha),
                        ("beta".into(), beta),
                        ("dose_gy".into(), d),
                    ],
                    answer,
                    unit: "".to_string(),
                    error_answers: vec![
                        (-(alpha * d)).exp(),            // dropped quadratic term
                        (-(beta * d * d)).exp(),         // dropped linear term
                        (-(alpha * d + beta * d)).exp(), // forgot to square
                        (-(alpha + beta) * d * d).exp(), // squared everything
                    ],
                    difficulty: 0.55,
                }
            }
            MathKind::Bed => {
                let n = (2 + rng.below(29, &["n", &key])) as f64; // 2..30 fractions
                let d = (1 + rng.below(6, &["d", &key])) as f64; // 1..6 Gy/fx
                let ab = [2.0, 3.0, 10.0][rng.below(3, &["ab", &key])];
                let answer = n * d * (1.0 + d / ab);
                QuantFact {
                    id,
                    kind,
                    topic: Topic::Fractionation,
                    params: vec![
                        ("n_fractions".into(), n),
                        ("dose_per_fraction_gy".into(), d),
                        ("alpha_beta_gy".into(), ab),
                    ],
                    answer,
                    unit: "Gy".to_string(),
                    error_answers: vec![
                        n * d,                          // forgot the RE term
                        n * d * (1.0 + ab / d),         // inverted ratio
                        d * (1.0 + d / ab),             // forgot fraction count
                        n * d * (1.0 + d / (ab * 2.0)), // halved the ratio
                    ],
                    difficulty: 0.5,
                }
            }
            MathKind::Eqd2 => {
                let n = (3 + rng.below(25, &["n", &key])) as f64;
                let d = (2 + rng.below(5, &["d", &key])) as f64;
                let ab = [3.0, 10.0][rng.below(2, &["ab", &key])];
                let bed = n * d * (1.0 + d / ab);
                let answer = bed / (1.0 + 2.0 / ab);
                QuantFact {
                    id,
                    kind,
                    topic: Topic::Fractionation,
                    params: vec![
                        ("n_fractions".into(), n),
                        ("dose_per_fraction_gy".into(), d),
                        ("alpha_beta_gy".into(), ab),
                    ],
                    answer,
                    unit: "Gy".to_string(),
                    error_answers: vec![
                        bed,                    // reported BED instead
                        n * d,                  // total physical dose
                        bed / (1.0 + ab / 2.0), // inverted correction
                        bed * (1.0 + 2.0 / ab), // multiplied instead of divided
                    ],
                    difficulty: 0.65,
                }
            }
            MathKind::Decay => {
                let a0 = (10 + 10 * rng.below(20, &["a0", &key])) as f64; // 10..200
                let half_life = (2 + rng.below(59, &["hl", &key])) as f64; // 2..60 days
                let t = half_life * [0.5, 1.0, 2.0, 3.0][rng.below(4, &["t", &key])];
                let answer = a0 * (2f64).powf(-t / half_life);
                QuantFact {
                    id,
                    kind,
                    topic: Topic::Radionuclides,
                    params: vec![
                        ("initial_activity_mbq".into(), a0),
                        ("half_life_days".into(), half_life),
                        ("elapsed_days".into(), t),
                    ],
                    answer,
                    unit: "MBq".to_string(),
                    error_answers: vec![
                        a0 * (1.0 - t / half_life).max(0.05),      // linear decay error
                        a0 * (2f64).powf(-half_life / t.max(0.1)), // inverted exponent
                        a0 / (t / half_life).max(0.3),             // division error
                        a0 * (0.5f64).powf(t / half_life) * 0.5,   // extra halving
                    ],
                    difficulty: 0.6,
                }
            }
            MathKind::InverseSquare => {
                let i1 = (20 + 10 * rng.below(20, &["i1", &key])) as f64; // 20..210 cGy/h
                let r1 = (1 + rng.below(4, &["r1", &key])) as f64; // 1..4 m
                let r2 = r1 + (1 + rng.below(5, &["r2", &key])) as f64;
                let answer = i1 * (r1 / r2) * (r1 / r2);
                QuantFact {
                    id,
                    kind,
                    topic: Topic::Radionuclides,
                    params: vec![
                        ("dose_rate_at_r1".into(), i1),
                        ("r1_m".into(), r1),
                        ("r2_m".into(), r2),
                    ],
                    answer,
                    unit: "cGy/h".to_string(),
                    error_answers: vec![
                        i1 * r1 / r2,               // forgot to square
                        i1 * (r2 / r1) * (r2 / r1), // inverted ratio
                        i1 / (r2 - r1).max(0.5),    // linear falloff
                        i1 * (r1 / r2),             // same as forgot-square (kept distinct below)
                    ],
                    difficulty: 0.45,
                }
            }
            MathKind::Oer => {
                let d_oxic = (2 + rng.below(10, &["d", &key])) as f64;
                let oer = [2.5, 2.8, 3.0][rng.below(3, &["oer", &key])];
                let answer = d_oxic * oer;
                QuantFact {
                    id,
                    kind,
                    topic: Topic::Hypoxia,
                    params: vec![("oxic_dose_gy".into(), d_oxic), ("oer".into(), oer)],
                    answer,
                    unit: "Gy".to_string(),
                    error_answers: vec![
                        d_oxic / oer,       // divided instead
                        d_oxic + oer,       // added
                        d_oxic * oer * oer, // squared
                        d_oxic,             // ignored OER
                    ],
                    difficulty: 0.35,
                }
            }
        }
    }

    /// The four distractor values, deduplicated against the answer and each
    /// other at display precision (so no two options print identically).
    pub fn distinct_distractors(&self) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::new();
        let shown = |v: f64| format!("{:.3}", v);
        let answer_s = shown(self.answer);
        for &e in &self.error_answers {
            let s = shown(e);
            if s != answer_s && !out.iter().any(|&o| shown(o) == s) {
                out.push(e);
            }
        }
        // Pad with scaled variants if the error table collided.
        let mut scale = 1.5;
        while out.len() < 4 {
            let candidate = self.answer * scale;
            let s = shown(candidate);
            if s != answer_s && !out.iter().any(|&o| shown(o) == s) {
                out.push(candidate);
            }
            scale += 0.7;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds_sample() -> Vec<QuantFact> {
        (0..200).map(|i| QuantFact::generate(42, i, 1_000_000)).collect()
    }

    #[test]
    fn deterministic() {
        let a = QuantFact::generate(1, 7, 0);
        let b = QuantFact::generate(1, 7, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn covers_every_kind() {
        let sample = all_kinds_sample();
        for kind in MathKind::ALL {
            assert!(sample.iter().any(|q| q.kind == kind), "{kind:?} missing");
        }
    }

    #[test]
    fn answers_are_finite_and_positive() {
        for q in all_kinds_sample() {
            assert!(q.answer.is_finite(), "{q:?}");
            assert!(q.answer > 0.0, "{q:?}");
            for &e in &q.error_answers {
                assert!(e.is_finite());
            }
        }
    }

    #[test]
    fn lq_survival_formula() {
        // Hand-check one LQ instance: α=0.2, β=0.02, D=4 → SF=exp(-1.12)
        let q = QuantFact {
            id: FactId(0),
            kind: MathKind::LqSurvival,
            topic: Topic::Fractionation,
            params: vec![],
            answer: (-(0.2f64 * 4.0 + 0.02 * 16.0)).exp(),
            unit: "".to_string(),
            error_answers: vec![],
            difficulty: 0.5,
        };
        assert!((q.answer - (-1.12f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn bed_hand_example() {
        // 30 × 2 Gy, α/β = 10 → BED = 60 × 1.2 = 72 Gy; EQD2 = 60 Gy.
        let bed: f64 = 30.0 * 2.0 * (1.0 + 2.0 / 10.0);
        assert!((bed - 72.0).abs() < 1e-12);
        let eqd2 = bed / (1.0 + 2.0 / 10.0);
        assert!((eqd2 - 60.0).abs() < 1e-12);
    }

    #[test]
    fn decay_hand_example() {
        // A0=100, T½=10 d, t=20 d → 25.
        let a = 100.0 * (2f64).powf(-20.0 / 10.0);
        assert!((a - 25.0).abs() < 1e-12);
    }

    #[test]
    fn distractors_distinct_from_answer_and_each_other() {
        for q in all_kinds_sample() {
            let ds = q.distinct_distractors();
            assert!(ds.len() >= 4, "{:?}", q.kind);
            let shown = |v: f64| format!("{:.3}", v);
            let mut seen = std::collections::HashSet::new();
            seen.insert(shown(q.answer));
            for d in ds {
                assert!(seen.insert(shown(d)), "duplicate option in {:?}", q.kind);
            }
        }
    }

    #[test]
    fn ids_offset_by_base() {
        let q = QuantFact::generate(5, 3, 7_000);
        assert_eq!(q.id, FactId(7_003));
    }
}
