//! The metric registry and the result a run prints.
//!
//! `BENCHMARK.json` at the repo root lists these same names; a unit test
//! keeps the two in step. Every workload prints every registered metric of
//! the requested kind — a per-layer metric of a layer the workload bypasses
//! reads 0, which is itself the evidence that the layer is bypassed.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::stats::{summarize, Summary};

pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

/// `(name, unit, better, bound)` of the end-to-end metrics. What
/// `primary_ms`, `secondary_ms` and `throughput_per_s` measure is fixed per
/// workload; see the README table.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("primary_ms", "ms", LOWER, 0.25),
    ("secondary_ms", "ms", LOWER, 0.25),
    ("throughput_per_s", "1/s", HIGHER, 0.25),
    ("setup_s", "s", LOWER, 0.25),
];

/// `(name, unit, better)` of the per-layer metrics (traced pass).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // Every workload.
    ("trace_overhead_share", "ratio", LOWER),
    ("calib_drift_share", "ratio", LOWER),
    ("host_steal_share", "ratio", LOWER),
    ("host.calib_dot_gbps", "GB/s", HIGHER),
    ("host.speed_factor", "ratio", LOWER),
    ("runtime.cpu_share", "ratio", HIGHER),
    ("peak_rss_mb", "MB", LOWER),
    ("layer.core.self_share", "ratio", LOWER),
    ("layer.ontology.self_share", "ratio", LOWER),
    ("layer.corpus.self_share", "ratio", LOWER),
    ("layer.parse.self_share", "ratio", LOWER),
    ("layer.text.self_share", "ratio", LOWER),
    ("layer.embed.self_share", "ratio", LOWER),
    ("layer.index.self_share", "ratio", LOWER),
    ("layer.lexical.self_share", "ratio", LOWER),
    ("layer.serve.self_share", "ratio", LOWER),
    ("layer.eval.self_share", "ratio", LOWER),
    ("layer.util.self_share", "ratio", LOWER),
    // paper-repro.
    ("build_s", "s", LOWER),
    ("eval_s", "s", LOWER),
    ("registry_mb", "MB", LOWER),
    ("ontology.generate_s", "s", LOWER),
    ("corpus.build_s", "s", LOWER),
    ("parse.docs_per_s", "1/s", HIGHER),
    ("parse.unparseable", "count", LOWER),
    ("text.chunk_docs_per_s", "1/s", HIGHER),
    ("text.chunks", "count", HIGHER),
    ("embed.encode_texts_per_s", "1/s", HIGHER),
    ("index.flat.build_vec_per_s", "1/s", HIGHER),
    ("lexical.build_docs_per_s", "1/s", HIGHER),
    ("llm.calls", "count", LOWER),
    ("llm.backend_calls", "count", LOWER),
    ("llm.cache_hit_rate", "ratio", HIGHER),
    ("runtime.build_speedup_w1", "ratio", HIGHER),
    ("eval.prep_s", "s", LOWER),
    ("eval.card_s", "s", LOWER),
    ("eval.answers_per_s", "1/s", HIGHER),
    ("serve.eval.mean_batch", "count", HIGHER),
    ("serve.eval.search_s", "s", LOWER),
    ("serve.eval.encode_s", "s", LOWER),
    // serve-online.
    ("serve_p50_ms", "ms", LOWER),
    ("serve_p99_ms", "ms", LOWER),
    ("serve_qps", "1/s", HIGHER),
    ("serve.closed.p50_ms", "ms", LOWER),
    ("serve.closed.p90_ms", "ms", LOWER),
    ("serve.closed.p99_ms", "ms", LOWER),
    ("serve.single.mean_ms", "ms", LOWER),
    ("serve.low.p50_ms", "ms", LOWER),
    ("serve.low.p99_ms", "ms", LOWER),
    ("serve.high.p50_ms", "ms", LOWER),
    ("serve.high.p99_ms", "ms", LOWER),
    ("serve.mid.within_limit_share", "ratio", HIGHER),
    ("serve.max_rate_within_limit", "1/s", HIGHER),
    ("serve.gen_late_p99_ms", "ms", LOWER),
    ("serve.queue_ms_mean", "ms", LOWER),
    ("serve.encode_ms_mean", "ms", LOWER),
    ("serve.search_ms_mean", "ms", LOWER),
    ("serve.mean_batch", "count", HIGHER),
    ("serve.fast_path_share", "ratio", HIGHER),
    ("serve.admitted", "count", HIGHER),
    ("serve.rejected", "count", LOWER),
    ("serve.dense.p50_ms", "ms", LOWER),
    ("serve.lexical.p50_ms", "ms", LOWER),
    ("serve.hybrid.p50_ms", "ms", LOWER),
    ("serve.dense.qps", "1/s", HIGHER),
    ("serve.lexical.qps", "1/s", HIGHER),
    ("serve.hybrid.qps", "1/s", HIGHER),
    ("serve.hybrid_over_dense_qps", "ratio", HIGHER),
    ("serve.direct_p50_ms", "ms", LOWER),
    ("serve.overhead_ms", "ms", LOWER),
    ("embed.encode_query_us", "us", LOWER),
    ("embed.panel_resident_mb", "MB", LOWER),
    ("lexical.search_us", "us", LOWER),
    ("lexical.rrf_us", "us", LOWER),
    ("index.registry_encode_s", "s", LOWER),
    ("index.registry_decode_s", "s", LOWER),
    ("index.registry_open_lazy_s", "s", LOWER),
    // ingest-churn.
    ("ingest_round_s", "s", LOWER),
    ("ingest.noop_round_s", "s", LOWER),
    ("ingest.heavy_round_s", "s", LOWER),
    ("ingest.full_rebuild_s", "s", LOWER),
    ("ingest.speedup", "ratio", HIGHER),
    ("ingest.docs_skipped_share", "ratio", HIGHER),
    ("ingest.chunks_rerun_share", "ratio", LOWER),
    ("ingest.rows_tombstoned_per_changed_chunk", "ratio", LOWER),
    ("ingest.compactions_per_round", "count", LOWER),
    ("corpus.apply_edits_s", "s", LOWER),
    ("index.flat.upsert_rows_per_s", "1/s", HIGHER),
    ("index.flat.compact_s", "s", LOWER),
    ("lexical.upsert_docs_per_s", "1/s", HIGHER),
    ("index.probe_qps_after_edit", "1/s", HIGHER),
    // backend-scan. Per-backend names follow `IndexSpec::label()`; a
    // backend that no longer exists reads 0.
    ("scan_qps", "1/s", HIGHER),
    ("scan_cold_qps", "1/s", HIGHER),
    ("recall_at_5_min", "ratio", HIGHER),
    ("index.flat.build_s", "s", LOWER),
    ("index.flat.batch_qps", "1/s", HIGHER),
    ("index.flat.single_ms", "ms", LOWER),
    ("index.flat.recall_at_5", "ratio", HIGHER),
    ("index.flat.bytes_per_vec", "B", LOWER),
    ("index.flat.decode_s", "s", LOWER),
    ("index.hnsw.build_s", "s", LOWER),
    ("index.hnsw.batch_qps", "1/s", HIGHER),
    ("index.hnsw.single_ms", "ms", LOWER),
    ("index.hnsw.recall_at_5", "ratio", HIGHER),
    ("index.hnsw.bytes_per_vec", "B", LOWER),
    ("index.hnsw.decode_s", "s", LOWER),
    ("index.ivf.build_s", "s", LOWER),
    ("index.ivf.batch_qps", "1/s", HIGHER),
    ("index.ivf.single_ms", "ms", LOWER),
    ("index.ivf.recall_at_5", "ratio", HIGHER),
    ("index.ivf.bytes_per_vec", "B", LOWER),
    ("index.ivf.decode_s", "s", LOWER),
    ("index.pq.build_s", "s", LOWER),
    ("index.pq.batch_qps", "1/s", HIGHER),
    ("index.pq.single_ms", "ms", LOWER),
    ("index.pq.recall_at_5", "ratio", HIGHER),
    ("index.pq.bytes_per_vec", "B", LOWER),
    ("index.pq.decode_s", "s", LOWER),
    ("index.flat.batch_qps_quarter_cache", "1/s", HIGHER),
    ("index.pq.batch_qps_cache0", "1/s", HIGHER),
    ("embed.panel_decode_gbps", "GB/s", HIGHER),
    ("embed.panel_hit_gbps", "GB/s", HIGHER),
    ("util.dot_gbps", "GB/s", HIGHER),
    ("util.l2_gbps", "GB/s", HIGHER),
    ("util.copy_gbps", "GB/s", HIGHER),
    ("util.dot_share_of_copy", "ratio", HIGHER),
    ("lexical.batch_qps", "1/s", HIGHER),
    ("runtime.search_batch_speedup_w1", "ratio", HIGHER),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Recorded {
    pub value: f64,
    /// Present when the value is an order statistic of in-run samples.
    pub summary: Option<Summary>,
    /// Every sample behind the value, in the order taken: nothing is
    /// dropped, so a reader can see what the value hid.
    pub samples: Vec<f64>,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<String, Recorded>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values
            .insert(name.to_string(), Recorded { value, summary: None, samples: Vec::new() });
    }

    /// Record the median of `samples`; quartiles and count ride along. An
    /// empty sample set records nothing (the metric then reads 0).
    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        if samples.is_empty() {
            return;
        }
        let summary = summarize(samples);
        self.values.insert(
            name.to_string(),
            Recorded { value: summary.median, summary: Some(summary), samples: samples.to_vec() },
        );
    }

    /// Record a gated end-to-end metric: the quartile of `samples` on the
    /// better side — the first quartile of a time, the third of a rate. On
    /// the builder's host interference only ever adds time, to a varying
    /// share of the repetitions: over ten runs the in-run medians of the
    /// `backend-scan` passes spread 0.15 and 0.13, their first quartiles
    /// 0.06 and 0.03. The median and the other quartile are recorded beside
    /// the value.
    pub fn set_gated(&mut self, name: &str, samples: &[f64]) {
        let higher = lookup(name).is_some_and(|(_, better)| better == HIGHER);
        self.set_samples(name, samples);
        if let Some(Recorded { value, summary: Some(s), .. }) = self.values.get_mut(name) {
            *value = if higher { s.q3 } else { s.q1 };
        }
    }

    /// Record a gated timing in units of `per_s` per second (1e3 = ms): at
    /// reference speed under `name` (see [`Report::set_gated`]), the median
    /// as measured under `<name>.raw`.
    pub fn set_timings(&mut self, name: &str, timings: &[crate::Timing], per_s: f64) {
        let col = |pick: fn(&crate::Timing) -> f64| {
            timings.iter().map(|t| pick(t) * per_s).collect::<Vec<f64>>()
        };
        self.set_gated(name, &col(|t| t.norm_s));
        self.set_samples(&format!("{name}.raw"), &col(|t| t.raw_s));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |r| r.value)
    }

    /// Count `n` operations of which `failed` did not succeed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// One correctness check: counts as an attempted operation, and as a
    /// failed one when it does not hold.
    pub fn check(&mut self, holds: bool, what: &str) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            self.failures.push(what.to_string());
            eprintln!("[perf] CHECK FAILED: {what}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result object the contract asks for: the end-to-end
    /// metrics of an untraced run, the per-layer metrics of a traced one.
    pub fn result_line(&self, traced: bool) -> String {
        let defs: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
        };
        let metrics = defs
            .into_iter()
            .map(|(name, unit)| {
                let value = self.get(name);
                let value = if value.is_finite() { value } else { f64::MAX };
                let entry = Value::Map(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree serialises")
    }

    /// Every recorded metric with its spread, registered or not, plus the
    /// failed checks: the `--out` file.
    pub fn detail_json(&self, header: Vec<(String, Value)>) -> String {
        let metrics = self
            .values
            .iter()
            .map(|(name, r)| {
                let mut fields = vec![("value".to_string(), Value::F64(r.value))];
                if let Some((unit, better)) = lookup(name) {
                    fields.push(("unit".into(), Value::Str(unit.into())));
                    fields.push(("better".into(), Value::Str(better.into())));
                }
                if let Some(s) = r.summary {
                    fields.push(("n".into(), Value::U64(s.n as u64)));
                    fields.push(("q1".into(), Value::F64(s.q1)));
                    fields.push(("median".into(), Value::F64(s.median)));
                    fields.push(("q3".into(), Value::F64(s.q3)));
                    fields.push(("min".into(), Value::F64(s.min)));
                    fields.push(("max".into(), Value::F64(s.max)));
                    fields.push((
                        "samples".into(),
                        Value::Seq(r.samples.iter().map(|&x| Value::F64(x)).collect()),
                    ));
                }
                (name.clone(), Value::Map(fields))
            })
            .collect();
        let mut top = header;
        top.push(("correct".into(), Value::Bool(self.correct())));
        top.push(("attempted".into(), Value::U64(self.attempted)));
        top.push(("failed".into(), Value::U64(self.failed)));
        top.push((
            "failures".into(),
            Value::Seq(self.failures.iter().map(|f| Value::Str(f.clone())).collect()),
        ));
        top.push(("metrics".into(), Value::Map(metrics)));
        serde_json::to_string_pretty(&Value::Map(top)).expect("a value tree serialises")
    }

    /// Human-readable lines: every metric by name with unit, direction and
    /// spread.
    pub fn print(&self) {
        for (name, r) in &self.values {
            let (unit, better) = lookup(name).unwrap_or(("", ""));
            let spread = r.summary.map_or(String::new(), |s| {
                format!(
                    " n={} q1={:.6} median={:.6} q3={:.6} min={:.6} max={:.6}",
                    s.n, s.q1, s.median, s.q3, s.min, s.max
                )
            });
            println!("[perf] {name} = {:.6} {unit} better={better}{spread}", r.value);
        }
        println!(
            "[perf] attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
    }
}

/// Unit and direction of a registered metric.
pub fn lookup(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u, b, _)| (n, u, b))
        .chain(PER_LAYER.iter().copied())
        .find(|&(n, _, _)| n == name)
        .map(|(_, u, b)| (u, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let mut r = Report::default();
        r.set_samples("primary_ms", &[3.0, 1.0, 2.0]);
        r.set_gated("secondary_ms", &[3.0, 1.0, 2.0]);
        r.set_gated("throughput_per_s", &[3.0, 1.0, 2.0]);
        r.set("setup_s", 0.8127);
        r.check(true, "fine");
        r.count(10, 0);
        let v: Value = serde_json::from_str(&r.result_line(false)).expect("parses");
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(11));
        assert_eq!(v["failed"].as_u64(), Some(0));
        assert_eq!(v["metrics"]["primary_ms"]["value"].as_f64(), Some(2.0));
        assert_eq!(v["metrics"]["primary_ms"]["unit"].as_str(), Some("ms"));
        // Gated: the quartile on the better side.
        assert_eq!(v["metrics"]["secondary_ms"]["value"].as_f64(), Some(1.5));
        assert_eq!(v["metrics"]["throughput_per_s"]["value"].as_f64(), Some(2.5));
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.8127));
        let Value::Map(m) = &v["metrics"] else { panic!("metrics is a map") };
        assert_eq!(m.len(), END_TO_END.len());

        let traced: Value = serde_json::from_str(&r.result_line(true)).expect("parses");
        let Value::Map(m) = &traced["metrics"] else { panic!("metrics is a map") };
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(traced["metrics"]["scan_qps"]["value"].as_f64(), Some(0.0));

        let detail: Value = serde_json::from_str(&r.detail_json(Vec::new())).expect("parses");
        assert_eq!(detail["metrics"]["primary_ms"]["n"].as_u64(), Some(3));
        assert_eq!(detail["metrics"]["primary_ms"]["q3"].as_f64(), Some(2.5));
        assert_eq!(detail["metrics"]["secondary_ms"]["median"].as_f64(), Some(2.0));
    }

    #[test]
    fn a_failed_check_fails_the_run() {
        let mut r = Report::default();
        r.check(false, "recall below floor");
        assert!(!r.correct());
        let v: Value = serde_json::from_str(&r.result_line(false)).expect("parses");
        assert_eq!(v["correct"].as_bool(), Some(false));
        assert_eq!(v["failed"].as_u64(), Some(1));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let names =
            END_TO_END.iter().map(|d| (d.0, d.1)).chain(PER_LAYER.iter().map(|d| (d.0, d.1)));
        for (name, unit) in names {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} / {unit}");
            assert!(name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.3 <= 0.25));
    }

    /// `BENCHMARK.json` must list exactly the registered metrics.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Value::Seq(e2e) = &v["end_to_end"] else { panic!("end_to_end is a list") };
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(got["name"].as_str(), Some(want.0));
            assert_eq!(got["unit"].as_str(), Some(want.1));
            assert_eq!(got["better"].as_str(), Some(want.2));
            assert_eq!(got["bound"].as_f64(), Some(want.3));
        }
        let Value::Seq(layers) = &v["per_layer"] else { panic!("per_layer is a list") };
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(got["name"].as_str(), Some(want.0));
            assert_eq!(got["unit"].as_str(), Some(want.1));
            assert_eq!(got["better"].as_str(), Some(want.2));
        }
        let Value::Seq(workloads) = &v["workloads"] else { panic!("workloads is a list") };
        let names: Vec<&str> = workloads.iter().filter_map(|w| w["name"].as_str()).collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
