//! Stage metrics and the workflow run report.

use serde::{Deserialize, Serialize};

/// Metrics for one pipeline stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Stage name.
    pub name: String,
    /// Items submitted.
    pub items: usize,
    /// Items completing successfully.
    pub ok: usize,
    /// Items failing (including panics).
    pub errors: usize,
    /// Items that panicked (subset of `errors`).
    pub panics: usize,
    /// Output records emitted by the stage. Equals `ok` for 1:1 stages;
    /// fan-out stages (e.g. chunking: docs in → chunks out) record the
    /// output count here so both docs/s and chunks/s are observable.
    pub produced: usize,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
}

impl StageMetrics {
    /// Metrics for a stage measured as one timed block rather than
    /// per-task: `produced` of `items` inputs yielded an output record, the
    /// rest were filtered out, and nothing panicked. Prefer this over a
    /// field-by-field struct literal so call sites don't drift as
    /// `StageMetrics` grows.
    pub fn single(name: &str, items: usize, produced: usize, elapsed_secs: f64) -> Self {
        Self {
            name: name.into(),
            items,
            ok: produced.min(items),
            errors: items.saturating_sub(produced),
            panics: 0,
            produced,
            elapsed_secs,
        }
    }

    /// Items per second (0 when time is unmeasured or no items ran).
    pub fn throughput(&self) -> f64 {
        if self.elapsed_secs > 0.0 && self.items > 0 {
            self.items as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Output records per second (0 when time is unmeasured or nothing was
    /// produced). For the chunk stage this is chunks/s where
    /// [`Self::throughput`] is docs/s.
    pub fn output_throughput(&self) -> f64 {
        if self.elapsed_secs > 0.0 && self.produced > 0 {
            self.produced as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Success rate in `[0, 1]` (1 for an empty stage).
    pub fn success_rate(&self) -> f64 {
        if self.items == 0 {
            1.0
        } else {
            self.ok as f64 / self.items as f64
        }
    }
}

/// A whole-workflow report: ordered stage metrics.
///
/// `render()` is the text behind the Figure-1 reproduction (workflow
/// overview with per-stage counts).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    stages: Vec<StageMetrics>,
}

impl RunReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a stage record.
    pub fn add(&mut self, m: StageMetrics) {
        self.stages.push(m);
    }

    /// Merge `m` into an existing stage of the same name (summing counts
    /// and elapsed time) or append it. This is how repeated stage
    /// executions — e.g. one answering pass per model card — aggregate into
    /// a single report row.
    pub fn absorb(&mut self, m: StageMetrics) {
        match self.stages.iter_mut().find(|s| s.name == m.name) {
            Some(s) => {
                s.items += m.items;
                s.ok += m.ok;
                s.errors += m.errors;
                s.panics += m.panics;
                s.produced += m.produced;
                s.elapsed_secs += m.elapsed_secs;
            }
            None => self.stages.push(m),
        }
    }

    /// The recorded stages in order.
    pub fn stages(&self) -> &[StageMetrics] {
        &self.stages
    }

    /// Total wall-clock seconds across stages.
    pub fn total_secs(&self) -> f64 {
        self.stages.iter().map(|s| s.elapsed_secs).sum()
    }

    /// Render a fixed-width text table. The name column is as wide as the
    /// longest stage name (at least 22), so every row lines up under the
    /// header whatever the stages are called.
    pub fn render(&self) -> String {
        let name_w = self.stages.iter().map(|s| s.name.chars().count()).max().unwrap_or(0).max(22);
        let mut out = format!(
            "{:<name_w$} {:>9} {:>9} {:>7} {:>9} {:>10} {:>11} {:>11}\n",
            "stage", "items", "ok", "errors", "out", "secs", "items/s", "out/s"
        );
        // The rule spans the header, which is ASCII: bytes are columns.
        out.push_str(&"-".repeat(out.len() - 1));
        out.push('\n');
        for s in &self.stages {
            out.push_str(&format!(
                "{:<name_w$} {:>9} {:>9} {:>7} {:>9} {:>10.3} {:>11.1} {:>11.1}\n",
                s.name,
                s.items,
                s.ok,
                s.errors,
                s.produced,
                s.elapsed_secs,
                s.throughput(),
                s.output_throughput()
            ));
        }
        out.push_str(&format!("total wall-clock: {:.3}s\n", self.total_secs()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str, items: usize, ok: usize, secs: f64) -> StageMetrics {
        StageMetrics {
            name: name.into(),
            items,
            ok,
            errors: items - ok,
            panics: 0,
            produced: ok,
            elapsed_secs: secs,
        }
    }

    #[test]
    fn throughput_and_success() {
        let s = m("parse", 100, 95, 2.0);
        assert_eq!(s.throughput(), 50.0);
        assert_eq!(s.output_throughput(), 47.5);
        assert_eq!(s.success_rate(), 0.95);
        let empty = m("x", 0, 0, 0.0);
        assert_eq!(empty.throughput(), 0.0);
        assert_eq!(empty.success_rate(), 1.0);
    }

    #[test]
    fn report_renders_all_stages() {
        let mut r = RunReport::new();
        r.add(m("acquire", 2255, 2255, 1.2));
        r.add(m("parse", 2255, 2230, 3.4));
        r.add(m("chunk", 2230, 2230, 0.8));
        // The pipeline's longest stage name: 26 characters.
        r.add(m("index-lex-traces-efficient", 451, 451, 0.1));
        let text = r.render();
        for name in ["acquire", "parse", "chunk", "index-lex-traces-efficient"] {
            assert!(text.contains(name), "{text}");
        }
        assert!(text.contains("items/s"));
        assert!((r.total_secs() - 5.5).abs() < 1e-9);
        assert_eq!(r.stages().len(), 4);
        // Header, rule, one row per stage, total: every line of the table
        // proper is as wide as the header.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 4 + 1);
        assert!(lines[6].starts_with("total wall-clock"));
        assert!(lines[1].chars().all(|c| c == '-'));
        for line in &lines[1..6] {
            assert_eq!(line.chars().count(), lines[0].chars().count(), "{text}");
        }
    }

    #[test]
    fn single_constructor_matches_hand_rolled_shape() {
        let s = StageMetrics::single("generate+judge", 1000, 96, 2.0);
        assert_eq!(s.items, 1000);
        assert_eq!(s.ok, 96);
        assert_eq!(s.errors, 904);
        assert_eq!(s.panics, 0);
        assert_eq!(s.produced, 96);
        assert_eq!(s.throughput(), 500.0);
        assert_eq!(s.output_throughput(), 48.0);
        // 1:1 stages: produced == items, no errors.
        let a = StageMetrics::single("acquire", 50, 50, 1.0);
        assert_eq!(a.ok, 50);
        assert_eq!(a.errors, 0);
    }

    #[test]
    fn absorb_merges_same_name_and_appends_new() {
        let mut r = RunReport::new();
        r.absorb(m("eval-answer", 100, 100, 1.0));
        r.absorb(m("eval-answer", 50, 40, 0.5));
        r.absorb(m("eval-assemble", 10, 10, 0.1));
        assert_eq!(r.stages().len(), 2);
        let ans = &r.stages()[0];
        assert_eq!(ans.items, 150);
        assert_eq!(ans.ok, 140);
        assert_eq!(ans.errors, 10);
        assert!((ans.elapsed_secs - 1.5).abs() < 1e-12);
        assert!((ans.throughput() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn serde_roundtrip() {
        let mut r = RunReport::new();
        r.add(m("a", 1, 1, 0.1));
        let s = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&s).unwrap();
        assert_eq!(back, r);
    }
}
