//! Stage metrics and the workflow run report.

/// Metrics for one pipeline stage: items in, records out, wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct StageMetrics {
    /// Stage name.
    pub name: String,
    /// Items submitted.
    pub items: usize,
    /// Always 0: a stage whose task panics re-raises the panic instead of
    /// returning metrics. Kept for the readers that still sum it.
    pub panics: usize,
    /// Output records emitted by the stage. Equals `items` for 1:1 stages;
    /// filtering stages (parse, judge) record what survived, and fan-out
    /// stages (chunking: docs in → chunks out) the output count, so both
    /// items/s and records/s are observable.
    pub produced: usize,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
}

impl StageMetrics {
    /// Metrics for a stage measured as one timed block rather than
    /// per-task: `items` inputs yielded `produced` output records. Prefer
    /// this over a field-by-field struct literal so call sites don't drift
    /// as `StageMetrics` grows.
    pub fn single(name: &str, items: usize, produced: usize, elapsed_secs: f64) -> Self {
        Self { name: name.into(), items, panics: 0, produced, elapsed_secs }
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
    pub(crate) fn output_throughput(&self) -> f64 {
        if self.elapsed_secs > 0.0 && self.produced > 0 {
            self.produced as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

/// A whole-workflow report: ordered stage metrics.
///
/// `render()` is the text behind the Figure-1 reproduction (workflow
/// overview with per-stage counts).
#[derive(Debug, Clone, Default, PartialEq)]
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
    pub(crate) fn total_secs(&self) -> f64 {
        self.stages.iter().map(|s| s.elapsed_secs).sum()
    }

    /// Render a fixed-width text table. The name column is as wide as the
    /// longest stage name (at least 22), so every row lines up under the
    /// header whatever the stages are called.
    pub fn render(&self) -> String {
        let name_w = self.stages.iter().map(|s| s.name.chars().count()).max().unwrap_or(0).max(22);
        let mut out = format!(
            "{:<name_w$} {:>9} {:>9} {:>10} {:>11} {:>11}\n",
            "stage", "items", "out", "secs", "items/s", "out/s"
        );
        // The rule spans the header, which is ASCII: bytes are columns.
        out.push_str(&"-".repeat(out.len() - 1));
        out.push('\n');
        for s in &self.stages {
            out.push_str(&format!(
                "{:<name_w$} {:>9} {:>9} {:>10.3} {:>11.1} {:>11.1}\n",
                s.name,
                s.items,
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

    fn m(name: &str, items: usize, produced: usize, secs: f64) -> StageMetrics {
        StageMetrics::single(name, items, produced, secs)
    }

    #[test]
    fn throughput_in_and_out() {
        let s = m("parse", 100, 95, 2.0);
        assert_eq!(s.throughput(), 50.0);
        assert_eq!(s.output_throughput(), 47.5);
        let empty = m("x", 0, 0, 0.0);
        assert_eq!(empty.throughput(), 0.0);
        assert_eq!(empty.output_throughput(), 0.0);
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
        let header: Vec<&str> = text.lines().next().unwrap().split_whitespace().collect();
        assert_eq!(header, ["stage", "items", "out", "secs", "items/s", "out/s"]);
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
        assert!(lines[3].contains(" 2255      2230 "), "{text}");
    }

    #[test]
    fn single_constructor_matches_hand_rolled_shape() {
        let s = StageMetrics::single("generate+judge", 1000, 96, 2.0);
        assert_eq!(s.items, 1000);
        assert_eq!(s.panics, 0);
        assert_eq!(s.produced, 96);
        assert_eq!(s.throughput(), 500.0);
        assert_eq!(s.output_throughput(), 48.0);
    }

    #[test]
    fn absorb_merges_same_name_and_appends_new() {
        let mut r = RunReport::new();
        r.absorb(m("eval-answer", 100, 100, 1.0));
        r.absorb(m("eval-answer", 50, 40, 0.5));
        r.absorb(m("eval-retrieve", 10, 10, 0.1));
        assert_eq!(r.stages().len(), 2);
        let ans = &r.stages()[0];
        assert_eq!(ans.items, 150);
        assert_eq!(ans.produced, 140);
        assert!((ans.elapsed_secs - 1.5).abs() < 1e-12);
        assert!((ans.throughput() - 100.0).abs() < 1e-9);
    }
}
