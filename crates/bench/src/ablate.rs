//! The two ablations beyond the paper: accuracy vs retrieval depth, and
//! benchmark size vs acceptance bar.

use mcqa_core::{Pipeline, PipelineConfig, PipelineOutput};
use mcqa_eval::{EvalConfig, Evaluator};
use mcqa_llm::answer::Condition;
use mcqa_llm::{TraceMode, MODEL_CARDS};

/// A column's header and how its values print: right-aligned to `width`,
/// `decimals` places, `unit` appended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Column {
    pub(crate) header: &'static str,
    pub(crate) width: usize,
    pub(crate) decimals: usize,
    pub(crate) unit: &'static str,
}

fn col(header: &'static str, width: usize, decimals: usize) -> Column {
    Column { header, width, decimals, unit: "" }
}

/// One ablation: a titled table of numeric columns, one row per sweep
/// point (the swept value first).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub title: &'static str,
    pub columns: Vec<Column>,
    pub rows: Vec<Vec<f64>>,
}

impl Series {
    /// The values under `header`, top to bottom.
    pub fn column(&self, header: &str) -> Vec<f64> {
        let at = self.columns.iter().position(|c| c.header == header).expect("a column's header");
        self.rows.iter().map(|row| row[at]).collect()
    }

    /// Title, header line, one line per row.
    pub fn render(&self) -> String {
        let line = |cells: Vec<String>| cells.join(" ") + "\n";
        let header = |c: &Column| format!("{:>w$}", c.header, w = c.width);
        let mut out =
            format!("{}\n", self.title) + &line(self.columns.iter().map(header).collect());
        for row in &self.rows {
            let cell = |(c, v): (&Column, &f64)| {
                format!("{:>w$}", format!("{v:.d$}{}", c.unit, d = c.decimals), w = c.width)
            };
            out += &line(self.columns.iter().zip(row).map(cell).collect());
        }
        out
    }
}

/// Accuracy vs retrieval depth k.
pub fn ablate_topk(output: &PipelineOutput, seed: u64) -> Series {
    let card = MODEL_CARDS.iter().find(|c| c.name == "SmolLM3-3B").expect("a Table-1 model card");
    let focused = Condition::RagTraces(TraceMode::Focused);
    let rows = [1usize, 2, 3, 5, 8, 10].into_iter().map(|k| {
        let config = EvalConfig { seed, retrieval_k: k, ..Default::default() };
        let m = Evaluator::new(output, config).evaluate_card(card);
        vec![k as f64, m.synth_accuracy(Condition::RagChunks), m.synth_accuracy(focused)]
    });
    Series {
        title: "Ablation — synthetic accuracy vs retrieval depth (SmolLM3-3B):",
        columns: vec![col("k", 4, 0), col("rag-chunks", 12, 3), col("rt-focused", 12, 3)],
        rows: rows.collect(),
    }
}

/// Quality threshold sweep: one pipeline per judge acceptance bar.
pub fn ablate_filter(scale: f64, seed: u64) -> Series {
    let rows = [5u8, 6, 7, 8, 9].into_iter().map(|threshold| {
        let mut config = PipelineConfig::at_scale(scale, seed);
        config.quality_threshold = threshold;
        let output = Pipeline::run(&config);
        let (candidates, accepted) = (output.candidates as f64, output.items.len() as f64);
        vec![f64::from(threshold), candidates, accepted, 100.0 * output.acceptance_rate()]
    });
    Series {
        title: "Ablation — quality threshold vs benchmark size (paper uses 7):",
        columns: vec![
            col("threshold", 10, 0),
            col("candidates", 12, 0),
            col("accepted", 12, 0),
            Column { unit: "%", ..col("acceptance", 14, 1) },
        ],
        rows: rows.collect(),
    }
}
