//! `repro models`: the per-role call ledger — calls, batch sizes and token
//! in/out estimates. The ledger counts, it does not time, so the census is
//! a pure function of the run's configuration, whatever the worker count.

use mcqa_core::PipelineOutput;
use mcqa_llm::RoleStats;

/// One row per role that served a call, then the `total` aggregate.
pub fn model_census(output: &PipelineOutput) -> Vec<(&'static str, RoleStats)> {
    let ledger = output.models.ledger();
    let mut rows: Vec<(&'static str, RoleStats)> = ledger
        .snapshot()
        .into_iter()
        .filter(|(_, s)| s.calls > 0)
        .map(|(role, s)| (role.label(), s))
        .collect();
    rows.push(("total", ledger.total()));
    rows
}

/// The human table over `rows`, then the ledger's greppable
/// `[models] key=value` lines.
pub fn render_model_census(output: &PipelineOutput, rows: &[(&'static str, RoleStats)]) -> String {
    let mut out = format!(
        "Model-layer call ledger (backend sim):\n\n\
         {:<12} {:>10} {:>8} {:>11} {:>12} {:>12}\n",
        "role", "calls", "batches", "mean-batch", "tokens-in", "tokens-out"
    );
    for (role, s) in rows {
        out.push_str(&format!(
            "{:<12} {:>10} {:>8} {:>11.1} {:>12} {:>12}\n",
            role,
            s.calls,
            s.batches,
            s.mean_batch_size(),
            s.tokens_in,
            s.tokens_out
        ));
    }
    out.push('\n');
    for line in output.models.ledger().summary_lines() {
        out.push_str(&line);
        out.push('\n');
    }
    out
}
