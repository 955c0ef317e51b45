//! `repro models`: the per-role call ledger — calls, batch sizes, token
//! in/out estimates and the response cache's hit rate.

use mcqa_core::PipelineOutput;
use mcqa_eval::RetrievalBundle;
use mcqa_llm::{ModelEndpoint, RoleStats};
use mcqa_serve::QueryMode;

/// One row per role that served a call, then the `total` aggregate.
///
/// The default (dense) evaluation never calls the cross-encoder, so this
/// replays a short hybrid+rerank retrieval bundle first: the census then
/// always carries a `reranker` row with real traffic, priced by the same
/// shared ledger + response cache as every other role.
pub fn model_census(output: &PipelineOutput) -> Vec<(&'static str, RoleStats)> {
    let probe = output.items.len().min(8);
    if probe > 0 {
        let _ = RetrievalBundle::build_mode(
            output,
            &output.items[..probe],
            5,
            QueryMode::Hybrid { fusion: Default::default(), rerank: true, depth: 0 },
        );
    }
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
        "Model-layer call ledger (backend {}, {} distinct completions cached):\n\n\
         {:<12} {:>10} {:>8} {:>11} {:>11} {:>9} {:>12} {:>12} {:>10}\n",
        output.models.backend(),
        output.models.cache().len(),
        "role",
        "calls",
        "batches",
        "mean-batch",
        "cache-hits",
        "hit-rate",
        "tokens-in",
        "tokens-out",
        "busy-secs"
    );
    for (role, s) in rows {
        out.push_str(&format!(
            "{:<12} {:>10} {:>8} {:>11.1} {:>11} {:>9.3} {:>12} {:>12} {:>10.3}\n",
            role,
            s.calls,
            s.batches,
            s.mean_batch_size(),
            s.cache_hits,
            s.hit_rate(),
            s.tokens_in,
            s.tokens_out,
            s.busy_secs
        ));
    }
    out.push('\n');
    for line in output.models.ledger().summary_lines(output.models.backend()) {
        out.push_str(&line);
        out.push('\n');
    }
    out
}
