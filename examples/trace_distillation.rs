//! A close look at reasoning-trace distillation: generate traces for one
//! question in all three modes, audit the leakage control, and show why
//! traces beat chunks for a small-window model (token arithmetic).
//!
//! ```sh
//! cargo run --release --example trace_distillation
//! ```

use distllm::llm::context::{assemble, question_tokens};
use distllm::llm::{Passage, PassageSource};
use distllm::prelude::*;

fn main() {
    let output = Pipeline::run(&PipelineConfig::tiny(42));
    let item = &output.items[0];
    let record = &output.questions[0];

    println!("== question ==\n{}", item.render());
    println!("answer: {} ({})\n", item.correct_letter(), item.correct_text());
    println!(
        "provenance: chunk {} in {} (fact {})",
        record.provenance.chunk_id, record.provenance.file_path, record.provenance.fact_id
    );

    println!("\n== the three reasoning modes (Figure 3) ==");
    for trace in output.traces.iter().filter(|t| t.question_id == item.qid) {
        let tokens = distllm::text::token_count(&trace.trace);
        println!("\n--- {} ({tokens} tokens) ---", trace.mode.label());
        println!("{}", trace.trace);
        assert!(!trace.trace.contains(item.correct_text()), "leakage audit failed");
    }
    println!("\nleakage audit: no trace contains the answer string ✓");

    // Why traces help small models: context-window arithmetic.
    let source_chunk = output
        .chunks
        .iter()
        .find(|c| c.chunk_id == record.provenance.chunk_id)
        .expect("source chunk exists");
    // A passage carries its token count: the chunk record already holds
    // one, the trace is counted here.
    let chunk_passage = Passage::new(
        source_chunk.text.clone(),
        source_chunk.tokens,
        PassageSource::Chunk,
        Some(item.fact),
        1.0,
    );
    let trace_text = &output
        .traces
        .iter()
        .find(|t| t.question_id == item.qid && t.mode == TraceMode::Efficient)
        .expect("trace exists")
        .trace;
    let trace_passage = Passage::new(
        trace_text.clone(),
        distllm::text::token_count(trace_text),
        PassageSource::Trace(TraceMode::Efficient),
        Some(item.fact),
        1.0,
    );
    let q_tokens = question_tokens(item);

    println!("\n== context-window truncation (the small-model mechanism) ==");
    println!(
        "{:<22} {:>14} {:>16} {:>18}",
        "window", "chunk passages", "trace passages", "prompt tokens(ch)"
    );
    for window in [2048usize, 4096, 8192, 32_768] {
        let c = assemble(item.fact, q_tokens, &vec![chunk_passage.clone(); 5], window);
        let t = assemble(item.fact, q_tokens, &vec![trace_passage.clone(); 5], window);
        println!(
            "{:<22} {:>10}/5 in {:>12}/5 in {:>18}",
            window, c.passages_in_window, t.passages_in_window, c.prompt_tokens
        );
    }
    println!(
        "\nchunk ≈ {} tokens, trace ≈ {} tokens: five chunks overflow a 2k window, \
         five traces never do.",
        chunk_passage.tokens(),
        trace_passage.tokens()
    );
}
