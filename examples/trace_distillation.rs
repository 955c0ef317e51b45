//! A close look at reasoning-trace distillation: generate traces for one
//! question in all three modes, audit the leakage control, and compare
//! what chunk and trace contexts cost in prompt tokens.
//!
//! ```sh
//! cargo run --release --example trace_distillation
//! ```

use distllm::llm::context::assemble;
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

    // What a context costs: prompt-token arithmetic.
    let source_chunk = output
        .chunks
        .iter()
        .find(|c| c.chunk_id == record.provenance.chunk_id)
        .expect("source chunk exists");
    // A context reads each passage's token count and whether it supports
    // the question's fact: the chunk record already holds a count, the
    // trace is counted here. Both support this question's fact.
    let chunk_tokens = source_chunk.tokens;
    let trace_text = &output
        .traces
        .iter()
        .find(|t| t.question_id == item.qid && t.mode == TraceMode::Efficient)
        .expect("trace exists")
        .trace;
    let trace_tokens = distllm::text::token_count(trace_text);
    let q_tokens = item.prompt_tokens();

    let c = assemble(q_tokens, [(chunk_tokens, true); 5]);
    let t = assemble(q_tokens, [(trace_tokens, true); 5]);
    println!("\n== prompt cost of five retrieved passages ==");
    println!(
        "chunk ≈ {} tokens → {} prompt tokens; trace ≈ {} tokens → {} prompt tokens",
        chunk_tokens, c.prompt_tokens, trace_tokens, t.prompt_tokens
    );
}
