//! Reproduce the paper's full evaluation: all eight SLMs under all five
//! conditions on the synthetic benchmark, printing Table 2 and Figure 4.
//!
//! ```sh
//! cargo run --release --example evaluate_models -- [scale] [seed]
//! ```

use distllm::eval::results::{render_fig, render_table2, FigureSeries};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);

    let (output, run) = distllm::reproduce(scale, seed);
    println!(
        "benchmark: {} questions from {} chunks ({} docs)\n",
        output.items.len(),
        output.chunks.len(),
        output.library.len()
    );

    println!("{}", render_table2(&run));
    println!("{}", render_fig(&run, FigureSeries::Fig4Synthetic));

    // The run's measured retrieval rates — the emergent quantities every
    // behaviour card was calibrated against.
    println!("measured usable-hit rates (synthetic benchmark):");
    println!("{:>9} {:>9} {:>9} {:>9}", "chunks", "rt-detail", "rt-focus", "rt-effic");
    let rates = &run.rates;
    println!(
        "{:>9.3} {:>9.3} {:>9.3} {:>9.3}",
        rates.synth_chunk, rates.synth_trace[0], rates.synth_trace[1], rates.synth_trace[2],
    );
}
