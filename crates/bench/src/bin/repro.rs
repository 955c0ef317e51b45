//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! repro all                         # everything, default scale 0.1
//! repro table2 --scale 0.2 --seed 7
//! repro fig1 | fig2 | fig3 | fig4 | fig5 | fig6
//! repro table1 | table3 | table4
//! repro rates                       # measured usable-hit rates
//! repro residuals                   # calibration residual census
//! repro recall                      # recall@k + footprint per retrieval mode
//! repro models                      # per-role call ledger: calls, batches, tokens
//! repro ingest --edits 20           # incremental re-ingest ≡ cold rebuild?
//! repro ablate-topk                 # accuracy vs retrieval depth
//! repro ablate-filter               # quality threshold sweep
//! ```
//!
//! This file is `main`, command dispatch and printing; everything that
//! computes a row lives in the `mcqa_bench` library, where `cargo test`
//! asserts it. [`mcqa_bench::cli::parse`] is the one flag parser: `--scale`,
//! `--seed` everywhere, `--retrieval dense|lexical|hybrid` and `--edits` on
//! the commands that read them. An unknown command or flag, a flag the
//! command does not read, or a malformed or out-of-range value exits 2 with
//! the usage table — before any pipeline is built; `repro help` prints it
//! and exits 0.
//! Every store the pipeline builds is an exact flat one. Nothing here
//! measures speed: that is `perfbench/`.

use mcqa_bench::cli::{self, Usage};
use mcqa_bench::{ablate, ingest, models, recall};
use mcqa_core::{Pipeline, PipelineConfig};
use mcqa_eval::results::{render_fig, render_table2, render_table3, render_table4, FigureSeries};
use mcqa_eval::{EvalConfig, Evaluator, Source};
use mcqa_llm::{cards, TraceMode};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(args) => args,
        Err(Usage::Help) => {
            println!("{}", cli::usage());
            return;
        }
        Err(Usage::Bad(problem)) => {
            eprintln!("{problem}\n{}", cli::usage());
            std::process::exit(2);
        }
    };

    // Commands that need no pipeline of the caller's, or build their own.
    let config = PipelineConfig::at_scale(args.scale, args.seed);
    match args.command {
        "table1" => {
            println!("{}", cards::render_table1());
            return;
        }
        "ablate-filter" => {
            print!("{}", ablate::ablate_filter(args.scale, args.seed).render());
            return;
        }
        "ingest" => {
            let report = ingest::ingest_check(&config, args.edits);
            print!("{}", report.render());
            println!("\nIncremental run stage report:\n");
            print!("{}", report.stages.render());
            if matches!(report.verdict, ingest::Verdict::Mismatch(_)) {
                std::process::exit(1);
            }
            return;
        }
        _ => {}
    }

    eprintln!("[repro] building pipeline at scale {} (seed {}) ...", args.scale, args.seed);
    let output = Pipeline::run(&config);
    eprintln!(
        "[repro] {} docs → {} chunks → {} candidates → {} accepted ({:.1}%)",
        output.library.len(),
        output.chunks.len(),
        output.candidates,
        output.items.len(),
        100.0 * output.acceptance_rate()
    );

    // Commands over the pipeline output alone.
    match args.command {
        "fig1" => {
            println!("Figure 1 — workflow overview (stage census)\n");
            print!("{}", output.report.render());
            // The model layer's cost goes under the table, not in it: its
            // calls run inside the `generate+judge` and `traces` rows, which
            // time them.
            println!();
            for line in output.models.ledger().summary_lines() {
                println!("{line}");
            }
            println!(
                "\nflat store: chunk DB {} vectors ({} KiB); trace DBs: 3 × {} vectors",
                output.chunk_store().len(),
                output.chunk_store().payload_bytes() / 1024,
                output.items.len()
            );
            // FNV-1a of the serialised artifacts: what `tests/golden.rs`
            // pins at the tiny config, greppable at any scale.
            let questions = serde_json::to_string(&output.questions).expect("serialises");
            let traces = serde_json::to_string(&output.traces).expect("serialises");
            println!(
                "[golden] q_hash={:#018x} t_hash={:#018x} registry_hash={:#018x}",
                mcqa_util::fnv1a(questions.as_bytes()),
                mcqa_util::fnv1a(traces.as_bytes()),
                mcqa_util::fnv1a(&output.indexes.to_bytes())
            );
            return;
        }
        "fig2" => {
            println!("Figure 2 — question record JSON schema (one generated record)\n");
            let q = output.questions.first().expect("at least one question");
            println!("{}", serde_json::to_string_pretty(q).expect("serialises"));
            return;
        }
        "fig3" => {
            println!("Figure 3 — reasoning-trace JSON schema (all three modes)\n");
            for mode in TraceMode::ALL {
                let t = output.traces.iter().find(|t| t.mode == mode).expect("trace exists");
                println!("{}\n", serde_json::to_string_pretty(t).expect("serialises"));
            }
            return;
        }
        "recall" => {
            let k = 5;
            if output.items.is_empty() {
                eprintln!("[repro] recall needs at least one accepted question (got 0)");
                std::process::exit(1);
            }
            println!(
                "Retrieval modes over the pipeline stores: {} questions × {} sources, k={k}\n",
                output.items.len(),
                Source::ALL.len()
            );
            print!("{}", recall::render_mode_recall(&recall::mode_recall(&output, k), k));
            return;
        }
        "ablate-topk" => {
            print!("{}", ablate::ablate_topk(&output, args.seed).render());
            return;
        }
        _ => {}
    }

    eprintln!(
        "[repro] evaluating 8 models × 5 conditions × 2 benchmarks (retrieval {}) ...",
        args.retrieval.label()
    );
    let evaluator = Evaluator::new(
        &output,
        EvalConfig { seed: args.seed, retrieval: args.retrieval, ..Default::default() },
    );
    let run = evaluator.run();

    match args.command {
        "all" => {
            println!("{}", cards::render_table1());
            println!("{}", render_table2(&run));
            println!("{}", render_table3(&run));
            println!("{}", render_table4(&run));
            println!("{}", render_fig(&run, FigureSeries::Fig4Synthetic));
            println!("{}", render_fig(&run, FigureSeries::Fig5AstroAll));
            println!("{}", render_fig(&run, FigureSeries::Fig6AstroNoMath));
            print_rates(&run);
            // Pipeline and evaluation run on one scheduler, so both stage
            // reports come from the same runtime metrics surface.
            println!("\nWorkflow stage report (pipeline):\n");
            print!("{}", output.report.render());
            println!("\nWorkflow stage report (evaluation, all cards):\n");
            print!("{}", run.report.render());
        }
        "models" => {
            print!("{}", models::render_model_census(&output, &models::model_census(&output)))
        }
        "table2" => println!("{}", render_table2(&run)),
        "table3" => println!("{}", render_table3(&run)),
        "table4" => println!("{}", render_table4(&run)),
        "fig4" => println!("{}", render_fig(&run, FigureSeries::Fig4Synthetic)),
        "fig5" => println!("{}", render_fig(&run, FigureSeries::Fig5AstroAll)),
        "fig6" => println!("{}", render_fig(&run, FigureSeries::Fig6AstroNoMath)),
        "rates" => print_rates(&run),
        "residuals" => print_residuals(&run),
        other => unreachable!("cli::parse admitted '{other}', which no arm handles"),
    }
}

fn print_rates(run: &mcqa_eval::EvalRun) {
    println!("Measured usable-hit rates:");
    println!(
        "{:<26} {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8}",
        "model", "syn-chk", "syn-det", "syn-foc", "syn-eff", "ast-chk", "ast-rt"
    );
    // Every card reads the same contexts, so the run carries one set.
    let rates = &run.rates;
    println!(
        "{:<26} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>8.3} {:>8.3}",
        "every model",
        rates.synth_chunk,
        rates.synth_trace[0],
        rates.synth_trace[1],
        rates.synth_trace[2],
        rates.astro_chunk,
        rates.astro_trace[1],
    );
}

fn print_residuals(run: &mcqa_eval::EvalRun) {
    println!("Calibration residuals (achieved − paper target at the clamped solve):");
    for m in &run.models {
        let worst: Vec<_> =
            m.calibration.solved.iter().filter(|s| s.residual.abs() > 0.005).collect();
        if worst.is_empty() {
            println!("{:<26} all targets reachable", m.name);
        } else {
            println!("{}:", m.name);
            for s in worst {
                println!("    {:<22} value {:.3}  residual {:+.3}", s.name, s.value, s.residual);
            }
        }
    }
}
