//! `repro`'s argument parser: one scanner, one table of which flags each
//! command reads, and no `process::exit` — the binary decides what a
//! [`Usage`] costs.

use mcqa_index::IndexSpec;
use mcqa_serve::QueryMode;

/// What one `repro` invocation asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// One of [`COMMANDS`].
    pub command: &'static str,
    pub scale: f64,
    pub seed: u64,
    pub index: IndexSpec,
    /// `--retrieval`, with `--fuse-depth` already threaded into a hybrid
    /// mode (0 = [`mcqa_index::lexical::DEFAULT_FUSE_DEPTH`]).
    pub retrieval: QueryMode,
    /// `ingest`: synthetic edit-batch size (default ≈ 1% of the live
    /// corpus, minimum 1).
    pub edits: Option<usize>,
}

/// Why [`parse`] produced no [`RunArgs`].
#[derive(Debug, Clone, PartialEq)]
pub enum Usage {
    /// `help` / `--help` / `-h`: print [`usage`], exit 0.
    Help,
    /// Refused, with the reason: print it and [`usage`], exit 2.
    Bad(String),
}

/// Every flag, each taking exactly one value. The first two are read by
/// every command.
pub const FLAGS: [&str; 6] =
    ["--scale", "--seed", "--index", "--retrieval", "--fuse-depth", "--edits"];
const EVERYWHERE: usize = 2;

/// Commands that build the pipeline under `--index` and stop there.
const BUILD: &[&str] = &["--index"];
/// Commands that also run the evaluator under `--retrieval`.
const EVAL: &[&str] = &["--index", "--retrieval", "--fuse-depth"];

/// Every command with the flags it reads beyond the universal two.
/// `table1` prints a schema and `ablate-filter` sweeps its own pipelines;
/// `recall` builds every backend itself over the exact flat pipeline.
pub const COMMANDS: [(&str, &[&str]); 19] = [
    ("all", EVAL),
    ("table1", &[]),
    ("table2", EVAL),
    ("table3", EVAL),
    ("table4", EVAL),
    ("fig1", BUILD),
    ("fig2", BUILD),
    ("fig3", BUILD),
    ("fig4", EVAL),
    ("fig5", EVAL),
    ("fig6", EVAL),
    ("rates", EVAL),
    ("residuals", EVAL),
    ("recall", &[]),
    ("models", EVAL),
    ("ingest", &["--index", "--edits"]),
    ("ablate-topk", BUILD),
    ("ablate-context", BUILD),
    ("ablate-filter", &[]),
];

/// Whether `command` reads `flag` (false for an unknown command or flag).
pub fn reads(command: &str, flag: &str) -> bool {
    FLAGS[..EVERYWHERE].contains(&flag)
        || COMMANDS.iter().any(|(c, flags)| *c == command && flags.contains(&flag))
}

/// The usage table.
pub fn usage() -> String {
    let commands: Vec<&str> = COMMANDS.iter().map(|(c, _)| *c).collect();
    format!(
        "usage: repro [command] [flags]   (no command = all; `repro help` prints this table)\n\
         commands: {}\n\
         valid flags: --scale <f64 in (0, 1]> --seed <u64> --index flat|hnsw|ivf|pq \
         --retrieval dense|lexical|hybrid|hybrid-rerank --fuse-depth <n> --edits <n>",
        commands.join(" ")
    )
}

fn bad<T>(problem: String) -> Result<T, Usage> {
    Err(Usage::Bad(problem))
}

fn val<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, Usage> {
    raw.parse().or_else(|_| bad(format!("bad value '{raw}' for {flag}")))
}

/// Parse `repro`'s arguments (program name already stripped). Every flag
/// takes exactly one value; an unknown command or flag, a flag the command
/// does not read, or a missing, malformed or out-of-range value is
/// refused — never a silent default.
pub fn parse(argv: &[String]) -> Result<RunArgs, Usage> {
    let name = argv.first().map_or("all", String::as_str);
    if matches!(name, "help" | "--help" | "-h") {
        return Err(Usage::Help);
    }
    let Some(&(command, _)) = COMMANDS.iter().find(|(c, _)| *c == name) else {
        return bad(format!("unknown command '{name}'"));
    };
    let mut args = RunArgs {
        command,
        scale: 0.1,
        seed: 42,
        index: IndexSpec::Flat,
        retrieval: QueryMode::Dense,
        edits: None,
    };
    let mut fuse_depth = None;
    let mut rest = argv.iter().skip(1);
    while let Some(flag) = rest.next() {
        let flag = flag.as_str();
        if !FLAGS.contains(&flag) {
            return bad(format!("unknown argument '{flag}'"));
        }
        if !reads(command, flag) {
            let own: Vec<&str> = FLAGS.into_iter().filter(|f| reads(command, f)).collect();
            return bad(format!("'{command}' does not read {flag} (it reads {})", own.join(" ")));
        }
        let Some(raw) = rest.next() else {
            return bad(format!("flag {flag} needs a value"));
        };
        match flag {
            "--scale" => {
                args.scale = val(flag, raw)?;
                // `PipelineConfig::at_scale` asserts this range; NaN fails
                // both comparisons.
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return bad(format!("bad value '{raw}' for {flag} (expected 0 < scale <= 1)"));
                }
            }
            "--seed" => args.seed = val(flag, raw)?,
            "--index" => match IndexSpec::parse(raw) {
                Some(spec) => args.index = spec,
                None => {
                    return bad(format!(
                        "unknown index backend '{raw}' (expected flat|hnsw|ivf|pq)"
                    ))
                }
            },
            "--retrieval" => {
                let hybrid =
                    |rerank| QueryMode::Hybrid { fusion: Default::default(), rerank, depth: 0 };
                args.retrieval = match raw.as_str() {
                    "dense" => QueryMode::Dense,
                    "lexical" => QueryMode::Lexical,
                    "hybrid" => hybrid(false),
                    "hybrid-rerank" => hybrid(true),
                    other => {
                        return bad(format!(
                            "unknown retrieval mode '{other}' (expected \
                             dense|lexical|hybrid|hybrid-rerank)"
                        ))
                    }
                };
            }
            "--fuse-depth" => fuse_depth = Some(val(flag, raw)?),
            "--edits" => args.edits = Some(val(flag, raw)?),
            other => unreachable!("{other} is in FLAGS but has no arm"),
        }
    }
    // `--fuse-depth` rides the retrieval mode: flags are order-independent,
    // so thread it after the scan rather than during it.
    match (&mut args.retrieval, fuse_depth) {
        (QueryMode::Hybrid { depth, .. }, Some(d)) => *depth = d,
        (_, Some(_)) => return bad("--fuse-depth needs a hybrid --retrieval".to_string()),
        (_, None) => {}
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// A value `parse` accepts for `flag` on its own (hence no lone
    /// `--fuse-depth`: it is only legal beside a hybrid `--retrieval`).
    fn sample(flag: &str) -> Vec<&str> {
        match flag {
            "--scale" => vec![flag, "0.5"],
            "--seed" => vec![flag, "7"],
            "--index" => vec![flag, "pq"],
            "--retrieval" => vec![flag, "lexical"],
            "--fuse-depth" => vec!["--retrieval", "hybrid", flag, "16"],
            "--edits" => vec![flag, "3"],
            other => panic!("no sample for {other}"),
        }
    }

    /// The table, written out a second time the way the seed's `match`
    /// arms read the flags: one row per command, one column per flag in
    /// [`FLAGS`] order (`x` = read).
    const EXPECTED: [(&str, &str); 19] = [
        ("all", "xxxxx."),
        ("table1", "xx...."),
        ("table2", "xxxxx."),
        ("table3", "xxxxx."),
        ("table4", "xxxxx."),
        ("fig1", "xxx..."),
        ("fig2", "xxx..."),
        ("fig3", "xxx..."),
        ("fig4", "xxxxx."),
        ("fig5", "xxxxx."),
        ("fig6", "xxxxx."),
        ("rates", "xxxxx."),
        ("residuals", "xxxxx."),
        ("recall", "xx...."),
        ("models", "xxxxx."),
        ("ingest", "xxx..x"),
        ("ablate-topk", "xxx..."),
        ("ablate-context", "xxx..."),
        ("ablate-filter", "xx...."),
    ];

    #[test]
    fn every_command_flag_pair_is_accepted_iff_the_command_reads_it() {
        assert_eq!(COMMANDS.map(|(c, _)| c), EXPECTED.map(|(c, _)| c));
        for (command, row) in EXPECTED {
            for (flag, cell) in FLAGS.iter().zip(row.chars()) {
                let want = cell == 'x';
                assert_eq!(reads(command, flag), want, "{command} {flag}");
                let mut words = vec![command];
                words.extend(sample(flag));
                let got = parse(&argv(&words));
                assert_eq!(got.is_ok(), want, "{words:?} → {got:?}");
                if !want {
                    let Err(Usage::Bad(problem)) = got else { panic!("{words:?} → {got:?}") };
                    assert!(problem.contains("does not read"), "{problem}");
                }
            }
        }
    }

    #[test]
    fn values_land_in_their_fields() {
        let args = parse(&argv(&[
            "ingest", "--edits", "5", "--index", "ivf", "--seed", "9", "--scale", "1",
        ]))
        .expect("parses");
        assert_eq!((args.command, args.scale, args.seed, args.edits), ("ingest", 1.0, 9, Some(5)));
        assert_eq!(args.index.label(), "ivf");

        let defaults = parse(&[]).expect("no arguments = all");
        assert_eq!((defaults.command, defaults.scale, defaults.seed), ("all", 0.1, 42));
        assert_eq!(defaults.retrieval, QueryMode::Dense);

        // Order-independent: the depth reaches the mode from either side.
        for words in [
            ["table2", "--fuse-depth", "16", "--retrieval", "hybrid-rerank"],
            ["table2", "--retrieval", "hybrid-rerank", "--fuse-depth", "16"],
        ] {
            let args = parse(&argv(&words)).expect("parses");
            let QueryMode::Hybrid { rerank, depth, .. } = args.retrieval else {
                panic!("{:?}", args.retrieval)
            };
            assert!(rerank);
            assert_eq!(depth, 16);
        }
    }

    #[test]
    fn the_deleted_models_flag_is_an_unknown_argument() {
        for command in ["fig1", "all", "models"] {
            let got = parse(&argv(&[command, "--models", "sim"]));
            assert_eq!(got, Err(Usage::Bad("unknown argument '--models'".to_string())));
        }
    }

    #[test]
    fn fuse_depth_without_a_hybrid_mode_is_refused() {
        for words in [
            &["all", "--fuse-depth", "16"][..],
            &["all", "--retrieval", "lexical", "--fuse-depth", "16"],
        ] {
            assert!(matches!(parse(&argv(words)), Err(Usage::Bad(_))), "{words:?}");
        }
    }
}
