//! `repro`'s argument parser: one scanner, one table of which flags each
//! command reads, and no `process::exit` — the binary decides what a
//! [`Usage`] costs.

use mcqa_corpus::AcquisitionConfig;
use mcqa_serve::QueryMode;

/// What one `repro` invocation asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// One of [`COMMANDS`].
    pub command: &'static str,
    pub scale: f64,
    pub seed: u64,
    /// `--retrieval`; a hybrid mode fuses at the default depth (`depth: 0`,
    /// `mcqa_index::lexical::DEFAULT_FUSE_DEPTH`).
    pub retrieval: QueryMode,
    /// `ingest`: synthetic edit-batch size (default ≈ 1% of the live
    /// corpus, minimum 1; at most the documents `--scale` acquires).
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
pub const FLAGS: [&str; 4] = ["--scale", "--seed", "--retrieval", "--edits"];
const EVERYWHERE: usize = 2;

/// Commands that run the evaluator under `--retrieval`.
const EVAL: &[&str] = &["--retrieval"];

/// Every command with the flags it reads beyond the universal two.
/// `recall` runs every retrieval mode itself.
pub const COMMANDS: [(&str, &[&str]); 18] = [
    ("all", EVAL),
    ("table1", &[]),
    ("table2", EVAL),
    ("table3", EVAL),
    ("table4", EVAL),
    ("fig1", &[]),
    ("fig2", &[]),
    ("fig3", &[]),
    ("fig4", EVAL),
    ("fig5", EVAL),
    ("fig6", EVAL),
    ("rates", EVAL),
    ("residuals", EVAL),
    ("recall", &[]),
    ("models", EVAL),
    ("ingest", &["--edits"]),
    ("ablate-topk", &[]),
    ("ablate-filter", &[]),
];

/// Whether `command` reads `flag` (false for an unknown command or flag).
pub(crate) fn reads(command: &str, flag: &str) -> bool {
    FLAGS[..EVERYWHERE].contains(&flag)
        || COMMANDS.iter().any(|(c, flags)| *c == command && flags.contains(&flag))
}

/// The usage table.
pub fn usage() -> String {
    let commands: Vec<&str> = COMMANDS.iter().map(|(c, _)| *c).collect();
    format!(
        "usage: repro [command] [flags]   (no command = all; `repro help` prints this table)\n\
         commands: {}\n\
         valid flags: --scale <f64 in (0, 1]> --seed <u64> \
         --retrieval dense|lexical|hybrid --edits <n>",
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
    let mut args =
        RunArgs { command, scale: 0.1, seed: 42, retrieval: QueryMode::Dense, edits: None };
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
            "--retrieval" => {
                args.retrieval = match raw.as_str() {
                    "dense" => QueryMode::Dense,
                    "lexical" => QueryMode::Lexical,
                    "hybrid" => {
                        QueryMode::Hybrid { fusion: Default::default(), rerank: false, depth: 0 }
                    }
                    other => {
                        return bad(format!(
                            "unknown retrieval mode '{other}' (expected dense|lexical|hybrid)"
                        ))
                    }
                };
            }
            "--edits" => args.edits = Some(val(flag, raw)?),
            other => unreachable!("{other} is in FLAGS but has no arm"),
        }
    }
    // An edit batch is drawn against the corpus `--scale` acquires, so one
    // larger than that corpus asks for edits that do not exist.
    if let Some(edits) = args.edits {
        let acquired = AcquisitionConfig::paper_scale(args.scale, args.seed);
        let docs = acquired.full_papers + acquired.abstracts;
        if edits > docs {
            return bad(format!(
                "bad value '{edits}' for --edits (expected <= {docs}, the documents \
                 --scale {} acquires)",
                args.scale
            ));
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// A value `parse` accepts for `flag`.
    fn sample(flag: &str) -> Vec<&str> {
        match flag {
            "--scale" => vec![flag, "0.5"],
            "--seed" => vec![flag, "7"],
            "--retrieval" => vec![flag, "lexical"],
            "--edits" => vec![flag, "3"],
            other => panic!("no sample for {other}"),
        }
    }

    /// The table, written out a second time the way the seed's `match`
    /// arms read the flags: one row per command, one column per flag in
    /// [`FLAGS`] order (`x` = read).
    const EXPECTED: [(&str, &str); 18] = [
        ("all", "xxx."),
        ("table1", "xx.."),
        ("table2", "xxx."),
        ("table3", "xxx."),
        ("table4", "xxx."),
        ("fig1", "xx.."),
        ("fig2", "xx.."),
        ("fig3", "xx.."),
        ("fig4", "xxx."),
        ("fig5", "xxx."),
        ("fig6", "xxx."),
        ("rates", "xxx."),
        ("residuals", "xxx."),
        ("recall", "xx.."),
        ("models", "xxx."),
        ("ingest", "xx.x"),
        ("ablate-topk", "xx.."),
        ("ablate-filter", "xx.."),
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
        let args = parse(&argv(&["ingest", "--edits", "5", "--seed", "9", "--scale", "1"]))
            .expect("parses");
        assert_eq!((args.command, args.scale, args.seed, args.edits), ("ingest", 1.0, 9, Some(5)));

        let defaults = parse(&[]).expect("no arguments = all");
        assert_eq!((defaults.command, defaults.scale, defaults.seed), ("all", 0.1, 42));
        assert_eq!(defaults.retrieval, QueryMode::Dense);

        let args = parse(&argv(&["table2", "--retrieval", "hybrid"])).expect("parses");
        let QueryMode::Hybrid { rerank, depth, .. } = args.retrieval else {
            panic!("{:?}", args.retrieval)
        };
        assert!(!rerank);
        assert_eq!(depth, 0, "the default fuse depth");

        let got = parse(&argv(&["table2", "--retrieval", "hybrid-rerank"]));
        let problem = "unknown retrieval mode 'hybrid-rerank' (expected dense|lexical|hybrid)";
        assert_eq!(got, Err(Usage::Bad(problem.to_string())));
    }

    #[test]
    fn the_deleted_models_flag_is_an_unknown_argument() {
        for command in ["fig1", "all", "models"] {
            let got = parse(&argv(&[command, "--models", "sim"]));
            assert_eq!(got, Err(Usage::Bad("unknown argument '--models'".to_string())));
        }
    }

    #[test]
    fn edits_are_bounded_by_the_documents_scale_acquires() {
        // Scale 0.01 acquires 141 papers + 84 abstracts; flags are
        // order-independent, so the bound reads `--scale` from either side.
        let ingest = |words: &[&str]| parse(&argv(&[&["ingest"][..], words].concat()));
        for words in [["--scale", "0.01", "--edits", "225"], ["--edits", "225", "--scale", "0.01"]]
        {
            assert_eq!(ingest(&words).map(|a| a.edits), Ok(Some(225)), "{words:?}");
        }
        assert_eq!(ingest(&["--edits", "0"]).map(|a| a.edits), Ok(Some(0)), "a no-op round");
        let huge = ingest(&["--edits", "18446744073709551615", "--scale", "0.01", "--seed", "1"]);
        let why = "bad value '18446744073709551615' for --edits (expected <= 225, the documents \
                   --scale 0.01 acquires)";
        assert_eq!(huge, Err(Usage::Bad(why.to_string())));
        let over = ingest(&["--edits", "226", "--scale", "0.01"]);
        assert!(matches!(over, Err(Usage::Bad(_))), "{over:?}");
    }
}
