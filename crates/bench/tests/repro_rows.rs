//! What `repro` prints, asserted on the typed rows it prints from: every
//! value here is a pure function of `(scale, seed, flags)`, so these are
//! the checks `scripts/repro-smoke.sh` used to make with `grep` and `awk`
//! over the binary's text. One tiny pipeline output is shared by the suite.

use mcqa_bench::cli::{self, parse, Usage};
use mcqa_bench::ingest::{ingest_check, Verdict};
use mcqa_bench::recall::{mode_recall, render_mode_recall};
use mcqa_bench::{ablate, bench_output, models, BENCH_SCALE};
use mcqa_core::PipelineConfig;
use mcqa_eval::Source;

fn argv(words: &str) -> Vec<String> {
    words.split_whitespace().map(str::to_string).collect()
}

#[test]
fn every_mode_reports_every_source_and_hybrid_does_not_lose_to_dense() {
    let modes = mode_recall(bench_output(), 5);
    let labels: Vec<&str> = modes.iter().map(|m| m.mode).collect();
    assert_eq!(labels, ["dense", "lexical", "hybrid"]);
    let text = render_mode_recall(&modes, 5);
    for m in &modes {
        let sources: Vec<&str> = m.sources.iter().map(|s| s.name).collect();
        assert_eq!(sources, Source::ALL.map(Source::store_name), "mode {}", m.mode);
        for s in &m.sources {
            assert!((0.0..=1.0).contains(&s.recall), "{s:?}");
            // The lexical channel reports its resident footprint like
            // every dense backend: the memory table is uniform.
            assert!(s.mem_bytes > 0 && s.bytes_per_vec > 0.0, "mode {}: {s:?}", m.mode);
        }
        for source in ["chunks", "traces-detailed", "traces-focused", "traces-efficient", "all"] {
            let prefix = format!("[recall] mode={} source={source} recall_at_5=", m.mode);
            assert!(text.contains(&prefix), "no line starting {prefix:?}:\n{text}");
        }
    }
    let mean = |mode: &str| modes.iter().find(|m| m.mode == mode).expect("mode").mean;
    assert!(
        mean("hybrid") >= mean("dense"),
        "fusing the lexical channel in lost recall: hybrid {} < dense {}",
        mean("hybrid"),
        mean("dense")
    );
    assert!(!text.contains("qps"), "no wall-clock columns:\n{text}");
}

#[test]
fn bad_arguments_are_refused_and_help_is_the_usage_table() {
    let removed_flags = [
        "--serve-requests 128",
        "--serve-concurrency 1,8",
        "--serve-batch 64",
        "--serve-deadline-us 500",
        "--serve-queue 256",
        "--serve-rate 100",
        "--sweep",
        "--cache-budget 0",
    ];
    let on_all = removed_flags.map(|f| format!("all {f}"));
    let mut refused: Vec<&str> = vec![
        "tabel2",
        "--scale 0.1",
        "all --scale 0",
        "all --scale 1.5",
        "all --scale nan",
        "all --scale",
        "fig1 --bogus 1",
        "serve-bench",
        "all --index faiss",
        "all --retrieval sparse",
        "ingest --edits -1",
        // `EditBatch::synthetic` would reserve this many edits up front.
        "ingest --edits 18446744073709551615 --scale 0.01 --seed 1",
        // The four that ran to completion before the flag table existed.
        "recall --index pq",
        "fig1 --retrieval hybrid",
        "table2 --edits 3",
        "all --fuse-depth 16",
        "table2 --retrieval hybrid --fuse-depth 0",
        "table2 --retrieval hybrid-rerank",
    ];
    refused.extend(on_all.iter().map(String::as_str));
    for words in refused {
        let got = parse(&argv(words));
        assert!(matches!(got, Err(Usage::Bad(_))), "'repro {words}' → {got:?}");
    }
    // A removed flag is an unknown argument: refused, never accepted and
    // silently ignored.
    for (words, flag) in [
        ("fig1 --index flat", "--index"),
        ("table2 --retrieval hybrid --fuse-depth 8", "--fuse-depth"),
    ] {
        let why = format!("unknown argument '{flag}'");
        assert_eq!(parse(&argv(words)), Err(Usage::Bad(why)), "'repro {words}'");
    }
    // So is a removed retrieval mode: an unknown value, never a silent
    // fall-back to another mode.
    let why = "unknown retrieval mode 'hybrid-rerank' (expected dense|lexical|hybrid)";
    assert_eq!(parse(&argv("table2 --retrieval hybrid-rerank")), Err(Usage::Bad(why.into())));

    for help in ["help", "--help", "-h"] {
        assert_eq!(parse(&argv(help)), Err(Usage::Help));
    }
    let usage = cli::usage();
    assert!(usage.contains("commands: all table1 "), "{usage}");
    for flag in cli::FLAGS {
        assert!(usage.contains(flag), "{flag} missing from:\n{usage}");
    }
    assert!(!usage.contains("serve") && !usage.contains("sweep") && !usage.contains("cache"));
    assert!(!usage.contains("rerank"), "{usage}");
    assert_eq!((cli::COMMANDS.len(), cli::FLAGS.len()), (18, 4));
}

#[test]
fn incremental_ingest_is_identical_to_a_cold_rebuild_on_flat() {
    let config = PipelineConfig::at_scale(BENCH_SCALE, 42);

    // An unchanged corpus re-runs nothing.
    let noop = ingest_check(&config, Some(0));
    assert_eq!(noop.verdict, Verdict::Identical, "{}", noop.render());
    assert_eq!((noop.edits, noop.profile), (0, (0, 0, 0)));
    let c = &noop.census;
    assert!(c.docs_scanned > 0 && c.docs_skipped() == c.docs_scanned, "{c:?}");
    assert_eq!(c.docs_changed(), 0, "{c:?}");
    assert_eq!(c.chunks_rerun, 0, "{c:?}");
    assert_eq!((c.tombstones_dense, c.tombstones_lexical, c.compactions), (0, 0, 0), "{c:?}");
    assert_eq!((noop.stores, noop.probes), (8, 3), "4 dense stores + 4 lexical siblings");
    let text = noop.render();
    assert!(text.starts_with("[ingest] edits=0 add=0 modify=0 remove=0\n"), "{text}");
    assert!(text.ends_with("[ingest] verify=identical stores=8 probes=3\n"), "{text}");
    assert!(!text.contains("secs") && !text.contains("speedup"), "no wall clocks:\n{text}");

    // One edited document re-runs only its own slices.
    let one = ingest_check(&config, Some(1));
    assert_eq!(one.verdict, Verdict::Identical, "{}", one.render());
    let (add, modify, remove) = one.profile;
    assert_eq!(add + modify + remove, 1);
    let c = &one.census;
    assert_eq!(c.docs_changed(), 1, "{c:?}");
    assert!(c.chunks_reused > 0 && c.chunks_rerun * 10 < c.chunks_total, "re-ran too much: {c:?}");
    // Shifted questions move their rows instead of tombstoning them, so
    // one edit leaves every store under the compaction threshold.
    assert_eq!(c.compactions, 0, "{c:?}");
    // The round's fixed cost has rows of its own: the scan and the copy of
    // the previous registry (four stores, four siblings).
    let row = one.stages.stages().iter().find(|s| s.name == "ingest-registry").expect("copy row");
    assert_eq!((row.items, row.produced), (8, 8));
    assert!(one.stages.stages().iter().any(|s| s.name == "ingest-scan"));
}

#[test]
fn model_census_prices_every_active_role_and_no_reranker() {
    let output = bench_output();
    let rows = models::model_census(output);
    let roles: Vec<&str> = rows.iter().map(|(role, _)| *role).collect();
    for role in ["teacher", "judge", "total"] {
        assert!(roles.contains(&role), "no {role} row in {roles:?}");
    }
    assert!(!roles.contains(&"reranker"), "{roles:?}");
    assert_eq!(roles.last(), Some(&"total"));
    let (_, total) = rows.last().expect("total row");
    let summed: u64 = rows[..rows.len() - 1].iter().map(|(_, s)| s.calls).sum();
    assert!(rows.iter().all(|(_, s)| s.calls > 0), "idle roles are omitted: {rows:?}");
    // Other tests of this suite evaluate on the same hub concurrently, so
    // the aggregate, read a moment later, can only have grown.
    assert!(total.calls >= summed, "{rows:?}");

    let text = models::render_model_census(output, &rows);
    for role in ["teacher", "judge", "total"] {
        assert!(text.contains(&format!("[models] backend=sim role={role} calls=")), "{text}");
    }
    assert!(!text.contains("reranker"), "{text}");
}

#[test]
fn ablation_series_have_their_sweep_points() {
    let output = bench_output();
    let unit = |xs: Vec<f64>| xs.iter().all(|x| (0.0..=1.0).contains(x));

    let topk = ablate::ablate_topk(output, 42);
    assert_eq!(topk.column("k"), [1.0, 2.0, 3.0, 5.0, 8.0, 10.0]);
    assert!(unit(topk.column("rag-chunks")) && unit(topk.column("rt-focused")), "{topk:?}");
    assert!(topk.rows[0][2] > topk.rows[0][1], "traces beat chunks at k=1: {topk:?}");
    let text = topk.render();
    assert!(text.contains("\n   k   rag-chunks   rt-focused\n   1 "), "{text}");
    assert_eq!(text.lines().count(), 2 + topk.rows.len());

    let filter = ablate::ablate_filter(BENCH_SCALE, 42);
    assert_eq!(filter.column("threshold"), [5.0, 6.0, 7.0, 8.0, 9.0]);
    assert_eq!(filter.column("candidates"), [1864.0; 5], "the bar does not move generation");
    let accepted = filter.column("accepted");
    assert!(accepted.windows(2).all(|w| w[1] <= w[0]), "a higher bar accepts no more: {filter:?}");
    assert_eq!(accepted[2], 204.0, "the paper's bar (7) yields the golden tiny census");
    let text = filter.render();
    assert!(text.lines().skip(2).all(|l| l.ends_with('%')), "{text}");
    assert_eq!(text.lines().count(), 2 + filter.rows.len());
}
