//! `perf` — the repo benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-online --seed 7 --seconds 20 --trace 0
//! ```
//!
//! One run = one workload: repeated set-up, a timed region of about
//! `--seconds` seconds, the workload's correctness checks, and as the last
//! line of standard output one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The exit code is
//! non-zero when any check failed. See `README.md` beside this file for
//! what every metric means and which layer should move which.

mod backend_scan;
mod host;
mod ingest_churn;
mod load;
mod paper_repro;
mod report;
mod serve_online;
mod stats;
mod trace;

use std::time::{Duration, Instant};

use serde_json::Value;

use report::Report;
use trace::Tracer;

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper-repro", "serve-online", "ingest-churn", "backend-scan"];

/// Corpus scale of every workload: 451 docs → ≈ 3 760 chunks → ≈ 430
/// questions. Small enough that a run holds dozens of repetitions of its
/// operation, which is what makes the medians steady on a shared 2-vCPU box.
const SCALE: f64 = 0.02;
/// `--smoke`: 225 docs, one repetition of everything.
const SMOKE_SCALE: f64 = 0.01;
/// Set-up runs this many times; `setup_s` is the median. (Three was too few:
/// a set-up lasts as long as the host keeps one speed, so a run's samples
/// fall on either side of that switch, and over two sets of ten runs the
/// `serve-online` medians of three differed by 0.16 of a 0.25 bound.)
const SETUP_REPS: usize = 5;

const USAGE: &str = "usage: perf --workload paper-repro|serve-online|ingest-churn|backend-scan \
                     --seed <u64> --seconds <n> --trace <0|1> [--out <file>] | perf --smoke";

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed region, seconds.
    pub seconds: f64,
    pub traced: bool,
    pub scale: f64,
    /// Minimum repetitions only, one set-up: finishes in seconds.
    pub smoke: bool,
    pub out: Option<String>,
}

/// Wall seconds of one operation, as measured and at reference speed.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub raw_s: f64,
    /// `raw_s` ÷ how slow the host ran the reference kernel beside it.
    pub norm_s: f64,
}

impl Timing {
    /// The host's slowness beside this operation (1 = nominal speed).
    pub fn factor(&self) -> f64 {
        self.raw_s / self.norm_s
    }
}

impl std::ops::Add for Timing {
    type Output = Timing;
    fn add(self, other: Timing) -> Timing {
        Timing { raw_s: self.raw_s + other.raw_s, norm_s: self.norm_s + other.norm_s }
    }
}

/// Shared state of a run: the plan, the span recorder and the results.
pub struct Ctx {
    pub plan: Plan,
    pub tracer: Tracer,
    pub report: Report,
    reference: host::Reference,
    /// Every host-speed factor taken, in order.
    factors: Vec<f64>,
    /// Wall seconds of every set-up repetition.
    setup_raw_s: Vec<f64>,
    timed_from: Option<Instant>,
}

impl Ctx {
    pub fn new(plan: Plan) -> Self {
        // Spans are recorded only while a traced rep is running; the
        // workloads switch the tracer on and off around reps.
        Self {
            plan,
            tracer: Tracer::new(false),
            report: Report::default(),
            reference: host::Reference::new(),
            factors: Vec::new(),
            setup_raw_s: Vec::new(),
            timed_from: None,
        }
    }

    /// Time `f` like [`Tracer::time`], with the host-speed reference taken
    /// right before and right after it (see [`host::Reference`]).
    pub fn paced<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, Timing) {
        let before = self.reference.run_ms();
        let (result, raw_s) = self.tracer.time(name, f);
        let after = self.reference.run_ms();
        let factor = (before + after) / 2.0 / host::REFERENCE_NOMINAL_MS;
        self.factors.push(factor);
        (result, Timing { raw_s, norm_s: raw_s / factor })
    }

    /// Run the workload's set-up [`SETUP_REPS`] times and keep the last
    /// result; `run_workload` reports the median wall time as `setup_s`.
    /// Everything a workload does before its first timed operation happens
    /// in here, so work a later change moves into set-up shows up in this
    /// number.
    pub fn setup<E>(&mut self, mut build: impl FnMut(&mut Ctx) -> E) -> E {
        let reps = if self.plan.smoke { 1 } else { SETUP_REPS };
        let mut env = None;
        for _ in 0..reps {
            drop(env.take());
            let before = self.reference.run_ms();
            let t0 = Instant::now();
            env = Some(build(self));
            self.setup_raw_s.push(t0.elapsed().as_secs_f64());
            let after = self.reference.run_ms();
            self.factors.push((before + after) / 2.0 / host::REFERENCE_NOMINAL_MS);
        }
        self.timed_from = Some(Instant::now());
        env.expect("set-up ran at least once")
    }

    /// The instant by which `share` of the timed region is used up.
    pub fn deadline(&self, share: f64) -> Instant {
        let from = self.timed_from.expect("set-up precedes the timed region");
        from + Duration::from_secs_f64(self.plan.seconds * share)
    }

    /// True while repetition `i` should continue a phase that ends at
    /// `deadline` and needs at least `min` repetitions (one under smoke).
    pub fn more(&self, i: usize, min: usize, deadline: Instant) -> bool {
        if self.plan.smoke {
            i < 1
        } else {
            i < min || Instant::now() < deadline
        }
    }

    /// In a traced run, record spans on every other repetition, so the
    /// same operation is timed with and without tracing in one process.
    pub fn trace_rep(&mut self, i: usize) -> bool {
        let on = self.plan.traced && i.is_multiple_of(2);
        self.tracer.set_enabled(on);
        on
    }

    /// `trace_overhead_share`: traced ÷ untraced median of the primary
    /// operation's samples (1 when the run has no untraced twin).
    pub fn set_trace_overhead(&mut self, traced: &[f64], untraced: &[f64]) {
        let share = if traced.is_empty() || untraced.is_empty() {
            1.0
        } else {
            stats::median(traced) / stats::median(untraced).max(1e-12)
        };
        self.report.set("trace_overhead_share", share);
    }
}

fn usage_exit(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Plan {
    let mut plan = Plan {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        traced: false,
        scale: SCALE,
        smoke: false,
        out: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--smoke" {
            plan.smoke = true;
            plan.scale = SMOKE_SCALE;
            plan.seconds = 0.0;
            i += 1;
            continue;
        }
        let raw =
            argv.get(i + 1).unwrap_or_else(|| usage_exit(&format!("flag {flag} needs a value")));
        let bad = || -> ! { usage_exit(&format!("bad value '{raw}' for {flag}")) };
        match flag {
            "--workload" => plan.workload = raw.clone(),
            "--seed" => plan.seed = raw.parse().unwrap_or_else(|_| bad()),
            "--seconds" => plan.seconds = raw.parse().unwrap_or_else(|_| bad()),
            "--trace" => {
                plan.traced = match raw.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--out" => plan.out = Some(raw.clone()),
            other => usage_exit(&format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    if !(0.0..=600.0).contains(&plan.seconds) {
        usage_exit("--seconds must be between 0 and 600");
    }
    if !plan.smoke && !WORKLOADS.contains(&plan.workload.as_str()) {
        usage_exit(&format!("unknown workload '{}'", plan.workload));
    }
    plan
}

/// Run one workload to completion and return its context.
fn run_workload(plan: Plan) -> Ctx {
    let before = host::HostBefore::take();
    let mut ctx = Ctx::new(plan);
    match ctx.plan.workload.as_str() {
        "paper-repro" => paper_repro::run(&mut ctx),
        "serve-online" => serve_online::run(&mut ctx),
        "ingest-churn" => ingest_churn::run(&mut ctx),
        "backend-scan" => backend_scan::run(&mut ctx),
        other => unreachable!("workload '{other}' was validated at the command line"),
    }
    ctx.tracer.set_enabled(false);

    let drift = before.finish(host::workers());
    let r = &mut ctx.report;
    r.set("peak_rss_mb", host::peak_rss_mb());
    r.set("calib_drift_share", drift.calib_drift_share);
    r.set("host_steal_share", drift.host_steal_share);
    r.set("host.calib_dot_gbps", drift.calib_gbps);
    r.set("runtime.cpu_share", drift.cpu_share);
    r.set("noisy", f64::from(u8::from(drift.noisy)));
    r.set_samples("host.speed_factor", &ctx.factors);
    // A set-up takes a second or two, and the host changes speed several
    // times within one: the reference readings at its two ends say little
    // about it (dividing by them widened the run-to-run spread), so set-up
    // is put at reference speed with the mean of all the run's readings.
    r.set_samples("setup_s.raw", &ctx.setup_raw_s);
    r.set("setup_s", stats::median(&ctx.setup_raw_s) / stats::mean(&ctx.factors));
    if drift.noisy {
        eprintln!(
            "[perf] noisy run: calibration drifted {:.1} % across the workload",
            drift.calib_drift_share * 100.0
        );
    }
    let spans = ctx.tracer.spans();
    let by_layer = trace::layer_self_s(spans);
    let spanned: f64 = by_layer.values().sum();
    for (layer, self_s) in &by_layer {
        r.set(&format!("layer.{layer}.self_share"), self_s / spanned.max(1e-12));
    }
    for (name, t) in trace::totals(spans) {
        println!("[span] {name} count={} total_s={:.6} self_s={:.6}", t.count, t.total_s, t.self_s);
    }
    ctx
}

fn header(plan: &Plan) -> Vec<(String, Value)> {
    vec![
        ("workload".into(), Value::Str(plan.workload.clone())),
        ("seed".into(), Value::U64(plan.seed)),
        ("seconds".into(), Value::F64(plan.seconds)),
        ("scale".into(), Value::F64(plan.scale)),
        ("traced".into(), Value::Bool(plan.traced)),
        ("workers".into(), Value::U64(host::workers() as u64)),
    ]
}

/// `--smoke`: every workload, traced and untraced, at the smallest size.
/// Returns the names of registered metrics no workload produced.
fn run_smoke(seed: u64) -> (bool, Vec<&'static str>) {
    let mut correct = true;
    let mut seen = std::collections::BTreeSet::new();
    for workload in WORKLOADS {
        for traced in [false, true] {
            let plan = Plan {
                workload: workload.to_string(),
                seed,
                seconds: 0.0,
                traced,
                scale: SMOKE_SCALE,
                smoke: true,
                out: None,
            };
            let ctx = run_workload(plan);
            println!("[smoke] {workload} traced={traced} {}", ctx.report.result_line(traced));
            correct &= ctx.report.correct();
            seen.extend(ctx.report.values.keys().cloned());
        }
    }
    let missing = report::END_TO_END
        .iter()
        .map(|d| d.0)
        .chain(report::PER_LAYER.iter().map(|d| d.0))
        .filter(|name| !seen.contains(*name))
        .collect();
    (correct, missing)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let plan = parse_args(&argv);
    if plan.smoke {
        let (correct, missing) = run_smoke(plan.seed);
        if !missing.is_empty() {
            eprintln!("[smoke] registered metrics nobody produced: {missing:?}");
        }
        std::process::exit(i32::from(!correct || !missing.is_empty()));
    }

    let ctx = run_workload(plan);
    ctx.report.print();
    if let Some(path) = &ctx.plan.out {
        let write =
            std::fs::write(path, ctx.report.detail_json(header(&ctx.plan))).and_then(|()| {
                if ctx.plan.traced {
                    ctx.tracer.write(&format!("{path}.spans.jsonl"))
                } else {
                    Ok(())
                }
            });
        if let Err(e) = write {
            eprintln!("[perf] cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", ctx.report.result_line(ctx.plan.traced));
    std::process::exit(i32::from(!ctx.report.correct()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_contract_command_line_parses() {
        let p = parse_args(&args("--workload ingest-churn --seed 9 --seconds 12 --trace 1"));
        assert_eq!(
            (p.workload.as_str(), p.seed, p.seconds, p.traced),
            ("ingest-churn", 9, 12.0, true)
        );
        assert_eq!(p.scale, SCALE);
        let p = parse_args(&args("--smoke"));
        assert!(p.smoke && p.scale == SMOKE_SCALE);
    }

    /// All four workloads, both passes, smallest size: every check holds
    /// and every registered metric is produced by some workload.
    #[test]
    fn smoke_runs_every_workload_and_fills_every_metric() {
        let (correct, missing) = run_smoke(42);
        assert!(correct, "a smoke correctness check failed");
        assert!(missing.is_empty(), "metrics nobody produced: {missing:?}");
    }
}
