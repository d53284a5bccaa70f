//! End-to-end and per-layer benchmark of the semi-external MIS solver.
//!
//! ```text
//! bash e2e-bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bash e2e-bench/run.sh --self-test
//! ```
//!
//! Workloads (see `BENCHMARK.json` and `e2e-bench/METRICS.md`):
//!
//! * `solve-plain` — Greedy → two-k swap → proof, sequential, no pager,
//!   on a degree-sorted plain file of a 2M-vertex generated graph;
//! * `solve-compressed-par` — the same graph gap-compressed, parallel
//!   executor on every hardware thread, an 8 MiB pager;
//! * `serve-churn` — a `mis serve --socket` process on a 200k-vertex
//!   base under a closed-loop churn writer and an open-loop reader.
//!
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a traced run, whose Chrome-trace JSONL is left in the run's work
//! directory. Inputs are generated from `--seed`; everything is written
//! under `.bench_work/` in the current directory.

mod common;
mod layers;
mod selftest;
mod serve;
mod solve;

use std::path::{Path, PathBuf};
use std::time::Instant;

use common::{Metric, Report};
use solve::SolveSpec;

/// Root of every file a run writes, relative to the checkout.
const WORK_ROOT: &str = ".bench_work";

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["solve-plain", "solve-compressed-par", "serve-churn"];

/// One run's settings.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The self-test's small inputs.
    pub tiny: bool,
    /// The `mis` binary `serve-churn` spawns.
    pub mis: PathBuf,
    /// This run's work directory.
    pub dir: PathBuf,
    /// When the run started.
    pub started: Instant,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            std::process::exit(2);
        }
    }
}

/// `--key value` pairs; `--self-test` takes no value.
fn parse(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        let value = if key == "self-test" {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        };
        out.push((key.to_string(), value));
    }
    Ok(out)
}

fn get<'a>(opts: &'a [(String, String)], key: &str) -> Option<&'a str> {
    opts.iter()
        .rev()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn num<T: std::str::FromStr>(opts: &[(String, String)], key: &str) -> Result<T, String> {
    let raw = get(opts, key).ok_or_else(|| format!("missing --{key}"))?;
    raw.parse()
        .map_err(|_| format!("--{key}: cannot parse `{raw}`"))
}

fn run(args: &[String]) -> Result<i32, String> {
    let started = Instant::now();
    let opts = parse(args)?;
    if let Some(file) = get(&opts, "solver") {
        // The solver detects the file's format from its magic bytes.
        let spec = SolveSpec {
            compressed: false,
            threads: num(&opts, "threads")?,
            cache_mb: num(&opts, "cache-mb")?,
        };
        let set_out = get(&opts, "set-out").ok_or("missing --set-out")?;
        solve::solver_main(
            Path::new(file),
            &spec,
            num(&opts, "seconds")?,
            Path::new(set_out),
        )
        .map_err(|e| format!("solver: {e}"))?;
        return Ok(0);
    }
    let mis = PathBuf::from(get(&opts, "mis").ok_or("missing --mis <path to the mis binary>")?);
    if get(&opts, "self-test").is_some() {
        return selftest::run(&mis);
    }

    let workload = get(&opts, "workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let trace = match get(&opts, "trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let dir = Path::new(WORK_ROOT).join(workload);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // Library scratch files (external sort runs, priority queues) land
    // in the run's directory too, never outside the checkout.
    std::env::set_var(
        "TMPDIR",
        std::fs::canonicalize(&dir).map_err(|e| e.to_string())?,
    );
    let ctx = Ctx {
        workload: workload.to_string(),
        seed: num(&opts, "seed")?,
        seconds: num(&opts, "seconds")?,
        trace,
        tiny: get(&opts, "scale") == Some("tiny"),
        mis,
        dir,
        started,
    };
    if !ctx.mis.is_file() {
        return Err(format!("{}: no mis binary", ctx.mis.display()));
    }

    println!(
        "== e2e-bench: workload {}, seed {}, {} s, trace {}, {} hardware threads",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        mis_core::engine::available_threads()
    );
    let report = run_workload(&ctx);
    clean_work_dir(&ctx.dir);
    let mut report = report?;
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    report.check("every metric is a finite number", finite);
    print_report(&ctx, &report);
    Ok(if report.correct() { 0 } else { 1 })
}

fn run_workload(ctx: &Ctx) -> Result<Report, String> {
    let mut report = match SolveSpec::for_workload(&ctx.workload) {
        Some(spec) => solve::run(ctx, spec),
        None => serve::run(ctx),
    }
    .map_err(|e| format!("{}: {e}", ctx.workload))?;
    if ctx.trace {
        layers::finish_trace(ctx, &mut report).map_err(|e| format!("trace: {e}"))?;
    }
    Ok(report)
}

/// Deletes the run's inputs and store files, keeping the trace.
fn clean_work_dir(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.file_name().is_some_and(|n| n == "trace.jsonl") {
            continue;
        }
        let _ = if path.is_dir() {
            std::fs::remove_dir_all(&path)
        } else {
            std::fs::remove_file(&path)
        };
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("  {title}:");
    for m in metrics {
        let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
        println!("    {:<28} {:>14.4} {}{samples}", m.name, m.value, m.unit);
    }
}

/// The human-readable report, then the one-line JSON result.
fn print_report(ctx: &Ctx, report: &Report) {
    for note in &report.notes {
        println!("  {note}");
    }
    if ctx.trace {
        print_metrics("end-to-end (untraced)", &report.end_to_end);
        print_metrics("per-layer (traced)", &report.metrics);
    } else {
        print_metrics("end-to-end", &report.metrics);
    }
    println!(
        "  error_rate = {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for (name, pass) in &report.checks {
        println!("  oracle {}: {name}", if *pass { "pass" } else { "FAIL" });
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        // JSON has no NaN; a non-finite value already failed the run.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        json.push_str(&format!(
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.unit
        ));
    }
    json.push_str("}}");
    println!("{json}");
}
