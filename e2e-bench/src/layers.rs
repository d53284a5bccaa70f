//! Per-layer numbers of the traced run, taken from outside by timing
//! the public calls of each layer, plus the trace export.

use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use mis_core::engine::passes::degree_stats;
use mis_core::Executor;
use mis_extmem::{IoStats, PagerConfig};
use mis_graph::AnyAdjFile;
use mis_obs::TraceReport;

use crate::common::{median, median_ms, quantile, Report, Rng, BLOCK_SIZE};
use crate::solve::{open_access, solve_once, SolveRun, SolveSpec};
use crate::Ctx;

/// Repetitions of each cheap layer measurement; the median is reported.
const REPS: usize = 3;
/// Untraced/traced solve pairs behind `obs.trace_overhead_pct`.
const OVERHEAD_PAIRS: usize = 2;

/// Layers every workload has: the storage ceiling, open, scan, point
/// lookups, the engine, and a traced solve split by algorithm phase.
/// Returns the median traced solve (its I/O counters are exact).
pub fn file_layers(
    ctx: &Ctx,
    path: &Path,
    spec: &SolveSpec,
    lookup_pager: PagerConfig,
    n: usize,
    report: &mut Report,
) -> io::Result<SolveRun> {
    let file_mb = std::fs::metadata(path)?.len() as f64 / 1e6;

    // Untraced and traced solves alternate, so drift hits both sides.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..OVERHEAD_PAIRS {
        mis_obs::set_enabled(false);
        untraced.push(solve_once(path, spec)?);
        mis_obs::set_enabled(true);
        let _span = mis_obs::span("phase", "solve");
        traced.push(solve_once(path, spec)?);
    }

    let _span = mis_obs::span("phase", "layers");
    let ceiling_ms = median_ms(REPS, || {
        let _span = mis_obs::span("bench", "extmem.read_ceiling");
        std::hint::black_box(std::fs::read(path).expect("read benchmark file"));
    });
    report.metric(
        "extmem.read_ceiling_mb_s",
        file_mb / (ceiling_ms / 1e3),
        "MB/s",
    );

    let open_ms = median_ms(REPS, || {
        let _span = mis_obs::span("bench", "graph.open");
        let file = AnyAdjFile::open_with_block_size(path, IoStats::shared(), BLOCK_SIZE)
            .expect("open benchmark file");
        if let Some(pager) = spec.pager() {
            std::hint::black_box(open_access(&file, pager).expect("open pager"));
        }
    });
    report.timing("graph.open_ms", open_ms, "ms", REPS);

    let file = AnyAdjFile::open_with_block_size(path, IoStats::shared(), BLOCK_SIZE)?;
    let scan = file.as_scan();
    let mut entries = 0u64;
    let scan_ms = median_ms(REPS, || {
        let _span = mis_obs::span("bench", "graph.scan");
        entries = 0;
        scan.scan(&mut |_, ns| entries += ns.len() as u64)
            .expect("scan benchmark file");
    });
    report.timing("graph.scan_ms", scan_ms, "ms", REPS);
    report.metric("graph.scan_mb_s", file_mb / (scan_ms / 1e3), "MB/s");
    report.metric(
        "graph.scan_ns_per_entry",
        scan_ms * 1e6 / entries.max(1) as f64,
        "ns",
    );

    let access = open_access(&file, lookup_pager)?;
    let lookups = if ctx.tiny { 2_000 } else { 20_000 };
    let mut rng = Rng::new(ctx.seed);
    let mut lookup_ns = Vec::with_capacity(lookups);
    {
        let _span = mis_obs::span("bench", "graph.neighbors");
        for _ in 0..lookups {
            let v = rng.below(n as u64) as u32;
            let t = Instant::now();
            access.with_neighbors(v, &mut |ns| {
                std::hint::black_box(ns);
            })?;
            lookup_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    report.timing("graph.neighbors_ns_p50", median(&lookup_ns), "ns", lookups);

    let par = Executor::parallel(mis_core::engine::available_threads());
    for (name, executor) in [
        ("core.engine.seq_pass_ms", Executor::Sequential),
        ("core.engine.par_pass_ms", par),
    ] {
        let ms = median_ms(REPS, || {
            let _span = mis_obs::span("bench", "core.engine.degree_stats");
            std::hint::black_box(degree_stats(scan, &executor));
        });
        report.timing(name, ms, "ms", REPS);
    }

    let pick = |f: fn(&SolveRun) -> f64, runs: &[SolveRun]| -> f64 {
        median(&runs.iter().map(f).collect::<Vec<_>>())
    };
    let greedy_ms = pick(|r| r.greedy_ms, &traced);
    let swap_ms = pick(|r| r.swap_ms, &traced);
    let proof_ms = pick(|r| r.proof_ms, &traced);
    let traced_ms = pick(|r| r.total_ms, &traced);
    let untraced_ms = pick(|r| r.total_ms, &untraced);
    let last = traced.pop().expect("traced solves ran");
    report.timing("core.greedy_ms", greedy_ms, "ms", OVERHEAD_PAIRS);
    report.timing("core.swap_ms", swap_ms, "ms", OVERHEAD_PAIRS);
    report.timing("core.proof_ms", proof_ms, "ms", OVERHEAD_PAIRS);
    report.metric("core.solve_scans", last.scans as f64, "count");
    report.metric("core.swap_rounds", f64::from(last.swap_rounds), "count");
    report.metric("core.paged_rounds", last.paged_rounds as f64, "count");
    report.metric(
        "core.fold_ms",
        greedy_ms + swap_ms + proof_ms - last.scans as f64 * scan_ms,
        "ms",
    );
    report.metric(
        "obs.trace_overhead_pct",
        100.0 * (traced_ms - untraced_ms) / untraced_ms,
        "%",
    );
    report.notes.push(format!(
        "in-process solve: untraced {untraced_ms:.1} ms vs traced {traced_ms:.1} ms \
         (medians of {OVERHEAD_PAIRS} each)"
    ));
    Ok(last)
}

/// The serve-path layers, which the offline solves leave idle: reported
/// as 0 so every traced run prints the same metric set.
pub fn serve_layers_idle(report: &mut Report) {
    for (name, unit) in SERVE_ONLY {
        report.metric(name, 0.0, unit);
    }
}

/// Per-layer metrics only the serve workload exercises.
const SERVE_ONLY: [(&str, &str); 23] = [
    ("core.repair_ms_p50", "ms"),
    ("core.repair_scans", "count"),
    ("update.append_ms", "ms"),
    ("update.roll_ms", "ms"),
    ("update.compact_ms", "ms"),
    ("update.snapshot_ms", "ms"),
    ("update.checkpoint_ms", "ms"),
    ("update.bytes_written_per_op", "B"),
    ("update.flush_ms_p50", "ms"),
    ("update.flush_ms_p90", "ms"),
    ("update.member_ns_p50", "ns"),
    ("update.neighbors_ns_p50", "ns"),
    ("cli.member_overhead_us", "us"),
    ("cli.neighbors_overhead_us", "us"),
    ("cli.startup_s", "s"),
    ("client.late_p99_ms", "ms"),
    ("client.reads_attempted", "count"),
    ("serve.member_p50_us", "us"),
    ("serve.member_p99_us", "us"),
    ("serve.neighbors_p50_us", "us"),
    ("serve.neighbors_p99_us", "us"),
    ("serve.update_ops_s", "1/s"),
    ("serve.commit_p90_ms", "ms"),
];

/// Writes the recorded spans as Chrome-trace JSONL into the run's
/// directory and checks that `mis trace report` accepts the file.
pub fn finish_trace(ctx: &Ctx, report: &mut Report) -> io::Result<()> {
    mis_obs::flush_local();
    let trace = mis_obs::drain();
    mis_obs::set_enabled(false);
    let path = ctx.dir.join("trace.jsonl");
    trace.save(&path)?;
    let parsed = TraceReport::load(&path)?;
    let status = Command::new(&ctx.mis)
        .args(["trace", "report"])
        .arg(&path)
        .stdout(Stdio::null())
        .status()?;
    report.notes.push(format!(
        "trace: {} events ({} spans) -> {} (inspect: mis trace report {})",
        parsed.num_events,
        parsed.num_spans,
        path.display(),
        path.display()
    ));
    report.check(
        "trace loads in `mis trace report`",
        status.success() && parsed.num_spans > 0,
    );
    Ok(())
}

/// `p` quantile of nanosecond samples, in microseconds.
pub fn us(samples_ns: &[f64], p: f64) -> f64 {
    quantile(samples_ns, p) / 1e3
}
