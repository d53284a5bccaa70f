//! Parallel execution engine experiment: the two-k workload at 1/2/4/8
//! worker threads on both storage backends.
//!
//! The engine's contract is that the `Parallel` backend changes *how
//! fast* a pass runs, never *what* it computes: the independent set, the
//! round trajectory and the maximality proof must be identical at every
//! thread count. This experiment runs the full two-k pipeline (Greedy
//! seed → two-k swaps → maximality proof) on one generated power-law
//! graph — stored both plain and gap-compressed — once on the sequential
//! backend and once per worker count, then asserts the outputs are
//! identical and reports wall-clock, block transfers and the speedup of
//! `--threads` workers over 1.
//!
//! Timing is split into **setup** (file open plus a warm-up scan that
//! pulls the file into the OS page cache) and **steady-state scan** (the
//! actual pipeline). The speedup is computed from the scan phase only:
//! setup is identical at every thread count, so folding it into one wall
//! time dilutes the measured scaling toward 1. The numbers land in
//! `BENCH_parallel.json` (override with `BENCH_PARALLEL_OUT`) together
//! with the machine's hardware parallelism — on a single-core container
//! the speedup hovers around 1.0 by construction; the JSON records the
//! hardware so downstream tooling can tell "no speedup" from "no cores",
//! and the `--min-speedup` assertion is skipped when the hardware cannot
//! possibly satisfy it.

use std::path::PathBuf;

use mis_core::engine::available_threads;
use mis_core::Executor;
use mis_graph::GraphScan;
use mis_obs::{LedgerEntry, Trace, TraceReport};

use crate::harness::{self, JsonObject, Row, MODEL_TOLERANCE};

/// Command-line configuration of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelArgs {
    /// The top worker count the speedup is measured at (versus 1 worker).
    pub threads: usize,
    /// Fail unless the steady-state speedup of `par(threads)` over
    /// `par(1)` reaches this ratio on both storage backends. Skipped
    /// (with a printed note) when the machine has fewer hardware threads
    /// than `threads` — a single-core container cannot scale.
    pub min_speedup: Option<f64>,
    /// Record a [`mis_obs`] trace of every measured side into this
    /// Chrome-trace JSONL file. The experiment then also ingests its own
    /// trace: per-side worker utilization and queue-wait land in the
    /// JSON, and the per-phase report is printed at the end.
    pub trace: Option<PathBuf>,
}

impl Default for ParallelArgs {
    fn default() -> Self {
        ParallelArgs {
            threads: 4,
            min_speedup: None,
            trace: None,
        }
    }
}

/// Parses `--threads N` / `--min-speedup X` / `--trace FILE` trailing
/// arguments.
fn parse_args(args: &[String]) -> Result<ParallelArgs, String> {
    let mut parsed = ParallelArgs::default();
    harness::parse_flags(args, &mut parsed.threads, |flag, value| {
        let value = || value.ok_or(format!("{flag} needs a value"));
        match flag {
            "--min-speedup" => {
                let v = value()?;
                let x: f64 = v
                    .parse()
                    .map_err(|_| format!("bad --min-speedup value {v:?}"))?;
                if !x.is_finite() || x <= 0.0 {
                    return Err("--min-speedup must be a positive number".into());
                }
                parsed.min_speedup = Some(x);
            }
            "--trace" => parsed.trace = Some(PathBuf::from(value()?)),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(parsed)
}

/// Steady-state speedup of `par(top)` over `par(1)` on one storage.
fn scan_speedup(sides: &[Row], storage: &str, top: usize) -> f64 {
    let scan_ms = |threads: usize| {
        let backend = format!("par({threads})");
        sides
            .iter()
            .find(|s| s.storage == Some(storage) && s.backend.as_ref() == Some(&backend))
            .and_then(|s| s.scan_ms)
            .unwrap_or_else(|| panic!("missing {storage} {backend} side"))
    };
    let (one, top) = (scan_ms(1), scan_ms(top));
    if top > 0.0 {
        one / top
    } else {
        1.0
    }
}

/// Runs the experiment with default arguments (used by `repro all`).
pub fn run() {
    run_with(ParallelArgs::default());
}

/// Parses trailing CLI arguments and runs the experiment.
pub fn run_args(args: &[String]) {
    let usage = "[--threads N] [--min-speedup X] [--trace FILE]";
    run_with(harness::args_or_exit("parallel", usage, parse_args(args)));
}

fn run_with(cli: ParallelArgs) {
    let n = harness::sweep_vertices().min(100_000);
    let block_size = 64 * 1024usize;
    if cli.trace.is_some() {
        mis_obs::set_enabled(true);
    }
    println!(
        "== Execution engine: two-k workload across worker counts and storage backends \
         (P(α,β), β = 2.0, |V| ≈ {n}; {} hardware threads) ==",
        available_threads()
    );

    let fx = harness::fixture("repro-parallel", n, block_size, true);
    let compressed = fx.compressed.as_ref().expect("compressed fixture");
    let file_bytes = fx.plain.disk_bytes().expect("metadata");
    let comp_bytes = compressed.disk_bytes().expect("metadata");

    let mut workers = vec![1usize, 2, 4, 8];
    if !workers.contains(&cli.threads) {
        workers.push(cli.threads);
        workers.sort_unstable();
    }
    let executors: Vec<Executor> = std::iter::once(Executor::Sequential)
        .chain(workers.iter().map(|&w| Executor::parallel(w)))
        .collect();

    // Every side attributes only its own trace events to its worker
    // utilization and queue wait; the combined timeline for the output
    // file collects all of them, including the graph build's and
    // anything queued between sides. Untraced, it stays empty.
    let mut combined = Trace::default();
    let mut sides = Vec::new();
    for file in [&fx.plain, compressed] {
        for &executor in &executors {
            combined.extend(mis_obs::drain());
            let (mut side, trace) =
                harness::solve_twok(file.path(), block_size, executor, MODEL_TOLERANCE);
            side.threads = Some(executor.threads());
            combined.extend(trace);
            sides.push(side);
        }
    }
    let traced = cli.trace.is_some();

    // The 1-thread parallel backend must take the sequential bypass: no
    // reader thread, no worker pool, no hand-out queue. A traced run
    // proves it — the side's own trace must contain no worker timelines.
    if traced {
        for side in sides
            .iter()
            .filter(|s| s.backend.as_deref() == Some("par(1)"))
        {
            assert!(
                side.worker_utilization.is_none(),
                "{}: expected the sequential bypass (no worker threads), \
                 but the trace recorded worker timelines",
                side.name()
            );
        }
        println!("  par(1) bypass verified: no worker threads traced on the 1-thread backend");
    }

    let ms = |v: Option<f64>| format!("{:.1}ms", v.unwrap_or_default());
    let rows: Vec<Vec<String>> = sides
        .iter()
        .map(|s| {
            vec![
                s.storage.unwrap_or_default().to_string(),
                s.backend.clone().unwrap_or_default(),
                s.is_size.to_string(),
                s.rounds.to_string(),
                s.file_scans.to_string(),
                s.io.blocks_read.to_string(),
                (s.maximal == Some(true)).to_string(),
                ms(s.setup_ms),
                ms(s.scan_ms),
                ms(s.wall_ms),
            ]
        })
        .collect();
    let header = [
        "storage",
        "backend",
        "|IS|",
        "rounds",
        "scans",
        "blocks read",
        "maximal",
        "setup",
        "scan",
        "total",
    ];
    harness::print_table(&header, &rows);

    // Every side conformed to the paper's I/O cost model inside
    // `solve_twok`: exact scan count, blocks within tolerance of
    // scans × ⌈bytes/B⌉.
    println!(
        "  cost model: all {} sides conform (exact scan counts, blocks within ±{:.0}%)",
        sides.len(),
        MODEL_TOLERANCE * 100.0
    );

    // Neither the thread count nor the storage codec may change the
    // result.
    harness::assert_same_result(&sides);
    let (plain_storage, comp_storage) = (fx.plain.storage(), compressed.storage());
    let baseline = &sides[0];

    let plain_speedup = scan_speedup(&sides, plain_storage, cli.threads);
    let comp_speedup = scan_speedup(&sides, comp_storage, cli.threads);
    let speedup_4_over_1 = scan_speedup(&sides, plain_storage, 4);
    println!(
        "  identical |IS| = {} and maximality proof on every side; steady-state \
         par({t})/par(1) scan speedup: plain {plain_speedup:.2}x, compressed \
         {comp_speedup:.2}x ({h} hardware threads)",
        baseline.is_size,
        t = cli.threads,
        h = available_threads()
    );
    // The assertion only arms when requested *and* the machine can
    // possibly satisfy it; the JSON records which case this run was.
    let speedup_asserted = cli.min_speedup.is_some() && available_threads() >= cli.threads;
    if let Some(min) = cli.min_speedup {
        if available_threads() >= cli.threads {
            for (name, got) in [("plain", plain_speedup), ("compressed", comp_speedup)] {
                assert!(
                    got >= min,
                    "{name}: par({}) steady-state speedup {got:.2}x is below the \
                     required {min:.2}x",
                    cli.threads
                );
            }
            println!(
                "  speedup assertion passed: both storages scale >= {min:.2}x at \
                 {} workers",
                cli.threads
            );
        } else {
            println!(
                "  speedup assertion skipped: {} hardware threads < {} requested workers",
                available_threads(),
                cli.threads
            );
        }
    }

    let (vertices, edges) = (fx.graph.num_vertices(), fx.graph.num_edges());
    let mut body = JsonObject::default();
    let mut graph = fx.graph_json();
    graph
        .field("file_bytes", file_bytes)
        .field("compressed_bytes", comp_bytes);
    body.field("graph", graph.to_json())
        .field("speedup_threads", cli.threads)
        .field("speedup_asserted", speedup_asserted)
        .field("sides", harness::json_list(sides.iter().map(Row::to_json)))
        .fixed("plain_scan_speedup", plain_speedup, 4)
        .fixed("compressed_scan_speedup", comp_speedup, 4)
        .fixed("speedup_4_over_1", speedup_4_over_1, 4);
    harness::write_snapshot("parallel", block_size, &body);

    // One ledger entry for the whole experiment: result metrics, the
    // measured speedups, and one conformance verdict per side.
    let mut entry = LedgerEntry::new(
        "repro parallel",
        &format!("plrg beta=2.0 n={vertices}"),
        harness::env_fingerprint(block_size, &format!("{plain_storage}+{comp_storage}")),
    );
    entry.metric("vertices", vertices as f64);
    entry.metric("edges", edges as f64);
    entry.metric("file_bytes", file_bytes as f64);
    entry.metric("compressed_bytes", comp_bytes as f64);
    entry.metric("is_size", baseline.is_size as f64);
    entry.metric("plain_scan_speedup", plain_speedup);
    entry.metric("compressed_scan_speedup", comp_speedup);
    entry.metric("speedup_4_over_1", speedup_4_over_1);
    harness::record_rows(&mut entry, &sides);

    // Write the combined timeline and ingest it: the round-trip through
    // the JSONL file is deliberate — it exercises the same parse path
    // `mis trace report` uses. The re-read report also lands in the
    // ledger entry as the per-phase breakdown.
    if let Some(trace_path) = &cli.trace {
        combined.extend(mis_obs::drain());
        mis_obs::set_enabled(false);
        match combined.save(trace_path) {
            Ok(()) => match TraceReport::load(trace_path) {
                Ok(report) => {
                    println!(
                        "  wrote {} ({} events)",
                        trace_path.display(),
                        report.num_events
                    );
                    print!("{}", report.render());
                    entry.ingest_report(&report);
                }
                Err(e) => eprintln!("  could not re-read {}: {e}", trace_path.display()),
            },
            Err(e) => eprintln!("  could not write {}: {e}", trace_path.display()),
        }
    }
    harness::ledger_append(&entry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TEST_BLOCK_SIZE;

    /// End-to-end regression for the acceptance criterion: on a real
    /// on-disk graph every worker count returns the identical set with
    /// an intact maximality proof — on both storage codecs.
    #[test]
    fn all_worker_counts_agree_on_disk() {
        let fx = harness::test_fixture("parallel-exp-test", 10_000);
        for file in [&fx.plain, fx.compressed.as_ref().unwrap()] {
            let measure = |executor| {
                let (side, _) =
                    harness::solve_twok(file.path(), TEST_BLOCK_SIZE, executor, MODEL_TOLERANCE);
                assert!(side.conforms());
                side
            };
            let baseline = measure(Executor::Sequential);
            assert_eq!(baseline.maximal, Some(true));
            assert!(baseline.setup_ms > Some(0.0), "setup phase was timed");
            assert!(baseline.scan_ms > Some(0.0), "scan phase was timed");
            for workers in [1usize, 2, 4] {
                let side = measure(Executor::parallel(workers));
                assert_eq!(side.is_size, baseline.is_size, "workers {workers}");
                assert_eq!(side.rounds, baseline.rounds, "workers {workers}");
                assert_eq!(side.file_scans, baseline.file_scans, "workers {workers}");
                assert_eq!(
                    side.io.blocks_read, baseline.io.blocks_read,
                    "workers {workers}: same block transfers"
                );
                assert_eq!(side.maximal, Some(true), "workers {workers}");
            }
        }
    }

    #[test]
    fn cli_args_parse_and_reject() {
        assert_eq!(parse_args(&[]).unwrap(), ParallelArgs::default());
        let args: Vec<String> = [
            "--threads",
            "8",
            "--min-speedup",
            "1.5",
            "--trace",
            "t.jsonl",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(
            parse_args(&args).unwrap(),
            ParallelArgs {
                threads: 8,
                min_speedup: Some(1.5),
                trace: Some(PathBuf::from("t.jsonl")),
            }
        );
        for bad in [
            vec!["--threads"],
            vec!["--threads", "zero"],
            vec!["--threads", "0"],
            vec!["--min-speedup", "-1"],
            vec!["--trace"],
            vec!["--frobnicate"],
        ] {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
