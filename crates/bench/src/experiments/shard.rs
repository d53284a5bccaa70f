//! Sharded-store experiment: the two-k workload on `MISSHRD1` sharded
//! stores versus the unpartitioned store.
//!
//! The sharded layout's contract mirrors the engine's: partitioning
//! changes *how* the bytes are stored — one file per vertex range, one
//! pager per shard — never *what* is computed. Sharded stores scan
//! through the same parallel block pipeline as single files. This
//! experiment runs the full pipeline (Greedy seed → two-k swaps →
//! maximality proof) on one degree-sorted power-law graph, stored plain
//! and gap-compressed, each measured unpartitioned (sequential and
//! parallel) and split 2/4/8 ways (parallel), then asserts:
//!
//! * identical `|IS|`, round trajectory and maximality proof at every
//!   cell;
//! * cost-model conformance at every cell — sharded sides predict
//!   blocks from the **summed shard headers** (`Σᵢ ⌈bytesᵢ/B⌉` per
//!   scan, see [`CostModel::shard_bytes`]).
//!
//! Each side's worker utilization, from its own trace, is reported
//! alongside.
//!
//! Results land in `BENCH_shard.json` (override with `BENCH_SHARD_OUT`)
//! plus one perf-ledger entry with a conformance verdict per cell.

use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;

use mis_core::engine::available_threads;
use mis_core::{prove_maximal_with, Executor, Greedy, SwapConfig, TwoKSwap};
use mis_extmem::{IoSnapshot, IoStats, ScratchDir, SortConfig};
use mis_graph::{
    build_adj_file, compress_adj, degree_sort_adj_file, split_adj_file, AnyAdjFile, GraphScan,
    SplitOptions,
};
use mis_obs::{CostModel, LedgerEntry, ModelVerdict, TraceReport, Workload};

use crate::harness;

/// Default output path of the machine-readable results.
pub const DEFAULT_JSON_PATH: &str = "BENCH_shard.json";

/// Shard counts each storage format is split into.
const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

/// Blocks-read tolerance of the conformance checks. Side I/O is deltaed
/// from a post-open snapshot (shard-header reads excluded), so scans
/// transfer exactly the predicted blocks; the head-room only absorbs
/// rounding noise.
const MODEL_TOLERANCE: f64 = 0.05;

/// Command-line configuration of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardArgs {
    /// Worker count of the parallel cells.
    pub threads: usize,
}

impl Default for ShardArgs {
    fn default() -> Self {
        ShardArgs { threads: 4 }
    }
}

fn parse_args(args: &[String]) -> Result<ShardArgs, String> {
    let mut parsed = ShardArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                parsed.threads = v
                    .parse()
                    .map_err(|_| format!("bad --threads value {v:?}"))?;
                if parsed.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// One measured (storage, partitioning, backend) cell.
struct Side {
    storage: &'static str,
    label: String,
    /// Shard count (1 = unpartitioned).
    shards: usize,
    is_size: u64,
    rounds: u32,
    scans: u64,
    /// I/O delta since the post-open snapshot (headers excluded).
    io: IoSnapshot,
    scan_ms: f64,
    maximal: bool,
    model: Option<ModelVerdict>,
    /// Fraction of worker wall-time spent in decode/fold (`None` when
    /// the backend spawned no workers).
    worker_utilization: Option<f64>,
}

fn measure(path: &Path, block_size: usize, executor: Executor, shards: usize) -> Side {
    let stats = IoStats::shared();
    // Attribute the trace to this side alone.
    let _ = mis_obs::drain();
    let open_io = Cell::new(IoSnapshot::default());
    let (file, pipeline, times) = harness::timed_split(
        || {
            let _setup = mis_obs::span("phase", "setup");
            let file = AnyAdjFile::open_with_block_size(path, Arc::clone(&stats), block_size)
                .expect("open");
            // Snapshot after open: manifest/header reads are excluded
            // from the modelled delta. The warm-up scan (which the
            // workload's `extra_scans` accounts for) is not.
            open_io.set(stats.snapshot());
            file.scan(&mut |_, _| {}).expect("warm-up scan");
            file
        },
        |file| {
            let _scan_span = mis_obs::span("phase", "scan");
            let scan = file.as_scan();
            let greedy = Greedy::with_executor(executor).run(scan);
            let config = SwapConfig::default().with_executor(executor);
            let outcome = TwoKSwap::with_config(config).run(scan, &greedy.set);
            let proof = prove_maximal_with(scan, &outcome.result.set, &executor);
            (greedy.file_scans, outcome, proof)
        },
    );
    let (greedy_scans, outcome, proof) = pipeline;
    let report = TraceReport::from_trace(&mis_obs::drain());
    Side {
        storage: file.storage(),
        label: executor.describe(),
        shards,
        is_size: outcome.result.set.len() as u64,
        rounds: outcome.stats.num_rounds(),
        scans: greedy_scans + outcome.result.file_scans + 1, // + proof scan
        io: stats.snapshot().since(&open_io.get()),
        scan_ms: times.scan_ms,
        maximal: proof.is_maximal_independent(),
        model: None,
        worker_utilization: (!report.workers.is_empty()).then(|| report.worker_utilization()),
    }
}

/// Checks one cell against the paper's cost model. `shard_bytes` is the
/// manifest's shard table for sharded cells, empty otherwise.
fn check_side(
    side: &mut Side,
    vertices: u64,
    edges: u64,
    file_bytes: u64,
    shard_bytes: Vec<u64>,
    block_size: usize,
) {
    let model = CostModel {
        vertices,
        edges,
        file_bytes,
        block_size: block_size as u64,
        storage: side.storage.to_string(),
        shard_bytes,
    };
    let workload = Workload::GreedyThenSwap {
        rounds: side.rounds as u64,
        paged_rounds: 0,
        finalize: true,
        extra_scans: 2, // warm-up scan + maximality proof
    };
    let verdict = model.check(
        Some(workload),
        side.io.scans_started,
        side.io.blocks_read,
        MODEL_TOLERANCE,
    );
    assert!(verdict.pass, "{}/{}: {verdict}", side.storage, side.label);
    side.model = Some(verdict);
}

fn side_json(side: &Side) -> String {
    let mut json = format!(
        concat!(
            "{{\"storage\": \"{}\", \"backend\": \"{}\", \"shards\": {}, ",
            "\"is_size\": {}, \"rounds\": {}, \"file_scans\": {}, ",
            "\"blocks_read\": {}, \"bytes_read\": {}, \"maximal\": {}, ",
            "\"scan_ms\": {:.2}"
        ),
        side.storage,
        side.label,
        side.shards,
        side.is_size,
        side.rounds,
        side.scans,
        side.io.blocks_read,
        side.io.bytes_read,
        side.maximal,
        side.scan_ms,
    );
    if let Some(util) = side.worker_utilization {
        json.push_str(&format!(", \"worker_utilization\": {util:.4}"));
    }
    if let Some(verdict) = &side.model {
        json.push_str(&format!(", \"model\": {}", verdict.to_json()));
    }
    json.push('}');
    json
}

/// Runs the experiment with default arguments (used by `repro all`).
pub fn run() {
    run_with(ShardArgs::default());
}

/// Parses trailing CLI arguments and runs the experiment.
pub fn run_args(args: &[String]) {
    match parse_args(args) {
        Ok(parsed) => run_with(parsed),
        Err(e) => {
            eprintln!("repro shard: {e}");
            eprintln!("usage: repro shard [--threads N]");
            std::process::exit(2);
        }
    }
}

fn run_with(cli: ShardArgs) {
    let n = harness::sweep_vertices().min(100_000);
    let block_size = 64 * 1024usize;
    let threads = cli.threads;
    // Per-side tracing feeds the reported worker utilization; no trace
    // file is written.
    mis_obs::set_enabled(true);
    println!(
        "== Sharded store: two-k workload, unpartitioned vs {SHARD_COUNTS:?} vertex-range \
         shards on both storage codecs (P(α,β), β = 2.0, |V| ≈ {n}; par({threads}), \
         {} hardware threads) ==",
        available_threads()
    );

    let graph = mis_gen::Plrg::with_vertices(n, 2.0).seed(42).generate();
    let scratch = ScratchDir::new("repro-shard").expect("scratch dir");
    let build_stats = IoStats::shared();
    let unsorted = build_adj_file(
        &graph,
        &scratch.file("graph.adj"),
        Arc::clone(&build_stats),
        block_size,
    )
    .expect("build adj file");
    let sorted = degree_sort_adj_file(
        &unsorted,
        &scratch.file("graph.sorted.adj"),
        &SortConfig {
            block_size,
            ..SortConfig::default()
        },
        &scratch,
    )
    .expect("degree sort");
    let compressed = compress_adj(
        &sorted,
        &scratch.file("graph.sorted.cadj"),
        Arc::clone(&build_stats),
        block_size,
    )
    .expect("compress");

    let sources = [
        ("plain", AnyAdjFile::Plain(sorted)),
        ("compressed", AnyAdjFile::Compressed(compressed)),
    ];
    let mut sides: Vec<Side> = Vec::new();
    let (vertices, edges) = (graph.num_vertices() as u64, graph.num_edges());
    for (fmt, source) in &sources {
        let file_bytes = source.disk_bytes().expect("metadata");
        let path = source.path().to_path_buf();
        let mut side = measure(&path, block_size, Executor::Sequential, 1);
        check_side(
            &mut side,
            vertices,
            edges,
            file_bytes,
            Vec::new(),
            block_size,
        );
        sides.push(side);
        let mut side = measure(&path, block_size, Executor::parallel(threads), 1);
        check_side(
            &mut side,
            vertices,
            edges,
            file_bytes,
            Vec::new(),
            block_size,
        );
        sides.push(side);
        for shards in SHARD_COUNTS {
            let manifest_path = scratch.file(&format!("{fmt}.{shards}.shrd"));
            let manifest =
                split_adj_file(source, &manifest_path, &SplitOptions { shards, block_size })
                    .expect("split");
            let mut side = measure(
                &manifest_path,
                block_size,
                Executor::parallel(threads),
                shards,
            );
            check_side(
                &mut side,
                vertices,
                edges,
                manifest.total_bytes(),
                manifest.shard_bytes(),
                block_size,
            );
            sides.push(side);
        }
    }
    mis_obs::set_enabled(false);
    let _ = mis_obs::drain();

    let rows: Vec<Vec<String>> = sides
        .iter()
        .map(|s| {
            vec![
                s.storage.to_string(),
                s.label.clone(),
                s.shards.to_string(),
                s.is_size.to_string(),
                s.rounds.to_string(),
                s.scans.to_string(),
                s.io.blocks_read.to_string(),
                s.maximal.to_string(),
                s.worker_utilization
                    .map_or_else(|| "-".to_string(), |u| format!("{:.0}%", u * 100.0)),
                format!("{:.1}ms", s.scan_ms),
            ]
        })
        .collect();
    let header = [
        "storage",
        "backend",
        "shards",
        "|IS|",
        "rounds",
        "scans",
        "blocks read",
        "maximal",
        "util",
        "scan",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect::<Vec<_>>();
    harness::print_table(&header, &rows);

    // Identity: partitioning and backend must not change the result.
    let baseline = &sides[0];
    for side in &sides {
        assert_eq!(
            side.is_size, baseline.is_size,
            "{}/{} x{}: sharding must not change |IS|",
            side.storage, side.label, side.shards
        );
        assert_eq!(
            side.rounds, baseline.rounds,
            "{}/{} x{}: round trajectory",
            side.storage, side.label, side.shards
        );
        assert!(
            side.maximal,
            "{}/{} x{}: maximality proof must hold",
            side.storage, side.label, side.shards
        );
    }
    println!(
        "  identical |IS| = {} and maximality proof at every cell; all {} cost-model \
         verdicts conform (sharded cells predicted from summed shard headers)",
        baseline.is_size,
        sides.len()
    );

    let mut total_io = IoSnapshot::default();
    for side in &sides {
        total_io += side.io;
    }
    println!("  total experiment io = {total_io}");

    let side_list = sides
        .iter()
        .map(side_json)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"shard\",\n",
            "  \"graph\": {{\"model\": \"plrg\", \"beta\": 2.0, \"seed\": 42, ",
            "\"vertices\": {}, \"edges\": {}}},\n",
            "  \"block_size\": {},\n",
            "  \"threads\": {},\n",
            "  \"shard_counts\": [2, 4, 8],\n",
            "  \"hardware_threads\": {},\n",
            "  \"sides\": [\n    {}\n  ]\n",
            "}}\n"
        ),
        vertices,
        edges,
        block_size,
        threads,
        mis_obs::hardware_threads(),
        side_list,
    );
    let out_path =
        std::env::var("BENCH_SHARD_OUT").unwrap_or_else(|_| DEFAULT_JSON_PATH.to_string());
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => eprintln!("  could not write {out_path}: {e}"),
    }

    let mut entry = LedgerEntry::new(
        "repro shard",
        &format!("plrg beta=2.0 n={vertices}"),
        harness::env_fingerprint(block_size, "adj-file+sharded"),
    );
    entry.metric("vertices", vertices as f64);
    entry.metric("edges", edges as f64);
    entry.metric("is_size", baseline.is_size as f64);
    entry.metric("threads", threads as f64);
    entry.metric("scans", total_io.scans_started as f64);
    entry.metric("blocks_read", total_io.blocks_read as f64);
    entry.metric("bytes_read", total_io.bytes_read as f64);
    for side in &sides {
        entry.verdict(
            &format!("model {}/{} x{}", side.storage, side.label, side.shards),
            side.model.as_ref().is_some_and(|v| v.pass),
        );
    }
    harness::ledger_append(&entry);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion at test scale: on-disk sharded stores
    /// return the identical set with an intact maximality proof and
    /// conforming I/O at 2/4/8 shards on both codecs.
    #[test]
    fn sharded_cells_agree_with_unpartitioned() {
        let graph = mis_gen::Plrg::with_vertices(8_000, 2.0).seed(7).generate();
        let scratch = ScratchDir::new("shard-exp-test").unwrap();
        let stats = IoStats::shared();
        let block_size = 4096;
        let file = build_adj_file(
            &graph,
            &scratch.file("g.adj"),
            Arc::clone(&stats),
            block_size,
        )
        .unwrap();
        let comp = compress_adj(&file, &scratch.file("g.cadj"), stats, block_size).unwrap();
        let (vertices, edges) = (graph.num_vertices() as u64, graph.num_edges());
        for (fmt, source) in [
            ("plain", AnyAdjFile::Plain(file)),
            ("comp", AnyAdjFile::Compressed(comp)),
        ] {
            let mut baseline = measure(source.path(), block_size, Executor::Sequential, 1);
            check_side(
                &mut baseline,
                vertices,
                edges,
                source.disk_bytes().unwrap(),
                Vec::new(),
                block_size,
            );
            assert!(baseline.maximal);
            for shards in SHARD_COUNTS {
                let manifest_path = scratch.file(&format!("{fmt}.{shards}.shrd"));
                let manifest = split_adj_file(
                    &source,
                    &manifest_path,
                    &SplitOptions { shards, block_size },
                )
                .unwrap();
                let mut side = measure(&manifest_path, block_size, Executor::parallel(3), shards);
                check_side(
                    &mut side,
                    vertices,
                    edges,
                    manifest.total_bytes(),
                    manifest.shard_bytes(),
                    block_size,
                );
                assert_eq!(side.is_size, baseline.is_size, "{fmt} x{shards}");
                assert_eq!(side.rounds, baseline.rounds, "{fmt} x{shards}");
                assert_eq!(side.scans, baseline.scans, "{fmt} x{shards}");
                assert!(side.maximal, "{fmt} x{shards}");
                let fragment = side_json(&side);
                for key in ["storage", "backend", "shards", "is_size", "model"] {
                    assert!(fragment.contains(key), "missing {key} in {fragment}");
                }
            }
        }
    }

    #[test]
    fn cli_args_parse_and_reject() {
        assert_eq!(parse_args(&[]).unwrap(), ShardArgs::default());
        let args: Vec<String> = ["--threads", "8"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_args(&args).unwrap(), ShardArgs { threads: 8 });
        for bad in [vec!["--threads"], vec!["--threads", "0"], vec!["--wat"]] {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
