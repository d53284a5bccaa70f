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
//!   scan, see [`mis_obs::CostModel::shard_bytes`]).
//!
//! Each side's worker utilization, from its own trace, is reported
//! alongside.
//!
//! Results land in `BENCH_shard.json` (override with `BENCH_SHARD_OUT`)
//! plus one perf-ledger entry with a conformance verdict per cell.

use std::path::Path;

use mis_core::engine::available_threads;
use mis_core::Executor;
use mis_graph::{split_adj_file, SplitOptions};
use mis_obs::LedgerEntry;

use crate::harness::{self, IoWindow, JsonObject, Row};

/// Shard counts each storage format is split into.
const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

/// Blocks-read tolerance of the conformance checks. Side I/O is deltaed
/// from a post-open snapshot (shard-header reads excluded), so scans
/// transfer exactly the predicted blocks; the head-room only absorbs
/// rounding noise.
const SHARD_MODEL_TOLERANCE: f64 = 0.05;

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
    harness::parse_flags(args, &mut parsed.threads, |_, _| Ok(false))?;
    Ok(parsed)
}

/// One measured cell: the [`harness::solve_twok`] pipeline on the store
/// at `path`, with its I/O counted from after the open and its row
/// narrowed to this experiment's keys (the scan phase and worker
/// utilization).
fn measure(path: &Path, block_size: usize, executor: Executor, shards: usize) -> Row {
    let (mut side, _) = harness::solve_twok(
        path,
        block_size,
        executor,
        IoWindow::AfterOpen,
        SHARD_MODEL_TOLERANCE,
    );
    side.shards = Some(shards);
    (side.setup_ms, side.wall_ms, side.queue_wait_ms) = (None, None, None);
    side
}

/// Runs the experiment with default arguments (used by `repro all`).
pub fn run() {
    run_with(ShardArgs::default());
}

/// Parses trailing CLI arguments and runs the experiment.
pub fn run_args(args: &[String]) {
    run_with(harness::args_or_exit(
        "shard",
        "[--threads N]",
        parse_args(args),
    ));
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

    let fx = harness::fixture("repro-shard", n, block_size, true);
    let sources = [
        ("plain", &fx.plain),
        (
            "compressed",
            fx.compressed.as_ref().expect("compressed fixture"),
        ),
    ];
    let mut sides: Vec<Row> = Vec::new();
    for (fmt, source) in sources {
        let path = source.path();
        sides.push(measure(path, block_size, Executor::Sequential, 1));
        sides.push(measure(path, block_size, Executor::parallel(threads), 1));
        for shards in SHARD_COUNTS {
            let manifest_path = fx.scratch.file(&format!("{fmt}.{shards}.shrd"));
            split_adj_file(source, &manifest_path, &SplitOptions { shards, block_size })
                .expect("split");
            sides.push(measure(
                &manifest_path,
                block_size,
                Executor::parallel(threads),
                shards,
            ));
        }
    }
    mis_obs::set_enabled(false);
    let _ = mis_obs::drain();

    let rows: Vec<Vec<String>> = sides
        .iter()
        .map(|s| {
            vec![
                s.storage.unwrap_or_default().to_string(),
                s.backend.clone().unwrap_or_default(),
                s.shards.unwrap_or_default().to_string(),
                s.is_size.to_string(),
                s.rounds.to_string(),
                s.file_scans.to_string(),
                s.io.blocks_read.to_string(),
                (s.maximal == Some(true)).to_string(),
                s.worker_utilization
                    .map_or_else(|| "-".to_string(), |u| format!("{:.0}%", u * 100.0)),
                format!("{:.1}ms", s.scan_ms.unwrap_or_default()),
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
    ];
    harness::print_table(&header, &rows);

    // Identity: partitioning and backend must not change the result.
    harness::assert_same_result(&sides);
    let baseline = &sides[0];
    println!(
        "  identical |IS| = {} and maximality proof at every cell; all {} cost-model \
         verdicts conform (sharded cells predicted from summed shard headers)",
        baseline.is_size,
        sides.len()
    );

    let (vertices, edges) = (fx.graph.num_vertices(), fx.graph.num_edges());
    let mut body = JsonObject::default();
    body.field("graph", fx.graph_json().to_json())
        .field("threads", threads)
        .field("shard_counts", "[2, 4, 8]")
        .field("sides", harness::json_list(sides.iter().map(Row::to_json)));
    harness::write_snapshot("shard", block_size, &body);

    let mut entry = LedgerEntry::new(
        "repro shard",
        &format!("plrg beta=2.0 n={vertices}"),
        harness::env_fingerprint(block_size, "adj-file+sharded"),
    );
    entry.metric("vertices", vertices as f64);
    entry.metric("edges", edges as f64);
    entry.metric("is_size", baseline.is_size as f64);
    entry.metric("threads", threads as f64);
    harness::record_rows(&mut entry, &sides);
    harness::ledger_append(&entry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TEST_BLOCK_SIZE;

    /// The acceptance criterion at test scale: on-disk sharded stores
    /// return the identical set with an intact maximality proof and
    /// conforming I/O at 2/4/8 shards on both codecs.
    #[test]
    fn sharded_cells_agree_with_unpartitioned() {
        let fx = harness::test_fixture("shard-exp-test", 8_000);
        let sources = [
            ("plain", &fx.plain),
            ("comp", fx.compressed.as_ref().unwrap()),
        ];
        for (fmt, source) in sources {
            let baseline = measure(source.path(), TEST_BLOCK_SIZE, Executor::Sequential, 1);
            assert!(baseline.conforms());
            assert_eq!(baseline.maximal, Some(true));
            for shards in SHARD_COUNTS {
                let manifest_path = fx.scratch.file(&format!("{fmt}.{shards}.shrd"));
                let options = SplitOptions {
                    shards,
                    block_size: TEST_BLOCK_SIZE,
                };
                split_adj_file(source, &manifest_path, &options).unwrap();
                let side = measure(
                    &manifest_path,
                    TEST_BLOCK_SIZE,
                    Executor::parallel(3),
                    shards,
                );
                assert!(side.conforms(), "{fmt} x{shards}");
                assert_eq!(side.is_size, baseline.is_size, "{fmt} x{shards}");
                assert_eq!(side.rounds, baseline.rounds, "{fmt} x{shards}");
                assert_eq!(side.file_scans, baseline.file_scans, "{fmt} x{shards}");
                assert_eq!(side.maximal, Some(true), "{fmt} x{shards}");
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
