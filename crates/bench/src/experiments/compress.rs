//! Compressed-backend experiment: plain vs gap-compressed adjacency
//! files across the whole algorithm × access-path matrix.
//!
//! The compressed `MISADJC1` format is a first-class storage backend:
//! sequential scans and the paged (`--cache-mb`) candidate-verification
//! path both run on it. This experiment proves the contract on one
//! generated power-law graph — for greedy, one-k and two-k, scan-only
//! and paged, the independent set and its maximality proof are
//! identical on both backends while the compressed side moves 2–3×
//! fewer blocks. The
//! numbers land in `BENCH_compress.json` (override the path with
//! `BENCH_COMPRESS_OUT`).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mis_core::{prove_maximal, Greedy, OneKSwap, SwapConfig, TwoKSwap};
use mis_extmem::pager::PolicyKind;
use mis_extmem::{IoStats, PagerConfig};
use mis_graph::{AnyAdjFile, GraphScan, NeighborAccess};
use mis_obs::Workload;

use crate::harness::{self, JsonObject, Row, MODEL_TOLERANCE};

const ALGOS: [&str; 3] = ["greedy", "onek", "twok"];
const MODES: [&str; 2] = ["scan", "paged"];

/// Measures one (algorithm, mode) cell on the store at `path` and checks
/// it against the store's cost model. Swap cells state their full
/// workload (greedy seed → swap → proof; in paged mode greedy's scan
/// also builds the record index), so the scan count is predicted
/// exactly; greedy-only cells have no swap pass structure to predict,
/// so their scan count is asserted directly and the verdict checks the
/// blocks-per-scan relation alone.
fn measure(path: &Path, block_size: usize, algo: &str, mode: &str) -> Row {
    // Fresh counters per cell, so configurations cannot bleed into each
    // other.
    let stats = IoStats::shared();
    let file =
        AnyAdjFile::open_with_block_size(path, Arc::clone(&stats), block_size).expect("open");
    // The paged mode gives the swap rounds a 4 MiB buffer pool over the
    // record index both codecs share; greedy has no paged path and simply
    // ignores the provider.
    let raccess: Option<Box<dyn NeighborAccess>> = if mode == "paged" {
        let pc = PagerConfig::with_capacity_bytes(4 << 20, block_size, PolicyKind::Clock);
        Some(file.open_random_access(pc).expect("ra open"))
    } else {
        None
    };
    let access = raccess.as_deref();
    let scan = file.as_scan();

    let start = Instant::now();
    let greedy = Greedy::new().run(scan);
    let mut config = SwapConfig::default();
    if access.is_some() {
        config = config.with_paged_threshold(1.0);
    }
    let (set, scans, swap) = match algo {
        "greedy" => (greedy.set, greedy.file_scans, None),
        "onek" | "twok" => {
            let o = if algo == "onek" {
                OneKSwap::with_config(config).run_paged(scan, access, &greedy.set)
            } else {
                TwoKSwap::with_config(config).run_paged(scan, access, &greedy.set)
            };
            (
                o.result.set,
                greedy.file_scans + o.result.file_scans,
                Some(o.stats),
            )
        }
        other => unreachable!("unknown algo {other}"),
    };
    let rounds = swap.as_ref().map_or(0, |s| s.num_rounds() as u64);
    let paged_rounds = swap.as_ref().map_or(0, |s| s.paged_rounds);
    let proof = prove_maximal(scan, &set);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut side = Row {
        is_size: set.len() as u64,
        rounds,
        paged_rounds: Some(paged_rounds),
        file_scans: scans + 1, // + proof scan
        io: stats.snapshot(),
        maximal: Some(proof.is_maximal_independent()),
        wall_ms: Some(wall_ms),
        ..Row::default()
    };

    let what = format!("{}/{algo}/{mode}", file.storage());
    let workload = match swap {
        None => {
            // Greedy + proof.
            assert_eq!(
                side.io.scans_started, side.file_scans,
                "{what}: accounted scans"
            );
            None
        }
        Some(stats) => Some(Workload::GreedyThenSwap {
            rounds,
            rolled_back: stats.rolled_back,
            paged_rounds,
            finish_scanned: stats.finish_scanned,
            extra_scans: 1, // maximality proof
        }),
    };
    let model = file.cost_model(block_size).expect("metadata");
    side.check(&what, &model, workload, MODEL_TOLERANCE);
    side
}

/// Runs the experiment, prints the comparison and writes the JSON file.
pub fn run() {
    let n = harness::sweep_vertices().min(100_000);
    let block_size = 64 * 1024usize;
    println!(
        "== Compressed storage backend: plain vs gap-compressed across \
         greedy/one-k/two-k × scan/paged (P(α,β), β = 2.0, |V| ≈ {n}) =="
    );

    let fx = harness::fixture("repro-compress", n, block_size, true);
    let compressed = fx.compressed.as_ref().expect("compressed fixture");
    let plain_bytes = fx.plain.disk_bytes().expect("metadata");
    let comp_bytes = compressed.disk_bytes().expect("metadata");

    let header = [
        "algo",
        "mode",
        "|IS|",
        "plain blk",
        "comp blk",
        "saved",
        "plain ms",
        "comp ms",
    ];
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut total_saved = 0u64;
    for algo in ALGOS {
        for mode in MODES {
            let plain = measure(fx.plain.path(), block_size, algo, mode);
            let comp = measure(compressed.path(), block_size, algo, mode);
            assert_eq!(
                plain.is_size, comp.is_size,
                "{algo}/{mode}: the storage backend must not change |IS|"
            );
            assert!(
                plain.maximal == Some(true) && comp.maximal == Some(true),
                "{algo}/{mode}: maximality"
            );
            assert_eq!(
                plain.file_scans, comp.file_scans,
                "{algo}/{mode}: identical logical scan counts"
            );
            assert!(
                comp.io.blocks_read < plain.io.blocks_read,
                "{algo}/{mode}: compressed must move fewer blocks ({} vs {})",
                comp.io.blocks_read,
                plain.io.blocks_read
            );
            let saved = plain.io.blocks_read - comp.io.blocks_read;
            total_saved += saved;
            rows.push(vec![
                algo.to_string(),
                mode.to_string(),
                plain.is_size.to_string(),
                plain.io.blocks_read.to_string(),
                comp.io.blocks_read.to_string(),
                saved.to_string(),
                format!("{:.1}", plain.wall_ms.unwrap_or_default()),
                format!("{:.1}", comp.wall_ms.unwrap_or_default()),
            ]);
            cells.push(format!(
                "{{\"algo\": \"{algo}\", \"mode\": \"{mode}\", \"plain\": {}, \"compressed\": {}}}",
                plain.to_json(),
                comp.to_json()
            ));
        }
    }
    harness::print_table(&header, &rows);
    println!(
        "  identical |IS| and maximality proof in all {} cells; compressed file {} -> {} bytes \
         ({:.2}x), {total_saved} block transfers saved in total",
        rows.len(),
        plain_bytes,
        comp_bytes,
        plain_bytes as f64 / comp_bytes as f64,
    );
    println!(
        "  cost model: all {} sides conform (blocks within ±{:.0}% of scans × ⌈bytes/B⌉)",
        2 * rows.len(),
        MODEL_TOLERANCE * 100.0
    );

    let ratio = plain_bytes as f64 / comp_bytes as f64;
    let mut body = JsonObject::default();
    body.field("graph", fx.graph_json().to_json())
        .field("plain_bytes", plain_bytes)
        .field("compressed_bytes", comp_bytes)
        .fixed("compression_ratio", ratio, 4)
        .field("cells", harness::json_list(cells))
        .field("blocks_saved_total", total_saved);
    harness::write_snapshot("compress", block_size, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TEST_BLOCK_SIZE;

    /// End-to-end regression for the acceptance criterion: on a real
    /// on-disk graph the compressed backend returns the same set with
    /// fewer block transfers for every algorithm and access path.
    #[test]
    fn compressed_cells_match_plain_with_fewer_blocks() {
        let fx = harness::test_fixture("compress-exp-test", 8_000);
        let comp_path = fx.compressed.as_ref().unwrap().path();
        for algo in ALGOS {
            for mode in MODES {
                let p = measure(fx.plain.path(), TEST_BLOCK_SIZE, algo, mode);
                let c = measure(comp_path, TEST_BLOCK_SIZE, algo, mode);
                assert!(p.conforms() && c.conforms(), "{algo}/{mode}");
                assert_eq!(p.is_size, c.is_size, "{algo}/{mode}");
                assert!(
                    p.maximal == Some(true) && c.maximal == Some(true),
                    "{algo}/{mode}"
                );
                assert!(
                    c.io.blocks_read < p.io.blocks_read,
                    "{algo}/{mode}: {} vs {}",
                    c.io.blocks_read,
                    p.io.blocks_read
                );
                if mode == "paged" && algo != "greedy" {
                    assert!(c.paged_rounds > Some(0), "{algo}/{mode}: rounds went paged");
                }
            }
        }
    }
}
