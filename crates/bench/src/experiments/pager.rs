//! Buffer-pool experiment: scan-only vs paged swap rounds.
//!
//! The paper's access model re-scans the whole adjacency file every swap
//! round. The `mis_extmem::pager` buffer pool gives late rounds a
//! random-access alternative: verify only the live candidates through a
//! page cache. This experiment measures the difference on one generated
//! power-law graph — block transfers, scan counts, cache hit rate and
//! wall time for the identical computation both ways — and emits the
//! numbers as machine-readable JSON (`BENCH_pager.json`, override the
//! path with `BENCH_PAGER_OUT`) so the performance trajectory of the
//! repository has data points.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mis_core::{Greedy, SwapConfig, TwoKSwap};
use mis_extmem::pager::PolicyKind;
use mis_extmem::{IoStats, PagerConfig};
use mis_graph::{AdjFile, RandomAccessGraph};
use mis_obs::{CostModel, LedgerEntry, Workload};

use crate::harness::{self, JsonObject, Row, MODEL_TOLERANCE};

/// Measures greedy → two-k on the file at `path`, scan-only or, given a
/// pager configuration and threshold, with paged rounds, and checks the
/// side against `model`: two-k ends with a final maximality pass and no
/// separate proof scan, and the paged side adds the one accounted
/// index-build scan.
fn measure(
    path: &Path,
    block_size: usize,
    cache: Option<(PagerConfig, f64)>,
    model: &CostModel,
) -> Row {
    // Fresh counters per side, so the two runs cannot bleed into each
    // other.
    let stats = IoStats::shared();
    let file = AdjFile::open_with_block_size(path, Arc::clone(&stats), block_size).expect("open");
    let start = Instant::now();
    let greedy = Greedy::new().run(&file);
    let outcome = match cache {
        None => TwoKSwap::new().run(&file, &greedy.set),
        Some((pc, threshold)) => {
            let ra = RandomAccessGraph::open(&file, pc).expect("random-access open");
            let config = SwapConfig::default().with_paged_threshold(threshold);
            TwoKSwap::with_config(config).run_paged(&file, Some(&ra), &greedy.set)
        }
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut side = Row {
        is_size: outcome.result.set.len() as u64,
        rounds: outcome.stats.num_rounds() as u64,
        paged_rounds: Some(outcome.stats.paged_rounds),
        file_scans: greedy.file_scans + outcome.result.file_scans,
        io: stats.snapshot(),
        cache: true,
        wall_ms: Some(wall_ms),
        ..Row::default()
    };
    let workload = Workload::GreedyThenSwap {
        rounds: side.rounds,
        paged_rounds: outcome.stats.paged_rounds,
        finalize: true,
        extra_scans: u64::from(cache.is_some()), // index-build scan
    };
    let what = if cache.is_some() {
        "paged"
    } else {
        "scan-only"
    };
    side.check(what, model, Some(workload), MODEL_TOLERANCE);
    side
}

/// Runs the experiment, prints the comparison and writes the JSON file.
pub fn run() {
    let n = harness::sweep_vertices().min(100_000);
    let block_size = 64 * 1024usize;
    let cache_bytes = 4u64 << 20;
    let threshold = mis_core::DEFAULT_PAGED_THRESHOLD;
    println!(
        "== Buffer-pool pager: scan-only vs paged two-k rounds (P(α,β), β = 2.0, |V| ≈ {n}) =="
    );

    let fx = harness::fixture("repro-pager", n, block_size, false);
    let model = fx.plain.cost_model(block_size).expect("metadata");
    let path = fx.plain.path();

    let scan_side = measure(path, block_size, None, &model);
    let pager_config = PagerConfig::with_capacity_bytes(cache_bytes, block_size, PolicyKind::Clock);
    let paged_side = measure(path, block_size, Some((pager_config, threshold)), &model);

    let rows: Vec<Vec<String>> = [("scan-only", &scan_side), ("paged", &paged_side)]
        .iter()
        .map(|(label, s)| {
            vec![
                label.to_string(),
                s.is_size.to_string(),
                s.file_scans.to_string(),
                s.paged_rounds.unwrap_or_default().to_string(),
                s.io.blocks_read.to_string(),
                harness::fmt_bytes(s.io.bytes_read),
                if s.io.cache_hits + s.io.cache_misses == 0 {
                    "-".to_string() // no cache in this configuration
                } else {
                    format!("{:.1}%", 100.0 * s.io.cache_hit_rate())
                },
                format!("{:.1}ms", s.wall_ms.unwrap_or_default()),
            ]
        })
        .collect();
    let header = [
        "path",
        "|IS|",
        "scans",
        "paged rounds",
        "blocks read",
        "bytes read",
        "hit rate",
        "time",
    ];
    harness::print_table(&header, &rows);

    assert_eq!(
        scan_side.is_size, paged_side.is_size,
        "paged rounds must not change the result"
    );
    let saved = scan_side
        .io
        .blocks_read
        .saturating_sub(paged_side.io.blocks_read);
    println!(
        "  identical |IS| = {}; paged path saved {} block transfers ({} scans -> {}, cache {} MiB, {} policy, threshold {:.2})",
        scan_side.is_size,
        saved,
        scan_side.file_scans,
        paged_side.file_scans,
        cache_bytes >> 20,
        pager_config.policy.name(),
        threshold,
    );
    println!(
        "  cost model: both sides conform (blocks within ±{:.0}% of scans × ⌈bytes/B⌉)",
        MODEL_TOLERANCE * 100.0
    );

    let (vertices, edges) = (fx.graph.num_vertices(), fx.graph.num_edges());
    let mut body = JsonObject::default();
    let mut graph = fx.graph_json();
    graph.field("file_bytes", model.file_bytes);
    body.field("graph", graph.to_json())
        .field(
            "cache",
            format_args!(
                "{{\"bytes\": {cache_bytes}, \"frames\": {}, \"policy\": \"{}\", \
             \"paged_threshold\": {threshold:.2}}}",
                pager_config.frames,
                pager_config.policy.name()
            ),
        )
        .field("scan_only", scan_side.to_json())
        .field("paged", paged_side.to_json())
        .field("blocks_saved", saved);
    harness::write_snapshot("pager", block_size, &body);

    let mut ledger = LedgerEntry::new(
        "repro pager",
        &format!("plrg beta=2.0 n={vertices}"),
        harness::env_fingerprint(block_size, &model.storage),
    );
    ledger.metric("vertices", vertices as f64);
    ledger.metric("edges", edges as f64);
    ledger.metric("file_bytes", model.file_bytes as f64);
    ledger.metric("is_size", scan_side.is_size as f64);
    ledger.metric("scan_only_blocks_read", scan_side.io.blocks_read as f64);
    ledger.metric("paged_blocks_read", paged_side.io.blocks_read as f64);
    ledger.metric("blocks_saved", saved as f64);
    ledger.metric(
        "paged_rounds",
        paged_side.paged_rounds.unwrap_or_default() as f64,
    );
    ledger.metric("cache_hit_rate", paged_side.io.cache_hit_rate());
    for (label, side) in [("scan-only", &scan_side), ("paged", &paged_side)] {
        ledger.verdict(&format!("model {label}"), side.conforms());
    }
    harness::ledger_append(&ledger);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TEST_BLOCK_SIZE;

    /// End-to-end regression for the acceptance criterion: on a real
    /// on-disk graph the paged path returns the same set with fewer
    /// block transfers.
    #[test]
    fn paged_side_saves_blocks_and_matches() {
        let fx = harness::test_fixture("pager-exp-test", 20_000);
        let model = fx.plain.cost_model(TEST_BLOCK_SIZE).unwrap();
        let path = fx.plain.path();
        let scan_side = measure(path, TEST_BLOCK_SIZE, None, &model);
        let pc = PagerConfig::with_capacity_bytes(1 << 20, TEST_BLOCK_SIZE, PolicyKind::Clock);
        let paged_side = measure(path, TEST_BLOCK_SIZE, Some((pc, 1.0)), &model);
        assert!(scan_side.conforms() && paged_side.conforms());
        assert_eq!(scan_side.is_size, paged_side.is_size);
        assert!(paged_side.paged_rounds > Some(0));
        assert!(
            paged_side.io.blocks_read < scan_side.io.blocks_read,
            "paged {} vs scan {}",
            paged_side.io.blocks_read,
            scan_side.io.blocks_read
        );
        assert!(paged_side.io.cache_hits > 0);
    }
}
