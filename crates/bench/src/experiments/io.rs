//! Semi-external I/O accounting demonstration.
//!
//! The differentiator of the paper is the I/O profile, which the
//! in-memory experiments cannot show. This experiment runs the full
//! on-disk pipeline — build adjacency file → degree-sort (bucketed)
//! → Greedy → One-k → Two-k — through `mis-extmem`'s block-accounted
//! readers and compares the measured block transfers with the paper's
//! Table 1 formulas.

use std::sync::Arc;

use mis_core::{Greedy, OneKSwap, TfpMaximalIs, TwoKSwap};
use mis_extmem::{IoStats, ScratchDir, SortConfig};
use mis_graph::{build_adj_file, degree_sort_adj_file};

use crate::harness;

/// Runs the experiment and prints the accounting.
pub fn run() {
    let n = harness::sweep_vertices().min(200_000);
    println!("== Semi-external I/O accounting (P(α,β), β = 2.0, |V| ≈ {n}) ==");
    let graph = mis_gen::Plrg::with_vertices(n, 2.0).seed(42).generate();
    let block_size = 64 * 1024usize;
    let scratch = ScratchDir::new("repro-io").expect("scratch dir");
    let stats = IoStats::shared();

    // Build + degree-sort on disk.
    let before = stats.snapshot();
    let unsorted = build_adj_file(
        &graph,
        &scratch.file("graph.adj"),
        Arc::clone(&stats),
        block_size,
    )
    .expect("build adj file");
    let build_io = stats.snapshot().since(&before);

    let before = stats.snapshot();
    let sorted = degree_sort_adj_file(
        &unsorted,
        &scratch.file("graph.sorted.adj"),
        &SortConfig {
            mem_records: 1 << 18,
            fan_in: 8,
            block_size,
        },
        &scratch,
    )
    .expect("degree sort");
    let sort_io = stats.snapshot().since(&before);

    let file_bytes = sorted.disk_bytes().expect("metadata");
    let scan_blocks_formula = file_bytes.div_ceil(block_size as u64);

    let mut rows = Vec::new();
    let mut record = |label: &str, io: mis_extmem::IoSnapshot, size: Option<u64>| {
        rows.push(vec![
            label.to_string(),
            io.scans_started.to_string(),
            io.blocks_read.to_string(),
            io.blocks_written.to_string(),
            harness::fmt_bytes(io.bytes_read + io.bytes_written),
            size.map(|s| s.to_string()).unwrap_or_default(),
        ]);
    };
    record("build file", build_io, None);
    record("degree sort", sort_io, None);

    let before = stats.snapshot();
    let greedy = Greedy::new().run(&sorted);
    record(
        "Greedy",
        stats.snapshot().since(&before),
        Some(greedy.set.len() as u64),
    );

    let before = stats.snapshot();
    let one = OneKSwap::new().run(&sorted, &greedy.set);
    record(
        "One-k-swap",
        stats.snapshot().since(&before),
        Some(one.result.set.len() as u64),
    );

    let before = stats.snapshot();
    let two = TwoKSwap::new().run(&sorted, &greedy.set);
    record(
        "Two-k-swap",
        stats.snapshot().since(&before),
        Some(two.result.set.len() as u64),
    );

    let before = stats.snapshot();
    let tfp = TfpMaximalIs::new()
        .run(&unsorted, Arc::clone(&stats))
        .expect("tfp");
    record(
        "STXXL (TFP)",
        stats.snapshot().since(&before),
        Some(tfp.set.len() as u64),
    );

    let header = [
        "phase",
        "scans",
        "blocks read",
        "blocks written",
        "bytes",
        "|IS|",
    ];
    harness::print_table(&header, &rows);
    println!(
        "  file = {} ({} blocks of {}); Table 1: Greedy = 1 scan, swaps = O(scan(|V|+|E|)) = {} blocks/scan",
        harness::fmt_bytes(file_bytes),
        scan_blocks_formula,
        harness::fmt_bytes(block_size as u64),
        scan_blocks_formula,
    );
    println!(
        "  one-k used {} file scans, two-k {} (init + 2/round + finalise)",
        one.result.file_scans, two.result.file_scans
    );
}
