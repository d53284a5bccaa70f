//! The semi-external pipeline on real disk files — the paper's actual
//! setting, where the edge set does not fit in memory.
//!
//! ```text
//! cargo run --release --example semi_external
//! ```
//!
//! Builds an on-disk adjacency file, degree-sorts it through bucket
//! files (Algorithm 1's preprocessing), then runs the algorithms against
//! the file while counting every block transfer.

use std::sync::Arc;

use semi_mis::extmem::SortConfig;
use semi_mis::graph::{build_adj_file, degree_sort_adj_file};
use semi_mis::prelude::*;

fn main() -> std::io::Result<()> {
    let graph = semi_mis::gen::Plrg::with_vertices(100_000, 2.1)
        .seed(7)
        .generate();
    let scratch = ScratchDir::new("semi-external-example")?;
    let stats = IoStats::shared();
    let block_size = 64 * 1024;

    // 1. Write the graph as an adjacency-list file (vertex-id order).
    let unsorted = build_adj_file(
        &graph,
        &scratch.file("graph.adj"),
        Arc::clone(&stats),
        block_size,
    )?;
    println!(
        "adjacency file: {} ({} vertices, {} edges)",
        unsorted.disk_bytes()?,
        unsorted.num_vertices(),
        unsorted.num_edges()
    );

    // 2. Degree-sort it — the sort(|V|+|E|) preprocessing of Algorithm 1.
    let before = stats.snapshot();
    let sorted = degree_sort_adj_file(
        &unsorted,
        &scratch.file("graph.sorted.adj"),
        &SortConfig {
            mem_records: 1 << 18, // neighbour entries held per bucket: the model's "M"
            fan_in: 8,
            block_size,
        },
        &scratch,
    )?;
    println!("degree sort: {}", stats.snapshot().since(&before));

    // 3. Greedy: exactly one scan of the sorted file.
    let before = stats.snapshot();
    let greedy = Greedy::new().run(&sorted);
    let greedy_io = stats.snapshot().since(&before);
    println!("greedy: |IS| = {} — {}", greedy.set.len(), greedy_io);
    assert_eq!(greedy_io.scans_started, 1, "Algorithm 1 is one scan");

    // 4. Two-k-swap: a few more scans, still no random access.
    let before = stats.snapshot();
    let two_k = TwoKSwap::new().run(&sorted, &greedy.set);
    let swap_io = stats.snapshot().since(&before);
    println!(
        "two-k-swap: |IS| = {} in {} rounds — {}",
        two_k.result.set.len(),
        two_k.stats.num_rounds(),
        swap_io
    );
    println!(
        "swap-state memory (paper Table 6 model): {} bytes for {} vertices",
        two_k.result.memory.total(),
        graph.num_vertices()
    );

    // The final set is verified against the file, not the in-memory graph:
    // the checks themselves are one-scan semi-external algorithms.
    assert!(is_independent_set(&sorted, &two_k.result.set));
    assert!(is_maximal_independent_set(&sorted, &two_k.result.set));
    println!("verified independent + maximal against the on-disk file");
    Ok(())
}
