//! Cross-crate tests for the extension features: compressed files,
//! incremental updates, and the matching bound — all through the public
//! facade.

use std::sync::Arc;

use semi_mis::algo::matching_bound;
use semi_mis::graph::{build_adj_file, compress_adj};
use semi_mis::prelude::*;

#[test]
fn compressed_file_runs_the_full_pipeline() {
    let graph = semi_mis::gen::Plrg::with_vertices(10_000, 2.1)
        .seed(8)
        .generate();
    let scratch = ScratchDir::new("ext-compressed").unwrap();
    let stats = IoStats::shared();

    let plain = build_adj_file(&graph, &scratch.file("g.adj"), Arc::clone(&stats), 4096).unwrap();
    let compressed =
        compress_adj(&graph, &scratch.file("g.cadj"), Arc::clone(&stats), 4096).unwrap();

    // Identical algorithm outcomes: record order and neighbour sets match.
    let greedy_plain = Greedy::new().run(&plain);
    let greedy_comp = Greedy::new().run(&compressed);
    assert_eq!(greedy_plain.set, greedy_comp.set);

    let two_plain = TwoKSwap::new().run(&plain, &greedy_plain.set);
    let two_comp = TwoKSwap::new().run(&compressed, &greedy_comp.set);
    assert_eq!(two_plain.result.set, two_comp.result.set);

    // And the compressed file is genuinely smaller.
    assert!(compressed.disk_bytes().unwrap() * 3 < plain.disk_bytes().unwrap() * 2);
}

#[test]
fn compression_reduces_scan_block_traffic() {
    let graph = semi_mis::gen::Plrg::with_vertices(20_000, 2.0)
        .seed(3)
        .generate();
    let scratch = ScratchDir::new("ext-blocks").unwrap();
    let stats = IoStats::shared();
    let plain = build_adj_file(&graph, &scratch.file("g.adj"), Arc::clone(&stats), 4096).unwrap();
    let compressed =
        compress_adj(&graph, &scratch.file("g.cadj"), Arc::clone(&stats), 4096).unwrap();

    let before = stats.snapshot();
    plain.scan(&mut |_, _| {}).unwrap();
    let plain_io = stats.snapshot().since(&before);
    let before = stats.snapshot();
    compressed.scan(&mut |_, _| {}).unwrap();
    let comp_io = stats.snapshot().since(&before);
    assert!(
        comp_io.blocks_read < plain_io.blocks_read,
        "compressed scan {} blocks vs plain {}",
        comp_io.blocks_read,
        plain_io.blocks_read
    );
}

#[test]
fn incremental_repair_through_compressed_base() {
    // Overlay edge insertions on a *compressed on-disk* base: the whole
    // stack composes.
    let graph = semi_mis::gen::Plrg::with_vertices(5_000, 2.2)
        .seed(5)
        .generate();
    let scratch = ScratchDir::new("ext-incr").unwrap();
    let stats = IoStats::shared();
    let compressed = compress_adj(&graph, &scratch.file("g.cadj"), stats, 4096).unwrap();
    let greedy = Greedy::new().run(&compressed);

    let mut delta = PinnedDelta::new(compressed, Arc::default(), 0);
    let a = greedy.set[0];
    let b = greedy.set[1];
    delta.insert_edge(a, b);
    let out = repair_updated_set_from_ops(&delta, &greedy.set, &[(a, b)], RepairConfig::default());
    assert_eq!(out.evicted, 1);
    assert!(is_independent_set(&delta, &out.swap.result.set));
    assert!(is_maximal_independent_set(&delta, &out.swap.result.set));
}

#[test]
fn matching_bound_complements_algorithm_five() {
    let graph = semi_mis::gen::datasets::by_name("Astroph")
        .unwrap()
        .generate(0.2);
    let sorted = OrderedCsr::degree_sorted(&graph);
    let greedy = Greedy::new().run(&sorted);
    let two = TwoKSwap::new().run(&sorted, &greedy.set);
    let star = upper_bound_scan(&sorted);
    let matching = matching_bound(&sorted);
    assert!(two.result.set.len() as u64 <= star);
    assert!(two.result.set.len() as u64 <= matching);
}
