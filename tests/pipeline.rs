//! End-to-end integration: generator → on-disk adjacency file → external
//! degree sort → all six algorithms → verification, spanning every crate
//! in the workspace.

use std::sync::Arc;

use semi_mis::extmem::SortConfig;
use semi_mis::graph::{build_adj_file, degree_sort_adj_file};
use semi_mis::prelude::*;

/// The on-disk pipeline must agree exactly with the in-memory emulation:
/// same greedy set, same swap results, because scan order and algorithm
/// state are identical.
#[test]
fn disk_and_memory_pipelines_agree() {
    let graph = semi_mis::gen::Plrg::with_vertices(20_000, 2.1)
        .seed(3)
        .generate();
    let scratch = ScratchDir::new("pipeline-agree").unwrap();
    let stats = IoStats::shared();

    let unsorted =
        build_adj_file(&graph, &scratch.file("g.adj"), Arc::clone(&stats), 4096).unwrap();
    let sorted_file = degree_sort_adj_file(
        &unsorted,
        &scratch.file("g.sorted.adj"),
        &SortConfig {
            mem_records: 10_000,
            fan_in: 4,
            block_size: 4096,
        },
        &scratch,
    )
    .unwrap();

    let sorted_mem = OrderedCsr::degree_sorted(&graph);

    let greedy_disk = Greedy::new().run(&sorted_file);
    let greedy_mem = Greedy::new().run(&sorted_mem);
    assert_eq!(greedy_disk.set, greedy_mem.set);

    let one_disk = OneKSwap::new().run(&sorted_file, &greedy_disk.set);
    let one_mem = OneKSwap::new().run(&sorted_mem, &greedy_mem.set);
    assert_eq!(one_disk.result.set, one_mem.result.set);
    assert_eq!(one_disk.stats.num_rounds(), one_mem.stats.num_rounds());

    let two_disk = TwoKSwap::new().run(&sorted_file, &greedy_disk.set);
    let two_mem = TwoKSwap::new().run(&sorted_mem, &greedy_mem.set);
    assert_eq!(two_disk.result.set, two_mem.result.set);
    assert_eq!(
        two_disk.stats.sc_peak_vertices,
        two_mem.stats.sc_peak_vertices
    );
}

/// The degree-sorted file encodes the same graph as the source CSR.
#[test]
fn degree_sort_preserves_the_graph() {
    let graph = semi_mis::gen::er::gnm(2_000, 6_000, 11);
    let scratch = ScratchDir::new("pipeline-preserve").unwrap();
    let stats = IoStats::shared();
    let unsorted =
        build_adj_file(&graph, &scratch.file("g.adj"), Arc::clone(&stats), 4096).unwrap();
    let sorted = degree_sort_adj_file(
        &unsorted,
        &scratch.file("g.s.adj"),
        &SortConfig {
            mem_records: 500,
            fan_in: 3,
            block_size: 1024,
        },
        &scratch,
    )
    .unwrap();

    let mut rebuilt = semi_mis::graph::GraphBuilder::new(graph.num_vertices());
    let mut last_degree = 0usize;
    sorted
        .scan(&mut |v, ns| {
            assert!(ns.len() >= last_degree, "records must be degree-sorted");
            last_degree = ns.len();
            for &u in ns {
                rebuilt.add_edge(v, u);
            }
        })
        .unwrap();
    assert_eq!(rebuilt.build(), graph);
}

/// Every algorithm's output is independent, the paper's orderings hold,
/// and all sizes respect the Algorithm 5 bound.
#[test]
fn full_algorithm_suite_invariants() {
    let graph = semi_mis::gen::datasets::by_name("DBLP")
        .unwrap()
        .generate(0.2);
    let sorted = OrderedCsr::degree_sorted(&graph);
    let bound = upper_bound_scan(&sorted);

    let baseline = Baseline::new().run(&graph);
    let greedy = Greedy::new().run(&sorted);
    let dynamic = DynamicUpdate::new().run(&graph);
    let tfp = TfpMaximalIs::new().run(&graph, IoStats::shared()).unwrap();
    let one_b = OneKSwap::new().run(&graph, &baseline.set);
    let two_b = TwoKSwap::new().run(&graph, &baseline.set);
    let one_g = OneKSwap::new().run(&sorted, &greedy.set);
    let two_g = TwoKSwap::new().run(&sorted, &greedy.set);

    let all: Vec<(&str, &Vec<VertexId>)> = vec![
        ("baseline", &baseline.set),
        ("greedy", &greedy.set),
        ("dynamic", &dynamic.set),
        ("tfp", &tfp.set),
        ("one-k(B)", &one_b.result.set),
        ("two-k(B)", &two_b.result.set),
        ("one-k(G)", &one_g.result.set),
        ("two-k(G)", &two_g.result.set),
    ];
    for (name, set) in &all {
        assert!(is_independent_set(&graph, set), "{name} not independent");
        assert!(
            is_maximal_independent_set(&graph, set),
            "{name} not maximal"
        );
        assert!(set.len() as u64 <= bound, "{name} exceeds the bound");
    }
    // Paper Table 5 orderings.
    assert!(one_b.result.set.len() >= baseline.set.len());
    assert!(two_b.result.set.len() >= baseline.set.len());
    assert!(one_g.result.set.len() >= greedy.set.len());
    assert!(two_g.result.set.len() >= greedy.set.len());
    assert!(
        greedy.set.len() > baseline.set.len(),
        "degree sort must help on power laws"
    );
}

/// Scan accounting: greedy is exactly one scan of the file; swap rounds
/// cost two scans each, plus init. The maximality finish replays the last
/// post-swap pass's open vertices in memory instead of scanning.
#[test]
fn io_scan_accounting() {
    let graph = semi_mis::gen::Plrg::with_vertices(5_000, 2.3)
        .seed(9)
        .generate();
    let scratch = ScratchDir::new("pipeline-io").unwrap();
    let stats = IoStats::shared();
    let file = build_adj_file(&graph, &scratch.file("g.adj"), Arc::clone(&stats), 4096).unwrap();

    let before = stats.snapshot();
    let greedy = Greedy::new().run(&file);
    let greedy_io = stats.snapshot().since(&before);
    assert_eq!(greedy_io.scans_started, 1);
    assert_eq!(greedy_io.blocks_written, 0, "greedy never writes");
    // One scan reads the file once (within a block of rounding).
    let file_bytes = file.disk_bytes().unwrap();
    assert!(greedy_io.bytes_read >= file_bytes);
    assert!(greedy_io.bytes_read <= file_bytes + 4096);

    let before = stats.snapshot();
    let one = OneKSwap::new().run(&file, &greedy.set);
    let one_io = stats.snapshot().since(&before);
    assert_eq!(one_io.scans_started, one.result.file_scans);
    assert!(!one.stats.finish_scanned);
    assert_eq!(
        one.result.file_scans,
        1 + 2 * u64::from(one.stats.num_rounds())
    );
}

/// The figure examples work identically through the facade crate.
#[test]
fn paper_examples_via_facade() {
    for (ex, use_two_k) in [
        (semi_mis::gen::figures::figure2(), false),
        (semi_mis::gen::figures::figure4(), false),
        (semi_mis::gen::figures::figure7(), true),
    ] {
        let scan = match &ex.scan_order {
            Some(order) => OrderedCsr::new(&ex.graph, order.clone()),
            None => OrderedCsr::degree_sorted(&ex.graph),
        };
        let result = if use_two_k {
            TwoKSwap::new().run(&scan, &ex.initial_is).result.set
        } else {
            OneKSwap::new().run(&scan, &ex.initial_is).result.set
        };
        assert_eq!(result, ex.expected_is);
    }
}

/// Small graphs: the swap algorithms never beat the exact optimum, and
/// usually reach it on easy instances.
#[test]
fn exact_oracle_dominates() {
    let mut reached = 0;
    let total = 20;
    for seed in 0..total {
        let g = semi_mis::gen::er::gnm(24, 50, seed);
        let alpha = semi_mis::algo::exact::independence_number(&g);
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let two = TwoKSwap::new().run(&sorted, &greedy.set);
        assert!(two.result.set.len() <= alpha, "seed {seed}");
        if two.result.set.len() == alpha {
            reached += 1;
        }
    }
    assert!(
        reached >= total / 2,
        "two-k should reach α on most sparse instances ({reached}/{total})"
    );
}
