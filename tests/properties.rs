//! Property-based tests (proptest) for the core invariants:
//! independence, maximality, monotonicity, bound domination, oracle
//! consistency, and substrate equivalences.

use proptest::prelude::*;
use semi_mis::extmem::{ExternalPq, IoStats, ScratchDir, SortConfig};
use semi_mis::graph::adjfile::AdjFileWriter;
use semi_mis::graph::{
    degree_sort_adj_file, degree_sort_compressed_adj_file, CsrGraph, GapCodec, PlainCodec,
    RecordCodec, RecordFile,
};
use semi_mis::prelude::*;

/// Arbitrary small graph: vertex count and an edge list over it.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// Every record of `file`, in storage order.
fn records(file: &dyn GraphScan) -> Vec<(VertexId, Vec<VertexId>)> {
    let mut records = Vec::new();
    file.scan(&mut |v, ns| records.push((v, ns.to_vec())))
        .unwrap();
    records
}

/// Paged reads of every vertex of the `C` file at `path` agree with
/// `expected` under several cache capacities (1 frame, a few frames, and
/// ≥ all pages; the tiny page size makes records straddle pages), in
/// three orders with exact I/O. Open, one full scan, then every read:
/// that scan and the pager's misses, nothing more, because the scan
/// builds the record index on the way. A read first: exactly one scan
/// more, the index build. A second handle over the same file, or over a
/// clone: no scan.
fn check_paged_reads<C: RecordCodec>(path: &std::path::Path, expected: &[Vec<VertexId>]) {
    use std::sync::Arc;
    let stats = IoStats::shared();
    let open = || RecordFile::<C>::open_with_block_size(path, Arc::clone(&stats), 256).unwrap();
    let scan_blocks = {
        let file = open();
        let before = stats.snapshot();
        file.scan(&mut |_, _| {}).unwrap();
        stats.snapshot().since(&before).blocks_read
    };
    let page_size = 32usize;
    let all_pages = (open().disk_bytes().unwrap() as usize).div_ceil(page_size);
    let read_all = |ra: &RandomAccessGraph<C>| {
        for (v, want) in expected.iter().enumerate() {
            assert_eq!(&ra.neighbors(v as VertexId).unwrap(), want, "v{v}");
        }
    };
    for frames in [1, 3, all_pages + 1] {
        let config = PagerConfig {
            page_size,
            frames,
            policy: PolicyKind::Clock,
        };
        for scan_first in [true, false] {
            let file = open();
            let before = stats.snapshot();
            let ra = RandomAccessGraph::open(&file, config).unwrap();
            if scan_first {
                file.scan(&mut |_, _| {}).unwrap();
            }
            read_all(&ra);
            let io = stats.snapshot().since(&before);
            let what = format!("{frames} frames, scan first: {scan_first}");
            assert_eq!(io.scans_started, 1, "{what}");
            assert_eq!(io.blocks_read, scan_blocks + io.cache_misses, "{what}");
            if !scan_first {
                file.scan(&mut |_, _| {}).unwrap();
                let io = stats.snapshot().since(&before);
                assert_eq!(io.scans_started, 2, "{what}");
            }
            // The index lives in the file's slot, shared with its clones.
            let before = stats.snapshot();
            for other in [file.clone(), file] {
                read_all(&RandomAccessGraph::open(&other, config).unwrap());
            }
            assert_eq!(stats.snapshot().since(&before).scans_started, 0, "{what}");
        }
    }
}

/// The degree sort of `g` on both codecs, from a plain file whose lists
/// are in id order (not rank order), against an in-memory reference:
/// records in ascending `(degree, id)` order, plain lists by
/// `(degree, id)`, compressed lists by id.
fn check_degree_sort(g: &CsrGraph, cfg: &SortConfig) {
    let dir = ScratchDir::new("prop-degsort").unwrap();
    let stats = IoStats::shared();
    let path = dir.file("g.adj");
    let n = g.num_vertices() as u64;
    let mut writer =
        AdjFileWriter::create(&path, n, g.num_edges(), stats.clone(), cfg.block_size).unwrap();
    writer.write_scan(g).unwrap();
    writer.finish().unwrap();
    let input = AdjFile::open_with_block_size(&path, stats, cfg.block_size).unwrap();
    let plain = degree_sort_adj_file(&input, &dir.file("s.adj"), cfg, &dir).unwrap();
    let comp = degree_sort_compressed_adj_file(&input, &dir.file("s.cadj"), cfg, &dir).unwrap();

    let key = |v: VertexId| (g.degree(v), v);
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_by_key(|&v| key(v));
    let by_key: Vec<_> = order
        .iter()
        .map(|&v| {
            let mut ns = g.neighbors(v).to_vec();
            ns.sort_by_key(|&u| key(u));
            (v, ns)
        })
        .collect();
    let by_id: Vec<_> = order
        .iter()
        .map(|&v| (v, g.neighbors(v).to_vec()))
        .collect();
    assert_eq!(records(&plain), by_key, "{cfg:?}");
    assert_eq!(records(&comp), by_id, "{cfg:?}");
    assert_eq!(plain.num_edges(), g.num_edges());
    assert_eq!(comp.num_edges(), g.num_edges());
}

#[test]
fn degree_sort_of_the_empty_graph() {
    for n in [0, 1, 5] {
        check_degree_sort(&CsrGraph::empty(n), &SortConfig::tiny());
        check_degree_sort(&CsrGraph::empty(n), &SortConfig::default());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn greedy_is_maximal_independent(g in arb_graph(60, 240)) {
        let sorted = OrderedCsr::degree_sorted(&g);
        let result = Greedy::new().run(&sorted);
        prop_assert!(is_independent_set(&g, &result.set));
        prop_assert!(is_maximal_independent_set(&g, &result.set));
    }

    #[test]
    fn one_k_swap_invariants(g in arb_graph(50, 200)) {
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let out = OneKSwap::new().run(&sorted, &greedy.set);
        prop_assert!(is_independent_set(&g, &out.result.set));
        prop_assert!(is_maximal_independent_set(&g, &out.result.set));
        prop_assert!(out.result.set.len() >= greedy.set.len());
    }

    #[test]
    fn two_k_swap_invariants(g in arb_graph(50, 200)) {
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let out = TwoKSwap::new().run(&sorted, &greedy.set);
        prop_assert!(is_independent_set(&g, &out.result.set));
        prop_assert!(is_maximal_independent_set(&g, &out.result.set));
        prop_assert!(out.result.set.len() >= greedy.set.len());
    }

    #[test]
    fn swaps_from_arbitrary_maximal_sets(g in arb_graph(40, 150)) {
        // Start the swaps from the *unsorted* baseline rather than greedy.
        let baseline = Baseline::new().run(&g);
        let one = OneKSwap::new().run(&g, &baseline.set);
        let two = TwoKSwap::new().run(&g, &baseline.set);
        prop_assert!(is_maximal_independent_set(&g, &one.result.set));
        prop_assert!(is_maximal_independent_set(&g, &two.result.set));
        prop_assert!(one.result.set.len() >= baseline.set.len());
        prop_assert!(two.result.set.len() >= baseline.set.len());
    }

    #[test]
    fn bound_dominates_every_algorithm(g in arb_graph(40, 150)) {
        let sorted = OrderedCsr::degree_sorted(&g);
        let bound = upper_bound_scan(&sorted);
        let greedy = Greedy::new().run(&sorted);
        let two = TwoKSwap::new().run(&sorted, &greedy.set);
        let dynamic = DynamicUpdate::new().run(&g);
        prop_assert!(greedy.set.len() as u64 <= bound);
        prop_assert!(two.result.set.len() as u64 <= bound);
        prop_assert!(dynamic.set.len() as u64 <= bound);
    }

    #[test]
    fn exact_dominates_heuristics_and_bound_dominates_exact(g in arb_graph(22, 60)) {
        let alpha = semi_mis::algo::exact::independence_number(&g);
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let two = TwoKSwap::new().run(&sorted, &greedy.set);
        prop_assert!(greedy.set.len() <= alpha);
        prop_assert!(two.result.set.len() <= alpha);
        prop_assert!(upper_bound_scan(&g) as usize >= alpha);
    }

    #[test]
    fn tfp_matches_id_order_baseline(g in arb_graph(50, 200)) {
        let tfp = TfpMaximalIs::with_pq_memory(16)
            .run(&g, IoStats::shared())
            .unwrap();
        let baseline = Baseline::new().run(&g);
        prop_assert_eq!(tfp.set, baseline.set);
    }

    #[test]
    fn degree_sort_equals_in_memory_reference(
        g in arb_graph(40, 120),
        isolated in 0usize..6,
        hub in 0u32..30,
        budget in 0usize..5,
        fan_in in 1usize..4,
    ) {
        // Isolated vertices after the random ones, and a hub on vertex 0.
        let n = g.num_vertices() + isolated;
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        edges.extend((1..=hub.min(n as u32 - 1)).map(|v| (0, v)));
        let g = CsrGraph::from_edges(n, &edges);
        let entries = 2 * g.num_edges() as usize;
        // One record per bucket; a hub above the budget; several
        // buckets; one bucket.
        let mem_records = match budget {
            0 => 1,
            1 => (g.max_degree() as usize).saturating_sub(1),
            2 => entries / 5,
            3 => entries / 2,
            _ => entries,
        };
        check_degree_sort(&g, &SortConfig { mem_records, fan_in, block_size: 64 });
    }

    #[test]
    fn external_pq_equals_binary_heap(ops in proptest::collection::vec((any::<bool>(), any::<u32>()), 0..500)) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let stats = IoStats::shared();
        let mut pq = ExternalPq::with_block_size(16, "prop", stats, 256).unwrap();
        let mut oracle: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        for (is_pop, value) in ops {
            if is_pop {
                let got = pq.pop().unwrap();
                let want = oracle.pop().map(|Reverse(v)| v);
                prop_assert_eq!(got, want);
            } else {
                pq.push(value).unwrap();
                oracle.push(Reverse(value));
            }
            prop_assert_eq!(pq.len(), oracle.len() as u64);
        }
    }

    #[test]
    fn edge_list_round_trip(g in arb_graph(40, 120)) {
        let mut buf = Vec::new();
        semi_mis::graph::edgelist::write_edge_list(&g, &mut buf).unwrap();
        let mut back = semi_mis::graph::edgelist::read_csr(std::io::Cursor::new(buf)).unwrap();
        // Trailing isolated vertices are not representable in an edge
        // list; pad to the original size before comparing.
        if back.num_vertices() < g.num_vertices() {
            let mut b = semi_mis::graph::GraphBuilder::new(g.num_vertices());
            for (u, v) in back.edges() {
                b.add_edge(u, v);
            }
            back = b.build();
        }
        prop_assert_eq!(back, g);
    }

    #[test]
    fn compressed_file_round_trips(g in arb_graph(40, 150)) {
        use std::sync::Arc;
        let scratch = ScratchDir::new("prop-cadj").unwrap();
        let stats = IoStats::shared();
        let file = semi_mis::graph::compress_adj(&g, &scratch.file("g.cadj"), Arc::clone(&stats), 512).unwrap();
        let mut rebuilt = semi_mis::graph::GraphBuilder::new(g.num_vertices());
        file.scan(&mut |v, ns| {
            for &u in ns {
                rebuilt.add_edge(v, u);
            }
        }).unwrap();
        prop_assert_eq!(rebuilt.build(), g.clone());
        prop_assert_eq!(file.num_edges(), g.num_edges());
    }

    #[test]
    fn incremental_repair_invariants(g in arb_graph(30, 80), extra in proptest::collection::vec((0u32..30, 0u32..30), 0..12)) {
        let baseline = Baseline::new().run(&g);
        let mut delta = PinnedDelta::new(g.clone(), std::sync::Arc::default(), 0);
        let n = g.num_vertices() as u32;
        let extra: Vec<(u32, u32)> = extra.into_iter().filter(|&(u, v)| u < n && v < n).collect();
        for &(u, v) in &extra {
            delta.insert_edge(u, v);
        }
        let config = RepairConfig { recover_rounds: 2, verify: false };
        let out = repair_updated_set_from_ops(&delta, &baseline.set, &extra, config);
        prop_assert!(is_independent_set(&delta, &out.swap.result.set));
        prop_assert!(is_maximal_independent_set(&delta, &out.swap.result.set));
    }

    #[test]
    fn random_access_neighbors_agree_with_scan(g in arb_graph(40, 150)) {
        // The pager satellite property: RandomAccessGraph::neighbors
        // agrees with a full GraphScan for every vertex, on both codecs,
        // and the record index costs a scan only when a read comes
        // before every full scan.
        use std::sync::Arc;
        let scratch = ScratchDir::new("prop-raccess").unwrap();
        let stats = IoStats::shared();
        let file = semi_mis::graph::build_adj_file(&g, &scratch.file("g.adj"), Arc::clone(&stats), 256).unwrap();
        semi_mis::graph::compress_adj(&g, &scratch.file("g.cadj"), stats, 256).unwrap();
        let mut expected = vec![Vec::new(); g.num_vertices()];
        file.scan(&mut |v, ns| expected[v as usize] = ns.to_vec()).unwrap();
        check_paged_reads::<PlainCodec>(&scratch.file("g.adj"), &expected);
        for list in &mut expected {
            list.sort_unstable(); // the compressed codec stores lists by id
        }
        check_paged_reads::<GapCodec>(&scratch.file("g.cadj"), &expected);
    }

    #[test]
    fn paged_swaps_match_scan_swaps_on_disk(g in arb_graph(40, 150)) {
        // Full pipeline equivalence on a real file: one-k and two-k runs
        // through the buffer pool return exactly the scan-only set.
        use std::sync::Arc;
        let scratch = ScratchDir::new("prop-paged").unwrap();
        let stats = IoStats::shared();
        let file = semi_mis::graph::build_adj_file(&g, &scratch.file("g.adj"), Arc::clone(&stats), 256).unwrap();
        let before = stats.snapshot();
        let ra = RandomAccessGraph::open(
            &file,
            PagerConfig { page_size: 64, frames: 2, policy: PolicyKind::Clock },
        ).unwrap();
        let greedy = Greedy::new().run(&file);
        let config = SwapConfig::default().with_paged_threshold(1.0);
        let one_scan = OneKSwap::new().run(&file, &greedy.set);
        let one_paged = OneKSwap::with_config(config).run_paged(&file, Some(&ra), &greedy.set);
        let two_scan = TwoKSwap::new().run(&file, &greedy.set);
        let two_paged = TwoKSwap::with_config(config).run_paged(&file, Some(&ra), &greedy.set);
        // Greedy's scan builds the index on the way: the paged rounds
        // cost no scan of their own.
        let file_scans = greedy.file_scans
            + one_scan.result.file_scans
            + one_paged.result.file_scans
            + two_scan.result.file_scans
            + two_paged.result.file_scans;
        prop_assert_eq!(stats.snapshot().since(&before).scans_started, file_scans);
        prop_assert_eq!(one_paged.result.set, one_scan.result.set);
        prop_assert_eq!(&two_paged.result.set, &two_scan.result.set);
        prop_assert!(is_maximal_independent_set(&file, &two_paged.result.set));
    }

    #[test]
    fn delta_edits_match_a_materialised_graph(
        g in arb_graph(30, 100),
        edits in proptest::collection::vec((any::<bool>(), 0u32..30, 0u32..30), 0..40),
    ) {
        // PinnedDelta insert+delete overlays must scan exactly like a
        // graph with the edits materialised, for any *valid* edit stream
        // (inserts name absent edges, deletes name live ones — the
        // contract the overlay documents and the WAL/churn workloads
        // uphold). Resurrections (delete then re-insert) are covered.
        let n = g.num_vertices() as u32;
        let mut delta = PinnedDelta::new(g.clone(), std::sync::Arc::default(), 0);
        let mut edges: std::collections::BTreeSet<(u32, u32)> =
            g.edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
        for (insert, u, v) in edits {
            let (u, v) = (u % n, v % n);
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if insert && edges.insert(key) {
                delta.insert_edge(u, v);
            } else if !insert && edges.remove(&key) {
                delta.delete_edge(u, v);
            }
        }
        let edge_list: Vec<(u32, u32)> = edges.iter().copied().collect();
        let oracle = CsrGraph::from_edges(g.num_vertices(), &edge_list);
        prop_assert_eq!(delta.num_edges(), oracle.num_edges());
        let mut got = vec![Vec::new(); g.num_vertices()];
        delta.scan(&mut |v, ns| {
            let mut ns = ns.to_vec();
            ns.sort_unstable();
            got[v as usize] = ns;
        }).unwrap();
        for v in 0..n {
            let mut want = oracle.neighbors(v).to_vec();
            want.sort_unstable();
            prop_assert_eq!(&got[v as usize], &want, "vertex {}", v);
        }
        // And the maintenance pipeline holds on the edited graph.
        // The edits are single edits, so no batch record: the repair
        // starts from the violation scan.
        let baseline = Baseline::new().run(&g);
        let out = repair_updated_set_from_ops(&delta, &baseline.set, &[], RepairConfig::default());
        prop_assert!(out.maximality_proved);
        prop_assert!(is_maximal_independent_set(&delta, &out.swap.result.set));
    }

    #[test]
    fn early_stop_is_prefix_of_full_run(g in arb_graph(40, 160)) {
        // Round-limited runs must report a prefix of the full run's
        // per-round gains (the algorithms are deterministic).
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let full = OneKSwap::new().run(&sorted, &greedy.set);
        let stopped = OneKSwap::with_config(SwapConfig::early_stop(1)).run(&sorted, &greedy.set);
        if let (Some(full_r0), Some(stop_r0)) = (full.stats.rounds.first(), stopped.stats.rounds.first()) {
            prop_assert_eq!(full_r0.swapped_in, stop_r0.swapped_in);
            prop_assert_eq!(full_r0.swapped_out, stop_r0.swapped_out);
        }
        prop_assert!(stopped.stats.num_rounds() <= 1);
    }
}
