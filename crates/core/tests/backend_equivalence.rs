//! Storage-backend equivalence properties: the gap-compressed
//! `MISADJC1` backend must compute **byte-identical** results to the
//! plain `MISADJ01` backend for every algorithm, on the scanned and the
//! paged (`--cache-mb`) paths.
//!
//! The storage format changes how many blocks a scan moves, never what
//! the algorithms compute. Records are compared on the product path — a
//! plain adjacency file compressed by `compress_adj` (the `mis compress`
//! pipeline), so neighbour lists differ in *order* (degree-sorted vs
//! id-sorted) but never in content, and record order is preserved
//! exactly.
//!
//! Within one storage backend, whole `MisResult`/`SwapOutcome` values
//! are compared. Across backends the comparison keeps the set, the scan
//! counts, every round statistic and the whole memory model: both codecs
//! share one record index of 8 bytes per vertex, so even the paged path's
//! `pager_bytes` agree.

use std::sync::Arc;

use proptest::prelude::*;

use mis_core::{Greedy, OneKSwap, SwapConfig, SwapOutcome, TwoKSwap};
use mis_extmem::pager::PolicyKind;
use mis_extmem::{IoStats, PagerConfig, ScratchDir};
use mis_graph::{
    build_adj_file, compress_adj, AdjFile, CompressedAdjFile, CsrGraph, NeighborAccess,
    RandomAccessGraph,
};

/// Arbitrary small graph: vertex count and an edge list over it.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// Builds the two on-disk backends for `g` in `dir`: a plain file and
/// its `mis compress` product.
fn disk_pair(g: &CsrGraph, dir: &ScratchDir) -> (AdjFile, CompressedAdjFile) {
    let stats = IoStats::shared();
    let plain = build_adj_file(g, &dir.file("g.adj"), Arc::clone(&stats), 256).unwrap();
    let comp = compress_adj(&plain, &dir.file("g.cadj"), stats, 256).unwrap();
    (plain, comp)
}

fn pool(frames: usize) -> PagerConfig {
    PagerConfig {
        page_size: 64,
        frames,
        policy: PolicyKind::Clock,
    }
}

/// Asserts two swap outcomes are identical across storage backends.
fn assert_outcomes_match(a: &SwapOutcome, b: &SwapOutcome, what: &str) {
    assert_eq!(a.result.set, b.result.set, "{what}: set");
    assert_eq!(a.result.file_scans, b.result.file_scans, "{what}: scans");
    assert_eq!(a.stats, b.stats, "{what}: round statistics");
    assert_eq!(a.result.memory, b.result.memory, "{what}: memory model");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn greedy_identical_on_both_backends(g in arb_graph(36, 140)) {
        let dir = ScratchDir::new("beq-greedy").unwrap();
        let (plain, comp) = disk_pair(&g, &dir);
        let reference = Greedy::new().run(&plain);
        prop_assert_eq!(&Greedy::new().run(&comp), &reference, "compressed");
    }

    #[test]
    fn one_k_identical_on_both_backends(g in arb_graph(32, 120)) {
        let dir = ScratchDir::new("beq-onek").unwrap();
        let (plain, comp) = disk_pair(&g, &dir);
        let seed = Greedy::new().run(&plain).set;
        let reference = OneKSwap::new().run(&plain, &seed);

        // Scanned, compressed.
        assert_outcomes_match(&OneKSwap::new().run(&comp, &seed), &reference, "seq comp");
        // Paged, both backends, every round paged (threshold 1.0).
        let cfg = SwapConfig::default().with_paged_threshold(1.0);
        let ra_plain = RandomAccessGraph::open(&plain, pool(4)).unwrap();
        let ra_comp = RandomAccessGraph::open_compressed(&comp, pool(4)).unwrap();
        let paged_plain = OneKSwap::with_config(cfg)
            .run_paged(&plain, Some(&ra_plain as &dyn NeighborAccess), &seed);
        let paged_comp = OneKSwap::with_config(cfg)
            .run_paged(&comp, Some(&ra_comp as &dyn NeighborAccess), &seed);
        prop_assert_eq!(&paged_plain.result.set, &reference.result.set, "paged plain set");
        assert_outcomes_match(&paged_comp, &paged_plain, "paged comp vs paged plain");
    }

    #[test]
    fn two_k_identical_on_both_backends(g in arb_graph(32, 120)) {
        let dir = ScratchDir::new("beq-twok").unwrap();
        let (plain, comp) = disk_pair(&g, &dir);
        let seed = Greedy::new().run(&plain).set;
        let reference = TwoKSwap::new().run(&plain, &seed);

        assert_outcomes_match(&TwoKSwap::new().run(&comp, &seed), &reference, "seq comp");
        let cfg = SwapConfig::default().with_paged_threshold(1.0);
        let ra_plain = RandomAccessGraph::open(&plain, pool(4)).unwrap();
        let ra_comp = RandomAccessGraph::open_compressed(&comp, pool(4)).unwrap();
        let paged_plain = TwoKSwap::with_config(cfg)
            .run_paged(&plain, Some(&ra_plain as &dyn NeighborAccess), &seed);
        let paged_comp = TwoKSwap::with_config(cfg)
            .run_paged(&comp, Some(&ra_comp as &dyn NeighborAccess), &seed);
        prop_assert_eq!(&paged_plain.result.set, &reference.result.set, "paged plain set");
        assert_outcomes_match(&paged_comp, &paged_plain, "paged comp vs paged plain");
    }
}

/// Seeded end-to-end check on a realistic power-law graph: the full
/// greedy → two-k pipeline lands on the identical set from both storage
/// backends, and the compressed scans move fewer blocks.
#[test]
fn seeded_pipeline_matches_across_backends_with_fewer_blocks() {
    let g = mis_gen::Plrg::with_vertices(5_000, 2.0).seed(7).generate();
    let dir = ScratchDir::new("beq-seeded").unwrap();

    let run = |use_compressed: bool| {
        let stats = IoStats::shared();
        let plain = build_adj_file(&g, &dir.file("p.adj"), Arc::clone(&stats), 4096).unwrap();
        if use_compressed {
            let comp = compress_adj(&plain, &dir.file("p.cadj"), Arc::clone(&stats), 4096).unwrap();
            let before = stats.snapshot();
            let greedy = Greedy::new().run(&comp);
            let out = TwoKSwap::new().run(&comp, &greedy.set);
            (out, stats.snapshot().since(&before).blocks_read)
        } else {
            let before = stats.snapshot();
            let greedy = Greedy::new().run(&plain);
            let out = TwoKSwap::new().run(&plain, &greedy.set);
            (out, stats.snapshot().since(&before).blocks_read)
        }
    };

    let (reference, plain_blocks) = run(false);
    let (comp_out, comp_blocks) = run(true);
    assert_outcomes_match(&comp_out, &reference, "compressed pipeline");
    assert!(
        comp_blocks < plain_blocks,
        "compressed workload must move fewer blocks ({comp_blocks} vs {plain_blocks})"
    );
}
