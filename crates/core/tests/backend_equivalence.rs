//! Storage-backend equivalence properties: the gap-compressed
//! `MISADJC1` backend must compute **byte-identical** results to the
//! plain `MISADJ01` backend for every algorithm, across the sequential,
//! paged (`--cache-mb`) and 1–4-thread parallel executors.
//!
//! This is the compressed counterpart of `engine_equivalence.rs`: the
//! storage format changes how many blocks a scan moves, never what the
//! algorithms compute. Records are compared on the product path — a
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

use mis_core::{Executor, Greedy, OneKSwap, ParallelConfig, SwapConfig, SwapOutcome, TwoKSwap};
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
        prop_assert_eq!(&Greedy::new().run(&comp), &reference, "sequential");
        for threads in 1..=4 {
            let exec = Executor::parallel(threads);
            prop_assert_eq!(&Greedy::with_executor(exec).run(&plain), &reference,
                "plain par({})", threads);
            prop_assert_eq!(&Greedy::with_executor(exec).run(&comp), &reference,
                "compressed par({})", threads);
        }
    }

    #[test]
    fn one_k_identical_on_both_backends(g in arb_graph(32, 120)) {
        let dir = ScratchDir::new("beq-onek").unwrap();
        let (plain, comp) = disk_pair(&g, &dir);
        let seed = Greedy::new().run(&plain).set;
        let reference = OneKSwap::new().run(&plain, &seed);

        // Sequential, compressed.
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
        // Parallel, both backends, full outcome equality per backend.
        for threads in 1..=4 {
            let cfg = SwapConfig::default().with_executor(Executor::parallel(threads));
            prop_assert_eq!(&OneKSwap::with_config(cfg).run(&plain, &seed), &reference,
                "plain par({})", threads);
            assert_outcomes_match(
                &OneKSwap::with_config(cfg).run(&comp, &seed),
                &reference,
                &format!("comp par({threads})"),
            );
        }
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
        for threads in 1..=4 {
            let cfg = SwapConfig::default().with_executor(Executor::parallel(threads));
            prop_assert_eq!(&TwoKSwap::with_config(cfg).run(&plain, &seed), &reference,
                "plain par({})", threads);
            assert_outcomes_match(
                &TwoKSwap::with_config(cfg).run(&comp, &seed),
                &reference,
                &format!("comp par({threads})"),
            );
        }
    }
}

/// Adversarial hand-out geometry: one-record blocks put every record,
/// hub records included, in its own block, so the merge and the ordered
/// fold re-sequence the most blocks a scan can produce. Results must
/// stay byte-identical to the sequential plain-file reference at every
/// thread count, on both formats.
#[test]
fn tiny_units_split_records_identically() {
    let g = mis_gen::Plrg::with_vertices(2_000, 2.0).seed(11).generate();
    let dir = ScratchDir::new("beq-tiny-units").unwrap();
    let (plain, comp) = disk_pair(&g, &dir);
    let seed = Greedy::new().run(&plain).set;
    let ref_greedy = Greedy::new().run(&plain);
    let ref_two_k = TwoKSwap::new().run(&plain, &seed);

    // The fold must also see records in exact storage order: collect the
    // sequence once per backend as the strictest order probe (per
    // backend, because compression re-sorts neighbour lists by id).
    let ref_order = |file: &dyn mis_graph::GraphScan| {
        let mut order = Vec::new();
        Executor::Sequential
            .fold_ordered(file, &mut |v, ns| order.push((v, ns.to_vec())))
            .unwrap();
        order
    };
    let plain_order = ref_order(&plain);
    let comp_order = ref_order(&comp);

    for threads in [1, 2, 4] {
        let exec = Executor::Parallel(ParallelConfig {
            threads,
            block_records: 1,
            queue_blocks: 2,
        });
        let what = format!("par({threads}), one-record blocks");
        let cfg = SwapConfig::default().with_executor(exec);
        assert_eq!(
            Greedy::with_executor(exec).run(&plain),
            ref_greedy,
            "{what} plain greedy"
        );
        assert_eq!(
            Greedy::with_executor(exec).run(&comp),
            ref_greedy,
            "{what} comp greedy"
        );
        assert_eq!(
            TwoKSwap::with_config(cfg).run(&plain, &seed),
            ref_two_k,
            "{what} plain two-k"
        );
        assert_outcomes_match(
            &TwoKSwap::with_config(cfg).run(&comp, &seed),
            &ref_two_k,
            &format!("{what} comp two-k"),
        );
        for (name, file, reference) in [
            ("plain", &plain as &dyn mis_graph::GraphScan, &plain_order),
            ("comp", &comp, &comp_order),
        ] {
            let mut order = Vec::new();
            exec.fold_ordered(file, &mut |v, ns| order.push((v, ns.to_vec())))
                .unwrap();
            assert_eq!(&order, reference, "{what} {name} fold order");
        }
    }
}

/// Seeded end-to-end check on a realistic power-law graph: the full
/// greedy → two-k pipeline lands on the identical set from both storage
/// backends at every executor, and the compressed scans move fewer
/// blocks.
#[test]
fn seeded_pipeline_matches_across_backends_with_fewer_blocks() {
    let g = mis_gen::Plrg::with_vertices(5_000, 2.0).seed(7).generate();
    let dir = ScratchDir::new("beq-seeded").unwrap();

    let run = |use_compressed: bool, exec: Executor| {
        let stats = IoStats::shared();
        let plain = build_adj_file(&g, &dir.file("p.adj"), Arc::clone(&stats), 4096).unwrap();
        if use_compressed {
            let comp = compress_adj(&plain, &dir.file("p.cadj"), Arc::clone(&stats), 4096).unwrap();
            let before = stats.snapshot();
            let greedy = Greedy::with_executor(exec).run(&comp);
            let cfg = SwapConfig::default().with_executor(exec);
            let out = TwoKSwap::with_config(cfg).run(&comp, &greedy.set);
            (out, stats.snapshot().since(&before).blocks_read)
        } else {
            let before = stats.snapshot();
            let greedy = Greedy::with_executor(exec).run(&plain);
            let cfg = SwapConfig::default().with_executor(exec);
            let out = TwoKSwap::with_config(cfg).run(&plain, &greedy.set);
            (out, stats.snapshot().since(&before).blocks_read)
        }
    };

    let (reference, plain_blocks) = run(false, Executor::Sequential);
    for exec in [Executor::Sequential, Executor::parallel(4)] {
        let (comp_out, comp_blocks) = run(true, exec);
        assert_outcomes_match(&comp_out, &reference, "compressed pipeline");
        assert!(
            comp_blocks < plain_blocks,
            "compressed workload must move fewer blocks ({comp_blocks} vs {plain_blocks})"
        );
    }
}
