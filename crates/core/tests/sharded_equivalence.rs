//! Sharded-store equivalence properties: a `MISSHRD1` store must be
//! **byte-identical** to its unpartitioned source for every algorithm,
//! across shard counts, executors and both storage codecs.
//!
//! The sharded-layout invariant is that concatenating the shard scans in
//! manifest order replays the unpartitioned record sequence, so every
//! pass — ordered folds and mergeable passes through the parallel block
//! pipeline, and paged candidate verification through the per-shard
//! pagers — must produce the exact result the single-file store
//! produces, including the full `MisResult` and `SwapOutcome` round
//! trajectories. Degenerate layouts (single-vertex shards, trailing
//! empty shards) are part of the contract, and so is the I/O ledger: a
//! parallel pass over a sharded store is one logical scan.

#![recursion_limit = "256"]

use std::sync::Arc;

use proptest::prelude::*;

use mis_core::{Executor, Greedy, ParallelConfig, ScanPass, SwapConfig, TwoKSwap};
use mis_extmem::{IoStats, PagerConfig, PolicyKind, ScratchDir};
use mis_graph::{
    build_adj_file, compress_adj, split_adj_file, AnyAdjFile, CsrGraph, GraphScan, NeighborAccess,
    RandomAccessGraph, ShardedGraph, SplitOptions, VertexId,
};

/// Arbitrary small graph: vertex count and an edge list over it.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// The executors each sharded store is checked under: sequential, and
/// parallel with adversarial tiny hand-out blocks.
fn executors() -> Vec<Executor> {
    let mut list = vec![Executor::Sequential];
    for threads in [1usize, 2, 4] {
        list.push(Executor::Parallel(ParallelConfig {
            threads,
            block_records: 3,
            queue_blocks: 2,
        }));
    }
    list
}

/// Both on-disk codecs of `g`, plus every sharded split of each in
/// `shard_counts`, as openable paths.
fn stores(
    g: &CsrGraph,
    scratch: &ScratchDir,
    shard_counts: &[usize],
) -> Vec<(String, std::path::PathBuf)> {
    let stats = IoStats::shared();
    let block_size = 256;
    let plain = build_adj_file(g, &scratch.file("g.adj"), Arc::clone(&stats), block_size).unwrap();
    let comp = compress_adj(g, &scratch.file("g.cadj"), Arc::clone(&stats), block_size).unwrap();
    let mut out = Vec::new();
    for (fmt, source) in [
        ("plain", AnyAdjFile::Plain(plain)),
        ("comp", AnyAdjFile::Compressed(comp)),
    ] {
        out.push((fmt.to_string(), source.path().to_path_buf()));
        for &shards in shard_counts {
            let path = scratch.file(&format!("{fmt}.{shards}.shrd"));
            split_adj_file(&source, &path, &SplitOptions { shards, block_size }).unwrap();
            out.push((format!("{fmt} x{shards}"), path));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The whole pipeline — the Greedy `MisResult`, then the two-k
    // `SwapOutcome` — is identical on every (codec, shard count,
    // executor) combination.
    #[test]
    fn pipeline_identical_across_shards_codecs_and_executors(g in arb_graph(32, 120)) {
        let scratch = ScratchDir::new("sharded-equiv").unwrap();
        let seq_greedy = Greedy::new().run(&g);
        let seq_swap = TwoKSwap::new().run(&g, &seq_greedy.set);
        for (label, path) in stores(&g, &scratch, &[1, 2, 3, 4]) {
            let file = AnyAdjFile::open_with_block_size(&path, IoStats::shared(), 256).unwrap();
            for exec in executors() {
                let greedy = Greedy::with_executor(exec).run(&file);
                prop_assert_eq!(&greedy, &seq_greedy, "{} greedy {:?}", label, exec);
                let config = SwapConfig::default().with_executor(exec);
                let swap = TwoKSwap::with_config(config).run(&file, &greedy.set);
                prop_assert_eq!(&swap, &seq_swap, "{} two-k {:?}", label, exec);
            }
        }
    }
}

/// Degenerate layouts: shard count equal to the record count gives
/// single-vertex shards; a higher count leaves trailing empty shards.
/// Both must replay the unpartitioned store exactly.
#[test]
fn single_vertex_and_empty_shards_are_exact() {
    let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)]);
    let scratch = ScratchDir::new("sharded-degenerate").unwrap();
    let seq_greedy = Greedy::new().run(&g);
    let seq_swap = TwoKSwap::new().run(&g, &seq_greedy.set);
    // 6 records: x6 = one vertex per shard, x9 = three empty shards.
    for (label, path) in stores(&g, &scratch, &[6, 9]) {
        let file = AnyAdjFile::open_with_block_size(&path, IoStats::shared(), 256).unwrap();
        if let AnyAdjFile::Sharded(sh) = &file {
            if label.ends_with("x9") {
                assert!(
                    sh.manifest().shards.iter().any(|s| s.records == 0),
                    "{label}: expected at least one empty shard"
                );
            }
        }
        for exec in executors() {
            let greedy = Greedy::with_executor(exec).run(&file);
            assert_eq!(greedy, seq_greedy, "{label} greedy {exec:?}");
            let config = SwapConfig::default().with_executor(exec);
            let swap = TwoKSwap::with_config(config).run(&file, &greedy.set);
            assert_eq!(swap, seq_swap, "{label} two-k {exec:?}");
        }
    }
}

/// Paged candidate verification through the per-shard pagers must make
/// the same decisions as the unpartitioned pager and as the pure-scan
/// path: identical `SwapOutcome`, with paged rounds actually taken.
#[test]
fn paged_verification_identical_through_per_shard_pagers() {
    let g = mis_gen::Plrg::with_vertices(2_000, 2.0).seed(11).generate();
    let scratch = ScratchDir::new("sharded-paged").unwrap();
    let stats = IoStats::shared();
    let block_size = 512;
    let plain = build_adj_file(&g, &scratch.file("g.adj"), Arc::clone(&stats), block_size).unwrap();
    let comp = compress_adj(&g, &scratch.file("g.cadj"), stats, block_size).unwrap();
    let seed = Greedy::new().run(&g).set;
    // Force every round through the paged path.
    let config = || SwapConfig {
        paged_threshold: 1.0,
        ..Default::default()
    };
    let scan_reference = TwoKSwap::with_config(config()).run(&g, &seed);
    let pc = || PagerConfig::with_capacity_bytes(1 << 20, block_size, PolicyKind::Clock);
    for (fmt, source) in [
        ("plain", AnyAdjFile::Plain(plain)),
        ("comp", AnyAdjFile::Compressed(comp)),
    ] {
        // Paged reference: the unpartitioned store with its own pager.
        let paged_reference = {
            let ra: Box<dyn NeighborAccess> = match &source {
                AnyAdjFile::Plain(f) => Box::new(RandomAccessGraph::open(f, pc()).unwrap()),
                AnyAdjFile::Compressed(f) => {
                    Box::new(RandomAccessGraph::open_compressed(f, pc()).unwrap())
                }
                AnyAdjFile::Sharded(_) => unreachable!(),
            };
            TwoKSwap::with_config(config()).run_paged(&source, Some(&*ra), &seed)
        };
        assert_eq!(
            paged_reference.result.set, scan_reference.result.set,
            "{fmt}: paged and pure-scan paths must pick the same set"
        );
        assert!(
            paged_reference.stats.paged_rounds > 0,
            "{fmt}: paged rounds must actually be taken"
        );
        for shards in [2usize, 4] {
            let path = scratch.file(&format!("{fmt}.{shards}.shrd"));
            split_adj_file(&source, &path, &SplitOptions { shards, block_size }).unwrap();
            let file =
                AnyAdjFile::open_with_block_size(&path, IoStats::shared(), block_size).unwrap();
            let AnyAdjFile::Sharded(sh) = &file else {
                panic!("{fmt} x{shards}: expected a sharded store");
            };
            let ra = sh.open_random_access(pc()).unwrap();
            for exec in [Executor::Sequential, Executor::parallel(3)] {
                let outcome = TwoKSwap::with_config(config().with_executor(exec)).run_paged(
                    &file,
                    Some(&ra as &dyn NeighborAccess),
                    &seed,
                );
                // Identical decisions: set, scan count and the full
                // round trajectory. (`memory.pager_bytes` is excluded:
                // it honestly reports the per-shard pool capacities,
                // which round differently from one big pool.)
                assert_eq!(
                    outcome.result.set, paged_reference.result.set,
                    "{fmt} x{shards} {exec:?}: paged set"
                );
                assert_eq!(
                    outcome.result.file_scans, paged_reference.result.file_scans,
                    "{fmt} x{shards} {exec:?}: paged scan count"
                );
                assert_eq!(
                    outcome.stats, paged_reference.stats,
                    "{fmt} x{shards} {exec:?}: per-shard pagers must replay the \
                     unpartitioned paged round trajectory"
                );
            }
        }
    }
}

/// Sharded scans replay the source record order exactly, shard count and
/// codec notwithstanding — the invariant every equivalence above rests
/// on. Checked directly so a violation fails here with the record list,
/// not as an opaque result mismatch.
#[test]
fn sharded_scan_order_matches_source() {
    let g = mis_gen::Plrg::with_vertices(500, 2.0).seed(3).generate();
    let scratch = ScratchDir::new("sharded-order").unwrap();
    let mut reference = Vec::new();
    g.scan(&mut |v, ns| reference.push((v, ns.to_vec())))
        .unwrap();
    for (label, path) in stores(&g, &scratch, &[1, 2, 3, 4]) {
        let file = AnyAdjFile::open_with_block_size(&path, IoStats::shared(), 256).unwrap();
        let mut got = Vec::new();
        file.scan(&mut |v, ns| got.push((v, ns.to_vec()))).unwrap();
        assert_eq!(got.len(), reference.len(), "{label}: record count");
        for (g_rec, r_rec) in got.iter().zip(&reference) {
            assert_eq!(g_rec.0, r_rec.0, "{label}: record order");
            let mut gn = g_rec.1.clone();
            let mut rn = r_rec.1.clone();
            gn.sort_unstable();
            rn.sort_unstable();
            assert_eq!(gn, rn, "{label}: neighbours of {}", g_rec.0);
        }
    }
}

/// A 300-vertex power-law graph split into `shards` plain shards, opened
/// as a [`ShardedGraph`] with 512-byte blocks.
fn sharded_fixture(shards: usize) -> (ScratchDir, ShardedGraph) {
    let g = mis_gen::Plrg::with_vertices(300, 2.0).seed(7).generate();
    let dir = ScratchDir::new("engine-sharded").unwrap();
    let stats = IoStats::shared();
    let f = build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 512).unwrap();
    split_adj_file(
        &AnyAdjFile::Plain(f),
        &dir.file("g.shrd"),
        &SplitOptions {
            shards,
            block_size: 512,
        },
    )
    .unwrap();
    let sharded = ShardedGraph::open_with_block_size(&dir.file("g.shrd"), stats, 512).unwrap();
    (dir, sharded)
}

/// Ordered folds over a sharded store see the storage order through the
/// block pipeline, at shard counts that do and do not divide the thread
/// counts.
#[test]
fn sharded_fold_ordered_replays_storage_order() {
    for shards in [2usize, 3, 7] {
        let (_dir, sharded) = sharded_fixture(shards);
        let mut seq = Vec::new();
        Executor::Sequential
            .fold_ordered(&sharded, &mut |v, _| seq.push(v))
            .unwrap();
        for threads in [2usize, 4] {
            let exec = Executor::Parallel(ParallelConfig {
                threads,
                block_records: 16,
                queue_blocks: 2,
            });
            let mut par = Vec::new();
            exec.fold_ordered(&sharded, &mut |v, _| par.push(v))
                .unwrap();
            assert_eq!(par, seq, "shards {shards}, threads {threads}");
        }
    }
}

/// A mergeable pass over a sharded store merges in storage order and is
/// charged as exactly one logical scan, whatever the thread count: the
/// store's own scan bookkeeping runs once under the block pipeline.
#[test]
fn sharded_run_pass_matches_sequential_and_charges_one_scan() {
    /// Collects the record sequence.
    struct SeqPass;
    impl ScanPass for SeqPass {
        type Shard = Vec<VertexId>;
        type Output = Vec<VertexId>;
        fn new_shard(&self) -> Self::Shard {
            Vec::new()
        }
        fn visit(&self, shard: &mut Self::Shard, v: VertexId, _ns: &[VertexId]) {
            shard.push(v);
        }
        fn merge(&self, into: &mut Self::Shard, later: Self::Shard) {
            into.extend(later);
        }
        fn finish(&self, shard: Self::Shard) -> Self::Output {
            shard
        }
    }
    let (_dir, sharded) = sharded_fixture(4);
    let seq = Executor::Sequential.run_pass(&sharded, &SeqPass).unwrap();
    assert_eq!(seq.len(), sharded.num_vertices());
    let stats = Arc::clone(sharded.stats());
    for threads in [2usize, 3, 8] {
        let before = stats.snapshot();
        let par = Executor::parallel(threads)
            .run_pass(&sharded, &SeqPass)
            .unwrap();
        assert_eq!(par, seq, "threads {threads}");
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.scans_started, 1, "one logical scan at {threads}");
        assert!(delta.blocks_read > 0);
    }
}
