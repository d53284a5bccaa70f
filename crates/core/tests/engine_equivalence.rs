//! Engine-equivalence properties: the `Parallel` executor must be
//! **byte-identical** to `Sequential` for every ported pass, across
//! thread counts and adversarial block sizes.
//!
//! This is the correctness contract of the execution engine
//! (`mis_core::engine`): the backend changes how fast a pass runs, never
//! what it computes. Order-dependent passes (Greedy, the swap rounds,
//! Algorithm 5) go through the ordered pipelined fold; mergeable passes
//! (init candidates, verification, degree stats) go through the
//! shard-merge path — both must reproduce the sequential transition
//! sequence exactly, including earlier-record-wins conflict resolution.

use proptest::prelude::*;

use mis_core::engine::passes::degree_stats;
use mis_core::{
    best_upper_bound, best_upper_bound_with, prove_maximal, prove_maximal_with, Executor, Greedy,
    OneKSwap, ParallelConfig, SwapConfig, TwoKSwap,
};
use mis_graph::{CsrGraph, OrderedCsr};

/// Arbitrary small graph: vertex count and an edge list over it.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// The executors under test: 1–4 threads, including adversarial tiny
/// hand-out blocks (one record per block) and a tiny queue.
fn executors() -> Vec<Executor> {
    let mut list = Vec::new();
    for threads in 1..=4 {
        for block_records in [1, 3, 4096] {
            list.push(Executor::Parallel(ParallelConfig {
                threads,
                block_records,
                queue_blocks: 2,
            }));
        }
    }
    list
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn greedy_identical_on_every_backend(g in arb_graph(40, 160)) {
        let sorted = OrderedCsr::degree_sorted(&g);
        let seq = Greedy::new().run(&sorted);
        for exec in executors() {
            let par = Greedy::with_executor(exec).run(&sorted);
            prop_assert_eq!(&par, &seq, "{:?}", exec);
        }
    }

    #[test]
    fn one_k_outcome_identical_on_every_backend(g in arb_graph(36, 140)) {
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let seq = OneKSwap::new().run(&sorted, &greedy.set);
        for exec in executors() {
            let config = SwapConfig::default().with_executor(exec);
            let par = OneKSwap::with_config(config).run(&sorted, &greedy.set);
            prop_assert_eq!(&par, &seq, "{:?}", exec);
        }
    }

    #[test]
    fn two_k_outcome_identical_on_every_backend(g in arb_graph(36, 140)) {
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let seq = TwoKSwap::new().run(&sorted, &greedy.set);
        for exec in executors() {
            let config = SwapConfig::default().with_executor(exec);
            let par = TwoKSwap::with_config(config).run(&sorted, &greedy.set);
            prop_assert_eq!(&par, &seq, "{:?}", exec);
        }
    }

    #[test]
    fn two_k_from_baseline_identical(g in arb_graph(30, 110)) {
        // The unsorted, conflict-heavy start exercises the
        // earlier-record-wins resolution harder than a greedy seed.
        let seq = TwoKSwap::new().run(&g, &[]);
        for exec in executors() {
            let config = SwapConfig::default().with_executor(exec);
            let par = TwoKSwap::with_config(config).run(&g, &[]);
            prop_assert_eq!(&par, &seq, "{:?}", exec);
        }
    }

    #[test]
    fn bounds_proofs_and_stats_identical(g in arb_graph(40, 160)) {
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let seq_bound = best_upper_bound(&sorted);
        let seq_proof = prove_maximal(&sorted, &greedy.set);
        let seq_stats = degree_stats(&sorted, &Executor::Sequential);
        for exec in executors() {
            prop_assert_eq!(best_upper_bound_with(&sorted, &exec), seq_bound, "{:?}", exec);
            prop_assert_eq!(prove_maximal_with(&sorted, &greedy.set, &exec), seq_proof, "{:?}", exec);
            prop_assert_eq!(degree_stats(&sorted, &exec), seq_stats, "{:?}", exec);
        }
    }
}

/// Seeded determinism: the same seed and graph must yield the identical
/// independent set at any thread count — the whole pipeline, not just a
/// single pass.
#[test]
fn seeded_pipeline_is_deterministic_across_thread_counts() {
    for seed in [7u64, 42] {
        let g = mis_gen::Plrg::with_vertices(5_000, 2.0)
            .seed(seed)
            .generate();
        let sorted = OrderedCsr::degree_sorted(&g);
        let reference = {
            let greedy = Greedy::new().run(&sorted);
            TwoKSwap::new().run(&sorted, &greedy.set)
        };
        for threads in 1..=4 {
            let exec = Executor::parallel(threads);
            let greedy = Greedy::with_executor(exec).run(&sorted);
            let config = SwapConfig::default().with_executor(exec);
            let out = TwoKSwap::with_config(config).run(&sorted, &greedy.set);
            assert_eq!(
                out, reference,
                "seed {seed}, {threads} threads: pipeline must be deterministic"
            );
            assert!(mis_core::prove_maximal(&g, &out.result.set).is_maximal_independent());
        }
    }
}
