//! The maximality finish replays the last post-swap pass's open vertices
//! in memory instead of scanning the file. It must give exactly the set
//! of the two-pass reference: the same algorithm with `finalize_maximal`
//! off, followed by an ordered finalize scan written here, and it must
//! save that scan whenever it did not fall back to it.

use proptest::prelude::*;

use mis_core::{Greedy, OneKSwap, SwapConfig, SwapOutcome, TwoKSwap};
use mis_graph::{CsrGraph, GraphScan, OrderedCsr, VertexId};

/// A random PLRG (β ∈ {1.8, 2.1, 2.5}), sparse `G(n, m)` or dense
/// small `G(n, m)` graph; the dense shape is where two-k's shrink guard
/// undoes rounds.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    ((0..3u32, 20..400u64), (0..3usize, 1..6u64, any::<u64>())).prop_map(
        |((kind, n), (beta, mult, seed))| match kind {
            0 => mis_gen::Plrg::with_vertices(n, [1.8, 2.1, 2.5][beta])
                .seed(seed)
                .generate(),
            1 => mis_gen::er::gnm(n as usize, n * mult, seed),
            _ => {
                let n = 30 + n % 50;
                mis_gen::er::gnm(n as usize, n * (mult + 2), seed % 1000)
            }
        },
    )
}

/// Joins every vertex with no IS neighbour, in storage order: the finish
/// as one scan of its own.
fn finalize_by_scan(graph: &OrderedCsr, set: &[VertexId]) -> Vec<VertexId> {
    let mut member = vec![false; graph.num_vertices()];
    for &v in set {
        member[v as usize] = true;
    }
    graph
        .scan(&mut |u, ns| {
            if !member[u as usize] && ns.iter().all(|&w| !member[w as usize]) {
                member[u as usize] = true;
            }
        })
        .unwrap();
    (0..graph.num_vertices() as VertexId)
        .filter(|&v| member[v as usize])
        .collect()
}

/// Runs one-k or two-k with `config`, paged through the graph itself
/// when `paged`.
fn swap(
    algo: &str,
    config: SwapConfig,
    paged: bool,
    graph: &OrderedCsr,
    initial: &[VertexId],
) -> SwapOutcome {
    let access = paged.then_some(graph as &dyn mis_graph::NeighborAccess);
    match algo {
        "one-k" => OneKSwap::with_config(config).run_paged(graph, access, initial),
        _ => TwoKSwap::with_config(config).run_paged(graph, access, initial),
    }
}

/// Checks one-k and two-k from the Greedy and the empty start on the
/// scanned and paged paths, and one-k without `N`
/// re-promotion, against the two-pass reference, and returns the
/// outcomes.
fn assert_finish_matches_reference(g: &CsrGraph) -> Vec<SwapOutcome> {
    let sorted = OrderedCsr::degree_sorted(g);
    let greedy = Greedy::new().run(&sorted).set;
    let paths = [
        ("seq", SwapConfig::default(), false),
        (
            "paged",
            SwapConfig::default().with_paged_threshold(1.0),
            true,
        ),
        (
            "no re-promotion",
            SwapConfig {
                repromote_n: false,
                ..SwapConfig::default()
            },
            false,
        ),
    ];
    let mut outcomes = Vec::new();
    for algo in ["one-k", "two-k"] {
        for (start, initial) in [("greedy", &greedy[..]), ("empty", &[][..])] {
            for (path, config, paged) in paths {
                let what = format!("{algo} {start} {path}");
                let out = swap(algo, config, paged, &sorted, initial);
                let unfinished = SwapConfig {
                    finalize_maximal: false,
                    ..config
                };
                let reference = swap(algo, unfinished, paged, &sorted, initial);
                assert_eq!(
                    out.result.set,
                    finalize_by_scan(&sorted, &reference.result.set),
                    "{what}"
                );
                assert_eq!(out.stats.rounds, reference.stats.rounds, "{what}");
                assert_eq!(
                    out.stats.paged_rounds, reference.stats.paged_rounds,
                    "{what}"
                );
                assert_eq!(out.stats.rolled_back, reference.stats.rolled_back, "{what}");
                // The reference pays one scan for its finish; the run pays
                // it only when it could not replay.
                assert_eq!(
                    out.result.file_scans,
                    reference.result.file_scans + u64::from(out.stats.finish_scanned),
                    "{what}"
                );
                if out.stats.rolled_back {
                    assert!(out.stats.finish_scanned, "{what}");
                }
                outcomes.push(out);
            }
        }
    }
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn finish_equals_the_two_pass_reference(g in arb_graph()) {
        assert_finish_matches_reference(&g);
    }
}

#[test]
fn finish_after_a_rollback_equals_the_two_pass_reference() {
    // The shrink guard's golden graphs: two-k from Greedy undoes a round
    // on each, and then finishes by scan.
    for (n, m, seed) in [
        (40, 200, 11),
        (40, 240, 0),
        (30, 150, 699),
        (40, 200, 1283),
        (50, 250, 504),
    ] {
        let outcomes = assert_finish_matches_reference(&mis_gen::er::gnm(n, m, seed));
        assert!(
            outcomes.iter().any(|o| o.stats.rolled_back),
            "gnm({n}, {m}, {seed})"
        );
    }
}
