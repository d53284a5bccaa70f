//! Randomised soundness fuzzer for the swap algorithms (kept as an
//! example so it can be run ad hoc and in CI: `cargo run --release -p
//! mis-core --example fuzz_twok`). The property-test suite covers the
//! same invariants with shrinking; this loop simply covers more seeds.
//!
//! The dense `G(n, m)` sweep (n 30–80, m 3n–6n) is where two-k's shrink
//! guard rolls rounds back, so the checks below also cover the guard's
//! path.
//!
//! Every run is also checked against a two-pass reference: the same
//! algorithm with `finalize_maximal` off, then an ordered finalize scan
//! written here. The run's finish replays the last post-swap pass's open
//! vertices in memory, or scans when it cannot; both must give the
//! reference's set, and the fuzzer fails unless both kinds of finish
//! occurred.

use mis_core::{
    is_independent_set, is_maximal_independent_set, Greedy, OneKSwap, SwapConfig, SwapOutcome,
    TwoKSwap,
};
use mis_graph::{CsrGraph, GraphScan, OrderedCsr, VertexId};

/// Joins every vertex with no IS neighbour, in storage order.
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

/// A swap algorithm run with a configuration from an initial set.
type Swap = fn(SwapConfig, &OrderedCsr, &[VertexId]) -> SwapOutcome;

/// Runs finished by replay and by scan.
#[derive(Default)]
struct Finishes {
    replayed: u64,
    scanned: u64,
}

/// Checks one-k and two-k from the greedy set and from the empty set of
/// `g` in degree order: independent, maximal, never below greedy, and
/// equal to the two-pass reference.
fn check(g: &CsrGraph, what: &str, finishes: &mut Finishes) {
    let sorted = OrderedCsr::degree_sorted(g);
    let greedy = Greedy::new().run(&sorted);
    let unfinished = SwapConfig {
        finalize_maximal: false,
        ..SwapConfig::default()
    };
    for (start, initial) in [("greedy", &greedy.set[..]), ("empty", &[][..])] {
        let runs: [(&str, Swap); 2] = [
            ("one-k", |c, g, s| OneKSwap::with_config(c).run(g, s)),
            ("two-k", |c, g, s| TwoKSwap::with_config(c).run(g, s)),
        ];
        for (name, run) in runs {
            let out = run(SwapConfig::default(), &sorted, initial);
            let set = &out.result.set;
            assert!(
                is_independent_set(g, set),
                "{name} from {start} broke independence: {what}\nedges: {:?}\n\
                 initial: {initial:?}\nresult: {set:?}",
                g.edges().collect::<Vec<_>>(),
            );
            assert!(
                is_maximal_independent_set(g, set),
                "{name} from {start} not maximal: {what}"
            );
            assert!(
                set.len() >= initial.len(),
                "{name} from {start} shrank the set: {what}"
            );
            let reference = run(unfinished, &sorted, initial);
            assert_eq!(
                set,
                &finalize_by_scan(&sorted, &reference.result.set),
                "{name} from {start}: finish differs from the two-pass reference: {what}"
            );
            let scanned = out.stats.finish_scanned;
            assert_eq!(
                out.result.file_scans,
                reference.result.file_scans + u64::from(scanned),
                "{name} from {start}: finish scans: {what}"
            );
            if scanned {
                finishes.scanned += 1;
            } else {
                finishes.replayed += 1;
            }
        }
    }
}

fn main() {
    let mut checked = 0u64;
    let mut finishes = Finishes::default();
    for n in [6usize, 8, 10, 12, 16, 24, 40, 64] {
        for mult in [1u64, 2, 3, 5] {
            for seed in 0..150u64 {
                let m = n as u64 * mult;
                check(
                    &mis_gen::er::gnm(n, m, seed),
                    &format!("n={n} m={m} seed={seed}"),
                    &mut finishes,
                );
                checked += 1;
            }
        }
    }
    // Dense shapes where the shrink guard fires.
    for n in [30usize, 40, 50, 60, 80] {
        for mult in 3..=6u64 {
            for seed in 0..300u64 {
                let m = n as u64 * mult;
                check(
                    &mis_gen::er::gnm(n, m, seed),
                    &format!("n={n} m={m} seed={seed}"),
                    &mut finishes,
                );
                checked += 1;
            }
        }
    }
    // Power-law shapes with heavier tails.
    for beta in [1.7f64, 2.0, 2.5] {
        for seed in 0..20u64 {
            let g = mis_gen::Plrg::with_vertices(800, beta)
                .seed(seed)
                .generate();
            check(&g, &format!("plrg beta={beta} seed={seed}"), &mut finishes);
            checked += 1;
        }
    }
    let Finishes { replayed, scanned } = finishes;
    println!(
        "fuzz ok: {checked} graphs, no soundness violations; \
         finishes equal to the two-pass reference: {replayed} by replay, {scanned} by scan"
    );
    assert!(
        replayed > 0 && scanned > 0,
        "both kinds of finish must occur: {replayed} by replay, {scanned} by scan"
    );
}
