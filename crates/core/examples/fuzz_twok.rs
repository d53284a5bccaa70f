//! Randomised soundness fuzzer for the swap algorithms (kept as an
//! example so it can be run ad hoc and in CI: `cargo run --release -p
//! mis-core --example fuzz_twok`). The property-test suite covers the
//! same invariants with shrinking; this loop simply covers more seeds.
//!
//! The dense `G(n, m)` sweep (n 30–80, m 3n–6n) is where two-k's shrink
//! guard rolls rounds back, so the checks below also cover the guard's
//! path.

use mis_core::{is_independent_set, is_maximal_independent_set, Greedy, OneKSwap, TwoKSwap};
use mis_graph::{CsrGraph, OrderedCsr};

/// Checks one-k and two-k from the greedy set of `g` in degree order:
/// independent, maximal and never below greedy.
fn check(g: &CsrGraph, what: &str) {
    let sorted = OrderedCsr::degree_sorted(g);
    let greedy = Greedy::new().run(&sorted);
    let one = OneKSwap::new().run(&sorted, &greedy.set);
    let two = TwoKSwap::new().run(&sorted, &greedy.set);
    for (name, set) in [("one-k", &one.result.set), ("two-k", &two.result.set)] {
        assert!(
            is_independent_set(g, set),
            "{name} broke independence: {what}\nedges: {:?}\ngreedy: {:?}\nresult: {:?}",
            g.edges().collect::<Vec<_>>(),
            greedy.set,
            set
        );
        assert!(
            is_maximal_independent_set(g, set),
            "{name} not maximal: {what}"
        );
        assert!(
            set.len() >= greedy.set.len(),
            "{name} shrank the set: {what}"
        );
    }
}

fn main() {
    let mut checked = 0u64;
    for n in [6usize, 8, 10, 12, 16, 24, 40, 64] {
        for mult in [1u64, 2, 3, 5] {
            for seed in 0..150u64 {
                let m = n as u64 * mult;
                check(
                    &mis_gen::er::gnm(n, m, seed),
                    &format!("n={n} m={m} seed={seed}"),
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
            check(&g, &format!("plrg beta={beta} seed={seed}"));
            checked += 1;
        }
    }
    println!("fuzz ok: {checked} graphs, no soundness violations");
}
