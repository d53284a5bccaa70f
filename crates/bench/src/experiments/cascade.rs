//! The Figure 5 worst case at scale: one-k-swap needs exactly one round
//! per cascade block.
//!
//! Demonstrates the paper's Section 5.4 claim that the round count is
//! `Θ(n)` in the worst case (and why the early-stop heuristic of Table 8
//! matters in theory, even though real graphs finish in 2–9 rounds).

use mis_core::{OneKSwap, SwapConfig};
use mis_gen::special::{cascade_initial_is, cascade_swap};
use mis_graph::OrderedCsr;

use crate::harness;

/// Runs the experiment and prints the table.
pub fn run() {
    println!("== Cascade worst case (Figure 5 generalised): rounds vs blocks ==");
    let header = [
        "blocks k",
        "|V|",
        "initial |IS|",
        "final |IS|",
        "swap rounds",
    ];
    let mut rows = Vec::new();
    for k in [3usize, 10, 30, 100, 300] {
        let graph = cascade_swap(k);
        let initial = cascade_initial_is(k);
        let sorted = OrderedCsr::degree_sorted(&graph);
        let out = OneKSwap::with_config(SwapConfig {
            finalize_maximal: false,
            ..SwapConfig::default()
        })
        .run(&sorted, &initial);
        let swap_rounds = out
            .stats
            .rounds
            .iter()
            .filter(|r| r.swapped_out > 0)
            .count();
        rows.push(vec![
            k.to_string(),
            graph.num_vertices().to_string(),
            initial.len().to_string(),
            out.result.set.len().to_string(),
            swap_rounds.to_string(),
        ]);
    }
    harness::print_table(&header, &rows);
    println!("  expected: swap rounds = k (one block unlocked per round), final |IS| = 2k");
}
