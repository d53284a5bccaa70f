//! Figure 8: *measured* performance ratios of Greedy, One-k-swap and
//! Two-k-swap on synthetic `P(α,β)` graphs, varying β.
//!
//! Unlike Table 2 / Figure 6 (analytic estimates), this runs the real
//! algorithms. Paper: all three ≥ 0.99, One-k ≥ Greedy, Two-k ≥ One-k,
//! ratios improving slightly with β.

use mis_core::{Greedy, OneKSwap, TwoKSwap};
use mis_graph::OrderedCsr;

use crate::experiments::sweep;
use crate::harness;

/// Runs the experiment and prints the series.
pub fn run() {
    sweep::banner("Figure 8: measured ratios of Greedy / One-k / Two-k");
    let header = ["β", "|E|", "bound", "Greedy", "One-k", "Two-k"];
    let mut rows = Vec::new();
    for beta in harness::beta_grid() {
        let graphs = sweep::generate(beta, sweep::graphs_per_beta());
        let (mut greedy_sum, mut one_sum, mut two_sum, mut bound_sum, mut edge_sum) =
            (0u64, 0u64, 0u64, 0f64, 0u64);
        for sg in &graphs {
            let sorted = OrderedCsr::degree_sorted(&sg.graph);
            let greedy = Greedy::new().run(&sorted);
            let one = OneKSwap::new().run(&sorted, &greedy.set);
            let two = TwoKSwap::new().run(&sorted, &greedy.set);
            greedy_sum += greedy.set.len() as u64;
            one_sum += one.result.set.len() as u64;
            two_sum += two.result.set.len() as u64;
            bound_sum += mis_core::upper_bound_scan(&sorted) as f64;
            edge_sum += sg.graph.num_edges();
        }
        let k = graphs.len() as f64;
        let bound = bound_sum / k;
        rows.push(vec![
            format!("{beta:.1}"),
            format!("{:.0}", edge_sum as f64 / k),
            format!("{bound:.0}"),
            format!("{:.4}", greedy_sum as f64 / k / bound),
            format!("{:.4}", one_sum as f64 / k / bound),
            format!("{:.4}", two_sum as f64 / k / bound),
        ]);
    }
    harness::print_table(&header, &rows);
    println!("  paper: all three ≥ 0.99, Two-k ≥ One-k ≥ Greedy, rising with β");
}
