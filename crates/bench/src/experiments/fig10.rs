//! Figure 10: peak SC size of Two-k-swap relative to `|V|`, varying β.
//!
//! Paper: `|SC| / |V|` is stable at ≈ 0.12–0.14 across the whole β range,
//! far below Lemma 6's `|V| − e^α` bound.

use mis_core::{Greedy, TwoKSwap};
use mis_graph::OrderedCsr;
use mis_theory::twok::sc_bound_loose;
use mis_theory::PlrgParams;

use crate::experiments::sweep;
use crate::harness;

/// Runs the experiment and prints the series.
pub fn run() {
    sweep::banner("Figure 10: peak |SC| / |V| of Two-k-swap");
    let header = ["β", "|V|", "peak |SC|", "|SC|/|V|", "Lemma 6 bound"];
    let mut rows = Vec::new();
    for beta in harness::beta_grid() {
        let graphs = sweep::generate(beta, sweep::graphs_per_beta());
        let params = PlrgParams::fit_alpha(harness::sweep_vertices() as f64, beta);
        let mut peak_sum = 0u64;
        let mut v_sum = 0u64;
        for sg in &graphs {
            let sorted = OrderedCsr::degree_sorted(&sg.graph);
            let greedy = Greedy::new().run(&sorted);
            let two = TwoKSwap::new().run(&sorted, &greedy.set);
            peak_sum += two.stats.sc_peak_vertices;
            v_sum += sg.graph.num_vertices() as u64;
        }
        let k = graphs.len() as f64;
        let peak = peak_sum as f64 / k;
        let v = v_sum as f64 / k;
        rows.push(vec![
            format!("{beta:.1}"),
            format!("{v:.0}"),
            format!("{peak:.0}"),
            format!("{:.3}", peak / v),
            format!("{:.0}", sc_bound_loose(&params)),
        ]);
    }
    harness::print_table(&header, &rows);
    println!("  paper: |SC|/|V| ≈ 0.12–0.14 for all β, well under the Lemma 6 bound");
}
