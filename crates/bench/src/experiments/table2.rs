//! Table 2: performance ratio of the Greedy algorithm (Proposition 2
//! estimate vs the Algorithm 5 optimal bound) for β from 1.7 to 2.7.
//!
//! Paper values: ratios 0.983–0.988 across the whole β range.

use mis_theory::{expected_greedy_size, PlrgParams};

use crate::experiments::sweep;
use crate::harness;

/// Runs the experiment and prints the table.
pub fn run() {
    sweep::banner("Table 2: Greedy performance ratio (theory / Algorithm 5 bound)");
    let header = ["β", "GR(α,β)", "bound", "ratio"];
    let mut rows = Vec::new();
    for beta in harness::beta_grid() {
        let graphs = sweep::generate(beta, sweep::graphs_per_beta());
        let params = PlrgParams::fit_alpha(harness::sweep_vertices() as f64, beta);
        let gr = expected_greedy_size(&params);
        let bound = sweep::average_bound(&graphs);
        rows.push(vec![
            format!("{beta:.1}"),
            format!("{gr:.0}"),
            format!("{bound:.0}"),
            format!("{:.3}", gr / bound),
        ]);
    }
    harness::print_table(&header, &rows);
    println!("  paper (|V|=10M): ratio 0.983–0.988 across all β");
}
