//! Figure 6: performance ratio of one-round one-k-swap (Proposition 5
//! estimate on top of Proposition 2) vs β.
//!
//! Paper: ratio ≥ 0.995 across the β range, a ~1.5-point lift over the
//! greedy ratio of Table 2. Both the per-bin swap-gain estimate (used
//! here, because it counts each swap bin once) and the verbatim pairwise
//! sum are printed.

use mis_theory::swap::SwapModel;
use mis_theory::PlrgParams;

use crate::experiments::sweep;
use crate::harness;

/// Runs the experiment and prints the series.
pub fn run() {
    sweep::banner("Figure 6: one-round one-k-swap ratio (theory)");
    let header = ["β", "GR", "SG", "SG(pairwise)", "bound", "ratio"];
    let mut rows = Vec::new();
    for beta in harness::beta_grid() {
        let graphs = sweep::generate(beta, sweep::graphs_per_beta());
        let params = PlrgParams::fit_alpha(harness::sweep_vertices() as f64, beta);
        let model = SwapModel::new(params);
        let gr: f64 = model.greedy_by_degree.iter().sum();
        let sg = model.expected_swap_gain();
        let sg_pair = model.expected_swap_gain_pairwise();
        let bound = sweep::average_bound(&graphs);
        rows.push(vec![
            format!("{beta:.1}"),
            format!("{gr:.0}"),
            format!("{sg:.0}"),
            format!("{sg_pair:.0}"),
            format!("{bound:.0}"),
            format!("{:.3}", (gr + sg) / bound),
        ]);
    }
    harness::print_table(&header, &rows);
    println!("  paper (|V|=10M): one-k ratio ≈ 0.995–0.999 across all β");
    println!("  note: printed uncapped — values above 1.0 mean the Proposition 5 estimate");
    println!("  exceeds the measured Algorithm 5 bound at this scale (the paper's own SG is");
    println!("  optimistic against its empirical Figure 8 too)");
}
