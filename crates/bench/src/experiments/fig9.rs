//! Figure 9: Two-k-swap size vs the Algorithm 5 optimal bound, per
//! dataset (the paper plots both on a log scale; we print the ratio).
//!
//! Paper: the ratio reaches ~0.99 on Facebook, Citeseerx and Uniport and
//! stays ≥ 0.96 everywhere.

use crate::harness::{self, DatasetRun};

/// Prints Figure 9's series from precomputed dataset runs.
pub fn print(runs: &[DatasetRun]) {
    println!("== Figure 9: Two-k-swap vs the optimal bound ==");
    let header = ["Data Set", "Two-k(G)", "Optimal bound", "ratio"];
    let mut rows = Vec::new();
    for run in runs {
        let Some(two) = run.get("Two-k (Greedy)") else {
            continue;
        };
        rows.push(vec![
            run.name.to_string(),
            two.size.to_string(),
            run.upper_bound.to_string(),
            format!("{:.4}", two.size as f64 / run.upper_bound as f64),
        ]);
    }
    harness::print_table(&header, &rows);
    println!("  paper: ratio ≈ 0.99 on Facebook/Citeseerx/Uniport, ≥ 0.96 everywhere");
}

/// Standalone entry point.
pub fn run() {
    let runs = super::datasets::run_suite();
    print(&runs);
}
