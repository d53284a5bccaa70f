//! Table 7: number of swap rounds per dataset for One-k and Two-k.
//!
//! Paper shape: 2–9 rounds, not proportional to graph size, and Two-k
//! often needs *fewer* rounds than One-k (it performs more swaps per
//! round).

use crate::harness::{self, DatasetRun};

/// Prints Table 7 from precomputed dataset runs.
pub fn print(runs: &[DatasetRun]) {
    println!("== Table 7: rounds of One-k-swap and Two-k-swap (after Greedy) ==");
    let header = ["Data Set", "One-k rounds", "Two-k rounds"];
    let mut rows = Vec::new();
    for run in runs {
        let r = |n: &str| run.get(n).map(|r| r.rounds.to_string()).unwrap_or_default();
        rows.push(vec![
            run.name.to_string(),
            r("One-k (Greedy)"),
            r("Two-k (Greedy)"),
        ]);
    }
    harness::print_table(&header, &rows);
    println!("  paper: 2–9 rounds; round count not proportional to |V|");
}

/// Standalone entry point.
pub fn run() {
    let runs = super::datasets::run_suite();
    print(&runs);
}
