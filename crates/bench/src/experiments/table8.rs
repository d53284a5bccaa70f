//! Table 8: the early-stop profile — new IS vertices and cumulative swap
//! ratio after one, two and three rounds of One-k-swap.
//!
//! Paper finding: ≥ 97% of all swaps complete within three rounds on
//! every real dataset, motivating early stop as an efficiency/quality
//! trade-off.

use crate::harness::{self, DatasetRun};

/// Prints Table 8 from precomputed dataset runs.
pub fn print(runs: &[DatasetRun]) {
    println!("== Table 8: One-k-swap early-stop profile (after Greedy) ==");
    let header = [
        "Data Set",
        "round1",
        "ratio1",
        "rounds1-2",
        "ratio2",
        "rounds1-3",
        "ratio3",
        "total",
    ];
    let mut rows = Vec::new();
    for run in runs {
        let Some(one_k) = run.get("One-k (Greedy)") else {
            continue;
        };
        let total: u64 = one_k.per_round_in.iter().sum();
        let cum = |k: usize| -> u64 { one_k.per_round_in.iter().take(k).sum() };
        let ratio = |k: usize| -> String {
            if total == 0 {
                "100.00%".to_string()
            } else {
                format!("{:.2}%", 100.0 * cum(k) as f64 / total as f64)
            }
        };
        rows.push(vec![
            run.name.to_string(),
            cum(1).to_string(),
            ratio(1),
            cum(2).to_string(),
            ratio(2),
            cum(3).to_string(),
            ratio(3),
            total.to_string(),
        ]);
    }
    harness::print_table(&header, &rows);
    println!("  paper: ≥ 97% of swapped vertices arrive within three rounds");
}

/// Standalone entry point.
pub fn run() {
    let runs = super::datasets::run_suite();
    print(&runs);
}
