//! Table 5: independent-set sizes of all algorithms on every dataset.
//!
//! Paper shape to verify: swaps dominate their starting point; GREEDY
//! beats BASELINE nearly everywhere; the swap algorithms beat STXXL by a
//! wide margin on the big graphs (3× on Facebook); Two-k ≥ One-k.

use crate::harness::{self, DatasetRun};

/// Prints Table 5 from precomputed dataset runs.
pub fn print(runs: &[DatasetRun]) {
    println!("== Table 5: independent-set size by algorithm ==");
    let header = [
        "Data Set", "DynUpd", "STXXL", "Baseline", "One-k(B)", "Two-k(B)", "Greedy", "One-k(G)",
        "Two-k(G)",
    ];
    let mut rows = Vec::new();
    for run in runs {
        let get = |n: &str| run.get(n).map(|r| r.size.to_string()).unwrap_or_default();
        rows.push(vec![
            run.name.to_string(),
            get("DynamicUpdate"),
            get("STXXL"),
            get("Baseline"),
            get("One-k (Baseline)"),
            get("Two-k (Baseline)"),
            get("Greedy"),
            get("One-k (Greedy)"),
            get("Two-k (Greedy)"),
        ]);
    }
    harness::print_table(&header, &rows);
    println!("  paper shape: One-k/Two-k ≥ starting point; Greedy > Baseline; swaps ≫ STXXL");
}

/// Standalone entry point.
pub fn run() {
    let runs = super::datasets::run_suite();
    print(&runs);
}
