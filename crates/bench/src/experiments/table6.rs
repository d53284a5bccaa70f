//! Table 6: running time and memory cost per algorithm per dataset.
//!
//! Absolute times differ from the paper's 2015 HDD testbed; the shape to
//! verify is relative: Greedy fastest; swaps cost a small multiple of
//! Greedy; swap memory is a few bytes per vertex (the Twitter row of the
//! paper: a 9.4 GB graph processed in 524 MB); DynamicUpdate's memory
//! includes the whole resident graph.

use crate::harness::{self, DatasetRun};

/// Prints Table 6 from precomputed dataset runs.
pub fn print(runs: &[DatasetRun]) {
    println!("== Table 6: time and modelled memory ==");
    let header = [
        "Data Set",
        "t(DynUpd)",
        "t(STXXL)",
        "t(Greedy)",
        "t(One-k)",
        "t(Two-k)",
        "m(DynUpd)",
        "m(STXXL)",
        "m(Greedy)",
        "m(One-k)",
        "m(Two-k)",
    ];
    let mut rows = Vec::new();
    for run in runs {
        let t = |n: &str| {
            run.get(n)
                .map(|r| harness::fmt_time(r.time))
                .unwrap_or_default()
        };
        let m = |n: &str| {
            run.get(n)
                .map(|r| harness::fmt_bytes(r.memory_bytes))
                .unwrap_or_default()
        };
        rows.push(vec![
            run.name.to_string(),
            t("DynamicUpdate"),
            t("STXXL"),
            t("Greedy"),
            t("One-k (Greedy)"),
            t("Two-k (Greedy)"),
            m("DynamicUpdate"),
            m("STXXL"),
            m("Greedy"),
            m("One-k (Greedy)"),
            m("Two-k (Greedy)"),
        ]);
    }
    harness::print_table(&header, &rows);
    println!("  paper shape: Greedy fastest; swap memory = O(|V|) ≪ graph size; DynUpd holds the whole graph");
}

/// Standalone entry point.
pub fn run() {
    let runs = super::datasets::run_suite();
    print(&runs);
}
