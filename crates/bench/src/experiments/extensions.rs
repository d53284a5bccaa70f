//! Extension experiment beyond the paper's evaluation: upper-bound
//! tightness.

use mis_core::{matching_bound, upper_bound_scan, Greedy, TwoKSwap};
use mis_gen::DATASETS;
use mis_graph::OrderedCsr;

use crate::harness;

/// Compares the Algorithm 5 bound with the matching bound and the
/// achieved Two-k size on every dataset analogue.
pub fn bounds() {
    let scale = mis_gen::datasets::env_scale();
    println!("== Upper-bound tightness (Algorithm 5 vs matching bound, REPRO_SCALE={scale}) ==");
    let header = ["Data Set", "Two-k", "Alg.5", "matching", "best", "gap"];
    let mut rows = Vec::new();
    for d in &DATASETS {
        let g = d.generate(scale);
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let two = TwoKSwap::new().run(&sorted, &greedy.set);
        let star = upper_bound_scan(&sorted);
        let matching = matching_bound(&sorted);
        let best = star.min(matching);
        rows.push(vec![
            d.name.to_string(),
            two.result.set.len().to_string(),
            star.to_string(),
            matching.to_string(),
            best.to_string(),
            format!(
                "{:.2}%",
                100.0 * (best as f64 - two.result.set.len() as f64) / best as f64
            ),
        ]);
    }
    harness::print_table(&header, &rows);
    println!("  the paper's ratios use Algorithm 5; the matching bound tightens the gap on dense analogues");
}
