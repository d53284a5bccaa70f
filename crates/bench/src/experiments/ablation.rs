//! Ablation of the `SwapConfig` choices that depart from the paper's
//! pseudo-code: `N`-re-promotion, the maximality finalisation pass, and
//! early stop.

use mis_core::{Greedy, OneKSwap, SwapConfig, TwoKSwap};
use mis_graph::OrderedCsr;

use crate::harness;

/// Runs the ablation grid on a mid-size power-law analogue.
pub fn run() {
    let n = harness::sweep_vertices().min(100_000);
    println!("== SwapConfig ablation (P(α,β), β = 2.0, |V| ≈ {n}) ==");
    let graph = mis_gen::Plrg::with_vertices(n, 2.0).seed(7).generate();
    let sorted = OrderedCsr::degree_sorted(&graph);
    let greedy = Greedy::new().run(&sorted);
    println!("  Greedy start: {}", greedy.set.len());

    let configs: [(&str, SwapConfig); 6] = [
        ("default", SwapConfig::default()),
        ("verbatim Alg.2/3", SwapConfig::verbatim()),
        (
            "no N-re-promotion",
            SwapConfig {
                repromote_n: false,
                ..SwapConfig::default()
            },
        ),
        ("early stop r=1", SwapConfig::early_stop(1)),
        ("early stop r=2", SwapConfig::early_stop(2)),
        ("early stop r=3", SwapConfig::early_stop(3)),
    ];

    let header = [
        "config",
        "one-k size",
        "one-k rounds",
        "two-k size",
        "two-k rounds",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect::<Vec<_>>();
    let mut rows = Vec::new();
    for (label, config) in configs {
        let one = OneKSwap::with_config(config).run(&sorted, &greedy.set);
        let two = TwoKSwap::with_config(config).run(&sorted, &greedy.set);
        rows.push(vec![
            label.to_string(),
            one.result.set.len().to_string(),
            one.stats.num_rounds().to_string(),
            two.result.set.len().to_string(),
            two.stats.num_rounds().to_string(),
        ]);
    }
    harness::print_table(&header, &rows);
    println!("  expected: early stop at 3 rounds recovers ≈ all of the default's gain (Table 8)");
}
