//! Algorithm 2: the one-k-swap algorithm.
//!
//! Starting from a maximal independent set, repeatedly exchange one IS
//! vertex `w` for `k ≥ 2` non-IS vertices whose only IS neighbour is `w`.
//! The round driver ([`Swap`]) runs the init scan, the rounds and the
//! maximality finish over the six states of Table 3 (see its docs); this
//! module supplies the per-record rules:
//!
//! * **pre-swap**: a candidate `u` (state `A`, one IS neighbour `w`) is
//!   conflicted by an already-protected neighbour, completes a fresh 1-2
//!   swap skeleton `(u, v, w)` (`u → P`, `w → R`), or joins a swap
//!   already in progress at `w`;
//! * **post-swap**: every non-member re-derives `A` or `N` from its
//!   current IS neighbours, and joins when all its neighbours are `C` or
//!   `N` (a 0↔1 swap). With [`SwapConfig::repromote_n`] off, plain `N`
//!   vertices get only the 0↔1 check, as Algorithm 2's pseudo-code reads.
//!
//! Skeleton detection uses the paper's `ISN`-reuse trick: for an IS vertex
//! `w` the `ISN` slot holds `y = |ISN⁻¹(w)|`, the number of live `A`
//! vertices pointing at `w`; a vertex `u` hosts a skeleton iff
//! `y − 1 − x ≥ 1` where `x` counts `u`'s own A-neighbours pointing at
//! `w` — an `O(deg u)` check with zero extra memory.

use mis_graph::VertexId;

use crate::result::{MemoryModel, SwapConfig};
use crate::swap::{Post, Rules, Steps, Swap, NONE, S};

/// The one-k-swap algorithm (Algorithm 2).
pub type OneKSwap = Swap<OneK>;

/// One-k-swap's per-record rules, which [`Swap`] runs as [`OneKSwap`].
pub struct OneK {
    /// A candidate's IS neighbour; a member's count of singleton
    /// candidates pointing at it; `NONE` otherwise.
    isn: Vec<u32>,
    /// [`SwapConfig::repromote_n`].
    repromote_n: bool,
}

impl Rules for OneK {
    const STEPS: Steps = Steps {
        cat: "onek",
        init: "onek.init",
        pre: "onek.pre",
        swap: "onek.swap",
        post: "onek.post",
        finalize: "onek.finalize",
    };
    const SLOTS: u32 = 1;

    fn new(state: &[S], config: &SwapConfig) -> Self {
        Self {
            isn: state
                .iter()
                .map(|&s| if s == S::I { 0 } else { NONE })
                .collect(),
            repromote_n: config.repromote_n,
        }
    }

    fn init(&mut self, v: VertexId, w: u32, _: u32) {
        self.isn[v as usize] = w;
        self.isn[w as usize] += 1;
    }

    /// Lines 7–14 of Algorithm 2.
    fn pre_swap(&mut self, state: &mut [S], u: VertexId, ns: &[VertexId]) {
        let isn = &mut self.isn;
        let w = isn[u as usize] as usize;
        // Case (i): a neighbour already protected this round.
        if ns.iter().any(|&nb| state[nb as usize] == S::P) {
            state[u as usize] = S::C;
            if state[w] == S::I {
                isn[w] = isn[w].saturating_sub(1);
            }
            return;
        }
        match state[w] {
            // Case (ii): a fresh 1-2 swap skeleton (u, v, w).
            S::I => {
                let y = isn[w];
                let x = ns
                    .iter()
                    .filter(|&&nb| state[nb as usize] == S::A && isn[nb as usize] == w as u32)
                    .count() as u32;
                // Another A vertex with ISN = w, not u itself and not
                // adjacent to u, must exist.
                if y >= x + 2 {
                    state[u as usize] = S::P;
                    state[w] = S::R;
                }
            }
            // Case (iii): join a swap already in progress.
            S::R => state[u as usize] = S::P,
            _ => {}
        }
    }

    /// Lines 15–19: members' dependant counts restart from zero before
    /// the post-swap pass re-derives the `A` states.
    fn sweep(&mut self, state: &[S]) {
        for (isn, &s) in self.isn.iter_mut().zip(state) {
            match s {
                S::P | S::I => *isn = 0,
                S::R => *isn = NONE,
                _ => {}
            }
        }
    }

    /// Lines 20–28 of Algorithm 2.
    fn post_swap(&mut self, state: &mut [S], u: VertexId, ns: &[VertexId]) -> Post {
        let isn = &mut self.isn;
        if state[u as usize] == S::N && !self.repromote_n {
            // Verbatim Algorithm 2: plain N vertices only get the 0↔1
            // check.
            if ns
                .iter()
                .all(|&nb| matches!(state[nb as usize], S::C | S::N))
            {
                state[u as usize] = S::I;
                isn[u as usize] = 0;
                return Post::Joined;
            }
            return if ns.iter().all(|&nb| state[nb as usize] != S::I) {
                Post::Open
            } else {
                Post::Covered
            };
        }
        // Re-derive A / N (and 0↔1) from current IS neighbours.
        let mut count = 0u32;
        let mut is_nbr = NONE;
        let mut all_cn = true;
        for &nb in ns {
            match state[nb as usize] {
                S::I => {
                    count += 1;
                    is_nbr = nb;
                    all_cn = false;
                }
                S::C | S::N => {}
                _ => all_cn = false,
            }
        }
        if count == 1 {
            state[u as usize] = S::A;
            isn[u as usize] = is_nbr;
            isn[is_nbr as usize] += 1;
            Post::Covered
        } else if count == 0 && all_cn {
            state[u as usize] = S::I;
            isn[u as usize] = 0;
            Post::Joined
        } else {
            state[u as usize] = S::N;
            isn[u as usize] = NONE;
            if count == 0 {
                Post::Open
            } else {
                Post::Covered
            }
        }
    }

    /// Never called: each `R` of a round comes with its own `P`, and the
    /// post-swap pass only adds members, so a one-k round never shrinks
    /// the set.
    fn roll_back(&mut self, _: &mut [S]) {
        unreachable!("a one-k round never shrinks the set");
    }

    fn memory(&self, n: usize) -> MemoryModel {
        MemoryModel {
            isn_bytes: 4 * n as u64,
            ..MemoryModel::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::Greedy;
    use crate::result::SwapOutcome;
    use crate::verify::{is_independent_set, is_maximal_independent_set};
    use mis_gen::figures;
    use mis_graph::{CsrGraph, OrderedCsr};

    fn run_figure(ex: &figures::FigureExample, config: SwapConfig) -> SwapOutcome {
        let scan = match &ex.scan_order {
            Some(order) => OrderedCsr::new(&ex.graph, order.clone()),
            None => OrderedCsr::degree_sorted(&ex.graph),
        };
        OneKSwap::with_config(config).run(&scan, &ex.initial_is)
    }

    #[test]
    fn figure1_swaps_hub_for_leaves() {
        let ex = figures::figure1();
        let out = run_figure(&ex, SwapConfig::default());
        assert_eq!(out.result.set, ex.expected_is);
    }

    #[test]
    fn figure2_conflict_lets_only_one_swap_fire() {
        // Example 1: v1 ↔ {v2,v3} wins, v4's swap is conflicted away.
        let ex = figures::figure2();
        let out = run_figure(&ex, SwapConfig::default());
        assert_eq!(
            out.result.set, ex.expected_is,
            "paper: final IS = {{v2,v3,v4}}"
        );
    }

    #[test]
    fn figure4_full_trace() {
        // Example 2: two skeletons fire in round one; v5, v6, v10 are
        // conflicted; final set is the paper's Figure 4(b).
        let ex = figures::figure4();
        let out = run_figure(&ex, SwapConfig::default());
        assert_eq!(out.result.set, ex.expected_is);
        // Both swaps were 1↔2: 4 in, 2 out in round 1.
        assert_eq!(out.stats.rounds[0].swapped_in, 4);
        assert_eq!(out.stats.rounds[0].swapped_out, 2);
    }

    #[test]
    fn figure5_cascade_needs_three_rounds() {
        let ex = figures::figure5();
        let out = run_figure(&ex, SwapConfig::default());
        assert_eq!(out.result.set, ex.expected_is);
        // Rounds with actual swaps: 3 (plus one fixpoint-detection round).
        let swap_rounds = out
            .stats
            .rounds
            .iter()
            .filter(|r| r.swapped_out > 0)
            .count();
        assert_eq!(swap_rounds, 3, "cascade fires one block per round");
    }

    #[test]
    fn figure5_verbatim_config_stalls() {
        // Without N re-promotion the cascade cannot proceed past round 1 —
        // this is why `repromote_n` defaults to true.
        let ex = figures::figure5();
        let out = run_figure(&ex, SwapConfig::verbatim());
        let swap_rounds = out
            .stats
            .rounds
            .iter()
            .filter(|r| r.swapped_out > 0)
            .count();
        assert_eq!(swap_rounds, 1);
        assert_eq!(out.result.set.len(), 4); // 3 heads -> {tails of last block} + 2 heads
    }

    #[test]
    fn swaps_never_shrink_the_set() {
        let g = mis_gen::plrg::Plrg::with_vertices(2_000, 2.0)
            .seed(5)
            .generate();
        let scan = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&scan);
        let out = OneKSwap::new().run(&scan, &greedy.set);
        assert!(out.result.set.len() >= greedy.set.len());
        assert!(is_independent_set(&g, &out.result.set));
        assert!(is_maximal_independent_set(&g, &out.result.set));
        assert_eq!(out.stats.initial_size, greedy.set.len() as u64);
        assert_eq!(out.stats.final_size, out.result.set.len() as u64);
    }

    #[test]
    fn early_stop_limits_rounds() {
        let ex = figures::figure5();
        let scan = OrderedCsr::degree_sorted(&ex.graph);
        let out = OneKSwap::with_config(SwapConfig::early_stop(1)).run(&scan, &ex.initial_is);
        assert_eq!(out.stats.num_rounds(), 1);
        assert!(is_independent_set(&ex.graph, &out.result.set));
    }

    #[test]
    fn empty_initial_set_grows_to_maximal() {
        // With finalize_maximal the result is maximal even from nothing.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let scan = OrderedCsr::degree_sorted(&g);
        let out = OneKSwap::new().run(&scan, &[]);
        assert!(is_maximal_independent_set(&g, &out.result.set));
    }

    #[test]
    fn memory_model_is_five_bytes_per_vertex() {
        let g = CsrGraph::empty(100);
        let out = OneKSwap::new().run(&g, &[]);
        assert_eq!(out.result.memory.state_bytes, 100);
        assert_eq!(out.result.memory.isn_bytes, 400);
    }

    #[test]
    fn scan_counts_are_reported() {
        let ex = figures::figure2();
        let out = run_figure(&ex, SwapConfig::default());
        // init + 2 per round; the finish replays the last post-swap pass.
        assert!(!out.stats.finish_scanned);
        let expected = 1 + 2 * out.stats.num_rounds() as u64;
        assert_eq!(out.result.file_scans, expected);
    }

    #[test]
    fn paged_path_matches_scan_path_exactly() {
        for seed in 0..3 {
            let g = mis_gen::plrg::Plrg::with_vertices(2_000, 2.0)
                .seed(seed)
                .generate();
            let scan = OrderedCsr::degree_sorted(&g);
            let greedy = Greedy::new().run(&scan);
            let plain = OneKSwap::new().run(&scan, &greedy.set);
            // Threshold 1.0: every round's pre-swap pass goes paged.
            let paged = OneKSwap::with_config(SwapConfig::default().with_paged_threshold(1.0))
                .run_paged(&scan, Some(&scan), &greedy.set);
            assert_eq!(paged.result.set, plain.result.set, "seed {seed}");
            assert_eq!(paged.stats.num_rounds(), plain.stats.num_rounds());
            assert_eq!(paged.stats.paged_rounds, plain.stats.num_rounds() as u64);
            assert_eq!(plain.stats.paged_rounds, 0);
            // Each paged round saves exactly its pre-swap scan.
            assert_eq!(
                plain.result.file_scans - paged.result.file_scans,
                paged.stats.paged_rounds
            );
        }
    }

    #[test]
    fn paged_threshold_zero_never_pages() {
        let g = mis_gen::plrg::Plrg::with_vertices(500, 2.0)
            .seed(1)
            .generate();
        let scan = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&scan);
        let out = OneKSwap::new().run_paged(&scan, Some(&scan), &greedy.set);
        assert_eq!(out.stats.paged_rounds, 0);
        assert_eq!(out.result.memory.pager_bytes, 0);
    }
}
