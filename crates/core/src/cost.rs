//! Scan-count constants of the cost model, pinned to the pass
//! structure of this crate's algorithms.
//!
//! `mis_obs::model` predicts I/O from these constants, but `mis_obs`
//! deliberately depends on nothing — so the constants are *defined*
//! there (next to the predictor) and *derived and enforced* here,
//! next to the pass structure they describe:
//!
//! * [`Greedy`](crate::Greedy) visits every record once —
//!   [`GREEDY_SCANS`]` = 1`.
//! * [`OneKSwap`](crate::OneKSwap) and [`TwoKSwap`](crate::TwoKSwap)
//!   share one `InitCandidates` pass before round one
//!   ([`SWAP_INIT_SCANS`]), then per round run the pre-swap candidate
//!   pass plus the post-swap ordered re-derivation fold
//!   ([`SWAP_SCANS_PER_ROUND`]` = 2`); a round that verified its
//!   candidates through the buffer pool skips the pre-swap *scan*
//!   (accounted as a paged round instead). A round two-k's shrink guard
//!   undid ([`SwapStats::rolled_back`](crate::SwapStats::rolled_back))
//!   still ran its passes. The `finalize_maximal` finish replays the
//!   last post-swap pass's open vertices in memory, and adds
//!   [`SWAP_FINALIZE_SCANS`] only when it had to scan instead
//!   ([`SwapStats::finish_scanned`](crate::SwapStats::finish_scanned)).
//!
//! [`swap_scans`] folds those into the predicted `file_scans` of one
//! swap run. The tests below run the real algorithms and assert their
//! reported `file_scans` equals the prediction — any future change to
//! the pass structure must update the constants (and therefore the
//! CLI's `--check-model` and every `repro` conformance check) in the
//! same commit.

pub use mis_obs::model::{
    swap_scans, CostModel, ModelVerdict, Workload, GREEDY_SCANS, SWAP_FINALIZE_SCANS,
    SWAP_INIT_SCANS, SWAP_SCANS_PER_ROUND,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Greedy, OneKSwap, SwapConfig, SwapOutcome, TwoKSwap};
    use mis_graph::{CsrGraph, OrderedCsr};

    fn graph() -> CsrGraph {
        mis_gen::Plrg::with_vertices(3_000, 2.1).seed(9).generate()
    }

    /// The model's scan count for a swap run, from its stats alone.
    fn predicted(out: &SwapOutcome) -> u64 {
        let s = &out.stats;
        swap_scans(
            s.num_rounds() as u64,
            s.rolled_back,
            s.paged_rounds,
            s.finish_scanned,
        )
    }

    #[test]
    fn greedy_is_one_scan() {
        let g = graph();
        let sorted = OrderedCsr::degree_sorted(&g);
        let result = Greedy::new().run(&sorted);
        assert_eq!(result.file_scans, GREEDY_SCANS);
        assert_eq!(Workload::Greedy.predicted_scans(), GREEDY_SCANS);
    }

    #[test]
    fn one_k_scan_count_matches_the_model() {
        let g = graph();
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let out = OneKSwap::new().run(&sorted, &greedy.set);
        let s = &out.stats;
        assert_eq!(
            out.result.file_scans,
            predicted(&out),
            "one-k: {} rounds, {} paged",
            s.num_rounds(),
            s.paged_rounds
        );
        let w = Workload::Swap {
            rounds: s.num_rounds() as u64,
            rolled_back: s.rolled_back,
            paged_rounds: s.paged_rounds,
            finish_scanned: s.finish_scanned,
        };
        assert_eq!(w.predicted_scans(), predicted(&out));
    }

    #[test]
    fn two_k_scan_count_matches_the_model() {
        // A PLRG run, scanned and paged: the finish replays in memory.
        let g = graph();
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        for config in [SwapConfig::default(), SwapConfig::paged()] {
            let out = TwoKSwap::with_config(config).run_paged(&sorted, Some(&sorted), &greedy.set);
            assert!(!out.stats.rolled_back && !out.stats.finish_scanned);
            assert_eq!(out.result.file_scans, predicted(&out));
        }
    }

    #[test]
    fn two_k_rollback_finishing_by_scan_matches_the_model() {
        // Two of the shrink guard's golden graphs: round 1 and round 2
        // undone. The undone round's passes and the finish scan count.
        for (seed, kept_rounds, scans) in [(11, 0, 4), (1283, 1, 6)] {
            let g = mis_gen::er::gnm(40, 200, seed);
            let sorted = OrderedCsr::degree_sorted(&g);
            let greedy = Greedy::new().run(&sorted);
            let out = TwoKSwap::new().run(&sorted, &greedy.set);
            assert!(out.stats.rolled_back && out.stats.finish_scanned);
            assert_eq!(out.stats.num_rounds(), kept_rounds);
            assert_eq!(out.result.file_scans, scans);
            assert_eq!(predicted(&out), scans, "seed {seed}");
        }
    }

    #[test]
    fn early_stopped_swap_still_matches() {
        let g = graph();
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        for rounds in [0, 1] {
            let out =
                OneKSwap::with_config(SwapConfig::early_stop(rounds)).run(&sorted, &greedy.set);
            assert_eq!(out.stats.num_rounds(), rounds);
            // With no round to replay, the finish scans.
            assert_eq!(out.stats.finish_scanned, rounds == 0);
            assert_eq!(out.result.file_scans, predicted(&out));
        }
    }
}
