//! The paper's I/O cost model as an executable prediction.
//!
//! The source paper states every algorithm's cost as a number of
//! *sequential scans*, each transferring `scan(|V|+|E|) = ⌈bytes/B⌉`
//! blocks. This module turns that claim into something the repo can
//! enforce: [`CostModel`] predicts, from nothing but the graph header
//! stats (|V|, |E|, on-disk bytes, block size, storage format), the
//! expected blocks-per-scan and — via [`Workload`] — the expected
//! scan count of a greedy/one-k/two-k run; [`CostModel::check`] then
//! compares an observed `IoStats` snapshot (scans started, blocks
//! read) against the prediction and produces a [`ModelVerdict`] that
//! states whether the observation conforms within a declared
//! tolerance.
//!
//! ## Scan-count constants
//!
//! The constants below are pinned to the pass structure of
//! `mis_core`'s swap algorithms (`crates/core/src/cost.rs` re-exports
//! them next to the algorithms and tests them against real runs):
//!
//! * greedy is a single pass ([`GREEDY_SCANS`]);
//! * one-k and two-k share one init pass ([`SWAP_INIT_SCANS`]), then
//!   cost [`SWAP_SCANS_PER_ROUND`] full scans per round (the pre-swap
//!   candidate pass plus the post-swap re-derivation fold) — except
//!   rounds that verified candidates through the buffer pool, which
//!   replace the pre-swap *scan* with paged point reads. A round that
//!   two-k's shrink guard undid costs its scans too, though the run
//!   does not count it among its rounds.
//! * The maximality finish costs [`SWAP_FINALIZE_SCANS`] only when it
//!   scans. Normally it replays the last post-swap pass's open vertices
//!   in memory; it scans when no round ran, the last round was undone,
//!   or the open vertices outgrew their cap.
//!
//! A run reports both facts in its stats, so the prediction is exact on
//! every run.
//!
//! ## Conformance modes
//!
//! Blocks-read conformance multiplies the *observed* scan count (which
//! includes warm-up scans the workload model cannot know about) by the
//! predicted blocks-per-scan:
//!
//! * with no paged rounds the relation is deterministic — observed
//!   blocks must equal `scans × ⌈bytes/B⌉` within the tolerance
//!   ([`ModelVerdict::mode`] `"exact"`);
//! * paged rounds add point reads that are bounded above by one full
//!   scan each, so the check widens to a range: at least the scans'
//!   own blocks, at most as if every paged round had re-scanned the
//!   file (`"range"`).
//!
//! The tolerance is a declared fraction (`0.0` = exact); callers such
//! as `repro churn`, whose base file is rewritten by compaction
//! mid-measurement, state a wider tolerance instead of silently
//! skipping the check.

use std::fmt;

/// Scans one greedy construction performs (one pass in storage order).
pub const GREEDY_SCANS: u64 = 1;
/// Scans the shared one-k/two-k init pass performs before round one.
pub const SWAP_INIT_SCANS: u64 = 1;
/// Full scans per swap round: the pre-swap candidate pass plus the
/// post-swap ordered re-derivation fold.
pub const SWAP_SCANS_PER_ROUND: u64 = 2;
/// Scans of the maximality finish when it cannot replay the last
/// post-swap pass in memory.
pub const SWAP_FINALIZE_SCANS: u64 = 1;

/// A workload whose scan count the model can predict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-pass greedy construction.
    Greedy,
    /// A one-k or two-k swap run (both share the same pass structure).
    Swap {
        /// Swap rounds the run kept.
        rounds: u64,
        /// Whether the shrink guard undid one more round after them.
        rolled_back: bool,
        /// Rounds, an undone one included, that verified candidates
        /// through the buffer pool instead of a full pre-swap scan.
        paged_rounds: u64,
        /// Whether the maximality finish scanned the file.
        finish_scanned: bool,
    },
    /// Greedy followed by a swap run on its result (the common
    /// experiment shape), plus `extra_scans` accounted passes around
    /// them (warm-up, maximality proof, …).
    GreedyThenSwap {
        /// Swap rounds the run kept.
        rounds: u64,
        /// Whether the shrink guard undid one more round after them.
        rolled_back: bool,
        /// Paged rounds, an undone one included.
        paged_rounds: u64,
        /// Whether the maximality finish scanned the file.
        finish_scanned: bool,
        /// Additional whole-file scans the experiment accounted
        /// (warm-up pass, `prove_maximal` pass, …). A paged handle's
        /// record index adds none when it is opened before Greedy, whose
        /// scan builds it on the way.
        extra_scans: u64,
    },
}

impl Workload {
    /// Predicted number of *accounted scans* (`IoStats::record_scan`
    /// calls / `file_scans`) for this workload. Paged rounds replace
    /// their pre-swap scan with point reads, so each subtracts one.
    pub fn predicted_scans(&self) -> u64 {
        match *self {
            Workload::Greedy => GREEDY_SCANS,
            Workload::Swap {
                rounds,
                rolled_back,
                paged_rounds,
                finish_scanned,
            } => swap_scans(rounds, rolled_back, paged_rounds, finish_scanned),
            Workload::GreedyThenSwap {
                rounds,
                rolled_back,
                paged_rounds,
                finish_scanned,
                extra_scans,
            } => {
                GREEDY_SCANS
                    + swap_scans(rounds, rolled_back, paged_rounds, finish_scanned)
                    + extra_scans
            }
        }
    }

    /// Paged rounds of the workload (0 for pure scans).
    pub fn paged_rounds(&self) -> u64 {
        match *self {
            Workload::Greedy => 0,
            Workload::Swap { paged_rounds, .. } | Workload::GreedyThenSwap { paged_rounds, .. } => {
                paged_rounds
            }
        }
    }
}

/// Scan count of one swap run: init + 2/round (an undone round
/// included) − 1/paged round (+ 1 when the finish scanned). See the
/// module docs for the derivation.
pub fn swap_scans(rounds: u64, rolled_back: bool, paged_rounds: u64, finish_scanned: bool) -> u64 {
    let run = rounds + u64::from(rolled_back);
    SWAP_INIT_SCANS + SWAP_SCANS_PER_ROUND * run - paged_rounds.min(run)
        + SWAP_FINALIZE_SCANS * u64::from(finish_scanned)
}

/// The graph-header facts the predictions are derived from.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Vertex count from the file header.
    pub vertices: u64,
    /// Edge count from the file header.
    pub edges: u64,
    /// On-disk size of the adjacency file in bytes.
    pub file_bytes: u64,
    /// Block size the reader transfers in.
    pub block_size: u64,
    /// Storage format label (`"adj-file"` / `"adj-file-compressed"` /
    /// …).
    pub storage: String,
}

impl CostModel {
    /// Blocks one sequential scan transfers: the paper's
    /// `scan(|V|+|E|) = ⌈bytes/B⌉`.
    pub fn blocks_per_scan(&self) -> u64 {
        self.file_bytes.div_ceil(self.block_size.max(1))
    }

    /// Checks observed I/O counters against the model.
    ///
    /// `observed_scans` and `observed_blocks` are `IoStats`'
    /// `scans_started` / `blocks_read`; `paged_rounds` is how many
    /// paged (point-read) rounds the observation includes; `tolerance`
    /// is the allowed relative error. The scan-count side is checked
    /// exactly when `workload` is given (scan counts are
    /// deterministic); the blocks side follows the module-doc modes.
    pub fn check(
        &self,
        workload: Option<Workload>,
        observed_scans: u64,
        observed_blocks: u64,
        tolerance: f64,
    ) -> ModelVerdict {
        self.check_with_point_reads(workload, 0, 0, observed_scans, observed_blocks, tolerance)
    }

    /// [`CostModel::check`] for an observation that also includes
    /// `point_passes` passes of point reads outside the workload's paged
    /// rounds (a local epoch repair is one), through a pager of
    /// `page_size`-byte pages: each pass is bounded by one transfer per
    /// page of the file, the way a paged round is by one scan's blocks.
    pub fn check_with_point_reads(
        &self,
        workload: Option<Workload>,
        point_passes: u64,
        page_size: u64,
        observed_scans: u64,
        observed_blocks: u64,
        tolerance: f64,
    ) -> ModelVerdict {
        let bps = self.blocks_per_scan();
        let paged_rounds = workload.map_or(0, |w| w.paged_rounds());
        let pages = if point_passes == 0 {
            0
        } else {
            self.file_bytes.div_ceil(page_size.max(1))
        };
        let lo = observed_scans * bps;
        let hi = (observed_scans + paged_rounds) * bps + point_passes * pages;
        let tol = tolerance.max(0.0);
        let min_ok = (lo as f64 * (1.0 - tol)).floor() as u64;
        let max_ok = (hi as f64 * (1.0 + tol)).ceil() as u64;
        let blocks_ok = (min_ok..=max_ok).contains(&observed_blocks);

        let predicted_scans = workload.map(|w| w.predicted_scans());
        let scans_ok = predicted_scans.is_none_or(|p| p == observed_scans);

        let mut detail = String::new();
        if let Some(p) = predicted_scans {
            if p != observed_scans {
                detail.push_str(&format!(
                    "scans: predicted {p}, observed {observed_scans}; "
                ));
            }
        }
        if !blocks_ok {
            detail.push_str(&format!(
                "blocks: predicted [{min_ok}, {max_ok}] \
                 ({observed_scans} scans × {bps} blocks/scan, {paged_rounds} paged rounds, \
                 {point_passes} point passes × {pages} pages, ±{:.0}%), observed {observed_blocks}",
                tol * 100.0
            ));
        }
        ModelVerdict {
            storage: self.storage.clone(),
            blocks_per_scan: bps,
            predicted_scans,
            observed_scans,
            predicted_blocks_min: lo,
            predicted_blocks_max: hi,
            observed_blocks,
            tolerance: tol,
            mode: if paged_rounds + point_passes == 0 {
                "exact"
            } else {
                "range"
            },
            pass: blocks_ok && scans_ok,
            detail,
        }
    }
}

/// Outcome of one conformance check; render with `Display`.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelVerdict {
    /// Storage format the model was built for.
    pub storage: String,
    /// Predicted `⌈bytes/B⌉` blocks per scan.
    pub blocks_per_scan: u64,
    /// Predicted scan count, when a [`Workload`] was supplied.
    pub predicted_scans: Option<u64>,
    /// Observed `scans_started`.
    pub observed_scans: u64,
    /// Lower end of the conforming blocks-read window (pre-tolerance).
    pub predicted_blocks_min: u64,
    /// Upper end of the conforming blocks-read window (pre-tolerance).
    pub predicted_blocks_max: u64,
    /// Observed `blocks_read`.
    pub observed_blocks: u64,
    /// Relative tolerance the window was widened by.
    pub tolerance: f64,
    /// `"exact"` (no paged rounds) or `"range"` (paged point reads).
    pub mode: &'static str,
    /// Whether the observation conforms.
    pub pass: bool,
    /// Human-readable explanation when it does not.
    pub detail: String,
}

impl ModelVerdict {
    /// The verdict as one JSON object (for the `BENCH_*.json` snapshots).
    pub fn to_json(&self) -> String {
        let scans = match self.predicted_scans {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"storage\":\"{}\",\"blocks_per_scan\":{},\"predicted_scans\":{scans},\
             \"observed_scans\":{},\"predicted_blocks_min\":{},\"predicted_blocks_max\":{},\
             \"observed_blocks\":{},\"tolerance\":{},\"mode\":\"{}\",\"pass\":{}}}",
            self.storage,
            self.blocks_per_scan,
            self.observed_scans,
            self.predicted_blocks_min,
            self.predicted_blocks_max,
            self.observed_blocks,
            self.tolerance,
            self.mode,
            self.pass
        )
    }
}

impl fmt::Display for ModelVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pass {
            write!(
                f,
                "model OK ({}): {} scans × {} blocks/scan, {} blocks read ({} mode, ±{:.0}%)",
                self.storage,
                self.observed_scans,
                self.blocks_per_scan,
                self.observed_blocks,
                self.mode,
                self.tolerance * 100.0
            )
        } else {
            write!(f, "model VIOLATION ({}): {}", self.storage, self.detail)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(file_bytes: u64, block_size: u64) -> CostModel {
        CostModel {
            vertices: 1_000,
            edges: 5_000,
            file_bytes,
            block_size,
            storage: "adj-file".into(),
        }
    }

    #[test]
    fn blocks_per_scan_is_ceiling() {
        assert_eq!(model(1_000, 100).blocks_per_scan(), 10);
        assert_eq!(model(1_001, 100).blocks_per_scan(), 11);
        assert_eq!(model(1, 100).blocks_per_scan(), 1);
        assert_eq!(model(0, 100).blocks_per_scan(), 0);
    }

    #[test]
    fn swap_scan_formula_matches_pass_structure() {
        // init + 2/round (+ a finish scan)
        assert_eq!(swap_scans(0, false, 0, false), 1);
        assert_eq!(swap_scans(3, false, 0, false), 1 + 6);
        assert_eq!(swap_scans(3, false, 0, true), 1 + 6 + 1);
        // A paged round keeps its post-swap scan only.
        assert_eq!(swap_scans(3, false, 2, false), 1 + 6 - 2);
        // An undone round costs its two scans, or one when it was paged.
        assert_eq!(swap_scans(0, true, 0, true), 1 + 2 + 1);
        assert_eq!(swap_scans(1, true, 2, true), 1 + 4 - 2 + 1);
        let w = Workload::GreedyThenSwap {
            rounds: 2,
            rolled_back: false,
            paged_rounds: 0,
            finish_scanned: false,
            extra_scans: 2, // warm-up + maximality proof
        };
        assert_eq!(w.predicted_scans(), 1 + (1 + 4) + 2);
    }

    #[test]
    fn exact_mode_accepts_only_the_product() {
        let m = model(10_000, 1_000); // 10 blocks/scan
        let v = m.check(None, 7, 70, 0.0);
        assert!(v.pass, "{v}");
        assert_eq!(v.mode, "exact");
        let v = m.check(None, 7, 71, 0.0);
        assert!(!v.pass, "{v}");
        assert!(v.to_json().contains("\"pass\":false"));
    }

    #[test]
    fn range_mode_admits_paged_point_reads() {
        let m = model(10_000, 1_000);
        let w = Workload::Swap {
            rounds: 4,
            rolled_back: false,
            paged_rounds: 2,
            finish_scanned: false,
        };
        // 1 + 8 - 2 = 7 scans; blocks between 70 and (7+2)*10 = 90.
        assert_eq!(w.predicted_scans(), 7);
        let v = m.check(Some(w), 7, 83, 0.0);
        assert!(v.pass, "{v}");
        assert_eq!(v.mode, "range");
        let v = m.check(Some(w), 7, 91, 0.0);
        assert!(!v.pass, "{v}");
        // Tolerance widens the window.
        let v = m.check(Some(w), 7, 91, 0.05);
        assert!(v.pass, "{v}");
    }

    #[test]
    fn point_passes_admit_one_transfer_per_page_each() {
        // 10 blocks of 1000 B a scan; 100-byte pages make 100 per pass.
        let m = model(10_000, 1_000);
        let v = m.check_with_point_reads(None, 2, 100, 3, 230, 0.0);
        assert!(v.pass, "{v}");
        assert_eq!((v.mode, v.predicted_blocks_max), ("range", 230));
        let v = m.check_with_point_reads(None, 2, 100, 3, 231, 0.0);
        assert!(!v.pass, "{v}");
        assert!(
            v.detail.contains("2 point passes × 100 pages"),
            "{}",
            v.detail
        );
        assert_eq!(m.check(None, 3, 30, 0.0).mode, "exact");
    }

    #[test]
    fn scan_mismatch_fails_even_when_blocks_conform() {
        let m = model(10_000, 1_000);
        let w = Workload::Greedy;
        let v = m.check(Some(w), 2, 20, 0.0);
        assert!(!v.pass, "{v}");
        assert!(v.detail.contains("predicted 1"), "{}", v.detail);
        assert!(format!("{v}").contains("VIOLATION"));
    }
}
