//! Results, configuration and instrumentation shared by the algorithms.

use mis_graph::VertexId;

use crate::engine::Executor;

/// Output of an independent-set algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MisResult {
    /// The independent set, sorted ascending.
    pub set: Vec<VertexId>,
    /// Number of full file scans the computation performed.
    pub file_scans: u64,
    /// In-memory footprint of the algorithm's own state (see
    /// [`MemoryModel`]); excludes the graph itself, which lives on disk in
    /// the semi-external model.
    pub memory: MemoryModel,
}

impl MisResult {
    /// Size of the independent set.
    pub fn size(&self) -> usize {
        self.set.len()
    }
}

/// Byte-exact model of an algorithm's in-memory state, mirroring how the
/// paper reports memory cost (Table 6): the state array, the ISN
/// structure, and two-k-swap's SC sets at their peak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryModel {
    /// One byte per vertex of state machine (`{I,N,A,P,C,R}` or greedy's
    /// three states).
    pub state_bytes: u64,
    /// ISN structure: 4 bytes per vertex per slot (one slot for one-k,
    /// two for two-k).
    pub isn_bytes: u64,
    /// Peak bytes held in SC sets (two-k-swap only).
    pub sc_peak_bytes: u64,
    /// Auxiliary structures (external priority queue budget, degree
    /// arrays, …) where applicable.
    pub aux_bytes: u64,
    /// Buffer-pool frames plus record index held by the paged access
    /// path, when one was supplied (zero on the scan-only path).
    pub pager_bytes: u64,
}

impl MemoryModel {
    /// Total modelled bytes.
    pub fn total(&self) -> u64 {
        self.state_bytes + self.isn_bytes + self.sc_peak_bytes + self.aux_bytes + self.pager_bytes
    }
}

/// Tuning knobs for the one-k and two-k swap algorithms.
#[derive(Debug, Clone, Copy)]
pub struct SwapConfig {
    /// Stop after this many rounds even if more swaps are possible
    /// (`None` = run to fixpoint, bounded by the `|V|`-round worst case).
    /// Table 8's "early stop" rows use `Some(1..=3)`.
    pub max_rounds: Option<u32>,
    /// Re-promote plain `N` vertices to `A` in the post-swap phase when
    /// they have the right number of IS neighbours.
    ///
    /// Algorithm 2's pseudo-code re-evaluates only `C`/`A` vertices, but
    /// the paper's own Figure 5 cascade requires `N` vertices to become
    /// swappable in later rounds (and Algorithm 3 does re-evaluate `N`),
    /// so this defaults to `true`; setting it `false` reproduces the
    /// pseudo-code verbatim (the `repro ablation` bench compares both).
    pub repromote_n: bool,
    /// End with one relaxed 0↔1 pass so the returned set is always
    /// maximal (never removes vertices). It replays the last post-swap
    /// pass's open vertices in memory and costs one extra scan only when
    /// no kept pass recorded them in full (see
    /// [`SwapStats::finish_scanned`]).
    pub finalize_maximal: bool,
    /// Candidate-fraction ceiling for the paged access path: a round's
    /// pre-swap pass goes through the buffer pool instead of a full file
    /// scan when the algorithm was given a
    /// [`mis_graph::NeighborAccess`] provider **and** the live candidate
    /// count is at most `paged_threshold · |V|`. `0.0` (the default)
    /// keeps every pass a sequential scan, which is the paper's verbatim
    /// access model.
    ///
    /// Meaningful values lie in `(0.0, 1.0]`: `1.0` pages every round
    /// that has an access provider, values around
    /// [`DEFAULT_PAGED_THRESHOLD`] page the typical post-Greedy rounds
    /// while keeping dense rounds on the cheaper streaming path. A
    /// negative, NaN, or `> 1.0` value is rejected by
    /// [`SwapConfig::validate`]; note that an explicit `0.0` **disables**
    /// paging entirely — callers that built a page cache should treat it
    /// as a configuration error rather than silently degenerate paging
    /// (the CLI does).
    pub paged_threshold: f64,
}

/// Default candidate fraction below which a round switches to paged
/// candidate verification (see [`SwapConfig::paged_threshold`]).
///
/// Because the paged pass visits candidates in storage order, its page
/// misses are monotone over the file and never exceed one scan's block
/// transfers — the threshold only bounds the CPU overhead of per-record
/// pool lookups. After a Greedy start the live candidate set is typically
/// 20–30% of `|V|`, so 0.3 lets every post-Greedy round page while
/// keeping genuinely dense rounds (e.g. from a Baseline start) on the
/// cheaper streaming path.
pub const DEFAULT_PAGED_THRESHOLD: f64 = 0.3;

impl Default for SwapConfig {
    fn default() -> Self {
        Self {
            max_rounds: None,
            repromote_n: true,
            finalize_maximal: true,
            paged_threshold: 0.0,
        }
    }
}

impl SwapConfig {
    /// The paper's early-stop configuration (Table 8): at most `rounds`
    /// rounds.
    pub fn early_stop(rounds: u32) -> Self {
        Self {
            max_rounds: Some(rounds),
            ..Self::default()
        }
    }

    /// Verbatim Algorithm 2 semantics (no `N` re-promotion, no finalise).
    pub fn verbatim() -> Self {
        Self {
            repromote_n: false,
            finalize_maximal: false,
            ..Self::default()
        }
    }

    /// Default configuration with the paged access path enabled at the
    /// default candidate-fraction threshold.
    pub fn paged() -> Self {
        Self {
            paged_threshold: DEFAULT_PAGED_THRESHOLD,
            ..Self::default()
        }
    }

    /// Sets the paged-path candidate-fraction threshold.
    pub fn with_paged_threshold(mut self, threshold: f64) -> Self {
        self.paged_threshold = threshold;
        self
    }

    /// The same configuration; the executor is ignored (see
    /// [`Executor`]).
    pub fn with_executor(self, _executor: Executor) -> Self {
        self
    }

    /// Checks the configuration for degenerate knob values.
    ///
    /// Rejects a [`SwapConfig::paged_threshold`] that is NaN, negative,
    /// or above `1.0` — such values either poison every comparison (NaN)
    /// or claim a candidate budget larger than the vertex set. `0.0` is
    /// accepted here because it is the documented "paging disabled"
    /// default; callers that paired the config with a page cache should
    /// reject an explicit zero themselves (see the CLI), since a cache
    /// that is never consulted is almost certainly a mistake.
    pub fn validate(&self) -> Result<(), String> {
        let t = self.paged_threshold;
        if t.is_nan() || !(0.0..=1.0).contains(&t) {
            return Err(format!(
                "paged_threshold must lie in [0.0, 1.0] (0 disables paging); got {t}"
            ));
        }
        Ok(())
    }
}

/// Instrumentation of one swap round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Vertices that entered the independent set this round.
    pub swapped_in: u64,
    /// Vertices that left the independent set this round.
    pub swapped_out: u64,
    /// Peak number of vertices held in SC sets during the round
    /// (two-k-swap only).
    pub sc_peak_vertices: u64,
}

impl RoundStats {
    /// Net change of the independent-set size.
    pub fn net_gain(&self) -> i64 {
        self.swapped_in as i64 - self.swapped_out as i64
    }
}

/// Instrumentation of a whole swap run (feeds Tables 7 and 8 and
/// Figure 10).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Per-round records, in order.
    pub rounds: Vec<RoundStats>,
    /// Size of the initial independent set.
    pub initial_size: u64,
    /// Size of the final independent set.
    pub final_size: u64,
    /// Peak SC vertex count over all rounds (two-k-swap only).
    pub sc_peak_vertices: u64,
    /// Rounds whose pre-swap pass used the paged access path instead of
    /// a full sequential scan, an undone round included.
    pub paged_rounds: u64,
    /// Whether two-k's shrink guard undid a last round. That round's
    /// passes count in `file_scans`, but it is not in `rounds`.
    pub rolled_back: bool,
    /// Whether the maximality finish scanned the file. It replays the
    /// last post-swap pass's open vertices in memory instead, unless no
    /// round ran, the last round was undone, or the open vertices
    /// outgrew their cap of |V| words.
    pub finish_scanned: bool,
}

impl SwapStats {
    /// Number of rounds executed (the paper's Table 7 metric).
    pub fn num_rounds(&self) -> u32 {
        self.rounds.len() as u32
    }

    /// Total vertices swapped into the set across all rounds.
    pub fn total_swapped_in(&self) -> u64 {
        self.rounds.iter().map(|r| r.swapped_in).sum()
    }

    /// Cumulative swapped-in count after the first `k` rounds, as a
    /// fraction of the total — the paper's Table 8 "swap ratio".
    pub fn swap_ratio_after(&self, k: usize) -> f64 {
        let total = self.total_swapped_in();
        if total == 0 {
            return 1.0;
        }
        let head: u64 = self.rounds.iter().take(k).map(|r| r.swapped_in).sum();
        head as f64 / total as f64
    }
}

/// A swap-algorithm result: the set plus the per-round statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapOutcome {
    /// The independent set and resource accounting.
    pub result: MisResult,
    /// Per-round swap statistics.
    pub stats: SwapStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_total_sums_components() {
        let m = MemoryModel {
            state_bytes: 10,
            isn_bytes: 40,
            sc_peak_bytes: 5,
            aux_bytes: 1,
            pager_bytes: 2,
        };
        assert_eq!(m.total(), 58);
    }

    #[test]
    fn swap_ratio_handles_empty_and_partial() {
        let mut stats = SwapStats::default();
        assert_eq!(stats.swap_ratio_after(3), 1.0);
        stats.rounds = vec![
            RoundStats {
                swapped_in: 70,
                swapped_out: 35,
                sc_peak_vertices: 0,
            },
            RoundStats {
                swapped_in: 20,
                swapped_out: 10,
                sc_peak_vertices: 0,
            },
            RoundStats {
                swapped_in: 10,
                swapped_out: 5,
                sc_peak_vertices: 0,
            },
        ];
        assert_eq!(stats.total_swapped_in(), 100);
        assert!((stats.swap_ratio_after(1) - 0.7).abs() < 1e-12);
        assert!((stats.swap_ratio_after(2) - 0.9).abs() < 1e-12);
        assert_eq!(stats.swap_ratio_after(10), 1.0);
        assert_eq!(stats.num_rounds(), 3);
    }

    #[test]
    fn round_net_gain() {
        let r = RoundStats {
            swapped_in: 5,
            swapped_out: 2,
            sc_peak_vertices: 0,
        };
        assert_eq!(r.net_gain(), 3);
    }

    #[test]
    fn default_config_is_paper_plus_fixes() {
        let c = SwapConfig::default();
        assert!(c.repromote_n);
        assert!(c.finalize_maximal);
        assert!(c.max_rounds.is_none());
        let v = SwapConfig::verbatim();
        assert!(!v.repromote_n);
        assert!(!v.finalize_maximal);
        assert_eq!(SwapConfig::early_stop(3).max_rounds, Some(3));
        // The scan-only access model is the default.
        assert_eq!(c.paged_threshold, 0.0);
        assert_eq!(SwapConfig::paged().paged_threshold, DEFAULT_PAGED_THRESHOLD);
        assert_eq!(
            SwapConfig::default()
                .with_paged_threshold(0.5)
                .paged_threshold,
            0.5
        );
        // An executor changes nothing.
        let parallel = SwapConfig::default().with_executor(Executor::parallel(3));
        assert_eq!(format!("{parallel:?}"), format!("{c:?}"));
    }

    #[test]
    fn validate_rejects_degenerate_thresholds() {
        assert!(SwapConfig::default().validate().is_ok());
        assert!(SwapConfig::paged().validate().is_ok());
        assert!(SwapConfig::default()
            .with_paged_threshold(1.0)
            .validate()
            .is_ok());
        for bad in [-0.1, 1.5, f64::NAN] {
            let err = SwapConfig::default()
                .with_paged_threshold(bad)
                .validate()
                .unwrap_err();
            assert!(err.contains("paged_threshold"), "{err}");
        }
    }
}
