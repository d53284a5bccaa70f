//! Algorithm 2: the one-k-swap algorithm.
//!
//! Starting from a maximal independent set, repeatedly exchange one IS
//! vertex `w` for `k ≥ 2` non-IS vertices whose only IS neighbour is `w`.
//! Everything runs as sequential scans with six per-vertex states
//! (Table 3 of the paper):
//!
//! | state | meaning |
//! |---|---|
//! | `I` | in the independent set |
//! | `N` | not in the set |
//! | `A` | non-IS, adjacent to exactly one IS vertex (a swap candidate) |
//! | `P` | protected — will enter the set this round |
//! | `C` | conflicted — lost this round's race to an adjacent `P` |
//! | `R` | retrograde — IS vertex leaving the set this round |
//!
//! Each round is a **pre-swap** scan (detect 1-2 swap skeletons and
//! conflicts; earlier records preempt later ones, which resolves swap
//! conflicts deterministically), an in-memory **swap** (`P→I`, `R→N`; the
//! paper phrases this as a third scan, but it touches no adjacency data,
//! so this implementation performs it in memory — each round therefore
//! costs two file scans, not three), and a **post-swap** scan
//! (0↔1 swaps and re-derivation of `A` states for the next round).
//!
//! With `finalize_maximal` on, the run ends with the maximality finish
//! (every vertex with no IS neighbour joins, in storage order). The last
//! post-swap pass records the vertices it leaves open, and the finish
//! replays the rule over them in memory; it scans the file only when no
//! round ran or the record outgrew |V| words (`OpenVertices`, shared
//! with two-k-swap). Either way the set is the same.
//!
//! Skeleton detection uses the paper's `ISN`-reuse trick: for an IS vertex
//! `w` the `ISN` slot holds `y = |ISN⁻¹(w)|`, the number of live `A`
//! vertices pointing at `w`; a vertex `u` hosts a skeleton iff
//! `y − 1 − x ≥ 1` where `x` counts `u`'s own A-neighbours pointing at
//! `w` — an `O(deg u)` check with zero extra memory.

use std::io;

use mis_graph::{GraphScan, NeighborAccess, VertexId};

use crate::engine;
use crate::result::{MemoryModel, MisResult, RoundStats, SwapConfig, SwapOutcome, SwapStats};

pub(crate) const NONE: u32 = u32::MAX;

/// The initial `A`-state derivation shared by both swap algorithms
/// (lines 1–3 of Algorithms 2 and 3): the IS neighbours of a vertex `v`
/// still `N`, when it has at least one and at most `slots` of them
/// (1 for one-k-swap, 2 for two-k-swap). Returns `(w1, w2)`, with
/// `w2 == NONE` for a singleton.
///
/// The verdict reads only `v`'s own state and its neighbours' `I`
/// membership, and the init pass turns only `N` vertices into `A`, so
/// applying each verdict during the scan gives the same states as
/// applying them all after it.
pub(crate) fn init_candidate(
    state: &[S],
    v: VertexId,
    ns: &[VertexId],
    slots: u32,
) -> Option<(u32, u32)> {
    if state[v as usize] != S::N {
        return None;
    }
    let mut count = 0u32;
    let (mut w1, mut w2) = (NONE, NONE);
    for &u in ns {
        if state[u as usize] == S::I {
            count += 1;
            if w1 == NONE {
                w1 = u;
            } else if w2 == NONE {
                w2 = u;
            }
            if count > slots {
                return None;
            }
        }
    }
    (count >= 1).then_some((w1, if count == 2 { w2 } else { NONE }))
}

/// Collects one round's paged-path candidates: `Some(list)` sorted into
/// storage order when an access provider exists and at most
/// `threshold · |V|` vertices are in state `A`, else `None` (fall back to
/// a full scan).
///
/// The pre-swap pass only ever *acts* on vertices that are `A` when their
/// record arrives, and no vertex enters `A` during the pass — so visiting
/// exactly the round's initial `A` set, in storage order, reproduces the
/// full scan's behaviour (including its earlier-record-wins conflict
/// resolution) while reading only the candidates' records.
pub(crate) fn select_paged_candidates(
    access: Option<&dyn NeighborAccess>,
    threshold: f64,
    state: &[S],
) -> io::Result<Option<Vec<u32>>> {
    let Some(access) = access else {
        return Ok(None);
    };
    if threshold <= 0.0 {
        return Ok(None);
    }
    let limit = (threshold * state.len() as f64) as usize;
    let mut cands: Vec<u32> = Vec::new();
    for (v, &s) in state.iter().enumerate() {
        if s == S::A {
            if cands.len() >= limit {
                return Ok(None);
            }
            cands.push(v as u32);
        }
    }
    // Sized up front: a collect through `io::Result` would grow the
    // vector by doubling.
    let mut keyed = Vec::with_capacity(cands.len());
    for v in cands {
        keyed.push((access.record_rank(v)?, v));
    }
    keyed.sort_unstable();
    Ok(Some(keyed.into_iter().map(|(_, v)| v).collect()))
}

/// Vertex states; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum S {
    /// In the independent set.
    I,
    /// Not in the set.
    N,
    /// Adjacent swap candidate.
    A,
    /// Protected (entering this round).
    P,
    /// Conflicted this round.
    C,
    /// Retrograde (leaving this round).
    R,
}

/// The one-k-swap algorithm (Algorithm 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct OneKSwap {
    config: SwapConfig,
}

impl OneKSwap {
    /// With default configuration (run to fixpoint, `N` re-promotion on,
    /// maximality finalisation on).
    pub fn new() -> Self {
        Self {
            config: SwapConfig::default(),
        }
    }

    /// With an explicit configuration.
    pub fn with_config(config: SwapConfig) -> Self {
        Self { config }
    }

    /// Enlarges `initial` (which must be an independent set of `graph`)
    /// by one-k swaps. Panics on a storage error; see
    /// [`OneKSwap::try_run_paged`].
    pub fn run<G: GraphScan + ?Sized>(&self, graph: &G, initial: &[VertexId]) -> SwapOutcome {
        self.run_paged(graph, None, initial)
    }

    /// [`OneKSwap::try_run_paged`], panicking on a storage error.
    pub fn run_paged<G: GraphScan + ?Sized>(
        &self,
        graph: &G,
        access: Option<&dyn NeighborAccess>,
        initial: &[VertexId],
    ) -> SwapOutcome {
        self.try_run_paged(graph, access, initial)
            .expect("one-k swap: storage read failed")
    }

    /// Enlarges `initial` (an independent set of `graph`) by one-k swaps,
    /// with a random-access provider for the paged candidate-verification
    /// path. Returns the first scan or paged-read error.
    ///
    /// `access` must resolve the same graph in the same storage order as
    /// `graph` (e.g. a [`mis_graph::RandomAccessGraph`] over the very
    /// file being scanned). Rounds whose live candidate count is at most
    /// [`SwapConfig::paged_threshold`]` · |V|` then verify candidates
    /// through the buffer pool instead of re-scanning the whole file; the
    /// result is identical either way.
    pub fn try_run_paged<G: GraphScan + ?Sized>(
        &self,
        graph: &G,
        access: Option<&dyn NeighborAccess>,
        initial: &[VertexId],
    ) -> io::Result<SwapOutcome> {
        let n = graph.num_vertices();
        let mut state = vec![S::N; n];
        let mut isn = vec![NONE; n];
        for &v in initial {
            state[v as usize] = S::I;
            isn[v as usize] = 0; // count slot for IS vertices
        }
        // Lines 1–3: derive initial A states and ISN counts (one scan).
        let mut file_scans: u64 = 1;
        engine::pass(graph, "onek.init", &mut |v, ns| {
            if let Some((w, _)) = init_candidate(&state, v, ns, 1) {
                state[v as usize] = S::A;
                isn[v as usize] = w;
                isn[w as usize] += 1;
            }
        })?;

        let mut stats = SwapStats {
            initial_size: initial.len() as u64,
            ..SwapStats::default()
        };
        let round_cap = self
            .config
            .max_rounds
            .map(|r| r as usize)
            .unwrap_or_else(|| n.max(16)); // worst case is n/3 rounds (Fig. 5)
        let mut stagnant_rounds = 0u32;
        let mut open = OpenVertices::new(if self.config.finalize_maximal { n } else { 0 });

        let mut can_swap = true;
        while can_swap && stats.rounds.len() < round_cap {
            can_swap = false;
            let mut round = RoundStats::default();

            // ---- Pre-swap pass (lines 7–14): one full scan, or paged
            // candidate verification when few candidates are live. ----
            let cands = select_paged_candidates(access, self.config.paged_threshold, &state)?;
            let mut pre_body = |u: VertexId, ns: &[VertexId]| {
                if state[u as usize] != S::A {
                    return;
                }
                // Case (i): a neighbour already protected this round.
                if ns.iter().any(|&nb| state[nb as usize] == S::P) {
                    state[u as usize] = S::C;
                    let w = isn[u as usize] as usize;
                    if state[w] == S::I {
                        isn[w] = isn[w].saturating_sub(1);
                    }
                    return;
                }
                let w = isn[u as usize] as usize;
                match state[w] {
                    // Case (ii): a fresh 1-2 swap skeleton (u, v, w).
                    S::I => {
                        let y = isn[w];
                        let x = ns
                            .iter()
                            .filter(|&&nb| {
                                state[nb as usize] == S::A && isn[nb as usize] == w as u32
                            })
                            .count() as u32;
                        // Another A vertex with ISN = w, not u itself
                        // and not adjacent to u, must exist.
                        if y >= x + 2 {
                            state[u as usize] = S::P;
                            state[w] = S::R;
                        }
                    }
                    // Case (iii): join a swap already in progress.
                    S::R => state[u as usize] = S::P,
                    _ => {}
                }
            };
            if engine::candidate_pass(graph, access, cands, "onek.pre", &mut pre_body)? {
                stats.paged_rounds += 1;
            } else {
                file_scans += 1;
            }

            // ---- Swap phase (lines 15–19); in memory, no adjacency. ----
            for v in 0..n {
                match state[v] {
                    S::P => {
                        state[v] = S::I;
                        isn[v] = 0;
                        round.swapped_in += 1;
                    }
                    S::R => {
                        state[v] = S::N;
                        isn[v] = NONE;
                        round.swapped_out += 1;
                        can_swap = true;
                    }
                    _ => {}
                }
            }

            // Reset dependant counts before re-deriving A states.
            for v in 0..n {
                if state[v] == S::I {
                    isn[v] = 0;
                }
            }

            // ---- Post-swap scan (lines 20–28); 0↔1 promotions are
            // visible to later records. It records the vertices it leaves
            // open for the finish. ----
            file_scans += 1;
            open.start_pass();
            engine::pass(graph, "onek.post", &mut |u, ns| {
                let s = state[u as usize];
                if s == S::I || s == S::P || s == S::R {
                    return;
                }
                if s == S::N && !self.config.repromote_n {
                    // Verbatim Algorithm 2: plain N vertices only get the
                    // 0↔1 check.
                    if ns
                        .iter()
                        .all(|&nb| matches!(state[nb as usize], S::C | S::N))
                    {
                        state[u as usize] = S::I;
                        isn[u as usize] = 0;
                        round.swapped_in += 1;
                    } else if ns.iter().all(|&nb| state[nb as usize] != S::I) {
                        open.record(u, ns);
                    }
                    return;
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
                } else if count == 0 && all_cn {
                    state[u as usize] = S::I;
                    isn[u as usize] = 0;
                    round.swapped_in += 1;
                } else {
                    state[u as usize] = S::N;
                    isn[u as usize] = NONE;
                    if count == 0 {
                        open.record(u, ns);
                    }
                }
            })?;

            if round.net_gain() <= 0 {
                stagnant_rounds += 1;
            } else {
                stagnant_rounds = 0;
            }
            stats.rounds.push(round);
            if stagnant_rounds >= 3 {
                break; // degenerate size-neutral swaps; no progress possible
            }
        }

        if self.config.finalize_maximal {
            stats.finish_scanned = open.finish(graph, &mut state, "onek.finalize")?;
            file_scans += u64::from(stats.finish_scanned);
        }

        let set: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| state[v as usize] == S::I)
            .collect();
        stats.final_size = set.len() as u64;
        Ok(SwapOutcome {
            result: MisResult {
                set,
                file_scans,
                memory: MemoryModel {
                    state_bytes: n as u64,
                    isn_bytes: 4 * n as u64,
                    // The finish's record of open vertices at its peak.
                    aux_bytes: open.peak_bytes(),
                    pager_bytes: if stats.paged_rounds > 0 {
                        access.map_or(0, |a| a.resident_bytes())
                    } else {
                        0
                    },
                    ..MemoryModel::default()
                },
            },
            stats,
        })
    }
}

/// Finalize's rule: a non-member with no IS neighbour joins.
fn join_if_free(state: &mut [S], u: VertexId, ns: &[VertexId]) {
    if state[u as usize] != S::I && ns.iter().all(|&nb| state[nb as usize] != S::I) {
        state[u as usize] = S::I;
    }
}

/// The finish that makes a swap run's set maximal (shared with
/// two-k-swap): one relaxed 0↔1 pass in storage order in which every
/// vertex with no IS neighbour joins. It never removes a vertex.
///
/// A post-swap pass only ever adds members, so a non-member that had an
/// IS neighbour when its record passed still has one when the pass ends
/// and cannot join in the finish. Only the pass's *open* vertices can:
/// the non-members it left with no IS neighbour. This record keeps them
/// with their neighbour lists, in storage order, so the finish replays
/// the rule over them in memory: the same joins in the same order as a
/// scan, without reading the file. It scans instead when no standing
/// pass was recorded in full: no round ran, the shrink guard undid the
/// last one, or the pass outgrew the cap.
#[derive(Debug, Default)]
pub(crate) struct OpenVertices {
    /// `u, deg(u), N(u)…` per open vertex, in storage order.
    words: Vec<u32>,
    /// Whether `words` holds every open vertex of the last post-swap
    /// pass, and that pass's result stands.
    complete: bool,
    /// Most words a pass may record; 0 records nothing.
    cap: usize,
    /// Most words held at once.
    peak: usize,
}

impl OpenVertices {
    /// A record of at most `cap` words (|V| when the run finalizes, 0
    /// when it does not).
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            cap,
            ..Self::default()
        }
    }

    /// Starts recording a post-swap pass in place of the last one.
    pub(crate) fn start_pass(&mut self) {
        self.words.clear();
        self.complete = true;
    }

    /// Records `u`, which the pass leaves outside the set with no IS
    /// neighbour; a record that would pass the cap is dropped.
    pub(crate) fn record(&mut self, u: VertexId, ns: &[VertexId]) {
        if !self.complete {
            return;
        }
        if self.words.len() + 2 + ns.len() > self.cap {
            self.discard();
            return;
        }
        self.words.push(u);
        self.words.push(ns.len() as u32);
        self.words.extend_from_slice(ns);
        self.peak = self.peak.max(self.words.len());
    }

    /// Drops the record: the pass's result was undone.
    pub(crate) fn discard(&mut self) {
        self.words.clear();
        self.complete = false;
    }

    /// Bytes of the largest record held, for [`MemoryModel::aux_bytes`].
    pub(crate) fn peak_bytes(&self) -> u64 {
        4 * self.peak as u64
    }

    /// Makes `state`'s set maximal by replaying the record, or by one
    /// scan of `graph` (engine pass `name`) when the record is
    /// incomplete. Returns whether it scanned.
    pub(crate) fn finish<G: GraphScan + ?Sized>(
        &self,
        graph: &G,
        state: &mut [S],
        name: &'static str,
    ) -> io::Result<bool> {
        if !self.complete {
            engine::pass(graph, name, &mut |u, ns| join_if_free(state, u, ns))?;
            return Ok(true);
        }
        let mut rest = self.words.as_slice();
        while let [u, deg, tail @ ..] = rest {
            let (ns, next) = tail.split_at(*deg as usize);
            join_if_free(state, *u, ns);
            rest = next;
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::Greedy;
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
    fn open_vertices_past_the_cap_finish_by_scan() {
        // A star scanned leaf 0, hub 5, leaves 1–4, from the empty set:
        // the post-swap pass lets leaf 0 join, makes the hub a candidate
        // and leaves leaves 1–4 open, 12 words against a cap of 6. The
        // finish scans and gives the two-pass set.
        let g = CsrGraph::from_edges(6, &[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
        let scan = OrderedCsr::new(&g, vec![0, 5, 1, 2, 3, 4]);
        let two_pass = SwapConfig {
            finalize_maximal: false,
            ..SwapConfig::default()
        };
        let outcomes = [
            (
                OneKSwap::new().run(&scan, &[]),
                OneKSwap::with_config(two_pass).run(&scan, &[]),
            ),
            (
                crate::TwoKSwap::new().run(&scan, &[]),
                crate::TwoKSwap::with_config(two_pass).run(&scan, &[]),
            ),
        ];
        for (out, unfinished) in outcomes {
            assert_eq!(unfinished.result.set, vec![0]);
            assert_eq!(out.result.set, vec![0, 1, 2, 3, 4]);
            assert!(out.stats.finish_scanned);
            assert_eq!(out.result.file_scans, unfinished.result.file_scans + 1);
        }
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

    #[test]
    fn select_paged_candidates_respects_threshold_and_order() {
        let state = vec![S::A, S::N, S::A, S::I, S::A];
        let g = CsrGraph::empty(5);
        // Reverse storage order via OrderedCsr: ranks are 4,3,2,1,0.
        let ordered = OrderedCsr::new(&g, vec![4, 3, 2, 1, 0]);
        let access: &dyn mis_graph::NeighborAccess = &ordered;
        // No provider or zero threshold: scan fallback.
        let select = |access, threshold| select_paged_candidates(access, threshold, &state);
        assert!(select(None, 1.0).unwrap().is_none());
        assert!(select(Some(access), 0.0).unwrap().is_none());
        // Three A vertices over a 2-candidate budget (0.5 * 5): fallback.
        assert!(select(Some(access), 0.5).unwrap().is_none());
        // Budget fits: candidates come back in storage (reverse-id) order.
        assert_eq!(select(Some(access), 1.0).unwrap(), Some(vec![4, 2, 0]));
    }
}
