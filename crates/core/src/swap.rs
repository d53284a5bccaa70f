//! The round driver of the swap algorithms (Algorithms 2–4).
//!
//! One-k-swap ([`OneKSwap`](crate::OneKSwap)) and two-k-swap
//! ([`TwoKSwap`](crate::TwoKSwap)) run the same round over six
//! per-vertex states (Table 3 of the paper):
//!
//! | state | meaning |
//! |---|---|
//! | `I` | in the independent set |
//! | `N` | not in the set |
//! | `A` | non-IS, adjacent to one (two-k: one or two) IS vertices: a swap candidate |
//! | `P` | protected — will enter the set this round |
//! | `C` | conflicted — lost this round's race to an adjacent `P` |
//! | `R` | retrograde — IS vertex leaving the set this round |
//!
//! [`Swap`] owns the state array and the whole round; an algorithm
//! supplies only its per-record rules ([`Rules`]) and the per-vertex data
//! they keep. A run is:
//!
//! 1. **init**: one scan that derives the `A` states from the initial
//!    set (lines 1–3 of Algorithms 2 and 3, [`init_candidate`]);
//! 2. per round, a **pre-swap** pass over the `A` vertices (swap
//!    skeletons and conflicts; earlier records preempt later ones, which
//!    resolves conflicts deterministically), an in-memory **swap** sweep
//!    (`P → I`, `R → N`; the paper phrases it as a scan, but it touches
//!    no adjacency data, so a round costs two file scans, not three) and a
//!    **post-swap** scan (0↔1 joins, and the `A` states of the next
//!    round). The pre-swap pass reads only the round's candidates through
//!    the buffer pool instead of scanning when an access provider exists
//!    and few candidates are live ([`select_paged_candidates`]);
//! 3. the **finish** (with `finalize_maximal`), which lets every vertex
//!    with no IS neighbour join, in storage order ([`OpenVertices`]).
//!
//! The run stops when a round moves no IS vertex out, after three rounds
//! in a row that do not grow the set, or at the round cap. A round that
//! would shrink the set is undone by the rules' [`Rules::roll_back`] (the
//! shrink guard; only two-k's nominations can shrink a round), and the
//! run goes straight to the finish. Each step is one span of the
//! algorithm's category, `<algo>.init|pre|swap|post|finalize`, and every
//! scan one `pass` span of the same name.
//!
//! [`Rules`] and the types its methods name are `pub` only so that the
//! public [`Swap`] may be bound by them; this module is private, so no
//! caller outside the crate can implement or call them.

use std::fmt;
use std::io;
use std::marker::PhantomData;

use mis_graph::{GraphScan, NeighborAccess, VertexId};

use crate::engine;
use crate::result::{MemoryModel, MisResult, RoundStats, SwapConfig, SwapOutcome, SwapStats};

/// No vertex: an empty slot or list.
pub(crate) const NONE: u32 = u32::MAX;

/// Vertex states; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum S {
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

/// What a post-swap step did with a vertex outside the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Post {
    /// It joined the set.
    Joined,
    /// It stays out with an IS neighbour.
    Covered,
    /// It stays out with no IS neighbour: open for the finish.
    Open,
}

/// The span category of an algorithm's steps and the name of each step.
/// A step that scans names its `pass` span the same.
pub struct Steps {
    /// The category, e.g. `"twok"`.
    pub cat: &'static str,
    /// The init pass.
    pub init: &'static str,
    /// A round's pre-swap pass, scanned or paged.
    pub pre: &'static str,
    /// A round's in-memory swap sweep.
    pub swap: &'static str,
    /// A round's post-swap scan.
    pub post: &'static str,
    /// The maximality finish.
    pub finalize: &'static str,
}

/// One swap algorithm's per-record rules and the per-vertex data they
/// keep besides the state. [`Swap`] calls them through generics.
pub trait Rules {
    /// The names of the algorithm's steps.
    const STEPS: Steps;
    /// Most IS neighbours a candidate may have (1 for one-k, 2 for two-k).
    const SLOTS: u32;

    /// The rules' data for the initial states: `I` for the members, `N`
    /// for the rest.
    fn new(state: &[S], config: &SwapConfig) -> Self;

    /// The init verdict: `v` became a candidate with IS neighbours `w1`
    /// and `w2` (`NONE` for a singleton).
    fn init(&mut self, v: VertexId, w1: u32, w2: u32);

    /// The pre-swap step of `u`, a candidate when its record arrives.
    fn pre_swap(&mut self, state: &mut [S], u: VertexId, ns: &[VertexId]);

    /// Vertices and modelled bytes held in SC sets after the pre-swap
    /// pass (two-k only).
    fn sc_held(&self) -> (u64, u64) {
        (0, 0)
    }

    /// The swap sweep, given the states before it: every `P` joins and
    /// every `R` leaves.
    fn sweep(&mut self, state: &[S]);

    /// The post-swap step of `u`, which is outside the set.
    fn post_swap(&mut self, state: &mut [S], u: VertexId, ns: &[VertexId]) -> Post;

    /// Flips back every membership change of the round (the shrink
    /// guard).
    fn roll_back(&mut self, state: &mut [S]);

    /// The rules' terms of the memory model: ISN and auxiliary bytes.
    fn memory(&self, n: usize) -> MemoryModel;
}

/// A swap algorithm: the round driver with the per-record rules `R`,
/// [`OneKSwap`](crate::OneKSwap) or [`TwoKSwap`](crate::TwoKSwap).
pub struct Swap<R> {
    config: SwapConfig,
    rules: PhantomData<fn() -> R>,
}

impl<R> Swap<R> {
    /// With default configuration (run to fixpoint, `N` re-promotion on,
    /// maximality finalisation on).
    pub fn new() -> Self {
        Self::with_config(SwapConfig::default())
    }

    /// With an explicit configuration.
    pub fn with_config(config: SwapConfig) -> Self {
        Self {
            config,
            rules: PhantomData,
        }
    }
}

impl<R> Default for Swap<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> Clone for Swap<R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for Swap<R> {}

impl<R> fmt::Debug for Swap<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Swap")
            .field("config", &self.config)
            .finish()
    }
}

impl<R: Rules> Swap<R> {
    /// Enlarges `initial` (an independent set of `graph`) by swaps.
    /// Panics on a storage error; see [`Swap::try_run_paged`].
    pub fn run<G: GraphScan + ?Sized>(&self, graph: &G, initial: &[VertexId]) -> SwapOutcome {
        self.run_paged(graph, None, initial)
    }

    /// [`Swap::try_run_paged`], panicking on a storage error.
    pub fn run_paged<G: GraphScan + ?Sized>(
        &self,
        graph: &G,
        access: Option<&dyn NeighborAccess>,
        initial: &[VertexId],
    ) -> SwapOutcome {
        self.try_run_paged(graph, access, initial)
            .expect("swap: storage read failed")
    }

    /// Enlarges `initial` (an independent set of `graph`) by swaps, with
    /// a random-access provider for the paged candidate-verification
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
        let config = &self.config;
        let steps = R::STEPS;
        let step = |name| mis_obs::span(steps.cat, name);
        let n = graph.num_vertices();
        let init_span = step(steps.init);
        let mut state = vec![S::N; n];
        for &v in initial {
            state[v as usize] = S::I;
        }
        let mut rules = R::new(&state, config);
        // The init pass turns only `N` vertices into `A`, so applying
        // each verdict as its record passes gives the states of applying
        // them all after the scan.
        let mut file_scans: u64 = 1;
        engine::pass(graph, steps.init, &mut |v, ns| {
            if let Some((w1, w2)) = init_candidate(&state, v, ns, R::SLOTS) {
                state[v as usize] = S::A;
                rules.init(v, w1, w2);
            }
        })?;
        drop(init_span);

        let mut stats = SwapStats {
            initial_size: initial.len() as u64,
            ..SwapStats::default()
        };
        // The worst case is n/3 rounds (Fig. 5).
        let round_cap = config.max_rounds.map_or(n.max(16), |r| r as usize);
        let mut stagnant_rounds = 0u32;
        let mut sc_peak_bytes = 0;
        let mut open = OpenVertices::new(if config.finalize_maximal { n } else { 0 });
        while stats.rounds.len() < round_cap {
            let mut round = RoundStats::default();

            let pre_span = step(steps.pre);
            let cands = select_paged_candidates(access, config.paged_threshold, &state)?;
            let mut pre = |u: VertexId, ns: &[VertexId]| {
                if state[u as usize] == S::A {
                    rules.pre_swap(&mut state, u, ns);
                }
            };
            match (access, cands) {
                (Some(access), Some(cands)) => {
                    for &u in &cands {
                        access.with_neighbors(u, &mut |ns| pre(u, ns))?;
                    }
                    stats.paged_rounds += 1;
                }
                _ => {
                    engine::pass(graph, steps.pre, &mut pre)?;
                    file_scans += 1;
                }
            }
            drop(pre_span);
            let (sc_vertices, sc_bytes) = rules.sc_held();
            round.sc_peak_vertices = sc_vertices;
            stats.sc_peak_vertices = stats.sc_peak_vertices.max(sc_vertices);
            sc_peak_bytes = sc_peak_bytes.max(sc_bytes);

            let swap_span = step(steps.swap);
            rules.sweep(&state);
            for s in &mut state {
                match *s {
                    S::P => {
                        *s = S::I;
                        round.swapped_in += 1;
                    }
                    S::R => {
                        *s = S::N;
                        round.swapped_out += 1;
                    }
                    _ => {}
                }
            }
            drop(swap_span);

            // Joins are visible to later records of the pass.
            let post_span = step(steps.post);
            file_scans += 1;
            open.start_pass();
            engine::pass(graph, steps.post, &mut |u, ns| {
                if state[u as usize] == S::I {
                    return;
                }
                match rules.post_swap(&mut state, u, ns) {
                    Post::Joined => round.swapped_in += 1,
                    Post::Open => open.record(u, ns),
                    Post::Covered => {}
                }
            })?;
            drop(post_span);

            if round.net_gain() < 0 {
                rules.roll_back(&mut state);
                open.discard();
                stats.rolled_back = true;
                break;
            }
            if round.net_gain() <= 0 {
                stagnant_rounds += 1;
            } else {
                stagnant_rounds = 0;
            }
            stats.rounds.push(round);
            // With no IS vertex out, the next round has nothing new to
            // swap; three size-neutral rounds in a row are degenerate
            // swaps that make no progress.
            if round.swapped_out == 0 || stagnant_rounds >= 3 {
                break;
            }
        }

        if config.finalize_maximal {
            let _span = step(steps.finalize);
            stats.finish_scanned = open.finish(graph, &mut state, steps.finalize)?;
            file_scans += u64::from(stats.finish_scanned);
        }

        let set: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| state[v as usize] == S::I)
            .collect();
        stats.final_size = set.len() as u64;
        let mut memory = MemoryModel {
            state_bytes: n as u64,
            sc_peak_bytes,
            pager_bytes: if stats.paged_rounds > 0 {
                access.map_or(0, |a| a.resident_bytes())
            } else {
                0
            },
            ..rules.memory(n)
        };
        // The finish's record of open vertices at its peak.
        memory.aux_bytes += open.peak_bytes();
        Ok(SwapOutcome {
            result: MisResult {
                set,
                file_scans,
                memory,
            },
            stats,
        })
    }
}

/// The initial `A`-state derivation (lines 1–3 of Algorithms 2 and 3):
/// the IS neighbours of a vertex `v` still `N`, when it has at least one
/// and at most `slots` of them. Returns `(w1, w2)`, with `w2 == NONE`
/// for a singleton.
fn init_candidate(state: &[S], v: VertexId, ns: &[VertexId], slots: u32) -> Option<(u32, u32)> {
    if state[v as usize] != S::N {
        return None;
    }
    let mut is_nbrs = ns.iter().copied().filter(|&u| state[u as usize] == S::I);
    let w1 = is_nbrs.next()?;
    let w2 = if slots == 2 { is_nbrs.next() } else { None };
    is_nbrs.next().is_none().then_some((w1, w2.unwrap_or(NONE)))
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
fn select_paged_candidates(
    access: Option<&dyn NeighborAccess>,
    threshold: f64,
    state: &[S],
) -> io::Result<Option<Vec<u32>>> {
    let Some(access) = access.filter(|_| threshold > 0.0) else {
        return Ok(None);
    };
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

/// Finalize's rule: a non-member with no IS neighbour joins.
fn join_if_free(state: &mut [S], u: VertexId, ns: &[VertexId]) {
    if state[u as usize] != S::I && ns.iter().all(|&nb| state[nb as usize] != S::I) {
        state[u as usize] = S::I;
    }
}

/// The finish that makes a swap run's set maximal: one relaxed 0↔1 pass
/// in storage order in which every vertex with no IS neighbour joins. It
/// never removes a vertex.
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
    fn new(cap: usize) -> Self {
        Self {
            cap,
            ..Self::default()
        }
    }

    /// Starts recording a post-swap pass in place of the last one.
    fn start_pass(&mut self) {
        self.words.clear();
        self.complete = true;
    }

    /// Records `u`, which the pass leaves outside the set with no IS
    /// neighbour; a record that would pass the cap is dropped.
    fn record(&mut self, u: VertexId, ns: &[VertexId]) {
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
    fn discard(&mut self) {
        self.words.clear();
        self.complete = false;
    }

    /// Bytes of the largest record held, for [`MemoryModel::aux_bytes`].
    fn peak_bytes(&self) -> u64 {
        4 * self.peak as u64
    }

    /// Makes `state`'s set maximal by replaying the record, or by one
    /// scan of `graph` (engine pass `name`) when the record is
    /// incomplete. Returns whether it scanned.
    fn finish<G: GraphScan + ?Sized>(
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
    use crate::{OneKSwap, TwoKSwap};
    use mis_graph::{CsrGraph, OrderedCsr};

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
                TwoKSwap::new().run(&scan, &[]),
                TwoKSwap::with_config(two_pass).run(&scan, &[]),
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
