//! Algorithms 3–4: the two-k-swap algorithm.
//!
//! Extends one-k-swap with 2↔k exchanges: two IS vertices `w1, w2` leave
//! together when three (or more) mutually non-adjacent vertices whose IS
//! neighbourhoods are contained in `{w1, w2}` can replace them. State `A`
//! now covers non-IS vertices with one **or two** IS neighbours; the
//! per-pair *swap candidate* sets `SC(w1, w2)` of Definition 2 collect
//! verified non-adjacent candidate pairs, and a *2-3 swap skeleton*
//! (Definition 3) fires when a third compatible vertex arrives.
//!
//! ## Soundness under sequential scanning
//!
//! A fired skeleton involves two vertices whose records were scanned
//! *earlier* (`a, b` of the stored pair) — their current neighbourhoods
//! are no longer in memory, so marking them `P` directly could put two
//! adjacent vertices into the set (if some vertex adjacent to `a` was
//! protected after `a`'s record passed). Instead this implementation
//! **nominates** them: they are conflicted out of further candidacy for
//! the round (`C` + a nomination flag) and join during the post-swap scan
//! — where their full neighbour list is back in memory — iff they still
//! have no IS neighbour. In the normal case this completes the paper's
//! 2↔k swap exactly (see the Figure 7 regression test); in the rare
//! interleaving where a nominee got blocked the round could shrink the
//! set, which is caught by a snapshot/rollback guard.
//!
//! This is a deliberate deviation from Algorithm 4, which protects all
//! three skeleton vertices in the pre-swap scan. Here only the third
//! vertex, whose record is in memory, turns `P` there; the stored pair
//! joins one scan later. The returned set is always independent and
//! never smaller than the round's input, but a round with a blocked
//! nominee can end differently from a literal reading of the pseudo-code.
//!
//! ## Swap-candidate storage
//!
//! A *singleton* is an `A` vertex with one IS neighbour `w`; the
//! pre-swap pass files it as a *half* under `w`. A *full* has two IS
//! neighbours and is filed under the *key* `(w1, w2)`, `w1 < w2`, which
//! also stores up to `PAIR_CAP` verified non-adjacent candidate pairs.
//! All of it lives in flat storage that is allocated once per run and
//! emptied per round, so filing a record allocates nothing:
//!
//! * halves per IS vertex, fulls per key, keys per IS vertex and pairs
//!   per key are circular singly linked lists that keep only their tail,
//!   threaded through `u32` link arrays;
//! * during one pre-swap pass the IS side (`I`, `R`) and the candidate
//!   side (`A`, `C`, `P`) never overlap, so one vertex-indexed array
//!   holds both an IS vertex's halves tail and a candidate's next link,
//!   and a second one holds each IS vertex's keys tail;
//! * the one map left sends `(w1, w2)` to a key id; key records and
//!   pairs live in reusable arenas;
//! * the neighbour test reads a bitmap over vertex ids, loaded from the
//!   record before its SC work and cleared after it.
//!
//! The paper's Lemma 6 bounds the vertices ever held in SC sets by
//! `|V| − e^α`, so per-vertex arrays stay within the semi-external
//! `O(|V|)` memory model.
//!
//! **List insertion order is part of the output contract.** `PAIR_CAP`
//! truncation and "the first stored pair that fires wins" both depend on
//! it, so every list is walked oldest first. `tests/twok_golden.rs` pins
//! the resulting sets and statistics.

use mis_graph::hash::FxHashMap;
use mis_graph::{GraphScan, NeighborAccess, VertexId};

use crate::engine;
use crate::onek::{finalize_maximal, select_paged_candidates, InitCandidates, NONE, S};
use crate::result::{MemoryModel, MisResult, RoundStats, SwapConfig, SwapOutcome, SwapStats};

/// Cap on stored candidate pairs per key. One valid pair is enough to
/// fire a skeleton; keeping a few tolerates pairs whose members are
/// adjacent to (or conflicted away from) a later third vertex, while
/// bounding SC memory. Figure 10's `|SC|` counts the distinct vertices
/// held in SC sets — filed fulls plus pair members — per round (the
/// paper's Lemma 6 metric), tracked by [`ScSets::hold`].
const PAIR_CAP: u32 = 16;

/// The two-k-swap algorithm (Algorithms 3 and 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoKSwap {
    config: SwapConfig,
}

/// Scratch state for one run.
struct Run {
    state: Vec<S>,
    /// First IS neighbour (for `A`), or dependant count (for `I`), or
    /// `NONE`.
    isn1: Vec<u32>,
    /// Second IS neighbour (for `A` with two IS neighbours), else `NONE`.
    isn2: Vec<u32>,
    /// Nominated-to-join flags for the current round.
    nominated: Vec<bool>,
}

impl Run {
    fn is_singleton_a(&self, v: u32) -> bool {
        self.state[v as usize] == S::A && self.isn2[v as usize] == NONE
    }
}

/// Appends `x` to the circular list whose tail is `tail` (`NONE` when
/// empty), threaded through `next`, and returns the new tail. Keeping
/// only the tail still gives O(1) appends and oldest-first walks, which
/// start at `next[tail]`.
fn ring_push(next: &mut [u32], tail: u32, x: u32) -> u32 {
    if tail == NONE {
        next[x as usize] = x;
    } else {
        next[x as usize] = next[tail as usize];
        next[tail as usize] = x;
    }
    x
}

/// Oldest-first cursor over a list built by [`ring_push`]. It holds no
/// borrow between steps, so the walker may update other SC state; the
/// list itself must not grow during the walk.
struct RingCursor {
    tail: u32,
    next: u32,
}

impl RingCursor {
    fn new(links: &[u32], tail: u32) -> Self {
        let next = if tail == NONE {
            NONE
        } else {
            links[tail as usize]
        };
        Self { tail, next }
    }

    fn step(&mut self, links: &[u32]) -> Option<u32> {
        let x = self.next;
        if x == NONE {
            return None;
        }
        self.next = if x == self.tail {
            NONE
        } else {
            links[x as usize]
        };
        Some(x)
    }
}

/// One SC set: the IS pair `w` (smaller id first), the fulls filed under
/// it and its stored candidate pairs.
struct Key {
    w: [u32; 2],
    /// Tail of the fulls filed under the key; links in [`ScSets::link`].
    fulls: u32,
    /// Tail of the stored pairs; links in [`ScSets::pair_next`].
    pairs: u32,
    /// Stored pairs, at most [`PAIR_CAP`].
    num_pairs: u32,
}

/// One round's swap-candidate sets in flat storage (see the module docs).
struct ScSets {
    /// IS vertex: tail of the halves filed under it. Candidate: next
    /// vertex in the halves or fulls list it was filed in.
    link: Vec<u32>,
    /// IS vertex: tail of the keys containing it. Key `k` is node `2k`
    /// in the list of `w[0]` and node `2k + 1` in the list of `w[1]`.
    key_tail: Vec<u32>,
    /// Links of the key nodes.
    key_next: Vec<u32>,
    key_ids: FxHashMap<(u32, u32), u32>,
    keys: Vec<Key>,
    /// Stored candidate pairs of every key, and their links.
    pairs: Vec<(u32, u32)>,
    pair_next: Vec<u32>,
    /// Neighbours of the record being filed, as a bitmap over vertex
    /// ids; all zero between records.
    nbrs: Vec<u64>,
    /// Vertices held in SC sets this round (bitmap), and their count.
    held: Vec<u64>,
    num_held: u64,
    /// Halves and fulls filed this round.
    num_filed: u64,
}

impl ScSets {
    fn new(n: usize) -> Self {
        Self {
            link: vec![NONE; n],
            key_tail: vec![NONE; n],
            key_next: Vec::new(),
            key_ids: FxHashMap::default(),
            keys: Vec::new(),
            pairs: Vec::new(),
            pair_next: Vec::new(),
            nbrs: vec![0; n.div_ceil(64)],
            held: vec![0; n.div_ceil(64)],
            num_held: 0,
            num_filed: 0,
        }
    }

    /// Empties every set for the next round, keeping the allocations.
    fn clear(&mut self) {
        self.link.fill(NONE);
        self.key_tail.fill(NONE);
        self.key_next.clear();
        self.key_ids.clear();
        self.keys.clear();
        self.pairs.clear();
        self.pair_next.clear();
        self.held.fill(0);
        self.num_held = 0;
        self.num_filed = 0;
    }

    /// The modelled SC bytes: 4 per filed vertex, 8 per stored pair.
    fn model_bytes(&self) -> u64 {
        4 * self.num_filed + 8 * self.pairs.len() as u64
    }

    /// Runs `f` with `ns` loaded into the neighbour bitmap.
    fn with_neighbors(&mut self, ns: &[VertexId], f: impl FnOnce(&mut Self)) {
        for &v in ns {
            self.nbrs[v as usize / 64] |= 1 << (v % 64);
        }
        f(self);
        for &v in ns {
            self.nbrs[v as usize / 64] = 0;
        }
    }

    fn is_neighbor(&self, v: u32) -> bool {
        self.nbrs[v as usize / 64] & (1 << (v % 64)) != 0
    }

    /// Counts `v` as held in an SC set this round.
    fn hold(&mut self, v: u32) {
        let (word, bit) = (v as usize / 64, 1u64 << (v % 64));
        if self.held[word] & bit == 0 {
            self.held[word] |= bit;
            self.num_held += 1;
        }
    }

    /// Whether both IS vertices of key `k` are still in the set.
    fn is_live(&self, run: &Run, k: u32) -> bool {
        self.keys[k as usize]
            .w
            .iter()
            .all(|&w| run.state[w as usize] == S::I)
    }

    fn push_pair(&mut self, k: u32, a: u32, b: u32) {
        let p = self.pairs.len() as u32;
        self.pairs.push((a, b));
        self.pair_next.push(NONE);
        let key = &mut self.keys[k as usize];
        key.pairs = ring_push(&mut self.pair_next, key.pairs, p);
        key.num_pairs += 1;
        self.hold(a);
        self.hold(b);
    }

    fn add_key(&mut self, w: [u32; 2]) -> u32 {
        let k = self.keys.len() as u32;
        self.key_ids.insert((w[0], w[1]), k);
        self.keys.push(Key {
            w,
            fulls: NONE,
            pairs: NONE,
            num_pairs: 0,
        });
        for (node, wi) in [2 * k, 2 * k + 1].into_iter().zip(w) {
            self.key_next.push(NONE);
            let tail = self.key_tail[wi as usize];
            self.key_tail[wi as usize] = ring_push(&mut self.key_next, tail, node);
        }
        k
    }

    /// Tries to complete a 2-3 swap skeleton of key `k` with `u` as the
    /// third vertex. On success: `u → P`, the pair is nominated, both IS
    /// vertices of the key `→ R`.
    fn fire(&self, run: &mut Run, k: u32, u: u32) -> bool {
        let key = &self.keys[k as usize];
        let mut pairs = RingCursor::new(&self.pair_next, key.pairs);
        while let Some(p) = pairs.step(&self.pair_next) {
            let (a, b) = self.pairs[p as usize];
            if a == u || b == u {
                continue;
            }
            if run.state[a as usize] == S::A
                && run.state[b as usize] == S::A
                && !self.is_neighbor(a)
                && !self.is_neighbor(b)
            {
                run.state[u as usize] = S::P;
                // Nominate the earlier-scanned pair: conflicted out of this
                // round's candidacy, joining at post-swap if still safe.
                for m in [a, b] {
                    to_conflicted(run, m);
                    run.nominated[m as usize] = true;
                }
                for w in key.w {
                    run.state[w as usize] = S::R;
                }
                return true;
            }
        }
        false
    }

    /// Pairs `u` with the fulls filed under key `k`, oldest first
    /// (mutual non-adjacency checked against `u`'s neighbour bitmap).
    fn pair_with_fulls(&mut self, run: &Run, k: u32, u: u32) {
        let mut fulls = RingCursor::new(&self.link, self.keys[k as usize].fulls);
        while let Some(a) = fulls.step(&self.link) {
            if self.keys[k as usize].num_pairs >= PAIR_CAP {
                break;
            }
            if a != u && run.state[a as usize] == S::A && !self.is_neighbor(a) {
                self.push_pair(k, a, u);
            }
        }
    }

    /// Singleton `u` with IS neighbour `w`: the third vertex of a 2-3
    /// skeleton of any live key containing `w`, or else paired with those
    /// keys' fulls and filed as a half of `w`.
    fn file_half(&mut self, run: &mut Run, u: u32, w: u32) {
        let mut keys = RingCursor::new(&self.key_next, self.key_tail[w as usize]);
        while let Some(node) = keys.step(&self.key_next) {
            if self.is_live(run, node / 2) && self.fire(run, node / 2, u) {
                return;
            }
        }
        let mut keys = RingCursor::new(&self.key_next, self.key_tail[w as usize]);
        while let Some(node) = keys.step(&self.key_next) {
            if self.is_live(run, node / 2) {
                self.pair_with_fulls(run, node / 2, u);
            }
        }
        let tail = self.link[w as usize];
        self.link[w as usize] = ring_push(&mut self.link, tail, u);
        self.num_filed += 1;
    }

    /// Full `u` with IS neighbours `w1, w2`: the third vertex of a 2-3
    /// skeleton of their key, or else paired with the key's compatible
    /// halves and fulls and filed under it.
    fn file_full(&mut self, run: &mut Run, u: u32, w1: u32, w2: u32) {
        let w = [w1.min(w2), w1.max(w2)];
        let found = self.key_ids.get(&(w[0], w[1])).copied();
        let k = match found {
            Some(k) => {
                if self.fire(run, k, u) {
                    return;
                }
                k
            }
            None => self.add_key(w),
        };
        // Halves of w1 and w2 …
        for wi in w {
            let mut halves = RingCursor::new(&self.link, self.link[wi as usize]);
            while let Some(h) = halves.step(&self.link) {
                if self.keys[k as usize].num_pairs >= PAIR_CAP {
                    break;
                }
                if run.is_singleton_a(h) && !self.is_neighbor(h) {
                    self.push_pair(k, u, h);
                }
            }
        }
        // … and other fulls of the same key.
        self.pair_with_fulls(run, k, u);
        let key = &mut self.keys[k as usize];
        key.fulls = ring_push(&mut self.link, key.fulls, u);
        self.hold(u);
        self.num_filed += 1;
    }
}

impl TwoKSwap {
    /// With default configuration.
    pub fn new() -> Self {
        Self {
            config: SwapConfig::default(),
        }
    }

    /// With an explicit configuration.
    pub fn with_config(config: SwapConfig) -> Self {
        Self { config }
    }

    /// Enlarges `initial` (an independent set of `graph`) by two-k and
    /// one-k swaps.
    pub fn run<G: GraphScan + ?Sized>(&self, graph: &G, initial: &[VertexId]) -> SwapOutcome {
        self.run_paged(graph, None, initial)
    }

    /// Like [`TwoKSwap::run`], with a random-access provider for the
    /// paged candidate-verification path.
    ///
    /// `access` must resolve the same graph in the same storage order as
    /// `graph`. Rounds with at most
    /// [`crate::SwapConfig::paged_threshold`]` · |V|` live candidates
    /// verify them through the buffer pool instead of re-scanning the
    /// whole file; the result is identical either way.
    pub fn run_paged<G: GraphScan + ?Sized>(
        &self,
        graph: &G,
        access: Option<&dyn NeighborAccess>,
        initial: &[VertexId],
    ) -> SwapOutcome {
        let n = graph.num_vertices();
        let mut run = Run {
            state: vec![S::N; n],
            isn1: vec![NONE; n],
            isn2: vec![NONE; n],
            nominated: vec![false; n],
        };
        for &v in initial {
            run.state[v as usize] = S::I;
            run.isn1[v as usize] = 0;
        }
        let mut file_scans: u64 = 0;
        let executor = self.config.executor;

        // Lines 1–3: initial A states (one or two IS neighbours); one
        // mergeable engine pass against the frozen I membership.
        file_scans += 1;
        let assignments = executor
            .run_pass(graph, &InitCandidates::new(&run.state, 2))
            .expect("scan failed");
        for (v, w1, w2) in assignments {
            run.state[v as usize] = S::A;
            run.isn1[v as usize] = w1;
            if w2 == NONE {
                run.isn1[w1 as usize] += 1;
            } else {
                run.isn2[v as usize] = w2;
            }
        }

        let mut stats = SwapStats {
            initial_size: initial.len() as u64,
            ..SwapStats::default()
        };
        let round_cap = self
            .config
            .max_rounds
            .map(|r| r as usize)
            .unwrap_or_else(|| n.max(16));
        let mut stagnant_rounds = 0u32;
        let mut sc_peak_bytes: u64 = 0;
        let mut current_size = initial.len() as u64;
        let mut sc = ScSets::new(n);

        let mut can_swap = true;
        while can_swap && stats.rounds.len() < round_cap {
            can_swap = false;
            let mut round = RoundStats::default();

            // Snapshot for the shrink guard (O(|V|) memory, allowed).
            let snapshot: Option<(Vec<S>, Vec<u32>, Vec<u32>)> =
                Some((run.state.clone(), run.isn1.clone(), run.isn2.clone()));

            // ---- Pre-swap pass (Algorithm 4 per A vertex): one full
            // scan, or paged candidate verification when few candidates
            // are live. ----
            let cands = select_paged_candidates(access, self.config.paged_threshold, &run.state);
            sc.clear();
            let rs = &mut run;
            let mut pre_body = |u: VertexId, ns: &[VertexId]| {
                if rs.state[u as usize] != S::A {
                    return;
                }
                // Case (i): conflict with an already-protected vertex.
                if ns.iter().any(|&nb| rs.state[nb as usize] == S::P) {
                    to_conflicted(rs, u);
                    return;
                }
                let w1 = rs.isn1[u as usize];
                let w2 = rs.isn2[u as usize];

                if w2 == NONE {
                    // Singleton A vertex (one IS neighbour w1).
                    match rs.state[w1 as usize] {
                        S::R => {
                            // Case (iv): all IS neighbours retreating.
                            rs.state[u as usize] = S::P;
                        }
                        S::I => {
                            // 1-2 skeleton via the ISN count trick.
                            let y = rs.isn1[w1 as usize];
                            let x = ns
                                .iter()
                                .filter(|&&nb| rs.isn1[nb as usize] == w1 && rs.is_singleton_a(nb))
                                .count() as u32;
                            if y >= x + 2 {
                                rs.state[u as usize] = S::P;
                                rs.state[w1 as usize] = S::R;
                                return;
                            }
                            sc.with_neighbors(ns, |sc| sc.file_half(rs, u, w1));
                        }
                        _ => {}
                    }
                } else {
                    // Full A vertex: ISN = {w1, w2}.
                    let s1 = rs.state[w1 as usize];
                    let s2 = rs.state[w2 as usize];
                    if s1 == S::R && s2 == S::R {
                        rs.state[u as usize] = S::P; // case (iv)
                        return;
                    }
                    if s1 != S::I || s2 != S::I {
                        return; // one neighbour stays: u cannot move yet
                    }
                    sc.with_neighbors(ns, |sc| sc.file_full(rs, u, w1, w2));
                }
            };
            if engine::candidate_pass(&executor, graph, access, cands, &mut pre_body) {
                stats.paged_rounds += 1;
            } else {
                file_scans += 1;
            }

            round.sc_peak_vertices = sc.num_held;
            stats.sc_peak_vertices = stats.sc_peak_vertices.max(sc.num_held);
            sc_peak_bytes = sc_peak_bytes.max(sc.model_bytes());

            // ---- Swap phase (in memory). ----
            for v in 0..n {
                match run.state[v] {
                    S::P => {
                        run.state[v] = S::I;
                        run.isn1[v] = 0;
                        run.isn2[v] = NONE;
                        round.swapped_in += 1;
                    }
                    S::R => {
                        run.state[v] = S::N;
                        run.isn1[v] = NONE;
                        run.isn2[v] = NONE;
                        round.swapped_out += 1;
                        can_swap = true;
                    }
                    _ => {}
                }
            }

            // Reset dependant counts before re-deriving A states.
            for v in 0..n {
                if run.state[v] == S::I {
                    run.isn1[v] = 0;
                }
            }

            // ---- Post-swap scan (Algorithm 3 lines 15–23);
            // order-dependent (nominee joins and 0↔1 promotions are
            // visible to later records), so it runs through the
            // engine's ordered fold. ----
            file_scans += 1;
            let rs = &mut run;
            let round_ref = &mut round;
            // Records already passed by this scan; needed so a nominee
            // joining mid-scan can repair the ISN state of *earlier*
            // neighbours (later records re-derive their state anyway).
            let mut seen = vec![false; n];
            executor
                .fold_ordered(graph, &mut |u, ns| {
                    seen[u as usize] = true;
                    let s = rs.state[u as usize];
                    if s == S::I {
                        return;
                    }
                    // Nominated vertices complete their 2↔k swap here,
                    // with the full neighbour list in memory.
                    if rs.nominated[u as usize]
                        && ns.iter().all(|&nb| rs.state[nb as usize] != S::I)
                    {
                        rs.state[u as usize] = S::I;
                        rs.isn1[u as usize] = 0;
                        rs.isn2[u as usize] = NONE;
                        rs.nominated[u as usize] = false;
                        round_ref.swapped_in += 1;
                        // Repair neighbours whose A state was derived
                        // before this join: u is now one of their IS
                        // neighbours. Without this, an earlier-scanned
                        // vertex could fire a 1-2 swap next round while
                        // secretly adjacent to u — breaking independence.
                        for &nb in ns {
                            if !seen[nb as usize] || rs.state[nb as usize] != S::A {
                                continue;
                            }
                            if rs.isn2[nb as usize] == NONE {
                                // Singleton gains a second IS neighbour.
                                let w = rs.isn1[nb as usize];
                                if w != NONE && rs.state[w as usize] == S::I {
                                    rs.isn1[w as usize] = rs.isn1[w as usize].saturating_sub(1);
                                }
                                rs.isn2[nb as usize] = u;
                            } else {
                                // Already two IS neighbours: now three.
                                rs.state[nb as usize] = S::N;
                                rs.isn1[nb as usize] = NONE;
                                rs.isn2[nb as usize] = NONE;
                            }
                        }
                        return;
                    }
                    rs.nominated[u as usize] = false;
                    // Re-derive A / N / 0↔1 (Algorithm 3 re-evaluates C,
                    // A and N alike).
                    let mut count = 0u32;
                    let (mut w1, mut w2) = (NONE, NONE);
                    let mut all_cn = true;
                    for &nb in ns {
                        match rs.state[nb as usize] {
                            S::I => {
                                count += 1;
                                if w1 == NONE {
                                    w1 = nb;
                                } else if w2 == NONE {
                                    w2 = nb;
                                }
                                all_cn = false;
                            }
                            S::C | S::N => {}
                            _ => all_cn = false,
                        }
                    }
                    match count {
                        1 => {
                            rs.state[u as usize] = S::A;
                            rs.isn1[u as usize] = w1;
                            rs.isn2[u as usize] = NONE;
                            rs.isn1[w1 as usize] += 1;
                        }
                        2 => {
                            rs.state[u as usize] = S::A;
                            rs.isn1[u as usize] = w1;
                            rs.isn2[u as usize] = w2;
                        }
                        _ => {
                            rs.state[u as usize] = S::N;
                            rs.isn1[u as usize] = NONE;
                            rs.isn2[u as usize] = NONE;
                            if count == 0 && all_cn {
                                rs.state[u as usize] = S::I;
                                rs.isn1[u as usize] = 0;
                                round_ref.swapped_in += 1;
                            }
                        }
                    }
                })
                .expect("scan failed");

            // Shrink guard: a blocked nominee can make a round lose
            // vertices; roll back and stop rather than return a smaller
            // set.
            let new_size = (current_size as i64 + round.net_gain()) as u64;
            if new_size < current_size {
                if let Some((s, i1, i2)) = snapshot {
                    run.state = s;
                    run.isn1 = i1;
                    run.isn2 = i2;
                }
                break;
            }
            current_size = new_size;

            if round.net_gain() <= 0 {
                stagnant_rounds += 1;
            } else {
                stagnant_rounds = 0;
            }
            stats.rounds.push(round);
            if stagnant_rounds >= 3 {
                break;
            }
        }

        if self.config.finalize_maximal {
            file_scans += 1;
            finalize_maximal(graph, &mut run.state, &executor);
        }

        let set: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| run.state[v as usize] == S::I)
            .collect();
        stats.final_size = set.len() as u64;
        SwapOutcome {
            result: MisResult {
                set,
                file_scans,
                memory: MemoryModel {
                    state_bytes: n as u64,
                    isn_bytes: 8 * n as u64,
                    sc_peak_bytes,
                    aux_bytes: n as u64, // nomination flags
                    pager_bytes: if stats.paged_rounds > 0 {
                        access.map_or(0, |a| a.resident_bytes())
                    } else {
                        0
                    },
                },
            },
            stats,
        }
    }
}

/// Marks `u` conflicted and maintains the singleton dependant count.
fn to_conflicted(run: &mut Run, u: u32) {
    if run.isn2[u as usize] == NONE {
        let w = run.isn1[u as usize];
        if w != NONE && run.state[w as usize] == S::I {
            run.isn1[w as usize] = run.isn1[w as usize].saturating_sub(1);
        }
    }
    run.state[u as usize] = S::C;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::Greedy;
    use crate::onek::OneKSwap;
    use crate::verify::{is_independent_set, is_maximal_independent_set};
    use mis_gen::figures;
    use mis_graph::{CsrGraph, OrderedCsr};

    fn run_figure(ex: &figures::FigureExample) -> SwapOutcome {
        let scan = match &ex.scan_order {
            Some(order) => OrderedCsr::new(&ex.graph, order.clone()),
            None => OrderedCsr::degree_sorted(&ex.graph),
        };
        TwoKSwap::new().run(&scan, &ex.initial_is)
    }

    #[test]
    fn figure7_full_trace() {
        // Example 3: the 2↔4 swap {v2,v3} → {v4,v5,v6,v8}, with v7
        // conflicted by v5 and v6.
        let ex = figures::figure7();
        let out = run_figure(&ex);
        assert_eq!(out.result.set, ex.expected_is);
        // Round 1: v6 and v8 enter at swap, v4 and v5 at post-swap: 4 in,
        // 2 out.
        assert_eq!(out.stats.rounds[0].swapped_in, 4);
        assert_eq!(out.stats.rounds[0].swapped_out, 2);
        // SC held candidates during the round.
        assert!(out.stats.sc_peak_vertices > 0);
    }

    #[test]
    fn handles_one_k_cases_too() {
        // Two-k subsumes one-k: Figures 1, 2, 4, 5 must come out at least
        // as well as one-k-swap's result.
        for ex in [
            figures::figure1(),
            figures::figure2(),
            figures::figure4(),
            figures::figure5(),
        ] {
            let out = run_figure(&ex);
            assert!(is_independent_set(&ex.graph, &out.result.set));
            assert!(
                out.result.set.len() >= ex.expected_is.len(),
                "two-k must match one-k's gains: got {:?}, one-k got {:?}",
                out.result.set,
                ex.expected_is
            );
        }
    }

    #[test]
    fn never_smaller_than_one_k_on_random_graphs() {
        for seed in 0..3 {
            let g = mis_gen::plrg::Plrg::with_vertices(1_500, 2.1)
                .seed(seed)
                .generate();
            let scan = OrderedCsr::degree_sorted(&g);
            let greedy = Greedy::new().run(&scan);
            let one = OneKSwap::new().run(&scan, &greedy.set);
            let two = TwoKSwap::new().run(&scan, &greedy.set);
            assert!(is_independent_set(&g, &two.result.set), "seed {seed}");
            assert!(
                is_maximal_independent_set(&g, &two.result.set),
                "seed {seed}"
            );
            assert!(
                two.result.set.len() + 1 >= one.result.set.len(),
                "seed {seed}: two-k {} vs one-k {}",
                two.result.set.len(),
                one.result.set.len()
            );
            assert!(two.result.set.len() >= greedy.set.len(), "seed {seed}");
        }
    }

    #[test]
    fn complete_bipartite_two_for_many() {
        // K_{2,5}: starting from the small side {0,1}, two-k-swap must
        // trade both for the five-vertex side in one round.
        let g = mis_gen::special::complete_bipartite(2, 5);
        let scan = OrderedCsr::degree_sorted(&g);
        let out = TwoKSwap::new().run(&scan, &[0, 1]);
        assert_eq!(out.result.set, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn one_k_cannot_crack_complete_bipartite() {
        // The same K_{2,5} is out of reach for 1↔k swaps: every candidate
        // has two IS neighbours. This is the separation the paper's
        // Section 6 motivates.
        let g = mis_gen::special::complete_bipartite(2, 5);
        let scan = OrderedCsr::degree_sorted(&g);
        let out = OneKSwap::with_config(SwapConfig {
            finalize_maximal: false,
            ..SwapConfig::default()
        })
        .run(&scan, &[0, 1]);
        assert_eq!(out.result.set, vec![0, 1]);
    }

    #[test]
    fn memory_model_reports_sc_peak() {
        let ex = figures::figure7();
        let out = run_figure(&ex);
        assert!(out.result.memory.sc_peak_bytes > 0);
        assert_eq!(out.result.memory.state_bytes, 8);
        assert_eq!(out.result.memory.isn_bytes, 64);
    }

    #[test]
    fn empty_graph_and_empty_set() {
        let g = CsrGraph::empty(3);
        let out = TwoKSwap::new().run(&g, &[]);
        // finalize_maximal promotes all isolated vertices.
        assert_eq!(out.result.set, vec![0, 1, 2]);
    }

    #[test]
    fn nomination_staleness_regression() {
        // Found by fuzzing (ER n=10, m=20, seed 246): vertex 9 is
        // re-evaluated in the post-swap scan *before* the nominated pair
        // {3, 5} joins, derived a stale singleton ISN {6}, and in round 2
        // fired a 1-2 swap that put it into the set next to 3 and 5. The
        // nominee join must repair already-scanned neighbours' ISN state.
        let edges = [
            (0, 1),
            (0, 4),
            (0, 8),
            (1, 2),
            (1, 4),
            (2, 3),
            (2, 5),
            (2, 7),
            (3, 4),
            (3, 8),
            (3, 9),
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 8),
            (5, 9),
            (6, 7),
            (6, 8),
            (6, 9),
            (7, 8),
        ];
        let g = CsrGraph::from_edges(10, &edges);
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        assert_eq!(greedy.set, vec![0, 2, 9]);
        let out = TwoKSwap::new().run(&sorted, &greedy.set);
        assert!(
            is_independent_set(&g, &out.result.set),
            "regression: {:?} must be independent",
            out.result.set
        );
        assert!(is_maximal_independent_set(&g, &out.result.set));
        assert!(out.result.set.len() >= greedy.set.len());
    }

    #[test]
    fn parallel_executor_is_byte_identical() {
        use crate::engine::Executor;
        for seed in 0..2 {
            let g = mis_gen::plrg::Plrg::with_vertices(1_500, 2.1)
                .seed(seed)
                .generate();
            let scan = OrderedCsr::degree_sorted(&g);
            let greedy = Greedy::new().run(&scan);
            let seq = TwoKSwap::new().run(&scan, &greedy.set);
            for threads in 1..=4 {
                let config = SwapConfig::default().with_executor(Executor::parallel(threads));
                let par = TwoKSwap::with_config(config).run(&scan, &greedy.set);
                assert_eq!(par, seq, "seed {seed}, threads {threads}");
            }
        }
    }

    #[test]
    fn paged_path_matches_scan_path_exactly() {
        for seed in 0..3 {
            let g = mis_gen::plrg::Plrg::with_vertices(2_000, 2.1)
                .seed(seed)
                .generate();
            let scan = OrderedCsr::degree_sorted(&g);
            let greedy = Greedy::new().run(&scan);
            let plain = TwoKSwap::new().run(&scan, &greedy.set);
            let paged = TwoKSwap::with_config(SwapConfig::default().with_paged_threshold(1.0))
                .run_paged(&scan, Some(&scan), &greedy.set);
            assert_eq!(paged.result.set, plain.result.set, "seed {seed}");
            assert_eq!(paged.stats.num_rounds(), plain.stats.num_rounds());
            assert!(paged.stats.paged_rounds >= plain.stats.num_rounds() as u64);
            assert_eq!(
                plain.result.file_scans - paged.result.file_scans,
                paged.stats.paged_rounds
            );
            assert!(paged.result.memory.pager_bytes == 0); // in-memory access path
        }
    }

    #[test]
    fn sc_peak_metric_counts_distinct_vertices() {
        // On Figure 7's graph exactly the key (v2, v3) forms with fulls
        // v4 (and the pair (v4, v5)) before firing: the SC metric must see
        // at least those two distinct vertices and at most all A vertices.
        let ex = figures::figure7();
        let out = run_figure(&ex);
        assert!(out.stats.sc_peak_vertices >= 2);
        assert!(out.stats.sc_peak_vertices <= 5);
    }
}
