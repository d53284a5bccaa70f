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
//! set, which the shrink guard (below) rolls back.
//!
//! This is a deliberate deviation from Algorithm 4, which protects all
//! three skeleton vertices in the pre-swap scan. Here only the third
//! vertex, whose record is in memory, turns `P` there; the stored pair
//! joins one scan later. The returned set is always independent and
//! never smaller than the round's input, but a round with a blocked
//! nominee can end differently from a literal reading of the pseudo-code.
//!
//! ## Per-vertex storage
//!
//! Every record's first check and every neighbour check read only the
//! vertex's one-byte state, so `state` stays an array of its own. The
//! rest of what a vertex carries is one 12-byte record `{isn1, isn2,
//! link}`, whose slots mean different things by state:
//!
//! | state | `isn1` | `isn2` | `link` |
//! |---|---|---|---|
//! | `A` | first IS neighbour | second IS neighbour, or `NONE` | next in its SC list while filed |
//! | `I`, `R` | dependant count | tail of its key list (pre-swap only) | tail of its halves list (pre-swap only) |
//! | other | `NONE` | `NONE` | `NONE` |
//!
//! Sharing is safe for two reasons. During a pre-swap pass the IS side
//! (`I`, `R`) and the candidate side (`A`, `C`, `P`) never overlap. And
//! no code reads an `I` or `R` vertex's `isn2` as an IS neighbour. A
//! candidate conflicted during the pass keeps its slots until the
//! post-swap pass re-derives it, since its `link` may still thread a
//! list. The swap sweep, which visits every vertex anyway, empties every
//! `link` and key tail, so each pre-swap pass starts from empty lists.
//! The per-vertex flags (nominated, blocked, seen by the post-swap pass,
//! held in an SC set, neighbour of the record in hand) are bitmaps
//! allocated once per run.
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
//!   per key are circular singly linked lists that keep only their tail;
//!   halves and fulls thread through the records' `link` slots, keys and
//!   pairs through two arrays of their own;
//! * a full finds its key by walking both IS vertices' key lists in
//!   lockstep, which costs at most twice the shorter list (on power-law
//!   graphs a few keys at most); key records and pairs live in reusable
//!   arenas;
//! * the neighbour test reads a bitmap over vertex ids, loaded from the
//!   record before its SC work and cleared after it. Most records have
//!   none: a half whose IS vertex has no key, or a full whose key is new
//!   and whose IS vertices have no halves, skips the load.
//!
//! Case (i), "a neighbour is already `P`", is one bit test. A vertex
//! turns `P` only while its own record is in hand (a 1-2 skeleton, case
//! (iv), or the third vertex of a fired 2-3 skeleton), and at that moment
//! it sets the `blocked` bit of each of its neighbours. Adjacency is
//! symmetric, so the bit equals "some neighbour is `P`".
//!
//! The paper's Lemma 6 bounds the vertices ever held in SC sets by
//! `|V| − e^α`, so per-vertex arrays stay within the semi-external
//! `O(|V|)` memory model.
//!
//! **List insertion order is part of the output contract.** `PAIR_CAP`
//! truncation and "the first stored pair that fires wins" both depend on
//! it, so every list is walked oldest first. `tests/twok_golden.rs` pins
//! the resulting sets and statistics.
//!
//! ## Shrink guard
//!
//! A round that would shrink the set is undone, and the run stops. The
//! round keeps an undo list of the vertices whose IS membership flipped:
//! `P → I` and `R → N` in the swap sweep, nominee joins and 0↔1 joins in
//! the post-swap pass. Flipping them back restores the round's input set
//! exactly. Membership is all that needs restoring, because after a
//! rollback the run goes straight to the maximality finish and the set
//! collection, and both read only "in the set or not". The undone pass's
//! open vertices (below) no longer describe the set, so the rollback
//! drops them and the finish scans the file. The stats report the undone
//! round as `rolled_back`; its passes count in `file_scans`.
//!
//! ## Maximality finish
//!
//! With `finalize_maximal` on, the run ends by letting every vertex with
//! no IS neighbour join, in storage order. The post-swap pass records
//! its *open* vertices as it goes: the non-members it leaves with no IS
//! neighbour (the `count == 0` case that does not join), each with its
//! neighbour list. The finish replays the rule over that record in
//! memory instead of scanning (`OpenVertices`, shared with one-k). The
//! result is the scan's exactly. The post-swap pass only adds members,
//! so a vertex that had an IS neighbour when its record passed can never
//! join, and the record visits the rest in storage order. The finish
//! scans instead when no round ran, after a rollback, or when the record
//! would pass |V| words; `finish_scanned` in the stats says which ran,
//! and the record's peak counts in `MemoryModel::aux_bytes`.

use std::io;

use mis_graph::{GraphScan, NeighborAccess, VertexId};

use crate::engine;
use crate::onek::{init_candidate, select_paged_candidates, OpenVertices, NONE, S};
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

/// A vertex's slots besides its state; what each holds depends on the
/// state (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Rec {
    isn1: u32,
    isn2: u32,
    link: u32,
}

impl Rec {
    /// Neither in the set nor a candidate.
    const EMPTY: Rec = Rec {
        isn1: NONE,
        isn2: NONE,
        link: NONE,
    };
    /// In the set, with no dependants and empty SC lists.
    const MEMBER: Rec = Rec {
        isn1: 0,
        isn2: NONE,
        link: NONE,
    };
}

/// A bitmap over vertex ids.
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: usize) -> Self {
        Self(vec![0; n.div_ceil(64)])
    }

    /// Bytes of a bitmap over `n` vertices.
    fn bytes(n: usize) -> u64 {
        8 * n.div_ceil(64) as u64
    }

    fn get(&self, v: u32) -> bool {
        self.0[v as usize / 64] & (1 << (v % 64)) != 0
    }

    fn set(&mut self, v: u32) {
        self.0[v as usize / 64] |= 1 << (v % 64);
    }

    fn unset(&mut self, v: u32) {
        self.0[v as usize / 64] &= !(1 << (v % 64));
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }
}

/// Scratch state for one run.
struct Run {
    state: Vec<S>,
    rec: Vec<Rec>,
    /// Nominated to join in this round's post-swap pass.
    nominated: Bits,
    /// Has a neighbour that turned `P` in this round's pre-swap pass.
    blocked: Bits,
    /// Vertices whose IS membership flipped this round, for the shrink
    /// guard.
    undo: Vec<u32>,
    /// The post-swap pass's open vertices, for the maximality finish.
    open: OpenVertices,
}

impl Run {
    fn is_singleton_a(&self, v: u32) -> bool {
        self.state[v as usize] == S::A && self.rec[v as usize].isn2 == NONE
    }

    /// Takes a singleton off the dependant count of its IS neighbour `w`.
    fn release(&mut self, w: u32) {
        if w != NONE && self.state[w as usize] == S::I {
            let count = &mut self.rec[w as usize].isn1;
            *count = count.saturating_sub(1);
        }
    }

    /// Marks `u` conflicted and maintains the singleton dependant count.
    fn conflict(&mut self, u: u32) {
        let r = self.rec[u as usize];
        if r.isn2 == NONE {
            self.release(r.isn1);
        }
        self.state[u as usize] = S::C;
    }

    /// Whether a singleton of IS vertex `w` with neighbours `ns` completes
    /// a 1-2 skeleton (the ISN count trick): besides itself and the `x`
    /// dependants of `w` among `ns`, `w` has another of its `y`
    /// dependants, i.e. `y ≥ x + 2`. The count stops as soon as that
    /// fails.
    fn one_two_skeleton(&self, w: u32, ns: &[VertexId]) -> bool {
        let y = self.rec[w as usize].isn1;
        let mut x = 0;
        y >= 2
            && ns.iter().all(|&nb| {
                if self.state[nb as usize] == S::A {
                    let r = self.rec[nb as usize];
                    x += u32::from(r.isn1 == w && r.isn2 == NONE);
                }
                x + 2 <= y
            })
    }

    /// The pre-swap step (Algorithm 4) of `A` vertex `u`.
    fn pre_swap(&mut self, sc: &mut ScSets, u: u32, ns: &[VertexId]) {
        // Case (i): conflict with an already-protected vertex.
        if self.blocked.get(u) {
            self.conflict(u);
            return;
        }
        let r = self.rec[u as usize];
        let (w1, w2) = (r.isn1, r.isn2);
        if w2 == NONE {
            // Singleton A vertex (one IS neighbour w1).
            match self.state[w1 as usize] {
                // Case (iv): all IS neighbours retreating.
                S::R => self.state[u as usize] = S::P,
                S::I if self.one_two_skeleton(w1, ns) => {
                    self.state[u as usize] = S::P;
                    self.state[w1 as usize] = S::R;
                }
                S::I => sc.file_half(self, u, w1, ns),
                _ => {}
            }
        } else {
            // Full A vertex: ISN = {w1, w2}.
            match (self.state[w1 as usize], self.state[w2 as usize]) {
                (S::R, S::R) => self.state[u as usize] = S::P, // case (iv)
                (S::I, S::I) => sc.file_full(self, u, w1, w2, ns),
                _ => {} // one neighbour stays: u cannot move yet
            }
        }
        if self.state[u as usize] == S::P {
            for &nb in ns {
                self.blocked.set(nb);
            }
        }
    }

    /// The post-swap step (Algorithm 3 lines 15–23) of `u`; `seen` holds
    /// the non-members this pass has already visited (members stay
    /// members during the pass, and only `A` vertices' bits are read).
    /// Returns whether `u` joined the set.
    fn post_swap(&mut self, u: u32, ns: &[VertexId], seen: &mut Bits) -> bool {
        if self.state[u as usize] == S::I {
            return false;
        }
        seen.set(u);
        // Nominated vertices complete their 2↔k swap here, with the full
        // neighbour list in memory.
        if self.nominated.get(u) {
            self.nominated.unset(u);
            if ns.iter().all(|&nb| self.state[nb as usize] != S::I) {
                self.join(u);
                // Repair neighbours whose A state was derived before this
                // join: u is now one of their IS neighbours. Without this,
                // an earlier-scanned vertex could fire a 1-2 swap next
                // round while secretly adjacent to u — breaking
                // independence.
                for &nb in ns {
                    if !seen.get(nb) || self.state[nb as usize] != S::A {
                        continue;
                    }
                    let r = self.rec[nb as usize];
                    if r.isn2 == NONE {
                        // Singleton gains a second IS neighbour.
                        self.release(r.isn1);
                        self.rec[nb as usize].isn2 = u;
                    } else {
                        // Already two IS neighbours: now three.
                        self.state[nb as usize] = S::N;
                        self.rec[nb as usize] = Rec::EMPTY;
                    }
                }
                return true;
            }
        }
        // Re-derive A / N / 0↔1 (Algorithm 3 re-evaluates C, A and N
        // alike). A third IS neighbour settles N.
        let mut count = 0u32;
        let (mut w1, mut w2) = (NONE, NONE);
        let mut all_cn = true;
        for &nb in ns {
            match self.state[nb as usize] {
                S::I => {
                    count += 1;
                    if count == 3 {
                        break;
                    }
                    if w1 == NONE {
                        w1 = nb;
                    } else {
                        w2 = nb;
                    }
                    all_cn = false;
                }
                S::C | S::N => {}
                _ => all_cn = false,
            }
        }
        match count {
            1 | 2 => {
                self.state[u as usize] = S::A;
                self.rec[u as usize] = Rec {
                    isn1: w1,
                    isn2: w2,
                    link: NONE,
                };
                if count == 1 {
                    self.rec[w1 as usize].isn1 += 1;
                }
                false
            }
            0 if all_cn => {
                self.join(u);
                true
            }
            _ => {
                self.state[u as usize] = S::N;
                self.rec[u as usize] = Rec::EMPTY;
                if count == 0 {
                    self.open.record(u, ns);
                }
                false
            }
        }
    }

    /// `u` joins the set in the post-swap pass.
    fn join(&mut self, u: u32) {
        self.state[u as usize] = S::I;
        self.rec[u as usize] = Rec::MEMBER;
        self.undo.push(u);
    }

    /// The shrink guard's rollback: flips back every membership change
    /// of the round, and drops the round's open vertices.
    fn roll_back(&mut self) {
        for &v in &self.undo {
            let s = &mut self.state[v as usize];
            *s = if *s == S::I { S::N } else { S::I };
        }
        self.open.discard();
    }
}

/// Where a list's links live: the records' `link` slots, or an array
/// of their own.
trait Links {
    fn next(&self, x: u32) -> u32;
    fn set_next(&mut self, x: u32, next: u32);
}

impl Links for Vec<u32> {
    fn next(&self, x: u32) -> u32 {
        self[x as usize]
    }

    fn set_next(&mut self, x: u32, next: u32) {
        self[x as usize] = next;
    }
}

impl Links for Vec<Rec> {
    fn next(&self, x: u32) -> u32 {
        self[x as usize].link
    }

    fn set_next(&mut self, x: u32, next: u32) {
        self[x as usize].link = next;
    }
}

/// Appends `x` to the circular list whose tail is `tail` (`NONE` when
/// empty), threaded through `links`, and returns the new tail. Keeping
/// only the tail still gives O(1) appends and oldest-first walks, which
/// start at the tail's successor.
fn ring_push(links: &mut impl Links, tail: u32, x: u32) -> u32 {
    if tail == NONE {
        links.set_next(x, x);
    } else {
        links.set_next(x, links.next(tail));
        links.set_next(tail, x);
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
    fn new(links: &impl Links, tail: u32) -> Self {
        let next = if tail == NONE { NONE } else { links.next(tail) };
        Self { tail, next }
    }

    fn step(&mut self, links: &impl Links) -> Option<u32> {
        let x = self.next;
        if x == NONE {
            return None;
        }
        self.next = if x == self.tail { NONE } else { links.next(x) };
        Some(x)
    }
}

/// One SC set: the IS pair `w` (smaller id first), the fulls filed under
/// it and its stored candidate pairs.
struct Key {
    w: [u32; 2],
    /// Tail of the fulls filed under the key; links in the records.
    fulls: u32,
    /// Tail of the stored pairs; links in [`ScSets::pair_next`].
    pairs: u32,
    /// Stored pairs, at most [`PAIR_CAP`].
    num_pairs: u32,
}

/// One round's swap-candidate sets in flat storage (see the module docs);
/// the halves and fulls lists and the key-list tails live in the vertex
/// records.
struct ScSets {
    /// Links of the key nodes. Key `k` is node `2k` in the key list of
    /// `w[0]` and node `2k + 1` in that of `w[1]`.
    key_next: Vec<u32>,
    keys: Vec<Key>,
    /// Stored candidate pairs of every key, and their links.
    pairs: Vec<(u32, u32)>,
    pair_next: Vec<u32>,
    /// Neighbours of the record being filed; all zero between records.
    nbrs: Bits,
    /// Vertices held in SC sets this round, and their count.
    held: Bits,
    num_held: u64,
    /// Halves and fulls filed this round.
    num_filed: u64,
}

impl ScSets {
    fn new(n: usize) -> Self {
        Self {
            key_next: Vec::new(),
            keys: Vec::new(),
            pairs: Vec::new(),
            pair_next: Vec::new(),
            nbrs: Bits::new(n),
            held: Bits::new(n),
            num_held: 0,
            num_filed: 0,
        }
    }

    /// Empties every set for the next round, keeping the allocations.
    /// The lists threaded through the records were emptied by the swap
    /// sweep.
    fn clear(&mut self) {
        self.key_next.clear();
        self.keys.clear();
        self.pairs.clear();
        self.pair_next.clear();
        self.held.clear();
        self.num_held = 0;
        self.num_filed = 0;
    }

    /// The modelled SC bytes: 4 per filed vertex, 8 per stored pair.
    fn model_bytes(&self) -> u64 {
        4 * self.num_filed + 8 * self.pairs.len() as u64
    }

    /// Runs `f` with `ns` loaded into the neighbour bitmap.
    fn with_neighbors<T>(&mut self, ns: &[VertexId], f: impl FnOnce(&mut Self) -> T) -> T {
        for &v in ns {
            self.nbrs.set(v);
        }
        let out = f(self);
        for &v in ns {
            self.nbrs.unset(v);
        }
        out
    }

    /// Counts `v` as held in an SC set this round.
    fn hold(&mut self, v: u32) {
        if !self.held.get(v) {
            self.held.set(v);
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

    /// The key of IS pair `w` (smaller id first), if one was filed this
    /// round. Walks both vertices' key lists in lockstep and stops when
    /// either ends, since the key would be in both.
    fn find_key(&self, run: &Run, w: [u32; 2]) -> Option<u32> {
        let mut lists = w.map(|wi| RingCursor::new(&self.key_next, run.rec[wi as usize].isn2));
        loop {
            for list in &mut lists {
                let k = list.step(&self.key_next)? / 2;
                if self.keys[k as usize].w == w {
                    return Some(k);
                }
            }
        }
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

    fn add_key(&mut self, run: &mut Run, w: [u32; 2]) -> u32 {
        let k = self.keys.len() as u32;
        self.keys.push(Key {
            w,
            fulls: NONE,
            pairs: NONE,
            num_pairs: 0,
        });
        for (node, wi) in [2 * k, 2 * k + 1].into_iter().zip(w) {
            self.key_next.push(NONE);
            let tail = &mut run.rec[wi as usize].isn2;
            *tail = ring_push(&mut self.key_next, *tail, node);
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
                && !self.nbrs.get(a)
                && !self.nbrs.get(b)
            {
                run.state[u as usize] = S::P;
                // Nominate the earlier-scanned pair: conflicted out of this
                // round's candidacy, joining at post-swap if still safe.
                for m in [a, b] {
                    run.conflict(m);
                    run.nominated.set(m);
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
        let mut fulls = RingCursor::new(&run.rec, self.keys[k as usize].fulls);
        while let Some(a) = fulls.step(&run.rec) {
            if self.keys[k as usize].num_pairs >= PAIR_CAP {
                break;
            }
            if a != u && run.state[a as usize] == S::A && !self.nbrs.get(a) {
                self.push_pair(k, a, u);
            }
        }
    }

    /// Singleton `u` with IS neighbour `w` and neighbours `ns`: the third
    /// vertex of a 2-3 skeleton of any live key containing `w`, or else
    /// paired with those keys' fulls and filed as a half of `w`. Most IS
    /// vertices have no key, and then `ns` is not loaded at all.
    fn file_half(&mut self, run: &mut Run, u: u32, w: u32, ns: &[VertexId]) {
        let keys = run.rec[w as usize].isn2;
        let fired = keys != NONE
            && self.with_neighbors(ns, |sc| {
                let mut nodes = RingCursor::new(&sc.key_next, keys);
                while let Some(node) = nodes.step(&sc.key_next) {
                    if sc.is_live(run, node / 2) && sc.fire(run, node / 2, u) {
                        return true;
                    }
                }
                let mut nodes = RingCursor::new(&sc.key_next, keys);
                while let Some(node) = nodes.step(&sc.key_next) {
                    if sc.is_live(run, node / 2) {
                        sc.pair_with_fulls(run, node / 2, u);
                    }
                }
                false
            });
        if !fired {
            let tail = run.rec[w as usize].link;
            run.rec[w as usize].link = ring_push(&mut run.rec, tail, u);
            self.num_filed += 1;
        }
    }

    /// Full `u` with IS neighbours `w1, w2` and neighbours `ns`: the third
    /// vertex of a 2-3 skeleton of their key, or else paired with the
    /// key's compatible halves and fulls and filed under it. A new key
    /// with no halves at either IS vertex has nothing to fire or pair
    /// with, and then `ns` is not loaded at all.
    fn file_full(&mut self, run: &mut Run, u: u32, w1: u32, w2: u32, ns: &[VertexId]) {
        let w = [w1.min(w2), w1.max(w2)];
        let found = self.find_key(run, w);
        let k = match found {
            Some(k) => k,
            None => self.add_key(run, w),
        };
        let has_work = found.is_some() || w.iter().any(|&wi| run.rec[wi as usize].link != NONE);
        let fired = has_work
            && self.with_neighbors(ns, |sc| {
                if found.is_some() && sc.fire(run, k, u) {
                    return true;
                }
                // Halves of w1 and w2 …
                for wi in w {
                    let mut halves = RingCursor::new(&run.rec, run.rec[wi as usize].link);
                    while let Some(h) = halves.step(&run.rec) {
                        if sc.keys[k as usize].num_pairs >= PAIR_CAP {
                            break;
                        }
                        if run.is_singleton_a(h) && !sc.nbrs.get(h) {
                            sc.push_pair(k, u, h);
                        }
                    }
                }
                // … and other fulls of the same key.
                sc.pair_with_fulls(run, k, u);
                false
            });
        if !fired {
            let key = &mut self.keys[k as usize];
            key.fulls = ring_push(&mut run.rec, key.fulls, u);
            self.hold(u);
            self.num_filed += 1;
        }
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
    /// one-k swaps. Panics on a storage error; see
    /// [`TwoKSwap::try_run_paged`].
    pub fn run<G: GraphScan + ?Sized>(&self, graph: &G, initial: &[VertexId]) -> SwapOutcome {
        self.run_paged(graph, None, initial)
    }

    /// [`TwoKSwap::try_run_paged`], panicking on a storage error.
    pub fn run_paged<G: GraphScan + ?Sized>(
        &self,
        graph: &G,
        access: Option<&dyn NeighborAccess>,
        initial: &[VertexId],
    ) -> SwapOutcome {
        self.try_run_paged(graph, access, initial)
            .expect("two-k swap: storage read failed")
    }

    /// Enlarges `initial` (an independent set of `graph`) by two-k and
    /// one-k swaps, with a random-access provider for the paged
    /// candidate-verification path. Returns the first scan or paged-read
    /// error.
    ///
    /// `access` must resolve the same graph in the same storage order as
    /// `graph`. Rounds with at most
    /// [`crate::SwapConfig::paged_threshold`]` · |V|` live candidates
    /// verify them through the buffer pool instead of re-scanning the
    /// whole file; the result is identical either way.
    pub fn try_run_paged<G: GraphScan + ?Sized>(
        &self,
        graph: &G,
        access: Option<&dyn NeighborAccess>,
        initial: &[VertexId],
    ) -> io::Result<SwapOutcome> {
        let n = graph.num_vertices();
        let init_span = mis_obs::span("twok", "twok.init");
        let mut run = Run {
            state: vec![S::N; n],
            rec: vec![Rec::EMPTY; n],
            nominated: Bits::new(n),
            blocked: Bits::new(n),
            undo: Vec::new(),
            open: OpenVertices::new(if self.config.finalize_maximal { n } else { 0 }),
        };
        for &v in initial {
            run.state[v as usize] = S::I;
            run.rec[v as usize] = Rec::MEMBER;
        }

        // Lines 1–3: initial A states (one or two IS neighbours); one
        // scan against the I membership, which it does not change.
        let mut file_scans: u64 = 1;
        engine::pass(graph, "twok.init", &mut |v, ns| {
            if let Some((w1, w2)) = init_candidate(&run.state, v, ns, 2) {
                run.state[v as usize] = S::A;
                run.rec[v as usize].isn1 = w1;
                if w2 == NONE {
                    run.rec[w1 as usize].isn1 += 1;
                } else {
                    run.rec[v as usize].isn2 = w2;
                }
            }
        })?;
        drop(init_span);

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
        // Non-members already passed by the post-swap scan; needed so a
        // nominee joining mid-scan can repair the ISN state of *earlier*
        // neighbours (later records re-derive their state anyway).
        let mut seen = Bits::new(n);

        let mut can_swap = true;
        while can_swap && stats.rounds.len() < round_cap {
            can_swap = false;
            let mut round = RoundStats::default();
            run.undo.clear();

            // ---- Pre-swap pass (Algorithm 4 per A vertex): one full
            // scan, or paged candidate verification when few candidates
            // are live. ----
            let pre_span = mis_obs::span("twok", "twok.pre");
            let cands = select_paged_candidates(access, self.config.paged_threshold, &run.state)?;
            sc.clear();
            run.blocked.clear();
            let (rs, scs) = (&mut run, &mut sc);
            let mut pre_body = |u: VertexId, ns: &[VertexId]| {
                if rs.state[u as usize] == S::A {
                    rs.pre_swap(scs, u, ns);
                }
            };
            if engine::candidate_pass(graph, access, cands, "twok.pre", &mut pre_body)? {
                stats.paged_rounds += 1;
            } else {
                file_scans += 1;
            }
            drop(pre_span);

            round.sc_peak_vertices = sc.num_held;
            stats.sc_peak_vertices = stats.sc_peak_vertices.max(sc.num_held);
            sc_peak_bytes = sc_peak_bytes.max(sc.model_bytes());

            // ---- Swap phase (in memory): P → I, R → N, every member's
            // dependant count reset, and every SC list emptied. ----
            let swap_span = mis_obs::span("twok", "twok.swap");
            let states = run.state.iter_mut().zip(run.rec.iter_mut());
            for (v, (s, rec)) in (0u32..).zip(states) {
                match *s {
                    S::P => {
                        *s = S::I;
                        *rec = Rec::MEMBER;
                        run.undo.push(v);
                        round.swapped_in += 1;
                    }
                    S::R => {
                        *s = S::N;
                        *rec = Rec::EMPTY;
                        run.undo.push(v);
                        round.swapped_out += 1;
                        can_swap = true;
                    }
                    S::I => *rec = Rec::MEMBER,
                    _ => rec.link = NONE,
                }
            }
            drop(swap_span);

            // ---- Post-swap scan (Algorithm 3 lines 15–23); nominee
            // joins and 0↔1 promotions are visible to later records. ----
            let post_span = mis_obs::span("twok", "twok.post");
            file_scans += 1;
            seen.clear();
            run.open.start_pass();
            let rs = &mut run;
            let round_ref = &mut round;
            engine::pass(graph, "twok.post", &mut |u, ns| {
                if rs.post_swap(u, ns, &mut seen) {
                    round_ref.swapped_in += 1;
                }
            })?;
            drop(post_span);

            // Shrink guard: a blocked nominee can make a round lose
            // vertices; roll back and stop rather than return a smaller
            // set.
            let new_size = (current_size as i64 + round.net_gain()) as u64;
            if new_size < current_size {
                run.roll_back();
                stats.rolled_back = true;
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
            let _span = mis_obs::span("twok", "twok.finalize");
            stats.finish_scanned = run.open.finish(graph, &mut run.state, "twok.finalize")?;
            file_scans += u64::from(stats.finish_scanned);
        }

        let set: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| run.state[v as usize] == S::I)
            .collect();
        stats.final_size = set.len() as u64;
        Ok(SwapOutcome {
            result: MisResult {
                set,
                file_scans,
                memory: MemoryModel {
                    state_bytes: n as u64,
                    isn_bytes: 8 * n as u64,
                    sc_peak_bytes,
                    // The records' shared `link` slot, five bitmaps
                    // (nominated, blocked, seen, held and neighbours) and
                    // the finish's record of open vertices at its peak.
                    aux_bytes: 4 * n as u64 + 5 * Bits::bytes(n) + run.open.peak_bytes(),
                    pager_bytes: if stats.paged_rounds > 0 {
                        access.map_or(0, |a| a.resident_bytes())
                    } else {
                        0
                    },
                },
            },
            stats,
        })
    }
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
        // The shared `link` slot, 4 B a vertex, and five one-word bitmaps.
        assert_eq!(out.result.memory.aux_bytes, 4 * 8 + 5 * 8);
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
