//! Edge-update overlays — substrate for the paper's "incremental
//! massive graphs with frequent updates" future-work direction.
//!
//! Rewriting a multi-gigabyte adjacency file for every batch of edge
//! updates defeats the point of the semi-external model. The types here
//! keep the base representation untouched and overlay an in-memory set
//! of **inserted** edges plus **tombstones** for deleted ones: scans
//! merge the extra neighbours into each record and filter the
//! tombstoned ones on the fly, so every algorithm in `mis-core` runs on
//! the edited graph unchanged.
//!
//! Three views share one overlay representation:
//!
//! * [`DeltaOverlay`] — the owned overlay state itself (insertions,
//!   tombstones, exact edge-count bookkeeping), independent of any base
//!   graph;
//! * [`DeltaGraph`] — a borrowing view: `&base + DeltaOverlay`, the
//!   classic build-edit-scan workflow of the update subsystem;
//! * [`PinnedDelta`] — an **owning, epoch-pinned** view: a cheaply
//!   cloneable base handle plus an `Arc<DeltaOverlay>` stamped with the
//!   WAL epoch it reflects. This is the snapshot-isolation substrate of
//!   `mis_update`: readers scan a `PinnedDelta` while later epochs
//!   append and compact underneath, and the overlay is shared by
//!   refcount instead of copied per reader.
//!
//! ## Layout
//!
//! The read side of a [`DeltaOverlay`] is two flat arrays:
//!
//! * `slot` — one `u32` per vertex: a sentinel for a vertex the overlay
//!   does not edit, otherwise the offset of the vertex's lists in
//!   `arena`;
//! * `arena` — every *touched* vertex's lists: a two-word header
//!   (tombstone count, extra count), then its tombstones ascending, then
//!   its extras ascending. Lists of `len` entries own
//!   `len.next_power_of_two().max(2)` words; a list that outgrows them
//!   moves to the arena's end and leaves its old words unused, which
//!   bounds the waste by the live words.
//!
//! The write side is one map from each edited pair to its state (see
//! [`DeltaOverlay::insert_edge`]). Scans never touch it.
//!
//! ## Canonical order
//!
//! A merged record is the base record minus its tombstones, in base
//! order, followed by its extras in ascending id order; extras that
//! duplicate a base neighbour are skipped. The record therefore depends
//! only on the edge set the overlay encodes, never on the order of the
//! edits that produced it.
//!
//! ## Per-record cost
//!
//! An untouched record costs one `slot` load and is handed to the scan
//! callback without a copy. A touched record of base degree `d` with `t`
//! tombstones and `e` extras is copied once into a scratch buffer:
//! `O(d log t)` to filter, `O(d e)` to skip duplicate extras. There is
//! no hash probe and no per-vertex allocation anywhere on the scan path.
//!
//! When the edits grow past the memory budget, compact them into a new
//! base file and start a fresh overlay (see `mis_update`'s log
//! compaction).

use std::io;
use std::sync::Arc;

use crate::hash::FxHashMap;
use crate::scan::GraphScan;
use crate::VertexId;

/// `slot` value of a vertex the overlay does not edit.
const UNTOUCHED: u32 = u32::MAX;

/// Arena words in front of each touched vertex's lists: the tombstone
/// count, then the extra count.
const HEADER: usize = 2;

/// Arena words a touched vertex's lists own while they hold `len`
/// entries. A vertex's lists never shrink (an edited pair only changes
/// sides), so this is always the room at its offset.
fn capacity(len: usize) -> usize {
    len.next_power_of_two().max(2)
}

/// Where an edited pair sits, and whether it moves the running count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairState {
    /// Merged into both endpoints' records. `counted`: a fresh insert,
    /// one of `added_edges`; otherwise a deleted base edge brought back.
    Extra { counted: bool },
    /// Filtered out of both endpoints' records. `counted`: a deleted
    /// base edge, one of `deleted_edges`; otherwise a retracted overlay
    /// insert, kept so a base copy shadowed by a duplicate insert stays
    /// deleted too.
    Tombstone { counted: bool },
}

/// Owned overlay state: inserted and deleted edges, independent of the
/// base graph they will be laid over.
///
/// Each edited pair is either an *extra* neighbour of both endpoints
/// (merged into records at scan time) or a *tombstone* (filtered out of
/// records at scan time), and the last operation on a pair wins, so
/// scans always reflect a per-pair replay of the edit stream, even for
/// streams that insert edges the base already has or delete edges that
/// never existed. The running edge *count* is exact for valid streams
/// (inserts name absent edges, deletes name present ones) and merely
/// drifts for invalid ones; see [`DeltaGraph::count_edges_exact`].
///
/// See the [module docs](self) for the flat layout and the canonical
/// order of merged records.
#[derive(Debug, Default, Clone)]
pub struct DeltaOverlay {
    /// Per vertex: `UNTOUCHED`, or the offset of its header in `arena`.
    /// Empty until the first edit sizes it to the base's vertex count.
    slot: Vec<u32>,
    /// Each touched vertex's header, tombstones and extras.
    arena: Vec<VertexId>,
    /// Last-wins state of every edited pair, keyed by `(min, max)`.
    pairs: FxHashMap<(VertexId, VertexId), PairState>,
    added_edges: u64,
    deleted_edges: u64,
}

fn pair_key(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    (u.min(v), u.max(v))
}

fn check_endpoints(n: usize, u: VertexId, v: VertexId) {
    assert!(
        (u as usize) < n && (v as usize) < n,
        "edge ({u}, {v}) out of range for {n} vertices"
    );
}

impl DeltaOverlay {
    /// An empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an undirected edge; `n` is the base vertex count the
    /// endpoints are validated against. Self-loops are ignored.
    /// Re-inserting a tombstoned edge resurrects it; inserting an edge
    /// that is already live — in the base file or the overlay — leaves
    /// scans unchanged (records dedup against the base at scan time),
    /// though a duplicate of a *base* edge inflates the running count by
    /// one, since base membership cannot be checked without a scan.
    pub fn insert_edge(&mut self, n: usize, u: VertexId, v: VertexId) {
        check_endpoints(n, u, v);
        if u == v {
            return;
        }
        let key = pair_key(u, v);
        let state = match self.pairs.get(&key) {
            Some(PairState::Extra { .. }) => return,
            // Undoing a counted (base-edge) deletion restores the base
            // count.
            Some(PairState::Tombstone { counted: true }) => {
                self.deleted_edges -= 1;
                PairState::Extra { counted: false }
            }
            // A fresh insert, or the re-insert of a retracted one.
            Some(PairState::Tombstone { counted: false }) | None => {
                self.added_edges += 1;
                PairState::Extra { counted: true }
            }
        };
        self.pairs.insert(key, state);
        self.file(n, u, v, true);
        self.file(n, v, u, true);
    }

    /// Deletes an undirected edge: the pair becomes a tombstone,
    /// retracting any overlay insertion *and* filtering any base copy
    /// out of subsequent scans. Deleting the same edge twice is a no-op;
    /// deleting an edge that never existed leaves scans unchanged but
    /// deflates the running count by one.
    pub fn delete_edge(&mut self, n: usize, u: VertexId, v: VertexId) {
        check_endpoints(n, u, v);
        if u == v {
            return;
        }
        let key = pair_key(u, v);
        let state = match self.pairs.get(&key) {
            Some(PairState::Tombstone { .. }) => return,
            // Retracting a fresh insert.
            Some(PairState::Extra { counted: true }) => {
                self.added_edges -= 1;
                PairState::Tombstone { counted: false }
            }
            // Deleting a base edge, possibly one brought back earlier.
            Some(PairState::Extra { counted: false }) | None => {
                self.deleted_edges += 1;
                PairState::Tombstone { counted: true }
            }
        };
        self.pairs.insert(key, state);
        self.file(n, u, v, false);
        self.file(n, v, u, false);
    }

    /// Files `x` in `v`'s extras (`extra`) or tombstones, taking it off
    /// the other list first when the pair changes sides. Both lists stay
    /// ascending.
    fn file(&mut self, n: usize, v: VertexId, x: VertexId, extra: bool) {
        if self.slot.len() < n {
            self.slot.resize(n, UNTOUCHED);
        }
        let v = v as usize;
        if self.slot[v] == UNTOUCHED {
            self.slot[v] = arena_offset(self.arena.len());
            self.arena
                .resize(self.arena.len() + HEADER + capacity(0), 0);
        }
        let mut at = self.slot[v] as usize;
        let mut tombs = self.arena[at] as usize;
        let mut len = tombs + self.arena[at + 1] as usize;

        let other = if extra { 0..tombs } else { tombs..len };
        let list = &mut self.arena[at + HEADER..at + HEADER + len];
        match list[other.clone()].binary_search(&x) {
            // The pair changes sides: take `x` off the other list.
            Ok(i) => {
                list.copy_within(other.start + i + 1..len, other.start + i);
                len -= 1;
                if extra {
                    tombs -= 1;
                }
            }
            // A new pair for `v`: move the lists if their words are full.
            Err(_) if len == capacity(len) => at = self.relocate(v, at, len),
            Err(_) => {}
        }

        let list = &mut self.arena[at + HEADER..at + HEADER + len + 1];
        let own = if extra { tombs..len } else { 0..tombs };
        let j = own.start + list[own].partition_point(|&y| y < x);
        list.copy_within(j..len, j + 1);
        list[j] = x;
        if !extra {
            tombs += 1;
        }
        self.arena[at] = tombs as VertexId;
        self.arena[at + 1] = (len + 1 - tombs) as VertexId;
    }

    /// Moves `v`'s full lists (`len` entries at `at`) to the arena's end
    /// with room for one more entry; returns the new offset.
    fn relocate(&mut self, v: usize, at: usize, len: usize) -> usize {
        let to = self.arena.len();
        self.arena.extend_from_within(at..at + HEADER + len);
        self.arena.resize(to + HEADER + capacity(len + 1), 0);
        self.slot[v] = arena_offset(to);
        to
    }

    /// `v`'s tombstones and extras, both ascending, or `None` when the
    /// overlay does not edit `v`.
    fn lists(&self, v: VertexId) -> Option<(&[VertexId], &[VertexId])> {
        let at = *self.slot.get(v as usize)?;
        if at == UNTOUCHED {
            return None;
        }
        let at = at as usize;
        let tombs = self.arena[at] as usize;
        let len = tombs + self.arena[at + 1] as usize;
        Some(self.arena[at + HEADER..at + HEADER + len].split_at(tombs))
    }

    /// Number of live overlay insertions (undirected).
    pub fn added_edges(&self) -> u64 {
        self.added_edges
    }

    /// Number of live tombstones (undirected).
    pub fn deleted_edges(&self) -> u64 {
        self.deleted_edges
    }

    /// Whether the overlay holds no edits at all.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Approximate overlay memory in bytes (the semi-external budget the
    /// overlay consumes): the slot and arena words plus the per-pair
    /// states.
    pub fn overlay_bytes(&self) -> u64 {
        let pair = std::mem::size_of::<((VertexId, VertexId), PairState)>();
        (4 * (self.slot.len() + self.arena.len()) + pair * self.pairs.len()) as u64
    }

    /// Whether the overlay edits `v`'s record at all (extra neighbours
    /// or tombstones).
    pub fn touches(&self, v: VertexId) -> bool {
        self.lists(v).is_some()
    }

    /// Merges the overlay into one base record: `merged` receives `ns`
    /// minus tombstones, then the extra neighbours ascending (the
    /// canonical order). Returns `false` (leaving `merged` untouched)
    /// when the overlay does not edit `v`, so callers can hand the base
    /// slice through without a copy.
    pub fn merge_record(&self, v: VertexId, ns: &[VertexId], merged: &mut Vec<VertexId>) -> bool {
        let Some((dead, extra)) = self.lists(v) else {
            return false;
        };
        merged.clear();
        if dead.is_empty() {
            merged.extend_from_slice(ns);
        } else {
            merged.extend(
                ns.iter()
                    .copied()
                    .filter(|u| dead.binary_search(u).is_err()),
            );
        }
        // Tolerate inserts that duplicate base edges.
        merged.extend(extra.iter().copied().filter(|u| !ns.contains(u)));
        true
    }

    /// Scans `base` with the overlay merged in — the shared scan shape
    /// of every overlay view.
    fn scan_over<G: GraphScan + ?Sized>(
        &self,
        base: &G,
        f: &mut dyn FnMut(VertexId, &[VertexId]),
    ) -> io::Result<()> {
        let mut merged: Vec<VertexId> = Vec::new();
        base.scan(&mut |v, ns| {
            if self.merge_record(v, ns, &mut merged) {
                f(v, &merged);
            } else {
                f(v, ns);
            }
        })
    }
}

/// `at` as a `slot` entry.
fn arena_offset(at: usize) -> u32 {
    u32::try_from(at)
        .ok()
        .filter(|&at| at != UNTOUCHED)
        .expect("overlay arena exceeds u32 offsets")
}

/// A base graph plus an in-memory batch of inserted and deleted edges.
///
/// The borrowing overlay view: see [`DeltaOverlay`] for the replay
/// semantics and [`PinnedDelta`] for the owning, epoch-pinned variant.
#[derive(Debug)]
pub struct DeltaGraph<'a, G: GraphScan + ?Sized> {
    base: &'a G,
    overlay: DeltaOverlay,
}

impl<'a, G: GraphScan + ?Sized> DeltaGraph<'a, G> {
    /// Wraps `base` with an empty overlay.
    pub fn new(base: &'a G) -> Self {
        Self {
            base,
            overlay: DeltaOverlay::new(),
        }
    }

    /// The overlay state itself.
    pub fn overlay(&self) -> &DeltaOverlay {
        &self.overlay
    }

    /// Consumes the view, returning the overlay (to pin it, share it, or
    /// lay it over another base).
    pub fn into_overlay(self) -> DeltaOverlay {
        self.overlay
    }

    /// Inserts an undirected edge — see [`DeltaOverlay::insert_edge`].
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        self.overlay.insert_edge(self.base.num_vertices(), u, v);
    }

    /// Deletes an undirected edge — see [`DeltaOverlay::delete_edge`].
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) {
        self.overlay.delete_edge(self.base.num_vertices(), u, v);
    }

    /// Inserts a batch of edges.
    pub fn insert_edges(&mut self, edges: impl IntoIterator<Item = (VertexId, VertexId)>) {
        for (u, v) in edges {
            self.insert_edge(u, v);
        }
    }

    /// Deletes a batch of edges.
    pub fn delete_edges(&mut self, edges: impl IntoIterator<Item = (VertexId, VertexId)>) {
        for (u, v) in edges {
            self.delete_edge(u, v);
        }
    }

    /// Number of live overlay insertions (undirected).
    pub fn added_edges(&self) -> u64 {
        self.overlay.added_edges()
    }

    /// Number of live tombstones (undirected).
    pub fn deleted_edges(&self) -> u64 {
        self.overlay.deleted_edges()
    }

    /// Counts the edited graph's edges exactly with one scan, regardless
    /// of duplicate-base inserts or phantom deletes in the overlay (see
    /// [`GraphScan::num_edges`]'s caveat on this type).
    pub fn count_edges_exact(&self) -> io::Result<u64> {
        let mut directed = 0u64;
        self.scan(&mut |_, ns| directed += ns.len() as u64)?;
        Ok(directed / 2)
    }

    /// Approximate overlay memory in bytes — see
    /// [`DeltaOverlay::overlay_bytes`].
    pub fn overlay_bytes(&self) -> u64 {
        self.overlay.overlay_bytes()
    }
}

impl<G: GraphScan + ?Sized> GraphScan for DeltaGraph<'_, G> {
    fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// `base + inserted − deleted`. Exact for valid edit streams (inserts
    /// name absent edges, deletes name present ones); an insert that
    /// duplicates a base edge or a delete of a non-existent edge drifts
    /// this count while leaving scans correct — use
    /// [`DeltaGraph::count_edges_exact`] when the stream is untrusted.
    fn num_edges(&self) -> u64 {
        self.base.num_edges() + self.overlay.added_edges() - self.overlay.deleted_edges()
    }

    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        self.overlay.scan_over(self.base, f)
    }

    fn storage(&self) -> &'static str {
        "delta-overlay"
    }
}

/// An **owning, epoch-pinned** overlay view: a cheaply cloneable base
/// handle plus a refcounted [`DeltaOverlay`], stamped with the update
/// epoch the overlay reflects.
///
/// This is the read side of snapshot isolation in `mis_update`: a
/// snapshot builds the overlay once, wraps it in an `Arc`, and every
/// reader clones the `PinnedDelta` — the overlay is shared, the view is
/// immutable, and the pinned epoch never moves while writers commit
/// later epochs underneath.
#[derive(Debug, Clone)]
pub struct PinnedDelta<G: GraphScan> {
    base: G,
    overlay: Arc<DeltaOverlay>,
    epoch: u64,
}

impl<G: GraphScan> PinnedDelta<G> {
    /// Pins `overlay` (which must reflect every committed operation up
    /// to and including `epoch`) over `base`.
    pub fn new(base: G, overlay: Arc<DeltaOverlay>, epoch: u64) -> Self {
        Self {
            base,
            overlay,
            epoch,
        }
    }

    /// The update epoch this view is pinned at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The base graph handle.
    pub fn base(&self) -> &G {
        &self.base
    }

    /// The shared overlay.
    pub fn overlay(&self) -> &Arc<DeltaOverlay> {
        &self.overlay
    }

    /// Merges the overlay into one base record for point queries:
    /// given `v`'s *base* neighbour list, returns the pinned view's
    /// neighbour list (tombstones filtered, insertions appended).
    pub fn merge_neighbors(&self, v: VertexId, base_ns: &[VertexId]) -> Vec<VertexId> {
        let mut merged = Vec::new();
        if !self.overlay.merge_record(v, base_ns, &mut merged) {
            merged.extend_from_slice(base_ns);
        }
        merged
    }
}

impl<G: GraphScan> GraphScan for PinnedDelta<G> {
    fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// `base + inserted − deleted` — same caveat as
    /// [`DeltaGraph::num_edges`].
    fn num_edges(&self) -> u64 {
        self.base.num_edges() + self.overlay.added_edges() - self.overlay.deleted_edges()
    }

    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        self.overlay.scan_over(&self.base, f)
    }

    fn storage(&self) -> &'static str {
        "pinned-delta"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    fn base() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2)])
    }

    fn records<G: GraphScan + ?Sized>(g: &G) -> Vec<(VertexId, Vec<VertexId>)> {
        let mut records = Vec::new();
        g.scan(&mut |v, ns| {
            let mut sorted = ns.to_vec();
            sorted.sort_unstable();
            records.push((v, sorted));
        })
        .unwrap();
        records
    }

    #[test]
    fn overlay_merges_into_records() {
        let g = base();
        let mut delta = DeltaGraph::new(&g);
        delta.insert_edge(0, 3);
        delta.insert_edge(3, 4);
        assert_eq!(delta.num_edges(), 4);
        let records = records(&delta);
        assert_eq!(records[0], (0, vec![1, 3]));
        assert_eq!(records[3], (3, vec![0, 4]));
        assert_eq!(records[2], (2, vec![1]));
    }

    #[test]
    fn duplicate_and_self_loop_inserts_are_ignored() {
        let g = base();
        let mut delta = DeltaGraph::new(&g);
        delta.insert_edge(2, 2);
        delta.insert_edge(3, 4);
        delta.insert_edge(4, 3);
        assert_eq!(delta.added_edges(), 1);
        // Re-inserting a base edge does not double it in the record.
        delta.insert_edge(0, 1);
        let mut deg0 = 0;
        delta
            .scan(&mut |v, ns| {
                if v == 0 {
                    deg0 = ns.len();
                }
            })
            .unwrap();
        assert_eq!(deg0, 1);
    }

    #[test]
    fn deleting_a_base_edge_tombstones_both_directions() {
        let g = base();
        let mut delta = DeltaGraph::new(&g);
        delta.delete_edge(1, 2);
        assert_eq!(delta.num_edges(), 1);
        assert_eq!(delta.deleted_edges(), 1);
        let records = records(&delta);
        assert_eq!(records[1], (1, vec![0]));
        assert_eq!(records[2], (2, vec![]));
        // Deleting again is a no-op.
        delta.delete_edge(2, 1);
        assert_eq!(delta.deleted_edges(), 1);
    }

    #[test]
    fn deleting_an_overlay_insert_retracts_it() {
        let g = base();
        let mut delta = DeltaGraph::new(&g);
        delta.insert_edge(3, 4);
        delta.delete_edge(4, 3);
        assert_eq!(delta.added_edges(), 0);
        assert_eq!(delta.deleted_edges(), 0);
        assert_eq!(delta.num_edges(), g.num_edges());
        let records = records(&delta);
        assert_eq!(records[3], (3, vec![]));
        assert_eq!(records[4], (4, vec![]));
    }

    #[test]
    fn reinserting_a_deleted_base_edge_resurrects_it() {
        let g = base();
        let mut delta = DeltaGraph::new(&g);
        delta.delete_edge(0, 1);
        delta.insert_edge(1, 0);
        assert_eq!(delta.added_edges(), 0);
        assert_eq!(delta.deleted_edges(), 0);
        let records = records(&delta);
        assert_eq!(records[0], (0, vec![1]));
        assert_eq!(records[1], (1, vec![0, 2]));
    }

    #[test]
    fn interleaved_edits_match_a_materialised_graph() {
        let g = base();
        let mut delta = DeltaGraph::new(&g);
        delta.insert_edge(0, 4);
        delta.delete_edge(1, 2);
        delta.insert_edge(2, 3);
        delta.delete_edge(0, 4); // retract the overlay insert again
        delta.insert_edge(1, 2); // resurrect the base edge
        delta.delete_edge(0, 1);
        // Expected edit result: {(1,2), (2,3)}.
        let expected = CsrGraph::from_edges(5, &[(1, 2), (2, 3)]);
        assert_eq!(delta.num_edges(), expected.num_edges());
        assert_eq!(records(&delta), records(&expected));
    }

    #[test]
    fn deleting_a_base_edge_behind_a_duplicate_insert_still_deletes_it() {
        // Inserting an edge the base already has, then deleting it: the
        // delete must retract the overlay copy AND tombstone the base
        // copy (last write wins per pair).
        let g = base();
        let mut delta = DeltaGraph::new(&g);
        delta.insert_edge(0, 1); // duplicate of a base edge
        delta.delete_edge(0, 1);
        let recs = records(&delta);
        assert_eq!(recs[0], (0, vec![]));
        assert_eq!(recs[1], (1, vec![2]));
        assert_eq!(delta.count_edges_exact().unwrap(), 1);
        // Re-inserting brings it back.
        delta.insert_edge(0, 1);
        assert_eq!(records(&delta)[0], (0, vec![1]));
    }

    #[test]
    fn delete_insert_delete_chain_keeps_counts_exact() {
        let g = base();
        let mut delta = DeltaGraph::new(&g);
        // Valid stream on a base edge: delete, resurrect, delete again.
        delta.delete_edge(0, 1);
        delta.insert_edge(0, 1);
        delta.delete_edge(0, 1);
        assert_eq!(delta.num_edges(), 1);
        assert_eq!(delta.count_edges_exact().unwrap(), 1);
        // Valid stream on a fresh edge: insert, delete, insert again.
        delta.insert_edge(3, 4);
        delta.delete_edge(3, 4);
        delta.insert_edge(3, 4);
        assert_eq!(delta.num_edges(), 2);
        assert_eq!(delta.count_edges_exact().unwrap(), 2);
        assert_eq!(records(&delta)[3], (3, vec![4]));
    }

    /// Every record in scan order, neighbours in the order the view
    /// hands them out.
    fn raw_records<G: GraphScan + ?Sized>(g: &G) -> Vec<(VertexId, Vec<VertexId>)> {
        let mut records = Vec::new();
        g.scan(&mut |v, ns| records.push((v, ns.to_vec()))).unwrap();
        records
    }

    #[test]
    fn edit_histories_with_one_final_edge_set_scan_identically() {
        // Both histories end at {(0,1), (0,3), (0,4), (2,3)} over the
        // base path 0-1-2.
        let g = base();
        let mut a = DeltaGraph::new(&g);
        a.insert_edge(0, 4);
        a.insert_edge(3, 0);
        a.delete_edge(1, 2);
        a.insert_edge(2, 3);
        let mut b = DeltaGraph::new(&g);
        b.insert_edge(2, 3);
        b.delete_edge(0, 1); // a base edge deleted, then brought back
        b.insert_edge(4, 2); // an insert retracted again
        b.insert_edge(0, 3);
        b.delete_edge(2, 1);
        b.delete_edge(2, 4);
        b.insert_edge(1, 0);
        b.insert_edge(4, 0);
        assert_eq!(raw_records(&a), raw_records(&b));
        assert_eq!(a.num_edges(), 4);
        assert_eq!(b.num_edges(), 4);
        // Base order minus tombstones, then the extras ascending.
        assert_eq!(
            raw_records(&a),
            vec![
                (0, vec![1, 3, 4]),
                (1, vec![0]),
                (2, vec![3]),
                (3, vec![0, 2]),
                (4, vec![0]),
            ]
        );
    }

    #[test]
    fn long_edit_lists_stay_sorted_as_they_grow() {
        // Vertex 0 gains and loses neighbours in scrambled order, so its
        // lists move through the arena several times.
        let n = 64;
        let g = CsrGraph::from_edges(n, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut delta = DeltaGraph::new(&g);
        let mut live = vec![false; n];
        live[1..=4].iter_mut().for_each(|l| *l = true);
        for step in 0..200u32 {
            let x = 1 + (step * 37 + step / 3) % (n as u32 - 1);
            if live[x as usize] {
                delta.delete_edge(x, 0);
            } else {
                delta.insert_edge(0, x);
            }
            live[x as usize] = !live[x as usize];
        }
        let expected: Vec<VertexId> = (1..n as VertexId).filter(|&x| live[x as usize]).collect();
        let mut got = raw_records(&delta)[0].1.clone();
        let extras = got.split_off(got.iter().take_while(|&&x| x <= 4).count());
        assert!(extras.windows(2).all(|w| w[0] < w[1]), "extras ascending");
        got.extend(extras);
        got.sort_unstable();
        assert_eq!(got, expected);
        assert_eq!(delta.num_edges(), expected.len() as u64);
        assert_eq!(delta.count_edges_exact().unwrap(), expected.len() as u64);
    }

    #[test]
    fn overlay_memory_is_reported() {
        let g = base();
        let mut delta = DeltaGraph::new(&g);
        assert_eq!(delta.overlay_bytes(), 0);
        delta.insert_edge(0, 4);
        assert!(delta.overlay_bytes() > 0);
        let insert_only = delta.overlay_bytes();
        delta.delete_edge(0, 1);
        assert!(delta.overlay_bytes() > insert_only);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_vertices() {
        let g = base();
        let mut delta = DeltaGraph::new(&g);
        delta.insert_edge(0, 99);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delete_rejects_unknown_vertices() {
        let g = base();
        let mut delta = DeltaGraph::new(&g);
        delta.delete_edge(0, 99);
    }

    #[test]
    fn pinned_view_scans_identically_and_shares_the_overlay() {
        let g = base();
        let mut delta = DeltaGraph::new(&g);
        delta.insert_edge(0, 3);
        delta.delete_edge(1, 2);
        let borrowed = records(&delta);

        let overlay = Arc::new(delta.into_overlay());
        let pinned = PinnedDelta::new(g.clone(), Arc::clone(&overlay), 7);
        assert_eq!(pinned.epoch(), 7);
        assert_eq!(records(&pinned), borrowed);
        assert_eq!(pinned.num_edges(), g.num_edges() + 1 - 1);
        assert_eq!(pinned.storage(), "pinned-delta");

        // Clones share the overlay by refcount, not by copy.
        let clone = pinned.clone();
        assert_eq!(Arc::strong_count(&overlay), 3);
        assert_eq!(records(&clone), borrowed);
    }

    #[test]
    fn pinned_point_queries_merge_the_overlay() {
        let g = base();
        let mut delta = DeltaGraph::new(&g);
        delta.insert_edge(0, 3);
        delta.delete_edge(0, 1);
        let overlay = Arc::new(delta.into_overlay());
        let pinned = PinnedDelta::new(g, overlay, 1);
        // Vertex 0's base record is [1]; the view deletes 1, adds 3.
        assert_eq!(pinned.merge_neighbors(0, &[1]), vec![3]);
        // An untouched vertex passes its base record through.
        assert_eq!(pinned.merge_neighbors(2, &[1]), vec![1]);
        assert!(!pinned.overlay().touches(2));
        assert!(pinned.overlay().touches(0));
    }
}
