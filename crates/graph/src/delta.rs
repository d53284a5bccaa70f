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
//! Two types split the work:
//!
//! * [`DeltaOverlay`] — the owned overlay state itself (insertions,
//!   tombstones, exact edge-count bookkeeping), independent of any base
//!   graph;
//! * [`PinnedDelta`] — the one overlay view: an owned, cheaply cloneable
//!   base handle plus an `Arc<DeltaOverlay>` stamped with the WAL epoch
//!   it reflects. `mis_update` shares its maintained overlay with every
//!   reader this way, so readers scan a `PinnedDelta` while later epochs
//!   append and compact underneath. Its edit methods are copy-on-write,
//!   which also makes it the build-edit-scan view of tests, examples and
//!   the `repro churn` rebuild side.
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
//!
//! ## The last batch
//!
//! [`DeltaOverlay::apply_batch`] applies one committed batch and keeps a
//! [`LastBatch`] record of it: which vertices it touched and which pairs
//! it left inserted or deleted. Between the epoch before the batch and
//! the batch's own epoch, the edge set differs only on those pairs, so a
//! repair that was proved at the earlier epoch only has to revisit them.
//! A [`PinnedDelta`] hands the record out through
//! [`GraphScan::last_batch`] at the batch's own epoch.

use std::fmt;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::hash::FxHashMap;
use crate::raccess::NeighborAccess;
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
/// drifts for invalid ones; see [`PinnedDelta::count_edges_exact`].
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
    /// The batch [`DeltaOverlay::apply_batch`] applied last, unless a
    /// single edit has changed the overlay since.
    last_batch: Option<LastBatch>,
}

/// The record of one committed batch: the epoch it committed as, every
/// endpoint of its operations, and the pairs it left inserted or
/// deleted (the last operation on a pair wins, as the overlay replays
/// it). All lists are ascending and distinct; pairs are `(lower,
/// higher)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LastBatch {
    epoch: u64,
    touched: Vec<VertexId>,
    inserted: Vec<(VertexId, VertexId)>,
    deleted: Vec<(VertexId, VertexId)>,
}

impl LastBatch {
    /// The epoch the batch committed as.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Every endpoint of every operation in the batch.
    pub fn touched(&self) -> &[VertexId] {
        &self.touched
    }

    /// The pairs whose last operation in the batch inserts them.
    pub fn inserted(&self) -> &[(VertexId, VertexId)] {
        &self.inserted
    }

    /// The pairs whose last operation in the batch deletes them.
    pub fn deleted(&self) -> &[(VertexId, VertexId)] {
        &self.deleted
    }
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
    ///
    /// A single edit is no batch: it drops the [`LastBatch`] record.
    pub fn insert_edge(&mut self, n: usize, u: VertexId, v: VertexId) {
        self.last_batch = None;
        self.insert(n, u, v);
    }

    /// Deletes an undirected edge: the pair becomes a tombstone,
    /// retracting any overlay insertion *and* filtering any base copy
    /// out of subsequent scans. Deleting the same edge twice is a no-op;
    /// deleting an edge that never existed leaves scans unchanged but
    /// deflates the running count by one. Drops the [`LastBatch`]
    /// record, like [`DeltaOverlay::insert_edge`].
    pub fn delete_edge(&mut self, n: usize, u: VertexId, v: VertexId) {
        self.last_batch = None;
        self.delete(n, u, v);
    }

    /// Applies one committed batch of `(u, v, insert)` operations in
    /// order, then records it as the [`LastBatch`] of `epoch`.
    pub fn apply_batch<I>(&mut self, n: usize, epoch: u64, ops: I)
    where
        I: IntoIterator<Item = (VertexId, VertexId, bool)>,
    {
        let mut touched = Vec::new();
        let mut last: Vec<((VertexId, VertexId), usize, bool)> = Vec::new();
        for (i, (u, v, insert)) in ops.into_iter().enumerate() {
            if insert {
                self.insert(n, u, v);
            } else {
                self.delete(n, u, v);
            }
            if u != v {
                touched.extend([u, v]);
                last.push((pair_key(u, v), i, insert));
            }
        }
        touched.sort_unstable();
        touched.dedup();
        // Latest operation first within each pair, then keep only it.
        last.sort_unstable_by_key(|&(key, i, _)| (key, std::cmp::Reverse(i)));
        last.dedup_by_key(|&mut (key, _, _)| key);
        let (inserted, deleted): (Vec<_>, Vec<_>) = last.into_iter().partition(|&(_, _, ins)| ins);
        self.last_batch = Some(LastBatch {
            epoch,
            touched,
            inserted: inserted.into_iter().map(|(key, _, _)| key).collect(),
            deleted: deleted.into_iter().map(|(key, _, _)| key).collect(),
        });
    }

    /// The record of the batch [`DeltaOverlay::apply_batch`] applied
    /// last, unless a single edit has changed the overlay since.
    pub fn last_batch(&self) -> Option<&LastBatch> {
        self.last_batch.as_ref()
    }

    fn insert(&mut self, n: usize, u: VertexId, v: VertexId) {
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

    fn delete(&mut self, n: usize, u: VertexId, v: VertexId) {
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
}

/// `at` as a `slot` entry.
fn arena_offset(at: usize) -> u32 {
    u32::try_from(at)
        .ok()
        .filter(|&at| at != UNTOUCHED)
        .expect("overlay arena exceeds u32 offsets")
}

/// One point-access handle over a base file, shared by every view
/// that carries it. Point reads lock it for the duration of one fetch.
#[derive(Clone)]
pub struct SharedAccess(Arc<Mutex<Box<dyn NeighborAccess + Send>>>);

impl SharedAccess {
    /// Shares `access`.
    pub fn new(access: Box<dyn NeighborAccess + Send>) -> Self {
        Self(Arc::new(Mutex::new(access)))
    }

    /// The handle, locked. A read that panicked earlier may have left
    /// the pager mid-fetch, so a poisoned lock is an error.
    fn lock(&self) -> io::Result<MutexGuard<'_, Box<dyn NeighborAccess + Send>>> {
        self.0
            .lock()
            .map_err(|_| io::Error::other("point-access handle poisoned by a failed read"))
    }
}

impl fmt::Debug for SharedAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedAccess")
    }
}

/// The overlay view: a cheaply cloneable base handle plus a refcounted
/// [`DeltaOverlay`], stamped with the update epoch the overlay reflects.
///
/// This is the read side of snapshot isolation in `mis_update`: the
/// store shares its maintained overlay with every view by `Arc`, and the
/// pinned epoch never moves while writers commit later epochs
/// underneath. Callers that build, edit and scan wrap an owned base
/// with `PinnedDelta::new(base, Arc::default(), 0)`; the edit methods
/// are copy-on-write, so a view cloned earlier keeps the overlay it had.
///
/// With a [`SharedAccess`] handle over its base, or over a base with
/// [`GraphScan::point_reads`], the view answers point reads of the
/// merged graph ([`NeighborAccess`]).
#[derive(Debug, Clone)]
pub struct PinnedDelta<G: GraphScan> {
    base: G,
    overlay: Arc<DeltaOverlay>,
    epoch: u64,
    access: Option<SharedAccess>,
}

impl<G: GraphScan> PinnedDelta<G> {
    /// Pins `overlay` (which must reflect every committed operation up
    /// to and including `epoch`) over `base`.
    pub fn new(base: G, overlay: Arc<DeltaOverlay>, epoch: u64) -> Self {
        Self {
            base,
            overlay,
            epoch,
            access: None,
        }
    }

    /// Attaches a point-access handle, which must read `base` itself.
    pub fn with_access(mut self, access: SharedAccess) -> Self {
        self.access = Some(access);
        self
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

    /// Inserts an undirected edge — see [`DeltaOverlay::insert_edge`].
    /// Copy-on-write: views cloned earlier do not see the edit.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        let n = self.base.num_vertices();
        Arc::make_mut(&mut self.overlay).insert_edge(n, u, v);
    }

    /// Deletes an undirected edge — see [`DeltaOverlay::delete_edge`].
    /// Copy-on-write, like [`PinnedDelta::insert_edge`].
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) {
        let n = self.base.num_vertices();
        Arc::make_mut(&mut self.overlay).delete_edge(n, u, v);
    }

    /// Commits `(u, v, insert)` operations as the next epoch — see
    /// [`DeltaOverlay::apply_batch`]. Copy-on-write, like
    /// [`PinnedDelta::insert_edge`].
    pub fn apply_batch<I>(&mut self, ops: I)
    where
        I: IntoIterator<Item = (VertexId, VertexId, bool)>,
    {
        let n = self.base.num_vertices();
        self.epoch += 1;
        Arc::make_mut(&mut self.overlay).apply_batch(n, self.epoch, ops);
    }

    /// Counts the edited graph's edges exactly with one scan, regardless
    /// of duplicate-base inserts or phantom deletes in the overlay (see
    /// [`GraphScan::num_edges`]'s caveat on this type).
    pub fn count_edges_exact(&self) -> io::Result<u64> {
        let mut directed = 0u64;
        self.scan(&mut |_, ns| directed += ns.len() as u64)?;
        Ok(directed / 2)
    }
}

/// Point reads of the merged graph: the base record through the attached
/// handle, or else through the base's own point reads, with the overlay
/// merged in canonical order. A view with neither answers every read
/// with [`io::ErrorKind::Unsupported`]. The callback runs with the
/// handle locked, so it must not read through a view that shares the
/// handle.
impl<G: GraphScan> NeighborAccess for PinnedDelta<G> {
    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) -> io::Result<()> {
        let mut merged = Vec::new();
        let mut merge = |ns: &[VertexId]| {
            if self.overlay.merge_record(v, ns, &mut merged) {
                f(&merged);
            } else {
                f(ns);
            }
        };
        match (&self.access, self.base.point_reads()) {
            (Some(access), _) => access.lock()?.with_neighbors(v, &mut merge),
            (None, Some(base)) => base.with_neighbors(v, &mut merge),
            (None, None) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no point reads for this view: no handle, and a scan-only base",
            )),
        }
    }

    fn record_rank(&self, v: VertexId) -> io::Result<u64> {
        self.lookup(|reads| reads.record_rank(v))
            .unwrap_or(Ok(u64::from(v)))
    }

    fn resident_bytes(&self) -> u64 {
        self.lookup(|reads| reads.resident_bytes()).unwrap_or(0)
    }
}

impl<G: GraphScan> PinnedDelta<G> {
    /// `f` over the base's point reads, the handle's or else the base's
    /// own, for an index lookup, which is safe behind a poisoned lock:
    /// the index lives in the file, not in the handle's pool.
    fn lookup<T>(&self, f: impl FnOnce(&dyn NeighborAccess) -> T) -> Option<T> {
        match &self.access {
            Some(a) => Some(f(&**a.0.lock().unwrap_or_else(PoisonError::into_inner))),
            None => self.base.point_reads().map(f),
        }
    }
}

impl<G: GraphScan> GraphScan for PinnedDelta<G> {
    fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// `base + inserted − deleted`. Exact for valid edit streams (inserts
    /// name absent edges, deletes name present ones); an insert that
    /// duplicates a base edge or a delete of a non-existent edge drifts
    /// this count while leaving scans correct — use
    /// [`PinnedDelta::count_edges_exact`] when the stream is untrusted.
    fn num_edges(&self) -> u64 {
        self.base.num_edges() + self.overlay.added_edges() - self.overlay.deleted_edges()
    }

    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        let mut merged: Vec<VertexId> = Vec::new();
        self.base.scan(&mut |v, ns| {
            if self.overlay.merge_record(v, ns, &mut merged) {
                f(v, &merged);
            } else {
                f(v, ns);
            }
        })
    }

    fn storage(&self) -> &'static str {
        "pinned-delta"
    }

    fn last_batch(&self) -> Option<&LastBatch> {
        self.overlay
            .last_batch()
            .filter(|batch| batch.epoch() == self.epoch)
    }

    fn point_reads(&self) -> Option<&dyn NeighborAccess> {
        (self.access.is_some() || self.base.point_reads().is_some())
            .then_some(self as &dyn NeighborAccess)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    fn base() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2)])
    }

    /// An empty overlay over a copy of `g`, ready to edit.
    fn edit(g: &CsrGraph) -> PinnedDelta<CsrGraph> {
        PinnedDelta::new(g.clone(), Arc::default(), 0)
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
        let mut delta = edit(&g);
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
        let mut delta = edit(&g);
        delta.insert_edge(2, 2);
        delta.insert_edge(3, 4);
        delta.insert_edge(4, 3);
        assert_eq!(delta.overlay().added_edges(), 1);
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
        let mut delta = edit(&g);
        delta.delete_edge(1, 2);
        assert_eq!(delta.num_edges(), 1);
        assert_eq!(delta.overlay().deleted_edges(), 1);
        let records = records(&delta);
        assert_eq!(records[1], (1, vec![0]));
        assert_eq!(records[2], (2, vec![]));
        // Deleting again is a no-op.
        delta.delete_edge(2, 1);
        assert_eq!(delta.overlay().deleted_edges(), 1);
    }

    #[test]
    fn deleting_an_overlay_insert_retracts_it() {
        let g = base();
        let mut delta = edit(&g);
        delta.insert_edge(3, 4);
        delta.delete_edge(4, 3);
        assert_eq!(delta.overlay().added_edges(), 0);
        assert_eq!(delta.overlay().deleted_edges(), 0);
        assert_eq!(delta.num_edges(), g.num_edges());
        let records = records(&delta);
        assert_eq!(records[3], (3, vec![]));
        assert_eq!(records[4], (4, vec![]));
    }

    #[test]
    fn reinserting_a_deleted_base_edge_resurrects_it() {
        let g = base();
        let mut delta = edit(&g);
        delta.delete_edge(0, 1);
        delta.insert_edge(1, 0);
        assert_eq!(delta.overlay().added_edges(), 0);
        assert_eq!(delta.overlay().deleted_edges(), 0);
        let records = records(&delta);
        assert_eq!(records[0], (0, vec![1]));
        assert_eq!(records[1], (1, vec![0, 2]));
    }

    #[test]
    fn interleaved_edits_match_a_materialised_graph() {
        let g = base();
        let mut delta = edit(&g);
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
        let mut delta = edit(&g);
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
        let mut delta = edit(&g);
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
        let mut a = edit(&g);
        a.insert_edge(0, 4);
        a.insert_edge(3, 0);
        a.delete_edge(1, 2);
        a.insert_edge(2, 3);
        let mut b = edit(&g);
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
        let mut delta = edit(&g);
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
        let mut delta = edit(&g);
        assert_eq!(delta.overlay().overlay_bytes(), 0);
        delta.insert_edge(0, 4);
        assert!(delta.overlay().overlay_bytes() > 0);
        let insert_only = delta.overlay().overlay_bytes();
        delta.delete_edge(0, 1);
        assert!(delta.overlay().overlay_bytes() > insert_only);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_vertices() {
        let g = base();
        let mut delta = edit(&g);
        delta.insert_edge(0, 99);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delete_rejects_unknown_vertices() {
        let g = base();
        let mut delta = edit(&g);
        delta.delete_edge(0, 99);
    }

    #[test]
    fn pinned_view_scans_identically_and_shares_the_overlay() {
        let g = base();
        let mut delta = PinnedDelta::new(g.clone(), Arc::default(), 7);
        delta.insert_edge(0, 3);
        delta.delete_edge(1, 2);
        let before = records(&delta);
        assert_eq!(delta.epoch(), 7);
        assert_eq!(delta.num_edges(), g.num_edges() + 1 - 1);
        assert_eq!(delta.storage(), "pinned-delta");

        // Clones share the overlay by refcount, not by copy.
        let pinned = delta.clone();
        assert!(Arc::ptr_eq(pinned.overlay(), delta.overlay()));
        assert_eq!(records(&pinned), before);

        // An edit after the clone copies the overlay first: the clone
        // keeps the records it had.
        delta.insert_edge(2, 4);
        assert!(!Arc::ptr_eq(pinned.overlay(), delta.overlay()));
        assert_eq!(records(&pinned), before);
        assert_eq!(records(&delta)[4], (4, vec![2]));
    }

    /// `g` as a shared point-access handle.
    fn handle(g: &CsrGraph) -> SharedAccess {
        SharedAccess::new(Box::new(g.clone()))
    }

    /// `g` without point reads, as a file is.
    struct ScanOnly(CsrGraph);

    impl GraphScan for ScanOnly {
        fn num_vertices(&self) -> usize {
            self.0.num_vertices()
        }

        fn num_edges(&self) -> u64 {
            self.0.num_edges()
        }

        fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
            self.0.scan(f)
        }
    }

    #[test]
    fn pinned_point_queries_merge_the_overlay() {
        let g = base();
        let mut scan_only = PinnedDelta::new(ScanOnly(g.clone()), Arc::default(), 0);
        scan_only.insert_edge(0, 3);
        scan_only.delete_edge(0, 1);
        assert!(scan_only.point_reads().is_none());
        let err = scan_only.with_neighbors(0, &mut |_| {}).unwrap_err();
        assert_eq!(
            err.kind(),
            io::ErrorKind::Unsupported,
            "no handle and a scan-only base: no reads"
        );
        let with_handle = scan_only.with_access(handle(&g));
        let mut in_memory = edit(&g);
        in_memory.insert_edge(0, 3);
        in_memory.delete_edge(0, 1);
        // A handle, or a base with point reads of its own.
        for pinned in [&with_handle as &dyn GraphScan, &in_memory] {
            let reads = pinned.point_reads().unwrap();
            let mut got = Vec::new();
            // Vertex 0's base record is [1]; the view deletes 1, adds 3.
            reads
                .with_neighbors(0, &mut |ns| got = ns.to_vec())
                .unwrap();
            assert_eq!(got, vec![3]);
            // An untouched vertex passes its base record through.
            reads
                .with_neighbors(2, &mut |ns| got = ns.to_vec())
                .unwrap();
            assert_eq!(got, vec![1]);
            assert_eq!(
                reads.record_rank(3).unwrap(),
                3,
                "CSR storage order is id order"
            );
        }
        assert!(!in_memory.overlay().touches(2));
        assert!(in_memory.overlay().touches(0));
    }

    #[test]
    fn a_batch_records_its_net_pairs_and_touched_vertices() {
        let g = base();
        let ops = [
            (3, 4, true),
            (2, 1, false),
            (4, 3, false), // inserted, then deleted again
            (0, 4, true),
            (4, 0, false),
            (4, 0, true), // the last op on (0, 4) inserts it
        ];
        let mut batched = edit(&g);
        batched.apply_batch(ops);
        let mut single = edit(&g);
        for (u, v, insert) in ops {
            if insert {
                single.insert_edge(u, v);
            } else {
                single.delete_edge(u, v);
            }
        }
        assert_eq!(raw_records(&batched), raw_records(&single));
        assert_eq!(batched.epoch(), 1);
        let batch = batched.overlay().last_batch().unwrap().clone();
        assert_eq!(batch.epoch(), 1);
        assert_eq!(batch.touched(), &[0, 1, 2, 3, 4]);
        assert_eq!(batch.inserted(), &[(0, 4)]);
        assert_eq!(batch.deleted(), &[(1, 2), (3, 4)]);
        assert!(single.overlay().last_batch().is_none());

        // The view hands the record out at the record's own epoch only.
        assert_eq!(batched.last_batch(), Some(&batch));
        let later = PinnedDelta::new(g.clone(), Arc::clone(batched.overlay()), 2);
        assert!(later.last_batch().is_none());
        // A single edit after the batch drops the record.
        let mut edited = batched.clone();
        edited.insert_edge(1, 3);
        assert!(edited.last_batch().is_none());
        assert!(batched.last_batch().is_some(), "copy-on-write keeps it");
    }
}
