//! Epoch-pinned, refcounted read views over the tiered update store.
//!
//! [`Snapshot`] is what [`crate::store::UpdateStore::snapshot`] hands
//! out: the store's base handle (cheaply cloned), `Arc`s of every sealed
//! segment, a copy of the WAL tail, and an `Arc` of the overlay the
//! store maintains, all pinned at the epoch that was current when the
//! snapshot was taken. The snapshot owns everything it needs — later
//! appends, rolls, segment compactions and even base compactions
//! proceed underneath without invalidating it: the store copies its
//! overlay before editing a version a snapshot still shares, and its
//! garbage collector deletes a replaced segment file only once no
//! snapshot holds its `Arc` (see [`crate::store::UpdateStore::gc`]).
//!
//! Reads happen through [`Snapshot::pinned`], which wraps the pinned
//! overlay in the epoch-stamped [`PinnedDelta`] view every `mis-core`
//! algorithm can scan. It replays nothing: the overlay already reflects
//! every pinned operation. The operations themselves stay available
//! ([`Snapshot::ops`]) for range queries, recovery checks and replays.

use std::sync::Arc;

use mis_graph::{AnyAdjFile, DeltaOverlay, PinnedDelta, VertexId};

use crate::segment::{Segment, SegmentMeta};
use crate::wal::EdgeOp;

/// An immutable view of the store's committed history at one epoch.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    base: AnyAdjFile,
    segments: Vec<Arc<Segment>>,
    tail: Arc<Vec<(u64, EdgeOp)>>,
    overlay: Arc<DeltaOverlay>,
}

impl Snapshot {
    pub(crate) fn new(
        epoch: u64,
        base: AnyAdjFile,
        segments: Vec<Arc<Segment>>,
        tail: Arc<Vec<(u64, EdgeOp)>>,
        overlay: Arc<DeltaOverlay>,
    ) -> Self {
        Self {
            epoch,
            base,
            segments,
            tail,
            overlay,
        }
    }

    /// The epoch this snapshot is pinned at: every operation committed
    /// at or before it is visible, nothing later ever will be.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The base adjacency file the pinned history overlays.
    pub fn base(&self) -> &AnyAdjFile {
        &self.base
    }

    /// Footer metadata of every pinned segment, oldest first.
    pub fn segment_metas(&self) -> Vec<SegmentMeta> {
        self.segments.iter().map(|s| *s.meta()).collect()
    }

    /// Every pinned operation — sealed segments first, then the WAL
    /// tail — in commit order, epoch-stamped.
    pub fn ops(&self) -> impl Iterator<Item = (u64, EdgeOp)> + '_ {
        self.segments
            .iter()
            .flat_map(|s| s.ops().iter().copied())
            .chain(self.tail.iter().copied())
    }

    /// Total pinned operations.
    pub fn num_ops(&self) -> usize {
        self.segments.iter().map(|s| s.ops().len()).sum::<usize>() + self.tail.len()
    }

    /// The pinned operations touching any vertex in `[lo, hi]`, using
    /// each segment's footer range as a skip filter: a segment whose
    /// `[min_vertex, max_vertex]` misses the query range is not read at
    /// all. The WAL tail (unsealed, no footer) is always scanned.
    pub fn ops_in_range(&self, lo: VertexId, hi: VertexId) -> Vec<(u64, EdgeOp)> {
        let in_range = |op: &EdgeOp| {
            let (u, v) = op.endpoints();
            (u >= lo && u <= hi) || (v >= lo && v <= hi)
        };
        let mut out = Vec::new();
        for seg in &self.segments {
            if seg.meta().touches_range(lo, hi) {
                out.extend(seg.ops().iter().filter(|(_, op)| in_range(op)).copied());
            }
        }
        out.extend(self.tail.iter().filter(|(_, op)| in_range(op)).copied());
        out
    }

    /// The epoch-pinned scan view: the base plus the pinned overlay,
    /// shared by refcount. Clone the returned [`PinnedDelta`] to share it
    /// between readers.
    pub fn pinned(&self) -> PinnedDelta<AnyAdjFile> {
        PinnedDelta::new(self.base.clone(), Arc::clone(&self.overlay), self.epoch)
    }

    /// Replays the pinned history into `io::Result`-free raw bytes the
    /// recovery proptests compare: each op rendered as
    /// `(epoch, is_insert, u, v)` in commit order.
    pub fn replay_trace(&self) -> Vec<(u64, bool, VertexId, VertexId)> {
        self.ops()
            .map(|(e, op)| {
                let (u, v) = op.endpoints();
                (e, op.is_insert(), u, v)
            })
            .collect()
    }
}
