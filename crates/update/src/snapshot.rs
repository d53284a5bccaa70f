//! Epoch-pinned read views over the update store.
//!
//! [`Snapshot`] is what [`crate::store::UpdateStore::snapshot`] hands
//! out: the pinned overlay view, that is the store's base handle
//! (cheaply cloned) plus an `Arc` of the overlay the store maintains,
//! stamped with the epoch that was current when the snapshot was taken.
//! Later appends, rolls, segment merges and full compactions proceed
//! underneath without invalidating it: the store copies its overlay
//! before editing a version a snapshot still shares, a segment merge
//! moves operations between files without changing the edge set, and a
//! full compaction writes a new base file beside the pinned one.
//!
//! Reads happen through [`Snapshot::pinned`], the epoch-stamped
//! [`PinnedDelta`] view every `mis-core` algorithm can scan. It replays
//! nothing: the overlay already reflects every committed operation. The
//! operations themselves are the store's durable history
//! ([`crate::store::UpdateStore::committed_ops`]), not the snapshot's.

use mis_graph::{AnyAdjFile, PinnedDelta};

/// An immutable view of the store's edited graph at one epoch.
#[derive(Debug, Clone)]
pub struct Snapshot {
    view: PinnedDelta<AnyAdjFile>,
}

impl Snapshot {
    pub(crate) fn new(view: PinnedDelta<AnyAdjFile>) -> Self {
        Self { view }
    }

    /// The epoch this snapshot is pinned at: every operation committed
    /// at or before it is visible, nothing later ever will be.
    pub fn epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// The base adjacency file the pinned overlay edits.
    pub fn base(&self) -> &AnyAdjFile {
        self.view.base()
    }

    /// The epoch-pinned scan view: the base plus the pinned overlay,
    /// shared by refcount. Clone the returned [`PinnedDelta`] to share it
    /// between readers.
    pub fn pinned(&self) -> PinnedDelta<AnyAdjFile> {
        self.view.clone()
    }
}
