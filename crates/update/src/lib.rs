//! Durable edge updates for the semi-external MIS pipeline.
//!
//! The paper closes by asking how its solutions extend to "incremental
//! massive graphs with frequent updates". `mis_core::incremental` answers
//! the in-process half; this crate makes it durable, following the
//! log-structured design of LogBase: instead of rewriting the
//! multi-gigabyte base adjacency file per batch, edge updates append to a
//! checksummed **write-ahead log**, roll into immutable **sealed
//! segments**, overlay the base file at scan time, and are periodically
//! **compacted** — partially (segment merges) or fully (a fresh base
//! file).
//!
//! The moving parts:
//!
//! * [`wal::Wal`] — the active write-ahead edge log: varint-encoded
//!   insert/delete records with per-record FNV-1a checksums, epoch
//!   markers as commit points, and torn-tail recovery on open (see the
//!   module docs for the byte-level format);
//! * [`segment::Segment`] — an immutable sealed run of WAL epochs with a
//!   footer carrying its epoch range, vertex range and tombstone count,
//!   so readers can skip segments that cannot touch their query;
//! * [`manifest::Manifest`] — the atomically-replaced list of live
//!   segments (ids never reused), the authority recovery trusts over
//!   directory contents;
//! * [`snapshot::Snapshot`] — an epoch-pinned, refcounted read view:
//!   queries scan it while later epochs append and compact underneath,
//!   and replaced segment files are deleted only once unpinned;
//! * [`checkpoint::Checkpoint`] — the independent-set checkpoint (set +
//!   WAL epoch, gap-coded, checksummed, atomically replaced), so
//!   maintenance resumes from the last repaired state instead of a
//!   from-scratch rebuild;
//! * [`store::UpdateStore`] — the maintenance engine gluing base file,
//!   tiered log, checkpoint and one maintained
//!   [`mis_graph::DeltaOverlay`] together: `append_ops` (applies each
//!   committed batch to the overlay) → (policy-driven)
//!   `roll_segment`/`compact_segments` → `apply` (deletion-aware repair
//!   via [`mis_core::repair_updated_set`] on the overlaid base,
//!   re-checkpoint) → `compact` (merge into a fresh indexed adjacency
//!   file, truncate the log);
//! * [`serve::ServeEngine`] — the long-running front end behind `mis
//!   serve`: batches updates into epochs, repairs the maintained set on
//!   epoch-pinned views (readers never block on ingest), and answers
//!   membership/neighborhood/stats queries.
//!
//! All log and checkpoint I/O is accounted in the shared
//! [`mis_extmem::IoStats`] (`wal_bytes_written`, `wal_bytes_read`,
//! `checkpoints_written`, `checkpoints_read`), keeping the subsystem
//! inside the same cost model as the rest of the workspace. The `mis
//! update` / `mis serve` CLI subcommands and the `repro churn` / `repro
//! serve` experiments drive this crate end to end.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod manifest;
pub mod segment;
pub mod serve;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use checkpoint::Checkpoint;
pub use manifest::Manifest;
pub use segment::{Segment, SegmentMeta};
pub use serve::{FlushReport, ServeConfig, ServeEngine, ServeStats, ServeView};
pub use snapshot::Snapshot;
pub use store::{
    ApplyReport, CompactFormat, CompactIndex, CompactReport, RollPolicy, SegmentCompaction,
    StoreStatus, UpdateStore,
};
pub use wal::{EdgeOp, Wal, WalRecovery};
