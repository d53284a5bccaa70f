//! The maintenance engine: base file + tiered log + checkpoint.
//!
//! An [`UpdateStore`] owns the durable artefacts of the update
//! subsystem — the base adjacency file, the **tiered** edge log (active
//! WAL + sealed [`Segment`]s listed in a [`Manifest`]), and the
//! independent-set checkpoint — and exposes the maintenance operations
//! the `mis update` CLI and the `mis serve` engine drive:
//!
//! * [`UpdateStore::append_ops`] — log a batch of edge updates and seal
//!   it as one WAL epoch; when the active WAL crosses the
//!   [`RollPolicy`] threshold it **rolls**: the committed epochs are
//!   sealed into an immutable segment and the WAL restarts empty;
//! * [`UpdateStore::snapshot`] — an epoch-pinned, refcounted read view
//!   ([`Snapshot`]): queries scan it while later epochs append and
//!   compact underneath, and replaced segment files are deleted only
//!   when no snapshot pins them ([`UpdateStore::gc`]);
//! * [`UpdateStore::apply`] — bring the maintained independent set up to
//!   the last committed epoch: scan the base through the maintained
//!   overlay, resume from the checkpointed set (or bootstrap one with
//!   Greedy), run the deletion-aware incremental repair, and write a
//!   fresh checkpoint;
//! * [`UpdateStore::compact_segments`] — the leveled/partial compactor:
//!   merge a run of overlapping sealed segments into one (superseded
//!   per-pair operations elided) without touching the WAL or the base,
//!   so appends never block on it;
//! * [`UpdateStore::compact`] / [`UpdateStore::compact_as`] — full
//!   compaction: merge base + overlay into a fresh adjacency file,
//!   written **crash-atomically** (temp file + fsync + rename), then
//!   drop every segment and truncate the log. The [`CompactFormat`]
//!   picks the plain `MISADJ01` layout, the 2–3× smaller gap-compressed
//!   `MISADJC1` layout, or a sharded `MISSHRD1` store (per-shard bases
//!   via [`mis_graph::split_adj_file`]);
//! * [`UpdateStore::status`] — inspect epochs, pending ops, per-segment
//!   footers and sizes.
//!
//! ## The maintained overlay
//!
//! The store keeps one [`DeltaOverlay`] of every committed operation
//! over the current base, so no read path replays the log:
//!
//! * [`UpdateStore::open`] builds it once, from the sealed segments and
//!   the WAL tail;
//! * [`UpdateStore::append_ops`] applies a batch to it only after the
//!   batch's epoch marker is durable, so a failed append leaves it at
//!   the last committed epoch;
//! * rolls and segment merges leave it alone: they move operations
//!   between files without changing the edge set they replay to;
//! * full compaction folds it into the new base and starts it empty.
//!
//! Snapshots, [`UpdateStore::overlay`] and the serve engine's published
//! view share it by `Arc`. When one of them still holds the current
//! version, the next append edits a copy (copy-on-write): a copy of the
//! overlay's flat arrays, not a replay.
//!
//! The base file may be any [`AnyAdjFile`] backend (plain, compressed or
//! sharded — the magic is sniffed at open), so a store can compact into
//! the compressed format and keep running on it.
//!
//! ## Crash recovery
//!
//! Every multi-file transition is ordered so that a crash at any point
//! reopens to a consistent store: segments and the manifest are written
//! via temp + fsync + rename; `*.tmp` orphans and segment files missing
//! from the manifest are deleted on open; a WAL whose epochs are already
//! sealed in a segment (crash between manifest update and WAL reset) is
//! detected as a duplicated prefix and reset, since segment replay is
//! per-pair idempotent.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mis_core::{repair_updated_set, Greedy, RepairConfig};
use mis_graph::adjfile::AdjFileWriter;
use mis_graph::compressed::CompressedAdjWriter;
use mis_graph::{
    split_adj_file, AnyAdjFile, CompressedRecordIndex, DeltaOverlay, GraphScan, PinnedDelta,
    RecordIndex, SplitOptions, VertexId,
};

use mis_extmem::IoStats;

use crate::checkpoint::Checkpoint;
use crate::manifest::{Manifest, MANIFEST_NAME};
use crate::segment::{is_segment_file, merge_segments, segment_file_name, Segment, SegmentMeta};
use crate::snapshot::Snapshot;
use crate::wal::{EdgeOp, Wal, WalRecovery};

/// When the active WAL rolls into a sealed segment, and when sealed
/// segments are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollPolicy {
    /// Roll once the active WAL holds at least this many bytes.
    pub max_wal_bytes: u64,
    /// Roll once the active WAL holds at least this many epochs.
    pub max_wal_epochs: u64,
    /// After a roll, merge segments once at least this many are live.
    pub compact_threshold: usize,
}

impl Default for RollPolicy {
    fn default() -> Self {
        Self {
            max_wal_bytes: 64 << 20,
            max_wal_epochs: 256,
            compact_threshold: 8,
        }
    }
}

/// Crash-simulation points for the kill-point regression tests: the
/// mutation stops *as if the process died* right after the named step.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KillPoint {
    /// Run to completion (the normal path).
    #[default]
    None,
    /// Die right after the new file is sealed/written, before the
    /// manifest (or rename) makes it live.
    AfterSeal,
    /// Die right after the manifest is updated, before the WAL (or the
    /// dead files) are cleaned up.
    AfterManifest,
}

/// Base adjacency file + tiered log + checkpoint, opened as one unit.
#[derive(Debug)]
pub struct UpdateStore {
    base: AnyAdjFile,
    wal: Wal,
    ckpt_path: PathBuf,
    stats: Arc<IoStats>,
    block_size: usize,
    /// Directory holding the manifest and the sealed segments.
    seg_dir: PathBuf,
    manifest: Manifest,
    /// Live sealed segments, in epoch order.
    segments: Vec<Arc<Segment>>,
    /// Segments removed from the manifest but still pinned by a
    /// snapshot; their files are deleted by [`UpdateStore::gc`] once
    /// unpinned.
    dead: Vec<Arc<Segment>>,
    roll: RollPolicy,
    /// Every committed operation over `base`, shared copy-on-write with
    /// snapshots (see the module docs).
    overlay: Arc<DeltaOverlay>,
}

/// On-disk layout of a compacted base file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactFormat {
    /// Fixed-width `MISADJ01` records.
    #[default]
    Plain,
    /// Gap-compressed `MISADJC1` records (2–3× smaller on power-law
    /// graphs; neighbour lists are stored id-sorted).
    Compressed,
    /// A sharded `MISSHRD1` store with this many vertex-range shards
    /// (each shard a plain file), split degree-balanced via
    /// [`mis_graph::split_adj_file`].
    Sharded(usize),
}

impl std::str::FromStr for CompactFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "plain" => Ok(CompactFormat::Plain),
            "compressed" => Ok(CompactFormat::Compressed),
            other => {
                if let Some(shards) = other.strip_prefix("sharded:") {
                    let shards: usize = shards
                        .parse()
                        .map_err(|_| format!("bad shard count in `{other}`"))?;
                    if shards == 0 {
                        return Err("shard count must be at least 1".to_string());
                    }
                    return Ok(CompactFormat::Sharded(shards));
                }
                Err(format!(
                    "unknown compact format `{other}` (expected plain|compressed|sharded:N)"
                ))
            }
        }
    }
}

/// The per-vertex record index built while writing a compacted file —
/// one variant per [`CompactFormat`].
#[derive(Debug)]
pub enum CompactIndex {
    /// Offsets into a plain file.
    Plain(RecordIndex),
    /// Offsets + lengths into a compressed file.
    Compressed(CompressedRecordIndex),
    /// A sharded store indexes per shard; the compaction records the
    /// vertex total and shard count instead.
    Sharded {
        /// Shards written.
        shards: usize,
        /// Vertices across all shards.
        vertices: u64,
    },
}

impl CompactIndex {
    /// Number of indexed vertices.
    pub fn len(&self) -> usize {
        match self {
            CompactIndex::Plain(i) => i.len(),
            CompactIndex::Compressed(i) => i.len(),
            CompactIndex::Sharded { vertices, .. } => *vertices as usize,
        }
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Report of one [`UpdateStore::apply`].
#[derive(Debug, Clone)]
pub struct ApplyReport {
    /// Epoch the set is now checkpointed at.
    pub epoch: u64,
    /// Epoch the maintenance resumed from (equal to `epoch` when the
    /// checkpoint was already current).
    pub resumed_from: u64,
    /// Whether the set had to be bootstrapped with Greedy (no checkpoint
    /// existed yet).
    pub bootstrapped: bool,
    /// Whether the checkpoint was already at the last epoch (no work).
    pub up_to_date: bool,
    /// Members evicted because an inserted edge connected them.
    pub evicted: u64,
    /// Size of the maintained independent set.
    pub set_size: usize,
    /// Full file scans the maintenance performed (repair + proof).
    pub file_scans: u64,
    /// Whether the proof scan certified maximality on the edited graph.
    pub maximality_proved: bool,
}

/// Report of one [`UpdateStore::compact`].
#[derive(Debug)]
pub struct CompactReport {
    /// Vertices in the compacted file.
    pub vertices: u64,
    /// Undirected edges in the compacted file (base + inserts − deletes).
    pub edges: u64,
    /// Compacted file size in bytes.
    pub bytes: u64,
    /// Committed operations folded into the base.
    pub merged_ops: usize,
    /// The per-vertex record index built while writing.
    pub index: CompactIndex,
}

/// Report of one [`UpdateStore::compact_segments`] merge.
#[derive(Debug, Clone, Copy)]
pub struct SegmentCompaction {
    /// Segments merged away.
    pub merged: usize,
    /// Superseded operations elided by the per-pair merge (see
    /// [`merge_segments`]).
    pub dropped_ops: u64,
    /// The merged segment's footer.
    pub output: SegmentMeta,
    /// Segment files deleted immediately (not pinned by any snapshot).
    pub reclaimed_files: usize,
}

/// Snapshot of the store's durable state, for `mis update status`.
#[derive(Debug, Clone)]
pub struct StoreStatus {
    /// Vertices in the base file.
    pub vertices: usize,
    /// Undirected edges in the base file.
    pub base_edges: u64,
    /// Edges after overlaying every committed operation.
    pub live_edges: u64,
    /// Last committed epoch (0 when the log is empty).
    pub last_epoch: u64,
    /// Committed operations awaiting full compaction (sealed segments
    /// plus the WAL tail).
    pub committed_ops: usize,
    /// Active WAL size in bytes.
    pub wal_bytes: u64,
    /// Checkpoint `(epoch, set size)`, when one exists.
    pub checkpoint: Option<(u64, usize)>,
    /// Footer metadata of every live sealed segment, oldest first.
    pub segments: Vec<SegmentMeta>,
    /// Total bytes across the live sealed segments.
    pub segment_bytes: u64,
    /// Replaced segments whose files are still pinned by snapshots.
    pub dead_segments: usize,
}

impl UpdateStore {
    /// Opens the store: validates the base file, replays (and recovers)
    /// the WAL, loads the segment manifest, opens and validates every
    /// live segment, deletes temp-file and unmanifested-segment orphans,
    /// and heals a WAL whose epochs were already sealed by an
    /// interrupted roll. The checkpoint is loaded lazily by the
    /// operations that need it.
    pub fn open(
        base_path: &Path,
        wal_path: &Path,
        ckpt_path: &Path,
        stats: Arc<IoStats>,
        block_size: usize,
    ) -> io::Result<(Self, WalRecovery)> {
        let base = AnyAdjFile::open_with_block_size(base_path, Arc::clone(&stats), block_size)?;
        let (mut wal, recovery) = Wal::open(wal_path, Arc::clone(&stats))?;

        let seg_dir = wal_path.with_extension("segs");
        let manifest = Manifest::load_or_default(&seg_dir.join(MANIFEST_NAME))?;
        let mut segments = Vec::with_capacity(manifest.segments.len());
        if seg_dir.is_dir() {
            cleanup_orphans(&seg_dir, &manifest)?;
        }
        for &id in &manifest.segments {
            let seg = Segment::open(&seg_dir.join(segment_file_name(id)), &stats)?;
            if seg.meta().id != id {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("segment file {id} carries footer id {}", seg.meta().id),
                ));
            }
            segments.push(Arc::new(seg));
        }
        // Segments must cover disjoint, ascending epoch ranges.
        for pair in segments.windows(2) {
            if pair[1].meta().epoch_lo <= pair[0].meta().epoch_hi {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "segment epoch ranges overlap",
                ));
            }
        }

        // Heal an interrupted roll: the manifest made the segment live
        // but the crash hit before the WAL reset, so the WAL still holds
        // the exact epochs the segment sealed. Replay would be a
        // per-pair idempotent duplicate; drop the duplicated log.
        if let (Some(last), Some(&(first_epoch, _))) = (segments.last(), wal.committed().first()) {
            let hi = last.meta().epoch_hi;
            if first_epoch <= hi {
                if wal.last_epoch() != hi {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "wal epochs reach {} but sealed segments already cover epoch {hi}; \
                             the log and the segments do not belong together",
                            wal.last_epoch()
                        ),
                    ));
                }
                wal.reset_after_compaction()?;
            }
        }

        let mut store = Self {
            base,
            wal,
            ckpt_path: ckpt_path.to_path_buf(),
            stats,
            block_size,
            seg_dir,
            manifest,
            segments,
            dead: Vec::new(),
            roll: RollPolicy::default(),
            overlay: Arc::default(),
        };
        let n = store.base.num_vertices();
        let mut overlay = DeltaOverlay::new();
        for (_, op) in store.committed_ops() {
            apply_op(&mut overlay, n, op);
        }
        store.overlay = Arc::new(overlay);
        Ok((store, recovery))
    }

    /// The base adjacency file (plain, compressed or sharded) currently
    /// backing the store.
    pub fn base(&self) -> &AnyAdjFile {
        &self.base
    }

    /// The active write-ahead log.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Path of the independent-set checkpoint file.
    pub fn checkpoint_path(&self) -> &Path {
        &self.ckpt_path
    }

    /// The live sealed segments, oldest first.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// The directory holding the manifest and sealed segments.
    pub fn segments_dir(&self) -> &Path {
        &self.seg_dir
    }

    /// Replaces the roll/compaction policy (defaults are conservative:
    /// 64 MiB or 256 epochs per segment).
    pub fn set_roll_policy(&mut self, policy: RollPolicy) {
        self.roll = policy;
    }

    /// Appends a batch of operations and seals it as one epoch, rolling
    /// the WAL into a sealed segment (and possibly merging segments)
    /// when the [`RollPolicy`] says so. Endpoint ranges are validated
    /// against the base file up front so a bad op never reaches the log.
    /// The maintained overlay takes the epoch's operations once its
    /// marker is durable.
    pub fn append_ops(&mut self, ops: &[EdgeOp]) -> io::Result<u64> {
        let n = self.base.num_vertices() as u64;
        for op in ops {
            let (u, v) = op.endpoints();
            if u64::from(u) >= n || u64::from(v) >= n || u == v {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("edge ({u}, {v}) invalid for {n} vertices"),
                ));
            }
        }
        let first = self.wal.committed().len();
        for &op in ops {
            self.wal.append(op)?;
        }
        let epoch = self.wal.commit_epoch()?;
        let n = self.base.num_vertices();
        let overlay = Arc::make_mut(&mut self.overlay);
        for &(_, op) in &self.wal.committed()[first..] {
            apply_op(overlay, n, op);
        }
        self.maybe_roll()?;
        Ok(epoch)
    }

    /// Rolls when the active WAL crosses a policy threshold, then merges
    /// segments when enough have piled up.
    fn maybe_roll(&mut self) -> io::Result<()> {
        let epochs = self.wal_epochs();
        if self.wal.disk_bytes() < self.roll.max_wal_bytes && epochs < self.roll.max_wal_epochs {
            return Ok(());
        }
        self.roll_segment()?;
        if self.segments.len() >= self.roll.compact_threshold {
            self.compact_segments()?;
        }
        Ok(())
    }

    /// Distinct committed epochs currently in the active WAL.
    fn wal_epochs(&self) -> u64 {
        let mut count = 0u64;
        let mut last = None;
        for &(e, _) in self.wal.committed() {
            if last != Some(e) {
                count += 1;
                last = Some(e);
            }
        }
        count
    }

    /// Seals the active WAL's committed epochs into an immutable
    /// segment and restarts the WAL empty (epoch numbering continues).
    /// No-op when the WAL holds no committed operations. Returns the new
    /// segment's footer.
    pub fn roll_segment(&mut self) -> io::Result<Option<SegmentMeta>> {
        self.roll_segment_killable(KillPoint::None)
    }

    #[doc(hidden)]
    pub fn roll_segment_killable(&mut self, kill: KillPoint) -> io::Result<Option<SegmentMeta>> {
        if self.wal.committed().is_empty() {
            return Ok(None);
        }
        let _span = mis_obs::span("store", "store.roll");
        std::fs::create_dir_all(&self.seg_dir)?;
        let id = self.manifest.allocate();
        let seg = Segment::seal(&self.seg_dir, id, self.wal.committed(), &self.stats)?;
        let meta = *seg.meta();
        if kill == KillPoint::AfterSeal {
            // Simulated crash: the segment file exists but the manifest
            // does not list it — an orphan, deleted on the next open.
            self.manifest.next_id = id; // forget the allocation, like a reopen would
            return Ok(None);
        }
        self.manifest.segments.push(id);
        self.manifest.store(&self.seg_dir.join(MANIFEST_NAME))?;
        if kill == KillPoint::AfterManifest {
            // Simulated crash: segment live, WAL still holds the same
            // epochs — the duplicated-prefix heal on open resolves it.
            self.segments.push(Arc::new(seg));
            return Ok(Some(meta));
        }
        self.segments.push(Arc::new(seg));
        self.wal.reset_after_compaction()?;
        mis_obs::counter("store", "store.segments", self.segments.len() as f64);
        Ok(Some(meta))
    }

    /// Picks the run of adjacent segments the partial compactor should
    /// merge: the longest run whose vertex ranges chain-overlap (their
    /// operations actually supersede each other), falling back to the
    /// two oldest segments when nothing overlaps.
    fn plan_compaction(&self) -> Option<std::ops::Range<usize>> {
        if self.segments.len() < 2 {
            return None;
        }
        let metas: Vec<&SegmentMeta> = self.segments.iter().map(|s| s.meta()).collect();
        let mut best = 0..0;
        let mut start = 0;
        for i in 1..metas.len() {
            if !metas[i - 1].overlaps(metas[i]) {
                if i - start > best.len() {
                    best = start..i;
                }
                start = i;
            }
        }
        if metas.len() - start > best.len() {
            best = start..metas.len();
        }
        Some(if best.len() >= 2 { best } else { 0..2 })
    }

    /// Merges a run of overlapping sealed segments into one, eliding
    /// superseded per-pair operations. The WAL and the base are not
    /// touched, so appends and reads proceed concurrently; replaced
    /// segment files are deleted immediately unless a [`Snapshot`] pins
    /// them (then [`UpdateStore::gc`] reclaims them later). Returns
    /// `None` when fewer than two segments are live.
    pub fn compact_segments(&mut self) -> io::Result<Option<SegmentCompaction>> {
        self.compact_segments_killable(KillPoint::None)
    }

    #[doc(hidden)]
    pub fn compact_segments_killable(
        &mut self,
        kill: KillPoint,
    ) -> io::Result<Option<SegmentCompaction>> {
        let Some(range) = self.plan_compaction() else {
            return Ok(None);
        };
        let _span = mis_obs::span("store", "store.compact_segments");
        let inputs: Vec<Arc<Segment>> = self.segments[range.clone()].to_vec();
        let id = self.manifest.allocate();
        let (merged, dropped_ops) = merge_segments(&self.seg_dir, id, &inputs, &self.stats)?;
        let output = *merged.meta();
        if kill == KillPoint::AfterSeal {
            self.manifest.next_id = id;
            return Ok(None);
        }
        let removed: Vec<u64> = self.manifest.segments.drain(range.clone()).collect();
        debug_assert_eq!(removed.len(), inputs.len());
        self.manifest.segments.insert(range.start, id);
        self.manifest.store(&self.seg_dir.join(MANIFEST_NAME))?;
        let dead: Vec<Arc<Segment>> = self.segments.drain(range.clone()).collect();
        self.segments.insert(range.start, Arc::new(merged));
        self.dead.extend(dead);
        let merged_count = inputs.len();
        // Release our own Arcs so gc sees only external (snapshot) pins.
        drop(inputs);
        if kill == KillPoint::AfterManifest {
            // Simulated crash before GC: the replaced files linger as
            // unmanifested orphans until the next open sweeps them.
            return Ok(Some(SegmentCompaction {
                merged: merged_count,
                dropped_ops,
                output,
                reclaimed_files: 0,
            }));
        }
        let reclaimed_files = self.gc();
        Ok(Some(SegmentCompaction {
            merged: merged_count,
            dropped_ops,
            output,
            reclaimed_files,
        }))
    }

    /// Deletes the files of replaced segments no snapshot pins any more
    /// (their only remaining `Arc` is the store's own dead-list entry).
    /// Best-effort: files that fail to delete stay on the dead list for
    /// the next sweep. Returns the number of files reclaimed.
    pub fn gc(&mut self) -> usize {
        let mut reclaimed = 0;
        self.dead.retain(|seg| {
            if Arc::strong_count(seg) == 1 {
                match std::fs::remove_file(seg.path()) {
                    Ok(()) | Err(_) if !seg.path().exists() => {
                        reclaimed += 1;
                        false
                    }
                    _ => true,
                }
            } else {
                true
            }
        });
        reclaimed
    }

    /// An epoch-pinned, refcounted view of the committed history as of
    /// now: the base handle, every sealed segment, a copy of the WAL
    /// tail and the maintained overlay. Later appends, rolls and
    /// compactions never affect it.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::new(
            self.wal.last_epoch(),
            self.base.clone(),
            self.segments.clone(),
            Arc::new(self.wal.committed().to_vec()),
            Arc::clone(&self.overlay),
        )
    }

    /// Every committed operation — sealed segments first, then the WAL
    /// tail — in commit order, epoch-stamped.
    pub fn committed_ops(&self) -> impl Iterator<Item = (u64, EdgeOp)> + '_ {
        self.segments
            .iter()
            .flat_map(|s| s.ops().iter().copied())
            .chain(self.wal.committed().iter().copied())
    }

    /// Total committed operations across segments and the WAL tail.
    pub fn num_committed_ops(&self) -> usize {
        self.segments.iter().map(|s| s.ops().len()).sum::<usize>() + self.wal.committed().len()
    }

    /// The base file with every committed operation overlaid, pinned at
    /// the last committed epoch — [`Snapshot::pinned`] without the
    /// history. Shares the maintained overlay; nothing is replayed.
    pub fn overlay(&self) -> PinnedDelta<AnyAdjFile> {
        PinnedDelta::new(
            self.base.clone(),
            Arc::clone(&self.overlay),
            self.wal.last_epoch(),
        )
    }

    /// Brings the maintained independent set up to the last committed
    /// epoch and checkpoints it.
    pub fn apply(&self, config: RepairConfig) -> io::Result<ApplyReport> {
        let _span = mis_obs::span("store", "store.apply");
        let target = self.wal.last_epoch();
        let ckpt = Checkpoint::load_if_exists(&self.ckpt_path, &self.stats)?;

        if let Some(ckpt) = &ckpt {
            // A checkpoint from the future is an invariant violation —
            // epochs only move forward, so this means the checkpoint and
            // the WAL belong to different stores (wrong --wal or
            // --checkpoint pairing, or a replaced log).
            if ckpt.epoch > target {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "checkpoint is at epoch {} but the wal only reaches epoch {target}; \
                         the checkpoint and log do not belong together",
                        ckpt.epoch
                    ),
                ));
            }
            if ckpt.epoch == target {
                return Ok(ApplyReport {
                    epoch: ckpt.epoch,
                    resumed_from: ckpt.epoch,
                    bootstrapped: false,
                    up_to_date: true,
                    evicted: 0,
                    set_size: ckpt.set.len(),
                    file_scans: 0,
                    maximality_proved: false,
                });
            }
        }

        let delta = self.overlay();
        let report = match ckpt {
            // Resume from the checkpointed set: evict, recover, prove.
            Some(ckpt) => {
                let out = repair_updated_set(&delta, &ckpt.set, config);
                ApplyReport {
                    epoch: target,
                    resumed_from: ckpt.epoch,
                    bootstrapped: false,
                    up_to_date: false,
                    evicted: out.evicted,
                    set_size: out.swap.result.set.len(),
                    file_scans: out.swap.result.file_scans + out.verify_scans,
                    maximality_proved: out.maximality_proved,
                }
                .with_checkpoint(
                    &self.ckpt_path,
                    target,
                    &out.swap.result.set,
                    &self.stats,
                )?
            }
            // First apply ever: bootstrap with Greedy on the edited graph.
            None => {
                let greedy = Greedy::new().run(&delta);
                let proved = if config.verify {
                    mis_core::is_maximal_independent_set(&delta, &greedy.set)
                } else {
                    false
                };
                ApplyReport {
                    epoch: target,
                    resumed_from: 0,
                    bootstrapped: true,
                    up_to_date: false,
                    evicted: 0,
                    set_size: greedy.set.len(),
                    file_scans: greedy.file_scans + u64::from(config.verify),
                    maximality_proved: proved,
                }
                .with_checkpoint(
                    &self.ckpt_path,
                    target,
                    &greedy.set,
                    &self.stats,
                )?
            }
        };
        Ok(report)
    }

    /// Writes a checkpoint for `set` at `epoch` — the serve engine's
    /// commit step after repairing on a snapshot (the repair itself runs
    /// without any reference to the store, so this is the only part that
    /// needs exclusive access).
    pub fn write_checkpoint(&self, epoch: u64, set: &[VertexId]) -> io::Result<()> {
        if epoch > self.wal.last_epoch() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "checkpoint epoch {epoch} is ahead of the log ({})",
                    self.wal.last_epoch()
                ),
            ));
        }
        Checkpoint::write(&self.ckpt_path, epoch, set, &self.stats)?;
        Ok(())
    }

    /// Merges base + overlay into a fresh **plain** adjacency file at
    /// `out_path` — see [`UpdateStore::compact_as`].
    pub fn compact(&mut self, out_path: &Path) -> io::Result<CompactReport> {
        self.compact_as(out_path, CompactFormat::Plain)
    }

    /// Merges base + overlay (sealed segments *and* WAL tail) into a
    /// fresh adjacency store at `out_path` in the requested
    /// [`CompactFormat`], then drops every segment and truncates the WAL
    /// (epoch numbering is preserved). The store switches to the
    /// compacted file as its new base, so a compressed compaction
    /// shrinks every subsequent maintenance scan.
    ///
    /// Crash-atomic for the single-file formats: the new base is written
    /// to `<out>.cmp.tmp`, fsynced, and renamed over `out_path`; a crash
    /// leaves either the old store (plus a harmless temp, cleaned by the
    /// next compaction or open) or the completed new base. The sharded
    /// format writes through [`split_adj_file`], which emits its shard
    /// files directly.
    pub fn compact_as(
        &mut self,
        out_path: &Path,
        format: CompactFormat,
    ) -> io::Result<CompactReport> {
        self.compact_as_killable(out_path, format, KillPoint::None)
    }

    #[doc(hidden)]
    pub fn compact_as_killable(
        &mut self,
        out_path: &Path,
        format: CompactFormat,
        kill: KillPoint,
    ) -> io::Result<CompactReport> {
        if out_path == self.base.path() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "compaction target must differ from the base file",
            ));
        }
        let _span = mis_obs::span("store", "store.compact");
        let merged_ops = self.num_committed_ops();
        let delta = self.overlay();
        let n = delta.num_vertices() as u64;
        let tmp_path = compact_temp_path(out_path);
        // Both writers count the entries they actually write and
        // reconcile the |E| header at finish, so overlay counts drifted
        // by invalid streams (duplicate-base inserts, phantom deletes)
        // need no caller-side patch.
        let index = match format {
            CompactFormat::Plain => {
                let mut writer = AdjFileWriter::create_indexed(
                    &tmp_path,
                    n,
                    delta.num_edges(),
                    Arc::clone(&self.stats),
                    self.block_size,
                )?;
                write_overlay(&delta, &mut |v, ns| writer.write_record(v, ns))?;
                let index = CompactIndex::Plain(writer.finish_indexed()?);
                finish_compact_file(&tmp_path, out_path, kill)?;
                index
            }
            CompactFormat::Compressed => {
                let mut writer = CompressedAdjWriter::create_indexed(
                    &tmp_path,
                    n,
                    delta.num_edges(),
                    Arc::clone(&self.stats),
                    self.block_size,
                )?;
                write_overlay(&delta, &mut |v, ns| writer.write_record(v, ns))?;
                let index = CompactIndex::Compressed(writer.finish_indexed()?);
                finish_compact_file(&tmp_path, out_path, kill)?;
                index
            }
            CompactFormat::Sharded(shards) => {
                // Two steps through the existing machinery: materialise
                // the overlay as a plain temp file, then split it into
                // degree-balanced vertex-range shards.
                let mut writer = AdjFileWriter::create_indexed(
                    &tmp_path,
                    n,
                    delta.num_edges(),
                    Arc::clone(&self.stats),
                    self.block_size,
                )?;
                write_overlay(&delta, &mut |v, ns| writer.write_record(v, ns))?;
                let _ = writer.finish_indexed()?;
                if kill == KillPoint::AfterSeal {
                    return Err(simulated_kill());
                }
                let src = AnyAdjFile::open_with_block_size(
                    &tmp_path,
                    Arc::clone(&self.stats),
                    self.block_size,
                )?;
                let manifest = split_adj_file(
                    &src,
                    out_path,
                    &SplitOptions {
                        shards,
                        block_size: self.block_size,
                    },
                )?;
                drop(src);
                std::fs::remove_file(&tmp_path)?;
                CompactIndex::Sharded {
                    shards: manifest.shards.len(),
                    vertices: manifest.num_vertices,
                }
            }
        };
        if kill == KillPoint::AfterSeal {
            // (single-file formats return inside finish_compact_file)
            return Err(simulated_kill());
        }

        self.base =
            AnyAdjFile::open_with_block_size(out_path, Arc::clone(&self.stats), self.block_size)?;
        self.overlay = Arc::default();
        // Every sealed segment is folded into the new base: drop them
        // from the manifest, keep the Arcs on the dead list until no
        // snapshot pins them, then truncate the WAL.
        if !self.manifest.segments.is_empty() || !self.segments.is_empty() {
            self.manifest.segments.clear();
            self.manifest.store(&self.seg_dir.join(MANIFEST_NAME))?;
            self.dead.append(&mut self.segments);
        }
        if kill == KillPoint::AfterManifest {
            return Err(simulated_kill());
        }
        self.wal.reset_after_compaction()?;
        self.gc();
        Ok(CompactReport {
            vertices: n,
            edges: self.base.num_edges(),
            bytes: self.base.disk_bytes()?,
            merged_ops,
            index,
        })
    }

    /// Reads the store's durable state without modifying anything.
    pub fn status(&self) -> io::Result<StoreStatus> {
        let checkpoint = Checkpoint::load_if_exists(&self.ckpt_path, &self.stats)?
            .map(|c| (c.epoch, c.set.len()));
        let segments: Vec<SegmentMeta> = self.segments.iter().map(|s| *s.meta()).collect();
        let segment_bytes = segments.iter().map(|m| m.bytes).sum();
        Ok(StoreStatus {
            vertices: self.base.num_vertices(),
            base_edges: self.base.num_edges(),
            live_edges: self.overlay().num_edges(),
            last_epoch: self.wal.last_epoch(),
            committed_ops: self.num_committed_ops(),
            wal_bytes: self.wal.disk_bytes(),
            checkpoint,
            segments,
            segment_bytes,
            dead_segments: self.dead.len(),
        })
    }
}

/// Temp path the crash-atomic compaction writes through.
fn compact_temp_path(out_path: &Path) -> PathBuf {
    let name = out_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "compact".to_string());
    out_path.with_file_name(format!("{name}.cmp.tmp"))
}

/// Fsyncs the finished temp file and renames it over the target — the
/// commit point of a single-file compaction.
fn finish_compact_file(tmp: &Path, out: &Path, kill: KillPoint) -> io::Result<()> {
    std::fs::File::open(tmp)?.sync_data()?;
    if kill == KillPoint::AfterSeal {
        // Simulated crash: the finished temp exists, the target was
        // never replaced. compact_as_killable surfaces the kill error.
        return Ok(());
    }
    std::fs::rename(tmp, out)
}

fn simulated_kill() -> io::Error {
    io::Error::other("simulated crash (kill point)")
}

/// Deletes crash orphans in the segment directory: temp files from
/// interrupted seals/manifest writes, and sealed segment files the
/// manifest does not list (their roll or merge never committed).
fn cleanup_orphans(seg_dir: &Path, manifest: &Manifest) -> io::Result<()> {
    for entry in std::fs::read_dir(seg_dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let stale_tmp = name.ends_with(".tmp");
        let orphan_seg = is_segment_file(&name)
            && parse_segment_id(&name).is_none_or(|id| !manifest.segments.contains(&id));
        if stale_tmp || orphan_seg {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Parses the id out of a `seg-NNNNNN.seg` file name.
fn parse_segment_id(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Applies one committed operation to `overlay` over `n` base vertices.
fn apply_op(overlay: &mut DeltaOverlay, n: usize, op: EdgeOp) {
    match op {
        EdgeOp::Insert(u, v) => overlay.insert_edge(n, u, v),
        EdgeOp::Delete(u, v) => overlay.delete_edge(n, u, v),
    }
}

/// Streams every overlay record into `write`, stopping at (and
/// surfacing) the first write error — the shared scan shape of the
/// [`CompactFormat`] arms.
fn write_overlay(
    delta: &PinnedDelta<AnyAdjFile>,
    write: &mut dyn FnMut(VertexId, &[VertexId]) -> io::Result<()>,
) -> io::Result<()> {
    let mut write_err = None;
    delta.scan(&mut |v, ns| {
        if write_err.is_none() {
            write_err = write(v, ns).err();
        }
    })?;
    match write_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

impl ApplyReport {
    /// Writes the checkpoint this report describes, then returns `self`
    /// (keeps the call sites above linear).
    fn with_checkpoint(
        self,
        path: &Path,
        epoch: u64,
        set: &[VertexId],
        stats: &Arc<IoStats>,
    ) -> io::Result<Self> {
        Checkpoint::write(path, epoch, set, stats)?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_extmem::ScratchDir;
    use mis_graph::build_adj_file;

    fn setup(dir: &ScratchDir, seed: u64) -> (UpdateStore, Arc<IoStats>) {
        let graph = mis_gen::plrg::Plrg::with_vertices(2_000, 2.0)
            .seed(seed)
            .generate();
        let stats = IoStats::shared();
        build_adj_file(&graph, &dir.file("base.adj"), Arc::clone(&stats), 4096).unwrap();
        let (store, recovery) = UpdateStore::open(
            &dir.file("base.adj"),
            &dir.file("edits.wal"),
            &dir.file("is.ckpt"),
            Arc::clone(&stats),
            4096,
        )
        .unwrap();
        assert_eq!(recovery.dropped_bytes, 0);
        (store, stats)
    }

    /// A vertex pair guaranteed absent from the base graph, so the
    /// overlay's running edge count stays exact in the tests below.
    fn non_edge(store: &UpdateStore) -> (u32, u32) {
        let mut ns_of_5 = Vec::new();
        store
            .base()
            .scan(&mut |v, ns| {
                if v == 5 {
                    ns_of_5.extend_from_slice(ns);
                }
            })
            .unwrap();
        let u = (6..store.base().num_vertices() as u32)
            .find(|u| !ns_of_5.contains(u))
            .expect("vertex 5 is not connected to everything");
        (5, u)
    }

    fn reopen(dir: &ScratchDir) -> (UpdateStore, WalRecovery) {
        UpdateStore::open(
            &dir.file("base.adj"),
            &dir.file("edits.wal"),
            &dir.file("is.ckpt"),
            IoStats::shared(),
            4096,
        )
        .unwrap()
    }

    #[test]
    fn bootstrap_apply_then_incremental_apply() {
        let dir = ScratchDir::new("store-e2e").unwrap();
        let (mut store, _stats) = setup(&dir, 3);

        // First apply bootstraps and checkpoints.
        let boot = store.apply(RepairConfig::default()).unwrap();
        assert!(boot.bootstrapped);
        assert!(boot.maximality_proved);
        assert_eq!(boot.epoch, 0);

        // Log one epoch of edits: connect two checkpointed members (must
        // evict) and delete some base edges.
        let ckpt = Checkpoint::load(&dir.file("is.ckpt"), store.stats()).unwrap();
        let (a, b) = (ckpt.set[0], ckpt.set[1]);
        let mut ops = vec![EdgeOp::Insert(a.min(b), a.max(b))];
        store
            .base()
            .scan(&mut |v, ns| {
                if ops.len() < 20 {
                    if let Some(&u) = ns.iter().find(|&&u| u > v) {
                        ops.push(EdgeOp::Delete(v, u));
                    }
                }
            })
            .unwrap();
        let epoch = store.append_ops(&ops).unwrap();
        assert_eq!(epoch, 1);

        // Apply resumes from the checkpoint, repairs and proves.
        let apply = store.apply(RepairConfig::default()).unwrap();
        assert!(!apply.bootstrapped);
        assert!(!apply.up_to_date);
        assert_eq!(apply.resumed_from, 0);
        assert_eq!(apply.epoch, 1);
        assert!(apply.evicted >= 1);
        assert!(apply.maximality_proved);

        // A second apply is a no-op.
        let noop = store.apply(RepairConfig::default()).unwrap();
        assert!(noop.up_to_date);
        assert_eq!(noop.set_size, apply.set_size);
        assert_eq!(noop.file_scans, 0);

        // Status reflects the epoch, ops and checkpoint.
        let status = store.status().unwrap();
        assert_eq!(status.last_epoch, 1);
        assert_eq!(status.committed_ops, ops.len());
        assert_eq!(status.checkpoint, Some((1, apply.set_size)));
        assert_eq!(
            status.live_edges,
            status.base_edges + 1 - (ops.len() as u64 - 1)
        );

        // Compaction folds the overlay into a new base and empties the log.
        let compact = store.compact(&dir.file("base2.adj")).unwrap();
        assert_eq!(compact.merged_ops, ops.len());
        assert_eq!(compact.edges, status.live_edges);
        assert_eq!(compact.index.len(), status.vertices);
        let status2 = store.status().unwrap();
        assert_eq!(status2.base_edges, status.live_edges);
        assert_eq!(status2.committed_ops, 0);
        assert_eq!(status2.last_epoch, 1, "epoch numbering survives");

        // The checkpointed set is still valid on the compacted graph:
        // apply stays a no-op.
        assert!(store.apply(RepairConfig::default()).unwrap().up_to_date);

        // And the next epoch continues the numbering.
        let e2 = store.append_ops(&[EdgeOp::Insert(0, 1)]).unwrap();
        assert_eq!(e2, 2);
    }

    #[test]
    fn reopen_resumes_from_durable_state() {
        let dir = ScratchDir::new("store-reopen").unwrap();
        let set_size;
        {
            let (mut store, _) = setup(&dir, 5);
            store.apply(RepairConfig::default()).unwrap();
            store
                .append_ops(&[EdgeOp::Insert(0, 1), EdgeOp::Delete(0, 1)])
                .unwrap();
            set_size = store.apply(RepairConfig::default()).unwrap().set_size;
        }
        let (store, recovery) = reopen(&dir);
        assert_eq!(recovery.last_epoch, 1);
        let status = store.status().unwrap();
        assert_eq!(status.checkpoint, Some((1, set_size)));
        assert!(store.apply(RepairConfig::default()).unwrap().up_to_date);
    }

    #[test]
    fn append_validates_endpoints() {
        let dir = ScratchDir::new("store-valid").unwrap();
        let (mut store, _) = setup(&dir, 7);
        let n = store.base().num_vertices() as u32;
        assert!(store.append_ops(&[EdgeOp::Insert(0, n)]).is_err());
        assert!(store.append_ops(&[EdgeOp::Delete(3, 3)]).is_err());
        // Nothing was committed by the failed batches.
        assert_eq!(store.wal().last_epoch(), 0);
    }

    #[test]
    fn checkpoint_ahead_of_the_wal_is_rejected() {
        let dir = ScratchDir::new("store-ahead").unwrap();
        let (mut store, stats) = setup(&dir, 13);
        store.apply(RepairConfig::default()).unwrap();
        store.append_ops(&[EdgeOp::Insert(0, 1)]).unwrap();
        store.apply(RepairConfig::default()).unwrap(); // checkpoint at epoch 1
        drop(store);
        // Re-open the same base + checkpoint against a *fresh* WAL: the
        // checkpoint is now "from the future" and must not be trusted.
        let (mismatched, _) = UpdateStore::open(
            &dir.file("base.adj"),
            &dir.file("other.wal"),
            &dir.file("is.ckpt"),
            stats,
            4096,
        )
        .unwrap();
        let err = mismatched.apply(RepairConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("do not belong together"));
    }

    #[test]
    fn compact_corrects_the_edge_count_for_invalid_streams() {
        use mis_graph::GraphScan;
        let dir = ScratchDir::new("store-dup").unwrap();
        let (mut store, _) = setup(&dir, 11);
        // Find one real base edge and log it as a (duplicate) insert plus
        // a phantom delete of a non-edge: the overlay's running count
        // drifts by +1 −1 in ways scans ignore.
        let mut base_edge = None;
        store
            .base()
            .scan(&mut |v, ns| {
                if base_edge.is_none() {
                    if let Some(&u) = ns.first() {
                        base_edge = Some((v.min(u), v.max(u)));
                    }
                }
            })
            .unwrap();
        let (u, v) = base_edge.unwrap();
        let base_edges = store.base().num_edges();
        store.append_ops(&[EdgeOp::Insert(u, v)]).unwrap();
        let report = store.compact(&dir.file("fixed.adj")).unwrap();
        // The duplicate insert must not inflate the compacted header.
        assert_eq!(report.edges, base_edges);
        assert_eq!(store.base().num_edges(), base_edges);
    }

    #[test]
    fn compact_to_compressed_keeps_the_pipeline_running() {
        let dir = ScratchDir::new("store-compfmt").unwrap();
        let (mut store, _) = setup(&dir, 21);
        store.apply(RepairConfig::default()).unwrap();
        store
            .append_ops(&[EdgeOp::Insert(0, 1), EdgeOp::Delete(0, 1)])
            .unwrap();
        store.apply(RepairConfig::default()).unwrap();
        let plain_bytes = store.base().disk_bytes().unwrap();
        let mut directed = 0u64;
        store
            .overlay()
            .scan(&mut |_, ns| directed += ns.len() as u64)
            .unwrap();

        let report = store
            .compact_as(&dir.file("base.cadj"), CompactFormat::Compressed)
            .unwrap();
        assert!(matches!(report.index, CompactIndex::Compressed(_)));
        assert_eq!(report.index.len() as u64, report.vertices);
        assert!(!report.index.is_empty());
        assert_eq!(report.edges, directed / 2, "header reflects the scan");
        assert!(
            report.bytes < plain_bytes,
            "compressed base must be smaller ({} vs {plain_bytes})",
            report.bytes
        );

        // The store now runs on the compressed base: the checkpoint is
        // still current, and the next epoch repairs + proves on it.
        assert!(matches!(store.base(), AnyAdjFile::Compressed(_)));
        assert!(store.apply(RepairConfig::default()).unwrap().up_to_date);
        let mut edge = None;
        store
            .base()
            .scan(&mut |v, ns| {
                if edge.is_none() {
                    if let Some(&u) = ns.iter().find(|&&u| u > v) {
                        edge = Some((v, u));
                    }
                }
            })
            .unwrap();
        let (u, v) = edge.unwrap();
        store.append_ops(&[EdgeOp::Delete(u, v)]).unwrap();
        let rep = store.apply(RepairConfig::default()).unwrap();
        assert!(rep.maximality_proved);

        // `CompactFormat` parses from the CLI's flag values.
        assert_eq!(
            "compressed".parse::<CompactFormat>().unwrap(),
            CompactFormat::Compressed
        );
        assert_eq!(
            "plain".parse::<CompactFormat>().unwrap(),
            CompactFormat::Plain
        );
        assert_eq!(
            "sharded:4".parse::<CompactFormat>().unwrap(),
            CompactFormat::Sharded(4)
        );
        assert!("zip".parse::<CompactFormat>().is_err());
        assert!("sharded:0".parse::<CompactFormat>().is_err());
        assert!("sharded:x".parse::<CompactFormat>().is_err());
    }

    #[test]
    fn compact_refuses_to_overwrite_the_base() {
        let dir = ScratchDir::new("store-selfcompact").unwrap();
        let (mut store, _) = setup(&dir, 9);
        let err = store.compact(&dir.file("base.adj")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn wal_rolls_into_segments_and_reopens_identically() {
        let dir = ScratchDir::new("store-roll").unwrap();
        let (mut store, _) = setup(&dir, 17);
        store.set_roll_policy(RollPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_epochs: 2,
            compact_threshold: usize::MAX,
        });
        for i in 0..5u32 {
            store
                .append_ops(&[EdgeOp::Insert(i, i + 100), EdgeOp::Insert(i, i + 200)])
                .unwrap();
        }
        // Epochs 1..=5, rolling every 2: segments [1,2], [3,4]; WAL holds 5.
        let status = store.status().unwrap();
        assert_eq!(status.segments.len(), 2);
        assert_eq!(
            (status.segments[0].epoch_lo, status.segments[0].epoch_hi),
            (1, 2)
        );
        assert_eq!(
            (status.segments[1].epoch_lo, status.segments[1].epoch_hi),
            (3, 4)
        );
        assert_eq!(status.last_epoch, 5);
        assert_eq!(status.committed_ops, 10);
        assert!(status.segment_bytes > 0);
        let trace: Vec<_> = store.committed_ops().collect();

        // Reopen: segments + WAL tail replay to the same history.
        drop(store);
        let (reopened, recovery) = reopen(&dir);
        assert_eq!(recovery.last_epoch, 5);
        assert_eq!(reopened.committed_ops().collect::<Vec<_>>(), trace);
        assert_eq!(reopened.segments().len(), 2);
    }

    #[test]
    fn segment_compaction_merges_overlapping_runs_without_losing_history() {
        let dir = ScratchDir::new("store-segcompact").unwrap();
        let (mut store, _) = setup(&dir, 19);
        store.set_roll_policy(RollPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_epochs: 1,
            compact_threshold: usize::MAX,
        });
        // Three overlapping segments, with a superseded pair across them.
        store.append_ops(&[EdgeOp::Insert(10, 20)]).unwrap();
        store
            .append_ops(&[EdgeOp::Delete(20, 10), EdgeOp::Insert(11, 21)])
            .unwrap();
        store.append_ops(&[EdgeOp::Insert(10, 20)]).unwrap();
        assert_eq!(store.segments().len(), 3);
        let before: Vec<_> = {
            let d = store.overlay();
            let mut recs = Vec::new();
            d.scan(&mut |v, ns| {
                let mut s = ns.to_vec();
                s.sort_unstable();
                recs.push((v, s));
            })
            .unwrap();
            recs
        };

        let report = store.compact_segments().unwrap().unwrap();
        assert_eq!(report.merged, 3);
        // insert(10,20) → delete → insert again: two ops superseded.
        assert_eq!(report.dropped_ops, 2);
        assert_eq!(report.reclaimed_files, 3, "nothing pinned the inputs");
        assert_eq!(store.segments().len(), 1);
        // Epoch 1's only op was superseded, so the merged footer starts
        // at the first *surviving* op's epoch.
        assert_eq!((report.output.epoch_lo, report.output.epoch_hi), (2, 3));

        // The overlay is unchanged by the merge.
        let after: Vec<_> = {
            let d = store.overlay();
            let mut recs = Vec::new();
            d.scan(&mut |v, ns| {
                let mut s = ns.to_vec();
                s.sort_unstable();
                recs.push((v, s));
            })
            .unwrap();
            recs
        };
        assert_eq!(before, after);

        // And the merged layout survives a reopen.
        drop(store);
        let (reopened, _) = reopen(&dir);
        assert_eq!(reopened.segments().len(), 1);
        assert_eq!(reopened.num_committed_ops(), 2);
    }

    #[test]
    fn partial_compaction_keeps_live_edge_counts_exact() {
        // A valid churn stream (deletes name live edges, inserts absent
        // pairs, and later deletes also hit earlier inserts), one epoch
        // per segment and a merge after every roll: insert → delete
        // chains of one pair end up inside one merged run.
        let dir = ScratchDir::new("store-segcount").unwrap();
        let graph = mis_gen::plrg::Plrg::with_vertices(2_000, 2.0)
            .seed(43)
            .generate();
        build_adj_file(&graph, &dir.file("base.adj"), IoStats::shared(), 4096).unwrap();
        let (mut store, _) = reopen(&dir);
        store.set_roll_policy(RollPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_epochs: 1,
            compact_threshold: 2,
        });
        for batch in mis_gen::churn_stream(&graph, 2_000, 0.5, 7).chunks(100) {
            let ops: Vec<EdgeOp> = batch
                .iter()
                .map(|op| match op.kind {
                    mis_gen::ChurnKind::Insert => EdgeOp::Insert(op.u, op.v),
                    mis_gen::ChurnKind::Delete => EdgeOp::Delete(op.u, op.v),
                })
                .collect();
            store.append_ops(&ops).unwrap();
        }
        assert_eq!(store.segments().len(), 1, "every roll merged");
        let scanned = |store: &UpdateStore| {
            let mut directed = 0u64;
            store
                .overlay()
                .scan(&mut |_, ns| directed += ns.len() as u64)
                .unwrap();
            directed / 2
        };
        let live = scanned(&store);
        assert_eq!(store.status().unwrap().live_edges, live);

        // A reopen replays the merged segments to the same counts.
        drop(store);
        let (reopened, _) = reopen(&dir);
        assert_eq!(scanned(&reopened), live);
        assert_eq!(reopened.status().unwrap().live_edges, live);
        assert_eq!(reopened.overlay().num_edges(), live);
    }

    #[test]
    fn snapshots_pin_segments_against_gc() {
        let dir = ScratchDir::new("store-pin").unwrap();
        let (mut store, _) = setup(&dir, 23);
        store.set_roll_policy(RollPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_epochs: 1,
            compact_threshold: usize::MAX,
        });
        store.append_ops(&[EdgeOp::Insert(1, 2)]).unwrap();
        store.append_ops(&[EdgeOp::Delete(2, 1)]).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.epoch(), 2);
        let pinned_paths: Vec<_> = store
            .segments()
            .iter()
            .map(|s| s.path().to_path_buf())
            .collect();
        assert_eq!(pinned_paths.len(), 2);

        // Compaction replaces both segments, but the snapshot pins them:
        // the files must survive until the snapshot drops.
        let report = store.compact_segments().unwrap().unwrap();
        assert_eq!(report.reclaimed_files, 0);
        assert!(pinned_paths.iter().all(|p| p.exists()));
        let status = store.status().unwrap();
        assert_eq!(status.dead_segments, 2);

        // The snapshot still replays its pinned history.
        assert_eq!(snap.num_ops(), 2);
        let view = snap.pinned();
        assert_eq!(view.epoch(), 2);
        assert_eq!(view.num_edges(), store.base().num_edges());

        // Dropping the snapshot releases the pins; gc reclaims the files.
        drop(snap);
        assert_eq!(store.gc(), 2);
        assert!(pinned_paths.iter().all(|p| !p.exists()));
        assert_eq!(store.status().unwrap().dead_segments, 0);
    }

    #[test]
    fn snapshot_isolation_survives_later_epochs_and_base_compaction() {
        let dir = ScratchDir::new("store-snapiso").unwrap();
        let (mut store, _) = setup(&dir, 29);
        let (u, v) = non_edge(&store);
        store.append_ops(&[EdgeOp::Insert(u, v)]).unwrap();
        let snap = store.snapshot();
        let before = snap.replay_trace();
        let edges_at_1 = snap.pinned().num_edges();

        // Later epochs, a roll, and a full base compaction all happen
        // underneath; the pinned view must not move.
        store.append_ops(&[EdgeOp::Delete(v, u)]).unwrap();
        store.roll_segment().unwrap();
        store.compact(&dir.file("base2.adj")).unwrap();
        assert_eq!(snap.replay_trace(), before);
        assert_eq!(snap.pinned().num_edges(), edges_at_1);
        assert_eq!(snap.epoch(), 1);
        // The new store state moved on.
        assert_eq!(store.snapshot().epoch(), 2);
        assert_eq!(store.base().num_edges(), edges_at_1 - 1);
    }

    #[test]
    fn ops_in_range_uses_the_segment_filter() {
        let dir = ScratchDir::new("store-range").unwrap();
        let (mut store, _) = setup(&dir, 31);
        store.set_roll_policy(RollPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_epochs: 1,
            compact_threshold: usize::MAX,
        });
        store.append_ops(&[EdgeOp::Insert(10, 11)]).unwrap();
        store.append_ops(&[EdgeOp::Insert(500, 600)]).unwrap();
        store.append_ops(&[EdgeOp::Delete(10, 11)]).unwrap(); // WAL tail
        let snap = store.snapshot();
        assert_eq!(
            snap.ops_in_range(10, 11),
            vec![(1, EdgeOp::Insert(10, 11)), (3, EdgeOp::Delete(10, 11))]
        );
        assert_eq!(snap.ops_in_range(550, 550), vec![]);
        assert_eq!(
            snap.ops_in_range(600, 600),
            vec![(2, EdgeOp::Insert(500, 600))]
        );
    }

    #[test]
    fn compaction_leaves_no_temp_files_and_cleans_orphans_on_open() {
        let dir = ScratchDir::new("store-tmpclean").unwrap();
        let (mut store, _) = setup(&dir, 37);
        store.append_ops(&[EdgeOp::Insert(0, 1)]).unwrap();
        store.compact(&dir.file("base2.adj")).unwrap();
        assert!(!compact_temp_path(&dir.file("base2.adj")).exists());

        // Plant orphans a crash could leave behind, then reopen.
        store.append_ops(&[EdgeOp::Insert(2, 3)]).unwrap();
        store.roll_segment().unwrap();
        drop(store);
        let seg_dir = dir.file("edits.segs");
        std::fs::write(seg_dir.join("seg-000099.seg"), b"junk").unwrap();
        std::fs::write(seg_dir.join("seg-000050.seg.tmp"), b"junk").unwrap();
        std::fs::write(seg_dir.join("MANIFEST.tmp"), b"junk").unwrap();
        let (reopened, _) = UpdateStore::open(
            &dir.file("base2.adj"),
            &dir.file("edits.wal"),
            &dir.file("is.ckpt"),
            IoStats::shared(),
            4096,
        )
        .unwrap();
        assert!(!seg_dir.join("seg-000099.seg").exists());
        assert!(!seg_dir.join("seg-000050.seg.tmp").exists());
        assert!(!seg_dir.join("MANIFEST.tmp").exists());
        assert_eq!(reopened.segments().len(), 1);
        assert_eq!(reopened.num_committed_ops(), 1);
    }

    #[test]
    fn compact_to_sharded_keeps_the_pipeline_running() {
        let dir = ScratchDir::new("store-shardcompact").unwrap();
        let (mut store, _) = setup(&dir, 41);
        store.apply(RepairConfig::default()).unwrap();
        let (u, v) = non_edge(&store);
        store.append_ops(&[EdgeOp::Insert(u, v)]).unwrap();
        store.apply(RepairConfig::default()).unwrap();
        let live_edges = store.status().unwrap().live_edges;

        let report = store
            .compact_as(&dir.file("base.shrd"), CompactFormat::Sharded(4))
            .unwrap();
        assert!(matches!(
            report.index,
            CompactIndex::Sharded { shards: 4, .. }
        ));
        assert_eq!(report.index.len(), store.base().num_vertices());
        assert_eq!(report.edges, live_edges);
        assert!(matches!(store.base(), AnyAdjFile::Sharded(_)));
        // Maintenance continues on the sharded base.
        assert!(store.apply(RepairConfig::default()).unwrap().up_to_date);
        store.append_ops(&[EdgeOp::Delete(u, v)]).unwrap();
        assert!(
            store
                .apply(RepairConfig::default())
                .unwrap()
                .maximality_proved
        );
    }
}
