//! The maintenance engine: base file + tiered log + checkpoint.
//!
//! An [`UpdateStore`] owns the durable artefacts of the update
//! subsystem — the base adjacency file, the **tiered** edge log (active
//! WAL + sealed [`Segment`]s listed in a [`Manifest`]), and the
//! independent-set checkpoint — and exposes the maintenance operations
//! the `mis update` CLI and the `mis serve` engine drive:
//!
//! * [`UpdateStore::append_ops`] — log a batch of edge updates and seal
//!   it as one WAL epoch, then apply the store's one [`RollPolicy`]:
//!   when the active WAL crosses a threshold it **rolls** (the committed
//!   epochs are sealed into an immutable segment and the WAL restarts
//!   empty), and whenever `compact_threshold` segments are live after
//!   that it **merges** them;
//! * [`UpdateStore::snapshot`] — the epoch-pinned read view
//!   ([`Snapshot`]): the base handle plus the maintained overlay, which
//!   later appends and compactions never change;
//! * [`UpdateStore::apply`] — bring the maintained independent set up to
//!   the last committed epoch: resume from the checkpointed set (or
//!   bootstrap one with Greedy), hand it to the one incremental repair
//!   ([`try_repair_since`]) — from the record of the last batch when the
//!   checkpoint is one epoch behind, otherwise from one violation scan —
//!   and write a fresh checkpoint;
//! * [`UpdateStore::compact_segments`] — the segment compactor: it
//!   merges every live segment into one (superseded per-pair operations
//!   elided) without touching the WAL or the base, and removes the
//!   replaced files once the manifest no longer lists them;
//! * [`UpdateStore::compact`] / [`UpdateStore::compact_as`] — full
//!   compaction: merge base + overlay into a fresh adjacency file,
//!   written **crash-atomically** (temp file + fsync + rename), then
//!   drop every segment and truncate the log. The [`CompactFormat`]
//!   picks the plain `MISADJ01` layout or the 2–3× smaller
//!   gap-compressed `MISADJC1` layout;
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
//! Each append also leaves the overlay's record of its batch
//! ([`mis_graph::LastBatch`]), which open rebuilds from the last
//! committed epoch's operations and a full compaction drops.
//!
//! Snapshots and the serve engine's published view share it by `Arc`.
//! When one of them still holds the current version, the next append
//! edits a copy (copy-on-write): a copy of the overlay's flat arrays,
//! not a replay. Sealed segments keep their operations in memory, so no
//! reader ever opens a segment file after [`UpdateStore::open`].
//!
//! The base file may be either [`AnyAdjFile`] format (plain or
//! compressed — the magic is sniffed at open), so a store can compact
//! into the compressed format and keep running on it.
//!
//! ## The point-access handle
//!
//! The store owns one paged handle over its base
//! ([`AnyAdjFile::open_random_access`], under [`UpdateStore::set_pager`]'s
//! budget). The first [`UpdateStore::apply`] opens it, paying the one
//! index-build scan; a full compaction reopens it over the new base.
//! Every snapshot taken after that carries it, so repairs and the serve
//! engine's neighborhood queries read through it and never read records
//! by scans. `mis update append` and `status` never open it.
//!
//! ## Crash recovery
//!
//! Every multi-file transition is ordered so that a crash at any point
//! reopens to a consistent store: segments and the manifest are written
//! via temp + fsync + rename; `*.tmp` orphans and segment files missing
//! from the manifest are deleted on open, as are segment files replaced
//! by a merge or a full compaction once the manifest that drops them is
//! durable (a removal that fails is retried by [`UpdateStore::gc`]); a
//! WAL whose epochs are already sealed in a segment (crash between
//! manifest update and WAL reset) is detected as a duplicated prefix and
//! reset, since segment replay is per-pair idempotent.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use mis_core::{
    is_maximal_independent_set, try_repair_since, Greedy, OneKSwap, RepairConfig, SwapConfig,
};
use mis_graph::{
    AnyAdjFile, DeltaOverlay, GapCodec, GraphScan, PinnedDelta, PlainCodec, RecordCodec,
    RecordWriter, SharedAccess, VertexId,
};

use mis_extmem::{IoStats, PagerConfig, PolicyKind};

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
    /// Merge segments whenever at least this many are live after the
    /// roll check.
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

/// Page size of the default point-access pager. A point read needs one
/// record, tens of bytes on a power-law graph, so a miss should not cost
/// a whole scan block: at 64 KiB pages a local repair over a 200k-vertex
/// base read about 4× the bytes it reads at 4 KiB, the usual device and
/// OS page.
pub const POINT_PAGE_SIZE: usize = 4096;

/// The default budget of the point-access handle:
/// [`PagerConfig::default`]'s 4 MiB in [`POINT_PAGE_SIZE`] pages.
pub fn point_pager() -> PagerConfig {
    PagerConfig::with_capacity_bytes(
        PagerConfig::default().capacity_bytes(),
        POINT_PAGE_SIZE,
        PolicyKind::default(),
    )
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
    segments: Vec<Segment>,
    /// Files of segments the manifest dropped whose removal failed;
    /// [`UpdateStore::gc`] retries them.
    dead: Vec<PathBuf>,
    roll: RollPolicy,
    /// Every committed operation over `base`, shared copy-on-write with
    /// snapshots (see the module docs).
    overlay: Arc<DeltaOverlay>,
    /// The pager budget of the point-access handle.
    pager: PagerConfig,
    /// The one point-access handle over `base`, opened by the first
    /// [`UpdateStore::apply`] and attached to every later snapshot.
    access: OnceLock<SharedAccess>,
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
}

impl std::str::FromStr for CompactFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "plain" => Ok(CompactFormat::Plain),
            "compressed" => Ok(CompactFormat::Compressed),
            other => Err(format!(
                "unknown compact format `{other}` (expected plain|compressed)"
            )),
        }
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
    /// Accounted scans the maintenance performed: a bootstrap's Greedy,
    /// swap and proof scans, or a repair's (0 one epoch behind, else 1,
    /// the violation scan); not the handle's index build.
    pub file_scans: u64,
    /// Whether the proof certified maximality on the edited graph.
    pub maximality_proved: bool,
    /// The checkpointed independent set, ascending.
    pub set: Vec<VertexId>,
}

/// What one [`UpdateStore::append_ops`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReport {
    /// The epoch the batch committed as.
    pub epoch: u64,
    /// Whether the active WAL rolled into a sealed segment.
    pub rolled: bool,
    /// Segments merged by a partial compaction (0 when none ran).
    pub merged: usize,
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
    /// Replaced segment files removed (a failed removal is left to
    /// [`UpdateStore::gc`]).
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
    /// Replaced segment files whose removal failed, awaiting
    /// [`UpdateStore::gc`].
    pub dead_segments: usize,
}

impl StoreStatus {
    /// Renders the status as one JSON line (the serve protocol's `STATUS`
    /// reply and `mis update status --json`).
    pub fn to_json(&self) -> String {
        let segs: Vec<String> = self
            .segments
            .iter()
            .map(|m| {
                format!(
                    "{{\"id\":{},\"epoch_lo\":{},\"epoch_hi\":{},\"ops\":{},\"tombstones\":{},\
                     \"min_vertex\":{},\"max_vertex\":{},\"bytes\":{}}}",
                    m.id,
                    m.epoch_lo,
                    m.epoch_hi,
                    m.ops,
                    m.tombstones,
                    m.min_vertex,
                    m.max_vertex,
                    m.bytes
                )
            })
            .collect();
        let ckpt = match self.checkpoint {
            Some((epoch, size)) => format!("{{\"epoch\":{epoch},\"set_size\":{size}}}"),
            None => "null".into(),
        };
        format!(
            "{{\"vertices\":{},\"base_edges\":{},\"live_edges\":{},\"last_epoch\":{},\
             \"committed_ops\":{},\"wal_bytes\":{},\"segment_bytes\":{},\"dead_segments\":{},\
             \"checkpoint\":{},\"segments\":[{}]}}",
            self.vertices,
            self.base_edges,
            self.live_edges,
            self.last_epoch,
            self.committed_ops,
            self.wal_bytes,
            self.segment_bytes,
            self.dead_segments,
            ckpt,
            segs.join(",")
        )
    }
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
            segments.push(seg);
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
            pager: point_pager(),
            access: OnceLock::new(),
        };
        // Replay every epoch but the last, then the last as a batch, so
        // the overlay holds its record again. Merges keep each pair's
        // last operation and the stream order, so that batch's touched
        // vertices and net pairs are the ones its append recorded.
        let n = store.base.num_vertices();
        let last = store.wal.last_epoch();
        let mut overlay = DeltaOverlay::new();
        let mut batch = Vec::new();
        for (epoch, op) in store.committed_ops() {
            if epoch == last {
                batch.push(edit(op));
            } else {
                match op {
                    EdgeOp::Insert(u, v) => overlay.insert_edge(n, u, v),
                    EdgeOp::Delete(u, v) => overlay.delete_edge(n, u, v),
                }
            }
        }
        if !batch.is_empty() {
            overlay.apply_batch(n, last, batch);
        }
        store.overlay = Arc::new(overlay);
        Ok((store, recovery))
    }

    /// The base adjacency file (plain or compressed) currently backing
    /// the store.
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
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Replaces the roll/compaction policy (defaults are conservative:
    /// 64 MiB or 256 epochs per segment, merges at 8 live segments).
    pub fn set_roll_policy(&mut self, policy: RollPolicy) {
        self.roll = policy;
    }

    /// Replaces the pager budget of the point-access handle (default
    /// [`point_pager`]). An open handle is dropped; the next
    /// [`UpdateStore::apply`] opens it again under `pager`.
    pub fn set_pager(&mut self, pager: PagerConfig) {
        self.pager = pager;
        self.access = OnceLock::new();
    }

    /// The point-access handle over the base, opened on first use with
    /// one accounted index-build scan.
    fn point_access(&self) -> io::Result<&SharedAccess> {
        if let Some(access) = self.access.get() {
            return Ok(access);
        }
        let opened = SharedAccess::new(self.base.open_random_access(self.pager)?);
        Ok(self.access.get_or_init(|| opened))
    }

    /// Appends a batch of operations and seals it as one epoch, then
    /// applies the [`RollPolicy`]: rolls the WAL into a sealed segment
    /// when it crosses a threshold, and merges segments whenever
    /// `compact_threshold` of them are live after that. Endpoint ranges
    /// are validated against the base file up front so a bad op never
    /// reaches the log. The maintained overlay takes the epoch's
    /// operations once its marker is durable.
    pub fn append_ops(&mut self, ops: &[EdgeOp]) -> io::Result<AppendReport> {
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
        let batch = self.wal.committed()[first..]
            .iter()
            .map(|&(_, op)| edit(op));
        // A snapshot still holding the current version makes this a copy.
        let overlay = {
            let _span = mis_obs::span("store", "store.overlay_copy");
            Arc::make_mut(&mut self.overlay)
        };
        overlay.apply_batch(n, epoch, batch);
        let rolled = (self.wal_epochs() >= self.roll.max_wal_epochs
            || self.wal.disk_bytes() >= self.roll.max_wal_bytes)
            && self.roll_segment()?.is_some();
        let merged = if self.segments.len() >= self.roll.compact_threshold {
            self.compact_segments()?.map_or(0, |c| c.merged)
        } else {
            0
        };
        Ok(AppendReport {
            epoch,
            rolled,
            merged,
        })
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
        self.segments.push(seg);
        if kill == KillPoint::AfterManifest {
            // Simulated crash: segment live, WAL still holds the same
            // epochs — the duplicated-prefix heal on open resolves it.
            return Ok(Some(meta));
        }
        self.wal.reset_after_compaction()?;
        mis_obs::counter("store", "store.segments", self.segments.len() as f64);
        Ok(Some(meta))
    }

    /// Merges every live sealed segment into one, eliding superseded
    /// per-pair operations. The WAL, the base and the overlay are not
    /// touched; the replaced segment files are removed once the manifest
    /// that drops them is durable. Returns `None` when fewer than two
    /// segments are live.
    pub fn compact_segments(&mut self) -> io::Result<Option<SegmentCompaction>> {
        self.compact_segments_killable(KillPoint::None)
    }

    #[doc(hidden)]
    pub fn compact_segments_killable(
        &mut self,
        kill: KillPoint,
    ) -> io::Result<Option<SegmentCompaction>> {
        if self.segments.len() < 2 {
            return Ok(None);
        }
        let _span = mis_obs::span("store", "store.compact_segments");
        let id = self.manifest.allocate();
        let (merged, dropped_ops) = merge_segments(&self.seg_dir, id, &self.segments, &self.stats)?;
        let output = *merged.meta();
        if kill == KillPoint::AfterSeal {
            self.manifest.next_id = id;
            return Ok(None);
        }
        self.manifest.segments = vec![id];
        self.manifest.store(&self.seg_dir.join(MANIFEST_NAME))?;
        let replaced = std::mem::replace(&mut self.segments, vec![merged]);
        let reclaimed_files = if kill == KillPoint::AfterManifest {
            // Simulated crash before the removal: the replaced files
            // linger as unmanifested orphans until the next open sweeps
            // them.
            0
        } else {
            self.remove_segment_files(&replaced)
        };
        Ok(Some(SegmentCompaction {
            merged: replaced.len(),
            dropped_ops,
            output,
            reclaimed_files,
        }))
    }

    /// Removes the files of segments the durable manifest no longer
    /// lists; a removal that fails goes on the dead list for
    /// [`UpdateStore::gc`]. Returns the number of files removed.
    fn remove_segment_files(&mut self, replaced: &[Segment]) -> usize {
        let mut removed = 0;
        for seg in replaced {
            if remove_if_present(seg.path()) {
                removed += 1;
            } else {
                self.dead.push(seg.path().to_path_buf());
            }
        }
        removed
    }

    /// Retries removing segment files whose removal failed after a
    /// merge or a full compaction dropped them from the manifest.
    /// Returns the number of files removed.
    pub fn gc(&mut self) -> usize {
        let before = self.dead.len();
        self.dead.retain(|path| !remove_if_present(path));
        before - self.dead.len()
    }

    /// The epoch-pinned read view as of now: the base handle plus the
    /// maintained overlay, and the point-access handle once
    /// [`UpdateStore::apply`] has opened it. Later appends, rolls and
    /// compactions never affect it.
    pub fn snapshot(&self) -> Snapshot {
        let view = PinnedDelta::new(
            self.base.clone(),
            Arc::clone(&self.overlay),
            self.wal.last_epoch(),
        );
        Snapshot::new(match self.access.get() {
            Some(access) => view.with_access(access.clone()),
            None => view,
        })
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

    /// Brings the maintained independent set up to the last committed
    /// epoch and checkpoints it, opening the point-access handle first
    /// if it is not open yet.
    ///
    /// The repair ([`try_repair_since`]) reads only what the batches
    /// since the checkpoint could have changed. One epoch behind, the
    /// overlay holds the record of the one batch since, even after a
    /// reopen, and no scan runs. Any other checkpoint — older, or from
    /// before a full compaction dropped the record — costs one violation
    /// scan of the pinned view, which finds what the log may no longer
    /// name.
    ///
    /// Without a checkpoint, Greedy bootstraps the set. When its pass
    /// saw the records out of ascending-degree order it ran as the
    /// unsorted BASELINE, so early-stopped one-k rounds lift its set
    /// before repairs take over, since those never revisit what a batch
    /// did not touch; then the proof scan.
    pub fn apply(&self, config: RepairConfig) -> io::Result<ApplyReport> {
        let _span = mis_obs::span("store", "store.apply");
        self.point_access()?;
        let target = self.wal.last_epoch();
        let delta = self.snapshot().pinned();
        let report = match Checkpoint::load_if_exists(&self.ckpt_path, &self.stats)? {
            // A checkpoint from the future is an invariant violation —
            // epochs only move forward, so this means the checkpoint and
            // the WAL belong to different stores (wrong --wal or
            // --checkpoint pairing, or a replaced log).
            Some(ckpt) if ckpt.epoch > target => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "checkpoint is at epoch {} but the wal only reaches epoch {target}; \
                         the checkpoint and log do not belong together",
                        ckpt.epoch
                    ),
                ));
            }
            Some(ckpt) if ckpt.epoch == target => {
                return Ok(ApplyReport {
                    epoch: target,
                    resumed_from: target,
                    bootstrapped: false,
                    up_to_date: true,
                    evicted: 0,
                    file_scans: 0,
                    maximality_proved: false,
                    set: ckpt.set,
                });
            }
            // Resume from the checkpointed set: evict, recover, certify.
            Some(ckpt) => {
                let out = try_repair_since(&delta, &ckpt.set, ckpt.epoch, config)?;
                ApplyReport {
                    epoch: target,
                    resumed_from: ckpt.epoch,
                    bootstrapped: false,
                    up_to_date: false,
                    evicted: out.evicted,
                    file_scans: out.swap.result.file_scans,
                    maximality_proved: out.maximality_proved,
                    set: out.swap.result.set,
                }
            }
            // First apply ever: bootstrap with Greedy on the edited graph.
            None => {
                let (greedy, degree_sorted) = Greedy::new().run_observing_order(&delta);
                let (set, swap_scans) = if degree_sorted {
                    (greedy.set, 0)
                } else {
                    let swap = OneKSwap::with_config(SwapConfig::early_stop(config.recover_rounds))
                        .run(&delta, &greedy.set);
                    (swap.result.set, swap.result.file_scans)
                };
                let maximality_proved = config.verify && is_maximal_independent_set(&delta, &set);
                ApplyReport {
                    epoch: target,
                    resumed_from: 0,
                    bootstrapped: true,
                    up_to_date: false,
                    evicted: 0,
                    file_scans: greedy.file_scans + swap_scans + u64::from(config.verify),
                    maximality_proved,
                    set,
                }
            }
        };
        Checkpoint::write(&self.ckpt_path, target, &report.set, &self.stats)?;
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
    /// Crash-atomic: the new base is written to `<out>.cmp.tmp`, fsynced,
    /// and renamed over `out_path`; a crash leaves either the old store
    /// (plus a harmless temp, cleaned by the next compaction or open) or
    /// the completed new base.
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
        let delta = self.snapshot().pinned();
        let n = delta.num_vertices() as u64;
        let tmp_path = compact_temp_path(out_path);
        // The writer counts the entries it actually writes and reconciles
        // the |E| header at finish, so overlay counts drifted by invalid
        // streams (duplicate-base inserts, phantom deletes) need no
        // caller-side patch.
        let (stats, block_size) = (&self.stats, self.block_size);
        match format {
            CompactFormat::Plain => {
                write_merged::<PlainCodec>(&delta, &tmp_path, stats, block_size)?;
            }
            CompactFormat::Compressed => {
                write_merged::<GapCodec>(&delta, &tmp_path, stats, block_size)?;
            }
        }
        finish_compact_file(&tmp_path, out_path, kill)?;

        self.base =
            AnyAdjFile::open_with_block_size(out_path, Arc::clone(&self.stats), self.block_size)?;
        self.overlay = Arc::default();
        if self.access.take().is_some() {
            self.point_access()?;
        }
        // Every sealed segment is folded into the new base: drop them
        // from the manifest, truncate the WAL, then remove their files.
        if !self.manifest.segments.is_empty() || !self.segments.is_empty() {
            self.manifest.segments.clear();
            self.manifest.store(&self.seg_dir.join(MANIFEST_NAME))?;
        }
        let replaced = std::mem::take(&mut self.segments);
        if kill == KillPoint::AfterManifest {
            return Err(simulated_kill());
        }
        self.wal.reset_after_compaction()?;
        self.remove_segment_files(&replaced);
        Ok(CompactReport {
            vertices: n,
            edges: self.base.num_edges(),
            bytes: self.base.disk_bytes()?,
            merged_ops,
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
            live_edges: self.snapshot().pinned().num_edges(),
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
/// commit point of a compaction.
fn finish_compact_file(tmp: &Path, out: &Path, kill: KillPoint) -> io::Result<()> {
    std::fs::File::open(tmp)?.sync_data()?;
    if kill == KillPoint::AfterSeal {
        // Simulated crash: the finished temp exists, the target was
        // never replaced.
        return Err(simulated_kill());
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

/// Removes `path`; `true` once the file is gone.
fn remove_if_present(path: &Path) -> bool {
    match std::fs::remove_file(path) {
        Ok(()) => true,
        Err(e) => e.kind() == io::ErrorKind::NotFound,
    }
}

/// `op` as the overlay's `(u, v, insert)` operation.
fn edit(op: EdgeOp) -> (VertexId, VertexId, bool) {
    let (u, v) = op.endpoints();
    (u, v, op.is_insert())
}

/// Writes the merged records of `delta` as one file of codec `C` at
/// `path`.
fn write_merged<C: RecordCodec>(
    delta: &PinnedDelta<AnyAdjFile>,
    path: &Path,
    stats: &Arc<IoStats>,
    block_size: usize,
) -> io::Result<()> {
    let mut writer = RecordWriter::<C>::create(
        path,
        delta.num_vertices() as u64,
        delta.num_edges(),
        Arc::clone(stats),
        block_size,
    )?;
    writer.write_scan(delta)?;
    writer.finish()?;
    Ok(())
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

    /// Every record of `g`, neighbours sorted.
    fn records<G: GraphScan>(g: &G) -> Vec<(VertexId, Vec<VertexId>)> {
        let mut recs = Vec::new();
        g.scan(&mut |v, ns| {
            let mut s = ns.to_vec();
            s.sort_unstable();
            recs.push((v, s));
        })
        .unwrap();
        recs
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
        let epoch = store.append_ops(&ops).unwrap().epoch;
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
        assert_eq!(noop.set, apply.set);
        assert_eq!(noop.file_scans, 0);

        // Status reflects the epoch, ops and checkpoint.
        let status = store.status().unwrap();
        assert_eq!(status.last_epoch, 1);
        assert_eq!(status.committed_ops, ops.len());
        assert_eq!(status.checkpoint, Some((1, apply.set.len())));
        assert_eq!(
            status.live_edges,
            status.base_edges + 1 - (ops.len() as u64 - 1)
        );

        // Compaction folds the overlay into a new base and empties the log.
        let compact = store.compact(&dir.file("base2.adj")).unwrap();
        assert_eq!(compact.merged_ops, ops.len());
        assert_eq!(compact.edges, status.live_edges);
        assert_eq!(compact.vertices as usize, status.vertices);
        let status2 = store.status().unwrap();
        assert_eq!(status2.base_edges, status.live_edges);
        assert_eq!(status2.committed_ops, 0);
        assert_eq!(status2.last_epoch, 1, "epoch numbering survives");

        // The checkpointed set is still valid on the compacted graph:
        // apply stays a no-op.
        assert!(store.apply(RepairConfig::default()).unwrap().up_to_date);

        // And the next epoch continues the numbering.
        let e2 = store.append_ops(&[EdgeOp::Insert(0, 1)]).unwrap();
        assert_eq!(e2.epoch, 2);
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
            set_size = store.apply(RepairConfig::default()).unwrap().set.len();
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
        let live = store.snapshot().pinned().count_edges_exact().unwrap();

        let report = store
            .compact_as(&dir.file("base.cadj"), CompactFormat::Compressed)
            .unwrap();
        assert_eq!(report.vertices, store.base().num_vertices() as u64);
        assert_eq!(report.edges, live, "header reflects the scan");
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
        assert!("zip".parse::<CompactFormat>().is_err());
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
        let before = records(&store.snapshot().pinned());

        let report = store.compact_segments().unwrap().unwrap();
        assert_eq!(report.merged, 3);
        // insert(10,20) → delete → insert again: two ops superseded.
        assert_eq!(report.dropped_ops, 2);
        assert_eq!(report.reclaimed_files, 3, "the inputs' files are gone");
        assert_eq!(store.segments().len(), 1);
        // Epoch 1's only op was superseded, so the merged footer starts
        // at the first *surviving* op's epoch.
        assert_eq!((report.output.epoch_lo, report.output.epoch_hi), (2, 3));

        // The overlay is unchanged by the merge.
        assert_eq!(records(&store.snapshot().pinned()), before);

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
        let scanned = |store: &UpdateStore| store.snapshot().pinned().count_edges_exact().unwrap();
        let live = scanned(&store);
        assert_eq!(store.status().unwrap().live_edges, live);

        // A reopen replays the merged segments to the same counts.
        drop(store);
        let (reopened, _) = reopen(&dir);
        assert_eq!(scanned(&reopened), live);
        assert_eq!(reopened.status().unwrap().live_edges, live);
        assert_eq!(reopened.snapshot().pinned().num_edges(), live);
    }

    #[test]
    fn replaced_segment_files_go_with_the_manifest_and_failures_wait_for_gc() {
        let dir = ScratchDir::new("store-dead").unwrap();
        let (mut store, _) = setup(&dir, 23);
        store.set_roll_policy(RollPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_epochs: 1,
            compact_threshold: usize::MAX,
        });
        for i in 0..4u32 {
            store.append_ops(&[EdgeOp::Insert(i, i + 50)]).unwrap();
        }
        let snap = store.snapshot();
        let view = records(&snap.pinned());
        let paths: Vec<_> = store
            .segments()
            .iter()
            .map(|s| s.path().to_path_buf())
            .collect();
        assert_eq!(paths.len(), 4);

        // A removal that fails (the path is now a directory) waits on
        // the dead list; the others go as soon as the manifest drops
        // them, snapshot or not.
        std::fs::remove_file(&paths[0]).unwrap();
        std::fs::create_dir(&paths[0]).unwrap();
        let report = store.compact_segments().unwrap().unwrap();
        assert_eq!(report.merged, 4);
        assert_eq!(report.reclaimed_files, 3);
        assert!(paths[1..].iter().all(|p| !p.exists()));
        assert_eq!(store.status().unwrap().dead_segments, 1);

        // The snapshot never needed the files.
        assert_eq!(records(&snap.pinned()), view);
        assert_eq!(records(&store.snapshot().pinned()), view);

        // gc retries the failed removal once it can succeed.
        assert_eq!(store.gc(), 0);
        std::fs::remove_dir(&paths[0]).unwrap();
        std::fs::write(&paths[0], b"stale").unwrap();
        assert_eq!(store.gc(), 1);
        assert!(!paths[0].exists());
        assert_eq!(store.status().unwrap().dead_segments, 0);
    }

    #[test]
    fn snapshot_isolation_survives_later_epochs_and_base_compaction() {
        let dir = ScratchDir::new("store-snapiso").unwrap();
        let (mut store, _) = setup(&dir, 29);
        let (u, v) = non_edge(&store);
        store.append_ops(&[EdgeOp::Insert(u, v)]).unwrap();
        let snap = store.snapshot();
        let before = records(&snap.pinned());
        let edges_at_1 = snap.pinned().num_edges();

        // Later epochs, a roll, and a full base compaction all happen
        // underneath; the pinned view must not move.
        store.append_ops(&[EdgeOp::Delete(v, u)]).unwrap();
        store.roll_segment().unwrap();
        store.compact(&dir.file("base2.adj")).unwrap();
        assert_eq!(records(&snap.pinned()), before);
        assert_eq!(snap.pinned().num_edges(), edges_at_1);
        assert_eq!(snap.epoch(), 1);
        // The new store state moved on.
        assert_eq!(store.snapshot().epoch(), 2);
        assert_eq!(store.base().num_edges(), edges_at_1 - 1);
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

    /// Cuts the base file in `dir` down to `len` bytes under the store.
    fn truncate_base(dir: &ScratchDir, len: impl FnOnce(u64) -> u64) {
        let path = dir.file("base.adj");
        let full = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len(full)).unwrap();
    }

    #[test]
    fn apply_returns_storage_errors() {
        let dir = ScratchDir::new("store-trunc").unwrap();
        let (mut store, _) = setup(&dir, 47);
        store.apply(RepairConfig::default()).unwrap();
        let (u, v) = non_edge(&store);
        store.append_ops(&[EdgeOp::Insert(u, v)]).unwrap();
        store.append_ops(&[EdgeOp::Delete(u, v)]).unwrap();
        // The base loses its last third under the open store: two epochs
        // behind, the violation scan is the first to read it.
        truncate_base(&dir, |len| len * 2 / 3);
        let err = store.apply(RepairConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let set = Checkpoint::load(&dir.file("is.ckpt"), store.stats())
            .unwrap()
            .set;
        let view = store.snapshot().pinned();
        let err = try_repair_since(&view, &set, 0, RepairConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_local_apply_returns_point_read_errors() {
        let dir = ScratchDir::new("store-trunc-local").unwrap();
        let (mut store, _) = setup(&dir, 61);
        store.apply(RepairConfig::default()).unwrap();
        let (u, v) = non_edge(&store);
        store.append_ops(&[EdgeOp::Insert(u, v)]).unwrap();
        // One epoch behind, the repair reads only the batch's records,
        // through the pager, and none of them is left.
        truncate_base(&dir, |_| 16);
        let err = store.apply(RepairConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn only_an_apply_one_epoch_behind_repairs_locally() {
        let dir = ScratchDir::new("store-local").unwrap();
        let (mut store, stats) = setup(&dir, 67);
        let config = RepairConfig::default();
        store.apply(config).unwrap();
        let batch = |i: u32| {
            let set = Checkpoint::load(&dir.file("is.ckpt"), &stats).unwrap().set;
            let mut ops: Vec<EdgeOp> = set
                .chunks_exact(2)
                .skip(i as usize * 5)
                .take(5)
                .map(|p| EdgeOp::Insert(p[0], p[1]))
                .collect();
            ops.push(EdgeOp::Delete(i, i + 1));
            ops
        };
        let apply = |store: &UpdateStore| {
            let scans = stats.snapshot().scans_started;
            let report = store.apply(config).unwrap();
            assert!(report.maximality_proved);
            let view = store.snapshot().pinned();
            assert!(mis_core::is_maximal_independent_set(&view, &report.set));
            (report, stats.snapshot().scans_started - scans - 1)
        };

        // One epoch behind: no scan at all.
        store.append_ops(&batch(0)).unwrap();
        let (report, scans) = apply(&store);
        assert_eq!((report.file_scans, scans), (0, 0));
        assert!(report.evicted > 0);

        // Two epochs behind: the violation scan, then point reads.
        store.append_ops(&batch(1)).unwrap();
        store.append_ops(&batch(2)).unwrap();
        let (report, scans) = apply(&store);
        assert_eq!((report.file_scans, scans), (1, 1));

        // After a reopen the record is rebuilt from the log.
        store.append_ops(&batch(3)).unwrap();
        drop(store);
        let (mut store, _) = UpdateStore::open(
            &dir.file("base.adj"),
            &dir.file("edits.wal"),
            &dir.file("is.ckpt"),
            Arc::clone(&stats),
            4096,
        )
        .unwrap();
        let scans = stats.snapshot().scans_started;
        let report = store.apply(config).unwrap();
        assert_eq!(report.file_scans, 0);
        assert_eq!(
            stats.snapshot().scans_started - scans,
            1,
            "the index build only"
        );

        // A full compaction drops the record: the violation scan again.
        store.append_ops(&batch(4)).unwrap();
        store.compact(&dir.file("base2.adj")).unwrap();
        assert!(store.snapshot().pinned().last_batch().is_none());
        let (report, scans) = apply(&store);
        assert_eq!((report.file_scans, scans), (1, 1));
        // ... until the next batch.
        store.append_ops(&batch(5)).unwrap();
        let (report, scans) = apply(&store);
        assert_eq!((report.file_scans, scans), (0, 0));
    }

    #[test]
    fn apply_repairs_a_checkpoint_older_than_the_base() {
        let dir = ScratchDir::new("store-oldckpt").unwrap();
        let (mut store, _) = setup(&dir, 53);
        let set = store.apply(RepairConfig::default()).unwrap().set;
        let ops: Vec<EdgeOp> = set
            .chunks_exact(2)
            .take(40)
            .map(|pair| EdgeOp::Insert(pair[0], pair[1]))
            .collect();
        store.append_ops(&ops).unwrap();
        // A full compaction folds the inserts into the base: the log no
        // longer reaches back to the checkpoint at epoch 0.
        store.compact(&dir.file("base2.adj")).unwrap();
        assert_eq!(store.num_committed_ops(), 0);
        let report = store.apply(RepairConfig::default()).unwrap();
        assert_eq!(report.resumed_from, 0);
        assert_eq!(report.evicted, 40, "one member of every inserted pair");
        assert!(report.maximality_proved);
        assert!(mis_core::is_independent_set(store.base(), &report.set));
        let ckpt = Checkpoint::load(&dir.file("is.ckpt"), store.stats()).unwrap();
        assert_eq!(ckpt.set, report.set);
    }

    #[test]
    fn a_reopened_store_merges_on_the_next_append() {
        let dir = ScratchDir::new("store-onerule").unwrap();
        let (mut store, _) = setup(&dir, 59);
        store.set_roll_policy(RollPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_epochs: 1,
            compact_threshold: usize::MAX,
        });
        for i in 0..3u32 {
            store.append_ops(&[EdgeOp::Insert(i, i + 100)]).unwrap();
        }
        assert_eq!(store.segments().len(), 3);
        drop(store);

        // Reopened with a policy that merges at 3 live segments, the
        // next append merges even though it does not roll.
        let (mut store, _) = reopen(&dir);
        store.set_roll_policy(RollPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_epochs: u64::MAX,
            compact_threshold: 3,
        });
        let report = store.append_ops(&[EdgeOp::Insert(3, 103)]).unwrap();
        assert_eq!(
            report,
            AppendReport {
                epoch: 4,
                rolled: false,
                merged: 3
            }
        );
        assert_eq!(store.wal().committed().len(), 1, "the append did not roll");
        assert_eq!(store.segments().len(), 1, "three live segments merged");
    }

    #[test]
    fn every_live_segment_merges_on_the_threshold_crossing() {
        // Disjoint vertex ranges: no segment's operations can supersede
        // another's, and all three still merge into one.
        let dir = ScratchDir::new("store-mergeall").unwrap();
        let (mut store, _) = setup(&dir, 71);
        store.set_roll_policy(RollPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_epochs: 1,
            compact_threshold: 3,
        });
        store.append_ops(&[EdgeOp::Insert(0, 1)]).unwrap();
        store.append_ops(&[EdgeOp::Insert(10, 11)]).unwrap();
        assert_eq!(store.segments().len(), 2);
        let report = store.append_ops(&[EdgeOp::Insert(20, 21)]).unwrap();
        assert_eq!(report.merged, 3);
        assert_eq!(store.segments().len(), 1);
        let meta = *store.segments()[0].meta();
        assert_eq!((meta.epoch_lo, meta.epoch_hi, meta.ops), (1, 3, 3));
        assert_eq!((meta.min_vertex, meta.max_vertex), (0, 21));
        drop(store);
        let (reopened, _) = reopen(&dir);
        assert_eq!(reopened.segments().len(), 1);
        assert_eq!(*reopened.segments()[0].meta(), meta);
    }

    #[test]
    fn apply_resolves_conflicts_in_the_serving_order_on_a_degree_sorted_base() {
        // Members 0 < 1 < 2 and inserted edges (0,1), (1,2) sharing
        // member 1. The degree-sorted base lists 2 (degree 1) before 1
        // (degree 3), yet apply must resolve the conflicts as the
        // serving path does, in ascending order of the higher endpoint:
        // evict 1, and 2 keeps its place.
        use mis_extmem::SortConfig;
        use mis_graph::{degree_sort_adj_file, CsrGraph};
        let dir = ScratchDir::new("store-sorted").unwrap();
        let graph = CsrGraph::from_edges(9, &[(0, 7), (1, 3), (1, 4), (1, 5), (2, 6)]);
        let unsorted =
            build_adj_file(&graph, &dir.file("raw.adj"), IoStats::shared(), 4096).unwrap();
        degree_sort_adj_file(
            &unsorted,
            &dir.file("base.adj"),
            &SortConfig::default(),
            &dir,
        )
        .unwrap();
        let (mut store, _) = reopen(&dir);
        store.write_checkpoint(0, &[0, 1, 2, 8]).unwrap();
        let inserted = [(0, 1), (1, 2)];
        store
            .append_ops(&inserted.map(|(u, v)| EdgeOp::Insert(u, v)))
            .unwrap();

        let report = store.apply(RepairConfig::default()).unwrap();
        assert_eq!(report.evicted, 1);
        assert!(report.maximality_proved);
        let served = mis_core::repair_updated_set_from_ops(
            &store.snapshot().pinned(),
            &[0, 1, 2, 8],
            &inserted,
            RepairConfig::default(),
        );
        assert_eq!(report.set, served.swap.result.set);
    }
}
