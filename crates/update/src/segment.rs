//! Immutable, checksummed WAL segments — the sealed tier of the
//! log-structured update store.
//!
//! When the active WAL grows past the roll threshold, its committed
//! epochs are sealed into a **segment file** and the WAL restarts empty
//! (LogBase's tiered layout). Segments are immutable: they are written
//! once — to a temp file, fsynced, then renamed into place — and never
//! modified. A [`Segment`] keeps its operations in memory, and reads go
//! through the store's maintained overlay, so no reader opens a segment
//! file after the store opens it: a merge or a full compaction removes
//! the files it replaces as soon as the manifest that drops them is
//! durable.
//!
//! ## File format (`MISSEG01`)
//!
//! ```text
//! magic    "MISSEG01"                                8 bytes
//! record*  the WAL's record framing, verbatim:
//!     tag      u8        0x01 insert | 0x02 delete | 0x03 epoch marker
//!     payload  insert/delete: varint u, varint v
//!              epoch marker:  varint epoch_id, varint op_count
//!     crc      u32 LE    FNV-1a over tag + payload
//! footer   one record with tag 0x04:
//!     varint segment id
//!     varint epoch_lo, varint epoch_hi
//!     varint op count
//!     varint min vertex, varint max vertex
//!     varint tombstone count (deletes)
//!     crc      u32 LE    FNV-1a over tag + payload
//! ```
//!
//! Open reads the body with the WAL's own replay, so the two files share
//! one record walk. The footer's epoch range and counts let open validate
//! the body, and `mis update status` reports all of it. A segment
//! without a valid trailing footer is rejected as corrupt — segments are
//! renamed into place only after a full fsync, so a torn segment can
//! only be a bug or bit rot, never a crash artefact (crashes leave
//! `*.tmp` orphans, cleaned on open).

use std::io;
use std::path::{Path, PathBuf};

use mis_extmem::IoStats;
use mis_graph::VertexId;

use crate::wal::{corrupt, encode_record, replace_file, EdgeOp, Replay, TAG_EPOCH, TAG_FOOTER};

/// Magic bytes identifying a sealed WAL segment.
pub const SEGMENT_MAGIC: &[u8; 8] = b"MISSEG01";

/// The footer metadata of one sealed segment — everything `mis update
/// status` reports without touching its records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Segment id (dense per store, assigned by the manifest).
    pub id: u64,
    /// First epoch sealed in this segment.
    pub epoch_lo: u64,
    /// Last epoch sealed in this segment.
    pub epoch_hi: u64,
    /// Operations in the segment.
    pub ops: u64,
    /// Smallest endpoint named by any operation.
    pub min_vertex: VertexId,
    /// Largest endpoint named by any operation.
    pub max_vertex: VertexId,
    /// Delete operations (tombstones) in the segment.
    pub tombstones: u64,
    /// Segment file size in bytes.
    pub bytes: u64,
}

impl SegmentMeta {
    /// The metadata of a `bytes`-long file whose footer holds `fields`;
    /// `None` when a vertex does not fit a `u32`.
    fn from_footer(fields: [u64; 7], bytes: u64) -> Option<Self> {
        let [id, epoch_lo, epoch_hi, ops, min_v, max_v, tombstones] = fields;
        Some(Self {
            id,
            epoch_lo,
            epoch_hi,
            ops,
            min_vertex: min_v.try_into().ok()?,
            max_vertex: max_v.try_into().ok()?,
            tombstones,
            bytes,
        })
    }
}

/// One sealed, immutable segment: footer metadata plus the epoch-stamped
/// operations, held in memory exactly like the WAL's committed list.
#[derive(Debug)]
pub struct Segment {
    meta: SegmentMeta,
    ops: Vec<(u64, EdgeOp)>,
    path: PathBuf,
}

/// File name of segment `id` (`seg-000042.seg`).
pub fn segment_file_name(id: u64) -> String {
    format!("seg-{id:06}.seg")
}

/// Whether `name` looks like a sealed segment file.
pub(crate) fn is_segment_file(name: &str) -> bool {
    name.starts_with("seg-") && name.ends_with(".seg")
}

impl Segment {
    /// Seals `ops` (epoch-stamped, ascending, as taken from
    /// [`crate::wal::Wal::committed`]) as segment `id` in `dir`.
    ///
    /// Crash-atomic: the segment is written to `<name>.tmp`, fsynced,
    /// then renamed to its final name — a crash at any point leaves
    /// either no segment or a complete one, plus possibly a temp orphan
    /// that open-time cleanup removes.
    pub fn seal(dir: &Path, id: u64, ops: &[(u64, EdgeOp)], stats: &IoStats) -> io::Result<Self> {
        assert!(!ops.is_empty(), "sealing an empty segment");
        debug_assert!(
            ops.windows(2).all(|w| w[0].0 <= w[1].0),
            "ops must be epoch-ascending"
        );
        let _span = mis_obs::span("segment", "segment.seal");
        let mut buf: Vec<u8> = SEGMENT_MAGIC.to_vec();
        let (mut min_v, mut max_v) = (VertexId::MAX, VertexId::MIN);
        let mut tombstones = 0u64;

        // Re-encode with the WAL's framing, a marker after each epoch.
        let mut batch = 0u64;
        for (i, &(epoch, op)) in ops.iter().enumerate() {
            let (u, v) = op.endpoints();
            min_v = min_v.min(u.min(v));
            max_v = max_v.max(u.max(v));
            tombstones += u64::from(!op.is_insert());
            buf.extend_from_slice(&op.encode());
            batch += 1;
            if ops.get(i + 1).is_none_or(|&(next, _)| next != epoch) {
                buf.extend_from_slice(&encode_record(TAG_EPOCH, &[epoch, batch]));
                batch = 0;
            }
        }
        let footer = [
            id,
            ops[0].0,
            ops[ops.len() - 1].0,
            ops.len() as u64,
            u64::from(min_v),
            u64::from(max_v),
            tombstones,
        ];
        buf.extend_from_slice(&encode_record(TAG_FOOTER, &footer));

        let path = dir.join(segment_file_name(id));
        replace_file(&path, &buf)?;
        stats.record_wal_write(buf.len() as u64);
        let meta = SegmentMeta::from_footer(footer, buf.len() as u64).expect("vertex ids are u32");
        Ok(Self {
            meta,
            ops: ops.to_vec(),
            path,
        })
    }

    /// Opens and fully validates a sealed segment: magic, every record
    /// checksum, every epoch marker, and a footer, last in the file,
    /// whose counts match the replayed body.
    pub fn open(path: &Path, stats: &IoStats) -> io::Result<Self> {
        let buf = std::fs::read(path)?;
        stats.record_wal_read(buf.len() as u64);
        let bad = |msg: &str| corrupt(format!("{}: {msg}", path.display()));
        if !buf.starts_with(SEGMENT_MAGIC) {
            return Err(bad("not a sealed WAL segment"));
        }
        let body = Replay::read(&buf, SEGMENT_MAGIC.len());
        if let Some(e) = body.error {
            return Err(bad(e));
        }
        let footer = body.footer.ok_or_else(|| bad("missing footer"))?;
        if body.end != buf.len() {
            return Err(bad("data after the footer"));
        }
        if !body.batch.is_empty() {
            return Err(bad("unsealed trailing operations"));
        }
        let meta = SegmentMeta::from_footer(footer, buf.len() as u64)
            .ok_or_else(|| bad("footer vertex overflows u32"))?;
        let deletes = body.ops.iter().filter(|(_, op)| !op.is_insert()).count() as u64;
        if meta.ops != body.ops.len() as u64
            || meta.tombstones != deletes
            || meta.epoch_lo != body.ops.first().map_or(0, |(e, _)| *e)
            || meta.epoch_hi != body.last_epoch
        {
            return Err(bad("footer disagrees with the body"));
        }
        Ok(Self {
            meta,
            ops: body.ops,
            path: path.to_path_buf(),
        })
    }

    /// The footer metadata.
    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    /// The sealed operations, epoch-stamped, oldest first.
    pub fn ops(&self) -> &[(u64, EdgeOp)] {
        &self.ops
    }

    /// The segment's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Merges `runs` of sealed segments into one new segment `id`, dropping
/// superseded operations. Per edge pair, the merged run keeps its
/// **last** operation, plus its **first** one when the two differ in
/// kind, in stream order: a repeated same-kind op is a no-op, and after
/// a pair's first op every insert/delete round trip returns the pair to
/// the same state with the same edge counts, so those one or two ops
/// replay exactly like the whole run from any prior state. (The last op
/// alone would not: an insert then delete of a fresh edge would replay
/// as the deletion of a base edge.)
pub fn merge_segments(
    dir: &Path,
    id: u64,
    inputs: &[Segment],
    stats: &IoStats,
) -> io::Result<(Segment, u64)> {
    let _span = mis_obs::span("segment", "segment.merge");
    let mut all: Vec<(u64, EdgeOp)> = Vec::new();
    for seg in inputs {
        all.extend_from_slice(seg.ops());
    }
    // Each pair's (first, last) op index.
    let mut ends: mis_graph::hash::FxHashMap<(VertexId, VertexId), (usize, usize)> =
        Default::default();
    for (i, (_, op)) in all.iter().enumerate() {
        let (u, v) = op.endpoints();
        ends.entry((u.min(v), u.max(v)))
            .and_modify(|(_, last)| *last = i)
            .or_insert((i, i));
    }
    let merged: Vec<(u64, EdgeOp)> = all
        .iter()
        .enumerate()
        .filter(|(i, (_, op))| {
            let (u, v) = op.endpoints();
            let (first, last) = ends[&(u.min(v), u.max(v))];
            *i == last || (*i == first && op.is_insert() != all[last].1.is_insert())
        })
        .map(|(_, rec)| *rec)
        .collect();
    let dropped = (all.len() - merged.len()) as u64;
    let seg = Segment::seal(dir, id, &merged, stats)?;
    Ok((seg, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_extmem::ScratchDir;

    fn ops() -> Vec<(u64, EdgeOp)> {
        vec![
            (1, EdgeOp::Insert(3, 9)),
            (1, EdgeOp::Delete(4, 7)),
            (2, EdgeOp::Insert(5, 6)),
            (4, EdgeOp::Delete(3, 9)),
        ]
    }

    #[test]
    fn seal_and_open_round_trip() {
        let dir = ScratchDir::new("seg-rt").unwrap();
        let stats = IoStats::shared();
        let sealed = Segment::seal(dir.path(), 7, &ops(), &stats).unwrap();
        assert_eq!(sealed.meta().id, 7);
        assert_eq!(sealed.meta().epoch_lo, 1);
        assert_eq!(sealed.meta().epoch_hi, 4);
        assert_eq!(sealed.meta().ops, 4);
        assert_eq!(sealed.meta().min_vertex, 3);
        assert_eq!(sealed.meta().max_vertex, 9);
        assert_eq!(sealed.meta().tombstones, 2);
        assert!(sealed.path().ends_with("seg-000007.seg"));
        // No temp orphan remains after a clean seal.
        assert!(!dir.path().join("seg-000007.seg.tmp").exists());

        let reopened = Segment::open(sealed.path(), &stats).unwrap();
        assert_eq!(reopened.meta(), sealed.meta());
        assert_eq!(reopened.ops(), sealed.ops());
        assert!(stats.snapshot().wal_bytes_read >= sealed.meta().bytes);
    }

    #[test]
    fn corruption_is_rejected() {
        let dir = ScratchDir::new("seg-corrupt").unwrap();
        let stats = IoStats::shared();
        let seg = Segment::seal(dir.path(), 1, &ops(), &stats).unwrap();
        let path = seg.path().to_path_buf();
        let good = std::fs::read(&path).unwrap();

        // Flipping any one byte after the magic fails validation.
        for at in SEGMENT_MAGIC.len()..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0xFF;
            std::fs::write(&path, &bad).unwrap();
            let err = Segment::open(&path, &stats).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at {at}");
        }
        // A torn footer (cut at any byte of it, or cut off whole) fails.
        let m = seg.meta();
        let footer = encode_record(
            TAG_FOOTER,
            &[m.id, m.epoch_lo, m.epoch_hi, m.ops, 3, 9, m.tombstones],
        );
        assert!(good.ends_with(&footer));
        for cut in 1..=footer.len() {
            std::fs::write(&path, &good[..good.len() - cut]).unwrap();
            assert!(Segment::open(&path, &stats).is_err(), "cut {cut}");
        }
        // Bytes after the footer fail, even a well-formed record.
        for tail in [vec![0], encode_record(TAG_EPOCH, &[5, 0])] {
            let mut long = good.clone();
            long.extend_from_slice(&tail);
            std::fs::write(&path, &long).unwrap();
            assert!(Segment::open(&path, &stats).is_err());
        }
        // The pristine bytes still open.
        std::fs::write(&path, &good).unwrap();
        assert!(Segment::open(&path, &stats).is_ok());
    }

    #[test]
    fn merge_keeps_only_the_last_op_per_pair() {
        let dir = ScratchDir::new("seg-merge").unwrap();
        let stats = IoStats::shared();
        let seal = |id, ops: &[(u64, EdgeOp)]| Segment::seal(dir.path(), id, ops, &stats).unwrap();
        let a = seal(1, &[(1, EdgeOp::Insert(0, 1)), (1, EdgeOp::Insert(2, 3))]);
        let b = seal(2, &[(2, EdgeOp::Delete(1, 0)), (2, EdgeOp::Insert(4, 5))]);
        let c = seal(3, &[(3, EdgeOp::Insert(0, 1)), (3, EdgeOp::Delete(3, 2))]);
        let (merged, dropped) = merge_segments(dir.path(), 4, &[a, b, c], &stats).unwrap();
        // (0,1): insert → delete → insert ends in the kind it started
        // with, so only the last op survives (note the delete names the
        // pair in the opposite orientation). (2,3): insert → delete
        // differ in kind, so the first op stays beside the last one.
        assert_eq!(dropped, 2);
        assert_eq!(
            merged.ops(),
            &[
                (1, EdgeOp::Insert(2, 3)),
                (2, EdgeOp::Insert(4, 5)),
                (3, EdgeOp::Insert(0, 1)),
                (3, EdgeOp::Delete(3, 2)),
            ]
        );
        assert_eq!(merged.meta().epoch_lo, 1);
        assert_eq!(merged.meta().epoch_hi, 3);
        assert_eq!(merged.meta().tombstones, 1);
    }

    #[test]
    fn segment_file_names_round_trip() {
        assert_eq!(segment_file_name(42), "seg-000042.seg");
        assert!(is_segment_file("seg-000042.seg"));
        assert!(!is_segment_file("seg-000042.seg.tmp"));
        assert!(!is_segment_file("MANIFEST"));
    }
}
