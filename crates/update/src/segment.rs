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
//!     varint tombstone count (deletes; > 0 sets the tombstone flag)
//!     crc      u32 LE    FNV-1a over tag + payload
//! ```
//!
//! The footer serves **merge planning**, not scans: its vertex range
//! lets the compactor pick runs of segments whose operations can
//! supersede each other ([`SegmentMeta::overlaps`]), and its epoch range
//! and counts let open validate the body and `mis update status` report
//! it. A segment without a valid trailing footer is rejected as corrupt
//! — segments are renamed into place only after a full fsync, so a torn
//! segment can only be a bug or bit rot, never a crash artefact (crashes
//! leave `*.tmp` orphans, cleaned on open).

use std::fs::File;
use std::io::{self, Cursor, Write};
use std::path::{Path, PathBuf};

use mis_extmem::varint::{read_varint, write_varint};
use mis_extmem::IoStats;
use mis_graph::VertexId;

use crate::wal::{encode_record, fnv1a32, EdgeOp, TAG_DELETE, TAG_EPOCH, TAG_INSERT};

/// Magic bytes identifying a sealed WAL segment.
pub const SEGMENT_MAGIC: &[u8; 8] = b"MISSEG01";

/// Footer record tag (the WAL itself never writes this tag, so a
/// segment body can be replayed with WAL tooling up to the footer).
pub(crate) const TAG_FOOTER: u8 = 0x04;

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The footer metadata of one sealed segment — everything the merge
/// planner and `mis update status` need without touching its records.
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
    /// Whether the segment has any delete operations.
    pub fn has_tombstones(&self) -> bool {
        self.tombstones > 0
    }

    /// Whether any operation in the segment *could* touch a vertex in
    /// `[lo, hi]`. Conservative: `true` may still mean no op matches,
    /// but `false` guarantees none does.
    pub fn touches_range(&self, lo: VertexId, hi: VertexId) -> bool {
        self.ops > 0 && self.min_vertex <= hi && self.max_vertex >= lo
    }

    /// Whether this segment's vertex range overlaps `other`'s — the
    /// compactor's merge criterion.
    pub fn overlaps(&self, other: &SegmentMeta) -> bool {
        self.ops > 0 && other.touches_range(self.min_vertex, self.max_vertex)
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
        let _span = mis_obs::span("segment", "segment.seal");
        let mut buf: Vec<u8> = SEGMENT_MAGIC.to_vec();
        let (mut min_v, mut max_v) = (VertexId::MAX, VertexId::MIN);
        let mut tombstones = 0u64;
        let (mut epoch_lo, mut epoch_hi) = (ops[0].0, ops[0].0);

        // Re-encode with the WAL's framing, epoch group by epoch group.
        let mut batch = 0u64;
        let mut cur_epoch = ops[0].0;
        for &(epoch, op) in ops {
            debug_assert!(epoch >= cur_epoch, "ops must be epoch-ascending");
            if epoch != cur_epoch {
                buf.extend_from_slice(&encode_record(TAG_EPOCH, &[cur_epoch, batch]));
                cur_epoch = epoch;
                batch = 0;
            }
            let (u, v) = op.endpoints();
            min_v = min_v.min(u.min(v));
            max_v = max_v.max(u.max(v));
            tombstones += u64::from(!op.is_insert());
            let tag = if op.is_insert() {
                TAG_INSERT
            } else {
                TAG_DELETE
            };
            buf.extend_from_slice(&encode_record(tag, &[u64::from(u), u64::from(v)]));
            batch += 1;
            epoch_lo = epoch_lo.min(epoch);
            epoch_hi = epoch_hi.max(epoch);
        }
        buf.extend_from_slice(&encode_record(TAG_EPOCH, &[cur_epoch, batch]));
        buf.extend_from_slice(&encode_footer(
            id,
            epoch_lo,
            epoch_hi,
            ops.len() as u64,
            min_v,
            max_v,
            tombstones,
        ));

        let final_path = dir.join(segment_file_name(id));
        let tmp_path = dir.join(format!("{}.tmp", segment_file_name(id)));
        {
            let mut f = File::create(&tmp_path)?;
            f.write_all(&buf)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp_path, &final_path)?;
        stats.record_wal_write(buf.len() as u64);

        Ok(Self {
            meta: SegmentMeta {
                id,
                epoch_lo,
                epoch_hi,
                ops: ops.len() as u64,
                min_vertex: min_v,
                max_vertex: max_v,
                tombstones,
                bytes: buf.len() as u64,
            },
            ops: ops.to_vec(),
            path: final_path,
        })
    }

    /// Opens and fully validates a sealed segment: magic, every record
    /// checksum, every epoch marker, and a footer whose counts match the
    /// replayed body.
    pub fn open(path: &Path, stats: &IoStats) -> io::Result<Self> {
        let buf = std::fs::read(path)?;
        stats.record_wal_read(buf.len() as u64);
        let name = path.display();
        if buf.len() < SEGMENT_MAGIC.len() || &buf[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            return Err(corrupt(format!("{name}: not a sealed WAL segment")));
        }

        let mut ops: Vec<(u64, EdgeOp)> = Vec::new();
        let mut batch: Vec<EdgeOp> = Vec::new();
        let mut last_epoch = 0u64;
        let mut footer: Option<SegmentMeta> = None;
        let mut pos = SEGMENT_MAGIC.len();
        while pos < buf.len() {
            let start = pos;
            let tag = buf[pos];
            pos += 1;
            let field_count = if tag == TAG_FOOTER { 7 } else { 2 };
            let mut cur = Cursor::new(&buf[pos..]);
            let mut fields = [0u64; 7];
            for f in fields.iter_mut().take(field_count) {
                *f = read_varint(&mut cur)
                    .map_err(|_| corrupt(format!("{name}: truncated record")))?;
            }
            pos += cur.position() as usize;
            let crc_bytes = buf
                .get(pos..pos + 4)
                .ok_or_else(|| corrupt(format!("{name}: truncated checksum")))?;
            let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte slice"));
            if crc != fnv1a32(&buf[start..pos]) {
                return Err(corrupt(format!("{name}: record checksum mismatch")));
            }
            pos += 4;

            match tag {
                TAG_INSERT | TAG_DELETE => {
                    let (Ok(u), Ok(v)) =
                        (VertexId::try_from(fields[0]), VertexId::try_from(fields[1]))
                    else {
                        return Err(corrupt(format!("{name}: vertex id overflows u32")));
                    };
                    batch.push(if tag == TAG_INSERT {
                        EdgeOp::Insert(u, v)
                    } else {
                        EdgeOp::Delete(u, v)
                    });
                }
                TAG_EPOCH => {
                    let (epoch, count) = (fields[0], fields[1]);
                    if epoch <= last_epoch && last_epoch != 0 || count != batch.len() as u64 {
                        return Err(corrupt(format!("{name}: inconsistent epoch marker")));
                    }
                    last_epoch = epoch;
                    ops.extend(batch.drain(..).map(|op| (epoch, op)));
                }
                TAG_FOOTER => {
                    if pos != buf.len() {
                        return Err(corrupt(format!("{name}: data after the footer")));
                    }
                    let (Ok(min_v), Ok(max_v)) =
                        (VertexId::try_from(fields[4]), VertexId::try_from(fields[5]))
                    else {
                        return Err(corrupt(format!("{name}: footer vertex overflows u32")));
                    };
                    footer = Some(SegmentMeta {
                        id: fields[0],
                        epoch_lo: fields[1],
                        epoch_hi: fields[2],
                        ops: fields[3],
                        min_vertex: min_v,
                        max_vertex: max_v,
                        tombstones: fields[6],
                        bytes: buf.len() as u64,
                    });
                }
                other => {
                    return Err(corrupt(format!("{name}: unknown record tag {other:#x}")));
                }
            }
        }

        let meta = footer.ok_or_else(|| corrupt(format!("{name}: missing footer")))?;
        if !batch.is_empty() {
            return Err(corrupt(format!("{name}: unsealed trailing operations")));
        }
        let tombstones = ops.iter().filter(|(_, op)| !op.is_insert()).count() as u64;
        let replayed_lo = ops.first().map_or(0, |(e, _)| *e);
        if meta.ops != ops.len() as u64
            || meta.tombstones != tombstones
            || meta.epoch_lo != replayed_lo
            || meta.epoch_hi != last_epoch
        {
            return Err(corrupt(format!("{name}: footer disagrees with the body")));
        }
        Ok(Self {
            meta,
            ops,
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

fn encode_footer(
    id: u64,
    epoch_lo: u64,
    epoch_hi: u64,
    ops: u64,
    min_v: VertexId,
    max_v: VertexId,
    tombstones: u64,
) -> Vec<u8> {
    let mut rec = vec![TAG_FOOTER];
    for f in [
        id,
        epoch_lo,
        epoch_hi,
        ops,
        u64::from(min_v),
        u64::from(max_v),
        tombstones,
    ] {
        write_varint(&mut rec, f).expect("vec write cannot fail");
    }
    let crc = fnv1a32(&rec);
    rec.extend_from_slice(&crc.to_le_bytes());
    rec
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
        assert!(sealed.meta().has_tombstones());
        assert!(sealed.path().ends_with("seg-000007.seg"));
        // No temp orphan remains after a clean seal.
        assert!(!dir.path().join("seg-000007.seg.tmp").exists());

        let reopened = Segment::open(sealed.path(), &stats).unwrap();
        assert_eq!(reopened.meta(), sealed.meta());
        assert_eq!(reopened.ops(), sealed.ops());
        assert!(stats.snapshot().wal_bytes_read >= sealed.meta().bytes);
    }

    #[test]
    fn filter_is_conservative_but_never_wrong() {
        let dir = ScratchDir::new("seg-filter").unwrap();
        let stats = IoStats::shared();
        let seg = Segment::seal(dir.path(), 1, &ops(), &stats).unwrap();
        let m = seg.meta();
        // Vertices 3..=9 are touched.
        assert!(m.touches_range(0, 3));
        assert!(m.touches_range(9, 100));
        assert!(m.touches_range(5, 5));
        assert!(!m.touches_range(0, 2));
        assert!(!m.touches_range(10, 100));
    }

    #[test]
    fn corruption_is_rejected() {
        let dir = ScratchDir::new("seg-corrupt").unwrap();
        let stats = IoStats::shared();
        let seg = Segment::seal(dir.path(), 1, &ops(), &stats).unwrap();
        let path = seg.path().to_path_buf();
        let good = std::fs::read(&path).unwrap();

        // Flipping any byte after the magic fails validation.
        for at in [9, good.len() / 2, good.len() - 2] {
            let mut bad = good.clone();
            bad[at] ^= 0xFF;
            std::fs::write(&path, &bad).unwrap();
            assert!(Segment::open(&path, &stats).is_err(), "flip at {at}");
        }
        // A truncated tail (no footer at the end) fails too.
        std::fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(Segment::open(&path, &stats).is_err());
        // Extra bytes after the footer fail.
        let mut long = good.clone();
        long.push(0);
        std::fs::write(&path, &long).unwrap();
        assert!(Segment::open(&path, &stats).is_err());
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
