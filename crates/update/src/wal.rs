//! The write-ahead edge log, and the byte-level pieces every durable
//! file of the store shares.
//!
//! ## File format
//!
//! ```text
//! magic    "MISWAL01"                              8 bytes
//! record*  each:
//!     tag      u8        0x01 insert | 0x02 delete | 0x03 epoch marker
//!     payload  insert/delete: varint u, varint v   (LEB128, see
//!              `mis_extmem::varint`)
//!              epoch marker:  varint epoch_id, varint op_count
//!     crc      u32 LE    FNV-1a over tag + payload bytes
//! ```
//!
//! An **epoch marker** is the commit point: the `op_count` edge records
//! since the previous marker become durable as epoch `epoch_id` the
//! moment the marker itself is fully on disk. Epoch ids are strictly
//! increasing but need not be dense — log compaction reseals an empty log
//! with a marker carrying the pre-compaction epoch so numbering
//! continues.
//!
//! ## Torn-tail recovery
//!
//! [`Wal::open`] replays the file front to back, validating every
//! record's checksum and every marker's `epoch_id`/`op_count`. The first
//! torn (truncated mid-record), corrupt (checksum mismatch) or
//! inconsistent record ends the replay: everything after the last
//! complete epoch marker — including intact-but-uncommitted trailing edge
//! records — is physically truncated away, so the log always reopens to
//! exactly its last committed epoch. A failed append or commit does the
//! same while the log is open: it truncates the log back to its last
//! marker and empties the batch, so the failed epoch commits nothing.
//!
//! ## Shared with the other durable files
//!
//! Sealed segments reuse the record framing, and their open walks the
//! records with the same replay as [`Wal::open`]. The checkpoint and the
//! segment manifest share one envelope, `magic ‖ payload ‖ FNV-1a of the
//! payload (u32 LE)`. The checkpoint, the manifest, a sealed segment and
//! the log's reset after compaction all replace their file the same way:
//! the bytes go to `<file name>.tmp` beside it, are synced, then renamed
//! over it, so a crash leaves the old file or the new one, never a torn
//! one.

use std::fs::{File, OpenOptions};
use std::io::{self, Cursor, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mis_extmem::varint::{read_varint, write_varint};
use mis_extmem::IoStats;
use mis_graph::VertexId;

/// Magic bytes identifying a write-ahead edge log.
pub const WAL_MAGIC: &[u8; 8] = b"MISWAL01";

pub(crate) const TAG_INSERT: u8 = 0x01;
pub(crate) const TAG_DELETE: u8 = 0x02;
pub(crate) const TAG_EPOCH: u8 = 0x03;
/// A sealed segment's footer; the only record with seven fields.
pub(crate) const TAG_FOOTER: u8 = 0x04;

/// One logged edge operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert the undirected edge `(u, v)`.
    Insert(VertexId, VertexId),
    /// Delete the undirected edge `(u, v)`.
    Delete(VertexId, VertexId),
}

impl EdgeOp {
    /// The edge's endpoints.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match *self {
            EdgeOp::Insert(u, v) | EdgeOp::Delete(u, v) => (u, v),
        }
    }

    /// Whether this is an insertion.
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeOp::Insert(..))
    }

    /// The operation's record: its tag and its two fields.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let (u, v) = self.endpoints();
        let tag = if self.is_insert() {
            TAG_INSERT
        } else {
            TAG_DELETE
        };
        encode_record(tag, &[u64::from(u), u64::from(v)])
    }
}

/// 32-bit FNV-1a: the checksum of every log record and of the
/// checkpoint's and the manifest's envelope.
pub(crate) fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// An `InvalidData` error: a durable file failed validation.
pub(crate) fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serialises one record (tag + varint fields + checksum) into a fresh
/// buffer.
pub(crate) fn encode_record(tag: u8, fields: &[u64]) -> Vec<u8> {
    let mut rec = vec![tag];
    for &f in fields {
        write_varint(&mut rec, f).expect("vec write cannot fail");
    }
    let crc = fnv1a32(&rec);
    rec.extend_from_slice(&crc.to_le_bytes());
    rec
}

/// Reads the record at `buf[pos..]` (two fields, or seven for a footer)
/// and checks its checksum. Returns its tag, its fields and the offset
/// just past it.
fn read_record(buf: &[u8], pos: usize) -> Result<(u8, [u64; 7], usize), &'static str> {
    let tag = buf[pos];
    let mut fields = [0u64; 7];
    let count = if tag == TAG_FOOTER { 7 } else { 2 };
    let mut cur = Cursor::new(&buf[pos + 1..]);
    for f in &mut fields[..count] {
        *f = read_varint(&mut cur).map_err(|_| "truncated record")?;
    }
    let body_end = pos + 1 + cur.position() as usize;
    let crc = buf
        .get(body_end..body_end + 4)
        .ok_or("truncated checksum")?;
    if crc != fnv1a32(&buf[pos..body_end]).to_le_bytes() {
        return Err("record checksum mismatch");
    }
    Ok((tag, fields, body_end + 4))
}

/// What a walk over a file's log records read: the one reader of the
/// WAL and of sealed segments.
#[derive(Debug, Default)]
pub(crate) struct Replay {
    /// Operations sealed by an epoch marker, epoch-stamped, oldest first.
    pub(crate) ops: Vec<(u64, EdgeOp)>,
    /// Operations read after the last marker.
    pub(crate) batch: Vec<EdgeOp>,
    /// The last marker's epoch (0 when none).
    pub(crate) last_epoch: u64,
    /// Offset just past the last marker.
    pub(crate) committed_len: usize,
    /// The footer's fields, when the walk ended at one.
    pub(crate) footer: Option<[u64; 7]>,
    /// Offset where the walk stopped.
    pub(crate) end: usize,
    /// Why the walk stopped at a bad record, if it did.
    pub(crate) error: Option<&'static str>,
}

impl Replay {
    /// Walks the records of `buf` from `start` (just past its magic) up
    /// to the end, the first bad record, or a footer. A marker must carry
    /// an epoch above the last one and the count of the operations since.
    pub(crate) fn read(buf: &[u8], start: usize) -> Self {
        let mut replay = Self {
            committed_len: start,
            end: start,
            ..Self::default()
        };
        replay.error = replay.walk(buf).err();
        replay
    }

    fn walk(&mut self, buf: &[u8]) -> Result<(), &'static str> {
        while self.end < buf.len() && self.footer.is_none() {
            let (tag, fields, next) = read_record(buf, self.end)?;
            let [a, b, ..] = fields;
            match tag {
                TAG_INSERT | TAG_DELETE => {
                    let (Ok(u), Ok(v)) = (VertexId::try_from(a), VertexId::try_from(b)) else {
                        return Err("vertex id overflows u32");
                    };
                    self.batch.push(if tag == TAG_INSERT {
                        EdgeOp::Insert(u, v)
                    } else {
                        EdgeOp::Delete(u, v)
                    });
                }
                TAG_EPOCH if a > self.last_epoch && b == self.batch.len() as u64 => {
                    self.last_epoch = a;
                    self.ops.extend(self.batch.drain(..).map(|op| (a, op)));
                    self.committed_len = next;
                }
                TAG_EPOCH => return Err("inconsistent epoch marker"),
                TAG_FOOTER => self.footer = Some(fields),
                _ => return Err("unknown record tag"),
            }
            self.end = next;
        }
        Ok(())
    }
}

/// Frames `payload` as `magic ‖ payload ‖ fnv1a32(payload) LE` and
/// replaces `path` with it ([`replace_file`]). Returns the bytes written.
pub(crate) fn write_envelope(path: &Path, magic: &[u8; 8], payload: &[u8]) -> io::Result<u64> {
    let mut buf = Vec::with_capacity(magic.len() + payload.len() + 4);
    buf.extend_from_slice(magic);
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&fnv1a32(payload).to_le_bytes());
    replace_file(path, &buf)?;
    Ok(buf.len() as u64)
}

/// The payload of a [`write_envelope`] file, once its magic and checksum
/// check out; `what` names the file in the errors.
pub(crate) fn open_envelope<'a>(
    buf: &'a [u8],
    magic: &[u8; 8],
    what: &str,
) -> io::Result<&'a [u8]> {
    let body = buf
        .strip_prefix(magic.as_slice())
        .filter(|body| body.len() >= 4)
        .ok_or_else(|| corrupt(format!("not a {what}")))?;
    let (payload, crc) = body.split_at(body.len() - 4);
    if crc != fnv1a32(payload).to_le_bytes() {
        return Err(corrupt(format!("{what} checksum mismatch")));
    }
    Ok(payload)
}

/// Replaces `path` with `bytes` crash-atomically: they go to
/// `<file name>.tmp` beside it, are synced, then renamed over it.
pub(crate) fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, path)
}

/// What [`Wal::open`] found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecovery {
    /// Last committed epoch id (0 when the log is empty).
    pub last_epoch: u64,
    /// Committed operations replayed.
    pub committed_ops: usize,
    /// Torn or uncommitted tail bytes truncated away.
    pub dropped_bytes: u64,
}

/// An open write-ahead edge log.
///
/// Appends buffer into the current (uncommitted) epoch;
/// [`Wal::commit_epoch`] seals them with an epoch marker and an
/// `fsync`-backed flush. All byte traffic is accounted in the shared
/// [`IoStats`] (`wal_bytes_written` / `wal_bytes_read`).
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    stats: Arc<IoStats>,
    /// Committed operations, stamped with their epoch.
    committed: Vec<(u64, EdgeOp)>,
    /// Operations appended since the last epoch marker.
    batch: Vec<EdgeOp>,
    last_epoch: u64,
    /// Current file length in bytes (= end of last complete record).
    len: u64,
    /// File length at the end of the last epoch marker.
    committed_len: u64,
    /// Set when a failed write could not be rolled back: the on-disk
    /// tail may hold garbage, so further writes are refused (reopening
    /// the log recovers it).
    poisoned: bool,
}

impl Wal {
    /// Opens (or creates) the log at `path`, replaying and recovering it.
    pub fn open(path: &Path, stats: Arc<IoStats>) -> io::Result<(Self, WalRecovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        if buf.is_empty() {
            file.write_all(WAL_MAGIC)?;
            stats.record_wal_write(WAL_MAGIC.len() as u64);
            buf.extend_from_slice(WAL_MAGIC);
        } else {
            stats.record_wal_read(buf.len() as u64);
        }
        if !buf.starts_with(WAL_MAGIC) {
            return Err(corrupt("not a write-ahead edge log"));
        }

        let log = Replay::read(&buf, WAL_MAGIC.len());
        let len = log.committed_len as u64;
        let dropped_bytes = buf.len() as u64 - len;
        if dropped_bytes > 0 {
            file.set_len(len)?;
        }
        file.seek(SeekFrom::Start(len))?;
        let report = WalRecovery {
            last_epoch: log.last_epoch,
            committed_ops: log.ops.len(),
            dropped_bytes,
        };
        let wal = Self {
            file,
            path: path.to_path_buf(),
            stats,
            committed: log.ops,
            batch: Vec::new(),
            last_epoch: log.last_epoch,
            len,
            committed_len: len,
            poisoned: false,
        };
        Ok((wal, report))
    }

    /// Refuses writes after an unrecovered failed write.
    fn check_poisoned(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "wal poisoned by an earlier failed write; reopen the log to recover",
            ));
        }
        Ok(())
    }

    /// Writes one whole record at the current tail. On failure the log
    /// rolls back to its last marker ([`Wal::roll_back`]).
    fn write_record(&mut self, rec: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        if tests::injected_failure() {
            // A torn write: half the record reaches the file.
            let _ = self.file.write_all(&rec[..rec.len() / 2]);
            self.roll_back();
            return Err(io::Error::other("injected write failure"));
        }
        if let Err(e) = self.file.write_all(rec) {
            self.roll_back();
            return Err(e);
        }
        self.stats.record_wal_write(rec.len() as u64);
        self.len += rec.len() as u64;
        Ok(())
    }

    /// Drops the uncommitted epoch: truncates the file back to the last
    /// marker and empties the batch, so a failed append or commit seals
    /// nothing into a later epoch. If even the truncate fails, the log is
    /// poisoned until reopened.
    fn roll_back(&mut self) {
        self.batch.clear();
        let to = self.committed_len;
        if self
            .file
            .set_len(to)
            .and_then(|()| self.file.seek(SeekFrom::Start(to)))
            .is_ok()
        {
            self.len = to;
        } else {
            self.poisoned = true;
        }
    }

    /// Appends one operation to the current (uncommitted) epoch.
    pub fn append(&mut self, op: EdgeOp) -> io::Result<()> {
        self.check_poisoned()?;
        // Clock reads only while tracing: appends are the WAL hot path.
        let start = mis_obs::enabled().then(std::time::Instant::now);
        self.write_record(&op.encode())?;
        self.batch.push(op);
        if let Some(start) = start {
            mis_obs::observe_ns("wal", "wal.append", start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Seals the appended operations as a new epoch: writes the epoch
    /// marker, syncs the file, and returns the epoch id. Committing an
    /// empty batch is allowed (a pure marker).
    pub fn commit_epoch(&mut self) -> io::Result<u64> {
        let _span = mis_obs::span("wal", "wal.commit");
        self.check_poisoned()?;
        let epoch = self.last_epoch + 1;
        self.write_record(&encode_record(TAG_EPOCH, &[epoch, self.batch.len() as u64]))?;
        if let Err(e) = self.file.sync_data() {
            // Durability of the marker is unknown; roll the epoch back so
            // the in-memory state never claims more than the disk holds.
            self.roll_back();
            return Err(e);
        }
        self.last_epoch = epoch;
        self.committed_len = self.len;
        self.committed
            .extend(self.batch.drain(..).map(|op| (epoch, op)));
        Ok(epoch)
    }

    /// All committed operations, stamped with their epoch, oldest first.
    pub fn committed(&self) -> &[(u64, EdgeOp)] {
        &self.committed
    }

    /// Committed operations with epoch strictly greater than `epoch`.
    pub fn committed_after(&self, epoch: u64) -> impl Iterator<Item = &(u64, EdgeOp)> {
        self.committed.iter().filter(move |(e, _)| *e > epoch)
    }

    /// Last committed epoch id (0 when none).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Operations appended but not yet sealed by an epoch marker.
    pub fn uncommitted_ops(&self) -> usize {
        self.batch.len()
    }

    /// Log size in bytes (committed records only; uncommitted appends are
    /// included until the next recovery drops them).
    pub fn disk_bytes(&self) -> u64 {
        self.len
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Truncates the log after compaction: every committed record is
    /// merged into the new base file, so the log restarts empty — resealed
    /// with a zero-op marker carrying the current epoch, which keeps epoch
    /// numbering monotone across the compaction.
    ///
    /// The fresh log replaces the old one through `replace_file`, so a
    /// crash at any point leaves either the full pre-compaction log or the
    /// sealed empty one — never a torn in-between.
    pub fn reset_after_compaction(&mut self) -> io::Result<()> {
        let mut fresh: Vec<u8> = WAL_MAGIC.to_vec();
        if self.last_epoch > 0 {
            fresh.extend_from_slice(&encode_record(TAG_EPOCH, &[self.last_epoch, 0]));
        }
        replace_file(&self.path, &fresh)?;
        // Swap the open handle to the renamed file.
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.stats.record_wal_write(fresh.len() as u64);
        self.len = fresh.len() as u64;
        self.committed_len = self.len;
        self.committed.clear();
        self.batch.clear();
        self.poisoned = false;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mis_extmem::ScratchDir;
    use std::cell::Cell;

    thread_local! {
        /// Record writes left on this thread before one fails.
        static WRITES_BEFORE_FAILURE: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Makes the record write after the next `n` on this thread fail
    /// halfway through: the failure hook of `Wal::write_record`.
    pub(crate) fn fail_write_after(n: usize) {
        WRITES_BEFORE_FAILURE.with(|c| c.set(Some(n)));
    }

    /// Whether the hook fails this write (counting it down otherwise).
    pub(super) fn injected_failure() -> bool {
        WRITES_BEFORE_FAILURE.with(|c| {
            let left = c.get();
            c.set(left.and_then(|n| n.checked_sub(1)));
            left == Some(0)
        })
    }

    fn open(dir: &ScratchDir, name: &str) -> (Wal, WalRecovery, Arc<IoStats>) {
        let stats = IoStats::shared();
        let (wal, rec) = Wal::open(&dir.file(name), Arc::clone(&stats)).unwrap();
        (wal, rec, stats)
    }

    #[test]
    fn round_trip_two_epochs() {
        let dir = ScratchDir::new("wal-rt").unwrap();
        let path = dir.file("log.wal");
        {
            let (mut wal, rec, stats) = open(&dir, "log.wal");
            assert_eq!(
                rec,
                WalRecovery {
                    last_epoch: 0,
                    committed_ops: 0,
                    dropped_bytes: 0
                }
            );
            wal.append(EdgeOp::Insert(1, 2)).unwrap();
            wal.append(EdgeOp::Delete(3, 4)).unwrap();
            assert_eq!(wal.uncommitted_ops(), 2);
            assert_eq!(wal.commit_epoch().unwrap(), 1);
            assert_eq!(wal.uncommitted_ops(), 0);
            wal.append(EdgeOp::Insert(5, 6)).unwrap();
            assert_eq!(wal.commit_epoch().unwrap(), 2);
            assert!(stats.snapshot().wal_bytes_written > 8);
        }
        let (wal, rec, stats) = {
            let stats = IoStats::shared();
            let (wal, rec) = Wal::open(&path, Arc::clone(&stats)).unwrap();
            (wal, rec, stats)
        };
        assert_eq!(rec.last_epoch, 2);
        assert_eq!(rec.committed_ops, 3);
        assert_eq!(rec.dropped_bytes, 0);
        assert_eq!(
            wal.committed(),
            &[
                (1, EdgeOp::Insert(1, 2)),
                (1, EdgeOp::Delete(3, 4)),
                (2, EdgeOp::Insert(5, 6)),
            ]
        );
        assert_eq!(wal.committed_after(1).count(), 1);
        assert_eq!(stats.snapshot().wal_bytes_read, wal.disk_bytes());
    }

    #[test]
    fn torn_tail_record_recovers_to_last_epoch() {
        let dir = ScratchDir::new("wal-torn").unwrap();
        let path = dir.file("log.wal");
        let full_len;
        {
            let (mut wal, _, _) = open(&dir, "log.wal");
            wal.append(EdgeOp::Insert(1, 2)).unwrap();
            wal.commit_epoch().unwrap();
            wal.append(EdgeOp::Insert(7, 8)).unwrap();
            wal.commit_epoch().unwrap();
            full_len = wal.disk_bytes();
        }
        // Simulate a torn write: chop 1..14 bytes off the tail, which
        // always lands inside epoch 2's records (7 bytes of edge record
        // plus a 7-byte marker).
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, full_len);
        for cut in 1..14 {
            std::fs::write(&path, &bytes[..bytes.len() - cut]).unwrap();
            let (wal, rec) = Wal::open(&path, IoStats::shared()).unwrap();
            assert_eq!(rec.last_epoch, 1, "cut {cut}");
            assert_eq!(wal.committed(), &[(1, EdgeOp::Insert(1, 2))]);
            assert!(rec.dropped_bytes > 0);
            // Recovery physically truncated the torn tail.
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                wal.disk_bytes(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn corrupt_checksum_drops_the_epoch() {
        let dir = ScratchDir::new("wal-crc").unwrap();
        let path = dir.file("log.wal");
        let epoch1_len;
        {
            let (mut wal, _, _) = open(&dir, "log.wal");
            wal.append(EdgeOp::Insert(1, 2)).unwrap();
            wal.commit_epoch().unwrap();
            epoch1_len = wal.disk_bytes();
            wal.append(EdgeOp::Insert(3, 4)).unwrap();
            wal.commit_epoch().unwrap();
        }
        // Flip one byte inside epoch 2's first record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[epoch1_len as usize + 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (wal, rec) = Wal::open(&path, IoStats::shared()).unwrap();
        assert_eq!(rec.last_epoch, 1);
        assert_eq!(wal.committed().len(), 1);
    }

    #[test]
    fn uncommitted_appends_are_dropped_on_reopen() {
        let dir = ScratchDir::new("wal-uncommitted").unwrap();
        let path = dir.file("log.wal");
        {
            let (mut wal, _, _) = open(&dir, "log.wal");
            wal.append(EdgeOp::Insert(1, 2)).unwrap();
            wal.commit_epoch().unwrap();
            // Appended, never sealed: not durable.
            wal.append(EdgeOp::Insert(9, 9)).unwrap();
        }
        let (wal, rec) = Wal::open(&path, IoStats::shared()).unwrap();
        assert_eq!(rec.last_epoch, 1);
        assert_eq!(wal.committed().len(), 1);
        assert!(rec.dropped_bytes > 0);
    }

    #[test]
    fn reset_after_compaction_preserves_epoch_numbering() {
        let dir = ScratchDir::new("wal-reset").unwrap();
        let path = dir.file("log.wal");
        {
            let (mut wal, _, _) = open(&dir, "log.wal");
            wal.append(EdgeOp::Insert(1, 2)).unwrap();
            wal.commit_epoch().unwrap();
            wal.append(EdgeOp::Delete(1, 2)).unwrap();
            wal.commit_epoch().unwrap();
            wal.reset_after_compaction().unwrap();
            assert_eq!(wal.committed().len(), 0);
            assert_eq!(wal.last_epoch(), 2);
        }
        let (mut wal, rec) = Wal::open(&path, IoStats::shared()).unwrap();
        assert_eq!(rec.last_epoch, 2);
        assert_eq!(rec.committed_ops, 0);
        // Numbering continues after the seal.
        wal.append(EdgeOp::Insert(5, 6)).unwrap();
        assert_eq!(wal.commit_epoch().unwrap(), 3);
    }

    #[test]
    fn a_failed_append_commits_nothing() {
        let dir = ScratchDir::new("wal-fail").unwrap();
        let path = dir.file("log.wal");
        {
            let (mut wal, _, _) = open(&dir, "log.wal");
            fail_write_after(2);
            wal.append(EdgeOp::Insert(1, 2)).unwrap();
            wal.append(EdgeOp::Insert(3, 4)).unwrap();
            assert!(wal.append(EdgeOp::Insert(5, 6)).is_err());
            // Nothing of the failed epoch is left, in memory or on disk.
            assert_eq!(wal.uncommitted_ops(), 0);
            assert_eq!(wal.disk_bytes(), WAL_MAGIC.len() as u64);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), wal.disk_bytes());
            wal.append(EdgeOp::Insert(7, 8)).unwrap();
            assert_eq!(wal.commit_epoch().unwrap(), 1);

            // A failed commit drops its batch and its torn marker too.
            let committed = wal.disk_bytes();
            wal.append(EdgeOp::Insert(9, 10)).unwrap();
            fail_write_after(0);
            assert!(wal.commit_epoch().is_err());
            assert_eq!(wal.uncommitted_ops(), 0);
            assert_eq!(wal.last_epoch(), 1);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        }
        let (wal, rec) = Wal::open(&path, IoStats::shared()).unwrap();
        assert_eq!(rec.last_epoch, 1);
        assert_eq!(rec.dropped_bytes, 0);
        assert_eq!(wal.committed(), &[(1, EdgeOp::Insert(7, 8))]);
    }

    #[test]
    fn garbage_file_is_rejected() {
        let dir = ScratchDir::new("wal-bad").unwrap();
        let path = dir.file("bad.wal");
        std::fs::write(&path, b"NOTAWALFILE").unwrap();
        let err = Wal::open(&path, IoStats::shared()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_tag_ends_replay() {
        let dir = ScratchDir::new("wal-tag").unwrap();
        let path = dir.file("log.wal");
        {
            let (mut wal, _, _) = open(&dir, "log.wal");
            wal.append(EdgeOp::Insert(1, 2)).unwrap();
            wal.commit_epoch().unwrap();
        }
        // Append a record with a bogus tag but a valid checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_record(0x7F, &[1, 1]));
        std::fs::write(&path, &bytes).unwrap();
        let (wal, rec) = Wal::open(&path, IoStats::shared()).unwrap();
        assert_eq!(rec.last_epoch, 1);
        assert_eq!(wal.committed().len(), 1);
        assert!(rec.dropped_bytes > 0);
    }
}
