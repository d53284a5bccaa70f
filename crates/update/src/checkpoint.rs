//! Independent-set checkpoints.
//!
//! A checkpoint pins the maintained independent set to a WAL epoch so
//! maintenance resumes from the last repaired state instead of a
//! from-scratch rebuild. Format:
//!
//! ```text
//! magic   "MISCKPT1"                          8 bytes
//! epoch   u64 LE       WAL epoch the set is valid at
//! n       u64 LE       set size
//! ids     gap-coded ascending varints (see `mis_extmem::varint`)
//! crc     u32 LE       FNV-1a over everything after the magic
//! ```
//!
//! The magic, payload and checksum are the envelope the segment
//! manifest uses too, with the WAL's FNV-1a. Writes go through a temp
//! file + rename, so a crash mid-checkpoint leaves the previous
//! checkpoint intact; loads validate the checksum and reject short or
//! tampered files. Reads and writes bump the `checkpoints_read` /
//! `checkpoints_written` counters of the shared [`IoStats`].

use std::io::{self, Cursor};
use std::path::Path;
use std::sync::Arc;

use mis_extmem::codec;
use mis_extmem::varint::{read_ascending_gaps, write_ascending_gaps};
use mis_extmem::IoStats;
use mis_graph::VertexId;

use crate::wal::{corrupt, open_envelope, write_envelope};

/// Magic bytes identifying an independent-set checkpoint.
pub const CKPT_MAGIC: &[u8; 8] = b"MISCKPT1";

/// A loaded checkpoint: the set and the WAL epoch it is valid at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// WAL epoch the set reflects.
    pub epoch: u64,
    /// The independent set, strictly ascending.
    pub set: Vec<VertexId>,
}

impl Checkpoint {
    /// Writes `set` (strictly ascending vertex ids) as the checkpoint for
    /// `epoch`, atomically replacing any previous checkpoint at `path`.
    /// Returns the byte size written.
    pub fn write(
        path: &Path,
        epoch: u64,
        set: &[VertexId],
        stats: &Arc<IoStats>,
    ) -> io::Result<u64> {
        let _span = mis_obs::span("ckpt", "ckpt.write");
        if set.windows(2).any(|w| w[0] >= w[1]) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "checkpoint set must be strictly ascending",
            ));
        }
        let mut payload = Vec::new();
        codec::write_u64(&mut payload, epoch)?;
        codec::write_u64(&mut payload, set.len() as u64)?;
        write_ascending_gaps(&mut payload, set)?;
        let bytes = write_envelope(path, CKPT_MAGIC, &payload)?;
        stats.record_checkpoint_write();
        Ok(bytes)
    }

    /// Loads and validates the checkpoint at `path`.
    pub fn load(path: &Path, stats: &Arc<IoStats>) -> io::Result<Self> {
        let buf = std::fs::read(path)?;
        let payload = open_envelope(&buf, CKPT_MAGIC, "checkpoint")?;
        if payload.len() < 8 + 8 {
            return Err(corrupt("checkpoint file too short"));
        }
        let mut cur = Cursor::new(payload);
        let epoch = codec::read_u64(&mut cur)?;
        let n = codec::read_u64(&mut cur)? as usize;
        let mut set = Vec::new();
        read_ascending_gaps(&mut cur, &mut set, n)?;
        if cur.position() != payload.len() as u64 {
            return Err(corrupt("trailing bytes after checkpoint payload"));
        }
        stats.record_checkpoint_read();
        Ok(Self { epoch, set })
    }

    /// Loads the checkpoint if `path` exists; `Ok(None)` when it does not.
    pub fn load_if_exists(path: &Path, stats: &Arc<IoStats>) -> io::Result<Option<Self>> {
        match Self::load(path, stats) {
            Ok(ckpt) => Ok(Some(ckpt)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_extmem::ScratchDir;

    #[test]
    fn round_trip() {
        let dir = ScratchDir::new("ckpt-rt").unwrap();
        let path = dir.file("is.ckpt");
        let stats = IoStats::shared();
        let set: Vec<VertexId> = vec![0, 3, 4, 100, 4_000_000_000];
        let bytes = Checkpoint::write(&path, 7, &set, &stats).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
        let loaded = Checkpoint::load(&path, &stats).unwrap();
        assert_eq!(loaded, Checkpoint { epoch: 7, set });
        let snap = stats.snapshot();
        assert_eq!(snap.checkpoints_written, 1);
        assert_eq!(snap.checkpoints_read, 1);
    }

    #[test]
    fn empty_set_round_trips() {
        let dir = ScratchDir::new("ckpt-empty").unwrap();
        let path = dir.file("is.ckpt");
        let stats = IoStats::shared();
        Checkpoint::write(&path, 1, &[], &stats).unwrap();
        let loaded = Checkpoint::load(&path, &stats).unwrap();
        assert_eq!(loaded.epoch, 1);
        assert!(loaded.set.is_empty());
    }

    #[test]
    fn rejects_unsorted_sets_and_corrupt_files() {
        let dir = ScratchDir::new("ckpt-bad").unwrap();
        let path = dir.file("is.ckpt");
        let stats = IoStats::shared();
        let err = Checkpoint::write(&path, 1, &[3, 3], &stats).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        Checkpoint::write(&path, 2, &[1, 5, 9], &stats).unwrap();
        let good = std::fs::read(&path).unwrap();
        // One flipped byte anywhere after the magic, payload or checksum.
        for at in CKPT_MAGIC.len()..good.len() {
            let mut bytes = good.clone();
            bytes[at] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let err = Checkpoint::load(&path, &stats).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at {at}");
        }

        std::fs::write(&path, b"short").unwrap();
        assert!(Checkpoint::load(&path, &stats).is_err());
    }

    #[test]
    fn load_if_exists_distinguishes_missing_from_broken() {
        let dir = ScratchDir::new("ckpt-exists").unwrap();
        let stats = IoStats::shared();
        assert!(Checkpoint::load_if_exists(&dir.file("none.ckpt"), &stats)
            .unwrap()
            .is_none());
        let path = dir.file("is.ckpt");
        std::fs::write(&path, b"garbage garbage garbage garbage").unwrap();
        assert!(Checkpoint::load_if_exists(&path, &stats).is_err());
    }

    #[test]
    fn overwrite_is_atomic_replacement() {
        let dir = ScratchDir::new("ckpt-ow").unwrap();
        let path = dir.file("is.ckpt");
        let stats = IoStats::shared();
        Checkpoint::write(&path, 1, &[1, 2], &stats).unwrap();
        Checkpoint::write(&path, 2, &[4], &stats).unwrap();
        let loaded = Checkpoint::load(&path, &stats).unwrap();
        assert_eq!(loaded.epoch, 2);
        assert_eq!(loaded.set, vec![4]);
        // No temp file left behind.
        assert!(!dir.file("is.ckpt.tmp").exists());
    }
}
