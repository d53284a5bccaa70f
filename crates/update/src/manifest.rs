//! The segment manifest — the tiered store's authoritative list of
//! live segments.
//!
//! Rolls and compactions change *which* segment files make up the
//! committed history; the manifest records that set so recovery never
//! has to guess from directory contents. It is replaced atomically
//! (temp file + fsync + rename), so a crash leaves either the old or
//! the new segment list — never a torn one. Segment files present in
//! the directory but absent from the manifest are orphans from an
//! interrupted roll or compaction and are deleted on open.
//!
//! ## File format (`MISMAN01`)
//!
//! ```text
//! magic    "MISMAN01"          8 bytes
//! payload  varint next segment id
//!          varint live segment count
//!          varint segment id, per live segment, in epoch order
//! crc      u32 LE              FNV-1a over the payload
//! ```
//!
//! Ids are never reused (`next id` persists across compactions), so a
//! freshly sealed segment can never collide with a file an old snapshot
//! still pins.

use std::io::{self, Cursor};
use std::path::Path;

use mis_extmem::varint::{read_varint, write_varint};

use crate::wal::{corrupt, open_envelope, write_envelope};

/// Magic bytes identifying a segment manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"MISMAN01";

/// File name of the manifest inside a store's segment directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// The live-segment list plus the id allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Next segment id to allocate (never reused).
    pub next_id: u64,
    /// Ids of the live segments, in epoch order.
    pub segments: Vec<u64>,
}

impl Default for Manifest {
    fn default() -> Self {
        Self {
            next_id: 1,
            segments: Vec::new(),
        }
    }
}

impl Manifest {
    /// Allocates the next segment id.
    pub fn allocate(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Loads the manifest at `path`, or the empty default when the file
    /// does not exist yet.
    pub fn load_or_default(path: &Path) -> io::Result<Self> {
        let buf = match std::fs::read(path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => return Err(e),
        };
        let payload = open_envelope(&buf, MANIFEST_MAGIC, "segment manifest")?;
        let mut cur = Cursor::new(payload);
        let next_id = read_varint(&mut cur).map_err(|_| corrupt("truncated manifest"))?;
        let count = read_varint(&mut cur).map_err(|_| corrupt("truncated manifest"))?;
        let mut segments = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let id = read_varint(&mut cur).map_err(|_| corrupt("truncated manifest"))?;
            if id >= next_id {
                return Err(corrupt("manifest lists an unallocated segment id"));
            }
            segments.push(id);
        }
        if cur.position() as usize != payload.len() {
            return Err(corrupt("trailing bytes in segment manifest"));
        }
        Ok(Self { next_id, segments })
    }

    /// Atomically replaces the manifest at `path` with this list: the
    /// bytes go to `<path>.tmp`, are fsynced, then renamed into place.
    pub fn store(&self, path: &Path) -> io::Result<()> {
        let mut payload = Vec::new();
        let header = [self.next_id, self.segments.len() as u64];
        for v in header.into_iter().chain(self.segments.iter().copied()) {
            write_varint(&mut payload, v).expect("vec write cannot fail");
        }
        write_envelope(path, MANIFEST_MAGIC, &payload).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_extmem::ScratchDir;

    #[test]
    fn missing_manifest_loads_as_default() {
        let dir = ScratchDir::new("man-default").unwrap();
        let m = Manifest::load_or_default(&dir.file(MANIFEST_NAME)).unwrap();
        assert_eq!(m, Manifest::default());
        assert_eq!(m.next_id, 1);
    }

    #[test]
    fn store_and_load_round_trip_atomically() {
        let dir = ScratchDir::new("man-rt").unwrap();
        let path = dir.file(MANIFEST_NAME);
        let mut m = Manifest::default();
        let a = m.allocate();
        let b = m.allocate();
        assert_eq!((a, b), (1, 2));
        m.segments = vec![a, b];
        m.store(&path).unwrap();
        // No temp file remains.
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(Manifest::load_or_default(&path).unwrap(), m);

        // Replacement drops an id without reusing it.
        m.segments = vec![b];
        let c = m.allocate();
        m.segments.push(c);
        m.store(&path).unwrap();
        let loaded = Manifest::load_or_default(&path).unwrap();
        assert_eq!(loaded.segments, vec![2, 3]);
        assert_eq!(loaded.next_id, 4);
    }

    #[test]
    fn corruption_is_rejected() {
        let dir = ScratchDir::new("man-corrupt").unwrap();
        let path = dir.file(MANIFEST_NAME);
        let mut m = Manifest::default();
        let id = m.allocate();
        m.segments.push(id);
        m.store(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(Manifest::load_or_default(&path).is_err());
        // One flipped payload byte fails the checksum.
        for at in MANIFEST_MAGIC.len()..good.len() - 4 {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            let err = Manifest::load_or_default(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at {at}");
        }

        std::fs::write(&path, b"JUNKJUNKJUNK").unwrap();
        assert!(Manifest::load_or_default(&path).is_err());

        // An id at or above next_id is inconsistent.
        let forged = Manifest {
            next_id: 1,
            segments: vec![5],
        };
        forged.store(&path).unwrap();
        assert!(Manifest::load_or_default(&path).is_err());
    }
}
