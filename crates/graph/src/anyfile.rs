//! Format-sniffing wrapper over the two on-disk adjacency formats.
//!
//! Plain (`MISADJ01`, [`AdjFile`]) and gap-compressed (`MISADJC1`,
//! [`CompressedAdjFile`]) files — the two codecs of one
//! [`crate::adjfile::RecordFile`] — are full peers everywhere a graph is
//! scanned: the CLI, the durable-update store and the experiment harness
//! all accept either. [`AnyAdjFile`] opens a path by magic bytes and
//! delegates the whole [`GraphScan`] surface, and
//! [`AnyAdjFile::open_random_access`] opens the matching paged access
//! path, so callers stay format-agnostic.

use std::convert::Infallible;
use std::io::{self, Read};
use std::path::Path;
use std::sync::Arc;

use mis_extmem::pager::PagerConfig;
use mis_extmem::{IoStats, DEFAULT_BLOCK_SIZE};
use mis_obs::CostModel;

use crate::adjfile::AdjFile;
use crate::compressed::CompressedAdjFile;
use crate::raccess::{NeighborAccess, RandomAccessGraph, RecordIndex};
use crate::scan::GraphScan;
use crate::VertexId;

/// Any flavour of on-disk adjacency storage, behind one scan interface.
#[derive(Debug, Clone)]
pub enum AnyAdjFile {
    /// A plain fixed-width `MISADJ01` file.
    Plain(AdjFile),
    /// A gap-compressed `MISADJC1` file.
    Compressed(CompressedAdjFile),
    /// Never constructed: no storage layout is left behind it. The
    /// variant stays, uninhabited, because `e2e-bench/src/solve.rs`
    /// still names it in a match.
    Sharded(Infallible),
}

impl AnyAdjFile {
    /// Opens `path`, detecting the format by magic bytes.
    pub fn open(path: &Path, stats: Arc<IoStats>) -> io::Result<Self> {
        Self::open_with_block_size(path, stats, DEFAULT_BLOCK_SIZE)
    }

    /// Opens with an explicit scan block size.
    pub fn open_with_block_size(
        path: &Path,
        stats: Arc<IoStats>,
        block_size: usize,
    ) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        std::fs::File::open(path)
            .and_then(|mut f| f.read_exact(&mut magic))
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        mis_obs::instant("graph", "graph.open");
        match &magic {
            b"MISADJ01" => {
                AdjFile::open_with_block_size(path, stats, block_size).map(AnyAdjFile::Plain)
            }
            b"MISADJC1" => CompressedAdjFile::open_with_block_size(path, stats, block_size)
                .map(AnyAdjFile::Compressed),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not an adjacency file", path.display()),
            )),
        }
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        match self {
            AnyAdjFile::Plain(f) => f.path(),
            AnyAdjFile::Compressed(f) => f.path(),
            AnyAdjFile::Sharded(never) => match *never {},
        }
    }

    /// The shared I/O counters scans report into.
    pub fn stats(&self) -> &Arc<IoStats> {
        match self {
            AnyAdjFile::Plain(f) => f.stats(),
            AnyAdjFile::Compressed(f) => f.stats(),
            AnyAdjFile::Sharded(never) => match *never {},
        }
    }

    /// File size on disk in bytes.
    pub fn disk_bytes(&self) -> io::Result<u64> {
        match self {
            AnyAdjFile::Plain(f) => f.disk_bytes(),
            AnyAdjFile::Compressed(f) => f.disk_bytes(),
            AnyAdjFile::Sharded(never) => match *never {},
        }
    }

    /// The paper's I/O cost model for scanning this file in
    /// `block_size`-byte blocks. |V|, |E|, the on-disk bytes and the
    /// storage label come from the file.
    pub fn cost_model(&self, block_size: usize) -> io::Result<CostModel> {
        Ok(CostModel {
            vertices: self.num_vertices() as u64,
            edges: self.num_edges(),
            file_bytes: self.disk_bytes()?,
            block_size: block_size as u64,
            storage: self.storage().to_string(),
        })
    }

    /// Opens the paged access path under `config`. It scans nothing: it
    /// requests the record index, which the file's next complete full
    /// scan builds on the way, or else its first point read or rank by
    /// one scan ([`AnyAdjFile::record_index`]).
    pub fn open_random_access(
        &self,
        config: PagerConfig,
    ) -> io::Result<Box<dyn NeighborAccess + Send>> {
        Ok(match self {
            AnyAdjFile::Plain(f) => Box::new(RandomAccessGraph::open(f, config)?),
            AnyAdjFile::Compressed(f) => Box::new(RandomAccessGraph::open(f, config)?),
            AnyAdjFile::Sharded(never) => match *never {},
        })
    }

    /// The record index that paged handles over this file share, built
    /// by one accounted scan unless a full scan already published it (see
    /// [`crate::RecordFile::record_index`]).
    pub fn record_index(&self) -> io::Result<&RecordIndex> {
        match self {
            AnyAdjFile::Plain(f) => f.record_index(),
            AnyAdjFile::Compressed(f) => f.record_index(),
            AnyAdjFile::Sharded(never) => match *never {},
        }
    }

    /// The file as a scan trait object.
    pub fn as_scan(&self) -> &dyn GraphScan {
        match self {
            AnyAdjFile::Plain(f) => f,
            AnyAdjFile::Compressed(f) => f,
            AnyAdjFile::Sharded(never) => match *never {},
        }
    }
}

impl GraphScan for AnyAdjFile {
    fn num_vertices(&self) -> usize {
        self.as_scan().num_vertices()
    }

    fn num_edges(&self) -> u64 {
        self.as_scan().num_edges()
    }

    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        self.as_scan().scan(f)
    }

    fn storage(&self) -> &'static str {
        self.as_scan().storage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_adj_file;
    use crate::compressed::compress_adj;
    use crate::csr::CsrGraph;
    use mis_extmem::ScratchDir;

    #[test]
    fn detects_both_formats_and_rejects_garbage() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let dir = ScratchDir::new("anyfile").unwrap();
        let stats = IoStats::shared();
        build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 256).unwrap();
        compress_adj(&g, &dir.file("g.cadj"), Arc::clone(&stats), 256).unwrap();

        let plain = AnyAdjFile::open(&dir.file("g.adj"), Arc::clone(&stats)).unwrap();
        assert!(matches!(plain, AnyAdjFile::Plain(_)));
        assert_eq!(plain.storage(), "adj-file");
        let comp = AnyAdjFile::open(&dir.file("g.cadj"), Arc::clone(&stats)).unwrap();
        assert!(matches!(comp, AnyAdjFile::Compressed(_)));
        assert_eq!(comp.storage(), "adj-file-compressed");

        // Both scan the same graph.
        for file in [&plain, &comp] {
            assert_eq!(file.num_vertices(), 4);
            assert_eq!(file.num_edges(), 3);
            let mut degrees = vec![0usize; 4];
            file.scan(&mut |v, ns| degrees[v as usize] = ns.len())
                .unwrap();
            assert_eq!(degrees, vec![1, 2, 2, 1]);
            assert!(file.disk_bytes().unwrap() > 0);
            assert!(file.path().exists());
        }

        for file in [&plain, &comp] {
            let model = file.cost_model(256).unwrap();
            assert_eq!((model.vertices, model.edges, model.block_size), (4, 3, 256));
            assert_eq!(model.file_bytes, file.disk_bytes().unwrap());
            assert_eq!(model.storage, file.storage());
        }

        let junk = dir.file("junk.bin");
        std::fs::write(&junk, b"garbage garbage!").unwrap();
        assert!(AnyAdjFile::open(&junk, Arc::clone(&stats)).is_err());
        // The magic of the removed sharded layout is refused, not misread.
        let manifest = dir.file("g.shrd");
        std::fs::write(&manifest, b"MISSHRD1\x04\0\0\0\0\0\0\0").unwrap();
        let err = AnyAdjFile::open(&manifest, Arc::clone(&stats)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(AnyAdjFile::open(&dir.file("missing.adj"), stats).is_err());
    }
}
