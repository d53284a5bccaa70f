//! Random-access adjacency reads through the buffer pool.
//!
//! The semi-external algorithms are written against [`GraphScan`] — full
//! sequential passes. Late swap rounds, however, only need to verify a
//! handful of candidates, and a full `scan(|V|+|E|)` pass for a few
//! records is exactly the waste a database buffer pool exists to remove.
//! This module adds the random-access side, once for both record codecs:
//!
//! * [`RecordIndex`] — one `u64` file offset per vertex. `8|V|` bytes,
//!   within the semi-external `O(|V|)` memory budget, for plain and
//!   gap-compressed files alike: framing finds where a record ends, so no
//!   length is stored. A file's clones share one index slot. Opening a
//!   [`RandomAccessGraph`] requests the index and allocates its offsets;
//!   the file's next complete full scan fills them on the way and
//!   publishes the index after its last record, so a solve that scans
//!   before its first point read pays no scan for it. A point read or
//!   rank that finds no published index builds it by one accounted scan
//!   that frames records without decoding them ([`RecordIndex::build`]
//!   runs the same loop).
//! * [`RandomAccessGraph`] — an adjacency file (plain `MISADJ01` or
//!   gap-compressed `MISADJC1`) behind a [`BufferPool`]:
//!   [`RandomAccessGraph::neighbors`] resolves a vertex through the
//!   index and reads its record through the pool's pages, so repeated reads of a
//!   small working set cost cache hits instead of scans.
//! * [`NeighborAccess`] — the trait the swap algorithms use for their
//!   paged candidate-verification path, also implemented by the in-memory
//!   representations so the paged code path can be tested without disk.
//!
//! [`GraphScan`]: crate::GraphScan

use std::cell::RefCell;
use std::io;
use std::sync::Arc;

use mis_extmem::pager::{open_file_source, BufferPool, FilePageSource, PagerConfig};
use mis_extmem::varint::SliceError;

use crate::adjfile::{decode_record, Frame, RecordCodec, RecordFile};
use crate::compressed::{CompressedAdjFile, GapCodec};
use crate::scan::GraphScan;
use crate::VertexId;

/// Per-vertex byte offsets of adjacency records within a file of either
/// codec.
#[derive(Debug, Clone, Default)]
pub struct RecordIndex {
    offsets: Vec<u64>,
}

impl RecordIndex {
    /// Builds the index, keyed by vertex id, with one accounted
    /// sequential scan of `file` that frames records without decoding
    /// them. A record whose vertex is out of range or already indexed
    /// is corruption.
    pub fn build<C: RecordCodec>(file: &RecordFile<C>) -> io::Result<Self> {
        let _span = mis_obs::span("pass", "index.build");
        let mut index = Self::unfilled(file.num_vertices());
        file.record_loop(|offset, frame, _| index.record(frame.vertex, offset))?;
        Ok(index)
    }

    /// An index of `num_vertices` offsets for one scan to fill.
    pub(crate) fn unfilled(num_vertices: usize) -> Self {
        Self {
            offsets: vec![u64::MAX; num_vertices],
        }
    }

    /// Records that `vertex`'s record starts at byte `offset`. A vertex
    /// out of range or already indexed is corruption, so a scan of all
    /// `|V|` records that passes fills every offset.
    #[inline]
    pub(crate) fn record(&mut self, vertex: VertexId, offset: u64) -> io::Result<()> {
        let n = self.offsets.len();
        let slot = self.offsets.get_mut(vertex as usize).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("record for vertex {vertex} out of range ({n} vertices)"),
            )
        })?;
        if *slot != u64::MAX {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("duplicate record for vertex {vertex}"),
            ));
        }
        *slot = offset;
        Ok(())
    }

    /// Byte offset of `v`'s record from the start of the file.
    pub fn offset(&self, v: VertexId) -> u64 {
        self.offsets[v as usize]
    }

    /// Number of indexed vertices.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }
}

/// Random-access neighbour reads, ordered consistently with some scan.
///
/// Implementations promise that [`NeighborAccess::record_rank`] is
/// strictly monotone in the storage order of the matching [`GraphScan`]
/// representation: sorting vertices by rank and visiting them reproduces
/// the relative order a full scan would visit them in. The swap
/// algorithms rely on this to keep their earlier-record-wins conflict
/// resolution identical on the paged path.
pub trait NeighborAccess {
    /// Fetches `v`'s neighbour list and hands it to `f`.
    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) -> io::Result<()>;

    /// A key strictly monotone in `v`'s position in storage order. A
    /// file-backed implementation may first have to build its record
    /// index, and returns that scan's error.
    fn record_rank(&self, v: VertexId) -> io::Result<u64>;

    /// Resident memory the access path itself holds (pool frames plus
    /// index), for the algorithms' memory model. Zero for in-memory
    /// representations, whose bytes are the graph, not the access path.
    fn resident_bytes(&self) -> u64 {
        0
    }

    /// Short human-readable description of the backing storage.
    fn access_storage(&self) -> &'static str {
        "unknown"
    }
}

/// Mutable internals of [`RandomAccessGraph`] behind one `RefCell`.
struct PoolState {
    pool: BufferPool<FilePageSource>,
    /// Reusable buffer gathering a record that crosses pages.
    raw: Vec<u8>,
    /// Reusable decoded neighbour list.
    nbrs: Vec<VertexId>,
}

/// An adjacency file of codec `C` — plain or gap-compressed — served
/// through a buffer-pool page cache.
///
/// Create with [`RandomAccessGraph::open`], which scans nothing: the
/// file's next complete full scan builds the record index on the way, and
/// a read that comes first builds it by one scan. All reads go through
/// the pool, so hits, misses, evictions and the block transfers of misses
/// land in the same [`mis_extmem::IoStats`] as the scan machinery's
/// counters.
pub struct RandomAccessGraph<C> {
    state: RefCell<PoolState>,
    /// A clone of the opened file, sharing its record index slot.
    file: RecordFile<C>,
    config: PagerConfig,
}

impl<C: RecordCodec> std::fmt::Debug for RandomAccessGraph<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandomAccessGraph")
            .field("file", &self.file)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<C: RecordCodec> RandomAccessGraph<C> {
    /// Opens `file` for random access. It requests the record index that
    /// the file's clones share, allocating its `8|V|` offsets, and scans
    /// nothing.
    pub fn open(file: &RecordFile<C>, config: PagerConfig) -> io::Result<Self> {
        file.request_index();
        let pool = BufferPool::new(
            open_file_source(file.path())?,
            config,
            Arc::clone(file.stats()),
        );
        Ok(Self {
            state: RefCell::new(PoolState {
                pool,
                raw: Vec::new(),
                nbrs: Vec::new(),
            }),
            file: file.clone(),
            config,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.file.num_vertices()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> u64 {
        self.file.num_edges()
    }

    /// The pool configuration this graph was opened with.
    pub fn pager_config(&self) -> &PagerConfig {
        &self.config
    }

    /// Pages currently resident in the pool.
    pub fn resident_pages(&self) -> usize {
        self.state.borrow().pool.resident_pages()
    }

    /// Fetches `v`'s neighbour list into a fresh vector.
    pub fn neighbors(&self, v: VertexId) -> io::Result<Vec<VertexId>> {
        let mut out = Vec::new();
        self.with_neighbors(v, &mut |ns| out.extend_from_slice(ns))?;
        Ok(out)
    }
}

impl RandomAccessGraph<GapCodec> {
    /// The same as [`RandomAccessGraph::open`], which takes either codec.
    /// A one-line forward kept because `e2e-bench/src/solve.rs` still
    /// opens compressed files by this name.
    pub fn open_compressed(file: &CompressedAdjFile, config: PagerConfig) -> io::Result<Self> {
        Self::open(file, config)
    }
}

/// Fetches the record of `v` at `offset` through the pool and appends its
/// neighbours to `dst`.
///
/// Starting at the record's page, each page covering the record is
/// requested exactly once, in ascending order, so the hit and miss counters
/// measure page locality. A record inside one page is framed and decoded
/// straight off that page; only a record crossing a page boundary is
/// gathered into `raw` first.
fn fetch<C: RecordCodec>(
    pool: &mut BufferPool<FilePageSource>,
    raw: &mut Vec<u8>,
    offset: u64,
    v: VertexId,
    degree_cap: u64,
    dst: &mut Vec<VertexId>,
) -> io::Result<()> {
    let page_size = pool.config().page_size as u64;
    let mut page_no = offset / page_size;
    let in_page = (offset % page_size) as usize;
    let truncated = || io::Error::new(io::ErrorKind::UnexpectedEof, "truncated adjacency record");
    if page_no >= pool.num_pages() {
        return Err(truncated());
    }
    let within_page = pool.with_page(page_no, |page| {
        let bytes = page.get(in_page..).unwrap_or(&[]);
        match C::frame(bytes, degree_cap) {
            Err(SliceError::NeedMore) => {
                raw.clear();
                raw.extend_from_slice(bytes);
                Ok(false)
            }
            framed => decode_fetched::<C>(framed, bytes, v, dst).map(|()| true),
        }
    })??;
    if within_page {
        return Ok(());
    }
    loop {
        page_no += 1;
        if page_no >= pool.num_pages() {
            return Err(truncated());
        }
        pool.with_page(page_no, |page| raw.extend_from_slice(page))?;
        match C::frame(raw, degree_cap) {
            Err(SliceError::NeedMore) => {}
            framed => return decode_fetched::<C>(framed, raw, v, dst),
        }
    }
}

/// Checks that a fetched record is `v`'s and decodes it into `dst`.
fn decode_fetched<C: RecordCodec>(
    framed: Result<Frame, SliceError>,
    bytes: &[u8],
    v: VertexId,
    dst: &mut Vec<VertexId>,
) -> io::Result<()> {
    let frame = framed.map_err(|e| e.into_io_error("adjacency record"))?;
    if frame.vertex != v {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "record index out of sync: found vertex {} at {v}'s offset",
                frame.vertex
            ),
        ));
    }
    decode_record::<C>(frame, bytes, dst)
}

impl<C: RecordCodec> NeighborAccess for RandomAccessGraph<C> {
    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) -> io::Result<()> {
        let n = self.num_vertices();
        if v as usize >= n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("vertex {v} out of range ({n} vertices)"),
            ));
        }
        let offset = self.file.record_index()?.offset(v);
        // Fill the reusable neighbour buffer, then release the borrow so
        // the callback may recursively read through this graph.
        let nbrs = {
            let PoolState { pool, raw, nbrs } = &mut *self.state.borrow_mut();
            let mut out = std::mem::take(nbrs);
            out.clear();
            fetch::<C>(pool, raw, offset, v, n as u64, &mut out)?;
            out
        };
        f(&nbrs);
        self.state.borrow_mut().nbrs = nbrs;
        Ok(())
    }

    fn record_rank(&self, v: VertexId) -> io::Result<u64> {
        // Records are contiguous, so the byte offset is itself strictly
        // monotone in storage order.
        Ok(self.file.record_index()?.offset(v))
    }

    fn resident_bytes(&self) -> u64 {
        // Pool frames plus 8 bytes of offset per vertex, allocated at open.
        self.config.capacity_bytes() + 8 * self.num_vertices() as u64
    }

    fn access_storage(&self) -> &'static str {
        C::PAGED_STORAGE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_adj_file;
    use crate::csr::CsrGraph;
    use mis_extmem::pager::PolicyKind;
    use mis_extmem::{IoStats, ScratchDir};
    use std::sync::Arc;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (1, 3), (2, 4), (4, 5), (0, 5)])
    }

    fn tiny_config(frames: usize) -> PagerConfig {
        PagerConfig {
            page_size: 16, // force records across page boundaries
            frames,
            policy: PolicyKind::Clock,
        }
    }

    #[test]
    fn neighbors_match_scan_for_every_vertex() {
        let g = sample();
        let dir = ScratchDir::new("raccess").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 64).unwrap();
        let mut expected = vec![Vec::new(); g.num_vertices()];
        file.scan(&mut |v, ns| expected[v as usize] = ns.to_vec())
            .unwrap();

        for frames in [1, 2, 64] {
            let ra = RandomAccessGraph::open(&file, tiny_config(frames)).unwrap();
            for v in 0..g.num_vertices() as VertexId {
                assert_eq!(ra.neighbors(v).unwrap(), expected[v as usize], "v={v}");
            }
        }
    }

    #[test]
    fn repeated_reads_hit_the_cache() {
        let g = sample();
        let dir = ScratchDir::new("raccess-hits").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 64).unwrap();
        let ra = RandomAccessGraph::open(
            &file,
            PagerConfig {
                page_size: 4096,
                frames: 4,
                policy: PolicyKind::Clock,
            },
        )
        .unwrap();
        let before = stats.snapshot();
        ra.neighbors(1).unwrap();
        // The whole file fits one page, and header and body share one
        // page request: the first read is a pure miss, so the hit rate
        // measures locality, not the two-reads-per-record pattern.
        let after_first = stats.snapshot().since(&before);
        assert_eq!(after_first.cache_misses, 1);
        assert_eq!(after_first.cache_hits, 0);
        ra.neighbors(1).unwrap();
        ra.neighbors(4).unwrap();
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.cache_misses, 1);
        assert_eq!(delta.cache_hits, 2); // exactly one request per read
        assert_eq!(ra.resident_pages(), 1);
    }

    #[test]
    fn mismatched_index_is_rejected() {
        let g = sample();
        let dir = ScratchDir::new("raccess-bad").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(&g, &dir.file("g.adj"), stats, 64).unwrap();
        let ra = RandomAccessGraph::open(&file, tiny_config(2)).unwrap();
        assert!(ra.neighbors(99).is_err());
    }

    #[test]
    fn compressed_neighbors_match_scan_for_every_vertex() {
        use crate::compressed::compress_adj;
        let g = sample();
        let dir = ScratchDir::new("raccess-comp").unwrap();
        let stats = IoStats::shared();
        let file = compress_adj(&g, &dir.file("g.cadj"), Arc::clone(&stats), 64).unwrap();
        let mut expected = vec![Vec::new(); g.num_vertices()];
        file.scan(&mut |v, ns| expected[v as usize] = ns.to_vec())
            .unwrap();
        for frames in [1, 2, 64] {
            let ra = RandomAccessGraph::open(&file, tiny_config(frames)).unwrap();
            for v in 0..g.num_vertices() as VertexId {
                assert_eq!(ra.neighbors(v).unwrap(), expected[v as usize], "v={v}");
            }
            assert_eq!(ra.access_storage(), "cadj-file+pager");
        }
        // Ranks reflect storage order (id order here).
        let ra = RandomAccessGraph::open_compressed(&file, tiny_config(4)).unwrap();
        assert!(ra.record_rank(0).unwrap() < ra.record_rank(1).unwrap());
        assert_eq!(
            ra.resident_bytes(),
            4 * 16 + 8 * g.num_vertices() as u64,
            "pool frames + 8 bytes of index per vertex"
        );
        assert!(ra.neighbors(99).is_err());
    }

    #[test]
    fn resident_bytes_cover_pool_and_index() {
        let g = sample();
        let dir = ScratchDir::new("raccess-mem").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(&g, &dir.file("g.adj"), stats, 64).unwrap();
        let ra = RandomAccessGraph::open(&file, tiny_config(2)).unwrap();
        assert_eq!(ra.resident_bytes(), 2 * 16 + 8 * 6);
        assert_eq!(ra.access_storage(), "adj-file+pager");
        assert_eq!(ra.num_vertices(), 6);
        assert_eq!(ra.num_edges(), 6);
    }
}
