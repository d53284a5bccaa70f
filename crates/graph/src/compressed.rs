//! Gap-compressed adjacency files (WebGraph-style).
//!
//! The paper reads its biggest inputs in compressed form \[6\]; this module
//! provides the same capability for our pipeline. Layout:
//!
//! ```text
//! magic   "MISADJC1"          8 bytes
//! |V|     varint
//! |E|     fixed-width varint  10 bytes (patchable in place, see below)
//! record* |V| times:
//!     vertex   varint
//!     degree   varint
//!     nbrs     ascending gap-coded varints (see mis_extmem::varint)
//! ```
//!
//! The `|E|` header is written as a **fixed-width padded varint**
//! ([`mis_extmem::varint::write_varint_padded`]): the writer sorts and
//! deduplicates each neighbour list (gap coding needs strict
//! monotonicity), so the true undirected edge count is only known after
//! the last record — [`CompressedAdjWriter::finish`] counts the entries
//! actually written and patches the header in place when a multigraph
//! source made the original `|E|` a lie. Readers decode the padded field
//! like any other varint, so older compact-width files stay readable.
//!
//! Neighbour lists are stored sorted by **id**, which differs from the
//! uncompressed [`crate::AdjFile`] convention of neighbour-degree order.
//! The scan-order of *records* is preserved, which is what the
//! algorithms' correctness and conflict resolution depend on; neighbour
//! order within a record only affects greedy tie-breaking inside
//! Algorithm 5's star choice, not any invariant. On the paper's
//! power-law analogues the compressed file is ~2–3× smaller, so every
//! scan moves proportionally fewer blocks.
//!
//! ## Random access: the record index
//!
//! Compressed records are variable-width, so the paged access path
//! (`mis run --cache-mb`) needs a [`CompressedRecordIndex`]: one
//! `(byte offset, byte length)` pair per vertex — `12|V|` bytes, within
//! the semi-external `O(|V|)` budget. It is built for free at write time
//! ([`CompressedAdjWriter::create_indexed`] +
//! [`CompressedAdjWriter::finish_indexed`]) or by one accounted scan
//! ([`CompressedRecordIndex::build`]). Knowing each record's length up
//! front lets [`crate::RandomAccessGraph`] fetch exactly the record's
//! bytes through the buffer pool and decode them in memory — the same
//! one-pin-per-page cost profile as the plain format.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mis_extmem::varint::{
    decode_ascending_gaps_slice, decode_varint_slice, encode_varint_padded, read_varint,
    varint_run_len, write_ascending_gaps, write_varint, write_varint_padded, SliceError,
};
use mis_extmem::{BlockReader, BlockWriter, ChunkBuf, IoStats, DEFAULT_BLOCK_SIZE};

use crate::scan::{GraphScan, RecordBlock};
use crate::VertexId;

const MAGIC: &[u8; 8] = b"MISADJC1";

/// Per-vertex byte offsets and lengths of records within a
/// [`CompressedAdjFile`] — the compressed counterpart of
/// [`crate::RecordIndex`]. Records are variable-width, so the length is
/// stored explicitly instead of being derivable from the header.
#[derive(Debug, Clone, Default)]
pub struct CompressedRecordIndex {
    offsets: Vec<u64>,
    lens: Vec<u32>,
}

impl CompressedRecordIndex {
    /// Wraps raw per-vertex `(offset, length)` columns.
    ///
    /// # Panics
    /// If the columns differ in length.
    pub fn from_parts(offsets: Vec<u64>, lens: Vec<u32>) -> Self {
        assert_eq!(offsets.len(), lens.len(), "index columns must align");
        Self { offsets, lens }
    }

    /// Builds the index with one accounted sequential scan of `file`.
    ///
    /// Records are **framed, not decoded**: [`varint_run_len`] counts
    /// gap terminators a word at a time, so the build runs at close to
    /// memory bandwidth. Gap values are validated later, when a record
    /// is actually fetched and decoded.
    pub fn build(file: &CompressedAdjFile) -> io::Result<Self> {
        let _span = mis_obs::span("graph", "index.build");
        file.stats.record_scan();
        let n = file.num_vertices();
        let mut offsets = vec![u64::MAX; n];
        let mut lens = vec![0u32; n];
        let mut chunk = file.validated_reader()?;
        for _ in 0..n {
            let start = chunk.position();
            let framed = frame_record(&mut chunk, file.degree_cap)?;
            let vertex = framed.vertex;
            chunk.consume(framed.total);
            let slot = offsets.get_mut(vertex as usize).ok_or_else(|| {
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
            *slot = start;
            lens[vertex as usize] = (chunk.position() - start) as u32;
        }
        Ok(Self { offsets, lens })
    }

    /// Byte offset of `v`'s record from the start of the file.
    pub fn offset(&self, v: VertexId) -> u64 {
        self.offsets[v as usize]
    }

    /// Byte length of `v`'s record.
    pub fn record_len(&self, v: VertexId) -> u32 {
        self.lens[v as usize]
    }

    /// Number of indexed vertices.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Resident bytes of the index itself (8 offset + 4 length per
    /// vertex), for the memory model.
    pub fn index_bytes(&self) -> u64 {
        12 * self.offsets.len() as u64
    }

    /// Splits the index into its `(offsets, lengths)` columns.
    pub fn into_parts(self) -> (Vec<u64>, Vec<u32>) {
        (self.offsets, self.lens)
    }
}

/// Counts bytes consumed from an inner reader; the header decode runs
/// through it so the [`ChunkBuf`] that follows knows its file offset.
struct CountingReader<R> {
    inner: R,
    pos: u64,
}

impl<R: Read> CountingReader<R> {
    fn new(inner: R) -> Self {
        Self { inner, pos: 0 }
    }

    fn pos(&self) -> u64 {
        self.pos
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// One record framed (not decoded) at the front of a [`ChunkBuf`]:
/// `total` bytes are buffered and available, of which the first `hdr`
/// are the vertex + degree varints.
#[derive(Debug, Clone, Copy)]
struct FramedRecord {
    vertex: VertexId,
    degree: usize,
    hdr: usize,
    total: usize,
}

/// Parses the `vertex` + `degree` header varints at the front of `buf`,
/// validating both against the id space / vertex count.
fn parse_record_header(
    buf: &[u8],
    num_vertices: u64,
) -> Result<(VertexId, usize, usize), SliceError> {
    let (vraw, a) = decode_varint_slice(buf)?;
    if vraw > u64::from(u32::MAX) {
        return Err(SliceError::Invalid("vertex id overflows u32"));
    }
    let (degree, b) = decode_varint_slice(&buf[a..])?;
    // A simple-graph record can never list more neighbours than there
    // are vertices; treating larger degrees as corruption also stops a
    // truncated/garbage file from driving a huge allocation.
    if degree > num_vertices {
        return Err(SliceError::Invalid("degree exceeds vertex count"));
    }
    Ok((vraw as VertexId, degree as usize, a + b))
}

/// Frames the next whole record at the front of `chunk`, refilling (and
/// growing) the window until header **and** gap run are fully buffered.
/// Nothing is consumed; on success `chunk.available()[..total]` is the
/// complete encoded record.
fn frame_record<R: Read>(chunk: &mut ChunkBuf<R>, num_vertices: u64) -> io::Result<FramedRecord> {
    loop {
        let attempt = parse_record_header(chunk.available(), num_vertices).and_then(
            |(vertex, degree, hdr)| {
                let run = varint_run_len(&chunk.available()[hdr..], degree)?;
                Ok(FramedRecord {
                    vertex,
                    degree,
                    hdr,
                    total: hdr + run,
                })
            },
        );
        match attempt {
            Ok(framed) => return Ok(framed),
            Err(SliceError::NeedMore) => {
                if !chunk.refill()? {
                    return Err(SliceError::NeedMore.into_io_error("adjacency record"));
                }
            }
            Err(e) => return Err(e.into_io_error("adjacency record")),
        }
    }
}

/// Streaming writer for compressed adjacency files.
///
/// [`CompressedAdjWriter::create_indexed`] additionally tracks each
/// record's byte offset and length, so the [`CompressedRecordIndex`]
/// comes for free at [`CompressedAdjWriter::finish_indexed`] instead of
/// costing a rebuild scan.
#[derive(Debug)]
pub struct CompressedAdjWriter {
    writer: BlockWriter<File>,
    path: PathBuf,
    expected_records: u64,
    expected_edges: u64,
    written: u64,
    /// Directed neighbour entries actually written, post sort+dedup.
    entries: u64,
    /// Byte offset of the fixed-width `|E|` header field.
    edges_field_offset: u64,
    cursor: u64,
    scratch: Vec<VertexId>,
    /// `Some` only for indexed writers: per-vertex record offsets
    /// (`u64::MAX` until written) and lengths.
    offsets: Option<Vec<u64>>,
    lens: Option<Vec<u32>>,
}

impl CompressedAdjWriter {
    /// Creates `path` with the header for `num_vertices` / `num_edges`.
    pub fn create(
        path: &Path,
        num_vertices: u64,
        num_edges: u64,
        stats: Arc<IoStats>,
        block_size: usize,
    ) -> io::Result<Self> {
        Self::create_inner(path, num_vertices, num_edges, stats, block_size, false)
    }

    /// Like [`CompressedAdjWriter::create`], but also tracks per-vertex
    /// record offsets and lengths (`12|V|` extra bytes) for
    /// [`CompressedAdjWriter::finish_indexed`].
    pub fn create_indexed(
        path: &Path,
        num_vertices: u64,
        num_edges: u64,
        stats: Arc<IoStats>,
        block_size: usize,
    ) -> io::Result<Self> {
        Self::create_inner(path, num_vertices, num_edges, stats, block_size, true)
    }

    fn create_inner(
        path: &Path,
        num_vertices: u64,
        num_edges: u64,
        stats: Arc<IoStats>,
        block_size: usize,
        indexed: bool,
    ) -> io::Result<Self> {
        let file = File::create(path)?;
        let mut writer = BlockWriter::with_block_size(file, stats, block_size);
        writer.write_all(MAGIC)?;
        let v_bytes = write_varint(&mut writer, num_vertices)?;
        let edges_field_offset = 8 + v_bytes as u64;
        let e_bytes = write_varint_padded(&mut writer, num_edges)?;
        Ok(Self {
            writer,
            path: path.to_path_buf(),
            expected_records: num_vertices,
            expected_edges: num_edges,
            written: 0,
            entries: 0,
            edges_field_offset,
            cursor: edges_field_offset + e_bytes as u64,
            scratch: Vec::new(),
            offsets: indexed.then(|| vec![u64::MAX; num_vertices as usize]),
            lens: indexed.then(|| vec![0u32; num_vertices as usize]),
        })
    }

    /// Appends one record; `neighbors` in any order (sorted and
    /// deduplicated internally — the entry count that lands on disk is
    /// what [`CompressedAdjWriter::finish`] validates `|E|` against).
    pub fn write_record(&mut self, vertex: VertexId, neighbors: &[VertexId]) -> io::Result<()> {
        self.scratch.clear();
        self.scratch.extend_from_slice(neighbors);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        let start = self.cursor;
        let mut bytes = write_varint(&mut self.writer, u64::from(vertex))?;
        bytes += write_varint(&mut self.writer, self.scratch.len() as u64)?;
        bytes += write_ascending_gaps(&mut self.writer, &self.scratch)?;
        self.cursor = start + bytes as u64;
        self.entries += self.scratch.len() as u64;
        if let Some(slot) = self
            .offsets
            .as_mut()
            .and_then(|o| o.get_mut(vertex as usize))
        {
            *slot = start;
            self.lens.as_mut().expect("lens track offsets")[vertex as usize] = bytes as u32;
        }
        self.written += 1;
        Ok(())
    }

    fn check_complete(&self) -> io::Result<()> {
        if self.written != self.expected_records {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "compressed file incomplete: {} of {} records",
                    self.written, self.expected_records
                ),
            ));
        }
        Ok(())
    }

    /// Flushes, validates the record count, and reconciles the `|E|`
    /// header with the entries actually written: sort+dedup in
    /// [`CompressedAdjWriter::write_record`] silently drops multigraph
    /// duplicates, so the count announced at
    /// [`CompressedAdjWriter::create`] can be an overstatement — the
    /// header is patched in place rather than left lying. Returns the
    /// true undirected edge count.
    ///
    /// Fails when the directed entry total is odd (an asymmetric source:
    /// some edge was recorded on one endpoint only), since no undirected
    /// edge count could describe such a file.
    pub fn finish(self) -> io::Result<u64> {
        self.finish_common()
    }

    /// Like [`CompressedAdjWriter::finish`], but also returns the
    /// per-vertex record index accumulated during the write. Requires
    /// [`CompressedAdjWriter::create_indexed`].
    ///
    /// Fails if any vertex in `0..|V|` never received a record (possible
    /// even with a correct record *count*, via duplicate or out-of-range
    /// vertex ids) — such an index would misdirect every random access.
    pub fn finish_indexed(mut self) -> io::Result<CompressedRecordIndex> {
        let offsets = self.offsets.take().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "writer was not created with create_indexed",
            )
        })?;
        if let Some(missing) = offsets.iter().position(|&o| o == u64::MAX) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("no record was written for vertex {missing}"),
            ));
        }
        let lens = self.lens.take().expect("lens track offsets");
        self.finish_common()?;
        Ok(CompressedRecordIndex::from_parts(offsets, lens))
    }

    /// Flushes and validates a **shard member** file (see
    /// [`crate::sharded`]): exactly the announced (shard-local) record
    /// count must have been written, but the directed entry total may be
    /// odd — a shard holds a contiguous record run of a larger graph, so
    /// edges crossing the cut are recorded on one endpoint only. The
    /// header's edge field is reconciled to the *directed* entry count
    /// (the manifest carries the global undirected `|E|`). Returns the
    /// directed entry count.
    pub fn finish_shard(self) -> io::Result<u64> {
        self.check_complete()?;
        let entries = self.entries;
        self.writer.finish()?;
        if entries != self.expected_edges {
            let mut f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
            f.seek(SeekFrom::Start(self.edges_field_offset))?;
            f.write_all(&encode_varint_padded(entries))?;
        }
        Ok(entries)
    }

    fn finish_common(self) -> io::Result<u64> {
        self.check_complete()?;
        if !self.entries.is_multiple_of(2) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "asymmetric adjacency records: {} directed entries after dedup \
                     cannot form undirected edges",
                    self.entries
                ),
            ));
        }
        let true_edges = self.entries / 2;
        self.writer.finish()?;
        if true_edges != self.expected_edges {
            let mut f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
            f.seek(SeekFrom::Start(self.edges_field_offset))?;
            f.write_all(&encode_varint_padded(true_edges))?;
        }
        Ok(true_edges)
    }
}

/// A readable compressed adjacency file; every scan re-reads through a
/// fresh block reader and bumps the scan counter.
#[derive(Debug, Clone)]
pub struct CompressedAdjFile {
    path: PathBuf,
    num_vertices: u64,
    num_edges: u64,
    block_size: usize,
    stats: Arc<IoStats>,
    /// Upper bound the record-degree sanity checks validate against.
    /// Equal to `num_vertices` for a standalone file; a shard member of a
    /// larger graph stores only its own record count in the header while
    /// degrees range over the *global* vertex universe, so
    /// [`CompressedAdjFile::open_shard`] widens the cap to the manifest's
    /// `|V|`.
    degree_cap: u64,
}

impl CompressedAdjFile {
    /// Opens and validates `path`.
    pub fn open(path: &Path, stats: Arc<IoStats>) -> io::Result<Self> {
        Self::open_with_block_size(path, stats, DEFAULT_BLOCK_SIZE)
    }

    /// Opens with an explicit scan block size.
    pub fn open_with_block_size(
        path: &Path,
        stats: Arc<IoStats>,
        block_size: usize,
    ) -> io::Result<Self> {
        let file = File::open(path)?;
        let mut reader = BlockReader::with_block_size(file, Arc::clone(&stats), block_size);
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a compressed adjacency file",
            ));
        }
        let num_vertices = read_varint(&mut reader)?;
        let num_edges = read_varint(&mut reader)?;
        Ok(Self {
            path: path.to_path_buf(),
            num_vertices,
            num_edges,
            block_size,
            stats,
            degree_cap: num_vertices,
        })
    }

    /// Opens `path` as a shard member of a graph with `universe` vertices
    /// in total: record degrees are validated against the global vertex
    /// count instead of the shard's own (smaller) record count.
    pub fn open_shard(
        path: &Path,
        stats: Arc<IoStats>,
        block_size: usize,
        universe: u64,
    ) -> io::Result<Self> {
        let mut file = Self::open_with_block_size(path, stats, block_size)?;
        file.degree_cap = file.degree_cap.max(universe);
        Ok(file)
    }

    /// Builds a record index keyed by **record rank** (storage order)
    /// instead of vertex id, with one accounted scan. Shard members of a
    /// sharded store carry global vertex ids in records while the index
    /// spans only the shard's own records, so the vertex-keyed
    /// [`CompressedRecordIndex::build`] cannot index them; rank `r` of an
    /// id-ordered shard is its base vertex plus `r`.
    pub(crate) fn rank_index(&self) -> io::Result<CompressedRecordIndex> {
        let _span = mis_obs::span("graph", "index.build");
        self.stats.record_scan();
        let n = self.num_vertices as usize;
        let mut offsets = Vec::with_capacity(n);
        let mut lens = Vec::with_capacity(n);
        let mut chunk = self.validated_reader()?;
        for _ in 0..n {
            let start = chunk.position();
            let framed = frame_record(&mut chunk, self.degree_cap)?;
            chunk.consume(framed.total);
            offsets.push(start);
            lens.push((chunk.position() - start) as u32);
        }
        Ok(CompressedRecordIndex::from_parts(offsets, lens))
    }

    /// File size on disk in bytes.
    pub fn disk_bytes(&self) -> io::Result<u64> {
        Ok(std::fs::metadata(&self.path)?.len())
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The shared I/O counters scans report into.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Opens a fresh chunked reader positioned after the header, failing
    /// fast when the magic or the header `|V|`/`|E|` no longer match the
    /// metadata captured at [`CompressedAdjFile::open`] — a mismatch
    /// means the file was replaced or corrupted, and decoding gap runs
    /// against stale metadata would produce garbage records. The
    /// returned [`ChunkBuf`]'s position is the true file offset of the
    /// first record.
    fn validated_reader(&self) -> io::Result<ChunkBuf<CountingReader<BlockReader<File>>>> {
        let file = File::open(&self.path)?;
        let mut reader = CountingReader::new(BlockReader::with_block_size(
            file,
            Arc::clone(&self.stats),
            self.block_size,
        ));
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: compressed magic vanished", self.path.display()),
            ));
        }
        let num_vertices = read_varint(&mut reader)?;
        let num_edges = read_varint(&mut reader)?;
        if num_vertices != self.num_vertices || num_edges != self.num_edges {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: header changed since open (|V| {} -> {num_vertices}, \
                     |E| {} -> {num_edges})",
                    self.path.display(),
                    self.num_vertices,
                    self.num_edges
                ),
            ));
        }
        let consumed = reader.pos();
        Ok(ChunkBuf::with_consumed(reader, consumed, self.block_size))
    }
}

impl GraphScan for CompressedAdjFile {
    fn num_vertices(&self) -> usize {
        self.num_vertices as usize
    }

    fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Chunked sequential decode: each record is framed in the buffered
    /// window (`frame_record`) and its gap run decoded straight off the
    /// slice by the branch-reduced fast path — no per-byte `Read` calls.
    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        self.stats.record_scan();
        let mut chunk = self.validated_reader()?;
        let mut neighbors: Vec<VertexId> = Vec::new();
        for _ in 0..self.num_vertices {
            let framed = frame_record(&mut chunk, self.degree_cap)?;
            neighbors.clear();
            decode_ascending_gaps_slice(
                &chunk.available()[framed.hdr..framed.total],
                &mut neighbors,
                framed.degree,
            )
            .map_err(|e| e.into_io_error("adjacency record"))?;
            chunk.consume(framed.total);
            f(framed.vertex, &neighbors);
        }
        Ok(())
    }

    /// Native block hand-out: gap runs decode **straight into** each
    /// [`RecordBlock`]'s shared neighbour buffer through the chunked
    /// slice decoder, skipping the default implementation's per-record
    /// re-buffering copy.
    fn scan_blocks(&self, target_records: usize, f: &mut dyn FnMut(RecordBlock)) -> io::Result<()> {
        self.stats.record_scan();
        let mut chunk = self.validated_reader()?;
        let target = target_records.max(1);
        let nbr_cap = target.saturating_mul(16);
        let mut block = RecordBlock::with_seq(0);
        for _ in 0..self.num_vertices {
            let framed = frame_record(&mut chunk, self.degree_cap)?;
            block.push_with(framed.vertex, |dst| {
                decode_ascending_gaps_slice(
                    &chunk.available()[framed.hdr..framed.total],
                    dst,
                    framed.degree,
                )
                .map(|_| ())
                .map_err(|e| e.into_io_error("adjacency record"))
            })?;
            chunk.consume(framed.total);
            if block.len() >= target || block.edge_entries() >= nbr_cap {
                let seq = block.seq() + 1;
                f(std::mem::replace(&mut block, RecordBlock::with_seq(seq)));
            }
        }
        if !block.is_empty() {
            f(block);
        }
        Ok(())
    }

    fn storage(&self) -> &'static str {
        "adj-file-compressed"
    }
}

/// Writes `graph` (any scannable source) as a compressed adjacency file,
/// preserving the source's record order.
pub fn compress_adj<G: GraphScan + ?Sized>(
    graph: &G,
    path: &Path,
    stats: Arc<IoStats>,
    block_size: usize,
) -> io::Result<CompressedAdjFile> {
    let writer = CompressedAdjWriter::create(
        path,
        graph.num_vertices() as u64,
        graph.num_edges(),
        Arc::clone(&stats),
        block_size,
    )?;
    let writer = write_all_records(graph, writer)?;
    writer.finish()?;
    CompressedAdjFile::open_with_block_size(path, stats, block_size)
}

/// Like [`compress_adj`], but also returns the per-vertex record index
/// built during the write (for the paged access path).
pub fn compress_adj_indexed<G: GraphScan + ?Sized>(
    graph: &G,
    path: &Path,
    stats: Arc<IoStats>,
    block_size: usize,
) -> io::Result<(CompressedAdjFile, CompressedRecordIndex)> {
    let writer = CompressedAdjWriter::create_indexed(
        path,
        graph.num_vertices() as u64,
        graph.num_edges(),
        Arc::clone(&stats),
        block_size,
    )?;
    let writer = write_all_records(graph, writer)?;
    let index = writer.finish_indexed()?;
    let file = CompressedAdjFile::open_with_block_size(path, stats, block_size)?;
    Ok((file, index))
}

fn write_all_records<G: GraphScan + ?Sized>(
    graph: &G,
    mut writer: CompressedAdjWriter,
) -> io::Result<CompressedAdjWriter> {
    let mut error: Option<io::Error> = None;
    graph.scan(&mut |v, ns| {
        if error.is_none() {
            if let Err(e) = writer.write_record(v, ns) {
                error = Some(e);
            }
        }
    })?;
    match error {
        Some(e) => Err(e),
        None => Ok(writer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjfile::AdjFileWriter;
    use crate::csr::CsrGraph;
    use crate::AdjFile;
    use mis_extmem::ScratchDir;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 5)])
    }

    #[test]
    fn round_trips_the_graph() {
        let g = sample();
        let dir = ScratchDir::new("cadj").unwrap();
        let stats = IoStats::shared();
        let file = compress_adj(&g, &dir.file("g.cadj"), stats, 256).unwrap();
        assert_eq!(file.num_vertices(), 6);
        assert_eq!(file.num_edges(), 6);
        let mut records = Vec::new();
        file.scan(&mut |v, ns| records.push((v, ns.to_vec())))
            .unwrap();
        assert_eq!(records.len(), 6);
        // Neighbour lists id-sorted.
        assert_eq!(records[0], (0, vec![1, 2, 5]));
        assert_eq!(records[5], (5, vec![0]));
    }

    #[test]
    fn compresses_power_law_graphs() {
        let g = mis_gen_free_plrg(4000);
        let dir = ScratchDir::new("cadj-size").unwrap();
        let stats = IoStats::shared();
        let raw = crate::builder::build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 4096)
            .unwrap();
        let compressed = compress_adj(&g, &dir.file("g.cadj"), stats, 4096).unwrap();
        let raw_bytes = raw.disk_bytes().unwrap();
        let comp_bytes = compressed.disk_bytes().unwrap();
        assert!(
            comp_bytes * 2 < raw_bytes,
            "expected ≥2x compression, got {raw_bytes} -> {comp_bytes}"
        );
    }

    /// Deterministic power-law-ish graph without depending on mis-gen
    /// (which would create a dependency cycle).
    fn mis_gen_free_plrg(n: u32) -> CsrGraph {
        let mut edges = Vec::new();
        let mut s = 7u64;
        for v in 1..n {
            // Preferential-attachment flavoured: connect to a random
            // earlier vertex biased toward small ids.
            for _ in 0..2 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let t = ((s >> 33) % u64::from(v)) as u32;
                let t = t / 2; // bias to low ids = heavy tail
                edges.push((t, v));
            }
        }
        CsrGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn algorithms_agree_with_uncompressed() {
        let g = mis_gen_free_plrg(2000);
        let dir = ScratchDir::new("cadj-agree").unwrap();
        let stats = IoStats::shared();
        let compressed = compress_adj(&g, &dir.file("g.cadj"), Arc::clone(&stats), 1024).unwrap();
        // Baseline greedy depends only on record order (same) and the set
        // of neighbours (same), so the outcomes must be identical.
        let mut in_mem = Vec::new();
        let mut on_disk = Vec::new();
        // Emulate greedy over both scans.
        for (scan, out) in [
            (&g as &dyn GraphScan, &mut in_mem),
            (&compressed as &dyn GraphScan, &mut on_disk),
        ] {
            let mut state = vec![0u8; scan.num_vertices()];
            scan.scan(&mut |v, ns| {
                if state[v as usize] == 0 {
                    state[v as usize] = 1;
                    for &u in ns {
                        if state[u as usize] == 0 {
                            state[u as usize] = 2;
                        }
                    }
                }
            })
            .unwrap();
            out.extend((0..scan.num_vertices()).filter(|&v| state[v] == 1));
        }
        assert_eq!(in_mem, on_disk);
    }

    #[test]
    fn rejects_wrong_magic() {
        let dir = ScratchDir::new("cadj-bad").unwrap();
        let path = dir.file("bad.cadj");
        std::fs::write(&path, b"MISADJ01________").unwrap();
        assert!(CompressedAdjFile::open(&path, IoStats::shared()).is_err());
    }

    #[test]
    fn incomplete_writer_errors() {
        let dir = ScratchDir::new("cadj-inc").unwrap();
        let w =
            CompressedAdjWriter::create(&dir.file("i.cadj"), 3, 0, IoStats::shared(), 256).unwrap();
        assert!(w.finish().is_err());
    }

    #[test]
    fn scan_counts_io() {
        let g = sample();
        let dir = ScratchDir::new("cadj-io").unwrap();
        let stats = IoStats::shared();
        let file = compress_adj(&g, &dir.file("g.cadj"), Arc::clone(&stats), 256).unwrap();
        let before = stats.snapshot();
        file.scan(&mut |_, _| {}).unwrap();
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.scans_started, 1);
        assert!(delta.blocks_read >= 1);
    }

    /// Regression for the `MISADJC1` `|E|` lie: a multigraph source whose
    /// duplicate edges are deduplicated by the writer must not leave the
    /// header overstating the edge count.
    #[test]
    fn duplicate_edges_patch_the_edge_header() {
        let dir = ScratchDir::new("cadj-dup").unwrap();
        let stats = IoStats::shared();
        // A plain adjacency file *can* hold duplicate entries; claim 3
        // edges where only 2 are distinct.
        let adj_path = dir.file("dup.adj");
        let mut w = AdjFileWriter::create(&adj_path, 3, 3, Arc::clone(&stats), 256).unwrap();
        w.write_record(0, &[1, 1, 2]).unwrap();
        w.write_record(1, &[0, 0]).unwrap();
        w.write_record(2, &[0]).unwrap();
        w.finish().unwrap();
        let adj = AdjFile::open(&adj_path, Arc::clone(&stats)).unwrap();
        assert_eq!(adj.num_edges(), 3, "the plain header repeats the claim");

        let compressed = compress_adj(&adj, &dir.file("dup.cadj"), stats, 256).unwrap();
        assert_eq!(
            compressed.num_edges(),
            2,
            "dedup shrank the file; the |E| header must say so"
        );
        let mut total = 0u64;
        compressed
            .scan(&mut |_, ns| total += ns.len() as u64)
            .unwrap();
        assert_eq!(total, 2 * compressed.num_edges());
    }

    #[test]
    fn asymmetric_source_is_rejected() {
        let dir = ScratchDir::new("cadj-asym").unwrap();
        let mut w =
            CompressedAdjWriter::create(&dir.file("a.cadj"), 2, 1, IoStats::shared(), 256).unwrap();
        w.write_record(0, &[1]).unwrap();
        w.write_record(1, &[]).unwrap(); // edge (0,1) missing its mirror
        let err = w.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("asymmetric"), "{err}");
    }

    #[test]
    fn scan_validates_header_against_open_metadata() {
        let g = sample();
        let dir = ScratchDir::new("cadj-swap").unwrap();
        let stats = IoStats::shared();
        let path = dir.file("g.cadj");
        let file = compress_adj(&g, &path, Arc::clone(&stats), 256).unwrap();
        // Replace the file behind the handle's back with a smaller graph.
        let tiny = CsrGraph::from_edges(2, &[(0, 1)]);
        compress_adj(&tiny, &path, Arc::clone(&stats), 256).unwrap();
        let err = file.scan(&mut |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("header changed"), "{err}");
        let err = file.scan_blocks(4, &mut |_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn native_scan_blocks_replays_scan_exactly() {
        let g = mis_gen_free_plrg(500);
        let dir = ScratchDir::new("cadj-blocks").unwrap();
        let stats = IoStats::shared();
        let file = compress_adj(&g, &dir.file("g.cadj"), Arc::clone(&stats), 512).unwrap();
        let mut direct = Vec::new();
        let before = stats.snapshot();
        file.scan(&mut |v, ns| direct.push((v, ns.to_vec())))
            .unwrap();
        let scan_delta = stats.snapshot().since(&before);
        for target in [1, 7, 100_000] {
            let mut replayed = Vec::new();
            let mut seqs = Vec::new();
            let before = stats.snapshot();
            file.scan_blocks(target, &mut |block| {
                seqs.push(block.seq());
                assert!(!block.is_empty());
                for (v, ns) in block.iter() {
                    replayed.push((v, ns.to_vec()));
                }
            })
            .unwrap();
            assert_eq!(replayed, direct, "target {target}");
            let expect: Vec<u64> = (0..seqs.len() as u64).collect();
            assert_eq!(seqs, expect, "target {target}: seq numbers in order");
            // The parallel engine's hand-out must cost exactly what the
            // sequential scan costs: one scan, the same blocks.
            let delta = stats.snapshot().since(&before);
            assert_eq!(delta.scans_started, 1, "target {target}");
            assert_eq!(delta.blocks_read, scan_delta.blocks_read, "target {target}");
        }
    }

    #[test]
    fn writer_index_agrees_with_scan_built_index() {
        let g = mis_gen_free_plrg(300);
        let dir = ScratchDir::new("cadj-idx").unwrap();
        let stats = IoStats::shared();
        let (file, from_writer) =
            compress_adj_indexed(&g, &dir.file("g.cadj"), stats, 512).unwrap();
        let from_scan = CompressedRecordIndex::build(&file).unwrap();
        assert_eq!(from_writer.len(), from_scan.len());
        assert!(!from_writer.is_empty());
        for v in 0..file.num_vertices() as VertexId {
            assert_eq!(from_writer.offset(v), from_scan.offset(v), "v={v}");
            assert_eq!(from_writer.record_len(v), from_scan.record_len(v), "v={v}");
        }
        assert_eq!(from_writer.index_bytes(), 12 * 300);
    }

    #[test]
    fn unindexed_writer_cannot_finish_indexed() {
        let dir = ScratchDir::new("cadj-unidx").unwrap();
        let mut w =
            CompressedAdjWriter::create(&dir.file("g.cadj"), 1, 0, IoStats::shared(), 256).unwrap();
        w.write_record(0, &[]).unwrap();
        assert_eq!(
            w.finish_indexed().unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn duplicate_record_leaves_a_hole_finish_indexed_rejects() {
        let dir = ScratchDir::new("cadj-hole").unwrap();
        let mut w =
            CompressedAdjWriter::create_indexed(&dir.file("h.cadj"), 2, 0, IoStats::shared(), 256)
                .unwrap();
        w.write_record(0, &[]).unwrap();
        w.write_record(0, &[]).unwrap(); // count right, vertex 1 missing
        let err = w.finish_indexed().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("vertex 1"));
    }
}
