//! The on-disk adjacency-list file of the semi-external model.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "MISADJ01"          8 bytes
//! |V|     u64
//! |E|     u64                 undirected edge count
//! record* |V| times:
//!     vertex   u32
//!     degree   u32
//!     nbr[deg] u32 * degree
//! ```
//!
//! Records appear in whatever order the writer emitted them; the
//! Algorithm 1 preprocessing ([`crate::builder::degree_sort_adj_file`])
//! rewrites a file into ascending-degree record order. Scans go through a
//! [`mis_extmem::BlockReader`], so every pass is accounted in the shared
//! [`IoStats`] at block granularity — this is what the paper's
//! `scan(|V|+|E|)` I/O costs are measured against.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mis_extmem::{codec, BlockReader, BlockWriter, ChunkBuf, IoStats, DEFAULT_BLOCK_SIZE};

use crate::raccess::RecordIndex;
use crate::scan::{
    DecodedPiece, DecodedUnit, GraphScan, RawScan, RawScanLimits, RawUnit, RawUnitKind, RecordBlock,
};
use crate::VertexId;

const MAGIC: &[u8; 8] = b"MISADJ01";

/// Size of the fixed file header in bytes.
pub const HEADER_BYTES: usize = 8 + 8 + 8;

/// Streaming writer for adjacency files.
///
/// [`AdjFileWriter::create_indexed`] additionally tracks each record's
/// byte offset as it goes, so the random-access [`RecordIndex`] comes for
/// free at [`AdjFileWriter::finish_indexed`] instead of costing a rebuild
/// scan. The plain [`AdjFileWriter::create`] skips the `8|V|`-byte
/// offsets array — writers that never want an index stay at the old
/// memory footprint.
#[derive(Debug)]
pub struct AdjFileWriter {
    writer: BlockWriter<File>,
    path: PathBuf,
    expected_vertices: u64,
    expected_edges: u64,
    written: u64,
    /// Directed neighbour entries written so far.
    entries: u64,
    scratch: Vec<u8>,
    /// `Some` only for indexed writers: offsets[v] = byte offset of v's
    /// record (u64::MAX until written).
    offsets: Option<Vec<u64>>,
    cursor: u64,
}

impl AdjFileWriter {
    /// Creates `path` and writes the header for a graph with
    /// `num_vertices` vertices and `num_edges` undirected edges.
    pub fn create(
        path: &Path,
        num_vertices: u64,
        num_edges: u64,
        stats: Arc<IoStats>,
        block_size: usize,
    ) -> io::Result<Self> {
        Self::create_inner(path, num_vertices, num_edges, stats, block_size, false)
    }

    /// Like [`AdjFileWriter::create`], but also tracks per-vertex record
    /// offsets (`8|V|` extra bytes) for [`AdjFileWriter::finish_indexed`].
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
        codec::write_u64(&mut writer, num_vertices)?;
        codec::write_u64(&mut writer, num_edges)?;
        Ok(Self {
            writer,
            path: path.to_path_buf(),
            expected_vertices: num_vertices,
            expected_edges: num_edges,
            written: 0,
            entries: 0,
            scratch: Vec::new(),
            offsets: indexed.then(|| vec![u64::MAX; num_vertices as usize]),
            cursor: HEADER_BYTES as u64,
        })
    }

    /// Appends one adjacency record.
    pub fn write_record(&mut self, vertex: VertexId, neighbors: &[VertexId]) -> io::Result<()> {
        if let Some(slot) = self
            .offsets
            .as_mut()
            .and_then(|o| o.get_mut(vertex as usize))
        {
            *slot = self.cursor;
        }
        codec::write_u32(&mut self.writer, vertex)?;
        codec::write_u32(&mut self.writer, neighbors.len() as u32)?;
        codec::write_u32_slice(&mut self.writer, neighbors, &mut self.scratch)?;
        self.written += 1;
        self.entries += neighbors.len() as u64;
        self.cursor += 8 + 4 * neighbors.len() as u64;
        Ok(())
    }

    fn check_complete(&self) -> io::Result<()> {
        if self.written != self.expected_vertices {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "adjacency file incomplete: wrote {} of {} records",
                    self.written, self.expected_vertices
                ),
            ));
        }
        Ok(())
    }

    /// Flushes, validates that exactly `|V|` records were written, and
    /// reconciles the `|E|` header with the directed entries actually
    /// written — a caller whose announced edge count drifted from the
    /// records it emitted (e.g. an update overlay replaying an invalid
    /// edit stream) gets the header patched in place rather than left
    /// lying. Returns the true undirected edge count.
    ///
    /// Fails when the directed entry total is odd (an asymmetric source:
    /// some edge was recorded on one endpoint only), since no undirected
    /// edge count could describe such a file.
    pub fn finish(self) -> io::Result<u64> {
        self.check_complete()?;
        self.finish_common()
    }

    /// Like [`AdjFileWriter::finish`], but also returns the per-vertex
    /// record offsets accumulated during the write. Requires
    /// [`AdjFileWriter::create_indexed`].
    ///
    /// Fails if any vertex in `0..|V|` never received a record (possible
    /// even with a correct record *count*, via duplicate or out-of-range
    /// vertex ids) — such an index would misdirect every random access.
    pub fn finish_indexed(mut self) -> io::Result<RecordIndex> {
        self.check_complete()?;
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
        self.finish_common()?;
        Ok(RecordIndex::from_offsets(offsets))
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
            use std::io::{Seek, SeekFrom};
            let mut f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
            f.seek(SeekFrom::Start(16))? /* magic (8) + |V| (8) */;
            f.write_all(&entries.to_le_bytes())?;
        }
        Ok(entries)
    }

    fn finish_common(self) -> io::Result<u64> {
        if !self.entries.is_multiple_of(2) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "asymmetric adjacency records: {} directed entries cannot form \
                     undirected edges",
                    self.entries
                ),
            ));
        }
        let true_edges = self.entries / 2;
        self.writer.finish()?;
        if true_edges != self.expected_edges {
            use std::io::{Seek, SeekFrom};
            let mut f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
            f.seek(SeekFrom::Start(16))? /* magic (8) + |V| (8) */;
            f.write_all(&true_edges.to_le_bytes())?;
        }
        Ok(true_edges)
    }
}

/// A readable adjacency file. Opening validates the header; every
/// [`GraphScan::scan`] re-reads the file front to back through a fresh
/// block reader and bumps the scan counter.
#[derive(Debug, Clone)]
pub struct AdjFile {
    path: PathBuf,
    num_vertices: u64,
    num_edges: u64,
    block_size: usize,
    stats: Arc<IoStats>,
    /// Upper bound the record-degree sanity checks validate against.
    /// Equal to `num_vertices` for a standalone file; a shard member of a
    /// larger graph stores only its own record count in the header while
    /// degrees range over the *global* vertex universe, so
    /// [`AdjFile::open_shard`] widens the cap to the manifest's `|V|`.
    degree_cap: u64,
}

impl AdjFile {
    /// Opens `path`, validating magic and header.
    pub fn open(path: &Path, stats: Arc<IoStats>) -> io::Result<Self> {
        Self::open_with_block_size(path, stats, DEFAULT_BLOCK_SIZE)
    }

    /// Opens `path` with an explicit scan block size.
    pub fn open_with_block_size(
        path: &Path,
        stats: Arc<IoStats>,
        block_size: usize,
    ) -> io::Result<Self> {
        let file = File::open(path)?;
        let file_bytes = file.metadata()?.len();
        let mut reader = BlockReader::with_block_size(file, Arc::clone(&stats), block_size);
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an adjacency file",
            ));
        }
        let num_vertices = codec::read_u64(&mut reader)?;
        let num_edges = codec::read_u64(&mut reader)?;
        // Every record takes at least its 8-byte header, so a larger |V|
        // is a corrupt header; callers size per-vertex arrays by it.
        if num_vertices > file_bytes.saturating_sub(HEADER_BYTES as u64) / RECORD_HDR as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "corrupt adjacency header: {num_vertices} records cannot fit in \
                     {file_bytes} bytes"
                ),
            ));
        }
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

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The shared I/O counters scans report into.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// File size on disk in bytes.
    pub fn disk_bytes(&self) -> io::Result<u64> {
        Ok(std::fs::metadata(&self.path)?.len())
    }

    /// A chunked reader positioned at the first record: the one framing
    /// source of both [`GraphScan::scan`] and [`RawScan::scan_raw`].
    fn records(&self) -> io::Result<ChunkBuf<BlockReader<File>>> {
        let file = File::open(&self.path)?;
        let reader = BlockReader::with_block_size(file, Arc::clone(&self.stats), self.block_size);
        let mut chunk = ChunkBuf::new(reader, self.block_size);
        if !chunk.fill_at_least(HEADER_BYTES)? {
            return Err(truncated("adjacency file header"));
        }
        chunk.consume(HEADER_BYTES);
        Ok(chunk)
    }
}

impl GraphScan for AdjFile {
    fn num_vertices(&self) -> usize {
        self.num_vertices as usize
    }

    fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Chunked sequential decode: each record is framed in the buffered
    /// window by the same header parser as [`RawScan::scan_raw`], and its
    /// neighbour ids are decoded straight off the slice.
    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        self.stats.record_scan();
        let mut chunk = self.records()?;
        let mut neighbors: Vec<VertexId> = Vec::new();
        for _ in 0..self.num_vertices {
            let (vertex, degree) = next_header(&mut chunk, self.degree_cap)?;
            let total = RECORD_HDR + 4 * degree;
            if !chunk.fill_at_least(total)? {
                return Err(truncated("adjacency record"));
            }
            neighbors.clear();
            decode_ids(&chunk.available()[RECORD_HDR..total], &mut neighbors);
            chunk.consume(total);
            f(vertex, &neighbors);
        }
        Ok(())
    }

    fn storage(&self) -> &'static str {
        "adj-file"
    }

    fn raw_scan(&self) -> Option<&dyn RawScan> {
        Some(self)
    }
}

/// Record header size: `u32` vertex + `u32` degree.
const RECORD_HDR: usize = 8;

/// Parses the fixed-width record header at the front of `buf`.
fn parse_plain_header(buf: &[u8], num_vertices: u64) -> io::Result<(VertexId, usize)> {
    let vertex = u32::from_le_bytes(buf[0..4].try_into().expect("4-byte field"));
    let degree = u32::from_le_bytes(buf[4..8].try_into().expect("4-byte field"));
    if u64::from(degree) > num_vertices {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "corrupt adjacency record: degree exceeds vertex count",
        ));
    }
    Ok((vertex, degree as usize))
}

/// Buffers and parses the next record header at the front of `chunk`;
/// nothing is consumed.
fn next_header<R: Read>(chunk: &mut ChunkBuf<R>, degree_cap: u64) -> io::Result<(VertexId, usize)> {
    if !chunk.fill_at_least(RECORD_HDR)? {
        return Err(truncated("adjacency record"));
    }
    parse_plain_header(chunk.available(), degree_cap)
}

/// Appends the little-endian `u32` ids in `bytes` to `dst`.
fn decode_ids(bytes: &[u8], dst: &mut Vec<VertexId>) {
    dst.extend(
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
}

fn truncated(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("truncated {what}: input ends mid-record"),
    )
}

impl RawScan for AdjFile {
    /// Fixed-width framing: a record is `8 + 4·degree` bytes, so the
    /// reader thread only inspects headers and copies byte ranges —
    /// neighbour ids are materialised by whichever worker decodes the
    /// unit. Records larger than `limits.unit_bytes` are split into
    /// pieces on 4-byte value boundaries.
    fn scan_raw(
        &self,
        limits: RawScanLimits,
        f: &mut dyn FnMut(RawUnit) -> bool,
    ) -> io::Result<()> {
        self.stats.record_scan();
        let mut chunk = self.records()?;
        let target = limits.target_records.max(1);
        let budget = limits.unit_bytes.max(RECORD_HDR + 4);
        let mut seq = 0u64;
        let mut unit: Vec<u8> = Vec::new();
        let mut records = 0usize;
        for _ in 0..self.num_vertices {
            let (vertex, degree) = next_header(&mut chunk, self.degree_cap)?;
            let total = RECORD_HDR + 4 * degree;
            if total <= budget {
                if records > 0 && (records >= target || unit.len() + total > budget) {
                    let u = RawUnit::new(
                        seq,
                        RawUnitKind::Records { records },
                        std::mem::take(&mut unit),
                    );
                    seq += 1;
                    records = 0;
                    if !f(u) {
                        return Ok(());
                    }
                }
                if !chunk.fill_at_least(total)? {
                    return Err(truncated("adjacency record"));
                }
                unit.extend_from_slice(&chunk.available()[..total]);
                records += 1;
                chunk.consume(total);
                continue;
            }
            // Oversized record: flush pending whole records, then split.
            // Unlike the compressed format the pieces are fixed-width, so
            // they stream without buffering the whole record.
            if records > 0 {
                let u = RawUnit::new(
                    seq,
                    RawUnitKind::Records { records },
                    std::mem::take(&mut unit),
                );
                seq += 1;
                records = 0;
                if !f(u) {
                    return Ok(());
                }
            }
            let head_count = ((budget - RECORD_HDR) / 4).max(1).min(degree);
            let head_bytes = RECORD_HDR + 4 * head_count;
            if !chunk.fill_at_least(head_bytes)? {
                return Err(truncated("adjacency record"));
            }
            let u = RawUnit::new(
                seq,
                RawUnitKind::Piece {
                    vertex,
                    count: head_count,
                    first: true,
                    last: head_count == degree,
                },
                chunk.available()[..head_bytes].to_vec(),
            );
            seq += 1;
            chunk.consume(head_bytes);
            if !f(u) {
                return Ok(());
            }
            let mut remaining = degree - head_count;
            while remaining > 0 {
                let count = (budget / 4).max(1).min(remaining);
                let bytes = 4 * count;
                if !chunk.fill_at_least(bytes)? {
                    return Err(truncated("adjacency record"));
                }
                let u = RawUnit::new(
                    seq,
                    RawUnitKind::Piece {
                        vertex,
                        count,
                        first: false,
                        last: count == remaining,
                    },
                    chunk.available()[..bytes].to_vec(),
                );
                seq += 1;
                chunk.consume(bytes);
                remaining -= count;
                if !f(u) {
                    return Ok(());
                }
            }
        }
        if records > 0 {
            f(RawUnit::new(seq, RawUnitKind::Records { records }, unit));
        }
        Ok(())
    }

    fn decode_unit(&self, unit: RawUnit) -> io::Result<DecodedUnit> {
        match unit.kind() {
            RawUnitKind::Records { records } => {
                let buf = unit.bytes();
                let mut block = RecordBlock::with_seq(unit.seq());
                let mut pos = 0usize;
                for _ in 0..records {
                    if buf.len() - pos < RECORD_HDR {
                        return Err(truncated("raw unit"));
                    }
                    let (vertex, degree) = parse_plain_header(&buf[pos..], self.degree_cap)?;
                    pos += RECORD_HDR;
                    if buf.len() - pos < 4 * degree {
                        return Err(truncated("raw unit"));
                    }
                    block.push_with(vertex, |dst| {
                        decode_ids(&buf[pos..pos + 4 * degree], dst);
                        Ok(())
                    })?;
                    pos += 4 * degree;
                }
                if pos != buf.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "raw unit framing mismatch: trailing bytes after last record",
                    ));
                }
                Ok(DecodedUnit::Block(block))
            }
            RawUnitKind::Piece {
                vertex,
                count,
                first,
                last,
            } => {
                let buf = unit.bytes();
                let mut values: Vec<VertexId> = Vec::new();
                let degree = if first {
                    if buf.len() < RECORD_HDR {
                        return Err(truncated("raw piece"));
                    }
                    let (v, degree) = parse_plain_header(buf, self.degree_cap)?;
                    if v != vertex {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "raw piece framing mismatch: vertex header disagrees",
                        ));
                    }
                    if buf.len() != RECORD_HDR + 4 * count {
                        return Err(truncated("raw piece"));
                    }
                    decode_ids(&buf[RECORD_HDR..], &mut values);
                    degree
                } else {
                    if buf.len() != 4 * count {
                        return Err(truncated("raw piece"));
                    }
                    decode_ids(buf, &mut values);
                    0
                };
                Ok(DecodedUnit::Piece(DecodedPiece {
                    vertex,
                    degree,
                    values,
                    relative: false,
                    first,
                    last,
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_extmem::ScratchDir;

    fn write_sample(dir: &ScratchDir, stats: &Arc<IoStats>) -> PathBuf {
        let path = dir.file("g.adj");
        let mut w = AdjFileWriter::create(&path, 3, 2, Arc::clone(stats), 256).unwrap();
        w.write_record(1, &[0, 2]).unwrap(); // degree-2 vertex first on purpose
        w.write_record(0, &[1]).unwrap();
        w.write_record(2, &[1]).unwrap();
        w.finish().unwrap();
        path
    }

    #[test]
    fn round_trip_preserves_order_and_lists() {
        let dir = ScratchDir::new("adj").unwrap();
        let stats = IoStats::shared();
        let path = write_sample(&dir, &stats);

        let file = AdjFile::open(&path, Arc::clone(&stats)).unwrap();
        assert_eq!(file.num_vertices(), 3);
        assert_eq!(file.num_edges(), 2);
        let mut records = Vec::new();
        file.scan(&mut |v, ns| records.push((v, ns.to_vec())))
            .unwrap();
        assert_eq!(records, vec![(1, vec![0, 2]), (0, vec![1]), (2, vec![1])]);
    }

    #[test]
    fn scans_are_counted() {
        let dir = ScratchDir::new("adj-io").unwrap();
        let stats = IoStats::shared();
        let path = write_sample(&dir, &stats);
        let file = AdjFile::open(&path, Arc::clone(&stats)).unwrap();
        let before = stats.snapshot();
        file.scan(&mut |_, _| {}).unwrap();
        file.scan(&mut |_, _| {}).unwrap();
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.scans_started, 2);
        assert!(delta.blocks_read >= 2);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = ScratchDir::new("adj-bad").unwrap();
        let path = dir.file("bad.adj");
        std::fs::write(&path, b"NOTANADJFILE____________").unwrap();
        let err = AdjFile::open(&path, IoStats::shared()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn drifted_edge_header_is_patched_on_finish() {
        let dir = ScratchDir::new("adj-drift").unwrap();
        let stats = IoStats::shared();
        let path = dir.file("d.adj");
        // Announce 9 edges, write 1: the header must not be left lying.
        let mut w = AdjFileWriter::create(&path, 2, 9, Arc::clone(&stats), 256).unwrap();
        w.write_record(0, &[1]).unwrap();
        w.write_record(1, &[0]).unwrap();
        assert_eq!(w.finish().unwrap(), 1);
        let file = AdjFile::open(&path, stats).unwrap();
        assert_eq!(file.num_edges(), 1);
    }

    #[test]
    fn asymmetric_records_are_rejected_on_finish() {
        let dir = ScratchDir::new("adj-asym").unwrap();
        let mut w =
            AdjFileWriter::create(&dir.file("a.adj"), 2, 1, IoStats::shared(), 256).unwrap();
        w.write_record(0, &[1]).unwrap();
        w.write_record(1, &[]).unwrap(); // edge (0,1) missing its mirror
        let err = w.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("asymmetric"), "{err}");
    }

    #[test]
    fn incomplete_writer_errors_on_finish() {
        let dir = ScratchDir::new("adj-inc").unwrap();
        let path = dir.file("inc.adj");
        let mut w = AdjFileWriter::create(&path, 2, 1, IoStats::shared(), 256).unwrap();
        w.write_record(0, &[1]).unwrap();
        assert!(w.finish().is_err());
    }

    #[test]
    fn empty_graph_file() {
        let dir = ScratchDir::new("adj-empty").unwrap();
        let stats = IoStats::shared();
        let path = dir.file("e.adj");
        let w = AdjFileWriter::create(&path, 0, 0, Arc::clone(&stats), 256).unwrap();
        w.finish().unwrap();
        let file = AdjFile::open(&path, stats).unwrap();
        assert_eq!(file.num_vertices(), 0);
        let mut count = 0;
        file.scan(&mut |_, _| count += 1).unwrap();
        assert_eq!(count, 0);
    }

    #[test]
    fn raw_scan_replays_scan_with_piece_splitting() {
        use crate::scan::assert_raw_replays_scan;
        let dir = ScratchDir::new("adj-raw").unwrap();
        let stats = IoStats::shared();
        let path = dir.file("g.adj");
        // A skewed graph: one hub with a fat record plus many leaves, so
        // small unit budgets force piece splitting.
        let n = 300u32;
        let mut w = AdjFileWriter::create(&path, u64::from(n), 0, Arc::clone(&stats), 256).unwrap();
        let leaves: Vec<VertexId> = (1..n).collect();
        w.write_record(0, &leaves).unwrap();
        for v in 1..n {
            w.write_record(v, &[0]).unwrap();
        }
        w.finish().unwrap();
        let file = AdjFile::open(&path, stats).unwrap();
        assert_raw_replays_scan(&file);
    }

    #[test]
    fn raw_scan_counts_one_scan_and_same_blocks_as_scan() {
        use crate::scan::RawScanLimits;
        let dir = ScratchDir::new("adj-raw-io").unwrap();
        let stats = IoStats::shared();
        let path = write_sample(&dir, &stats);
        let file = AdjFile::open(&path, Arc::clone(&stats)).unwrap();
        let before = stats.snapshot();
        file.scan(&mut |_, _| {}).unwrap();
        let scan_delta = stats.snapshot().since(&before);
        let before = stats.snapshot();
        file.raw_scan()
            .unwrap()
            .scan_raw(
                RawScanLimits {
                    target_records: 64,
                    unit_bytes: 4096,
                },
                &mut |_| true,
            )
            .unwrap();
        let raw_delta = stats.snapshot().since(&before);
        assert_eq!(raw_delta.scans_started, 1);
        assert_eq!(
            raw_delta.blocks_read, scan_delta.blocks_read,
            "raw framing must move the same blocks as a decoded scan"
        );
    }

    #[test]
    fn disk_bytes_matches_formula() {
        let dir = ScratchDir::new("adj-size").unwrap();
        let stats = IoStats::shared();
        let path = write_sample(&dir, &stats);
        let file = AdjFile::open(&path, stats).unwrap();
        // header + 3 record headers (8 bytes each) + 4 neighbour ids.
        assert_eq!(
            file.disk_bytes().unwrap(),
            HEADER_BYTES as u64 + 3 * 8 + 4 * 4
        );
    }
}
