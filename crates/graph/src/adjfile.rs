//! The on-disk adjacency-list file of the semi-external model, in either
//! record codec.
//!
//! A file is a header followed by `|V|` adjacency records, one per
//! vertex, in whatever order the writer emitted them; the Algorithm 1
//! preprocessing ([`crate::builder::degree_sort_adj_file`]) rewrites a
//! file into ascending-degree record order. Two codecs share this one
//! implementation and differ only in how a header and a record are
//! encoded ([`RecordCodec`]):
//!
//! * [`PlainCodec`] (`MISADJ01`, [`AdjFile`]) — fixed-width records, all
//!   integers little-endian:
//!
//!   ```text
//!   magic   "MISADJ01"          8 bytes
//!   |V|     u64
//!   |E|     u64                 undirected edge count
//!   record* |V| times:
//!       vertex   u32
//!       degree   u32
//!       nbr[deg] u32 * degree
//!   ```
//!
//! * [`crate::compressed::GapCodec`] (`MISADJC1`,
//!   [`crate::CompressedAdjFile`]) — varint records with gap-coded
//!   neighbour lists; see [`crate::compressed`].
//!
//! Everything else exists once, generic over the codec: the writer
//! ([`RecordWriter`]), `open` and the header check every scan repeats
//! ([`RecordFile`]), and one record loop that [`GraphScan::scan`], the
//! record index build ([`crate::RecordIndex`]) and the degree sort all
//! run. A scan reads through one [`mis_extmem::BlockReader`], and the
//! codec parses the header and frames every record straight off its
//! buffer, so every pass is accounted in the shared [`IoStats`] at block
//! granularity — this is what the paper's `scan(|V|+|E|)` I/O costs are
//! measured against. When a paged handle has requested the file's record
//! index, the next complete full scan of the file, whatever pass runs it,
//! also records each record's offset and publishes the index after its
//! last record, so the index costs no scan of its own.

use std::fmt::Debug;
use std::fs::File;
use std::io::{self, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use mis_extmem::varint::SliceError;
use mis_extmem::{BlockReader, BlockWriter, IoStats, DEFAULT_BLOCK_SIZE};

use crate::raccess::RecordIndex;
use crate::scan::GraphScan;
use crate::VertexId;

/// Size of the fixed plain-file (`MISADJ01`) header in bytes.
pub const HEADER_BYTES: usize = 8 + 8 + 8;

/// One record framed, not decoded, at the front of a byte slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// The record's vertex.
    pub vertex: VertexId,
    /// Its neighbour count.
    pub degree: usize,
    /// Bytes of the vertex and degree fields; the encoded neighbour list
    /// follows them.
    pub header: usize,
    /// Bytes of the whole record.
    pub len: usize,
}

/// How one on-disk format encodes its header and records — the only
/// format-specific code there is. Codecs are zero-sized types and every
/// use is generic, so the record loops dispatch statically.
pub trait RecordCodec: Debug + Clone + Copy + Default + Send + Sync + 'static {
    /// The 8 magic bytes a file of this codec starts with.
    const MAGIC: &'static [u8; 8];
    /// The smallest encoded record: a file of `b` record bytes cannot
    /// hold more than `b / MIN_RECORD_BYTES` records.
    const MIN_RECORD_BYTES: u64;
    /// [`GraphScan::storage`] label of a file.
    const STORAGE: &'static str;
    /// [`crate::NeighborAccess::access_storage`] label of its paged path.
    const PAGED_STORAGE: &'static str;

    /// Appends the header fields that follow the magic. `|E|` is encoded
    /// at a fixed width, so a writer can patch a drifted edge count by
    /// re-encoding the header in place.
    fn encode_header(num_vertices: u64, num_edges: u64, out: &mut Vec<u8>) -> io::Result<()>;

    /// Parses `(|V|, |E|, bytes used)` from the front of the bytes after
    /// the magic; `NeedMore` until `fields` holds the whole header.
    fn parse_header(fields: &[u8]) -> Result<(u64, u64, usize), SliceError>;

    /// Appends one record and returns the neighbour entries it holds
    /// (a codec may normalise the list, e.g. sort and deduplicate it).
    fn encode_record(
        vertex: VertexId,
        neighbors: &[VertexId],
        scratch: &mut Vec<VertexId>,
        out: &mut Vec<u8>,
    ) -> io::Result<usize>;

    /// Frames the record at the front of `bytes` without decoding its
    /// neighbours: `NeedMore` until the whole record is there. A degree
    /// above `degree_cap` is corruption, rejected before anything is
    /// sized by it.
    fn frame(bytes: &[u8], degree_cap: u64) -> Result<Frame, SliceError>;

    /// Appends the `degree` neighbours encoded in `body` (a framed
    /// record's bytes after its header) to `dst`.
    fn decode(body: &[u8], degree: usize, dst: &mut Vec<VertexId>) -> Result<(), SliceError>;
}

/// The fixed-width `MISADJ01` codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlainCodec;

/// Record header size: `u32` vertex + `u32` degree.
const RECORD_HDR: usize = 8;

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

impl RecordCodec for PlainCodec {
    const MAGIC: &'static [u8; 8] = b"MISADJ01";
    const MIN_RECORD_BYTES: u64 = RECORD_HDR as u64;
    const STORAGE: &'static str = "adj-file";
    const PAGED_STORAGE: &'static str = "adj-file+pager";

    fn encode_header(num_vertices: u64, num_edges: u64, out: &mut Vec<u8>) -> io::Result<()> {
        out.extend_from_slice(&num_vertices.to_le_bytes());
        out.extend_from_slice(&num_edges.to_le_bytes());
        Ok(())
    }

    fn parse_header(fields: &[u8]) -> Result<(u64, u64, usize), SliceError> {
        let f = fields.get(..16).ok_or(SliceError::NeedMore)?;
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte field"));
        Ok((word(&f[..8]), word(&f[8..]), 16))
    }

    fn encode_record(
        vertex: VertexId,
        neighbors: &[VertexId],
        _scratch: &mut Vec<VertexId>,
        out: &mut Vec<u8>,
    ) -> io::Result<usize> {
        out.extend_from_slice(&vertex.to_le_bytes());
        out.extend_from_slice(&(neighbors.len() as u32).to_le_bytes());
        for u in neighbors {
            out.extend_from_slice(&u.to_le_bytes());
        }
        Ok(neighbors.len())
    }

    #[inline]
    fn frame(bytes: &[u8], degree_cap: u64) -> Result<Frame, SliceError> {
        let head = bytes.get(..RECORD_HDR).ok_or(SliceError::NeedMore)?;
        let degree = le_u32(&head[4..]);
        if u64::from(degree) > degree_cap {
            return Err(SliceError::Invalid("degree exceeds vertex count"));
        }
        let len = RECORD_HDR + 4 * degree as usize;
        if bytes.len() < len {
            return Err(SliceError::NeedMore);
        }
        Ok(Frame {
            vertex: le_u32(head),
            degree: degree as usize,
            header: RECORD_HDR,
            len,
        })
    }

    #[inline]
    fn decode(body: &[u8], degree: usize, dst: &mut Vec<VertexId>) -> Result<(), SliceError> {
        dst.extend(body[..4 * degree].chunks_exact(4).map(le_u32));
        Ok(())
    }
}

/// The plain fixed-width adjacency file.
pub type AdjFile = RecordFile<PlainCodec>;

/// Streaming writer for plain adjacency files.
pub type AdjFileWriter = RecordWriter<PlainCodec>;

/// Magic plus header fields of a `C` file.
fn header_bytes<C: RecordCodec>(num_vertices: u64, num_edges: u64) -> io::Result<Vec<u8>> {
    let mut header = C::MAGIC.to_vec();
    C::encode_header(num_vertices, num_edges, &mut header)?;
    Ok(header)
}

/// Streaming writer for adjacency files of codec `C`.
#[derive(Debug)]
pub struct RecordWriter<C> {
    writer: BlockWriter<File>,
    path: PathBuf,
    expected_vertices: u64,
    expected_edges: u64,
    written: u64,
    /// Directed neighbour entries written so far (after the codec's
    /// normalisation).
    entries: u64,
    /// One encoded record.
    buf: Vec<u8>,
    /// The codec's per-record scratch.
    scratch: Vec<VertexId>,
    codec: PhantomData<C>,
}

impl<C: RecordCodec> RecordWriter<C> {
    /// Creates `path` and writes the header for a graph with
    /// `num_vertices` vertices and `num_edges` undirected edges.
    pub fn create(
        path: &Path,
        num_vertices: u64,
        num_edges: u64,
        stats: Arc<IoStats>,
        block_size: usize,
    ) -> io::Result<Self> {
        let file = File::create(path)?;
        let mut writer = BlockWriter::with_block_size(file, stats, block_size);
        let header = header_bytes::<C>(num_vertices, num_edges)?;
        writer.write_all(&header)?;
        Ok(Self {
            writer,
            path: path.to_path_buf(),
            expected_vertices: num_vertices,
            expected_edges: num_edges,
            written: 0,
            entries: 0,
            buf: Vec::new(),
            scratch: Vec::new(),
            codec: PhantomData,
        })
    }

    /// Appends one adjacency record.
    pub fn write_record(&mut self, vertex: VertexId, neighbors: &[VertexId]) -> io::Result<()> {
        self.buf.clear();
        let entries = C::encode_record(vertex, neighbors, &mut self.scratch, &mut self.buf)?;
        self.writer.write_all(&self.buf)?;
        self.written += 1;
        self.entries += entries as u64;
        Ok(())
    }

    /// Appends every record of `graph`, in its scan order.
    pub fn write_scan<G: GraphScan + ?Sized>(&mut self, graph: &G) -> io::Result<()> {
        // Scan callbacks cannot fail, so the first write error is stashed.
        let mut error = None;
        graph.scan(&mut |v, ns| {
            if error.is_none() {
                error = self.write_record(v, ns).err();
            }
        })?;
        error.map_or(Ok(()), Err)
    }

    /// Flushes, validates that exactly `|V|` records were written, and
    /// reconciles the `|E|` header with the directed entries actually
    /// written — a caller whose announced edge count drifted from the
    /// records it emitted (e.g. an update overlay replaying an invalid
    /// edit stream, or a multigraph source the compressed codec
    /// deduplicated) gets the header patched in place rather than left
    /// lying. Returns the true undirected edge count.
    ///
    /// Fails when the directed entry total is odd (an asymmetric source:
    /// some edge was recorded on one endpoint only), since no undirected
    /// edge count could describe such a file.
    pub fn finish(self) -> io::Result<u64> {
        if self.written != self.expected_vertices {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "adjacency file incomplete: wrote {} of {} records",
                    self.written, self.expected_vertices
                ),
            ));
        }
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
        let edges = self.entries / 2;
        self.writer.finish()?;
        // The header keeps its width, so a drifted `|E|` is rewritten in
        // place.
        if edges != self.expected_edges {
            let mut f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
            f.write_all(&header_bytes::<C>(self.expected_vertices, edges)?)?;
        }
        Ok(edges)
    }
}

/// A readable adjacency file of codec `C`. Opening validates the
/// header; every [`GraphScan::scan`] re-reads the file front to back
/// through a fresh block reader, bumps the scan counter, and fails with
/// `InvalidData` if the header no longer matches the one seen at open
/// (the file was replaced or corrupted behind the handle). Clones share
/// one record index slot (see [`RecordFile::record_index`]).
#[derive(Debug, Clone)]
pub struct RecordFile<C> {
    path: PathBuf,
    num_vertices: u64,
    num_edges: u64,
    block_size: usize,
    stats: Arc<IoStats>,
    index: Arc<IndexSlot>,
    codec: PhantomData<C>,
}

/// The record index that a file's clones share. A request allocates an
/// unfilled index; the next complete full scan takes it out of the slot,
/// fills it and publishes it after the last record, so no lock is held
/// while a scan runs.
#[derive(Default)]
struct IndexSlot {
    pending: Mutex<Option<RecordIndex>>,
    published: OnceLock<RecordIndex>,
}

impl IndexSlot {
    /// The requested, unfilled index. Every update under the lock is one
    /// `Option` write, so a poisoned lock still holds a valid state.
    fn pending(&self) -> MutexGuard<'_, Option<RecordIndex>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Debug for IndexSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexSlot")
            .field("published", &self.published.get().is_some())
            .finish_non_exhaustive()
    }
}

impl<C: RecordCodec> RecordFile<C> {
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
        let (reader, num_vertices, num_edges) = read_header::<C>(path, &stats, block_size)?;
        let file_bytes = std::fs::metadata(path)?.len();
        // Callers size per-vertex arrays by |V|, so a count the record
        // bytes cannot hold is a corrupt header.
        if num_vertices > file_bytes.saturating_sub(reader.position()) / C::MIN_RECORD_BYTES {
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
            index: Arc::default(),
            codec: PhantomData,
        })
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

    /// A block reader positioned at the first record, after checking
    /// that the header still matches the one seen at open. Its
    /// [`BlockReader::position`] is the true file offset.
    fn records(&self) -> io::Result<BlockReader<File>> {
        let (reader, num_vertices, num_edges) =
            read_header::<C>(&self.path, &self.stats, self.block_size)?;
        if (num_vertices, num_edges) != (self.num_vertices, self.num_edges) {
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
        Ok(reader)
    }

    /// Asks the file's next complete full scan to build its record index
    /// on the way, allocating the `8|V|` offsets now. Clones share the
    /// request; a no-op once the index is requested or built.
    pub(crate) fn request_index(&self) {
        if self.index.published.get().is_none() {
            let n = self.num_vertices as usize;
            self.index
                .pending()
                .get_or_insert_with(|| RecordIndex::unfilled(n));
        }
    }

    /// The record index that this file's clones share: the one a
    /// complete full scan published, or else one built now by one
    /// accounted scan (a `pass` span named `index.build`) that frames
    /// records without decoding them. A record whose vertex is out of
    /// range or repeated fails the build, and the next call scans again.
    pub fn record_index(&self) -> io::Result<&RecordIndex> {
        if let Some(index) = self.index.published.get() {
            return Ok(index);
        }
        let _span = mis_obs::span("pass", "index.build");
        let index = self
            .take_request()
            .unwrap_or_else(|| RecordIndex::unfilled(self.num_vertices as usize));
        self.fill_index(index, |_, _, _| Ok(()))?;
        Ok(self
            .index
            .published
            .get()
            .expect("a complete scan publishes"))
    }

    /// Every record in storage order, through [`RecordFile::record_loop`].
    /// When the file's record index is requested, the loop also fills it;
    /// a file with no request runs no index code.
    pub(crate) fn for_each_record(
        &self,
        f: impl FnMut(u64, Frame, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        match self.take_request() {
            None => self.record_loop(f),
            Some(index) => self.fill_index(index, f),
        }
    }

    /// The requested index, taken out of the slot for one scan to fill;
    /// `None` if there is no request, or a scan has published the index
    /// since the request was made.
    fn take_request(&self) -> Option<RecordIndex> {
        let index = self.index.pending().take()?;
        self.index.published.get().is_none().then_some(index)
    }

    /// [`RecordFile::record_loop`], recording each record's offset in
    /// `index` before `f` sees it. A complete loop publishes the index
    /// (a concurrent scan may have published an equal one first); a
    /// failed one, the index's checks included, publishes nothing,
    /// requests a fresh index for the next scan and returns its error.
    fn fill_index(
        &self,
        mut index: RecordIndex,
        mut f: impl FnMut(u64, Frame, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let scanned = self.record_loop(|offset, frame, bytes| {
            index.record(frame.vertex, offset)?;
            f(offset, frame, bytes)
        });
        match scanned {
            Ok(()) => drop(self.index.published.set(index)),
            Err(_) => {
                drop(index);
                self.request_index();
            }
        }
        scanned
    }

    /// The one record loop: charges one scan, then frames every record
    /// in storage order and hands `f` its file offset, its frame and its
    /// bytes. Nothing is decoded here.
    pub(crate) fn record_loop(
        &self,
        mut f: impl FnMut(u64, Frame, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        self.stats.record_scan();
        let mut reader = self.records()?;
        for _ in 0..self.num_vertices {
            let frame = loop {
                match C::frame(reader.available(), self.num_vertices) {
                    Ok(frame) => break frame,
                    Err(SliceError::NeedMore) if reader.refill()? => {}
                    Err(e) => return Err(e.into_io_error("adjacency record")),
                }
            };
            f(reader.position(), frame, &reader.available()[..frame.len])?;
            reader.consume(frame.len);
        }
        Ok(())
    }
}

/// Decodes the neighbours of the framed record `bytes` into `dst`.
pub(crate) fn decode_record<C: RecordCodec>(
    frame: Frame,
    bytes: &[u8],
    dst: &mut Vec<VertexId>,
) -> io::Result<()> {
    C::decode(&bytes[frame.header..frame.len], frame.degree, dst)
        .map_err(|e| e.into_io_error("adjacency record"))
}

/// Opens `path` for one sequential read and parses the magic and header
/// fields of a `C` file off the front of the reader's buffer, refilling
/// as the record loop does. Returns the reader, positioned at the first
/// record, and `(|V|, |E|)`.
fn read_header<C: RecordCodec>(
    path: &Path,
    stats: &Arc<IoStats>,
    block_size: usize,
) -> io::Result<(BlockReader<File>, u64, u64)> {
    let file = File::open(path)?;
    let mut reader = BlockReader::with_block_size(file, Arc::clone(stats), block_size);
    let magic = C::MAGIC.len();
    loop {
        let head = reader.available();
        let parsed = match head.get(..magic) {
            None => Err(SliceError::NeedMore),
            Some(m) if m == C::MAGIC => C::parse_header(&head[magic..]),
            Some(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: not a {} adjacency file",
                        path.display(),
                        String::from_utf8_lossy(C::MAGIC)
                    ),
                ))
            }
        };
        match parsed {
            Ok((num_vertices, num_edges, used)) => {
                reader.consume(magic + used);
                return Ok((reader, num_vertices, num_edges));
            }
            Err(SliceError::NeedMore) if reader.refill()? => {}
            Err(e) => return Err(e.into_io_error("adjacency header")),
        }
    }
}

impl<C: RecordCodec> GraphScan for RecordFile<C> {
    fn num_vertices(&self) -> usize {
        self.num_vertices as usize
    }

    fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Sequential decode: each record is framed in the block reader's
    /// buffer and its neighbours decoded straight off the slice.
    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        let mut neighbors: Vec<VertexId> = Vec::new();
        self.for_each_record(|_, frame, bytes| {
            neighbors.clear();
            decode_record::<C>(frame, bytes, &mut neighbors)?;
            f(frame.vertex, &neighbors);
            Ok(())
        })
    }

    fn storage(&self) -> &'static str {
        C::STORAGE
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

    /// `parse_header` of every `(|V|, |E|)` returns the exact header
    /// length, though record bytes follow it, and `NeedMore` for every
    /// shorter prefix.
    fn header_parses_to_its_exact_length<C: RecordCodec>(len_of: impl Fn(u64) -> usize) {
        for (v, e) in [
            (0, 0),
            (3, 2),
            (127, 128),
            (1 << 20, 1 << 33),
            (u64::MAX, u64::MAX),
        ] {
            let mut bytes = Vec::new();
            C::encode_header(v, e, &mut bytes).unwrap();
            let len = bytes.len();
            assert_eq!(len, len_of(v), "header of |V| = {v}");
            bytes.extend_from_slice(&[0x81, 0x01, 0x05]);
            assert_eq!(C::parse_header(&bytes), Ok((v, e, len)));
            for cut in 0..len {
                assert_eq!(
                    C::parse_header(&bytes[..cut]),
                    Err(SliceError::NeedMore),
                    "prefix of {cut} of {len} bytes"
                );
            }
        }
    }

    #[test]
    fn plain_header_parses_to_its_exact_length() {
        header_parses_to_its_exact_length::<PlainCodec>(|_| 16);
    }

    #[test]
    fn gap_header_parses_to_its_exact_length() {
        // A `|V|` varint, then `|E|` padded to 10 bytes.
        let varint_len = |v: u64| (64 - v.leading_zeros() as usize).div_ceil(7).max(1);
        header_parses_to_its_exact_length::<crate::GapCodec>(|v| varint_len(v) + 10);
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
