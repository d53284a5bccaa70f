//! Sharded vertex-range adjacency storage (`MISSHRD1`).
//!
//! A sharded store splits one adjacency file into `N` shard files, each a
//! self-contained plain (`MISADJ01`) or gap-compressed (`MISADJC1`)
//! adjacency file holding a **contiguous run of the record order**, plus
//! one small manifest tying them together. Shards are cut on
//! degree-balanced byte boundaries, so a power-law hub record cannot put
//! most of the bytes in one shard and serialize a parallel scan.
//!
//! Concatenating the shards in manifest order replays exactly the record
//! sequence of the unpartitioned file, so a sharded store scans like the
//! file it was split from: [`ShardedGraph`]'s scan streams the shards in
//! order as one logical pass, and the execution engine's parallel block
//! pipeline runs on top of that scan like on any other storage. What the
//! layout adds is on the random-access side — one pager per shard
//! ([`ShardedRandomAccess`]) — and a cost model that sums per-shard block
//! ceilings. Splitting, opening and paging a shard all run the one
//! codec-generic file implementation of [`crate::adjfile`]; the manifest's
//! compressed flag picks the codec once per store.
//!
//! # Manifest format (`MISSHRD1`)
//!
//! All integers little-endian, in one flat header (the manifest is tiny —
//! tens of bytes per shard — and is read with one unaccounted
//! `fs::read`):
//!
//! ```text
//! magic      8 bytes  b"MISSHRD1"
//! records    u64      total adjacency records (= |V|)
//! edges      u64      total undirected edges (= |E|)
//! shards     u32      number of shard files (>= 1)
//! flags      u32      bit 0: id-ordered (record rank == vertex id),
//!                     bit 1: shards are gap-compressed (MISADJC1)
//! per shard:
//!   records     u64   adjacency records in this shard
//!   record_base u64   rank of the shard's first record in the store
//!   entries     u64   directed neighbour entries in this shard
//!   bytes       u64   shard file size on disk
//!   vertex_lo   u32   smallest vertex id in the shard (0 if empty)
//!   vertex_hi   u32   largest vertex id in the shard (0 if empty)
//!   name_len    u16   length of the shard file name
//!   name        ...   file name, relative to the manifest's directory
//! ```
//!
//! Shard files reuse the ordinary adjacency formats verbatim with two
//! shard-specific header conventions: the `|V|` field holds the shard's
//! **local record count** and the `|E|` field holds the shard's
//! **directed entry count** (cross-shard edges make per-shard entry
//! totals asymmetric, so undirected edge counts do not exist per shard).
//! [`crate::adjfile::RecordFile::open_shard`] widens the degree sanity
//! cap to the manifest's global `|V|`, since records keep their global
//! vertex ids.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use mis_extmem::pager::PagerConfig;
use mis_extmem::{IoSnapshot, IoStats, DEFAULT_BLOCK_SIZE};

use crate::adjfile::{AdjFile, PlainCodec, RecordCodec, RecordFile, RecordWriter};
use crate::anyfile::AnyAdjFile;
use crate::compressed::{CompressedAdjFile, GapCodec};
use crate::raccess::{NeighborAccess, RandomAccessGraph, RecordIndex};
use crate::scan::GraphScan;
use crate::VertexId;

/// Magic bytes of the manifest file.
pub const SHARD_MAGIC: &[u8; 8] = b"MISSHRD1";

/// Per-shard metadata from the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Adjacency records in this shard.
    pub records: u64,
    /// Rank of the shard's first record in the whole store's order.
    pub record_base: u64,
    /// Directed neighbour entries in this shard.
    pub entries: u64,
    /// Shard file size on disk in bytes.
    pub bytes: u64,
    /// Smallest vertex id appearing as a record in the shard (0 if empty).
    pub vertex_lo: VertexId,
    /// Largest vertex id appearing as a record in the shard (0 if empty).
    pub vertex_hi: VertexId,
    /// Shard file name, relative to the manifest's directory.
    pub name: String,
}

/// The parsed `MISSHRD1` manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Total adjacency records across all shards (= `|V|`).
    pub num_vertices: u64,
    /// Total undirected edges (= `|E|`).
    pub num_edges: u64,
    /// Whether record rank equals vertex id everywhere (vertex-id-ordered
    /// stores). Gates the random-access path, which maps vertices to
    /// shards by rank.
    pub id_ordered: bool,
    /// Whether the shard files are gap-compressed (`MISADJC1`).
    pub compressed: bool,
    /// The shards, in record order.
    pub shards: Vec<ShardMeta>,
}

impl ShardManifest {
    /// Serialises and writes the manifest to `path` (atomic enough for a
    /// build artefact: plain `fs::write` of a buffer assembled in memory).
    /// The manifest itself is metadata, not graph payload, and is not
    /// I/O-accounted.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut buf = Vec::with_capacity(32 + self.shards.len() * 48);
        buf.extend_from_slice(SHARD_MAGIC);
        buf.extend_from_slice(&self.num_vertices.to_le_bytes());
        buf.extend_from_slice(&self.num_edges.to_le_bytes());
        buf.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        let flags = u32::from(self.id_ordered) | (u32::from(self.compressed) << 1);
        buf.extend_from_slice(&flags.to_le_bytes());
        for s in &self.shards {
            buf.extend_from_slice(&s.records.to_le_bytes());
            buf.extend_from_slice(&s.record_base.to_le_bytes());
            buf.extend_from_slice(&s.entries.to_le_bytes());
            buf.extend_from_slice(&s.bytes.to_le_bytes());
            buf.extend_from_slice(&s.vertex_lo.to_le_bytes());
            buf.extend_from_slice(&s.vertex_hi.to_le_bytes());
            let name = s.name.as_bytes();
            if name.len() > u16::MAX as usize {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "shard file name too long",
                ));
            }
            buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
            buf.extend_from_slice(name);
        }
        std::fs::write(path, buf)
    }

    /// Reads and validates a manifest from `path`.
    pub fn read(path: &Path) -> io::Result<Self> {
        let bytes = std::fs::read(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let bad = |msg: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {msg}", path.display()),
            )
        };
        struct Cursor<'a> {
            bytes: &'a [u8],
            pos: usize,
        }
        impl<'a> Cursor<'a> {
            fn take(&mut self, n: usize) -> Option<&'a [u8]> {
                let slice = self.bytes.get(self.pos..self.pos + n)?;
                self.pos += n;
                Some(slice)
            }
            fn u64(&mut self) -> Option<u64> {
                self.take(8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            }
            fn u32(&mut self) -> Option<u32> {
                self.take(4)
                    .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            }
            fn u16(&mut self) -> Option<u16> {
                self.take(2)
                    .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
            }
        }
        let mut cur = Cursor {
            bytes: &bytes,
            pos: 0,
        };
        let trunc = || bad("truncated shard manifest");
        if cur.take(8).ok_or_else(trunc)? != SHARD_MAGIC {
            return Err(bad("not a shard manifest"));
        }
        let num_vertices = cur.u64().ok_or_else(trunc)?;
        let num_edges = cur.u64().ok_or_else(trunc)?;
        let shard_count = cur.u32().ok_or_else(trunc)? as usize;
        let flags = cur.u32().ok_or_else(trunc)?;
        if shard_count == 0 {
            return Err(bad("zero shards"));
        }
        let mut shards = Vec::with_capacity(shard_count);
        let mut expect_base = 0u64;
        for i in 0..shard_count {
            let records = cur.u64().ok_or_else(trunc)?;
            let record_base = cur.u64().ok_or_else(trunc)?;
            let entries = cur.u64().ok_or_else(trunc)?;
            let file_bytes = cur.u64().ok_or_else(trunc)?;
            let vertex_lo = cur.u32().ok_or_else(trunc)?;
            let vertex_hi = cur.u32().ok_or_else(trunc)?;
            let name_len = cur.u16().ok_or_else(trunc)? as usize;
            let name = std::str::from_utf8(cur.take(name_len).ok_or_else(trunc)?)
                .map_err(|_| bad("shard file name is not UTF-8"))?
                .to_string();
            if record_base != expect_base {
                return Err(bad(&format!("shard {i}: record base out of sequence")));
            }
            expect_base += records;
            shards.push(ShardMeta {
                records,
                record_base,
                entries,
                bytes: file_bytes,
                vertex_lo,
                vertex_hi,
                name,
            });
        }
        if cur.pos != bytes.len() {
            return Err(bad("trailing bytes after shard table"));
        }
        if expect_base != num_vertices {
            return Err(bad("shard record counts do not sum to |V|"));
        }
        Ok(Self {
            num_vertices,
            num_edges,
            id_ordered: flags & 1 != 0,
            compressed: flags & 2 != 0,
            shards,
        })
    }

    /// Sum of the shard file sizes (payload bytes; excludes the manifest).
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes).sum()
    }

    /// The per-shard file sizes, in manifest order — the inputs of the
    /// cost model's summed-shard block prediction.
    pub fn shard_bytes(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.bytes).collect()
    }
}

/// Options for [`split_adj_file`].
#[derive(Debug, Clone)]
pub struct SplitOptions {
    /// Number of shards to produce (clamped to at least 1).
    pub shards: usize,
    /// Scan block size for the shard writers and the re-opened store.
    pub block_size: usize,
}

/// Splits `source` into degree-balanced shards next to `manifest_path`.
///
/// Shard files are named `<manifest stem>.sNNN.adj` (or `.cadj` when the
/// source is compressed; the output format follows the source format) and
/// placed in the manifest's directory. The split costs two accounted
/// sequential scans of the source — one to weigh records and detect
/// vertex-id order, one to write — plus the shard writes; all charged to
/// the source's [`IoStats`].
///
/// Balance rule: records are weighed by their plain encoding size
/// (`8 + 4·degree` bytes, a format-independent proxy) and shard `i` ends
/// at the first record where the cumulative weight reaches
/// `(i+1)/N` of the total. Power-law skew therefore costs at most one
/// oversized record per shard boundary, and a hub record never drags the
/// rest of the store into its shard.
pub fn split_adj_file(
    source: &AnyAdjFile,
    manifest_path: &Path,
    opts: &SplitOptions,
) -> io::Result<ShardManifest> {
    let _span = mis_obs::span("graph", "shard.split");
    let compressed = matches!(source, AnyAdjFile::Compressed(_));
    let (id_ordered, shards) = if compressed {
        write_shards::<GapCodec>(source, manifest_path, opts, "cadj")?
    } else {
        write_shards::<PlainCodec>(source, manifest_path, opts, "adj")?
    };
    let manifest = ShardManifest {
        num_vertices: source.num_vertices() as u64,
        num_edges: source.num_edges(),
        id_ordered,
        compressed,
        shards,
    };
    manifest.write(manifest_path)?;
    Ok(manifest)
}

/// The two passes of [`split_adj_file`], writing shard files of codec `C`
/// named `<manifest stem>.sNNN.<ext>`. Returns whether the source is
/// id-ordered, and the shards.
fn write_shards<C: RecordCodec>(
    source: &AnyAdjFile,
    manifest_path: &Path,
    opts: &SplitOptions,
    ext: &str,
) -> io::Result<(bool, Vec<ShardMeta>)> {
    let shard_count = opts.shards.max(1);
    let stats = Arc::clone(source.stats());
    let n = source.num_vertices();

    // Pass 1: per-record weights + id-order detection (O(|V|) memory).
    let mut weights: Vec<u64> = Vec::with_capacity(n);
    let mut id_ordered = true;
    source.scan(&mut |v, ns| {
        if v as usize != weights.len() {
            id_ordered = false;
        }
        weights.push(8 + 4 * ns.len() as u64);
    })?;
    let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();

    // Cut points: shard i covers records `cuts[i] .. cuts[i + 1]`.
    let mut cuts = Vec::with_capacity(shard_count + 1);
    cuts.push(0usize);
    let mut cum: u128 = 0;
    let mut idx = 0usize;
    for i in 0..shard_count {
        let target = total * (i as u128 + 1) / shard_count as u128;
        while idx < n && cum < target {
            cum += u128::from(weights[idx]);
            idx += 1;
        }
        cuts.push(if i + 1 == shard_count { n } else { idx });
    }

    let dir = manifest_path.parent().unwrap_or(Path::new("."));
    let stem = manifest_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("shards");

    // Pass 2: stream records into the shard writers in order. Scan
    // callbacks cannot return errors, so failures are stashed.
    struct SplitState<C> {
        writer: Option<(usize, RecordWriter<C>)>,
        metas: Vec<ShardMeta>,
        current: usize,
        record: usize,
        err: Option<io::Error>,
    }
    let mut st = SplitState {
        writer: None,
        metas: Vec::with_capacity(shard_count),
        current: 0,
        record: 0,
        err: None,
    };
    let shard_name = |i: usize| format!("{stem}.s{i:03}.{ext}");
    let open_shard_writer = |i: usize, st: &mut SplitState<C>| -> io::Result<()> {
        let records = (cuts[i + 1] - cuts[i]) as u64;
        // The `|E|` header field of a shard holds its *directed* entry
        // count, patched by `finish_shard`; 0 here is a placeholder.
        let w = RecordWriter::create(
            &dir.join(shard_name(i)),
            records,
            0,
            Arc::clone(&stats),
            opts.block_size,
        )?;
        st.writer = Some((i, w));
        st.metas.push(ShardMeta {
            records,
            record_base: cuts[i] as u64,
            entries: 0,
            bytes: 0,
            vertex_lo: 0,
            vertex_hi: 0,
            name: shard_name(i),
        });
        Ok(())
    };
    let close_shard_writer = |st: &mut SplitState<C>| -> io::Result<()> {
        if let Some((i, w)) = st.writer.take() {
            let entries = w.finish_shard()?;
            let meta = &mut st.metas[i];
            meta.entries = entries;
            meta.bytes = std::fs::metadata(dir.join(&meta.name))?.len();
        }
        Ok(())
    };
    let step = |st: &mut SplitState<C>, v: VertexId, ns: &[VertexId]| -> io::Result<()> {
        while st.record >= cuts[st.current + 1] {
            // Passing a boundary: finish the running shard (creating an
            // empty one if it never received a record) and move on.
            if st.writer.is_none() {
                open_shard_writer(st.current, st)?;
            }
            close_shard_writer(st)?;
            st.current += 1;
        }
        if st.writer.is_none() {
            open_shard_writer(st.current, st)?;
        }
        let (i, w) = st.writer.as_mut().expect("writer just ensured");
        w.write_record(v, ns)?;
        let meta = &mut st.metas[*i];
        if st.record == cuts[*i] {
            // First record of the shard seeds the vertex range.
            meta.vertex_lo = v;
            meta.vertex_hi = v;
        } else {
            meta.vertex_lo = meta.vertex_lo.min(v);
            meta.vertex_hi = meta.vertex_hi.max(v);
        }
        st.record += 1;
        Ok(())
    };
    source.scan(&mut |v, ns| {
        if st.err.is_none() {
            if let Err(e) = step(&mut st, v, ns) {
                st.err = Some(e);
            }
        }
    })?;
    if let Some(e) = st.err {
        return Err(e);
    }
    // Flush the tail: the running shard plus any trailing empty shards.
    while st.current < shard_count {
        if st.writer.is_none() {
            open_shard_writer(st.current, &mut st)?;
        }
        close_shard_writer(&mut st)?;
        st.current += 1;
    }
    Ok((id_ordered, st.metas))
}

/// A sharded adjacency store: the manifest plus its opened shard files.
///
/// Implements the whole [`GraphScan`] surface: `scan` streams the shards
/// in manifest order, indistinguishable from scanning the unpartitioned
/// file, and the default [`GraphScan::scan_blocks`] groups that same
/// stream into blocks for the parallel engine, with `seq` numbers that
/// run on across shard boundaries.
///
/// # I/O accounting
///
/// Each shard file reports into its own private [`IoStats`]. Every
/// `scan` is one logical pass: it charges exactly one scan to the shared
/// global stats when it starts, and when it ends it folds the shards'
/// block counters into the global stats (minus the shards' own scan
/// counts), however many shards served it. This keeps the paper's
/// `scans × ⌈bytes/B⌉` ledger comparable between sharded and
/// unpartitioned runs.
pub struct ShardedGraph {
    manifest: ShardManifest,
    manifest_path: PathBuf,
    shards: Vec<AnyAdjFile>,
    shard_stats: Vec<Arc<IoStats>>,
    /// Per-shard counter snapshot at the last fold into the global stats.
    folded: Vec<Mutex<IoSnapshot>>,
    stats: Arc<IoStats>,
    block_size: usize,
}

impl std::fmt::Debug for ShardedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedGraph")
            .field("manifest_path", &self.manifest_path)
            .field("shards", &self.manifest.shards.len())
            .field("num_vertices", &self.manifest.num_vertices)
            .field("num_edges", &self.manifest.num_edges)
            .finish_non_exhaustive()
    }
}

impl ShardedGraph {
    /// Opens a manifest and all its shard files with the default block size.
    pub fn open(path: &Path, stats: Arc<IoStats>) -> io::Result<Self> {
        Self::open_with_block_size(path, stats, DEFAULT_BLOCK_SIZE)
    }

    /// Opens with an explicit scan block size.
    pub fn open_with_block_size(
        path: &Path,
        stats: Arc<IoStats>,
        block_size: usize,
    ) -> io::Result<Self> {
        let manifest = ShardManifest::read(path)?;
        let dir = path.parent().unwrap_or(Path::new("."));
        let mut shards = Vec::with_capacity(manifest.shards.len());
        let mut shard_stats = Vec::with_capacity(manifest.shards.len());
        for meta in &manifest.shards {
            let sstats = IoStats::shared();
            let spath = dir.join(&meta.name);
            let file = if manifest.compressed {
                AnyAdjFile::Compressed(CompressedAdjFile::open_shard(
                    &spath,
                    Arc::clone(&sstats),
                    block_size,
                    manifest.num_vertices,
                )?)
            } else {
                AnyAdjFile::Plain(AdjFile::open_shard(
                    &spath,
                    Arc::clone(&sstats),
                    block_size,
                    manifest.num_vertices,
                )?)
            };
            if file.num_vertices() as u64 != meta.records {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: shard header has {} records, manifest says {}",
                        spath.display(),
                        file.num_vertices(),
                        meta.records
                    ),
                ));
            }
            shards.push(file);
            shard_stats.push(sstats);
        }
        // Open-time header reads are real I/O: fold them into the global
        // stats immediately, then start each shard's fold baseline at its
        // post-open snapshot so logical scans fold only their own deltas.
        let folded = shard_stats
            .iter()
            .map(|s| {
                let snap = s.snapshot();
                stats.merge(&snap);
                Mutex::new(snap)
            })
            .collect();
        Ok(Self {
            manifest,
            manifest_path: path.to_path_buf(),
            shards,
            shard_stats,
            folded,
            stats,
            block_size,
        })
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// The manifest file path.
    pub fn path(&self) -> &Path {
        &self.manifest_path
    }

    /// The shared global I/O counters logical scans fold into.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// The scan block size the shards were opened with.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total shard payload bytes on disk (excludes the manifest).
    pub fn disk_bytes(&self) -> io::Result<u64> {
        Ok(self.manifest.total_bytes())
    }

    /// The `i`-th shard file.
    pub fn shard(&self, i: usize) -> &AnyAdjFile {
        &self.shards[i]
    }

    /// Opens the random-access side of the store (requires an
    /// id-ordered manifest); see [`ShardedRandomAccess`].
    pub fn open_random_access(&self, config: PagerConfig) -> io::Result<ShardedRandomAccess> {
        ShardedRandomAccess::open(self, config)
    }

    /// Marks the start of one logical whole-store scan: charges one scan
    /// to the global stats.
    fn begin_logical_scan(&self) {
        self.stats.record_scan();
    }

    /// Marks the end of one logical whole-store scan: folds each shard's
    /// I/O counters accumulated since the last fold into the global
    /// stats, minus the shards' own scan counts.
    fn end_logical_scan(&self) {
        for (i, sstats) in self.shard_stats.iter().enumerate() {
            let snap = sstats.snapshot();
            let mut folded = self.folded[i].lock().expect("fold lock poisoned");
            let mut delta = snap.since(&folded);
            // The shards' own scan counts are bookkeeping, not logical
            // scans — the store charged exactly one in `begin`.
            delta.scans_started = 0;
            self.stats.merge(&delta);
            *folded = snap;
        }
    }
}

impl GraphScan for ShardedGraph {
    fn num_vertices(&self) -> usize {
        self.manifest.num_vertices as usize
    }

    fn num_edges(&self) -> u64 {
        self.manifest.num_edges
    }

    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        self.begin_logical_scan();
        let mut result = Ok(());
        for shard in &self.shards {
            result = shard.scan(f);
            if result.is_err() {
                break;
            }
        }
        self.end_logical_scan();
        result
    }

    fn storage(&self) -> &'static str {
        if self.manifest.compressed {
            "sharded-cadj"
        } else {
            "sharded-adj"
        }
    }
}

/// Random-access neighbour reads over a sharded store: one
/// [`RandomAccessGraph`] (buffer pool + a record index keyed by record
/// rank) per shard, sharing a single frame budget split proportionally to
/// shard size (each shard keeps at least one frame).
///
/// Only **id-ordered** stores support this path: vertex ids are mapped to
/// shards by binary search on the manifest's record bases, which is a
/// vertex-range lookup precisely when record rank equals vertex id.
/// Opening costs one accounted index-build scan per shard (charged to the
/// store's global stats), as the unpartitioned path does for one file;
/// ranks stay strictly monotone across shards (byte offset plus the
/// preceding shards' sizes), so the swap algorithms' earlier-record-wins
/// conflict resolution is unchanged.
pub struct ShardedRandomAccess {
    shards: Vec<Box<dyn NeighborAccess + Send>>,
    /// `record_bases[i]` = first global vertex id of shard `i`.
    record_bases: Vec<u64>,
    records: Vec<u64>,
    num_vertices: usize,
    compressed: bool,
}

impl std::fmt::Debug for ShardedRandomAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRandomAccess")
            .field("shards", &self.shards.len())
            .field("num_vertices", &self.num_vertices)
            .finish_non_exhaustive()
    }
}

impl ShardedRandomAccess {
    /// Opens per-shard pagers over `graph`, splitting `config.frames`
    /// proportionally to shard bytes (minimum one frame per shard).
    pub fn open(graph: &ShardedGraph, config: PagerConfig) -> io::Result<Self> {
        let manifest = graph.manifest();
        if !manifest.id_ordered {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "random access requires an id-ordered sharded store \
                 (record rank == vertex id)",
            ));
        }
        let dir = graph.path().parent().unwrap_or(Path::new("."));
        let total_bytes = manifest.total_bytes().max(1);
        let open_pager = if manifest.compressed {
            open_shard_access::<GapCodec>
        } else {
            open_shard_access::<PlainCodec>
        };
        let mut shards = Vec::with_capacity(manifest.shards.len());
        let mut rank_base = 0u64;
        for meta in &manifest.shards {
            let frames = ((config.frames as u64 * meta.bytes / total_bytes) as usize).max(1);
            let cfg = PagerConfig { frames, ..config };
            shards.push(open_pager(
                &dir.join(&meta.name),
                graph,
                cfg,
                meta,
                rank_base,
            )?);
            rank_base += meta.bytes;
        }
        Ok(Self {
            shards,
            record_bases: manifest.shards.iter().map(|s| s.record_base).collect(),
            records: manifest.shards.iter().map(|s| s.records).collect(),
            num_vertices: manifest.num_vertices as usize,
            compressed: manifest.compressed,
        })
    }

    /// The shard holding vertex `v`, or an error for out-of-range `v`.
    fn shard_of(&self, v: VertexId) -> io::Result<usize> {
        // Last shard whose base is <= v; empty shards share their base
        // with the next shard and thus are never selected for a valid v.
        let i = self.record_bases.partition_point(|&b| b <= u64::from(v));
        let i = i.checked_sub(1);
        match i {
            Some(i) if u64::from(v) < self.record_bases[i] + self.records[i] => Ok(i),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("vertex {v} out of range ({} vertices)", self.num_vertices),
            )),
        }
    }
}

/// Opens one shard of `graph` as a paged graph of codec `C`, indexed by
/// record rank with one accounted scan.
fn open_shard_access<C: RecordCodec>(
    path: &Path,
    graph: &ShardedGraph,
    config: PagerConfig,
    meta: &ShardMeta,
    rank_base: u64,
) -> io::Result<Box<dyn NeighborAccess + Send>> {
    // A fresh handle reporting into the *global* stats: paged reads
    // happen outside logical scans, so they must not sit in a per-shard
    // buffer waiting for a fold that never comes.
    let file = RecordFile::<C>::open_shard(
        path,
        Arc::clone(graph.stats()),
        graph.block_size(),
        graph.manifest().num_vertices,
    )?;
    let index = RecordIndex::build_ranked(&file)?;
    let ra = RandomAccessGraph::with_index(&file, index, config)?;
    Ok(Box::new(
        ra.with_shard_base(meta.record_base as VertexId, rank_base),
    ))
}

impl NeighborAccess for ShardedRandomAccess {
    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) -> io::Result<()> {
        self.shards[self.shard_of(v)?].with_neighbors(v, f)
    }

    fn record_rank(&self, v: VertexId) -> u64 {
        let shard = self
            .shard_of(v)
            .expect("record_rank called with an out-of-range vertex");
        self.shards[shard].record_rank(v)
    }

    fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.resident_bytes()).sum()
    }

    fn access_storage(&self) -> &'static str {
        if self.compressed {
            "sharded-cadj+pager"
        } else {
            "sharded-adj+pager"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_adj_file;
    use crate::compressed::compress_adj;
    use crate::csr::CsrGraph;
    use mis_extmem::pager::PolicyKind;
    use mis_extmem::ScratchDir;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (1, 3),
                (2, 4),
                (4, 5),
                (0, 5),
                (6, 7),
                (3, 6),
            ],
        )
    }

    fn scan_records(g: &dyn GraphScan) -> Vec<(VertexId, Vec<VertexId>)> {
        let mut out = Vec::new();
        g.scan(&mut |v, ns| out.push((v, ns.to_vec()))).unwrap();
        out
    }

    fn split_sample(
        dir: &ScratchDir,
        compressed: bool,
        shards: usize,
    ) -> (ShardManifest, std::path::PathBuf, Arc<IoStats>) {
        let g = sample();
        let stats = IoStats::shared();
        let source = if compressed {
            let f = compress_adj(&g, &dir.file("g.cadj"), Arc::clone(&stats), 256).unwrap();
            AnyAdjFile::Compressed(f)
        } else {
            let f = build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 256).unwrap();
            AnyAdjFile::Plain(f)
        };
        let mpath = dir.file("g.shrd");
        let manifest = split_adj_file(
            &source,
            &mpath,
            &SplitOptions {
                shards,
                block_size: 256,
            },
        )
        .unwrap();
        (manifest, mpath, stats)
    }

    #[test]
    fn manifest_round_trips() {
        let dir = ScratchDir::new("shard-manifest").unwrap();
        let (manifest, mpath, _) = split_sample(&dir, false, 3);
        let back = ShardManifest::read(&mpath).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.shards.len(), 3);
        assert!(back.id_ordered);
        assert!(!back.compressed);
        assert_eq!(back.num_vertices, 8);
        assert_eq!(back.num_edges, 8);
        let sum: u64 = back.shards.iter().map(|s| s.records).sum();
        assert_eq!(sum, 8);
    }

    #[test]
    fn manifest_rejects_garbage_and_truncation() {
        let dir = ScratchDir::new("shard-manifest-bad").unwrap();
        let (_, mpath, _) = split_sample(&dir, false, 2);
        let bytes = std::fs::read(&mpath).unwrap();
        let junk = dir.file("junk.shrd");
        std::fs::write(&junk, b"not a manifest!!").unwrap();
        assert!(ShardManifest::read(&junk).is_err());
        for cut in [4, 20, bytes.len() - 1] {
            std::fs::write(&junk, &bytes[..cut]).unwrap();
            assert!(ShardManifest::read(&junk).is_err(), "cut at {cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        std::fs::write(&junk, &extra).unwrap();
        assert!(ShardManifest::read(&junk).is_err(), "trailing byte");
    }

    #[test]
    fn sharded_scan_replays_unpartitioned_scan() {
        for compressed in [false, true] {
            for shards in [1usize, 2, 3, 8, 16] {
                let dir = ScratchDir::new("shard-scan").unwrap();
                let (_, mpath, stats) = split_sample(&dir, compressed, shards);
                let g = sample();
                let sharded = ShardedGraph::open_with_block_size(&mpath, stats, 256).unwrap();
                assert_eq!(sharded.num_vertices(), 8);
                assert_eq!(sharded.num_edges(), 8);
                let records = scan_records(&sharded);
                assert_eq!(records.len(), 8, "compressed={compressed} shards={shards}");
                for (v, ns) in &records {
                    let mut expect = g.neighbors(*v).to_vec();
                    if !compressed {
                        // Plain records keep the builder's degree order.
                        let mut got = ns.clone();
                        got.sort_unstable();
                        expect.sort_unstable();
                        assert_eq!(got, expect);
                    } else {
                        expect.sort_unstable();
                        assert_eq!(ns, &expect);
                    }
                }
                // Record order matches the source order (id order here).
                let order: Vec<VertexId> = records.iter().map(|r| r.0).collect();
                assert_eq!(order, (0..8).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn logical_scan_charges_one_scan_and_all_blocks() {
        let dir = ScratchDir::new("shard-iostats").unwrap();
        let (_, mpath, _) = split_sample(&dir, false, 4);
        let stats = IoStats::shared();
        let sharded = ShardedGraph::open_with_block_size(&mpath, Arc::clone(&stats), 64).unwrap();
        let before = stats.snapshot();
        sharded.scan(&mut |_, _| {}).unwrap();
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.scans_started, 1, "one logical scan");
        assert!(delta.blocks_read > 0, "shard block reads folded in");
        // A second scan folds only the new deltas.
        sharded.scan(&mut |_, _| {}).unwrap();
        let delta2 = stats.snapshot().since(&before);
        assert_eq!(delta2.scans_started, 2);
        assert_eq!(delta2.blocks_read, 2 * delta.blocks_read);
    }

    #[test]
    fn scan_blocks_numbering_is_continuous_across_shards() {
        let dir = ScratchDir::new("shard-blocks").unwrap();
        let (_, mpath, stats) = split_sample(&dir, true, 3);
        let sharded = ShardedGraph::open_with_block_size(&mpath, stats, 256).unwrap();
        let mut seqs = Vec::new();
        let mut records = Vec::new();
        sharded
            .scan_blocks(2, &mut |b| {
                seqs.push(b.seq());
                for (v, ns) in b.iter() {
                    records.push((v, ns.to_vec()));
                }
            })
            .unwrap();
        let expect: Vec<u64> = (0..seqs.len() as u64).collect();
        assert_eq!(seqs, expect);
        assert_eq!(records, scan_records(&sharded));
    }

    #[test]
    fn degree_balanced_split_isolates_hub_bytes() {
        // One super-vertex with ~half the adjacency bytes must not drag
        // everything into its shard.
        let n = 64u32;
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push((0, v));
        }
        let g = CsrGraph::from_edges(n as usize, &edges);
        let dir = ScratchDir::new("shard-balance").unwrap();
        let stats = IoStats::shared();
        let f = build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 256).unwrap();
        let manifest = split_adj_file(
            &AnyAdjFile::Plain(f),
            &dir.file("g.shrd"),
            &SplitOptions {
                shards: 4,
                block_size: 256,
            },
        )
        .unwrap();
        let total = manifest.total_bytes();
        for s in &manifest.shards {
            assert!(
                s.bytes * 100 <= total * 60,
                "shard {} holds {}/{total} bytes",
                s.name,
                s.bytes
            );
        }
    }

    #[test]
    fn more_shards_than_records_leaves_trailing_empties() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let dir = ScratchDir::new("shard-empty").unwrap();
        let stats = IoStats::shared();
        let f = build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 256).unwrap();
        let mpath = dir.file("g.shrd");
        let manifest = split_adj_file(
            &AnyAdjFile::Plain(f),
            &mpath,
            &SplitOptions {
                shards: 5,
                block_size: 256,
            },
        )
        .unwrap();
        assert_eq!(manifest.shards.len(), 5);
        let nonempty = manifest.shards.iter().filter(|s| s.records > 0).count();
        assert!(nonempty <= 2);
        let sharded = ShardedGraph::open(&mpath, stats).unwrap();
        let records = scan_records(&sharded);
        assert_eq!(records.len(), 2);
        // Random access still works with empty shards in the mix.
        let ra = sharded
            .open_random_access(PagerConfig {
                page_size: 64,
                frames: 8,
                policy: PolicyKind::Clock,
            })
            .unwrap();
        ra.with_neighbors(0, &mut |ns| assert_eq!(ns, &[1][..]))
            .unwrap();
        assert!(ra.with_neighbors(2, &mut |_| {}).is_err());
    }

    #[test]
    fn random_access_matches_scan_for_both_formats() {
        for compressed in [false, true] {
            let dir = ScratchDir::new("shard-raccess").unwrap();
            let (_, mpath, stats) = split_sample(&dir, compressed, 3);
            let sharded = ShardedGraph::open_with_block_size(&mpath, stats, 256).unwrap();
            let expect = scan_records(&sharded);
            let ra = sharded
                .open_random_access(PagerConfig {
                    page_size: 32,
                    frames: 6,
                    policy: PolicyKind::Clock,
                })
                .unwrap();
            for (v, ns) in &expect {
                ra.with_neighbors(*v, &mut |got| assert_eq!(got, &ns[..], "v={v}"))
                    .unwrap();
            }
            // Ranks are strictly monotone in storage order across shards.
            let ranks: Vec<u64> = expect.iter().map(|(v, _)| ra.record_rank(*v)).collect();
            assert!(ranks.windows(2).all(|w| w[0] < w[1]), "{ranks:?}");
            assert!(ra.resident_bytes() > 0);
            assert!(ra.with_neighbors(99, &mut |_| {}).is_err());
        }
    }

    #[test]
    fn random_access_requires_id_order() {
        // Splitting a non-id-ordered source clears the flag and blocks
        // the random-access path.
        let g = sample();
        let dir = ScratchDir::new("shard-noid").unwrap();
        let stats = IoStats::shared();
        let f = build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 256).unwrap();
        let sorted = crate::builder::degree_sort_adj_file(
            &f,
            &dir.file("g.sorted.adj"),
            &mis_extmem::SortConfig::tiny(),
            &dir,
        )
        .unwrap();
        let mpath = dir.file("g.shrd");
        let manifest = split_adj_file(
            &AnyAdjFile::Plain(sorted),
            &mpath,
            &SplitOptions {
                shards: 2,
                block_size: 256,
            },
        )
        .unwrap();
        assert!(!manifest.id_ordered);
        let sharded = ShardedGraph::open(&mpath, stats).unwrap();
        let err = sharded
            .open_random_access(PagerConfig {
                page_size: 64,
                frames: 4,
                policy: PolicyKind::Clock,
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Scanning still replays the degree-sorted order exactly.
        let mut order = Vec::new();
        sharded.scan(&mut |v, _| order.push(v)).unwrap();
        assert_eq!(order.len(), 8);
    }
}
