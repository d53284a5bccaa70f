//! Graph construction and the Algorithm 1 preprocessing sort.
//!
//! Two paths are provided:
//!
//! * [`GraphBuilder`] — in-memory accumulation of an edge list into a
//!   [`CsrGraph`] (used by generators and tests);
//! * [`build_adj_file`] + [`degree_sort_adj_file`] — the semi-external
//!   pipeline: write an adjacency file, then rewrite it into ascending
//!   `(degree, id)` record order, the `sort(|V|+|E|)` preprocessing step
//!   in the paper's I/O cost `(|V|+|E|)/B · (log_{M/B}(|V|/B) + 2)` for
//!   Greedy.
//!
//! Every `(degree, id)` order in the workspace — the record order, the
//! order inside each neighbour list, [`crate::OrderedCsr::degree_sorted`]
//! — comes from [`order_by_degree`]: one counting sort over the degrees,
//! stable in id, so no comparison sort ranks the vertices.
//!
//! # The degree sort
//!
//! Each output record is one input record with its list re-ranked, so
//! the sort is a record permutation, not a sort of edge pairs:
//!
//! 1. one scan reads every record's degree; the ranks follow from
//!    [`order_by_degree`];
//! 2. the ranks are cut into contiguous *buckets* of at most
//!    [`SortConfig::mem_records`] neighbour entries; a record with more
//!    entries than that gets a bucket of its own;
//! 3. one distribution scan per [`SortConfig::fan_in`] buckets writes
//!    each record's rank-relabelled list to its bucket's file;
//! 4. bucket by bucket, in rank order, the lists are read back, placed at
//!    their degree-prefix offsets, sorted (ascending rank is ascending
//!    `(degree, id)`), mapped back to ids and written out.
//!
//! Memory is `O(|V|)` words — the degree, rank and order arrays, which
//! the semi-external model allows — plus one bucket. I/O is
//! `1 + ⌈buckets / fan_in⌉` input scans, one write and one read of the
//! bucket files (about the input's size), and the output. A graph that
//! fits one bucket is placed straight from the second scan and writes no
//! bucket file.

use std::fs::File;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mis_extmem::{BlockReader, BlockWriter, IoStats, ScratchDir, SortConfig};

use crate::adjfile::{
    decode_record, AdjFile, AdjFileWriter, RecordCodec, RecordFile, RecordWriter,
};
use crate::compressed::CompressedAdjFile;
use crate::csr::CsrGraph;
use crate::scan::GraphScan;
use crate::VertexId;

/// Incremental in-memory graph builder.
///
/// Accepts edges in any order, tolerates duplicates and self-loops, and
/// produces a canonical [`CsrGraph`].
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            num_vertices: n,
            edges: Vec::new(),
        }
    }

    /// Adds one undirected edge. Out-of-range endpoints grow the graph.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        let needed = u.max(v) as usize + 1;
        if needed > self.num_vertices {
            self.num_vertices = needed;
        }
        self.edges.push((u, v));
    }

    /// Adds many edges.
    pub fn extend(&mut self, edges: impl IntoIterator<Item = (VertexId, VertexId)>) {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
    }

    /// Number of (possibly duplicate) edges added so far.
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalises into a canonical CSR graph.
    pub fn build(self) -> CsrGraph {
        CsrGraph::from_edges(self.num_vertices, &self.edges)
    }
}

/// Every vertex in ascending `(degree, id)` order, given each vertex's
/// degree: `order[r]` is the vertex of rank `r`. One counting sort over
/// the degrees, stable in id, so equal degrees keep ascending ids.
pub fn order_by_degree(degrees: &[u32]) -> Vec<VertexId> {
    let max = degrees.iter().copied().max().unwrap_or(0) as usize;
    // `next[d]`: the next free rank of degree `d`.
    let mut next = vec![0usize; max + 1];
    for &d in degrees {
        next[d as usize] += 1;
    }
    let mut first = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = first;
        first += count;
    }
    let mut order = vec![0; degrees.len()];
    for (v, &d) in degrees.iter().enumerate() {
        let slot = &mut next[d as usize];
        order[*slot] = v as VertexId;
        *slot += 1;
    }
    order
}

/// The inverse of a vertex order: `rank[v]` is `v`'s position in `order`.
pub(crate) fn ranks_of(order: &[VertexId]) -> Vec<u32> {
    let mut rank = vec![0u32; order.len()];
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    rank
}

/// Writes `graph` as an adjacency file at `path`, records in vertex-id
/// order, each neighbour list sorted by ascending `(degree, id)` as the
/// paper's Section 2.1 prescribes.
pub fn build_adj_file(
    graph: &CsrGraph,
    path: &Path,
    stats: Arc<IoStats>,
    block_size: usize,
) -> io::Result<AdjFile> {
    let rank = ranks_of(&order_by_degree(&graph.degrees()));
    let mut writer = AdjFileWriter::create(
        path,
        graph.num_vertices() as u64,
        graph.num_edges(),
        Arc::clone(&stats),
        block_size,
    )?;
    let mut list: Vec<VertexId> = Vec::new();
    for v in graph.vertices() {
        list.clear();
        list.extend_from_slice(graph.neighbors(v));
        list.sort_unstable_by_key(|&u| rank[u as usize]);
        writer.write_record(v, &list)?;
    }
    writer.finish()?;
    AdjFile::open_with_block_size(path, stats, block_size)
}

/// Rewrites `input` into ascending `(degree, id)` record order — the
/// preprocessing phase of Algorithm 1 — with every neighbour list in
/// ascending `(degree, id)` order too. `input` may be of either record
/// codec: the output depends only on its records, so sorting a file and
/// its `mis compress` copy writes the same bytes. See the
/// [module docs](self) for the passes, the memory bound and the I/O.
pub fn degree_sort_adj_file<I: RecordCodec>(
    input: &RecordFile<I>,
    output: &Path,
    sort_cfg: &SortConfig,
    scratch: &ScratchDir,
) -> io::Result<AdjFile> {
    degree_sort_into(input, output, sort_cfg, scratch)
}

/// Like [`degree_sort_adj_file`], but emits a gap-compressed `MISADJC1`
/// file. The record order is the same ascending-degree order; neighbour
/// lists land id-sorted (the compressed format's invariant) instead of
/// neighbour-degree-sorted, which no algorithm's correctness depends on.
pub fn degree_sort_compressed_adj_file<I: RecordCodec>(
    input: &RecordFile<I>,
    output: &Path,
    sort_cfg: &SortConfig,
    scratch: &ScratchDir,
) -> io::Result<CompressedAdjFile> {
    degree_sort_into(input, output, sort_cfg, scratch)
}

/// The degree sort, writing a file of codec `C`: records are emitted in
/// ascending `(degree, id)` rank order.
fn degree_sort_into<I: RecordCodec, C: RecordCodec>(
    input: &RecordFile<I>,
    output: &Path,
    sort_cfg: &SortConfig,
    scratch: &ScratchDir,
) -> io::Result<RecordFile<C>> {
    let n = input.num_vertices();
    let stats = Arc::clone(input.stats());
    let ranked = Ranked::new(record_degrees(input)?);
    let buckets = ranked.buckets(sort_cfg.mem_records);

    let mut writer = RecordWriter::<C>::create(
        output,
        n as u64,
        input.num_edges(),
        Arc::clone(&stats),
        sort_cfg.block_size,
    )?;
    let mut bucket = Bucket::default();
    if let [all] = buckets.as_slice() {
        bucket.reset(all.clone(), &ranked);
        ranked.scan(input, all.clone(), |r, list| {
            bucket.slot(r)?.copy_from_slice(list);
            Ok(())
        })?;
        bucket.emit(&ranked.order, &mut writer)?;
    } else {
        for group in buckets.chunks(sort_cfg.fan_in.max(1)) {
            let files = ranked.distribute(input, group, scratch, sort_cfg.block_size)?;
            for (ranks, file) in group.iter().zip(files) {
                bucket.reset(ranks.clone(), &ranked);
                bucket.load(&file, sort_cfg.block_size, &stats)?;
                std::fs::remove_file(&file.path)?;
                bucket.emit(&ranked.order, &mut writer)?;
            }
        }
    }
    writer.finish()?;
    RecordFile::open_with_block_size(output, stats, sort_cfg.block_size)
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The degree of every vertex, from one scan that checks that each
/// record's vertex is in range and has one record.
fn record_degrees<I: RecordCodec>(input: &RecordFile<I>) -> io::Result<Vec<u32>> {
    const UNSEEN: u32 = u32::MAX;
    let mut degrees = vec![UNSEEN; input.num_vertices()];
    input.for_each_record(|_, frame, _| match degrees.get_mut(frame.vertex as usize) {
        Some(d) if *d == UNSEEN => {
            *d = frame.degree as u32;
            Ok(())
        }
        Some(_) => Err(invalid(format!("vertex {} has two records", frame.vertex))),
        None => Err(invalid(format!(
            "record of vertex {} in a file of {} vertices",
            frame.vertex,
            degrees.len()
        ))),
    })?;
    Ok(degrees)
}

/// The degree sort's `O(|V|)` arrays.
struct Ranked {
    degrees: Vec<u32>,
    /// `order[r]`: the vertex of rank `r`.
    order: Vec<VertexId>,
    /// `rank[v]`: the rank of vertex `v`.
    rank: Vec<u32>,
}

impl Ranked {
    fn new(degrees: Vec<u32>) -> Self {
        let order = order_by_degree(&degrees);
        let rank = ranks_of(&order);
        Self {
            degrees,
            order,
            rank,
        }
    }

    // The scans that call `degree_of_rank`, `rank_of` and `Bucket::slot`
    // are generic over the input codec, so they compile in the caller's
    // crate; without `#[inline]` each call stays a call there, which
    // made the sort of the 2M graph 10–18% slower.
    #[inline]
    fn degree_of_rank(&self, r: u32) -> usize {
        self.degrees[self.order[r as usize] as usize] as usize
    }

    #[inline]
    fn rank_of(&self, v: VertexId) -> io::Result<u32> {
        self.rank.get(v as usize).copied().ok_or_else(|| {
            invalid(format!(
                "vertex {v} named in a file of {} vertices",
                self.rank.len()
            ))
        })
    }

    /// Cuts the ranks into contiguous buckets of at most `budget`
    /// neighbour entries (at least one); a record above the budget gets
    /// a bucket of its own. Always at least one bucket.
    fn buckets(&self, budget: usize) -> Vec<Range<u32>> {
        let budget = budget.max(1);
        let n = self.order.len() as u32;
        let (mut buckets, mut lo, mut held) = (Vec::new(), 0, 0);
        for r in 0..n {
            let degree = self.degree_of_rank(r);
            if held + degree > budget && r > lo {
                buckets.push(lo..r);
                (lo, held) = (r, 0);
            }
            held += degree;
        }
        buckets.push(lo..n);
        buckets
    }

    /// Scans `input` once, handing `f` the rank of every record whose
    /// rank is in `ranks` and its neighbour list relabelled to ranks.
    /// A record whose degree differs from the degree scan's fails: the
    /// file changed between the scans.
    fn scan<I: RecordCodec>(
        &self,
        input: &RecordFile<I>,
        ranks: Range<u32>,
        mut f: impl FnMut(u32, &[u32]) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut list = Vec::new();
        input.for_each_record(|_, frame, bytes| {
            let r = self.rank_of(frame.vertex)?;
            if !ranks.contains(&r) {
                return Ok(());
            }
            if frame.degree != self.degree_of_rank(r) {
                return Err(invalid(format!(
                    "{}: the record of vertex {} changed between scans",
                    input.path().display(),
                    frame.vertex
                )));
            }
            list.clear();
            decode_record::<I>(frame, bytes, &mut list)?;
            for u in &mut list {
                *u = self.rank_of(*u)?;
            }
            f(r, &list)
        })
    }

    /// One distribution scan: appends `rank, list…` (little-endian
    /// `u32`s) of every non-empty record in `group`'s buckets to that
    /// bucket's file in `scratch`.
    fn distribute<I: RecordCodec>(
        &self,
        input: &RecordFile<I>,
        group: &[Range<u32>],
        scratch: &ScratchDir,
        block_size: usize,
    ) -> io::Result<Vec<BucketFile>> {
        let mut writers = group
            .iter()
            .map(|ranks| {
                let path = scratch.file(&format!("bucket-{}.bin", ranks.start));
                let file = File::create(&path)?;
                let writer =
                    BlockWriter::with_block_size(file, Arc::clone(input.stats()), block_size);
                Ok((BucketFile { path, records: 0 }, writer))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let span = group[0].start..group[group.len() - 1].end;
        let mut bytes = Vec::new();
        self.scan(input, span, |r, list| {
            if list.is_empty() {
                return Ok(());
            }
            let (file, writer) = &mut writers[group.partition_point(|b| b.end <= r)];
            bytes.clear();
            bytes.extend_from_slice(&r.to_le_bytes());
            for x in list {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            file.records += 1;
            writer.write_all(&bytes)
        })?;
        writers
            .into_iter()
            .map(|(file, writer)| {
                writer.finish()?;
                Ok(file)
            })
            .collect()
    }
}

/// One bucket's file: its non-empty records, as the distribution scan
/// wrote them.
struct BucketFile {
    path: PathBuf,
    records: u64,
}

/// One bucket in memory: the rank-relabelled list of each rank
/// `lo..lo + starts.len() - 1`, at its degree-prefix offset.
#[derive(Default)]
struct Bucket {
    lo: u32,
    /// `starts[r - lo]..starts[r - lo + 1]`: rank `r`'s entries.
    starts: Vec<usize>,
    entries: Vec<u32>,
}

impl Bucket {
    /// Empties the bucket and lays out the ranks `ranks`.
    fn reset(&mut self, ranks: Range<u32>, ranked: &Ranked) {
        self.lo = ranks.start;
        self.starts.clear();
        self.starts.push(0);
        let mut end = 0;
        for r in ranks {
            end += ranked.degree_of_rank(r);
            self.starts.push(end);
        }
        self.entries.clear();
        self.entries.resize(end, 0);
    }

    /// The entries of rank `r`, which must be in the bucket.
    #[inline]
    fn slot(&mut self, r: u32) -> io::Result<&mut [u32]> {
        let i = r.wrapping_sub(self.lo) as usize;
        match self.starts.get(i..i + 2) {
            Some(&[start, end]) => Ok(&mut self.entries[start..end]),
            _ => Err(invalid(format!("rank {r} outside its bucket"))),
        }
    }

    /// Reads `file` into the bucket.
    fn load(
        &mut self,
        file: &BucketFile,
        block_size: usize,
        stats: &Arc<IoStats>,
    ) -> io::Result<()> {
        let source = File::open(&file.path)?;
        let mut reader = BlockReader::with_block_size(source, Arc::clone(stats), block_size);
        let mut word = [0u8; 4];
        let mut bytes = Vec::new();
        for _ in 0..file.records {
            reader.read_exact(&mut word)?;
            let slot = self.slot(u32::from_le_bytes(word))?;
            bytes.resize(4 * slot.len(), 0);
            reader.read_exact(&mut bytes)?;
            for (x, b) in slot.iter_mut().zip(bytes.chunks_exact(4)) {
                *x = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
        }
        Ok(())
    }

    /// Writes the bucket's records in rank order, each list sorted by
    /// rank and mapped back to vertex ids.
    fn emit<C: RecordCodec>(
        &mut self,
        order: &[VertexId],
        writer: &mut RecordWriter<C>,
    ) -> io::Result<()> {
        for (i, span) in self.starts.windows(2).enumerate() {
            let list = &mut self.entries[span[0]..span[1]];
            list.sort_unstable();
            for x in list.iter_mut() {
                *x = order[*x as usize];
            }
            writer.write_record(order[self.lo as usize + i], list)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> CsrGraph {
        // Degrees: 0:1, 1:3, 2:2, 3:1, 4:1
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (1, 3), (2, 4)])
    }

    #[test]
    fn builder_accumulates_and_grows() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(4, 1); // grows to 5 vertices
        b.extend([(1, 0), (2, 2)]); // duplicate + self loop
        assert_eq!(b.pending_edges(), 4);
        let g = b.build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn adj_file_neighbor_lists_are_degree_sorted() {
        let g = sample_graph();
        let dir = ScratchDir::new("builder").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(&g, &dir.file("g.adj"), stats, 256).unwrap();
        let mut records = Vec::new();
        file.scan(&mut |v, ns| records.push((v, ns.to_vec())))
            .unwrap();
        // Vertex 1's neighbours sorted by (degree, id): 0 (1), 3 (1), 2 (2).
        assert_eq!(records[1], (1, vec![0, 3, 2]));
        assert_eq!(records.len(), 5);
    }

    #[test]
    fn degree_sort_orders_records_and_lists() {
        let g = sample_graph();
        let dir = ScratchDir::new("degsort").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(&g, &dir.file("g.adj"), stats, 256).unwrap();
        let sorted =
            degree_sort_adj_file(&file, &dir.file("g.sorted.adj"), &SortConfig::tiny(), &dir)
                .unwrap();

        let mut order = Vec::new();
        let mut lists = Vec::new();
        sorted
            .scan(&mut |v, ns| {
                order.push(v);
                lists.push(ns.to_vec());
            })
            .unwrap();
        // (degree, id) ascending: 0(1), 3(1), 4(1), 2(2), 1(3).
        assert_eq!(order, vec![0, 3, 4, 2, 1]);
        // Vertex 1's list by neighbour degree: 0(1), 3(1), 2(2).
        assert_eq!(lists[4], vec![0, 3, 2]);
        assert_eq!(sorted.num_edges(), g.num_edges());
    }

    #[test]
    fn degree_sort_handles_isolated_vertices() {
        let g = CsrGraph::from_edges(4, &[(2, 3)]);
        let dir = ScratchDir::new("degsort-iso").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(&g, &dir.file("g.adj"), stats, 256).unwrap();
        let sorted =
            degree_sort_adj_file(&file, &dir.file("s.adj"), &SortConfig::tiny(), &dir).unwrap();
        let mut records = Vec::new();
        sorted
            .scan(&mut |v, ns| records.push((v, ns.to_vec())))
            .unwrap();
        assert_eq!(
            records,
            vec![(0, vec![]), (1, vec![]), (2, vec![3]), (3, vec![2])]
        );
    }

    #[test]
    fn compressed_degree_sort_matches_plain() {
        let g = sample_graph();
        let dir = ScratchDir::new("degsort-comp").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(&g, &dir.file("g.adj"), stats, 256).unwrap();
        let plain =
            degree_sort_adj_file(&file, &dir.file("s.adj"), &SortConfig::tiny(), &dir).unwrap();
        let comp =
            degree_sort_compressed_adj_file(&file, &dir.file("s.cadj"), &SortConfig::tiny(), &dir)
                .unwrap();
        assert_eq!(comp.num_edges(), plain.num_edges());
        let mut plain_records = Vec::new();
        plain
            .scan(&mut |v, ns| {
                let mut ns = ns.to_vec();
                ns.sort_unstable();
                plain_records.push((v, ns));
            })
            .unwrap();
        let mut comp_records = Vec::new();
        comp.scan(&mut |v, ns| comp_records.push((v, ns.to_vec())))
            .unwrap();
        // Identical record order; identical neighbour *sets* (compressed
        // lists are id-sorted by construction).
        assert_eq!(comp_records, plain_records);
        assert!(comp.disk_bytes().unwrap() < plain.disk_bytes().unwrap());
    }

    /// A cycle of `n` vertices: every record has degree 2.
    fn cycle(n: u32) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        CsrGraph::from_edges(n as usize, &edges)
    }

    /// Degree-sorts `g`'s file under `cfg`; returns the output's bytes
    /// and the sort's I/O.
    fn sort_io(g: &CsrGraph, cfg: &SortConfig) -> (u64, mis_extmem::IoSnapshot) {
        let dir = ScratchDir::new("degsort-io").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(g, &dir.file("g.adj"), stats, 256).unwrap();
        let before = file.stats().snapshot();
        let sorted = degree_sort_adj_file(&file, &dir.file("s.adj"), cfg, &dir).unwrap();
        let io = file.stats().snapshot().since(&before);
        (sorted.disk_bytes().unwrap(), io)
    }

    #[test]
    fn one_bucket_writes_no_bucket_file() {
        let (out_bytes, io) = sort_io(&cycle(100), &SortConfig::default());
        assert_eq!(io.scans_started, 2);
        assert_eq!(io.bytes_written, out_bytes);
    }

    #[test]
    fn spilled_buckets_are_counted() {
        // 200 entries in buckets of 10: 20 buckets of 5 records, 4 per
        // distribution scan, so 1 + 5 scans.
        let cfg = SortConfig {
            mem_records: 10,
            fan_in: 4,
            block_size: 256,
        };
        let (out_bytes, io) = sort_io(&cycle(100), &cfg);
        assert_eq!(io.scans_started, 6);
        // Each bucket file holds a rank and the list of each record.
        let bucket_bytes = 4 * (100 + 200);
        assert_eq!(io.bytes_written, out_bytes + bucket_bytes);
        assert!(io.bytes_read >= 6 * out_bytes + bucket_bytes);
    }

    #[test]
    fn buckets_hold_the_budget_and_a_hub_stands_alone() {
        let ranked = Ranked::new(vec![3, 0, 1, 9, 2, 2, 0]);
        assert_eq!(ranked.order, vec![1, 6, 2, 4, 5, 0, 3]);
        assert_eq!(ranked.buckets(4), vec![0..4, 4..5, 5..6, 6..7]);
        assert_eq!(ranked.buckets(5), vec![0..5, 5..6, 6..7]);
        assert_eq!(ranked.buckets(1 << 20), vec![0..7]);
        assert_eq!(Ranked::new(Vec::new()).buckets(4), vec![0..0]);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let g = cycle(300);
        for cfg in [SortConfig::default(), SortConfig::tiny()] {
            let dir = ScratchDir::new("degsort-trunc").unwrap();
            let path = dir.file("g.adj");
            let file = build_adj_file(&g, &path, IoStats::shared(), 256).unwrap();
            let len = std::fs::metadata(&path).unwrap().len();
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(len * 2 / 3).unwrap();
            let plain = degree_sort_adj_file(&file, &dir.file("s.adj"), &cfg, &dir);
            assert!(plain.is_err());
            let comp = degree_sort_compressed_adj_file(&file, &dir.file("s.cadj"), &cfg, &dir);
            assert!(comp.is_err());
        }
    }

    #[test]
    fn malformed_records_are_errors() {
        let dir = ScratchDir::new("degsort-bad").unwrap();
        let records: [&[(u32, &[u32])]; 3] = [
            &[(0, &[1]), (5, &[0])],    // vertex out of range
            &[(0, &[1]), (0, &[1])],    // vertex 0 twice, 1 missing
            &[(0, &[1]), (1, &[0, 7])], // neighbour out of range
        ];
        for (i, records) in records.iter().enumerate() {
            let path = dir.file(&format!("bad-{i}.adj"));
            let mut w = AdjFileWriter::create(&path, 2, 1, IoStats::shared(), 256).unwrap();
            for &(v, ns) in records.iter() {
                w.write_record(v, ns).unwrap();
            }
            // The writer rejects the odd entry count of the third file at
            // finish; its records are on disk all the same.
            let _ = w.finish();
            let file = AdjFile::open(&path, IoStats::shared()).unwrap();
            for cfg in [SortConfig::default(), SortConfig::tiny()] {
                let err = degree_sort_adj_file(&file, &dir.file("s.adj"), &cfg, &dir).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "case {i}: {err}");
            }
        }
    }

    #[test]
    fn degree_sort_round_trips_edges() {
        // Random-ish graph, verify the sorted file encodes the same graph.
        let edges: Vec<(u32, u32)> = (0..200u32).map(|i| (i % 50, (i * 7 + 3) % 50)).collect();
        let g = CsrGraph::from_edges(50, &edges);
        let dir = ScratchDir::new("degsort-rt").unwrap();
        let stats = IoStats::shared();
        let file = build_adj_file(&g, &dir.file("g.adj"), stats, 256).unwrap();
        let sorted =
            degree_sort_adj_file(&file, &dir.file("s.adj"), &SortConfig::tiny(), &dir).unwrap();
        let mut rebuilt = GraphBuilder::new(50);
        sorted
            .scan(&mut |v, ns| {
                for &u in ns {
                    rebuilt.add_edge(v, u);
                }
            })
            .unwrap();
        assert_eq!(rebuilt.build(), g);
    }
}
