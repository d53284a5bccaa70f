//! The streaming interface of the semi-external model.
//!
//! Every algorithm in `mis-core` touches the edge set exclusively through
//! [`GraphScan::scan`]: a full sequential pass over all adjacency records
//! in the representation's storage order. This is precisely the access
//! pattern the paper's algorithms are allowed — no random access to edges.
//!
//! Implementations:
//! * [`crate::CsrGraph`] — in-memory, storage order = vertex id order;
//! * [`OrderedCsr`] — in-memory with an explicit record order (used to
//!   emulate a degree-sorted file without disk I/O);
//! * [`crate::AdjFile`] and [`crate::CompressedAdjFile`] — on disk, one
//!   implementation for both record codecs; storage order = the order
//!   records were written (vertex-id order from the builder, degree
//!   order after the Algorithm 1 preprocessing step).
//!
//! [`GraphScan::scan_blocks`] streams the same records grouped into
//! [`RecordBlock`]s. It is the one hand-out unit of the parallel
//! execution engine for every storage: the engine needs nothing else
//! from a format.
//!
//! Two independent, optional hooks serve the incremental repair:
//! [`GraphScan::last_batch`] and [`GraphScan::point_reads`].

use std::io;

use crate::csr::CsrGraph;
use crate::delta::LastBatch;
use crate::raccess::NeighborAccess;
use crate::VertexId;

/// A graph that can be scanned sequentially, record by record.
///
/// One *record* is a vertex together with its full neighbour list. A scan
/// visits every vertex exactly once; the visiting order is a property of
/// the implementation and is significant (the paper's Greedy requires
/// ascending-degree order, and the swap algorithms' conflict resolution
/// gives earlier records preemption rights).
///
/// Scanning is a shared read (`&self`), so the trait requires [`Sync`]:
/// the parallel execution engine (`mis_core::engine`) runs
/// [`GraphScan::scan_blocks`] on a reader thread while the caller's
/// thread, or its fold workers, hold the same `&self`.
pub trait GraphScan: Sync {
    /// Number of vertices (`|V|`; always fits in memory in this model).
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges (`|E|`).
    fn num_edges(&self) -> u64;

    /// Performs one full sequential scan, invoking `f(v, neighbours)` for
    /// every vertex in storage order.
    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()>;

    /// Streams the same records as [`GraphScan::scan`], grouped into
    /// storage-order [`RecordBlock`]s of roughly `target_records` records
    /// each (dense records flush a block early, so skewed degree
    /// distributions cannot balloon one block).
    ///
    /// Block boundaries carry **no semantics**: concatenating the blocks
    /// in `seq` order replays exactly the record sequence of `scan`. This
    /// is the hand-out unit of the parallel execution engine — each block
    /// is decoded once and can be folded by a different worker thread.
    fn scan_blocks(&self, target_records: usize, f: &mut dyn FnMut(RecordBlock)) -> io::Result<()> {
        let target = target_records.max(1);
        // Cap buffered neighbour entries at 16x the record target so a
        // run of hub records cannot hold an unbounded block in memory.
        let nbr_cap = target.saturating_mul(16);
        let mut block = RecordBlock::with_seq(0);
        self.scan(&mut |v, ns| {
            block.push(v, ns);
            if block.len() >= target || block.edge_entries() >= nbr_cap {
                let seq = block.seq + 1;
                f(std::mem::replace(&mut block, RecordBlock::with_seq(seq)));
            }
        })?;
        if !block.is_empty() {
            f(block);
        }
        Ok(())
    }

    /// A short human-readable description of the backing storage.
    fn storage(&self) -> &'static str {
        "unknown"
    }

    /// The record of the one batch that produced this view's epoch, when
    /// the view keeps one. Only an epoch-pinned overlay view
    /// ([`crate::PinnedDelta`]) does; every other graph returns `None`.
    fn last_batch(&self) -> Option<&LastBatch> {
        None
    }

    /// Point reads of this graph's own records, ranked in the storage
    /// order of [`GraphScan::scan`], when it has them: the in-memory
    /// graphs do, and so does a [`crate::PinnedDelta`] with a handle or
    /// over a base that has them. Files are scan-only.
    fn point_reads(&self) -> Option<&dyn NeighborAccess> {
        None
    }
}

/// A batch of decoded adjacency records, contiguous in storage order.
///
/// Produced by [`GraphScan::scan_blocks`]; `seq` numbers blocks `0, 1,
/// 2, …` in storage order so consumers can merge per-block results
/// deterministically regardless of which thread processed which block.
#[derive(Debug, Clone, Default)]
pub struct RecordBlock {
    seq: u64,
    verts: Vec<VertexId>,
    /// `bounds[i]..bounds[i + 1]` is the neighbour range of `verts[i]`.
    bounds: Vec<usize>,
    nbrs: Vec<VertexId>,
}

impl RecordBlock {
    /// An empty block at position `seq` in storage order. Crate-visible
    /// so storage formats with a native [`GraphScan::scan_blocks`]
    /// (the adjacency files of [`crate::adjfile`]) can produce blocks
    /// directly.
    pub(crate) fn with_seq(seq: u64) -> Self {
        Self {
            seq,
            verts: Vec::new(),
            bounds: vec![0],
            nbrs: Vec::new(),
        }
    }

    /// Appends one record to the block.
    fn push(&mut self, v: VertexId, ns: &[VertexId]) {
        self.verts.push(v);
        self.nbrs.extend_from_slice(ns);
        self.bounds.push(self.nbrs.len());
    }

    /// Appends one record whose neighbour list is produced by `fill`
    /// writing **appended** entries straight into the block's shared
    /// neighbour buffer — no intermediate per-record vector. On error the
    /// partial record is rolled back and the block stays valid.
    pub(crate) fn push_with(
        &mut self,
        v: VertexId,
        fill: impl FnOnce(&mut Vec<VertexId>) -> io::Result<()>,
    ) -> io::Result<()> {
        let start = *self.bounds.last().expect("bounds never empty");
        match fill(&mut self.nbrs) {
            Ok(()) => {
                self.verts.push(v);
                self.bounds.push(self.nbrs.len());
                Ok(())
            }
            Err(e) => {
                self.nbrs.truncate(start);
                Err(e)
            }
        }
    }

    /// Position of this block in storage order (`0, 1, 2, …`).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of records in the block.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Whether the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Total neighbour entries buffered in the block.
    pub fn edge_entries(&self) -> usize {
        self.nbrs.len()
    }

    /// The `i`-th record: `(vertex, neighbours)`.
    pub fn record(&self, i: usize) -> (VertexId, &[VertexId]) {
        (
            self.verts[i],
            &self.nbrs[self.bounds[i]..self.bounds[i + 1]],
        )
    }

    /// Iterates the records in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        (0..self.len()).map(|i| self.record(i))
    }
}

impl GraphScan for CsrGraph {
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    fn num_edges(&self) -> u64 {
        CsrGraph::num_edges(self)
    }

    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        for v in self.vertices() {
            f(v, self.neighbors(v));
        }
        Ok(())
    }

    fn storage(&self) -> &'static str {
        "csr"
    }

    fn point_reads(&self) -> Option<&dyn NeighborAccess> {
        Some(self)
    }
}

/// An in-memory CSR graph scanned in an explicit record order.
///
/// This emulates the degree-sorted adjacency file of Algorithm 1 without
/// any disk I/O; experiments that want real block transfers use
/// [`crate::AdjFile`] instead.
#[derive(Debug, Clone)]
pub struct OrderedCsr<'a> {
    graph: &'a CsrGraph,
    order: Vec<VertexId>,
    /// Inverse permutation: `rank[v]` = position of `v` in `order`.
    rank: Vec<u32>,
}

impl<'a> OrderedCsr<'a> {
    /// Wraps `graph` with an explicit scan order.
    ///
    /// `order` must be a permutation of `0..|V|`; checked in debug builds.
    pub fn new(graph: &'a CsrGraph, order: Vec<VertexId>) -> Self {
        debug_assert_eq!(order.len(), graph.num_vertices());
        #[cfg(debug_assertions)]
        {
            let mut seen = vec![false; graph.num_vertices()];
            for &v in &order {
                assert!(!seen[v as usize], "order is not a permutation");
                seen[v as usize] = true;
            }
        }
        let mut rank = vec![0u32; order.len()];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        Self { graph, order, rank }
    }

    /// Wraps `graph` in ascending-degree order (ties broken by id), the
    /// order produced by Algorithm 1's preprocessing sort.
    pub fn degree_sorted(graph: &'a CsrGraph) -> Self {
        let mut order: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
        order.sort_by_key(|&v| (graph.degree(v), v));
        Self::new(graph, order)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        self.graph
    }

    /// The scan order.
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }
}

impl NeighborAccess for CsrGraph {
    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) -> io::Result<()> {
        f(self.neighbors(v));
        Ok(())
    }

    fn record_rank(&self, v: VertexId) -> u64 {
        // CSR storage order is vertex-id order.
        u64::from(v)
    }

    fn access_storage(&self) -> &'static str {
        "csr"
    }
}

impl NeighborAccess for OrderedCsr<'_> {
    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) -> io::Result<()> {
        f(self.graph.neighbors(v));
        Ok(())
    }

    fn record_rank(&self, v: VertexId) -> u64 {
        u64::from(self.rank[v as usize])
    }

    fn access_storage(&self) -> &'static str {
        "csr-ordered"
    }
}

impl GraphScan for OrderedCsr<'_> {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn num_edges(&self) -> u64 {
        self.graph.num_edges()
    }

    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        for &v in &self.order {
            f(v, self.graph.neighbors(v));
        }
        Ok(())
    }

    fn storage(&self) -> &'static str {
        "csr-ordered"
    }

    fn point_reads(&self) -> Option<&dyn NeighborAccess> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> CsrGraph {
        // Vertex 0 is the hub of a 4-star.
        CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)])
    }

    #[test]
    fn csr_scan_visits_in_id_order() {
        let g = star();
        let mut seen = Vec::new();
        g.scan(&mut |v, ns| seen.push((v, ns.len()))).unwrap();
        assert_eq!(seen, vec![(0, 4), (1, 1), (2, 1), (3, 1), (4, 1)]);
    }

    #[test]
    fn degree_sorted_order_puts_leaves_first() {
        let g = star();
        let ordered = OrderedCsr::degree_sorted(&g);
        assert_eq!(ordered.order(), &[1, 2, 3, 4, 0]);
        let mut seen = Vec::new();
        ordered.scan(&mut |v, _| seen.push(v)).unwrap();
        assert_eq!(seen, vec![1, 2, 3, 4, 0]);
    }

    #[test]
    fn explicit_order_is_respected() {
        let g = star();
        let ordered = OrderedCsr::new(&g, vec![4, 3, 2, 1, 0]);
        let mut seen = Vec::new();
        ordered.scan(&mut |v, _| seen.push(v)).unwrap();
        assert_eq!(seen, vec![4, 3, 2, 1, 0]);
        assert_eq!(ordered.num_vertices(), 5);
        assert_eq!(ordered.num_edges(), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a permutation")]
    fn bad_order_panics_in_debug() {
        let g = star();
        let _ = OrderedCsr::new(&g, vec![0, 0, 1, 2, 3]);
    }

    #[test]
    fn scan_blocks_replays_scan_exactly() {
        let g = star();
        let ordered = OrderedCsr::degree_sorted(&g);
        let mut direct = Vec::new();
        ordered
            .scan(&mut |v, ns| direct.push((v, ns.to_vec())))
            .unwrap();
        for target in [1, 2, 3, 100] {
            let mut replayed = Vec::new();
            let mut seqs = Vec::new();
            ordered
                .scan_blocks(target, &mut |block| {
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
        }
    }

    #[test]
    fn scan_blocks_respects_record_target() {
        let g = star();
        let mut lens = Vec::new();
        g.scan_blocks(2, &mut |block| lens.push(block.len()))
            .unwrap();
        assert_eq!(lens, vec![2, 2, 1]);
    }

    #[test]
    fn record_block_accessors() {
        let g = star();
        let mut blocks = Vec::new();
        g.scan_blocks(100, &mut |b| blocks.push(b)).unwrap();
        assert_eq!(blocks.len(), 1);
        let block = &blocks[0];
        assert_eq!(block.len(), 5);
        assert_eq!(block.edge_entries(), 8); // 4 hub entries + 4 back edges
        assert_eq!(block.record(0), (0, &[1, 2, 3, 4][..]));
        assert_eq!(block.record(1).1, &[0][..]);
    }
}
