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
//! Two independent, optional hooks serve the incremental repair:
//! [`GraphScan::last_batch`] and [`GraphScan::point_reads`].

use std::io;

use crate::builder::{order_by_degree, ranks_of};
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
pub trait GraphScan {
    /// Number of vertices (`|V|`; always fits in memory in this model).
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges (`|E|`).
    fn num_edges(&self) -> u64;

    /// Performs one full sequential scan, invoking `f(v, neighbours)` for
    /// every vertex in storage order.
    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()>;

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
        let rank = ranks_of(&order);
        Self { graph, order, rank }
    }

    /// Wraps `graph` in ascending-degree order (ties broken by id), the
    /// order produced by Algorithm 1's preprocessing sort.
    pub fn degree_sorted(graph: &'a CsrGraph) -> Self {
        Self::new(graph, order_by_degree(&graph.degrees()))
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

    fn record_rank(&self, v: VertexId) -> io::Result<u64> {
        // CSR storage order is vertex-id order.
        Ok(u64::from(v))
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

    fn record_rank(&self, v: VertexId) -> io::Result<u64> {
        Ok(u64::from(self.rank[v as usize]))
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
}
