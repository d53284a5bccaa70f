//! In-memory compressed-sparse-row graphs.
//!
//! `CsrGraph` is the workspace's canonical in-memory representation: one
//! `offsets` array of `|V|+1` positions into one flat `neighbors` array.
//! It backs the in-memory `DynamicUpdate` baseline, all unit/property
//! tests, and is the source from which on-disk adjacency files are built.

use crate::VertexId;

/// A simple undirected graph in compressed-sparse-row form.
///
/// Invariants (enforced by the constructors):
/// * no self-loops, no parallel edges;
/// * every edge `{u, v}` appears in both adjacency lists;
/// * each adjacency list is sorted ascending by neighbour id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
}

impl CsrGraph {
    /// Builds a graph with `n` vertices from an undirected edge list.
    ///
    /// Self-loops are dropped; duplicate edges (in either orientation) are
    /// collapsed. Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut directed: Vec<(VertexId, VertexId)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range for {n} vertices"
            );
            if u == v {
                continue; // simple graph: no self-loops
            }
            directed.push((u, v));
            directed.push((v, u));
        }
        directed.sort_unstable();
        directed.dedup();

        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(directed.len());
        offsets.push(0);
        let mut cursor = 0usize;
        for v in 0..n as VertexId {
            while cursor < directed.len() && directed[cursor].0 == v {
                neighbors.push(directed[cursor].1);
                cursor += 1;
            }
            offsets.push(neighbors.len() as u64);
        }
        debug_assert_eq!(cursor, directed.len());
        Self { offsets, neighbors }
    }

    /// A graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> u64 {
        self.neighbors.len() as u64 / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Neighbour list of `v`, sorted ascending by id.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Whether the edge `{u, v}` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over each undirected edge once, as `(min, max)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// Average degree `2|E| / |V|`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.neighbors.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> u32 {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Degrees of all vertices as a vector (an `O(|V|)`-memory structure,
    /// allowed by the semi-external model).
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .collect()
    }

    /// Size on disk of the equivalent adjacency file, in bytes
    /// (used by experiment reports; see [`crate::adjfile`]).
    pub fn adj_file_bytes(&self) -> u64 {
        crate::adjfile::HEADER_BYTES as u64
            + 8 * self.num_vertices() as u64
            + 4 * self.neighbors.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn degrees_and_max() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(g.degrees(), vec![4, 1, 1, 1, 1]);
        assert_eq!(g.max_degree(), 4);
        assert!((g.avg_degree() - 1.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.edges().count(), 0);
    }
}
