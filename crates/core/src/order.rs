//! Scan-order helpers.

use std::io;

use mis_graph::{order_by_degree, GraphScan, VertexId};

/// Ascending `(degree, id)` order of all vertices, computed with one scan
/// and `O(|V|)` memory — the record order Algorithm 1's preprocessing
/// produces on disk, ranked by the same [`order_by_degree`]. Use with
/// [`mis_graph::OrderedCsr`] to emulate the degree-sorted file in memory.
/// A failed scan is returned.
pub fn degree_order<G: GraphScan + ?Sized>(graph: &G) -> io::Result<Vec<VertexId>> {
    let mut degrees: Vec<u32> = vec![0; graph.num_vertices()];
    graph.scan(&mut |v, ns| degrees[v as usize] = ns.len() as u32)?;
    Ok(order_by_degree(&degrees))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::CsrGraph;

    #[test]
    fn orders_by_degree_then_id() {
        // Degrees: 0→3, 1→1, 2→2, 3→1, 4→1.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (2, 4)]);
        assert_eq!(degree_order(&g).unwrap(), vec![1, 3, 4, 2, 0]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(0);
        assert!(degree_order(&g).unwrap().is_empty());
    }

    #[test]
    fn shared_rank_equals_a_degree_id_sort() {
        // Ties at every degree, isolated vertices at both ends of the id
        // range, and a hub.
        let mut edges = vec![(1, 2), (2, 3), (3, 1), (5, 6), (6, 7), (7, 8)];
        edges.extend((1..9).map(|v| (10, v)));
        let graphs = [
            CsrGraph::from_edges(12, &edges),
            CsrGraph::empty(5),
            CsrGraph::from_edges(40, &[(0, 39), (7, 8), (8, 9), (9, 7), (20, 7)]),
        ];
        for g in &graphs {
            let mut expected: Vec<VertexId> = g.vertices().collect();
            expected.sort_by_key(|&v| (g.degree(v), v));
            assert_eq!(degree_order(g).unwrap(), expected);
            assert_eq!(mis_graph::order_by_degree(&g.degrees()), expected);
        }
    }

    #[test]
    fn a_failed_scan_is_returned() {
        let g = CsrGraph::from_edges(50, &[(0, 1), (1, 2), (2, 3), (3, 4), (10, 20)]);
        let dir = mis_extmem::ScratchDir::new("order-fail").unwrap();
        let path = dir.file("g.adj");
        let file = mis_graph::build_adj_file(&g, &path, mis_extmem::IoStats::shared(), 64).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        assert!(degree_order(&file).is_err());
    }

    #[test]
    fn matches_ordered_csr_helper() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2)]);
        let ours = degree_order(&g).unwrap();
        let theirs = mis_graph::OrderedCsr::degree_sorted(&g);
        assert_eq!(ours, theirs.order());
    }
}
