//! Reusable passes shared by the CLI and the experiment harness.
//! Algorithm-specific passes (the swap algorithms' initial candidate
//! derivation, the verification pass) live next to their algorithms.

use std::io;

use mis_graph::GraphScan;

use super::Executor;

/// Degree summary of one full scan (the `mis stats` subcommand).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegreeStats {
    /// Number of adjacency records visited.
    pub records: u64,
    /// Sum of all record degrees (`2|E|` on an undirected graph).
    pub degree_sum: u64,
    /// Largest degree seen.
    pub max_degree: usize,
    /// Vertices with no neighbours.
    pub isolated: u64,
    /// Vertices with exactly one neighbour.
    pub pendant: u64,
}

impl DegreeStats {
    /// Mean degree over the visited records (`0.0` on an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.degree_sum as f64 / self.records as f64
        }
    }
}

/// Computes the [`DegreeStats`] of `graph` in one scan, panicking on a
/// storage error; see [`try_degree_stats`]. The executor is ignored
/// (see [`Executor`]).
pub fn degree_stats<G: GraphScan + ?Sized>(graph: &G, _executor: &Executor) -> DegreeStats {
    try_degree_stats(graph).expect("degree stats: storage read failed")
}

/// Computes the [`DegreeStats`] of `graph` in one scan (pass
/// `degree_stats`), returning the scan's error.
pub fn try_degree_stats<G: GraphScan + ?Sized>(graph: &G) -> io::Result<DegreeStats> {
    let mut stats = DegreeStats::default();
    super::pass(graph, "degree_stats", &mut |_, neighbors| {
        stats.records += 1;
        stats.degree_sum += neighbors.len() as u64;
        stats.max_degree = stats.max_degree.max(neighbors.len());
        match neighbors.len() {
            0 => stats.isolated += 1,
            1 => stats.pendant += 1,
            _ => {}
        }
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::CsrGraph;

    #[test]
    fn degree_stats_on_known_graph() {
        // A 4-star plus one isolated vertex.
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let stats = degree_stats(&g, &Executor::Sequential);
        assert_eq!(stats.records, 6);
        assert_eq!(stats.degree_sum, 8);
        assert_eq!(stats.max_degree, 4);
        assert_eq!(stats.isolated, 1);
        assert_eq!(stats.pendant, 4);
        assert!((stats.avg_degree() - 8.0 / 6.0).abs() < 1e-12);
        assert_eq!(DegreeStats::default().avg_degree(), 0.0);
    }
}
