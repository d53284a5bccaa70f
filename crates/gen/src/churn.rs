//! Churn workloads: reproducible interleaved edge insert/delete streams.
//!
//! The paper closes by asking how its solutions extend to "incremental
//! massive graphs with frequent updates". This module generates that
//! workload: a seeded, timestamped stream of edge operations over an
//! existing graph, where every delete removes a currently live edge and
//! every insert adds a currently absent one — so replaying the stream in
//! order (e.g. through `mis_update`'s write-ahead log into a
//! `mis_graph::PinnedDelta` overlay) always yields a well-defined edited
//! graph. Used by the `repro churn` experiment.

use mis_graph::{CsrGraph, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Kind of one churn operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Insert an absent edge.
    Insert,
    /// Delete a live edge.
    Delete,
}

/// One timestamped edge operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnOp {
    /// Logical timestamp: position in the stream, starting at 0.
    pub time: u64,
    /// Insert or delete.
    pub kind: ChurnKind,
    /// Lower endpoint (`u < v`).
    pub u: VertexId,
    /// Higher endpoint.
    pub v: VertexId,
}

/// Generates a churn stream of `ops` operations over `graph`.
///
/// Each step is a delete with probability `delete_fraction` (as long as
/// live edges remain) and an insert otherwise. Deletes pick a uniform
/// live edge — including edges inserted earlier in the stream — and
/// inserts pick a uniform absent pair by rejection sampling. The stream
/// is deterministic in `seed`; very dense graphs may receive fewer than
/// `ops` operations when no absent pair can be found within the sampling
/// budget.
pub fn churn_stream(graph: &CsrGraph, ops: usize, delete_fraction: f64, seed: u64) -> Vec<ChurnOp> {
    assert!(
        (0.0..=1.0).contains(&delete_fraction),
        "delete_fraction must be a probability, got {delete_fraction}"
    );
    let n = graph.num_vertices();
    if n < 2 {
        return Vec::new();
    }

    // Live edge list (for uniform delete sampling) + membership set.
    let mut live: Vec<(VertexId, VertexId)> = Vec::new();
    let mut present = std::collections::HashSet::new();
    for v in graph.vertices() {
        for &u in graph.neighbors(v) {
            if v < u {
                live.push((v, u));
                present.insert((v, u));
            }
        }
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut stream = Vec::with_capacity(ops);
    while stream.len() < ops {
        let time = stream.len() as u64;
        if !live.is_empty() && rng.gen_bool(delete_fraction) {
            let i = rng.gen_range(0..live.len());
            let (u, v) = live.swap_remove(i);
            present.remove(&(u, v));
            stream.push(ChurnOp {
                time,
                kind: ChurnKind::Delete,
                u,
                v,
            });
            continue;
        }
        // Insert: rejection-sample an absent pair.
        let mut found = None;
        for _ in 0..200 {
            let a = rng.gen_range(0..n as VertexId);
            let b = rng.gen_range(0..n as VertexId);
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if !present.contains(&key) {
                found = Some(key);
                break;
            }
        }
        match found {
            None => break, // graph (near-)complete: no absent pair found
            Some((u, v)) => {
                present.insert((u, v));
                live.push((u, v));
                stream.push(ChurnOp {
                    time,
                    kind: ChurnKind::Insert,
                    u,
                    v,
                });
            }
        }
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(graph: &CsrGraph, stream: &[ChurnOp]) -> std::collections::HashSet<(u32, u32)> {
        let mut edges: std::collections::HashSet<(u32, u32)> = graph
            .vertices()
            .flat_map(|v| {
                graph
                    .neighbors(v)
                    .iter()
                    .filter(move |&&u| v < u)
                    .map(move |&u| (v, u))
            })
            .collect();
        for op in stream {
            match op.kind {
                ChurnKind::Insert => assert!(edges.insert((op.u, op.v)), "insert of live {op:?}"),
                ChurnKind::Delete => {
                    assert!(edges.remove(&(op.u, op.v)), "delete of absent {op:?}")
                }
            }
        }
        edges
    }

    #[test]
    fn stream_is_deterministic_and_valid() {
        let g = crate::er::gnm(200, 400, 3);
        let a = churn_stream(&g, 500, 0.4, 9);
        let b = churn_stream(&g, 500, 0.4, 9);
        assert_eq!(a, b);
        assert_ne!(a, churn_stream(&g, 500, 0.4, 10));
        assert_eq!(a.len(), 500);
        // Timestamps are the stream positions.
        for (i, op) in a.iter().enumerate() {
            assert_eq!(op.time, i as u64);
            assert!(op.u < op.v);
        }
        // Every delete hits a live edge, every insert an absent pair —
        // `apply` asserts both while replaying.
        apply(&g, &a);
    }

    #[test]
    fn delete_fraction_extremes() {
        let g = crate::er::gnm(100, 300, 5);
        let all_inserts = churn_stream(&g, 100, 0.0, 1);
        assert!(all_inserts.iter().all(|op| op.kind == ChurnKind::Insert));
        let all_deletes = churn_stream(&g, 100, 1.0, 1);
        assert!(all_deletes.iter().all(|op| op.kind == ChurnKind::Delete));
        // Deleting more edges than exist drains the graph then inserts.
        let drained = churn_stream(&g, 400, 1.0, 2);
        let deletes = drained
            .iter()
            .filter(|op| op.kind == ChurnKind::Delete)
            .count();
        assert!(deletes >= 300, "can re-delete re-inserted edges");
        apply(&g, &drained);
    }

    #[test]
    fn degenerate_graphs() {
        assert!(churn_stream(&CsrGraph::empty(0), 10, 0.5, 1).is_empty());
        assert!(churn_stream(&CsrGraph::empty(1), 10, 0.5, 1).is_empty());
        // Complete graph: only deletes (and re-inserts) are possible; the
        // insert sampler gives up gracefully when the graph is full.
        let k4 = crate::special::complete(4);
        let stream = churn_stream(&k4, 3, 0.0, 1);
        assert!(stream.is_empty());
    }
}
