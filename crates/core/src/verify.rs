//! Independence and maximality checks.
//!
//! Both checks are themselves semi-external: one bit per vertex in memory,
//! one sequential scan of the graph (engine pass `proof`), in which every
//! record is judged against the fixed membership bitmap.

use std::io;

use mis_graph::{GraphScan, VertexId};

use crate::engine::{self, Executor};

/// Builds a membership bitmap from a vertex list.
fn membership(n: usize, set: &[VertexId]) -> Vec<bool> {
    let mut member = vec![false; n];
    for &v in set {
        member[v as usize] = true;
    }
    member
}

/// The verdict of one verification scan (see [`prove_maximal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetProof {
    /// No two members of the set are adjacent.
    pub independent: bool,
    /// Every non-member has at least one member neighbour.
    pub maximal: bool,
}

impl SetProof {
    /// Whether the set is a maximal independent set.
    pub fn is_maximal_independent(&self) -> bool {
        self.independent && self.maximal
    }
}

/// Proves (or refutes) in one scan that `set` is a maximal independent
/// set of `graph`, or returns the scan's error. Duplicates in `set` are
/// tolerated.
pub fn try_prove_maximal<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
) -> io::Result<SetProof> {
    let member = membership(graph.num_vertices(), set);
    let mut proof = SetProof {
        independent: true,
        maximal: true,
    };
    engine::pass(graph, "proof", &mut |v, neighbors| {
        let v_in = member[v as usize];
        let touches = neighbors.iter().any(|&u| member[u as usize]);
        if v_in && touches {
            proof.independent = false;
        }
        if !v_in && !touches {
            proof.maximal = false;
        }
    })?;
    Ok(proof)
}

/// [`prove_maximal`]; the executor is ignored (see [`Executor`]).
pub fn prove_maximal_with<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
    _executor: &Executor,
) -> SetProof {
    prove_maximal(graph, set)
}

/// [`try_prove_maximal`], panicking on a storage error.
pub fn prove_maximal<G: GraphScan + ?Sized>(graph: &G, set: &[VertexId]) -> SetProof {
    try_prove_maximal(graph, set).expect("proof: storage read failed")
}

/// Whether `set` is an independent set of `graph` (no two members
/// adjacent). Duplicates in `set` are tolerated.
pub fn is_independent_set<G: GraphScan + ?Sized>(graph: &G, set: &[VertexId]) -> bool {
    prove_maximal(graph, set).independent
}

/// Whether `set` is a *maximal* independent set: independent, and every
/// non-member has at least one member neighbour.
pub fn is_maximal_independent_set<G: GraphScan + ?Sized>(graph: &G, set: &[VertexId]) -> bool {
    prove_maximal(graph, set).is_maximal_independent()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::CsrGraph;

    fn path4() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn independence_detects_edges() {
        let g = path4();
        assert!(is_independent_set(&g, &[0, 2]));
        assert!(is_independent_set(&g, &[0, 3]));
        assert!(!is_independent_set(&g, &[0, 1]));
        assert!(is_independent_set(&g, &[]));
    }

    #[test]
    fn maximality_requires_domination() {
        let g = path4();
        assert!(is_maximal_independent_set(&g, &[0, 2]));
        assert!(is_maximal_independent_set(&g, &[1, 3]));
        // {0, 3} is independent but vertex 1..2 — wait, 1 touches 0, 2
        // touches 3: it IS maximal.
        assert!(is_maximal_independent_set(&g, &[0, 3]));
        // {1} leaves vertex 3 untouched.
        assert!(!is_maximal_independent_set(&g, &[1]));
        // Non-independent sets are never maximal independent sets.
        assert!(!is_maximal_independent_set(&g, &[0, 1, 3]));
    }

    #[test]
    fn isolated_vertices_must_be_included() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        assert!(!is_maximal_independent_set(&g, &[0]));
        assert!(is_maximal_independent_set(&g, &[0, 2]));
    }

    #[test]
    fn empty_graph_empty_set_is_maximal() {
        let g = CsrGraph::empty(0);
        assert!(is_maximal_independent_set(&g, &[]));
    }

    #[test]
    fn proof_reports_both_verdicts() {
        let g = path4();
        let proof = prove_maximal(&g, &[0, 2]);
        assert!(proof.independent && proof.maximal);
        assert!(proof.is_maximal_independent());
        let proof = prove_maximal(&g, &[0, 1]);
        assert!(!proof.independent);
        let proof = prove_maximal(&g, &[1]);
        assert!(proof.independent && !proof.maximal);
        assert!(!proof.is_maximal_independent());
    }
}
