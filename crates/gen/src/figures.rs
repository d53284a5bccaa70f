//! The worked examples of the paper's figures, as concrete graphs.
//!
//! Each function returns the graph together with the initial independent
//! set the paper's running text assumes, so the swap algorithms can be
//! regression-tested against the exact outcomes the paper narrates.
//! Vertices are 0-indexed (`v1` in the paper is vertex 0 here).
//!
//! The paper's figure images are not machine-readable; where the precise
//! adjacency could not be recovered from the text, the graph below is the
//! *minimal structure consistent with every statement made about the
//! example* (initial states, skeletons found, conflicts raised, final
//! independent set). The swap tests in `mis-core` (`onek`, `twok`,
//! `exact`) and `tests/pipeline.rs` check each narrated outcome.

use mis_graph::{CsrGraph, VertexId};

/// A figure example: graph, the initial independent set assumed by the
/// text, and the final independent set the text reports.
#[derive(Debug, Clone)]
pub struct FigureExample {
    /// The example graph.
    pub graph: CsrGraph,
    /// Initial independent set (paper's premise).
    pub initial_is: Vec<VertexId>,
    /// Final independent set (paper's conclusion), sorted.
    pub expected_is: Vec<VertexId>,
    /// Scan order the paper's narration assumes (`None` = ascending-degree
    /// order). Figure 2's Example 1 spells out its access order explicitly
    /// and the conflict resolution depends on it.
    pub scan_order: Option<Vec<VertexId>>,
}

/// Figure 1: `{v1, v2}` is maximal, `{v2, v3, v4, v5}` is maximum.
///
/// `v1` is the hub of a star over `v3, v4, v5`; `v2` is isolated. Both
/// statements of the figure hold: the independence number is 4.
pub fn figure1() -> FigureExample {
    let graph = CsrGraph::from_edges(5, &[(0, 2), (0, 3), (0, 4)]);
    FigureExample {
        graph,
        initial_is: vec![0, 1],
        expected_is: vec![1, 2, 3, 4],
        scan_order: None,
    }
}

/// Figure 2 / Example 1: the swap-conflict graph.
///
/// `v1` and `v4` are IS; `v1` could swap with `{v2, v3}` and `v4` with
/// `{v5, v6}`, but an edge between the incoming sets (here `v2–v6`) makes
/// the swaps conflict; scan order gives `{v2, v3}` preemption, so the
/// final set is `{v2, v3, v4}`.
pub fn figure2() -> FigureExample {
    let graph = CsrGraph::from_edges(
        6,
        &[
            (0, 1), // v1–v2
            (0, 2), // v1–v3
            (3, 4), // v4–v5
            (3, 5), // v4–v6
            (1, 5), // v2–v6: the conflict edge
        ],
    );
    FigureExample {
        graph,
        initial_is: vec![0, 3],
        expected_is: vec![1, 2, 3],
        // Example 1's access order: v1, v4, v2, v6, v3, v5.
        scan_order: Some(vec![0, 3, 1, 5, 2, 4]),
    }
}

/// Figure 4 / Example 2: the 14-vertex one-k-swap walkthrough.
///
/// Initial IS `{v1, v4, v8, v12, v14}`; skeletons `(v2, v3, v1)` and
/// `(v7, v9, v4)` fire, `v5, v6, v10` are conflicted to state `C`, and the
/// final independent set is `{v2, v3, v7, v8, v9, v12, v14}` — exactly the
/// paper's Figure 4(b).
pub fn figure4() -> FigureExample {
    let graph = CsrGraph::from_edges(
        14,
        &[
            // Block around v1 (0): swap-in candidates v2, v3; conflicted v5, v6.
            (0, 1), // v1–v2
            (0, 2), // v1–v3
            (0, 4), // v1–v5
            (0, 5), // v1–v6
            (1, 4), // v2–v5  (conflict edge)
            (2, 5), // v3–v6  (conflict edge)
            // Block around v4 (3): swap-in candidates v7, v9; conflicted v10.
            (3, 6), // v4–v7
            (3, 8), // v4–v9
            (3, 9), // v4–v10
            (6, 9), // v7–v10 (conflict edge)
            // Stable periphery: v8, v12, v14 stay in the set.
            (7, 10),  // v8–v11
            (10, 11), // v11–v12
            (11, 12), // v12–v13
            (12, 13), // v13–v14
        ],
    );
    FigureExample {
        graph,
        initial_is: vec![0, 3, 7, 11, 13],
        expected_is: vec![1, 2, 6, 7, 8, 11, 13],
        scan_order: None,
    }
}

/// Figure 5: the cascade graph (see [`crate::special::cascade_swap`]);
/// re-exported here with the paper's initial IS `{v1, v4, v7}` so the
/// figure tests live in one place. One-k-swap needs exactly 3 rounds:
/// `v7→{v8,v9}`, then `v4→{v5,v6}`, then `v1→{v2,v3}`.
pub fn figure5() -> FigureExample {
    FigureExample {
        graph: crate::special::cascade_swap(3),
        initial_is: crate::special::cascade_initial_is(3),
        expected_is: vec![1, 2, 4, 5, 7, 8],
        scan_order: None,
    }
}

/// Figure 7 / Example 3: the two-k-swap walkthrough (a 2↔4 swap).
///
/// Initial IS `{v1, v2, v3}`. SC pair `(v4, v5)` forms for `(v2, v3)`;
/// at `v6` the 2-3 swap skeleton `(v4, v5, v6, v2, v3)` fires; `v8`
/// (with `ISN = {v2, v3}`, both now retrograde) joins the swap; `v7`
/// conflicts with `v5` and `v6`. Final set: `{v1, v4, v5, v6, v8}`.
pub fn figure7() -> FigureExample {
    let graph = CsrGraph::from_edges(
        8,
        &[
            (1, 3), // v2–v4
            (2, 3), // v3–v4
            (1, 7), // v2–v8
            (2, 7), // v3–v8
            (1, 4), // v2–v5
            (2, 5), // v3–v6
            (4, 6), // v5–v7
            (5, 6), // v6–v7
            (0, 6), // v1–v7
        ],
    );
    FigureExample {
        graph,
        initial_is: vec![0, 1, 2],
        expected_is: vec![0, 3, 4, 5, 7],
        scan_order: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_independent(example: &FigureExample) {
        for set in [&example.initial_is, &example.expected_is] {
            for &u in set.iter() {
                for &v in set.iter() {
                    assert!(
                        u == v || !example.graph.has_edge(u, v),
                        "edge {u}-{v} inside IS"
                    );
                }
            }
        }
    }

    #[test]
    fn all_examples_have_independent_sets() {
        for ex in [figure1(), figure2(), figure4(), figure5(), figure7()] {
            assert_independent(&ex);
        }
    }

    #[test]
    fn figure1_counts() {
        let ex = figure1();
        assert_eq!(ex.graph.num_vertices(), 5);
        assert_eq!(ex.expected_is.len(), 4, "independence number is four");
    }

    #[test]
    fn figure2_conflict_edge_present() {
        let ex = figure2();
        // The two incoming pairs conflict through v2–v6.
        assert!(ex.graph.has_edge(1, 5));
        // Each incoming pair is itself independent.
        assert!(!ex.graph.has_edge(1, 2));
        assert!(!ex.graph.has_edge(4, 5));
    }

    #[test]
    fn figure4_swaps_grow_by_two() {
        let ex = figure4();
        assert_eq!(ex.initial_is.len(), 5);
        assert_eq!(ex.expected_is.len(), 7);
    }

    #[test]
    fn figure7_is_a_two_four_swap() {
        let ex = figure7();
        assert_eq!(ex.initial_is.len(), 3);
        assert_eq!(ex.expected_is.len(), 5);
        // v4 and v8 see both retiring IS vertices.
        assert!(ex.graph.has_edge(1, 3) && ex.graph.has_edge(2, 3));
        assert!(ex.graph.has_edge(1, 7) && ex.graph.has_edge(2, 7));
    }
}
