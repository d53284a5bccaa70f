//! Algorithm 1: the semi-external greedy, and the unsorted Baseline.
//!
//! One sequential pass over the adjacency records in storage order. A
//! vertex still `INITIAL` when its record arrives joins the independent
//! set and all of its neighbours are *lazily* excluded — no dynamic degree
//! updates, hence no random access. Run against a degree-sorted scan this
//! is the paper's GREEDY; against an arbitrary order it is the BASELINE
//! of Section 7.
//!
//! The paper's pseudo-code (line 8) sets neighbours to `IS`; that is a
//! typo for the excluded state — the intended algorithm (and this
//! implementation) marks them ineligible.

use std::io;

use mis_graph::{GraphScan, VertexId};

use crate::engine::{self, Executor};
use crate::result::{MemoryModel, MisResult};

/// Per-vertex state of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum State {
    /// Not yet reached by the scan.
    Initial = 0,
    /// Selected into the independent set.
    Is = 1,
    /// Adjacent to a selected vertex; can never join.
    Excluded = 2,
}

/// The semi-external greedy algorithm (Algorithm 1).
///
/// Scans in the storage order of the provided [`GraphScan`]; pair with a
/// degree-sorted file (or [`mis_graph::OrderedCsr::degree_sorted`]) for
/// the paper's GREEDY behaviour. The scan is one engine pass named
/// `greedy`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy;

impl Greedy {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }

    /// Creates the algorithm; the executor is ignored (see
    /// [`Executor`]).
    pub fn with_executor(_executor: Executor) -> Self {
        Self
    }

    /// Runs one pass and returns a **maximal** independent set. Panics
    /// on a storage error; see [`Greedy::try_run`].
    pub fn run<G: GraphScan + ?Sized>(&self, graph: &G) -> MisResult {
        self.try_run(graph).expect("greedy: storage read failed")
    }

    /// Runs one pass and returns a **maximal** independent set, or the
    /// scan's error.
    pub fn try_run<G: GraphScan + ?Sized>(&self, graph: &G) -> io::Result<MisResult> {
        Ok(self.try_run_observing_order(graph)?.0)
    }

    /// [`Greedy::try_run`], also reporting whether the records arrived in
    /// ascending-degree order — whether the pass ran as the paper's
    /// GREEDY rather than as a BASELINE over an unsorted file.
    pub fn try_run_observing_order<G: GraphScan + ?Sized>(
        &self,
        graph: &G,
    ) -> io::Result<(MisResult, bool)> {
        let n = graph.num_vertices();
        let mut state = vec![State::Initial; n];
        let (mut last_degree, mut degree_sorted) = (0, true);
        engine::pass(graph, "greedy", &mut |v, ns| {
            degree_sorted &= ns.len() >= last_degree;
            last_degree = ns.len();
            if state[v as usize] == State::Initial {
                state[v as usize] = State::Is;
                for &u in ns {
                    if state[u as usize] == State::Initial {
                        state[u as usize] = State::Excluded;
                    }
                }
            }
        })?;

        let set: Vec<VertexId> = state
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == State::Is)
            .map(|(v, _)| v as VertexId)
            .collect();
        let result = MisResult {
            set,
            file_scans: 1,
            memory: MemoryModel {
                state_bytes: n as u64,
                ..MemoryModel::default()
            },
        };
        Ok((result, degree_sorted))
    }
}

/// The BASELINE of Section 7: Algorithm 1 run in plain storage order,
/// without the degree-sort preprocessing. A thin, self-documenting wrapper
/// around [`Greedy`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Baseline;

impl Baseline {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }

    /// Runs one pass in the scan's storage order.
    pub fn run<G: GraphScan + ?Sized>(&self, graph: &G) -> MisResult {
        Greedy.run(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{is_independent_set, is_maximal_independent_set};
    use mis_graph::{CsrGraph, OrderedCsr};

    #[test]
    fn star_greedy_takes_leaves_first() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let sorted = OrderedCsr::degree_sorted(&g);
        let result = Greedy::new().run(&sorted);
        assert_eq!(result.set, vec![1, 2, 3, 4]);
        assert_eq!(result.file_scans, 1);
    }

    #[test]
    fn the_pass_observes_whether_records_arrive_degree_sorted() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let (sorted, in_order) = Greedy::new()
            .try_run_observing_order(&OrderedCsr::degree_sorted(&g))
            .unwrap();
        assert!(in_order);
        assert_eq!(sorted, Greedy::new().run(&OrderedCsr::degree_sorted(&g)));
        // Id order reaches the hub (degree 4) before the leaves.
        assert!(!Greedy::new().try_run_observing_order(&g).unwrap().1);
    }

    #[test]
    fn star_baseline_takes_hub() {
        // Id order reaches the hub first: the unsorted baseline gets the
        // far smaller set — the paper's Table 5 phenomenon in miniature.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let result = Baseline::new().run(&g);
        assert_eq!(result.set, vec![0]);
    }

    #[test]
    fn result_is_always_maximal() {
        let g = CsrGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
                (0, 4),
            ],
        );
        for result in [
            Greedy::new().run(&OrderedCsr::degree_sorted(&g)),
            Baseline::new().run(&g),
        ] {
            assert!(is_independent_set(&g, &result.set));
            assert!(is_maximal_independent_set(&g, &result.set));
        }
    }

    #[test]
    fn isolated_vertices_always_join() {
        let g = CsrGraph::from_edges(4, &[(1, 2)]);
        let result = Baseline::new().run(&g);
        assert!(result.set.contains(&0));
        assert!(result.set.contains(&3));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(0);
        assert!(Greedy::new().run(&g).set.is_empty());
    }

    #[test]
    fn memory_model_is_one_byte_per_vertex() {
        let g = CsrGraph::empty(1000);
        let result = Greedy::new().run(&g);
        assert_eq!(result.memory.state_bytes, 1000);
        assert_eq!(result.memory.total(), 1000);
    }
}
