//! The STXXL baseline: external maximal independent set via time-forward
//! processing (Zeh \[27\], Abello et al. \[2\]).
//!
//! Vertices are processed in ascending id order. A vertex joins the
//! independent set iff no already-processed (lower-id) neighbour joined;
//! each joining vertex *sends a message forward* to every higher-id
//! neighbour through an external priority queue keyed by recipient. The
//! queue is the only inter-record state, so the memory footprint is the
//! queue's in-memory budget — the rest spills to disk, giving the
//! `O(sort(|V| + |E|))` I/O bound the paper quotes in Table 1.
//!
//! The quality matches an arbitrary-order greedy (the paper's Table 5
//! shows it trailing GREEDY and both swap algorithms), because it cannot
//! exploit degree information.

use std::io;
use std::sync::Arc;

use mis_extmem::{ExternalPq, IoStats};
use mis_graph::{GraphScan, VertexId};

use crate::result::{MemoryModel, MisResult};

/// Time-forward-processing maximal independent set.
#[derive(Debug, Clone)]
pub struct TfpMaximalIs {
    /// In-memory message budget of the external priority queue (records).
    pub pq_memory_records: usize,
}

impl Default for TfpMaximalIs {
    fn default() -> Self {
        Self {
            pq_memory_records: 1 << 16,
        }
    }
}

impl TfpMaximalIs {
    /// With the default queue budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// With an explicit in-memory message budget.
    pub fn with_pq_memory(pq_memory_records: usize) -> Self {
        Self { pq_memory_records }
    }

    /// Runs time-forward processing over `graph`.
    ///
    /// The scan **must** deliver records in ascending vertex-id order
    /// (the natural order of a freshly built adjacency file); an error is
    /// returned otherwise, because messages would arrive after their
    /// recipient was processed.
    pub fn run<G: GraphScan + ?Sized>(
        &self,
        graph: &G,
        stats: Arc<IoStats>,
    ) -> io::Result<MisResult> {
        let n = graph.num_vertices();
        let mut in_set = vec![false; n];
        // Messages are recipient ids; receiving any message means "one of
        // your lower neighbours joined".
        let mut pq = ExternalPq::new(self.pq_memory_records, "tfp", Arc::clone(&stats))?;

        let mut order_violation: Option<(VertexId, VertexId)> = None;
        let mut last: Option<VertexId> = None;
        let mut pq_error: Option<io::Error> = None;

        graph.scan(&mut |v, ns| {
            if pq_error.is_some() || order_violation.is_some() {
                return;
            }
            if let Some(prev) = last {
                if prev >= v {
                    order_violation = Some((prev, v));
                    return;
                }
            }
            last = Some(v);

            // Drain messages addressed to v.
            let mut blocked = false;
            loop {
                match pq.peek() {
                    Some(target) if target < v => {
                        // Stale message for a skipped id: impossible when
                        // ids are dense, but drain defensively.
                        let _ = pq.pop();
                    }
                    Some(target) if target == v => {
                        let _ = pq.pop();
                        blocked = true;
                    }
                    _ => break,
                }
            }
            if !blocked {
                in_set[v as usize] = true;
                for &u in ns {
                    if u > v {
                        if let Err(e) = pq.push(u) {
                            pq_error = Some(e);
                            return;
                        }
                    }
                }
            }
        })?;

        if let Some(e) = pq_error {
            return Err(e);
        }
        if let Some((prev, v)) = order_violation {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("time-forward processing needs ascending ids, saw {prev} then {v}"),
            ));
        }

        let set: Vec<VertexId> = (0..n as VertexId).filter(|&v| in_set[v as usize]).collect();
        Ok(MisResult {
            set,
            file_scans: 1,
            memory: MemoryModel {
                state_bytes: n as u64,
                aux_bytes: 4 * self.pq_memory_records as u64,
                ..MemoryModel::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximal_independent_set;
    use mis_graph::{CsrGraph, OrderedCsr};

    #[test]
    fn matches_id_order_greedy() {
        // TFP in id order selects exactly the lexicographically-first MIS,
        // same as the unsorted Baseline on an id-ordered scan.
        let g = mis_gen::er::gnm(300, 900, 3);
        let stats = IoStats::shared();
        let tfp = TfpMaximalIs::new().run(&g, stats).unwrap();
        let baseline = crate::greedy::Baseline::new().run(&g);
        assert_eq!(tfp.set, baseline.set);
    }

    #[test]
    fn result_is_maximal() {
        for seed in 0..3 {
            let g = mis_gen::plrg::Plrg::with_vertices(1_000, 2.2)
                .seed(seed)
                .generate();
            let stats = IoStats::shared();
            let result = TfpMaximalIs::new().run(&g, stats).unwrap();
            assert!(is_maximal_independent_set(&g, &result.set), "seed {seed}");
        }
    }

    #[test]
    fn tiny_queue_budget_spills_and_still_agrees() {
        let g = mis_gen::er::gnm(400, 2000, 9);
        let stats = IoStats::shared();
        let spilling = TfpMaximalIs::with_pq_memory(8)
            .run(&g, Arc::clone(&stats))
            .unwrap();
        let roomy = TfpMaximalIs::new().run(&g, IoStats::shared()).unwrap();
        assert_eq!(spilling.set, roomy.set);
        assert!(
            stats.snapshot().blocks_written > 0,
            "tiny budget must spill"
        );
    }

    #[test]
    fn rejects_non_ascending_scan() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let reversed = OrderedCsr::new(&g, vec![3, 2, 1, 0]);
        let err = TfpMaximalIs::new()
            .run(&reversed, IoStats::shared())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(0);
        let result = TfpMaximalIs::new().run(&g, IoStats::shared()).unwrap();
        assert!(result.set.is_empty());
    }
}
