//! How the algorithms scan: every pass is one sequential scan on the
//! calling thread.
//!
//! Every algorithm in this crate is a composition of full sequential
//! passes over the adjacency records (see [`mis_graph::GraphScan`]) and,
//! in the swap rounds, paged reads of a candidate list. Each full scan
//! goes through one helper, `pass`: it runs the scan in storage order
//! and records it as one span of category `"pass"` named after the
//! algorithm pass (`greedy`, `twok.pre`, `proof`, …). A trace therefore
//! holds one `pass` span per accounted scan.
//!
//! The paper's access model is sequential, and so is this engine. A
//! block pipeline used to run here: a reader thread handed decoded
//! record blocks over a bounded queue to fold workers. On a two-thread
//! machine it measured slower than the sequential path for both record
//! codecs and cost more memory, so it was removed, as two earlier
//! parallel backends had been. [`Executor`] remains as the name callers
//! pass; every value of it runs the sequential path.

use std::io;
use std::num::NonZeroUsize;

use mis_graph::{GraphScan, VertexId};

pub mod passes;

/// The hardware parallelism of this machine (1 when unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// How a caller asks for its scans to run. Every scan runs sequentially
/// on the calling thread, so this has one value; the calls that take an
/// executor ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// Fold every record on the calling thread, in storage order.
    #[default]
    Sequential,
}

impl Executor {
    /// [`Executor::Sequential`], whatever `threads` is.
    pub fn parallel(_threads: usize) -> Self {
        Executor::Sequential
    }

    /// Short human-readable description (`seq`).
    pub fn describe(&self) -> String {
        "seq".to_string()
    }
}

/// Runs one full scan of `graph` in storage order, recorded as a span of
/// category `"pass"` named `name`.
pub(crate) fn pass<G: GraphScan + ?Sized>(
    graph: &G,
    name: &'static str,
    f: &mut dyn FnMut(VertexId, &[VertexId]),
) -> io::Result<()> {
    let _span = mis_obs::span("pass", name);
    graph.scan(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::{CsrGraph, OrderedCsr};

    #[test]
    fn executor_accessors() {
        assert_eq!(Executor::Sequential.describe(), "seq");
        assert_eq!(Executor::parallel(4), Executor::Sequential);
        assert_eq!(Executor::default(), Executor::Sequential);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn empty_graph_passes() {
        let g = CsrGraph::empty(0);
        let mut visited = 0u32;
        pass(&g, "test", &mut |_, _| visited += 1).unwrap();
        assert_eq!(visited, 0);
        assert_eq!(passes::try_degree_stats(&g).unwrap().records, 0);
    }

    #[test]
    fn a_pass_sees_storage_order() {
        let g = mis_gen::plrg::Plrg::with_vertices(500, 2.0)
            .seed(3)
            .generate();
        let ordered = OrderedCsr::degree_sorted(&g);
        let mut seen = Vec::new();
        pass(&ordered, "test", &mut |v, _| seen.push(v)).unwrap();
        assert_eq!(seen, ordered.order());
    }
}
