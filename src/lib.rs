//! # semi-mis — Maximum Independent Sets on Massive Graphs
//!
//! A complete Rust reproduction of *Towards Maximum Independent Sets on
//! Massive Graphs* (Liu, Lu, Yang, Xiao, Wei — PVLDB 8(13), 2015).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`extmem`] — external-memory substrate (block-accounted I/O, external
//!   sort, external priority queue, buffer-pool page cache);
//! * [`graph`] — graph storage (in-memory CSR, the semi-external
//!   adjacency-list file of the paper's Section 2, and the
//!   `RandomAccessGraph` paged access path over it);
//! * [`gen`] — graph generators, including the `P(α,β)` power-law random
//!   graph model and synthetic analogues of the paper's datasets;
//! * [`algo`] — the algorithms: semi-external `Greedy`, `OneKSwap`,
//!   `TwoKSwap`, plus the `Baseline`, `DynamicUpdate` and time-forward
//!   processing (`STXXL`-style) comparison points, Algorithm 5's upper
//!   bound, and an exact solver for small graphs;
//! * [`update`] — the durable edge-update subsystem: write-ahead edge
//!   log, independent-set checkpoints, incremental maintenance from the
//!   last checkpoint, log compaction and the `mis serve` engine. Both
//!   read the edited graph through one view ([`graph::PinnedDelta`],
//!   in the prelude) and repair through one function
//!   ([`algo::try_repair_since`]; its panicking form
//!   [`algo::repair_updated_set_from_ops`] is in the prelude);
//! * [`theory`] — the paper's analytic formulas on `P(α,β)`;
//! * [`obs`] — low-overhead observability: span tracing, log-bucketed
//!   latency histograms and counters, exported as Chrome-trace JSONL
//!   (`mis run --trace`, `mis trace report`).
//!
//! ## Quickstart
//!
//! ```
//! use semi_mis::prelude::*;
//!
//! // Generate a small power-law graph and run the full pipeline:
//! // greedy on the degree-sorted scan order, then two-k swaps.
//! let graph = semi_mis::gen::Plrg::with_vertices(2_000, 2.0).seed(7).generate();
//! let scan = OrderedCsr::degree_sorted(&graph);
//! let greedy = Greedy::new().run(&scan);
//! let swapped = TwoKSwap::new().run(&scan, &greedy.set);
//!
//! assert!(swapped.result.set.len() >= greedy.set.len());
//! assert!(is_independent_set(&graph, &swapped.result.set));
//! assert!(is_maximal_independent_set(&graph, &swapped.result.set));
//!
//! // Compare against the Algorithm 5 upper bound.
//! let bound = upper_bound_scan(&scan);
//! assert!(swapped.result.set.len() as u64 <= bound);
//! ```
//!
//! To run against a real on-disk adjacency file instead, build one with
//! [`graph::build_adj_file`], degree-sort it with
//! [`graph::degree_sort_adj_file`], and pass the resulting
//! [`graph::AdjFile`] to the same algorithms — every scan is then
//! accounted in block transfers (see `examples/semi_external.rs`).

pub use mis_core as algo;
pub use mis_extmem as extmem;
pub use mis_gen as gen;
pub use mis_graph as graph;
pub use mis_obs as obs;
pub use mis_theory as theory;
pub use mis_update as update;

/// Convenience re-exports covering the common pipeline.
pub mod prelude {
    pub use mis_core::{
        degree_order, engine, is_independent_set, is_maximal_independent_set, prove_maximal,
        try_prove_maximal, upper_bound_scan, Baseline, DynamicUpdate, Greedy, OneKSwap, SwapConfig,
        TfpMaximalIs, TwoKSwap, DEFAULT_PAGED_THRESHOLD,
    };
    pub use mis_core::{repair_updated_set_from_ops, RepairConfig};
    pub use mis_extmem::{IoStats, PagerConfig, PolicyKind, ScratchDir};
    pub use mis_graph::{
        AdjFile, CsrGraph, GraphScan, NeighborAccess, OrderedCsr, PinnedDelta, RandomAccessGraph,
        VertexId,
    };
    pub use mis_update::{EdgeOp, UpdateStore};
}
