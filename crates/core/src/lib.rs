//! The semi-external maximum-independent-set algorithms of the paper.
//!
//! Everything here touches the edge set only through
//! [`mis_graph::GraphScan`] — full sequential passes over the adjacency
//! records — plus `O(|V|)` bytes of in-memory state, which is exactly the
//! semi-external model of the paper. The algorithms:
//!
//! | Type | Paper | What it does |
//! |---|---|---|
//! | [`Greedy`] | Algorithm 1 | one scan of the degree-sorted file, lazy exclusion |
//! | [`Baseline`] | §7 BASELINE | Algorithm 1 without the degree sort |
//! | [`OneKSwap`] | Algorithm 2 | exchanges 1 IS vertex for `k ≥ 2` others, rounds of scans |
//! | [`TwoKSwap`] | Algorithms 3–4 | additionally exchanges 2 IS vertices for `k ≥ 3` others |
//! | [`DynamicUpdate`] | §4.1 remark | classical in-memory min-degree greedy \[14\] |
//! | [`TfpMaximalIs`] | §7 STXXL | Zeh's external maximal-IS via time-forward processing \[27\] |
//! | [`upper_bound_scan`] | Algorithm 5 | one-scan star-partition upper bound on α(G) |
//! | [`exact::maximum_independent_set`] | — | exact branch-and-bound for small graphs (test oracle) |
//!
//! Both swap algorithms run through one round driver, [`Swap`], which
//! owns the rounds, the scans and their accounting; each algorithm
//! supplies only its per-record rules. The swaps carry per-round
//! instrumentation ([`SwapStats`]) so the experiment harness can
//! regenerate the paper's Tables 6–8 and Figure 10 (round counts,
//! early-stop profile, SC size, memory model).
//!
//! Every full scan runs through one helper of the [`engine`]: a
//! sequential pass on the calling thread, the paper's access model,
//! recorded as one `pass` span named after the algorithm pass. The
//! algorithms that scan also have fallible `try_*` entry points that
//! return a storage error instead of panicking.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bound;
pub mod cost;
pub mod dynamic;
pub mod engine;
pub mod exact;
pub mod greedy;
pub mod incremental;
pub mod onek;
pub mod order;
pub mod result;
mod swap;
pub mod tfp;
pub mod twok;
pub mod verify;

pub use bound::{
    best_upper_bound, matching_bound, try_matching_bound, try_upper_bound_scan, upper_bound_scan,
};
pub use dynamic::DynamicUpdate;
pub use engine::Executor;
pub use greedy::{Baseline, Greedy};
pub use incremental::{
    repair_updated_set_from_ops, try_repair_since, RepairConfig, UpdateRepairOutcome,
};
pub use onek::OneKSwap;
pub use order::degree_order;
pub use result::{
    MemoryModel, MisResult, RoundStats, SwapConfig, SwapOutcome, SwapStats, DEFAULT_PAGED_THRESHOLD,
};
pub use swap::Swap;
pub use tfp::TfpMaximalIs;
pub use twok::TwoKSwap;
pub use verify::{
    is_independent_set, is_maximal_independent_set, prove_maximal, prove_maximal_with,
    try_prove_maximal, SetProof,
};
