//! Graph storage for the semi-external MIS algorithms.
//!
//! The paper's Section 2 fixes the graph representation: a simple undirected
//! graph stored as **adjacency lists on disk**, where the list of each
//! vertex is sorted by ascending *neighbour degree* and — after the
//! preprocessing phase of Algorithm 1 — the records themselves appear in
//! ascending order of vertex degree. The semi-external model allows `O(|V|)`
//! words of main memory (state arrays, degree arrays, ISN sets) but the
//! edge lists may only be **scanned**.
//!
//! This crate provides both sides of that model:
//!
//! * [`CsrGraph`] — an in-memory compressed-sparse-row graph used by the
//!   in-memory baseline (`DynamicUpdate`), by tests, and as the source from
//!   which adjacency files are built;
//! * [`adjfile`] — the on-disk adjacency-list file, one implementation
//!   (writer, reader, record loop) generic over a record codec:
//!   [`AdjFile`] for the plain `MISADJ01` codec and [`CompressedAdjFile`]
//!   for the gap-compressed `MISADJC1` codec of [`compressed`], both
//!   scanned through the block-accounted readers of [`mis_extmem`];
//! * [`GraphScan`] — the streaming interface all semi-external algorithms
//!   are written against, implemented by both representations so every
//!   algorithm can run fully in memory (tests, micro-benchmarks) or against
//!   real files (experiments) with identical code;
//! * [`builder`] — construction: the in-memory edge-list builder, the
//!   adjacency-file writer, the one `(degree, id)` rank
//!   ([`order_by_degree`]) and the degree-sort preprocessing of
//!   Algorithm 1, a bucketed record permutation in `O(|V|)` words;
//! * [`raccess`] — the random-access side, shared by both codecs: a
//!   per-vertex [`RecordIndex`] of byte offsets and [`RandomAccessGraph`],
//!   adjacency reads served through `mis_extmem`'s buffer-pool page cache
//!   for the swap algorithms' paged candidate-verification path;
//! * [`edgelist`] — text edge-list parsing (SNAP-style `u v` lines);
//! * [`hash`] — a small Fx-style hasher for hot `u32`-keyed maps.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjfile;
pub mod anyfile;
pub mod builder;
pub mod compressed;
pub mod csr;
pub mod delta;
pub mod edgelist;
pub mod hash;
pub mod raccess;
pub mod scan;

pub use adjfile::{AdjFile, PlainCodec, RecordCodec, RecordFile, RecordWriter};
pub use anyfile::AnyAdjFile;
pub use builder::{
    build_adj_file, degree_sort_adj_file, degree_sort_compressed_adj_file, order_by_degree,
    GraphBuilder,
};
pub use compressed::{compress_adj, CompressedAdjFile, CompressedAdjWriter, GapCodec};
pub use csr::CsrGraph;
pub use delta::{DeltaOverlay, LastBatch, PinnedDelta, SharedAccess};
pub use raccess::{NeighborAccess, RandomAccessGraph, RecordIndex};
pub use scan::{GraphScan, OrderedCsr};

/// Vertex identifier. Graphs with up to `u32::MAX` vertices are supported;
/// the paper's largest graph (Clueweb12) has 978 million vertices, well
/// within range, and 4-byte ids are exactly the memory-budget assumption of
/// the paper's introduction.
pub type VertexId = u32;
