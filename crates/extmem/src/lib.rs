//! External-memory substrate for the semi-external MIS algorithms.
//!
//! The VLDB'15 paper *Towards Maximum Independent Sets on Massive Graphs*
//! assumes the standard external-memory cost model: data moves between a
//! main memory of size `M` and a disk in blocks of size `B`, and the cost of
//! an algorithm is the number of block transfers (I/Os). Its algorithms are
//! designed to touch the disk only through **sequential scans** of the
//! adjacency file, plus one sort by degree in the preprocessing phase.
//!
//! This crate is that disk. It provides:
//!
//! * [`IoStats`] — shared atomic counters of block/byte transfers and scans,
//!   so every experiment can report the paper's I/O cost measure exactly,
//!   independent of the operating system's page cache;
//! * [`BlockReader`] / [`BlockWriter`] — the sequential reader and writer
//!   that move data in fixed-size blocks and account each block transfer.
//!   [`BlockReader`] is the one reader of every scan: it exposes its
//!   unconsumed bytes as a slice, the record codecs parse the header and
//!   frame records straight off it, and each refill appends one block
//!   behind them. Its `Read` impl serves the fixed-width readers (the
//!   degree sort's bucket files, the priority queue's runs);
//! * [`SortConfig`] — the memory budget of the degree sort
//!   (`mis_graph::builder`), a semi-external record permutation: buckets
//!   of at most `mem_records` neighbour entries, at most `fan_in` bucket
//!   files per distribution scan;
//! * [`pq::ExternalPq`] — an external priority queue of `u32` keys
//!   (in-memory heap with sorted overflow runs), the data structure
//!   behind Zeh's external maximal-independent-set algorithm that the
//!   paper benchmarks as `STXXL`;
//! * [`pager::BufferPool`] — a buffer-pool page cache (frame table,
//!   CLOCK eviction) over a seekable source, for the
//!   random-access reads that sequential scans cannot serve cheaply;
//! * [`ScratchDir`] — self-cleaning scratch space for spill files.
//!
//! Everything here is deliberately dependency-free: the file formats are
//! hand-rolled little-endian, which keeps the block accounting honest.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod codec;
pub mod pager;
pub mod pq;
pub mod scratch;
pub mod sort;
pub mod stats;
pub mod varint;

pub use block::{BlockReader, BlockWriter, DEFAULT_BLOCK_SIZE};
pub use pager::{BufferPool, FilePageSource, PageSource, PagerConfig, PolicyKind};
pub use pq::ExternalPq;
pub use scratch::ScratchDir;
pub use sort::SortConfig;
pub use stats::{IoSnapshot, IoStats};
