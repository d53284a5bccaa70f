//! The memory budget of the Algorithm 1 degree sort.
//!
//! The preprocessing phase of the paper's Greedy algorithm sorts the
//! adjacency file by ascending vertex degree, the `sort(|V|+|E|)` term in
//! its Table 1. Since every vertex's rank fits in the semi-external
//! model's `O(|V|)` words, that sort is a record permutation
//! (`mis_graph::builder`): the ranks are cut into buckets that each fit
//! in memory, distributed to bucket files through [`crate::BlockWriter`]s
//! and placed bucket by bucket. [`SortConfig`] is its budget.

/// The degree sort's memory budget and its bucket files' I/O shape.
#[derive(Debug, Clone)]
pub struct SortConfig {
    /// Most neighbour entries (4 bytes each) one bucket holds in memory.
    /// A vertex with more neighbours than this gets a bucket of its own.
    /// Values below 1 count as 1.
    pub mem_records: usize,
    /// Most bucket files one distribution scan writes at once (the
    /// `M/B` fan-out); more buckets cost one more input scan each
    /// `fan_in` buckets. Values below 1 count as 1.
    pub fan_in: usize,
    /// Block size of the bucket files and the output file.
    pub block_size: usize,
}

impl Default for SortConfig {
    fn default() -> Self {
        Self {
            mem_records: 1 << 20,
            fan_in: 16,
            block_size: crate::block::DEFAULT_BLOCK_SIZE,
        }
    }
}

impl SortConfig {
    /// A small configuration that forces many buckets and distribution
    /// scans in tests.
    pub fn tiny() -> Self {
        Self {
            mem_records: 64,
            fan_in: 4,
            block_size: 256,
        }
    }
}
