//! External-memory priority queue.
//!
//! Zeh's deterministic external maximal-independent-set algorithm \[27\] — the
//! `STXXL` baseline of the paper's evaluation — is *time-forward
//! processing*: vertices are processed in priority order and send messages
//! "forward" to higher-priority neighbours through an external priority
//! queue. [`ExternalPq`] implements the standard design for that queue: an
//! in-memory min-heap of bounded size that spills sorted runs to disk when
//! full, with pops merging the heap against the run heads.
//!
//! Amortised cost is `O(1/B · log_{M/B}(N/B))` I/Os per operation, giving
//! the `O(sort(|V|+|E|))` total the paper quotes for the baseline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::sync::Arc;

use crate::block::{BlockReader, BlockWriter};
use crate::codec;
use crate::scratch::ScratchDir;
use crate::stats::IoStats;

/// A disk-backed min-priority queue of `u32` keys; spilled runs store
/// each key as 4 little-endian bytes.
pub struct ExternalPq {
    heap: BinaryHeap<Reverse<u32>>,
    mem_capacity: usize,
    block_size: usize,
    runs: Vec<PqRun>,
    /// Heads of non-exhausted runs, keyed by (key, run index).
    run_heads: BinaryHeap<Reverse<(u32, usize)>>,
    spilled_remaining: u64,
    scratch: ScratchDir,
    next_run_id: u64,
    stats: Arc<IoStats>,
}

struct PqRun {
    reader: BlockReader<File>,
    remaining: u64,
}

impl PqRun {
    fn next_key(&mut self) -> io::Result<Option<u32>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut buf = [0u8; 4];
        self.reader.read_exact(&mut buf)?;
        self.remaining -= 1;
        Ok(Some(u32::from_le_bytes(buf)))
    }
}

impl ExternalPq {
    /// Creates a queue that keeps at most `mem_capacity` keys in memory.
    pub fn new(mem_capacity: usize, label: &str, stats: Arc<IoStats>) -> io::Result<Self> {
        Self::with_block_size(mem_capacity, label, stats, crate::block::DEFAULT_BLOCK_SIZE)
    }

    /// Creates a queue with an explicit spill-file block size.
    pub fn with_block_size(
        mem_capacity: usize,
        label: &str,
        stats: Arc<IoStats>,
        block_size: usize,
    ) -> io::Result<Self> {
        assert!(mem_capacity >= 1, "memory capacity must be at least 1");
        Ok(Self {
            heap: BinaryHeap::with_capacity(mem_capacity.min(1 << 20)),
            mem_capacity,
            block_size,
            runs: Vec::new(),
            run_heads: BinaryHeap::new(),
            spilled_remaining: 0,
            scratch: ScratchDir::new(&format!("pq-{label}"))?,
            next_run_id: 0,
            stats,
        })
    }

    /// Number of keys currently queued.
    pub fn len(&self) -> u64 {
        self.heap.len() as u64 + self.spilled_remaining
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of runs spilled to disk so far (diagnostic).
    pub fn runs_spilled(&self) -> u64 {
        self.next_run_id
    }

    /// Inserts a key, spilling the in-memory heap if it is full.
    pub fn push(&mut self, key: u32) -> io::Result<()> {
        if self.heap.len() >= self.mem_capacity {
            self.spill()?;
        }
        self.heap.push(Reverse(key));
        Ok(())
    }

    /// Removes and returns the smallest key.
    pub fn pop(&mut self) -> io::Result<Option<u32>> {
        let mem_min = self.heap.peek().map(|Reverse(r)| *r);
        let run_min = self.run_heads.peek().map(|Reverse((r, _))| *r);
        match (mem_min, run_min) {
            (None, None) => Ok(None),
            (Some(_), None) => Ok(self.heap.pop().map(|Reverse(r)| r)),
            (None, Some(_)) => self.pop_run(),
            (Some(m), Some(r)) => {
                if m <= r {
                    Ok(self.heap.pop().map(|Reverse(v)| v))
                } else {
                    self.pop_run()
                }
            }
        }
    }

    /// Returns the smallest key without removing it.
    pub fn peek(&self) -> Option<u32> {
        let mem_min = self.heap.peek().map(|Reverse(r)| *r);
        let run_min = self.run_heads.peek().map(|Reverse((r, _))| *r);
        match (mem_min, run_min) {
            (None, None) => None,
            (Some(m), None) => Some(m),
            (None, Some(r)) => Some(r),
            (Some(m), Some(r)) => Some(m.min(r)),
        }
    }

    fn pop_run(&mut self) -> io::Result<Option<u32>> {
        let Some(Reverse((key, idx))) = self.run_heads.pop() else {
            return Ok(None);
        };
        self.spilled_remaining -= 1;
        if let Some(next) = self.runs[idx].next_key()? {
            self.run_heads.push(Reverse((next, idx)));
        }
        Ok(Some(key))
    }

    fn spill(&mut self) -> io::Result<()> {
        let mut drained: Vec<u32> = self.heap.drain().map(|Reverse(k)| k).collect();
        drained.sort_unstable();
        let path = self
            .scratch
            .file(&format!("pq-run-{}.bin", self.next_run_id));
        self.next_run_id += 1;
        let file = File::create(&path)?;
        let mut w = BlockWriter::with_block_size(file, Arc::clone(&self.stats), self.block_size);
        codec::write_u64(&mut w, drained.len() as u64)?;
        for k in &drained {
            w.write_all(&k.to_le_bytes())?;
        }
        w.finish()?;

        let file = File::open(&path)?;
        let mut reader =
            BlockReader::with_block_size(file, Arc::clone(&self.stats), self.block_size);
        let count = codec::read_u64(&mut reader)?;
        let mut run = PqRun {
            reader,
            remaining: count,
        };
        self.spilled_remaining += count;
        if let Some(head) = run.next_key()? {
            let idx = self.runs.len();
            self.runs.push(run);
            self.run_heads.push(Reverse((head, idx)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_binary_heap_in_memory() {
        let stats = IoStats::shared();
        let mut pq = ExternalPq::new(1000, "mem", stats).unwrap();
        for v in [5u32, 1, 9, 3, 3] {
            pq.push(v).unwrap();
        }
        let mut out = Vec::new();
        while let Some(v) = pq.pop().unwrap() {
            out.push(v);
        }
        assert_eq!(out, vec![1, 3, 3, 5, 9]);
    }

    #[test]
    fn spills_and_merges_correctly() {
        let stats = IoStats::shared();
        let mut pq = ExternalPq::with_block_size(16, "spill", Arc::clone(&stats), 128).unwrap();
        let mut expected = Vec::new();
        for i in 0..500u32 {
            let v = (u64::from(i) * 2654435761 % 10000) as u32;
            pq.push(v).unwrap();
            expected.push(v);
        }
        assert!(pq.runs_spilled() > 0, "must spill with tiny capacity");
        assert_eq!(pq.len(), 500);
        expected.sort_unstable();
        let mut out = Vec::new();
        while let Some(v) = pq.pop().unwrap() {
            out.push(v);
        }
        assert_eq!(out, expected);
        assert!(stats.snapshot().blocks_written > 0);
    }

    #[test]
    fn interleaved_push_pop() {
        let stats = IoStats::shared();
        let mut pq = ExternalPq::with_block_size(8, "inter", stats, 64).unwrap();
        // Push batches with increasing keys, popping between batches — the
        // time-forward-processing access pattern.
        let mut popped = Vec::new();
        for batch in 0..50u32 {
            for j in 0..10u32 {
                pq.push(batch * 100 + j).unwrap();
            }
            // Pop everything below the next batch's range.
            while let Some(head) = pq.peek() {
                if head >= (batch + 1) * 100 {
                    break;
                }
                popped.push(pq.pop().unwrap().unwrap());
            }
        }
        while let Some(v) = pq.pop().unwrap() {
            popped.push(v);
        }
        let expected: Vec<u32> = (0..50u32)
            .flat_map(|batch| (0..10u32).map(move |j| batch * 100 + j))
            .collect();
        assert_eq!(popped, expected);
        assert!(pq.runs_spilled() > 0, "the schedule must spill");
    }

    #[test]
    fn peek_matches_pop() {
        let stats = IoStats::shared();
        let mut pq = ExternalPq::with_block_size(4, "peek", stats, 64).unwrap();
        for v in [9u32, 2, 7, 4, 1, 8, 3] {
            pq.push(v).unwrap();
        }
        while !pq.is_empty() {
            let p = pq.peek().unwrap();
            assert_eq!(pq.pop().unwrap().unwrap(), p);
        }
        assert!(pq.peek().is_none());
    }

    #[test]
    fn empty_pop_is_none() {
        let stats = IoStats::shared();
        let mut pq = ExternalPq::new(4, "empty", stats).unwrap();
        assert!(pq.pop().unwrap().is_none());
        assert!(pq.is_empty());
    }
}
