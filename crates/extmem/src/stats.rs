//! Shared I/O accounting in the external-memory cost model.
//!
//! The paper reports algorithm cost as a number of sequential scans and the
//! derived block-transfer count `scan(|V|+|E|) = (|V|+|E|)/B`. Operating
//! systems hide actual disk traffic behind page caches, so instead of trying
//! to observe the hardware we count transfers at the point where the
//! algorithms issue them: every [`crate::BlockReader`] refill and every
//! [`crate::BlockWriter`] flush bumps these counters.

use std::fmt;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Atomic I/O counters shared by all streams of one experiment.
///
/// Cloning the surrounding [`Arc`] is the intended sharing mechanism; see
/// [`IoStats::shared`].
#[derive(Debug, Default)]
pub struct IoStats {
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    scans_started: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    wal_bytes_written: AtomicU64,
    wal_bytes_read: AtomicU64,
    checkpoints_written: AtomicU64,
    checkpoints_read: AtomicU64,
}

impl IoStats {
    /// Creates a fresh, zeroed counter set behind an [`Arc`].
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records `bytes` read as part of one block transfer.
    pub fn record_block_read(&self, bytes: u64) {
        self.blocks_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `bytes` written as part of one block transfer.
    pub fn record_block_write(&self, bytes: u64) {
        self.blocks_written.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Marks the start of one sequential scan of a file.
    ///
    /// The swap algorithms call this once per pass so that experiments can
    /// report "number of iterations of scan" exactly as the paper's
    /// Section 7.4 does.
    pub fn record_scan(&self) {
        self.scans_started.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one buffer-pool page request served from a resident frame.
    ///
    /// A hit costs no block transfer; the hit/miss split is how the pager
    /// relates to the paper's cost model — only misses turn into the block
    /// transfers that `scan(|V|+|E|)` counts.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one buffer-pool page request that had to go to the source
    /// (the subsequent page fill is also counted via
    /// [`IoStats::record_block_read`]).
    pub fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one buffer-pool frame eviction.
    pub fn record_cache_eviction(&self) {
        self.cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `bytes` appended to a write-ahead update log.
    ///
    /// WAL traffic is strictly sequential appends, so it is tallied by
    /// bytes rather than block transfers: the log's cost in the paper's
    /// model is `wal_bytes / B` amortised over many small records, and
    /// folding it into `blocks_written` would double-charge the flushes.
    pub fn record_wal_write(&self, bytes: u64) {
        self.wal_bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `bytes` read while replaying or recovering a write-ahead
    /// update log.
    pub fn record_wal_read(&self, bytes: u64) {
        self.wal_bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one independent-set checkpoint written to disk.
    pub fn record_checkpoint_write(&self) {
        self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one independent-set checkpoint loaded from disk.
    pub fn record_checkpoint_read(&self) {
        self.checkpoints_read.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a snapshot of counters into this set — the aggregation hook
    /// for work that was tallied against a *different* `IoStats` (a
    /// sub-experiment run with fresh counters, a store opened with its
    /// own stats) and needs to land in one combined total. Threads that
    /// share one `Arc<IoStats>` do not need it: they tally through the
    /// atomic counters. Merging is likewise safe from any thread.
    pub fn merge(&self, delta: &IoSnapshot) {
        self.blocks_read
            .fetch_add(delta.blocks_read, Ordering::Relaxed);
        self.blocks_written
            .fetch_add(delta.blocks_written, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(delta.bytes_read, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(delta.bytes_written, Ordering::Relaxed);
        self.scans_started
            .fetch_add(delta.scans_started, Ordering::Relaxed);
        self.cache_hits
            .fetch_add(delta.cache_hits, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(delta.cache_misses, Ordering::Relaxed);
        self.cache_evictions
            .fetch_add(delta.cache_evictions, Ordering::Relaxed);
        self.wal_bytes_written
            .fetch_add(delta.wal_bytes_written, Ordering::Relaxed);
        self.wal_bytes_read
            .fetch_add(delta.wal_bytes_read, Ordering::Relaxed);
        self.checkpoints_written
            .fetch_add(delta.checkpoints_written, Ordering::Relaxed);
        self.checkpoints_read
            .fetch_add(delta.checkpoints_read, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            scans_started: self.scans_started.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            wal_bytes_written: self.wal_bytes_written.load(Ordering::Relaxed),
            wal_bytes_read: self.wal_bytes_read.load(Ordering::Relaxed),
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            checkpoints_read: self.checkpoints_read.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.blocks_read.store(0, Ordering::Relaxed);
        self.blocks_written.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.scans_started.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.cache_evictions.store(0, Ordering::Relaxed);
        self.wal_bytes_written.store(0, Ordering::Relaxed);
        self.wal_bytes_read.store(0, Ordering::Relaxed);
        self.checkpoints_written.store(0, Ordering::Relaxed);
        self.checkpoints_read.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`IoStats`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Number of block-granularity reads issued.
    pub blocks_read: u64,
    /// Number of block-granularity writes issued.
    pub blocks_written: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Number of sequential scans started (see [`IoStats::record_scan`]).
    pub scans_started: u64,
    /// Buffer-pool page requests served from a resident frame.
    pub cache_hits: u64,
    /// Buffer-pool page requests that went to the backing source.
    pub cache_misses: u64,
    /// Buffer-pool frames evicted to make room.
    pub cache_evictions: u64,
    /// Bytes appended to write-ahead update logs.
    pub wal_bytes_written: u64,
    /// Bytes read back from write-ahead update logs (replay/recovery).
    pub wal_bytes_read: u64,
    /// Independent-set checkpoints written.
    pub checkpoints_written: u64,
    /// Independent-set checkpoints loaded.
    pub checkpoints_read: u64,
}

impl IoSnapshot {
    /// Total block transfers in either direction.
    pub fn total_blocks(&self) -> u64 {
        self.blocks_read + self.blocks_written
    }

    /// Buffer-pool hit rate in `[0, 1]`; `0.0` when no requests were
    /// made (a cache that served nothing gets no credit).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Emits the snapshot's non-zero counters into the active trace
    /// (one `Counter` event each, named after the field) under category
    /// `cat`. A no-op while the trace sink is disabled — callers can
    /// emit unconditionally.
    pub fn emit_trace(&self, cat: &'static str) {
        if !mis_obs::enabled() {
            return;
        }
        let fields: [(&'static str, u64); 12] = [
            ("blocks_read", self.blocks_read),
            ("blocks_written", self.blocks_written),
            ("bytes_read", self.bytes_read),
            ("bytes_written", self.bytes_written),
            ("scans_started", self.scans_started),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
            ("wal_bytes_written", self.wal_bytes_written),
            ("wal_bytes_read", self.wal_bytes_read),
            ("checkpoints_written", self.checkpoints_written),
            ("checkpoints_read", self.checkpoints_read),
        ];
        for (name, value) in fields {
            if value > 0 {
                mis_obs::counter(cat, name, value as f64);
            }
        }
        if self.cache_hits + self.cache_misses > 0 {
            mis_obs::counter(cat, "cache_hit_rate", self.cache_hit_rate());
        }
    }

    /// Counter-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            blocks_read: self.blocks_read.saturating_sub(earlier.blocks_read),
            blocks_written: self.blocks_written.saturating_sub(earlier.blocks_written),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            scans_started: self.scans_started.saturating_sub(earlier.scans_started),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            wal_bytes_written: self
                .wal_bytes_written
                .saturating_sub(earlier.wal_bytes_written),
            wal_bytes_read: self.wal_bytes_read.saturating_sub(earlier.wal_bytes_read),
            checkpoints_written: self
                .checkpoints_written
                .saturating_sub(earlier.checkpoints_written),
            checkpoints_read: self
                .checkpoints_read
                .saturating_sub(earlier.checkpoints_read),
        }
    }
}

impl AddAssign for IoSnapshot {
    /// Counter-wise sum — the inverse of [`IoSnapshot::since`], used to
    /// aggregate per-phase or per-thread snapshots into one total.
    fn add_assign(&mut self, rhs: IoSnapshot) {
        self.blocks_read += rhs.blocks_read;
        self.blocks_written += rhs.blocks_written;
        self.bytes_read += rhs.bytes_read;
        self.bytes_written += rhs.bytes_written;
        self.scans_started += rhs.scans_started;
        self.cache_hits += rhs.cache_hits;
        self.cache_misses += rhs.cache_misses;
        self.cache_evictions += rhs.cache_evictions;
        self.wal_bytes_written += rhs.wal_bytes_written;
        self.wal_bytes_read += rhs.wal_bytes_read;
        self.checkpoints_written += rhs.checkpoints_written;
        self.checkpoints_read += rhs.checkpoints_read;
    }
}

impl fmt::Display for IoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} blocks read ({} B), {} blocks written ({} B), {} scans",
            self.blocks_read,
            self.bytes_read,
            self.blocks_written,
            self.bytes_written,
            self.scans_started
        )?;
        if self.cache_hits + self.cache_misses > 0 {
            write!(
                f,
                ", cache {}/{} hits ({:.1}%), {} evictions",
                self.cache_hits,
                self.cache_hits + self.cache_misses,
                100.0 * self.cache_hit_rate(),
                self.cache_evictions
            )?;
        }
        if self.wal_bytes_written + self.wal_bytes_read > 0 {
            write!(
                f,
                ", wal {} B written / {} B read",
                self.wal_bytes_written, self.wal_bytes_read
            )?;
        }
        if self.checkpoints_written + self.checkpoints_read > 0 {
            write!(
                f,
                ", checkpoints {} written / {} read",
                self.checkpoints_written, self.checkpoints_read
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = IoStats::shared();
        stats.record_block_read(512);
        stats.record_block_read(512);
        stats.record_block_write(100);
        stats.record_scan();
        let snap = stats.snapshot();
        assert_eq!(snap.blocks_read, 2);
        assert_eq!(snap.bytes_read, 1024);
        assert_eq!(snap.blocks_written, 1);
        assert_eq!(snap.bytes_written, 100);
        assert_eq!(snap.scans_started, 1);
        assert_eq!(snap.total_blocks(), 3);
    }

    #[test]
    fn since_subtracts() {
        let stats = IoStats::shared();
        stats.record_block_read(10);
        let first = stats.snapshot();
        stats.record_block_read(10);
        stats.record_block_write(4);
        let second = stats.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.blocks_read, 1);
        assert_eq!(delta.blocks_written, 1);
        assert_eq!(delta.bytes_written, 4);
    }

    #[test]
    fn reset_zeroes() {
        let stats = IoStats::shared();
        stats.record_block_read(10);
        stats.record_scan();
        stats.reset();
        assert_eq!(stats.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn display_is_readable() {
        let stats = IoStats::shared();
        stats.record_block_read(8);
        let text = stats.snapshot().to_string();
        assert!(text.contains("1 blocks read"));
        // No cache traffic: the cache section is omitted entirely.
        assert!(!text.contains("cache"));
    }

    #[test]
    fn wal_and_checkpoint_counters() {
        let stats = IoStats::shared();
        let text = stats.snapshot().to_string();
        // Quiet counters keep the summary free of wal/checkpoint noise.
        assert!(!text.contains("wal"));
        assert!(!text.contains("checkpoints"));
        stats.record_wal_write(100);
        stats.record_wal_write(28);
        stats.record_wal_read(64);
        stats.record_checkpoint_write();
        stats.record_checkpoint_read();
        stats.record_checkpoint_read();
        let first = stats.snapshot();
        assert_eq!(first.wal_bytes_written, 128);
        assert_eq!(first.wal_bytes_read, 64);
        assert_eq!(first.checkpoints_written, 1);
        assert_eq!(first.checkpoints_read, 2);
        let text = first.to_string();
        assert!(text.contains("wal 128 B written / 64 B read"));
        assert!(text.contains("checkpoints 1 written / 2 read"));
        stats.record_wal_write(10);
        stats.record_checkpoint_write();
        let delta = stats.snapshot().since(&first);
        assert_eq!(delta.wal_bytes_written, 10);
        assert_eq!(delta.wal_bytes_read, 0);
        assert_eq!(delta.checkpoints_written, 1);
        stats.reset();
        assert_eq!(stats.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn add_assign_is_inverse_of_since() {
        let stats = IoStats::shared();
        stats.record_block_read(100);
        stats.record_scan();
        let first = stats.snapshot();
        stats.record_block_write(50);
        stats.record_cache_hit();
        stats.record_wal_write(7);
        stats.record_checkpoint_write();
        let second = stats.snapshot();
        let mut rebuilt = first;
        rebuilt += second.since(&first);
        assert_eq!(rebuilt, second);
    }

    #[test]
    fn merge_folds_a_snapshot_into_shared_counters() {
        let total = IoStats::shared();
        total.record_block_read(10);
        let worker = IoStats::shared();
        worker.record_block_read(20);
        worker.record_scan();
        worker.record_cache_miss();
        total.merge(&worker.snapshot());
        let snap = total.snapshot();
        assert_eq!(snap.blocks_read, 2);
        assert_eq!(snap.bytes_read, 30);
        assert_eq!(snap.scans_started, 1);
        assert_eq!(snap.cache_misses, 1);
        // Merging an empty snapshot is the identity.
        total.merge(&IoSnapshot::default());
        assert_eq!(total.snapshot(), snap);
    }

    #[test]
    fn cache_counters_and_hit_rate() {
        let stats = IoStats::shared();
        assert_eq!(stats.snapshot().cache_hit_rate(), 0.0);
        stats.record_cache_hit();
        stats.record_cache_hit();
        stats.record_cache_hit();
        stats.record_cache_miss();
        stats.record_cache_eviction();
        let snap = stats.snapshot();
        assert_eq!(snap.cache_hits, 3);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_evictions, 1);
        assert!((snap.cache_hit_rate() - 0.75).abs() < 1e-12);
        let text = snap.to_string();
        assert!(text.contains("cache 3/4 hits (75.0%), 1 evictions"));
        stats.reset();
        assert_eq!(stats.snapshot(), IoSnapshot::default());
    }
}
