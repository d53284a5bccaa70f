//! A buffer-pool page cache over a random-access source.
//!
//! The paper's algorithms touch disk only through sequential scans, so a
//! round that needs a handful of adjacency lists still pays
//! `scan(|V|+|E|)` block transfers. This module is the classic database
//! answer: a fixed budget of in-memory page **frames** over the file, so
//! random record reads cost one block transfer per *missed* page instead
//! of one scan per round.
//!
//! ## Frame lifecycle
//!
//! Every frame is in one of two states:
//!
//! 1. **free** — not yet allocated (the pool allocates lazily up to its
//!    configured capacity);
//! 2. **resident** — holds a valid page; eligible for eviction.
//!
//! [`BufferPool::with_page`] resolves a page number through the frame
//! table: a **hit** sets the frame's CLOCK reference bit; a **miss** takes
//! a free frame (or evicts the victim chosen by the [`policy`]) and fills
//! it with one positioned read from the [`PageSource`]. The page's bytes
//! are lent to the caller's closure only, and the call borrows the pool
//! mutably, so no page is in use while another is fetched: nothing pins
//! a frame, and any resident frame may be the next victim.
//!
//! ## Relation to the paper's cost model
//!
//! Hits and misses split the paper's block-transfer count exactly: each
//! miss issues one source read of one page, recorded through
//! [`IoStats::record_block_read`] like every `BlockReader` refill, while
//! hits are free. An access pattern with working set ≤ capacity therefore
//! costs `distinct pages` transfers instead of `(|V|+|E|)/B` per pass —
//! this is the quantity the `repro pager` experiment compares against
//! scan-only rounds. Hit/miss/eviction totals are folded into the same
//! shared [`IoStats`] the scan machinery reports into.

pub mod policy;
pub mod source;

use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use crate::stats::IoStats;
use crate::DEFAULT_BLOCK_SIZE;

pub use policy::{ClockPolicy, PolicyKind};
pub use source::{open_file_source, FilePageSource, PageSource, SeekSource};

/// Buffer-pool shape: page size, frame budget, eviction policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagerConfig {
    /// Bytes per page (the block size `B` of the cost model).
    pub page_size: usize,
    /// Maximum number of resident frames.
    pub frames: usize,
    /// Eviction policy.
    pub policy: PolicyKind,
}

impl Default for PagerConfig {
    fn default() -> Self {
        Self {
            page_size: DEFAULT_BLOCK_SIZE,
            frames: 64,
            policy: PolicyKind::default(),
        }
    }
}

impl PagerConfig {
    /// A configuration whose frame budget approximates `bytes` of memory
    /// (at least one frame).
    pub fn with_capacity_bytes(bytes: u64, page_size: usize, policy: PolicyKind) -> Self {
        assert!(page_size > 0, "page size must be non-zero");
        Self {
            page_size,
            frames: ((bytes / page_size as u64) as usize).max(1),
            policy,
        }
    }

    /// Total bytes of page memory this configuration may hold.
    pub fn capacity_bytes(&self) -> u64 {
        self.page_size as u64 * self.frames as u64
    }
}

/// One slot of the frame table.
#[derive(Debug)]
struct Frame {
    /// Page currently held.
    page_no: u64,
    /// Valid bytes in `data` (short only for the last page of the source).
    len: usize,
    /// Page bytes (`page_size` long once allocated).
    data: Vec<u8>,
}

/// A fixed-capacity page cache with CLOCK eviction.
///
/// Single-threaded by design (like the scans it complements); sharing
/// across threads needs external synchronisation.
pub struct BufferPool<S: PageSource> {
    source: S,
    config: PagerConfig,
    frames: Vec<Frame>,
    /// page number → frame index, for every resident page.
    table: HashMap<u64, usize>,
    policy: ClockPolicy,
    stats: Arc<IoStats>,
    /// Lifetime request/eviction tallies for the trace's hit-rate and
    /// eviction series (sampled every [`TRACE_SAMPLE_EVERY`] requests).
    trace_hits: u64,
    trace_misses: u64,
    trace_evictions: u64,
}

/// How often (in page requests) the pool samples its hit-rate and
/// eviction counters into the trace when the sink is enabled.
const TRACE_SAMPLE_EVERY: u64 = 256;

impl<S: PageSource> std::fmt::Debug for BufferPool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("config", &self.config)
            .field("resident", &self.frames.len())
            .finish_non_exhaustive()
    }
}

impl<S: PageSource> BufferPool<S> {
    /// Creates a pool over `source`. Frames are allocated lazily, so an
    /// oversized `frames` budget costs nothing until used.
    pub fn new(source: S, config: PagerConfig, stats: Arc<IoStats>) -> Self {
        assert!(config.page_size > 0, "page size must be non-zero");
        assert!(config.frames > 0, "frame capacity must be non-zero");
        Self {
            source,
            config,
            frames: Vec::new(),
            table: HashMap::new(),
            policy: ClockPolicy::default(),
            stats,
            trace_hits: 0,
            trace_misses: 0,
            trace_evictions: 0,
        }
    }

    /// Samples the pool's hit-rate and eviction series into the trace
    /// every [`TRACE_SAMPLE_EVERY`] requests (no-op when disabled).
    fn maybe_trace(&self) {
        if !mis_obs::enabled() {
            return;
        }
        let total = self.trace_hits + self.trace_misses;
        if total > 0 && total.is_multiple_of(TRACE_SAMPLE_EVERY) {
            mis_obs::counter(
                "pager",
                "pager.hit_rate",
                self.trace_hits as f64 / total as f64,
            );
            mis_obs::counter("pager", "pager.evictions", self.trace_evictions as f64);
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PagerConfig {
        &self.config
    }

    /// Number of pages the source spans.
    pub fn num_pages(&self) -> u64 {
        self.source.len().div_ceil(self.config.page_size as u64)
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    /// Hands the bytes of page `page_no` to `f`, reading the page from
    /// the source into a frame first unless it is resident.
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] for pages beyond the
    /// source.
    pub fn with_page<R>(&mut self, page_no: u64, f: impl FnOnce(&[u8]) -> R) -> io::Result<R> {
        let idx = match self.table.get(&page_no) {
            Some(&idx) => {
                self.stats.record_cache_hit();
                self.trace_hits += 1;
                self.maybe_trace();
                self.policy.reference(idx);
                idx
            }
            None => self.fetch(page_no)?,
        };
        let frame = &self.frames[idx];
        Ok(f(&frame.data[..frame.len]))
    }

    /// A miss: reads `page_no` from the source into a frame and returns
    /// the frame's index.
    fn fetch(&mut self, page_no: u64) -> io::Result<usize> {
        if page_no >= self.num_pages() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("page {page_no} beyond source ({} pages)", self.num_pages()),
            ));
        }
        self.stats.record_cache_miss();
        self.trace_misses += 1;
        self.maybe_trace();
        let idx = self.acquire_frame();
        let page_size = self.config.page_size;
        let frame = &mut self.frames[idx];
        frame.data.resize(page_size, 0);
        // Clock reads only while tracing: the disabled path stays free.
        let fetch_start = mis_obs::enabled().then(std::time::Instant::now);
        let len = self
            .source
            .read_at(page_no * page_size as u64, &mut frame.data)?;
        if let Some(start) = fetch_start {
            mis_obs::observe_ns("pager", "pager.fetch", start.elapsed().as_nanos() as u64);
        }
        self.stats.record_block_read(len as u64);
        frame.page_no = page_no;
        frame.len = len;
        self.table.insert(page_no, idx);
        self.policy.reference(idx);
        Ok(idx)
    }

    /// Finds a frame for a new page: allocate below capacity, else evict.
    fn acquire_frame(&mut self) -> usize {
        if self.frames.len() < self.config.frames {
            self.frames.push(Frame {
                page_no: u64::MAX,
                len: 0,
                data: Vec::new(),
            });
            return self.frames.len() - 1;
        }
        let victim = self.policy.victim(self.frames.len());
        self.stats.record_cache_eviction();
        self.trace_evictions += 1;
        self.table.remove(&self.frames[victim].page_no);
        // Invalidate immediately: if the caller's fill fails, the frame
        // must not keep claiming its old page (a later eviction would
        // remove another frame's live table entry).
        self.frames[victim].page_no = u64::MAX;
        self.frames[victim].len = 0;
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    type MemPool = BufferPool<SeekSource<Cursor<Vec<u8>>>>;

    fn pool_over(
        bytes: Vec<u8>,
        frames: usize,
        page_size: usize,
        policy: PolicyKind,
    ) -> (MemPool, Arc<IoStats>) {
        let stats = IoStats::shared();
        let source = SeekSource::new(Cursor::new(bytes)).unwrap();
        let config = PagerConfig {
            page_size,
            frames,
            policy,
        };
        (BufferPool::new(source, config, Arc::clone(&stats)), stats)
    }

    fn seq(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn pin_miss_then_hit() {
        let (mut pool, stats) = pool_over(seq(1000), 4, 256, PolicyKind::Clock);
        assert_eq!(pool.num_pages(), 4);
        let first = pool.with_page(1, |page| (page.len(), page[0])).unwrap();
        assert_eq!(first, (256, (256 % 251) as u8));
        pool.with_page(1, |_| ()).unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.blocks_read, 1); // only the miss touched the source
        assert_eq!(snap.bytes_read, 256);
    }

    #[test]
    fn last_page_is_short() {
        let (mut pool, _stats) = pool_over(seq(1000), 4, 256, PolicyKind::Clock);
        assert_eq!(pool.with_page(3, <[u8]>::len).unwrap(), 1000 - 3 * 256);
    }

    #[test]
    fn pin_beyond_source_fails() {
        let (mut pool, _stats) = pool_over(seq(100), 2, 64, PolicyKind::Clock);
        assert_eq!(pool.num_pages(), 2);
        let err = pool.with_page(2, |_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn capacity_one_thrashes_but_stays_correct() {
        let (mut pool, stats) = pool_over(seq(1024), 1, 256, PolicyKind::Clock);
        for round in 0..2 {
            for page in 0..4u64 {
                pool.with_page(page, |data| {
                    assert_eq!(data[0], ((page * 256) % 251) as u8, "round {round}");
                })
                .unwrap();
            }
        }
        let snap = stats.snapshot();
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.cache_misses, 8);
        assert_eq!(snap.cache_evictions, 7); // first fill needs no eviction
        assert_eq!(pool.resident_pages(), 1);
    }

    #[test]
    fn read_at_crosses_page_boundaries() {
        // Bytes 50..350 span pages 0..=5, gathered in turn the way a
        // record crossing pages is fetched: six misses.
        let data = seq(1000);
        let (mut pool, stats) = pool_over(data.clone(), 8, 64, PolicyKind::Clock);
        let mut out = Vec::new();
        for page in 0..=5 {
            pool.with_page(page, |bytes| out.extend_from_slice(bytes))
                .unwrap();
        }
        assert_eq!(out[50..350], data[50..350]);
        assert_eq!(stats.snapshot().cache_misses, 6);
        // The tail page is short, and nothing lies past it.
        let tail = pool.with_page(15, <[u8]>::to_vec).unwrap();
        assert_eq!(tail, data[960..]);
        assert!(pool.with_page(16, |_| ()).is_err());
    }

    #[test]
    fn config_capacity_helpers() {
        let c = PagerConfig::with_capacity_bytes(1 << 20, 64 * 1024, PolicyKind::Clock);
        assert_eq!(c.frames, 16);
        assert_eq!(c.capacity_bytes(), 1 << 20);
        // Tiny budgets still get one frame.
        let tiny = PagerConfig::with_capacity_bytes(10, 64 * 1024, PolicyKind::Clock);
        assert_eq!(tiny.frames, 1);
        assert_eq!(PagerConfig::default().page_size, DEFAULT_BLOCK_SIZE);
    }

    #[test]
    #[should_panic(expected = "frame capacity must be non-zero")]
    fn zero_frames_panics() {
        let stats = IoStats::shared();
        let source = SeekSource::new(Cursor::new(vec![0u8; 16])).unwrap();
        let config = PagerConfig {
            page_size: 16,
            frames: 0,
            policy: PolicyKind::Clock,
        };
        let _ = BufferPool::new(source, config, stats);
    }
}
