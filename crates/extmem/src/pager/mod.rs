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
//! Every frame is in one of three states:
//!
//! 1. **free** — not yet allocated (the pool allocates lazily up to its
//!    configured capacity);
//! 2. **resident** — holds a valid page, unpinned; eligible for eviction;
//! 3. **pinned** — resident and held by one or more callers via
//!    [`BufferPool::pin`]; never evicted until every pin is returned with
//!    [`BufferPool::unpin`].
//!
//! [`BufferPool::pin`] resolves a page number through the frame table: a
//! **hit** bumps the pin count and sets the frame's CLOCK reference bit;
//! a **miss** takes a free frame (or evicts an unpinned victim chosen by
//! the [`policy`]) and fills it with one positioned read from the
//! [`PageSource`]. Convenience wrappers [`BufferPool::with_page`] and
//! [`BufferPool::read_at`] pair every pin with its unpin.
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
    /// Eviction policy for unpinned frames.
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

/// Handle to a pinned frame, returned by [`BufferPool::pin`].
///
/// The handle stays valid until the matching [`BufferPool::unpin`]; the
/// pool will refuse to evict the frame in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameId(usize);

/// One slot of the frame table.
#[derive(Debug)]
struct Frame {
    /// Page currently held.
    page_no: u64,
    /// Valid bytes in `data` (short only for the last page of the source).
    len: usize,
    /// Outstanding pins.
    pins: u32,
    /// Page bytes (`page_size` long once allocated).
    data: Vec<u8>,
}

/// A fixed-capacity page cache with pin/unpin semantics.
///
/// Single-threaded by design (like the scans it complements); sharing
/// across threads would need external synchronisation anyway because pins
/// borrow frame memory.
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

    /// Length of the backing source in bytes.
    pub fn source_len(&self) -> u64 {
        self.source.len()
    }

    /// Number of pages the source spans.
    pub fn num_pages(&self) -> u64 {
        self.source.len().div_ceil(self.config.page_size as u64)
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    /// Pins `page_no` into a frame, reading it from the source if absent.
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] for pages beyond the
    /// source and [`io::ErrorKind::OutOfMemory`] if every frame is pinned.
    pub fn pin(&mut self, page_no: u64) -> io::Result<FrameId> {
        if let Some(&idx) = self.table.get(&page_no) {
            self.stats.record_cache_hit();
            self.trace_hits += 1;
            self.maybe_trace();
            self.policy.reference(idx);
            self.frames[idx].pins += 1;
            return Ok(FrameId(idx));
        }
        if page_no >= self.num_pages() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("page {page_no} beyond source ({} pages)", self.num_pages()),
            ));
        }
        self.stats.record_cache_miss();
        self.trace_misses += 1;
        self.maybe_trace();
        let idx = self.acquire_frame()?;
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
        frame.pins = 1;
        self.table.insert(page_no, idx);
        self.policy.reference(idx);
        Ok(FrameId(idx))
    }

    /// Finds a frame for a new page: allocate below capacity, else evict.
    fn acquire_frame(&mut self) -> io::Result<usize> {
        if self.frames.len() < self.config.frames {
            self.frames.push(Frame {
                page_no: u64::MAX,
                len: 0,
                pins: 0,
                data: Vec::new(),
            });
            return Ok(self.frames.len() - 1);
        }
        let frames = &self.frames;
        let victim = self.policy.victim(frames.len(), |f| frames[f].pins > 0);
        let victim = victim.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::OutOfMemory,
                "buffer pool exhausted: every frame is pinned",
            )
        })?;
        debug_assert_eq!(self.frames[victim].pins, 0);
        self.stats.record_cache_eviction();
        self.trace_evictions += 1;
        self.table.remove(&self.frames[victim].page_no);
        // Invalidate immediately: if the caller's fill fails, the frame
        // must not keep claiming its old page (a later eviction would
        // remove another frame's live table entry).
        self.frames[victim].page_no = u64::MAX;
        self.frames[victim].len = 0;
        Ok(victim)
    }

    /// The valid bytes of a pinned frame's page.
    pub fn page(&self, frame: FrameId) -> &[u8] {
        let f = &self.frames[frame.0];
        debug_assert!(f.pins > 0, "reading an unpinned frame");
        &f.data[..f.len]
    }

    /// Returns one pin of `frame`. Unpinned frames become eviction
    /// candidates; the memory stays valid until eviction actually strikes.
    pub fn unpin(&mut self, frame: FrameId) {
        let f = &mut self.frames[frame.0];
        assert!(f.pins > 0, "unpin without a matching pin");
        f.pins -= 1;
    }

    /// Pins `page_no`, hands its bytes to `f`, and unpins.
    pub fn with_page<R>(&mut self, page_no: u64, f: impl FnOnce(&[u8]) -> R) -> io::Result<R> {
        let frame = self.pin(page_no)?;
        let out = f(self.page(frame));
        self.unpin(frame);
        Ok(out)
    }

    /// Copies up to `out.len()` bytes starting at byte `offset` through
    /// the cache, pinning each covered page in turn. Returns the bytes
    /// copied (short only at end of source).
    pub fn read_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<usize> {
        let page_size = self.config.page_size as u64;
        let mut copied = 0;
        while copied < out.len() {
            let pos = offset + copied as u64;
            if pos >= self.source.len() {
                break;
            }
            let page_no = pos / page_size;
            let in_page = (pos % page_size) as usize;
            let n = self.with_page(page_no, |page| {
                let avail = page.len().saturating_sub(in_page);
                let take = avail.min(out.len() - copied);
                out[copied..copied + take].copy_from_slice(&page[in_page..in_page + take]);
                take
            })?;
            if n == 0 {
                break;
            }
            copied += n;
        }
        Ok(copied)
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
        let f = pool.pin(1).unwrap();
        assert_eq!(pool.page(f).len(), 256);
        assert_eq!(pool.page(f)[0], (256 % 251) as u8);
        pool.unpin(f);
        let f2 = pool.pin(1).unwrap();
        pool.unpin(f2);
        let snap = stats.snapshot();
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.blocks_read, 1); // only the miss touched the source
        assert_eq!(snap.bytes_read, 256);
    }

    #[test]
    fn last_page_is_short() {
        let (mut pool, _stats) = pool_over(seq(1000), 4, 256, PolicyKind::Clock);
        let f = pool.pin(3).unwrap();
        assert_eq!(pool.page(f).len(), 1000 - 3 * 256);
        pool.unpin(f);
    }

    #[test]
    fn pin_beyond_source_fails() {
        let (mut pool, _stats) = pool_over(seq(100), 2, 64, PolicyKind::Clock);
        assert_eq!(pool.num_pages(), 2);
        let err = pool.pin(2).unwrap_err();
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
    fn all_frames_pinned_is_an_error() {
        let (mut pool, _stats) = pool_over(seq(1024), 2, 256, PolicyKind::Clock);
        let a = pool.pin(0).unwrap();
        let b = pool.pin(1).unwrap();
        let err = pool.pin(2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::OutOfMemory);
        pool.unpin(a);
        let c = pool.pin(2).unwrap();
        pool.unpin(b);
        pool.unpin(c);
    }

    #[test]
    #[should_panic(expected = "unpin without a matching pin")]
    fn double_unpin_panics() {
        let (mut pool, _stats) = pool_over(seq(256), 1, 256, PolicyKind::Clock);
        let f = pool.pin(0).unwrap();
        pool.unpin(f);
        pool.unpin(f);
    }

    #[test]
    fn read_at_crosses_page_boundaries() {
        let data = seq(1000);
        let (mut pool, stats) = pool_over(data.clone(), 8, 64, PolicyKind::Clock);
        let mut out = vec![0u8; 300];
        assert_eq!(pool.read_at(50, &mut out).unwrap(), 300);
        assert_eq!(out, data[50..350]);
        // 50..350 covers pages 0..=5: six misses, crossings re-hit page 0 etc.
        assert_eq!(stats.snapshot().cache_misses, 6);
        // Short read at the tail.
        let mut tail = vec![0u8; 100];
        assert_eq!(pool.read_at(950, &mut tail).unwrap(), 50);
        assert_eq!(tail[..50], data[950..]);
        assert_eq!(pool.read_at(1000, &mut tail).unwrap(), 0);
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
