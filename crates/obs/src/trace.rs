//! The span/counter/gauge event layer and its Chrome-trace export.
//!
//! ## Hot-path discipline
//!
//! Recording is designed so that instrumented code can stay in every
//! hot loop of the engine:
//!
//! * one process-global [`AtomicBool`] gates everything: with the sink
//!   disabled (the default), [`span`], [`counter`], [`instant`] and
//!   [`observe_ns`] are a relaxed load and an early return — no clock
//!   read, no thread-local access, **no heap allocation** (proved by
//!   the crate's overhead test);
//! * with the sink enabled, events land in a **thread-local buffer**
//!   (pre-allocated, flushed in batches into the global sink when full
//!   and when the thread exits), so threads never contend on a lock
//!   per event;
//! * timestamps are monotonic ([`Instant`]-based) nanoseconds since
//!   the process's trace epoch — comparable across threads.
//!
//! ## Lifecycle
//!
//! ```
//! mis_obs::trace::set_enabled(true);
//! {
//!     let _outer = mis_obs::trace::span("phase", "solve");
//!     mis_obs::trace::counter("serve", "serve.pending", 3.0);
//! }
//! let trace = mis_obs::trace::drain();
//! mis_obs::trace::set_enabled(false);
//! assert_eq!(trace.events.len(), 2);
//! let mut jsonl = Vec::new();
//! trace.write_chrome_jsonl(&mut jsonl).unwrap();
//! ```
//!
//! [`drain`] flushes the calling thread's buffer and takes the global
//! sink; buffers of *other threads still running* are not visible until
//! those threads call [`flush_local`], fill a batch, or exit. Note that
//! joining a thread (including via `std::thread::scope`) does **not**
//! guarantee its thread-local destructors have run — a joined thread's
//! tail of buffered events can land in the sink *after* a subsequent
//! [`drain`]. Spawned threads that record events should therefore call
//! [`flush_local`] as their last act, making `drain`-after-join exact.

use std::cell::RefCell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::hist::LogHistogram;

/// The process id every event carries (one process per trace).
pub const TRACE_PID: u64 = 1;

/// Thread-local batch size: events buffered before a flush to the
/// global sink.
const FLUSH_AT: usize = 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process's trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// What one [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A named duration: `ts_ns` is the start, `dur_ns` the length.
    Span {
        /// Span length in nanoseconds.
        dur_ns: u64,
    },
    /// One sample of a named series (gauge or cumulative counter).
    Counter {
        /// The sampled value.
        value: f64,
    },
    /// A point event.
    Instant,
}

/// One trace event. See the crate docs for the schema.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Static category (`"pass"`, `"pager"`, `"wal"`, `"phase"`, …).
    pub cat: &'static str,
    /// Static event name (`"twok.pre"`, `"serve.pending"`, …).
    pub name: &'static str,
    /// Dense per-thread id (assigned on each thread's first event).
    pub tid: u64,
    /// Monotonic nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Payload.
    pub kind: EventKind,
}

/// One named latency histogram captured alongside the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct HistEntry {
    /// Static category.
    pub cat: &'static str,
    /// Static histogram name.
    pub name: &'static str,
    /// The samples, log-bucketed.
    pub hist: LogHistogram,
}

#[derive(Default)]
struct GlobalSink {
    events: Vec<Event>,
    hists: Vec<HistEntry>,
}

fn global() -> &'static Mutex<GlobalSink> {
    static SINK: OnceLock<Mutex<GlobalSink>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(GlobalSink::default()))
}

struct LocalBuf {
    tid: u64,
    events: Vec<Event>,
}

impl LocalBuf {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let mut sink = global().lock().expect("trace sink poisoned");
        sink.events.append(&mut self.events);
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: Vec::with_capacity(FLUSH_AT),
    });
}

/// Turns the sink on or off. Disabled is the default; every recording
/// call is then a single relaxed atomic load.
pub fn set_enabled(on: bool) {
    if on {
        // Pin the epoch before the first event so timestamps are small.
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the sink currently accepts events.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn push(cat: &'static str, name: &'static str, ts_ns: u64, kind: EventKind) {
    // `try_with` so an event recorded while the thread-local is being
    // destroyed (another TLS destructor) is dropped instead of panicking.
    let _ = LOCAL.try_with(|cell| {
        let mut buf = cell.borrow_mut();
        let tid = buf.tid;
        buf.events.push(Event {
            cat,
            name,
            tid,
            ts_ns,
            kind,
        });
        if buf.events.len() >= FLUSH_AT {
            buf.flush();
        }
    });
}

/// RAII guard returned by [`span`]: records one `Span` event covering
/// its lifetime when dropped (if the sink is still enabled).
#[must_use = "a span guard records on drop; binding it to `_` ends the span immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    cat: &'static str,
    name: &'static str,
    start_ns: u64,
    armed: bool,
}

impl SpanGuard {
    /// Ends the span now (equivalent to dropping it).
    pub fn done(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed && enabled() {
            let end = now_ns();
            push(
                self.cat,
                self.name,
                self.start_ns,
                EventKind::Span {
                    dur_ns: end.saturating_sub(self.start_ns),
                },
            );
        }
    }
}

/// Opens a span; the returned guard records it on drop. A no-op (no
/// clock read, no allocation) while the sink is disabled.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            cat,
            name,
            start_ns: 0,
            armed: false,
        };
    }
    SpanGuard {
        cat,
        name,
        start_ns: now_ns(),
        armed: true,
    }
}

/// Records one sample of a named series (a gauge like `queue.depth` or
/// a running total like `pager.evictions`).
#[inline]
pub fn counter(cat: &'static str, name: &'static str, value: f64) {
    if enabled() {
        push(cat, name, now_ns(), EventKind::Counter { value });
    }
}

/// Records a point event.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) {
    if enabled() {
        push(cat, name, now_ns(), EventKind::Instant);
    }
}

/// Adds one sample (typically nanoseconds) to the named latency
/// histogram. Histograms live in the global sink (recording takes a
/// short lock) and are exported with the next [`drain`].
pub fn observe_ns(cat: &'static str, name: &'static str, value_ns: u64) {
    if !enabled() {
        return;
    }
    let mut sink = global().lock().expect("trace sink poisoned");
    match sink
        .hists
        .iter_mut()
        .find(|h| h.cat == cat && h.name == name)
    {
        Some(entry) => entry.hist.record(value_ns),
        None => {
            let mut hist = LogHistogram::new();
            hist.record(value_ns);
            sink.hists.push(HistEntry { cat, name, hist });
        }
    }
}

/// Flushes the calling thread's buffered events into the global sink.
///
/// Spawned threads should call this as the last statement of their
/// closure: relying on the thread-local destructor is not enough,
/// because `join` (and `std::thread::scope`) may return before TLS
/// destructors run, letting a thread's tail of events leak past the
/// next [`drain`] into a later drain window. A no-op when the thread
/// has no buffered events.
pub fn flush_local() {
    let _ = LOCAL.try_with(|cell| cell.borrow_mut().flush());
}

/// Flushes the calling thread's buffer and takes everything the sink
/// has collected, leaving it empty. Buffers of other *still-running*
/// threads are not included — have spawned threads [`flush_local`]
/// before they return, then drain after joining them.
pub fn drain() -> Trace {
    let _ = LOCAL.try_with(|cell| cell.borrow_mut().flush());
    let mut sink = global().lock().expect("trace sink poisoned");
    Trace {
        events: std::mem::take(&mut sink.events),
        hists: std::mem::take(&mut sink.hists),
    }
}

/// A drained trace: the event stream plus the latency histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Every recorded event, in flush order (sort by `ts_ns` to get a
    /// global timeline).
    pub events: Vec<Event>,
    /// The latency histograms recorded via [`observe_ns`].
    pub hists: Vec<HistEntry>,
}

/// Nanoseconds rendered as microseconds with three decimals (exact).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

impl Trace {
    /// Whether the trace holds neither events nor histogram samples.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.hists.is_empty()
    }

    /// Number of span events in the trace.
    pub fn num_spans(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Span { .. }))
            .count()
    }

    /// Appends another trace's events and histograms to this one.
    pub fn extend(&mut self, other: Trace) {
        self.events.extend(other.events);
        for h in other.hists {
            match self
                .hists
                .iter_mut()
                .find(|mine| mine.cat == h.cat && mine.name == h.name)
            {
                Some(mine) => mine.hist.merge(&h.hist),
                None => self.hists.push(h),
            }
        }
    }

    /// Writes the trace as JSONL: one Chrome trace-event object per
    /// line (`ph` `"X"`/`"C"`/`"i"`, timestamps in microseconds).
    /// Wrap the lines into a JSON array (`jq -s .`) to load the file in
    /// `chrome://tracing` or Perfetto.
    pub fn write_chrome_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for e in &self.events {
            let head = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
                e.name,
                e.cat,
                TRACE_PID,
                e.tid,
                us(e.ts_ns)
            );
            match e.kind {
                EventKind::Span { dur_ns } => {
                    writeln!(w, "{head},\"ph\":\"X\",\"dur\":{}}}", us(dur_ns))?;
                }
                EventKind::Counter { value } => {
                    writeln!(w, "{head},\"ph\":\"C\",\"args\":{{\"value\":{value}}}}}")?;
                }
                EventKind::Instant => {
                    writeln!(w, "{head},\"ph\":\"i\",\"s\":\"t\"}}")?;
                }
            }
        }
        for h in &self.hists {
            let buckets: Vec<String> = h
                .hist
                .buckets()
                .map(|(lo, hi, c)| format!("[{lo},{hi},{c}]"))
                .collect();
            writeln!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":0,\"ts\":0.000,\
                 \"ph\":\"i\",\"s\":\"p\",\"args\":{{\"kind\":\"histogram\",\"count\":{},\
                 \"mean_ns\":{:.1},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{},\
                 \"buckets\":[{}]}}}}",
                h.name,
                h.cat,
                TRACE_PID,
                h.hist.count(),
                h.hist.mean(),
                h.hist.quantile(0.5),
                h.hist.quantile(0.99),
                h.hist.max(),
                buckets.join(",")
            )?;
        }
        Ok(())
    }

    /// Writes the Chrome-trace JSONL to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut out = Vec::new();
        self.write_chrome_jsonl(&mut out)?;
        std::fs::write(path, out)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Serialises tests that touch the process-global sink. Every test
    /// that enables/drains tracing must hold this guard.
    pub fn sink_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::sink_lock;
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let _guard = sink_lock();
        set_enabled(false);
        drain(); // discard leftovers from other tests
        {
            let _s = span("t", "noop");
            counter("t", "c", 1.0);
            instant("t", "i");
            observe_ns("t", "h", 10);
        }
        let trace = drain();
        assert!(trace.is_empty(), "{trace:?}");
        assert_eq!(trace.num_spans(), 0);
    }

    #[test]
    fn spans_nest_and_order_within_a_thread() {
        let _guard = sink_lock();
        set_enabled(false);
        drain();
        set_enabled(true);
        {
            let _outer = span("t", "outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("t", "inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        set_enabled(false);
        let trace = drain();
        assert_eq!(trace.events.len(), 2);
        // Inner drops first, so it is recorded first.
        let inner = &trace.events[0];
        let outer = &trace.events[1];
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.tid, outer.tid);
        let (EventKind::Span { dur_ns: din }, EventKind::Span { dur_ns: dout }) =
            (inner.kind, outer.kind)
        else {
            panic!("expected spans, got {trace:?}");
        };
        // Proper nesting: outer starts first, ends last, lasts longer.
        assert!(outer.ts_ns <= inner.ts_ns);
        assert!(outer.ts_ns + dout >= inner.ts_ns + din);
        assert!(dout >= din);
        assert!(din >= 1_000_000, "inner covers its sleep: {din}ns");
    }

    #[test]
    fn cross_thread_events_carry_distinct_tids() {
        let _guard = sink_lock();
        set_enabled(false);
        drain();
        set_enabled(true);
        span("t", "main").done();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span("t", "work");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let trace = drain();
        let mut tids: Vec<u64> = trace.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4);
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4, "each thread gets its own tid");
        // Spans flushed at thread exit are all present.
        assert_eq!(trace.num_spans(), 4);
    }

    #[test]
    fn histograms_accumulate_and_merge_on_extend() {
        let _guard = sink_lock();
        set_enabled(false);
        drain();
        set_enabled(true);
        observe_ns("pager", "fetch", 100);
        observe_ns("pager", "fetch", 200);
        observe_ns("wal", "append", 50);
        set_enabled(false);
        let mut first = drain();
        assert_eq!(first.hists.len(), 2);
        let fetch = first
            .hists
            .iter()
            .find(|h| h.name == "fetch")
            .expect("fetch hist");
        assert_eq!(fetch.hist.count(), 2);

        set_enabled(true);
        observe_ns("pager", "fetch", 400);
        set_enabled(false);
        let second = drain();
        first.extend(second);
        let fetch = first.hists.iter().find(|h| h.name == "fetch").unwrap();
        assert_eq!(fetch.hist.count(), 3, "extend merges same-name hists");
        assert_eq!(first.hists.len(), 2);
    }

    #[test]
    fn chrome_jsonl_is_one_object_per_line() {
        let trace = Trace {
            events: vec![
                Event {
                    cat: "phase",
                    name: "solve",
                    tid: 1,
                    ts_ns: 1_500,
                    kind: EventKind::Span { dur_ns: 2_000_500 },
                },
                Event {
                    cat: "serve",
                    name: "serve.pending",
                    tid: 2,
                    ts_ns: 3_000,
                    kind: EventKind::Counter { value: 4.0 },
                },
                Event {
                    cat: "graph",
                    name: "open",
                    tid: 1,
                    ts_ns: 10,
                    kind: EventKind::Instant,
                },
            ],
            hists: vec![HistEntry {
                cat: "pager",
                name: "fetch",
                hist: {
                    let mut h = LogHistogram::new();
                    h.record(1000);
                    h
                },
            }],
        };
        let mut out = Vec::new();
        trace.write_chrome_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"ph\":\"X\""));
        assert!(lines[0].contains("\"ts\":1.500"), "{}", lines[0]);
        assert!(lines[0].contains("\"dur\":2000.500"));
        assert!(lines[1].contains("\"ph\":\"C\""));
        assert!(lines[1].contains("\"value\":4"));
        assert!(lines[2].contains("\"ph\":\"i\""));
        assert!(lines[3].contains("\"kind\":\"histogram\""));
        assert!(lines[3].contains("\"count\":1"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn span_guard_done_is_drop() {
        let _guard = sink_lock();
        set_enabled(false);
        drain();
        set_enabled(true);
        let s = span("t", "explicit");
        s.done();
        set_enabled(false);
        let trace = drain();
        assert_eq!(trace.num_spans(), 1);
    }
}
