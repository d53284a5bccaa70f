//! Observability substrate for the semi-external MIS workspace.
//!
//! The paper's cost model counts scans and block transfers
//! (`mis_extmem::IoStats` reproduces it), but counters cannot explain
//! *time*: which pass of which algorithm, or which stage of a flush, a
//! run spends it in. This crate is the measurement substrate the rest of
//! the workspace instruments itself with:
//!
//! * [`trace`] — a span/counter/gauge event layer with **thread-local
//!   event buffers**, monotonic timestamps and a process-global on/off
//!   switch. When the sink is disabled (the default) every recording
//!   call is one relaxed atomic load and **no heap allocation** — the
//!   scan passes stay hot (see the `disabled_sink_allocates_nothing`
//!   overhead test).
//! * [`hist`] — log-bucketed latency histograms
//!   ([`hist::LogHistogram`]): power-of-two buckets, constant memory,
//!   mergeable, with quantile estimates. Used for per-fetch pager
//!   latency and WAL append/commit latency.
//! * [`clock`] — the shared wall-clock helpers ([`clock::timed`],
//!   [`clock::hardware_threads`]) of the bench harness: it times the
//!   paper's algorithm suite and writes the thread-count fingerprint
//!   into every `BENCH_*.json` header.
//! * [`report`] — parses a trace back (JSONL, one Chrome trace event
//!   per line) and aggregates it into per-phase, per-step and per-pass
//!   wall-time breakdowns; `mis trace report` builds on it.
//! * [`model`] — the paper's I/O cost model as an executable
//!   prediction ([`model::CostModel`]): expected scans-per-round and
//!   blocks-per-scan from graph header stats, plus a conformance
//!   checker that asserts observed `IoStats` stay within a stated
//!   tolerance.
//! * [`gate`] — the noise-aware regression gate behind
//!   `mis bench diff|check`: exact gates for deterministic I/O counts,
//!   ratio gates for wall-clock metrics that auto-skip when the
//!   environment fingerprint differs.
//!
//! ## Event schema
//!
//! A trace is a sequence of [`trace::Event`]s, each carrying a static
//! category (`"pass"`, `"pager"`, `"wal"`, `"phase"`, …), a static
//! name, the recording thread's small dense id, and a monotonic
//! timestamp in nanoseconds since the process's trace epoch:
//!
//! | kind                          | Chrome phase | meaning |
//! |-------------------------------|--------------|---------|
//! | [`trace::EventKind::Span`]    | `"X"`        | a named duration (begin + `dur_ns`), e.g. `twok.pre` |
//! | [`trace::EventKind::Counter`] | `"C"`        | a sampled series value, e.g. `serve.pending`, `pager.hit_rate` |
//! | [`trace::EventKind::Instant`] | `"i"`        | a point event, e.g. `graph.open` |
//!
//! Latency histograms ride along as one instant event per histogram
//! with the bucket table in `args` (`"kind": "histogram"`).
//!
//! The serialized form ([`trace::Trace::write_chrome_jsonl`]) is one
//! Chrome trace-event JSON object per line. Chrome's own viewer and
//! Perfetto expect a JSON *array*, so wrap the lines to view a trace:
//! `jq -s . trace.jsonl > trace.json`, then load `trace.json` in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ## Naming conventions the report understands
//!
//! * cat `"phase"` — top-level sequential phases of a run (`open`,
//!   `warmup`, `solve`, `verify`, …). The report's per-phase breakdown
//!   and its coverage figure (`phase time / wall time`) come from
//!   these.
//! * cat `"pass"` — one span per accounted scan of the algorithms in
//!   `mis-core`, named after the pass: `greedy`, `onek.init`,
//!   `onek.pre`, `onek.post`, `onek.finalize`, the same four for
//!   `twok.*`, `proof`, `bound.star`, `bound.matching` and
//!   `degree_stats`. A paged pre-swap pass and a finish that replays in
//!   memory read no file and have no pass span. The report totals these
//!   as its pass breakdown.
//! * cat `"serve"` — the serving front end's spans: `serve.flush` (one
//!   epoch commit) and its stages `serve.append` (with the store's
//!   `store.overlay_copy`, and `store.roll` and `store.compact_segments`
//!   nested inside when the roll policy fires), `serve.snapshot`,
//!   `serve.repair` (the snapshot-side repair alone), `serve.checkpoint`
//!   and `serve.publish` (with `serve.build_view`), plus the
//!   `serve.pending` gauge (queued ops awaiting the next flush). Request
//!   latency distributions are kept per kind in
//!   [`requests::RequestStats`] rather than as trace events, so a
//!   million probes cost two histogram increments, not a million spans.
//! * cat `"repair"` — the steps of one incremental repair, nested in
//!   `serve.repair` when a flush runs it: `repair.scan` (the violation
//!   scan, when the batch record does not reach back to the set),
//!   `repair.members` (the membership array), `repair.evict` (eviction
//!   and the frontier refill), `repair.recover` (the 1↔k moves),
//!   `repair.certify` (the local maximality certificate) and
//!   `repair.collect` (the set collect).
//! * cat `"onek"` and cat `"twok"` — the steps of one one-k or two-k
//!   swap run, nested in the caller's `solve` and named after the
//!   algorithm. Both run the same round driver, so both have the same
//!   steps: `onek.init` or `twok.init` (the initial candidate scan), then
//!   per round `.pre` (the pre-swap pass, scanned or paged), `.swap` (the
//!   in-memory swap sweep) and `.post` (the post-swap scan), and
//!   `.finalize` (the maximality finish: an in-memory replay of the last
//!   post-swap pass's open vertices, or a scan after a rollback, with no
//!   round, or past the replay's cap).
//! * The report totals the spans of every other category besides
//!   `"phase"` and `"pass"` by name, as its step breakdown.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod gate;
pub mod hist;
pub mod model;
pub mod report;
pub mod requests;
pub mod trace;

pub use clock::{hardware_threads, timed};
pub use gate::{check_snapshots, diff_snapshots, GateOutcome};
pub use hist::LogHistogram;
pub use model::{CostModel, ModelVerdict, Workload};
pub use report::TraceReport;
pub use requests::{RequestStats, RequestSummary};
pub use trace::{
    counter, drain, enabled, flush_local, instant, observe_ns, set_enabled, span, Event, EventKind,
    SpanGuard, Trace,
};
