//! The serving front end: a long-running update + query engine.
//!
//! [`ServeEngine`] is what the `mis serve` process wraps around an
//! [`UpdateStore`]: edge updates are **batched** into WAL epochs, the
//! maintained independent set is repaired **incrementally** per epoch
//! (via [`mis_core::try_repair_since`] — the repair reads what the batch
//! touched, not the graph), and queries are answered from an
//! epoch-pinned [`ServeView`] that ingest never blocks.
//!
//! ## Concurrency protocol
//!
//! The engine separates three concerns behind three locks:
//!
//! * `pending` — the submit queue. [`ServeEngine::submit`] validates and
//!   enqueues; nothing else happens on the submit path.
//! * `store` — the durable tier. [`ServeEngine::flush`] holds it only to
//!   append (which rolls and merges segments per the store's
//!   [`RollPolicy`], set from the [`ServeConfig`]) and pin the epoch's
//!   [`PinnedDelta`] (cheap, bounded work), and again, briefly, to write
//!   the checkpoint. The **repair runs on the pinned view with no store
//!   lock held** — this is the no-stop-the-world property the `repro
//!   serve` experiment measures: readers keep answering and submitters
//!   keep queueing while the set is repaired.
//! * `view` — an `RwLock<Arc<ServeView>>`. Readers clone the `Arc` (two
//!   pointer bumps) and then work lock-free on an immutable view; a
//!   flush swaps in the next view when its epoch is durable. A caller
//!   holding an old `Arc<ServeView>` keeps a consistent picture of its
//!   epoch for as long as it likes — the view owns its base handle and
//!   its version of the store's overlay, which the store copies before
//!   editing (see [`crate::store`]).
//!
//! Flushes themselves are serialized by a dedicated mutex so epochs
//! commit and publish in order. Each flush stage has its own trace span
//! inside `serve.flush`: `serve.append` (the store's overlay copy, roll
//! and merge spans nest inside it), `serve.snapshot`, `serve.repair`
//! (its `repair.*` steps nest inside it), `serve.checkpoint` and
//! `serve.publish` (with `serve.build_view`).
//!
//! ## Repairs
//!
//! A flush whose published view is at the epoch just before its own
//! repairs from the batch: the pinned view carries the store's record of
//! the batch and the store's point-access handle, so the repair reads
//! only what the batch touched and starts no scan. After a failed flush
//! left a gap (its append committed, its checkpoint or a roll did not),
//! the record no longer reaches back to the published set, so the next
//! flush's repair starts from one violation scan, then reads the same
//! way; STATS counts those flushes as `scan_repairs`.
//!
//! The point-access path belongs to the store: it opens one paged
//! handle over its base (plain, compressed or sharded — whatever backs
//! the store) under [`ServeConfig::pager`], and every view carries it.
//! Neighborhood queries read the published view's merged records
//! through it ([`NeighborAccess`] on [`PinnedDelta`]), so readers and
//! repairs draw from the same bounded pager budget.
//!
//! ## Line protocol
//!
//! [`run`] serves an engine on a [`Listener`] (a Unix socket or a TCP
//! address), one thread per connection, both transports through one
//! connection loop. A request is one line: a verb and its
//! space-separated vertex ids (`ADD u v`, `DEL u v`, `FLUSH`, `MEMBER v`,
//! `NEIGHBORS v`, `STATS`, `STATUS`, `PING`, `SHUTDOWN`; verbs are
//! case-insensitive, an empty line is a no-op). Every request gets one
//! reply line, `OK …` or `ERR …`, written with one write; a malformed
//! request gets an `ERR` and the connection stays open. A line longer
//! than 4096 bytes gets an `ERR` and the connection is closed, after at
//! most one byte past the cap was read. `SHUTDOWN` stops the accept loop;
//! every connection ends within its 100 ms read timeout, and a final
//! flush commits whatever was queued, so every `ADD`/`DEL` answered `OK
//! pending=…` is durable once [`run`] returns.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use mis_core::{try_repair_since, RepairConfig};
use mis_extmem::PagerConfig;
use mis_graph::{AnyAdjFile, GraphScan, NeighborAccess, PinnedDelta, VertexId};
use mis_obs::{RequestStats, RequestSummary};

use crate::store::{point_pager, RollPolicy, StoreStatus, UpdateStore};
use crate::wal::EdgeOp;

/// Tuning for a [`ServeEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Auto-flush once this many operations are pending.
    pub batch_ops: usize,
    /// Roll the WAL into a sealed segment every this many epochs (the
    /// store's [`RollPolicy::max_wal_epochs`]).
    pub roll_epochs: u64,
    /// ... or once the active WAL reaches this many bytes
    /// ([`RollPolicy::max_wal_bytes`]).
    pub roll_bytes: u64,
    /// Merge sealed segments once this many are live
    /// ([`RollPolicy::compact_threshold`]).
    pub compact_threshold: usize,
    /// Per-epoch repair tuning (recover rounds, proof).
    pub repair: RepairConfig,
    /// The pager budget of the store's point-access handle, which local
    /// repairs and neighborhood queries share (default
    /// [`point_pager`]).
    pub pager: PagerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            batch_ops: 1024,
            roll_epochs: 8,
            roll_bytes: 4 << 20,
            compact_threshold: 6,
            repair: RepairConfig::default(),
            pager: point_pager(),
        }
    }
}

/// An immutable, epoch-pinned picture of the served state.
#[derive(Debug)]
pub struct ServeView {
    epoch: u64,
    set: Vec<VertexId>,
    member: Vec<bool>,
    graph: PinnedDelta<AnyAdjFile>,
    maximality_proved: bool,
}

impl ServeView {
    /// The epoch this view is pinned at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The maintained independent set, ascending.
    pub fn set(&self) -> &[VertexId] {
        &self.set
    }

    /// Membership of `v` in the maintained set at this epoch.
    pub fn is_member(&self, v: VertexId) -> bool {
        self.member.get(v as usize).copied().unwrap_or(false)
    }

    /// The epoch-pinned graph view (base + overlay) behind the set.
    pub fn graph(&self) -> &PinnedDelta<AnyAdjFile> {
        &self.graph
    }

    /// Whether this epoch's proof certified maximality.
    pub fn maximality_proved(&self) -> bool {
        self.maximality_proved
    }
}

/// What one [`ServeEngine::flush`] did.
#[derive(Debug, Clone, Copy)]
pub struct FlushReport {
    /// The epoch the batch committed as.
    pub epoch: u64,
    /// Operations in the batch.
    pub ops: usize,
    /// Members evicted by the batch's inserted edges.
    pub evicted: u64,
    /// Maintained set size after repair.
    pub set_size: usize,
    /// Whether the proof certified maximality.
    pub maximality_proved: bool,
    /// Whether the WAL rolled into a sealed segment.
    pub rolled: bool,
    /// Segments merged by a partial compaction, if one ran.
    pub compacted: usize,
}

/// A point-in-time summary for the `STATS` verb.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// The published view's epoch.
    pub epoch: u64,
    /// Maintained set size at that epoch.
    pub set_size: usize,
    /// Operations queued for the next flush.
    pub pending_ops: usize,
    /// Epochs committed by this engine instance.
    pub flushes: u64,
    /// WAL → segment rolls performed.
    pub rolls: u64,
    /// Partial (segment) compactions performed.
    pub compactions: u64,
    /// Flushes whose repair had to scan (after a gap).
    pub scan_repairs: u64,
    /// Requests answered, by kind, with latency quantiles.
    pub requests: Vec<(&'static str, RequestSummary)>,
}

impl ServeStats {
    /// Renders the stats as one JSON line (the `STATS` reply).
    pub fn to_json(&self) -> String {
        let reqs: Vec<String> = self
            .requests
            .iter()
            .map(|(kind, r)| {
                format!(
                    "\"{kind}\":{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{},\
                     \"mean_ns\":{:.1}}}",
                    r.count, r.p50_ns, r.p99_ns, r.max_ns, r.mean_ns
                )
            })
            .collect();
        format!(
            "{{\"epoch\":{},\"set_size\":{},\"pending_ops\":{},\"flushes\":{},\"rolls\":{},\
             \"compactions\":{},\"scan_repairs\":{},\"requests\":{{{}}}}}",
            self.epoch,
            self.set_size,
            self.pending_ops,
            self.flushes,
            self.rolls,
            self.compactions,
            self.scan_repairs,
            reqs.join(",")
        )
    }
}

/// The long-running update + query engine behind `mis serve`.
pub struct ServeEngine {
    store: Mutex<UpdateStore>,
    view: RwLock<Arc<ServeView>>,
    pending: Mutex<Vec<EdgeOp>>,
    flush_lock: Mutex<()>,
    requests: RequestStats,
    config: ServeConfig,
    num_vertices: usize,
    flushes: AtomicU64,
    rolls: AtomicU64,
    compactions: AtomicU64,
    scan_repairs: AtomicU64,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("num_vertices", &self.num_vertices)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Wraps `store` for serving: sets the store's [`RollPolicy`] and
    /// pager budget from the [`ServeConfig`], brings the checkpoint up to
    /// the last committed epoch (bootstrapping the set if none exists,
    /// and opening the store's point-access handle), and publishes the
    /// initial view.
    pub fn new(mut store: UpdateStore, config: ServeConfig) -> io::Result<Self> {
        store.set_roll_policy(RollPolicy {
            max_wal_bytes: config.roll_bytes,
            max_wal_epochs: config.roll_epochs,
            compact_threshold: config.compact_threshold,
        });
        store.set_pager(config.pager);
        let report = store.apply(config.repair)?;
        let proved = report.maximality_proved || report.up_to_date;
        let view = build_view(store.snapshot().pinned(), report.set, proved);
        let num_vertices = store.base().num_vertices();
        Ok(Self {
            store: Mutex::new(store),
            view: RwLock::new(Arc::new(view)),
            pending: Mutex::new(Vec::new()),
            flush_lock: Mutex::new(()),
            requests: RequestStats::new(),
            config,
            num_vertices,
            flushes: AtomicU64::new(0),
            rolls: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            scan_repairs: AtomicU64::new(0),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Vertices in the served graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The current published view. The returned `Arc` stays consistent
    /// at its epoch no matter how many epochs commit afterwards.
    pub fn view(&self) -> Arc<ServeView> {
        Arc::clone(&self.view.read().expect("view lock poisoned"))
    }

    /// Validates and enqueues a batch of operations for the next flush,
    /// flushing immediately when the queue reaches
    /// [`ServeConfig::batch_ops`]. Returns the number of operations now
    /// pending (0 if the batch triggered a flush).
    pub fn submit(&self, ops: &[EdgeOp]) -> io::Result<usize> {
        let n = self.num_vertices as u64;
        for op in ops {
            let (u, v) = op.endpoints();
            if u64::from(u) >= n || u64::from(v) >= n || u == v {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("edge ({u}, {v}) invalid for {n} vertices"),
                ));
            }
        }
        let depth = {
            let mut pending = self.pending.lock().expect("pending lock poisoned");
            pending.extend_from_slice(ops);
            pending.len()
        };
        mis_obs::counter("serve", "serve.pending", depth as f64);
        if depth >= self.config.batch_ops {
            self.flush()?;
            return Ok(0);
        }
        Ok(depth)
    }

    /// Commits everything pending as one epoch: append to the WAL (which
    /// rolls and merges segments per the store's policy), repair the
    /// maintained set on the epoch's pinned view (store unlocked),
    /// checkpoint, and publish the new view. Returns `None` when nothing
    /// was pending. When the append fails before its epoch commits, the
    /// batch goes back to the front of the queue for the next flush.
    pub fn flush(&self) -> io::Result<Option<FlushReport>> {
        let _serial = self.flush_lock.lock().expect("flush lock poisoned");
        let batch: Vec<EdgeOp> = {
            let mut pending = self.pending.lock().expect("pending lock poisoned");
            std::mem::take(&mut *pending)
        };
        if batch.is_empty() {
            return Ok(None);
        }
        let started = Instant::now();
        let _span = mis_obs::span("serve", "serve.flush");
        mis_obs::counter("serve", "serve.pending", 0.0);

        // Durable part: append (+ roll + merge) and pin, store locked.
        let (pinned, appended) = {
            let mut store = self.store.lock().expect("store lock poisoned");
            let before = store.wal().last_epoch();
            let appended = {
                let _span = mis_obs::span("serve", "serve.append");
                store.append_ops(&batch)
            };
            let appended = match appended {
                Ok(appended) => appended,
                // Nothing committed: the batch goes back ahead of what
                // was queued since, for the next flush to retry. After
                // the commit (a failed roll or merge), it stays committed.
                Err(e) if store.wal().last_epoch() == before => {
                    let mut pending = self.pending.lock().expect("pending lock poisoned");
                    pending.splice(0..0, batch);
                    mis_obs::counter("serve", "serve.pending", pending.len() as f64);
                    return Err(e);
                }
                Err(e) => return Err(e),
            };
            let _span = mis_obs::span("serve", "serve.snapshot");
            (store.snapshot().pinned(), appended)
        };
        if appended.rolled {
            self.rolls.fetch_add(1, Ordering::Relaxed);
        }
        if appended.merged > 0 {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }

        // Repair part: store unlocked — readers and submitters proceed.
        // From the batch when the published view is at the epoch just
        // before; after a gap, from one violation scan.
        let prev = self.view();
        let out = {
            let _span = mis_obs::span("serve", "serve.repair");
            try_repair_since(&pinned, prev.set(), prev.epoch(), self.config.repair)?
        };
        if out.swap.result.file_scans > 0 {
            self.scan_repairs.fetch_add(1, Ordering::Relaxed);
        }
        let report = FlushReport {
            epoch: pinned.epoch(),
            ops: batch.len(),
            evicted: out.evicted,
            set_size: out.swap.result.set.len(),
            maximality_proved: out.maximality_proved,
            rolled: appended.rolled,
            compacted: appended.merged,
        };

        // Commit part: checkpoint the repaired set, retry segment-file
        // removals that failed, publish the view.
        {
            let _span = mis_obs::span("serve", "serve.checkpoint");
            let mut store = self.store.lock().expect("store lock poisoned");
            store.write_checkpoint(report.epoch, &out.swap.result.set)?;
            store.gc();
        }
        {
            let _span = mis_obs::span("serve", "serve.publish");
            let view = {
                let _span = mis_obs::span("serve", "serve.build_view");
                build_view(pinned, out.swap.result.set, out.maximality_proved)
            };
            *self.view.write().expect("view lock poisoned") = Arc::new(view);
        }
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.requests
            .record("flush", started.elapsed().as_nanos() as u64);
        Ok(Some(report))
    }

    /// Whether `v` is in the maintained set at the published epoch.
    pub fn member(&self, v: VertexId) -> io::Result<bool> {
        let started = Instant::now();
        self.check_vertex(v)?;
        let answer = self.view().is_member(v);
        self.requests
            .record("member", started.elapsed().as_nanos() as u64);
        Ok(answer)
    }

    /// `v`'s neighbour list at the published epoch: the view's merged
    /// record, read through the store's point-access handle.
    pub fn neighbors(&self, v: VertexId) -> io::Result<Vec<VertexId>> {
        let started = Instant::now();
        self.check_vertex(v)?;
        let mut merged = Vec::new();
        self.view()
            .graph()
            .with_neighbors(v, &mut |ns| merged.extend_from_slice(ns))?;
        self.requests
            .record("neighbors", started.elapsed().as_nanos() as u64);
        Ok(merged)
    }

    /// Engine counters + per-kind request latency summaries.
    pub fn stats(&self) -> ServeStats {
        let started = Instant::now();
        let view = self.view();
        let pending_ops = self.pending.lock().expect("pending lock poisoned").len();
        let stats = ServeStats {
            epoch: view.epoch(),
            set_size: view.set().len(),
            pending_ops,
            flushes: self.flushes.load(Ordering::Relaxed),
            rolls: self.rolls.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            scan_repairs: self.scan_repairs.load(Ordering::Relaxed),
            requests: self.requests.summaries(),
        };
        self.requests
            .record("stats", started.elapsed().as_nanos() as u64);
        stats
    }

    /// The underlying store's durable status (segments, WAL, checkpoint).
    /// Takes the store lock briefly.
    pub fn store_status(&self) -> io::Result<StoreStatus> {
        self.store.lock().expect("store lock poisoned").status()
    }

    fn check_vertex(&self, v: VertexId) -> io::Result<()> {
        if (v as usize) < self.num_vertices {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("vertex {v} out of range ({} vertices)", self.num_vertices),
            ))
        }
    }
}

fn build_view(
    pinned: PinnedDelta<AnyAdjFile>,
    set: Vec<VertexId>,
    maximality_proved: bool,
) -> ServeView {
    let mut member = vec![false; pinned.num_vertices()];
    for &v in &set {
        member[v as usize] = true;
    }
    ServeView {
        epoch: pinned.epoch(),
        set,
        member,
        graph: pinned,
        maximality_proved,
    }
}

/// The longest request line a connection accepts, newline excluded:
/// about 100× the longest verb.
const MAX_REQUEST_LINE: usize = 4096;

/// How long an idle connection waits for bytes before it looks at the
/// shutdown flag again.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// How long the accept loop sleeps when nobody is waiting to connect.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Where [`run`] listens: a Unix socket or a TCP address. Accepts are
/// non-blocking, so the accept loop can watch for `SHUTDOWN`. Dropping a
/// Unix listener removes its socket file.
#[derive(Debug)]
pub struct Listener {
    bound: Bound,
}

#[derive(Debug)]
enum Bound {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    /// Listens on a Unix socket at `path`, replacing a socket file a
    /// dead server left behind.
    pub fn bind_unix(path: &Path) -> io::Result<Self> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            bound: Bound::Unix(listener, path.to_path_buf()),
        })
    }

    /// Listens on a TCP address (`HOST:PORT`; port 0 picks a free one).
    pub fn bind_tcp(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            bound: Bound::Tcp(listener),
        })
    }

    /// `unix:PATH`, or `tcp:HOST:PORT` with the port actually bound.
    pub fn describe(&self) -> String {
        match &self.bound {
            Bound::Unix(_, path) => format!("unix:{}", path.display()),
            Bound::Tcp(l) => match l.local_addr() {
                Ok(a) => format!("tcp:{a}"),
                Err(_) => "tcp:?".into(),
            },
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Bound::Unix(_, path) = &self.bound {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Serves `engine` on `listener`, one thread per connection, until a
/// client sends `SHUTDOWN`. Returns once every connection has ended and
/// a final flush has committed what they queued. A failed accept ends
/// the connections too and returns its error without the final flush; a
/// connection thread that panics makes `run` panic once the others end.
pub fn run(engine: &ServeEngine, listener: &Listener) -> io::Result<()> {
    let shutdown = &AtomicBool::new(false);
    std::thread::scope(|scope| {
        while !shutdown.load(Ordering::SeqCst) {
            // A dropped handle releases its thread once it ends; the
            // scope still waits for it.
            let accepted = match &listener.bound {
                Bound::Unix(l, _) => l.accept().map(|(s, _)| {
                    if s.set_read_timeout(Some(READ_TIMEOUT)).is_ok() {
                        scope.spawn(move || connection(&s, engine, shutdown));
                    }
                }),
                Bound::Tcp(l) => l.accept().map(|(s, _)| {
                    if s.set_read_timeout(Some(READ_TIMEOUT)).is_ok() {
                        scope.spawn(move || connection(&s, engine, shutdown));
                    }
                }),
            };
            match accepted {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
                Err(e) => {
                    shutdown.store(true, Ordering::SeqCst);
                    return Err(io::Error::new(e.kind(), format!("accept failed: {e}")));
                }
            }
        }
        Ok(())
    })?;
    engine.flush()?;
    Ok(())
}

/// Writes `line` and its newline with one write, so a TCP reply leaves
/// as one segment instead of waiting on the peer's delayed ACK.
pub fn write_line<W: Write + ?Sized>(writer: &mut W, line: &str) -> io::Result<()> {
    writer.write_all(format!("{line}\n").as_bytes())?;
    writer.flush()
}

/// One connection: reads request lines until EOF or shutdown and answers
/// each with one line. A line longer than [`MAX_REQUEST_LINE`] gets an
/// `ERR` and closes the connection; an I/O error just drops it.
fn connection<S>(stream: &S, engine: &ServeEngine, shutdown: &AtomicBool)
where
    for<'a> &'a S: Read + Write,
{
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut line = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        // Read at most one byte past the cap, so an over-long line is
        // seen without being buffered.
        let room = (MAX_REQUEST_LINE + 1).saturating_sub(line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) => {
                if line.last() != Some(&b'\n') && line.len() > MAX_REQUEST_LINE {
                    let reply = format!("ERR request line longer than {MAX_REQUEST_LINE} bytes");
                    let _ = write_line(&mut writer, &reply);
                    break;
                }
                let reply = match std::str::from_utf8(&line) {
                    Ok(request) => execute(engine, request.trim(), shutdown)
                        .unwrap_or_else(|msg| format!("ERR {msg}")),
                    Err(_) => "ERR request line is not UTF-8".into(),
                };
                line.clear();
                if write_line(&mut writer, &reply).is_err() {
                    break;
                }
            }
            // A timeout while idle (or mid-line: the bytes read so far
            // stay buffered in `line`) — poll the flag, keep reading.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
}

/// Parses and executes one request line: a verb plus space-separated
/// vertex ids. `Ok` is the whole reply, `Err` the text after `ERR `.
fn execute(engine: &ServeEngine, line: &str, shutdown: &AtomicBool) -> Result<String, String> {
    let mut parts = line.split_whitespace();
    let Some(verb) = parts.next() else {
        return Ok("OK".into()); // empty line: a keep-alive no-op
    };
    let verb = verb.to_ascii_uppercase();
    let args = parts
        .map(|part| {
            part.parse::<VertexId>()
                .map_err(|_| format!("{verb}: bad vertex id `{part}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let expect = |n: usize| {
        if args.len() == n {
            Ok(())
        } else {
            Err(format!("{verb} takes {n} argument(s), got {}", args.len()))
        }
    };
    let text = |e: io::Error| e.to_string();
    match verb.as_str() {
        "ADD" | "DEL" => {
            expect(2)?;
            let op = if verb == "ADD" {
                EdgeOp::Insert(args[0], args[1])
            } else {
                EdgeOp::Delete(args[0], args[1])
            };
            Ok(format!("OK pending={}", engine.submit(&[op]).map_err(text)?))
        }
        "FLUSH" => {
            expect(0)?;
            Ok(match engine.flush().map_err(text)? {
                None => "OK idle".into(),
                Some(r) => format!(
                    "OK epoch={} ops={} evicted={} set={} proved={} rolled={} compacted={}",
                    r.epoch, r.ops, r.evicted, r.set_size, r.maximality_proved, r.rolled,
                    r.compacted
                ),
            })
        }
        "MEMBER" => {
            expect(1)?;
            Ok(format!("OK {}", engine.member(args[0]).map_err(text)?))
        }
        "NEIGHBORS" => {
            expect(1)?;
            let ns = engine.neighbors(args[0]).map_err(text)?;
            let mut reply = format!("OK {}:", ns.len());
            for v in ns {
                reply.push_str(&format!(" {v}"));
            }
            Ok(reply)
        }
        "STATS" => {
            expect(0)?;
            Ok(format!("OK {}", engine.stats().to_json()))
        }
        "STATUS" => {
            expect(0)?;
            Ok(format!("OK {}", engine.store_status().map_err(text)?.to_json()))
        }
        "PING" => {
            expect(0)?;
            Ok("OK pong".into())
        }
        "SHUTDOWN" => {
            expect(0)?;
            shutdown.store(true, Ordering::SeqCst);
            Ok("OK shutting down".into())
        }
        other => Err(format!(
            "unknown verb `{other}` (expected ADD|DEL|FLUSH|MEMBER|NEIGHBORS|STATS|STATUS|PING|SHUTDOWN)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_extmem::{IoStats, ScratchDir};
    use mis_graph::build_adj_file;

    /// The store in `dir`, writing its base on first use.
    fn store(dir: &ScratchDir) -> UpdateStore {
        let stats = IoStats::shared();
        if !dir.file("base.adj").exists() {
            let graph = mis_gen::plrg::Plrg::with_vertices(1_500, 2.0)
                .seed(77)
                .generate();
            build_adj_file(&graph, &dir.file("base.adj"), Arc::clone(&stats), 4096).unwrap();
        }
        let (store, _) = UpdateStore::open(
            &dir.file("base.adj"),
            &dir.file("edits.wal"),
            &dir.file("is.ckpt"),
            stats,
            4096,
        )
        .unwrap();
        store
    }

    fn engine(dir: &ScratchDir, config: ServeConfig) -> ServeEngine {
        ServeEngine::new(store(dir), config).unwrap()
    }

    #[test]
    fn bootstraps_flushes_and_serves_consistent_views() {
        let dir = ScratchDir::new("serve-e2e").unwrap();
        let eng = engine(
            &dir,
            ServeConfig {
                batch_ops: usize::MAX, // manual flushes only
                roll_epochs: 1,        // roll every epoch
                compact_threshold: 3,
                ..ServeConfig::default()
            },
        );
        let v0 = eng.view();
        assert_eq!(v0.epoch(), 0);
        assert!(v0.maximality_proved());
        assert!(!v0.set().is_empty());
        let (a, b) = (v0.set()[0], v0.set()[1]);

        // Connect two members: the flush must evict one and stay maximal.
        eng.submit(&[EdgeOp::Insert(a.min(b), a.max(b))]).unwrap();
        let r1 = eng.flush().unwrap().unwrap();
        assert_eq!(r1.epoch, 1);
        assert_eq!(r1.evicted, 1);
        assert!(r1.maximality_proved);
        assert!(r1.rolled);

        // Membership reflects the published epoch: the connected pair
        // can no longer both be members (the recover pass may even have
        // swapped the survivor for better neighbours). The merged
        // neighbor list contains the inserted edge.
        assert!(!(eng.member(a).unwrap() && eng.member(b).unwrap()));
        assert!(eng.neighbors(a).unwrap().contains(&b));

        // The old view is pinned: two more epochs commit underneath, and
        // v0 still answers from epoch 0.
        let pinned = eng.view();
        eng.submit(&[EdgeOp::Delete(a.min(b), a.max(b))]).unwrap();
        eng.flush().unwrap().unwrap();
        eng.submit(&[EdgeOp::Insert(0, 1)]).unwrap();
        let r3 = eng.flush().unwrap().unwrap();
        assert_eq!(r3.epoch, 3);
        assert!(r3.compacted >= 2, "third roll must trigger a merge");
        assert_eq!(pinned.epoch(), 1);
        assert!(!(pinned.is_member(a) && pinned.is_member(b)));
        assert_eq!(eng.view().epoch(), 3);

        let stats = eng.stats();
        assert_eq!(stats.epoch, 3);
        assert_eq!(stats.flushes, 3);
        assert_eq!(stats.rolls, 3);
        assert_eq!(stats.compactions, 1);
        assert!(stats.requests.iter().any(|(k, _)| *k == "member"));
        let status = eng.store_status().unwrap();
        assert_eq!(status.last_epoch, 3);
    }

    #[test]
    fn auto_flush_fires_at_the_batch_threshold() {
        let dir = ScratchDir::new("serve-batch").unwrap();
        let eng = engine(
            &dir,
            ServeConfig {
                batch_ops: 4,
                ..ServeConfig::default()
            },
        );
        assert_eq!(eng.submit(&[EdgeOp::Insert(0, 1)]).unwrap(), 1);
        assert_eq!(eng.submit(&[EdgeOp::Insert(0, 2)]).unwrap(), 2);
        assert_eq!(
            eng.submit(&[EdgeOp::Insert(0, 3), EdgeOp::Insert(0, 4)])
                .unwrap(),
            0,
            "hitting the threshold flushes"
        );
        assert_eq!(eng.view().epoch(), 1);
        assert!(eng.flush().unwrap().is_none(), "queue is empty again");
    }

    #[test]
    fn submit_validates_endpoints() {
        let dir = ScratchDir::new("serve-valid").unwrap();
        let eng = engine(&dir, ServeConfig::default());
        let n = eng.num_vertices() as u32;
        assert!(eng.submit(&[EdgeOp::Insert(0, n)]).is_err());
        assert!(eng.submit(&[EdgeOp::Delete(2, 2)]).is_err());
        assert!(eng.member(n).is_err());
        assert!(eng.neighbors(n).is_err());
    }

    #[test]
    fn readers_run_concurrently_with_flushes() {
        let dir = ScratchDir::new("serve-conc").unwrap();
        let eng = Arc::new(engine(
            &dir,
            ServeConfig {
                batch_ops: usize::MAX,
                roll_epochs: 2,
                compact_threshold: 2,
                ..ServeConfig::default()
            },
        ));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for t in 0..2u32 {
            let eng = Arc::clone(&eng);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut answered = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = (answered as u32 * 37 + t) % eng.num_vertices() as u32;
                    // A view must always be internally consistent:
                    // membership bitmap and set agree.
                    let view = eng.view();
                    assert_eq!(view.is_member(v), view.set().binary_search(&v).is_ok());
                    eng.neighbors(v).unwrap();
                    answered += 1;
                }
                answered
            }));
        }
        for i in 0..6u32 {
            eng.submit(&[EdgeOp::Insert(i, i + 500), EdgeOp::Insert(i, i + 600)])
                .unwrap();
            eng.flush().unwrap().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "readers made progress");
        }
        let view = eng.view();
        assert_eq!(view.epoch(), 6);
        assert!(view.maximality_proved());
    }

    /// A batch that connects two members of `view`'s set and deletes a
    /// base edge at `v`.
    fn churn(eng: &ServeEngine, v: VertexId) -> Vec<EdgeOp> {
        let view = eng.view();
        let (a, b) = (view.set()[v as usize], view.set()[v as usize + 1]);
        let mut ops = vec![EdgeOp::Insert(a, b)];
        view.graph()
            .with_neighbors(v, &mut |ns| {
                ops.extend(ns.first().map(|&u| EdgeOp::Delete(v, u)))
            })
            .unwrap();
        ops
    }

    #[test]
    fn a_flush_after_a_gap_repairs_from_one_scan() {
        // A checkpoint path blocked by a directory, or a segment
        // directory path blocked by a file when the second epoch rolls:
        // the append commits epoch 2, the flush fails, and epoch 1 stays
        // published.
        for (blocked, roll_epochs) in [("is.ckpt", 8), ("edits.segs", 2)] {
            let dir = ScratchDir::new("serve-gap").unwrap();
            let store = store(&dir);
            let stats = Arc::clone(store.stats());
            let config = ServeConfig {
                batch_ops: usize::MAX,
                roll_epochs,
                ..ServeConfig::default()
            };
            let eng = ServeEngine::new(store, config).unwrap();
            eng.submit(&churn(&eng, 3)).unwrap();
            assert!(eng.flush().unwrap().unwrap().maximality_proved);

            let path = dir.file(blocked);
            if path.exists() {
                std::fs::remove_file(&path).unwrap();
                std::fs::create_dir(&path).unwrap();
            } else {
                std::fs::write(&path, b"").unwrap();
            }
            eng.submit(&churn(&eng, 5)).unwrap();
            assert!(eng.flush().is_err(), "{blocked}");
            assert_eq!(eng.view().epoch(), 1);
            if path.is_dir() {
                std::fs::remove_dir(&path).unwrap();
            } else {
                std::fs::remove_file(&path).unwrap();
            }
            assert_eq!(eng.store_status().unwrap().last_epoch, 2);

            // The next flush pins epoch 3, two epochs past the view: one
            // violation scan, then point reads.
            eng.submit(&churn(&eng, 7)).unwrap();
            let scans = stats.snapshot().scans_started;
            let report = eng.flush().unwrap().unwrap();
            assert_eq!(stats.snapshot().scans_started - scans, 1, "{blocked}");
            assert_eq!(report.epoch, 3);
            assert!(report.maximality_proved);
            let view = eng.view();
            assert!(mis_core::is_maximal_independent_set(
                view.graph(),
                view.set()
            ));
            assert_eq!(eng.stats().scan_repairs, 1);

            // The one after it repairs from its batch, with no scan.
            eng.submit(&churn(&eng, 9)).unwrap();
            let scans = stats.snapshot().scans_started;
            assert!(eng.flush().unwrap().unwrap().maximality_proved);
            assert_eq!(stats.snapshot().scans_started, scans, "{blocked}");
            assert_eq!(eng.stats().scan_repairs, 1);
        }
    }

    #[test]
    fn a_failed_append_requeues_its_batch_for_the_next_flush() {
        let dir = ScratchDir::new("serve-requeue").unwrap();
        let eng = engine(
            &dir,
            ServeConfig {
                batch_ops: usize::MAX,
                ..ServeConfig::default()
            },
        );
        let batch = churn(&eng, 3);
        assert!(batch.len() >= 2);
        eng.submit(&batch).unwrap();
        // The second record write fails after the first op is logged.
        crate::wal::tests::fail_write_after(1);
        assert!(eng.flush().is_err());
        assert_eq!(eng.view().epoch(), 0);
        let status = eng.store_status().unwrap();
        assert_eq!((status.last_epoch, status.committed_ops), (0, 0));
        assert_eq!(eng.store.lock().unwrap().wal().uncommitted_ops(), 0);
        // Nor does the file: a reopened copy holds no op and no torn tail.
        let copy = dir.file("copy.wal");
        std::fs::copy(dir.file("edits.wal"), &copy).unwrap();
        let (_, recovery) = crate::wal::Wal::open(&copy, IoStats::shared()).unwrap();
        assert_eq!((recovery.committed_ops, recovery.dropped_bytes), (0, 0));

        // Ops queued after the failure go behind the re-queued batch.
        let later = churn(&eng, 5);
        assert_eq!(eng.submit(&later).unwrap(), batch.len() + later.len());
        let report = eng.flush().unwrap().unwrap();
        assert_eq!((report.epoch, report.ops), (1, batch.len() + later.len()));
        assert!(report.maximality_proved);
        let committed: Vec<EdgeOp> = eng
            .store
            .lock()
            .unwrap()
            .committed_ops()
            .map(|(epoch, op)| {
                assert_eq!(epoch, 1);
                op
            })
            .collect();
        assert_eq!(committed, [batch, later].concat());
    }

    #[test]
    fn a_flush_on_a_truncated_base_fails_and_the_view_keeps_serving() {
        let dir = ScratchDir::new("serve-trunc").unwrap();
        let eng = engine(&dir, ServeConfig::default());
        let view = eng.view();
        let (member, other) = (view.set()[0], view.set()[1]);
        // No record is left to read once the base keeps only part of its
        // header, and nothing was read through the pager before.
        let path = dir.file("base.adj");
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(16).unwrap();
        eng.submit(&[EdgeOp::Insert(member, other)]).unwrap();
        let err = eng.flush().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            Arc::ptr_eq(&eng.view(), &view),
            "the previous view stays published"
        );
        assert!(eng.member(member).unwrap());
    }

    #[test]
    fn the_first_flush_merges_segments_an_earlier_run_left() {
        let dir = ScratchDir::new("serve-onerule").unwrap();
        let mut earlier = store(&dir);
        earlier.set_roll_policy(RollPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_epochs: 1,
            compact_threshold: usize::MAX,
        });
        for i in 0..3u32 {
            earlier.append_ops(&[EdgeOp::Insert(i, i + 100)]).unwrap();
        }
        assert_eq!(earlier.segments().len(), 3);
        drop(earlier);

        let eng = engine(
            &dir,
            ServeConfig {
                batch_ops: usize::MAX,
                compact_threshold: 3,
                ..ServeConfig::default()
            },
        );
        eng.submit(&[EdgeOp::Insert(3, 103)]).unwrap();
        let report = eng.flush().unwrap().unwrap();
        assert!(!report.rolled);
        assert_eq!(report.compacted, 3);
        assert_eq!(eng.stats().compactions, 1);
        assert_eq!(eng.store_status().unwrap().segments.len(), 1);
    }

    #[test]
    fn execute_answers_each_verb_in_one_line() {
        let dir = ScratchDir::new("serve-execute").unwrap();
        let eng = engine(
            &dir,
            ServeConfig {
                batch_ops: usize::MAX,
                ..ServeConfig::default()
            },
        );
        let shutdown = AtomicBool::new(false);
        let ask = |line: &str| match execute(&eng, line, &shutdown) {
            Ok(reply) => reply,
            Err(msg) => format!("ERR {msg}"),
        };
        let n = eng.num_vertices();
        let member = eng.view().set()[0];
        assert_eq!(ask(""), "OK");
        assert_eq!(ask("ping"), "OK pong");
        assert_eq!(ask("FLUSH"), "OK idle");
        assert_eq!(ask(&format!("MEMBER {member}")), "OK true");
        let mut expected = String::new();
        eng.view()
            .graph()
            .with_neighbors(member, &mut |ns| {
                expected = format!("OK {}:", ns.len());
                for v in ns {
                    expected.push_str(&format!(" {v}"));
                }
            })
            .unwrap();
        assert_eq!(ask(&format!("NEIGHBORS {member}")), expected);
        assert_eq!(ask("ADD 0 1"), "OK pending=1");
        assert_eq!(ask("del 0 1"), "OK pending=2");
        let flushed = ask("FLUSH");
        assert!(
            flushed.starts_with("OK epoch=1 ops=2 evicted="),
            "{flushed}"
        );
        assert!(flushed.contains(" proved=true rolled=false compacted=0"));
        let stats = ask("STATS");
        assert!(
            stats.starts_with("OK {\"epoch\":1,\"set_size\":"),
            "{stats}"
        );
        assert!(
            stats.contains(",\"pending_ops\":0,\"flushes\":1,"),
            "{stats}"
        );
        let status = ask("STATUS");
        assert!(
            status.starts_with(&format!("OK {{\"vertices\":{n},")),
            "{status}"
        );
        assert!(status.ends_with(",\"segments\":[]}"), "{status}");

        assert_eq!(ask("ADD 0"), "ERR ADD takes 2 argument(s), got 1");
        assert_eq!(ask("MEMBER x"), "ERR MEMBER: bad vertex id `x`");
        assert_eq!(
            ask(&format!("MEMBER {n}")),
            format!("ERR vertex {n} out of range ({n} vertices)")
        );
        assert_eq!(
            ask("ADD 3 3"),
            format!("ERR edge (3, 3) invalid for {n} vertices")
        );
        assert!(ask("FROB").starts_with("ERR unknown verb `FROB`"));
        assert!(!shutdown.load(Ordering::SeqCst));
        assert_eq!(ask("SHUTDOWN"), "OK shutting down");
        assert!(shutdown.load(Ordering::SeqCst));
    }

    #[test]
    fn json_replies_keep_their_keys_in_order() {
        let summary = |count, p50_ns, mean_ns| RequestSummary {
            count,
            p50_ns,
            p99_ns: 2047,
            max_ns: 1500,
            mean_ns,
        };
        let stats = ServeStats {
            epoch: 3,
            set_size: 7,
            pending_ops: 1,
            flushes: 3,
            rolls: 1,
            compactions: 0,
            scan_repairs: 2,
            requests: vec![
                ("flush", summary(3, 1023, 1200.25)),
                ("member", summary(2, 255, 150.0)),
            ],
        };
        assert_eq!(
            stats.to_json(),
            "{\"epoch\":3,\"set_size\":7,\"pending_ops\":1,\"flushes\":3,\"rolls\":1,\
             \"compactions\":0,\"scan_repairs\":2,\"requests\":{\
             \"flush\":{\"count\":3,\"p50_ns\":1023,\"p99_ns\":2047,\"max_ns\":1500,\"mean_ns\":1200.2},\
             \"member\":{\"count\":2,\"p50_ns\":255,\"p99_ns\":2047,\"max_ns\":1500,\"mean_ns\":150.0}}}"
        );
        let segment = |id, bytes| crate::SegmentMeta {
            id,
            epoch_lo: 1,
            epoch_hi: 2,
            ops: 3,
            min_vertex: 0,
            max_vertex: 9,
            tombstones: 1,
            bytes,
        };
        let mut status = StoreStatus {
            vertices: 10,
            base_edges: 12,
            live_edges: 13,
            last_epoch: 2,
            committed_ops: 4,
            wal_bytes: 64,
            checkpoint: None,
            segments: Vec::new(),
            segment_bytes: 0,
            dead_segments: 1,
        };
        let head = "{\"vertices\":10,\"base_edges\":12,\"live_edges\":13,\"last_epoch\":2,\
                    \"committed_ops\":4,\"wal_bytes\":64,\"segment_bytes\":0,\"dead_segments\":1,";
        assert_eq!(
            status.to_json(),
            format!("{head}\"checkpoint\":null,\"segments\":[]}}")
        );
        status.checkpoint = Some((2, 5));
        status.segments = vec![segment(0, 40), segment(1, 48)];
        assert_eq!(
            status.to_json(),
            format!(
                "{head}\"checkpoint\":{{\"epoch\":2,\"set_size\":5}},\"segments\":[\
                 {{\"id\":0,\"epoch_lo\":1,\"epoch_hi\":2,\"ops\":3,\"tombstones\":1,\
                 \"min_vertex\":0,\"max_vertex\":9,\"bytes\":40}},\
                 {{\"id\":1,\"epoch_lo\":1,\"epoch_hi\":2,\"ops\":3,\"tombstones\":1,\
                 \"min_vertex\":0,\"max_vertex\":9,\"bytes\":48}}]}}"
            )
        );
    }
}
