//! The `serve-churn` workload: a real `mis serve --socket` process under
//! a closed-loop writer and an open-loop reader, one client process,
//! two threads and two connections.
//!
//! * Writer: pipelines each batch of churn ops (`ADD`/`DEL`) followed by
//!   `FLUSH`, and waits for the `FLUSH` reply before the next batch.
//! * Reader: sends `MEMBER` and `NEIGHBORS` 1:1 on uniform vertex ids at
//!   a fixed rate, each timed from when it was due to be sent.
//!
//! The traced run replays the same batches and read mix in-process,
//! once through `ServeEngine` and once stage by stage through
//! `UpdateStore` + `repair_updated_set_from_ops`.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mis_core::{repair_updated_set_from_ops, RepairConfig};
use mis_extmem::IoStats;
use mis_gen::{churn_stream, ChurnKind};
use mis_graph::{CsrGraph, VertexId};
use mis_update::{Checkpoint, EdgeOp, RollPolicy, ServeConfig, ServeEngine, UpdateStore};

use crate::common::{self, median, ms_since, quantile, set_hash, Report, Rng, BLOCK_SIZE};
use crate::layers::{self, us};
use crate::solve::{self, SolveSpec};
use crate::Ctx;

/// Flush policy of the served store, shared by the server command line
/// and both in-process replays.
const ROLL_EPOCHS: u64 = 2;
const COMPACT_THRESHOLD: usize = 3;
/// `--batch-ops` so large that only the client's `FLUSH` ends an epoch.
const NEVER_AUTO_FLUSH: u64 = 1_000_000_000;
/// Share of churn ops that delete an existing edge.
const DELETE_FRACTION: f64 = 0.3;
/// Batches per `--seconds` of run time (a flush under read load costs
/// ~0.2 s at full scale), and the floor that keeps the p90 commit
/// latency backed by 10 samples beyond it.
const BATCHES_PER_SECOND: f64 = 5.0;
const MIN_BATCHES: usize = 100;
/// How long any single reply or the server's start and exit may take.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Wall-time budget of a traced run, below the 180 s a run may take.
const TRACED_RUN_BUDGET: Duration = Duration::from_secs(150);

/// Set-up repetitions per run; `setup_s` is their median. Set-up is
/// cheap here (~0.2 s), so more repetitions steady the median.
const SETUP_REPS: usize = 7;

const CHURN_SALT: u64 = 0x00c4_u64 << 32;
const READ_SALT: u64 = 0x0bad_5eed;

struct Params {
    n: u64,
    batches: usize,
    batch_ops: usize,
    read_rate: f64,
}

impl Params {
    fn new(ctx: &Ctx) -> Self {
        if ctx.tiny {
            Self {
                n: 5_000,
                batches: 6,
                batch_ops: 100,
                read_rate: 500.0,
            }
        } else {
            Self {
                n: 200_000,
                batches: ((ctx.seconds * BATCHES_PER_SECOND) as usize).max(MIN_BATCHES),
                batch_ops: 1_000,
                read_rate: 2_000.0,
            }
        }
    }
}

fn repair_config() -> RepairConfig {
    // `mis serve`'s defaults: two recover rounds, a proof every epoch.
    RepairConfig {
        recover_rounds: 2,
        verify: true,
    }
}

/// One line-protocol connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    fn connect(path: &Path) -> io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    fn read_reply(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    fn ask(&mut self, request: &str) -> io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.read_reply()
    }
}

/// A running `mis serve` child and its files.
struct Server {
    child: Child,
    socket: PathBuf,
    log: PathBuf,
}

impl Server {
    fn spawn(ctx: &Ctx, base: &Path) -> io::Result<(Self, Conn)> {
        let socket = ctx.dir.join("mis.sock");
        let log = ctx.dir.join("server.log");
        let child = Command::new(&ctx.mis)
            .arg("serve")
            .arg(base)
            .arg("--socket")
            .arg(&socket)
            .arg("--wal")
            .arg(ctx.dir.join("served.wal"))
            .arg("--checkpoint")
            .arg(ctx.dir.join("served.ckpt"))
            .args(["--batch-ops", &NEVER_AUTO_FLUSH.to_string()])
            .args(["--roll-epochs", &ROLL_EPOCHS.to_string()])
            .args(["--compact-threshold", &COMPACT_THRESHOLD.to_string()])
            .stdin(Stdio::null())
            .stdout(File::create(&log)?)
            .stderr(File::create(ctx.dir.join("server.err"))?)
            .spawn()?;
        let mut server = Self { child, socket, log };
        let start = Instant::now();
        loop {
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "mis serve exited early: {status}"
                )));
            }
            if let Ok(mut conn) = Conn::connect(&server.socket) {
                if conn.ask("PING")? == "OK pong" {
                    return Ok((server, conn));
                }
            }
            if start.elapsed() > IO_TIMEOUT {
                server.kill();
                return Err(io::Error::other("mis serve did not answer PING"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sends `SHUTDOWN` and waits for the process to exit.
    fn shutdown(mut self, conn: &mut Conn) -> io::Result<bool> {
        let acked = conn.ask("SHUTDOWN")? == "OK shutting down";
        let start = Instant::now();
        while start.elapsed() < IO_TIMEOUT {
            if let Some(status) = self.child.try_wait()? {
                return Ok(acked && status.success());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
        Ok(false)
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A run that stops early on an error never leaves the server behind.
impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// What the writer saw.
#[derive(Debug, Default)]
struct WriterOut {
    commit_ms: Vec<f64>,
    /// `set=` of every `FLUSH` reply, by epoch.
    flush_sets: Vec<usize>,
    requests: u64,
    err_replies: u64,
    unproved: u64,
    wall_s: f64,
    transport_error: Option<String>,
}

fn write_batches(conn: &mut Conn, batches: &[Vec<EdgeOp>]) -> WriterOut {
    let mut out = WriterOut::default();
    let start = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let mut wire = String::with_capacity(batch.len() * 24 + 6);
        for op in batch {
            let (verb, (u, v)) = match op {
                EdgeOp::Insert(..) => ("ADD", op.endpoints()),
                EdgeOp::Delete(..) => ("DEL", op.endpoints()),
            };
            let _ = writeln!(wire, "{verb} {u} {v}");
        }
        wire.push_str("FLUSH\n");
        out.requests += batch.len() as u64 + 1;
        let t = Instant::now();
        let step = (|| -> io::Result<()> {
            conn.writer.write_all(wire.as_bytes())?;
            for _ in batch {
                if !conn.read_reply()?.starts_with("OK pending=") {
                    out.err_replies += 1;
                }
            }
            let reply = conn.read_reply()?;
            out.commit_ms.push(ms_since(t));
            let field = |key: &str| {
                reply
                    .split_whitespace()
                    .find_map(|kv| kv.strip_prefix(key))
                    .map(str::to_string)
            };
            let epoch_ok = field("epoch=").as_deref() == Some(&(i + 1).to_string());
            if !reply.starts_with("OK ") || !epoch_ok {
                out.err_replies += 1;
            }
            if field("proved=").as_deref() != Some("true") {
                out.unproved += 1;
            }
            out.flush_sets
                .push(field("set=").and_then(|s| s.parse().ok()).unwrap_or(0));
            Ok(())
        })();
        if let Err(e) = step {
            out.transport_error = Some(e.to_string());
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// What the reader saw, latencies from each request's due time.
#[derive(Debug, Default)]
struct ReaderOut {
    member_ns: Vec<f64>,
    neighbors_ns: Vec<f64>,
    late_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn read_until(conn: &mut Conn, n: usize, rate: f64, seed: u64, done: &AtomicBool) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut rng = Rng::new(seed ^ READ_SALT);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut due = start;
    while !done.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.late_ns
            .push(Instant::now().duration_since(due).as_nanos() as f64);
        let v = rng.below(n as u64);
        let member = out.attempted % 2 == 0;
        let request = if member {
            format!("MEMBER {v}")
        } else {
            format!("NEIGHBORS {v}")
        };
        out.attempted += 1;
        match conn.ask(&request) {
            Ok(reply) if reply.starts_with("OK ") => {
                let ns = due.elapsed().as_nanos() as f64;
                if member {
                    out.member_ns.push(ns);
                } else {
                    out.neighbors_ns.push(ns);
                }
            }
            Ok(_) => out.failed += 1,
            Err(_) => {
                out.failed += 1;
                break;
            }
        }
        due += interval;
    }
    out
}

/// Bytes the server read from storage, from its shutdown `io = …` line.
fn server_bytes_read(log: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(log).ok()?;
    let line = text.lines().find(|l| l.starts_with("io = "))?;
    let (_, rest) = line.split_once("blocks read (")?;
    rest.split(' ').next()?.parse().ok()
}

fn to_batches(graph: &CsrGraph, p: &Params, seed: u64) -> Vec<Vec<EdgeOp>> {
    let stream = churn_stream(
        graph,
        p.batches * p.batch_ops,
        DELETE_FRACTION,
        seed ^ CHURN_SALT,
    );
    stream
        .chunks(p.batch_ops)
        .map(|chunk| {
            chunk
                .iter()
                .map(|op| match op.kind {
                    ChurnKind::Insert => EdgeOp::Insert(op.u, op.v),
                    ChurnKind::Delete => EdgeOp::Delete(op.u, op.v),
                })
                .collect()
        })
        .collect()
}

/// The base graph with every op applied, rebuilt in memory.
fn churned_graph(graph: &CsrGraph, batches: &[Vec<EdgeOp>]) -> CsrGraph {
    let mut edges: HashSet<(VertexId, VertexId)> = graph.edges().collect();
    for op in batches.iter().flatten() {
        let (u, v) = op.endpoints();
        let pair = (u.min(v), u.max(v));
        if op.is_insert() {
            edges.insert(pair);
        } else {
            edges.remove(&pair);
        }
    }
    let mut list: Vec<_> = edges.into_iter().collect();
    list.sort_unstable();
    CsrGraph::from_edges(graph.num_vertices(), &list)
}

fn remove_store_files(dir: &Path) -> io::Result<()> {
    for name in ["served.wal", "served.ckpt"] {
        let _ = std::fs::remove_file(dir.join(name));
    }
    let segs = dir.join("served.segs");
    if segs.exists() {
        std::fs::remove_dir_all(segs)?;
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> io::Result<Report> {
    let p = Params::new(ctx);
    let mut report = Report::default();
    report.notes.push(format!(
        "base: P(a, b=2.0), |V| = {}, seed {}, degree-sorted MISADJ01; {} batches x {} ops \
         ({:.0}% deletes) closed loop; reads {:.0}/s open loop; mis serve --batch-ops {} \
         --roll-epochs {} --compact-threshold {}, default pager",
        p.n,
        ctx.seed,
        p.batches,
        p.batch_ops,
        DELETE_FRACTION * 100.0,
        p.read_rate,
        NEVER_AUTO_FLUSH,
        ROLL_EPOCHS,
        COMPACT_THRESHOLD
    ));

    // ---- Set-up: generate, degree sort, op stream, spawn until PING. ----
    let mut setup_s = Vec::new();
    let mut startup_s = Vec::new();
    let mut sort_s = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let graph = solve::generate(p.n, ctx.seed);
        let (base, sort) = solve::write_sorted(&graph, &ctx.dir, false)?;
        let batches = to_batches(&graph, &p, ctx.seed);
        let spawned = Instant::now();
        let (server, mut conn) = Server::spawn(ctx, &base)?;
        startup_s.push(spawned.elapsed().as_secs_f64());
        setup_s.push(t.elapsed().as_secs_f64());
        sort_s.push(sort);
        if rep + 1 < SETUP_REPS {
            let clean = server.shutdown(&mut conn)?;
            report.check(
                format!("set-up {} server shut down cleanly", rep + 1),
                clean,
            );
            remove_store_files(&ctx.dir)?;
        } else {
            live = Some((graph, base, batches, server, conn));
        }
    }
    let (graph, base, batches, server, mut conn) = live.expect("set-up ran");
    report.check(
        "op stream has the full batch count",
        batches.len() == p.batches && batches.iter().all(|b| b.len() == p.batch_ops),
    );

    // ---- Measured phase: writer thread + open-loop reader. ----
    let mut reader_conn = Conn::connect(&server.socket)?;
    let done = AtomicBool::new(false);
    let (writer, reader, conn_back) = std::thread::scope(|s| {
        let (done_w, batches) = (&done, &batches);
        let w = s.spawn(move || {
            let out = write_batches(&mut conn, batches);
            done_w.store(true, Ordering::SeqCst);
            (out, conn)
        });
        let n = graph.num_vertices();
        let reader = read_until(&mut reader_conn, n, p.read_rate, ctx.seed, &done);
        let (writer, conn) = w.join().expect("writer thread panicked");
        (writer, reader, conn)
    });
    conn = conn_back;
    let rss_mb = common::peak_rss_mb(server.child.id()).unwrap_or(0.0);
    drop(reader_conn);
    let log = server.log.clone();
    let clean = server.shutdown(&mut conn).unwrap_or(false);
    let bytes_read = server_bytes_read(&log);

    // ---- Accounting. ----
    let flushes = writer.commit_ms.len();
    let unanswered = (p.batches - flushes) as u64 * (p.batch_ops as u64 + 1);
    report.attempted += writer.requests + reader.attempted;
    report.failed += writer.err_replies + writer.unproved + reader.failed + unanswered;
    if let Some(e) = &writer.transport_error {
        report.notes.push(format!("writer transport error: {e}"));
    }
    report.check("server shut down cleanly after SHUTDOWN", clean);
    report.check("every FLUSH reply says proved=true", writer.unproved == 0);
    report.check("server log reports its storage reads", bytes_read.is_some());
    report.check("server's peak RSS was read", rss_mb > 0.0);

    // ---- Oracle: the checkpoint against base + whole stream. ----
    let ckpt = Checkpoint::load(&ctx.dir.join("served.ckpt"), &IoStats::shared())?;
    let churned = churned_graph(&graph, &batches);
    let (independent, maximal) = common::is_mis(&churned, &ckpt.set);
    report.check(
        "checkpoint is at the last epoch",
        ckpt.epoch == p.batches as u64,
    );
    report.check(
        "checkpoint set is independent in base + stream",
        independent,
    );
    report.check("checkpoint set is maximal in base + stream", maximal);
    report.check(
        "checkpoint set has the last FLUSH reply's size",
        writer.flush_sets.last() == Some(&ckpt.set.len()),
    );

    let committed_ops = flushes * p.batch_ops;
    let update_ops_s = committed_ops as f64 / writer.wall_s.max(1e-9);
    let e2e = common::end_to_end(
        &setup_s,
        ckpt.set.len(),
        rss_mb,
        bytes_read.unwrap_or(0.0) / 1e6 / flushes.max(1) as f64,
        &writer.commit_ms,
    );
    let m = reader.member_ns.len();
    let nb = reader.neighbors_ns.len();
    report.notes.push(format!(
        "member_p50_us = {:.1}, member_p99_us = {:.1} (n={m}); neighbors_p50_us = {:.1}, \
         neighbors_p99_us = {:.1} (n={nb}); socket round trip from the due time",
        us(&reader.member_ns, 0.5),
        us(&reader.member_ns, 0.99),
        us(&reader.neighbors_ns, 0.5),
        us(&reader.neighbors_ns, 0.99),
    ));
    report.notes.push(format!(
        "commit_p50_ms = {:.1}, commit_p90_ms = {:.1} (n={flushes}); update_ops_s = {:.0} \
         ({committed_ops} ops in {:.2} s writer wall); generator late p99 = {:.3} ms",
        median(&writer.commit_ms),
        quantile(&writer.commit_ms, 0.9),
        update_ops_s,
        writer.wall_s,
        quantile(&reader.late_ns, 0.99) / 1e6,
    ));

    if !ctx.trace {
        report.metrics = e2e;
        return Ok(report);
    }
    report.end_to_end = e2e;

    // ---- Traced run: layers, then both in-process replays. ----
    let base_spec = SolveSpec {
        compressed: false,
        threads: 1,
        cache_mb: 0,
    };
    layers::file_layers(
        ctx,
        &base,
        &base_spec,
        ServeConfig::default().pager,
        graph.num_vertices(),
        &mut report,
    )?;
    report.metric("graph.degree_sort_s", median(&sort_s), "s");
    report.timing("cli.startup_s", median(&startup_s), "s", startup_s.len());
    report.metric(
        "client.late_p99_ms",
        quantile(&reader.late_ns, 0.99) / 1e6,
        "ms",
    );
    report.metric("client.reads_attempted", reader.attempted as f64, "count");
    report.timing("serve.member_p50_us", us(&reader.member_ns, 0.5), "us", m);
    report.timing("serve.member_p99_us", us(&reader.member_ns, 0.99), "us", m);
    report.timing(
        "serve.neighbors_p50_us",
        us(&reader.neighbors_ns, 0.5),
        "us",
        nb,
    );
    report.timing(
        "serve.neighbors_p99_us",
        us(&reader.neighbors_ns, 0.99),
        "us",
        nb,
    );
    report.metric("serve.update_ops_s", update_ops_s, "1/s");
    let commit_p90 = quantile(&writer.commit_ms, 0.9);
    report.timing("serve.commit_p90_ms", commit_p90, "ms", flushes);

    // On a slow host the replays could push the run past its time
    // limit, so they share what is left of TRACED_RUN_BUDGET and stop at
    // an epoch boundary; the stage replay covers the same epochs.
    let reads_per_batch = (reader.attempted as usize / p.batches).max(2);
    let left = TRACED_RUN_BUDGET.saturating_sub(ctx.started.elapsed());
    let deadline = Instant::now() + left / 2;
    let engine = replay_engine(ctx, &base, &batches, reads_per_batch, deadline)?;
    let replayed = engine.hashes.len();
    let stages = replay_stages(ctx, &base, &batches[..replayed])?;
    report.check(
        "engine replay proved every epoch",
        engine.proved == replayed,
    );
    report.check("stage replay proved every epoch", stages.proved == replayed);
    report.check(
        "stage replay set equals engine replay set at every epoch",
        engine.hashes == stages.hashes,
    );
    report.check(
        "replay set size equals the served FLUSH size at every epoch",
        writer.flush_sets.starts_with(&engine.sizes),
    );
    if replayed == batches.len() {
        report.check(
            "replay final set equals the served checkpoint",
            engine.hashes.last() == Some(&set_hash(&ckpt.set)),
        );
    } else {
        report.notes.push(format!(
            "replayed {replayed} of {} epochs within the time limit; final-set check skipped",
            batches.len()
        ));
    }

    let epochs = replayed as f64;
    let io = &stages.io;
    report.metric(
        "extmem.blocks_read",
        io.blocks_read as f64 / epochs,
        "count",
    );
    report.metric("extmem.scans", io.scans_started as f64 / epochs, "count");
    let pager = &engine.io;
    report.metric("extmem.pager.hit_rate", 100.0 * pager.cache_hit_rate(), "%");
    report.metric("extmem.pager.misses", pager.cache_misses as f64, "count");
    report.metric(
        "extmem.pager.evictions",
        pager.cache_evictions as f64,
        "count",
    );
    report.timing(
        "core.repair_ms_p50",
        median(&stages.repair_ms),
        "ms",
        stages.repair_ms.len(),
    );
    report.metric(
        "core.repair_scans",
        stages.repair_scans as f64 / epochs,
        "count",
    );
    for (name, samples) in [
        ("update.append_ms", &stages.append_ms),
        ("update.roll_ms", &stages.roll_ms),
        ("update.compact_ms", &stages.compact_ms),
        ("update.snapshot_ms", &stages.snapshot_ms),
        ("update.checkpoint_ms", &stages.checkpoint_ms),
    ] {
        report.timing(name, median(samples), "ms", samples.len());
    }
    report.metric(
        "update.bytes_written_per_op",
        stages.bytes_written / (epochs * p.batch_ops as f64),
        "B",
    );
    let f = engine.flush_ms.len();
    report.timing("update.flush_ms_p50", median(&engine.flush_ms), "ms", f);
    report.timing(
        "update.flush_ms_p90",
        quantile(&engine.flush_ms, 0.9),
        "ms",
        f,
    );
    let (em, en) = (engine.member_ns.len(), engine.neighbors_ns.len());
    report.timing("update.member_ns_p50", median(&engine.member_ns), "ns", em);
    report.timing(
        "update.neighbors_ns_p50",
        median(&engine.neighbors_ns),
        "ns",
        en,
    );
    report.metric(
        "cli.member_overhead_us",
        us(&reader.member_ns, 0.5) - median(&engine.member_ns) / 1e3,
        "us",
    );
    report.metric(
        "cli.neighbors_overhead_us",
        us(&reader.neighbors_ns, 0.5) - median(&engine.neighbors_ns) / 1e3,
        "us",
    );
    Ok(report)
}

/// The in-process `ServeEngine` replay.
#[derive(Debug, Default)]
struct EngineReplay {
    flush_ms: Vec<f64>,
    member_ns: Vec<f64>,
    neighbors_ns: Vec<f64>,
    hashes: Vec<u64>,
    sizes: Vec<usize>,
    proved: usize,
    io: mis_extmem::IoSnapshot,
}

fn replay_engine(
    ctx: &Ctx,
    base: &Path,
    batches: &[Vec<EdgeOp>],
    reads_per_batch: usize,
    deadline: Instant,
) -> io::Result<EngineReplay> {
    let _span = mis_obs::span("phase", "replay.engine");
    let stats = IoStats::shared();
    let (store, _) = UpdateStore::open(
        base,
        &ctx.dir.join("engine.wal"),
        &ctx.dir.join("engine.ckpt"),
        Arc::clone(&stats),
        BLOCK_SIZE,
    )?;
    let engine = ServeEngine::new(
        store,
        ServeConfig {
            batch_ops: usize::MAX,
            roll_epochs: ROLL_EPOCHS,
            compact_threshold: COMPACT_THRESHOLD,
            repair: repair_config(),
            ..ServeConfig::default()
        },
    )?;
    let n = engine.num_vertices() as u64;
    let before = stats.snapshot();
    let mut out = EngineReplay::default();
    let mut rng = Rng::new(ctx.seed ^ READ_SALT);
    let mut reads = 0u64;
    for batch in batches {
        if !out.hashes.is_empty() && Instant::now() > deadline {
            break;
        }
        let t = Instant::now();
        let flushed = {
            let _span = mis_obs::span("bench", "update.flush");
            engine.submit(batch)?;
            engine.flush()?
        };
        out.flush_ms.push(ms_since(t));
        let report = flushed.ok_or_else(|| io::Error::other("flush found nothing pending"))?;
        out.proved += usize::from(report.maximality_proved);
        let view = engine.view();
        out.hashes.push(set_hash(view.set()));
        out.sizes.push(view.set().len());
        let _span = mis_obs::span("bench", "update.reads");
        for _ in 0..reads_per_batch {
            let v = rng.below(n) as VertexId;
            let t = Instant::now();
            if reads.is_multiple_of(2) {
                std::hint::black_box(engine.member(v)?);
                out.member_ns.push(t.elapsed().as_nanos() as f64);
            } else {
                std::hint::black_box(engine.neighbors(v)?);
                out.neighbors_ns.push(t.elapsed().as_nanos() as f64);
            }
            reads += 1;
        }
    }
    out.io = stats.snapshot().since(&before);
    Ok(out)
}

/// The stage-by-stage replay through `UpdateStore`.
#[derive(Debug, Default)]
struct StageReplay {
    append_ms: Vec<f64>,
    roll_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    repair_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    repair_scans: u64,
    bytes_written: f64,
    hashes: Vec<u64>,
    proved: usize,
    io: mis_extmem::IoSnapshot,
}

fn replay_stages(ctx: &Ctx, base: &Path, batches: &[Vec<EdgeOp>]) -> io::Result<StageReplay> {
    let _span = mis_obs::span("phase", "replay.stages");
    let stats = IoStats::shared();
    let ckpt_path = ctx.dir.join("stages.ckpt");
    let (mut store, _) = UpdateStore::open(
        base,
        &ctx.dir.join("stages.wal"),
        &ckpt_path,
        Arc::clone(&stats),
        BLOCK_SIZE,
    )?;
    // The engine's policy: rolls and compactions happen at flush
    // boundaries, driven by the thresholds below, never by the store.
    store.set_roll_policy(RollPolicy {
        max_wal_bytes: u64::MAX,
        max_wal_epochs: u64::MAX,
        compact_threshold: usize::MAX,
    });
    let roll_bytes = ServeConfig::default().roll_bytes;
    store.apply(repair_config())?;
    let mut set = Checkpoint::load(&ckpt_path, &stats)?.set;
    let before = stats.snapshot();
    let mut out = StageReplay::default();
    for batch in batches {
        let t = Instant::now();
        {
            let _span = mis_obs::span("bench", "update.append");
            store.append_ops(batch)?;
        }
        out.append_ms.push(ms_since(t));

        if wal_epochs(&store) >= ROLL_EPOCHS || store.wal().disk_bytes() >= roll_bytes {
            let t = Instant::now();
            let _span = mis_obs::span("bench", "update.roll");
            store.roll_segment()?;
            out.roll_ms.push(ms_since(t));
        }
        if store.segments().len() >= COMPACT_THRESHOLD {
            let t = Instant::now();
            let _span = mis_obs::span("bench", "update.compact");
            store.compact_segments()?;
            out.compact_ms.push(ms_since(t));
        }

        let t = Instant::now();
        let snap = {
            let _span = mis_obs::span("bench", "update.snapshot");
            store.snapshot()
        };
        out.snapshot_ms.push(ms_since(t));

        // Net insertions only, last op per pair winning — as the engine
        // feeds its repair.
        let mut net: HashMap<(VertexId, VertexId), bool> = HashMap::new();
        for op in batch {
            let (u, v) = op.endpoints();
            net.insert((u.min(v), u.max(v)), op.is_insert());
        }
        let inserted: Vec<_> = net
            .into_iter()
            .filter(|&(_, ins)| ins)
            .map(|(e, _)| e)
            .collect();
        let scans_before = stats.snapshot().scans_started;
        let t = Instant::now();
        let repaired = {
            let _span = mis_obs::span("bench", "core.repair");
            repair_updated_set_from_ops(&snap.pinned(), &set, &inserted, repair_config())
        };
        out.repair_ms.push(ms_since(t));
        out.repair_scans += stats.snapshot().scans_started - scans_before;
        out.proved += usize::from(repaired.maximality_proved);

        let t = Instant::now();
        {
            let _span = mis_obs::span("bench", "update.checkpoint");
            store.write_checkpoint(snap.epoch(), &repaired.swap.result.set)?;
            store.gc();
        }
        out.checkpoint_ms.push(ms_since(t));
        set = repaired.swap.result.set;
        out.hashes.push(set_hash(&set));
    }
    out.io = stats.snapshot().since(&before);
    let ckpt_bytes = std::fs::metadata(&ckpt_path)?.len() as f64;
    out.bytes_written = (out.io.bytes_written + out.io.wal_bytes_written) as f64
        + out.io.checkpoints_written as f64 * ckpt_bytes;
    Ok(out)
}

/// Distinct committed epochs in the store's active WAL.
fn wal_epochs(store: &UpdateStore) -> u64 {
    let mut epochs: Vec<u64> = store.wal().committed().iter().map(|&(e, _)| e).collect();
    epochs.dedup();
    epochs.len() as u64
}
