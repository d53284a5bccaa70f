//! `mis` — command-line driver for the semi-external MIS pipeline.
//!
//! ```text
//! mis gen      <model> <out.adj>         generate a graph file
//!              plrg --vertices N --beta B [--seed S]
//!              dataset --name Facebook [--scale F]
//!              er --vertices N --edges M | ba --vertices N --attach M
//!              rmat --log-vertices K --edge-factor F
//!              [--compress]               emit gap-compressed MISADJC1
//! mis convert  <edges.txt> <out.adj>     text edge list → adjacency file
//! mis sort     <in.adj> <out>            degree-sort (Algorithm 1 preprocessing)
//!              [--compress]               emit gap-compressed MISADJC1
//! mis compress <in> <out.cadj>           gap-compress (WebGraph-style)
//! mis stats    <graph>                   size / degree summary
//! mis bound    <graph>                   Algorithm 5 + matching upper bounds
//! mis run      <graph> [--algo A] [--rounds N] [--threads N]
//!              [--cache-mb N] [--paged-threshold F]
//!              A ∈ greedy | baseline | onek | twok | tfp | dynamic
//! mis update   <append|apply|compact|status> ...   durable edge updates
//!              append <base> --ops <file>          log one epoch of edits
//!              apply <base> [--rounds N]           repair + checkpoint the IS
//!              compact <base> <out>                merge log into a new base
//!                      [--format plain|compressed]
//!              status <base> [--json]              inspect epochs/segments
//!              (all take [--wal F] [--checkpoint F]; defaults derive
//!               from the base path: <base>.wal / <base>.ckpt)
//! mis serve    <base> (--socket PATH | --listen HOST:PORT)   serving front end
//!              [--batch-ops N] [--roll-epochs N] [--roll-bytes B]
//!              [--compact-threshold N] [--rounds N] [--cache-mb N]
//!              --status | --script FILE | --shutdown         client modes
//!              (clients take --socket PATH or --connect HOST:PORT)
//! mis trace    report <trace.jsonl>      summarise a recorded trace
//!              [--json]                   machine-readable report
//! mis bench    diff <base> <current>     side-by-side snapshot diff
//!              check --baseline <file>    noise-aware regression gate
//!                    [--current <file>]
//!              history [--last N] [--ledger FILE]   show the perf ledger
//! ```
//!
//! Every subcommand accepts `--block-size BYTES` (default 65536), the `B`
//! of the external-memory cost model, and fails with `unknown option
//! --X` on any option it does not read. `mis run --cache-mb N` gives the
//! swap algorithms a CLOCK buffer-pool page cache of `N` MiB over the
//! adjacency file: rounds with few live candidates then verify them
//! through the pool instead of re-scanning the whole file
//! (`--paged-threshold` is the candidate fraction below which a round
//! goes paged).
//!
//! `run`, `stats` and `bound` additionally accept `--threads N` (default:
//! the machine's available parallelism): with `N > 1` the scan passes run
//! on the block-parallel execution engine (`mis_core::engine`) — results
//! are bit-identical to the sequential backend at every thread count.
//! (`--algo tfp|dynamic` have no engine-ported passes and always run
//! single-threaded; an explicit `--threads` is noted and ignored there.)
//!
//! `run`, `stats`, `bound` and `update` accept `--trace FILE`: the command
//! then records a [`mis_obs`] timeline — top-level phase spans, per-worker
//! engine timelines, pager/WAL latency histograms and the final I/O
//! counters — and writes it as Chrome-trace JSONL. Inspect it with
//! `mis trace report FILE` (per-phase breakdown, per-worker utilization)
//! or load it into `chrome://tracing` / Perfetto.
//!
//! `run`, `stats` and `bound` also accept `--record`: the command then
//! appends one checksummed [`mis_obs::ledger::LedgerEntry`] — result
//! metrics, environment fingerprint (`--rev` or `GITHUB_SHA` pins the
//! git revision) and, when traced, the per-phase breakdown — to the
//! append-only `BENCH_history.jsonl` performance ledger (`--ledger`
//! or `BENCH_HISTORY_OUT` override the path). `mis stats
//! --check-model` additionally checks the scan's observed I/O against
//! the paper's cost model (`⌈bytes/B⌉` blocks per scan, see
//! [`mis_obs::model`]) and fails when it does not conform exactly.
//! `mis bench check` gates a freshly measured
//! `BENCH_*.json` snapshot against a committed baseline: I/O-count
//! metrics must match exactly, wall-clock metrics get a noise band and
//! are skipped automatically when the two environment fingerprints
//! differ.
//!
//! `<graph>` accepts plain (`MISADJ01`) and gap-compressed (`MISADJC1`)
//! files everywhere it appears, detected by magic bytes — including
//! `mis run --cache-mb`, which builds the one record index both codecs
//! share. `<base>` of `mis update` and `mis serve` takes both as well
//! (the update log overlays whatever backs the store, and `update
//! compact --format compressed` writes a compressed base). Every run
//! prints IS size, scan counts, block transfers, cache hit rates (when
//! caching) and the modelled memory next to the process's peak RSS, and
//! verifies the result before reporting success.
//!
//! `mis serve` turns the update store into a long-running process: it
//! listens on a unix socket (`--socket`) or TCP address (`--listen`),
//! batches `ADD`/`DEL` operations into WAL epochs (auto-flushing every
//! `--batch-ops`, or on an explicit `FLUSH`), repairs the maintained
//! independent set incrementally per epoch — by point reads of what the
//! batch touched, without a scan — and answers `MEMBER`, `NEIGHBORS`,
//! `STATS` and `STATUS` queries from epoch-pinned snapshot views that
//! ingest and compaction never block. One line per request, one line per
//! response; replies start with `OK` or `ERR`. The same subcommand
//! doubles as the client: `mis serve --status` prints the server's
//! stats + store status, `--script FILE` plays a file of protocol verbs,
//! `--shutdown` flushes and stops the server. `<base>` accepts both
//! file formats; the repairs and all serve queries share one pager
//! budget (`--cache-mb`, default 4 MiB in 4 KiB pages). The protocol
//! itself — verbs, connection loop, listener and the JSON replies — is
//! `mis_update::serve`; this binary parses the flags, opens the store
//! and prints the start and shutdown summaries.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use mis_obs as obs;
use mis_obs::report::{parse_json, Json};
use mis_obs::{
    check_snapshots, diff_snapshots, EnvFingerprint, Ledger, LedgerEntry, TraceReport, Workload,
};
use semi_mis::extmem::{SortConfig, DEFAULT_BLOCK_SIZE};
use semi_mis::graph::{
    build_adj_file, compress_adj, degree_sort_adj_file, degree_sort_compressed_adj_file, edgelist,
    AnyAdjFile,
};
use semi_mis::prelude::*;
use semi_mis::update::serve::{self, write_line, Listener};
use semi_mis::update::{CompactFormat, ServeConfig, ServeEngine};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", USAGE.trim());
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "
usage: mis <command> ... [--block-size BYTES]
  gen <plrg|dataset|er|ba|rmat> [options] [--compress] <out.adj>
  convert <edges.txt> <out.adj> [--compress]
  sort <in.adj> <out> [--compress]
  compress <in> <out.cadj>
  stats <graph> [--threads N]
  bound <graph> [--threads N]
  run <graph> [--algo greedy|baseline|onek|twok|tfp|dynamic] [--rounds N]
              [--threads N] [--cache-mb N] [--paged-threshold F]
  update append <base> --ops <file> [--wal F]
         apply <base> [--rounds N] [--wal F] [--checkpoint F]
         compact <base> <out> [--format plain|compressed] [--wal F] [--checkpoint F]
         status <base> [--json] [--wal F] [--checkpoint F]
  serve <base> (--socket PATH | --listen HOST:PORT)
        [--batch-ops N] [--roll-epochs N] [--roll-bytes B] [--compact-threshold N]
        [--rounds N] [--cache-mb N] [--wal F] [--checkpoint F]
  serve (--status | --script FILE | --shutdown) (--socket PATH | --connect HOST:PORT)
  trace report <trace.jsonl> [--json]
  bench diff <base.json> <current.json>
        check --baseline <file> [--current <file>]
        history [--last N] [--ledger FILE]
  (<graph>/<base> may be plain MISADJ01 or gap-compressed MISADJC1 files;
   run/stats/bound/update also take [--trace FILE] to record a Chrome-trace
   JSONL timeline, inspected with `mis trace report` or chrome://tracing;
   run/stats/bound also take [--record] [--rev SHA] [--ledger FILE] to append
   a checksummed entry to the BENCH_history.jsonl perf ledger, and stats
   takes [--check-model] to enforce the I/O cost model exactly)
";

fn dispatch(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing command")?;
    let rest = &args[1..];
    match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "convert" => cmd_convert(rest),
        "sort" => cmd_sort(rest),
        "compress" => cmd_compress(rest),
        "stats" => cmd_stats(rest),
        "bound" => cmd_bound(rest),
        "run" => cmd_run(rest),
        "update" => cmd_update(rest),
        "serve" => cmd_serve(rest),
        "trace" => cmd_trace(rest),
        "bench" => cmd_bench(rest),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Parsed `--name value` option pairs.
type Options = Vec<(String, String)>;

/// Flags that take no value; parsed as `(name, "true")`.
const BOOL_FLAGS: &[&str] = &[
    "compress",
    "record",
    "check-model",
    "json",
    "status",
    "shutdown",
];

/// Pulls `--name value` options, valueless `--flag`s and positional
/// arguments apart. `known` names the options the subcommand reads;
/// `--block-size` is accepted everywhere, and any other option is an
/// error rather than silently ignored.
fn parse_opts(args: &[String], known: &[&str]) -> Result<(Vec<String>, Options), String> {
    let mut positional = Vec::new();
    let mut options = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if name != "block-size" && !known.contains(&name) {
                return Err(format!("unknown option --{name}"));
            }
            if BOOL_FLAGS.contains(&name) {
                options.push((name.to_string(), "true".to_string()));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            options.push((name.to_string(), value.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, options))
}

fn opt<'a>(options: &'a [(String, String)], name: &str) -> Option<&'a str> {
    options
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn opt_parse<T: std::str::FromStr>(
    options: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match opt(options, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse `{v}`")),
    }
}

/// Opens either flavour of on-disk graph (detected by magic bytes).
fn open_any(path: &Path, stats: Arc<IoStats>, block_size: usize) -> Result<AnyAdjFile, String> {
    AnyAdjFile::open_with_block_size(path, stats, block_size).map_err(|e| e.to_string())
}

/// Parses the shared `--block-size` option (the cost model's `B`).
fn opt_block_size(options: &[(String, String)]) -> Result<usize, String> {
    let block_size: usize = opt_parse(options, "block-size", DEFAULT_BLOCK_SIZE)?;
    if block_size == 0 {
        return Err("--block-size must be non-zero".into());
    }
    Ok(block_size)
}

/// Parses `--threads N` into an executor backend. Defaults to the
/// machine's available parallelism; `1` is the sequential backend.
fn opt_executor(options: &[(String, String)]) -> Result<Executor, String> {
    let threads: usize = opt_parse(options, "threads", engine::available_threads())?;
    match threads {
        0 => Err("--threads must be at least 1".into()),
        1 => Ok(Executor::Sequential),
        n => Ok(Executor::parallel(n)),
    }
}

/// Parses the shared `--trace FILE` option and, when present, arms the
/// global trace sink so spans/counters recorded below actually land.
fn opt_trace(options: &[(String, String)]) -> Option<PathBuf> {
    let path = opt(options, "trace").map(PathBuf::from);
    if path.is_some() {
        obs::set_enabled(true);
    }
    path
}

/// Ends a traced command: folds the final I/O counters into the trace,
/// writes the Chrome-trace JSONL file and loads it back as a report (the
/// round-trip doubles as a format check). `None` when `--trace` was not
/// given.
fn finish_trace(path: Option<&Path>, stats: &IoStats) -> Result<Option<TraceReport>, String> {
    let Some(path) = path else { return Ok(None) };
    stats.snapshot().emit_trace("io");
    let trace = obs::drain();
    obs::set_enabled(false);
    trace
        .save(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let report = TraceReport::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace: {} events ({} spans) -> {} (inspect: mis trace report {})",
        report.num_events,
        report.num_spans,
        path.display(),
        path.display()
    );
    Ok(Some(report))
}

/// The `peak RSS = … MiB` line `mis run` prints after the modelled
/// memory: the process's peak resident set (`VmHWM` in
/// `/proc/self/status`), or `None` where that file is unreadable.
fn peak_rss_line() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(format!("peak RSS = {:.1} MiB", kib as f64 / 1024.0))
}

/// Prints the shared I/O counter summary every subcommand ends with,
/// plus the cache hit rate and — when a trace was recorded — the
/// per-phase wall-time breakdown.
fn print_io_summary(stats: &IoStats, report: Option<&TraceReport>) {
    let snap = stats.snapshot();
    println!("io = {snap}");
    let requests = snap.cache_hits + snap.cache_misses;
    if requests > 0 {
        println!(
            "cache hit rate = {:.1}% ({} of {requests} requests)",
            100.0 * snap.cache_hits as f64 / requests as f64,
            snap.cache_hits
        );
    }
    if let Some(report) = report {
        for phase in &report.phases {
            println!(
                "phase {} = {:.3}s (x{})",
                phase.name,
                phase.total_us / 1e6,
                phase.count
            );
        }
        println!(
            "phase coverage = {:.1}% of {:.3}s wall",
            100.0 * report.phase_coverage(),
            report.wall_us / 1e6
        );
        for step in &report.steps {
            println!(
                "step {} = {:.3}s (x{})",
                step.name,
                step.total_us / 1e6,
                step.count
            );
        }
    }
}

/// `mis trace report <trace.jsonl>`: render the per-phase breakdown and
/// per-worker utilization table of a recorded trace (`--json` for the
/// machine-readable form the ledger ingests). Fails on malformed JSONL
/// and on traces with no spans at all (both indicate a broken
/// recording, which CI wants to catch).
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(args, &["json"])?;
    let [action, path] = pos.as_slice() else {
        return Err("trace needs: report <trace.jsonl>".into());
    };
    if action != "report" {
        return Err(format!(
            "unknown trace action `{action}` (expected `report`)"
        ));
    }
    let report = TraceReport::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    if report.num_spans == 0 {
        return Err(format!(
            "{path}: trace contains no span events — was it recorded with --trace?"
        ));
    }
    if opt(&opts, "json").is_some() {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render());
    }
    Ok(())
}

/// The git revision to stamp ledger entries with: `--rev` when given,
/// else CI's `GITHUB_SHA`, else none.
fn opt_git_rev(opts: &Options) -> Option<String> {
    opt(opts, "rev")
        .map(str::to_string)
        .or_else(|| std::env::var("GITHUB_SHA").ok())
}

/// What a `--record` append needs to know about the command around it.
struct RecordCtx<'a> {
    opts: &'a Options,
    /// Ledger `source` field (`"mis run"`, `"mis stats"`, …).
    source: &'a str,
    /// Ledger `label` field (input path, algorithm, …).
    label: String,
    block_size: usize,
    storage: &'a str,
}

/// When `--record` was given, appends one checksummed entry — the
/// caller's metrics plus the shared I/O counters and, when traced, the
/// per-phase breakdown — to the perf ledger (`--ledger`, then
/// `BENCH_HISTORY_OUT`, then `BENCH_history.jsonl`).
fn record_ledger(
    ctx: RecordCtx<'_>,
    stats: &IoStats,
    report: Option<&TraceReport>,
    fill: impl FnOnce(&mut LedgerEntry),
) -> Result<(), String> {
    if opt(ctx.opts, "record").is_none() {
        return Ok(());
    }
    let env = EnvFingerprint::detect(ctx.block_size as u64, ctx.storage, opt_git_rev(ctx.opts));
    let mut entry = LedgerEntry::new(ctx.source, &ctx.label, env);
    fill(&mut entry);
    let snap = stats.snapshot();
    entry.metric("scans", snap.scans_started as f64);
    entry.metric("blocks_read", snap.blocks_read as f64);
    entry.metric("bytes_read", snap.bytes_read as f64);
    if let Some(report) = report {
        entry.ingest_report(report);
    }
    let ledger = match opt(ctx.opts, "ledger") {
        Some(path) => Ledger::at(path),
        None => Ledger::open_default(),
    };
    ledger
        .append(&entry)
        .map_err(|e| format!("{}: {e}", ledger.path().display()))?;
    println!("recorded -> {}", ledger.path().display());
    Ok(())
}

/// Reads and parses one `BENCH_*.json` snapshot.
fn read_snapshot(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// `mis bench <diff|check|history>`: the regression-gate and ledger
/// tooling over `BENCH_*.json` snapshots and `BENCH_history.jsonl`.
fn cmd_bench(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(args, &["baseline", "current", "last", "ledger"])?;
    let [action, rest @ ..] = pos.as_slice() else {
        return Err(
            "bench needs: diff <base> <current> | check --baseline <file> | history".into(),
        );
    };
    match action.as_str() {
        "diff" => {
            let [a, b] = rest else {
                return Err("bench diff needs: <base.json> <current.json>".into());
            };
            let (base, cur) = (read_snapshot(a)?, read_snapshot(b)?);
            let deltas = diff_snapshots(&base, &cur);
            let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x}"));
            println!("diff: base = {a}, current = {b}");
            println!(
                "{:<44} {:>14} {:>14} {:>8}",
                "metric", "base", "current", "delta"
            );
            for d in &deltas {
                let rel = d
                    .rel_change()
                    .filter(|r| *r != 0.0)
                    .map_or_else(String::new, |r| format!("{:+.1}%", r * 100.0));
                println!(
                    "{:<44} {:>14} {:>14} {:>8}",
                    d.path,
                    fmt(d.base),
                    fmt(d.current),
                    rel
                );
            }
            println!("{} numeric leaves compared", deltas.len());
            Ok(())
        }
        "check" => {
            let baseline = opt(&opts, "baseline").ok_or("bench check needs --baseline <file>")?;
            // Default current: the baseline's file name, resolved in the
            // working directory (where a fresh `repro` run drops it).
            let current = match opt(&opts, "current") {
                Some(c) => c.to_string(),
                None => Path::new(baseline)
                    .file_name()
                    .ok_or_else(|| format!("--baseline {baseline}: not a file path"))?
                    .to_string_lossy()
                    .into_owned(),
            };
            let out = check_snapshots(&read_snapshot(baseline)?, &read_snapshot(&current)?);
            println!(
                "gate: {} exact leaves, {} wall/quality leaves ({})",
                out.exact_compared,
                out.wall_compared,
                if out.wall_gated {
                    "wall gates enforced"
                } else {
                    "wall gates skipped: fingerprints differ or missing"
                }
            );
            for v in &out.violations {
                println!("VIOLATION {v}");
            }
            if out.pass() {
                println!("gate PASS: {current} vs {baseline}");
                Ok(())
            } else {
                Err(format!(
                    "bench check failed: {} violation(s) in {current} against {baseline}",
                    out.violations.len()
                ))
            }
        }
        "history" => {
            let ledger = match opt(&opts, "ledger") {
                Some(path) => Ledger::at(path),
                None => Ledger::open_default(),
            };
            let entries = ledger
                .load()
                .map_err(|e| format!("{}: {e}", ledger.path().display()))?;
            let last: usize = opt_parse(&opts, "last", 10)?;
            println!(
                "{} verified entries in {}",
                entries.len(),
                ledger.path().display()
            );
            for e in &entries[entries.len().saturating_sub(last)..] {
                let rev = e.env.git_rev.as_deref().unwrap_or("-");
                let verdicts = if e.verdicts.is_empty() {
                    "".to_string()
                } else if e.verdicts.iter().all(|(_, pass)| *pass) {
                    " [verdicts ok]".to_string()
                } else {
                    " [verdicts FAIL]".to_string()
                };
                let metrics: Vec<String> = e
                    .metrics
                    .iter()
                    .take(4)
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                println!(
                    "ts={} rev={rev} {} ({}) {}{verdicts}",
                    e.ts_ms,
                    e.source,
                    e.label,
                    metrics.join(" ")
                );
            }
            Ok(())
        }
        other => Err(format!("unknown bench action `{other}`")),
    }
}

fn write_graph(
    graph: &semi_mis::graph::CsrGraph,
    out: &Path,
    block_size: usize,
    compress: bool,
) -> Result<(), String> {
    let stats = IoStats::shared();
    if compress {
        compress_adj(graph, out, stats, block_size).map_err(|e| e.to_string())?;
    } else {
        build_adj_file(graph, out, stats, block_size).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {}{}: {} vertices, {} edges (block size {block_size} B)",
        out.display(),
        if compress { " (gap-compressed)" } else { "" },
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(
        args,
        &[
            "seed",
            "vertices",
            "beta",
            "name",
            "scale",
            "edges",
            "attach",
            "log-vertices",
            "edge-factor",
            "compress",
        ],
    )?;
    let [model, out] = pos.as_slice() else {
        return Err("gen needs: <model> <out.adj>".into());
    };
    let out = PathBuf::from(out);
    let seed: u64 = opt_parse(&opts, "seed", 42)?;
    let graph = match model.as_str() {
        "plrg" => {
            let n: u64 = opt_parse(&opts, "vertices", 100_000)?;
            let beta: f64 = opt_parse(&opts, "beta", 2.0)?;
            semi_mis::gen::Plrg::with_vertices(n, beta)
                .seed(seed)
                .generate()
        }
        "dataset" => {
            let name = opt(&opts, "name").ok_or("dataset needs --name")?;
            let scale: f64 = opt_parse(&opts, "scale", 1.0)?;
            semi_mis::gen::datasets::by_name(name)
                .ok_or_else(|| format!("unknown dataset `{name}`"))?
                .generate(scale)
        }
        "er" => {
            let n: usize = opt_parse(&opts, "vertices", 100_000)?;
            let m: u64 = opt_parse(&opts, "edges", 300_000)?;
            semi_mis::gen::er::gnm(n, m, seed)
        }
        "ba" => {
            let n: usize = opt_parse(&opts, "vertices", 100_000)?;
            let m: usize = opt_parse(&opts, "attach", 3)?;
            semi_mis::gen::ba::barabasi_albert(n, m, seed)
        }
        "rmat" => {
            let scale: u32 = opt_parse(&opts, "log-vertices", 16)?;
            let ef: u64 = opt_parse(&opts, "edge-factor", 8)?;
            semi_mis::gen::rmat::rmat(scale, ef, semi_mis::gen::rmat::RmatParams::graph500(), seed)
        }
        other => return Err(format!("unknown model `{other}`")),
    };
    write_graph(
        &graph,
        &out,
        opt_block_size(&opts)?,
        opt(&opts, "compress").is_some(),
    )
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(args, &["compress"])?;
    let [input, out] = pos.as_slice() else {
        return Err("convert needs: <edges.txt> <out.adj>".into());
    };
    let file = std::fs::File::open(input).map_err(|e| format!("{input}: {e}"))?;
    let graph = edgelist::read_csr(BufReader::new(file)).map_err(|e| e.to_string())?;
    write_graph(
        &graph,
        Path::new(out),
        opt_block_size(&opts)?,
        opt(&opts, "compress").is_some(),
    )
}

fn cmd_sort(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(args, &["compress"])?;
    let [input, out] = pos.as_slice() else {
        return Err("sort needs: <in.adj> <out.adj>".into());
    };
    let block_size = opt_block_size(&opts)?;
    let compress = opt(&opts, "compress").is_some();
    let stats = IoStats::shared();
    let file = AdjFile::open_with_block_size(Path::new(input), Arc::clone(&stats), block_size)
        .map_err(|e| e.to_string())?;
    let scratch = ScratchDir::new("mis-cli-sort").map_err(|e| e.to_string())?;
    let start = Instant::now();
    let sort_cfg = SortConfig {
        block_size,
        ..SortConfig::default()
    };
    if compress {
        degree_sort_compressed_adj_file(&file, Path::new(out), &sort_cfg, &scratch)
            .map_err(|e| e.to_string())?;
    } else {
        degree_sort_adj_file(&file, Path::new(out), &sort_cfg, &scratch)
            .map_err(|e| e.to_string())?;
    }
    println!(
        "degree-sorted {} -> {}{} in {:.1}s, block size {} B ({})",
        input,
        out,
        if compress { " (gap-compressed)" } else { "" },
        start.elapsed().as_secs_f64(),
        block_size,
        stats.snapshot()
    );
    Ok(())
}

/// Formats the `before/after` compression ratio, avoiding `inf`/`NaN`
/// on degenerate (empty) inputs.
fn format_ratio(before: u64, after: u64) -> String {
    if before == 0 || after == 0 {
        return "n/a".to_string();
    }
    format!("{:.2}x", before as f64 / after as f64)
}

fn cmd_compress(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(args, &[])?;
    let [input, out] = pos.as_slice() else {
        return Err("compress needs: <in.adj> <out.cadj>".into());
    };
    let block_size = opt_block_size(&opts)?;
    let stats = IoStats::shared();
    let file = open_any(Path::new(input), Arc::clone(&stats), block_size)?;
    let compressed = compress_adj(file.as_scan(), Path::new(out), stats, block_size)
        .map_err(|e| e.to_string())?;
    let before = std::fs::metadata(input).map_err(|e| e.to_string())?.len();
    let after = compressed.disk_bytes().map_err(|e| e.to_string())?;
    println!(
        "compressed {input} ({before} B) -> {out} ({after} B), ratio {}",
        format_ratio(before, after)
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(
        args,
        &["threads", "trace", "check-model", "record", "rev", "ledger"],
    )?;
    let [input] = pos.as_slice() else {
        return Err("stats needs: <graph>".into());
    };
    let executor = opt_executor(&opts)?;
    let block_size = opt_block_size(&opts)?;
    let trace_path = opt_trace(&opts);
    let stats = IoStats::shared();
    let file = {
        let _open = obs::span("phase", "open");
        open_any(Path::new(input), Arc::clone(&stats), block_size)?
    };
    let scan = file.as_scan();
    let n = scan.num_vertices();
    let before_scan = stats.snapshot();
    let degrees = {
        let _scan_span = obs::span("phase", "scan");
        engine::passes::degree_stats(scan, &executor)
    };
    println!("{input} ({}):", scan.storage());
    println!("  |V| = {n}");
    println!("  |E| = {}", scan.num_edges());
    println!("  avg degree = {:.2}", degrees.avg_degree());
    println!("  max degree = {}", degrees.max_degree);
    println!("  isolated vertices = {}", degrees.isolated);
    println!("  pendant vertices  = {}", degrees.pendant);
    // --check-model: the degree pass is exactly one sequential scan, so
    // its I/O delta (header reads excluded via the pre-scan snapshot)
    // must conform to the paper's `⌈bytes/B⌉` blocks-per-scan model.
    let verdict = if opt(&opts, "check-model").is_some() {
        let model = file.cost_model(block_size).map_err(|e| e.to_string())?;
        let scanned = stats.snapshot().since(&before_scan);
        let v = model.check(
            Some(Workload::Greedy),
            scanned.scans_started,
            scanned.blocks_read,
            0.0,
        );
        println!("{v}");
        Some(v)
    } else {
        None
    };
    let report = finish_trace(trace_path.as_deref(), &stats)?;
    if let Some(report) = &report {
        print_io_summary(&stats, Some(report));
    }
    record_ledger(
        RecordCtx {
            opts: &opts,
            source: "mis stats",
            label: input.clone(),
            block_size,
            storage: scan.storage(),
        },
        &stats,
        report.as_ref(),
        |e| {
            e.metric("vertices", n as f64);
            e.metric("edges", scan.num_edges() as f64);
            e.metric("max_degree", degrees.max_degree as f64);
            e.metric("isolated", degrees.isolated as f64);
            if let Some(v) = &verdict {
                e.verdict("model", v.pass);
            }
        },
    )?;
    if let Some(v) = verdict {
        if !v.pass {
            return Err(format!("cost-model conformance failed: {}", v.detail));
        }
    }
    Ok(())
}

fn cmd_bound(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(args, &["threads", "trace", "record", "rev", "ledger"])?;
    let [input] = pos.as_slice() else {
        return Err("bound needs: <graph>".into());
    };
    let executor = opt_executor(&opts)?;
    let block_size = opt_block_size(&opts)?;
    let trace_path = opt_trace(&opts);
    let stats = IoStats::shared();
    let file = {
        let _open = obs::span("phase", "open");
        open_any(Path::new(input), Arc::clone(&stats), block_size)?
    };
    let scan = file.as_scan();
    let bound_span = obs::span("phase", "bound");
    let star = semi_mis::algo::upper_bound_scan_with(scan, &executor);
    let matching = semi_mis::algo::matching_bound_with(scan, &executor);
    drop(bound_span);
    println!("Algorithm 5 (star partition): {star}");
    println!("matching bound (|V| - |M|):   {matching}");
    println!("best: {}", star.min(matching));
    let report = finish_trace(trace_path.as_deref(), &stats)?;
    if let Some(report) = &report {
        print_io_summary(&stats, Some(report));
    }
    record_ledger(
        RecordCtx {
            opts: &opts,
            source: "mis bound",
            label: input.clone(),
            block_size,
            storage: scan.storage(),
        },
        &stats,
        report.as_ref(),
        |e| {
            e.metric("star_bound", star as f64);
            e.metric("matching_bound", matching as f64);
            e.metric("best_bound", star.min(matching) as f64);
        },
    )?;
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(
        args,
        &[
            "algo",
            "rounds",
            "threads",
            "cache-mb",
            "paged-threshold",
            "trace",
            "record",
            "rev",
            "ledger",
        ],
    )?;
    let [input] = pos.as_slice() else {
        return Err("run needs: <graph>".into());
    };
    let algo = opt(&opts, "algo").unwrap_or("twok");
    let rounds: u32 = opt_parse(&opts, "rounds", 0)?;
    let block_size = opt_block_size(&opts)?;
    let mut executor = opt_executor(&opts)?;
    // `tfp` (external priority queues) and `dynamic` (in-memory) have no
    // engine-ported scan passes; run them — and report them — as
    // sequential rather than pretending `--threads` applies.
    if matches!(algo, "tfp" | "dynamic") && executor != Executor::Sequential {
        if opt(&opts, "threads").is_some() {
            println!("note: --algo {algo} runs single-threaded; ignoring --threads");
        }
        executor = Executor::Sequential;
    }
    let cache_mb: u64 = opt_parse(&opts, "cache-mb", 0)?;
    let paged_threshold: f64 = opt_parse(&opts, "paged-threshold", DEFAULT_PAGED_THRESHOLD)?;
    if cache_mb == 0 && opt(&opts, "paged-threshold").is_some() {
        return Err("--paged-threshold requires --cache-mb".into());
    }
    if cache_mb > 0 && paged_threshold == 0.0 {
        // A zero threshold silently disables the paged path: the cache
        // would be built but never consulted.
        return Err(
            "--paged-threshold 0 disables paging entirely; with --cache-mb pick a value \
             in (0, 1] (the default is 0.3)"
                .into(),
        );
    }
    let mut config = if rounds > 0 {
        SwapConfig::early_stop(rounds)
    } else {
        SwapConfig::default()
    };
    config = config.with_executor(executor);
    let trace_path = opt_trace(&opts);

    let stats = IoStats::shared();
    let open_span = obs::span("phase", "open");
    let file = open_any(Path::new(input), Arc::clone(&stats), block_size)?;

    // --cache-mb: build the buffer-pool access path for the swap rounds.
    let mut pager_config = None;
    let raccess: Option<Box<dyn NeighborAccess>> = if cache_mb > 0 {
        if !matches!(algo, "onek" | "twok") {
            return Err("--cache-mb only applies to --algo onek|twok".into());
        }
        config.paged_threshold = paged_threshold;
        config.validate()?;
        let pc =
            PagerConfig::with_capacity_bytes(cache_mb << 20, block_size, PolicyKind::default());
        pager_config = Some(pc);
        // Both codecs share one record index (a byte offset per vertex)
        // and one paged fetch.
        Some(file.open_random_access(pc).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let access = raccess.as_deref();
    drop(open_span);

    let scan = file.as_scan();
    let start = Instant::now();
    let solve_span = obs::span("phase", "solve");
    let mut paged_rounds = None;
    let (set, scans, memory) = match algo {
        "greedy" | "baseline" => {
            let r = Greedy::with_executor(executor).run(scan);
            (r.set, r.file_scans, r.memory)
        }
        "onek" => {
            let g = Greedy::with_executor(executor).run(scan);
            let o = OneKSwap::with_config(config).run_paged(scan, access, &g.set);
            paged_rounds = Some(o.stats.paged_rounds);
            (
                o.result.set,
                g.file_scans + o.result.file_scans,
                o.result.memory,
            )
        }
        "twok" => {
            let g = Greedy::with_executor(executor).run(scan);
            let o = TwoKSwap::with_config(config)
                .try_run_paged(scan, access, &g.set)
                .map_err(|e| e.to_string())?;
            paged_rounds = Some(o.stats.paged_rounds);
            (
                o.result.set,
                g.file_scans + o.result.file_scans,
                o.result.memory,
            )
        }
        "tfp" => {
            let r = TfpMaximalIs::new()
                .run(scan, Arc::clone(&stats))
                .map_err(|e| e.to_string())?;
            (r.set, r.file_scans, r.memory)
        }
        "dynamic" => {
            // In-memory baseline: materialise the graph first.
            let mut b = semi_mis::graph::GraphBuilder::new(scan.num_vertices());
            scan.scan(&mut |v, ns| {
                for &u in ns {
                    b.add_edge(v, u);
                }
            })
            .map_err(|e| e.to_string())?;
            let g = b.build();
            let r = DynamicUpdate::new().run(&g);
            (r.set, r.file_scans, r.memory)
        }
        other => return Err(format!("unknown algorithm `{other}`")),
    };
    drop(solve_span);
    let elapsed = start.elapsed();

    let proof = {
        let _verify = obs::span("phase", "verify");
        prove_maximal_with(scan, &set, &executor)
    };
    let (independent, maximal) = (proof.independent, proof.maximal);
    println!("algorithm = {algo}");
    println!("|IS| = {}", set.len());
    println!("time = {:.2}s", elapsed.as_secs_f64());
    println!("algorithm scans = {scans}");
    println!("block size = {block_size} B");
    println!(
        "executor = {} ({} threads)",
        executor.describe(),
        executor.threads()
    );
    if let Some(pc) = pager_config {
        println!(
            "page cache = {} MiB ({} frames of {} B, {} eviction), paged threshold {:.2}",
            cache_mb,
            pc.frames,
            pc.page_size,
            pc.policy.name(),
            paged_threshold,
        );
        println!("paged rounds = {}", paged_rounds.unwrap_or(0));
    }
    println!("modelled memory = {} B", memory.total());
    if let Some(line) = peak_rss_line() {
        println!("{line}");
    }
    let report = finish_trace(trace_path.as_deref(), &stats)?;
    print_io_summary(&stats, report.as_ref());
    println!("verified: independent = {independent}, maximal = {maximal}");
    record_ledger(
        RecordCtx {
            opts: &opts,
            source: "mis run",
            label: format!("{algo} {input}"),
            block_size,
            storage: scan.storage(),
        },
        &stats,
        report.as_ref(),
        |e| {
            e.metric("is_size", set.len() as f64);
            e.metric("algo_scans", scans as f64);
            e.metric("wall_ms", elapsed.as_secs_f64() * 1e3);
            e.metric("threads", executor.threads() as f64);
            if let Some(paged) = paged_rounds {
                e.metric("paged_rounds", paged as f64);
            }
            e.verdict("independent", independent);
            e.verdict("maximal", maximal);
        },
    )?;
    if !independent {
        return Err("result failed verification".into());
    }
    Ok(())
}

/// Derives the default WAL / checkpoint siblings of a base file.
fn update_paths(base: &Path, opts: &Options) -> (PathBuf, PathBuf) {
    let wal = opt(opts, "wal")
        .map(PathBuf::from)
        .unwrap_or_else(|| base.with_extension("wal"));
    let ckpt = opt(opts, "checkpoint")
        .map(PathBuf::from)
        .unwrap_or_else(|| base.with_extension("ckpt"));
    (wal, ckpt)
}

/// Parses an edits file: one op per line, `+ u v` inserts, `- u v`
/// deletes; blank lines and `#` comments are skipped.
fn parse_ops_file(path: &Path) -> Result<Vec<EdgeOp>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut ops = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || {
            format!(
                "{}:{}: expected `+ u v` or `- u v`",
                path.display(),
                lineno + 1
            )
        };
        let mut parts = line.split_whitespace();
        let sign = parts.next().ok_or_else(bad)?;
        let u: u32 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        let v: u32 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        if parts.next().is_some() {
            return Err(bad());
        }
        ops.push(match sign {
            "+" => EdgeOp::Insert(u, v),
            "-" => EdgeOp::Delete(u, v),
            _ => return Err(bad()),
        });
    }
    Ok(ops)
}

fn cmd_update(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(
        args,
        &[
            "wal",
            "checkpoint",
            "trace",
            "ops",
            "rounds",
            "format",
            "json",
        ],
    )?;
    let [action, rest_pos @ ..] = pos.as_slice() else {
        return Err("update needs: <append|apply|compact|status> <base.adj> ...".into());
    };
    let base = rest_pos
        .first()
        .ok_or("update needs a <base.adj> argument")?;
    let base = Path::new(base);
    let (wal, ckpt) = update_paths(base, &opts);
    let block_size = opt_block_size(&opts)?;
    let trace_path = opt_trace(&opts);

    // Validate the action and everything it needs *before* opening the
    // store: a typo'd action, a bad edits file or a missing argument must
    // not create (or recover) the WAL as a side effect.
    let ops = match action.as_str() {
        "append" => {
            let ops_path = opt(&opts, "ops").ok_or("update append needs --ops <file>")?;
            let ops = parse_ops_file(Path::new(ops_path))?;
            if ops.is_empty() {
                return Err(format!("{ops_path}: no operations"));
            }
            Some(ops)
        }
        "apply" | "status" => None,
        "compact" => {
            if rest_pos.len() < 2 {
                return Err("update compact needs: <base.adj> <out.adj>".into());
            }
            None
        }
        other => return Err(format!("unknown update action `{other}`")),
    };

    let stats = IoStats::shared();

    // `status` is documented as read-only: when no WAL exists yet, report
    // from the base file and checkpoint alone instead of creating one.
    if action == "status" && !wal.exists() {
        let file = open_any(base, Arc::clone(&stats), block_size)?;
        println!("base: {} ({} B blocks)", base.display(), block_size);
        println!("  |V| = {}", file.num_vertices());
        println!(
            "  |E| = {} on disk, {} live",
            file.num_edges(),
            file.num_edges()
        );
        println!("wal: {} (not created yet)", wal.display());
        match semi_mis::update::Checkpoint::load_if_exists(&ckpt, &stats)
            .map_err(|e| e.to_string())?
        {
            Some(c) => println!("checkpoint: epoch {}, |IS| = {}", c.epoch, c.set.len()),
            None => println!("checkpoint: none (run `mis update apply`)"),
        }
        let report = finish_trace(trace_path.as_deref(), &stats)?;
        print_io_summary(&stats, report.as_ref());
        return Ok(());
    }

    let open_span = obs::span("phase", "open");
    let (mut store, recovery) =
        UpdateStore::open(base, &wal, &ckpt, Arc::clone(&stats), block_size)
            .map_err(|e| e.to_string())?;
    drop(open_span);
    if recovery.dropped_bytes > 0 {
        println!(
            "wal recovery: dropped {} torn/uncommitted tail bytes, resumed at epoch {}",
            recovery.dropped_bytes, recovery.last_epoch
        );
    }

    // Span names are `&'static str`; map the validated action to one.
    let phase_name: &'static str = match action.as_str() {
        "append" => "append",
        "apply" => "apply",
        "compact" => "compact",
        _ => "status",
    };
    let action_span = obs::span("phase", phase_name);
    match action.as_str() {
        "append" => {
            let ops = ops.expect("validated above");
            let inserts = ops.iter().filter(|op| op.is_insert()).count();
            let epoch = store.append_ops(&ops).map_err(|e| e.to_string())?.epoch;
            println!(
                "epoch {epoch}: logged {} ops ({} inserts, {} deletes) to {}",
                ops.len(),
                inserts,
                ops.len() - inserts,
                wal.display()
            );
        }
        "apply" => {
            let rounds: u32 = opt_parse(&opts, "rounds", 2)?;
            let start = Instant::now();
            let report = store
                .apply(RepairConfig {
                    recover_rounds: rounds,
                    verify: true,
                })
                .map_err(|e| e.to_string())?;
            if report.up_to_date {
                println!(
                    "checkpoint already at epoch {} (|IS| = {}); nothing to do",
                    report.epoch,
                    report.set.len()
                );
            } else {
                if report.bootstrapped {
                    println!("no checkpoint: bootstrapped with greedy");
                } else {
                    println!(
                        "resumed from checkpoint at epoch {} -> epoch {}",
                        report.resumed_from, report.epoch
                    );
                }
                println!("evicted = {}", report.evicted);
                println!("|IS| = {}", report.set.len());
                println!("maintenance scans = {}", report.file_scans);
                println!("time = {:.2}s", start.elapsed().as_secs_f64());
                println!(
                    "verified maximal on edited graph: {}",
                    report.maximality_proved
                );
                if !report.maximality_proved {
                    return Err("repaired set failed the maximality proof".into());
                }
            }
        }
        "compact" => {
            let out = &rest_pos[1]; // presence validated above
            let format: CompactFormat = match opt(&opts, "format") {
                None => CompactFormat::default(),
                Some(s) => s.parse()?,
            };
            let start = Instant::now();
            let report = store
                .compact_as(Path::new(out), format)
                .map_err(|e| e.to_string())?;
            println!(
                "compacted {} ops into {}{}: {} vertices, {} edges, {} B in {:.2}s",
                report.merged_ops,
                out,
                if format == CompactFormat::Compressed {
                    " (gap-compressed)"
                } else {
                    ""
                },
                report.vertices,
                report.edges,
                report.bytes,
                start.elapsed().as_secs_f64()
            );
            println!("wal truncated: {}", wal.display());
        }
        "status" => {
            let status = store.status().map_err(|e| e.to_string())?;
            if opt(&opts, "json").is_some() {
                println!("{}", status.to_json());
            } else {
                println!("base: {} ({} B blocks)", base.display(), block_size);
                println!("  |V| = {}", status.vertices);
                println!(
                    "  |E| = {} on disk, {} live",
                    status.base_edges, status.live_edges
                );
                println!("wal: {} ({} B)", wal.display(), status.wal_bytes);
                println!(
                    "  epoch {} committed, {} ops awaiting compaction",
                    status.last_epoch, status.committed_ops
                );
                println!(
                    "segments: {} live ({} B), {} dead awaiting removal",
                    status.segments.len(),
                    status.segment_bytes,
                    status.dead_segments
                );
                for meta in &status.segments {
                    println!(
                        "  seg {:06}: epochs {}..={}, {} ops ({} tombstones), \
                         vertices {}..={}, {} B",
                        meta.id,
                        meta.epoch_lo,
                        meta.epoch_hi,
                        meta.ops,
                        meta.tombstones,
                        meta.min_vertex,
                        meta.max_vertex,
                        meta.bytes
                    );
                }
                match status.checkpoint {
                    Some((epoch, size)) => {
                        let lag = status.last_epoch.saturating_sub(epoch);
                        println!("checkpoint: epoch {epoch}, |IS| = {size}, {lag} epochs behind");
                    }
                    None => println!("checkpoint: none (run `mis update apply`)"),
                }
            }
        }
        other => return Err(format!("unknown update action `{other}`")),
    }
    drop(action_span);
    let report = finish_trace(trace_path.as_deref(), &stats)?;
    print_io_summary(&stats, report.as_ref());
    Ok(())
}

/// `mis serve`: the long-running update + query front end (server
/// mode), or a thin line-protocol client (`--status`, `--script FILE`,
/// `--shutdown`) talking to one.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(
        args,
        &[
            "socket",
            "listen",
            "connect",
            "wal",
            "checkpoint",
            "trace",
            "cache-mb",
            "batch-ops",
            "roll-epochs",
            "roll-bytes",
            "compact-threshold",
            "rounds",
            "status",
            "script",
            "shutdown",
        ],
    )?;
    if let Some(verbs) = serve_client_verbs(&opts)? {
        if !pos.is_empty() {
            return Err("serve client modes take no positional arguments".into());
        }
        return serve_client(&opts, &verbs);
    }
    let [base] = pos.as_slice() else {
        return Err("serve needs: <base> (--socket PATH | --listen HOST:PORT), \
             or a client flag (--status | --script FILE | --shutdown)"
            .into());
    };
    let base = Path::new(base);
    let (wal, ckpt) = update_paths(base, &opts);
    let block_size = opt_block_size(&opts)?;
    let trace_path = opt_trace(&opts);
    let cache_mb: u64 = opt_parse(&opts, "cache-mb", 0)?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        batch_ops: opt_parse(&opts, "batch-ops", defaults.batch_ops)?,
        roll_epochs: opt_parse(&opts, "roll-epochs", defaults.roll_epochs)?,
        roll_bytes: opt_parse(&opts, "roll-bytes", defaults.roll_bytes)?,
        compact_threshold: opt_parse(&opts, "compact-threshold", defaults.compact_threshold)?,
        repair: RepairConfig {
            recover_rounds: opt_parse(&opts, "rounds", 2)?,
            verify: true,
        },
        pager: if cache_mb > 0 {
            PagerConfig::with_capacity_bytes(cache_mb << 20, block_size, PolicyKind::default())
        } else {
            defaults.pager
        },
    };
    if config.batch_ops == 0 {
        return Err("--batch-ops must be at least 1".into());
    }
    let listener = match (opt(&opts, "socket"), opt(&opts, "listen")) {
        (Some(path), None) => {
            Listener::bind_unix(Path::new(path)).map_err(|e| format!("{path}: {e}"))?
        }
        (None, Some(addr)) => Listener::bind_tcp(addr).map_err(|e| format!("{addr}: {e}"))?,
        (None, None) => return Err("serve needs --socket PATH or --listen HOST:PORT".into()),
        (Some(_), Some(_)) => return Err("--socket and --listen are mutually exclusive".into()),
    };

    let stats = IoStats::shared();
    let open_span = obs::span("phase", "open");
    let (store, recovery) = UpdateStore::open(base, &wal, &ckpt, Arc::clone(&stats), block_size)
        .map_err(|e| e.to_string())?;
    if recovery.dropped_bytes > 0 {
        println!(
            "wal recovery: dropped {} torn/uncommitted tail bytes, resumed at epoch {}",
            recovery.dropped_bytes, recovery.last_epoch
        );
    }
    let engine = ServeEngine::new(store, config).map_err(|e| e.to_string())?;
    drop(open_span);

    let view = engine.view();
    println!(
        "serving {} ({} vertices) at epoch {}, |IS| = {}",
        base.display(),
        engine.num_vertices(),
        view.epoch(),
        view.set().len()
    );
    drop(view);
    println!(
        "listening on {} (verbs: ADD u v | DEL u v | FLUSH | MEMBER v | \
         NEIGHBORS v | STATS | STATUS | PING | SHUTDOWN)",
        listener.describe()
    );

    let serve_span = obs::span("phase", "serve");
    serve::run(&engine, &listener).map_err(|e| e.to_string())?;
    drop(serve_span);
    let summary = engine.stats();
    println!(
        "shutdown at epoch {}: |IS| = {}, {} flushes, {} rolls, {} compactions",
        summary.epoch, summary.set_size, summary.flushes, summary.rolls, summary.compactions
    );
    for (kind, r) in &summary.requests {
        println!(
            "  {kind}: {} requests, p50 {}µs, p99 {}µs, max {}µs",
            r.count,
            r.p50_ns / 1_000,
            r.p99_ns / 1_000,
            r.max_ns / 1_000
        );
    }
    let report = finish_trace(trace_path.as_deref(), &stats)?;
    print_io_summary(&stats, report.as_ref());
    Ok(())
}

/// Maps the serve client flags to the protocol lines they play.
fn serve_client_verbs(opts: &Options) -> Result<Option<Vec<String>>, String> {
    let picked = [
        opt(opts, "status").is_some(),
        opt(opts, "script").is_some(),
        opt(opts, "shutdown").is_some(),
    ];
    if picked.iter().filter(|p| **p).count() > 1 {
        return Err("--status, --script and --shutdown are mutually exclusive".into());
    }
    if opt(opts, "status").is_some() {
        return Ok(Some(vec!["STATS".into(), "STATUS".into()]));
    }
    if let Some(script) = opt(opts, "script") {
        let text = std::fs::read_to_string(script).map_err(|e| format!("{script}: {e}"))?;
        let verbs: Vec<String> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect();
        if verbs.is_empty() {
            return Err(format!("{script}: no protocol lines"));
        }
        return Ok(Some(verbs));
    }
    if opt(opts, "shutdown").is_some() {
        return Ok(Some(vec!["FLUSH".into(), "SHUTDOWN".into()]));
    }
    Ok(None)
}

/// Connects to `--socket PATH` or `--connect HOST:PORT` and plays the
/// protocol lines.
fn serve_client(opts: &Options, verbs: &[String]) -> Result<(), String> {
    if let Some(path) = opt(opts, "socket") {
        let stream = UnixStream::connect(path).map_err(|e| format!("{path}: {e}"))?;
        play(&stream, verbs)
    } else if let Some(addr) = opt(opts, "connect") {
        let stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        play(&stream, verbs)
    } else {
        Err("serve client mode needs --socket PATH or --connect HOST:PORT".into())
    }
}

/// Plays protocol lines against a running server and echoes the
/// replies. Fails when any reply is an `ERR`.
fn play<S>(stream: &S, verbs: &[String]) -> Result<(), String>
where
    for<'a> &'a S: Read + Write,
{
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut errors = 0usize;
    for verb in verbs {
        write_line(&mut writer, verb).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        if reply.is_empty() {
            return Err("server closed the connection".into());
        }
        let reply = reply.trim_end();
        println!("> {verb}");
        println!("{reply}");
        if reply.starts_with("ERR") {
            errors += 1;
        }
    }
    if errors > 0 {
        return Err(format!("{errors} of {} requests failed", verbs.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_opts_splits_positionals_and_options() {
        let (pos, opts) = parse_opts(
            &strs(&["in.adj", "--algo", "twok", "out.adj", "--rounds", "3"]),
            &["algo", "rounds"],
        )
        .unwrap();
        assert_eq!(pos, strs(&["in.adj", "out.adj"]));
        assert_eq!(opt(&opts, "algo"), Some("twok"));
        assert_eq!(opt(&opts, "rounds"), Some("3"));
        assert_eq!(opt(&opts, "missing"), None);
    }

    #[test]
    fn parse_opts_rejects_dangling_flag() {
        assert!(parse_opts(&strs(&["x", "--algo"]), &["algo"]).is_err());
    }

    #[test]
    fn opt_parse_defaults_and_errors() {
        let (_, opts) = parse_opts(&strs(&["--vertices", "100"]), &["vertices"]).unwrap();
        assert_eq!(opt_parse(&opts, "vertices", 5u64).unwrap(), 100);
        assert_eq!(opt_parse(&opts, "beta", 2.5f64).unwrap(), 2.5);
        let (_, bad) = parse_opts(&strs(&["--vertices", "lots"]), &["vertices"]).unwrap();
        assert!(opt_parse(&bad, "vertices", 5u64).is_err());
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        let dir = ScratchDir::new("cli-unknown-opts").unwrap();
        let adj = dir.file("g.adj").display().to_string();
        let out = dir.file("x.adj").display().to_string();
        dispatch(&strs(&[
            "gen",
            "er",
            "--vertices",
            "200",
            "--edges",
            "400",
            &adj,
        ]))
        .unwrap();
        // Removed options, then typos: each fails before doing any work.
        let cases: [(&[&str], &str); 7] = [
            (&["sort", &adj, &out, "--shards", "4"], "--shards"),
            (&["gen", "er", "--shards", "4", &out], "--shards"),
            (&["run", &adj, "--policy", "lru"], "--policy"),
            (&["stats", &adj, "--tolerance", "0.5"], "--tolerance"),
            (
                &[
                    "bench",
                    "check",
                    "--baseline",
                    &adj,
                    "--wall-tolerance",
                    "0.5",
                ],
                "--wall-tolerance",
            ),
            (&["run", &adj, "--thraeds", "1"], "--thraeds"),
            (&["gen", "plrg", "--bogus", "3", &out], "--bogus"),
        ];
        for (args, flag) in cases {
            let err = dispatch(&strs(args)).unwrap_err();
            assert_eq!(err, format!("unknown option {flag}"), "{args:?}");
        }
        assert!(!Path::new(&out).exists());
        // Every flag `e2e-bench` starts the server with is read: the
        // invocation gets as far as checking `--batch-ops`.
        let err = dispatch(&strs(&[
            "serve",
            &adj,
            "--socket",
            "unused.sock",
            "--wal",
            "unused.wal",
            "--checkpoint",
            "unused.ckpt",
            "--batch-ops",
            "0",
            "--roll-epochs",
            "2",
            "--compact-threshold",
            "3",
        ]))
        .unwrap_err();
        assert_eq!(err, "--batch-ops must be at least 1");
    }

    #[test]
    fn dispatch_rejects_unknown_commands() {
        assert!(dispatch(&strs(&["frobnicate"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn any_file_rejects_garbage() {
        let dir = ScratchDir::new("cli-test").unwrap();
        let path = dir.file("junk.bin");
        std::fs::write(&path, b"garbage garbage!").unwrap();
        assert!(open_any(&path, IoStats::shared(), DEFAULT_BLOCK_SIZE).is_err());
        assert!(open_any(
            &dir.file("missing.adj"),
            IoStats::shared(),
            DEFAULT_BLOCK_SIZE
        )
        .is_err());
    }

    #[test]
    fn format_ratio_guards_degenerate_inputs() {
        assert_eq!(format_ratio(0, 0), "n/a");
        assert_eq!(format_ratio(0, 10), "n/a");
        assert_eq!(format_ratio(10, 0), "n/a");
        assert_eq!(format_ratio(100, 50), "2.00x");
    }

    #[test]
    fn compress_handles_an_empty_graph() {
        // A 0-vertex graph still compresses and restats cleanly. (Both
        // files keep nonzero header bytes, so the ratio stays numeric
        // here; the `n/a` guard itself is unit-tested in
        // `format_ratio_guards_degenerate_inputs`.)
        let dir = ScratchDir::new("cli-empty").unwrap();
        let out = dir.file("e.adj");
        let w = semi_mis::graph::adjfile::AdjFileWriter::create(&out, 0, 0, IoStats::shared(), 256)
            .unwrap();
        w.finish().unwrap();
        let cout = dir.file("e.cadj").display().to_string();
        dispatch(&strs(&["compress", &out.display().to_string(), &cout])).unwrap();
        dispatch(&strs(&["stats", &cout])).unwrap();
    }

    #[test]
    fn gen_and_run_round_trip() {
        let dir = ScratchDir::new("cli-e2e").unwrap();
        let out = dir.file("g.adj").display().to_string();
        dispatch(&strs(&[
            "gen",
            "er",
            "--vertices",
            "500",
            "--edges",
            "1000",
            &out,
        ]))
        .unwrap();
        dispatch(&strs(&["stats", &out])).unwrap();
        dispatch(&strs(&["bound", &out])).unwrap();
        dispatch(&strs(&["run", &out, "--algo", "greedy"])).unwrap();
        let cout = dir.file("g.cadj").display().to_string();
        dispatch(&strs(&["compress", &out, &cout])).unwrap();
        dispatch(&strs(&["run", &cout, "--algo", "twok", "--rounds", "2"])).unwrap();
    }

    #[test]
    fn run_with_page_cache_round_trip() {
        let dir = ScratchDir::new("cli-cache").unwrap();
        let out = dir.file("g.adj").display().to_string();
        dispatch(&strs(&[
            "gen",
            "plrg",
            "--vertices",
            "2000",
            "--beta",
            "2.0",
            "--block-size",
            "4096",
            &out,
        ]))
        .unwrap();
        // Paged twok run through a 1 MiB cache.
        dispatch(&strs(&[
            "run",
            &out,
            "--algo",
            "twok",
            "--cache-mb",
            "1",
            "--block-size",
            "4096",
            "--paged-threshold",
            "1.0",
        ]))
        .unwrap();
        // Cache flags are rejected where they cannot apply.
        assert!(dispatch(&strs(&["run", &out, "--algo", "greedy", "--cache-mb", "1"])).is_err());
        assert!(dispatch(&strs(&["run", &out, "--paged-threshold", "0.5"])).is_err());
        // The paged path works on compressed files too (the record
        // index is built at open by framing the variable-width records).
        let cout = dir.file("g.cadj").display().to_string();
        dispatch(&strs(&["compress", &out, &cout])).unwrap();
        dispatch(&strs(&[
            "run",
            &cout,
            "--cache-mb",
            "1",
            "--block-size",
            "4096",
            "--paged-threshold",
            "1.0",
        ]))
        .unwrap();
    }

    #[test]
    fn compressed_outputs_end_to_end() {
        let dir = ScratchDir::new("cli-compout").unwrap();
        // gen --compress emits a MISADJC1 file directly.
        let cadj = dir.file("g.cadj").display().to_string();
        dispatch(&strs(&[
            "gen",
            "er",
            "--vertices",
            "400",
            "--edges",
            "800",
            "--compress",
            &cadj,
        ]))
        .unwrap();
        dispatch(&strs(&["stats", &cadj])).unwrap();
        dispatch(&strs(&["run", &cadj, "--algo", "greedy"])).unwrap();

        // sort --compress: plain input, compressed degree-sorted output.
        let adj = dir.file("g.adj").display().to_string();
        dispatch(&strs(&[
            "gen",
            "er",
            "--vertices",
            "400",
            "--edges",
            "800",
            &adj,
        ]))
        .unwrap();
        let sorted = dir.file("g.sorted.cadj").display().to_string();
        dispatch(&strs(&["sort", &adj, &sorted, "--compress"])).unwrap();
        dispatch(&strs(&["run", &sorted, "--algo", "twok", "--rounds", "2"])).unwrap();

        // update compact --format compressed switches the base format;
        // the pipeline keeps running on it.
        let ops = dir.file("edits.txt");
        std::fs::write(&ops, "+ 0 399\n").unwrap();
        dispatch(&strs(&[
            "update",
            "append",
            &adj,
            "--ops",
            &ops.display().to_string(),
        ]))
        .unwrap();
        dispatch(&strs(&["update", "apply", &adj])).unwrap();
        let compacted = dir.file("g2.cadj").display().to_string();
        dispatch(&strs(&[
            "update",
            "compact",
            &adj,
            &compacted,
            "--format",
            "compressed",
        ]))
        .unwrap();
        dispatch(&strs(&["update", "status", &compacted])).unwrap();
        dispatch(&strs(&[
            "run", &compacted, "--algo", "twok", "--rounds", "1",
        ]))
        .unwrap();
        assert!(dispatch(&strs(&[
            "update", "compact", &adj, &compacted, "--format", "zip",
        ]))
        .is_err());
    }

    #[test]
    fn block_size_flag_is_validated() {
        assert!(dispatch(&strs(&["stats", "x.adj", "--block-size", "0"])).is_err());
    }

    #[test]
    fn threads_flag_round_trip() {
        let dir = ScratchDir::new("cli-threads").unwrap();
        let out = dir.file("g.adj").display().to_string();
        dispatch(&strs(&[
            "gen",
            "plrg",
            "--vertices",
            "1500",
            "--beta",
            "2.0",
            &out,
        ]))
        .unwrap();
        // The whole pipeline on the parallel backend.
        dispatch(&strs(&["stats", &out, "--threads", "4"])).unwrap();
        dispatch(&strs(&["bound", &out, "--threads", "4"])).unwrap();
        dispatch(&strs(&["run", &out, "--algo", "twok", "--threads", "4"])).unwrap();
        dispatch(&strs(&["run", &out, "--algo", "greedy", "--threads", "2"])).unwrap();
        // --threads 1 is the sequential backend; 0 is rejected.
        dispatch(&strs(&["run", &out, "--threads", "1", "--rounds", "1"])).unwrap();
        assert!(dispatch(&strs(&["run", &out, "--threads", "0"])).is_err());
        assert!(dispatch(&strs(&["run", &out, "--threads", "lots"])).is_err());
    }

    #[test]
    fn degenerate_paged_threshold_is_rejected() {
        let dir = ScratchDir::new("cli-threshold").unwrap();
        let out = dir.file("g.adj").display().to_string();
        dispatch(&strs(&[
            "gen",
            "er",
            "--vertices",
            "300",
            "--edges",
            "600",
            &out,
        ]))
        .unwrap();
        // Zero silently disables the paging the user asked for.
        let err = dispatch(&strs(&[
            "run",
            &out,
            "--cache-mb",
            "1",
            "--paged-threshold",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("disables paging"), "{err}");
        // Out-of-range values are caught by SwapConfig::validate.
        for bad in ["1.5", "-0.2", "NaN"] {
            let err = dispatch(&strs(&[
                "run",
                &out,
                "--cache-mb",
                "1",
                "--paged-threshold",
                bad,
            ]))
            .unwrap_err();
            assert!(err.contains("paged_threshold"), "{bad}: {err}");
        }
    }

    #[test]
    fn update_round_trip() {
        let dir = ScratchDir::new("cli-update").unwrap();
        let base = dir.file("g.adj").display().to_string();
        dispatch(&strs(&[
            "gen",
            "er",
            "--vertices",
            "300",
            "--edges",
            "600",
            &base,
        ]))
        .unwrap();

        // Status is read-only and works before any edits are logged.
        dispatch(&strs(&["update", "status", &base])).unwrap();
        assert!(!dir.file("g.wal").exists(), "status must not create a wal");
        // Failing invocations must not create one either.
        assert!(dispatch(&strs(&["update", "frob", &base])).is_err());
        let bad = dir.file("bad.txt");
        std::fs::write(&bad, "* 1 2\n").unwrap();
        assert!(dispatch(&strs(&[
            "update",
            "append",
            &base,
            "--ops",
            &bad.display().to_string(),
        ]))
        .is_err());
        assert!(
            !dir.file("g.wal").exists(),
            "bad input must not create a wal"
        );
        dispatch(&strs(&["update", "apply", &base])).unwrap();

        // Log one epoch of edits from a file and fold it in.
        let ops = dir.file("edits.txt");
        std::fs::write(&ops, "# churn\n+ 0 299\n- 0 299\n+ 1 298\n").unwrap();
        dispatch(&strs(&[
            "update",
            "append",
            &base,
            "--ops",
            &ops.display().to_string(),
        ]))
        .unwrap();
        dispatch(&strs(&["update", "apply", &base, "--rounds", "1"])).unwrap();
        // Idempotent: checkpoint already current.
        dispatch(&strs(&["update", "apply", &base])).unwrap();

        // Compaction produces a runnable base file.
        let out = dir.file("g2.adj").display().to_string();
        dispatch(&strs(&["update", "compact", &base, &out])).unwrap();
        dispatch(&strs(&["run", &out, "--algo", "greedy"])).unwrap();
        dispatch(&strs(&["update", "status", &base])).unwrap();

        // Bad inputs are rejected.
        assert!(dispatch(&strs(&["update", "append", &base])).is_err());
        assert!(dispatch(&strs(&["update", "compact", &base])).is_err());
    }

    #[test]
    fn trace_flag_round_trip() {
        let dir = ScratchDir::new("cli-trace").unwrap();
        let out = dir.file("g.adj").display().to_string();
        dispatch(&strs(&[
            "gen",
            "er",
            "--vertices",
            "400",
            "--edges",
            "800",
            &out,
        ]))
        .unwrap();
        let trace = dir.file("run.jsonl");
        let trace_s = trace.display().to_string();
        dispatch(&strs(&[
            "run",
            &out,
            "--algo",
            "twok",
            "--rounds",
            "1",
            "--threads",
            "2",
            "--trace",
            &trace_s,
        ]))
        .unwrap();
        // The file is valid JSONL and carries this command's phase spans.
        // (The sink is process-global, so spans from concurrently running
        // tests may ride along — assert presence, not exact contents.)
        let report = TraceReport::load(&trace).unwrap();
        assert!(report.num_spans > 0);
        for phase in ["open", "solve", "verify"] {
            assert!(
                report.phases.iter().any(|p| p.name == phase),
                "missing phase `{phase}` in {:?}",
                report.phases
            );
        }
        // Two-k's steps: init, one pre-swap, swap sweep and post-swap per
        // round, and finalize.
        for step in [
            "twok.init",
            "twok.pre",
            "twok.swap",
            "twok.post",
            "twok.finalize",
        ] {
            assert!(
                report.steps.iter().any(|p| p.name == step),
                "missing step `{step}` in {:?}",
                report.steps
            );
        }
        dispatch(&strs(&["trace", "report", &trace_s])).unwrap();

        // `trace report` rejects malformed JSONL, span-free traces and
        // unknown actions.
        let junk = dir.file("junk.jsonl");
        std::fs::write(&junk, "this is not json\n").unwrap();
        assert!(dispatch(&strs(&["trace", "report", &junk.display().to_string()])).is_err());
        let empty = dir.file("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        assert!(dispatch(&strs(&["trace", "report", &empty.display().to_string()])).is_err());
        assert!(dispatch(&strs(&["trace", "frob", &trace_s])).is_err());
        assert!(dispatch(&strs(&["trace", "report"])).is_err());

        // --json renders the machine-readable form of the same report.
        dispatch(&strs(&["trace", "report", &trace_s, "--json"])).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_line_reports_vm_hwm() {
        let line = peak_rss_line().expect("/proc/self/status is readable on Linux");
        let mib: f64 = line
            .strip_prefix("peak RSS = ")
            .and_then(|rest| rest.strip_suffix(" MiB"))
            .and_then(|num| num.parse().ok())
            .unwrap_or_else(|| panic!("unparsable line `{line}`"));
        assert!(mib > 0.0, "{line}");
    }

    /// A minimal `BENCH_*.json`-shaped snapshot with a fingerprint, an
    /// I/O count and a wall metric.
    const SNAP: &str = r#"{"experiment":"t","hardware_threads":8,"available_threads":8,
        "sides":[{"label":"seq","blocks_read":273,"scans":13,"wall_ms":64.0}]}"#;

    #[test]
    fn bench_diff_and_check_gate_round_trip() {
        let dir = ScratchDir::new("cli-bench").unwrap();
        let base = dir.file("base.json");
        std::fs::write(&base, SNAP).unwrap();
        let base_s = base.display().to_string();

        // Identical snapshots pass the gate and diff cleanly.
        let same = dir.file("same.json").display().to_string();
        std::fs::write(&same, SNAP).unwrap();
        dispatch(&strs(&["bench", "diff", &base_s, &same])).unwrap();
        dispatch(&strs(&[
            "bench",
            "check",
            "--baseline",
            &base_s,
            "--current",
            &same,
        ]))
        .unwrap();

        // An injected I/O regression fails the gate with non-zero exit
        // (`dispatch` erroring is exactly what drives `ExitCode::from(2)`).
        let bad = dir.file("bad.json").display().to_string();
        std::fs::write(
            &bad,
            SNAP.replace("\"blocks_read\":273", "\"blocks_read\":291"),
        )
        .unwrap();
        let err = dispatch(&strs(&[
            "bench",
            "check",
            "--baseline",
            &base_s,
            "--current",
            &bad,
        ]))
        .unwrap_err();
        assert!(err.contains("violation"), "{err}");

        // A wall-clock wobble within the noise band still passes…
        let noisy = dir.file("noisy.json").display().to_string();
        std::fs::write(&noisy, SNAP.replace("\"wall_ms\":64.0", "\"wall_ms\":80.0")).unwrap();
        dispatch(&strs(&[
            "bench",
            "check",
            "--baseline",
            &base_s,
            "--current",
            &noisy,
        ]))
        .unwrap();
        // …but one beyond it (64 ms × 1.5 + 10 ms = 106 ms) fails.
        let slow = dir.file("slow.json").display().to_string();
        std::fs::write(&slow, SNAP.replace("\"wall_ms\":64.0", "\"wall_ms\":120.0")).unwrap();
        assert!(dispatch(&strs(&[
            "bench",
            "check",
            "--baseline",
            &base_s,
            "--current",
            &slow,
        ]))
        .is_err());

        // Bad invocations are rejected.
        assert!(dispatch(&strs(&["bench", "frob"])).is_err());
        assert!(dispatch(&strs(&["bench", "diff", &base_s])).is_err());
        assert!(dispatch(&strs(&["bench", "check"])).is_err());
    }

    #[test]
    fn record_appends_ledger_entries_and_history_reads_them() {
        let dir = ScratchDir::new("cli-record").unwrap();
        let out = dir.file("g.adj").display().to_string();
        dispatch(&strs(&[
            "gen",
            "er",
            "--vertices",
            "400",
            "--edges",
            "800",
            &out,
        ]))
        .unwrap();
        let ledger_path = dir.file("history.jsonl");
        let ledger_s = ledger_path.display().to_string();
        for cmd in ["run", "stats", "bound"] {
            dispatch(&strs(&[
                cmd, &out, "--record", "--ledger", &ledger_s, "--rev", "deadbee",
            ]))
            .unwrap();
        }
        let entries = mis_obs::Ledger::at(&ledger_path).load().unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].source, "mis run");
        assert_eq!(entries[1].source, "mis stats");
        assert_eq!(entries[2].source, "mis bound");
        for e in &entries {
            assert_eq!(e.env.git_rev.as_deref(), Some("deadbee"));
            assert!(e.get_metric("scans").unwrap() >= 1.0, "{:?}", e.metrics);
            assert!(e.get_metric("blocks_read").unwrap() >= 1.0);
        }
        assert!(entries[0].get_metric("is_size").unwrap() > 0.0);
        assert_eq!(
            entries[0].verdicts,
            vec![
                ("independent".to_string(), true),
                ("maximal".to_string(), true)
            ]
        );
        assert!(entries[2].get_metric("best_bound").unwrap() > 0.0);

        // `bench history` renders the same file; a tampered line fails it.
        dispatch(&strs(&["bench", "history", "--ledger", &ledger_s])).unwrap();
        let text = std::fs::read_to_string(&ledger_path).unwrap();
        std::fs::write(&ledger_path, text.replacen("mis run", "mis fun", 1)).unwrap();
        assert!(dispatch(&strs(&["bench", "history", "--ledger", &ledger_s])).is_err());
    }

    #[test]
    fn stats_check_model_enforces_conformance() {
        let dir = ScratchDir::new("cli-model").unwrap();
        let out = dir.file("g.adj").display().to_string();
        dispatch(&strs(&[
            "gen",
            "plrg",
            "--vertices",
            "3000",
            "--beta",
            "2.0",
            "--block-size",
            "4096",
            &out,
        ]))
        .unwrap();
        // The degree pass is one scan of ⌈bytes/B⌉ blocks — the model
        // must conform exactly, on both storage backends and executors.
        dispatch(&strs(&[
            "stats",
            &out,
            "--check-model",
            "--block-size",
            "4096",
        ]))
        .unwrap();
        dispatch(&strs(&[
            "stats",
            &out,
            "--check-model",
            "--block-size",
            "4096",
            "--threads",
            "4",
        ]))
        .unwrap();
        let cout = dir.file("g.cadj").display().to_string();
        dispatch(&strs(&["compress", &out, &cout, "--block-size", "4096"])).unwrap();
        dispatch(&strs(&[
            "stats",
            &cout,
            "--check-model",
            "--block-size",
            "4096",
        ]))
        .unwrap();
    }

    /// Sends one protocol line over `s` and returns the trimmed reply.
    fn ask(s: &mut UnixStream, line: &str) -> String {
        writeln!(s, "{line}").unwrap();
        s.flush().unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    #[test]
    fn serve_round_trip_over_a_unix_socket() {
        let dir = ScratchDir::new("cli-serve").unwrap();
        let base = dir.file("g.adj").display().to_string();
        dispatch(&strs(&[
            "gen",
            "er",
            "--vertices",
            "300",
            "--edges",
            "600",
            "--block-size",
            "4096",
            &base,
        ]))
        .unwrap();

        let sock = dir.file("mis.sock").display().to_string();
        let server = {
            let base = base.clone();
            let sock = sock.clone();
            std::thread::spawn(move || {
                dispatch(&strs(&[
                    "serve",
                    &base,
                    "--socket",
                    &sock,
                    "--roll-epochs",
                    "1",
                    "--compact-threshold",
                    "2",
                    "--block-size",
                    "4096",
                ]))
            })
        };
        let sock_path = PathBuf::from(&sock);
        for _ in 0..1000 {
            if sock_path.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(sock_path.exists(), "server did not come up");

        let mut conn = UnixStream::connect(&sock_path).unwrap();
        assert_eq!(ask(&mut conn, "PING"), "OK pong");
        assert_eq!(ask(&mut conn, "ADD 0 1"), "OK pending=1");
        let flushed = ask(&mut conn, "FLUSH");
        assert!(flushed.starts_with("OK epoch=1 ops=1"), "{flushed}");
        assert_eq!(ask(&mut conn, "FLUSH"), "OK idle");
        // Membership answers from the published epoch-1 view; the
        // inserted edge shows up in the merged neighbor list.
        let member = ask(&mut conn, "MEMBER 0");
        assert!(member == "OK true" || member == "OK false", "{member}");
        let ns = ask(&mut conn, "NEIGHBORS 0");
        assert!(ns.starts_with("OK "), "{ns}");
        assert!(
            ns.split_whitespace().any(|w| w == "1"),
            "inserted edge missing from {ns}"
        );
        let stats = ask(&mut conn, "STATS");
        assert!(stats.starts_with("OK {\"epoch\":1,"), "{stats}");
        assert!(stats.contains("\"scan_repairs\":0,"), "{stats}");
        let status = ask(&mut conn, "STATUS");
        assert!(status.contains("\"last_epoch\":1"), "{status}");
        // Bad requests get an ERR, not a dropped connection.
        assert!(ask(&mut conn, "ADD 0 300").starts_with("ERR"));
        assert!(ask(&mut conn, "MEMBER x").starts_with("ERR"));
        assert!(ask(&mut conn, "FROB").starts_with("ERR"));
        drop(conn);

        // The client modes drive the same socket: --status prints the
        // two JSON lines, --script plays a file, --shutdown stops it.
        dispatch(&strs(&["serve", "--status", "--socket", &sock])).unwrap();
        let script = dir.file("script.txt");
        std::fs::write(&script, "# one more epoch\nADD 2 3\nFLUSH\nMEMBER 2\n").unwrap();
        dispatch(&strs(&[
            "serve",
            "--script",
            &script.display().to_string(),
            "--socket",
            &sock,
        ]))
        .unwrap();
        // A script with a failing line fails the client.
        let bad = dir.file("bad.txt");
        std::fs::write(&bad, "FROB\n").unwrap();
        assert!(dispatch(&strs(&[
            "serve",
            "--script",
            &bad.display().to_string(),
            "--socket",
            &sock,
        ]))
        .is_err());
        dispatch(&strs(&["serve", "--shutdown", "--socket", &sock])).unwrap();

        server.join().unwrap().unwrap();
        assert!(!sock_path.exists(), "socket removed on shutdown");

        // The store the server left behind is consistent: the status
        // subcommand sees the committed epochs and the checkpoint.
        dispatch(&strs(&[
            "update",
            "status",
            &base,
            "--json",
            "--block-size",
            "4096",
        ]))
        .unwrap();
    }

    /// Generates a small ER base in `dir` and serves it from a thread,
    /// listening as `listen` says (`--socket PATH` or `--listen ADDR`).
    fn serve_in_thread(
        dir: &ScratchDir,
        listen: &[&str],
    ) -> std::thread::JoinHandle<Result<(), String>> {
        let base = dir.file("g.adj").display().to_string();
        dispatch(&strs(&[
            "gen",
            "er",
            "--vertices",
            "300",
            "--edges",
            "600",
            "--block-size",
            "4096",
            &base,
        ]))
        .unwrap();
        let mut args = strs(&["serve", &base, "--block-size", "4096"]);
        args.extend(strs(listen));
        std::thread::spawn(move || dispatch(&args))
    }

    #[test]
    fn serve_answers_sequential_tcp_requests_without_ack_stalls() {
        // Each reply must leave as one segment: a reply and its newline
        // written apart wait out the client's delayed ACK, ~40 ms each.
        let dir = ScratchDir::new("cli-serve-tcp").unwrap();
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr = format!("127.0.0.1:{port}");
        let server = serve_in_thread(&dir, &["--listen", &addr]);
        let conn = (0..1000)
            .find_map(|_| {
                let conn = TcpStream::connect(&addr).ok();
                if conn.is_none() {
                    std::thread::sleep(Duration::from_millis(10));
                }
                conn
            })
            .expect("server did not come up");
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        let mut reply = String::new();
        let started = Instant::now();
        for _ in 0..200 {
            write_line(&mut writer, "PING").unwrap();
            reply.clear();
            reader.read_line(&mut reply).unwrap();
            assert_eq!(reply, "OK pong\n");
        }
        let elapsed = started.elapsed();
        write_line(&mut writer, "SHUTDOWN").unwrap();
        reader.read_line(&mut reply).unwrap();
        server.join().unwrap().unwrap();
        assert!(
            elapsed < Duration::from_secs(2),
            "200 PINGs took {elapsed:?}"
        );
    }

    #[test]
    fn serve_drops_a_connection_whose_request_line_is_too_long() {
        let dir = ScratchDir::new("cli-serve-long").unwrap();
        let sock = dir.file("mis.sock");
        let server = serve_in_thread(&dir, &["--socket", &sock.display().to_string()]);
        for _ in 0..1000 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let conn = UnixStream::connect(&sock).unwrap();
        // 1 MiB without a newline; the server reads one byte past its cap
        // and hangs up, which fails the rest of the write.
        let mut flood = conn.try_clone().unwrap();
        let flood = std::thread::spawn(move || {
            let _ = flood.write_all(&vec![b'A'; 1 << 20]);
        });
        let mut reader = BufReader::new(conn);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, "ERR request line longer than 4096 bytes\n");
        // Then the connection is closed: EOF, or a reset, since the
        // server hung up with the flood's bytes still unread.
        reply.clear();
        match reader.read_line(&mut reply) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("expected the connection closed, got {other:?} {reply:?}"),
        }
        flood.join().unwrap();
        // The server itself keeps serving.
        let mut other = UnixStream::connect(&sock).unwrap();
        assert_eq!(ask(&mut other, "PING"), "OK pong");
        assert_eq!(ask(&mut other, "SHUTDOWN"), "OK shutting down");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn serve_rejects_bad_invocations() {
        // No base and no client flag; base without a listener; both
        // listeners at once; client flags are mutually exclusive.
        assert!(dispatch(&strs(&["serve"])).is_err());
        assert!(dispatch(&strs(&["serve", "g.adj"])).is_err());
        assert!(dispatch(&strs(&[
            "serve",
            "g.adj",
            "--socket",
            "s",
            "--listen",
            "127.0.0.1:0",
        ]))
        .is_err());
        assert!(dispatch(&strs(&["serve", "--status", "--shutdown", "--socket", "s"])).is_err());
        // Client mode with nothing to connect to.
        assert!(dispatch(&strs(&["serve", "--status"])).is_err());
        assert!(dispatch(&strs(&[
            "serve",
            "--status",
            "--socket",
            "/nonexistent/x.sock"
        ]))
        .is_err());
    }
}
