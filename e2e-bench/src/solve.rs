//! The offline-solve workloads: Greedy → two-k swap → maximality proof
//! on a generated, degree-sorted graph file.
//!
//! The solves run in a child process (this binary with `--solver`), so
//! `peak_rss_mb` is the solver's alone: the generator, the in-memory
//! oracle graph and the reference solve stay in the parent.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use mis_core::{
    prove_maximal_with, Executor, Greedy, SetProof, SwapConfig, TwoKSwap, DEFAULT_PAGED_THRESHOLD,
};
use mis_extmem::{IoSnapshot, IoStats, PagerConfig, PolicyKind, ScratchDir, SortConfig};
use mis_graph::{
    build_adj_file, degree_sort_adj_file, degree_sort_compressed_adj_file, AnyAdjFile, CsrGraph,
    NeighborAccess, OrderedCsr, RandomAccessGraph, VertexId,
};

use crate::common::{self, median, ms_since, Report, BLOCK_SIZE};
use crate::{layers, Ctx};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest solves a run measures, however short `--seconds` is.
const MIN_SOLVES: usize = 3;
/// Two-k rounds before the paper's early stop (Table 8). Run to
/// convergence, the round count and with it the scan count flips
/// between seeds (9 or 11 scans at 2M vertices), which would swamp the
/// run-to-run comparison; the paper finds the swap gains concentrate in
/// the first rounds.
const SWAP_ROUNDS: u32 = 3;

/// How a solve workload stores and scans its graph.
#[derive(Debug, Clone, Copy)]
pub struct SolveSpec {
    /// `MISADJC1` gap-compressed records instead of plain `MISADJ01`.
    pub compressed: bool,
    /// Fold threads; 1 runs [`Executor::Sequential`].
    pub threads: usize,
    /// Pager budget for the paged swap rounds; 0 runs without a pager.
    pub cache_mb: u64,
}

impl SolveSpec {
    pub fn for_workload(name: &str) -> Option<Self> {
        match name {
            "solve-plain" => Some(Self {
                compressed: false,
                threads: 1,
                cache_mb: 0,
            }),
            "solve-compressed-par" => Some(Self {
                compressed: true,
                threads: mis_core::engine::available_threads(),
                cache_mb: 8,
            }),
            _ => None,
        }
    }

    pub fn executor(&self) -> Executor {
        if self.threads <= 1 {
            Executor::Sequential
        } else {
            Executor::parallel(self.threads)
        }
    }

    /// The pager behind the paged swap rounds, if any.
    pub fn pager(&self) -> Option<PagerConfig> {
        (self.cache_mb > 0).then(|| {
            PagerConfig::with_capacity_bytes(self.cache_mb << 20, BLOCK_SIZE, PolicyKind::default())
        })
    }
}

/// Generates the seeded `P(α, β = 2.0)` graph.
pub fn generate(n: u64, seed: u64) -> CsrGraph {
    mis_gen::Plrg::with_vertices(n, 2.0).seed(seed).generate()
}

/// Writes `graph` degree-sorted to `dir` (plain or compressed); returns
/// the file and the degree-sort time in seconds.
pub fn write_sorted(graph: &CsrGraph, dir: &Path, compressed: bool) -> io::Result<(PathBuf, f64)> {
    let stats = IoStats::shared();
    let raw = build_adj_file(graph, &dir.join("raw.adj"), stats, BLOCK_SIZE)?;
    let scratch = ScratchDir::new_in(dir, "sort")?;
    let cfg = SortConfig {
        block_size: BLOCK_SIZE,
        ..SortConfig::default()
    };
    let t = Instant::now();
    let _span = mis_obs::span("bench", "graph.degree_sort");
    let path = if compressed {
        let out = dir.join("graph.cadj");
        degree_sort_compressed_adj_file(&raw, &out, &cfg, &scratch)?;
        out
    } else {
        let out = dir.join("graph.adj");
        degree_sort_adj_file(&raw, &out, &cfg, &scratch)?;
        out
    };
    let sort_s = t.elapsed().as_secs_f64();
    std::fs::remove_file(dir.join("raw.adj"))?;
    Ok((path, sort_s))
}

/// Opens the point-access path of `file` under `pager`.
pub fn open_access(
    file: &AnyAdjFile,
    pager: PagerConfig,
) -> io::Result<Box<dyn NeighborAccess + Send>> {
    match file {
        AnyAdjFile::Plain(f) => Ok(Box::new(RandomAccessGraph::open(f, pager)?)),
        AnyAdjFile::Compressed(f) => Ok(Box::new(RandomAccessGraph::open_compressed(f, pager)?)),
        AnyAdjFile::Sharded(_) => Err(io::Error::other("sharded stores are not benchmarked")),
    }
}

/// One solve, from opening the file to a proved set.
#[derive(Debug)]
pub struct SolveRun {
    pub total_ms: f64,
    pub greedy_ms: f64,
    pub swap_ms: f64,
    pub proof_ms: f64,
    pub io: IoSnapshot,
    pub set: Vec<VertexId>,
    pub proof: SetProof,
    /// Full scans of the algorithm and its proof.
    pub scans: u64,
    pub swap_rounds: u32,
    pub paged_rounds: u64,
}

/// The paper's pipeline through the public library calls, each wrapped
/// in a span (recorded only while tracing is on).
pub fn solve_once(path: &Path, spec: &SolveSpec) -> io::Result<SolveRun> {
    let stats = IoStats::shared();
    let executor = spec.executor();
    let start = Instant::now();
    let (file, access) = {
        let _span = mis_obs::span("bench", "graph.open");
        let file = AnyAdjFile::open_with_block_size(path, Arc::clone(&stats), BLOCK_SIZE)?;
        let access = spec.pager().map(|p| open_access(&file, p)).transpose()?;
        (file, access)
    };
    let scan = file.as_scan();

    let t = Instant::now();
    let greedy = {
        let _span = mis_obs::span("bench", "core.greedy");
        Greedy::with_executor(executor).run(scan)
    };
    let greedy_ms = ms_since(t);

    let mut config = SwapConfig::early_stop(SWAP_ROUNDS).with_executor(executor);
    if access.is_some() {
        config.paged_threshold = DEFAULT_PAGED_THRESHOLD;
    }
    let t = Instant::now();
    let swap = {
        let _span = mis_obs::span("bench", "core.swap");
        let access = access.as_deref().map(|a| a as &dyn NeighborAccess);
        TwoKSwap::with_config(config).run_paged(scan, access, &greedy.set)
    };
    let swap_ms = ms_since(t);

    let t = Instant::now();
    let proof = {
        let _span = mis_obs::span("bench", "core.proof");
        prove_maximal_with(scan, &swap.result.set, &executor)
    };
    let proof_ms = ms_since(t);

    let mut set = swap.result.set;
    set.sort_unstable();
    Ok(SolveRun {
        total_ms: ms_since(start),
        greedy_ms,
        swap_ms,
        proof_ms,
        io: stats.snapshot(),
        set,
        proof,
        scans: greedy.file_scans + swap.result.file_scans + 1,
        swap_rounds: swap.stats.num_rounds(),
        paged_rounds: swap.stats.paged_rounds,
    })
}

/// The sequential plain pipeline replayed on the in-memory graph in the
/// same degree-sorted record order: the set `solve-plain` must return.
fn reference_set(graph: &CsrGraph) -> Vec<VertexId> {
    let ordered = OrderedCsr::degree_sorted(graph);
    let greedy = Greedy::new().run(&ordered);
    let swap = TwoKSwap::with_config(SwapConfig::early_stop(SWAP_ROUNDS));
    let mut set = swap.run(&ordered, &greedy.set).result.set;
    set.sort_unstable();
    set
}

/// Child-process entry (`--solver FILE`): repeats the solve until
/// `seconds` have passed, prints one `solve` line per solve and the
/// process's peak RSS, and saves the last set.
pub fn solver_main(path: &Path, spec: &SolveSpec, seconds: f64, set_out: &Path) -> io::Result<()> {
    let start = Instant::now();
    let mut solves = 0usize;
    let mut last: Option<SolveRun> = None;
    while solves < MIN_SOLVES || start.elapsed().as_secs_f64() < seconds {
        let run = solve_once(path, spec)?;
        let same = last.as_ref().is_none_or(|prev| prev.set == run.set);
        println!(
            "solve ms={} bytes={} proved={} same={same}",
            run.total_ms,
            run.io.bytes_read,
            run.proof.is_maximal_independent(),
        );
        solves += 1;
        last = Some(run);
    }
    let last = last.expect("at least one solve ran");
    common::save_set(set_out, &last.set)?;
    let rss = common::peak_rss_mb(std::process::id()).unwrap_or(0.0);
    println!("rss_mb={rss}");
    Ok(())
}

/// What the child reported.
#[derive(Debug, Default)]
struct ChildOut {
    solve_ms: Vec<f64>,
    read_bytes: Vec<f64>,
    proved: usize,
    same: usize,
    rss_mb: f64,
}

fn run_child(ctx: &Ctx, file: &Path, spec: &SolveSpec, set_out: &Path) -> io::Result<ChildOut> {
    let exe = std::env::current_exe()?;
    let output = Command::new(exe)
        .arg("--solver")
        .arg(file)
        .args(["--threads", &spec.threads.to_string()])
        .args(["--cache-mb", &spec.cache_mb.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .arg("--set-out")
        .arg(set_out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(io::Error::other(format!(
            "solver process failed: {}",
            output.status
        )));
    }
    let mut out = ChildOut::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        if let Some(rss) = line.strip_prefix("rss_mb=") {
            out.rss_mb = rss.parse().unwrap_or(0.0);
        }
        let Some(fields) = line.strip_prefix("solve ") else {
            continue;
        };
        for kv in fields.split_whitespace() {
            match kv.split_once('=') {
                Some(("ms", v)) => out.solve_ms.push(v.parse().unwrap_or(f64::NAN)),
                Some(("bytes", v)) => out.read_bytes.push(v.parse().unwrap_or(f64::NAN)),
                Some(("proved", "true")) => out.proved += 1,
                Some(("same", "true")) => out.same += 1,
                _ => {}
            }
        }
    }
    Ok(out)
}

/// Runs one solve workload.
pub fn run(ctx: &Ctx, spec: SolveSpec) -> io::Result<Report> {
    let n = if ctx.tiny { 20_000 } else { 2_000_000 };
    let mut report = Report::default();
    report.notes.push(format!(
        "graph: P(a, b=2.0), |V| = {n}, seed {}; {} records; executor {} ({} threads); pager {}",
        ctx.seed,
        if spec.compressed {
            "MISADJC1 compressed"
        } else {
            "MISADJ01 plain"
        },
        spec.executor().describe(),
        spec.threads,
        if spec.cache_mb > 0 {
            format!("{} MiB", spec.cache_mb)
        } else {
            "none".into()
        }
    ));

    // ---- Set-up: generate + degree sort (+ compress), repeated. ----
    let mut setup_s = Vec::new();
    let mut sort_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let graph = generate(n, ctx.seed);
        let (file, sort) = write_sorted(&graph, &ctx.dir, spec.compressed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        sort_s.push(sort);
        built = Some((graph, file));
    }
    let (graph, file) = built.expect("set-up ran");
    let file_bytes = std::fs::metadata(&file)?.len();
    report.notes.push(format!(
        "file: {} bytes, |E| = {}",
        file_bytes,
        graph.num_edges()
    ));

    // ---- Measured phase: solves in the child process. ----
    let set_out = ctx.dir.join("solve.set");
    let child = run_child(ctx, &file, &spec, &set_out)?;
    let solves = child.solve_ms.len();
    report.attempted += solves as u64;
    report.failed += (solves - child.proved.min(solves)) as u64;

    // ---- Oracles. ----
    let set = common::load_set(&set_out)?;
    let (independent, maximal) = common::is_mis(&graph, &set);
    report.check(
        "solve set is independent in the in-memory graph",
        independent,
    );
    report.check("solve set is maximal in the in-memory graph", maximal);
    report.check(
        "every solve's proof scan proved the set",
        child.proved == solves,
    );
    report.check("every solve returned the same set", child.same == solves);
    report.check("solver's peak RSS was read", child.rss_mb > 0.0);
    report.check(
        "set equals solve-plain's (sequential plain pipeline in memory)",
        reference_set(&graph) == set,
    );

    let e2e = common::end_to_end(
        &setup_s,
        set.len(),
        child.rss_mb,
        median(&child.read_bytes) / 1e6,
        &child.solve_ms,
    );
    report.notes.push(format!(
        "solve_s = {:.3} s (median of {solves} solves, open -> proved set)",
        median(&child.solve_ms) / 1e3
    ));

    if ctx.trace {
        report.end_to_end = e2e;
        solve_layers(ctx, &spec, &file, &graph, median(&sort_s), &mut report)?;
    } else {
        report.metrics = e2e;
    }
    Ok(report)
}

/// The traced run's per-layer numbers for a solve workload.
fn solve_layers(
    ctx: &Ctx,
    spec: &SolveSpec,
    file: &Path,
    graph: &CsrGraph,
    degree_sort_s: f64,
    report: &mut Report,
) -> io::Result<()> {
    let lookup_pager = spec.pager().unwrap_or_default();
    let solve = layers::file_layers(ctx, file, spec, lookup_pager, graph.num_vertices(), report)?;
    report.metric("graph.degree_sort_s", degree_sort_s, "s");
    let io = &solve.io;
    report.metric("extmem.blocks_read", io.blocks_read as f64, "count");
    report.metric("extmem.scans", io.scans_started as f64, "count");
    report.metric("extmem.pager.hit_rate", 100.0 * io.cache_hit_rate(), "%");
    report.metric("extmem.pager.misses", io.cache_misses as f64, "count");
    report.metric("extmem.pager.evictions", io.cache_evictions as f64, "count");
    report.check(
        "traced solve returns the untraced set",
        solve.set == common::load_set(&ctx.dir.join("solve.set"))?,
    );
    layers::serve_layers_idle(report);
    Ok(())
}
