//! Shared machinery of the `repro` experiments.
//!
//! The paper's tables and figures share the six-algorithm suite
//! ([`run_all_algorithms`]), the β grid, the formatting helpers and
//! [`print_table`]. The experiments that write a `BENCH_*.json`
//! snapshot — `compress`, `pager`, `churn` and `serve` — also share
//! one copy of each of these:
//!
//! * [`fixture`]: the measured graph, `P(α,β)` at β = 2.0 and seed 42,
//!   as a degree-sorted plain file and, on request, its gap-compressed
//!   copy. The cost model of a file comes from the store itself
//!   ([`AnyAdjFile::cost_model`]).
//! * [`Row`]: one measured configuration. [`Row::check`] asserts its
//!   I/O against the cost model through [`check_model`] and keeps the
//!   verdict; [`Row::to_json`] writes only the fields the experiment
//!   set, so each snapshot keeps its own keys.
//! * [`JsonObject`]: the ordered field list behind every row and
//!   snapshot; `churn` fills one with its own keys.
//! * [`churn_batches`] and [`churn_snapshot`]: the edit stream `churn`
//!   and `serve` drive, and how their snapshots describe it.
//! * [`write_snapshot`]: the snapshot file, the one place an experiment
//!   records its numbers. Its header carries the experiment, the block
//!   size and the `hardware_threads` / `available_threads` fingerprint
//!   on which `mis bench check` arms its wall-clock gates.
//!   `BENCH_<NAME>_OUT` overrides its path.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use mis_core::engine::available_threads;
use mis_core::{
    upper_bound_scan, Baseline, DynamicUpdate, Greedy, OneKSwap, TfpMaximalIs, TwoKSwap,
};
use mis_extmem::{IoSnapshot, IoStats, ScratchDir, SortConfig};
use mis_gen::churn::{churn_stream, ChurnKind, ChurnOp};
use mis_gen::Dataset;
use mis_graph::{
    build_adj_file, compress_adj, degree_sort_adj_file, AnyAdjFile, CsrGraph, OrderedCsr,
};
use mis_obs::{timed, CostModel, ModelVerdict, Workload};
use mis_update::EdgeOp;

/// Result of one algorithm on one graph.
#[derive(Debug, Clone)]
pub struct AlgoRun {
    /// Algorithm label as used in the paper's tables.
    pub name: &'static str,
    /// Independent-set size.
    pub size: u64,
    /// Wall-clock time.
    pub time: Duration,
    /// Modelled memory footprint in bytes (paper Table 6 convention).
    pub memory_bytes: u64,
    /// Swap rounds (0 for non-swap algorithms).
    pub rounds: u32,
    /// Per-round swapped-in counts (swap algorithms only).
    pub per_round_in: Vec<u64>,
    /// Peak SC vertices (two-k only).
    pub sc_peak_vertices: u64,
}

/// All paper algorithms run on one dataset analogue.
#[derive(Debug, Clone)]
pub struct DatasetRun {
    /// Dataset name.
    pub name: &'static str,
    /// Analogue vertex count.
    pub vertices: u64,
    /// Analogue edge count.
    pub edges: u64,
    /// Average degree of the analogue.
    pub avg_degree: f64,
    /// Algorithm 5 upper bound on this graph (degree-sorted scan order).
    pub upper_bound: u64,
    /// The individual runs, in the paper's column order.
    pub runs: Vec<AlgoRun>,
}

impl DatasetRun {
    /// Looks up one algorithm's run by name.
    pub fn get(&self, name: &str) -> Option<&AlgoRun> {
        self.runs.iter().find(|r| r.name == name)
    }
}

/// Blocks-read tolerance of the conformance checks whose I/O includes
/// the open (`compress`, `pager`): opening a file reads its
/// header through the block reader, +1 block that no whole-scan
/// prediction accounts for. At smoke scales, where a scan is only one or
/// two blocks, that is a several-percent relative error. The scan-count
/// side of the check stays exact.
pub const MODEL_TOLERANCE: f64 = 0.1;

/// Blocks-read tolerance of the update experiments (`churn`, `serve`):
/// resuming from checkpoints and replaying the WAL adds I/O between the
/// accounted base-file scans, which the scans × ⌈bytes/B⌉ relation cannot
/// see.
pub const UPDATE_MODEL_TOLERANCE: f64 = 0.25;

/// The on-disk graph of a `BENCH_*.json` experiment.
#[derive(Debug)]
pub struct Fixture {
    /// The generated graph.
    pub graph: CsrGraph,
    /// The plain adjacency file.
    pub plain: AnyAdjFile,
    /// Its gap-compressed copy, when one was asked for.
    pub compressed: Option<AnyAdjFile>,
    /// The directory holding the files; experiments put their own files
    /// (logs and checkpoints) here too.
    pub scratch: ScratchDir,
}

impl Fixture {
    /// The snapshot's `graph` object: the generator, its parameters and
    /// the generated |V| and |E|.
    pub fn graph_json(&self) -> JsonObject {
        let mut graph = plrg_json(self.graph.num_vertices());
        graph.field("edges", self.graph.num_edges());
        graph
    }
}

/// A snapshot's `graph` object for [`fixture`]'s generator: the model,
/// β = 2.0, seed 42 and `vertices`.
fn plrg_json(vertices: impl fmt::Display) -> JsonObject {
    let mut graph = JsonObject::default();
    graph
        .string("model", "plrg")
        .field("beta", "2.0")
        .field("seed", 42)
        .field("vertices", vertices);
    graph
}

/// Generates `P(α,β)` with β = 2.0, seed 42 and about `n` vertices,
/// writes it as a plain adjacency file in `block_size` blocks, sorts it
/// by degree and, when `compressed` is set, gap-compresses the sorted
/// file. The files live in a fresh scratch directory named after
/// `scratch_name`.
pub fn fixture(scratch_name: &str, n: u64, block_size: usize, compressed: bool) -> Fixture {
    let graph = mis_gen::Plrg::with_vertices(n, 2.0).seed(42).generate();
    let scratch = ScratchDir::new(scratch_name).expect("scratch dir");
    let stats = IoStats::shared();
    let unsorted = build_adj_file(
        &graph,
        &scratch.file("graph.adj"),
        Arc::clone(&stats),
        block_size,
    )
    .expect("build adj file");
    let sorted = degree_sort_adj_file(
        &unsorted,
        &scratch.file("graph.sorted.adj"),
        &SortConfig {
            block_size,
            ..SortConfig::default()
        },
        &scratch,
    )
    .expect("degree sort");
    let compressed = compressed.then(|| {
        let path = scratch.file("graph.sorted.cadj");
        AnyAdjFile::Compressed(compress_adj(&sorted, &path, stats, block_size).expect("compress"))
    });
    Fixture {
        graph,
        plain: AnyAdjFile::Plain(sorted),
        compressed,
        scratch,
    }
}

/// Block size of the experiments' unit tests.
#[cfg(test)]
pub(crate) const TEST_BLOCK_SIZE: usize = 4096;

/// The experiments' unit-test graph: `P(α,β)` with β = 2.0, seed 7 and
/// about `n` vertices, stored unsorted as a plain file and its
/// gap-compressed copy in [`TEST_BLOCK_SIZE`] blocks.
#[cfg(test)]
pub(crate) fn test_fixture(scratch_name: &str, n: u64) -> Fixture {
    let graph = mis_gen::Plrg::with_vertices(n, 2.0).seed(7).generate();
    let scratch = ScratchDir::new(scratch_name).unwrap();
    let stats = IoStats::shared();
    let plain = build_adj_file(
        &graph,
        &scratch.file("g.adj"),
        Arc::clone(&stats),
        TEST_BLOCK_SIZE,
    )
    .unwrap();
    let comp = compress_adj(&plain, &scratch.file("g.cadj"), stats, TEST_BLOCK_SIZE).unwrap();
    Fixture {
        graph,
        plain: AnyAdjFile::Plain(plain),
        compressed: Some(AnyAdjFile::Compressed(comp)),
        scratch,
    }
}

/// Checks `io` against `model` and panics, naming `what`, unless it
/// conforms. With a `workload` the scan count must match exactly; the
/// blocks read must lie within `tolerance` of the scans × ⌈bytes/B⌉
/// relation either way, widened for each of the `point_passes` passes
/// of point reads (local epoch repairs) by one transfer per page of the
/// store's point-access pager ([`mis_update::point_pager`]).
pub fn check_model(
    what: &str,
    model: &CostModel,
    workload: Option<Workload>,
    point_passes: u64,
    io: &IoSnapshot,
    tolerance: f64,
) -> ModelVerdict {
    let verdict = model.check_with_point_reads(
        workload,
        point_passes,
        mis_update::point_pager().page_size as u64,
        io.scans_started,
        io.blocks_read,
        tolerance,
    );
    assert!(verdict.pass, "{what}: {verdict}");
    verdict
}

/// One measured configuration of a `BENCH_*.json` experiment. The
/// optional fields are those only some experiments report;
/// [`Row::to_json`] writes a field only when the experiment set it.
#[derive(Debug, Clone, Default)]
pub struct Row {
    /// |IS| of the final set.
    pub is_size: u64,
    /// Swap rounds.
    pub rounds: u64,
    /// Rounds that verified candidates through the buffer pool.
    pub paged_rounds: Option<u64>,
    /// Accounted file scans of the pipeline.
    pub file_scans: u64,
    /// I/O over the experiment's window: blocks and bytes read are
    /// always written, the buffer-pool counters when `cache` is set.
    pub io: IoSnapshot,
    /// Whether to write the buffer-pool hit, miss and eviction counts.
    pub cache: bool,
    /// Whether the maximality proof held.
    pub maximal: Option<bool>,
    /// Whole measured run, milliseconds.
    pub wall_ms: Option<f64>,
    /// Cost-model verdict, set by [`Row::check`].
    pub model: Option<ModelVerdict>,
}

impl Row {
    /// Checks the row's I/O through [`check_model`] and keeps the
    /// verdict.
    pub fn check(
        &mut self,
        what: &str,
        model: &CostModel,
        workload: Option<Workload>,
        tolerance: f64,
    ) {
        self.model = Some(check_model(what, model, workload, 0, &self.io, tolerance));
    }

    /// Whether the verdict was taken and passed.
    pub fn conforms(&self) -> bool {
        self.model.as_ref().is_some_and(|v| v.pass)
    }

    /// The row as one JSON object, with the fields the experiment set.
    pub fn to_json(&self) -> String {
        let mut json = JsonObject::default();
        json.field("is_size", self.is_size)
            .field("rounds", self.rounds);
        if let Some(paged) = self.paged_rounds {
            json.field("paged_rounds", paged);
        }
        json.field("file_scans", self.file_scans)
            .field("blocks_read", self.io.blocks_read)
            .field("bytes_read", self.io.bytes_read);
        if self.cache {
            json.field("cache_hits", self.io.cache_hits)
                .field("cache_misses", self.io.cache_misses)
                .field("cache_evictions", self.io.cache_evictions)
                .fixed("cache_hit_rate", self.io.cache_hit_rate(), 4);
        }
        if let Some(maximal) = self.maximal {
            json.field("maximal", maximal);
        }
        if let Some(ms) = self.wall_ms {
            json.fixed("wall_ms", ms, 2);
        }
        if let Some(verdict) = &self.model {
            json.field("model", verdict.to_json());
        }
        json.to_json()
    }
}

/// The update experiments' edit stream over `graph`: `epochs` batches of
/// `ops_per_epoch` seeded edge insertions and deletions (30% deletes,
/// seed 7), as log operations.
pub fn churn_batches(graph: &CsrGraph, epochs: usize, ops_per_epoch: usize) -> Vec<Vec<EdgeOp>> {
    let stream = churn_stream(graph, epochs * ops_per_epoch, 0.3, 7);
    assert_eq!(stream.len(), epochs * ops_per_epoch, "stream fell short");
    let op = |op: &ChurnOp| match op.kind {
        ChurnKind::Insert => EdgeOp::Insert(op.u, op.v),
        ChurnKind::Delete => EdgeOp::Delete(op.u, op.v),
    };
    stream
        .chunks(ops_per_epoch)
        .map(|batch| batch.iter().map(op).collect())
        .collect()
}

/// The start of an update experiment's snapshot body: the `graph` of a
/// fixture with `n` requested vertices and the `workload` of
/// [`churn_batches`]'s stream, `ops` operations over `epochs`.
pub fn churn_snapshot(n: u64, epochs: u64, ops: usize) -> JsonObject {
    let mut body = JsonObject::default();
    body.field("graph", plrg_json(n).to_json()).field(
        "workload",
        format_args!(
            "{{\"epochs\": {epochs}, \"ops\": {ops}, \"delete_fraction\": 0.3, \"seed\": 7}}"
        ),
    );
    body
}

/// A JSON object built one field at a time; the fields keep the order
/// they were added in.
#[derive(Debug, Clone, Default)]
pub struct JsonObject(Vec<(&'static str, String)>);

impl JsonObject {
    /// Adds a field whose value already is JSON: a number, a bool, or a
    /// nested object or array.
    pub fn field(&mut self, key: &'static str, value: impl fmt::Display) -> &mut Self {
        self.0.push((key, value.to_string()));
        self
    }

    /// Adds a string field.
    pub fn string(&mut self, key: &'static str, value: &str) -> &mut Self {
        self.field(key, format_args!("\"{value}\""))
    }

    /// Adds a number printed with `decimals` digits after the point.
    pub fn fixed(&mut self, key: &'static str, value: f64, decimals: usize) -> &mut Self {
        self.field(key, format_args!("{value:.decimals$}"))
    }

    /// The object on one line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON array of already rendered items, one item per line, indented
/// to sit at a snapshot's top level.
pub fn json_list(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

/// The text [`write_snapshot`] writes, one top-level field per line.
fn snapshot_json(experiment: &str, block_size: usize, body: &JsonObject) -> String {
    let mut snapshot = JsonObject::default();
    snapshot
        .string("experiment", experiment)
        .field("block_size", block_size)
        .field("hardware_threads", mis_obs::hardware_threads())
        .field("available_threads", available_threads());
    snapshot.0.extend(body.0.iter().cloned());
    let fields: Vec<String> = snapshot
        .0
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

/// Writes `experiment`'s snapshot to `BENCH_<experiment>.json`, or to
/// the path in `BENCH_<EXPERIMENT>_OUT` when that is set: the shared
/// header (experiment, block size, `hardware_threads`,
/// `available_threads`), then `body`'s fields. A failed write is
/// reported but does not fail the experiment.
pub fn write_snapshot(experiment: &str, block_size: usize, body: &JsonObject) {
    let path = std::env::var(format!("BENCH_{}_OUT", experiment.to_uppercase()))
        .unwrap_or_else(|_| format!("BENCH_{experiment}.json"));
    match std::fs::write(&path, snapshot_json(experiment, block_size, body)) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}

/// Runs the full six-algorithm suite of Table 5 on `graph`:
/// `DynamicUpdate`, `STXXL` (time-forward processing), `Baseline`,
/// one-k/two-k after Baseline, `Greedy`, one-k/two-k after Greedy.
pub fn run_all_algorithms(name: &'static str, graph: &CsrGraph) -> DatasetRun {
    let sorted = OrderedCsr::degree_sorted(graph);
    let mut runs = Vec::new();

    let (dynamic, t) = timed(|| DynamicUpdate::new().run(graph));
    runs.push(AlgoRun {
        name: "DynamicUpdate",
        size: dynamic.set.len() as u64,
        time: t,
        memory_bytes: dynamic.memory.total(),
        rounds: 0,
        per_round_in: Vec::new(),
        sc_peak_vertices: 0,
    });

    let (tfp, t) = timed(|| {
        TfpMaximalIs::new()
            .run(graph, IoStats::shared())
            .expect("tfp run failed")
    });
    runs.push(AlgoRun {
        name: "STXXL",
        size: tfp.set.len() as u64,
        time: t,
        memory_bytes: tfp.memory.total(),
        rounds: 0,
        per_round_in: Vec::new(),
        sc_peak_vertices: 0,
    });

    let (baseline, t) = timed(|| Baseline::new().run(graph));
    runs.push(AlgoRun {
        name: "Baseline",
        size: baseline.set.len() as u64,
        time: t,
        memory_bytes: baseline.memory.total(),
        rounds: 0,
        per_round_in: Vec::new(),
        sc_peak_vertices: 0,
    });

    let (one_b, t) = timed(|| OneKSwap::new().run(graph, &baseline.set));
    runs.push(AlgoRun {
        name: "One-k (Baseline)",
        size: one_b.result.set.len() as u64,
        time: t,
        memory_bytes: one_b.result.memory.total(),
        rounds: one_b.stats.num_rounds(),
        per_round_in: one_b.stats.rounds.iter().map(|r| r.swapped_in).collect(),
        sc_peak_vertices: 0,
    });

    let (two_b, t) = timed(|| TwoKSwap::new().run(graph, &baseline.set));
    runs.push(AlgoRun {
        name: "Two-k (Baseline)",
        size: two_b.result.set.len() as u64,
        time: t,
        memory_bytes: two_b.result.memory.total(),
        rounds: two_b.stats.num_rounds(),
        per_round_in: two_b.stats.rounds.iter().map(|r| r.swapped_in).collect(),
        sc_peak_vertices: two_b.stats.sc_peak_vertices,
    });

    let (greedy, t) = timed(|| Greedy::new().run(&sorted));
    runs.push(AlgoRun {
        name: "Greedy",
        size: greedy.set.len() as u64,
        time: t,
        memory_bytes: greedy.memory.total(),
        rounds: 0,
        per_round_in: Vec::new(),
        sc_peak_vertices: 0,
    });

    let (one_g, t) = timed(|| OneKSwap::new().run(&sorted, &greedy.set));
    runs.push(AlgoRun {
        name: "One-k (Greedy)",
        size: one_g.result.set.len() as u64,
        time: t,
        memory_bytes: one_g.result.memory.total(),
        rounds: one_g.stats.num_rounds(),
        per_round_in: one_g.stats.rounds.iter().map(|r| r.swapped_in).collect(),
        sc_peak_vertices: 0,
    });

    let (two_g, t) = timed(|| TwoKSwap::new().run(&sorted, &greedy.set));
    runs.push(AlgoRun {
        name: "Two-k (Greedy)",
        size: two_g.result.set.len() as u64,
        time: t,
        memory_bytes: two_g.result.memory.total(),
        rounds: two_g.stats.num_rounds(),
        per_round_in: two_g.stats.rounds.iter().map(|r| r.swapped_in).collect(),
        sc_peak_vertices: two_g.stats.sc_peak_vertices,
    });

    DatasetRun {
        name,
        vertices: graph.num_vertices() as u64,
        edges: graph.num_edges(),
        avg_degree: graph.avg_degree(),
        upper_bound: upper_bound_scan(&sorted),
        runs,
    }
}

/// Generates a dataset analogue and runs the suite.
pub fn run_dataset(dataset: &Dataset, scale: f64) -> DatasetRun {
    let graph = dataset.generate(scale);
    run_all_algorithms(dataset.name, &graph)
}

/// One point of a β sweep (Figures 8/10, Tables 2/9).
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The β of this point.
    pub beta: f64,
    /// Fitted α.
    pub alpha: f64,
    /// Realised vertex count.
    pub vertices: u64,
    /// Realised edge count.
    pub edges: u64,
}

/// The paper's β grid: 1.7, 1.8, …, 2.7.
pub fn beta_grid() -> Vec<f64> {
    (0..=10).map(|i| 1.7 + 0.1 * i as f64).collect()
}

/// β-sweep vertex target honouring `REPRO_SCALE`.
pub fn sweep_vertices() -> u64 {
    let scale = mis_gen::datasets::env_scale();
    ((100_000.0 * scale) as u64).max(1_000)
}

/// Formats a duration compactly (`ms` below 10 s, seconds otherwise).
pub fn fmt_time(d: Duration) -> String {
    if d < Duration::from_secs(10) {
        format!("{:.1}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

/// Formats a byte count with binary units.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes}B")
    } else {
        format!("{value:.1}{}", UNITS[unit])
    }
}

/// Prints an aligned text table: `rows` of cells, as many as `header`.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), header.len(), "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    fn print_row<S: AsRef<str>>(cells: &[S], widths: &[usize]) {
        let line: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{:>w$}", c.as_ref()))
            .collect();
        println!("  {}", line.join("  "));
    }
    print_row(header, &widths);
    let rules: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    print_row(&rules, &widths);
    for row in rows {
        print_row(row, &widths);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_orders_algorithms() {
        let g = mis_gen::Plrg::with_vertices(2_000, 2.2).seed(1).generate();
        let run = run_all_algorithms("test", &g);
        assert_eq!(run.runs.len(), 8);
        // Paper Table 5 shape: swaps beat their starting point.
        let baseline = run.get("Baseline").unwrap().size;
        let one_b = run.get("One-k (Baseline)").unwrap().size;
        let two_b = run.get("Two-k (Baseline)").unwrap().size;
        let greedy = run.get("Greedy").unwrap().size;
        let two_g = run.get("Two-k (Greedy)").unwrap().size;
        assert!(one_b >= baseline);
        assert!(two_b >= baseline);
        assert!(two_g >= greedy);
        // Everything respects the Algorithm 5 bound.
        for r in &run.runs {
            assert!(r.size <= run.upper_bound, "{} exceeds bound", r.name);
        }
    }

    #[test]
    fn beta_grid_matches_paper() {
        let grid = beta_grid();
        assert_eq!(grid.len(), 11);
        assert!((grid[0] - 1.7).abs() < 1e-12);
        assert!((grid[10] - 2.7).abs() < 1e-12);
    }

    /// The row writer emits exactly the fields an experiment set, and
    /// every snapshot carries the fingerprint `mis bench check` arms its
    /// wall gates on.
    #[test]
    fn rows_write_set_fields_and_snapshots_carry_the_fingerprint() {
        use mis_obs::report::{parse_json, Json};

        let always = [
            "is_size",
            "rounds",
            "file_scans",
            "blocks_read",
            "bytes_read",
        ];
        let optional = [
            "paged_rounds",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_hit_rate",
            "maximal",
            "wall_ms",
            "model",
        ];
        let mut row = Row {
            is_size: 7,
            rounds: 2,
            file_scans: 5,
            ..Row::default()
        };
        let bare = parse_json(&row.to_json()).unwrap();
        for key in always {
            assert!(bare.get(key).is_some(), "{key} is always written");
        }
        for key in optional {
            assert!(bare.get(key).is_none(), "unset {key} must stay out");
        }

        let fx = test_fixture("row-test", 1_000);
        let model = fx.plain.cost_model(TEST_BLOCK_SIZE).unwrap();
        row.io.scans_started = 5;
        row.io.blocks_read = 5 * model.blocks_per_scan();
        row.check("test", &model, None, 0.0);
        row = Row {
            paged_rounds: Some(0),
            cache: true,
            maximal: Some(true),
            wall_ms: Some(3.0),
            ..row
        };
        let full = parse_json(&row.to_json()).unwrap();
        for key in always.iter().chain(&optional) {
            assert!(full.get(key).is_some(), "set {key} must be written");
        }
        assert_eq!(full.get("wall_ms").and_then(Json::as_f64), Some(3.0));
        assert_eq!(full.get("maximal"), Some(&Json::Bool(true)));
        let verdict = full.get("model").unwrap();
        assert_eq!(verdict.get("pass"), Some(&Json::Bool(true)));

        let mut body = JsonObject::default();
        body.field("sides", json_list([row.to_json(), row.to_json()]))
            .fixed("ratio", 1.5, 4);
        for experiment in ["compress", "pager", "churn", "serve"] {
            let snapshot = parse_json(&snapshot_json(experiment, 4096, &body)).unwrap();
            assert_eq!(
                snapshot.get("experiment").and_then(Json::as_str),
                Some(experiment)
            );
            assert_eq!(
                snapshot.get("block_size").and_then(Json::as_f64),
                Some(4096.0)
            );
            for key in ["hardware_threads", "available_threads"] {
                let threads = snapshot.get(key).and_then(Json::as_f64);
                assert!(threads >= Some(1.0), "{experiment}: top-level {key}");
            }
            assert!(matches!(snapshot.get("sides"), Some(Json::Arr(items)) if items.len() == 2));
            assert_eq!(snapshot.get("ratio").and_then(Json::as_f64), Some(1.5));
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert!(fmt_time(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_time(Duration::from_secs(12)).ends_with('s'));
    }
}
