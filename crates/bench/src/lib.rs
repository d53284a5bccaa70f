//! Experiment harness reproducing the paper's evaluation (Section 7).
//!
//! Every table and figure of the paper maps to one module here and one
//! subcommand of the `repro` binary:
//!
//! ```text
//! cargo run --release -p mis-bench --bin repro -- table2   # greedy ratio vs β (theory)
//! cargo run --release -p mis-bench --bin repro -- fig6     # one-k-swap ratio vs β (theory)
//! cargo run --release -p mis-bench --bin repro -- table4   # dataset characteristics
//! cargo run --release -p mis-bench --bin repro -- table5   # IS sizes, six algorithms
//! cargo run --release -p mis-bench --bin repro -- fig8     # ratios of the three algorithms
//! cargo run --release -p mis-bench --bin repro -- fig9     # two-k vs optimal bound
//! cargo run --release -p mis-bench --bin repro -- table6   # time and memory
//! cargo run --release -p mis-bench --bin repro -- table7   # rounds per algorithm
//! cargo run --release -p mis-bench --bin repro -- table8   # early-stop profile
//! cargo run --release -p mis-bench --bin repro -- table9   # greedy estimation accuracy
//! cargo run --release -p mis-bench --bin repro -- fig10    # |SC| / |V| vs β
//! cargo run --release -p mis-bench --bin repro -- io       # semi-external I/O accounting demo
//! cargo run --release -p mis-bench --bin repro -- pager    # scan-only vs paged swap rounds (+ BENCH_pager.json)
//! cargo run --release -p mis-bench --bin repro -- parallel # worker counts × storage codecs (+ BENCH_parallel.json)
//! cargo run --release -p mis-bench --bin repro -- churn    # incremental repair vs rebuild (+ BENCH_churn.json)
//! cargo run --release -p mis-bench --bin repro -- serve    # readers during tiered ingest (+ BENCH_serve.json)
//! cargo run --release -p mis-bench --bin repro -- cascade  # Figure 5 worst case, scaled
//! cargo run --release -p mis-bench --bin repro -- ablation # SwapConfig ablations
//! cargo run --release -p mis-bench --bin repro -- bounds   # Alg. 5 vs matching bound (extension)
//! cargo run --release -p mis-bench --bin repro -- compress # gap compression (+ BENCH_compress.json)
//! cargo run --release -p mis-bench --bin repro -- all
//! ```
//!
//! Scale control: `REPRO_SCALE` (float, default 1) multiplies the dataset
//! analogue sizes and the β-sweep vertex count. Absolute numbers scale
//! with `|V|`, so compare a run with the paper by its *shape*: who wins,
//! by what factor, and how the ratios move with β.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;

pub use harness::{AlgoRun, DatasetRun, SweepPoint};
