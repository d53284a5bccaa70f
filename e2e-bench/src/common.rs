//! Pieces shared by every workload: the report a run prints, sample
//! statistics, the seeded generator for client traffic, and the
//! in-memory output oracle.

use std::path::Path;
use std::time::Instant;

use mis_graph::{CsrGraph, VertexId};

/// Scan block size of every file the benchmark writes or opens (the
/// library default).
pub const BLOCK_SIZE: usize = mis_extmem::DEFAULT_BLOCK_SIZE;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (`None` for counts and derived values).
    pub samples: Option<usize>,
}

/// What one run produced: the metrics of its mode, the untraced
/// end-to-end numbers printed beside a traced run's layer numbers, the
/// operation accounting, and every oracle verdict.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub end_to_end: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: None,
        });
    }

    pub fn timing(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: Some(n),
        });
    }

    /// Records an oracle verdict; a failed check counts as one failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, pass: bool) {
        self.attempted += 1;
        if !pass {
            self.failed += 1;
        }
        self.checks.push((name.into(), pass));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, pass)| *pass)
    }
}

/// The end-to-end metrics every workload reports; `proved_ms` holds one
/// sample per proved set (a solve, or a committed epoch). A run holds
/// ~10 solves, too few for a tail percentile with ten samples beyond
/// it, so the tail is the serve workload's per-layer `serve.commit_p90_ms`.
pub fn end_to_end(
    setup_s: &[f64],
    is_size: usize,
    peak_rss_mb: f64,
    read_mb: f64,
    proved_ms: &[f64],
) -> Vec<Metric> {
    let n = Some(proved_ms.len());
    let metric = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    vec![
        metric("setup_s", median(setup_s), "s", Some(setup_s.len())),
        metric("is_size", is_size as f64, "count", None),
        metric("peak_rss_mb", peak_rss_mb, "MB", None),
        metric("read_mb", read_mb, "MB", n),
        metric("proved_set_p50_ms", median(proved_ms), "ms", n),
    ]
}

/// Linear-interpolated quantile of unsorted samples (`NaN`-free input).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` `reps` times and returns the median wall time in ms.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t)
        })
        .collect();
    median(&samples)
}

/// SplitMix64: the client's deterministic traffic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e4b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Order-sensitive fingerprint of an ascending vertex set.
pub fn set_hash(set: &[VertexId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in set {
        h = (h ^ u64::from(v)).wrapping_mul(0x100_0000_01b3);
    }
    h ^ set.len() as u64
}

/// Peak resident set of process `pid` in MB (`VmHWM`), if readable.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The output oracle: whether `set` is an independent and maximal set of
/// the in-memory `graph`.
pub fn is_mis(graph: &CsrGraph, set: &[VertexId]) -> (bool, bool) {
    let n = graph.num_vertices();
    let mut member = vec![false; n];
    for &v in set {
        match member.get_mut(v as usize) {
            Some(m) => *m = true,
            None => return (false, false),
        }
    }
    let (mut independent, mut maximal) = (true, true);
    for v in graph.vertices() {
        let touches = graph.neighbors(v).iter().any(|&u| member[u as usize]);
        if member[v as usize] && touches {
            independent = false;
        }
        if !member[v as usize] && !touches {
            maximal = false;
        }
    }
    (independent, maximal)
}

/// Writes `set` as little-endian `u32`s.
pub fn save_set(path: &Path, set: &[VertexId]) -> std::io::Result<()> {
    let bytes: Vec<u8> = set.iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(path, bytes)
}

pub fn load_set(path: &Path) -> std::io::Result<Vec<VertexId>> {
    let bytes = std::fs::read(path)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| VertexId::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}
