//! Append-only, checksummed performance ledger (`BENCH_history.jsonl`).
//!
//! The `BENCH_*.json` snapshots answer "what does this commit
//! measure?" but are overwritten in place, so the repo keeps no
//! *trajectory*: a regression that lands together with a baseline
//! refresh is invisible. The ledger fixes that the way a write-ahead
//! log would — every `repro` experiment and every
//! `mis run|stats|bound --record` invocation **appends** one
//! [`LedgerEntry`] line to a JSONL file that is never rewritten:
//!
//! ```json
//! {"ts_ms":…,"source":"mis run","label":"g.adj twok",
//!  "env":{"hardware_threads":8,"available_threads":8,"block_size":65536,
//!         "storage":"adj-file","git_rev":"abc1234"},
//!  "metrics":{"is_size":24791,"scans":13,"blocks_read":273,"wall_ms":41.2},
//!  "phases":{"open":512.0,"solve":39801.2},
//!  "verdicts":[["model",true]],"crc":"64-bit FNV-1a hex"}
//! ```
//!
//! * `env` is the [`EnvFingerprint`] that makes entries comparable:
//!   wall-clock metrics from different fingerprints must not be gated
//!   against each other (see [`crate::gate`]).
//! * `phases` is the per-phase wall-time breakdown ingested from a
//!   [`TraceReport`] via [`LedgerEntry::ingest_report`] — the ledger
//!   consumes the parsed report, never the rendered text.
//! * `crc` is a 64-bit FNV-1a over every byte of the line before the
//!   `,"crc"` suffix; [`Ledger::load`] refuses entries whose checksum
//!   does not match, so truncated or hand-edited history is detected
//!   rather than silently trusted (same recovery posture as the
//!   update WAL).
//!
//! The default path is `BENCH_history.jsonl` in the working
//! directory; the `BENCH_HISTORY_OUT` environment variable overrides
//! it (CI points smoke runs at scratch files this way).

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::report::{escape_json, parse_json, Json};
use crate::TraceReport;

/// Environment variable overriding the ledger path.
pub const HISTORY_ENV: &str = "BENCH_HISTORY_OUT";
/// Default ledger file name, resolved in the working directory.
pub const HISTORY_FILE: &str = "BENCH_history.jsonl";

/// 64-bit FNV-1a (the workspace's checksum of choice, shared with the
/// update WAL's record format).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The facts that make two measurements comparable.
///
/// Wall-clock metrics only mean something relative to the machine and
/// configuration that produced them; the fingerprint pins both, and
/// the regression gate ([`crate::gate`]) skips its wall-time checks
/// whenever two fingerprints disagree on the thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvFingerprint {
    /// Physical hardware threads (`/proc/cpuinfo`-backed).
    pub hardware_threads: u64,
    /// Threads the process may actually use (cgroup/affinity aware).
    pub available_threads: u64,
    /// Block size the measurement transferred in.
    pub block_size: u64,
    /// Storage format label (`"adj-file"` / `"adj-file-compressed"`,
    /// `"mixed"` for experiments that cover both).
    pub storage: String,
    /// Git revision the binary was built from, when the caller knows
    /// it (`--rev` on the CLI, `GITHUB_SHA` in CI).
    pub git_rev: Option<String>,
}

impl EnvFingerprint {
    /// Detects the thread counts of the running machine.
    pub fn detect(block_size: u64, storage: &str, git_rev: Option<String>) -> Self {
        let available = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        EnvFingerprint {
            hardware_threads: crate::clock::hardware_threads() as u64,
            available_threads: available,
            block_size,
            storage: storage.to_string(),
            git_rev,
        }
    }

    /// Whether wall-clock numbers from `other` are comparable to ours:
    /// same hardware thread count and same usable thread count.
    pub fn comparable(&self, other: &EnvFingerprint) -> bool {
        self.hardware_threads == other.hardware_threads
            && self.available_threads == other.available_threads
    }

    fn to_json(&self) -> String {
        let rev = match &self.git_rev {
            Some(r) => format!("\"{}\"", escape_json(r)),
            None => "null".to_string(),
        };
        format!(
            "{{\"hardware_threads\":{},\"available_threads\":{},\"block_size\":{},\
             \"storage\":\"{}\",\"git_rev\":{rev}}}",
            self.hardware_threads,
            self.available_threads,
            self.block_size,
            escape_json(&self.storage)
        )
    }

    fn from_json(v: &Json) -> Result<EnvFingerprint, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("env missing {key}"))
        };
        Ok(EnvFingerprint {
            hardware_threads: num("hardware_threads")?,
            available_threads: num("available_threads")?,
            block_size: num("block_size")?,
            storage: v
                .get("storage")
                .and_then(Json::as_str)
                .ok_or("env missing storage")?
                .to_string(),
            git_rev: v.get("git_rev").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// One appended measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Milliseconds since the Unix epoch at append time.
    pub ts_ms: u64,
    /// What produced the entry (`"repro compress"`, `"mis run"`, …).
    pub source: String,
    /// Free-form sub-label (the graph path, …).
    pub label: String,
    /// Environment fingerprint.
    pub env: EnvFingerprint,
    /// Result metrics, in insertion order (|IS|, rounds, scans,
    /// blocks/bytes read, wall ms, …).
    /// Non-finite values are dropped at serialization time.
    pub metrics: Vec<(String, f64)>,
    /// Per-phase wall time in microseconds, from the trace report.
    pub phases: Vec<(String, f64)>,
    /// Named pass/fail verdicts (cost-model conformance, assertions).
    pub verdicts: Vec<(String, bool)>,
}

impl LedgerEntry {
    /// Starts an entry for `source`/`label`, stamped now.
    pub fn new(source: &str, label: &str, env: EnvFingerprint) -> LedgerEntry {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        LedgerEntry {
            ts_ms,
            source: source.to_string(),
            label: label.to_string(),
            env,
            metrics: Vec::new(),
            phases: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    /// Appends one metric (chainable style not needed; call freely).
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records one named conformance verdict.
    pub fn verdict(&mut self, name: &str, pass: bool) {
        self.verdicts.push((name.to_string(), pass));
    }

    /// Ingests the per-phase breakdown from a parsed [`TraceReport`].
    pub fn ingest_report(&mut self, report: &TraceReport) {
        for p in &report.phases {
            self.phases.push((p.name.clone(), p.total_us));
        }
    }

    /// Serialises the entry as one checksummed JSONL line (no
    /// trailing newline).
    pub fn to_line(&self) -> String {
        let mut body = format!(
            "{{\"ts_ms\":{},\"source\":\"{}\",\"label\":\"{}\",\"env\":{}",
            self.ts_ms,
            escape_json(&self.source),
            escape_json(&self.label),
            self.env.to_json()
        );
        body.push_str(",\"metrics\":{");
        let mut first = true;
        for (k, v) in &self.metrics {
            if !v.is_finite() {
                continue;
            }
            if !first {
                body.push(',');
            }
            first = false;
            let _ = write!(body, "\"{}\":{}", escape_json(k), v);
        }
        body.push_str("},\"phases\":{");
        for (i, (k, v)) in self.phases.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(body, "\"{}\":{:.1}", escape_json(k), v);
        }
        body.push_str("},\"verdicts\":[");
        for (i, (k, pass)) in self.verdicts.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(body, "[\"{}\",{}]", escape_json(k), pass);
        }
        body.push(']');
        let crc = fnv1a(body.as_bytes());
        format!("{body},\"crc\":\"{crc:016x}\"}}")
    }

    /// Rebuilds an entry from a parsed, checksum-verified line.
    pub fn from_json(v: &Json) -> Result<LedgerEntry, String> {
        let pairs = |key: &str| -> Vec<(String, f64)> {
            match v.get(key) {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .filter_map(|(k, val)| val.as_f64().map(|n| (k.clone(), n)))
                    .collect(),
                _ => Vec::new(),
            }
        };
        let verdicts = match v.get("verdicts") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|item| match item {
                    Json::Arr(kv) if kv.len() == 2 => match (&kv[0], &kv[1]) {
                        (Json::Str(name), Json::Bool(pass)) => Some((name.clone(), *pass)),
                        _ => None,
                    },
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        Ok(LedgerEntry {
            ts_ms: v.get("ts_ms").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            source: v
                .get("source")
                .and_then(Json::as_str)
                .ok_or("entry missing source")?
                .to_string(),
            label: v
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            env: EnvFingerprint::from_json(v.get("env").ok_or("entry missing env")?)?,
            metrics: pairs("metrics"),
            phases: pairs("phases"),
            verdicts,
        })
    }

    /// Looks up one metric by name.
    pub fn get_metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// Verifies one ledger line's trailing checksum and parses it.
pub fn verify_line(line: &str) -> Result<Json, String> {
    let marker = ",\"crc\":\"";
    let idx = line.rfind(marker).ok_or("line has no crc field")?;
    let prefix = &line[..idx];
    let tail = &line[idx + marker.len()..];
    let hex = tail.strip_suffix("\"}").ok_or("malformed crc suffix")?;
    let stored = u64::from_str_radix(hex, 16).map_err(|e| format!("bad crc hex: {e}"))?;
    let computed = fnv1a(prefix.as_bytes());
    if stored != computed {
        return Err(format!(
            "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
        ));
    }
    parse_json(line)
}

/// Handle on an append-only ledger file.
#[derive(Debug, Clone)]
pub struct Ledger {
    path: PathBuf,
}

impl Ledger {
    /// A ledger at an explicit path.
    pub fn at<P: Into<PathBuf>>(path: P) -> Ledger {
        Ledger { path: path.into() }
    }

    /// The configured default path: `$BENCH_HISTORY_OUT` if set,
    /// otherwise [`HISTORY_FILE`] in the working directory.
    pub fn default_path() -> PathBuf {
        std::env::var_os(HISTORY_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(HISTORY_FILE))
    }

    /// A ledger at the default path.
    pub fn open_default() -> Ledger {
        Ledger::at(Ledger::default_path())
    }

    /// Where this ledger appends.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one entry as a single checksummed line. The file is
    /// opened in append mode per call, so concurrent processes
    /// interleave whole lines rather than corrupting each other.
    pub fn append(&self, entry: &LedgerEntry) -> io::Result<()> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let mut line = entry.to_line();
        line.push('\n');
        file.write_all(line.as_bytes())
    }

    /// Loads and verifies every entry. Fails with `InvalidData` on the
    /// first line whose checksum or shape is wrong, naming the line —
    /// a tampered or torn history should be investigated, not skipped.
    pub fn load(&self) -> io::Result<Vec<LedgerEntry>> {
        let text = std::fs::read_to_string(&self.path)?;
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let parsed = verify_line(line)
                .and_then(|v| LedgerEntry::from_json(&v))
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}:{}: {e}", self.path.display(), i + 1),
                    )
                })?;
            entries.push(parsed);
        }
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> LedgerEntry {
        let env = EnvFingerprint {
            hardware_threads: 8,
            available_threads: 4,
            block_size: 65_536,
            storage: "adj-file".into(),
            git_rev: Some("abc1234".into()),
        };
        let mut e = LedgerEntry::new("repro parallel", "plain par(4)", env);
        e.metric("is_size", 24_791.0);
        e.metric("wall_ms", 41.25);
        e.metric("nan_dropped", f64::NAN);
        e.phases.push(("solve".into(), 39_801.2));
        e.verdict("model", true);
        e
    }

    #[test]
    fn line_round_trips_through_verify_and_parse() {
        let e = sample_entry();
        let line = e.to_line();
        let v = verify_line(&line).expect("line verifies");
        let back = LedgerEntry::from_json(&v).expect("entry parses");
        assert_eq!(back.source, "repro parallel");
        assert_eq!(back.label, "plain par(4)");
        assert_eq!(back.env, e.env);
        assert_eq!(back.get_metric("is_size"), Some(24_791.0));
        assert_eq!(back.get_metric("wall_ms"), Some(41.25));
        assert_eq!(back.get_metric("nan_dropped"), None, "NaN dropped");
        assert_eq!(back.verdicts, vec![("model".to_string(), true)]);
        assert_eq!(back.phases.len(), 1);
    }

    #[test]
    fn tampered_line_is_rejected() {
        let line = sample_entry().to_line();
        // Flip one digit of a metric without touching the crc.
        let tampered = line.replacen("24791", "24792", 1);
        assert_ne!(line, tampered);
        let err = verify_line(&tampered).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(verify_line("{\"no\":\"crc\"}").is_err());
    }

    #[test]
    fn append_load_and_detect_midfile_corruption() {
        let dir = std::env::temp_dir().join(format!("mis-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        let _ = std::fs::remove_file(&path);
        let ledger = Ledger::at(&path);
        ledger.append(&sample_entry()).unwrap();
        let mut second = sample_entry();
        second.source = "mis run".into();
        ledger.append(&second).unwrap();
        let entries = ledger.load().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].source, "mis run");

        // Corrupt the first line: load must fail and name line 1.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("repro", "XXXXX", 1)).unwrap();
        let err = ledger.load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":1:"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn env_override_controls_default_path() {
        // Read-only check of the resolution logic (no env mutation:
        // tests run multi-threaded).
        match std::env::var(HISTORY_ENV) {
            Ok(v) => assert_eq!(Ledger::default_path(), PathBuf::from(v)),
            Err(_) => assert_eq!(Ledger::default_path(), PathBuf::from(HISTORY_FILE)),
        }
    }

    #[test]
    fn fingerprint_comparability_ignores_storage() {
        let a = sample_entry().env;
        let mut b = a.clone();
        b.storage = "adj-file-compressed".into();
        b.git_rev = None;
        assert!(a.comparable(&b));
        b.available_threads = 2;
        assert!(!a.comparable(&b));
    }
}
