//! Noise-aware regression gate over `BENCH_*.json` snapshots.
//!
//! `mis bench diff` and `mis bench check` are built on two functions:
//! [`diff_snapshots`] walks two parsed snapshots and lists every
//! numeric leaf side by side; [`check_snapshots`] turns the same walk
//! into a verdict by classifying each leaf from its key name:
//!
//! * **exact** — anything not matched below: |IS| sizes, rounds,
//!   `file_scans`/`scans`, `blocks_read`, `bytes_read`, cache
//!   hit/miss/eviction counts and the hit rates they make, … These are
//!   deterministic functions of the seeded graph and the pass
//!   structure, so *any* difference fails the gate (a legitimate
//!   improvement fails too — that is the cue to re-commit the baseline
//!   deliberately). Strings and booleans are compared the same way.
//! * **wall** (higher is worse) — keys ending `_ms`/`_us`/`_ns`. Gated
//!   by a relative tolerance of 50% plus an absolute floor of 10 in the
//!   leaf's own unit, so millisecond-scale jitter cannot fail a build.
//!
//! Wall gates are only meaningful when both snapshots come from
//! comparable environments, so they are **skipped automatically** when
//! the fingerprints in the snapshot headers
//! (`hardware_threads`/`available_threads`) differ or are absent.
//! Exact gates are always enforced: blocks and scans do not depend on
//! the machine.
//!
//! The two thread counts *identify* the environment rather than measure
//! the run, so they are excluded from gating entirely.

use crate::report::Json;

/// Keys that describe the environment, not the measurement.
const EXCLUDED: &[&str] = &["hardware_threads", "available_threads"];

fn is_excluded(key: &str) -> bool {
    EXCLUDED.contains(&key)
}

fn is_wall_key(key: &str) -> bool {
    key.ends_with("_ms") || key.ends_with("_us") || key.ends_with("_ns")
}

/// Allowed relative drift of a wall leaf (0.5 = 50%).
const WALL_TOLERANCE: f64 = 0.5;

/// Absolute slack added on top of the relative band, in the leaf's own
/// unit — keeps millisecond-scale runs from failing on scheduler jitter.
const WALL_FLOOR: f64 = 10.0;

/// One leaf of the side-by-side diff.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Dotted path of the leaf (`sides[3].blocks_read`).
    pub path: String,
    /// Baseline value (`None` when the leaf is new).
    pub base: Option<f64>,
    /// Current value (`None` when the leaf disappeared).
    pub current: Option<f64>,
}

impl MetricDelta {
    /// Relative change current/base − 1, when both sides exist and
    /// the base is non-zero.
    pub fn rel_change(&self) -> Option<f64> {
        match (self.base, self.current) {
            (Some(b), Some(c)) if b != 0.0 => Some(c / b - 1.0),
            _ => None,
        }
    }
}

/// What [`check_snapshots`] concluded.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Violations, one human-readable line each. Empty = pass.
    pub violations: Vec<String>,
    /// Whether wall gates were enforced (fingerprints comparable) or
    /// skipped.
    pub wall_gated: bool,
    /// Leaves compared under the exact gate.
    pub exact_compared: usize,
    /// Wall leaves gated (0 when skipped).
    pub wall_compared: usize,
}

impl GateOutcome {
    /// Whether the gate passed.
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Depth-first walk collecting every scalar leaf as (path, last key,
/// value).
fn leaves<'a>(v: &'a Json, path: &str, key: &str, out: &mut Vec<(String, String, &'a Json)>) {
    match v {
        Json::Obj(fields) => {
            for (k, val) in fields {
                leaves(val, &join(path, k), k, out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                leaves(item, &format!("{path}[{i}]"), key, out);
            }
        }
        _ => out.push((path.to_string(), key.to_string(), v)),
    }
}

/// Finds the first object carrying both thread-count fingerprint keys
/// and returns them.
fn fingerprint_of(v: &Json) -> Option<(u64, u64)> {
    match v {
        Json::Obj(fields) => {
            let hw = v.get("hardware_threads").and_then(Json::as_f64);
            let avail = v.get("available_threads").and_then(Json::as_f64);
            if let (Some(h), Some(a)) = (hw, avail) {
                return Some((h as u64, a as u64));
            }
            fields.iter().find_map(|(_, val)| fingerprint_of(val))
        }
        Json::Arr(items) => items.iter().find_map(fingerprint_of),
        _ => None,
    }
}

/// Lists every numeric leaf of both snapshots side by side, in the
/// baseline's order, with current-only leaves appended.
pub fn diff_snapshots(base: &Json, current: &Json) -> Vec<MetricDelta> {
    let mut base_leaves = Vec::new();
    leaves(base, "", "", &mut base_leaves);
    let mut cur_leaves = Vec::new();
    leaves(current, "", "", &mut cur_leaves);
    let cur_map: Vec<(&String, &Json)> = cur_leaves.iter().map(|(p, _, v)| (p, *v)).collect();
    let find_cur = |path: &String| cur_map.iter().find(|(p, _)| *p == path).map(|&(_, v)| v);

    let mut out = Vec::new();
    for (path, _, v) in &base_leaves {
        let (Some(b), cur) = (v.as_f64(), find_cur(path).and_then(Json::as_f64)) else {
            continue;
        };
        out.push(MetricDelta {
            path: path.clone(),
            base: Some(b),
            current: cur,
        });
    }
    for (path, _, v) in &cur_leaves {
        if let Some(c) = v.as_f64() {
            if !base_leaves.iter().any(|(p, _, _)| p == path) {
                out.push(MetricDelta {
                    path: path.clone(),
                    base: None,
                    current: Some(c),
                });
            }
        }
    }
    out
}

fn nearly_equal(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Gates `current` against `base` per the module-doc classification.
pub fn check_snapshots(base: &Json, current: &Json) -> GateOutcome {
    let wall_gated = match (fingerprint_of(base), fingerprint_of(current)) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    };
    let mut outcome = GateOutcome {
        violations: Vec::new(),
        wall_gated,
        exact_compared: 0,
        wall_compared: 0,
    };

    let mut base_leaves = Vec::new();
    leaves(base, "", "", &mut base_leaves);
    let mut cur_leaves = Vec::new();
    leaves(current, "", "", &mut cur_leaves);

    for (path, key, bval) in &base_leaves {
        if is_excluded(key) {
            continue;
        }
        let cval = cur_leaves
            .iter()
            .find(|(p, _, _)| p == path)
            .map(|(_, _, v)| *v);
        let Some(cval) = cval else {
            outcome
                .violations
                .push(format!("{path}: present in baseline, missing in current"));
            continue;
        };
        match (bval, cval) {
            (Json::Num(b), Json::Num(c)) => {
                let (b, c) = (*b, *c);
                if is_wall_key(key) {
                    if !wall_gated {
                        continue;
                    }
                    outcome.wall_compared += 1;
                    let limit = b * (1.0 + WALL_TOLERANCE) + WALL_FLOOR;
                    if c > limit {
                        outcome.violations.push(format!(
                            "{path}: {c} exceeds baseline {b} (limit {limit:.2}, \
                             +{:.0}% + {WALL_FLOOR})",
                            WALL_TOLERANCE * 100.0
                        ));
                    }
                } else {
                    outcome.exact_compared += 1;
                    if !nearly_equal(b, c) {
                        outcome.violations.push(format!(
                            "{path}: {c} != baseline {b} (deterministic metric; \
                             re-commit the baseline if the change is intended)"
                        ));
                    }
                }
            }
            (Json::Str(b), Json::Str(c)) => {
                outcome.exact_compared += 1;
                if b != c {
                    outcome
                        .violations
                        .push(format!("{path}: \"{c}\" != baseline \"{b}\""));
                }
            }
            (Json::Bool(b), Json::Bool(c)) => {
                outcome.exact_compared += 1;
                if b != c {
                    outcome
                        .violations
                        .push(format!("{path}: {c} != baseline {b}"));
                }
            }
            (Json::Null, Json::Null) => {}
            _ => outcome
                .violations
                .push(format!("{path}: type changed from baseline")),
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::parse_json;

    /// A `BENCH_pager.json`-shaped snapshot: a fingerprint, exact I/O
    /// counts and hit rates, wall leaves, and a string and a bool.
    const BASE: &str = r#"{
        "experiment": "pager", "block_size": 65536,
        "hardware_threads": 8, "available_threads": 8,
        "scan_only": {"is_size": 70208, "file_scans": 8, "blocks_read": 281,
                      "cache_hit_rate": 0.0, "wall_ms": 64.0},
        "paged": {"is_size": 70208, "paged_rounds": 3, "file_scans": 5, "blocks_read": 238,
                  "cache_hit_rate": 0.9996, "wall_ms": 22.0,
                  "model": {"storage": "adj-file", "pass": true}},
        "blocks_saved": 43
    }"#;

    fn base() -> Json {
        parse_json(BASE).unwrap()
    }

    fn with(base: &str, from: &str, to: &str) -> Json {
        assert!(base.contains(from), "fixture lacks `{from}`");
        parse_json(&base.replacen(from, to, 1)).unwrap()
    }

    #[test]
    fn identical_snapshots_pass() {
        let out = check_snapshots(&base(), &base());
        assert!(out.pass(), "{:?}", out.violations);
        assert!(out.wall_gated);
        assert_eq!(out.exact_compared, 14);
        assert_eq!(out.wall_compared, 2);
    }

    #[test]
    fn io_count_regression_fails_exactly() {
        let cur = with(BASE, "\"blocks_read\": 281", "\"blocks_read\": 290");
        let out = check_snapshots(&base(), &cur);
        assert!(!out.pass());
        assert!(
            out.violations[0].contains("scan_only.blocks_read"),
            "{:?}",
            out.violations
        );
        // Even a one-block *improvement* fails: deterministic metrics
        // must match the committed baseline bit for bit.
        let cur = with(BASE, "\"blocks_read\": 281", "\"blocks_read\": 280");
        assert!(!check_snapshots(&base(), &cur).pass());
    }

    #[test]
    fn wall_regression_fails_only_beyond_tolerance_plus_floor() {
        // 64ms -> 90ms: within 64*1.5+10 = 106 — noise, passes.
        let cur = with(BASE, "\"wall_ms\": 64.0", "\"wall_ms\": 90.0");
        assert!(check_snapshots(&base(), &cur).pass());
        // A faster run is never a wall violation.
        let cur = with(BASE, "\"wall_ms\": 64.0", "\"wall_ms\": 5.0");
        assert!(check_snapshots(&base(), &cur).pass());
        // 64ms -> 120ms: beyond the band — fails.
        let cur = with(BASE, "\"wall_ms\": 64.0", "\"wall_ms\": 120.0");
        let out = check_snapshots(&base(), &cur);
        assert!(!out.pass());
        assert!(out.violations[0].contains("scan_only.wall_ms"));
    }

    #[test]
    fn wall_gates_skip_on_fingerprint_mismatch() {
        // Same 64→120ms regression, but measured on a different box.
        let cur = with(
            &BASE.replace("\"wall_ms\": 64.0", "\"wall_ms\": 120.0"),
            "\"hardware_threads\": 8",
            "\"hardware_threads\": 4",
        );
        let out = check_snapshots(&base(), &cur);
        assert!(out.pass(), "{:?}", out.violations);
        assert!(!out.wall_gated);
        assert_eq!(out.wall_compared, 0);
        // …but an I/O regression still fails on that same box.
        let cur = with(
            &BASE.replace("\"hardware_threads\": 8", "\"hardware_threads\": 4"),
            "\"blocks_read\": 281",
            "\"blocks_read\": 300",
        );
        let out = check_snapshots(&base(), &cur);
        assert!(!out.pass());
    }

    #[test]
    fn quality_drop_and_missing_metric_fail() {
        // A hit rate is the ratio of exact hit and miss counts, so any
        // change fails, up or down, on any box.
        let elsewhere = BASE.replace("\"hardware_threads\": 8", "\"hardware_threads\": 4");
        for changed in ["0.0", "0.9995", "0.9997"] {
            let to = format!("\"cache_hit_rate\": {changed}");
            let cur = with(BASE, "\"cache_hit_rate\": 0.9996", &to);
            let out = check_snapshots(&base(), &cur);
            assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
            assert!(out.violations[0].contains("paged.cache_hit_rate"));
            let cur = with(&elsewhere, "\"cache_hit_rate\": 0.9996", &to);
            assert!(!check_snapshots(&base(), &cur).pass());
        }

        let cur = with(BASE, "\"pass\": true", "\"pass\": false");
        assert!(!check_snapshots(&base(), &cur).pass());

        let cur = with(BASE, ",\n        \"blocks_saved\": 43", "");
        let out = check_snapshots(&base(), &cur);
        assert!(!out.pass());
        assert!(out.violations[0].contains("missing"));
    }

    #[test]
    fn diff_lists_numeric_leaves_with_changes() {
        let cur = with(BASE, "\"blocks_saved\": 43", "\"blocks_saved\": 40");
        let deltas = diff_snapshots(&base(), &cur);
        let saved = deltas.iter().find(|d| d.path == "blocks_saved").unwrap();
        assert_eq!(saved.base, Some(43.0));
        assert_eq!(saved.current, Some(40.0));
        assert!((saved.rel_change().unwrap() - (40.0 / 43.0 - 1.0)).abs() < 1e-12);
        assert!(deltas.iter().any(|d| d.path == "paged.wall_ms"));
    }
}
