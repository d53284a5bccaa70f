//! `--self-test`: every workload at tiny scale, untraced and traced.
//! Each run must pass its oracles, and its JSON result line must carry
//! every metric `BENCHMARK.json` names for that mode, with its unit.

use std::path::Path;
use std::process::Command;

use mis_obs::report::{parse_json, Json};

fn array<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: `{key}` is not an array")),
    }
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn named(doc: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    array(doc, key)?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{f}`"))
            };
            Ok((field("name")?, field("unit").unwrap_or_default()))
        })
        .collect()
}

/// Checks one run's stdout; returns the problems found.
fn check_run(stdout: &str, expected: &[(String, String)]) -> Vec<String> {
    let mut problems = Vec::new();
    let last = stdout.lines().last().unwrap_or_default();
    let result = match parse_json(last) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("last line is not JSON ({e}): {last}")],
    };
    if result.get("correct") != Some(&Json::Bool(true)) {
        problems.push("\"correct\" is not true".into());
    }
    if result.get("failed").and_then(Json::as_f64) != Some(0.0) {
        problems.push("\"failed\" is not 0".into());
    }
    if !result
        .get("attempted")
        .and_then(Json::as_f64)
        .is_some_and(|a| a >= 1.0)
    {
        problems.push("\"attempted\" is below 1".into());
    }
    let metrics = result.get("metrics");
    for (name, unit) in expected {
        let metric = metrics.and_then(|m| m.get(name));
        let value = metric.and_then(|m| m.get("value")).and_then(Json::as_f64);
        let got_unit = metric.and_then(|m| m.get("unit")).and_then(Json::as_str);
        if value.is_none() || got_unit != Some(unit.as_str()) {
            problems.push(format!("metric {name} [{unit}] missing or mislabelled"));
        }
    }
    let oracles = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("oracle pass"))
        .count();
    if oracles == 0 {
        problems.push("no oracle ran".into());
    }
    if stdout
        .lines()
        .any(|l| l.trim_start().starts_with("oracle FAIL"))
    {
        problems.push("an oracle failed".into());
    }
    problems
}

pub fn run(mis: &Path) -> Result<i32, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = named(&doc, "workloads")?;
    let modes = [
        ("0", named(&doc, "end_to_end")?),
        ("1", named(&doc, "per_layer")?),
    ];
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failures = 0;
    for (workload, _) in &workloads {
        for (trace, expected) in &modes {
            let output = Command::new(&exe)
                .arg("--mis")
                .arg(mis)
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--scale", "tiny"])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut problems = check_run(&stdout, expected);
            if !output.status.success() {
                problems.push(format!("exit status {}", output.status));
            }
            let verdict = if problems.is_empty() { "ok" } else { "FAILED" };
            println!("self-test {workload} --trace {trace}: {verdict}");
            for p in &problems {
                println!("    {p}");
            }
            if !problems.is_empty() {
                failures += 1;
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
            }
        }
    }
    println!(
        "self-test: {} of {} runs passed",
        workloads.len() * modes.len() - failures,
        workloads.len() * modes.len()
    );
    Ok(if failures == 0 { 0 } else { 1 })
}
