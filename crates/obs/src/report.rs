//! Trace ingestion and aggregation: per-phase, per-step and per-pass
//! breakdowns.
//!
//! A [`TraceReport`] is built by parsing a trace's JSONL: a saved file
//! ([`TraceReport::load`] — used by `mis trace report`, which thereby
//! also validates that the file on disk is well-formed, one JSON object
//! per line) or an in-memory [`Trace`] rendered the same way
//! ([`TraceReport::from_trace`] — used by the `repro` harness to enrich
//! its rows).
//!
//! The aggregation understands the naming conventions documented at the
//! crate root: cat `"phase"` spans form the phase breakdown and the
//! coverage figure, cat `"pass"` spans (one per accounted scan) the pass
//! breakdown, and the spans of every other category the step breakdown.
//! When the trace carries the `io/scans_started` counter that a traced
//! command emits at its end, the report sets the pass spans against it
//! ([`TraceReport::pass_spans_and_io_scans`]).

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::trace::Trace;

/// Tolerance when checking span nesting, in microseconds. Timestamps
/// are exported with nanosecond precision, so 5ns absorbs rounding.
const NEST_EPS_US: f64 = 0.005;

// ---------------------------------------------------------------------
// Minimal JSON value + parser (the workspace deliberately has no serde).
// ---------------------------------------------------------------------

/// A parsed JSON value; only what the trace schema needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy a run of plain bytes in one go.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8 in string"))?,
                    );
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses one complete JSON document (trailing whitespace allowed).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after JSON value"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// Normalised events (the common input of both ingestion paths).
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct PEvent {
    cat: String,
    name: String,
    tid: u64,
    ts_us: f64,
    kind: PKind,
}

#[derive(Debug, Clone)]
enum PKind {
    Span { dur_us: f64 },
    Counter { value: f64 },
    Instant,
    Hist(HistSummary),
}

fn event_from_json(line_no: usize, v: &Json) -> Result<PEvent, String> {
    let ctx = |msg: &str| format!("line {line_no}: {msg}");
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ctx("missing \"name\""))?
        .to_string();
    let cat = v
        .get("cat")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let ph = v
        .get("ph")
        .and_then(Json::as_str)
        .ok_or_else(|| ctx("missing \"ph\""))?;
    let tid = v.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let ts_us = v.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
    let kind = match ph {
        "X" => PKind::Span {
            dur_us: v
                .get("dur")
                .and_then(Json::as_f64)
                .ok_or_else(|| ctx("span without \"dur\""))?,
        },
        "C" => PKind::Counter {
            value: v
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| ctx("counter without args.value"))?,
        },
        "i" => {
            let args = v.get("args");
            let is_hist = args
                .and_then(|a| a.get("kind"))
                .and_then(Json::as_str)
                .map(|k| k == "histogram")
                .unwrap_or(false);
            if is_hist {
                let args = args.expect("checked above");
                let num = |key: &str| args.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                PKind::Hist(HistSummary {
                    cat: cat.clone(),
                    name: name.clone(),
                    count: num("count") as u64,
                    mean_ns: num("mean_ns"),
                    p50_ns: num("p50_ns") as u64,
                    p99_ns: num("p99_ns") as u64,
                    max_ns: num("max_ns") as u64,
                })
            } else {
                PKind::Instant
            }
        }
        // Metadata (a thread's name) carries no timing.
        "M" => PKind::Instant,
        other => return Err(ctx(&format!("unknown phase \"{other}\""))),
    };
    Ok(PEvent {
        cat,
        name,
        tid,
        ts_us,
        kind,
    })
}

// ---------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------

/// Wall-time total of one named phase (cat `"phase"` spans) or step.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseAgg {
    /// Phase or step name (`open`, `solve`, `twok.pre`, …).
    pub name: String,
    /// Summed duration of the phase's spans, microseconds.
    pub total_us: f64,
    /// Number of spans folded into `total_us`.
    pub count: u64,
}

/// Summary of one latency histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Category.
    pub cat: String,
    /// Histogram name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Exact mean, nanoseconds.
    pub mean_ns: f64,
    /// Median (octave-precise), nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile (octave-precise), nanoseconds.
    pub p99_ns: u64,
    /// Largest sample, nanoseconds.
    pub max_ns: u64,
}

/// Summary of one counter series.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterAgg {
    /// Category.
    pub cat: String,
    /// Series name.
    pub name: String,
    /// Number of samples.
    pub samples: u64,
    /// The last sampled value.
    pub last: f64,
    /// The largest sampled value.
    pub max: f64,
}

/// Everything `mis trace report` prints, as data.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Total events ingested.
    pub num_events: usize,
    /// Span events among them.
    pub num_spans: usize,
    /// Trace extent: last span end − first span start, microseconds.
    pub wall_us: f64,
    /// Per-phase wall-time totals (cat `"phase"`), first-seen order.
    pub phases: Vec<PhaseAgg>,
    /// Per-step wall-time totals: the spans of every category other
    /// than `"phase"` and `"pass"` (an algorithm's or the server's
    /// named steps, nested inside the phases), first-seen order.
    pub steps: Vec<PhaseAgg>,
    /// Per-pass wall-time totals: the cat `"pass"` spans, one per
    /// accounted scan, by pass name, first-seen order.
    pub passes: Vec<PhaseAgg>,
    /// Latency histogram summaries.
    pub hists: Vec<HistSummary>,
    /// Counter series summaries.
    pub counters: Vec<CounterAgg>,
    /// Span-nesting violations found per thread (empty = well nested).
    pub nesting_violations: Vec<String>,
}

impl TraceReport {
    /// Builds the report from an in-memory trace, through the same
    /// JSONL a saved trace holds, so both paths read one event mapping.
    pub fn from_trace(trace: &Trace) -> TraceReport {
        let mut jsonl = Vec::new();
        trace
            .write_chrome_jsonl(&mut jsonl)
            .expect("vec write cannot fail");
        let text = String::from_utf8(jsonl).expect("trace JSONL is UTF-8");
        Self::from_jsonl_str(&text).expect("a rendered trace parses")
    }

    /// Parses JSONL text (one Chrome trace event per line). Errors name
    /// the offending line.
    pub fn from_jsonl_str(text: &str) -> Result<TraceReport, String> {
        let mut events = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let value = parse_json(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
            events.push(event_from_json(idx + 1, &value)?);
        }
        Ok(build(events))
    }

    /// Reads and aggregates a saved trace file.
    pub fn load(path: &Path) -> io::Result<TraceReport> {
        let text = std::fs::read_to_string(path)?;
        // The message names only the line — callers prefix the path, the
        // same as for the read error above.
        Self::from_jsonl_str(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Fraction of the trace's wall extent attributed to cat `"phase"`
    /// spans (0 when the trace is empty).
    pub fn phase_coverage(&self) -> f64 {
        if self.wall_us > 0.0 {
            let total: f64 = self.phases.iter().map(|p| p.total_us).sum();
            (total / self.wall_us).min(1.0)
        } else {
            0.0
        }
    }

    /// Whether every thread's spans nest properly.
    pub fn nesting_ok(&self) -> bool {
        self.nesting_violations.is_empty()
    }

    /// The number of `"pass"` spans and the last `io/scans_started`
    /// counter sample, when the trace carries that counter. Every
    /// accounted scan runs in one pass span, so the two should be equal.
    pub fn pass_spans_and_io_scans(&self) -> Option<(u64, u64)> {
        let scans = self
            .counters
            .iter()
            .find(|c| c.cat == "io" && c.name == "scans_started")?;
        let passes = self.passes.iter().map(|p| p.count).sum();
        Some((passes, scans.last as u64))
    }

    /// The human-readable report `mis trace report` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events, {} spans, wall {}",
            self.num_events,
            self.num_spans,
            fmt_us(self.wall_us)
        );
        let width = self
            .phases
            .iter()
            .chain(&self.steps)
            .chain(&self.passes)
            .map(|p| p.name.len())
            .fold(12, usize::max);
        let agg_line = |out: &mut String, p: &PhaseAgg| {
            let pct = if self.wall_us > 0.0 {
                100.0 * p.total_us / self.wall_us
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<width$} {:>12}  {:>5.1}%  x{}",
                p.name,
                fmt_us(p.total_us),
                pct,
                p.count
            );
        };
        if !self.phases.is_empty() {
            let _ = writeln!(out, "\nphase breakdown:");
            for p in &self.phases {
                agg_line(&mut out, p);
            }
            let _ = writeln!(
                out,
                "  coverage: {:.1}% of wall attributed to phases",
                100.0 * self.phase_coverage()
            );
        }
        for (title, aggs) in [("step", &self.steps), ("pass", &self.passes)] {
            if !aggs.is_empty() {
                let _ = writeln!(out, "\n{title} breakdown:");
                for p in aggs {
                    agg_line(&mut out, p);
                }
            }
        }
        if let Some((passes, scans)) = self.pass_spans_and_io_scans() {
            let mark = if passes == scans { "" } else { "  (differ)" };
            let _ = writeln!(out, "\npass spans = {passes}, io scans = {scans}{mark}");
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out, "\nlatency histograms:");
            for h in &self.hists {
                let _ = writeln!(
                    out,
                    "  {}/{:<14} count {:>8}  mean {:>10}  p50 {:>10}  p99 {:>10}  max {:>10}",
                    h.cat,
                    h.name,
                    h.count,
                    fmt_us(h.mean_ns / 1e3),
                    fmt_us(h.p50_ns as f64 / 1e3),
                    fmt_us(h.p99_ns as f64 / 1e3),
                    fmt_us(h.max_ns as f64 / 1e3)
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for c in &self.counters {
                let _ = writeln!(
                    out,
                    "  {}/{:<14} samples {:>6}  last {:>10.2}  max {:>10.2}",
                    c.cat, c.name, c.samples, c.last, c.max
                );
            }
        }
        if !self.nesting_violations.is_empty() {
            let _ = writeln!(out, "\nWARNING: span nesting violations:");
            for v in &self.nesting_violations {
                let _ = writeln!(out, "  {v}");
            }
        }
        out
    }

    /// The report as one machine-readable JSON object — what
    /// `mis trace report --json` prints, for tools that would otherwise
    /// re-parse the rendered text. The output round-trips through
    /// [`parse_json`].
    pub fn render_json(&self) -> String {
        fn num(v: f64) -> f64 {
            if v.is_finite() {
                v
            } else {
                0.0
            }
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"num_events\":{},\"num_spans\":{},\"wall_us\":{},\"phase_coverage\":{}",
            self.num_events,
            self.num_spans,
            num(self.wall_us),
            num(self.phase_coverage())
        );
        for (key, aggs) in [
            ("phases", &self.phases),
            ("steps", &self.steps),
            ("passes", &self.passes),
        ] {
            let _ = write!(out, ",\"{key}\":[");
            for (i, p) in aggs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"total_us\":{},\"count\":{}}}",
                    escape_json(&p.name),
                    num(p.total_us),
                    p.count
                );
            }
            out.push(']');
        }
        out.push_str(",\"hists\":[");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"cat\":\"{}\",\"name\":\"{}\",\"count\":{},\"mean_ns\":{},\
                 \"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                escape_json(&h.cat),
                escape_json(&h.name),
                h.count,
                num(h.mean_ns),
                h.p50_ns,
                h.p99_ns,
                h.max_ns
            );
        }
        out.push_str("],\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"cat\":\"{}\",\"name\":\"{}\",\"samples\":{},\"last\":{},\"max\":{}}}",
                escape_json(&c.cat),
                escape_json(&c.name),
                c.samples,
                num(c.last),
                num(c.max)
            );
        }
        out.push(']');
        if let Some((passes, scans)) = self.pass_spans_and_io_scans() {
            let _ = write!(out, ",\"pass_spans\":{passes},\"io_scans\":{scans}");
        }
        let _ = write!(out, ",\"nesting_ok\":{},", self.nesting_ok());
        out.push_str("\"nesting_violations\":[");
        for (i, v) in self.nesting_violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", escape_json(v));
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping for the writers in this crate.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{us:.1} us")
    }
}

fn build(events: Vec<PEvent>) -> TraceReport {
    let mut report = TraceReport {
        num_events: events.len(),
        ..TraceReport::default()
    };

    let mut min_start = f64::INFINITY;
    let mut max_end = f64::NEG_INFINITY;

    for e in &events {
        match &e.kind {
            PKind::Span { dur_us } => {
                report.num_spans += 1;
                min_start = min_start.min(e.ts_us);
                max_end = max_end.max(e.ts_us + dur_us);
                let aggs = match e.cat.as_str() {
                    "phase" => &mut report.phases,
                    "pass" => &mut report.passes,
                    _ => &mut report.steps,
                };
                match aggs.iter_mut().find(|p| p.name == e.name) {
                    Some(p) => {
                        p.total_us += dur_us;
                        p.count += 1;
                    }
                    None => aggs.push(PhaseAgg {
                        name: e.name.clone(),
                        total_us: *dur_us,
                        count: 1,
                    }),
                }
            }
            PKind::Counter { value } => {
                match report
                    .counters
                    .iter_mut()
                    .find(|c| c.cat == e.cat && c.name == e.name)
                {
                    Some(c) => {
                        c.samples += 1;
                        c.last = *value;
                        c.max = c.max.max(*value);
                    }
                    None => report.counters.push(CounterAgg {
                        cat: e.cat.clone(),
                        name: e.name.clone(),
                        samples: 1,
                        last: *value,
                        max: *value,
                    }),
                }
            }
            PKind::Instant => {}
            PKind::Hist(h) => report.hists.push(h.clone()),
        }
    }
    if report.num_spans > 0 {
        report.wall_us = (max_end - min_start).max(0.0);
    }

    report.nesting_violations = check_nesting(&events);
    report
}

/// Spans on one thread must nest: two spans either don't overlap or one
/// contains the other. Returns a description of each violation.
fn check_nesting(events: &[PEvent]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut tids: Vec<u64> = events
        .iter()
        .filter(|e| matches!(e.kind, PKind::Span { .. }))
        .map(|e| e.tid)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let mut spans: Vec<(&str, f64, f64)> = events
            .iter()
            .filter(|e| e.tid == tid)
            .filter_map(|e| match e.kind {
                PKind::Span { dur_us } => Some((e.name.as_str(), e.ts_us, e.ts_us + dur_us)),
                _ => None,
            })
            .collect();
        // Ascending start; ties: longer (outer) span first.
        spans.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
        });
        let mut stack: Vec<(&str, f64)> = Vec::new(); // (name, end)
        for (name, start, end) in spans {
            while let Some(&(_, top_end)) = stack.last() {
                if top_end <= start + NEST_EPS_US {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(top_name, top_end)) = stack.last() {
                if end > top_end + NEST_EPS_US {
                    violations.push(format!(
                        "tid {tid}: span '{name}' [{start:.3}, {end:.3}]us crosses \
                         enclosing '{top_name}' ending at {top_end:.3}us"
                    ));
                    continue;
                }
            }
            stack.push((name, end));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Event, EventKind, HistEntry};
    use crate::LogHistogram;

    fn span(cat: &'static str, name: &'static str, tid: u64, ts_ns: u64, dur_ns: u64) -> Event {
        Event {
            cat,
            name,
            tid,
            ts_ns,
            kind: EventKind::Span { dur_ns },
        }
    }

    fn sample_trace() -> Trace {
        let mut fetch = LogHistogram::new();
        fetch.record(1_000);
        fetch.record(2_000);
        Trace {
            events: vec![
                span("phase", "open", 1, 0, 1_000_000),
                span("phase", "solve", 1, 1_000_000, 9_000_000),
                span("pass", "greedy", 1, 1_100_000, 2_000_000),
                span("pass", "proof", 1, 3_200_000, 1_500_000),
                span("pass", "proof", 1, 5_000_000, 500_000),
                span("serve", "serve.flush", 2, 1_200_000, 500_000),
                Event {
                    cat: "serve",
                    name: "serve.pending",
                    tid: 1,
                    ts_ns: 1_150_000,
                    kind: EventKind::Counter { value: 3.0 },
                },
                Event {
                    cat: "graph",
                    name: "graph.open",
                    tid: 1,
                    ts_ns: 0,
                    kind: EventKind::Instant,
                },
            ],
            hists: vec![HistEntry {
                cat: "pager",
                name: "pager.fetch",
                hist: fetch,
            }],
        }
    }

    #[test]
    fn from_trace_aggregates_phases_passes_and_counters() {
        let report = TraceReport::from_trace(&sample_trace());
        assert_eq!(report.num_spans, 6);
        assert!(
            (report.wall_us - 10_000.0).abs() < 1e-6,
            "{}",
            report.wall_us
        );
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].name, "open");
        assert_eq!(report.phases[1].name, "solve");
        assert!((report.phases[1].total_us - 9_000.0).abs() < 1e-6);
        // open + solve cover the whole extent.
        assert!((report.phase_coverage() - 1.0).abs() < 1e-9);
        // Pass spans total by name, apart from the steps.
        let passes: Vec<(&str, f64, u64)> = report
            .passes
            .iter()
            .map(|p| (p.name.as_str(), p.total_us, p.count))
            .collect();
        assert_eq!(passes, [("greedy", 2_000.0, 1), ("proof", 2_000.0, 2)]);
        assert_eq!(report.steps.len(), 1);
        assert_eq!(report.steps[0].name, "serve.flush");
        assert_eq!(report.counters.len(), 1);
        assert_eq!(report.counters[0].samples, 1);
        assert_eq!(report.hists.len(), 1);
        assert_eq!(report.hists[0].count, 2);
        assert!(report.nesting_ok(), "{:?}", report.nesting_violations);
        let rendered = report.render();
        assert!(rendered.contains("phase breakdown"));
        assert!(rendered.contains("pass breakdown"));
        assert!(rendered.contains("pager.fetch"));
    }

    #[test]
    fn jsonl_round_trip_matches_in_memory_report() {
        let trace = sample_trace();
        let direct = TraceReport::from_trace(&trace);
        let mut jsonl = Vec::new();
        trace.write_chrome_jsonl(&mut jsonl).unwrap();
        let parsed = TraceReport::from_jsonl_str(std::str::from_utf8(&jsonl).unwrap()).unwrap();
        assert_eq!(parsed.num_events, direct.num_events);
        assert_eq!(parsed.num_spans, direct.num_spans);
        assert!((parsed.wall_us - direct.wall_us).abs() < 1e-3);
        assert_eq!(parsed.phases.len(), direct.phases.len());
        assert_eq!(parsed.passes.len(), direct.passes.len());
        assert_eq!(parsed.hists, direct.hists);
        assert!(parsed.nesting_ok());
    }

    #[test]
    fn malformed_jsonl_is_an_error_naming_the_line() {
        let text = "{\"name\":\"a\",\"cat\":\"t\",\"ph\":\"i\",\"tid\":1,\"ts\":0}\nnot json\n";
        let err = TraceReport::from_jsonl_str(text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let missing_dur = "{\"name\":\"a\",\"cat\":\"t\",\"ph\":\"X\",\"tid\":1,\"ts\":0}\n";
        let err = TraceReport::from_jsonl_str(missing_dur).unwrap_err();
        assert!(err.contains("dur"), "{err}");
    }

    #[test]
    fn nesting_violation_is_detected() {
        // Two spans on one thread partially overlap — impossible for
        // correctly recorded scoped spans.
        let trace = Trace {
            events: vec![
                span("t", "a", 1, 0, 1_000_000),
                span("t", "b", 1, 500_000, 1_000_000),
            ],
            hists: vec![],
        };
        let report = TraceReport::from_trace(&trace);
        assert!(!report.nesting_ok());
        assert_eq!(report.nesting_violations.len(), 1);
        assert!(report.nesting_violations[0].contains("'b'"));
        // The same spans on different threads are fine.
        let trace = Trace {
            events: vec![
                span("t", "a", 1, 0, 1_000_000),
                span("t", "b", 2, 500_000, 1_000_000),
            ],
            hists: vec![],
        };
        assert!(TraceReport::from_trace(&trace).nesting_ok());
    }

    #[test]
    fn json_parser_handles_escapes_numbers_and_garbage() {
        let v = parse_json(r#"{"s":"a\"b\\c\nd","n":-1.5e3,"b":true,"x":null,"a":[1,2]}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\"b\\c\nd");
        assert_eq!(v.get("n").unwrap().as_f64().unwrap(), -1500.0);
        assert_eq!(v.get("b"), Some(&Json::Bool(true)));
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]))
        );
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("").is_err());
        let u = parse_json(r#"{"u":"A"}"#).unwrap();
        assert_eq!(u.get("u").unwrap().as_str().unwrap(), "A");
    }

    #[test]
    fn empty_trace_reports_zeroes() {
        let report = TraceReport::from_trace(&Trace::default());
        assert_eq!(report.num_events, 0);
        assert_eq!(report.num_spans, 0);
        assert_eq!(report.wall_us, 0.0);
        assert_eq!(report.phase_coverage(), 0.0);
        assert!(report.nesting_ok());
        assert!(report.phases.is_empty() && report.passes.is_empty());
        // An empty-but-valid JSONL trace (blank lines only) behaves
        // identically, and both renderers stay well formed.
        let parsed = TraceReport::from_jsonl_str("\n\n").unwrap();
        assert_eq!(parsed.num_events, 0);
        assert!(parsed.render().contains("0 events, 0 spans"));
        let json = parse_json(&parsed.render_json()).expect("valid JSON");
        assert_eq!(json.get("num_events").unwrap().as_f64(), Some(0.0));
        assert_eq!(json.get("nesting_ok"), Some(&Json::Bool(true)));
        assert_eq!(json.get("phases"), Some(&Json::Arr(vec![])));
    }

    #[test]
    fn render_json_round_trips_through_the_parser() {
        let report = TraceReport::from_trace(&sample_trace());
        let json = parse_json(&report.render_json()).expect("valid JSON");
        assert_eq!(
            json.get("num_spans").unwrap().as_f64(),
            Some(report.num_spans as f64)
        );
        let phases = match json.get("phases") {
            Some(Json::Arr(p)) => p,
            other => panic!("phases not an array: {other:?}"),
        };
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].get("name").unwrap().as_str(), Some("open"));
        let passes = match json.get("passes") {
            Some(Json::Arr(p)) => p,
            other => panic!("passes not an array: {other:?}"),
        };
        assert_eq!(passes.len(), 2);
        assert_eq!(passes[1].get("count").unwrap().as_f64(), Some(2.0));
        let hists = match json.get("hists") {
            Some(Json::Arr(h)) => h,
            other => panic!("hists not an array: {other:?}"),
        };
        assert_eq!(hists[0].get("count").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn pass_spans_are_set_against_the_io_scan_counter() {
        let io_scans = |value| Event {
            cat: "io",
            name: "scans_started",
            tid: 1,
            ts_ns: 9_000_000,
            kind: EventKind::Counter { value },
        };
        let mut trace = sample_trace();
        let report = TraceReport::from_trace(&trace);
        assert_eq!(report.pass_spans_and_io_scans(), None);
        assert!(!report.render().contains("io scans"));
        assert!(parse_json(&report.render_json())
            .unwrap()
            .get("io_scans")
            .is_none());
        for (scans, line) in [
            (3.0, "pass spans = 3, io scans = 3\n"),
            (4.0, "pass spans = 3, io scans = 4  (differ)\n"),
        ] {
            trace.events.push(io_scans(scans));
            let report = TraceReport::from_trace(&trace);
            assert_eq!(report.pass_spans_and_io_scans(), Some((3, scans as u64)));
            assert!(report.render().contains(line), "{}", report.render());
            let json = parse_json(&report.render_json()).expect("valid JSON");
            assert_eq!(json.get("pass_spans").unwrap().as_f64(), Some(3.0));
            assert_eq!(json.get("io_scans").unwrap().as_f64(), Some(scans));
        }
    }

    #[test]
    fn steps_total_the_spans_outside_phases_and_passes() {
        let trace = Trace {
            events: vec![
                span("phase", "solve", 1, 0, 10_000_000),
                span("twok", "twok.pre", 1, 1_000_000, 2_000_000),
                span("pass", "twok.pre", 1, 1_100_000, 1_000_000),
                span("twok", "twok.post", 1, 3_000_000, 1_000_000),
                span("twok", "twok.pre", 1, 4_000_000, 3_000_000),
            ],
            hists: Vec::new(),
        };
        let report = TraceReport::from_trace(&trace);
        assert_eq!(report.phases.len(), 1);
        let steps: Vec<(&str, f64, u64)> = report
            .steps
            .iter()
            .map(|p| (p.name.as_str(), p.total_us, p.count))
            .collect();
        assert_eq!(steps, [("twok.pre", 5_000.0, 2), ("twok.post", 1_000.0, 1)]);
        // The pass span of the same name is not part of the step.
        assert_eq!(report.passes.len(), 1);
        assert_eq!(report.passes[0].total_us, 1_000.0);
        assert!(report.render().contains("step breakdown"));
        let json = parse_json(&report.render_json()).expect("valid JSON");
        match json.get("steps") {
            Some(Json::Arr(s)) => {
                assert_eq!(s.len(), 2);
                assert_eq!(s[0].get("count").unwrap().as_f64(), Some(2.0));
            }
            other => panic!("steps not an array: {other:?}"),
        }
    }
}
