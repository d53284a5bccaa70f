//! End-to-end trace pipeline test: run a real parallel two-k workload
//! with the observability sink armed, write the Chrome-trace JSONL file,
//! parse it back and check the recorded timeline is coherent.
//!
//! This is deliberately the ONLY test in this binary: the `mis_obs` sink
//! is process-global, so a concurrently running test would bleed events
//! into the drained trace and make the worker-accounting assertions
//! meaningless.

use std::sync::Arc;

use semi_mis::graph::build_adj_file;
use semi_mis::obs::trace::EventKind;
use semi_mis::obs::{self, TraceReport};
use semi_mis::prelude::*;

const THREADS: usize = 3;

#[test]
fn traced_parallel_run_produces_a_coherent_timeline() {
    let scratch = ScratchDir::new("trace-pipeline").unwrap();
    let stats = IoStats::shared();
    let graph = semi_mis::gen::Plrg::with_vertices(20_000, 2.0)
        .seed(11)
        .generate();

    obs::set_enabled(true);
    let file = {
        let _open = obs::span("phase", "open");
        build_adj_file(&graph, &scratch.file("g.adj"), Arc::clone(&stats), 4096).unwrap()
    };

    let executor = Executor::parallel(THREADS);
    let set = {
        let _solve = obs::span("phase", "solve");
        let greedy = Greedy::with_executor(executor).run(&file);
        let config = SwapConfig::early_stop(2).with_executor(executor);
        let outcome = TwoKSwap::with_config(config).run(&file, &greedy.set);
        outcome.result.set
    };
    let proof = {
        let _verify = obs::span("phase", "verify");
        prove_maximal_with(&file, &set, &executor)
    };
    assert!(proof.is_maximal_independent());

    stats.snapshot().emit_trace("io");
    let trace = obs::drain();
    obs::set_enabled(false);
    assert!(trace.num_spans() > 0, "nothing was recorded");

    // Round-trip through the on-disk JSONL format.
    let path = scratch.file("run.jsonl");
    trace.save(&path).unwrap();
    let report = TraceReport::load(&path).unwrap();
    assert_eq!(report.num_spans, trace.num_spans());

    // Spans nest properly within every thread.
    assert!(
        report.nesting_ok(),
        "{} nesting violations",
        report.nesting_violations.len()
    );

    // The three phase spans cover essentially the whole wall-clock.
    for phase in ["open", "solve", "verify"] {
        assert!(
            report.phases.iter().any(|p| p.name == phase),
            "missing phase `{phase}`"
        );
    }
    assert!(
        report.phase_coverage() > 0.95,
        "phases cover only {:.1}% of wall time",
        100.0 * report.phase_coverage()
    );

    // Parallel passes ran and spawned per-worker timelines.
    assert!(report.pass_us > 0.0, "no parallel pass spans recorded");
    assert!(
        report.workers.len() >= THREADS,
        "expected >= {THREADS} worker timelines, got {}",
        report.workers.len()
    );

    // Worker accounting is self-consistent: busy + wait never exceeds the
    // worker's span extent (beyond float noise).
    for w in &report.workers {
        assert!(
            w.busy_us + w.wait_us <= w.span_us * 1.05 + 1.0,
            "worker tid {} accounts {}us busy + {}us wait in a {}us extent",
            w.tid,
            w.busy_us,
            w.wait_us,
            w.span_us
        );
    }

    // Total worker wall-time tracks (mergeable pass duration x threads):
    // every `pass.parallel` keeps its fold workers alive for roughly the
    // whole pass. Ordered folds (`pass.fold_ordered`) fold on the calling
    // thread behind one reader thread and spawn no workers, so they are
    // not part of the expectation. Timing on a loaded single-core CI box
    // is noisy, so the tolerance is generous.
    let mergeable_us: f64 = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { dur_ns } if e.name == "pass.parallel" => Some(dur_ns as f64 / 1e3),
            _ => None,
        })
        .sum();
    assert!(mergeable_us > 0.0, "no mergeable parallel pass recorded");
    let worker_us: f64 = report.workers.iter().map(|w| w.span_us).sum();
    let expected = mergeable_us * THREADS as f64;
    let ratio = worker_us / expected;
    assert!(
        (0.3..=1.7).contains(&ratio),
        "worker time {worker_us:.0}us vs pass x threads {expected:.0}us (ratio {ratio:.2})"
    );

    // The final I/O counters rode along as counter samples.
    assert!(
        report.counters.iter().any(|c| c.cat == "io"),
        "io counters missing from trace"
    );
}
