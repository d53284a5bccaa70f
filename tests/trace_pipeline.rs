//! End-to-end trace pipeline test: run a real two-k workload on an
//! on-disk file with the observability sink armed, write the
//! Chrome-trace JSONL file, parse it back and check the recorded
//! timeline is coherent. Then trace a paged one-k and a paged two-k solve
//! of a compressed copy and check that every accounted scan is still one
//! pass span, and that each swap's round steps are spans of their own.
//!
//! This is deliberately the ONLY test in this binary: the `mis_obs` sink
//! is process-global, so a concurrently running test would bleed events
//! into the drained trace and make the span counts meaningless.

use std::sync::Arc;

use semi_mis::algo::SwapOutcome;
use semi_mis::graph::{build_adj_file, compress_adj, CompressedAdjFile};
use semi_mis::obs::{self, TraceReport};
use semi_mis::prelude::*;

#[test]
fn traced_run_has_one_pass_span_per_scan() {
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
    let before = stats.snapshot();

    let set = {
        let _solve = obs::span("phase", "solve");
        let greedy = Greedy::new().run(&file);
        let outcome = TwoKSwap::with_config(SwapConfig::early_stop(2)).run(&file, &greedy.set);
        outcome.result.set
    };
    let proof = {
        let _verify = obs::span("phase", "verify");
        try_prove_maximal(&file, &set).unwrap()
    };
    assert!(proof.is_maximal_independent());
    let scans = stats.snapshot().since(&before).scans_started;

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

    // Without a pager every scan of the solve and the proof is a full
    // pass, and every pass is one span named after it.
    let passes: u64 = report.passes.iter().map(|p| p.count).sum();
    assert_eq!(passes, scans, "pass spans {:?}", report.passes);
    for pass in ["greedy", "twok.init", "twok.pre", "twok.post", "proof"] {
        assert!(
            report.passes.iter().any(|p| p.name == pass),
            "missing pass `{pass}` in {:?}",
            report.passes
        );
    }

    // The final I/O counters rode along as counter samples.
    assert!(
        report.counters.iter().any(|c| c.cat == "io"),
        "io counters missing from trace"
    );

    // A paged one-k and a paged two-k solve of a compressed copy, each
    // with its handle opened before greedy, as every paged solve opens
    // it: greedy's scan builds the record index on the way, so no
    // `index.build` pass runs and the pass spans still match the
    // accounted scans. Paged pre-swap rounds read no file, so only the
    // step spans show them.
    type Swap =
        fn(SwapConfig, &CompressedAdjFile, Option<&dyn NeighborAccess>, &[u32]) -> SwapOutcome;
    let swaps: [(&str, Swap); 2] = [
        ("onek", |c, g, a, s| {
            OneKSwap::with_config(c).run_paged(g, a, s)
        }),
        ("twok", |c, g, a, s| {
            TwoKSwap::with_config(c).run_paged(g, a, s)
        }),
    ];
    let comp = compress_adj(&graph, &scratch.file("g.cadj"), Arc::clone(&stats), 4096).unwrap();
    for (algo, swap) in swaps {
        obs::set_enabled(true);
        let before = stats.snapshot();
        let pager = PagerConfig::with_capacity_bytes(64 << 10, 4096, PolicyKind::default());
        let access = RandomAccessGraph::open(&comp, pager).unwrap();
        let greedy = Greedy::new().run(&comp);
        let config = SwapConfig::early_stop(3).with_paged_threshold(1.0);
        let outcome = swap(config, &comp, Some(&access), &greedy.set);
        assert!(outcome.stats.paged_rounds > 0, "{algo}: no paged round ran");
        assert!(try_prove_maximal(&comp, &outcome.result.set)
            .unwrap()
            .is_maximal_independent());
        let io = stats.snapshot().since(&before);
        io.emit_trace("io");
        let report = TraceReport::from_trace(&obs::drain());
        obs::set_enabled(false);
        assert_eq!(
            report.pass_spans_and_io_scans(),
            Some((io.scans_started, io.scans_started)),
            "{algo}: pass spans {:?}",
            report.passes
        );
        assert!(
            report.passes.iter().all(|p| p.name != "index.build"),
            "{algo}: {:?}",
            report.passes
        );
        for step in ["pre", "swap"].map(|s| format!("{algo}.{s}")) {
            assert!(
                report.steps.iter().any(|p| p.name == step),
                "missing step `{step}` in {:?}",
                report.steps
            );
        }
    }
}
