//! Golden outputs of the serving path.
//!
//! Drives [`ServeEngine`] over three seeded power-law bases with
//! `churn_stream` batches (inserts of absent pairs, deletes of live
//! edges, including edges inserted earlier in the stream), rolling the
//! WAL into segments and merging segments along the way. Every epoch
//! pins the served set's size, the members its batch evicted, whether
//! the proof scan certified maximality, and an FNV-1a hash of the set.
//!
//! The served set must not depend on how the overlay stores its edits:
//! the order of neighbours inside an edited record, which segments were
//! merged, or the order the batch arrived in. A change to the overlay
//! must reproduce these lines exactly; a mismatch prints the actual
//! table for review.

use std::sync::Arc;

use mis_extmem::{IoStats, ScratchDir};
use mis_gen::{churn_stream, ChurnKind};
use mis_graph::build_adj_file;
use mis_update::{EdgeOp, ServeConfig, ServeEngine, UpdateStore};

/// FNV-1a (64-bit) over the set's vertex ids, little-endian.
fn fnv1a(set: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in set {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One served base: vertices, generator seed, batches × ops per batch,
/// and the engine's roll / merge cadence.
struct Case {
    vertices: u64,
    seed: u64,
    batches: usize,
    batch_ops: usize,
    roll_epochs: u64,
    compact_threshold: usize,
}

const CASES: &[Case] = &[
    Case {
        vertices: 5_000,
        seed: 1,
        batches: 10,
        batch_ops: 300,
        roll_epochs: 1,
        compact_threshold: 2,
    },
    Case {
        vertices: 10_000,
        seed: 2,
        batches: 8,
        batch_ops: 600,
        roll_epochs: 2,
        compact_threshold: 3,
    },
    Case {
        vertices: 20_000,
        seed: 3,
        batches: 6,
        batch_ops: 1_000,
        roll_epochs: 1,
        compact_threshold: 3,
    },
];

fn case_lines(case: &Case) -> Vec<String> {
    let name = format!("plrg-n{}-s{}", case.vertices, case.seed);
    let dir = ScratchDir::new("serve-golden").unwrap();
    let graph = mis_gen::plrg::Plrg::with_vertices(case.vertices, 2.0)
        .seed(case.seed)
        .generate();
    let stats = IoStats::shared();
    build_adj_file(&graph, &dir.file("base.adj"), Arc::clone(&stats), 4096).unwrap();
    let (store, _) = UpdateStore::open(
        &dir.file("base.adj"),
        &dir.file("edits.wal"),
        &dir.file("is.ckpt"),
        stats,
        4096,
    )
    .unwrap();
    let engine = ServeEngine::new(
        store,
        ServeConfig {
            batch_ops: usize::MAX,
            roll_epochs: case.roll_epochs,
            compact_threshold: case.compact_threshold,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let view = engine.view();
    let mut lines = vec![format!(
        "{name} e0: set={} proved={} hash={:016x}",
        view.set().len(),
        view.maximality_proved(),
        fnv1a(view.set())
    )];
    let stream = churn_stream(
        &graph,
        case.batches * case.batch_ops,
        0.3,
        case.seed ^ 0x5eed,
    );
    for batch in stream.chunks(case.batch_ops) {
        let ops: Vec<EdgeOp> = batch
            .iter()
            .map(|op| match op.kind {
                ChurnKind::Insert => EdgeOp::Insert(op.u, op.v),
                ChurnKind::Delete => EdgeOp::Delete(op.v, op.u),
            })
            .collect();
        engine.submit(&ops).unwrap();
        let report = engine.flush().unwrap().unwrap();
        let view = engine.view();
        assert_eq!(view.set().len(), report.set_size);
        lines.push(format!(
            "{name} e{}: set={} evicted={} proved={} hash={:016x}",
            report.epoch,
            report.set_size,
            report.evicted,
            report.maximality_proved,
            fnv1a(view.set())
        ));
    }
    lines
}

/// Recorded with the overlay that replayed the log into per-vertex
/// hash-map lists on every snapshot.
const GOLDEN: &[&str] = &[
    "plrg-n5000-s1 e0: set=2436 proved=true hash=e00eb64ccfc3fde9",
    "plrg-n5000-s1 e1: set=3225 evicted=42 proved=true hash=d609c6a1da8dbe44",
    "plrg-n5000-s1 e2: set=3189 evicted=99 proved=true hash=4658fd58b6646211",
    "plrg-n5000-s1 e3: set=3167 evicted=71 proved=true hash=f4400cb2b5c5af00",
    "plrg-n5000-s1 e4: set=3128 evicted=82 proved=true hash=115dfa587f087e37",
    "plrg-n5000-s1 e5: set=3079 evicted=91 proved=true hash=bda2ba1118df85af",
    "plrg-n5000-s1 e6: set=3044 evicted=84 proved=true hash=a2a581113867d655",
    "plrg-n5000-s1 e7: set=3008 evicted=75 proved=true hash=fdd63237f3564057",
    "plrg-n5000-s1 e8: set=2975 evicted=80 proved=true hash=0e9e4de23427ec8d",
    "plrg-n5000-s1 e9: set=2956 evicted=64 proved=true hash=7bf2065407a19c84",
    "plrg-n5000-s1 e10: set=2917 evicted=70 proved=true hash=59c672dae1cc0c88",
    "plrg-n10000-s2 e0: set=5145 proved=true hash=4bf8005d5e2b40f7",
    "plrg-n10000-s2 e1: set=6563 evicted=109 proved=true hash=87eeebd00a86e9ad",
    "plrg-n10000-s2 e2: set=6475 evicted=192 proved=true hash=df7b5a841471bf5b",
    "plrg-n10000-s2 e3: set=6393 evicted=165 proved=true hash=9e8d9811646e7503",
    "plrg-n10000-s2 e4: set=6322 evicted=177 proved=true hash=5dd432ebbfef993a",
    "plrg-n10000-s2 e5: set=6243 evicted=163 proved=true hash=c522358b35de5686",
    "plrg-n10000-s2 e6: set=6186 evicted=146 proved=true hash=eaa431d882cfa2b3",
    "plrg-n10000-s2 e7: set=6117 evicted=166 proved=true hash=8c0cc4f6020bbbb6",
    "plrg-n10000-s2 e8: set=6053 evicted=150 proved=true hash=830f2cc7201d6f2e",
    "plrg-n20000-s3 e0: set=10478 proved=true hash=b9139583a8e3678b",
    "plrg-n20000-s3 e1: set=13381 evicted=196 proved=true hash=a56a7497101b9a6c",
    "plrg-n20000-s3 e2: set=13260 evicted=296 proved=true hash=df42e5c35d682264",
    "plrg-n20000-s3 e3: set=13116 evicted=294 proved=true hash=6ece4044db310eed",
    "plrg-n20000-s3 e4: set=12976 evicted=316 proved=true hash=482e96e833f0fdbc",
    "plrg-n20000-s3 e5: set=12825 evicted=306 proved=true hash=f65be459c4fb7407",
    "plrg-n20000-s3 e6: set=12692 evicted=281 proved=true hash=6197acf51c474337",
];

#[test]
fn served_sets_match_golden_outputs() {
    let actual: Vec<String> = CASES.iter().flat_map(case_lines).collect();
    let table = actual
        .iter()
        .map(|l| format!("    \"{l}\","))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "case count changed; actual table:\n{table}"
    );
    for (a, g) in actual.iter().zip(GOLDEN) {
        assert_eq!(a, g, "served sets drifted; actual table:\n{table}");
    }
}
