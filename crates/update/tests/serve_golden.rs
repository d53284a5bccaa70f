//! Golden outputs of the serving path.
//!
//! Drives three seeded power-law bases with `churn_stream` batches
//! (inserts of absent pairs, deletes of live edges, including edges
//! inserted earlier in the stream), rolling the WAL into segments and
//! merging segments along the way, twice:
//!
//! * [`GOLDEN`]: through an `UpdateStore`, a Greedy bootstrap and the
//!   one-k reference repair of `common`, built in the test from
//!   eviction, early-stopped one-k rounds and the proof scan — seven
//!   scans an epoch;
//! * [`LOCAL_GOLDEN`]: through [`ServeEngine`], whose flushes repair
//!   locally by point reads, with no scan; every epoch is also audited
//!   with a full scan.
//!
//! Every epoch pins the set's size, the members its batch evicted,
//! whether the repair proved maximality, and an FNV-1a hash of the set.
//!
//! The sets must not depend on how the overlay stores its edits: the
//! order of neighbours inside an edited record, which segments were
//! merged, or the order the batch arrived in. A change to the overlay
//! must reproduce these lines exactly; a mismatch prints the actual
//! table for review.

mod common;

use std::sync::Arc;

use mis_core::{is_maximal_independent_set, Greedy};
use mis_extmem::{IoStats, ScratchDir};
use mis_gen::{churn_stream, ChurnKind};
use mis_graph::{build_adj_file, CsrGraph};
use mis_update::{EdgeOp, RollPolicy, ServeConfig, ServeEngine, UpdateStore};

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

impl Case {
    fn name(&self) -> String {
        format!("plrg-n{}-s{}", self.vertices, self.seed)
    }

    /// The base graph and an id-ordered store over it in `dir`.
    fn open(&self, dir: &ScratchDir) -> (CsrGraph, UpdateStore) {
        let graph = mis_gen::plrg::Plrg::with_vertices(self.vertices, 2.0)
            .seed(self.seed)
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
        (graph, store)
    }

    /// The churn stream, one op batch per epoch.
    fn batches(&self, graph: &CsrGraph) -> Vec<Vec<EdgeOp>> {
        let stream = churn_stream(
            graph,
            self.batches * self.batch_ops,
            0.3,
            self.seed ^ 0x5eed,
        );
        stream
            .chunks(self.batch_ops)
            .map(|batch| {
                batch
                    .iter()
                    .map(|op| match op.kind {
                        ChurnKind::Insert => EdgeOp::Insert(op.u, op.v),
                        ChurnKind::Delete => EdgeOp::Delete(op.v, op.u),
                    })
                    .collect()
            })
            .collect()
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            batch_ops: usize::MAX,
            roll_epochs: self.roll_epochs,
            compact_threshold: self.compact_threshold,
            ..ServeConfig::default()
        }
    }
}

/// One epoch's line.
fn line(name: &str, epoch: u64, set: &[u32], evicted: u64, proved: bool) -> String {
    format!(
        "{name} e{epoch}: set={} evicted={evicted} proved={proved} hash={:016x}",
        set.len(),
        fnv1a(set)
    )
}

/// The bootstrap line.
fn e0(name: &str, set: &[u32], proved: bool) -> String {
    format!(
        "{name} e0: set={} proved={proved} hash={:016x}",
        set.len(),
        fnv1a(set)
    )
}

/// The one-k reference repair, epoch by epoch.
fn reference_lines(case: &Case) -> Vec<String> {
    let name = case.name();
    let dir = ScratchDir::new("serve-golden").unwrap();
    let (graph, mut store) = case.open(&dir);
    let config = case.config();
    store.set_roll_policy(RollPolicy {
        max_wal_bytes: config.roll_bytes,
        max_wal_epochs: config.roll_epochs,
        compact_threshold: config.compact_threshold,
    });
    let view = store.snapshot().pinned();
    let mut set = Greedy::new().run(&view).set;
    let mut lines = vec![e0(&name, &set, is_maximal_independent_set(&view, &set))];
    for ops in case.batches(&graph) {
        let epoch = store.append_ops(&ops).unwrap().epoch;
        let view = store.snapshot().pinned();
        let inserted = view.overlay().last_batch().unwrap().inserted();
        let (repaired, evicted, proved) =
            common::one_k_reference(&view, &set, inserted, config.repair);
        set = repaired;
        lines.push(line(&name, epoch, &set, evicted, proved));
    }
    lines
}

/// The served sets: local repairs, each audited with a full scan.
fn local_lines(case: &Case) -> Vec<String> {
    let name = case.name();
    let dir = ScratchDir::new("serve-golden-local").unwrap();
    let (graph, store) = case.open(&dir);
    let stats = Arc::clone(store.stats());
    let engine = ServeEngine::new(store, case.config()).unwrap();
    let view = engine.view();
    let mut lines = vec![e0(&name, view.set(), view.maximality_proved())];
    for ops in case.batches(&graph) {
        engine.submit(&ops).unwrap();
        let scans = stats.snapshot().scans_started;
        let report = engine.flush().unwrap().unwrap();
        let view = engine.view();
        assert_eq!(
            stats.snapshot().scans_started,
            scans,
            "{name} e{}",
            report.epoch
        );
        assert_eq!(view.set().len(), report.set_size);
        assert!(is_maximal_independent_set(view.graph(), view.set()));
        let proved = report.maximality_proved;
        lines.push(line(
            &name,
            report.epoch,
            view.set(),
            report.evicted,
            proved,
        ));
    }
    lines
}

/// Checks `actual` against `golden`, printing the actual table on a
/// mismatch.
fn check(actual: &[String], golden: &[&str]) {
    let table = actual
        .iter()
        .map(|l| format!("    \"{l}\","))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(
        actual.len(),
        golden.len(),
        "case count changed; actual table:\n{table}"
    );
    for (a, g) in actual.iter().zip(golden) {
        assert_eq!(a, g, "served sets drifted; actual table:\n{table}");
    }
}

/// Recorded through `ServeEngine` with the overlay that replayed the log
/// into per-vertex hash-map lists on every snapshot, when every flush
/// ran this repair over full scans.
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

/// Recorded from `ServeEngine` with local epoch repairs: a Greedy
/// bootstrap lifted by early-stopped one-k rounds (the bases are
/// id-ordered), then every flush by point reads.
const LOCAL_GOLDEN: &[&str] = &[
    "plrg-n5000-s1 e0: set=3277 proved=true hash=9d1a644599c34dc0",
    "plrg-n5000-s1 e1: set=3237 evicted=86 proved=true hash=52d4cfbe3fa637c0",
    "plrg-n5000-s1 e2: set=3193 evicted=98 proved=true hash=bead12bfe66e69fa",
    "plrg-n5000-s1 e3: set=3173 evicted=76 proved=true hash=92027070140c0a98",
    "plrg-n5000-s1 e4: set=3128 evicted=82 proved=true hash=e68ac14e0a271bc7",
    "plrg-n5000-s1 e5: set=3082 evicted=87 proved=true hash=34975589da7e27a2",
    "plrg-n5000-s1 e6: set=3042 evicted=84 proved=true hash=fd603d81b89c1f2d",
    "plrg-n5000-s1 e7: set=3005 evicted=73 proved=true hash=06adbde6421641d3",
    "plrg-n5000-s1 e8: set=2976 evicted=78 proved=true hash=8779649b65cbf168",
    "plrg-n5000-s1 e9: set=2951 evicted=64 proved=true hash=6db2dce0e6823b28",
    "plrg-n5000-s1 e10: set=2911 evicted=74 proved=true hash=fdae6aa52ec2d650",
    "plrg-n10000-s2 e0: set=6670 proved=true hash=b02401e8a37bdadc",
    "plrg-n10000-s2 e1: set=6577 evicted=201 proved=true hash=f86f38f25c5a1280",
    "plrg-n10000-s2 e2: set=6477 evicted=193 proved=true hash=a279d9e3a160100e",
    "plrg-n10000-s2 e3: set=6389 evicted=166 proved=true hash=a929a5d9e98491ad",
    "plrg-n10000-s2 e4: set=6322 evicted=177 proved=true hash=2baff52b75c4c5f5",
    "plrg-n10000-s2 e5: set=6245 evicted=168 proved=true hash=f1aaf2bf99fece86",
    "plrg-n10000-s2 e6: set=6185 evicted=140 proved=true hash=2a47594682b9ea0f",
    "plrg-n10000-s2 e7: set=6111 evicted=165 proved=true hash=a5f008e7bbf566a8",
    "plrg-n10000-s2 e8: set=6048 evicted=151 proved=true hash=ed3add85bffb6bbd",
    "plrg-n20000-s3 e0: set=13557 proved=true hash=5f6012a05a2f3579",
    "plrg-n20000-s3 e1: set=13394 evicted=338 proved=true hash=235490abef17dfb8",
    "plrg-n20000-s3 e2: set=13256 evicted=297 proved=true hash=063dcd38062e5d88",
    "plrg-n20000-s3 e3: set=13112 evicted=288 proved=true hash=8addc9f9c68475f1",
    "plrg-n20000-s3 e4: set=12975 evicted=317 proved=true hash=6f1b474da5bfd7c2",
    "plrg-n20000-s3 e5: set=12823 evicted=299 proved=true hash=e27b5849bce4525a",
    "plrg-n20000-s3 e6: set=12691 evicted=276 proved=true hash=787a92e9e9b27086",
];

#[test]
fn reference_repairs_match_golden_outputs() {
    let actual: Vec<String> = CASES.iter().flat_map(reference_lines).collect();
    check(&actual, GOLDEN);
}

#[test]
fn served_sets_match_golden_outputs() {
    let actual: Vec<String> = CASES.iter().flat_map(local_lines).collect();
    check(&actual, LOCAL_GOLDEN);
}
