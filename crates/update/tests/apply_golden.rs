//! Golden outputs of the maintenance path.
//!
//! Drives [`UpdateStore::apply`] epoch by epoch over three seeded
//! power-law bases with `churn_stream` batches: the bootstrap apply,
//! then one apply per committed batch, alternating one and two recover
//! rounds. Once per base a full compaction folds the log into a new base
//! between an append and its apply, so that apply resumes from a
//! checkpoint older than its base and has to find its conflicts by a
//! scan. Every apply pins its report (epoch, resumed-from epoch,
//! bootstrap flag, evictions, set size, swap and proof scans, proof), an
//! FNV-1a hash of the checkpointed set, and the scans and blocks the
//! apply read.
//!
//! A change to the repair, the overlay or the store must reproduce these
//! lines exactly; a mismatch prints the actual table for review.

use std::sync::Arc;

use mis_core::RepairConfig;
use mis_extmem::{IoStats, ScratchDir};
use mis_gen::{churn_stream, ChurnKind};
use mis_graph::build_adj_file;
use mis_update::{Checkpoint, EdgeOp, RollPolicy, UpdateStore};

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

/// One maintained base: vertices, generator seed, batches × ops per
/// batch, and the batch whose apply runs after a full compaction.
struct Case {
    vertices: u64,
    seed: u64,
    batches: usize,
    batch_ops: usize,
    compact_before: usize,
}

const CASES: &[Case] = &[
    Case {
        vertices: 4_000,
        seed: 11,
        batches: 5,
        batch_ops: 200,
        compact_before: 2,
    },
    Case {
        vertices: 8_000,
        seed: 12,
        batches: 5,
        batch_ops: 400,
        compact_before: 3,
    },
    Case {
        vertices: 16_000,
        seed: 13,
        batches: 4,
        batch_ops: 800,
        compact_before: 4,
    },
];

fn case_lines(case: &Case) -> Vec<String> {
    let name = format!("plrg-n{}-s{}", case.vertices, case.seed);
    let dir = ScratchDir::new("apply-golden").unwrap();
    let graph = mis_gen::plrg::Plrg::with_vertices(case.vertices, 2.0)
        .seed(case.seed)
        .generate();
    let stats = IoStats::shared();
    build_adj_file(&graph, &dir.file("base.adj"), Arc::clone(&stats), 4096).unwrap();
    let (mut store, _) = UpdateStore::open(
        &dir.file("base.adj"),
        &dir.file("edits.wal"),
        &dir.file("is.ckpt"),
        Arc::clone(&stats),
        4096,
    )
    .unwrap();
    store.set_roll_policy(RollPolicy {
        max_wal_bytes: u64::MAX,
        max_wal_epochs: 2,
        compact_threshold: 3,
    });

    let mut lines = Vec::new();
    let mut apply = |store: &UpdateStore, recover_rounds: u32| {
        let before = stats.snapshot();
        let report = store
            .apply(RepairConfig {
                recover_rounds,
                verify: true,
            })
            .unwrap();
        let io = stats.snapshot().since(&before);
        let set = Checkpoint::load(&dir.file("is.ckpt"), &stats).unwrap().set;
        assert_eq!(set, report.set);
        lines.push(format!(
            "{name} e{}: from={} boot={} rounds={recover_rounds} evicted={} set={} \
             file_scans={} proved={} hash={:016x} scans={} blocks={}",
            report.epoch,
            report.resumed_from,
            report.bootstrapped,
            report.evicted,
            report.set.len(),
            report.file_scans,
            report.maximality_proved,
            fnv1a(&set),
            io.scans_started,
            io.blocks_read,
        ));
    };

    apply(&store, 2);
    let stream = churn_stream(
        &graph,
        case.batches * case.batch_ops,
        0.3,
        case.seed ^ 0xa991,
    );
    for (i, batch) in stream.chunks(case.batch_ops).enumerate() {
        let ops: Vec<EdgeOp> = batch
            .iter()
            .map(|op| match op.kind {
                ChurnKind::Insert => EdgeOp::Insert(op.u, op.v),
                ChurnKind::Delete => EdgeOp::Delete(op.v, op.u),
            })
            .collect();
        store.append_ops(&ops).unwrap();
        if i + 1 == case.compact_before {
            store.compact(&dir.file(&format!("base{i}.adj"))).unwrap();
        }
        apply(&store, 1 + (i % 2) as u32);
    }
    lines
}

/// Recorded on the store whose apply scanned the overlaid base for
/// conflicts inside the repair itself.
const GOLDEN: &[&str] = &[
    "plrg-n4000-s11 e0: from=0 boot=true rounds=2 evicted=0 set=1983 file_scans=2 proved=true hash=3bad944fcf555129 scans=2 blocks=38",
    "plrg-n4000-s11 e1: from=0 boot=false rounds=1 evicted=34 set=2538 file_scans=5 proved=true hash=3d202550ee180e57 scans=6 blocks=114",
    "plrg-n4000-s11 e2: from=1 boot=false rounds=2 evicted=58 set=2553 file_scans=7 proved=true hash=055424ffbe69a464 scans=8 blocks=152",
    "plrg-n4000-s11 e3: from=2 boot=false rounds=1 evicted=58 set=2533 file_scans=5 proved=true hash=6da204ccd9d214da scans=6 blocks=114",
    "plrg-n4000-s11 e4: from=3 boot=false rounds=2 evicted=48 set=2515 file_scans=7 proved=true hash=34ccd5909fc04034 scans=8 blocks=152",
    "plrg-n4000-s11 e5: from=4 boot=false rounds=1 evicted=63 set=2490 file_scans=5 proved=true hash=e84b724d7d4d9bec scans=6 blocks=114",
    "plrg-n8000-s12 e0: from=0 boot=true rounds=2 evicted=0 set=4100 file_scans=2 proved=true hash=e0307d864796e508 scans=2 blocks=76",
    "plrg-n8000-s12 e1: from=0 boot=false rounds=1 evicted=78 set=5143 file_scans=5 proved=true hash=704ae85d225070ba scans=6 blocks=228",
    "plrg-n8000-s12 e2: from=1 boot=false rounds=2 evicted=120 set=5185 file_scans=7 proved=true hash=3e43aece435bd894 scans=8 blocks=304",
    "plrg-n8000-s12 e3: from=2 boot=false rounds=1 evicted=113 set=5140 file_scans=5 proved=true hash=a55bda63468446e1 scans=6 blocks=234",
    "plrg-n8000-s12 e4: from=3 boot=false rounds=2 evicted=115 set=5092 file_scans=7 proved=true hash=9ed8fa2e7ad5f35b scans=8 blocks=312",
    "plrg-n8000-s12 e5: from=4 boot=false rounds=1 evicted=106 set=5046 file_scans=5 proved=true hash=a63da538f6ff15ab scans=6 blocks=234",
    "plrg-n16000-s13 e0: from=0 boot=true rounds=2 evicted=0 set=8300 file_scans=2 proved=true hash=8fede649a2688be3 scans=2 blocks=158",
    "plrg-n16000-s13 e1: from=0 boot=false rounds=1 evicted=149 set=10489 file_scans=5 proved=true hash=f1dee9b10479af60 scans=6 blocks=474",
    "plrg-n16000-s13 e2: from=1 boot=false rounds=2 evicted=246 set=10583 file_scans=7 proved=true hash=f62c4b030e7fc9d3 scans=8 blocks=632",
    "plrg-n16000-s13 e3: from=2 boot=false rounds=1 evicted=235 set=10489 file_scans=5 proved=true hash=2dc4dd1c6f697386 scans=6 blocks=474",
    "plrg-n16000-s13 e4: from=3 boot=false rounds=2 evicted=227 set=10390 file_scans=7 proved=true hash=9636f2f5174d2c72 scans=8 blocks=648",
];

#[test]
fn applied_sets_match_golden_outputs() {
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
        assert_eq!(a, g, "applied sets drifted; actual table:\n{table}");
    }
}
