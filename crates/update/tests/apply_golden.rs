//! Golden outputs of the maintenance path.
//!
//! Drives [`UpdateStore::apply`] epoch by epoch over three seeded
//! power-law bases with `churn_stream` batches: the bootstrap apply,
//! then one apply per committed batch, alternating one and two recover
//! rounds. Each of those is one epoch behind, so it repairs locally from
//! the batch's record. Once per base a full compaction folds the log
//! into a new base between an append and its apply, so that apply
//! resumes from a checkpoint older than its base, without a record, and
//! starts from one violation scan. Every apply pins its report (epoch,
//! resumed-from epoch, bootstrap flag, evictions, set size, accounted
//! scans, proof), an FNV-1a hash of the checkpointed set, and the scans
//! and blocks the apply read.
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

/// Recorded on the store with one repair: the bootstrap on these
/// id-ordered bases runs Greedy, early-stopped one-k rounds and the
/// proof, and Greedy's scan builds the point-access handle's record
/// index on the way; every later apply reads only its batch's records
/// (0 scans; its blocks are the misses of the default point-access
/// pager's 4 KiB pages), except the one after the full compaction, which
/// starts from one violation scan that builds the new base's index. The
/// three bootstrap lines lost one scan and its blocks when one-k's
/// maximality finish began replaying its last post-swap pass in memory,
/// and one more when the index stopped costing a scan of its own; their
/// sets did not move.
const GOLDEN: &[&str] = &[
    "plrg-n4000-s11 e0: from=0 boot=true rounds=2 evicted=0 set=2594 file_scans=7 proved=true hash=4a05e8408cfb2dc7 scans=7 blocks=133",
    "plrg-n4000-s11 e1: from=0 boot=false rounds=1 evicted=48 set=2579 file_scans=0 proved=true hash=2f5b3710dd485f08 scans=0 blocks=18",
    "plrg-n4000-s11 e2: from=1 boot=false rounds=2 evicted=59 set=2556 file_scans=1 proved=true hash=edeae940cc5d0933 scans=1 blocks=38",
    "plrg-n4000-s11 e3: from=2 boot=false rounds=1 evicted=55 set=2536 file_scans=0 proved=true hash=398dc4655990c3c4 scans=0 blocks=0",
    "plrg-n4000-s11 e4: from=3 boot=false rounds=2 evicted=48 set=2514 file_scans=0 proved=true hash=629aa63b375f9d78 scans=0 blocks=0",
    "plrg-n4000-s11 e5: from=4 boot=false rounds=1 evicted=63 set=2486 file_scans=0 proved=true hash=ee14cce7940b81bc scans=0 blocks=0",
    "plrg-n8000-s12 e0: from=0 boot=true rounds=2 evicted=0 set=5302 file_scans=7 proved=true hash=2cd8a26739f9b179 scans=7 blocks=266",
    "plrg-n8000-s12 e1: from=0 boot=false rounds=1 evicted=128 set=5249 file_scans=0 proved=true hash=14c2417769cfc946 scans=0 blocks=38",
    "plrg-n8000-s12 e2: from=1 boot=false rounds=2 evicted=127 set=5189 file_scans=0 proved=true hash=aa5b07046a29306e scans=0 blocks=0",
    "plrg-n8000-s12 e3: from=2 boot=false rounds=1 evicted=116 set=5141 file_scans=1 proved=true hash=da75deb690a6393d scans=1 blocks=78",
    "plrg-n8000-s12 e4: from=3 boot=false rounds=2 evicted=112 set=5090 file_scans=0 proved=true hash=0467cdd467de3667 scans=0 blocks=0",
    "plrg-n8000-s12 e5: from=4 boot=false rounds=1 evicted=102 set=5045 file_scans=0 proved=true hash=98a44fa0b5fba3a2 scans=0 blocks=0",
    "plrg-n16000-s13 e0: from=0 boot=true rounds=2 evicted=0 set=10826 file_scans=7 proved=true hash=26ce9a1a29f1a891 scans=7 blocks=553",
    "plrg-n16000-s13 e1: from=0 boot=false rounds=1 evicted=259 set=10710 file_scans=0 proved=true hash=9cb98500f3a895c3 scans=0 blocks=79",
    "plrg-n16000-s13 e2: from=1 boot=false rounds=2 evicted=257 set=10591 file_scans=0 proved=true hash=2db60bcf79d14215 scans=0 blocks=0",
    "plrg-n16000-s13 e3: from=2 boot=false rounds=1 evicted=233 set=10494 file_scans=0 proved=true hash=9fdfcf1b9dc63643 scans=0 blocks=0",
    "plrg-n16000-s13 e4: from=3 boot=false rounds=2 evicted=228 set=10390 file_scans=1 proved=true hash=b9048bcbe0b95c4c scans=1 blocks=162",
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
