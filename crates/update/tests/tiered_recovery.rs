//! Property-based tests for the tiered (WAL + sealed segments) store:
//! arbitrary op streams survive rolls and torn WAL tails at segment
//! boundaries, and epoch-pinned snapshots scan exactly like a
//! sequential replay of the history up to their epoch — before and
//! after compactions.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use mis_extmem::{IoStats, ScratchDir};
use mis_graph::{build_adj_file, GraphScan, PinnedDelta, VertexId};
use mis_update::{EdgeOp, RollPolicy, Snapshot, UpdateStore};

/// Vertex universe of the generated op streams (and the base graph).
const N: u32 = 50;

/// Arbitrary op: insert/delete over the small id universe, `u != v`.
fn arb_op() -> impl Strategy<Value = EdgeOp> {
    (any::<bool>(), 0u32..N, 0u32..N).prop_map(|(ins, u, v)| {
        // The store rejects self-loops; remap them instead of filtering.
        let v = if u == v { (v + 1) % N } else { v };
        if ins {
            EdgeOp::Insert(u, v)
        } else {
            EdgeOp::Delete(u, v)
        }
    })
}

/// Arbitrary history: a handful of epochs, each a non-empty batch.
fn arb_epochs() -> impl Strategy<Value = Vec<Vec<EdgeOp>>> {
    proptest::collection::vec(proptest::collection::vec(arb_op(), 1..6), 1..8)
}

/// The epoch-stamped trace `epochs` must replay to.
fn expected(epochs: &[Vec<EdgeOp>]) -> Vec<(u64, bool, u32, u32)> {
    epochs
        .iter()
        .enumerate()
        .flat_map(|(i, batch)| {
            batch.iter().map(move |op| {
                let (u, v) = op.endpoints();
                (i as u64 + 1, op.is_insert(), u, v)
            })
        })
        .collect()
}

/// The store's durable history in the shape of [`expected`].
fn trace(store: &UpdateStore) -> Vec<(u64, bool, u32, u32)> {
    store
        .committed_ops()
        .map(|(e, op)| {
            let (u, v) = op.endpoints();
            (e, op.is_insert(), u, v)
        })
        .collect()
}

/// Every record of `g`, neighbours sorted.
fn records<G: GraphScan>(g: &G) -> Vec<(VertexId, Vec<VertexId>)> {
    let mut recs = Vec::new();
    g.scan(&mut |v, ns| {
        let mut s = ns.to_vec();
        s.sort_unstable();
        recs.push((v, s));
    })
    .unwrap();
    recs
}

/// The base graph edited by the first `upto` epochs, replayed in order.
fn replayed(epochs: &[Vec<EdgeOp>], upto: usize) -> Vec<(VertexId, Vec<VertexId>)> {
    let mut view = PinnedDelta::new(mis_gen::special::path(N as usize), Arc::default(), 0);
    for &op in epochs[..upto].iter().flatten() {
        match op {
            EdgeOp::Insert(u, v) => view.insert_edge(u, v),
            EdgeOp::Delete(u, v) => view.delete_edge(u, v),
        }
    }
    records(&view)
}

/// Opens a fresh store over a small base graph, with the given roll
/// cadence (in epochs) and no automatic segment merging.
fn open_store(dir: &ScratchDir, roll_epochs: u64) -> UpdateStore {
    let graph = mis_gen::special::path(N as usize);
    let stats = IoStats::shared();
    build_adj_file(&graph, &dir.file("base.adj"), Arc::clone(&stats), 4096).unwrap();
    let (mut store, _) = UpdateStore::open(
        &dir.file("base.adj"),
        &dir.file("edits.wal"),
        &dir.file("is.ckpt"),
        stats,
        4096,
    )
    .unwrap();
    store.set_roll_policy(RollPolicy {
        max_wal_bytes: u64::MAX,
        max_wal_epochs: roll_epochs,
        compact_threshold: usize::MAX,
    });
    store
}

fn reopen(dir: &ScratchDir) -> std::io::Result<UpdateStore> {
    UpdateStore::open(
        &dir.file("base.adj"),
        &dir.file("edits.wal"),
        &dir.file("is.ckpt"),
        IoStats::shared(),
        4096,
    )
    .map(|(s, _)| s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tiered_history_round_trips_through_rolls_and_reopen(
        epochs in arb_epochs(),
        roll_epochs in 1u64..4,
    ) {
        let dir = ScratchDir::new("tier-prop-rt").unwrap();
        let mut store = open_store(&dir, roll_epochs);
        for batch in &epochs {
            store.append_ops(batch).unwrap();
        }
        let all = expected(&epochs);
        prop_assert_eq!(trace(&store), all.clone());

        drop(store);
        let store = reopen(&dir).unwrap();
        prop_assert_eq!(trace(&store), all);
        prop_assert_eq!(store.wal().last_epoch(), epochs.len() as u64);
    }

    #[test]
    fn torn_wal_tail_after_rolls_loses_no_sealed_epoch(
        epochs in arb_epochs(),
        roll_epochs in 1u64..4,
        cut_seed in any::<u64>(),
    ) {
        let dir = ScratchDir::new("tier-prop-torn").unwrap();
        let mut store = open_store(&dir, roll_epochs);
        for batch in &epochs {
            store.append_ops(batch).unwrap();
        }
        let sealed_hi = store
            .segments()
            .last()
            .map(|s| s.meta().epoch_hi)
            .unwrap_or(0);
        let wal_path: PathBuf = store.wal().path().to_path_buf();
        drop(store);

        // Crash mid-write: truncate the active WAL anywhere past its
        // magic (an empty/rolled WAL still has its 8-byte header).
        let bytes = std::fs::read(&wal_path).unwrap();
        if bytes.len() > 8 {
            let cut = 8 + (cut_seed as usize) % (bytes.len() - 8);
            std::fs::write(&wal_path, &bytes[..cut]).unwrap();
        }

        let store = reopen(&dir).unwrap();
        let got = trace(&store);
        let all = expected(&epochs);
        // Whatever survived is a prefix of whole epochs…
        prop_assert_eq!(&got[..], &all[..got.len()]);
        if let Some(&(last_epoch, ..)) = got.last() {
            prop_assert!(got.iter().filter(|t| t.0 == last_epoch).count()
                == all.iter().filter(|t| t.0 == last_epoch).count(),
                "no partial epoch survives");
        }
        // …and every epoch sealed in a segment is untouched by the torn
        // WAL tail.
        let covered = got.last().map(|t| t.0).unwrap_or(0);
        prop_assert!(covered >= sealed_hi,
            "sealed epochs up to {sealed_hi} must survive, got {covered}");
    }

    #[test]
    fn pinned_snapshots_replay_identically_at_every_epoch(
        epochs in arb_epochs(),
        roll_epochs in 1u64..4,
    ) {
        let dir = ScratchDir::new("tier-prop-pin").unwrap();
        let mut store = open_store(&dir, roll_epochs);
        let mut pinned: Vec<Snapshot> = vec![store.snapshot()];
        for batch in &epochs {
            store.append_ops(batch).unwrap();
            pinned.push(store.snapshot());
        }
        // Everything sealed + merged + folded into a fresh base happens
        // *after* the pins; none of it may move any pinned view.
        store.roll_segment().unwrap();
        store.compact_segments().unwrap();
        store.compact(&dir.file("base2.adj")).unwrap();

        for (i, snap) in pinned.iter().enumerate() {
            prop_assert_eq!(snap.epoch(), i as u64);
            // The pinned view scans like the sequential replay cut at
            // the pinned epoch.
            prop_assert_eq!(records(&snap.pinned()), replayed(&epochs, i));
        }
    }
}
