//! Kill-point regression tests: every multi-file transition of the
//! tiered store (WAL roll, segment merge, full compaction) is
//! interrupted at its crash points via the `*_killable` hooks, and the
//! store must reopen to a consistent state — no lost epoch, no
//! duplicated replay, no stray file surviving the recovery sweep.

use std::path::PathBuf;

use mis_extmem::{IoStats, ScratchDir};
use mis_graph::build_adj_file;
use mis_update::store::KillPoint;
use mis_update::{CompactFormat, EdgeOp, RollPolicy, UpdateStore};

const N: usize = 60;

fn open(dir: &ScratchDir, base: &str) -> UpdateStore {
    let base_path = dir.file(base);
    if !base_path.exists() {
        let graph = mis_gen::special::path(N);
        build_adj_file(&graph, &base_path, IoStats::shared(), 4096).unwrap();
    }
    let (mut store, _) = UpdateStore::open(
        &base_path,
        &dir.file("edits.wal"),
        &dir.file("is.ckpt"),
        IoStats::shared(),
        4096,
    )
    .unwrap();
    store.set_roll_policy(RollPolicy {
        max_wal_bytes: u64::MAX,
        max_wal_epochs: u64::MAX,
        compact_threshold: usize::MAX,
    });
    store
}

/// The store's durable history, epoch-stamped, in commit order.
fn history(store: &UpdateStore) -> Vec<(u64, EdgeOp)> {
    store.committed_ops().collect()
}

fn seg_files(dir: &ScratchDir) -> Vec<PathBuf> {
    let seg_dir = dir.file("edits.segs");
    if !seg_dir.is_dir() {
        return Vec::new();
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(&seg_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap() != "MANIFEST")
        .collect();
    files.sort();
    files
}

#[test]
fn crash_after_segment_seal_leaves_a_cleaned_orphan() {
    let dir = ScratchDir::new("kill-roll-seal").unwrap();
    let mut store = open(&dir, "base.adj");
    store.append_ops(&[EdgeOp::Insert(1, 7)]).unwrap();
    store.append_ops(&[EdgeOp::Insert(2, 8)]).unwrap();
    let before = history(&store);

    // Die right after the segment file is written, before the manifest
    // lists it: the file is an orphan.
    assert!(store
        .roll_segment_killable(KillPoint::AfterSeal)
        .unwrap()
        .is_none());
    drop(store);
    assert_eq!(seg_files(&dir).len(), 1, "orphan segment on disk");

    // Recovery deletes the orphan; the WAL still holds both epochs.
    let store = open(&dir, "base.adj");
    assert!(seg_files(&dir).is_empty());
    assert!(store.segments().is_empty());
    assert_eq!(history(&store), before);

    // The interrupted roll can simply be retried.
    let mut store = store;
    let meta = store.roll_segment().unwrap().unwrap();
    assert_eq!((meta.epoch_lo, meta.epoch_hi), (1, 2));
}

#[test]
fn crash_after_manifest_update_heals_the_duplicated_wal() {
    let dir = ScratchDir::new("kill-roll-manifest").unwrap();
    let mut store = open(&dir, "base.adj");
    store.append_ops(&[EdgeOp::Insert(1, 7)]).unwrap();
    store.append_ops(&[EdgeOp::Delete(7, 1)]).unwrap();
    let before = history(&store);

    // Die between the manifest commit and the WAL reset: the sealed
    // segment AND the WAL now hold the same epochs.
    store
        .roll_segment_killable(KillPoint::AfterManifest)
        .unwrap()
        .unwrap();
    drop(store);

    // Recovery detects the duplicated prefix and drops the WAL copy —
    // the history replays once, not twice.
    let store = open(&dir, "base.adj");
    assert_eq!(store.segments().len(), 1);
    assert!(store.wal().committed().is_empty(), "wal healed");
    assert_eq!(store.wal().last_epoch(), 2, "epoch numbering preserved");
    assert_eq!(history(&store), before);
}

#[test]
fn crash_points_of_a_segment_merge_lose_nothing() {
    let dir = ScratchDir::new("kill-merge").unwrap();
    let mut store = open(&dir, "base.adj");
    for i in 0..3u32 {
        store.append_ops(&[EdgeOp::Insert(10, 20 + i)]).unwrap();
        store.roll_segment().unwrap().unwrap();
    }
    let before = history(&store);
    assert_eq!(seg_files(&dir).len(), 3);

    // Crash after the merged file is sealed but before the manifest
    // swap: the merged file is an orphan, the inputs stay live.
    assert!(store
        .compact_segments_killable(KillPoint::AfterSeal)
        .unwrap()
        .is_none());
    drop(store);
    assert_eq!(seg_files(&dir).len(), 4);
    let store = open(&dir, "base.adj");
    assert_eq!(seg_files(&dir).len(), 3, "merge orphan cleaned");
    assert_eq!(store.segments().len(), 3);
    assert_eq!(history(&store), before);

    // Crash after the manifest swap but before the input files are
    // reclaimed: the inputs are now orphans, the merge is live.
    let mut store = store;
    let report = store
        .compact_segments_killable(KillPoint::AfterManifest)
        .unwrap()
        .unwrap();
    assert_eq!(report.merged, 3);
    assert_eq!(report.reclaimed_files, 0);
    drop(store);
    assert_eq!(seg_files(&dir).len(), 4, "inputs linger after the crash");
    let store = open(&dir, "base.adj");
    assert_eq!(seg_files(&dir).len(), 1, "input orphans cleaned");
    assert_eq!(store.segments().len(), 1);
    assert_eq!(history(&store), before);
}

#[test]
fn crash_points_of_a_full_compaction_keep_one_consistent_base() {
    let dir = ScratchDir::new("kill-compact").unwrap();
    let mut store = open(&dir, "base.adj");
    store.append_ops(&[EdgeOp::Insert(0, 30)]).unwrap();
    store.roll_segment().unwrap().unwrap();
    store.append_ops(&[EdgeOp::Insert(1, 31)]).unwrap();
    let before = history(&store);
    let out = dir.file("base2.adj");

    // Crash after the temp file is finished, before the rename: the old
    // base is untouched, the target never appeared.
    let err = store
        .compact_as_killable(&out, CompactFormat::Plain, KillPoint::AfterSeal)
        .unwrap_err();
    assert!(err.to_string().contains("simulated crash"));
    drop(store);
    assert!(!out.exists(), "rename never happened");
    let store = open(&dir, "base.adj");
    assert_eq!(history(&store), before, "nothing lost");

    // Crash after the rename + manifest clear, before the WAL reset: the
    // new base is live and the leftover log replays idempotently — the
    // served graph is identical to a completed compaction's.
    let mut store = store;
    let err = store
        .compact_as_killable(&out, CompactFormat::Plain, KillPoint::AfterManifest)
        .unwrap_err();
    assert!(err.to_string().contains("simulated crash"));
    drop(store);
    assert!(out.exists());

    let (survivor, _) = UpdateStore::open(
        &out,
        &dir.file("edits.wal"),
        &dir.file("is.ckpt"),
        IoStats::shared(),
        4096,
    )
    .unwrap();
    // The WAL still holds both epochs; replaying them over the folded
    // base must change nothing (idempotent overlay).
    assert_eq!(survivor.wal().last_epoch(), 2);
    use mis_graph::GraphScan;
    let mut replayed = Vec::new();
    survivor
        .snapshot()
        .pinned()
        .scan(&mut |v, ns| {
            let mut s = ns.to_vec();
            s.sort_unstable();
            replayed.push((v, s));
        })
        .unwrap();
    let mut folded = Vec::new();
    survivor
        .base()
        .scan(&mut |v, ns| {
            let mut s = ns.to_vec();
            s.sort_unstable();
            folded.push((v, s));
        })
        .unwrap();
    assert_eq!(replayed, folded, "duplicate replay is a no-op");
}
