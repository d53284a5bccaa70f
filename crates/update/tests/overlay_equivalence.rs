//! The store's maintained overlay equals a replay of its history.
//!
//! Random valid op streams (inserts name absent pairs, deletes live
//! edges, with a hot set of pairs so insert → delete → insert chains
//! recur within and across epochs) run through an `UpdateStore` with
//! random roll, partial-compaction, reopen and full-compaction points.
//! At every epoch the pinned view of `snapshot()` must scan record for
//! record, in the same neighbour order, like
//!
//! * an overlay replayed from the store's committed operations,
//! * a store reopened from the files on disk, and
//! * the model edge set (as sorted neighbour lists),
//!
//! with equal `num_edges()` (the reopened store also with the same
//! record of the last batch); and every view pinned at an earlier epoch
//! must still scan exactly as it did when it was taken (copy-on-write
//! isolation).

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use mis_extmem::{IoStats, ScratchDir};
use mis_graph::{build_adj_file, AnyAdjFile, GraphScan, PinnedDelta, VertexId};
use mis_update::{EdgeOp, RollPolicy, UpdateStore};

/// Vertex universe of the base graph and the op streams.
const N: u32 = 40;
/// Pairs among the first `HOT` vertices are edited again and again.
const HOT: u32 = 8;

type Records = Vec<(VertexId, Vec<VertexId>)>;

/// Every record in scan order, neighbours as the view hands them out.
fn records<G: GraphScan + ?Sized>(g: &G) -> Records {
    let mut out = Vec::new();
    g.scan(&mut |v, ns| out.push((v, ns.to_vec()))).unwrap();
    out
}

/// The model edge set as ascending neighbour lists.
fn model_records(edges: &HashSet<(VertexId, VertexId)>) -> Records {
    let mut out: Records = (0..N).map(|v| (v, Vec::new())).collect();
    for &(u, v) in edges {
        out[u as usize].1.push(v);
        out[v as usize].1.push(u);
    }
    for (_, ns) in &mut out {
        ns.sort_unstable();
    }
    out
}

fn sorted(mut recs: Records) -> Records {
    for (_, ns) in &mut recs {
        ns.sort_unstable();
    }
    recs
}

/// SplitMix64: the test's own deterministic choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }
}

/// The store's files: the base moves on every full compaction.
struct Files {
    dir: ScratchDir,
    base: PathBuf,
}

impl Files {
    fn open(&self) -> UpdateStore {
        let (mut store, _) = UpdateStore::open(
            &self.base,
            &self.dir.file("edits.wal"),
            &self.dir.file("is.ckpt"),
            IoStats::shared(),
            4096,
        )
        .unwrap();
        // Rolls and merges happen only where the test says so.
        store.set_roll_policy(RollPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_epochs: u64::MAX,
            compact_threshold: usize::MAX,
        });
        store
    }
}

/// One valid batch of 1–8 ops, applied to the model as it is drawn.
fn batch(rng: &mut Rng, edges: &mut HashSet<(VertexId, VertexId)>) -> Vec<EdgeOp> {
    let len = 1 + rng.below(8);
    (0..len)
        .map(|_| {
            let span = if rng.below(2) == 0 { HOT } else { N };
            let u = rng.below(u64::from(span)) as VertexId;
            let v = (u + 1 + rng.below(u64::from(span) - 1) as VertexId) % span;
            let (u, v) = if rng.below(2) == 0 { (u, v) } else { (v, u) };
            let pair = (u.min(v), u.max(v));
            if edges.remove(&pair) {
                EdgeOp::Delete(u, v)
            } else {
                edges.insert(pair);
                EdgeOp::Insert(u, v)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn maintained_overlay_matches_replay_and_reopen(seed in any::<u64>(), epochs in 4usize..16) {
        let mut rng = Rng(seed);
        let graph = mis_gen::er::gnm(N as usize, 60, seed);
        let mut edges: HashSet<(VertexId, VertexId)> = graph.edges().collect();
        let dir = ScratchDir::new("overlay-equiv").unwrap();
        let mut files = Files { base: dir.file("base-0.adj"), dir };
        build_adj_file(&graph, &files.base, IoStats::shared(), 4096).unwrap();
        let mut store = files.open();
        let mut pinned: Vec<(PinnedDelta<AnyAdjFile>, Records)> = Vec::new();

        for epoch in 1..=epochs as u64 {
            let ops = batch(&mut rng, &mut edges);
            prop_assert_eq!(store.append_ops(&ops).unwrap().epoch, epoch);
            match rng.below(8) {
                0..=2 => {
                    store.roll_segment().unwrap();
                }
                3 => {
                    store.roll_segment().unwrap();
                    store.compact_segments().unwrap();
                }
                4 => {
                    drop(store);
                    store = files.open();
                }
                5 => {
                    files.base = files.dir.file(&format!("base-{epoch}.adj"));
                    store.compact(&files.base).unwrap();
                }
                _ => {}
            }

            let snap = store.snapshot();
            let view = snap.pinned();
            prop_assert_eq!(view.epoch(), epoch);
            let got = records(&view);

            // A replay of the store's durable history.
            let mut replay = PinnedDelta::new(snap.base().clone(), Arc::default(), 0);
            for (_, op) in store.committed_ops() {
                match op {
                    EdgeOp::Insert(u, v) => replay.insert_edge(u, v),
                    EdgeOp::Delete(u, v) => replay.delete_edge(u, v),
                }
            }
            prop_assert_eq!(&records(&replay), &got);
            prop_assert_eq!(replay.num_edges(), view.num_edges());

            // The model edge set, counted exactly (the stream is valid).
            prop_assert_eq!(sorted(got.clone()), model_records(&edges));
            prop_assert_eq!(view.num_edges(), edges.len() as u64);
            prop_assert_eq!(store.status().unwrap().live_edges, edges.len() as u64);

            // A second store opened from the same files.
            let reopened = files.open();
            let reopened_view = reopened.snapshot().pinned();
            prop_assert_eq!(reopened_view.epoch(), epoch);
            prop_assert_eq!(records(&reopened_view), got.clone());
            prop_assert_eq!(reopened_view.num_edges(), view.num_edges());
            // ... with the record of the last batch rebuilt from the log.
            prop_assert_eq!(reopened_view.overlay().last_batch(), view.overlay().last_batch());
            drop(reopened);

            // Views pinned earlier never move.
            for (old, recs) in &pinned {
                prop_assert_eq!(&records(old), recs);
            }
            pinned.push((view, got));
        }
    }
}
