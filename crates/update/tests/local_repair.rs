//! The local epoch repair keeps a proved maximal independent set.
//!
//! Small PLRG and ER bases, written in id order or degree-sorted, take
//! 10–20 churn batches through an `UpdateStore`. Two chains start from
//! the store's bootstrap checkpoint:
//!
//! * the local chain repairs every epoch on the store's pinned view,
//!   which carries the record of the batch and the store's point-access
//!   handle;
//! * the whole-graph chain repairs the same epochs on the view with its
//!   record hidden.
//!
//! At every epoch the local repair must take the local path, start no
//! accounted scan, report its proof, and pass a full-scan audit on the
//! pinned view. At the last epoch, on PLRG bases, its set must hold at
//! least 99.5% of the whole-graph chain's members.
//!
//! On ER bases the local chain ends up to about 2% smaller, and the
//! bound there is 97.5%. A local repair finds the 1↔k moves its batch
//! created, but never the ones it did not: a degree-sorted ER base
//! bootstraps with Greedy alone, about 4–5% below one-k's fixpoint, and
//! the whole-graph chain closes that gap in its first epoch; from an
//! id-ordered base the chains start equal and drift apart by one or two
//! members per epoch under this heavy churn (1.2% of the edges a batch),
//! as the two paths settle into different local optima.

use std::sync::Arc;

use proptest::prelude::*;

use mis_core::{
    is_maximal_independent_set, repair_updated_set_from_ops, try_repair_updated_set_from_ops,
    RepairConfig,
};
use mis_extmem::{IoStats, ScratchDir, SortConfig};
use mis_gen::{churn_stream, ChurnKind};
use mis_graph::{build_adj_file, degree_sort_adj_file, CsrGraph, GraphScan};

use mis_update::{Checkpoint, EdgeOp, UpdateStore};

/// The store over `graph`, written in id order or degree-sorted.
fn store(dir: &ScratchDir, graph: &CsrGraph, sorted: bool, stats: &Arc<IoStats>) -> UpdateStore {
    let base = dir.file("base.adj");
    if sorted {
        let raw = build_adj_file(graph, &dir.file("raw.adj"), IoStats::shared(), 4096).unwrap();
        degree_sort_adj_file(&raw, &base, &SortConfig::default(), dir).unwrap();
    } else {
        build_adj_file(graph, &base, IoStats::shared(), 4096).unwrap();
    }
    let (store, _) = UpdateStore::open(
        &base,
        &dir.file("edits.wal"),
        &dir.file("is.ckpt"),
        Arc::clone(stats),
        4096,
    )
    .unwrap();
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn local_repairs_stay_proved_and_near_the_whole_graph_repair(
        seed in any::<u64>(),
        epochs in 10usize..21,
        plrg in any::<bool>(),
        sorted in any::<bool>(),
    ) {
        let graph = if plrg {
            mis_gen::plrg::Plrg::with_vertices(3_000, 2.0).seed(seed).generate()
        } else {
            mis_gen::er::gnm(2_000, 5_000, seed)
        };
        let dir = ScratchDir::new("local-repair").unwrap();
        let stats = IoStats::shared();
        let mut store = store(&dir, &graph, sorted, &stats);
        let config = RepairConfig::default();
        prop_assert!(store.apply(config).unwrap().maximality_proved);
        let mut local = Checkpoint::load(store.checkpoint_path(), &stats).unwrap().set;
        let mut whole = local.clone();

        for ops in churn_stream(&graph, epochs * 60, 0.3, seed ^ 0x10ca1).chunks(60) {
            let ops: Vec<EdgeOp> = ops
                .iter()
                .map(|op| match op.kind {
                    ChurnKind::Insert => EdgeOp::Insert(op.u, op.v),
                    ChurnKind::Delete => EdgeOp::Delete(op.v, op.u),
                })
                .collect();
            let epoch = store.append_ops(&ops).unwrap().epoch;
            let view = store.snapshot().pinned();
            let (batch, _) = view.last_batch().expect("the view carries the record");
            prop_assert_eq!(batch.epoch(), epoch);
            let inserted = batch.inserted().to_vec();

            let scans = stats.snapshot().scans_started;
            let out = try_repair_updated_set_from_ops(&view, &local, &inserted, config).unwrap();
            prop_assert_eq!(stats.snapshot().scans_started, scans, "epoch {}", epoch);
            prop_assert!(out.local && out.maximality_proved, "epoch {}", epoch);
            prop_assert_eq!(out.swap.result.file_scans + out.verify_scans, 0);
            prop_assert!(is_maximal_independent_set(&view, &out.swap.result.set), "epoch {}", epoch);
            local = out.swap.result.set;

            let stripped = view.without_last_batch();
            let out = repair_updated_set_from_ops(&stripped, &whole, &inserted, config);
            prop_assert!(!out.local && out.maximality_proved, "epoch {}", epoch);
            whole = out.swap.result.set;
        }
        let floor = if plrg { 995 } else { 975 };
        prop_assert!(
            local.len() * 1000 >= whole.len() * floor,
            "local |IS| {} vs whole-graph |IS| {}",
            local.len(),
            whole.len()
        );
    }
}
