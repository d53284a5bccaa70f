//! The one repair keeps a proved maximal independent set.
//!
//! Small PLRG and ER bases, written in id order or degree-sorted, take
//! 10–20 churn batches through an `UpdateStore`. Three chains start from
//! the store's bootstrap checkpoint:
//!
//! * the gap-free chain repairs every epoch from the batch record on the
//!   store's pinned view, which also carries the store's point-access
//!   handle;
//! * the gap chain skips every third epoch and repairs the next one two
//!   epochs behind, where the record does not reach back to its set;
//! * the reference chain repairs every epoch over full scans
//!   (`common::one_k_reference`: eviction, early-stopped one-k rounds,
//!   proof).
//!
//! Every repair must report its proof and pass a full-scan audit on the
//! pinned view. One epoch behind it starts no accounted scan; two epochs
//! behind, exactly one, the violation scan. At the last epoch, on PLRG
//! bases, the gap-free chain must hold at least 99.5% of the reference
//! chain's members and the gap chain 99.0%.
//!
//! On ER bases the bounds are 97.5% and 97.0%. A repair finds the 1↔k
//! moves its batch created, but never the ones it did not: a
//! degree-sorted ER base bootstraps with Greedy alone, about 4–5% below
//! one-k's fixpoint, and the reference chain closes that gap in its first
//! epoch; from an id-ordered base the chains start equal and drift apart
//! by one or two members per epoch under this heavy churn (1.2% of the
//! edges a batch), as the repairs settle into different local optima.
//!
//! A second property reads every record by scans instead, through a view
//! that hides its point reads, and must produce the same sets on the
//! record path and on the violation path.

mod common;

use std::io;
use std::sync::Arc;

use proptest::prelude::*;

use mis_core::{is_maximal_independent_set, try_repair_since, RepairConfig};
use mis_extmem::{IoStats, ScratchDir, SortConfig};
use mis_gen::{churn_stream, ChurnKind};
use mis_graph::{
    build_adj_file, degree_sort_adj_file, CsrGraph, GraphScan, LastBatch, NeighborAccess, VertexId,
};

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

/// A PLRG base of 3k vertices or an ER base of 2k.
fn base(seed: u64, plrg: bool) -> CsrGraph {
    if plrg {
        mis_gen::plrg::Plrg::with_vertices(3_000, 2.0)
            .seed(seed)
            .generate()
    } else {
        mis_gen::er::gnm(2_000, 5_000, seed)
    }
}

/// `epochs` batches of 60 churn operations over `graph`.
fn batches(graph: &CsrGraph, epochs: usize, seed: u64) -> Vec<Vec<EdgeOp>> {
    churn_stream(graph, epochs * 60, 0.3, seed ^ 0x10ca1)
        .chunks(60)
        .map(|ops| {
            ops.iter()
                .map(|op| match op.kind {
                    ChurnKind::Insert => EdgeOp::Insert(op.u, op.v),
                    ChurnKind::Delete => EdgeOp::Delete(op.v, op.u),
                })
                .collect()
        })
        .collect()
}

/// `graph` with its point reads hidden, so a repair reads every record
/// it needs by scans.
struct ScanReads<'a, G>(&'a G);

impl<G: GraphScan> GraphScan for ScanReads<'_, G> {
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }

    fn num_edges(&self) -> u64 {
        self.0.num_edges()
    }

    fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
        self.0.scan(f)
    }

    fn last_batch(&self) -> Option<&LastBatch> {
        self.0.last_batch()
    }

    fn point_reads(&self) -> Option<&dyn NeighborAccess> {
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn local_repairs_stay_proved_and_near_the_one_k_reference(
        seed in any::<u64>(),
        epochs in 10usize..21,
        plrg in any::<bool>(),
        sorted in any::<bool>(),
    ) {
        let graph = base(seed, plrg);
        let dir = ScratchDir::new("local-repair").unwrap();
        let stats = IoStats::shared();
        let mut store = store(&dir, &graph, sorted, &stats);
        let config = RepairConfig::default();
        prop_assert!(store.apply(config).unwrap().maximality_proved);
        let mut local = Checkpoint::load(store.checkpoint_path(), &stats).unwrap().set;
        let (mut gapped, mut gapped_epoch) = (local.clone(), 0);
        let mut reference = local.clone();

        let batches = batches(&graph, epochs, seed);
        for (i, ops) in batches.iter().enumerate() {
            let epoch = store.append_ops(ops).unwrap().epoch;
            let view = store.snapshot().pinned();
            let batch = view.last_batch().expect("the view carries the record");
            prop_assert_eq!(batch.epoch(), epoch);

            let scans = stats.snapshot().scans_started;
            let out = try_repair_since(&view, &local, epoch - 1, config).unwrap();
            prop_assert_eq!(stats.snapshot().scans_started, scans, "epoch {}", epoch);
            prop_assert_eq!(out.swap.result.file_scans, 0);
            prop_assert!(out.maximality_proved, "epoch {}", epoch);
            prop_assert!(is_maximal_independent_set(&view, &out.swap.result.set), "epoch {}", epoch);
            local = out.swap.result.set;

            if i % 3 != 1 || i + 1 == batches.len() {
                let behind = epoch - gapped_epoch;
                let scans = stats.snapshot().scans_started;
                let out = try_repair_since(&view, &gapped, gapped_epoch, config).unwrap();
                let scanned = u64::from(behind > 1);
                prop_assert_eq!(stats.snapshot().scans_started - scans, scanned, "epoch {}", epoch);
                prop_assert_eq!(out.swap.result.file_scans, scanned);
                prop_assert!(out.maximality_proved, "epoch {}", epoch);
                prop_assert!(is_maximal_independent_set(&view, &out.swap.result.set), "epoch {}", epoch);
                gapped = out.swap.result.set;
                gapped_epoch = epoch;
            }

            let (set, _, proved) = common::one_k_reference(&view, &reference, batch.inserted(), config);
            prop_assert!(proved, "epoch {}", epoch);
            reference = set;
        }
        let (floor, gap_floor) = if plrg { (995, 990) } else { (975, 970) };
        prop_assert!(
            local.len() * 1000 >= reference.len() * floor,
            "gap-free |IS| {} vs reference |IS| {}",
            local.len(),
            reference.len()
        );
        prop_assert!(
            gapped.len() * 1000 >= reference.len() * gap_floor,
            "gap |IS| {} vs reference |IS| {}",
            gapped.len(),
            reference.len()
        );
    }

    #[test]
    fn scan_reads_repair_exactly_as_point_reads(
        seed in any::<u64>(),
        plrg in any::<bool>(),
        sorted in any::<bool>(),
    ) {
        let graph = base(seed, plrg);
        let dir = ScratchDir::new("scan-reads").unwrap();
        let stats = IoStats::shared();
        let mut store = store(&dir, &graph, sorted, &stats);
        let config = RepairConfig::default();
        store.apply(config).unwrap();
        let mut sets = vec![Checkpoint::load(store.checkpoint_path(), &stats).unwrap().set];
        for ops in batches(&graph, 12, seed) {
            let epoch = store.append_ops(&ops).unwrap().epoch;
            let view = store.snapshot().pinned();
            prop_assert!(view.point_reads().is_some());
            // One epoch behind: the record path; two behind: the
            // violation path.
            for behind in [1, 2] {
                let Some(from) = epoch.checked_sub(behind) else { continue };
                let set = &sets[from as usize];
                let point = try_repair_since(&view, set, from, config).unwrap();
                let scan = try_repair_since(&ScanReads(&view), set, from, config).unwrap();
                prop_assert_eq!(&scan.swap.result.set, &point.swap.result.set, "epoch {} behind {}", epoch, behind);
                prop_assert_eq!(scan.evicted, point.evicted);
                prop_assert!(scan.maximality_proved && point.maximality_proved);
                prop_assert!(scan.swap.result.file_scans > point.swap.result.file_scans);
                let most = if behind == 1 { 3 } else { 4 } + 3 * u64::from(config.recover_rounds);
                prop_assert!(scan.swap.result.file_scans <= most, "{} scans", scan.swap.result.file_scans);
            }
            let next = try_repair_since(&view, &sets[epoch as usize - 1], epoch - 1, config).unwrap();
            sets.push(next.swap.result.set);
        }
    }
}
