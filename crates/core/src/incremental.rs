//! Incremental maintenance under edge insertions *and deletions* — the
//! paper's stated future-work direction ("how our solutions can be
//! extended to the incremental massive graphs with frequent updates").
//!
//! Strategy: keep the current independent set; after a batch of edge
//! updates (overlaid via [`mis_graph::PinnedDelta`], so the base file is
//! untouched), [`repair_updated_set_from_ops`]
//!
//! 1. **evicts** — only an inserted edge can connect two members, so the
//!    conflicts are the batch's inserted pairs whose endpoints are both
//!    in the set; each drops its higher endpoint, resolved in ascending
//!    order of that endpoint (deterministic, independent of batch order).
//!    A caller that no longer has the inserted pairs — its log was folded
//!    into the base — finds the same conflicts with one scan
//!    ([`conflicting_pairs`]);
//! 2. **recovers** — a bounded number of one-k-swap rounds wins back most
//!    of the evicted mass (Table 8's early-stop profile is exactly why a
//!    small round budget suffices), and the swap's post-swap 0↔1 and
//!    finalisation passes re-maximalise: a *deleted* edge can free a
//!    previously excluded vertex — its last independent-set neighbour is
//!    gone — and those vertices are swept into the set here;
//! 3. **proves** — optionally one more scan certifies that the repaired
//!    set is a maximal independent set of the edited graph, so callers
//!    (e.g. the `mis_update` maintenance engine) can checkpoint it
//!    without trusting the repair logic.
//!
//! Cost: `O(scan(|V|+|E|))` per batch instead of a from-scratch rebuild.

use std::io;

use mis_graph::{GraphScan, VertexId};

use crate::onek::OneKSwap;
use crate::result::{SwapConfig, SwapOutcome};
use crate::verify::is_maximal_independent_set;

/// Tuning for [`repair_updated_set_from_ops`].
#[derive(Debug, Clone, Copy)]
pub struct RepairConfig {
    /// One-k-swap round budget for the recover pass.
    pub recover_rounds: u32,
    /// Spend one extra scan proving maximality on the edited graph.
    pub verify: bool,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            recover_rounds: 2,
            verify: true,
        }
    }
}

/// Outcome of a deletion-aware incremental repair.
#[derive(Debug, Clone)]
pub struct UpdateRepairOutcome {
    /// The repaired run (set, scans, per-round stats).
    pub swap: SwapOutcome,
    /// Members evicted because an inserted edge connected them.
    pub evicted: u64,
    /// Whether the verification scan proved the repaired set maximal on
    /// the edited graph (`false` when [`RepairConfig::verify`] is off).
    pub maximality_proved: bool,
    /// Scans spent on the proof (0 or 1), *not* included in
    /// `swap.result.file_scans`.
    pub verify_scans: u64,
}

/// Every edge of `graph` whose endpoints are both in `set`, as
/// `(lower, higher)` pairs in scan order, found with one scan. These are
/// the conflicts [`repair_updated_set_from_ops`] resolves when the
/// inserted edges that caused them are no longer known.
pub fn conflicting_pairs<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
) -> io::Result<Vec<(VertexId, VertexId)>> {
    let mut member = vec![false; graph.num_vertices()];
    for &v in set {
        member[v as usize] = true;
    }
    let mut pairs = Vec::new();
    graph.scan(&mut |v, ns| {
        if member[v as usize] {
            pairs.extend(
                ns.iter()
                    .filter(|&&u| u < v && member[u as usize])
                    .map(|&u| (u, v)),
            );
        }
    })?;
    Ok(pairs)
}

/// Repairs `set` after a batch of edge insertions **and deletions**:
/// evict, bounded recover, re-maximalise, and optionally prove the result
/// maximal on `graph`, which must already reflect every update of the
/// batch (e.g. an epoch-pinned [`mis_graph::PinnedDelta`]).
///
/// The eviction pass walks the `inserted` pairs instead of scanning the
/// whole graph, so its cost is `O(|batch|)` rather than
/// `O(scan(|V|+|E|))` — the difference between a maintenance pass and a
/// serving-path epoch commit. `inserted` need not be deduplicated or
/// ordered, and may name pairs that do not conflict: conflicts are
/// resolved in ascending order of their higher endpoint, so chains of
/// conflicts (edges sharing a member endpoint) evict the same vertices
/// regardless of batch order.
pub fn repair_updated_set_from_ops<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
    inserted: &[(VertexId, VertexId)],
    config: RepairConfig,
) -> UpdateRepairOutcome {
    let n = graph.num_vertices();
    let mut member = vec![false; n];
    for &v in set {
        member[v as usize] = true;
    }

    // Only an inserted edge can connect two members, so conflicts are
    // found in the batch itself — no graph scan needed to evict. Each
    // conflict evicts its higher endpoint unless an earlier one already
    // evicted its lower endpoint; resolving them sorted by the higher
    // endpoint makes the outcome a function of the edge set alone.
    let mut conflicts: Vec<(VertexId, VertexId)> = inserted
        .iter()
        .filter(|&&(u, v)| u != v && member[u as usize] && member[v as usize])
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .collect();
    conflicts.sort_unstable_by_key(|&(lo, hi)| (hi, lo));
    conflicts.dedup();
    let mut evicted = 0u64;
    for (lo, hi) in conflicts {
        if member[lo as usize] && member[hi as usize] {
            member[hi as usize] = false;
            evicted += 1;
        }
    }

    let repaired: Vec<VertexId> = (0..n as VertexId).filter(|&v| member[v as usize]).collect();
    let swap_config = SwapConfig {
        max_rounds: Some(config.recover_rounds),
        ..SwapConfig::default()
    };
    // The swap's initial scan promotes vertices freed by deletions into
    // `A` states, and its finalisation pass guarantees maximality.
    let swap = OneKSwap::with_config(swap_config).run(graph, &repaired);

    let (maximality_proved, verify_scans) = if config.verify {
        (is_maximal_independent_set(graph, &swap.result.set), 1)
    } else {
        (false, 0)
    };
    UpdateRepairOutcome {
        swap,
        evicted,
        maximality_proved,
        verify_scans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::Greedy;
    use crate::verify::{is_independent_set, is_maximal_independent_set};
    use mis_graph::{CsrGraph, OrderedCsr, PinnedDelta};
    use std::sync::Arc;

    /// An empty overlay over a copy of `g`, ready to edit.
    fn edit(g: &CsrGraph) -> PinnedDelta<CsrGraph> {
        PinnedDelta::new(g.clone(), Arc::default(), 0)
    }

    /// The repair fed by a conflict scan instead of the batch's inserts.
    fn scan_repair<G: GraphScan + ?Sized>(
        graph: &G,
        set: &[VertexId],
        config: RepairConfig,
    ) -> UpdateRepairOutcome {
        let conflicts = conflicting_pairs(graph, set).unwrap();
        repair_updated_set_from_ops(graph, set, &conflicts, config)
    }

    #[test]
    fn repairs_a_conflicting_pair() {
        // Path 0-1-2-3 with IS {0, 2}; inserting (0, 2) must evict 2 and
        // recover with 3.
        let g = mis_gen::special::path(4);
        let mut delta = edit(&g);
        delta.insert_edge(0, 2);
        let out = repair_updated_set_from_ops(&delta, &[0, 2], &[(0, 2)], RepairConfig::default());
        assert_eq!(out.evicted, 1);
        assert!(out.maximality_proved);
        assert!(out.swap.result.set.contains(&0));
        assert!(out.swap.result.set.contains(&3));
    }

    #[test]
    fn conflicting_pairs_names_each_conflicting_edge_once() {
        // Path 0-1-2-3-4-5 plus inserted (0, 2) and (2, 4): with the set
        // {0, 2, 4, 5}, the conflicts are (0,2), (2,4) and the base edge
        // (4,5), each named once, lower endpoint first.
        let g = mis_gen::special::path(6);
        let mut delta = edit(&g);
        delta.insert_edge(0, 2);
        delta.insert_edge(4, 2);
        let mut pairs = conflicting_pairs(&delta, &[0, 2, 4, 5]).unwrap();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 2), (2, 4), (4, 5)]);
        assert!(conflicting_pairs(&g, &[0, 2, 4]).unwrap().is_empty());
    }

    #[test]
    fn deletion_frees_an_excluded_vertex() {
        // Triangle 0-1-2 with IS {0}: deleting (0, 2) leaves vertex 2
        // with no IS neighbour, so the repair must sweep it in.
        let g = mis_gen::special::cycle(3);
        let mut delta = edit(&g);
        delta.delete_edge(0, 2);
        let out = repair_updated_set_from_ops(&delta, &[0], &[], RepairConfig::default());
        assert_eq!(out.evicted, 0);
        assert!(out.maximality_proved);
        assert_eq!(out.verify_scans, 1);
        assert_eq!(out.swap.result.set, vec![0, 2]);
    }

    #[test]
    fn mixed_inserts_and_deletes_repair_to_a_proven_maximal_set() {
        let g = mis_gen::plrg::Plrg::with_vertices(3_000, 2.1)
            .seed(11)
            .generate();
        let sorted = OrderedCsr::degree_sorted(&g);
        let initial = Greedy::new().run(&sorted).set;

        // Edit: connect some IS members (forcing evictions) and delete a
        // slice of real edges (freeing excluded vertices).
        let mut delta = edit(&g);
        let mut inserted = Vec::new();
        for pair in initial.chunks_exact(2).take(50) {
            delta.insert_edge(pair[0], pair[1]);
            inserted.push((pair[0], pair[1]));
        }
        let mut deleted = 0;
        g.scan(&mut |v, ns| {
            if deleted < 100 {
                if let Some(&u) = ns.iter().find(|&&u| u > v) {
                    delta.delete_edge(v, u);
                    deleted += 1;
                }
            }
        })
        .unwrap();
        assert!(delta.overlay().deleted_edges() > 0);

        let out = repair_updated_set_from_ops(&delta, &initial, &inserted, RepairConfig::default());
        assert!(out.evicted > 0, "conflicting insertions must evict");
        assert!(out.maximality_proved, "proof scan must pass");
        assert!(is_independent_set(&delta, &out.swap.result.set));
    }

    #[test]
    fn no_op_when_no_conflicts() {
        let g = mis_gen::special::path(6);
        let sorted = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&sorted);
        let out = scan_repair(&g, &greedy.set, RepairConfig::default());
        assert_eq!(out.evicted, 0);
        assert!(out.swap.result.set.len() >= greedy.set.len());
    }

    #[test]
    fn verify_flag_controls_proof_scan() {
        let g = mis_gen::special::path(6);
        let out = repair_updated_set_from_ops(
            &g,
            &[0],
            &[],
            RepairConfig {
                recover_rounds: 1,
                verify: false,
            },
        );
        assert!(!out.maximality_proved);
        assert_eq!(out.verify_scans, 0);
    }

    #[test]
    fn batch_insertions_on_power_law_graph() {
        let g = mis_gen::plrg::Plrg::with_vertices(5_000, 2.1)
            .seed(4)
            .generate();
        let sorted = OrderedCsr::degree_sorted(&g);
        let initial = Greedy::new().run(&sorted).set;
        assert!(is_maximal_independent_set(&g, &initial));

        // Insert 200 random edges between current IS members (worst case:
        // every insertion conflicts).
        let mut delta = edit(&g);
        let mut inserted = Vec::new();
        let mut s = 12345u64;
        while inserted.len() < 200 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = initial[(s >> 16) as usize % initial.len()];
            let b = initial[(s >> 40) as usize % initial.len()];
            if a != b {
                delta.insert_edge(a, b);
                inserted.push((a, b));
            }
        }

        let config = RepairConfig {
            recover_rounds: 3,
            verify: true,
        };
        let out = repair_updated_set_from_ops(&delta, &initial, &inserted, config);
        assert!(out.evicted > 0, "conflicting insertions must evict");
        let repaired = &out.swap.result.set;
        assert!(is_independent_set(&delta, repaired));
        assert!(out.maximality_proved);

        // The repair must recover most of the loss relative to a full
        // recompute on the updated graph (materialised for the oracle).
        let mut b = mis_graph::GraphBuilder::new(delta.num_vertices());
        delta
            .scan(&mut |v, ns| {
                for &u in ns {
                    b.add_edge(v, u);
                }
            })
            .unwrap();
        let updated = b.build();
        let fresh = Greedy::new().run(&OrderedCsr::degree_sorted(&updated));
        assert!(
            repaired.len() as f64 >= 0.98 * fresh.set.len() as f64,
            "repair {} vs fresh {}",
            repaired.len(),
            fresh.set.len()
        );
    }

    #[test]
    fn op_driven_repair_matches_the_scan_driven_repair() {
        let g = mis_gen::plrg::Plrg::with_vertices(4_000, 2.1)
            .seed(23)
            .generate();
        let sorted = OrderedCsr::degree_sorted(&g);
        let initial = Greedy::new().run(&sorted).set;

        let mut delta = edit(&g);
        let mut inserted = Vec::new();
        for pair in initial.chunks_exact(2).take(40) {
            delta.insert_edge(pair[0], pair[1]);
            inserted.push((pair[0], pair[1]));
        }
        let mut deleted = 0;
        g.scan(&mut |v, ns| {
            if deleted < 60 {
                if let Some(&u) = ns.iter().find(|&&u| u > v) {
                    delta.delete_edge(v, u);
                    deleted += 1;
                }
            }
        })
        .unwrap();

        let scanned = scan_repair(&delta, &initial, RepairConfig::default());
        let from_ops =
            repair_updated_set_from_ops(&delta, &initial, &inserted, RepairConfig::default());
        // The scan finds exactly the batch's conflicts → identical sets.
        assert!(scanned.evicted > 0);
        assert_eq!(from_ops.evicted, scanned.evicted);
        assert_eq!(from_ops.swap.result.set, scanned.swap.result.set);
        assert!(from_ops.maximality_proved);
        // Neither side spends a swap scan on eviction.
        assert_eq!(
            from_ops.swap.result.file_scans,
            scanned.swap.result.file_scans
        );

        // Duplicates and reversed pairs do not double-evict.
        let mut noisy = inserted.clone();
        noisy.extend(inserted.iter().map(|&(u, v)| (v, u)));
        let dup = repair_updated_set_from_ops(&delta, &initial, &noisy, RepairConfig::default());
        assert_eq!(dup.evicted, scanned.evicted);
        assert_eq!(dup.swap.result.set, scanned.swap.result.set);
    }

    #[test]
    fn chained_conflicts_evict_identically_in_any_batch_order() {
        // Members 0 < 2 < 4 on a path, with inserted edges (0,2) and
        // (2,4) sharing member 2. Resolving by ascending higher endpoint
        // evicts only 2 — by the time (2,4) is resolved, 2 is already
        // out. A naive batch-order replay of [(2,4), (0,2)] would evict
        // both 2 and 4; every order must match the scan-fed repair.
        let g = mis_gen::special::path(6);
        let initial = vec![0, 2, 4];
        let mut delta = edit(&g);
        delta.insert_edge(0, 2);
        delta.insert_edge(2, 4);

        let scanned = scan_repair(&delta, &initial, RepairConfig::default());
        assert_eq!(scanned.evicted, 1);

        for batch in [
            vec![(0, 2), (2, 4)],
            vec![(2, 4), (0, 2)],
            vec![(4, 2), (2, 0)],
            vec![(2, 4), (2, 4), (0, 2)],
        ] {
            let ops =
                repair_updated_set_from_ops(&delta, &initial, &batch, RepairConfig::default());
            assert_eq!(ops.evicted, scanned.evicted, "batch {batch:?}");
            assert_eq!(
                ops.swap.result.set, scanned.swap.result.set,
                "batch {batch:?}"
            );
            assert!(ops.maximality_proved);
        }
    }

    #[test]
    fn repair_is_idempotent() {
        let g = mis_gen::er::gnm(500, 1500, 7);
        let initial = Greedy::new().run(&g).set;
        let config = RepairConfig {
            recover_rounds: 2,
            verify: false,
        };
        let once = scan_repair(&g, &initial, config);
        let twice = scan_repair(&g, &once.swap.result.set, config);
        assert_eq!(twice.evicted, 0);
        assert!(twice.swap.result.set.len() >= once.swap.result.set.len());
    }
}
