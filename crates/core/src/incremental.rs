//! Incremental maintenance under edge insertions *and deletions* — the
//! paper's stated future-work direction ("how our solutions can be
//! extended to the incremental massive graphs with frequent updates").
//!
//! [`try_repair_updated_set_from_ops`] takes the set proved at the epoch
//! before a batch, the batch's inserted pairs and a view that already
//! reflects the batch (e.g. an epoch-pinned [`mis_graph::PinnedDelta`]),
//! and returns a proved maximal independent set of that view;
//! [`try_repair_since`] picks its inputs from the set's epoch, for the
//! maintenance engine and the serve engine alike. It has two paths,
//! which both start by **evicting**: only an inserted edge can
//! connect two members, so the conflicts are the inserted pairs whose
//! endpoints are both in the set; each drops its higher endpoint,
//! resolved in ascending order of that endpoint (deterministic,
//! independent of batch order). A caller that no longer has the inserted
//! pairs — its log was folded into the base — finds the same conflicts
//! with one scan ([`conflicting_pairs`]).
//!
//! ## The local path
//!
//! When the view carries the record of the one batch since the set's
//! epoch and point reads of its records ([`GraphScan::last_batch`]),
//! the repair reads only what that batch could have changed, and starts
//! no accounted scan:
//!
//! 1. **refill** — the frontier is the batch's touched vertices plus the
//!    evicted members and their neighbours, the only vertices that can
//!    have lost their last member neighbour. Visited in storage order, a
//!    non-member with no member neighbour joins;
//! 2. **recover** — up to [`RepairConfig::recover_rounds`] rounds of
//!    one-k's 1↔k move, only where the batch could have created one
//!    (Table 8's early-stop profile is why a small round budget
//!    suffices). Round one's candidates are the members that are the
//!    only member neighbour of a deleted edge's endpoint, an evicted
//!    member or one of its neighbours; a later round's, of a vertex the
//!    round before moved or one of its neighbours;
//! 3. **certify** — every vertex the batch touched or whose closed
//!    neighbourhood changed membership must be a member with no member
//!    neighbour or a non-member with one. Every other vertex kept its
//!    adjacency and its neighbours' membership, so with the previous
//!    epoch proved this proves the whole set.
//!
//! Each record is read at most once per repair, into one arena, and each
//! step reads its records in storage order. Cost: point reads of the
//! batch's two-hop neighbourhood, independent of `|V|` apart from the
//! `O(|V|)` membership array and set collect. If the certificate fails
//! (say, `inserted` missed one of the batch's inserted pairs), the
//! whole-graph path runs on the same view.
//!
//! ## The whole-graph path
//!
//! Every other view takes today's scans:
//!
//! 1. **recover** — a bounded number of one-k-swap rounds wins back most
//!    of the evicted mass, and the swap's post-swap 0↔1 and finalisation
//!    passes re-maximalise: a *deleted* edge can free a previously
//!    excluded vertex — its last independent-set neighbour is gone — and
//!    those vertices are swept into the set here;
//! 2. **prove** — optionally one more scan certifies that the repaired
//!    set is a maximal independent set of the edited graph, so callers
//!    (e.g. the `mis_update` maintenance engine) can checkpoint it
//!    without trusting the repair logic.
//!
//! Cost: `O(scan(|V|+|E|))` per batch instead of a from-scratch rebuild.

use std::io;

use mis_graph::hash::FxHashMap;
use mis_graph::{GraphScan, LastBatch, NeighborAccess, VertexId};

use crate::onek::OneKSwap;
use crate::result::{MemoryModel, MisResult, RoundStats, SwapConfig, SwapOutcome, SwapStats};
use crate::verify::is_maximal_independent_set;

/// Tuning for [`repair_updated_set_from_ops`].
#[derive(Debug, Clone, Copy)]
pub struct RepairConfig {
    /// One-k-swap round budget for the recover pass.
    pub recover_rounds: u32,
    /// Report the repaired set's proof: one extra scan on the
    /// whole-graph path, the local certificate on the local path.
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
    /// Whether the proof certified the repaired set maximal on the
    /// edited graph (`false` when [`RepairConfig::verify`] is off).
    pub maximality_proved: bool,
    /// Scans spent on the proof (0 or 1), *not* included in
    /// `swap.result.file_scans`.
    pub verify_scans: u64,
    /// Whether the local path produced the set (no accounted scan), as
    /// opposed to the whole-graph path.
    pub local: bool,
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

/// [`try_repair_updated_set_from_ops`], panicking on a failed point
/// read.
pub fn repair_updated_set_from_ops<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
    inserted: &[(VertexId, VertexId)],
    config: RepairConfig,
) -> UpdateRepairOutcome {
    try_repair_updated_set_from_ops(graph, set, inserted, config).expect("point read failed")
}

/// Repairs `set`, proved maximal at the epoch before a batch of edge
/// insertions **and deletions**, on `graph`, which must already reflect
/// every update of the batch: evict, refill, bounded recover, and prove
/// (see the [module docs](self) for both paths).
///
/// `inserted` must name every pair the batch left inserted; it need not
/// be deduplicated or ordered, and may name pairs that do not conflict:
/// conflicts are resolved in ascending order of their higher endpoint,
/// so chains of conflicts (edges sharing a member endpoint) evict the
/// same vertices regardless of batch order.
///
/// A view whose [`GraphScan::last_batch`] is `Some` takes the local
/// path, so its record must be the batch since `set`'s epoch; hide it
/// ([`mis_graph::PinnedDelta::without_last_batch`]) otherwise. Point-read
/// errors of the local path are returned; the whole-graph path still
/// panics on a failed scan.
pub fn try_repair_updated_set_from_ops<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
    inserted: &[(VertexId, VertexId)],
    config: RepairConfig,
) -> io::Result<UpdateRepairOutcome> {
    if let Some((batch, reads)) = graph.last_batch() {
        let local = local_repair(graph.num_vertices(), batch, reads, set, inserted, config)?;
        if let Some(out) = local {
            return Ok(out);
        }
    }
    let _span = mis_obs::span("repair", "repair.whole_graph");
    Ok(whole_graph_repair(graph, set, inserted, config))
}

/// Repairs `set`, proved maximal at epoch `set_epoch`, on `graph`,
/// which reflects every batch committed since: locally, fed the record's
/// inserted pairs, when the view's [`GraphScan::last_batch`] is the one
/// batch after `set_epoch`; otherwise on the whole graph, fed the
/// conflicts of one scan ([`conflicting_pairs`]), since the batches
/// since `set_epoch` are not known. Errors of that scan and of point
/// reads are returned.
pub fn try_repair_since<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
    set_epoch: u64,
    config: RepairConfig,
) -> io::Result<UpdateRepairOutcome> {
    match graph.last_batch() {
        Some((batch, _)) if batch.epoch() == set_epoch + 1 => {
            try_repair_updated_set_from_ops(graph, set, batch.inserted(), config)
        }
        _ => {
            let conflicts = conflicting_pairs(graph, set)?;
            let _span = mis_obs::span("repair", "repair.whole_graph");
            Ok(whole_graph_repair(graph, set, &conflicts, config))
        }
    }
}

/// Evicts the members `inserted` connects: each conflict evicts its
/// higher endpoint unless an earlier one already evicted its lower
/// endpoint; resolving them sorted by the higher endpoint makes the
/// outcome a function of the edge set alone. Returns the evicted
/// vertices.
fn evict(member: &mut [bool], inserted: &[(VertexId, VertexId)]) -> Vec<VertexId> {
    let mut conflicts: Vec<(VertexId, VertexId)> = inserted
        .iter()
        .filter(|&&(u, v)| u != v && member[u as usize] && member[v as usize])
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .collect();
    conflicts.sort_unstable_by_key(|&(lo, hi)| (hi, lo));
    conflicts.dedup();
    let mut evicted = Vec::new();
    for (lo, hi) in conflicts {
        if member[lo as usize] && member[hi as usize] {
            member[hi as usize] = false;
            evicted.push(hi);
        }
    }
    evicted
}

/// The whole-graph path: evict, one-k rounds over full scans, and the
/// proof scan.
fn whole_graph_repair<G: GraphScan + ?Sized>(
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
    // found in the batch itself — no graph scan needed to evict.
    let evicted = evict(&mut member, inserted).len() as u64;

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
        local: false,
    }
}

/// Neighbour lists read by point reads, each at most once per repair,
/// kept in one arena.
struct Arena<'a> {
    reads: &'a dyn NeighborAccess,
    /// Per read vertex: its storage-order rank and its list's range in
    /// `nbrs`. Only looked up, never iterated.
    at: FxHashMap<VertexId, (u64, usize, usize)>,
    nbrs: Vec<VertexId>,
}

impl<'a> Arena<'a> {
    fn new(reads: &'a dyn NeighborAccess) -> Self {
        Self {
            reads,
            at: FxHashMap::default(),
            nbrs: Vec::new(),
        }
    }

    /// Sorts `vs` into storage order without duplicates, then reads every
    /// list the arena lacks in that order, so the pager sees each page
    /// at most once per call.
    fn read_all(&mut self, vs: &mut Vec<VertexId>) -> io::Result<()> {
        let reads = self.reads;
        let rank = |v| {
            self.at
                .get(&v)
                .map_or_else(|| reads.record_rank(v), |e| e.0)
        };
        let mut keyed: Vec<(u64, VertexId)> = vs.iter().map(|&v| (rank(v), v)).collect();
        keyed.sort_unstable();
        keyed.dedup();
        vs.clear();
        vs.extend(keyed.iter().map(|&(_, v)| v));
        for (rank, v) in keyed {
            if self.at.contains_key(&v) {
                continue;
            }
            let start = self.nbrs.len();
            let nbrs = &mut self.nbrs;
            reads.with_neighbors(v, &mut |ns| nbrs.extend_from_slice(ns))?;
            self.at.insert(v, (rank, start, self.nbrs.len()));
        }
        Ok(())
    }

    /// `v`'s neighbours; `v` must have been read.
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (_, start, end) = self.at[&v];
        &self.nbrs[start..end]
    }

    /// `v`'s storage-order rank; `v` must have been read.
    fn rank(&self, v: VertexId) -> u64 {
        self.at[&v].0
    }

    /// The neighbours of every vertex in `vs`, each of which must have
    /// been read.
    fn around(&self, vs: &[VertexId]) -> Vec<VertexId> {
        vs.iter()
            .flat_map(|&v| self.neighbors(v).iter().copied())
            .collect()
    }
}

/// The only member among `ns`, if exactly one is.
fn only_member(ns: &[VertexId], member: &[bool]) -> Option<VertexId> {
    let mut members = ns.iter().copied().filter(|&u| member[u as usize]);
    let first = members.next()?;
    members.next().is_none().then_some(first)
}

/// One 1↔k move in the evaluate-then-apply shape of a local-search move
/// ([`OneKMove::delta`], then [`OneKMove::perform`]): member `out`
/// leaves the set and the mutually non-adjacent vertices `take` join.
struct OneKMove {
    out: VertexId,
    take: Vec<VertexId>,
}

impl OneKMove {
    /// Evaluates moving member `w` out against the current membership.
    /// Its A-vertices — non-members whose only member neighbour is `w` —
    /// are taken greedily in storage order, each one not adjacent to
    /// those taken before. A move takes at least two, so it gains at
    /// least one member.
    fn delta(w: VertexId, arena: &Arena<'_>, member: &[bool]) -> Option<Self> {
        if !member[w as usize] {
            return None;
        }
        let mut a_vertices: Vec<VertexId> = arena
            .neighbors(w)
            .iter()
            .copied()
            .filter(|&u| !member[u as usize] && only_member(arena.neighbors(u), member) == Some(w))
            .collect();
        a_vertices.sort_unstable_by_key(|&u| (arena.rank(u), u));
        let mut take: Vec<VertexId> = Vec::new();
        for u in a_vertices {
            if !arena.neighbors(u).iter().any(|x| take.contains(x)) {
                take.push(u);
            }
        }
        (take.len() >= 2).then_some(Self { out: w, take })
    }

    /// Applies the move, appending every vertex it moved to `moved`.
    fn perform(self, member: &mut [bool], moved: &mut Vec<VertexId>) {
        member[self.out as usize] = false;
        for &u in &self.take {
            member[u as usize] = true;
        }
        moved.push(self.out);
        moved.extend(self.take);
    }
}

/// The local path (see the [module docs](self)); `Ok(None)` when the
/// certificate fails.
fn local_repair(
    n: usize,
    batch: &LastBatch,
    reads: &dyn NeighborAccess,
    set: &[VertexId],
    inserted: &[(VertexId, VertexId)],
    config: RepairConfig,
) -> io::Result<Option<UpdateRepairOutcome>> {
    let mut member = {
        let _span = mis_obs::span("repair", "repair.members");
        let mut member = vec![false; n];
        for &v in set {
            member[v as usize] = true;
        }
        member
    };
    let mut arena = Arena::new(reads);

    // Evict, then refill the frontier in storage order.
    let (evicted, joined, mut seeds) = {
        let _span = mis_obs::span("repair", "repair.evict");
        let evicted = evict(&mut member, inserted);
        let mut near = evicted.clone();
        arena.read_all(&mut near)?;
        let around = arena.around(&near);
        near.extend(around);
        let mut frontier = near.clone();
        frontier.extend_from_slice(batch.touched());
        arena.read_all(&mut frontier)?;
        let mut joined = Vec::new();
        for &v in &frontier {
            if !member[v as usize] && arena.neighbors(v).iter().all(|&u| !member[u as usize]) {
                member[v as usize] = true;
                joined.push(v);
            }
        }
        near.extend(batch.deleted().iter().flat_map(|&(u, v)| [u, v]));
        (evicted, joined, near)
    };

    // Recover: bounded rounds of 1↔k moves around the seeds.
    let mut rounds = Vec::new();
    let mut moved_all = Vec::new();
    {
        let _span = mis_obs::span("repair", "repair.recover");
        for _ in 0..config.recover_rounds {
            arena.read_all(&mut seeds)?;
            let mut candidates: Vec<VertexId> = seeds
                .iter()
                .filter(|&&x| !member[x as usize])
                .filter_map(|&x| only_member(arena.neighbors(x), &member))
                .collect();
            arena.read_all(&mut candidates)?;
            let mut around = arena.around(&candidates);
            arena.read_all(&mut around)?;
            let mut round = RoundStats::default();
            let mut moved = Vec::new();
            for &w in &candidates {
                if let Some(step) = OneKMove::delta(w, &arena, &member) {
                    round.swapped_out += 1;
                    round.swapped_in += step.take.len() as u64;
                    step.perform(&mut member, &mut moved);
                }
            }
            rounds.push(round);
            if moved.is_empty() {
                break;
            }
            seeds = arena.around(&moved);
            seeds.extend_from_slice(&moved);
            moved_all.extend(moved);
        }
    }

    // Certify every vertex whose own state or neighbourhood may differ
    // from the proved epoch before.
    {
        let _span = mis_obs::span("repair", "repair.certify");
        let mut changed = evicted.clone();
        changed.extend(&joined);
        changed.extend(&moved_all);
        let mut region = arena.around(&changed);
        region.extend(changed);
        region.extend_from_slice(batch.touched());
        arena.read_all(&mut region)?;
        let certified = region.iter().all(|&v| {
            let dominated = arena.neighbors(v).iter().any(|&u| member[u as usize]);
            member[v as usize] != dominated
        });
        if !certified {
            return Ok(None);
        }
    }

    let repaired: Vec<VertexId> = {
        let _span = mis_obs::span("repair", "repair.collect");
        (0..n as VertexId).filter(|&v| member[v as usize]).collect()
    };
    let stats = SwapStats {
        rounds,
        initial_size: (set.len() - evicted.len()) as u64,
        final_size: repaired.len() as u64,
        ..SwapStats::default()
    };
    Ok(Some(UpdateRepairOutcome {
        swap: SwapOutcome {
            result: MisResult {
                set: repaired,
                file_scans: 0,
                memory: MemoryModel {
                    state_bytes: n as u64,
                    pager_bytes: reads.resident_bytes(),
                    ..MemoryModel::default()
                },
            },
            stats,
        },
        evicted: evicted.len() as u64,
        maximality_proved: config.verify,
        verify_scans: 0,
        local: true,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::Greedy;
    use crate::verify::{is_independent_set, is_maximal_independent_set};
    use mis_graph::{CsrGraph, OrderedCsr, PinnedDelta, SharedAccess};
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

    /// An empty overlay over a copy of `g` with point reads of `g`.
    fn served(g: &CsrGraph) -> PinnedDelta<CsrGraph> {
        edit(g).with_access(SharedAccess::new(Box::new(g.clone())))
    }

    /// `count` churn batches of `ops` operations over `g`.
    fn batches(g: &CsrGraph, count: usize, ops: usize, seed: u64) -> Vec<Vec<(u32, u32, bool)>> {
        mis_gen::churn_stream(g, count * ops, 0.3, seed)
            .chunks(ops)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|op| (op.u, op.v, op.kind == mis_gen::ChurnKind::Insert))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn the_local_path_keeps_a_proved_set_at_every_epoch() {
        let g = mis_gen::plrg::Plrg::with_vertices(3_000, 2.0)
            .seed(5)
            .generate();
        let mut view = served(&g);
        let mut set = Greedy::new().run(&OrderedCsr::degree_sorted(&g)).set;
        for batch in batches(&g, 12, 150, 9) {
            view.apply_batch(batch);
            let inserted = view.overlay().last_batch().unwrap().inserted().to_vec();
            let out =
                try_repair_updated_set_from_ops(&view, &set, &inserted, RepairConfig::default())
                    .unwrap();
            assert!(out.local, "epoch {}", view.epoch());
            assert!(out.maximality_proved);
            assert_eq!((out.swap.result.file_scans, out.verify_scans), (0, 0));
            assert!(is_maximal_independent_set(&view, &out.swap.result.set));
            // The whole-graph path on the same inputs proves too.
            let whole = repair_updated_set_from_ops(
                &view.clone().without_last_batch(),
                &set,
                &inserted,
                RepairConfig::default(),
            );
            assert!(!whole.local && whole.maximality_proved);
            assert_eq!(out.evicted, whole.evicted);
            set = out.swap.result.set;
        }
    }

    #[test]
    fn the_local_path_moves_one_member_out_for_two() {
        // Star 0-{1,2} plus the path 2-3: the set {0, 3} is maximal.
        // Deleting (2, 3) leaves 2 with 0 as its only member neighbour,
        // so 0 makes way for its leaves 1 and 2.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (2, 3)]);
        let mut view = served(&g);
        view.apply_batch([(2, 3, false)]);
        let out = repair_updated_set_from_ops(&view, &[0, 3], &[], RepairConfig::default());
        assert!(out.local);
        assert_eq!(out.swap.result.set, vec![1, 2, 3]);
        assert_eq!(out.swap.stats.rounds[0].swapped_in, 2);
        assert_eq!(out.swap.stats.rounds[0].swapped_out, 1);
    }

    #[test]
    fn a_failed_certificate_falls_back_to_the_whole_graph() {
        // Inserting (0, 2) between members without naming it leaves a
        // conflict the local certificate sees.
        let g = mis_gen::special::path(4);
        let mut view = served(&g);
        view.apply_batch([(0, 2, true)]);
        let out = repair_updated_set_from_ops(&view, &[0, 2], &[], RepairConfig::default());
        assert!(!out.local);
        let named = repair_updated_set_from_ops(&view, &[0, 2], &[(0, 2)], RepairConfig::default());
        assert!(named.local && named.maximality_proved);
        assert_eq!(named.swap.result.set, vec![0, 3]);
    }

    /// Point reads that always fail.
    struct FailingReads;

    impl NeighborAccess for FailingReads {
        fn with_neighbors(&self, _: VertexId, _: &mut dyn FnMut(&[VertexId])) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated"))
        }

        fn record_rank(&self, v: VertexId) -> u64 {
            u64::from(v)
        }
    }

    #[test]
    fn point_read_errors_are_returned() {
        let g = mis_gen::special::path(4);
        let mut view = edit(&g).with_access(SharedAccess::new(Box::new(FailingReads)));
        view.apply_batch([(0, 2, true)]);
        let err =
            try_repair_updated_set_from_ops(&view, &[0, 2], &[(0, 2)], RepairConfig::default())
                .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
