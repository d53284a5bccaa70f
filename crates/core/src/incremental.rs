//! Incremental maintenance under edge insertions *and deletions* — the
//! paper's stated future-work direction ("how our solutions can be
//! extended to the incremental massive graphs with frequent updates").
//!
//! [`try_repair_since`] repairs a set proved maximal at some epoch on a
//! view reflecting every batch committed since (e.g. an epoch-pinned
//! [`mis_graph::PinnedDelta`]); [`repair_updated_set_from_ops`] is its
//! panicking form for a set from the epoch just before the view. Both
//! `mis_update` engines run this one repair. It starts from the view's
//! batch record ([`GraphScan::last_batch`]) when that is the one batch
//! since the set's epoch: the vertices the batch touched and the pairs
//! it left inserted or deleted. Otherwise one **violation scan** stands
//! in for the record: the member pairs an edge joins for the inserted
//! pairs, the non-members with no member neighbour for the deleted
//! pairs' endpoints (a scan cannot tell which edges were deleted), and
//! both for the touched vertices. Then:
//!
//! 1. **evict** — each recorded pair joining two members drops its
//!    higher endpoint, in ascending order of that endpoint;
//! 2. **refill** — in storage order, each touched vertex, evicted member
//!    or neighbour of one with no member neighbour joins;
//! 3. **recover** — up to [`RepairConfig::recover_rounds`] rounds of
//!    one-k's 1↔k move (Table 8's early-stop profile), tried first on
//!    the only member neighbours of deleted endpoints and of evicted
//!    members and their neighbours, then around what the round before
//!    moved;
//! 4. **certify** — every touched vertex and every vertex whose closed
//!    neighbourhood changed membership must be a member with no member
//!    neighbour or a non-member with one.
//!
//! Every other vertex kept its adjacency, its membership and its
//! neighbours' membership, and was correct at the proved epoch before
//! the batch or, after a violation scan, on this very view, so the
//! certificate proves the whole set. A failed certificate after a batch
//! record (say, `inserted` missed a pair) reruns the repair from the
//! violation scan; after the violation scan it is an
//! [`io::ErrorKind::InvalidData`] error.
//!
//! Each step reads the records it lacks, once per repair, in storage
//! order: by point reads when the view has them
//! ([`GraphScan::point_reads`]), otherwise by one filtered scan. Both
//! give the same set. A batch record with point reads costs no accounted
//! scan, only the batch's two-hop neighbourhood and the `O(|V|)`
//! membership array and set collect; a view with neither pays up to
//! `4 + 3 · recover_rounds` scans.

use std::io;

use mis_graph::hash::FxHashMap;
use mis_graph::{GraphScan, LastBatch, NeighborAccess, VertexId};

use crate::result::{MemoryModel, MisResult, RoundStats, SwapOutcome, SwapStats};

/// Tuning for [`repair_updated_set_from_ops`].
#[derive(Debug, Clone, Copy)]
pub struct RepairConfig {
    /// Round budget of the recover step's 1↔k moves.
    pub recover_rounds: u32,
    /// Report the certificate as the repaired set's proof.
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
    /// The repaired set, per-round stats, and in `result.file_scans`
    /// every accounted scan the repair started (0 with a batch record
    /// and point reads, 1 for a violation scan, 1 per scan read).
    pub swap: SwapOutcome,
    /// Members evicted because an edge connected them.
    pub evicted: u64,
    /// Whether the certificate proved the repaired set maximal on the
    /// view (`false` when [`RepairConfig::verify`] is off).
    pub maximality_proved: bool,
}

/// [`try_repair_since`] for a set proved at the epoch just before
/// `graph`'s, panicking on a failed read.
///
/// With the view's batch record, `inserted` names every pair the batch
/// left inserted; it need not be deduplicated or ordered, and may name
/// pairs that do not conflict: conflicts are resolved in ascending order
/// of their higher endpoint, so chains of conflicts (edges sharing a
/// member endpoint) evict the same vertices regardless of batch order.
/// Without a record the violation scan finds the conflicts, and
/// `inserted` is not used.
pub fn repair_updated_set_from_ops<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
    inserted: &[(VertexId, VertexId)],
    config: RepairConfig,
) -> UpdateRepairOutcome {
    let record = graph.last_batch().map(|batch| (batch, inserted));
    repair(graph, set, record, config).expect("repair read failed")
}

/// Repairs `set`, proved maximal at epoch `set_epoch`, on `graph`, which
/// reflects every batch committed since: from the view's batch record
/// when [`GraphScan::last_batch`] is the one batch after `set_epoch`, and
/// from the violation scan otherwise (see the [module docs](self)).
/// Every read error is returned.
pub fn try_repair_since<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
    set_epoch: u64,
    config: RepairConfig,
) -> io::Result<UpdateRepairOutcome> {
    let record = graph
        .last_batch()
        .filter(|batch| batch.epoch().checked_sub(1) == Some(set_epoch))
        .map(|batch| (batch, batch.inserted()));
    repair(graph, set, record, config)
}

/// What the repair revisits: a batch record, or the violation scan's
/// findings standing in for one.
#[derive(Default)]
struct Damage {
    /// Refilled and certified.
    touched: Vec<VertexId>,
    /// Evict from where both endpoints are members.
    inserted: Vec<(VertexId, VertexId)>,
    /// Round-one recover seeds besides the evicted members' closed
    /// neighbourhoods.
    seeds: Vec<VertexId>,
}

/// The one repair: from `record`, the batch record and the pairs it
/// inserted, when given; from the violation scan otherwise, or when the
/// record-fed certificate fails.
fn repair<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
    record: Option<(&LastBatch, &[(VertexId, VertexId)])>,
    config: RepairConfig,
) -> io::Result<UpdateRepairOutcome> {
    let mut arena = Arena::new(graph);
    if let Some((batch, inserted)) = record {
        let damage = Damage {
            touched: batch.touched().to_vec(),
            inserted: inserted.to_vec(),
            seeds: batch.deleted().iter().flat_map(|&(u, v)| [u, v]).collect(),
        };
        if let Some(out) = run(&mut arena, set, damage, config)? {
            return Ok(out);
        }
    }
    let damage = arena.violation_scan(set)?;
    run(&mut arena, set, damage, config)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "the repaired set failed its certificate after a violation scan",
        )
    })
}

/// `set` as a membership array over `n` vertices.
fn members(n: usize, set: &[VertexId]) -> Vec<bool> {
    let mut member = vec![false; n];
    for &v in set {
        member[v as usize] = true;
    }
    member
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

/// Neighbour lists read for one repair, each at most once, kept in one
/// arena: by point reads when the view has them, otherwise by one
/// filtered scan per read step.
struct Arena<'a, G: ?Sized> {
    graph: &'a G,
    reads: Option<&'a dyn NeighborAccess>,
    /// Per read vertex: its storage-order rank and its list's range in
    /// `nbrs`. Only looked up, never iterated.
    at: FxHashMap<VertexId, (u64, usize, usize)>,
    nbrs: Vec<VertexId>,
    /// Accounted scans the repair started: scan reads and the violation
    /// scan.
    scans: u64,
}

impl<'a, G: GraphScan + ?Sized> Arena<'a, G> {
    fn new(graph: &'a G) -> Self {
        Self {
            graph,
            reads: graph.point_reads(),
            at: FxHashMap::default(),
            nbrs: Vec::new(),
            scans: 0,
        }
    }

    /// Reads every list of `vs` the arena lacks in storage order, so the
    /// pager sees each page at most once per call (without point reads,
    /// one scan reads them all), and leaves `vs` in storage order
    /// without duplicates.
    fn read_all(&mut self, vs: &mut Vec<VertexId>) -> io::Result<()> {
        if self.reads.is_none() {
            self.scan_missing(vs)?;
        }
        let (at, reads) = (&self.at, self.reads);
        let rank = |v| {
            at.get(&v)
                .map_or_else(|| reads.map_or(Ok(0), |r| r.record_rank(v)), |e| Ok(e.0))
        };
        // Sized up front: a collect through `io::Result` would grow the
        // vector by doubling.
        let mut keyed = Vec::with_capacity(vs.len());
        for &v in vs.iter() {
            keyed.push((rank(v)?, v));
        }
        keyed.sort_unstable();
        keyed.dedup();
        vs.clear();
        vs.extend(keyed.iter().map(|&(_, v)| v));
        for (rank, v) in keyed {
            if let (Some(reads), false) = (reads, self.at.contains_key(&v)) {
                let start = self.nbrs.len();
                let nbrs = &mut self.nbrs;
                reads.with_neighbors(v, &mut |ns| nbrs.extend_from_slice(ns))?;
                self.at.insert(v, (rank, start, self.nbrs.len()));
            }
        }
        Ok(())
    }

    /// Reads every list of `vs` the arena lacks with one scan, ranking
    /// each by its position in the scan.
    fn scan_missing(&mut self, vs: &[VertexId]) -> io::Result<()> {
        let mut missing: Vec<VertexId> = vs
            .iter()
            .copied()
            .filter(|v| !self.at.contains_key(v))
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        missing.sort_unstable();
        self.scans += 1;
        let (at, nbrs, mut rank) = (&mut self.at, &mut self.nbrs, 0);
        self.graph.scan(&mut |v, ns| {
            if missing.binary_search(&v).is_ok() {
                at.insert(v, (rank, nbrs.len(), nbrs.len() + ns.len()));
                nbrs.extend_from_slice(ns);
            }
            rank += 1;
        })
    }

    /// The violation scan: every edge joining two members of `set`, as a
    /// `(lower, higher)` pair, and every non-member with no member
    /// neighbour.
    fn violation_scan(&mut self, set: &[VertexId]) -> io::Result<Damage> {
        let _span = mis_obs::span("repair", "repair.scan");
        self.scans += 1;
        let member = members(self.graph.num_vertices(), set);
        let mut found = Damage::default();
        self.graph.scan(&mut |v, ns| {
            if member[v as usize] {
                for &u in ns.iter().filter(|&&u| u < v && member[u as usize]) {
                    found.inserted.push((u, v));
                    found.touched.extend([u, v]);
                }
            } else if ns.iter().all(|&u| !member[u as usize]) {
                found.touched.push(v);
                found.seeds.push(v);
            }
        })?;
        Ok(found)
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
    fn delta<G: GraphScan + ?Sized>(
        w: VertexId,
        arena: &Arena<'_, G>,
        member: &[bool],
    ) -> Option<Self> {
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

/// Evict, refill, recover and certify `set` from `damage` (see the
/// [module docs](self)); `Ok(None)` when the certificate fails.
fn run<G: GraphScan + ?Sized>(
    arena: &mut Arena<'_, G>,
    set: &[VertexId],
    damage: Damage,
    config: RepairConfig,
) -> io::Result<Option<UpdateRepairOutcome>> {
    let n = arena.graph.num_vertices();
    let mut member = {
        let _span = mis_obs::span("repair", "repair.members");
        members(n, set)
    };

    // Evict, then refill the frontier in storage order.
    let (evicted, joined, mut seeds) = {
        let _span = mis_obs::span("repair", "repair.evict");
        let evicted = evict(&mut member, &damage.inserted);
        let mut near = evicted.clone();
        arena.read_all(&mut near)?;
        let around = arena.around(&near);
        near.extend(around);
        let mut frontier = near.clone();
        frontier.extend_from_slice(&damage.touched);
        arena.read_all(&mut frontier)?;
        let mut joined = Vec::new();
        for &v in &frontier {
            if !member[v as usize] && arena.neighbors(v).iter().all(|&u| !member[u as usize]) {
                member[v as usize] = true;
                joined.push(v);
            }
        }
        near.extend(damage.seeds);
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
                if let Some(step) = OneKMove::delta(w, arena, &member) {
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
    // from what the record vouches for.
    {
        let _span = mis_obs::span("repair", "repair.certify");
        let mut changed = evicted.clone();
        changed.extend(&joined);
        changed.extend(&moved_all);
        let mut region = arena.around(&changed);
        region.extend(changed);
        region.extend_from_slice(&damage.touched);
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
                file_scans: arena.scans,
                memory: MemoryModel {
                    state_bytes: n as u64,
                    pager_bytes: arena.reads.map_or(0, |r| r.resident_bytes()),
                    ..MemoryModel::default()
                },
            },
            stats,
        },
        evicted: evicted.len() as u64,
        maximality_proved: config.verify,
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

    /// `graph` with its batch record hidden, so a repair on it starts
    /// from the violation scan.
    struct NoRecord<'a, G: ?Sized>(&'a G);

    impl<G: GraphScan + ?Sized> GraphScan for NoRecord<'_, G> {
        fn num_vertices(&self) -> usize {
            self.0.num_vertices()
        }

        fn num_edges(&self) -> u64 {
            self.0.num_edges()
        }

        fn scan(&self, f: &mut dyn FnMut(VertexId, &[VertexId])) -> io::Result<()> {
            self.0.scan(f)
        }

        fn point_reads(&self) -> Option<&dyn NeighborAccess> {
            self.0.point_reads()
        }
    }

    /// The repair fed by the violation scan.
    fn scan_repair<G: GraphScan + ?Sized>(
        graph: &G,
        set: &[VertexId],
        config: RepairConfig,
    ) -> UpdateRepairOutcome {
        repair_updated_set_from_ops(&NoRecord(graph), set, &[], config)
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
    fn the_violation_scan_names_each_conflict_once_and_every_undominated_vertex() {
        // Path 0-1-2-3-4-5 plus inserted (0, 2) and (2, 4): with the set
        // {0, 2, 4, 5}, the conflicts are (0,2), (2,4) and the base edge
        // (4,5), each named once, lower endpoint first.
        let g = mis_gen::special::path(6);
        let mut delta = edit(&g);
        delta.insert_edge(0, 2);
        delta.insert_edge(4, 2);
        let mut found = Arena::new(&delta).violation_scan(&[0, 2, 4, 5]).unwrap();
        found.inserted.sort_unstable();
        assert_eq!(found.inserted, vec![(0, 2), (2, 4), (4, 5)]);
        assert!(found.seeds.is_empty());
        // On the base with {0, 2}, nothing conflicts and 4, 5 have no
        // member neighbour.
        let found = Arena::new(&g).violation_scan(&[0, 2]).unwrap();
        assert!(found.inserted.is_empty());
        assert_eq!((found.touched, found.seeds), (vec![4, 5], vec![4, 5]));
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
        assert_eq!(out.swap.result.file_scans, 1, "the violation scan");
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
        assert!(out.maximality_proved, "the certificate must pass");
        assert!(is_independent_set(&delta, &out.swap.result.set));
        assert!(is_maximal_independent_set(&delta, &out.swap.result.set));
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
        // The certificate always runs; `verify` only decides whether the
        // outcome reports it.
        let g = mis_gen::special::path(6);
        let config = RepairConfig {
            recover_rounds: 1,
            verify: false,
        };
        let out = repair_updated_set_from_ops(&g, &[0], &[], config);
        assert!(!out.maximality_proved);
        assert_eq!(out.swap.result.file_scans, 1, "the violation scan only");
        assert!(is_maximal_independent_set(&g, &out.swap.result.set));
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

        let mut ops: Vec<(VertexId, VertexId, bool)> = initial
            .chunks_exact(2)
            .take(40)
            .map(|pair| (pair[0], pair[1], true))
            .collect();
        g.scan(&mut |v, ns| {
            if ops.len() < 100 {
                ops.extend(ns.iter().find(|&&u| u > v).map(|&u| (v, u, false)));
            }
        })
        .unwrap();
        let mut view = edit(&g);
        view.apply_batch(ops.iter().copied());
        let inserted: Vec<_> = ops
            .iter()
            .filter(|op| op.2)
            .map(|op| (op.0, op.1))
            .collect();

        let scanned = scan_repair(&view, &initial, RepairConfig::default());
        let from_ops =
            repair_updated_set_from_ops(&view, &initial, &inserted, RepairConfig::default());
        // The scan finds exactly the batch's conflicts, so both evict the
        // same members; the record revisits the deleted edges' endpoints
        // too, which a scan cannot name, so the sets may differ.
        assert!(scanned.evicted > 0);
        assert_eq!(from_ops.evicted, scanned.evicted);
        assert!(from_ops.maximality_proved && scanned.maximality_proved);
        assert!(is_maximal_independent_set(&view, &scanned.swap.result.set));
        assert!(is_maximal_independent_set(&view, &from_ops.swap.result.set));
        assert_eq!(
            (
                from_ops.swap.result.file_scans,
                scanned.swap.result.file_scans
            ),
            (0, 1)
        );

        // Duplicates and reversed pairs do not double-evict.
        let mut noisy = inserted.clone();
        noisy.extend(inserted.iter().map(|&(u, v)| (v, u)));
        let dup = repair_updated_set_from_ops(&view, &initial, &noisy, RepairConfig::default());
        assert_eq!(dup.evicted, from_ops.evicted);
        assert_eq!(dup.swap.result.set, from_ops.swap.result.set);
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
            let mut view = edit(&g);
            view.apply_batch(batch.iter().map(|&(u, v)| (u, v, true)));
            let ops = repair_updated_set_from_ops(&view, &initial, &batch, RepairConfig::default());
            assert_eq!(ops.swap.result.file_scans, 0, "batch {batch:?}");
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
            let config = RepairConfig::default();
            let out = try_repair_since(&view, &set, view.epoch() - 1, config).unwrap();
            assert!(out.maximality_proved, "epoch {}", view.epoch());
            assert_eq!(out.swap.result.file_scans, 0);
            assert!(is_maximal_independent_set(&view, &out.swap.result.set));
            // The violation scan on the same view proves too, and finds
            // the same conflicts.
            let scanned = scan_repair(&view, &set, config);
            assert!(scanned.maximality_proved);
            assert_eq!(scanned.swap.result.file_scans, 1);
            assert!(is_maximal_independent_set(&view, &scanned.swap.result.set));
            assert_eq!(out.evicted, scanned.evicted);
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
        assert_eq!(out.swap.result.file_scans, 0);
        assert_eq!(out.swap.result.set, vec![1, 2, 3]);
        assert_eq!(out.swap.stats.rounds[0].swapped_in, 2);
        assert_eq!(out.swap.stats.rounds[0].swapped_out, 1);
    }

    #[test]
    fn a_failed_certificate_falls_back_to_the_violation_scan() {
        // Inserting (0, 2) between members without naming it leaves a
        // conflict the certificate sees; the violation scan finds it.
        let g = mis_gen::special::path(4);
        let mut view = served(&g);
        view.apply_batch([(0, 2, true)]);
        let out = repair_updated_set_from_ops(&view, &[0, 2], &[], RepairConfig::default());
        assert_eq!((out.evicted, out.swap.result.file_scans), (1, 1));
        assert!(out.maximality_proved);
        assert_eq!(out.swap.result.set, vec![0, 3]);
        let named = repair_updated_set_from_ops(&view, &[0, 2], &[(0, 2)], RepairConfig::default());
        assert_eq!(named.swap.result.file_scans, 0);
        assert!(named.maximality_proved);
        assert_eq!(named.swap.result.set, vec![0, 3]);
    }

    /// Point reads that always fail.
    struct FailingReads;

    impl NeighborAccess for FailingReads {
        fn with_neighbors(&self, _: VertexId, _: &mut dyn FnMut(&[VertexId])) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated"))
        }

        fn record_rank(&self, v: VertexId) -> io::Result<u64> {
            Ok(u64::from(v))
        }
    }

    #[test]
    fn point_read_errors_are_returned() {
        let g = mis_gen::special::path(4);
        let mut view = edit(&g).with_access(SharedAccess::new(Box::new(FailingReads)));
        view.apply_batch([(0, 2, true)]);
        for set_epoch in [0, 7] {
            let err =
                try_repair_since(&view, &[0, 2], set_epoch, RepairConfig::default()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
    }
}
