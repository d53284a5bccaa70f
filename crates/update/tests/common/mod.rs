//! The reference the maintenance tests measure the one repair against.

use mis_core::{is_maximal_independent_set, OneKSwap, RepairConfig, SwapConfig};
use mis_graph::{GraphScan, VertexId};

/// Repairs `set` over full scans of `graph`: each pair of `inserted`
/// joining two members evicts its higher endpoint, resolved in ascending
/// order of that endpoint; then `config.recover_rounds` early-stopped
/// one-k rounds; then, with `config.verify`, the proof scan. Returns the
/// set, the members evicted, and the proof.
pub fn one_k_reference<G: GraphScan + ?Sized>(
    graph: &G,
    set: &[VertexId],
    inserted: &[(VertexId, VertexId)],
    config: RepairConfig,
) -> (Vec<VertexId>, u64, bool) {
    let mut member = vec![false; graph.num_vertices()];
    for &v in set {
        member[v as usize] = true;
    }
    let mut conflicts: Vec<(VertexId, VertexId)> = inserted
        .iter()
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .filter(|&(lo, hi)| lo != hi && member[lo as usize] && member[hi as usize])
        .collect();
    conflicts.sort_unstable_by_key(|&(lo, hi)| (hi, lo));
    let mut evicted = 0;
    for (lo, hi) in conflicts {
        if member[lo as usize] && member[hi as usize] {
            member[hi as usize] = false;
            evicted += 1;
        }
    }
    let kept: Vec<VertexId> = (0..graph.num_vertices() as VertexId)
        .filter(|&v| member[v as usize])
        .collect();
    let swap =
        OneKSwap::with_config(SwapConfig::early_stop(config.recover_rounds)).run(graph, &kept);
    let proved = config.verify && is_maximal_independent_set(graph, &swap.result.set);
    (swap.result.set, evicted, proved)
}
