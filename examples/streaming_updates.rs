//! Incremental maintenance under edge insertions — the paper's
//! future-work scenario, implemented via the `PinnedDelta` overlay view
//! and `repair_updated_set_from_ops`, the repair `mis update` and
//! `mis serve` run.
//!
//! ```text
//! cargo run --release --example streaming_updates
//! ```
//!
//! A social graph receives batches of new friendships; instead of
//! recomputing the independent set from scratch (a full Greedy + swap
//! pipeline per batch), each batch is committed to the overlay in memory
//! and the set is repaired from the batch's record: its inserted edges
//! name the members to evict, bounded 1↔k moves around them win back
//! the loss, and a certificate over what the batch touched proves the
//! result maximal, all by point reads of the in-memory base, no scan.

use std::sync::Arc;

use semi_mis::prelude::*;

fn main() {
    let base = semi_mis::gen::Plrg::with_vertices(50_000, 2.1)
        .seed(13)
        .generate();
    let sorted = OrderedCsr::degree_sorted(&base);
    let greedy = Greedy::new().run(&sorted);
    let initial = OneKSwap::new().run(&sorted, &greedy.set).result.set;
    println!(
        "base graph: {} vertices, {} edges; initial |IS| = {}",
        base.num_vertices(),
        base.num_edges(),
        initial.len()
    );

    let mut delta = PinnedDelta::new(base.clone(), Arc::default(), 0);
    let mut current = initial;
    let mut rng_state = 99u64;
    let mut next = move || {
        rng_state = rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng_state
    };

    for batch in 1..=5 {
        // 1000 random new edges per batch (some will hit the current set).
        let n = base.num_vertices() as u64;
        let mut inserted = Vec::new();
        for _ in 0..1000 {
            let (a, b) = ((next() >> 16) % n, (next() >> 16) % n);
            if a != b {
                inserted.push((a as u32, b as u32));
            }
        }
        delta.apply_batch(inserted.iter().map(|&(a, b)| (a, b, true)));
        let out = repair_updated_set_from_ops(&delta, &current, &inserted, RepairConfig::default());
        current = out.swap.result.set;
        assert!(is_independent_set(&delta, &current));
        assert!(out.maximality_proved);
        println!(
            "batch {batch}: +{} edges (overlay {} KiB), evicted {}, |IS| = {} ({} scans)",
            delta.overlay().added_edges(),
            delta.overlay().overlay_bytes() / 1024,
            out.evicted,
            current.len(),
            out.swap.result.file_scans
        );
    }
    println!("final set verified independent and maximal on the updated graph");
}
