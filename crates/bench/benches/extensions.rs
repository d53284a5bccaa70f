//! Criterion benchmarks for the extension features: compressed vs plain
//! scans, bound computations, and incremental repair.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mis_core::{
    conflicting_pairs, matching_bound, repair_updated_set_from_ops, upper_bound_scan, Greedy,
    RepairConfig,
};
use mis_extmem::{IoStats, ScratchDir};
use mis_graph::{build_adj_file, compress_adj, GraphScan, OrderedCsr, PinnedDelta};

fn bench_compressed_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("compressed_scan");
    group.sample_size(10);
    let graph = mis_gen::Plrg::with_vertices(50_000, 2.0).seed(3).generate();
    let scratch = ScratchDir::new("bench-ext").unwrap();
    let stats = IoStats::shared();
    let plain = build_adj_file(
        &graph,
        &scratch.file("g.adj"),
        Arc::clone(&stats),
        64 * 1024,
    )
    .unwrap();
    let compressed = compress_adj(&graph, &scratch.file("g.cadj"), stats, 64 * 1024).unwrap();
    group.throughput(Throughput::Elements(2 * graph.num_edges()));
    group.bench_function("plain_file", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            plain.scan(&mut |_, ns| acc += ns.len() as u64).unwrap();
            acc
        })
    });
    group.bench_function("gap_compressed_file", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            compressed
                .scan(&mut |_, ns| acc += ns.len() as u64)
                .unwrap();
            acc
        })
    });
    group.finish();
}

fn bench_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("upper_bounds");
    group.sample_size(20);
    let graph = mis_gen::Plrg::with_vertices(50_000, 2.0).seed(9).generate();
    let sorted = OrderedCsr::degree_sorted(&graph);
    group.bench_function("algorithm5_star", |b| b.iter(|| upper_bound_scan(&sorted)));
    group.bench_function("maximal_matching", |b| b.iter(|| matching_bound(&sorted)));
    group.finish();
}

fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_repair");
    group.sample_size(10);
    let graph = mis_gen::Plrg::with_vertices(30_000, 2.1).seed(7).generate();
    let sorted = OrderedCsr::degree_sorted(&graph);
    let set = Greedy::new().run(&sorted).set;
    let mut delta = PinnedDelta::new(graph, Arc::default(), 0);
    for i in 0..500usize {
        delta.insert_edge(set[i * 2], set[i * 2 + 1]);
    }
    let config = RepairConfig {
        recover_rounds: 1,
        verify: false,
    };
    // Scan-fed, as `UpdateStore::apply` runs it: one conflict scan, then
    // the evict + swap.
    group.bench_function("repair_500_conflicts", |b| {
        b.iter_batched(
            || set.clone(),
            |s| {
                let conflicts = conflicting_pairs(&delta, &s).unwrap();
                repair_updated_set_from_ops(&delta, &s, &conflicts, config)
                    .swap
                    .result
                    .set
                    .len()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_compressed_scan,
    bench_bounds,
    bench_incremental
);
criterion_main!(benches);
