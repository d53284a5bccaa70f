//! Criterion benchmarks for the external-memory substrate: block-stream
//! throughput, external priority queue, and on-disk
//! adjacency scans vs in-memory CSR scans.

use std::io::Write;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mis_extmem::{BlockReader, BlockWriter, ExternalPq, IoStats, ScratchDir};
use mis_graph::{build_adj_file, GraphScan};

fn bench_block_io(c: &mut Criterion) {
    let mut group = c.benchmark_group("block_io");
    group.sample_size(20);
    let data = vec![0xA5u8; 8 << 20];
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("write_read_8MiB", |b| {
        b.iter(|| {
            let stats = IoStats::shared();
            let mut w = BlockWriter::new(Vec::with_capacity(data.len()), Arc::clone(&stats));
            w.write_all(&data).unwrap();
            let buf = w.finish().unwrap();
            let mut r = BlockReader::new(std::io::Cursor::new(buf), stats);
            std::io::copy(&mut r, &mut std::io::sink()).unwrap()
        })
    });
    group.finish();
}

fn bench_external_pq(c: &mut Criterion) {
    let mut group = c.benchmark_group("external_pq");
    group.sample_size(10);
    let n = 200_000u32;
    group.throughput(Throughput::Elements(u64::from(n) * 2));
    group.bench_function("push_pop_spilling", |b| {
        b.iter(|| {
            let stats = IoStats::shared();
            let mut pq = ExternalPq::new(1 << 12, "bench", stats).unwrap();
            for i in 0..n {
                pq.push(i.wrapping_mul(2654435761)).unwrap();
            }
            let mut last = 0u32;
            while let Some(v) = pq.pop().unwrap() {
                last = v;
            }
            last
        })
    });
    group.finish();
}

fn bench_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_scan");
    group.sample_size(10);
    let graph = mis_gen::Plrg::with_vertices(50_000, 2.0).seed(3).generate();
    group.throughput(Throughput::Elements(2 * graph.num_edges()));

    group.bench_function("csr_in_memory", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            graph.scan(&mut |_, ns| acc += ns.len() as u64).unwrap();
            acc
        })
    });

    let scratch = ScratchDir::new("bench-scan").unwrap();
    let stats = IoStats::shared();
    let file = build_adj_file(&graph, &scratch.file("g.adj"), stats, 64 * 1024).unwrap();
    group.bench_function("adj_file_on_disk", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            file.scan(&mut |_, ns| acc += ns.len() as u64).unwrap();
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_block_io, bench_external_pq, bench_scans);
criterion_main!(benches);
