//! Golden bytes and I/O counters of the two on-disk adjacency formats.
//!
//! For three seeded `P(α, β)` graphs this pins everything the record
//! codecs, the writers, the readers, the record index and the paged
//! fetch must leave untouched:
//!
//! * the length and FNV-1a hash of every file the writers produce:
//!   `build_adj_file`, `compress_adj`, both degree sorts, and a copy of
//!   the degree-sorted graph through each codec's writer (`indexed.*`);
//! * the scans, blocks and bytes read by opening, scanning and
//!   block-scanning each single file;
//! * a hash of every record offset of each codec's scan-built index:
//!   over the writer's copy (`writer=`), and over the degree-sorted plain
//!   file or the compressed copy (`scan=`), plus that build's scans and
//!   blocks;
//! * 2,000 seeded paged reads per codec through 4 frames of 64-byte
//!   pages: a hash of the returned lists, plus blocks read, cache hits,
//!   misses and evictions.
//!
//! The values were recorded while the plain and compressed formats
//! still had separate implementations. A mismatch prints the actual
//! table for review.

use std::path::Path;
use std::sync::Arc;

use mis_extmem::{IoSnapshot, IoStats, PagerConfig, PolicyKind, ScratchDir, SortConfig};
use mis_graph::adjfile::AdjFileWriter;
use mis_graph::{
    build_adj_file, compress_adj, degree_sort_adj_file, degree_sort_compressed_adj_file,
    AnyAdjFile, CompressedAdjFile, CsrGraph, GraphScan, NeighborAccess, RandomAccessGraph,
    RecordIndex, VertexId,
};

const BLOCK: usize = 256;
const READS: usize = 2_000;

/// Incremental FNV-1a (64-bit).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn file_hash(path: &Path) -> String {
    let bytes = std::fs::read(path).unwrap();
    let mut h = Fnv::new();
    h.bytes(&bytes);
    format!("bytes={} fnv={:016x}", bytes.len(), h.0)
}

fn delta(stats: &IoStats, before: &IoSnapshot) -> IoSnapshot {
    stats.snapshot().since(before)
}

/// File bytes, then the I/O of open, one scan and one block scan.
fn file_line(name: &str, path: &Path) -> String {
    let stats = IoStats::shared();
    let file = AnyAdjFile::open_with_block_size(path, Arc::clone(&stats), BLOCK).unwrap();
    let open = stats.snapshot();
    let before = stats.snapshot();
    let mut entries = 0u64;
    file.scan(&mut |_, ns| entries += ns.len() as u64).unwrap();
    let scan = delta(&stats, &before);
    let before = stats.snapshot();
    let mut blocks = 0u64;
    file.scan_blocks(64, &mut |_| blocks += 1).unwrap();
    let block_scan = delta(&stats, &before);
    format!(
        "{name}: {} open={}/{} scan={}/{}/{} entries={entries} scan_blocks={}/{} blocks={blocks}",
        file_hash(path),
        open.scans_started,
        open.blocks_read,
        scan.scans_started,
        scan.blocks_read,
        scan.bytes_read,
        block_scan.scans_started,
        block_scan.blocks_read,
    )
}

fn offsets_hash(n: usize, offset: impl Fn(VertexId) -> u64) -> String {
    let mut h = Fnv::new();
    for v in 0..n as VertexId {
        h.bytes(&offset(v).to_le_bytes());
    }
    format!("{:016x}", h.0)
}

/// Seeded reads through `access`: list hash and the pager counters.
fn read_line(name: &str, access: &dyn NeighborAccess, n: usize, stats: &IoStats) -> String {
    let before = stats.snapshot();
    let mut h = Fnv::new();
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..READS {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let v = ((s >> 33) % n as u64) as VertexId;
        access
            .with_neighbors(v, &mut |ns| {
                h.bytes(&(ns.len() as u32).to_le_bytes());
                for u in ns {
                    h.bytes(&u.to_le_bytes());
                }
            })
            .unwrap();
    }
    let d = delta(stats, &before);
    format!(
        "{name}: lists={:016x} blocks={} hits={} misses={} evictions={}",
        h.0, d.blocks_read, d.cache_hits, d.cache_misses, d.cache_evictions
    )
}

fn pager() -> PagerConfig {
    PagerConfig {
        page_size: 64,
        frames: 4,
        policy: PolicyKind::Clock,
    }
}

fn graphs() -> Vec<(String, CsrGraph)> {
    [(2_000u64, 1.8, 1u64), (3_000, 2.0, 2), (4_000, 2.3, 3)]
        .into_iter()
        .map(|(n, beta, seed)| {
            let g = mis_gen::plrg::Plrg::with_vertices(n, beta)
                .seed(seed)
                .generate();
            (format!("plrg-n{n}-b{beta}-s{seed}"), g)
        })
        .collect()
}

fn actual_lines() -> Vec<String> {
    let sort = SortConfig {
        mem_records: 4_096,
        fan_in: 8,
        block_size: BLOCK,
    };
    let mut lines = Vec::new();
    for (name, g) in graphs() {
        let dir = ScratchDir::new("format-golden").unwrap();
        let stats = IoStats::shared();
        let n = g.num_vertices();
        lines.push(format!("{name}: |V|={n} |E|={}", g.num_edges()));

        // The writers.
        let raw = build_adj_file(&g, &dir.file("raw.adj"), Arc::clone(&stats), BLOCK).unwrap();
        compress_adj(&raw, &dir.file("raw.cadj"), Arc::clone(&stats), BLOCK).unwrap();
        let sorted = degree_sort_adj_file(&raw, &dir.file("sorted.adj"), &sort, &dir).unwrap();
        let sorted_c =
            degree_sort_compressed_adj_file(&raw, &dir.file("sorted.cadj"), &sort, &dir).unwrap();
        for file in ["raw.adj", "raw.cadj", "sorted.adj", "sorted.cadj"] {
            lines.push(format!("{name} {}", file_line(file, &dir.file(file))));
        }

        // The record index, per codec: over the files the writers just
        // wrote (`writer=`), and over the degree-sorted plain file or the
        // compressed copy, with that build's cost (`scan=`, `build=`).
        let mut writer = AdjFileWriter::create(
            &dir.file("indexed.adj"),
            n as u64,
            sorted.num_edges(),
            Arc::clone(&stats),
            BLOCK,
        )
        .unwrap();
        writer.write_scan(&sorted).unwrap();
        writer.finish().unwrap();
        let indexed_c = compress_adj(
            &sorted,
            &dir.file("indexed.cadj"),
            Arc::clone(&stats),
            BLOCK,
        )
        .unwrap();
        lines.push(format!(
            "{name} indexed.adj: {}",
            file_hash(&dir.file("indexed.adj"))
        ));
        lines.push(format!(
            "{name} indexed.cadj: {}",
            file_hash(&dir.file("indexed.cadj"))
        ));
        let indexed = mis_graph::AdjFile::open_with_block_size(
            &dir.file("indexed.adj"),
            Arc::clone(&stats),
            BLOCK,
        )
        .unwrap();
        let written = RecordIndex::build(&indexed).unwrap();
        let written_c = RecordIndex::build(&indexed_c).unwrap();
        let before = stats.snapshot();
        let built = RecordIndex::build(&sorted).unwrap();
        let plain_build = delta(&stats, &before);
        let before = stats.snapshot();
        let built_c = RecordIndex::build(&indexed_c).unwrap();
        let comp_build = delta(&stats, &before);
        lines.push(format!(
            "{name} index adj: writer={} scan={} build={}/{}",
            offsets_hash(n, |v| written.offset(v)),
            offsets_hash(n, |v| built.offset(v)),
            plain_build.scans_started,
            plain_build.blocks_read,
        ));
        lines.push(format!(
            "{name} index cadj: writer={} scan={} build={}/{}",
            offsets_hash(n, |v| written_c.offset(v)),
            offsets_hash(n, |v| built_c.offset(v)),
            comp_build.scans_started,
            comp_build.blocks_read,
        ));
        drop((sorted, sorted_c));

        // The paged fetch, on both degree-sorted files.
        let stats = IoStats::shared();
        let file = mis_graph::AdjFile::open_with_block_size(
            &dir.file("sorted.adj"),
            Arc::clone(&stats),
            BLOCK,
        )
        .unwrap();
        let ra = RandomAccessGraph::open(&file, pager()).unwrap();
        lines.push(format!("{name} {}", read_line("paged adj", &ra, n, &stats)));
        let stats = IoStats::shared();
        let file = CompressedAdjFile::open_with_block_size(
            &dir.file("sorted.cadj"),
            Arc::clone(&stats),
            BLOCK,
        )
        .unwrap();
        let ra = RandomAccessGraph::open_compressed(&file, pager()).unwrap();
        lines.push(format!(
            "{name} {}",
            read_line("paged cadj", &ra, n, &stats)
        ));
    }
    lines
}

/// Recorded with separate plain and compressed implementations.
const GOLDEN: &[&str] = &[
    "plrg-n2000-b1.8-s1: |V|=1977 |E|=3237",
    "plrg-n2000-b1.8-s1 raw.adj: bytes=41736 fnv=392db13677078a5d open=0/1 scan=1/164/41736 entries=6474 scan_blocks=1/164 blocks=32",
    "plrg-n2000-b1.8-s1 raw.cadj: bytes=14565 fnv=94d51cf354f54e2a open=0/1 scan=1/57/14565 entries=6474 scan_blocks=1/57 blocks=32",
    "plrg-n2000-b1.8-s1 sorted.adj: bytes=41736 fnv=b591cd025a0127b5 open=0/1 scan=1/164/41736 entries=6474 scan_blocks=1/164 blocks=32",
    "plrg-n2000-b1.8-s1 sorted.cadj: bytes=14565 fnv=22e5f47efe55d076 open=0/1 scan=1/57/14565 entries=6474 scan_blocks=1/57 blocks=32",
    "plrg-n2000-b1.8-s1 indexed.adj: bytes=41736 fnv=b591cd025a0127b5",
    "plrg-n2000-b1.8-s1 indexed.cadj: bytes=14565 fnv=22e5f47efe55d076",
    "plrg-n2000-b1.8-s1 index adj: writer=736ecc3b1c3b605a scan=736ecc3b1c3b605a build=1/164",
    "plrg-n2000-b1.8-s1 index cadj: writer=9f8d0508707c71fc scan=9f8d0508707c71fc build=1/57",
    "plrg-n2000-b1.8-s1 paged adj: lists=9be37ae0f310e58b blocks=2572 hits=20 misses=2572 evictions=2568",
    "plrg-n2000-b1.8-s1 paged cadj: lists=798cf05bb7d2bb13 blocks=2151 hits=54 misses=2151 evictions=2147",
    "plrg-n3000-b2-s2: |V|=2979 |E|=3812",
    "plrg-n3000-b2-s2 raw.adj: bytes=54352 fnv=8b74444776131d7f open=0/1 scan=1/213/54352 entries=7624 scan_blocks=1/213 blocks=47",
    "plrg-n3000-b2-s2 raw.cadj: bytes=20307 fnv=574cb8c75827e1f9 open=0/1 scan=1/80/20307 entries=7624 scan_blocks=1/80 blocks=47",
    "plrg-n3000-b2-s2 sorted.adj: bytes=54352 fnv=1cf105bf2468ce4b open=0/1 scan=1/213/54352 entries=7624 scan_blocks=1/213 blocks=47",
    "plrg-n3000-b2-s2 sorted.cadj: bytes=20307 fnv=0b34f987a8cbc425 open=0/1 scan=1/80/20307 entries=7624 scan_blocks=1/80 blocks=47",
    "plrg-n3000-b2-s2 indexed.adj: bytes=54352 fnv=1cf105bf2468ce4b",
    "plrg-n3000-b2-s2 indexed.cadj: bytes=20307 fnv=0b34f987a8cbc425",
    "plrg-n3000-b2-s2 index adj: writer=0589e1eab7d74dc3 scan=0589e1eab7d74dc3 build=1/213",
    "plrg-n3000-b2-s2 index cadj: writer=c6147758d96a7c5c scan=c6147758d96a7c5c build=1/80",
    "plrg-n3000-b2-s2 paged adj: lists=76f380e66f48f9e4 blocks=2453 hits=20 misses=2453 evictions=2449",
    "plrg-n3000-b2-s2 paged cadj: lists=edcec24b78b3dacc blocks=2133 hits=38 misses=2133 evictions=2129",
    "plrg-n4000-b2.3-s3: |V|=3985 |E|=3746",
    "plrg-n4000-b2.3-s3 raw.adj: bytes=61872 fnv=19a02454454d68a0 open=0/1 scan=1/242/61872 entries=7492 scan_blocks=1/242 blocks=63",
    "plrg-n4000-b2.3-s3 raw.cadj: bytes=24456 fnv=77688dce1ae9e1d5 open=0/1 scan=1/96/24456 entries=7492 scan_blocks=1/96 blocks=63",
    "plrg-n4000-b2.3-s3 sorted.adj: bytes=61872 fnv=d3d20476c6c054c8 open=0/1 scan=1/242/61872 entries=7492 scan_blocks=1/242 blocks=63",
    "plrg-n4000-b2.3-s3 sorted.cadj: bytes=24456 fnv=3c0db05b44125853 open=0/1 scan=1/96/24456 entries=7492 scan_blocks=1/96 blocks=63",
    "plrg-n4000-b2.3-s3 indexed.adj: bytes=61872 fnv=d3d20476c6c054c8",
    "plrg-n4000-b2.3-s3 indexed.cadj: bytes=24456 fnv=3c0db05b44125853",
    "plrg-n4000-b2.3-s3 index adj: writer=e7589cbf55b53e21 scan=e7589cbf55b53e21 build=1/242",
    "plrg-n4000-b2.3-s3 index cadj: writer=e2371a5837787d0d scan=e2371a5837787d0d build=1/96",
    "plrg-n4000-b2.3-s3 paged adj: lists=5dbab023288171ca blocks=2347 hits=10 misses=2347 evictions=2343",
    "plrg-n4000-b2.3-s3 paged cadj: lists=7905e07cd23f8e1a blocks=2144 hits=28 misses=2144 evictions=2140",
];

#[test]
fn formats_match_golden_bytes_and_counters() {
    let actual = actual_lines();
    let table = actual
        .iter()
        .map(|l| format!("    \"{l}\","))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(
        actual.len(),
        GOLDEN.len(),
        "line count changed; actual table:\n{table}"
    );
    for (a, g) in actual.iter().zip(GOLDEN) {
        assert_eq!(a, g, "format output drifted; actual table:\n{table}");
    }
}
