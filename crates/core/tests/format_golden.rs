//! Golden bytes and I/O counters of the two on-disk adjacency formats.
//!
//! For three seeded `P(α, β)` graphs this pins everything the record
//! codecs, the writers, the readers, the record index and the paged
//! fetch must leave untouched:
//!
//! * the length and FNV-1a hash of every file the writers produce:
//!   `build_adj_file`, `compress_adj`, both degree sorts, a copy of the
//!   degree-sorted graph through each codec's writer (`indexed.*`), and
//!   2- and 3-shard splits of both codecs (manifest and shard files);
//! * the scans, blocks and bytes read by opening, scanning and
//!   block-scanning each single file;
//! * a hash of every record offset of each codec's scan-built index:
//!   over the writer's copy (`writer=`), and over the degree-sorted plain
//!   file or the compressed copy (`scan=`), plus that build's scans and
//!   blocks;
//! * 2,000 seeded paged reads per codec and per sharded store through 4
//!   frames of 64-byte pages: a hash of the returned lists, plus blocks
//!   read, cache hits, misses and evictions.
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
    split_adj_file, AnyAdjFile, CompressedAdjFile, CsrGraph, GraphScan, NeighborAccess,
    RandomAccessGraph, RecordIndex, ShardedGraph, SplitOptions, VertexId,
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
        let raw_c = compress_adj(&raw, &dir.file("raw.cadj"), Arc::clone(&stats), BLOCK).unwrap();
        let sorted = degree_sort_adj_file(&raw, &dir.file("sorted.adj"), &sort, &dir).unwrap();
        let sorted_c =
            degree_sort_compressed_adj_file(&raw, &dir.file("sorted.cadj"), &sort, &dir).unwrap();
        for file in ["raw.adj", "raw.cadj", "sorted.adj", "sorted.cadj"] {
            lines.push(format!("{name} {}", file_line(file, &dir.file(file))));
        }
        for (ext, source) in [
            ("adj", AnyAdjFile::Plain(raw.clone())),
            ("cadj", AnyAdjFile::Compressed(raw_c.clone())),
        ] {
            for shards in [2usize, 3] {
                let manifest_path = dir.file(&format!("{ext}{shards}.shrd"));
                let manifest = split_adj_file(
                    &source,
                    &manifest_path,
                    &SplitOptions {
                        shards,
                        block_size: BLOCK,
                    },
                )
                .unwrap();
                lines.push(format!(
                    "{name} {ext}{shards}.shrd: {}",
                    file_hash(&manifest_path)
                ));
                for meta in &manifest.shards {
                    lines.push(format!(
                        "{name} {}: {}",
                        meta.name,
                        file_hash(&dir.file(&meta.name))
                    ));
                }
            }
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

        // ... and on the sharded stores (rank-keyed shard indexes).
        for ext in ["adj", "cadj"] {
            for shards in [2usize, 3] {
                let stats = IoStats::shared();
                let store = ShardedGraph::open_with_block_size(
                    &dir.file(&format!("{ext}{shards}.shrd")),
                    Arc::clone(&stats),
                    BLOCK,
                )
                .unwrap();
                let before = stats.snapshot();
                let ra = store.open_random_access(pager()).unwrap();
                let open = delta(&stats, &before);
                let line = read_line(&format!("paged {ext}{shards}.shrd"), &ra, n, &stats);
                lines.push(format!(
                    "{name} {line} open={}/{}",
                    open.scans_started, open.blocks_read
                ));
            }
        }
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
    "plrg-n2000-b1.8-s1 adj2.shrd: bytes=142 fnv=dd2aa59f15b8edb9",
    "plrg-n2000-b1.8-s1 adj2.s000.adj: bytes=20888 fnv=bb9f29cb7ab3e75e",
    "plrg-n2000-b1.8-s1 adj2.s001.adj: bytes=20872 fnv=4ffd6412ce7f1912",
    "plrg-n2000-b1.8-s1 adj3.shrd: bytes=197 fnv=9db60449042e8e60",
    "plrg-n2000-b1.8-s1 adj3.s000.adj: bytes=13940 fnv=e9fdd57f092b9c6b",
    "plrg-n2000-b1.8-s1 adj3.s001.adj: bytes=13928 fnv=f2c2f8669da0b556",
    "plrg-n2000-b1.8-s1 adj3.s002.adj: bytes=13916 fnv=d9e73ea6da26ccae",
    "plrg-n2000-b1.8-s1 cadj2.shrd: bytes=146 fnv=3b74d61575c34310",
    "plrg-n2000-b1.8-s1 cadj2.s000.cadj: bytes=6644 fnv=b88e0e7462e3c204",
    "plrg-n2000-b1.8-s1 cadj2.s001.cadj: bytes=7941 fnv=113fd8713d5d79d0",
    "plrg-n2000-b1.8-s1 cadj3.shrd: bytes=203 fnv=ca8ac17475d3b6be",
    "plrg-n2000-b1.8-s1 cadj3.s000.cadj: bytes=4177 fnv=774527a7ecbc8e26",
    "plrg-n2000-b1.8-s1 cadj3.s001.cadj: bytes=5085 fnv=2b7ced23ac89587b",
    "plrg-n2000-b1.8-s1 cadj3.s002.cadj: bytes=5343 fnv=d37b8fd8235c08aa",
    "plrg-n2000-b1.8-s1 indexed.adj: bytes=41736 fnv=b591cd025a0127b5",
    "plrg-n2000-b1.8-s1 indexed.cadj: bytes=14565 fnv=22e5f47efe55d076",
    "plrg-n2000-b1.8-s1 index adj: writer=736ecc3b1c3b605a scan=736ecc3b1c3b605a build=1/164",
    "plrg-n2000-b1.8-s1 index cadj: writer=9f8d0508707c71fc scan=9f8d0508707c71fc build=1/57",
    "plrg-n2000-b1.8-s1 paged adj: lists=9be37ae0f310e58b blocks=2572 hits=20 misses=2572 evictions=2568",
    "plrg-n2000-b1.8-s1 paged cadj: lists=798cf05bb7d2bb13 blocks=2151 hits=54 misses=2151 evictions=2147",
    "plrg-n2000-b1.8-s1 paged adj2.shrd: lists=9be37ae0f310e58b blocks=2565 hits=10 misses=2565 evictions=2562 open=2/166",
    "plrg-n2000-b1.8-s1 paged adj3.shrd: lists=9be37ae0f310e58b blocks=2556 hits=12 misses=2556 evictions=2553 open=3/168",
    "plrg-n2000-b1.8-s1 paged cadj2.shrd: lists=798cf05bb7d2bb13 blocks=2160 hits=39 misses=2160 evictions=2157 open=2/60",
    "plrg-n2000-b1.8-s1 paged cadj3.shrd: lists=798cf05bb7d2bb13 blocks=2193 hits=21 misses=2193 evictions=2190 open=3/61",
    "plrg-n3000-b2-s2: |V|=2979 |E|=3812",
    "plrg-n3000-b2-s2 raw.adj: bytes=54352 fnv=8b74444776131d7f open=0/1 scan=1/213/54352 entries=7624 scan_blocks=1/213 blocks=47",
    "plrg-n3000-b2-s2 raw.cadj: bytes=20307 fnv=574cb8c75827e1f9 open=0/1 scan=1/80/20307 entries=7624 scan_blocks=1/80 blocks=47",
    "plrg-n3000-b2-s2 sorted.adj: bytes=54352 fnv=1cf105bf2468ce4b open=0/1 scan=1/213/54352 entries=7624 scan_blocks=1/213 blocks=47",
    "plrg-n3000-b2-s2 sorted.cadj: bytes=20307 fnv=0b34f987a8cbc425 open=0/1 scan=1/80/20307 entries=7624 scan_blocks=1/80 blocks=47",
    "plrg-n3000-b2-s2 adj2.shrd: bytes=142 fnv=bf0ff2b376fbc66d",
    "plrg-n3000-b2-s2 adj2.s000.adj: bytes=27188 fnv=df856e9ff9377340",
    "plrg-n3000-b2-s2 adj2.s001.adj: bytes=27188 fnv=31ba856d75d6574a",
    "plrg-n3000-b2-s2 adj3.shrd: bytes=197 fnv=6ab894e8c49e2ed1",
    "plrg-n3000-b2-s2 adj3.s000.adj: bytes=18152 fnv=94bc9d643d2c5553",
    "plrg-n3000-b2-s2 adj3.s001.adj: bytes=18116 fnv=ede217bc954f3907",
    "plrg-n3000-b2-s2 adj3.s002.adj: bytes=18132 fnv=f2322f5f271420bf",
    "plrg-n3000-b2-s2 cadj2.shrd: bytes=146 fnv=0471c57ca46d1bca",
    "plrg-n3000-b2-s2 cadj2.s000.cadj: bytes=9664 fnv=ae77dd4d15a8fd07",
    "plrg-n3000-b2-s2 cadj2.s001.cadj: bytes=10663 fnv=7c34bc6321d9de8e",
    "plrg-n3000-b2-s2 cadj3.shrd: bytes=203 fnv=11c222a3d41a4238",
    "plrg-n3000-b2-s2 cadj3.s000.cadj: bytes=6158 fnv=42d311fc7aad8447",
    "plrg-n3000-b2-s2 cadj3.s001.cadj: bytes=7075 fnv=2ec47efea78dd90d",
    "plrg-n3000-b2-s2 cadj3.s002.cadj: bytes=7114 fnv=b5345c460fff39d1",
    "plrg-n3000-b2-s2 indexed.adj: bytes=54352 fnv=1cf105bf2468ce4b",
    "plrg-n3000-b2-s2 indexed.cadj: bytes=20307 fnv=0b34f987a8cbc425",
    "plrg-n3000-b2-s2 index adj: writer=0589e1eab7d74dc3 scan=0589e1eab7d74dc3 build=1/213",
    "plrg-n3000-b2-s2 index cadj: writer=c6147758d96a7c5c scan=c6147758d96a7c5c build=1/80",
    "plrg-n3000-b2-s2 paged adj: lists=76f380e66f48f9e4 blocks=2453 hits=20 misses=2453 evictions=2449",
    "plrg-n3000-b2-s2 paged cadj: lists=edcec24b78b3dacc blocks=2133 hits=38 misses=2133 evictions=2129",
    "plrg-n3000-b2-s2 paged adj2.shrd: lists=76f380e66f48f9e4 blocks=2434 hits=13 misses=2434 evictions=2430 open=2/216",
    "plrg-n3000-b2-s2 paged adj3.shrd: lists=76f380e66f48f9e4 blocks=2442 hits=3 misses=2442 evictions=2439 open=3/216",
    "plrg-n3000-b2-s2 paged cadj2.shrd: lists=edcec24b78b3dacc blocks=2167 hits=22 misses=2167 evictions=2164 open=2/82",
    "plrg-n3000-b2-s2 paged cadj3.shrd: lists=edcec24b78b3dacc blocks=2159 hits=15 misses=2159 evictions=2156 open=3/84",
    "plrg-n4000-b2.3-s3: |V|=3985 |E|=3746",
    "plrg-n4000-b2.3-s3 raw.adj: bytes=61872 fnv=19a02454454d68a0 open=0/1 scan=1/242/61872 entries=7492 scan_blocks=1/242 blocks=63",
    "plrg-n4000-b2.3-s3 raw.cadj: bytes=24456 fnv=77688dce1ae9e1d5 open=0/1 scan=1/96/24456 entries=7492 scan_blocks=1/96 blocks=63",
    "plrg-n4000-b2.3-s3 sorted.adj: bytes=61872 fnv=d3d20476c6c054c8 open=0/1 scan=1/242/61872 entries=7492 scan_blocks=1/242 blocks=63",
    "plrg-n4000-b2.3-s3 sorted.cadj: bytes=24456 fnv=3c0db05b44125853 open=0/1 scan=1/96/24456 entries=7492 scan_blocks=1/96 blocks=63",
    "plrg-n4000-b2.3-s3 adj2.shrd: bytes=142 fnv=e7ebb2bc1e3ec98e",
    "plrg-n4000-b2.3-s3 adj2.s000.adj: bytes=30948 fnv=00d675bb3947f484",
    "plrg-n4000-b2.3-s3 adj2.s001.adj: bytes=30948 fnv=2c1cb07170672187",
    "plrg-n4000-b2.3-s3 adj3.shrd: bytes=197 fnv=b79e003791f78a0e",
    "plrg-n4000-b2.3-s3 adj3.s000.adj: bytes=20644 fnv=c6d4f96ebe096829",
    "plrg-n4000-b2.3-s3 adj3.s001.adj: bytes=20636 fnv=d0267eb0327e49c8",
    "plrg-n4000-b2.3-s3 adj3.s002.adj: bytes=20640 fnv=d63debd3108647ed",
    "plrg-n4000-b2.3-s3 cadj2.shrd: bytes=146 fnv=f456ad112f4477d7",
    "plrg-n4000-b2.3-s3 cadj2.s000.cadj: bytes=12110 fnv=7301d593e6749a57",
    "plrg-n4000-b2.3-s3 cadj2.s001.cadj: bytes=12366 fnv=8db93d05d0d98332",
    "plrg-n4000-b2.3-s3 cadj3.shrd: bytes=203 fnv=a63271ef8e059a8b",
    "plrg-n4000-b2.3-s3 cadj3.s000.cadj: bytes=7957 fnv=b62c986d480ce29a",
    "plrg-n4000-b2.3-s3 cadj3.s001.cadj: bytes=8289 fnv=feb7ba1eb9653fe7",
    "plrg-n4000-b2.3-s3 cadj3.s002.cadj: bytes=8250 fnv=49eea85b60307eb3",
    "plrg-n4000-b2.3-s3 indexed.adj: bytes=61872 fnv=d3d20476c6c054c8",
    "plrg-n4000-b2.3-s3 indexed.cadj: bytes=24456 fnv=3c0db05b44125853",
    "plrg-n4000-b2.3-s3 index adj: writer=e7589cbf55b53e21 scan=e7589cbf55b53e21 build=1/242",
    "plrg-n4000-b2.3-s3 index cadj: writer=e2371a5837787d0d scan=e2371a5837787d0d build=1/96",
    "plrg-n4000-b2.3-s3 paged adj: lists=5dbab023288171ca blocks=2347 hits=10 misses=2347 evictions=2343",
    "plrg-n4000-b2.3-s3 paged cadj: lists=7905e07cd23f8e1a blocks=2144 hits=28 misses=2144 evictions=2140",
    "plrg-n4000-b2.3-s3 paged adj2.shrd: lists=5dbab023288171ca blocks=2369 hits=11 misses=2369 evictions=2365 open=2/244",
    "plrg-n4000-b2.3-s3 paged adj3.shrd: lists=5dbab023288171ca blocks=2363 hits=8 misses=2363 evictions=2360 open=3/246",
    "plrg-n4000-b2.3-s3 paged cadj2.shrd: lists=7905e07cd23f8e1a blocks=2150 hits=22 misses=2150 evictions=2147 open=2/99",
    "plrg-n4000-b2.3-s3 paged cadj3.shrd: lists=7905e07cd23f8e1a blocks=2171 hits=18 misses=2171 evictions=2168 open=3/101",
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
