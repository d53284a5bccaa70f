//! Truncation and corruption robustness of the on-disk decoders.
//!
//! A file cut mid-varint, mid-record, or mid-header must surface a clean
//! `io::Error` (`UnexpectedEof` for truncation, `InvalidData` for
//! corrupt bytes) from **every** access path — whole-file scan, block
//! scan, the record index, a scan that builds the index on the way, and
//! the paged random-access reads. Never a panic, and never a silent
//! short read: a scan over a truncated file that reports `Ok` would
//! quietly drop edges and corrupt every algorithm above it. The same
//! goes, on both codecs, for a header whose `|V|` the file cannot hold,
//! a file replaced behind an open handle, and a file that repeats one
//! vertex's record in place of another's.

use std::io::ErrorKind;
use std::sync::Arc;

use mis_extmem::pager::PolicyKind;
use mis_extmem::{IoStats, PagerConfig, ScratchDir};
use mis_graph::{
    build_adj_file, compress_adj, AdjFile, CompressedAdjFile, CsrGraph, GapCodec, GraphScan,
    NeighborAccess, PlainCodec, RandomAccessGraph, RecordCodec, RecordFile, RecordIndex,
    RecordWriter,
};

/// A small power-law-ish graph built by hand (`mis-gen` depends on this
/// crate): one hub wired to everything (a large record with both tiny
/// and multi-byte gaps), a sparse ring, and a clique over spread-out
/// ids so degrees — and varint widths — vary.
fn test_graph() -> CsrGraph {
    let n = 60u32;
    let mut edges = Vec::new();
    for v in 1..n {
        edges.push((0, v));
    }
    for v in 1..n {
        edges.push((v, (v % (n - 1)) + 1));
    }
    for (i, a) in (1..n).step_by(11).enumerate() {
        for b in (1..n).step_by(11).skip(i + 1) {
            edges.push((a, b));
        }
    }
    CsrGraph::from_edges(n as usize, &edges)
}

fn scratch_pair(dir: &ScratchDir) -> (AdjFile, CompressedAdjFile) {
    let g = test_graph();
    let stats = IoStats::shared();
    let plain = build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 128).unwrap();
    let comp = compress_adj(&plain, &dir.file("g.cadj"), stats, 128).unwrap();
    (plain, comp)
}

fn assert_clean(err: std::io::Error, what: &str) {
    assert!(
        matches!(
            err.kind(),
            ErrorKind::UnexpectedEof | ErrorKind::InvalidData
        ),
        "{what}: unexpected error kind {:?} ({err})",
        err.kind()
    );
}

/// Every access path over the prefix at `path` must fail cleanly (or
/// the prefix must already fail to open). The scans read exactly `|V|`
/// records, so a strict prefix can never scan to `Ok` — even a cut on a
/// record boundary runs out of records.
fn probe_prefix<C: RecordCodec>(path: &std::path::Path) {
    let file = match open::<C>(path) {
        Ok(f) => f,
        Err(e) => {
            assert_clean(e, "open");
            return;
        }
    };
    let scan = file.scan(&mut |_, _| {});
    assert_clean(scan.expect_err("scan of truncated file must error"), "scan");
    // Index + paged access: building the index walks every record.
    match RecordIndex::build(&file) {
        Ok(_) => panic!("index build must not succeed on a truncated file"),
        Err(e) => assert_clean(e, "index build"),
    }
    // Opening the paged path scans nothing. The next scan builds the
    // index on the way, fails, and publishes nothing, so the first read
    // scans again and fails too.
    let ra = RandomAccessGraph::open(&file, small_pager()).expect("open scans nothing");
    let riding = file.scan(&mut |_, _| {});
    assert_clean(riding.expect_err("a riding scan must error"), "riding scan");
    let read = ra.with_neighbors(0, &mut |_| {});
    assert_clean(
        read.expect_err("a failed scan must not publish an index"),
        "read after a failed riding scan",
    );
}

fn small_pager() -> PagerConfig {
    PagerConfig {
        page_size: 64,
        frames: 4,
        policy: PolicyKind::Clock,
    }
}

#[test]
fn every_strict_prefix_of_a_compressed_file_errors_cleanly() {
    let dir = ScratchDir::new("trunc-comp").unwrap();
    let (_, comp) = scratch_pair(&dir);
    let bytes = std::fs::read(dir.file("g.cadj")).unwrap();
    assert!(bytes.len() > 64, "fixture too small to be interesting");
    drop(comp);
    // Every strict prefix: header cuts, mid-varint cuts, mid-record
    // cuts, and cuts on record boundaries (caught by the |E| total).
    for cut in 0..bytes.len() {
        let path = dir.file("cut.cadj");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        probe_prefix::<GapCodec>(&path);
    }
}

#[test]
fn every_strict_prefix_of_a_plain_file_errors_cleanly() {
    let dir = ScratchDir::new("trunc-plain").unwrap();
    let (plain, _) = scratch_pair(&dir);
    let bytes = std::fs::read(dir.file("g.adj")).unwrap();
    drop(plain);
    for cut in 0..bytes.len() {
        let path = dir.file("cut.adj");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        probe_prefix::<PlainCodec>(&path);
    }
}

#[test]
fn corrupt_compressed_bytes_error_cleanly_everywhere() {
    let dir = ScratchDir::new("corrupt-comp").unwrap();
    let (_, comp) = scratch_pair(&dir);
    let clean = std::fs::read(dir.file("g.cadj")).unwrap();
    drop(comp);
    // Flip each payload byte to a continuation byte (0xFF) — this
    // manufactures overlong varints, absurd degrees, and broken gap
    // runs at every alignment. Each mutant must fail cleanly from every
    // path, or legitimately decode (a flip can land on a value that is
    // merely different, e.g. inside the |E| field or a neighbour gap
    // that stays in range) — in that case the scan itself validates
    // record framing, so an `Ok` outcome is only reachable when the
    // decode stays structurally consistent.
    for at in 8..clean.len().min(160) {
        let mut mutant = clean.clone();
        mutant[at] = 0xFF;
        let path = dir.file("mut.cadj");
        std::fs::write(&path, &mutant).unwrap();
        let stats = IoStats::shared();
        let file = match CompressedAdjFile::open_with_block_size(&path, stats, 128) {
            Ok(f) => f,
            Err(e) => {
                assert_clean(e, "mutant open");
                continue;
            }
        };
        if let Err(e) = file.scan(&mut |_, _| {}) {
            assert_clean(e, "mutant scan");
        }
        match RecordIndex::build(&file) {
            Ok(_) => {
                // A survivable mutant: paged reads must still behave.
                let ra = RandomAccessGraph::open_compressed(&file, small_pager()).unwrap();
                for v in 0..file.num_vertices() as u32 {
                    let mut nbrs = Vec::new();
                    if let Err(e) = ra.with_neighbors(v, &mut |ns| nbrs.extend_from_slice(ns)) {
                        assert_clean(e, "mutant paged read");
                    }
                }
            }
            Err(e) => assert_clean(e, "mutant index build"),
        }
    }
}

#[test]
fn corrupt_plain_bytes_error_cleanly_everywhere() {
    let dir = ScratchDir::new("corrupt-plain").unwrap();
    let (plain, _) = scratch_pair(&dir);
    let clean = std::fs::read(dir.file("g.adj")).unwrap();
    drop(plain);

    // A degree far above |V| is corruption and must be rejected before
    // any buffer is sized by it: a top byte of 0xFF asks for a 16 GiB
    // record. Byte 7 of the first record is its degree's top byte.
    let mut huge = clean.clone();
    huge[mis_graph::adjfile::HEADER_BYTES + 7] = 0xFF;
    let path = dir.file("huge.adj");
    std::fs::write(&path, &huge).unwrap();
    let file = AdjFile::open_with_block_size(&path, IoStats::shared(), 128).unwrap();
    let kind = |r: std::io::Result<()>| r.expect_err("corrupt degree must error").kind();
    assert_eq!(kind(file.scan(&mut |_, _| {})), ErrorKind::InvalidData);
    assert_eq!(
        RecordIndex::build(&file).expect_err("index build").kind(),
        ErrorKind::InvalidData
    );

    // Flip every header and record byte to 0xFF: |V| counts the file
    // cannot hold, out-of-range vertex ids, degrees above |V| and stray
    // neighbour ids at every alignment. Each mutant must fail cleanly
    // from every path, or decode.
    for at in 8..clean.len() {
        let mut mutant = clean.clone();
        mutant[at] = 0xFF;
        let path = dir.file("mut.adj");
        std::fs::write(&path, &mutant).unwrap();
        let file = match AdjFile::open_with_block_size(&path, IoStats::shared(), 128) {
            Ok(f) => f,
            Err(e) => {
                assert_clean(e, "plain mutant open");
                continue;
            }
        };
        if let Err(e) = file.scan(&mut |_, _| {}) {
            assert_clean(e, "plain mutant scan");
        }
        // Paged reads must fail cleanly or behave; the first one builds
        // the index.
        let ra = RandomAccessGraph::open(&file, small_pager()).expect("open scans nothing");
        for v in 0..file.num_vertices() as u32 {
            if let Err(e) = ra.with_neighbors(v, &mut |_| {}) {
                assert_clean(e, "plain mutant paged read");
            }
        }
    }
}

fn writer<C: RecordCodec>(path: &std::path::Path, vertices: u64, edges: u64) -> RecordWriter<C> {
    RecordWriter::create(path, vertices, edges, IoStats::shared(), 128).unwrap()
}

fn open<C: RecordCodec>(path: &std::path::Path) -> std::io::Result<RecordFile<C>> {
    RecordFile::open_with_block_size(path, IoStats::shared(), 128)
}

/// A 47-byte file whose header claims 2^33 vertices: every caller sizes
/// per-vertex arrays by `|V|`, so `open` must refuse a count the record
/// bytes cannot hold.
fn oversized_vertex_count_is_rejected<C: RecordCodec>() {
    let dir = ScratchDir::new("oversized-v").unwrap();
    let path = dir.file("g");
    let mut bytes = C::MAGIC.to_vec();
    C::encode_header(1 << 33, 0, &mut bytes).unwrap();
    bytes.resize(47, 0);
    std::fs::write(&path, &bytes).unwrap();
    let err = open::<C>(&path).expect_err("a |V| the file cannot hold must be rejected");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{}", C::STORAGE);
}

#[test]
fn oversized_vertex_count_is_rejected_at_open() {
    oversized_vertex_count_is_rejected::<PlainCodec>();
    oversized_vertex_count_is_rejected::<GapCodec>();
}

/// A handle whose file was replaced by another graph's file must fail
/// every pass with `InvalidData` instead of reading the new records.
fn replaced_file_fails_every_pass<C: RecordCodec>() {
    let dir = ScratchDir::new("replaced").unwrap();
    let path = dir.file("g");
    let write = |g: &CsrGraph| {
        let mut w = writer::<C>(&path, g.num_vertices() as u64, g.num_edges());
        w.write_scan(g).unwrap();
        w.finish().unwrap();
    };
    let ring = |n: u32| {
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        CsrGraph::from_edges(n as usize, &edges)
    };
    write(&ring(6));
    let file = open::<C>(&path).unwrap();
    // Degree 2 everywhere: the new file's first 6 records pass every
    // per-record check, so only the header comparison catches the swap.
    write(&ring(20));
    let kind = |r: std::io::Result<()>| r.expect_err("a replaced file must not scan").kind();
    assert_eq!(kind(file.scan(&mut |_, _| {})), ErrorKind::InvalidData);
    let err = RecordIndex::build(&file).expect_err("index build of a replaced file");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert!(err.to_string().contains("header changed"), "{err}");
}

#[test]
fn replaced_file_fails_every_pass_on_both_codecs() {
    replaced_file_fails_every_pass::<PlainCodec>();
    replaced_file_fails_every_pass::<GapCodec>();
}

/// Records for vertices 0, 1, 1, 3: the right count, but vertex 1 twice
/// and vertex 2 never. An index over it would misdirect reads of 1 and
/// 2, so building one must fail: by [`RecordIndex::build`], at the paged
/// path's first point read, and in a scan that builds it on the way.
fn duplicate_record_fails_the_index_build<C: RecordCodec>() {
    let dir = ScratchDir::new("dup-record").unwrap();
    let path = dir.file("g");
    let mut w = writer::<C>(&path, 4, 0);
    for v in [0, 1, 1, 3] {
        w.write_record(v, &[]).unwrap();
    }
    w.finish().unwrap();
    let duplicate = |err: std::io::Error| {
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("duplicate record for vertex 1"),
            "{err}"
        );
    };
    let file = open::<C>(&path).unwrap();
    duplicate(RecordIndex::build(&file).expect_err("a duplicate record must fail the index"));
    // Opening the paged path scans nothing; its first read builds the
    // index.
    let ra = RandomAccessGraph::open(&file, small_pager()).expect("open scans nothing");
    duplicate(
        ra.with_neighbors(0, &mut |_| {})
            .expect_err("the first point read indexes"),
    );
    // On a fresh handle the next full scan builds the index on the way,
    // fails, and publishes nothing.
    let file = open::<C>(&path).unwrap();
    let ra = RandomAccessGraph::open(&file, small_pager()).expect("open scans nothing");
    duplicate(
        file.scan(&mut |_, _| {})
            .expect_err("a riding scan indexes"),
    );
    duplicate(
        ra.with_neighbors(3, &mut |_| {})
            .expect_err("nothing was published"),
    );
}

#[test]
fn duplicate_record_fails_the_index_build_on_both_codecs() {
    duplicate_record_fails_the_index_build::<PlainCodec>();
    duplicate_record_fails_the_index_build::<GapCodec>();
}
