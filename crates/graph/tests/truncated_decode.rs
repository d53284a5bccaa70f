//! Truncation and corruption robustness of the on-disk decoders.
//!
//! A file cut mid-varint, mid-record, or mid-header must surface a clean
//! `io::Error` (`UnexpectedEof` for truncation, `InvalidData` for
//! corrupt bytes) from **every** access path — whole-file scan, block
//! scan, the raw hand-out scan with worker-side decode, the record
//! index, and the paged random-access reads. Never a panic, and never a
//! silent short read: a scan over a truncated file that reports `Ok`
//! would quietly drop edges and corrupt every algorithm above it.

use std::io::ErrorKind;
use std::sync::Arc;

use mis_extmem::pager::PolicyKind;
use mis_extmem::{IoStats, PagerConfig, ScratchDir};
use mis_graph::{
    build_adj_file, compress_adj, AdjFile, CompressedAdjFile, CompressedRecordIndex, CsrGraph,
    GraphScan, NeighborAccess, RandomAccessGraph, RawScanLimits, RecordIndex,
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
fn probe_compressed(path: &std::path::Path) {
    let stats = IoStats::shared();
    let file = match CompressedAdjFile::open_with_block_size(path, stats, 128) {
        Ok(f) => f,
        Err(e) => {
            assert_clean(e, "open");
            return;
        }
    };
    let scan = file.scan(&mut |_, _| {});
    assert_clean(scan.expect_err("scan of truncated file must error"), "scan");
    let blocks = file.scan_blocks(4, &mut |_| {});
    assert_clean(
        blocks.expect_err("scan_blocks of truncated file must error"),
        "scan_blocks",
    );
    // Raw hand-out path: framing must error, and the units framed from
    // the intact part of the file must decode cleanly or cleanly fail.
    let raw = file.raw_scan().expect("compressed backend is raw-capable");
    let limits = RawScanLimits {
        target_records: 4,
        unit_bytes: 64,
    };
    let mut units = Vec::new();
    let framed = raw.scan_raw(limits, &mut |u| {
        units.push(u);
        true
    });
    assert_clean(
        framed.expect_err("scan_raw of truncated file must error"),
        "scan_raw",
    );
    for u in units {
        if let Err(e) = raw.decode_unit(u) {
            assert_clean(e, "decode_unit of framed prefix");
        }
    }
    // Index + paged access: building the index walks every record.
    match CompressedRecordIndex::build(&file) {
        Ok(_) => panic!("index build must not succeed on a truncated file"),
        Err(e) => assert_clean(e, "index build"),
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
        probe_compressed(&path);
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
        let stats = IoStats::shared();
        let file = match AdjFile::open_with_block_size(&path, stats, 128) {
            Ok(f) => f,
            Err(e) => {
                assert_clean(e, "plain open");
                continue;
            }
        };
        assert_clean(
            file.scan(&mut |_, _| {})
                .expect_err("plain scan of truncated file must error"),
            "plain scan",
        );
        match RecordIndex::build(&file) {
            Ok(_) => panic!("plain index build must not succeed on a truncated file"),
            Err(e) => assert_clean(e, "plain index build"),
        }
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
        if let Err(e) = file.scan_blocks(4, &mut |_| {}) {
            assert_clean(e, "mutant scan_blocks");
        }
        let raw = file.raw_scan().expect("compressed backend is raw-capable");
        let limits = RawScanLimits {
            target_records: 2,
            unit_bytes: 48,
        };
        let mut decode_err = None;
        let framed = raw.scan_raw(limits, &mut |u| {
            if let Err(e) = raw.decode_unit(u) {
                decode_err = Some(e);
                return false;
            }
            true
        });
        if let Err(e) = framed {
            assert_clean(e, "mutant scan_raw");
        }
        if let Some(e) = decode_err {
            assert_clean(e, "mutant decode_unit");
        }
        match CompressedRecordIndex::build(&file) {
            Ok(_) => {
                // A survivable mutant: paged reads must still behave.
                let ra = RandomAccessGraph::open_compressed(
                    &file,
                    PagerConfig {
                        page_size: 64,
                        frames: 4,
                        policy: PolicyKind::Clock,
                    },
                )
                .unwrap();
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
    let limits = RawScanLimits {
        target_records: 2,
        unit_bytes: 48,
    };

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
    let raw = file.raw_scan().expect("plain backend is raw-capable");
    assert_eq!(
        kind(raw.scan_raw(limits, &mut |_| true)),
        ErrorKind::InvalidData
    );
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
        if let Err(e) = file.scan_blocks(4, &mut |_| {}) {
            assert_clean(e, "plain mutant scan_blocks");
        }
        let raw = file.raw_scan().expect("plain backend is raw-capable");
        let mut decode_err = None;
        let framed = raw.scan_raw(limits, &mut |u| {
            if let Err(e) = raw.decode_unit(u) {
                decode_err = Some(e);
                return false;
            }
            true
        });
        if let Err(e) = framed {
            assert_clean(e, "plain mutant scan_raw");
        }
        if let Some(e) = decode_err {
            assert_clean(e, "plain mutant decode_unit");
        }
        match RecordIndex::build(&file) {
            Ok(index) => {
                // A survivable mutant: paged reads must still behave.
                let ra = RandomAccessGraph::with_index(
                    &file,
                    index,
                    PagerConfig {
                        page_size: 64,
                        frames: 4,
                        policy: PolicyKind::Clock,
                    },
                )
                .unwrap();
                for v in 0..file.num_vertices() as u32 {
                    if let Err(e) = ra.with_neighbors(v, &mut |_| {}) {
                        assert_clean(e, "plain mutant paged read");
                    }
                }
            }
            Err(e) => assert_clean(e, "plain mutant index build"),
        }
    }
}
