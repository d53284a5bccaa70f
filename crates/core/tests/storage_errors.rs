//! Storage errors through every pass: a file truncated after open must
//! come back from every fallible scan entry point (the degree summary,
//! Greedy, the maximality proof and both bounds) as an `io::Error`, with
//! no panic and no silent short read. The swap algorithms'
//! `try_run_paged` must return the same errors from their scans and from
//! paged reads through a buffer pool.

use std::io::{self, ErrorKind};
use std::path::Path;

use mis_core::engine::passes::try_degree_stats;
use mis_core::{
    try_matching_bound, try_prove_maximal, try_upper_bound_scan, Greedy, OneKSwap, SwapConfig,
    SwapOutcome, TwoKSwap,
};
use mis_extmem::{IoStats, PagerConfig, PolicyKind, ScratchDir};
use mis_graph::{
    build_adj_file, compress_adj, AnyAdjFile, CsrGraph, GraphScan, NeighborAccess, VertexId,
};

/// A swap algorithm's fallible entry point.
type TrySwap = fn(
    SwapConfig,
    &dyn GraphScan,
    Option<&dyn NeighborAccess>,
    &[VertexId],
) -> io::Result<SwapOutcome>;

const BLOCK_SIZE: usize = 1024;

/// Cuts the file at `path` to two thirds of its length.
fn truncate_to_two_thirds(path: &Path) {
    let len = std::fs::metadata(path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .unwrap()
        .set_len(len * 2 / 3)
        .unwrap();
}

fn graph() -> CsrGraph {
    mis_gen::Plrg::with_vertices(20_000, 2.0).seed(5).generate()
}

/// A plain file and its compressed twin, each opened with a paged
/// reader (a 64 KiB pool) and then truncated underneath to two thirds of
/// its length.
fn truncated_stores(
    dir: &ScratchDir,
) -> Vec<(&'static str, AnyAdjFile, Box<dyn NeighborAccess + Send>)> {
    let g = graph();
    let stats = IoStats::shared();
    build_adj_file(&g, &dir.file("g.adj"), stats.clone(), BLOCK_SIZE).unwrap();
    compress_adj(&g, &dir.file("g.cadj"), stats, BLOCK_SIZE).unwrap();
    let pager = PagerConfig::with_capacity_bytes(64 << 10, BLOCK_SIZE, PolicyKind::default());
    let stores = ["plain", "compressed"]
        .into_iter()
        .zip(["g.adj", "g.cadj"])
        .map(|(label, name)| {
            let file =
                AnyAdjFile::open_with_block_size(&dir.file(name), IoStats::shared(), BLOCK_SIZE)
                    .unwrap();
            let access = file.open_random_access(pager).unwrap();
            (label, file, access)
        })
        .collect();
    truncate_to_two_thirds(&dir.file("g.adj"));
    truncate_to_two_thirds(&dir.file("g.cadj"));
    stores
}

fn assert_storage_error(err: std::io::Error, what: &str) {
    assert!(
        matches!(
            err.kind(),
            ErrorKind::UnexpectedEof | ErrorKind::InvalidData
        ),
        "{what}: unexpected error kind {:?} ({err})",
        err.kind()
    );
}

#[test]
fn truncated_storage_errors_through_every_pass() {
    let dir = ScratchDir::new("pass-errors").unwrap();
    let set = Greedy::new().run(&graph()).set;
    for (label, file, _) in truncated_stores(&dir) {
        let n = file.num_vertices();
        let mut visited = 0usize;
        let err = file
            .scan(&mut |_, _| visited += 1)
            .expect_err("scan over a truncated store");
        assert_storage_error(err, &format!("{label} scan"));
        assert!(
            visited < n,
            "{label}: scan visited {visited} of {n} records"
        );

        let passes: [(&str, io::Result<()>); 5] = [
            ("degree stats", try_degree_stats(&file).map(drop)),
            ("greedy", Greedy::new().try_run(&file).map(drop)),
            ("proof", try_prove_maximal(&file, &set).map(drop)),
            ("star bound", try_upper_bound_scan(&file).map(drop)),
            ("matching bound", try_matching_bound(&file).map(drop)),
        ];
        for (pass, result) in passes {
            let err = result.expect_err(&format!("{label} {pass}: over a truncated store"));
            assert_storage_error(err, &format!("{label} {pass}"));
        }
    }
}

/// Runs `swap` over truncated stores: the scans and the paged reads must
/// each come back as a storage error.
fn assert_swap_returns_storage_errors(name: &str, swap: TrySwap) {
    let dir = ScratchDir::new(&format!("{name}-errors")).unwrap();
    let g = graph();
    let initial = Greedy::new().run(&g).set;
    for (label, file, access) in truncated_stores(&dir) {
        let what = format!("{name} {label}");

        // Scanned rounds: the init scan reads the truncated store.
        let config = SwapConfig::default();
        let out = swap(config, file.as_scan(), None, &initial);
        let err = out.expect_err(&format!("{what}: over a truncated store"));
        assert_storage_error(err, &format!("{what} scan"));

        // Paged rounds: the scans read the intact graph in memory and
        // every pre-swap pass reads through the truncated store's pool.
        let config = config.with_paged_threshold(1.0);
        let out = swap(config, &g, Some(&*access), &initial);
        let err = out.expect_err(&format!("{what}: through a truncated pool"));
        assert_storage_error(err, &format!("{what} paged read"));
    }
}

#[test]
fn two_k_returns_scan_and_paged_read_errors() {
    assert_swap_returns_storage_errors("twok", |config, graph, access, set| {
        TwoKSwap::with_config(config).try_run_paged(graph, access, set)
    });
}

#[test]
fn one_k_returns_scan_and_paged_read_errors() {
    assert_swap_returns_storage_errors("onek", |config, graph, access, set| {
        OneKSwap::with_config(config).try_run_paged(graph, access, set)
    });
}
