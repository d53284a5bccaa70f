//! Storage errors through every executor: a file truncated after open
//! must come back from `run_pass` and `fold_ordered` as an
//! `io::Error` — on the sequential path and through the parallel block
//! pipeline alike — with no panic, no hang and no silent short read.
//! The swap algorithms' `try_run_paged` must return the same errors from
//! their scans and from paged reads through a buffer pool.

use std::io::{self, ErrorKind};
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use mis_core::engine::passes::DegreeStatsPass;
use mis_core::{Executor, Greedy, OneKSwap, SwapConfig, SwapOutcome, TwoKSwap};
use mis_extmem::{IoStats, PagerConfig, PolicyKind, ScratchDir};
use mis_graph::{
    build_adj_file, compress_adj, AnyAdjFile, CsrGraph, GraphScan, NeighborAccess, VertexId,
};

/// A store's paged reader, shareable with the deadline thread.
type SharedAccess = Arc<Mutex<Box<dyn NeighborAccess + Send>>>;

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

/// Runs `f` on its own thread and fails the test if it panics or does
/// not finish within a minute, so a hung pipeline fails instead of
/// stalling the suite.
fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(value) => {
            runner.join().expect("the runner exits right after sending");
            value
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The runner dropped its sender without sending: `f` panicked,
            // and the panic hook has already printed why.
            let _ = runner.join();
            panic!("{what}: panicked");
        }
        // A hung runner cannot be joined; it is left behind.
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: did not finish"),
    }
}

fn graph() -> CsrGraph {
    mis_gen::Plrg::with_vertices(20_000, 2.0).seed(5).generate()
}

/// A plain file and its compressed twin, each opened with a paged
/// reader (a 64 KiB pool) and then truncated underneath to two thirds of
/// its length.
fn truncated_stores(dir: &ScratchDir) -> Vec<(&'static str, AnyAdjFile, SharedAccess)> {
    let g = graph();
    let stats = IoStats::shared();
    build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), BLOCK_SIZE).unwrap();
    compress_adj(&g, &dir.file("g.cadj"), Arc::clone(&stats), BLOCK_SIZE).unwrap();
    let pager = PagerConfig::with_capacity_bytes(64 << 10, BLOCK_SIZE, PolicyKind::default());
    let stores = ["plain", "compressed"]
        .into_iter()
        .zip(["g.adj", "g.cadj"])
        .map(|(label, name)| {
            let file =
                AnyAdjFile::open_with_block_size(&dir.file(name), IoStats::shared(), BLOCK_SIZE)
                    .unwrap();
            let access = file.open_random_access(pager).unwrap();
            (label, file, Arc::new(Mutex::new(access)))
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
fn truncated_storage_errors_through_every_executor() {
    let dir = ScratchDir::new("engine-errors").unwrap();
    for (label, file, _) in truncated_stores(&dir) {
        let n = file.num_vertices();
        for exec in [
            Executor::Sequential,
            Executor::parallel(2),
            Executor::parallel(4),
        ] {
            let what = format!("{label} {}", exec.describe());

            let f = file.clone();
            let stats = within_deadline(&what, move || exec.run_pass(&f, &DegreeStatsPass));
            let err = stats.expect_err(&format!("{what}: run_pass over a truncated store"));
            assert_storage_error(err, &format!("{what} run_pass"));

            let f = file.clone();
            let (folded, visited) = within_deadline(&what, move || {
                let mut visited = 0usize;
                let folded = exec.fold_ordered(&f, &mut |_, _| visited += 1);
                (folded, visited)
            });
            let err = folded.expect_err(&format!("{what}: fold_ordered over a truncated store"));
            assert_storage_error(err, &format!("{what} fold_ordered"));
            assert!(
                visited < n,
                "{what}: fold_ordered visited {visited} of {n} records"
            );
        }
    }
}

/// Runs `swap` over truncated stores through every executor: the scans
/// and the paged reads must each come back as a storage error.
fn assert_swap_returns_storage_errors(name: &str, swap: TrySwap) {
    let dir = ScratchDir::new(&format!("{name}-errors")).unwrap();
    let g = Arc::new(graph());
    let initial = Greedy::new().run(&*g).set;
    for (label, file, access) in truncated_stores(&dir) {
        for exec in [
            Executor::Sequential,
            Executor::parallel(2),
            Executor::parallel(4),
        ] {
            let what = format!("{name} {label} {}", exec.describe());

            // Scanned rounds: the init scan reads the truncated store.
            let (f, set) = (file.clone(), initial.clone());
            let config = SwapConfig::default().with_executor(exec);
            let out = within_deadline(&what, move || swap(config, f.as_scan(), None, &set));
            let err = out.expect_err(&format!("{what}: over a truncated store"));
            assert_storage_error(err, &format!("{what} scan"));

            // Paged rounds: the scans read the intact graph in memory and
            // every pre-swap pass reads through the truncated store's pool.
            let (mem, acc, set) = (Arc::clone(&g), Arc::clone(&access), initial.clone());
            let config = config.with_paged_threshold(1.0);
            let out = within_deadline(&what, move || {
                let acc = acc.lock().unwrap();
                swap(config, &*mem, Some(&**acc), &set)
            });
            let err = out.expect_err(&format!("{what}: through a truncated pool"));
            assert_storage_error(err, &format!("{what} paged read"));
        }
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
