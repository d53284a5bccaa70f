//! The unified scan-pass execution engine.
//!
//! Every algorithm in this crate is a composition of **sequential
//! passes** over the adjacency records (see [`mis_graph::GraphScan`]).
//! Before this module each algorithm hand-rolled its own scan loop; now
//! a pass is a value implementing [`ScanPass`] and an [`Executor`]
//! decides *how* the records flow through it:
//!
//! * [`Executor::Sequential`] — one thread folds the records in storage
//!   order, exactly the paper's access model and byte-for-byte the
//!   pre-engine behaviour;
//! * [`Executor::Parallel`] — the block pipeline: one thread reads the
//!   storage's own sequential scan ([`GraphScan::scan_blocks`]) and
//!   hands decoded [`RecordBlock`]s over a bounded queue to `N`
//!   `std::thread` fold workers; each worker folds its blocks into
//!   private shards, and the shards are merged **in block order**, so
//!   the output is identical at every thread count. With
//!   `threads <= 1` it runs the sequential path directly, so `par(1)`
//!   never costs more than `seq`.
//!
//! The block pipeline is the only parallel path, for every storage —
//! in-memory graphs, both on-disk codecs and sharded stores alike. It
//! needs no per-format code and reads every block exactly once, so the
//! paper's `scans × ⌈bytes/B⌉` ledger stays exact. Its one cost is that
//! records decode on the reader thread: a mergeable pass over a
//! compressed file decodes on one core. Two earlier backends — raw byte
//! ranges decoded on the workers, and workers that each owned whole
//! shards — measured no faster end to end on a two-thread machine, so
//! they were removed rather than tuned.
//!
//! Two execution shapes cover all of the paper's passes:
//!
//! 1. [`Executor::run_pass`] — for passes whose per-record work depends
//!    only on state that is frozen for the duration of the pass (the
//!    initial `A`-state derivation, maximality/independence proofs,
//!    degree statistics). These parallelise fully: the [`ScanPass`]
//!    contract requires that folding any consecutive split of the record
//!    sequence into fresh shards and merging the shards in storage order
//!    equals one sequential fold.
//! 2. [`Executor::fold_ordered`] — for order-dependent passes (Greedy's
//!    lazy exclusion, the swap algorithms' earlier-record-wins conflict
//!    resolution, Algorithm 5's star partition). The fold itself must
//!    stay sequential, so the parallel backend pipelines instead: one
//!    reader thread reads and decodes blocks ahead while the calling
//!    thread folds them in exact storage order — I/O and decode overlap
//!    the fold without changing a single transition.
//!
//! The queue is bounded ([`ParallelConfig::queue_blocks`]), so a slow
//! fold back-pressures the reader instead of buffering the whole graph;
//! a panicking worker closes the queue on unwind, so no thread is ever
//! left blocked. All I/O accounting flows into the same shared
//! [`mis_extmem::IoStats`] the sequential path uses — its counters are
//! atomic, so per-thread tallies need no extra plumbing.

use std::io;
use std::num::NonZeroUsize;
use std::sync::Mutex;

use mis_graph::{GraphScan, NeighborAccess, RecordBlock, VertexId};
use mis_obs as obs;

pub mod passes;
mod queue;

use queue::{BoundedQueue, CloseOnDrop};

/// Default number of records per hand-out block.
///
/// Large enough that queue and shard bookkeeping is noise, small enough
/// that a 100k-vertex graph still splits into dozens of blocks for load
/// balancing.
pub const DEFAULT_BLOCK_RECORDS: usize = 4096;

/// One fold over the adjacency records, split into mergeable shards.
///
/// # Contract
///
/// For **any** split of the storage-order record sequence into
/// consecutive chunks `c₀, c₁, …, cₖ`, folding each chunk into a fresh
/// shard (via [`ScanPass::visit`]) and combining the shards **in chunk
/// order** (via [`ScanPass::merge`], starting from a fresh accumulator)
/// must produce the same result as folding the whole sequence into one
/// shard. Passes whose per-record transition reads state written earlier
/// in the *same* pass cannot satisfy this — run those through
/// [`Executor::fold_ordered`] instead.
///
/// The executor may call `visit` concurrently on different shards from
/// different threads, hence `Sync`; any shared inputs (state arrays,
/// membership bitmaps) are borrowed immutably for the pass lifetime.
pub trait ScanPass: Sync {
    /// Per-chunk fold state.
    type Shard: Send;
    /// Final result produced from the fully merged shard.
    type Output;

    /// Creates an empty shard.
    fn new_shard(&self) -> Self::Shard;

    /// Folds one record into `shard`.
    fn visit(&self, shard: &mut Self::Shard, v: VertexId, neighbors: &[VertexId]);

    /// Combines `later` into `into`; `later` covers records that appear
    /// **after** `into`'s records in storage order.
    fn merge(&self, into: &mut Self::Shard, later: Self::Shard);

    /// Finishes the fully merged shard into the pass output.
    fn finish(&self, shard: Self::Shard) -> Self::Output;
}

/// Tuning knobs of the parallel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of fold worker threads (minimum 1; the block reader runs
    /// on its own thread in addition).
    pub threads: usize,
    /// Records per hand-out block (minimum 1).
    pub block_records: usize,
    /// Bounded-queue depth in blocks: how far the reader may run ahead
    /// of the slowest fold.
    pub queue_blocks: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            threads: available_threads(),
            block_records: DEFAULT_BLOCK_RECORDS,
            queue_blocks: 8,
        }
    }
}

/// The hardware parallelism of this machine (1 when unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// How an algorithm's scan passes are executed.
///
/// `Sequential` is the paper's verbatim single-threaded access model and
/// the default everywhere. `Parallel` keeps outputs bit-identical (see
/// [`ScanPass`]'s contract and the engine-equivalence proptests) while
/// using multiple cores for the CPU side of each pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// Fold every record on the calling thread, in storage order.
    #[default]
    Sequential,
    /// Block-parallel backend: reader thread + `N` fold workers.
    Parallel(ParallelConfig),
}

impl Executor {
    /// A parallel executor with `threads` fold workers and default block
    /// sizing. `threads <= 1` runs the sequential path directly — one
    /// worker behind a reader thread and a queue is strictly slower than
    /// one thread doing both, so `par(1)` never pays the machinery it
    /// cannot benefit from.
    pub fn parallel(threads: usize) -> Self {
        Executor::Parallel(ParallelConfig {
            threads: threads.max(1),
            ..ParallelConfig::default()
        })
    }

    /// A parallel executor sized to the machine
    /// ([`available_threads`]).
    pub fn auto() -> Self {
        Executor::parallel(available_threads())
    }

    /// Number of fold threads this executor uses.
    pub fn threads(&self) -> usize {
        match self {
            Executor::Sequential => 1,
            Executor::Parallel(cfg) => cfg.threads.max(1),
        }
    }

    /// Short human-readable description (`seq` / `par(N)`).
    pub fn describe(&self) -> String {
        match self {
            Executor::Sequential => "seq".to_string(),
            Executor::Parallel(cfg) => format!("par({})", cfg.threads.max(1)),
        }
    }

    /// Runs a mergeable [`ScanPass`] over `graph` and returns its output.
    pub fn run_pass<G, P>(&self, graph: &G, pass: &P) -> io::Result<P::Output>
    where
        G: GraphScan + ?Sized,
        P: ScanPass,
    {
        match self {
            Executor::Sequential => {
                let mut shard = pass.new_shard();
                graph.scan(&mut |v, ns| pass.visit(&mut shard, v, ns))?;
                Ok(pass.finish(shard))
            }
            Executor::Parallel(cfg) if cfg.threads <= 1 => {
                // One fold thread gains nothing from a reader thread plus
                // a queue: run the sequential path and skip the machinery.
                Executor::Sequential.run_pass(graph, pass)
            }
            Executor::Parallel(cfg) => run_pass_parallel(graph, pass, cfg),
        }
    }

    /// Runs an **order-dependent** fold over `graph`: `f` sees every
    /// record in exact storage order, regardless of backend. The parallel
    /// backend pipelines block read + decode on a reader thread while the
    /// calling thread folds, which overlaps I/O with CPU without touching
    /// the fold's semantics.
    pub fn fold_ordered<G>(
        &self,
        graph: &G,
        f: &mut dyn FnMut(VertexId, &[VertexId]),
    ) -> io::Result<()>
    where
        G: GraphScan + ?Sized,
    {
        match self {
            Executor::Sequential => graph.scan(f),
            Executor::Parallel(cfg) if cfg.threads <= 1 => graph.scan(f),
            Executor::Parallel(cfg) => {
                let _pass = obs::span("engine", "pass.fold_ordered");
                let queue: BoundedQueue<RecordBlock> = BoundedQueue::new(cfg.queue_blocks.max(1));
                std::thread::scope(|s| {
                    let reader = s.spawn(|| {
                        obs::name_thread("reader");
                        let io = {
                            let _guard = CloseOnDrop(&queue);
                            graph.scan_blocks(cfg.block_records.max(1), &mut |block| {
                                handout(&queue, block)
                            })
                        };
                        // Joining the scope does not wait for TLS
                        // destructors, so hand buffered events to the
                        // sink before the closure returns.
                        obs::flush_local();
                        io
                    });
                    {
                        // Close on unwind too, so a panicking fold never
                        // leaves the reader blocked on a full queue.
                        let _guard = CloseOnDrop(&queue);
                        while let Some(block) = queue.pop() {
                            for (v, ns) in block.iter() {
                                f(v, ns);
                            }
                        }
                    }
                    match reader.join() {
                        Ok(io) => io,
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                })
            }
        }
    }
}

/// Hands one block to the queue, tracing the queue depth and the time
/// the reader spends blocked on a full queue (back-pressure). A closed
/// queue drops the block: its consumers have stopped.
fn handout(queue: &BoundedQueue<RecordBlock>, block: RecordBlock) {
    if obs::enabled() {
        obs::counter("engine", "queue.depth", queue.len() as f64);
        let _h = obs::span("engine", "reader.handout");
        queue.push(block);
    } else {
        queue.push(block);
    }
}

/// The block-parallel backend of [`Executor::run_pass`].
fn run_pass_parallel<G, P>(graph: &G, pass: &P, cfg: &ParallelConfig) -> io::Result<P::Output>
where
    G: GraphScan + ?Sized,
    P: ScanPass,
{
    let _pass_span = obs::span("engine", "pass.parallel");
    let queue: BoundedQueue<RecordBlock> = BoundedQueue::new(cfg.queue_blocks.max(1));
    let shards: Mutex<Vec<(u64, P::Shard)>> = Mutex::new(Vec::new());
    let io = std::thread::scope(|s| {
        for _ in 0..cfg.threads {
            s.spawn(|| {
                obs::name_thread("worker");
                let _guard = CloseOnDrop(&queue);
                loop {
                    let block = {
                        let _wait = obs::span("engine", "worker.wait");
                        queue.pop()
                    };
                    let Some(block) = block else { break };
                    let mut shard = pass.new_shard();
                    {
                        let _fold = obs::span("engine", "worker.fold");
                        for (v, ns) in block.iter() {
                            pass.visit(&mut shard, v, ns);
                        }
                    }
                    shards
                        .lock()
                        .expect("shard list poisoned")
                        .push((block.seq(), shard));
                }
                obs::flush_local();
            });
        }
        // The calling thread is the block reader.
        let _guard = CloseOnDrop(&queue);
        graph.scan_blocks(cfg.block_records.max(1), &mut |block| {
            handout(&queue, block)
        })
    });
    io?;
    let _merge_span = obs::span("engine", "pass.merge");
    let mut shards = shards.into_inner().expect("shard list poisoned");
    shards.sort_unstable_by_key(|&(seq, _)| seq);
    let mut acc = pass.new_shard();
    for (_, shard) in shards {
        pass.merge(&mut acc, shard);
    }
    Ok(pass.finish(acc))
}

/// Runs one swap-round candidate pass, shared by the one-k and two-k
/// algorithms: when a random-access provider exists **and**
/// `select_paged_candidates` produced a candidate list, visits exactly
/// those candidates in storage order through the provider (the paged
/// path of PR 2); otherwise performs one full pass in storage order
/// through `executor`. Returns whether the paged path was taken, so the
/// caller can account a paged round instead of a file scan, or the first
/// scan or paged-read error.
pub(crate) fn candidate_pass<G: GraphScan + ?Sized>(
    executor: &Executor,
    graph: &G,
    access: Option<&dyn NeighborAccess>,
    cands: Option<Vec<u32>>,
    body: &mut dyn FnMut(VertexId, &[VertexId]),
) -> io::Result<bool> {
    match (access, cands) {
        (Some(acc), Some(cands)) => {
            for &u in &cands {
                acc.with_neighbors(u, &mut |ns| body(u, ns))?;
            }
            Ok(true)
        }
        _ => {
            executor.fold_ordered(graph, body)?;
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::{CsrGraph, OrderedCsr};

    /// Counts records and sums `v * (1 + deg)` — order-insensitive, so it
    /// is a valid mergeable pass.
    struct CountPass;
    impl ScanPass for CountPass {
        type Shard = (u64, u64);
        type Output = (u64, u64);
        fn new_shard(&self) -> Self::Shard {
            (0, 0)
        }
        fn visit(&self, shard: &mut Self::Shard, v: VertexId, ns: &[VertexId]) {
            shard.0 += 1;
            shard.1 += u64::from(v) * (1 + ns.len() as u64);
        }
        fn merge(&self, into: &mut Self::Shard, later: Self::Shard) {
            into.0 += later.0;
            into.1 += later.1;
        }
        fn finish(&self, shard: Self::Shard) -> Self::Output {
            shard
        }
    }

    /// Collects the record sequence — merge-in-order must reproduce the
    /// sequential visiting order exactly.
    struct SequencePass;
    impl ScanPass for SequencePass {
        type Shard = Vec<VertexId>;
        type Output = Vec<VertexId>;
        fn new_shard(&self) -> Self::Shard {
            Vec::new()
        }
        fn visit(&self, shard: &mut Self::Shard, v: VertexId, _ns: &[VertexId]) {
            shard.push(v);
        }
        fn merge(&self, into: &mut Self::Shard, later: Self::Shard) {
            into.extend(later);
        }
        fn finish(&self, shard: Self::Shard) -> Self::Output {
            shard
        }
    }

    fn graph() -> CsrGraph {
        mis_gen::plrg::Plrg::with_vertices(500, 2.0)
            .seed(3)
            .generate()
    }

    #[test]
    fn parallel_run_pass_matches_sequential() {
        let g = graph();
        let ordered = OrderedCsr::degree_sorted(&g);
        let seq = Executor::Sequential.run_pass(&ordered, &CountPass).unwrap();
        for threads in 1..=4 {
            for block_records in [1, 7, 64, 100_000] {
                let exec = Executor::Parallel(ParallelConfig {
                    threads,
                    block_records,
                    queue_blocks: 2,
                });
                let par = exec.run_pass(&ordered, &CountPass).unwrap();
                assert_eq!(par, seq, "threads {threads}, block {block_records}");
            }
        }
    }

    #[test]
    fn shard_merge_preserves_storage_order() {
        let g = graph();
        let ordered = OrderedCsr::degree_sorted(&g);
        let seq = Executor::Sequential
            .run_pass(&ordered, &SequencePass)
            .unwrap();
        assert_eq!(seq, ordered.order());
        for threads in [1, 3] {
            let exec = Executor::Parallel(ParallelConfig {
                threads,
                block_records: 13,
                queue_blocks: 3,
            });
            let par = exec.run_pass(&ordered, &SequencePass).unwrap();
            assert_eq!(par, seq, "threads {threads}");
        }
    }

    #[test]
    fn fold_ordered_sees_storage_order_on_both_backends() {
        let g = graph();
        let ordered = OrderedCsr::degree_sorted(&g);
        let mut seq = Vec::new();
        Executor::Sequential
            .fold_ordered(&ordered, &mut |v, _| seq.push(v))
            .unwrap();
        let mut par = Vec::new();
        Executor::parallel(4)
            .fold_ordered(&ordered, &mut |v, _| par.push(v))
            .unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn executor_accessors() {
        assert_eq!(Executor::Sequential.threads(), 1);
        assert_eq!(Executor::Sequential.describe(), "seq");
        assert_eq!(Executor::parallel(0).threads(), 1);
        assert_eq!(Executor::parallel(4).threads(), 4);
        assert_eq!(Executor::parallel(4).describe(), "par(4)");
        assert_eq!(Executor::default(), Executor::Sequential);
        assert!(Executor::auto().threads() >= 1);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn empty_graph_passes() {
        let g = CsrGraph::empty(0);
        let (records, sum) = Executor::parallel(2).run_pass(&g, &CountPass).unwrap();
        assert_eq!((records, sum), (0, 0));
        let mut visited = 0u32;
        Executor::parallel(2)
            .fold_ordered(&g, &mut |_, _| visited += 1)
            .unwrap();
        assert_eq!(visited, 0);
    }
}
