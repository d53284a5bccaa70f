//! The serving front end: a long-running update + query engine.
//!
//! [`ServeEngine`] is what the `mis serve` process wraps around an
//! [`UpdateStore`]: edge updates are **batched** into WAL epochs, the
//! maintained independent set is repaired **incrementally** per epoch
//! (via [`mis_core::repair_updated_set_from_ops`] — eviction walks the
//! batch, not the graph), and queries are answered from an epoch-pinned
//! [`ServeView`] that ingest never blocks.
//!
//! ## Concurrency protocol
//!
//! The engine separates three concerns behind three locks:
//!
//! * `pending` — the submit queue. [`ServeEngine::submit`] validates and
//!   enqueues; nothing else happens on the submit path.
//! * `store` — the durable tier. [`ServeEngine::flush`] holds it only to
//!   append + roll + compact + pin the epoch's [`PinnedDelta`] (cheap,
//!   bounded work) and again, briefly, to write the checkpoint. The
//!   **repair runs on the pinned view with no store lock held** — this
//!   is the no-stop-the-world property the `repro serve` experiment
//!   measures: readers keep answering and submitters keep queueing while
//!   the set is repaired.
//! * `view` — an `RwLock<Arc<ServeView>>`. Readers clone the `Arc` (two
//!   pointer bumps) and then work lock-free on an immutable view; a
//!   flush swaps in the next view when its epoch is durable. A caller
//!   holding an old `Arc<ServeView>` keeps a consistent picture of its
//!   epoch for as long as it likes — the view owns its base handle and
//!   its version of the store's overlay, which the store copies before
//!   editing (see [`crate::store`]).
//!
//! Flushes themselves are serialized by a dedicated mutex so epochs
//! commit and publish in order. Each flush stage has its own trace span
//! inside `serve.flush`: `serve.append`, `serve.roll`, `serve.compact`,
//! `serve.snapshot`, `serve.repair`, `serve.checkpoint` and
//! `serve.publish`.
//!
//! Neighborhood queries go through one shared [`NeighborAccess`] point
//! path (plain, compressed or sharded — whatever backs the store), so
//! every reader draws from the same bounded pager budget, then merge the
//! pinned overlay via [`PinnedDelta::merge_neighbors`].

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use mis_core::{repair_updated_set_from_ops, RepairConfig};
use mis_extmem::PagerConfig;
use mis_graph::{AnyAdjFile, GraphScan, NeighborAccess, PinnedDelta, RandomAccessGraph, VertexId};
use mis_obs::{RequestStats, RequestSummary};

use crate::store::{RollPolicy, StoreStatus, UpdateStore};
use crate::wal::EdgeOp;

/// Tuning for a [`ServeEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Auto-flush once this many operations are pending.
    pub batch_ops: usize,
    /// Roll the WAL into a sealed segment every this many epochs.
    pub roll_epochs: u64,
    /// ... or once the active WAL reaches this many bytes.
    pub roll_bytes: u64,
    /// Merge sealed segments once this many are live.
    pub compact_threshold: usize,
    /// Per-epoch repair tuning (recover rounds, proof scan).
    pub repair: RepairConfig,
    /// The shared pager budget of the neighborhood-query path.
    pub pager: PagerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            batch_ops: 1024,
            roll_epochs: 8,
            roll_bytes: 4 << 20,
            compact_threshold: 6,
            repair: RepairConfig::default(),
            pager: PagerConfig::default(),
        }
    }
}

/// An immutable, epoch-pinned picture of the served state.
#[derive(Debug)]
pub struct ServeView {
    epoch: u64,
    set: Vec<VertexId>,
    member: Vec<bool>,
    graph: PinnedDelta<AnyAdjFile>,
    maximality_proved: bool,
}

impl ServeView {
    /// The epoch this view is pinned at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The maintained independent set, ascending.
    pub fn set(&self) -> &[VertexId] {
        &self.set
    }

    /// Membership of `v` in the maintained set at this epoch.
    pub fn is_member(&self, v: VertexId) -> bool {
        self.member.get(v as usize).copied().unwrap_or(false)
    }

    /// The epoch-pinned graph view (base + overlay) behind the set.
    pub fn graph(&self) -> &PinnedDelta<AnyAdjFile> {
        &self.graph
    }

    /// Whether this epoch's proof scan certified maximality.
    pub fn maximality_proved(&self) -> bool {
        self.maximality_proved
    }
}

/// What one [`ServeEngine::flush`] did.
#[derive(Debug, Clone, Copy)]
pub struct FlushReport {
    /// The epoch the batch committed as.
    pub epoch: u64,
    /// Operations in the batch.
    pub ops: usize,
    /// Members evicted by the batch's inserted edges.
    pub evicted: u64,
    /// Maintained set size after repair.
    pub set_size: usize,
    /// Whether the proof scan certified maximality.
    pub maximality_proved: bool,
    /// Whether the WAL rolled into a sealed segment.
    pub rolled: bool,
    /// Segments merged by a partial compaction, if one ran.
    pub compacted: usize,
}

/// A point-in-time summary for the `STATS` verb.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// The published view's epoch.
    pub epoch: u64,
    /// Maintained set size at that epoch.
    pub set_size: usize,
    /// Operations queued for the next flush.
    pub pending_ops: usize,
    /// Epochs committed by this engine instance.
    pub flushes: u64,
    /// WAL → segment rolls performed.
    pub rolls: u64,
    /// Partial (segment) compactions performed.
    pub compactions: u64,
    /// Requests answered, by kind, with latency quantiles.
    pub requests: Vec<(&'static str, RequestSummary)>,
}

/// The long-running update + query engine behind `mis serve`.
pub struct ServeEngine {
    store: Mutex<UpdateStore>,
    view: RwLock<Arc<ServeView>>,
    pending: Mutex<Vec<EdgeOp>>,
    flush_lock: Mutex<()>,
    access: Mutex<Box<dyn NeighborAccess + Send>>,
    requests: RequestStats,
    config: ServeConfig,
    num_vertices: usize,
    flushes: AtomicU64,
    rolls: AtomicU64,
    compactions: AtomicU64,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("num_vertices", &self.num_vertices)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Wraps `store` for serving: brings the checkpoint up to the last
    /// committed epoch (bootstrapping the set if none exists), publishes
    /// the initial view, and opens the shared point-access path on the
    /// base file.
    ///
    /// The store's roll policy is disabled — the engine drives rolls and
    /// segment compactions itself from the [`ServeConfig`] thresholds so
    /// they happen at flush boundaries, where the report can account
    /// them.
    pub fn new(mut store: UpdateStore, config: ServeConfig) -> io::Result<Self> {
        store.set_roll_policy(RollPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_epochs: u64::MAX,
            compact_threshold: usize::MAX,
        });
        let report = store.apply(config.repair)?;
        let ckpt =
            crate::checkpoint::Checkpoint::load(&store_checkpoint_path(&store), store.stats())?;
        let view = build_view(
            store.overlay(),
            ckpt.set,
            report.maximality_proved || report.up_to_date,
        );
        let access = open_access(store.base(), config.pager)?;
        let num_vertices = store.base().num_vertices();
        Ok(Self {
            store: Mutex::new(store),
            view: RwLock::new(Arc::new(view)),
            pending: Mutex::new(Vec::new()),
            flush_lock: Mutex::new(()),
            access: Mutex::new(access),
            requests: RequestStats::new(),
            config,
            num_vertices,
            flushes: AtomicU64::new(0),
            rolls: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Vertices in the served graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The current published view. The returned `Arc` stays consistent
    /// at its epoch no matter how many epochs commit afterwards.
    pub fn view(&self) -> Arc<ServeView> {
        Arc::clone(&self.view.read().expect("view lock poisoned"))
    }

    /// Validates and enqueues a batch of operations for the next flush,
    /// flushing immediately when the queue reaches
    /// [`ServeConfig::batch_ops`]. Returns the number of operations now
    /// pending (0 if the batch triggered a flush).
    pub fn submit(&self, ops: &[EdgeOp]) -> io::Result<usize> {
        let n = self.num_vertices as u64;
        for op in ops {
            let (u, v) = op.endpoints();
            if u64::from(u) >= n || u64::from(v) >= n || u == v {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("edge ({u}, {v}) invalid for {n} vertices"),
                ));
            }
        }
        let depth = {
            let mut pending = self.pending.lock().expect("pending lock poisoned");
            pending.extend_from_slice(ops);
            pending.len()
        };
        mis_obs::counter("serve", "serve.pending", depth as f64);
        if depth >= self.config.batch_ops {
            self.flush()?;
            return Ok(0);
        }
        Ok(depth)
    }

    /// Commits everything pending as one epoch: append to the WAL, roll
    /// and compact segments per policy, repair the maintained set on the
    /// epoch's pinned view (store unlocked), checkpoint, and publish the
    /// new view. Returns `None` when nothing was pending.
    pub fn flush(&self) -> io::Result<Option<FlushReport>> {
        let _serial = self.flush_lock.lock().expect("flush lock poisoned");
        let batch: Vec<EdgeOp> = {
            let mut pending = self.pending.lock().expect("pending lock poisoned");
            std::mem::take(&mut *pending)
        };
        if batch.is_empty() {
            return Ok(None);
        }
        let started = Instant::now();
        let _span = mis_obs::span("serve", "serve.flush");
        mis_obs::counter("serve", "serve.pending", 0.0);

        // Durable part: append + roll + compact + pin, store locked.
        let (pinned, rolled, compacted) = {
            let mut store = self.store.lock().expect("store lock poisoned");
            {
                let _span = mis_obs::span("serve", "serve.append");
                store.append_ops(&batch)?;
            }
            let mut rolled = false;
            if wal_epochs(&store) >= self.config.roll_epochs
                || store.wal().disk_bytes() >= self.config.roll_bytes
            {
                let _span = mis_obs::span("serve", "serve.roll");
                rolled = store.roll_segment()?.is_some();
            }
            let mut compacted = 0;
            if store.segments().len() >= self.config.compact_threshold {
                let _span = mis_obs::span("serve", "serve.compact");
                if let Some(c) = store.compact_segments()? {
                    compacted = c.merged;
                }
            }
            let _span = mis_obs::span("serve", "serve.snapshot");
            (store.overlay(), rolled, compacted)
        };
        if rolled {
            self.rolls.fetch_add(1, Ordering::Relaxed);
        }
        if compacted > 0 {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }

        // Repair part: store unlocked — readers and submitters proceed.
        let prev = self.view();
        debug_assert_eq!(prev.epoch() + 1, pinned.epoch(), "flushes are serialized");
        // Eviction must only see the batch's *net* insertions: a pair
        // inserted and then deleted later in the same batch is absent
        // from the committed graph, so feeding it to the repair would
        // evict a member over an edge that does not exist. Last op per
        // (normalised) pair wins, exactly as the overlay replays it.
        let mut net: std::collections::HashMap<(VertexId, VertexId), bool> = Default::default();
        for op in &batch {
            let (u, v) = op.endpoints();
            net.insert((u.min(v), u.max(v)), op.is_insert());
        }
        let inserted: Vec<(VertexId, VertexId)> = net
            .into_iter()
            .filter(|&(_, is_insert)| is_insert)
            .map(|(pair, _)| pair)
            .collect();
        let out = {
            let _span = mis_obs::span("serve", "serve.repair");
            repair_updated_set_from_ops(&pinned, prev.set(), &inserted, self.config.repair)
        };
        let report = FlushReport {
            epoch: pinned.epoch(),
            ops: batch.len(),
            evicted: out.evicted,
            set_size: out.swap.result.set.len(),
            maximality_proved: out.maximality_proved,
            rolled,
            compacted,
        };

        // Commit part: checkpoint the repaired set, reclaim unpinned
        // segment files, publish the view.
        {
            let _span = mis_obs::span("serve", "serve.checkpoint");
            let mut store = self.store.lock().expect("store lock poisoned");
            store.write_checkpoint(report.epoch, &out.swap.result.set)?;
            store.gc();
        }
        {
            let _span = mis_obs::span("serve", "serve.publish");
            let view = build_view(pinned, out.swap.result.set, out.maximality_proved);
            *self.view.write().expect("view lock poisoned") = Arc::new(view);
        }
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.requests
            .record("flush", started.elapsed().as_nanos() as u64);
        Ok(Some(report))
    }

    /// Whether `v` is in the maintained set at the published epoch.
    pub fn member(&self, v: VertexId) -> io::Result<bool> {
        let started = Instant::now();
        self.check_vertex(v)?;
        let answer = self.view().is_member(v);
        self.requests
            .record("member", started.elapsed().as_nanos() as u64);
        Ok(answer)
    }

    /// `v`'s neighbour list at the published epoch: the base record via
    /// the shared point-access path, merged with the pinned overlay.
    pub fn neighbors(&self, v: VertexId) -> io::Result<Vec<VertexId>> {
        let started = Instant::now();
        self.check_vertex(v)?;
        let view = self.view();
        let mut base = Vec::new();
        {
            let access = self.access.lock().expect("access lock poisoned");
            access.with_neighbors(v, &mut |ns| base.extend_from_slice(ns))?;
        }
        let merged = view.graph().merge_neighbors(v, &base);
        self.requests
            .record("neighbors", started.elapsed().as_nanos() as u64);
        Ok(merged)
    }

    /// Engine counters + per-kind request latency summaries.
    pub fn stats(&self) -> ServeStats {
        let started = Instant::now();
        let view = self.view();
        let pending_ops = self.pending.lock().expect("pending lock poisoned").len();
        let stats = ServeStats {
            epoch: view.epoch(),
            set_size: view.set().len(),
            pending_ops,
            flushes: self.flushes.load(Ordering::Relaxed),
            rolls: self.rolls.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            requests: self.requests.summaries(),
        };
        self.requests
            .record("stats", started.elapsed().as_nanos() as u64);
        stats
    }

    /// The underlying store's durable status (segments, WAL, checkpoint).
    /// Takes the store lock briefly.
    pub fn store_status(&self) -> io::Result<StoreStatus> {
        self.store.lock().expect("store lock poisoned").status()
    }

    fn check_vertex(&self, v: VertexId) -> io::Result<()> {
        if (v as usize) < self.num_vertices {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("vertex {v} out of range ({} vertices)", self.num_vertices),
            ))
        }
    }
}

fn build_view(
    pinned: PinnedDelta<AnyAdjFile>,
    set: Vec<VertexId>,
    maximality_proved: bool,
) -> ServeView {
    let mut member = vec![false; pinned.num_vertices()];
    for &v in &set {
        member[v as usize] = true;
    }
    ServeView {
        epoch: pinned.epoch(),
        set,
        member,
        graph: pinned,
        maximality_proved,
    }
}

/// Opens the point-access path matching the base file's format.
fn open_access(
    base: &AnyAdjFile,
    pager: PagerConfig,
) -> io::Result<Box<dyn NeighborAccess + Send>> {
    Ok(match base {
        AnyAdjFile::Plain(f) => Box::new(RandomAccessGraph::open(f, pager)?),
        AnyAdjFile::Compressed(f) => Box::new(RandomAccessGraph::open_compressed(f, pager)?),
        AnyAdjFile::Sharded(g) => Box::new(g.open_random_access(pager)?),
    })
}

/// Distinct committed epochs in the store's active WAL.
fn wal_epochs(store: &UpdateStore) -> u64 {
    let mut count = 0u64;
    let mut last = None;
    for &(e, _) in store.wal().committed() {
        if last != Some(e) {
            count += 1;
            last = Some(e);
        }
    }
    count
}

fn store_checkpoint_path(store: &UpdateStore) -> std::path::PathBuf {
    store.checkpoint_path().to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_extmem::{IoStats, ScratchDir};
    use mis_graph::build_adj_file;

    fn engine(dir: &ScratchDir, config: ServeConfig) -> ServeEngine {
        let graph = mis_gen::plrg::Plrg::with_vertices(1_500, 2.0)
            .seed(77)
            .generate();
        let stats = IoStats::shared();
        build_adj_file(&graph, &dir.file("base.adj"), Arc::clone(&stats), 4096).unwrap();
        let (store, _) = UpdateStore::open(
            &dir.file("base.adj"),
            &dir.file("edits.wal"),
            &dir.file("is.ckpt"),
            stats,
            4096,
        )
        .unwrap();
        ServeEngine::new(store, config).unwrap()
    }

    #[test]
    fn bootstraps_flushes_and_serves_consistent_views() {
        let dir = ScratchDir::new("serve-e2e").unwrap();
        let eng = engine(
            &dir,
            ServeConfig {
                batch_ops: usize::MAX, // manual flushes only
                roll_epochs: 1,        // roll every epoch
                compact_threshold: 3,
                ..ServeConfig::default()
            },
        );
        let v0 = eng.view();
        assert_eq!(v0.epoch(), 0);
        assert!(v0.maximality_proved());
        assert!(!v0.set().is_empty());
        let (a, b) = (v0.set()[0], v0.set()[1]);

        // Connect two members: the flush must evict one and stay maximal.
        eng.submit(&[EdgeOp::Insert(a.min(b), a.max(b))]).unwrap();
        let r1 = eng.flush().unwrap().unwrap();
        assert_eq!(r1.epoch, 1);
        assert_eq!(r1.evicted, 1);
        assert!(r1.maximality_proved);
        assert!(r1.rolled);

        // Membership reflects the published epoch: the connected pair
        // can no longer both be members (the recover pass may even have
        // swapped the survivor for better neighbours). The merged
        // neighbor list contains the inserted edge.
        assert!(!(eng.member(a).unwrap() && eng.member(b).unwrap()));
        assert!(eng.neighbors(a).unwrap().contains(&b));

        // The old view is pinned: two more epochs commit underneath, and
        // v0 still answers from epoch 0.
        let pinned = eng.view();
        eng.submit(&[EdgeOp::Delete(a.min(b), a.max(b))]).unwrap();
        eng.flush().unwrap().unwrap();
        eng.submit(&[EdgeOp::Insert(0, 1)]).unwrap();
        let r3 = eng.flush().unwrap().unwrap();
        assert_eq!(r3.epoch, 3);
        assert!(r3.compacted >= 2, "third roll must trigger a merge");
        assert_eq!(pinned.epoch(), 1);
        assert!(!(pinned.is_member(a) && pinned.is_member(b)));
        assert_eq!(eng.view().epoch(), 3);

        let stats = eng.stats();
        assert_eq!(stats.epoch, 3);
        assert_eq!(stats.flushes, 3);
        assert_eq!(stats.rolls, 3);
        assert_eq!(stats.compactions, 1);
        assert!(stats.requests.iter().any(|(k, _)| *k == "member"));
        let status = eng.store_status().unwrap();
        assert_eq!(status.last_epoch, 3);
    }

    #[test]
    fn auto_flush_fires_at_the_batch_threshold() {
        let dir = ScratchDir::new("serve-batch").unwrap();
        let eng = engine(
            &dir,
            ServeConfig {
                batch_ops: 4,
                ..ServeConfig::default()
            },
        );
        assert_eq!(eng.submit(&[EdgeOp::Insert(0, 1)]).unwrap(), 1);
        assert_eq!(eng.submit(&[EdgeOp::Insert(0, 2)]).unwrap(), 2);
        assert_eq!(
            eng.submit(&[EdgeOp::Insert(0, 3), EdgeOp::Insert(0, 4)])
                .unwrap(),
            0,
            "hitting the threshold flushes"
        );
        assert_eq!(eng.view().epoch(), 1);
        assert!(eng.flush().unwrap().is_none(), "queue is empty again");
    }

    #[test]
    fn submit_validates_endpoints() {
        let dir = ScratchDir::new("serve-valid").unwrap();
        let eng = engine(&dir, ServeConfig::default());
        let n = eng.num_vertices() as u32;
        assert!(eng.submit(&[EdgeOp::Insert(0, n)]).is_err());
        assert!(eng.submit(&[EdgeOp::Delete(2, 2)]).is_err());
        assert!(eng.member(n).is_err());
        assert!(eng.neighbors(n).is_err());
    }

    #[test]
    fn readers_run_concurrently_with_flushes() {
        let dir = ScratchDir::new("serve-conc").unwrap();
        let eng = Arc::new(engine(
            &dir,
            ServeConfig {
                batch_ops: usize::MAX,
                roll_epochs: 2,
                compact_threshold: 2,
                ..ServeConfig::default()
            },
        ));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for t in 0..2u32 {
            let eng = Arc::clone(&eng);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut answered = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = (answered as u32 * 37 + t) % eng.num_vertices() as u32;
                    // A view must always be internally consistent:
                    // membership bitmap and set agree.
                    let view = eng.view();
                    assert_eq!(view.is_member(v), view.set().binary_search(&v).is_ok());
                    eng.neighbors(v).unwrap();
                    answered += 1;
                }
                answered
            }));
        }
        for i in 0..6u32 {
            eng.submit(&[EdgeOp::Insert(i, i + 500), EdgeOp::Insert(i, i + 600)])
                .unwrap();
            eng.flush().unwrap().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "readers made progress");
        }
        let view = eng.view();
        assert_eq!(view.epoch(), 6);
        assert!(view.maximality_proved());
    }
}
