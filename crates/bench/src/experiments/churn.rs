//! Churn experiment: incremental maintenance vs from-scratch rebuild.
//!
//! A seeded stream of interleaved edge insertions/deletions (from
//! `mis_gen::churn`) is split into epochs and driven through the durable
//! update subsystem two ways:
//!
//! * **incremental** — each epoch is committed to the write-ahead log and
//!   folded in by `mis update apply`'s engine path: resume from the last
//!   checkpoint, evict, one bounded one-k recover round, prove maximality
//!   on the edited graph, re-checkpoint;
//! * **rebuild** — each epoch recomputes from scratch on the same edited
//!   graph (Greedy + one-k swaps to fixpoint + the same proof scan).
//!
//! Both sides run over the identical on-disk degree-sorted base file with
//! a `PinnedDelta` overlay view, so scans and block transfers are
//! directly comparable. The experiment also simulates a torn WAL write after the
//! last epoch and reports the recovery. Results go to `BENCH_churn.json`
//! (override with `BENCH_CHURN_OUT`).

use std::sync::Arc;
use std::time::Instant;

use mis_core::{is_maximal_independent_set, Greedy, OneKSwap, RepairConfig, SwapConfig};
use mis_extmem::{IoSnapshot, IoStats};
use mis_graph::{AdjFile, PinnedDelta};
use mis_obs::ModelVerdict;
use mis_update::{EdgeOp, UpdateStore, Wal};

use crate::harness::{self, JsonObject, UPDATE_MODEL_TOLERANCE};

/// One measured maintenance strategy.
#[derive(Debug, Default)]
pub struct Side {
    /// Strategy label.
    pub label: &'static str,
    /// |IS| after the final epoch.
    pub final_is: u64,
    /// Maintenance file scans across all epochs (including proof scans).
    pub scans: u64,
    /// I/O across all epochs.
    pub io: IoSnapshot,
    /// Wall-clock time across all epochs, milliseconds.
    pub wall_ms: f64,
    /// Whether every epoch's set passed the maximality proof.
    pub all_proved: bool,
    /// Epochs repaired by point reads instead of scans.
    pub local_epochs: u64,
    /// Cost-model conformance verdict (blocks-per-scan relation; the
    /// epoch pass structure itself is not predicted).
    pub model: Option<ModelVerdict>,
}

impl Side {
    /// The side as one JSON object.
    fn to_json(&self) -> String {
        let mut json = JsonObject::default();
        json.field("final_is", self.final_is)
            .field("scans", self.scans)
            .field("blocks_read", self.io.blocks_read)
            .field("bytes_read", self.io.bytes_read)
            .field("wal_bytes_written", self.io.wal_bytes_written)
            .field("wal_bytes_read", self.io.wal_bytes_read)
            .field("checkpoints_written", self.io.checkpoints_written)
            .field("all_proved", self.all_proved)
            .fixed("wall_ms", self.wall_ms, 2);
        if let Some(verdict) = &self.model {
            json.field("model", verdict.to_json());
        }
        json.to_json()
    }
}

/// Outcome of the torn-write recovery demonstration.
#[derive(Debug)]
pub struct TornWalDemo {
    /// Epoch the log recovered to (must equal the last committed epoch).
    pub recovered_epoch: u64,
    /// Torn tail bytes dropped by recovery.
    pub dropped_bytes: u64,
}

/// Everything the experiment measured.
#[derive(Debug)]
pub struct ChurnResult {
    /// The incremental (WAL + checkpoint) side.
    pub incremental: Side,
    /// The from-scratch rebuild side.
    pub rebuild: Side,
    /// Torn-write recovery demonstration.
    pub torn: TornWalDemo,
    /// Epochs driven.
    pub epochs: usize,
    /// Total operations across all epochs.
    pub total_ops: usize,
}

/// Runs the comparison on a `P(α,β)` graph with `n` vertices.
pub fn run_churn(n: u64, epochs: usize, ops_per_epoch: usize, block_size: usize) -> ChurnResult {
    let fx = harness::fixture("repro-churn", n, block_size, false);
    let batches = harness::churn_batches(&fx.graph, epochs, ops_per_epoch);
    let base_path = fx.plain.path();

    // ---- Incremental side: WAL + checkpointed repair. ----
    let inc_stats = IoStats::shared();
    let wal_path = fx.scratch.file("edits.wal");
    let (mut store, _) = UpdateStore::open(
        base_path,
        &wal_path,
        &fx.scratch.file("is.ckpt"),
        Arc::clone(&inc_stats),
        block_size,
    )
    .expect("open store");
    // Bootstrap the epoch-0 checkpoint; shared initial state, not part of
    // the per-epoch maintenance measurement.
    let boot = store
        .apply(RepairConfig {
            recover_rounds: 0,
            verify: false,
        })
        .expect("bootstrap apply");
    assert!(boot.bootstrapped);

    let mut incremental = Side {
        label: "incremental",
        all_proved: true,
        ..Side::default()
    };
    let before = inc_stats.snapshot();
    let start = Instant::now();
    for batch in &batches {
        store.append_ops(batch).expect("append epoch");
        let report = store
            .apply(RepairConfig {
                recover_rounds: 1,
                verify: true,
            })
            .expect("apply epoch");
        // An apply one epoch behind repairs by point reads alone.
        incremental.local_epochs += u64::from(report.file_scans == 0);
        incremental.scans += report.file_scans;
        incremental.final_is = report.set.len() as u64;
        incremental.all_proved &= report.maximality_proved;
    }
    incremental.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    incremental.io = inc_stats.snapshot().since(&before);

    // ---- Rebuild side: Greedy + one-k to fixpoint per epoch. ----
    let reb_stats = IoStats::shared();
    let base = AdjFile::open_with_block_size(base_path, Arc::clone(&reb_stats), block_size)
        .expect("open base");
    let mut rebuild = Side {
        label: "rebuild",
        all_proved: true,
        ..Side::default()
    };
    let before = reb_stats.snapshot();
    let start = Instant::now();
    let mut delta = PinnedDelta::new(base, Arc::default(), 0);
    for batch in &batches {
        for &op in batch {
            match op {
                EdgeOp::Insert(u, v) => delta.insert_edge(u, v),
                EdgeOp::Delete(u, v) => delta.delete_edge(u, v),
            }
        }
        let greedy = Greedy::new().run(&delta);
        let swap = OneKSwap::with_config(SwapConfig::default()).run(&delta, &greedy.set);
        rebuild.scans += greedy.file_scans + swap.result.file_scans + 1; // + proof
        rebuild.final_is = swap.result.set.len() as u64;
        rebuild.all_proved &= is_maximal_independent_set(&delta, &swap.result.set);
    }
    rebuild.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    rebuild.io = reb_stats.snapshot().since(&before);

    // ---- Torn-write demonstration on the real WAL. ----
    let last_epoch = store.wal().last_epoch();
    drop(store);
    let mut bytes = std::fs::read(&wal_path).expect("read wal");
    // A torn append: half an insert record reaches the disk.
    bytes.extend_from_slice(&[0x01, 0x05]);
    std::fs::write(&wal_path, &bytes).expect("tear wal");
    let (wal, recovery) = Wal::open(&wal_path, IoStats::shared()).expect("recover wal");
    let torn = TornWalDemo {
        recovered_epoch: wal.last_epoch(),
        dropped_bytes: recovery.dropped_bytes,
    };
    assert_eq!(torn.recovered_epoch, last_epoch, "recovery lost an epoch");
    assert!(torn.dropped_bytes > 0, "torn tail must be dropped");

    // Both sides' base-file I/O must conform to the blocks-per-scan
    // relation of the cost model.
    let model = fx.plain.cost_model(block_size).expect("metadata");
    for side in [&mut incremental, &mut rebuild] {
        side.model = Some(harness::check_model(
            side.label,
            &model,
            None,
            side.local_epochs,
            &side.io,
            UPDATE_MODEL_TOLERANCE,
        ));
    }

    ChurnResult {
        incremental,
        rebuild,
        torn,
        epochs,
        total_ops: epochs * ops_per_epoch,
    }
}

/// Runs the experiment, prints the comparison and writes the JSON file.
pub fn run() {
    let n = harness::sweep_vertices().min(50_000);
    let epochs = 4;
    let ops_per_epoch = ((n / 20) as usize).max(50);
    let block_size = 64 * 1024;
    println!(
        "== Durable churn: incremental repair from checkpoint vs from-scratch rebuild \
         (P(α,β), β = 2.0, |V| ≈ {n}, {epochs} epochs × {ops_per_epoch} ops, 30% deletes) =="
    );

    let result = run_churn(n, epochs, ops_per_epoch, block_size);

    let rows: Vec<Vec<String>> = [&result.incremental, &result.rebuild]
        .iter()
        .map(|s| {
            vec![
                s.label.to_string(),
                s.final_is.to_string(),
                s.scans.to_string(),
                s.io.blocks_read.to_string(),
                harness::fmt_bytes(s.io.bytes_read),
                harness::fmt_bytes(s.io.wal_bytes_written),
                s.io.checkpoints_written.to_string(),
                if s.all_proved { "yes" } else { "NO" }.to_string(),
                format!("{:.1}ms", s.wall_ms),
            ]
        })
        .collect();
    let header = [
        "path",
        "|IS|",
        "scans",
        "blocks read",
        "bytes read",
        "wal written",
        "ckpts",
        "proved",
        "time",
    ];
    harness::print_table(&header, &rows);

    let scans_saved = result
        .rebuild
        .scans
        .saturating_sub(result.incremental.scans);
    let blocks_saved = result
        .rebuild
        .io
        .blocks_read
        .saturating_sub(result.incremental.io.blocks_read);
    println!(
        "  incremental saved {scans_saved} scans and {blocks_saved} block transfers over {} epochs \
         ({} ops); |IS| {} vs rebuild {} ({:.2}%)",
        result.epochs,
        result.total_ops,
        result.incremental.final_is,
        result.rebuild.final_is,
        100.0 * result.incremental.final_is as f64 / result.rebuild.final_is.max(1) as f64,
    );
    println!(
        "  torn-write demo: recovery dropped {} tail bytes, resumed at epoch {}",
        result.torn.dropped_bytes, result.torn.recovered_epoch
    );
    assert!(
        result.incremental.scans < result.rebuild.scans
            && result.incremental.io.blocks_read < result.rebuild.io.blocks_read,
        "incremental maintenance must beat the rebuild on scans and blocks"
    );
    assert!(result.incremental.all_proved && result.rebuild.all_proved);

    let mut body = harness::churn_snapshot(n, result.epochs as u64, result.total_ops);
    body.field("incremental", result.incremental.to_json())
        .field("rebuild", result.rebuild.to_json())
        .field("scans_saved", scans_saved)
        .field("blocks_saved", blocks_saved)
        .field(
            "torn_wal",
            format_args!(
                "{{\"recovered_epoch\": {}, \"dropped_bytes\": {}}}",
                result.torn.recovered_epoch, result.torn.dropped_bytes
            ),
        );
    harness::write_snapshot("churn", block_size, &body);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end regression for the acceptance criteria: incremental
    /// maintenance from the checkpoint beats the rebuild on scans and
    /// blocks read, both sides prove maximality on the edited graph, and
    /// the torn WAL recovers to the last complete epoch.
    #[test]
    fn incremental_beats_rebuild_and_wal_recovers() {
        let result = run_churn(8_000, 2, 200, 4096);
        assert!(
            result.incremental.scans < result.rebuild.scans,
            "scans: incremental {} vs rebuild {}",
            result.incremental.scans,
            result.rebuild.scans
        );
        assert!(
            result.incremental.io.blocks_read < result.rebuild.io.blocks_read,
            "blocks: incremental {} vs rebuild {}",
            result.incremental.io.blocks_read,
            result.rebuild.io.blocks_read
        );
        assert!(result.incremental.all_proved);
        assert!(result.rebuild.all_proved);
        // Bounded recovery keeps the set competitive with the rebuild.
        assert!(
            result.incremental.final_is as f64 >= 0.97 * result.rebuild.final_is as f64,
            "|IS| {} vs {}",
            result.incremental.final_is,
            result.rebuild.final_is
        );
        // The WAL side really paid log I/O and checkpoints, the rebuild
        // side none.
        assert!(result.incremental.io.wal_bytes_written > 0);
        assert_eq!(result.incremental.io.checkpoints_written, 2);
        assert_eq!(result.rebuild.io.wal_bytes_written, 0);
        // Torn-write recovery resumed at the last committed epoch.
        assert_eq!(result.torn.recovered_epoch, 2);
        assert!(result.torn.dropped_bytes > 0);
    }
}
