//! Property-based tests for the write-ahead log: arbitrary op streams
//! round-trip through commit/reopen, crash truncation at *any* byte
//! boundary recovers a prefix of whole epochs, and a tear anywhere in the
//! last epoch recovers exactly the epoch before it.

use std::sync::Arc;

use proptest::prelude::*;

use mis_extmem::{IoStats, ScratchDir};
use mis_update::{EdgeOp, Wal};

/// Arbitrary op: insert/delete over a small id universe.
fn arb_op() -> impl Strategy<Value = EdgeOp> {
    (any::<bool>(), 0u32..50, 0u32..50).prop_map(|(ins, u, v)| {
        if ins {
            EdgeOp::Insert(u, v)
        } else {
            EdgeOp::Delete(u, v)
        }
    })
}

/// Arbitrary log content: a handful of epochs, each a batch of ops.
fn arb_epochs() -> impl Strategy<Value = Vec<Vec<EdgeOp>>> {
    proptest::collection::vec(proptest::collection::vec(arb_op(), 0..8), 1..6)
}

/// Writes `epochs` into a fresh WAL at `name` under `dir`.
fn write_log(dir: &ScratchDir, name: &str, epochs: &[Vec<EdgeOp>]) -> std::path::PathBuf {
    let path = dir.file(name);
    let (mut wal, _) = Wal::open(&path, IoStats::shared()).unwrap();
    for batch in epochs {
        for &op in batch {
            wal.append(op).unwrap();
        }
        wal.commit_epoch().unwrap();
    }
    path
}

/// The epoch-stamped ops `epochs` should replay to.
fn expected(epochs: &[Vec<EdgeOp>]) -> Vec<(u64, EdgeOp)> {
    epochs
        .iter()
        .enumerate()
        .flat_map(|(i, batch)| batch.iter().map(move |&op| (i as u64 + 1, op)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wal_round_trips_arbitrary_epochs(epochs in arb_epochs()) {
        let dir = ScratchDir::new("wal-prop-rt").unwrap();
        let path = write_log(&dir, "log.wal", &epochs);
        let stats = IoStats::shared();
        let (wal, recovery) = Wal::open(&path, Arc::clone(&stats)).unwrap();
        prop_assert_eq!(recovery.dropped_bytes, 0);
        prop_assert_eq!(recovery.last_epoch, epochs.len() as u64);
        prop_assert_eq!(wal.committed(), expected(&epochs).as_slice());
        prop_assert_eq!(stats.snapshot().wal_bytes_read, wal.disk_bytes());
    }

    #[test]
    fn crash_truncation_recovers_a_whole_epoch_prefix(
        epochs in arb_epochs(),
        cut_seed in any::<u64>(),
    ) {
        let dir = ScratchDir::new("wal-prop-crash").unwrap();
        let path = write_log(&dir, "log.wal", &epochs);
        let bytes = std::fs::read(&path).unwrap();

        // Crash at an arbitrary point strictly inside the record area.
        let cut = 8 + (cut_seed as usize) % (bytes.len() - 8);
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let (wal, recovery) = Wal::open(&path, IoStats::shared()).unwrap();
        // Whatever survived is a prefix of whole epochs…
        let all = expected(&epochs);
        let k = wal.committed().len();
        prop_assert!(k <= all.len());
        prop_assert_eq!(wal.committed(), &all[..k]);
        prop_assert!(recovery.last_epoch <= epochs.len() as u64);
        prop_assert!(wal.committed().iter().all(|(e, _)| *e <= recovery.last_epoch));
        // …and the file was truncated to exactly the recovered prefix, so
        // a second open is clean.
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), wal.disk_bytes());
        let (wal2, recovery2) = Wal::open(&path, IoStats::shared()).unwrap();
        prop_assert_eq!(recovery2.dropped_bytes, 0);
        prop_assert_eq!(wal2.committed(), wal.committed());

        // The recovered log accepts new epochs.
        let (mut wal3, _) = Wal::open(&path, IoStats::shared()).unwrap();
        wal3.append(EdgeOp::Insert(1, 2)).unwrap();
        let next = wal3.commit_epoch().unwrap();
        prop_assert_eq!(next, recovery.last_epoch + 1);
    }

    #[test]
    fn a_tear_anywhere_in_the_last_epoch_recovers_the_one_before(epochs in arb_epochs()) {
        let dir = ScratchDir::new("wal-prop-tear").unwrap();
        let (prior, last) = epochs.split_at(epochs.len() - 1);
        let path = write_log(&dir, "log.wal", prior);
        let prior_len = std::fs::metadata(&path).unwrap().len() as usize;
        let (mut wal, _) = Wal::open(&path, IoStats::shared()).unwrap();
        for &op in &last[0] {
            wal.append(op).unwrap();
        }
        wal.commit_epoch().unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();

        // Every cut from the last epoch's first byte to its marker's last.
        for cut in prior_len..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (wal, recovery) = Wal::open(&path, IoStats::shared()).unwrap();
            prop_assert_eq!(recovery.last_epoch, prior.len() as u64);
            prop_assert_eq!(recovery.dropped_bytes, (cut - prior_len) as u64);
            prop_assert_eq!(wal.committed(), expected(prior).as_slice());
            prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), prior_len as u64);
        }
    }
}
