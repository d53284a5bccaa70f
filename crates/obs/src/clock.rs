//! The shared wall-clock helpers of the bench harness: closure timing
//! and the hardware topology that fingerprints a `BENCH_*.json` snapshot.

use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// Times one closure, returning its value and elapsed wall-clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// The machine's hardware thread count, as best the process can tell.
///
/// `std::thread::available_parallelism` reports the parallelism
/// *available to this process* — cgroup CPU quotas and affinity masks
/// shrink it, so inside a throttled container it can read `1` on a
/// many-core machine. For *reporting* (as opposed to sizing thread
/// pools) the physical topology is the honest number, so this takes the
/// maximum of `available_parallelism` and the `/proc/cpuinfo` processor
/// count (when readable). Always at least 1.
pub fn hardware_threads() -> usize {
    let available = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let physical = std::fs::read_to_string("/proc/cpuinfo")
        .map(|text| text.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    available.max(physical).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_and_returns() {
        let (v, d) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn hardware_threads_is_positive_and_not_below_available() {
        let hw = hardware_threads();
        assert!(hw >= 1);
        let avail = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        assert!(hw >= avail);
    }
}
