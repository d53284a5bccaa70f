//! Proves the disabled-sink guarantee: with tracing off, recording
//! calls perform no heap allocation (and are therefore safe to leave
//! in the engine's hot loops).
//!
//! Lives in its own integration binary so the counting global
//! allocator and the process-global sink see no interference from
//! other tests.

// The counting allocator must implement `GlobalAlloc`, which is an
// unsafe trait; this test binary is the one place the workspace's
// `unsafe_code = "deny"` lint is overridden.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_sink_allocates_nothing() {
    mis_obs::set_enabled(false);

    // Warm up: nothing to warm (the disabled path touches no state),
    // but make one pass so any lazy runtime init is out of the way.
    {
        let _s = mis_obs::span("test", "warmup");
        mis_obs::counter("test", "warmup", 0.0);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        let _outer = mis_obs::span("phase", "solve");
        let _inner = mis_obs::span("pass", "twok.pre");
        mis_obs::counter("serve", "serve.pending", 3.0);
        mis_obs::instant("graph", "graph.open");
        mis_obs::observe_ns("pager", "pager.fetch", 1_234);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "disabled-sink recording must not allocate"
    );
    assert!(!mis_obs::enabled());
}
