//! Counting global allocator: makes heap traffic a first-class meter.
//!
//! The whole harness (every figure binary and test in this crate) runs
//! under [`CountingAlloc`], a thin wrapper around the system allocator.
//! Metering is per thread: [`enable`] turns it on for the calling thread
//! only, and the figure runner turns it on in every cell worker it spawns
//! from a metered thread (`ALLOC_METER=1` meters the runner's thread). On a
//! thread that is not metered (the default) the only cost is one
//! thread-local load per allocation; on a metered one every
//! `alloc`/`alloc_zeroed`/`realloc` bumps one process-wide counter. Threads
//! the harness does not own, such as the test runner's, are never counted,
//! so a metered region's count repeats exactly from run to run. Frees are
//! not counted: the meter tracks *allocator pressure*, and the pools
//! eliminate the malloc, not just the free.
//!
//! The metered threads share the counter, so per-cell deltas are only
//! attributable when one cell runs at a time — the runner records
//! them for any `BENCH_THREADS`, but the numbers are meaningful (and the
//! regression test asserts) at `BENCH_THREADS=1`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps [`System`], counting allocation calls made on metered threads.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's allocations are counted. Const-initialised and without
    /// a destructor, so reading it never allocates.
    static METERED: Cell<bool> = const { Cell::new(false) };
}

/// Is the calling thread metered? `false` once its thread-locals are gone.
fn metered() -> bool {
    METERED.try_with(Cell::get).unwrap_or(false)
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if metered() {
            let n = ALLOCS.fetch_add(1, Ordering::Relaxed);
            sample_backtrace(n, layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if metered() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow/shrink is fresh allocator pressure too (it may move).
        if metered() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Regression triage: `ALLOC_SAMPLE=N` prints one backtrace per N counted
/// allocations to stderr, tagged with the allocation size — aggregate the
/// leaf frames to find which path started allocating when the
/// `alloc_threshold` gate trips. Costs nothing unless both `ALLOC_METER=1`
/// and `ALLOC_SAMPLE` are set.
fn sample_backtrace(n: u64, size: usize) {
    thread_local! { static IN_HOOK: Cell<bool> = const { Cell::new(false) }; }
    static PERIOD: AtomicU64 = AtomicU64::new(0);
    let mut p = PERIOD.load(Ordering::Relaxed);
    if p == 0 {
        p = IN_HOOK.with(|g| {
            if g.get() {
                return u64::MAX;
            }
            g.set(true);
            let v = std::env::var("ALLOC_SAMPLE")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(u64::MAX);
            g.set(false);
            v.max(1)
        });
        PERIOD.store(p, Ordering::Relaxed);
    }
    if p == u64::MAX || n % p != 0 {
        return;
    }
    IN_HOOK.with(|g| {
        if g.get() {
            return;
        }
        g.set(true);
        eprintln!("=== alloc sample #{n} size={size}\n{}", std::backtrace::Backtrace::force_capture());
        g.set(false);
    });
}

/// Turn metering on or off for the calling thread (idempotent; also
/// flipped by `ALLOC_METER=1`).
pub fn enable(on: bool) {
    METERED.with(|m| m.set(on));
}

/// Is metering on for the calling thread?
pub fn enabled() -> bool {
    metered()
}

/// `ALLOC_METER=1` in the environment requests metering.
pub fn env_enabled() -> bool {
    std::env::var("ALLOC_METER").map(|v| v == "1").unwrap_or(false)
}

/// Allocation calls counted so far on every metered thread (monotone;
/// sample before/after a region and subtract).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_moves_only_while_enabled() {
        enable(false);
        let a0 = allocs();
        let v: Vec<u8> = Vec::with_capacity(4096);
        drop(v);
        assert_eq!(allocs(), a0, "disabled meter must not count");

        enable(true);
        let a1 = allocs();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let a2 = allocs();
        drop(v);
        enable(false);
        assert!(a2 > a1, "enabled meter must count a fresh Vec");
    }
}
