//! What the benchmark asks of Linux directly: CPU pinning, process-wide
//! resource counters, peak RSS, and a counting allocator. Declared by hand
//! (`extern "C"`) because the repo vendors no `libc` crate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `cpu_set_t`: 1024 bits.
pub type CpuMask = [u64; 16];

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs.
const RUSAGE_WORDS: usize = 18;
const RU_UTIME: usize = 0;
const RU_STIME: usize = 2;
const RU_NVCSW: usize = 16;

/// glibc's `M_ARENA_MAX`.
#[cfg(target_env = "gnu")]
const M_ARENA_MAX: i32 = -8;

extern "C" {
    #[cfg(target_env = "gnu")]
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut i64) -> i32;
}

/// The calling thread's affinity mask (threads spawned later inherit it).
pub fn affinity() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Set the calling thread's affinity mask. Returns whether the kernel took it.
pub fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// Highest-numbered CPU in `mask`.
pub fn highest_cpu(mask: &CpuMask) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

/// Pin the calling thread (and every thread it spawns afterwards) to the
/// highest-numbered CPU it may run on. Returns the mask it had before, so
/// the unpinned-ratio measurement can reopen it.
pub fn pin_to_highest_cpu() -> Option<CpuMask> {
    let before = affinity()?;
    let cpu = highest_cpu(&before)?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set_affinity(&one).then_some(before)
}

/// Keep glibc malloc to one arena. Rank threads run one at a time on one
/// CPU, so per-thread arenas buy nothing and only make peak RSS depend on
/// which exiting thread's arena the next thread inherits (the farm's VmHWM
/// read 22–30 MiB with them, 11.5–11.8 MiB without). Call before any thread
/// is spawned. A no-op on other C libraries.
pub fn one_malloc_arena() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `mallopt` only stores a tunable; M_ARENA_MAX takes any count.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

/// Process-wide counters from `getrusage(RUSAGE_SELF)`: every thread,
/// including rank threads that already exited.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary context switches (a thread blocked: park, futex, syscall).
    pub nvcsw: u64,
}

pub fn rusage() -> Rusage {
    let mut raw = [0i64; RUSAGE_WORDS];
    // SAFETY: `raw` is a writable buffer the size of `struct rusage`;
    // who = 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, raw.as_mut_ptr()) };
    if rc != 0 {
        return Rusage::default();
    }
    let tv = |i: usize| raw[i] as f64 + raw[i + 1] as f64 * 1e-6;
    Rusage {
        user_s: tv(RU_UTIME),
        sys_s: tv(RU_STIME),
        nvcsw: raw[RU_NVCSW] as u64,
    }
}

impl Rusage {
    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            nvcsw: self.nvcsw - earlier.nvcsw,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The system allocator plus two counters that move only while
/// [`count_allocs`] is on (one relaxed load per call otherwise). Global,
/// not per-thread: rank threads make the allocations being counted.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turn allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// (calls, bytes requested) counted so far; sample before and after.
pub fn allocs() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_cpu_reads_the_top_set_bit() {
        let mut m: CpuMask = [0; 16];
        assert_eq!(highest_cpu(&m), None);
        m[0] = 0b1011;
        assert_eq!(highest_cpu(&m), Some(3));
        m[2] = 1 << 5;
        assert_eq!(highest_cpu(&m), Some(2 * 64 + 5));
    }

    #[test]
    fn rusage_and_rss_read_something() {
        let r = rusage();
        assert!(r.user_s + r.sys_s > 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
