//! A counting global allocator: live bytes, peak live bytes, and the
//! bytes and calls allocated, so heap figures are per workload and per
//! timed window instead of a process-wide high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Fix glibc's mmap threshold at its starting value, 128 KiB, before
/// serve-warm allocates. Left alone, glibc raises the threshold to the
/// size of each mapped block freed, so whether the server's
/// multi-megabyte per-request buffers come from fresh mappings or from
/// the heap depends on the order of the first frees, and the process
/// runs its window in one mode or another. Same serve-warm seeds, 12 s
/// windows, on a two-core Xeon: fixed at 128 KiB, 73–84 requests/s and
/// p90 over p50 of 1.20–1.35 in four runs; fixed at 32 MiB, 45–56
/// requests/s; left dynamic, 57–74 requests/s, and one to three runs in
/// ten of 28 s read p90 at about 1.7 × p50. Setting the threshold turns
/// the adjustment off.
///
/// Only serve-warm fixes it. Fixed at 128 KiB, cold-compile ran at 23–30
/// records/s against 29–39 left dynamic, and fault-campaign at about
/// half its dynamic rate: their compile and campaign buffers, reused
/// from the heap in the dynamic mode, were mapped and faulted in afresh
/// on every record.
pub fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
        extern "C" {
            fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
        }
        // SAFETY: `mallopt` only sets a malloc parameter; glibc takes
        // its own lock, and no allocation is in flight this early.
        let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
        assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
    }
}

/// Forwards to the system allocator and counts what passes through.
pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

// The counters are statistics that publish no other data, so `Relaxed`
// is enough; a peak read racing an allocation on another thread is off
// by at most that one allocation.
fn grew(size: usize) {
    let size = size as u64;
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(size: usize) {
    LIVE.fetch_sub(size as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` requirements pass through as-is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` are exactly those `System.realloc` needs.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Allocator counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Bytes allocated since process start (reallocs count their new size).
    pub bytes: u64,
    /// Allocation calls since process start.
    pub calls: u64,
    /// Highest live heap since the last [`reset_peak`].
    pub peak: u64,
}

/// Read the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        bytes: BYTES.load(Relaxed),
        calls: CALLS.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Restart peak tracking from the current live heap (start of a window).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
