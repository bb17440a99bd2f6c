//! A counting wrapper around the system allocator: tracks live and peak
//! allocated bytes so a run can report the live-allocation high-water mark
//! of its measured phase (`peak_alloc_mb`). The two relaxed atomics are
//! statistics that publish no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct CountingAllocator;

// SAFETY: delegates every allocation verbatim to `System`; the counters are
// bookkeeping on the side and never influence the returned pointers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

/// Forgets the historical peak and returns the live footprint, the baseline
/// that [`peak_since`] measures growth against.
pub fn reset() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Peak live bytes since the [`reset`] that returned `baseline`, relative to
/// that baseline.
pub fn peak_since(baseline: usize) -> usize {
    PEAK.load(Relaxed).saturating_sub(baseline)
}

/// Runs `f` without letting its transient allocations raise the peak: the
/// oracles and the harness's own bookkeeping run inside the measured phase
/// but are not part of the pipeline whose footprint is reported.
pub fn excluded<R>(f: impl FnOnce() -> R) -> R {
    let before = PEAK.load(Relaxed);
    let out = f();
    PEAK.store(before.max(LIVE.load(Relaxed)), Relaxed);
    out
}
