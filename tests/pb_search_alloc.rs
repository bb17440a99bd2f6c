//! PB answers for the whole-row and join patterns (P1–P5) are folds over
//! borrowed table rows: `search_pb` must not allocate for them, however many
//! matches it counts.
//!
//! A counting global allocator records allocations made on this test's own
//! thread only (the harness and any parallel test threads allocate freely),
//! through a `const` thread-local that itself never allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tin_patterns::{search_pb, PathTables, PatternId, TablesConfig};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn record() {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

struct CountingAllocator;

// SAFETY: every call is forwarded verbatim to `System`; the thread-local
// counter is bookkeeping on the side and never influences the pointers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on the calling thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

#[test]
fn pb_search_of_row_and_join_patterns_does_not_allocate() {
    let graph = tin_datasets::generate_prosper(
        &tin_datasets::ProsperConfig {
            seed: 5,
            ..Default::default()
        }
        .scaled(0.05),
    );
    let tables = PathTables::build(&graph, &TablesConfig::default());
    // Enough rows and join output that a per-match allocation would show.
    assert_eq!(tables.c2.len(), 3_074);
    for id in [
        PatternId::P1,
        PatternId::P2,
        PatternId::P3,
        PatternId::P4,
        PatternId::P5,
    ] {
        let (found, allocations) = allocations_in(|| search_pb(&graph, &tables, id, 0));
        let found = found.expect("all tables built");
        if id == PatternId::P4 {
            assert_eq!(found.instances, 4_517);
        }
        assert_eq!(
            allocations, 0,
            "{id}: search_pb allocated {allocations} times for {} instances",
            found.instances
        );
    }
}
