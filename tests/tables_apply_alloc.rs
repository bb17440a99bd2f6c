//! `PathTables::apply` keeps its working memory in the tables: once a
//! windowed feed has warmed it up, a patch allocates only when a table
//! outgrows its capacity or its delivered-profile arena grows or is
//! compacted — not a fresh set of buffers per batch.
//!
//! The feed is a hub-heavy CTU-13 log replayed in timestamp order in
//! 28-record batches through a sliding window of half its time span, with
//! the cycle tables (`L2`, `L3`) the live loop keeps: the shape of the
//! `window-tables` workload of the live-pipeline benchmark. A counting
//! global allocator records allocations made on this test's own thread,
//! inside `PathTables::apply` only (the graph's own `apply` runs outside the
//! count), through a `const` thread-local that itself never allocates.
//!
//! Every allocation inside the call counts, whatever it is for. The ones
//! left after warm-up are a table's own growth: its delivered-profile
//! arena is compacted every few patches (one allocation, sized with room
//! for the garbage the next patches add, so the arena does not regrow
//! before the next compaction unless its live data grows) or grows by
//! doubling; its row vector and offset index grow when the table does; and
//! the working memory grows when a patch is larger than every one before
//! it. They are why the bound below is not zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tin_datasets::{generate_ctu13, Ctu13Config};
use tin_graph::{GraphBuilder, Interaction, NodeId, TemporalGraph};
use tin_patterns::{PathTables, TablesConfig};

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

/// Records per batch, as in the `window-tables` workload.
const BATCH: usize = 28;

#[test]
fn windowed_table_upkeep_reuses_its_working_memory() {
    // Six hubs; 7,000 records.
    let source = generate_ctu13(
        &Ctu13Config {
            seed: 42,
            ..Ctu13Config::default()
        }
        .scaled(0.5),
    );
    let mut records: Vec<(i64, NodeId, NodeId, f64)> = source
        .edges()
        .iter()
        .flat_map(|e| {
            e.interactions
                .iter()
                .map(move |i| (i.time, e.src, e.dst, i.quantity))
        })
        .collect();
    records.sort_by_key(|r| r.0);
    let span = records.last().unwrap().0 - records[0].0;
    let window = span / 2;

    let config = TablesConfig {
        build_c2: false,
        ..TablesConfig::default()
    };
    let mut graph = TemporalGraph::new();
    let mut tables = PathTables::build(&graph, &config);
    let mut builder = GraphBuilder::new();
    let mut counts = Vec::new();
    for batch in records.chunks(BATCH) {
        for &(time, src, dst, quantity) in batch {
            let s = builder.get_or_add_node(source.node(src).name.clone());
            let d = builder.get_or_add_node(source.node(dst).name.clone());
            builder
                .add_interaction(s, d, Interaction::new(time, quantity))
                .unwrap();
        }
        let newest = batch.last().unwrap().0;
        let delta = builder.drain_delta().expire_before(newest - window);
        let applied = graph.apply(&delta).unwrap();
        let (update, allocations) = allocations_in(|| tables.apply(&graph, &applied));
        assert!(!update.rebuilt);
        counts.push(allocations);
    }
    assert_eq!(
        tables.first_row_divergence(&PathTables::build(&graph, &config)),
        None
    );

    // Warm-up: the first half of the feed, while the window fills. After
    // it, at this seed, the most any apply allocates is 4 and the mean is
    // 0.6. The bounds leave 2 of slack on the maximum, and 0.4 on the
    // mean.
    let steady = &counts[counts.len() / 2..];
    let max = steady.iter().copied().max().unwrap();
    let total: usize = steady.iter().sum();
    assert!(
        max <= 6,
        "an apply after warm-up allocated {max} times: {steady:?}"
    );
    assert!(
        total <= steady.len(),
        "{} applies after warm-up allocated {total} times: {steady:?}",
        steady.len()
    );
}
