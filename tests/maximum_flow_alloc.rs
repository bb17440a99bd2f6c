//! `maximum_flow` recycles its working buffers: the flat DAG, its
//! topological order, the arrival times of the time-expanded circulation,
//! the greedy events and the network simplex's arrays all live in
//! thread-local slots. A call allocates only where a buffer must grow past
//! what earlier calls on the thread left behind, so the count per call is
//! bounded by the number of buffers, not by the graph's size.
//!
//! A counting global allocator records allocations made on this test's own
//! thread only (the harness and any parallel test threads allocate freely),
//! through a `const` thread-local that itself never allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tin_datasets::{extract_seed_subgraphs, ExtractConfig};
use tin_flow::{maximum_flow, DifficultyClass};
use tin_graph::{GraphBuilder, NodeId, TemporalGraph};

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

/// A layered DAG from `s` through `layers` layers of `width` vertices to
/// `t`: every vertex sends to three of the next layer's, so no vertex has a
/// single out-edge, and each edge carries `per_edge` interactions timed
/// within its layer's window, so preprocessing keeps most of them.
fn layered(layers: usize, width: usize, per_edge: usize) -> (TemporalGraph, NodeId, NodeId) {
    let mut state = 0x2021_u64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut b = GraphBuilder::new();
    let s = b.add_node("s");
    let grid: Vec<Vec<NodeId>> = (0..layers)
        .map(|l| {
            (0..width)
                .map(|i| b.add_node(format!("v{l}_{i}")))
                .collect()
        })
        .collect();
    let t = b.add_node("t");
    let mut pairs = |b: &mut GraphBuilder, from: NodeId, to: NodeId, layer: usize| {
        let list: Vec<(i64, f64)> = (0..per_edge)
            .map(|_| {
                let time = (100 * layer as u64 + next(100)) as i64;
                (time, (next(9) + 1) as f64)
            })
            .collect();
        b.add_pairs(from, to, &list).unwrap();
    };
    for &v in &grid[0] {
        pairs(&mut b, s, v, 0);
    }
    for l in 0..layers - 1 {
        for (i, &v) in grid[l].iter().enumerate() {
            for k in 0..3 {
                pairs(&mut b, v, grid[l + 1][(i + k) % width], l + 1);
            }
        }
    }
    for &v in &grid[layers - 1] {
        pairs(&mut b, v, t, layers);
    }
    (b.build(), s, t)
}

#[test]
fn maximum_flow_allocates_at_most_32_times_per_call() {
    // Seed subgraphs of the three generators in extraction order, sizes
    // mixed as a worker meets them, then a class C graph of over 2,000
    // interactions, then the first subgraphs again, now after the big one.
    let mut set: Vec<(TemporalGraph, NodeId, NodeId)> = Vec::new();
    let config = ExtractConfig::default();
    let graphs = [
        tin_datasets::generate_bitcoin(
            &tin_datasets::BitcoinConfig {
                seed: 3,
                ..Default::default()
            }
            .scaled(0.05),
        ),
        tin_datasets::generate_ctu13(
            &tin_datasets::Ctu13Config {
                seed: 3,
                ..Default::default()
            }
            .scaled(0.05),
        ),
        tin_datasets::generate_prosper(
            &tin_datasets::ProsperConfig {
                seed: 3,
                ..Default::default()
            }
            .scaled(0.05),
        ),
    ];
    for graph in &graphs {
        let subs = extract_seed_subgraphs(graph, &config);
        set.extend(subs.into_iter().map(|s| (s.graph, s.source, s.sink)));
    }
    let big = layered(8, 10, 10);
    assert!(big.0.interaction_count() >= 2_000);
    set.push(big);
    let again: Vec<_> = set.iter().take(40).cloned().collect();
    set.extend(again);

    let mut seen = [0usize; 3];
    let mut worst = 0;
    for (i, (g, s, t)) in set.iter().enumerate() {
        let (result, allocations) = allocations_in(|| maximum_flow(g, *s, *t));
        let class = result.expect("the subgraphs are DAGs").class;
        let class = class.expect("PreSim classifies");
        seen[class as usize] += 1;
        worst = worst.max(allocations);
        assert!(
            allocations <= 32,
            "call {i} (class {class}, {} interactions) allocated {allocations} times",
            g.interaction_count()
        );
        if g.interaction_count() >= 2_000 {
            assert_eq!(
                class,
                DifficultyClass::C,
                "the big graph needs the exact leg"
            );
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "classes A, B, C seen {seen:?}");
    assert!(set.len() > 100, "{} calls", set.len());
    eprintln!(
        "{} calls, classes A/B/C {seen:?}, at most {worst} allocations",
        set.len()
    );
}
