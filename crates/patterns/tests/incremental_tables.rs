//! Property-based pinning of incremental path-table maintenance: feeding a
//! random record log into a graph as a random sequence of deltas, with
//! [`PathTables::apply`] patching the tables after every batch, must leave
//! tables **row-identical** to a from-scratch [`PathTables::build`] over the
//! final graph — same vertex sequences in the same order, same delivered
//! profiles, same flows. A directed test additionally checks every
//! intermediate state.

use proptest::prelude::*;
use tin_graph::{GraphBuilder, Interaction, NodeId, TemporalGraph};
use tin_patterns::{PathTables, TablesConfig};

/// A record log over a small vertex pool; destinations are generated as a
/// nonzero offset from the source so no record is a self-loop.
fn records(max_len: usize) -> impl Strategy<Value = Vec<(u8, u8, i64, f64)>> {
    proptest::collection::vec(
        (0u8..7, 1u8..7, 0i64..40, 0u32..9)
            .prop_map(|(s, off, t, q)| (s, (s + off) % 7, t, q as f64)),
        1..max_len,
    )
}

fn assert_row_identical(label: &str, got: &PathTables, want: &PathTables) {
    if let Some(divergence) = got.first_row_divergence(want) {
        panic!("{label}: incremental tables diverge from rebuild: {divergence}");
    }
    // The per-anchor offset index moves with the rows instead of being
    // recounted, so it is compared too: the rows are identical, so equal
    // anchors with equally long slices mean equal slices.
    for (name, g, w) in [
        ("L2", &got.l2, &want.l2),
        ("L3", &got.l3, &want.l3),
        ("C2", &got.c2, &want.c2),
    ] {
        assert!(
            g.anchors().eq(w.anchors()),
            "{label}: {name} anchors differ from rebuild"
        );
        for a in w.anchors() {
            assert_eq!(
                g.rows_for(a).len(),
                w.rows_for(a).len(),
                "{label}: {name} rows_for({a:?}) differs from rebuild"
            );
        }
    }
}

/// Feeds `records` through an append builder in batches cut at `splits`,
/// maintaining `tables` incrementally; returns the final graph.
fn run_incremental(
    records: &[(u8, u8, i64, f64)],
    splits: &[usize],
    tables: &mut PathTables,
    mut on_batch: impl FnMut(&TemporalGraph, &PathTables),
) -> TemporalGraph {
    let mut g = TemporalGraph::new();
    let mut b = GraphBuilder::new();
    let flush = |g: &mut TemporalGraph, b: &mut GraphBuilder, tables: &mut PathTables| {
        let applied = g.apply(&b.drain_delta()).unwrap();
        tables.apply(g, &applied);
    };
    for (i, &(s, d, t, q)) in records.iter().enumerate() {
        if splits.contains(&i) {
            flush(&mut g, &mut b, tables);
            on_batch(&g, tables);
        }
        let s = b.get_or_add_node(format!("v{s}"));
        let d = b.get_or_add_node(format!("v{d}"));
        b.add_interaction(s, d, Interaction::new(t, q)).unwrap();
    }
    flush(&mut g, &mut b, tables);
    on_batch(&g, tables);
    g
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Incremental `apply` over a random split of the interaction log is
    /// row-identical to a full rebuild on the final graph.
    #[test]
    fn incremental_apply_is_row_identical_to_rebuild(
        records in records(50),
        splits in proptest::collection::vec(0usize..50, 0..8),
    ) {
        for config in [
            TablesConfig::default(),
            TablesConfig { build_c2: false, ..TablesConfig::default() },
        ] {
            let mut tables = PathTables::build(&TemporalGraph::new(), &config);
            let g = run_incremental(&records, &splits, &mut tables, |_, _| {});
            assert_row_identical("final", &tables, &PathTables::build_serial(&g, &config));
        }
    }

    /// The same holds at *every* intermediate batch boundary, not just at
    /// the end — a live pipeline queries between batches.
    #[test]
    fn every_batch_boundary_is_row_identical(
        records in records(30),
        step in 1usize..6,
    ) {
        let config = TablesConfig::default();
        let splits: Vec<usize> = (0..30).step_by(step).collect();
        let mut tables = PathTables::build(&TemporalGraph::new(), &config);
        run_incremental(&records, &splits, &mut tables, |g, t| {
            assert_row_identical("boundary", t, &PathTables::build_serial(g, &config));
        });
    }
}

/// One interaction per batch for a while: the most adversarial splitting,
/// maximal garbage churn in the arena, plus a row-cap fallback exercise.
#[test]
fn single_record_batches_and_cap_fallback() {
    let log: Vec<(u8, u8, i64, f64)> = (0..40u8)
        .map(|i| {
            (
                i % 5,
                (i + 1 + i % 3) % 5,
                (i as i64 * 7) % 23,
                1.0 + f64::from(i % 4),
            )
        })
        .filter(|(s, d, ..)| s != d)
        .collect();
    let splits: Vec<usize> = (0..log.len()).collect();
    // Unlimited cap: plain incremental maintenance.
    let config = TablesConfig {
        max_rows: 0,
        ..TablesConfig::default()
    };
    let mut tables = PathTables::build(&TemporalGraph::new(), &config);
    let g = run_incremental(&log, &splits, &mut tables, |_, _| {});
    assert_row_identical("uncapped", &tables, &PathTables::build_serial(&g, &config));
    // A cap small enough to trip mid-stream: apply must fall back to the
    // rebuild path and end bit-compatible with a capped fresh build
    // (truncation verdicts included).
    let capped = TablesConfig {
        max_rows: 6,
        ..TablesConfig::default()
    };
    let mut tables = PathTables::build(&TemporalGraph::new(), &capped);
    let g = run_incremental(&log, &splits, &mut tables, |_, _| {});
    let rebuilt = PathTables::build_serial(&g, &capped);
    assert_eq!(tables.truncated, rebuilt.truncated);
    assert!(tables.truncated, "the cap must actually trip in this test");
}

/// Appends that only ever touch one corner of a larger graph do kernel work
/// proportional to that corner, not to the graph.
#[test]
fn incremental_kernel_work_is_delta_local() {
    // A 12-vertex near-clique plus one small appendix a -> b.
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..12).map(|i| b.add_node(format!("d{i}"))).collect();
    let mut t = 0i64;
    for i in 0..12usize {
        for j in 0..12usize {
            if i != j {
                t += 1;
                b.add_interaction(ids[i], ids[j], Interaction::new(t, 1.0))
                    .unwrap();
            }
        }
    }
    let a = b.add_node("a");
    let bb = b.add_node("b");
    b.add_interaction(a, bb, Interaction::new(1, 1.0)).unwrap();
    let mut g = TemporalGraph::new();
    g.apply(&b.drain_delta()).unwrap();
    let config = TablesConfig::default();
    let mut tables = PathTables::build_serial(&g, &config);
    let full_build_calls = tables.kernel_calls();
    // Ten appends on the appendix edge; each invalidates {a, b} only.
    let mut appended = GraphBuilder::for_graph(&g);
    let mut incremental_calls = 0;
    for k in 0..10 {
        appended
            .add_interaction(a, bb, Interaction::new(100 + k, 1.0))
            .unwrap();
        let applied = g.apply(&appended.drain_delta()).unwrap();
        let update = tables.apply(&g, &applied);
        assert!(!update.rebuilt);
        incremental_calls += update.kernel_calls;
    }
    assert_row_identical("local", &tables, &PathTables::build_serial(&g, &config));
    assert!(
        incremental_calls * 10 < full_build_calls,
        "10 local updates ({incremental_calls} kernel passes) should be far below one \
         full build ({full_build_calls} passes)"
    );
}

/// With cycle-only tables, appends on a hub's spoke do work independent of
/// the hub's degree: no spoke closes a 3-cycle through the hub, so only the
/// touched edge's own block and its 2-cycle are refreshed — not one middle
/// row per in-neighbor of the hub.
#[test]
fn cycle_only_work_does_not_depend_on_hub_degree() {
    let config = TablesConfig {
        build_c2: false,
        ..TablesConfig::default()
    };
    let mut b = GraphBuilder::new();
    let hub = b.add_node("hub");
    let bots: Vec<NodeId> = (0..200).map(|i| b.add_node(format!("bot{i}"))).collect();
    for (i, &bot) in bots.iter().enumerate() {
        let t = 2 * i as i64;
        b.add_interaction(bot, hub, Interaction::new(t, 1.0))
            .unwrap();
        b.add_interaction(hub, bot, Interaction::new(t + 1, 1.0))
            .unwrap();
    }
    let mut g = TemporalGraph::new();
    g.apply(&b.drain_delta()).unwrap();
    let mut tables = PathTables::build_serial(&g, &config);
    let mut appended = GraphBuilder::for_graph(&g);
    for (t, (src, dst)) in [(hub, bots[7]), (bots[7], hub)].into_iter().enumerate() {
        appended
            .add_interaction(src, dst, Interaction::new(1_000 + t as i64, 1.0))
            .unwrap();
        let applied = g.apply(&appended.drain_delta()).unwrap();
        let update = tables.apply(&g, &applied);
        assert!(!update.rebuilt);
        assert!(
            update.refreshed_groups <= 4 && update.kernel_calls <= 8,
            "one spoke append refreshed {} groups with {} kernel passes",
            update.refreshed_groups,
            update.kernel_calls
        );
        assert_row_identical("hub spoke", &tables, &PathTables::build_serial(&g, &config));
    }
}
