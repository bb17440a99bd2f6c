//! Property-based pinning of sliding-window incremental table maintenance:
//! replaying a random record log through windowed deltas — each batch
//! carrying the monotone expiry frontier `newest seen - window`, evicting
//! old interactions and tombstoning drained edges — with
//! [`PathTables::apply`] patching after every batch must leave tables
//! **row-identical** to a from-scratch [`PathTables::build`] over only the
//! surviving window, at every batch boundary. Removal invalidation reuses
//! the addition row groups symmetrically, so this is the retraction-side
//! twin of `incremental_tables.rs`; directed tests cover the edge cases
//! (total eviction, window larger than the log, single-record batches,
//! eviction that re-crosses the row cap downward), and a churn regression
//! pins the arena's amortized compaction. A last property folds runs of consecutive batches with
//! [`AppliedDelta::absorb`] and applies each fold once, the way recovery
//! catches up after replaying a journal tail.
//!
//! The logs of most properties draw both ends of a record uniformly from a
//! few vertices, so a changed edge's two sides have similar degrees and its
//! first-edge block few 3-cycles. `hub_churn_is_row_identical_at_every_boundary`
//! puts one vertex in about half the records instead. Counted with an
//! instrumented copy of `PathTables::apply`'s group collection, over the
//! 48 cases at the shim's fixed seed: in `every_windowed_boundary_is_row_identical`
//! 28 of 1,826 cycle listings (1.5%) met one side at least four times the
//! other, the smaller side was `in(u)` 1,284 times and `out(v)` 542 times,
//! and no block held more than 2 of its 166 3-cycles; under the hub, 2,190
//! of 13,480 listings (16%) met such a skew, the smaller side was `in(u)`
//! 8,266 times and `out(v)` 5,214 times, and blocks held up to 8 3-cycles,
//! 976 of them at least 4 (15,540 3-cycles in all).

use proptest::prelude::*;
use tin_graph::{AppliedDelta, GraphBuilder, GraphDelta, Interaction, TemporalGraph};
use tin_patterns::{PathTables, TablesConfig};

/// One log record: source, destination, time, quantity.
type Record = (u8, u8, i64, f64);

/// A record log over a small vertex pool; destinations are generated as a
/// nonzero offset from the source so no record is a self-loop.
///
/// Times advance as a feed's do: each record comes 0–5 units after the
/// newest time so far, so the frontier keeps moving and a batch expires
/// interactions of edges it does not touch. One record in five is late
/// instead, up to 19 units before the newest time (at least 0), which
/// exercises stragglers behind the frontier.
fn records(max_len: usize) -> impl Strategy<Value = Vec<Record>> {
    records_on(7, max_len)
}

/// [`records`] over a pool of `pool` vertices.
fn records_on(pool: u8, max_len: usize) -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(
        ((0..pool, 1..pool, 0u32..9), (0i64..6, 0u32..5, 0i64..20)),
        1..max_len,
    )
    .prop_map(move |raw| {
        let mut newest = 0;
        raw.into_iter()
            .map(|((s, off, q), (step, late, back))| {
                let t = if late == 0 {
                    (newest - back).max(0)
                } else {
                    newest += step;
                    newest
                };
                (s, (s + off) % pool, t, q as f64)
            })
            .collect()
    })
}

/// A record log with a hub: vertex `v0` is one end of about half the
/// records, sending as often as receiving, and the other end is drawn from
/// a pool of 12 vertices; the other records draw both ends from that pool.
/// Times advance as in [`records`].
fn hub_records(max_len: usize) -> impl Strategy<Value = Vec<Record>> {
    const POOL: u8 = 12;
    proptest::collection::vec(
        (
            (0u8..4, 1..POOL, 1..POOL),
            (0u32..9, 0i64..6, 0u32..5, 0i64..20),
        ),
        1..max_len,
    )
    .prop_map(|raw| {
        let mut newest = 0;
        raw.into_iter()
            .map(|((role, a, off), (q, step, late, back))| {
                let t = if late == 0 {
                    (newest - back).max(0)
                } else {
                    newest += step;
                    newest
                };
                let (s, d) = match role {
                    0 => (0, a),
                    1 => (a, 0),
                    _ => (a, (a + off) % POOL),
                };
                (s, d, t, q as f64)
            })
            .collect()
    })
}

fn assert_row_identical(label: &str, got: &PathTables, want: &PathTables) {
    if let Some(divergence) = got.first_row_divergence(want) {
        panic!("{label}: windowed incremental tables diverge from rebuild: {divergence}");
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

/// Feeds `records` through windowed deltas cut at `splits` (frontier =
/// newest staged timestamp - `window`, as `DeltaStream::window` emits);
/// `on_apply` sees every application with the graph right after it.
/// Returns the final graph.
fn feed_windowed(
    records: &[Record],
    splits: &[usize],
    window: i64,
    mut on_apply: impl FnMut(&TemporalGraph, AppliedDelta),
) -> TemporalGraph {
    let mut g = TemporalGraph::new();
    let mut b = GraphBuilder::new();
    let mut max_seen: Option<i64> = None;
    let mut flush = |g: &mut TemporalGraph, b: &mut GraphBuilder, max_seen: Option<i64>| {
        let mut delta = b.drain_delta();
        if let Some(newest) = max_seen {
            delta = delta.expire_before(newest.saturating_sub(window));
        }
        let applied = g.apply(&delta).unwrap();
        on_apply(g, applied);
    };
    for (i, &(s, d, t, q)) in records.iter().enumerate() {
        if splits.contains(&i) {
            flush(&mut g, &mut b, max_seen);
        }
        let s = b.get_or_add_node(format!("v{s}"));
        let d = b.get_or_add_node(format!("v{d}"));
        b.add_interaction(s, d, Interaction::new(t, q)).unwrap();
        if max_seen.is_none_or(|m| t > m) {
            max_seen = Some(t);
        }
    }
    flush(&mut g, &mut b, max_seen);
    g
}

/// [`feed_windowed`] with `tables` patched after every batch; `on_batch`
/// sees every post-eviction boundary state.
fn run_windowed(
    records: &[Record],
    splits: &[usize],
    window: i64,
    tables: &mut PathTables,
    mut on_batch: impl FnMut(&TemporalGraph, &PathTables),
) -> TemporalGraph {
    feed_windowed(records, splits, window, |g, applied| {
        tables.apply(g, &applied);
        on_batch(g, tables);
    })
}

/// Appends three single-record batches that tombstone the pair `v0 → v1`
/// and revive it under a fresh edge id: `v0 → v1` just after the log's
/// newest time, a record elsewhere far enough ahead that the frontier
/// passes every `v0 → v1` interaction, then `v0 → v1` at that record's
/// time. Returns the extended log and its splits.
fn with_revival(records: &[Record], splits: &[usize], window: i64) -> (Vec<Record>, Vec<usize>) {
    let newest = records.iter().map(|r| r.2).max().unwrap_or(0);
    let n = records.len();
    let mut log = records.to_vec();
    log.push((0, 1, newest + 1, 1.0));
    log.push((2, 3, newest + window + 2, 1.0));
    log.push((0, 1, newest + window + 2, 2.0));
    let mut splits: Vec<usize> = splits.iter().copied().filter(|&i| i < n).collect();
    splits.extend([n, n + 1, n + 2]);
    (log, splits)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Windowed incremental `apply` is row-identical to a full rebuild over
    /// the surviving window on the final graph, for every table selection.
    #[test]
    fn windowed_apply_is_row_identical_to_rebuild(
        records in records(50),
        splits in proptest::collection::vec(0usize..50, 0..8),
        window in 0i64..45,
    ) {
        for config in [
            TablesConfig::default(),
            TablesConfig { build_c2: false, ..TablesConfig::default() },
        ] {
            let mut tables = PathTables::build(&TemporalGraph::new(), &config);
            let g = run_windowed(&records, &splits, window, &mut tables, |_, _| {});
            assert_row_identical("final", &tables, &PathTables::build_serial(&g, &config));
        }
    }

    /// The same holds at *every* batch boundary — a live monitor queries
    /// between batches, right after evictions landed.
    #[test]
    fn every_windowed_boundary_is_row_identical(
        records in records(30),
        step in 1usize..6,
        window in 0i64..45,
    ) {
        let splits: Vec<usize> = (0..30).step_by(step).collect();
        for config in [
            TablesConfig::default(),
            TablesConfig { build_c2: false, ..TablesConfig::default() },
        ] {
            let mut tables = PathTables::build(&TemporalGraph::new(), &config);
            run_windowed(&records, &splits, window, &mut tables, |g, t| {
                assert_row_identical("boundary", t, &PathTables::build_serial(g, &config));
            });
        }
    }

    /// A hub in about half the records keeps the tables row-identical to a
    /// rebuild at every windowed boundary. The uniform logs above rarely
    /// make one side of a changed edge much smaller than the other, so the
    /// cycle listing's scan of the smaller side and blocks of many 3-cycles
    /// get their exercise here (see the module docs for the counts).
    #[test]
    fn hub_churn_is_row_identical_at_every_boundary(
        records in hub_records(200),
        step in 1usize..8,
        window in 0i64..400,
    ) {
        let splits: Vec<usize> = (0..200).step_by(step).collect();
        for config in [
            TablesConfig::default(),
            TablesConfig { build_c2: false, ..TablesConfig::default() },
        ] {
            let mut tables = PathTables::build(&TemporalGraph::new(), &config);
            run_windowed(&records, &splits, window, &mut tables, |g, t| {
                assert_row_identical("hub churn", t, &PathTables::build_serial(g, &config));
            });
        }
    }

    /// Runs of consecutive windowed batches, each folded with
    /// `AppliedDelta::absorb` and applied to the tables once, leave the
    /// tables row-identical to a rebuild after every run. The first run
    /// starts from an empty graph, and the last one holds three batches
    /// that tombstone the pair `v0 → v1` and revive it. The pool is small,
    /// so pairs repeat, and a positive `drift` moves record `i`'s time
    /// `drift · i` later, so the frontier keeps advancing: later batches of
    /// a run shrink edges that earlier ones left alone.
    #[test]
    fn folded_runs_are_row_identical_to_rebuild(
        records in records_on(4, 40),
        drift in 0i64..3,
        splits in proptest::collection::vec(0usize..40, 0..10),
        run_ends in proptest::collection::vec(0usize..12, 0..5),
        window in 0i64..45,
    ) {
        let records: Vec<_> = records
            .iter()
            .zip(0..)
            .map(|(&(s, d, t, q), i)| (s, d, t + drift * i, q))
            .collect();
        let (log, splits) = with_revival(&records, &splits, window);
        let batches = (0..log.len()).filter(|i| splits.contains(i)).count() + 1;
        for config in [
            TablesConfig::default(),
            TablesConfig { build_c2: false, ..TablesConfig::default() },
        ] {
            let mut tables = PathTables::build(&TemporalGraph::new(), &config);
            let mut fold: Option<AppliedDelta> = None;
            let mut batch = 0;
            let mut runs = 0;
            feed_windowed(&log, &splits, window, |g, applied| {
                match &mut fold {
                    Some(fold) => fold.absorb(applied),
                    None => fold = Some(applied),
                }
                batch += 1;
                let last = batch == batches;
                // The revival's three batches are never cut apart.
                if !last && (batch + 3 > batches || !run_ends.contains(&batch)) {
                    return;
                }
                let run = fold.take().unwrap();
                if runs == 0 {
                    prop_assert_eq!(run.nodes_before, 0, "the first run starts empty");
                }
                if last {
                    let v = |name| g.node_by_name(name).unwrap();
                    let (v0, v1) = (v("v0"), v("v1"));
                    let revived = g.find_edge(v0, v1).unwrap();
                    prop_assert!(run.new_edges.contains(&revived));
                    prop_assert!(run
                        .removed_edges
                        .iter()
                        .any(|&e| (g.edge(e).src, g.edge(e).dst) == (v0, v1)));
                }
                tables.apply(g, &run);
                runs += 1;
                assert_row_identical("folded run", &tables, &PathTables::build(g, &config));
            });
            prop_assert_eq!(batch, batches);
        }
    }
}

/// A window of zero behind the newest timestamp evicts (almost) everything;
/// the tables must follow down to empty-or-tiny without a hiccup, including
/// when the last batch kills every remaining edge.
#[test]
fn window_that_evicts_everything() {
    let config = TablesConfig::default();
    let mut tables = PathTables::build(&TemporalGraph::new(), &config);
    // Times strictly increase, so a zero-length window keeps only the
    // newest record's timestamp.
    let log: Vec<Record> = (0..30u8)
        .map(|i| (i % 5, (i + 1 + i % 3) % 5, i as i64, 1.0))
        .filter(|(s, d, ..)| s != d)
        .collect();
    let splits: Vec<usize> = (0..log.len()).collect();
    let g = run_windowed(&log, &splits, 0, &mut tables, |g, t| {
        assert_row_identical("boundary", t, &PathTables::build_serial(g, &config));
    });
    assert_eq!(g.interaction_count(), 1, "only the newest instant survives");
    assert!(g.live_edge_count() == 1 && g.edge_count() > 1);
    // One final frontier beyond everything: tables drain to empty.
    let mut g = g;
    let delta = GraphDelta::new(g.node_count(), vec![], vec![])
        .unwrap()
        .expire_before(i64::MAX);
    let applied = g.apply(&delta).unwrap();
    let update = tables.apply(&g, &applied);
    assert!(
        !update.rebuilt,
        "total eviction is still an incremental patch"
    );
    assert!(tables.l2.is_empty() && tables.l3.is_empty() && tables.c2.is_empty());
    assert_row_identical("empty", &tables, &PathTables::build_serial(&g, &config));
}

/// A 3-cycle `a → u → v → a` whose middle and closing edges expire in one
/// delta while its first edge survives: the rotation `[a, u, v]` lies in
/// neither expired edge's post-delta neighborhood, so cycle-only
/// maintenance must reach it through the closing pair's own change.
#[test]
fn cycle_losing_two_edges_in_one_delta_is_deleted() {
    let config = TablesConfig {
        build_c2: false,
        ..TablesConfig::default()
    };
    let mut b = GraphBuilder::new();
    let a = b.add_node("a");
    let u = b.add_node("u");
    let v = b.add_node("v");
    b.add_interaction(a, u, Interaction::new(10, 1.0)).unwrap();
    b.add_interaction(u, v, Interaction::new(1, 1.0)).unwrap();
    b.add_interaction(v, a, Interaction::new(2, 1.0)).unwrap();
    let mut g = TemporalGraph::new();
    g.apply(&b.drain_delta()).unwrap();
    let mut tables = PathTables::build_serial(&g, &config);
    assert_eq!(tables.l3.len(), 3, "every rotation of the cycle is a row");
    let delta = GraphDelta::new(g.node_count(), vec![], vec![])
        .unwrap()
        .expire_before(5);
    let applied = g.apply(&delta).unwrap();
    assert!(g.has_edge(a, u) && !g.has_edge(u, v) && !g.has_edge(v, a));
    let update = tables.apply(&g, &applied);
    assert!(!update.rebuilt);
    assert!(tables.l3.is_empty(), "every rotation is gone");
    assert_row_identical(
        "two-edge expiry",
        &tables,
        &PathTables::build_serial(&g, &config),
    );
}

/// A fold must carry a shrink that only a later application of its run
/// made: `a → b` loses its early interaction in the second batch, which
/// touches nothing, while the first batch touched an unrelated pair. The
/// chain `a → b → c` delivers less afterwards, and only `a → b`'s own
/// change can name its row.
#[test]
fn fold_carries_a_shrink_made_only_by_a_later_batch() {
    let config = TablesConfig::default();
    let mut b = GraphBuilder::new();
    let (a, v, c, d, e) = (
        b.add_node("a"),
        b.add_node("b"),
        b.add_node("c"),
        b.add_node("d"),
        b.add_node("e"),
    );
    b.add_interaction(a, v, Interaction::new(1, 5.0)).unwrap();
    b.add_interaction(a, v, Interaction::new(10, 1.0)).unwrap();
    b.add_interaction(v, c, Interaction::new(12, 10.0)).unwrap();
    b.add_interaction(d, e, Interaction::new(8, 1.0)).unwrap();
    let mut g = TemporalGraph::new();
    g.apply(&b.drain_delta()).unwrap();
    let mut tables = PathTables::build_serial(&g, &config);
    let n = g.node_count();
    let mut fold = g
        .apply(&GraphDelta::new(n, vec![], vec![(d, e, Interaction::new(11, 1.0))]).unwrap())
        .unwrap();
    let shrink = g
        .apply(&GraphDelta::new(n, vec![], vec![]).unwrap().expire_before(5))
        .unwrap();
    assert_eq!(shrink.shrunk_edges, vec![g.find_edge(a, v).unwrap()]);
    assert!(shrink.touched_edges.is_empty());
    fold.absorb(shrink);
    let update = tables.apply(&g, &fold);
    assert!(!update.rebuilt);
    assert_row_identical(
        "late shrink",
        &tables,
        &PathTables::build_serial(&g, &config),
    );
}

/// A window larger than the log never evicts: windowed maintenance must
/// behave exactly like the append-only path it generalizes.
#[test]
fn window_larger_than_the_log_is_append_only() {
    let config = TablesConfig::default();
    let log: Vec<Record> = (0..40u8)
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
    let splits: Vec<usize> = (0..log.len()).step_by(3).collect();
    let mut tables = PathTables::build(&TemporalGraph::new(), &config);
    let g = run_windowed(&log, &splits, 10_000, &mut tables, |_, _| {});
    assert_eq!(g.live_edge_count(), g.edge_count(), "no tombstones");
    assert_row_identical(
        "huge window",
        &tables,
        &PathTables::build_serial(&g, &config),
    );
}

/// Eviction that re-crosses the row cap downward: a dense early phase trips
/// the cap (tables go truncated, apply falls back to rebuilds), then the
/// window slides past the dense phase and the surviving graph fits again —
/// the rebuild fallback must come out un-truncated and row-identical, with
/// cap semantics exactly those of a fresh capped build at every boundary.
#[test]
fn eviction_recrosses_the_cap_downward() {
    let capped = TablesConfig {
        max_rows: 12,
        ..TablesConfig::default()
    };
    // Phase 1 (t in 0..=9): a dense 6-clique burst — way over 12 rows.
    let mut log: Vec<Record> = Vec::new();
    for i in 0..6u8 {
        for j in 0..6u8 {
            if i != j {
                log.push((i, j, i64::from(i) + i64::from(j), 1.0));
            }
        }
    }
    // Phase 2 (t in 100..): a sparse trickle on two pairs.
    for k in 0..8 {
        log.push((0, 1, 100 + k, 2.0));
        log.push((1, 2, 100 + k, 3.0));
    }
    let splits: Vec<usize> = (0..log.len()).step_by(4).collect();
    let mut tables = PathTables::build(&TemporalGraph::new(), &capped);
    let mut was_truncated = false;
    // Window 20: the dense phase expires as soon as the trickle arrives.
    let g = run_windowed(&log, &splits, 20, &mut tables, |g, t| {
        was_truncated |= t.truncated;
        let fresh = PathTables::build_serial(g, &capped);
        assert_eq!(t.truncated, fresh.truncated, "cap verdicts agree");
        if !t.truncated {
            assert_row_identical("cap boundary", t, &fresh);
        }
    });
    assert!(was_truncated, "the dense phase must actually trip the cap");
    assert!(
        !tables.truncated,
        "after the window slides past the dense phase the tables fit again"
    );
    assert!(
        g.live_edge_count() < g.edge_count(),
        "clique edges tombstoned"
    );
    assert_row_identical("final", &tables, &PathTables::build_serial(&g, &capped));
}

/// Arena-compaction regression under churn: a steady window over a long
/// eviction-heavy stream must keep the delivered-profile arena bounded —
/// garbage accounting triggers amortized compaction instead of growing
/// forever. Guards the `dead > live ⇒ compact` invariant end to end.
#[test]
fn steady_window_churn_keeps_the_arena_bounded() {
    let config = TablesConfig::default();
    let mut tables = PathTables::build(&TemporalGraph::new(), &config);
    // 600 records over a 6-vertex pool, times strictly increasing, window
    // 25: every batch both adds and evicts, cycling the same row groups.
    let log: Vec<Record> = (0..600u32)
        .map(|i| {
            (
                (i % 6) as u8,
                ((i % 6) as u8 + 1 + (i % 4) as u8) % 6,
                i64::from(i),
                1.0 + f64::from(i % 3),
            )
        })
        .filter(|(s, d, ..)| s != d)
        .collect();
    let splits: Vec<usize> = (0..log.len()).step_by(5).collect();
    let mut compactions = 0usize;
    let mut prev_arena = [0usize; 3];
    let mut peak_live = 0usize;
    let mut peak_arena = 0usize;
    run_windowed(&log, &splits, 25, &mut tables, |_, t| {
        for (k, table) in [&t.l2, &t.l3, &t.c2].into_iter().enumerate() {
            let arena = table.arena_len();
            let garbage = table.garbage_len();
            assert!(
                2 * garbage <= arena.max(1),
                "garbage ({garbage}) outweighs live data in a {arena}-entry arena: \
                 compaction failed to trigger"
            );
            compactions += usize::from(arena < prev_arena[k]);
            prev_arena[k] = arena;
            peak_live = peak_live.max(arena - garbage);
            peak_arena = peak_arena.max(arena);
        }
    });
    assert!(
        compactions > 0,
        "churn must trigger at least one compaction"
    );
    // Bounded steady state: the arena never exceeds twice the biggest live
    // footprint (the compaction threshold), so live-row bytes stay bounded.
    assert!(
        peak_arena <= 2 * peak_live,
        "arena peaked at {peak_arena} entries for {peak_live} live — unbounded growth"
    );
}
