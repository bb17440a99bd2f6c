//! Property-based pinning of the sliding-window eviction path: folding a
//! record log into a [`TemporalGraph`] through windowed deltas (each
//! carrying the monotone frontier `newest seen - window`) must leave
//! exactly the graph a fresh build over the *surviving* records would
//! produce — same live node/edge sets keyed by vertex name, same merged
//! interaction sequences in chronological order — while every intermediate
//! state passes full validation and tombstoned edge identifiers are never
//! reused. This is the retraction-side twin of `delta_equivalence.rs`.
//!
//! Half the logs are feed-shaped (see [`records`]): their frontier keeps
//! moving, so a batch shrinks edges it did not touch. Counted with an
//! instrumented copy at the shim's fixed seed, the applications that
//! shrink such an edge are 10 of 183 in
//! `windowed_apply_equals_fresh_build_on_survivors` and 20 of 1,247 in
//! `batching_does_not_change_the_windowed_graph`, against 2 of 136 and 2
//! of 1,175 when every log drew its times uniformly; counting the
//! applications that shrink or tombstone such an edge, 45 and 200 against
//! 8 and 61.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use tin_graph::{EdgeId, GraphBuilder, Interaction, TemporalGraph};

/// A record log over a small vertex-name pool with duplicates, ties and
/// out-of-order arrivals all likely (self-loops excluded by construction),
/// from one of two families that a drawn flag picks.
///
/// * Uniform logs draw every time from `0..40` in random order, so the
///   frontier nears its final value within a few records.
/// * Feed-shaped logs advance as a live feed's do: each record comes 0–5
///   units after the newest time so far, so the frontier keeps moving and
///   a batch expires interactions of edges it does not touch. One record in
///   five is late instead, up to 19 units before the newest time (at least
///   0), which exercises stragglers behind the frontier.
fn records(max_len: usize) -> impl Strategy<Value = Vec<(u8, u8, i64, f64)>> {
    (
        any::<bool>(),
        proptest::collection::vec(
            (
                (0u8..7, 1u8..7, 0u32..9),
                (0i64..40, 0i64..6, 0u32..5, 0i64..20),
            ),
            0..max_len,
        ),
    )
        .prop_map(|(feed, raw)| {
            let mut newest = 0;
            raw.into_iter()
                .map(|((s, off, q), (uniform, step, late, back))| {
                    let t = if !feed {
                        uniform
                    } else if late == 0 {
                        (newest - back).max(0)
                    } else {
                        newest += step;
                        newest
                    };
                    (s, (s + off) % 7, t, q as f64)
                })
                .collect()
        })
}

/// The live content of a graph, keyed by vertex names so that graphs with
/// different identifier histories (revived pairs get fresh edge ids) compare
/// on what the paper cares about: which interactions each ordered vertex
/// pair carries, in chronological order.
fn live_content(g: &TemporalGraph) -> BTreeMap<(String, String), Vec<(i64, f64)>> {
    let mut content = BTreeMap::new();
    for e in g.edges() {
        if e.is_tombstone() {
            continue;
        }
        let key = (g.node(e.src).name.clone(), g.node(e.dst).name.clone());
        let seq: Vec<(i64, f64)> = e
            .interactions
            .iter()
            .map(|i| (i.time, i.quantity))
            .collect();
        assert!(
            content.insert(key, seq).is_none(),
            "at most one live edge per ordered vertex pair"
        );
    }
    content
}

/// Names of the vertices with at least one live incident edge.
fn live_names(g: &TemporalGraph) -> BTreeSet<String> {
    live_content(g)
        .into_keys()
        .flat_map(|(s, d)| [s, d])
        .collect()
}

/// Folds `records` into a graph through windowed deltas cut at `splits`,
/// attaching the frontier `newest staged timestamp - window` to every batch
/// (exactly what `DeltaStream::window` emits). Checks at every boundary that
/// the state validates and that no tombstoned edge id is ever reassigned.
/// Returns the graph and the final frontier.
fn build_windowed(
    records: &[(u8, u8, i64, f64)],
    splits: &[usize],
    window: i64,
) -> (TemporalGraph, Option<i64>) {
    let mut g = TemporalGraph::new();
    let mut b = GraphBuilder::new();
    let mut max_seen: Option<i64> = None;
    let mut ever_removed: HashSet<EdgeId> = HashSet::new();
    let mut frontier = None;
    let flush = |g: &mut TemporalGraph,
                 b: &mut GraphBuilder,
                 max_seen: Option<i64>,
                 ever_removed: &mut HashSet<EdgeId>,
                 frontier: &mut Option<i64>| {
        let mut delta = b.drain_delta();
        if let Some(newest) = max_seen {
            let f = newest.saturating_sub(window);
            delta = delta.expire_before(f);
            *frontier = Some(f);
        }
        let applied = g.apply(&delta).unwrap();
        g.validate().unwrap();
        for e in &applied.new_edges {
            assert!(
                !ever_removed.contains(e),
                "tombstoned edge id {e:?} was reused"
            );
        }
        ever_removed.extend(applied.removed_edges.iter().copied());
        for &e in &applied.removed_edges {
            assert!(g.is_tombstone(e));
        }
    };
    for (i, &(s, d, t, q)) in records.iter().enumerate() {
        if splits.contains(&i) {
            flush(&mut g, &mut b, max_seen, &mut ever_removed, &mut frontier);
        }
        let s = b.get_or_add_node(format!("v{s}"));
        let d = b.get_or_add_node(format!("v{d}"));
        b.add_interaction(s, d, Interaction::new(t, q)).unwrap();
        if max_seen.is_none_or(|m| t > m) {
            max_seen = Some(t);
        }
    }
    flush(&mut g, &mut b, max_seen, &mut ever_removed, &mut frontier);
    (g, frontier)
}

/// A fresh one-shot build over only the records at or after `frontier`.
fn build_surviving(records: &[(u8, u8, i64, f64)], frontier: Option<i64>) -> TemporalGraph {
    let mut b = GraphBuilder::new();
    for &(s, d, t, q) in records {
        if frontier.is_some_and(|f| t < f) {
            continue;
        }
        let s = b.get_or_add_node(format!("v{s}"));
        let d = b.get_or_add_node(format!("v{d}"));
        b.add_interaction(s, d, Interaction::new(t, q)).unwrap();
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Windowed delta application ≡ fresh build from the surviving records:
    /// identical live node/edge sets, merged quantities and chronological
    /// sequences — for any log, any batching, any window.
    #[test]
    fn windowed_apply_equals_fresh_build_on_survivors(
        records in records(50),
        splits in proptest::collection::vec(0usize..50, 0..8),
        window in 0i64..45,
    ) {
        let (g, frontier) = build_windowed(&records, &splits, window);
        let survivors = build_surviving(&records, frontier);
        prop_assert_eq!(live_content(&g), live_content(&survivors));
        prop_assert_eq!(live_names(&g), live_names(&survivors));
        prop_assert_eq!(g.interaction_count(), survivors.interaction_count());
        prop_assert_eq!(g.total_quantity(), survivors.total_quantity());
        prop_assert_eq!(g.min_time(), survivors.min_time());
        prop_assert_eq!(g.live_edge_count(), survivors.edge_count());
        prop_assert_eq!(g.live_node_count(), live_names(&survivors).len());
        // Vertices are never forgotten, only edges expire.
        prop_assert!(g.node_count() >= survivors.node_count());
    }

    /// A window larger than the whole log evicts nothing: the graph's live
    /// content is exactly the append-only build's.
    #[test]
    fn window_larger_than_the_log_changes_nothing(
        records in records(40),
        splits in proptest::collection::vec(0usize..40, 0..6),
    ) {
        let (g, _) = build_windowed(&records, &splits, 1_000);
        let plain = build_surviving(&records, None);
        prop_assert_eq!(live_content(&g), live_content(&plain));
        prop_assert_eq!(g.edge_count(), plain.edge_count(), "no tombstones at all");
    }

    /// Single-record batches — the most adversarial batching — agree with
    /// any coarser batching of the same windowed log.
    #[test]
    fn batching_does_not_change_the_windowed_graph(
        records in records(30),
        splits in proptest::collection::vec(0usize..30, 0..6),
        window in 0i64..45,
    ) {
        let per_record: Vec<usize> = (0..records.len()).collect();
        let (fine, f1) = build_windowed(&records, &per_record, window);
        let (coarse, f2) = build_windowed(&records, &splits, window);
        prop_assert_eq!(f1, f2);
        prop_assert_eq!(live_content(&fine), live_content(&coarse));
    }
}

/// JSON round-trips preserve the window state: the frontier and the
/// tombstone layout survive, the restored graph validates, and further
/// windowed deltas apply cleanly.
#[test]
fn windowed_graph_round_trips_through_json() {
    let log = [
        (0u8, 1u8, 1i64, 2.0f64),
        (1, 2, 3, 1.0),
        (2, 0, 5, 4.0),
        (0, 1, 9, 1.0),
    ];
    let (g, frontier) = build_windowed(&log, &[2], 4);
    assert!(frontier.is_some());
    assert!(g.edges().iter().any(|e| e.is_tombstone()));
    let mut back = tin_graph::io::from_json(&tin_graph::io::to_json(&g)).unwrap();
    assert_eq!(back.frontier(), g.frontier());
    assert_eq!(live_content(&back), live_content(&g));
    back.validate().unwrap();
    // The restored graph accepts further windowed deltas (the eviction heap
    // is rebuilt lazily on first use).
    let delta = tin_graph::GraphDelta::new(back.node_count(), vec![], vec![])
        .unwrap()
        .expire_before(100);
    back.apply(&delta).unwrap();
    back.validate().unwrap();
    assert_eq!(back.interaction_count(), 0);
}
