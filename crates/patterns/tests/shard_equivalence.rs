//! Property-based pinning of the shard-parallel pipeline: replaying a random
//! delta sequence — including windowed deltas carrying monotone expiry
//! frontiers — through a [`ShardedGraph`] of K vertex-partitioned shards
//! with [`ShardedTables`] maintained shard-locally must leave graph and
//! merged table view **row-identical** to the single-shard serial pipeline
//! ([`TemporalGraph`] + [`PathTables`]), for K ∈ {1, 2, 3, 7}, at every
//! batch boundary. The deltas fed to both pipelines are the same values, so
//! any divergence is the sharding layer's fault: routing, shard-local
//! interning, cross-shard edge placement, or the merge of per-shard rows.

use proptest::prelude::*;
use tin_graph::{GraphBuilder, Interaction, ShardedGraph, TemporalGraph};
use tin_patterns::{PathTables, ShardedTables, TablesConfig};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// A record log over a small vertex pool; destinations are generated as a
/// nonzero offset from the source so no record is a self-loop.
fn records(max_len: usize) -> impl Strategy<Value = Vec<(u8, u8, i64, f64)>> {
    proptest::collection::vec(
        (0u8..7, 1u8..7, 0i64..40, 0u32..9)
            .prop_map(|(s, off, t, q)| (s, (s + off) % 7, t, q as f64)),
        1..max_len,
    )
}

/// Replays `records` as deltas cut at `splits` (with the expiry frontier
/// `newest seen - window` when `window` is `Some`), applying each delta to
/// BOTH the serial pipeline and a K-shard pipeline, and hands every
/// post-apply boundary state to `check`.
fn run_both(
    records: &[(u8, u8, i64, f64)],
    splits: &[usize],
    window: Option<i64>,
    shards: usize,
    config: &TablesConfig,
    mut check: impl FnMut(&ShardedGraph, &ShardedTables, &TemporalGraph, &PathTables),
) {
    let mut serial_graph = TemporalGraph::new();
    let mut serial_tables = PathTables::build(&serial_graph, config);
    let mut sharded_graph = ShardedGraph::new(shards);
    let mut sharded_tables = ShardedTables::build(&sharded_graph, config, shards);
    let mut builder = GraphBuilder::new();
    let mut max_seen: Option<i64> = None;
    let flush = |builder: &mut GraphBuilder,
                 max_seen: Option<i64>,
                 serial_graph: &mut TemporalGraph,
                 serial_tables: &mut PathTables,
                 sharded_graph: &mut ShardedGraph,
                 sharded_tables: &mut ShardedTables| {
        let mut delta = builder.drain_delta();
        if let (Some(window), Some(newest)) = (window, max_seen) {
            delta = delta.expire_before(newest.saturating_sub(window));
        }
        let applied = serial_graph.apply(&delta).unwrap();
        serial_tables.apply(serial_graph, &applied);
        let applied = sharded_graph.apply(&delta).unwrap();
        sharded_tables.apply(sharded_graph, &applied);
    };
    for (i, &(s, d, t, q)) in records.iter().enumerate() {
        if splits.contains(&i) {
            flush(
                &mut builder,
                max_seen,
                &mut serial_graph,
                &mut serial_tables,
                &mut sharded_graph,
                &mut sharded_tables,
            );
            check(
                &sharded_graph,
                &sharded_tables,
                &serial_graph,
                &serial_tables,
            );
        }
        let s = builder.get_or_add_node(format!("v{s}"));
        let d = builder.get_or_add_node(format!("v{d}"));
        builder
            .add_interaction(s, d, Interaction::new(t, q))
            .unwrap();
        if max_seen.is_none_or(|m| t > m) {
            max_seen = Some(t);
        }
    }
    flush(
        &mut builder,
        max_seen,
        &mut serial_graph,
        &mut serial_tables,
        &mut sharded_graph,
        &mut sharded_tables,
    );
    check(
        &sharded_graph,
        &sharded_tables,
        &serial_graph,
        &serial_tables,
    );
}

fn assert_identical(
    label: &str,
    shards: usize,
    graph: &ShardedGraph,
    tables: &ShardedTables,
    serial_graph: &TemporalGraph,
    serial_tables: &PathTables,
) {
    if let Some(d) = graph.first_divergence(serial_graph) {
        panic!("{label} (K={shards}): sharded graph diverges from serial: {d}");
    }
    if let Some(d) = tables.first_row_divergence(serial_tables) {
        panic!("{label} (K={shards}): sharded tables diverge from serial: {d}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Append-only delta sequences: the K-shard pipeline lands on the same
    /// graph and merged table rows as the serial one, for every K.
    #[test]
    fn sharded_pipeline_matches_serial_append_only(
        records in records(50),
        splits in proptest::collection::vec(0usize..50, 0..8),
    ) {
        let config = TablesConfig::default();
        for shards in SHARD_COUNTS {
            run_both(&records, &splits, None, shards, &config, |g, t, sg, st| {
                assert_identical("append-only", shards, g, t, sg, st);
            });
        }
    }

    /// Windowed delta sequences with expiry frontiers: eviction routed
    /// through the shards (tombstones included) stays identical to serial
    /// eviction at every batch boundary.
    #[test]
    fn sharded_pipeline_matches_serial_with_expiry(
        records in records(40),
        step in 1usize..6,
        window in 0i64..45,
    ) {
        let splits: Vec<usize> = (0..40).step_by(step).collect();
        for config in [
            TablesConfig::default(),
            TablesConfig { build_c2: false, ..TablesConfig::default() },
        ] {
            for shards in SHARD_COUNTS {
                run_both(&records, &splits, Some(window), shards, &config, |g, t, sg, st| {
                    assert_identical("windowed", shards, g, t, sg, st);
                });
            }
        }
    }

    /// The row cap is enforced *per shard* (see the `sharded` module docs),
    /// so cap verdicts may legitimately differ from serial; the guaranteed
    /// contract is that whenever **neither** side has tripped its cap the
    /// rows are identical, and a shard can only trip when the serial build
    /// is over the cap too (one shard's rows are a subset of the total).
    #[test]
    fn capped_sharded_tables_agree_with_serial(
        records in records(40),
        splits in proptest::collection::vec(0usize..40, 0..6),
        cap in 8usize..60,
    ) {
        let config = TablesConfig { max_rows: cap, ..TablesConfig::default() };
        for shards in [2usize, 7] {
            run_both(&records, &splits, None, shards, &config, |g, t, sg, st| {
                if t.truncated() {
                    assert!(
                        st.truncated,
                        "a shard tripped the cap while the serial build fits (K={shards})"
                    );
                } else if !st.truncated {
                    assert_identical("capped", shards, g, t, sg, st);
                }
            });
        }
    }
}

/// More shards than vertices: five of the seven shards stay empty and the
/// pipeline must not care.
#[test]
fn more_shards_than_vertices() {
    let config = TablesConfig::default();
    let records: Vec<(u8, u8, i64, f64)> = (0..20u8)
        .map(|i| (i % 2, 1 - i % 2, i64::from(i), 1.0))
        .collect();
    let splits: Vec<usize> = (0..records.len()).step_by(3).collect();
    run_both(&records, &splits, Some(5), 7, &config, |g, t, sg, st| {
        assert_identical("tiny", 7, g, t, sg, st);
    });
}
