//! A flow session replaying live windowed feeds: the resident network
//! simplex must give the exact maximum flow on every batch, never fall back
//! to a cold solve, and repair each batch in few warm pivots.
//!
//! Each feed is a generated Bitcoin log written as CSV in timestamp order
//! (the order a live feed delivers it) and replayed through a
//! [`DeltaStream`] with a sliding window of half the log's time span, so
//! almost every batch both appends interactions and expires old ones.

use std::io::Write as _;
use tin_datasets::{generate_bitcoin, BitcoinConfig, DeltaStream, LoaderConfig};
use tin_flow::{build_mcf, FlowMethod, FlowSession};
use tin_graph::{NodeId, TemporalGraph};

/// Records per delta batch.
const BATCH: usize = 4;

/// Generator seeds of the two feeds: the generator's default and another.
const SEEDS: [u64; 2] = [42, 7];

/// Upper bound on the warm pivots both feeds take together. Dual repair
/// that pivots out the most-violated tree arc first needs 870; draining
/// the repair worklist last-in first-out needed 1,434, so a return to that
/// order fails here.
const MAX_WARM_PIVOTS: usize = 1_150;

/// The log as headered `sender,recipient,timestamp,amount` CSV, sorted by
/// timestamp (ties keep edge order).
fn feed_csv(graph: &TemporalGraph) -> Vec<u8> {
    let mut records: Vec<_> = graph
        .edges()
        .iter()
        .flat_map(|e| {
            e.interactions
                .iter()
                .map(move |i| (i.time, e.src, e.dst, i.quantity))
        })
        .collect();
    records.sort_by_key(|r| r.0);
    let mut out = b"sender,recipient,timestamp,amount\n".to_vec();
    for (time, src, dst, quantity) in records {
        let (src, dst) = (&graph.node(src).name, &graph.node(dst).name);
        writeln!(out, "{src},{dst},{time},{quantity}").unwrap();
    }
    out
}

/// Names of the vertex sending the most and of another vertex receiving
/// the most, over the whole log.
fn top_endpoints(graph: &TemporalGraph) -> (String, String) {
    let n = graph.node_count();
    let (mut sent, mut received) = (vec![0.0f64; n], vec![0.0f64; n]);
    for edge in graph.edges() {
        let volume: f64 = edge.interactions.iter().map(|i| i.quantity).sum();
        sent[edge.src.index()] += volume;
        received[edge.dst.index()] += volume;
    }
    let argmax = |xs: &[f64], skip: Option<usize>| {
        (0..n)
            .filter(|&i| Some(i) != skip)
            .max_by(|&a, &b| xs[a].total_cmp(&xs[b]).then(b.cmp(&a)))
            .unwrap()
    };
    let source = argmax(&sent, None);
    let sink = argmax(&received, Some(source));
    let name = |i| graph.node(NodeId::from_index(i)).name.clone();
    (name(source), name(sink))
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// Replays one feed and returns the session's warm pivots.
fn replay(seed: u64) -> usize {
    let log = generate_bitcoin(
        &BitcoinConfig {
            seed,
            ..BitcoinConfig::default()
        }
        .scaled(0.02),
    );
    let span = log.max_time().unwrap() - log.min_time().unwrap();
    let (source, sink) = top_endpoints(&log);
    let csv = feed_csv(&log);
    let mut stream = DeltaStream::new(csv.as_slice(), &LoaderConfig::default())
        .and_then(|s| s.window(span / 2))
        .unwrap();

    let mut graph = TemporalGraph::new();
    let mut session: Option<FlowSession> = None;
    let mut flow = 0.0;
    let mut batch = 0;
    while let Some(delta) = stream.next_delta(BATCH).unwrap() {
        let applied = graph.apply(&delta).unwrap();
        if let Some(open) = session.as_mut() {
            open.advance(&graph, &applied);
        } else if let (Some(s), Some(t)) = (graph.node_by_name(&source), graph.node_by_name(&sink))
        {
            session = Some(FlowSession::new(&graph, s, t, FlowMethod::Lp).unwrap());
        }
        if let Some(open) = session.as_mut() {
            flow = open.solve().unwrap().flow;
            let (cold, _) = build_mcf(&graph, open.source(), open.sink())
                .solve()
                .unwrap();
            assert!(
                close(flow, cold.flow),
                "seed {seed} batch {batch}: session {flow} != cold {}",
                cold.flow
            );
        }
        batch += 1;
    }

    let session = session.expect("both endpoints arrive");
    let dinic = tin_maxflow::time_expanded_max_flow(&graph, session.source(), session.sink());
    assert!(
        close(flow, dinic),
        "seed {seed}: session {flow} != time-expanded Dinic {dinic}"
    );
    let stats = session.stats();
    assert_eq!(stats.fallback_cold, 0, "seed {seed}: {stats:?}");
    stats.warm_pivots
}

#[test]
fn windowed_feeds_repair_worst_first_without_cold_restarts() {
    let warm_pivots: usize = SEEDS.into_iter().map(replay).sum();
    assert!(
        warm_pivots <= MAX_WARM_PIVOTS,
        "{warm_pivots} warm pivots, bound {MAX_WARM_PIVOTS}"
    );
}
