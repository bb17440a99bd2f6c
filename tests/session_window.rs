//! A flow session replaying live windowed feeds: the resident network
//! simplex must give the exact maximum flow on every batch, repair each
//! batch in few warm pivots, and fall back to a cold solve only when its
//! dual repair runs over the work budget, never for any other reason.
//!
//! Each feed is a generated Bitcoin log written as CSV in timestamp order
//! (the order a live feed delivers it) and replayed through a
//! [`DeltaStream`] with a sliding window of half the log's time span, so
//! almost every batch both appends interactions and expires old ones.

use std::io::Write as _;
use tin_datasets::{generate_bitcoin, BitcoinConfig, DeltaStream, LoaderConfig};
use tin_flow::{build_mcf, FlowMethod, FlowSession};
use tin_graph::{NodeId, TemporalGraph};
use tin_lp::DUAL_REPAIR_BUDGET;

/// Records per delta batch.
const BATCH: usize = 4;

/// Generator seeds of the two feeds: the generator's default and another.
const SEEDS: [u64; 2] = [42, 7];

/// Upper bound on the warm pivots both feeds take together: 705 within the
/// repair budget, 891 when the long repairs the budget sends cold stay
/// warm (673 and 871 while the network simplex priced in blocks). Before
/// the budget this bound told the worst-first repair (870) from a worklist
/// drained last-in first-out (1,434). It no longer can: a last-in-first-out
/// drain reads 697 here, restarting cold 9 times against worst-first's 8
/// and abandoning 58 pivots against 50. `tin_lp`'s netflow test
/// `worst_first_repair_fits_the_budget_where_a_lifo_drain_does_not` pins
/// the order instead.
const MAX_WARM_PIVOTS: usize = 770;

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
            let solved = open.solve().unwrap();
            flow = solved.flow;
            // The budget is checked before each dual pivot, so a repair
            // overshoots it by at most one pivot's work: `2n` for the cut
            // it marks and clears, `m` for the arcs it reads. Without the
            // budget, seed 42's batch 62 repairs with 9,894 against 2,962.
            let problem = &open.formulation().problem;
            let (m, n) = (problem.num_arcs(), problem.num_nodes());
            let bound = DUAL_REPAIR_BUDGET * (m + n) + m + 2 * n;
            assert!(
                solved.repair_work <= bound,
                "seed {seed} batch {batch}: repair work {} over {bound} (m {m}, n {n})",
                solved.repair_work
            );
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
    assert_eq!(
        stats.fallback_cold, stats.budget_restarts,
        "seed {seed}: every fallback must be a budget restart: {stats:?}"
    );
    stats.warm_pivots
}

#[test]
fn windowed_feeds_restart_cold_only_past_the_repair_budget() {
    let warm_pivots: usize = SEEDS.into_iter().map(replay).sum();
    assert!(
        warm_pivots <= MAX_WARM_PIVOTS,
        "{warm_pivots} warm pivots, bound {MAX_WARM_PIVOTS}"
    );
}
