//! Property-based cross-checks of the flow machinery on randomized temporal
//! DAGs: the LP formulation, the time-expanded max-flow oracle, the greedy
//! scan, preprocessing and simplification must all relate to each other
//! exactly as the paper claims.

use proptest::prelude::*;
use temporal_flow::prelude::*;
use tin_flow::{build_mcf, compute_flow_with_engine, SimplexEngine};
use tin_graph::{GraphDelta, NodeId};

/// A randomly generated temporal DAG description: edges only go from lower
/// to higher vertex indices, which guarantees acyclicity by construction.
/// The flow endpoints are any pair `source < sink`, so the source can have
/// in-edges and the sink out-edges, and about half the graphs are windowed:
/// every interaction before `expire_before` is evicted, which tombstones the
/// edges it empties.
#[derive(Debug, Clone)]
struct RandomDag {
    nodes: usize,
    /// (src, dst, time, quantity) with src < dst.
    interactions: Vec<(usize, usize, i64, f64)>,
    source: usize,
    sink: usize,
    expire_before: Option<i64>,
}

/// Timestamps are drawn from `0..TIMES`.
const TIMES: i64 = 24;

fn random_dag(
    max_nodes: usize,
    max_interactions_per_edge: usize,
) -> impl Strategy<Value = RandomDag> {
    (3..=max_nodes).prop_flat_map(move |nodes| {
        // Candidate edges between ordered pairs.
        let pairs: Vec<(usize, usize)> = (0..nodes)
            .flat_map(|a| ((a + 1)..nodes).map(move |b| (a, b)))
            .collect();
        let per_edge =
            proptest::collection::vec((0..=max_interactions_per_edge, any::<u64>()), pairs.len());
        (per_edge, 0..nodes - 1, 0..nodes - 1, 0..2 * TIMES).prop_map(
            move |(specs, x, y, window)| {
                let mut interactions = Vec::new();
                for ((a, b), (count, seed)) in pairs.iter().zip(specs) {
                    // Derive deterministic pseudo-random times/quantities
                    // from the seed.
                    let mut state = seed | 1;
                    for _ in 0..count {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let time = (state >> 33) as i64 % TIMES;
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let quantity = (((state >> 33) % 9) + 1) as f64;
                        interactions.push((*a, *b, time, quantity));
                    }
                }
                RandomDag {
                    nodes,
                    interactions,
                    source: x.min(y),
                    sink: x.max(y) + 1,
                    expire_before: (window < TIMES).then_some(window),
                }
            },
        )
    })
}

fn build(dag: &RandomDag) -> (tin_graph::TemporalGraph, NodeId, NodeId) {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..dag.nodes)
        .map(|i| b.add_node(format!("v{i}")))
        .collect();
    for &(a, c, t, q) in &dag.interactions {
        b.add_interaction(ids[a], ids[c], Interaction::new(t, q))
            .unwrap();
    }
    let mut g = b.build();
    if let Some(frontier) = dag.expire_before {
        let window = tin_graph::GraphDelta::new(g.node_count(), vec![], vec![])
            .unwrap()
            .expire_before(frontier);
        g.apply(&window).unwrap();
    }
    (g, ids[dag.source], ids[dag.sink])
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// A permutation of `0..n` drawn from `seed` by Fisher–Yates.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    order
}

/// `dag` with vertex `v` renamed `order[v]` (a [`permutation`] drawn from
/// `seed`): edges may now run from higher to lower ids.
fn renamed(dag: &RandomDag, seed: u64) -> RandomDag {
    let order = permutation(dag.nodes, seed);
    RandomDag {
        interactions: dag
            .interactions
            .iter()
            .map(|&(a, c, time, q)| (order[a], order[c], time, q))
            .collect(),
        source: order[dag.source],
        sink: order[dag.sink],
        ..dag.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The greedy flow never exceeds the maximum flow, and both are finite
    /// and non-negative.
    #[test]
    fn greedy_is_a_lower_bound(dag in random_dag(7, 2)) {
        let (g, s, t) = build(&dag);
        let greedy = greedy_flow(&g, s, t).flow;
        let max = compute_flow(&g, s, t, FlowMethod::TimeExpanded).unwrap().flow;
        prop_assert!(greedy.is_finite() && greedy >= 0.0);
        prop_assert!(max.is_finite() && max >= 0.0);
        prop_assert!(greedy <= max + 1e-6, "greedy {greedy} > max {max}");
    }

    /// The LP formulation and the time-expanded static max-flow compute the
    /// same optimum (the Section 4.2.1 equivalence). The sparse revised
    /// simplex is held to the same bar on the paper's own LP: for `Lp`, `Pre`
    /// and `PreSim` it solves `build_lp` of the whole or the reduced graph.
    #[test]
    fn lp_equals_time_expanded(dag in random_dag(6, 2)) {
        let (g, s, t) = build(&dag);
        let lp = compute_flow(&g, s, t, FlowMethod::Lp).unwrap().flow;
        let te = compute_flow(&g, s, t, FlowMethod::TimeExpanded).unwrap().flow;
        prop_assert!(close(lp, te), "LP {lp} vs time-expanded {te}");
        for method in [FlowMethod::Lp, FlowMethod::Pre, FlowMethod::PreSim] {
            let sparse = compute_flow_with_engine(&g, s, t, method, SimplexEngine::SparseRevised)
                .unwrap()
                .flow;
            prop_assert!(close(sparse, te), "sparse {method} {sparse} vs time-expanded {te}");
        }
    }

    /// `Pre` and `PreSim` are exact: they agree with the plain LP baseline.
    #[test]
    fn pre_and_presim_are_exact(dag in random_dag(6, 2)) {
        let (g, s, t) = build(&dag);
        let lp = compute_flow(&g, s, t, FlowMethod::Lp).unwrap().flow;
        let pre = compute_flow(&g, s, t, FlowMethod::Pre).unwrap().flow;
        let presim = compute_flow(&g, s, t, FlowMethod::PreSim).unwrap().flow;
        prop_assert!(close(lp, pre), "LP {lp} vs Pre {pre}");
        prop_assert!(close(lp, presim), "LP {lp} vs PreSim {presim}");
    }

    /// Renaming the vertices changes no answer (the renaming relation). The
    /// random DAGs have edges from lower to higher ids only, so their ids
    /// are a topological order; renamed, the order the flat DAG computes
    /// for `Pre` and `PreSim` is not the identity. Each method returns the
    /// unrenamed value within 1e-9 relative, with the same class and the
    /// same preprocessing report.
    #[test]
    fn vertex_renaming_changes_no_answer(dag in random_dag(7, 2), seed in any::<u64>()) {
        let (g, s, t) = build(&dag);
        let (h, hs, ht) = build(&renamed(&dag, seed));
        for method in [FlowMethod::PreSim, FlowMethod::Pre, FlowMethod::Lp] {
            let a = compute_flow(&g, s, t, method).unwrap();
            let b = compute_flow(&h, hs, ht, method).unwrap();
            prop_assert!(
                (a.flow - b.flow).abs() <= 1e-9 * a.flow.abs().max(b.flow.abs()),
                "{method}: {} renamed to {}", a.flow, b.flow
            );
            prop_assert_eq!(a.class, b.class, "{}", method);
            prop_assert_eq!(a.stats.preprocess, b.stats.preprocess, "{}", method);
        }
    }

    /// Preprocessing never increases the problem size and never changes the
    /// maximum flow.
    #[test]
    fn preprocessing_preserves_the_maximum(dag in random_dag(7, 2)) {
        let (g, s, t) = build(&dag);
        let before = compute_flow(&g, s, t, FlowMethod::TimeExpanded).unwrap().flow;
        let out = preprocess(&g, s, t).unwrap();
        prop_assert!(out.graph.interaction_count() <= g.interaction_count());
        let after = match (out.source, out.sink) {
            (Some(ns), Some(nt)) if !out.is_zero_flow() => {
                compute_flow(&out.graph, ns, nt, FlowMethod::TimeExpanded).unwrap().flow
            }
            _ => 0.0,
        };
        prop_assert!(close(before, after), "before {before} vs after {after}");
    }

    /// Simplification preserves the maximum flow and never increases the
    /// number of non-source interactions (the LP variable count).
    #[test]
    fn simplification_preserves_the_maximum(dag in random_dag(7, 2)) {
        let (g, s, t) = build(&dag);
        let before = compute_flow(&g, s, t, FlowMethod::TimeExpanded).unwrap().flow;
        let out = simplify(&g, s, t);
        let after = compute_flow(&out.graph, out.source, out.sink, FlowMethod::TimeExpanded)
            .unwrap()
            .flow;
        prop_assert!(close(before, after), "before {before} vs after {after}");
        let vars = |g: &tin_graph::TemporalGraph, source: NodeId| -> usize {
            g.edges().iter().filter(|e| e.src != source).map(|e| e.interactions.len()).sum()
        };
        prop_assert!(vars(&out.graph, out.source) <= vars(&g, s));
    }

    /// On Lemma 2 graphs the greedy scan is exact.
    #[test]
    fn lemma2_graphs_are_greedy_exact(dag in random_dag(7, 2)) {
        let (g, s, t) = build(&dag);
        if is_greedy_soluble(&g, s, t) {
            let greedy = greedy_flow(&g, s, t).flow;
            let max = compute_flow(&g, s, t, FlowMethod::TimeExpanded).unwrap().flow;
            prop_assert!(close(greedy, max), "greedy {greedy} vs max {max}");
        }
    }

    /// The greedy trace conserves flow at every intermediate vertex.
    #[test]
    fn greedy_trace_conserves_flow(dag in random_dag(7, 3)) {
        let (g, s, t) = build(&dag);
        let result = tin_flow::greedy_flow_traced(&g, s, t);
        let mut balance = vec![0.0f64; g.node_count()];
        for step in &result.trace {
            balance[step.src.index()] -= step.transferred;
            balance[step.dst.index()] += step.transferred;
            prop_assert!(step.transferred >= 0.0);
            prop_assert!(step.transferred <= step.requested + 1e-9);
        }
        for v in g.node_ids() {
            if v == s {
                continue;
            }
            prop_assert!(balance[v.index()] >= -1e-9, "vertex {v} sent more than it received");
            prop_assert!(close(balance[v.index()], result.buffers[v.index()]));
        }
        prop_assert!(close(result.buffers[t.index()], result.flow));
    }
}

/// A temporal DAG fed in time order ([`replay_stream`]): the interactions
/// before `STREAM_TIMES / 2` form the opening graph, and each later sixth
/// of the time range arrives as one batch that also slides a half-range
/// expiry window forward. With 60–2,000 interactions the circulations
/// solved have about 200–2,700 arcs and nodes, so a pivot re-hangs
/// subtrees of dozens of nodes and the pricing queue holds many candidates
/// at once.
#[derive(Debug, Clone)]
struct RandomStream {
    nodes: usize,
    /// (src, dst, time, quantity), with src < dst unless renamed.
    interactions: Vec<(usize, usize, i64, f64)>,
    source: usize,
    sink: usize,
}

/// Timestamps of a [`RandomStream`] are drawn from `0..STREAM_TIMES`.
const STREAM_TIMES: i64 = 96;

fn random_stream() -> impl Strategy<Value = RandomStream> {
    (8..=40usize, 60..=2_000usize, any::<u64>()).prop_map(|(nodes, count, seed)| {
        let mut state = seed | 1;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let source = next(nodes as u64 / 2) as usize;
        let sink = nodes - 1 - next(nodes as u64 / 2) as usize;
        let interactions = (0..count)
            .map(|_| {
                let a = next(nodes as u64 - 1) as usize;
                let b = a + 1 + next((nodes - a - 1) as u64) as usize;
                let time = next(STREAM_TIMES as u64) as i64;
                (a, b, time, (next(9) + 1) as f64)
            })
            .collect();
        RandomStream {
            nodes,
            interactions,
            source,
            sink,
        }
    })
}

/// `stream` with vertex `v` renamed `order[v]` (a [`permutation`] drawn
/// from `seed`).
fn renamed_stream(stream: &RandomStream, seed: u64) -> RandomStream {
    let order = permutation(stream.nodes, seed);
    RandomStream {
        interactions: stream
            .interactions
            .iter()
            .map(|&(a, c, time, q)| (order[a], order[c], time, q))
            .collect(),
        source: order[stream.source],
        sink: order[stream.sink],
        ..stream.clone()
    }
}

/// Feeds `stream` to a resident [`FlowSession`]: the opening graph, then
/// three batches. After the opening and after each batch, `check` gets the
/// batch index, the graph, its flow endpoints and the session's flow.
/// Returns the session.
fn replay_stream(
    stream: &RandomStream,
    mut check: impl FnMut(i64, &tin_graph::TemporalGraph, NodeId, NodeId, f64),
) -> FlowSession {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..stream.nodes)
        .map(|i| b.add_node(format!("v{i}")))
        .collect();
    let (s, t) = (ids[stream.source], ids[stream.sink]);
    let at = |lo: i64, hi: i64| -> Vec<(NodeId, NodeId, Interaction)> {
        stream
            .interactions
            .iter()
            .filter(|&&(_, _, time, _)| lo <= time && time < hi)
            .map(|&(a, b, time, q)| (ids[a], ids[b], Interaction::new(time, q)))
            .collect()
    };
    for (a, c, i) in at(0, STREAM_TIMES / 2) {
        b.add_interaction(a, c, i).unwrap();
    }
    let mut g = b.build();
    let mut session = FlowSession::new(&g, s, t, FlowMethod::Lp).unwrap();
    for batch in 0..4 {
        if batch > 0 {
            let lo = STREAM_TIMES / 2 + (batch - 1) * STREAM_TIMES / 6;
            let delta = GraphDelta::new(g.node_count(), vec![], at(lo, lo + STREAM_TIMES / 6))
                .unwrap()
                .expire_before(lo - STREAM_TIMES / 2);
            let applied = g.apply(&delta).unwrap();
            session.advance(&g, &applied);
        }
        let warm = session.solve().unwrap().flow;
        check(batch, &g, s, t, warm);
    }
    session
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// On circulations large enough for the pricing queue to hold many
    /// candidates, the cold network simplex, a resident session patched
    /// batch by batch and the time-expanded Dinic (no simplex) compute the
    /// same maximum flow after every batch. Half of the 72 incremental
    /// solves (36) run the dual repair over its work budget and restart
    /// cold (none did before the budget), so this also holds the
    /// warm-to-cold switch to Dinic.
    #[test]
    fn large_circulations_agree_across_cold_session_and_dinic(stream in random_stream()) {
        let session = replay_stream(&stream, |batch, g, s, t, warm| {
            let f = build_mcf(g, s, t);
            let solution = f.problem.solve();
            assert!(solution.is_optimal());
            let cold = solution.flows[f.return_arc];
            let dinic = compute_flow(g, s, t, FlowMethod::TimeExpanded).unwrap().flow;
            assert!(close(cold, dinic), "batch {batch}: cold {cold} vs Dinic {dinic}");
            assert!(close(warm, dinic), "batch {batch}: session {warm} vs Dinic {dinic}");
        });
        // The first batch expires nothing, so no compaction can restart the
        // engine before it.
        prop_assert!(session.stats().basis_hits > 0);
    }

    /// Renaming a stream's vertices changes no answer (the renaming
    /// relation, streamed). `emit` then writes the same circulations with
    /// nodes and arcs in another order, so the network simplex seeds and
    /// drains its pricing queue, whose order follows arc ids, in another
    /// order and takes another path. After the opening and every batch,
    /// the resident session, `maximum_flow` and `FlowMethod::Lp` return the
    /// unrenamed values within 1e-9 relative.
    #[test]
    fn vertex_renaming_changes_no_streamed_answer(stream in random_stream(), seed in any::<u64>()) {
        let values = |stream: &RandomStream| {
            let mut values = Vec::new();
            replay_stream(stream, |_, g, s, t, warm| {
                let max = maximum_flow(g, s, t).unwrap().flow;
                let lp = compute_flow(g, s, t, FlowMethod::Lp).unwrap().flow;
                values.push([warm, max, lp]);
            });
            values
        };
        let (before, after) = (values(&stream), values(&renamed_stream(&stream, seed)));
        for (batch, (a, b)) in before.iter().zip(&after).enumerate() {
            for (name, x, y) in [("session", a[0], b[0]), ("maximum_flow", a[1], b[1]), ("Lp", a[2], b[2])] {
                prop_assert!(
                    (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
                    "batch {batch}, {name}: {x} renamed to {y}"
                );
            }
        }
    }
}

/// Chain graphs: the maximum flow equals the greedy flow and is bounded by
/// every edge's total quantity (deterministic, not property-based, but kept
/// here with the other invariants).
#[test]
fn chain_flow_is_bounded_by_every_edge() {
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..5).map(|i| b.add_node(format!("v{i}"))).collect();
    b.add_pairs(ids[0], ids[1], &[(1, 5.0), (4, 7.0)]).unwrap();
    b.add_pairs(ids[1], ids[2], &[(2, 3.0), (5, 6.0)]).unwrap();
    b.add_pairs(ids[2], ids[3], &[(3, 2.0), (6, 8.0)]).unwrap();
    b.add_pairs(ids[3], ids[4], &[(7, 20.0)]).unwrap();
    let g = b.build();
    let max = maximum_flow(&g, ids[0], ids[4]).unwrap().flow;
    let greedy = greedy_flow(&g, ids[0], ids[4]).flow;
    assert!((max - greedy).abs() < 1e-9);
    for e in g.edges() {
        assert!(max <= e.total_quantity() + 1e-9);
    }
}
