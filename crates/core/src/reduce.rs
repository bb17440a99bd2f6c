//! The flat flow DAG that Algorithms 1 and 2 reduce in place.
//!
//! [`FlatDag`] is built once from the input graph and then carried through
//! the whole `Pre`/`PreSim` pipeline: preprocessing (Algorithm 1), the
//! Lemma 2 test, simplification (Algorithm 2), the Lemma 2 test again, and
//! finally the exact leg, which emits the time-expanded circulation
//! straight from the reduced DAG. No intermediate [`TemporalGraph`] is
//! built on that path.
//!
//! * Edges live in one table, numbered in `(src, dst)` order, so the
//!   out-edges of a vertex are a contiguous range sorted by destination (a
//!   CSR list). Tombstoned slots of a windowed input are skipped.
//! * Every edge borrows its interaction slice from the input graph.
//!   Algorithm 1 trims an edge by re-slicing it; only the edges that chain
//!   contraction creates or merges own their interactions.
//! * Removal flips alive bits and updates the in/out degree counters, which
//!   the Lemma 2 test and the chain search read.
//! * Contraction creates edges only out of the source. Those are reached
//!   through `from_source`, the source's out-list indexed by destination.
//! * No in-lists: Algorithm 1 carries each vertex's earliest arrival forward
//!   in topological order and runs its upstream cascade as one backward
//!   pass, and Algorithm 2 needs only the in-degree counters.
//!
//! Every order that decides an answer is the one a graph built from the
//! reduced DAG would have: live edges in `(src, dst)` order (the edge-id
//! order of that graph, which greedy uses to break timestamp ties and the
//! emitter to number arcs), chain starts in ascending vertex order.

use crate::greedy::{scan, GreedyScratch};
use crate::lp_formulation::{build_mcf_inner, McfFormulation};
use crate::preprocess::PreprocessReport;
use crate::simplify::SimplifyReport;
use std::borrow::Cow;
use tin_graph::interaction::merge_sorted;
use tin_graph::{Edge, EdgeId, EventRef, Interaction, NodeId, Quantity, TemporalGraph, Time};

/// "No edge" in `from_source`.
const NONE: u32 = u32::MAX;

#[derive(Debug)]
struct FlatEdge<'g> {
    src: u32,
    dst: u32,
    alive: bool,
    /// Chronologically sorted; never empty while the edge is alive.
    interactions: Cow<'g, [Interaction]>,
}

/// A flow DAG with designated endpoints, reduced in place by Algorithms 1
/// and 2 (see the module documentation).
#[derive(Debug)]
pub(crate) struct FlatDag<'g> {
    graph: &'g TemporalGraph,
    source: usize,
    sink: usize,
    edges: Vec<FlatEdge<'g>>,
    /// Original out-edges of `v`: `out_start[v]..out_start[v + 1]`.
    out_start: Vec<u32>,
    /// The live edge `(source, v)` for every `v`, or [`NONE`].
    from_source: Vec<u32>,
    alive: Vec<bool>,
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    /// Reused buffer of greedy events.
    events: Vec<EventRef>,
}

impl<'g> FlatDag<'g> {
    /// Builds the flat DAG of the live part of `graph`.
    pub(crate) fn new(graph: &'g TemporalGraph, source: NodeId, sink: NodeId) -> Self {
        let n = graph.node_count();
        let mut order: Vec<(u32, u32, u32)> = graph
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.is_tombstone())
            .map(|(i, e)| (e.src.0, e.dst.0, i as u32))
            .collect();
        order.sort_unstable();

        let mut out_deg = vec![0u32; n];
        let mut in_deg = vec![0u32; n];
        let mut from_source = vec![NONE; n];
        let edges: Vec<FlatEdge<'g>> = order
            .iter()
            .enumerate()
            .map(|(id, &(src, dst, slot))| {
                out_deg[src as usize] += 1;
                in_deg[dst as usize] += 1;
                if src as usize == source.index() {
                    from_source[dst as usize] = id as u32;
                }
                FlatEdge {
                    src,
                    dst,
                    alive: true,
                    interactions: Cow::Borrowed(&graph.edge(EdgeId(slot)).interactions),
                }
            })
            .collect();

        let mut out_start = Vec::with_capacity(n + 1);
        out_start.push(0u32);
        for &d in &out_deg {
            out_start.push(out_start[out_start.len() - 1] + d);
        }

        FlatDag {
            graph,
            source: source.index(),
            sink: sink.index(),
            edges,
            out_start,
            from_source,
            alive: vec![true; n],
            out_deg,
            in_deg,
            events: Vec::new(),
        }
    }

    /// Live edges among the original out-edges of `v` (for `v` other than
    /// the source, these are all of its live out-edges).
    fn out_edges(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        (self.out_start[v] as usize..self.out_start[v + 1] as usize)
            .filter(|&e| self.edges[e].alive)
    }

    /// Ids of the live edges in `(src, dst)` order.
    fn live_edges(&self) -> Vec<usize> {
        let mut ids = Vec::with_capacity(self.edges.len());
        for v in 0..self.alive.len() {
            if v == self.source {
                ids.extend(
                    self.from_source
                        .iter()
                        .filter(|&&e| e != NONE)
                        .map(|&e| e as usize),
                );
            } else {
                ids.extend(self.out_edges(v));
            }
        }
        ids
    }

    fn kill_edge(&mut self, e: usize) {
        let edge = &mut self.edges[e];
        debug_assert!(edge.alive, "edge {e} killed twice");
        edge.alive = false;
        let (src, dst) = (edge.src as usize, edge.dst as usize);
        self.out_deg[src] -= 1;
        self.in_deg[dst] -= 1;
        if src == self.source {
            self.from_source[dst] = NONE;
        }
    }

    fn live_node_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    fn live_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.alive).count()
    }

    fn live_interaction_count(&self) -> usize {
        self.edges
            .iter()
            .filter(|e| e.alive)
            .map(|e| e.interactions.len())
            .sum()
    }

    /// `true` when the reductions proved the maximum flow is 0: nothing
    /// leaves the source or nothing enters the sink.
    pub(crate) fn is_zero_flow(&self) -> bool {
        self.out_deg[self.source] == 0 || self.in_deg[self.sink] == 0
    }

    /// The Lemma 2 test ([`crate::is_greedy_soluble`]) on the live part:
    /// every live vertex other than the endpoints has one out-edge.
    pub(crate) fn is_greedy_soluble(&self) -> bool {
        (0..self.alive.len())
            .all(|v| !self.alive[v] || v == self.source || v == self.sink || self.out_deg[v] == 1)
    }

    /// The greedy flow of the live part: the events of the live edges in
    /// `(src, dst)` order, sorted stably by time.
    pub(crate) fn greedy_flow(&mut self, scratch: &mut GreedyScratch) -> Quantity {
        let ids = self.live_edges();
        self.events.clear();
        for (rank, &e) in ids.iter().enumerate() {
            push_events(&mut self.events, rank, &self.edges[e]);
        }
        self.events.sort_by_key(|ev| ev.time);
        let n = self.alive.len();
        scan(&self.events, n, self.source, self.sink, scratch, |_, _| {})
    }

    /// The time-expanded circulation of the live part — arc for arc what
    /// [`crate::build_mcf`] emits for the graph [`FlatDag::into_graph`]
    /// builds.
    pub(crate) fn build_mcf(&self) -> McfFormulation {
        let ids = self.live_edges();
        let edges = ids.iter().map(|&e| {
            let edge = &self.edges[e];
            (edge.src as usize, edge.dst as usize, &edge.interactions[..])
        });
        build_mcf_inner(self.alive.len(), edges, self.source, self.sink, false)
    }

    /// Builds the live part as a graph: live vertices renumbered densely in
    /// index order (keeping their names), live edges in `(src, dst)` order.
    /// Returns the graph and the new ids of the source and the sink, which
    /// never die.
    pub(crate) fn into_graph(mut self) -> (TemporalGraph, NodeId, NodeId) {
        let mut new_id = vec![NONE; self.alive.len()];
        let mut nodes = Vec::with_capacity(self.live_node_count());
        for (v, id) in new_id.iter_mut().enumerate() {
            if self.alive[v] {
                *id = nodes.len() as u32;
                nodes.push(self.graph.node(NodeId::from_index(v)).clone());
            }
        }
        let edges = self
            .live_edges()
            .into_iter()
            .map(|e| {
                let edge = &mut self.edges[e];
                Edge {
                    src: NodeId(new_id[edge.src as usize]),
                    dst: NodeId(new_id[edge.dst as usize]),
                    interactions: std::mem::take(&mut edge.interactions).into_owned(),
                }
            })
            .collect();
        let graph = TemporalGraph::from_stored_parts(nodes, edges, None)
            .expect("the live part of a valid graph is a valid graph");
        let source = NodeId(new_id[self.source]);
        let sink = NodeId(new_id[self.sink]);
        (graph, source, sink)
    }

    /// Algorithm 1 (see [`crate::preprocess`]): visits the vertices in
    /// `order`, a topological order of the input graph.
    pub(crate) fn preprocess(&mut self, order: &[NodeId]) -> PreprocessReport {
        let mut report = PreprocessReport::default();
        // The earliest arrival at each vertex over the in-edges that survived
        // their tail's visit; in topological order a vertex's in-edges are
        // final by the time it is visited.
        let mut first_arrival = vec![Time::MAX; self.alive.len()];
        for v in order.iter().map(|v| v.index()) {
            let (a, b) = (self.out_start[v] as usize, self.out_start[v + 1] as usize);
            if v != self.source && v != self.sink {
                if self.in_deg[v] == 0 {
                    // Nothing can ever reach v: remove it together with its
                    // outgoing edges.
                    report.edges_removed += self.out_deg[v] as usize;
                    report.nodes_removed += 1;
                    for e in a..b {
                        self.kill_edge(e);
                    }
                    self.alive[v] = false;
                    continue;
                }
                // Trim interactions that precede any possible arrival.
                for e in a..b {
                    let edge = &mut self.edges[e];
                    let keep_from = edge
                        .interactions
                        .partition_point(|i| i.time < first_arrival[v]);
                    report.interactions_removed += keep_from;
                    if keep_from == edge.interactions.len() {
                        self.kill_edge(e);
                        report.edges_removed += 1;
                    } else if keep_from > 0 {
                        match &mut edge.interactions {
                            Cow::Borrowed(slice) => *slice = &slice[keep_from..],
                            Cow::Owned(list) => drop(list.drain(..keep_from)),
                        }
                    }
                }
            }
            for e in a..b {
                let edge = &self.edges[e];
                if edge.alive {
                    let arrival = &mut first_arrival[edge.dst as usize];
                    *arrival = (*arrival).min(edge.interactions[0].time);
                }
            }
        }
        // Upstream removal: a vertex no flow can leave goes, and its
        // predecessors lose an out-edge. Visiting in reverse topological
        // order settles every successor first, so one pass reaches the
        // fixpoint an immediate cascade would. It stops at both endpoints:
        // the sink absorbs what arrives, whatever happens to its out-edges.
        for v in order.iter().rev().map(|v| v.index()) {
            if !self.alive[v] {
                continue;
            }
            for e in self.out_start[v] as usize..self.out_start[v + 1] as usize {
                if self.edges[e].alive && !self.alive[self.edges[e].dst as usize] {
                    self.kill_edge(e);
                    report.edges_removed += 1;
                }
            }
            if v != self.source && v != self.sink && self.out_deg[v] == 0 {
                self.alive[v] = false;
                report.nodes_removed += 1;
            }
        }
        report.interactions_remaining = self.live_interaction_count();
        report.edges_remaining = self.live_edge_count();
        report.nodes_remaining = self.live_node_count();
        report
    }

    /// Whether `v` starts a contractible chain: a live successor of the
    /// source whose only in-edge comes from the source and which has one
    /// out-edge.
    fn is_chain_start(&self, v: usize) -> bool {
        v != self.sink
            && v != self.source
            && self.from_source[v] != NONE
            && self.in_deg[v] == 1
            && self.out_deg[v] == 1
    }

    /// Algorithm 2 (see [`crate::simplify`]): contracts source-rooted
    /// chains, smallest start vertex first, until none is left.
    pub(crate) fn simplify(&mut self, scratch: &mut GreedyScratch) -> SimplifyReport {
        let mut report = SimplifyReport {
            interactions_before: self.live_interaction_count(),
            edges_before: self.live_edge_count(),
            ..SimplifyReport::default()
        };
        // Every vertex below `cursor` except `pending` is not a chain start.
        // A contraction changes the degrees of its terminal only, so the
        // terminal is the one vertex behind the cursor that can turn into
        // a chain start.
        let n = self.alive.len();
        let mut cursor = 0;
        let mut pending = None;
        let mut chain = Vec::new();
        loop {
            let v1 = match pending.take() {
                Some(v) => v,
                None => {
                    while cursor < n && !self.is_chain_start(cursor) {
                        cursor += 1;
                    }
                    if cursor == n {
                        break;
                    }
                    cursor += 1;
                    cursor - 1
                }
            };
            if let Some(terminal) = self.contract_chain(v1, &mut chain, scratch, &mut report) {
                if terminal < cursor && self.is_chain_start(terminal) {
                    pending = Some(terminal);
                }
            }
        }
        report.interactions_after = self.live_interaction_count();
        report.edges_after = self.live_edge_count();
        report
    }

    /// Contracts the chain starting at `v1` into the edge `(source,
    /// terminal)` and returns the terminal. A chain leading back to the
    /// source (only possible in a cyclic graph) is left alone.
    fn contract_chain(
        &mut self,
        v1: usize,
        chain: &mut Vec<usize>,
        scratch: &mut GreedyScratch,
        report: &mut SimplifyReport,
    ) -> Option<usize> {
        chain.clear();
        chain.push(self.from_source[v1] as usize);
        let mut current = v1;
        let terminal = loop {
            let e = self
                .out_edges(current)
                .next()
                .expect("a chain vertex has one out-edge");
            chain.push(e);
            let next = self.edges[e].dst as usize;
            if next == self.sink
                || next == self.source
                || self.in_deg[next] != 1
                || self.out_deg[next] != 1
            {
                break next;
            }
            current = next;
        };
        if terminal == self.source {
            return None;
        }

        // Greedy replay over the chain alone: the positive transfers into
        // the terminal are the contracted edge's interactions.
        self.events.clear();
        for (pos, &e) in chain.iter().enumerate() {
            push_events(&mut self.events, pos, &self.edges[e]);
        }
        self.events.sort_by_key(|ev| ev.time);
        let mut contracted = Vec::new();
        let n = self.alive.len();
        scan(
            &self.events,
            n,
            self.source,
            terminal,
            scratch,
            |ev, moved| {
                if ev.dst.index() == terminal && moved > 0.0 {
                    contracted.push(Interaction::new(ev.time, moved));
                }
            },
        );

        for &e in chain.iter() {
            self.kill_edge(e);
        }
        for &e in &chain[..chain.len() - 1] {
            self.alive[self.edges[e].dst as usize] = false;
            report.nodes_removed += 1;
        }
        if !contracted.is_empty() {
            // Tied transfers can come out in decreasing quantity.
            contracted.sort_by(Interaction::chronological_cmp);
            match self.from_source[terminal] {
                NONE => {
                    self.from_source[terminal] = self.edges.len() as u32;
                    self.edges.push(FlatEdge {
                        src: self.source as u32,
                        dst: terminal as u32,
                        alive: true,
                        interactions: Cow::Owned(contracted),
                    });
                    self.out_deg[self.source] += 1;
                    self.in_deg[terminal] += 1;
                }
                e => {
                    let edge = &mut self.edges[e as usize];
                    edge.interactions = Cow::Owned(merge_sorted(&edge.interactions, &contracted));
                }
            }
        }
        report.chains_contracted += 1;
        Some(terminal)
    }
}

/// Appends the events of `edge`, tagged with `rank` as their edge id.
fn push_events(events: &mut Vec<EventRef>, rank: usize, edge: &FlatEdge<'_>) {
    events.extend(
        edge.interactions
            .iter()
            .enumerate()
            .map(|(index, i)| EventRef {
                edge: EdgeId::from_index(rank),
                index,
                src: NodeId(edge.src),
                dst: NodeId(edge.dst),
                time: i.time,
                quantity: i.quantity,
            }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_flow;
    use crate::lp_formulation::build_mcf;
    use crate::solubility::is_greedy_soluble;
    use tin_graph::{topological_order, GraphBuilder, GraphDelta};

    /// A small random DAG (edges from lower to higher index) with random
    /// endpoints `source < sink`; every other graph is windowed, so some
    /// edge slots are tombstones.
    fn random_graph(seed: u64) -> (TemporalGraph, NodeId, NodeId) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let n = 3 + next(6) as usize;
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(format!("v{i}"))).collect();
        for a in 0..n {
            for c in a + 1..n {
                for _ in 0..next(3) {
                    let (time, quantity) = (next(24) as i64, (next(9) + 1) as f64);
                    b.add_pairs(ids[a], ids[c], &[(time, quantity)]).unwrap();
                }
            }
        }
        let (x, y) = (next(n as u64 - 1) as usize, next(n as u64 - 1) as usize);
        let mut g = b.build();
        if seed % 2 == 1 {
            let window = GraphDelta::new(n, vec![], vec![])
                .unwrap()
                .expire_before(next(24) as i64);
            g.apply(&window).unwrap();
        }
        (g, ids[x.min(y)], ids[x.max(y) + 1])
    }

    /// An edge `(src, dst)` with its `(time, quantity)` pairs.
    type PairsEdge = (usize, usize, &'static [(i64, f64)]);

    /// Figures 3, 6(a) and 7(a) of the paper.
    fn figures() -> Vec<(TemporalGraph, NodeId, NodeId)> {
        let build = |names: &[&str], edges: &[PairsEdge]| {
            let mut b = GraphBuilder::new();
            let ids: Vec<NodeId> = names.iter().map(|&name| b.add_node(name)).collect();
            for &(u, v, pairs) in edges {
                b.add_pairs(ids[u], ids[v], pairs).unwrap();
            }
            (b.build(), ids[0], ids[names.len() - 1])
        };
        vec![
            build(
                &["s", "y", "z", "t"],
                &[
                    (0, 1, &[(1, 5.0)]),
                    (0, 2, &[(2, 3.0)]),
                    (1, 2, &[(3, 5.0)]),
                    (1, 3, &[(4, 4.0)]),
                    (2, 3, &[(5, 1.0)]),
                ],
            ),
            build(
                &["s", "x", "y", "z", "t"],
                &[
                    (0, 1, &[(5, 3.0), (8, 3.0)]),
                    (0, 3, &[(10, 5.0)]),
                    (1, 2, &[(2, 7.0), (12, 4.0)]),
                    (1, 3, &[(1, 2.0), (13, 1.0)]),
                    (2, 4, &[(3, 3.0), (15, 2.0)]),
                    (3, 4, &[(4, 2.0), (11, 4.0)]),
                    (0, 2, &[(9, 7.0)]),
                ],
            ),
            build(
                &["s", "y", "x", "z", "w", "u", "t"],
                &[
                    (0, 1, &[(1, 2.0), (4, 3.0), (5, 2.0)]),
                    (1, 3, &[(3, 3.0), (7, 1.0)]),
                    (3, 4, &[(6, 3.0), (8, 6.0)]),
                    (0, 2, &[(9, 2.0), (12, 5.0)]),
                    (2, 4, &[(10, 3.0), (14, 4.0)]),
                    (0, 3, &[(2, 5.0), (11, 2.0)]),
                    (4, 6, &[(15, 7.0)]),
                    (4, 5, &[(13, 5.0)]),
                    (5, 6, &[(16, 6.0)]),
                ],
            ),
        ]
    }

    fn arcs(f: &McfFormulation) -> Vec<(usize, usize, u64, u64, u64)> {
        f.problem
            .arcs()
            .iter()
            .map(|a| {
                (
                    a.tail,
                    a.head,
                    a.lower.to_bits(),
                    a.upper.to_bits(),
                    a.cost.to_bits(),
                )
            })
            .collect()
    }

    /// Everything the pipeline reads off the reduced DAG — the emitted
    /// circulation, the Lemma 2 test and the greedy flow — equals what the
    /// graph it builds yields, down to arc order and pivot counts.
    fn assert_matches_built_graph(mut dag: FlatDag<'_>) {
        let emitted = dag.build_mcf();
        let soluble = dag.is_greedy_soluble();
        let greedy = dag.greedy_flow(&mut GreedyScratch::new());
        let (graph, source, sink) = dag.into_graph();
        let built = build_mcf(&graph, source, sink);
        assert_eq!(emitted.problem.num_nodes(), built.problem.num_nodes());
        assert_eq!(arcs(&emitted), arcs(&built));
        assert_eq!(emitted.return_arc, built.return_arc);
        assert_eq!(emitted.skipped_interactions, built.skipped_interactions);
        assert_eq!(emitted.lp_variables, built.lp_variables);
        let (a, b) = (emitted.solve().unwrap().0, built.solve().unwrap().0);
        assert_eq!(a.flow.to_bits(), b.flow.to_bits());
        assert_eq!(a.pivots, b.pivots);
        assert_eq!(soluble, is_greedy_soluble(&graph, source, sink));
        assert_eq!(
            greedy.to_bits(),
            greedy_flow(&graph, source, sink).flow.to_bits()
        );
    }

    #[test]
    fn emitted_problem_equals_build_mcf_of_the_reduced_graph() {
        let cases = (0..400).map(random_graph).chain(figures());
        for (g, s, t) in cases {
            let order = topological_order(&g).unwrap();
            let mut pre = FlatDag::new(&g, s, t);
            pre.preprocess(&order);
            assert_matches_built_graph(pre);

            let mut presim = FlatDag::new(&g, s, t);
            presim.preprocess(&order);
            presim.simplify(&mut GreedyScratch::new());
            assert_matches_built_graph(presim);

            let mut sim = FlatDag::new(&g, s, t);
            sim.simplify(&mut GreedyScratch::new());
            assert_matches_built_graph(sim);
        }
    }
}
