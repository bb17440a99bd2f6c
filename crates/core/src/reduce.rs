//! The flat flow DAG that Algorithms 1 and 2 reduce in place.
//!
//! [`FlatDag`] is built once from the input graph and then carried through
//! the whole `Pre`/`PreSim` pipeline: the DAG check, preprocessing
//! (Algorithm 1), the Lemma 2 test, simplification (Algorithm 2), the
//! Lemma 2 test again, and finally the exact leg, which emits the
//! time-expanded circulation from the reduced DAG straight into the
//! network simplex's arrays. No intermediate [`TemporalGraph`] is built on
//! that path.
//!
//! * Edges live in one table, numbered in `(src, dst)` order, so the
//!   out-edges of a vertex are a contiguous range sorted by destination (a
//!   CSR list). Two passes over the input's edge table fill it, skipping a
//!   windowed input's tombstoned slots; no global sort is needed.
//! * The same call computes a topological order: Kahn's algorithm over the
//!   CSR and its in-degree counters. On a cyclic input it orders fewer than
//!   all vertices, which [`FlatDag::is_dag`] reports.
//! * Every edge borrows its interactions from the input graph. Algorithm 1
//!   trims an edge by re-slicing it; only the edges that chain contraction
//!   creates or merges hold a range of the DAG's own arena, which is
//!   compacted once more than half of it is dead.
//! * Removal flips alive bits and updates the in/out degree counters, which
//!   the Lemma 2 test and the chain search read.
//! * Contraction creates edges only out of the source. Those are reached
//!   through `from_source`, the source's out-list indexed by destination.
//! * No in-lists: Algorithm 1 carries each vertex's earliest arrival forward
//!   in topological order and runs its upstream cascade as one backward
//!   pass, and Algorithm 2 needs only the in-degree counters.
//! * Every buffer is recycled through a thread-local slot, as the network
//!   simplex recycles its own, and trimmed by the same rule
//!   ([`tin_lp::netflow::stash`]): a worker solving subgraph after subgraph
//!   allocates for the largest, not for each.
//!
//! Every order that decides an answer is the one a graph built from the
//! reduced DAG would have: live edges in `(src, dst)` order (the edge-id
//! order of that graph, which greedy uses to break timestamp ties and the
//! emitter to number arcs), chain starts in ascending vertex order.

use crate::error::FlowError;
use crate::greedy::{scan, GreedyScratch};
use crate::lp_formulation::{emit, solve_emitted, ArcSink, Emitted, LpOutcome};
use crate::preprocess::PreprocessReport;
use crate::simplify::SimplifyReport;
use std::cell::RefCell;
use std::cmp::Ordering;
use tin_graph::{Edge, EdgeId, EventRef, Interaction, NodeId, Quantity, TemporalGraph, Time};
use tin_lp::netflow::stash;
use tin_lp::Circulation;

/// "No edge" in `from_source`.
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct FlatEdge<'g> {
    src: u32,
    dst: u32,
    alive: bool,
    /// Chronologically sorted; never empty while the edge is alive.
    ints: Ints<'g>,
}

/// Where an edge's interactions are.
#[derive(Debug, Clone, Copy)]
enum Ints<'g> {
    /// Borrowed from the input graph.
    Borrowed(&'g [Interaction]),
    /// The DAG's arena, `owned[lo..hi]`: an edge chain contraction created
    /// or merged.
    Owned(u32, u32),
}

impl FlatEdge<'_> {
    fn len(&self) -> usize {
        match self.ints {
            Ints::Borrowed(list) => list.len(),
            Ints::Owned(lo, hi) => (hi - lo) as usize,
        }
    }
}

/// An empty vector on `buf`'s allocation, for edges that borrow from
/// another graph. Collecting a vector's own iterator into a vector of an
/// item type of the same layout reuses its buffer, so the thread-local slot
/// can keep the table's allocation from one input graph to the next.
fn recycle<'a, 'b>(mut buf: Vec<FlatEdge<'a>>) -> Vec<FlatEdge<'b>> {
    buf.clear();
    buf.into_iter().map(|_| unreachable!("emptied")).collect()
}

/// The DAG's recycled buffers (see the module documentation).
#[derive(Default)]
struct Buffers {
    edges: Vec<FlatEdge<'static>>,
    out_start: Vec<u32>,
    from_source: Vec<u32>,
    alive: Vec<bool>,
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    order: Vec<u32>,
    first_arrival: Vec<Time>,
    owned: Vec<Interaction>,
    events: Vec<EventRef>,
    ids: Vec<usize>,
    greedy: GreedyScratch,
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers::default());
}

/// A flow DAG with designated endpoints, reduced in place by Algorithms 1
/// and 2 (see the module documentation).
pub(crate) struct FlatDag<'g> {
    graph: &'g TemporalGraph,
    source: usize,
    sink: usize,
    /// Interactions of the input's live edges: what the buffers are sized
    /// for.
    interactions: usize,
    edges: Vec<FlatEdge<'g>>,
    /// Original out-edges of `v`: `out_start[v]..out_start[v + 1]`.
    out_start: Vec<u32>,
    /// The live edge `(source, v)` for every `v`, or [`NONE`].
    from_source: Vec<u32>,
    alive: Vec<bool>,
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    /// Kahn's order of the input: every vertex when it is a DAG.
    order: Vec<u32>,
    /// Algorithm 1's earliest arrival per vertex.
    first_arrival: Vec<Time>,
    /// Interactions of the edges contraction created or merged, and
    /// `garbage`, how many of them belong to no live edge.
    owned: Vec<Interaction>,
    garbage: usize,
    /// Greedy events of the live part or of one chain.
    events: Vec<EventRef>,
    /// Edge ids: the chain being contracted, or the live edges emitted.
    ids: Vec<usize>,
    /// The scratch of every greedy scan on this DAG and, for class A, on
    /// its input graph.
    greedy: GreedyScratch,
}

impl Drop for FlatDag<'_> {
    fn drop(&mut self) {
        let (n, m, i) = (self.alive.len(), self.edges.len(), self.interactions);
        BUFFERS.with(|slot| {
            let mut b = slot.borrow_mut();
            stash(
                &mut b.edges,
                recycle(std::mem::take(&mut self.edges)),
                m + n,
            );
            stash(&mut b.out_start, std::mem::take(&mut self.out_start), n + 1);
            stash(&mut b.from_source, std::mem::take(&mut self.from_source), n);
            stash(&mut b.alive, std::mem::take(&mut self.alive), n);
            stash(&mut b.out_deg, std::mem::take(&mut self.out_deg), n);
            stash(&mut b.in_deg, std::mem::take(&mut self.in_deg), n);
            stash(&mut b.order, std::mem::take(&mut self.order), n);
            stash(
                &mut b.first_arrival,
                std::mem::take(&mut self.first_arrival),
                n,
            );
            stash(&mut b.owned, std::mem::take(&mut self.owned), i);
            stash(&mut b.events, std::mem::take(&mut self.events), i);
            stash(&mut b.ids, std::mem::take(&mut self.ids), m);
            b.greedy = std::mem::take(&mut self.greedy);
            b.greedy.trim(n, i);
        });
    }
}

impl<'g> FlatDag<'g> {
    /// Builds the flat DAG of the live part of `graph` and its topological
    /// order (see [`FlatDag::is_dag`]).
    pub(crate) fn new(graph: &'g TemporalGraph, source: NodeId, sink: NodeId) -> Self {
        let n = graph.node_count();
        let b = BUFFERS.with(|slot| slot.take());
        let mut dag = FlatDag {
            graph,
            source: source.index(),
            sink: sink.index(),
            interactions: 0,
            edges: recycle(b.edges),
            out_start: b.out_start,
            from_source: b.from_source,
            alive: b.alive,
            out_deg: b.out_deg,
            in_deg: b.in_deg,
            order: b.order,
            first_arrival: b.first_arrival,
            owned: b.owned,
            garbage: 0,
            events: b.events,
            ids: b.ids,
            greedy: b.greedy,
        };
        dag.from_source.clear();
        dag.from_source.resize(n, NONE);
        dag.in_deg.clear();
        dag.in_deg.resize(n, 0);
        dag.out_deg.clear();
        dag.out_deg.resize(n, 0);
        dag.alive.clear();
        dag.alive.resize(n, true);
        dag.owned.clear();
        dag.events.clear();
        dag.ids.clear();

        // The CSR, from two passes over the edge table that skip its
        // tombstoned slots. The first counts each live edge at both ends,
        // and prefix sums of the out-degrees place each vertex's range. The
        // second fills the ranges in edge-id order, with `out_deg` counting
        // each range up again as it fills. A range is sorted by destination
        // last, unless it already is (a vertex has at most one live edge
        // per destination, so the order is total). The graph's own
        // out-lists would give the degrees too, but reading them costs a
        // cache miss per vertex on a graph solved once.
        let live_edges = || graph.edges().iter().filter(|e| !e.is_tombstone());
        for edge in live_edges() {
            dag.interactions += edge.interactions.len();
            dag.out_deg[edge.src.index()] += 1;
            dag.in_deg[edge.dst.index()] += 1;
        }
        dag.out_start.clear();
        dag.out_start.reserve(n + 1);
        dag.out_start.push(0);
        let mut live = 0u32;
        for d in dag.out_deg.iter_mut() {
            live += *d;
            dag.out_start.push(live);
            *d = 0;
        }
        let unset = FlatEdge {
            src: 0,
            dst: 0,
            alive: true,
            ints: Ints::Borrowed(&[]),
        };
        // Room too for the edges chain contraction adds, at most one per
        // vertex.
        dag.edges.clear();
        dag.edges.reserve(live as usize + n);
        dag.edges.resize(live as usize, unset);
        for edge in live_edges() {
            let (src, dst) = (edge.src.index(), edge.dst.index());
            dag.edges[(dag.out_start[src] + dag.out_deg[src]) as usize] = FlatEdge {
                src: src as u32,
                dst: dst as u32,
                alive: true,
                ints: Ints::Borrowed(&edge.interactions),
            };
            dag.out_deg[src] += 1;
        }

        // Kahn's algorithm, with the order itself as the queue, runs while
        // the ranges are still in edge-id order, so it orders the vertices
        // exactly as `tin_graph::topological_order` does. It consumes the
        // in-degree counters, which a second pass over the edges then
        // restores.
        dag.order.clear();
        dag.order.reserve(n);
        dag.order
            .extend((0..n as u32).filter(|&v| dag.in_deg[v as usize] == 0));
        let mut head = 0;
        while head < dag.order.len() {
            let v = dag.order[head] as usize;
            head += 1;
            for e in dag.out_start[v] as usize..dag.out_start[v + 1] as usize {
                let d = dag.edges[e].dst;
                dag.in_deg[d as usize] -= 1;
                if dag.in_deg[d as usize] == 0 {
                    dag.order.push(d);
                }
            }
        }
        dag.in_deg.fill(0);
        for e in &dag.edges {
            dag.in_deg[e.dst as usize] += 1;
        }

        for v in 0..n {
            let out = &mut dag.edges[dag.out_start[v] as usize..dag.out_start[v + 1] as usize];
            if !out.is_sorted_by_key(|e| e.dst) {
                out.sort_unstable_by_key(|e| e.dst);
            }
        }
        let s = dag.source;
        for e in dag.out_start[s] as usize..dag.out_start[s + 1] as usize {
            dag.from_source[dag.edges[e].dst as usize] = e as u32;
        }
        dag
    }

    /// Whether the input is acyclic: Kahn's algorithm ordered every vertex.
    pub(crate) fn is_dag(&self) -> bool {
        self.order.len() == self.alive.len()
    }

    /// The scratch greedy scans of this DAG use, lent to a scan of the
    /// input graph.
    pub(crate) fn greedy_scratch(&mut self) -> &mut GreedyScratch {
        &mut self.greedy
    }

    /// The interactions edge `e` holds.
    fn interactions(&self, e: usize) -> &[Interaction] {
        match self.edges[e].ints {
            Ints::Borrowed(list) => list,
            Ints::Owned(lo, hi) => &self.owned[lo as usize..hi as usize],
        }
    }

    /// Live edges among the original out-edges of `v` (for `v` other than
    /// the source, these are all of its live out-edges).
    fn out_edges(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        (self.out_start[v] as usize..self.out_start[v + 1] as usize)
            .filter(|&e| self.edges[e].alive)
    }

    /// Ids of the live edges in `(src, dst)` order.
    fn live_edges(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.alive.len()).flat_map(move |v| {
            let (from_source, own) = if v == self.source {
                (&self.from_source[..], 0..0)
            } else {
                (
                    &[][..],
                    self.out_start[v] as usize..self.out_start[v + 1] as usize,
                )
            };
            from_source
                .iter()
                .filter(|&&e| e != NONE)
                .map(|&e| e as usize)
                .chain(own.filter(move |&e| self.edges[e].alive))
        })
    }

    fn kill_edge(&mut self, e: usize) {
        let edge = &mut self.edges[e];
        debug_assert!(edge.alive, "edge {e} killed twice");
        edge.alive = false;
        let (src, dst) = (edge.src as usize, edge.dst as usize);
        if let Ints::Owned(..) = edge.ints {
            self.garbage += edge.len();
        }
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
            .map(FlatEdge::len)
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
    pub(crate) fn greedy_flow(&mut self) -> Quantity {
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        events.reserve(self.live_interaction_count());
        for (rank, e) in self.live_edges().enumerate() {
            push_events(&mut events, rank, &self.edges[e], self.interactions(e));
        }
        sort_events(&mut events);
        let n = self.alive.len();
        let flow = scan(
            &events,
            n,
            self.source,
            self.sink,
            &mut self.greedy,
            |_, _| {},
        );
        self.events = events;
        flow
    }

    /// Solves the maximum flow of the live part exactly: the time-expanded
    /// circulation [`crate::build_mcf`] would build for the graph
    /// [`FlatDag::into_graph`] returns, emitted straight into the network
    /// simplex's arrays.
    pub(crate) fn max_flow(&mut self) -> Result<LpOutcome, FlowError> {
        solve_emitted(self.emit(Circulation::new))
    }

    /// The time-expanded circulation of the live part as a problem — arc
    /// for arc what [`crate::build_mcf`] emits for the graph
    /// [`FlatDag::into_graph`] builds.
    #[cfg(test)]
    pub(crate) fn build_mcf(&mut self) -> crate::McfFormulation {
        crate::McfFormulation::from_emitted(self.emit(|nodes, arcs| {
            let mut problem = tin_lp::MinCostFlowProblem::new(nodes);
            problem.reserve_arcs(arcs);
            problem
        }))
    }

    /// Emits the live part into the sink `open` returns. The emitter reads
    /// the edges three times, so their ids are collected once.
    fn emit<S: ArcSink>(&mut self, open: impl FnOnce(usize, usize) -> S) -> Emitted<S> {
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        ids.reserve(self.edges.len());
        ids.extend(self.live_edges());
        let edges = ids.iter().map(|&e| {
            let edge = &self.edges[e];
            (edge.src as usize, edge.dst as usize, self.interactions(e))
        });
        let emitted = emit(self.alive.len(), edges, self.source, self.sink, false, open);
        self.ids = ids;
        emitted
    }

    /// Builds the live part as a graph: live vertices renumbered densely in
    /// index order (keeping their names), live edges in `(src, dst)` order.
    /// Returns the graph and the new ids of the source and the sink, which
    /// never die.
    pub(crate) fn into_graph(self) -> (TemporalGraph, NodeId, NodeId) {
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
            .map(|e| {
                let edge = &self.edges[e];
                Edge {
                    src: NodeId(new_id[edge.src as usize]),
                    dst: NodeId(new_id[edge.dst as usize]),
                    interactions: self.interactions(e).to_vec(),
                }
            })
            .collect();
        let graph = TemporalGraph::from_stored_parts(nodes, edges, None)
            .expect("the live part of a valid graph is a valid graph");
        let source = NodeId(new_id[self.source]);
        let sink = NodeId(new_id[self.sink]);
        (graph, source, sink)
    }

    /// Algorithm 1 (see [`crate::preprocess()`]): visits the vertices in
    /// topological order.
    ///
    /// # Panics
    /// Panics if the input is not a DAG ([`FlatDag::is_dag`]).
    pub(crate) fn preprocess(&mut self) -> PreprocessReport {
        assert!(self.is_dag(), "Algorithm 1 needs a topological order");
        let mut report = PreprocessReport::default();
        let order = std::mem::take(&mut self.order);
        // The earliest arrival at each vertex over the in-edges that survived
        // their tail's visit; in topological order a vertex's in-edges are
        // final by the time it is visited.
        let mut first_arrival = std::mem::take(&mut self.first_arrival);
        first_arrival.clear();
        first_arrival.resize(self.alive.len(), Time::MAX);
        for v in order.iter().map(|&v| v as usize) {
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
                    let keep_from = self
                        .interactions(e)
                        .partition_point(|i| i.time < first_arrival[v]);
                    report.interactions_removed += keep_from;
                    if keep_from == self.edges[e].len() {
                        self.kill_edge(e);
                        report.edges_removed += 1;
                    } else {
                        match &mut self.edges[e].ints {
                            Ints::Borrowed(list) => *list = &list[keep_from..],
                            Ints::Owned(lo, _) => *lo += keep_from as u32,
                        }
                    }
                }
            }
            for e in a..b {
                if self.edges[e].alive {
                    let time = self.interactions(e)[0].time;
                    let arrival = &mut first_arrival[self.edges[e].dst as usize];
                    *arrival = (*arrival).min(time);
                }
            }
        }
        // Upstream removal: a vertex no flow can leave goes, and its
        // predecessors lose an out-edge. Visiting in reverse topological
        // order settles every successor first, so one pass reaches the
        // fixpoint an immediate cascade would. It stops at both endpoints:
        // the sink absorbs what arrives, whatever happens to its out-edges.
        for v in order.iter().rev().map(|&v| v as usize) {
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
        self.order = order;
        self.first_arrival = first_arrival;
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

    /// Algorithm 2 (see [`crate::simplify()`]): contracts source-rooted
    /// chains, smallest start vertex first, until none is left.
    pub(crate) fn simplify(&mut self) -> SimplifyReport {
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
            if let Some(terminal) = self.contract_chain(v1, &mut report) {
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
    fn contract_chain(&mut self, v1: usize, report: &mut SimplifyReport) -> Option<usize> {
        let mut chain = std::mem::take(&mut self.ids);
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
            self.ids = chain;
            return None;
        }

        // Greedy replay over the chain alone: the positive transfers into
        // the terminal are the contracted edge's interactions, appended to
        // the arena. Neither the chain nor what the arena keeps live
        // outgrows the input's interactions, so both are sized for those
        // once instead of growing chain by chain.
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        events.reserve(self.interactions);
        self.owned
            .reserve(self.interactions.saturating_sub(self.owned.len()));
        for (pos, &e) in chain.iter().enumerate() {
            push_events(&mut events, pos, &self.edges[e], self.interactions(e));
        }
        sort_events(&mut events);
        let start = self.owned.len();
        let owned = &mut self.owned;
        scan(
            &events,
            self.alive.len(),
            self.source,
            terminal,
            &mut self.greedy,
            |ev, moved| {
                if ev.dst.index() == terminal && moved > 0.0 {
                    owned.push(Interaction::new(ev.time, moved));
                }
            },
        );
        self.events = events;
        // Tied transfers can come out in decreasing quantity; equal ones
        // are equal bit for bit, so an unstable sort is exact.
        self.owned[start..].sort_unstable_by(Interaction::chronological_cmp);

        for &e in chain.iter() {
            self.kill_edge(e);
        }
        for &e in &chain[..chain.len() - 1] {
            self.alive[self.edges[e].dst as usize] = false;
            report.nodes_removed += 1;
        }
        self.ids = chain;
        if self.owned.len() > start {
            let end = self.owned.len();
            match self.from_source[terminal] {
                NONE => {
                    self.from_source[terminal] = self.edges.len() as u32;
                    self.edges.push(FlatEdge {
                        src: self.source as u32,
                        dst: terminal as u32,
                        alive: true,
                        ints: Ints::Owned(start as u32, end as u32),
                    });
                    self.out_deg[self.source] += 1;
                    self.in_deg[terminal] += 1;
                }
                e => self.merge_into(e as usize, start..end),
            }
        }
        report.chains_contracted += 1;
        if self.garbage > self.owned.len() / 2 {
            self.compact_owned();
        }
        Some(terminal)
    }

    /// Merges the arena's `added` interactions into live edge `e`, as
    /// `tin_graph::interaction::merge_sorted` merges (ties keep the edge's
    /// own first). A borrowed edge is first copied into the arena; the
    /// merged list goes to the arena's end, and both inputs become garbage.
    fn merge_into(&mut self, e: usize, added: std::ops::Range<usize>) {
        let old = match self.edges[e].ints {
            Ints::Owned(lo, hi) => lo as usize..hi as usize,
            Ints::Borrowed(list) => {
                let lo = self.owned.len();
                self.owned.extend_from_slice(list);
                lo..self.owned.len()
            }
        };
        let out = self.owned.len();
        self.owned.reserve(old.len() + added.len());
        let (mut i, mut j) = (old.start, added.start);
        while i < old.end || j < added.end {
            let take_old = j == added.end
                || (i < old.end
                    && self.owned[i].chronological_cmp(&self.owned[j]) != Ordering::Greater);
            let next = if take_old { &mut i } else { &mut j };
            self.owned.push(self.owned[*next]);
            *next += 1;
        }
        self.garbage += old.len() + added.len();
        self.edges[e].ints = Ints::Owned(out as u32, self.owned.len() as u32);
    }

    /// Moves every live edge's arena range to the front of the arena, in
    /// edge order, and drops the rest.
    fn compact_owned(&mut self) {
        let dead = self.owned.len();
        for edge in self.edges.iter_mut().filter(|edge| edge.alive) {
            if let Ints::Owned(lo, hi) = edge.ints {
                let to = (self.owned.len() - dead) as u32;
                self.owned.extend_from_within(lo as usize..hi as usize);
                edge.ints = Ints::Owned(to, to + (hi - lo));
            }
        }
        self.owned.drain(..dead);
        self.garbage = 0;
    }
}

/// Appends the events of `edge`, whose interactions are `interactions`,
/// tagged with `rank` as their edge id.
fn push_events(
    events: &mut Vec<EventRef>,
    rank: usize,
    edge: &FlatEdge<'_>,
    interactions: &[Interaction],
) {
    events.extend(interactions.iter().enumerate().map(|(index, i)| EventRef {
        edge: EdgeId::from_index(rank),
        index,
        src: NodeId(edge.src),
        dst: NodeId(edge.dst),
        time: i.time,
        quantity: i.quantity,
    }));
}

/// Sorts events pushed in `(rank, index)` order by time, ties kept in push
/// order: the order a stable sort by time gives, without its buffer.
fn sort_events(events: &mut [EventRef]) {
    events.sort_unstable_by_key(|ev| (ev.time, ev.edge, ev.index));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_flow;
    use crate::lp_formulation::{build_mcf, McfFormulation};
    use crate::solubility::is_greedy_soluble;
    use tin_graph::{GraphBuilder, GraphDelta};

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

    fn arcs(f: &McfFormulation) -> Vec<(usize, usize, u64, u64)> {
        f.problem
            .arcs()
            .iter()
            .map(|a| (a.tail, a.head, a.upper.to_bits(), a.cost.to_bits()))
            .collect()
    }

    /// Everything the pipeline reads off the reduced DAG — the emitted
    /// circulation, its cold solve, the Lemma 2 test and the greedy flow —
    /// equals what the graph it builds yields, down to arc order and pivot
    /// counts.
    fn assert_matches_built_graph(mut dag: FlatDag<'_>) {
        let emitted = dag.build_mcf();
        let solved = dag.max_flow().unwrap();
        let soluble = dag.is_greedy_soluble();
        let greedy = dag.greedy_flow();
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
        // The cold leg, written straight into the solver, is the same solve.
        assert_eq!(solved.flow.to_bits(), b.flow.to_bits());
        assert_eq!(solved, b);
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
            let mut pre = FlatDag::new(&g, s, t);
            pre.preprocess();
            assert_matches_built_graph(pre);

            let mut presim = FlatDag::new(&g, s, t);
            presim.preprocess();
            presim.simplify();
            assert_matches_built_graph(presim);

            let mut sim = FlatDag::new(&g, s, t);
            sim.simplify();
            assert_matches_built_graph(sim);
        }
    }

    #[test]
    fn recycling_keeps_the_edge_table_allocation() {
        let table: Vec<FlatEdge<'static>> = Vec::with_capacity(100);
        let ptr = table.as_ptr() as usize;
        let reused: Vec<FlatEdge<'_>> = recycle(table);
        assert_eq!((reused.as_ptr() as usize, reused.capacity()), (ptr, 100));
    }

    /// Kahn's order over the flat DAG is a topological order of the live
    /// edges, and a cycle leaves vertices unordered.
    #[test]
    fn the_flat_dag_orders_its_vertices_topologically() {
        for (g, s, t) in (0..400).map(random_graph).chain(figures()) {
            let dag = FlatDag::new(&g, s, t);
            assert!(dag.is_dag());
            let mut position = vec![usize::MAX; g.node_count()];
            for (i, &v) in dag.order.iter().enumerate() {
                position[v as usize] = i;
            }
            for e in g.edge_ids().filter(|&e| !g.is_tombstone(e)) {
                let edge = g.edge(e);
                assert!(position[edge.src.index()] < position[edge.dst.index()]);
            }
        }
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("v{i}"))).collect();
        b.add_pairs(ids[0], ids[1], &[(1, 1.0)]).unwrap();
        b.add_pairs(ids[1], ids[2], &[(2, 1.0)]).unwrap();
        b.add_pairs(ids[2], ids[1], &[(3, 1.0)]).unwrap();
        b.add_pairs(ids[2], ids[3], &[(4, 1.0)]).unwrap();
        let g = b.build();
        let dag = FlatDag::new(&g, ids[0], ids[3]);
        assert!(!dag.is_dag());
        assert_eq!(dag.order, vec![0]);
    }
}
