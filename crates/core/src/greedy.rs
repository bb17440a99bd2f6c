//! Greedy flow computation (Section 4.1 of the paper).
//!
//! Interactions are replayed in chronological order. Every vertex `v` keeps a
//! buffer `B_v` of received-but-not-yet-forwarded quantity; the designated
//! source has an infinite buffer. An interaction `(t, q)` on edge `(v, u)`
//! transfers `min(q, B_v^t)` from `B_v` to `B_u` (Definition 4), where
//! `B_v^t` is the quantity buffered at `v` **strictly before** time `t`.
//! After the last interaction, the flow of the graph is the quantity buffered
//! at the sink (Definition 5).
//!
//! ## Simultaneous interactions
//!
//! The paper leaves ties (multiple interactions with the same timestamp)
//! unspecified. This implementation uses the strict-precedence semantics that
//! also underlie the maximum-flow formulation and the time-expanded
//! reduction, so that `greedy ≤ maximum` holds unconditionally:
//!
//! * quantity arriving at a vertex at time `t` cannot be forwarded by an
//!   interaction happening at the same time `t`;
//! * several interactions leaving the same vertex at time `t` share the
//!   buffer the vertex had before `t` (processed in deterministic event
//!   order, no double spending).
//!
//! The scan is linear in the number of interactions (after the chronological
//! sort provided by [`tin_graph::Events`]).
//!
//! ## Scratch space
//!
//! The per-run state (vertex buffers plus the per-timestamp-group
//! availability/arrival maps) lives in a reusable [`GreedyScratch`]. Callers
//! that evaluate many flows back to back — the solubility test inside every
//! `Pre`/`PreSim` solve, table precomputation, request-serving front-ends —
//! hold one scratch and call [`greedy_flow_with`], paying zero allocation
//! per run once warmed up. [`greedy_flow`] remains the convenient one-shot
//! entry point and simply runs on a fresh scratch.

use tin_graph::{EdgeId, EventRef, Events, NodeId, Quantity, TemporalGraph, Time};

/// A single transfer performed by the greedy scan — one row of the paper's
/// Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferStep {
    /// Edge on which the interaction lives.
    pub edge: EdgeId,
    /// Source vertex of the interaction.
    pub src: NodeId,
    /// Destination vertex of the interaction.
    pub dst: NodeId,
    /// Timestamp of the interaction.
    pub time: Time,
    /// Quantity requested by the interaction (`q_i`).
    pub requested: Quantity,
    /// Quantity actually moved (`min(q_i, B_src)`).
    pub transferred: Quantity,
}

/// Outcome of a greedy scan.
#[derive(Debug, Clone)]
pub struct GreedyResult {
    /// Quantity buffered at the sink after the last interaction — the greedy
    /// flow `f(G)`.
    pub flow: Quantity,
    /// Final buffer of every vertex (the source's buffer is `+∞`).
    pub buffers: Vec<Quantity>,
    /// Chronological record of every transfer, present only when requested
    /// via [`greedy_flow_traced`].
    pub trace: Vec<TransferStep>,
}

/// Reusable per-run state of the greedy scan.
///
/// One scratch serves graphs of any size (it grows to the largest vertex
/// count seen and is cleared with touched-lists, so reuse never pays for
/// the high-water mark). Construct once, pass to [`greedy_flow_with`] as
/// many times as needed.
#[derive(Debug, Default)]
pub struct GreedyScratch {
    /// Per-vertex buffer `B_v` (the source's is `+∞`).
    buffers: Vec<Quantity>,
    /// Vertices whose buffer was touched in the current run.
    buffers_touched: Vec<usize>,
    /// Per-vertex quantity still available within the current timestamp
    /// group (loaded lazily from `buffers`).
    available: Vec<Quantity>,
    available_loaded: Vec<bool>,
    available_touched: Vec<usize>,
    /// Per-vertex quantity arriving within the current timestamp group.
    arrivals: Vec<Quantity>,
    arrivals_loaded: Vec<bool>,
    arrivals_touched: Vec<usize>,
}

impl GreedyScratch {
    /// Creates an empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        GreedyScratch::default()
    }

    /// Final per-vertex buffers of the most recent run (empty before any
    /// run). The source vertex's entry is `+∞`. The scratch never shrinks:
    /// after a run on a smaller graph, entries beyond that graph's vertex
    /// count are stale leftovers from earlier runs.
    pub fn buffers(&self) -> &[Quantity] {
        &self.buffers
    }

    /// Grows the vertex-indexed vectors to `n` entries and resets the
    /// buffers touched by the previous run.
    fn reset(&mut self, n: usize) {
        fn grow<T: Clone>(list: &mut Vec<T>, n: usize, value: T) {
            if list.len() < n {
                list.resize(n, value);
            }
        }
        grow(&mut self.buffers, n, 0.0);
        grow(&mut self.available, n, 0.0);
        grow(&mut self.available_loaded, n, false);
        grow(&mut self.arrivals, n, 0.0);
        grow(&mut self.arrivals_loaded, n, false);
        for &v in &self.buffers_touched {
            self.buffers[v] = 0.0;
        }
        self.buffers_touched.clear();
    }

    /// Gives back capacity beyond what scans of `events` events over
    /// `nodes` vertices need, by the rule of [`tin_lp::netflow::stash`], so
    /// a scratch kept between solves does not pin the largest graph's
    /// buffers.
    pub(crate) fn trim(&mut self, nodes: usize, events: usize) {
        // Clear what the last run left first: a trim may truncate, and the
        // touched list is what the next run resets by. (The other touched
        // lists are empty between runs, the loaded flags all false.)
        for &v in &self.buffers_touched {
            self.buffers[v] = 0.0;
        }
        self.buffers_touched.clear();
        fn shrink<T>(list: &mut Vec<T>, need: usize) {
            let buf = std::mem::take(list);
            tin_lp::netflow::stash(list, buf, need);
        }
        shrink(&mut self.buffers, nodes);
        shrink(&mut self.buffers_touched, 2 * events + 1);
        shrink(&mut self.available, nodes);
        shrink(&mut self.available_loaded, nodes);
        shrink(&mut self.available_touched, nodes);
        shrink(&mut self.arrivals, nodes);
        shrink(&mut self.arrivals_loaded, nodes);
        shrink(&mut self.arrivals_touched, nodes);
    }

    fn touch_buffer(&mut self, v: usize) {
        self.buffers_touched.push(v);
    }
}

/// The greedy scan itself: replays `events` — chronologically sorted, ties
/// in a fixed order — with `source` as the infinite buffer, calls
/// `on_step` with every event and the quantity it moved, and returns the
/// quantity buffered at `sink`. Vertex indices must be below `nodes`.
///
/// Every greedy computation in the crate runs through here: the scan of a
/// whole [`TemporalGraph`], the greedy flow of the reduced flow DAG and
/// the greedy replay of a contracted chain.
pub(crate) fn scan(
    events: &[EventRef],
    nodes: usize,
    source: usize,
    sink: usize,
    scratch: &mut GreedyScratch,
    mut on_step: impl FnMut(&EventRef, Quantity),
) -> Quantity {
    scratch.reset(nodes);
    // Every event touches at most two buffers, once each: sized for that,
    // the list grows at most once per scan.
    scratch.buffers_touched.reserve(2 * events.len() + 1);
    scratch.buffers[source] = Quantity::INFINITY;
    scratch.touch_buffer(source);

    let mut i = 0;
    while i < events.len() {
        let t = events[i].time;
        let mut j = i;
        while j < events.len() && events[j].time == t {
            j += 1;
        }
        for ev in &events[i..j] {
            let s = ev.src.index();
            if !scratch.available_loaded[s] {
                scratch.available[s] = scratch.buffers[s];
                scratch.available_loaded[s] = true;
                scratch.available_touched.push(s);
            }
            let moved = ev.quantity.min(scratch.available[s]);
            if moved > 0.0 {
                if !scratch.available[s].is_infinite() {
                    scratch.available[s] -= moved;
                }
                let d = ev.dst.index();
                if !scratch.arrivals_loaded[d] {
                    scratch.arrivals[d] = 0.0;
                    scratch.arrivals_loaded[d] = true;
                    scratch.arrivals_touched.push(d);
                }
                scratch.arrivals[d] += moved;
            }
            on_step(ev, moved);
        }
        // Commit the group: outgoing quantity leaves the senders' buffers,
        // arrivals become available only to strictly later interactions.
        while let Some(v) = scratch.available_touched.pop() {
            if !scratch.buffers[v].is_infinite() {
                scratch.buffers[v] = scratch.available[v];
                scratch.touch_buffer(v);
            }
            scratch.available_loaded[v] = false;
        }
        while let Some(v) = scratch.arrivals_touched.pop() {
            if !scratch.buffers[v].is_infinite() {
                scratch.buffers[v] += scratch.arrivals[v];
                scratch.touch_buffer(v);
            }
            scratch.arrivals_loaded[v] = false;
        }
        i = j;
    }
    scratch.buffers[sink]
}

fn run(
    graph: &TemporalGraph,
    source: NodeId,
    sink: NodeId,
    record_trace: bool,
    scratch: &mut GreedyScratch,
) -> (Quantity, Vec<TransferStep>) {
    assert!(source.index() < graph.node_count(), "source out of range");
    assert!(sink.index() < graph.node_count(), "sink out of range");
    let events = Events::collect(graph);
    let evs = events.as_slice();
    let mut trace = Vec::with_capacity(if record_trace { evs.len() } else { 0 });
    let flow = scan(
        evs,
        graph.node_count(),
        source.index(),
        sink.index(),
        scratch,
        |ev, moved| {
            if record_trace {
                trace.push(TransferStep {
                    edge: ev.edge,
                    src: ev.src,
                    dst: ev.dst,
                    time: ev.time,
                    requested: ev.quantity,
                    transferred: moved,
                });
            }
        },
    );
    (flow, trace)
}

/// Computes the greedy flow from `source` to `sink` (Definition 5) using a
/// caller-provided scratch, returning just the flow value.
///
/// This is the zero-allocation-per-run entry point: after the first call the
/// scratch's buffers are reused, so tight loops (solubility tests, table
/// precomputation, per-request serving) stop churning the allocator. The
/// final vertex buffers remain readable via [`GreedyScratch::buffers`].
///
/// # Panics
/// Panics if either endpoint is out of range.
pub fn greedy_flow_with(
    graph: &TemporalGraph,
    source: NodeId,
    sink: NodeId,
    scratch: &mut GreedyScratch,
) -> Quantity {
    run(graph, source, sink, false, scratch).0
}

/// Computes the greedy flow from `source` to `sink` (Definition 5).
///
/// # Panics
/// Panics if either endpoint is out of range.
pub fn greedy_flow(graph: &TemporalGraph, source: NodeId, sink: NodeId) -> GreedyResult {
    let mut scratch = GreedyScratch::new();
    let (flow, trace) = run(graph, source, sink, false, &mut scratch);
    GreedyResult {
        flow,
        buffers: scratch.buffers,
        trace,
    }
}

/// Computes the greedy flow and records every transfer, reproducing the
/// step-by-step tables of the paper (Table 2).
pub fn greedy_flow_traced(graph: &TemporalGraph, source: NodeId, sink: NodeId) -> GreedyResult {
    let mut scratch = GreedyScratch::new();
    let (flow, trace) = run(graph, source, sink, true, &mut scratch);
    GreedyResult {
        flow,
        buffers: scratch.buffers,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tin_graph::GraphBuilder;

    /// Figure 3 / Table 2 of the paper.
    fn figure3() -> (TemporalGraph, NodeId, NodeId, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let y = b.add_node("y");
        let z = b.add_node("z");
        let t = b.add_node("t");
        b.add_pairs(s, y, &[(1, 5.0)]).unwrap();
        b.add_pairs(s, z, &[(2, 3.0)]).unwrap();
        b.add_pairs(y, z, &[(3, 5.0)]).unwrap();
        b.add_pairs(y, t, &[(4, 4.0)]).unwrap();
        b.add_pairs(z, t, &[(5, 1.0)]).unwrap();
        (b.build(), s, y, z, t)
    }

    #[test]
    fn table2_final_buffers() {
        let (g, s, y, z, t) = figure3();
        let r = greedy_flow(&g, s, t);
        assert_eq!(r.flow, 1.0);
        assert!(r.buffers[s.index()].is_infinite());
        assert_eq!(r.buffers[y.index()], 0.0);
        assert_eq!(r.buffers[z.index()], 7.0);
        assert_eq!(r.buffers[t.index()], 1.0);
        assert!(r.trace.is_empty());
    }

    #[test]
    fn table2_step_by_step_trace() {
        let (g, s, _y, _z, t) = figure3();
        let r = greedy_flow_traced(&g, s, t);
        assert_eq!(r.trace.len(), 5);
        let transferred: Vec<f64> = r.trace.iter().map(|s| s.transferred).collect();
        // (1,5): 5 moves, (2,3): 3 moves, (3,5): 5 moves, (4,4): 0 moves,
        // (5,1): 1 moves — exactly Table 2.
        assert_eq!(transferred, vec![5.0, 3.0, 5.0, 0.0, 1.0]);
        let times: Vec<i64> = r.trace.iter().map(|s| s.time).collect();
        assert_eq!(times, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn figure1_greedy_flow() {
        // Figure 1(a): the greedy scan delivers 2 units to t.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let x = b.add_node("x");
        let y = b.add_node("y");
        let z = b.add_node("z");
        let t = b.add_node("t");
        b.add_pairs(s, x, &[(1, 3.0), (7, 5.0)]).unwrap();
        b.add_pairs(s, y, &[(2, 6.0)]).unwrap();
        b.add_pairs(x, z, &[(5, 5.0)]).unwrap();
        b.add_pairs(y, z, &[(8, 5.0)]).unwrap();
        b.add_pairs(y, t, &[(9, 4.0)]).unwrap();
        b.add_pairs(z, t, &[(2, 3.0), (10, 1.0)]).unwrap();
        let g = b.build();
        let r = greedy_flow(&g, s, t);
        assert_eq!(r.flow, 2.0);
    }

    #[test]
    fn source_buffer_is_infinite() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let t = b.add_node("t");
        b.add_pairs(s, t, &[(1, 10.0), (2, 20.0), (3, 30.0)])
            .unwrap();
        let g = b.build();
        let r = greedy_flow(&g, s, t);
        assert_eq!(r.flow, 60.0);
        assert!(r.buffers[s.index()].is_infinite());
    }

    #[test]
    fn chain_respects_time_order() {
        // The forwarding edge fires before anything arrives: nothing flows.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(5, 10.0)]).unwrap();
        b.add_pairs(a, t, &[(2, 3.0)]).unwrap();
        let g = b.build();
        assert_eq!(greedy_flow(&g, s, t).flow, 0.0);
    }

    #[test]
    fn same_timestamp_arrival_cannot_be_relayed() {
        // Strict precedence: what arrives at time 3 cannot leave at time 3.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(3, 4.0)]).unwrap();
        b.add_pairs(a, t, &[(3, 4.0)]).unwrap();
        let g = b.build();
        assert_eq!(greedy_flow(&g, s, t).flow, 0.0);
    }

    #[test]
    fn same_timestamp_departures_share_the_buffer() {
        // a holds 5 units; two interactions at time 9 request 4 each — they
        // must not double-spend.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        let u = b.add_node("u");
        b.add_pairs(s, a, &[(1, 5.0)]).unwrap();
        b.add_pairs(a, t, &[(9, 4.0)]).unwrap();
        b.add_pairs(a, u, &[(9, 4.0)]).unwrap();
        let g = b.build();
        let r = greedy_flow(&g, s, t);
        let total_out = 5.0 - r.buffers[a.index()];
        assert!((total_out - 5.0).abs() < 1e-9);
        // First edge in insertion order gets the full 4, the second only 1.
        assert_eq!(r.buffers[t.index()], 4.0);
        assert_eq!(r.buffers[u.index()], 1.0);
    }

    #[test]
    fn partial_transfer_when_buffer_is_short() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(1, 2.0)]).unwrap();
        b.add_pairs(a, t, &[(2, 10.0)]).unwrap();
        let g = b.build();
        let r = greedy_flow_traced(&g, s, t);
        assert_eq!(r.flow, 2.0);
        assert_eq!(r.trace[1].requested, 10.0);
        assert_eq!(r.trace[1].transferred, 2.0);
    }

    #[test]
    fn greedy_on_figure5b_reaches_fourteen() {
        // Figure 5(b): all intermediate vertices have a single outgoing
        // edge, greedy computes the maximum flow (= 14 in the paper).
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let y = b.add_node("y");
        let z = b.add_node("z");
        let w = b.add_node("w");
        let x = b.add_node("x");
        let t = b.add_node("t");
        b.add_pairs(s, y, &[(1, 5.0), (4, 3.0), (5, 2.0)]).unwrap();
        b.add_pairs(y, z, &[(3, 3.0), (7, 4.0)]).unwrap();
        b.add_pairs(z, w, &[(6, 3.0), (8, 6.0)]).unwrap();
        b.add_pairs(s, x, &[(9, 2.0), (12, 5.0)]).unwrap();
        b.add_pairs(x, w, &[(10, 3.0), (14, 4.0)]).unwrap();
        b.add_pairs(w, t, &[(15, 7.0)]).unwrap();
        b.add_pairs(s, t, &[(2, 5.0), (11, 2.0)]).unwrap();
        let g = b.build();
        let r = greedy_flow(&g, s, t);
        assert_eq!(r.flow, 14.0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // One scratch across graphs of different sizes and shapes must give
        // exactly the same flows as one-shot calls.
        let (g1, s1, _, _, t1) = figure3();
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(1, 2.0)]).unwrap();
        b.add_pairs(a, t, &[(2, 10.0)]).unwrap();
        let g2 = b.build();

        let mut scratch = GreedyScratch::new();
        for _ in 0..3 {
            let f1 = greedy_flow_with(&g1, s1, t1, &mut scratch);
            assert_eq!(f1, greedy_flow(&g1, s1, t1).flow);
            assert!(scratch.buffers()[s1.index()].is_infinite());
            // Smaller graph right after a bigger one: touched-list reset
            // must leave no residue in the live prefix.
            let f2 = greedy_flow_with(&g2, s, t, &mut scratch);
            assert_eq!(f2, greedy_flow(&g2, s, t).flow);
            assert_eq!(f2, 2.0);
        }
    }

    #[test]
    fn empty_graph_flow_is_zero() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let t = b.add_node("t");
        let g = b.build();
        assert_eq!(greedy_flow(&g, s, t).flow, 0.0);
    }

    #[test]
    fn flow_conservation_in_trace() {
        let (g, s, _, _, t) = figure3();
        let r = greedy_flow_traced(&g, s, t);
        // Every vertex other than the source: received >= sent at all times,
        // and final buffer == received - sent.
        let mut received = vec![0.0; g.node_count()];
        let mut sent = vec![0.0; g.node_count()];
        for step in &r.trace {
            sent[step.src.index()] += step.transferred;
            received[step.dst.index()] += step.transferred;
        }
        for v in g.node_ids() {
            if v == s {
                continue;
            }
            let expected = received[v.index()] - sent[v.index()];
            assert!((r.buffers[v.index()] - expected).abs() < 1e-9);
            assert!(expected >= -1e-9);
        }
    }
}
