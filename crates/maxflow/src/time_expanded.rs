//! Reduction of temporal maximum flow to static maximum flow.
//!
//! Section 4.2.1 of the paper notes that its maximum-flow problem is
//! equivalent to the temporal-flow problem of Akrida et al., which can be
//! converted to a classic max-flow instance by creating one copy of every
//! vertex per activity time. This module implements that reduction directly
//! on [`tin_graph::TemporalGraph`]s:
//!
//! * every vertex `v` (other than the flow source and sink) gets one node per
//!   **arrival time** (timestamp of an incoming interaction), chained by
//!   "holdover" arcs of unbounded capacity — the buffer carrying quantity
//!   forward in time;
//! * an interaction `(t, q)` on edge `(u, v)` becomes an arc of capacity `q`
//!   from the latest copy of `u` *strictly before* `t` (the paper's strict
//!   precedence rule) to the copy of `v` at time `t`;
//! * the flow source is a single node (its buffer is infinite at all times),
//!   and so is the sink (it only accumulates).
//!
//! The maximum `s`–`t` flow of the resulting static network equals the
//! maximum temporal flow; we solve it with Dinic's algorithm. This is used
//! both as a fast exact solver and as the oracle against which the LP
//! formulation is verified.

use crate::dinic::dinic;
use crate::network::FlowNetwork;
use tin_graph::{NodeId, Quantity, TemporalGraph, Time};

/// The static network produced by the time-expanded reduction, together with
/// bookkeeping that makes the construction inspectable in tests.
#[derive(Debug)]
pub struct TimeExpandedNetwork {
    /// The static capacitated network.
    pub network: FlowNetwork,
    /// Node id of the flow source inside [`Self::network`].
    pub source: usize,
    /// Node id of the flow sink inside [`Self::network`].
    pub sink: usize,
    /// Number of per-(vertex, arrival-time) copies created.
    pub copy_count: usize,
    /// Number of interaction arcs created (interactions whose source vertex
    /// could not yet have received anything are dropped).
    pub interaction_arcs: usize,
    /// Number of interactions skipped because they cannot carry any flow.
    pub skipped_interactions: usize,
    /// The finite stand-in used for unbounded capacities.
    pub unbounded_capacity: f64,
}

impl TimeExpandedNetwork {
    /// Builds the time-expanded network of `graph` for flow from `source` to
    /// `sink`.
    pub fn build(graph: &TemporalGraph, source: NodeId, sink: NodeId) -> Self {
        // Finite stand-in for "unbounded": no s-t flow can exceed the total
        // finite quantity in the graph, so this value never constrains an
        // optimal solution. The sum of huge quantities can overflow to ∞,
        // which no arc may carry: the stand-in saturates at `f64::MAX`.
        let finite_total: f64 = graph
            .edges()
            .iter()
            .flat_map(|e| e.interactions.iter())
            .map(|i| {
                if i.quantity.is_finite() {
                    i.quantity
                } else {
                    0.0
                }
            })
            .sum();
        let unbounded = (finite_total + 1.0).min(f64::MAX);

        // Collect arrival times per vertex (excluding the flow endpoints).
        let n = graph.node_count();
        let mut arrivals: Vec<Vec<Time>> = vec![Vec::new(); n];
        for edge in graph.edges() {
            if edge.dst == source || edge.dst == sink {
                continue;
            }
            for i in &edge.interactions {
                arrivals[edge.dst.index()].push(i.time);
            }
        }
        for list in arrivals.iter_mut() {
            list.sort_unstable();
            list.dedup();
        }

        // Assign node ids: 0 = source, 1 = sink, then vertex copies.
        let mut net = FlowNetwork::with_nodes(2);
        let src_node = 0usize;
        let sink_node = 1usize;
        let mut first_copy: Vec<usize> = vec![usize::MAX; n];
        let mut copy_count = 0usize;
        for (v, list) in arrivals.iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            first_copy[v] = net.node_count();
            for _ in list {
                net.add_node();
            }
            copy_count += list.len();
            // Holdover arcs carry buffered quantity forward in time.
            for k in 0..list.len() - 1 {
                net.add_arc(first_copy[v] + k, first_copy[v] + k + 1, unbounded);
            }
        }

        // Interaction arcs.
        let mut interaction_arcs = 0usize;
        let mut skipped = 0usize;
        for edge in graph.edges() {
            if edge.src == sink || edge.dst == source {
                // Outgoing interactions of the sink and incoming interactions
                // of the source cannot contribute to the s-t flow.
                skipped += edge.interactions.len();
                continue;
            }
            for inter in &edge.interactions {
                let cap = if inter.quantity.is_finite() {
                    inter.quantity
                } else {
                    unbounded
                };
                // Tail: the latest copy of the edge source strictly before t.
                let tail = if edge.src == source {
                    Some(src_node)
                } else {
                    let list = &arrivals[edge.src.index()];
                    match list.partition_point(|&at| at < inter.time) {
                        0 => None, // nothing can have arrived yet
                        k => Some(first_copy[edge.src.index()] + (k - 1)),
                    }
                };
                let Some(tail) = tail else {
                    skipped += 1;
                    continue;
                };
                // Head: the copy of the destination at exactly t.
                let head = if edge.dst == sink {
                    sink_node
                } else {
                    let list = &arrivals[edge.dst.index()];
                    let k = list.partition_point(|&at| at < inter.time);
                    debug_assert!(k < list.len() && list[k] == inter.time);
                    first_copy[edge.dst.index()] + k
                };
                net.add_arc(tail, head, cap);
                interaction_arcs += 1;
            }
        }

        TimeExpandedNetwork {
            network: net,
            source: src_node,
            sink: sink_node,
            copy_count,
            interaction_arcs,
            skipped_interactions: skipped,
            unbounded_capacity: unbounded,
        }
    }

    /// Solves the static max-flow problem with Dinic's algorithm and returns
    /// the maximum temporal flow value.
    pub fn max_flow(&mut self) -> Quantity {
        let TimeExpandedNetwork {
            network,
            source,
            sink,
            ..
        } = self;
        dinic(network, *source, *sink)
    }
}

/// Convenience wrapper: builds the time-expanded network and returns the
/// maximum flow from `source` to `sink` in `graph`.
pub fn time_expanded_max_flow(graph: &TemporalGraph, source: NodeId, sink: NodeId) -> Quantity {
    TimeExpandedNetwork::build(graph, source, sink).max_flow()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tin_graph::GraphBuilder;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// Figure 3 of the paper: greedy yields 1 but the maximum flow is 5.
    fn figure3() -> (TemporalGraph, NodeId, NodeId) {
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
        (b.build(), s, t)
    }

    /// Figure 1(a) of the paper: maximum flow from s to t is 5.
    fn figure1() -> (TemporalGraph, NodeId, NodeId) {
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
        (b.build(), s, t)
    }

    #[test]
    fn figure3_maximum_flow_is_five() {
        let (g, s, t) = figure3();
        assert_close(time_expanded_max_flow(&g, s, t), 5.0);
    }

    #[test]
    fn figure1_maximum_flow_is_five() {
        let (g, s, t) = figure1();
        assert_close(time_expanded_max_flow(&g, s, t), 5.0);
    }

    #[test]
    fn strict_precedence_blocks_same_timestamp_relay() {
        // y receives at time 3 and tries to forward at time 3: nothing may
        // move because forwarding requires strictly earlier arrival.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let y = b.add_node("y");
        let t = b.add_node("t");
        b.add_pairs(s, y, &[(3, 4.0)]).unwrap();
        b.add_pairs(y, t, &[(3, 4.0)]).unwrap();
        let g = b.build();
        assert_close(time_expanded_max_flow(&g, s, t), 0.0);
    }

    #[test]
    fn chain_bottleneck() {
        // s -> a -> t where a forwards later than it receives.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(1, 10.0)]).unwrap();
        b.add_pairs(a, t, &[(2, 3.0), (4, 2.0)]).unwrap();
        let g = b.build();
        assert_close(time_expanded_max_flow(&g, s, t), 5.0);
    }

    #[test]
    fn out_of_order_interactions_cannot_be_used() {
        // The forwarding interaction happens before anything has arrived.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(5, 10.0)]).unwrap();
        b.add_pairs(a, t, &[(2, 3.0)]).unwrap();
        let g = b.build();
        let mut te = TimeExpandedNetwork::build(&g, s, t);
        assert_eq!(te.skipped_interactions, 1);
        assert_close(te.max_flow(), 0.0);
    }

    #[test]
    fn reservation_beats_greedy() {
        // The structure from Table 3: holding quantity back at y lets more
        // reach the sink than greedy forwarding.
        let (g, s, t) = figure3();
        let mut te = TimeExpandedNetwork::build(&g, s, t);
        assert!(te.copy_count >= 3);
        assert_close(te.max_flow(), 5.0);
    }

    #[test]
    fn unbounded_interactions_are_capped_but_do_not_limit() {
        // Synthetic-source style edge with infinite quantity followed by a
        // finite edge: the answer is the finite quantity.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_interaction(s, a, tin_graph::Interaction::new(i64::MIN, f64::INFINITY))
            .unwrap();
        b.add_pairs(a, t, &[(10, 7.0)]).unwrap();
        let g = b.build();
        assert_close(time_expanded_max_flow(&g, s, t), 7.0);
    }

    #[test]
    fn multiple_interactions_per_edge() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let c = b.add_node("c");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(1, 2.0), (3, 2.0), (5, 2.0)]).unwrap();
        b.add_pairs(a, c, &[(2, 1.0), (4, 3.0), (6, 3.0)]).unwrap();
        b.add_pairs(c, t, &[(7, 10.0)]).unwrap();
        let g = b.build();
        // a receives 2/2/2; can forward min cumulative: at time 2 ≤2 cap1 ->1,
        // time 4: arrived 4, already sent 1, cap 3 -> 3, time 6: arrived 6,
        // sent 4, cap 3 -> 2. Total into c = 6, all forwarded at 7.
        assert_close(time_expanded_max_flow(&g, s, t), 6.0);
    }

    #[test]
    fn empty_graph_and_trivial_cases() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let t = b.add_node("t");
        let g = b.build();
        assert_close(time_expanded_max_flow(&g, s, t), 0.0);

        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let t = b.add_node("t");
        b.add_pairs(s, t, &[(1, 4.0), (9, 2.5)]).unwrap();
        let g = b.build();
        assert_close(time_expanded_max_flow(&g, s, t), 6.5);
    }

    #[test]
    fn huge_quantities_keep_the_stand_in_finite() {
        // The finite quantities sum to ∞; the holdover arc still needs a
        // finite capacity.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let v = b.add_node("v");
        let t = b.add_node("t");
        b.add_pairs(s, v, &[(1, 1e308), (2, 1e308)]).unwrap();
        b.add_pairs(v, t, &[(3, 1e308)]).unwrap();
        let g = b.build();
        assert_eq!(
            TimeExpandedNetwork::build(&g, s, t).unbounded_capacity,
            f64::MAX
        );
        assert_eq!(time_expanded_max_flow(&g, s, t), 1e308);
    }

    #[test]
    fn construction_statistics_are_reported() {
        let (g, s, t) = figure1();
        let te = TimeExpandedNetwork::build(&g, s, t);
        // x has 2 arrivals, y 1, z 2 => 5 copies.
        assert_eq!(te.copy_count, 5);
        assert!(te.interaction_arcs <= g.interaction_count());
        assert!(te.unbounded_capacity > 0.0);
    }
}
