//! DAG preprocessing — Algorithm 1 of the paper (Section 4.2.3).
//!
//! Before formulating the LP, interactions that provably cannot carry any
//! flow are removed: an interaction leaving vertex `v` at time `t` is useless
//! if `t` is smaller than the earliest timestamp at which anything can enter
//! `v`. Removing interactions may empty edges; removing edges may disconnect
//! vertices from the source side (no incoming edges) or the sink side (no
//! outgoing edges), which triggers further removals — downstream removals are
//! handled when the affected vertex is reached in topological order, upstream
//! removals cascade through predecessors that lose their last outgoing
//! edge. The cascade stops at both flow endpoints: the source keeps its
//! unbounded supply, and the sink absorbs whatever arrives, so losing its
//! own out-edges never makes it useless.
//!
//! The algorithm runs on the crate's flat flow DAG (`reduce.rs`), which
//! skips the tombstoned edge slots of a windowed graph, computes the
//! topological order while it is built (Kahn's algorithm over its CSR) and
//! trims an edge by moving the start of the input range it reads. A
//! cascade only ever reaches vertices already visited, so the DAG runs it
//! as one backward pass in reverse topological order after the forward
//! pass.
//!
//! The procedure is linear in the number of interactions and can shrink the
//! LP dramatically; it can even solve the instance outright (flow 0 when the
//! source or sink gets disconnected, or a Lemma 2 graph emerges).

use crate::reduce::FlatDag;
use tin_graph::{GraphError, NodeId, TemporalGraph};

/// Counters describing what preprocessing removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreprocessReport {
    /// Interactions removed because they precede any possible arrival at
    /// their source vertex.
    pub interactions_removed: usize,
    /// Edges removed (either emptied of interactions or incident to a
    /// removed vertex).
    pub edges_removed: usize,
    /// Vertices removed.
    pub nodes_removed: usize,
    /// Interactions remaining after preprocessing.
    pub interactions_remaining: usize,
    /// Edges remaining after preprocessing.
    pub edges_remaining: usize,
    /// Vertices remaining after preprocessing.
    pub nodes_remaining: usize,
}

/// Result of preprocessing a flow DAG.
#[derive(Debug, Clone)]
pub struct PreprocessOutcome {
    /// The reduced graph (vertices renumbered densely).
    pub graph: TemporalGraph,
    /// The source vertex in the reduced graph. Algorithm 1 never removes
    /// the flow endpoints, so this is always `Some`.
    pub source: Option<NodeId>,
    /// The sink vertex in the reduced graph (always `Some`, like the
    /// source).
    pub sink: Option<NodeId>,
    /// Removal statistics.
    pub report: PreprocessReport,
}

impl PreprocessOutcome {
    /// `true` when preprocessing already proved that the maximum flow is 0
    /// (the source or the sink became disconnected).
    pub fn is_zero_flow(&self) -> bool {
        match (self.source, self.sink) {
            (Some(s), Some(t)) => self.graph.out_degree(s) == 0 || self.graph.in_degree(t) == 0,
            _ => true,
        }
    }
}

/// Runs Algorithm 1 on `graph` with flow endpoints `source` and `sink`.
///
/// Returns an error if the graph is not a DAG (the algorithm relies on a
/// topological order).
pub fn preprocess(
    graph: &TemporalGraph,
    source: NodeId,
    sink: NodeId,
) -> Result<PreprocessOutcome, GraphError> {
    let mut dag = FlatDag::new(graph, source, sink);
    if !dag.is_dag() {
        return Err(GraphError::NotADag);
    }
    let report = dag.preprocess();
    let (graph, source, sink) = dag.into_graph();
    Ok(PreprocessOutcome {
        graph,
        source: Some(source),
        sink: Some(sink),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{compute_flow, FlowMethod};
    use tin_graph::GraphBuilder;

    /// The DAG G1 of Figure 6(a).
    fn figure6_g1() -> (TemporalGraph, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let x = b.add_node("x");
        let y = b.add_node("y");
        let z = b.add_node("z");
        let t = b.add_node("t");
        b.add_pairs(s, x, &[(5, 3.0), (8, 3.0)]).unwrap();
        b.add_pairs(s, z, &[(10, 5.0)]).unwrap();
        b.add_pairs(x, y, &[(2, 7.0), (12, 4.0)]).unwrap();
        b.add_pairs(x, z, &[(1, 2.0), (13, 1.0)]).unwrap();
        b.add_pairs(y, t, &[(3, 3.0), (15, 2.0)]).unwrap();
        b.add_pairs(z, t, &[(4, 2.0), (11, 4.0)]).unwrap();
        b.add_pairs(s, y, &[(9, 7.0)]).unwrap();
        (b.build(), s, t)
    }

    #[test]
    fn figure6_g1_preprocessing() {
        let (g, s, t) = figure6_g1();
        let out = preprocess(&g, s, t).unwrap();
        // Interactions (2,7), (1,2), (3,3) and (4,2) are removed — exactly
        // the four deletions walked through in the paper.
        assert_eq!(out.report.interactions_removed, 4);
        assert_eq!(out.report.edges_removed, 0);
        assert_eq!(out.report.nodes_removed, 0);
        assert_eq!(out.graph.node_count(), 5);
        assert_eq!(out.graph.edge_count(), 7);
        assert_eq!(out.graph.interaction_count(), g.interaction_count() - 4);
        assert!(!out.is_zero_flow());
        // The remaining interactions per edge match Figure 6(b).
        let gx = out.graph.node_by_name("x").unwrap();
        let gy = out.graph.node_by_name("y").unwrap();
        let gz = out.graph.node_by_name("z").unwrap();
        let gt = out.graph.node_by_name("t").unwrap();
        let times = |src, dst| -> Vec<i64> {
            out.graph
                .edge(out.graph.find_edge(src, dst).unwrap())
                .interactions
                .iter()
                .map(|i| i.time)
                .collect()
        };
        assert_eq!(times(gx, gy), vec![12]);
        assert_eq!(times(gx, gz), vec![13]);
        assert_eq!(times(gy, gt), vec![15]);
        assert_eq!(times(gz, gt), vec![11]);
    }

    /// The DAG G2 of Figure 6(c): preprocessing removes x and y entirely.
    fn figure6_g2() -> (TemporalGraph, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let x = b.add_node("x");
        let y = b.add_node("y");
        let z = b.add_node("z");
        let t = b.add_node("t");
        b.add_pairs(s, x, &[(5, 3.0), (8, 3.0)]).unwrap();
        b.add_pairs(s, z, &[(10, 5.0)]).unwrap();
        b.add_pairs(x, y, &[(3, 4.0)]).unwrap();
        b.add_pairs(y, t, &[(2, 7.0), (12, 4.0)]).unwrap();
        b.add_pairs(y, z, &[(1, 2.0), (13, 1.0)]).unwrap();
        b.add_pairs(z, t, &[(4, 2.0), (11, 4.0)]).unwrap();
        (b.build(), s, t)
    }

    #[test]
    fn figure6_g2_preprocessing_removes_vertices() {
        let (g, s, t) = figure6_g2();
        let out = preprocess(&g, s, t).unwrap();
        // x's only outgoing interaction (3,4) precedes its earliest arrival
        // (5), so edge (x,y) disappears, then x (no outgoing) and y (no
        // incoming) are removed along with their edges.
        assert!(out.graph.node_by_name("x").is_none());
        assert!(out.graph.node_by_name("y").is_none());
        assert_eq!(out.graph.node_count(), 3);
        assert_eq!(out.report.nodes_removed, 2);
        assert!(!out.is_zero_flow());
        // Remaining structure: s->z (10,5), z->t (11,4).
        let gs = out.source.unwrap();
        let gz = out.graph.node_by_name("z").unwrap();
        let gt = out.sink.unwrap();
        assert_eq!(out.graph.edge_count(), 2);
        assert!(out.graph.has_edge(gs, gz));
        assert!(out.graph.has_edge(gz, gt));
        let zt = out.graph.edge(out.graph.find_edge(gz, gt).unwrap());
        assert_eq!(zt.interactions.len(), 1);
        assert_eq!(zt.interactions[0].time, 11);
    }

    #[test]
    fn no_op_on_already_clean_graphs() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(1, 5.0)]).unwrap();
        b.add_pairs(a, t, &[(2, 5.0)]).unwrap();
        let g = b.build();
        let out = preprocess(&g, s, t).unwrap();
        assert_eq!(out.report.interactions_removed, 0);
        assert_eq!(out.report.nodes_removed, 0);
        assert_eq!(out.graph.interaction_count(), 2);
        assert!(!out.is_zero_flow());
    }

    #[test]
    fn zero_flow_when_everything_is_too_early() {
        // The middle vertex forwards before it can receive: the whole path
        // collapses and the sink becomes unreachable.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(10, 5.0)]).unwrap();
        b.add_pairs(a, t, &[(2, 5.0)]).unwrap();
        let g = b.build();
        let out = preprocess(&g, s, t).unwrap();
        assert!(out.is_zero_flow());
    }

    #[test]
    fn unreachable_branch_is_pruned() {
        // u has no incoming edges (and is not the source): it is removed.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let u = b.add_node("u");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(1, 5.0)]).unwrap();
        b.add_pairs(a, t, &[(3, 5.0)]).unwrap();
        b.add_pairs(u, a, &[(2, 9.0)]).unwrap();
        let g = b.build();
        let out = preprocess(&g, s, t).unwrap();
        assert!(out.graph.node_by_name("u").is_none());
        assert_eq!(out.report.nodes_removed, 1);
        assert_eq!(out.report.edges_removed, 1);
        assert!(!out.is_zero_flow());
    }

    #[test]
    fn dead_end_branch_cascades_upstream() {
        // s -> a -> b -> c where c's only outgoing interaction precedes any
        // arrival; c dies, then b, then a — but only because none of them has
        // another outgoing edge. The direct edge s -> t keeps the flow alive.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let bb = b.add_node("b");
        let c = b.add_node("c");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(1, 5.0)]).unwrap();
        b.add_pairs(a, bb, &[(2, 5.0)]).unwrap();
        b.add_pairs(bb, c, &[(3, 5.0)]).unwrap();
        b.add_pairs(c, t, &[(1, 5.0)]).unwrap();
        b.add_pairs(s, t, &[(9, 2.0)]).unwrap();
        let g = b.build();
        let out = preprocess(&g, s, t).unwrap();
        assert_eq!(out.report.nodes_removed, 3);
        assert_eq!(out.graph.node_count(), 2);
        assert_eq!(out.graph.edge_count(), 1);
        assert!(!out.is_zero_flow());
    }

    #[test]
    fn cyclic_graphs_are_rejected() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.add_pairs(a, c, &[(1, 1.0)]).unwrap();
        b.add_pairs(c, a, &[(2, 1.0)]).unwrap();
        let g = b.build();
        assert_eq!(preprocess(&g, a, c).unwrap_err(), GraphError::NotADag);
    }

    #[test]
    fn preprocessing_preserves_maximum_flow() {
        use tin_maxflow::time_expanded_max_flow;
        let (g, s, t) = figure6_g1();
        let before = time_expanded_max_flow(&g, s, t);
        let out = preprocess(&g, s, t).unwrap();
        let after = time_expanded_max_flow(&out.graph, out.source.unwrap(), out.sink.unwrap());
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn sink_survives_losing_its_out_edges() {
        // t's only out-edge leads to a dead end, which the upstream cascade
        // removes; the cascade must stop at the sink instead of deleting it
        // and reporting a zero flow.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let t = b.add_node("t");
        let v = b.add_node("v");
        b.add_pairs(s, t, &[(1, 5.0)]).unwrap();
        b.add_pairs(t, v, &[(2, 1.0)]).unwrap();
        let g = b.build();
        let out = preprocess(&g, s, t).unwrap();
        assert!(!out.is_zero_flow());
        assert_eq!(out.graph.node(out.sink.unwrap()).name, "t");
        assert!(out.graph.node_by_name("v").is_none());
        assert_eq!(out.report.nodes_removed, 1);
        assert_eq!(out.report.edges_removed, 1);
        for method in [
            FlowMethod::Lp,
            FlowMethod::Pre,
            FlowMethod::PreSim,
            FlowMethod::TimeExpanded,
        ] {
            assert_eq!(
                compute_flow(&g, s, t, method).unwrap().flow,
                5.0,
                "{method}"
            );
        }
    }

    #[test]
    fn source_interactions_are_never_trimmed() {
        // Interactions leaving the source keep their full sequence even when
        // their timestamps precede everything else.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(1, 5.0)]).unwrap();
        b.add_pairs(a, t, &[(2, 4.0)]).unwrap();
        b.add_pairs(s, t, &[(0, 1.0)]).unwrap();
        let g = b.build();
        let out = preprocess(&g, s, t).unwrap();
        let gs = out.source.unwrap();
        let gt = out.sink.unwrap();
        let st = out.graph.edge(out.graph.find_edge(gs, gt).unwrap());
        assert_eq!(st.interactions.len(), 1);
        assert_eq!(st.interactions[0].time, 0);
    }
}
