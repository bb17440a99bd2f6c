//! Graph simplification — Algorithm 2 / Lemma 3 of the paper (Section 4.2.4).
//!
//! Any chain `s → v₁ → … → v_k` rooted at the flow source whose intermediate
//! vertices have in- and out-degree 1 can be contracted to a single edge
//! `(s, v_k)` without changing the maximum flow: reserving quantity at the
//! source or at the intermediate vertices can never help, so the quantity
//! reaching `v_k` through the chain at any time is exactly what the greedy
//! scan delivers. The interactions of the replacement edge are the positive
//! greedy transfers into `v_k`.
//!
//! Contracting a chain can create parallel `(s, v_k)` edges — they are merged
//! — and the merge can expose a longer chain (Figure 7), so the procedure
//! iterates until no source-rooted chain remains. Each contraction removes at
//! least one vertex, so the loop terminates after at most `V` iterations and
//! the total work is linear in the number of interactions removed.
//!
//! The contraction runs on the crate's flat flow DAG (`reduce.rs`): it
//! kills the chain's edges and intermediate vertices, replays the greedy
//! scan on the chain's interaction slices, sorts the transfers into the
//! terminal chronologically and merges them into `(s, v_k)`. Chains are
//! contracted smallest start vertex first.

use crate::reduce::FlatDag;
use tin_graph::{NodeId, TemporalGraph};

/// Counters describing the effect of graph simplification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyReport {
    /// Number of source-rooted chains contracted.
    pub chains_contracted: usize,
    /// Intermediate vertices removed by the contractions.
    pub nodes_removed: usize,
    /// Interactions in the graph before simplification.
    pub interactions_before: usize,
    /// Interactions in the graph after simplification.
    pub interactions_after: usize,
    /// Edges in the graph before simplification.
    pub edges_before: usize,
    /// Edges in the graph after simplification.
    pub edges_after: usize,
}

/// Result of simplifying a flow DAG.
#[derive(Debug, Clone)]
pub struct SimplifyOutcome {
    /// The simplified graph (vertices renumbered densely).
    pub graph: TemporalGraph,
    /// The source vertex in the simplified graph.
    pub source: NodeId,
    /// The sink vertex in the simplified graph.
    pub sink: NodeId,
    /// Contraction statistics.
    pub report: SimplifyReport,
}

/// Runs Algorithm 2 on `graph` with flow endpoints `source` and `sink`.
///
/// The graph is expected to be a DAG (as produced by
/// [`crate::preprocess::preprocess`]); source-rooted cycles are simply never
/// contracted. The source and sink always survive simplification.
pub fn simplify(graph: &TemporalGraph, source: NodeId, sink: NodeId) -> SimplifyOutcome {
    let mut dag = FlatDag::new(graph, source, sink);
    let report = dag.simplify();
    let (graph, source, sink) = dag.into_graph();
    SimplifyOutcome {
        graph,
        source,
        sink,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_flow;
    use tin_graph::GraphBuilder;
    use tin_maxflow::time_expanded_max_flow;

    /// Figure 5(a): the chain s → x → y → t with 7 interactions.
    fn figure5a() -> (TemporalGraph, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let x = b.add_node("x");
        let y = b.add_node("y");
        let t = b.add_node("t");
        b.add_pairs(s, x, &[(1, 5.0), (4, 3.0), (5, 2.0)]).unwrap();
        b.add_pairs(x, y, &[(3, 3.0), (7, 4.0)]).unwrap();
        b.add_pairs(y, t, &[(6, 3.0), (8, 6.0)]).unwrap();
        (b.build(), s, t)
    }

    #[test]
    fn figure5a_chain_reduces_to_single_edge() {
        let (g, s, t) = figure5a();
        let out = simplify(&g, s, t);
        assert_eq!(out.graph.node_count(), 2);
        assert_eq!(out.graph.edge_count(), 1);
        assert_eq!(out.report.chains_contracted, 1);
        assert_eq!(out.report.nodes_removed, 2);
        let e = out
            .graph
            .edge(out.graph.find_edge(out.source, out.sink).unwrap());
        // The paper reduces this chain to the edge (s, t) with interactions
        // {(6,3), (8,4)}.
        let pairs: Vec<(i64, f64)> = e
            .interactions
            .iter()
            .map(|i| (i.time, i.quantity))
            .collect();
        assert_eq!(pairs, vec![(6, 3.0), (8, 4.0)]);
    }

    /// Figure 7(a): the running simplification example of the paper.
    fn figure7() -> (TemporalGraph, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let y = b.add_node("y");
        let x = b.add_node("x");
        let z = b.add_node("z");
        let w = b.add_node("w");
        let u = b.add_node("u");
        let t = b.add_node("t");
        b.add_pairs(s, y, &[(1, 2.0), (4, 3.0), (5, 2.0)]).unwrap();
        b.add_pairs(y, z, &[(3, 3.0), (7, 1.0)]).unwrap();
        b.add_pairs(z, w, &[(6, 3.0), (8, 6.0)]).unwrap();
        b.add_pairs(s, x, &[(9, 2.0), (12, 5.0)]).unwrap();
        b.add_pairs(x, w, &[(10, 3.0), (14, 4.0)]).unwrap();
        b.add_pairs(s, z, &[(2, 5.0), (11, 2.0)]).unwrap();
        b.add_pairs(w, t, &[(15, 7.0)]).unwrap();
        b.add_pairs(w, u, &[(13, 5.0)]).unwrap();
        b.add_pairs(u, t, &[(16, 6.0)]).unwrap();
        (b.build(), s, t)
    }

    #[test]
    fn figure7_simplification_matches_the_paper() {
        let (g, s, t) = figure7();
        let before_vars = g.interaction_count();
        let out = simplify(&g, s, t);
        // Chains s→y→z and s→x→w are contracted, the parallel (s, z) edges
        // are merged, which exposes the chain s→z→w; after all contractions
        // only s, w, u and t remain (Figure 7(d)).
        assert!(out.graph.node_by_name("y").is_none());
        assert!(out.graph.node_by_name("x").is_none());
        assert!(out.graph.node_by_name("z").is_none());
        assert!(out.graph.node_by_name("w").is_some());
        assert_eq!(out.graph.node_count(), 4);
        assert_eq!(out.report.chains_contracted, 3);
        assert!(out.graph.interaction_count() < before_vars);
        // The contracted (s, w) edge carries exactly the interactions shown
        // in Figure 7(d): (6,3), (8,5), (10,2), (14,4).
        let w_id = out.graph.node_by_name("w").unwrap();
        let sw = out
            .graph
            .edge(out.graph.find_edge(out.source, w_id).unwrap());
        let pairs: Vec<(i64, f64)> = sw
            .interactions
            .iter()
            .map(|i| (i.time, i.quantity))
            .collect();
        assert_eq!(pairs, vec![(6, 3.0), (8, 5.0), (10, 2.0), (14, 4.0)]);
        // Only three interactions do not originate from the source — the
        // paper's "9 LP variables reduced to 3".
        let non_source: usize = out
            .graph
            .edges()
            .iter()
            .filter(|e| e.src != out.source)
            .map(|e| e.interactions.len())
            .sum();
        assert_eq!(non_source, 3);
        // The maximum flow is unchanged.
        let before = time_expanded_max_flow(&g, s, t);
        let after = time_expanded_max_flow(&out.graph, out.source, out.sink);
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn simplification_preserves_greedy_and_maximum_flow_on_figure5a() {
        let (g, s, t) = figure5a();
        let out = simplify(&g, s, t);
        let before_greedy = greedy_flow(&g, s, t).flow;
        let after_greedy = greedy_flow(&out.graph, out.source, out.sink).flow;
        assert_eq!(before_greedy, after_greedy);
        let before_max = time_expanded_max_flow(&g, s, t);
        let after_max = time_expanded_max_flow(&out.graph, out.source, out.sink);
        assert!((before_max - after_max).abs() < 1e-9);
    }

    #[test]
    fn graphs_without_source_chains_are_untouched() {
        // Figure 3: both successors of the source have out-degree 2 or are
        // reached by several edges; nothing can be contracted.
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
        let g = b.build();
        let out = simplify(&g, s, t);
        assert_eq!(out.report.chains_contracted, 0);
        assert_eq!(out.graph.node_count(), 4);
        assert_eq!(out.graph.edge_count(), 5);
    }

    #[test]
    fn whole_chain_graph_collapses_to_one_edge() {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..6).map(|i| b.add_node(format!("v{i}"))).collect();
        for (i, w) in ids.windows(2).enumerate() {
            b.add_pairs(w[0], w[1], &[(i as i64 + 1, 10.0 - i as f64)])
                .unwrap();
        }
        let g = b.build();
        let out = simplify(&g, ids[0], ids[5]);
        assert_eq!(out.graph.node_count(), 2);
        assert_eq!(out.graph.edge_count(), 1);
        let flow_before = greedy_flow(&g, ids[0], ids[5]).flow;
        let flow_after = greedy_flow(&out.graph, out.source, out.sink).flow;
        assert_eq!(flow_before, flow_after);
    }

    #[test]
    fn chain_that_delivers_nothing_is_removed_without_new_edge() {
        // The chain's second edge fires before the first: nothing reaches z
        // through a, so the contraction of s→a→z produces no replacement
        // interactions; the remaining chain s→z→t is then contracted too.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let z = b.add_node("z");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(10, 5.0)]).unwrap();
        b.add_pairs(a, z, &[(1, 5.0)]).unwrap();
        b.add_pairs(s, z, &[(2, 1.0)]).unwrap();
        b.add_pairs(z, t, &[(20, 9.0)]).unwrap();
        let g = b.build();
        let out = simplify(&g, s, t);
        assert!(out.graph.node_by_name("a").is_none());
        assert!(out.graph.node_by_name("z").is_none());
        assert_eq!(out.graph.node_count(), 2);
        assert_eq!(out.report.chains_contracted, 2);
        // Everything collapses to a single (s, t) edge carrying the one unit
        // that the direct (s, z) interaction could deliver onwards at time 20.
        let e = out
            .graph
            .edge(out.graph.find_edge(out.source, out.sink).unwrap());
        let pairs: Vec<(i64, f64)> = e
            .interactions
            .iter()
            .map(|i| (i.time, i.quantity))
            .collect();
        assert_eq!(pairs, vec![(20, 1.0)]);
        // The maximum flow is preserved.
        assert!((time_expanded_max_flow(&g, s, t) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merged_parallel_edges_are_chronologically_sorted() {
        let (g, s, t) = figure7();
        let out = simplify(&g, s, t);
        for e in out.graph.edges() {
            assert!(tin_graph::interaction::is_chronological(&e.interactions));
        }
        out.graph.validate().unwrap();
    }

    #[test]
    fn two_vertex_graph_is_a_fixed_point() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let t = b.add_node("t");
        b.add_pairs(s, t, &[(1, 3.0)]).unwrap();
        let g = b.build();
        let out = simplify(&g, s, t);
        assert_eq!(out.report.chains_contracted, 0);
        assert_eq!(out.graph.edge_count(), 1);
    }
}
