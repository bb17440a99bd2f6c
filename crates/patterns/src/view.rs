//! [`TableView`]: the read interface the path-table builder and maintainer
//! need from a graph.
//!
//! The chain kernel only ever reads a graph through a handful of
//! pair-oriented queries — "the interactions from `u` to `v`", "the live
//! out-pairs of `u`", "the sources feeding `u`". Abstracting those behind a
//! trait lets [`crate::tables`] build and incrementally maintain tables over
//! either representation:
//!
//! * [`tin_graph::TemporalGraph`] — the serial graph, served straight from
//!   its adjacency lists with no allocation;
//! * [`tin_graph::ShardedGraph`] — the vertex-partitioned parallel graph,
//!   served through its cross-shard routing layer.
//!
//! Table content is a pure function of the per-pair interaction sequences
//! (rows are sorted by vertex sequence before they are published, and every
//! delivered profile is computed from the pair slices alone), so any two
//! views that agree on those sequences yield row-identical tables — the
//! iteration *order* of [`TableView::for_each_out`] and
//! [`TableView::for_each_in_source`] never shows in the output. That is the
//! keystone of the shard-equivalence guarantee.

use tin_graph::{EdgeId, Interaction, NodeId, ShardedGraph, TemporalGraph};

/// Read access to a temporal graph, as needed by the path-table builder and
/// its incremental maintenance. See the [module docs](self) for why table
/// content only depends on the pair sequences this trait exposes.
///
/// `Sync` is a supertrait because eager builds fan anchors out over the
/// worker pool with the view shared by reference.
pub trait TableView: Sync {
    /// Number of vertices (dense ids `0..node_count`).
    fn node_count(&self) -> usize;

    /// The chronologically sorted interactions of the live edge
    /// `src → dst`, or `None` when no such live edge exists.
    fn pair(&self, src: NodeId, dst: NodeId) -> Option<&[Interaction]>;

    /// Whether a live edge `src → dst` exists (no interaction access).
    fn has_pair(&self, src: NodeId, dst: NodeId) -> bool {
        self.pair(src, dst).is_some()
    }

    /// The (global) endpoints of edge `id` — valid for tombstoned ids too,
    /// which is what makes eviction-invalidated row groups addressable.
    fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId);

    /// Calls `f(dst, interactions)` for every live out-edge of `u`, in any
    /// order, stopping early when `f` returns `false`.
    fn for_each_out(&self, u: NodeId, f: &mut dyn FnMut(NodeId, &[Interaction]) -> bool);

    /// Calls `f(src)` for the source of every live in-edge of `u`, in any
    /// order (at most once per source: edges are unique per pair).
    fn for_each_in_source(&self, u: NodeId, f: &mut dyn FnMut(NodeId));

    /// Number of live out-edges of `u` — what [`TableView::for_each_out`]
    /// visits.
    fn out_degree(&self, u: NodeId) -> usize;

    /// Number of live in-edges of `u` — what
    /// [`TableView::for_each_in_source`] visits.
    fn in_degree(&self, u: NodeId) -> usize;
}

impl TableView for TemporalGraph {
    fn node_count(&self) -> usize {
        TemporalGraph::node_count(self)
    }

    fn pair(&self, src: NodeId, dst: NodeId) -> Option<&[Interaction]> {
        self.find_edge(src, dst)
            .map(|e| self.edge(e).interactions.as_slice())
    }

    fn has_pair(&self, src: NodeId, dst: NodeId) -> bool {
        self.has_edge(src, dst)
    }

    fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let edge = self.edge(id);
        (edge.src, edge.dst)
    }

    fn for_each_out(&self, u: NodeId, f: &mut dyn FnMut(NodeId, &[Interaction]) -> bool) {
        for &e in self.out_edges(u) {
            let edge = self.edge(e);
            if !f(edge.dst, edge.interactions.as_slice()) {
                return;
            }
        }
    }

    fn for_each_in_source(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        for src in self.in_neighbors(u) {
            f(src);
        }
    }

    fn out_degree(&self, u: NodeId) -> usize {
        TemporalGraph::out_degree(self, u)
    }

    fn in_degree(&self, u: NodeId) -> usize {
        TemporalGraph::in_degree(self, u)
    }
}

impl TableView for ShardedGraph {
    fn node_count(&self) -> usize {
        ShardedGraph::node_count(self)
    }

    fn pair(&self, src: NodeId, dst: NodeId) -> Option<&[Interaction]> {
        self.pair_interactions(src, dst)
    }

    fn has_pair(&self, src: NodeId, dst: NodeId) -> bool {
        self.has_edge(src, dst)
    }

    fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        ShardedGraph::endpoints(self, id)
    }

    fn for_each_out(&self, u: NodeId, f: &mut dyn FnMut(NodeId, &[Interaction]) -> bool) {
        for (_, dst, interactions) in self.out_pairs(u) {
            if !f(dst, interactions) {
                return;
            }
        }
    }

    fn for_each_in_source(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        for src in self.in_sources(u) {
            f(src);
        }
    }

    fn out_degree(&self, u: NodeId) -> usize {
        ShardedGraph::out_degree(self, u)
    }

    fn in_degree(&self, u: NodeId) -> usize {
        ShardedGraph::in_degree(self, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tin_graph::builder::from_records;
    use tin_graph::GraphBuilder;

    fn views() -> (TemporalGraph, ShardedGraph) {
        let records = [
            ("a", "b", 1, 5.0),
            ("b", "a", 2, 3.0),
            ("b", "c", 3, 4.0),
            ("c", "a", 4, 2.0),
            ("a", "c", 5, 1.0),
        ];
        let serial = from_records(records);
        let mut b = GraphBuilder::new();
        for (s, d, t, q) in records {
            let s = b.get_or_add_node(s);
            let d = b.get_or_add_node(d);
            b.add_interaction(s, d, tin_graph::Interaction::new(t, q))
                .unwrap();
        }
        let delta = b.drain_delta();
        let mut sharded = ShardedGraph::new(3);
        sharded.apply(&delta).unwrap();
        (serial, sharded)
    }

    #[test]
    fn serial_and_sharded_views_agree_on_pair_queries() {
        let (serial, sharded) = views();
        assert_eq!(
            TableView::node_count(&serial),
            TableView::node_count(&sharded)
        );
        for u in 0..serial.node_count() {
            let u = NodeId::from_index(u);
            for v in 0..serial.node_count() {
                let v = NodeId::from_index(v);
                assert_eq!(
                    TableView::pair(&serial, u, v),
                    TableView::pair(&sharded, u, v)
                );
                assert_eq!(
                    TableView::has_pair(&serial, u, v),
                    TableView::has_pair(&sharded, u, v)
                );
            }
            let collect_out = |g: &dyn TableView| {
                let mut out: Vec<(NodeId, Vec<Interaction>)> = Vec::new();
                g.for_each_out(u, &mut |dst, ints| {
                    out.push((dst, ints.to_vec()));
                    true
                });
                out.sort_by_key(|(d, _)| *d);
                out
            };
            assert_eq!(collect_out(&serial), collect_out(&sharded));
            let collect_in = |g: &dyn TableView| {
                let mut srcs: Vec<NodeId> = Vec::new();
                g.for_each_in_source(u, &mut |s| srcs.push(s));
                srcs.sort();
                srcs
            };
            assert_eq!(collect_in(&serial), collect_in(&sharded));
            assert_eq!(
                TableView::out_degree(&serial, u),
                TableView::out_degree(&sharded, u)
            );
            assert_eq!(
                TableView::in_degree(&serial, u),
                TableView::in_degree(&sharded, u)
            );
        }
    }
}
