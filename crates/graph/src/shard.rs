//! [`ShardedGraph`]: K vertex-partitioned [`TemporalGraph`] shards behind a
//! routing layer, with results provably identical to the serial path.
//!
//! ## Partitioning
//!
//! Every edge `(u, v)` is owned by the shard of its **minimum endpoint**:
//! `owner(u, v) = min(u, v) % K`. The partition function is a pure function
//! of global vertex ids, so routing is deterministic and needs no lookup
//! tables. A vertex incident to edges owned by several shards gets a local
//! *replica* node in each of them (created lazily, on the first interaction
//! routed there); the replicas share the global vertex's name and are tied
//! together by the router's global↔local id maps.
//!
//! ## Id stability
//!
//! Global [`NodeId`]s are assigned exactly as the serial path assigns them
//! (new vertices append in delta order). Global [`EdgeId`]s are assigned *at
//! routing time*, in first-appearance order of new `(src, dst)` pairs over
//! the delta's interaction sequence — the same order in which
//! [`TemporalGraph::apply`] discovers them — so a [`ShardedGraph`] and a
//! serial [`TemporalGraph`] fed the same deltas agree on every identifier.
//! Each global edge id maps to a `(shard, local edge)` slot; like the serial
//! path, tombstoned ids are never reused and a revived pair gets a fresh
//! global id.
//!
//! ## Parallel application
//!
//! [`ShardedGraph::apply`] splits one [`GraphDelta`] into at most K
//! shard-local deltas (routing on the calling thread: it is a cheap linear
//! scan), applies them on the [`tin_parallel`] pool — each shard is an
//! independent `TemporalGraph`, so shard applications share nothing — and
//! translates the per-shard [`AppliedDelta`]s back into one global report.
//! An expiry frontier is broadcast to every shard, so sliding-window
//! eviction (including tombstoning) happens shard-locally; shard frontiers
//! therefore all equal the global frontier and stragglers behind the
//! standing window die in-shard exactly as they do serially.
//!
//! In the global [`AppliedDelta`], `new_edges` (first-appearance order) and
//! `touched_edges` (first-touch order) are byte-identical to the serial
//! report; `shrunk_edges` / `removed_edges` contain the same id *sets* but
//! sorted ascending, because per-shard eviction order cannot reproduce the
//! serial heap's pop order (consumers treat them as sets — see
//! [`AppliedDelta::changed_edges`]).
//!
//! The equivalence is pinned down by [`ShardedGraph::first_divergence`] and
//! the `shard_equivalence` proptests.

use crate::delta::{AppliedDelta, GraphDelta};
use crate::error::GraphError;
use crate::graph::{Node, TemporalGraph};
use crate::ids::{EdgeId, NodeId, Time};
use crate::interaction::Interaction;
use std::collections::{HashMap, HashSet};
use tin_parallel::parallel_map_mut;

/// Where a global edge lives: its owning shard, its local id there, and its
/// (global) endpoints. Endpoints are kept here so tombstoned edges stay
/// interpretable without touching the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EdgeLoc {
    shard: u32,
    local: EdgeId,
    src: NodeId,
    dst: NodeId,
}

/// One shard: a local-id [`TemporalGraph`] plus the maps tying its local
/// ids to the router's global ones.
#[derive(Debug, Clone)]
struct Shard {
    graph: TemporalGraph,
    /// Global node id → local replica id in this shard.
    to_local: HashMap<NodeId, NodeId>,
    /// Local node id → global node id (inverse of `to_local`).
    node_globals: Vec<NodeId>,
    /// Local edge id → global edge id, in local creation order.
    edge_globals: Vec<EdgeId>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            graph: TemporalGraph::new(),
            to_local: HashMap::new(),
            node_globals: Vec::new(),
            edge_globals: Vec::new(),
        }
    }
}

/// Per-shard staging accumulated while routing one delta.
struct StagedShard {
    base_local_nodes: usize,
    new_nodes: Vec<Node>,
    interactions: Vec<(NodeId, NodeId, Interaction)>,
    /// Global ids assigned (in local creation order) to the edges this
    /// delta will create in the shard.
    new_edge_globals: Vec<EdgeId>,
}

/// A temporal graph partitioned into K vertex-owned [`TemporalGraph`]
/// shards that apply deltas in parallel. See the [module docs](self) for
/// the partition function, id stability and the equivalence argument.
#[derive(Debug, Clone)]
pub struct ShardedGraph {
    shards: Vec<Shard>,
    /// Global node table (names), covering every vertex incl. isolated ones.
    nodes: Vec<Node>,
    /// Global edge table: id → owning shard + local slot + endpoints.
    edges: Vec<EdgeLoc>,
    /// Live `(src, dst) → edge` lookup; tombstoned pairs are absent, like
    /// the serial `edge_index`.
    pair_index: HashMap<(NodeId, NodeId), EdgeId>,
    /// Expiry high-water mark, mirrored into every shard.
    frontier: Option<Time>,
}

impl ShardedGraph {
    /// Creates an empty graph of `shard_count` shards (clamped to ≥ 1).
    pub fn new(shard_count: usize) -> Self {
        ShardedGraph {
            shards: (0..shard_count.max(1)).map(|_| Shard::new()).collect(),
            nodes: Vec::new(),
            edges: Vec::new(),
            pair_index: HashMap::new(),
            frontier: None,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning edges of the vertex pair `(u, v)`.
    #[inline]
    fn owner(&self, u: NodeId, v: NodeId) -> usize {
        u.min(v).index() % self.shards.len()
    }

    /// Number of vertices (global).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of global edge slots, tombstones included (ids are never
    /// reused, exactly like [`TemporalGraph::edge_count`]).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of live (non-tombstoned) edges.
    #[inline]
    pub fn live_edge_count(&self) -> usize {
        self.pair_index.len()
    }

    /// Total number of interactions over all shards.
    pub fn interaction_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.graph.interaction_count())
            .sum()
    }

    /// The node table entry for a global id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The expiry high-water mark (see [`TemporalGraph::frontier`]).
    #[inline]
    pub fn frontier(&self) -> Option<Time> {
        self.frontier
    }

    /// Looks up the live edge from `src` to `dst`, if present.
    #[inline]
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.pair_index.get(&(src, dst)).copied()
    }

    /// Whether a live edge from `src` to `dst` exists.
    #[inline]
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.pair_index.contains_key(&(src, dst))
    }

    /// The (global) endpoints of edge `id`; valid for tombstones too.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let loc = self.edges[id.index()];
        (loc.src, loc.dst)
    }

    /// Whether edge `id` is a tombstone.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn is_tombstone(&self, id: EdgeId) -> bool {
        let loc = self.edges[id.index()];
        self.shards[loc.shard as usize]
            .graph
            .is_tombstone(loc.local)
    }

    /// The chronologically sorted interaction sequence of edge `id` (empty
    /// for tombstones).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn edge_interactions(&self, id: EdgeId) -> &[Interaction] {
        let loc = self.edges[id.index()];
        &self.shards[loc.shard as usize]
            .graph
            .edge(loc.local)
            .interactions
    }

    /// The interaction sequence of the live edge `src → dst`, if present.
    pub fn pair_interactions(&self, src: NodeId, dst: NodeId) -> Option<&[Interaction]> {
        self.find_edge(src, dst)
            .map(|id| self.edge_interactions(id))
    }

    /// The live out-edges of `u` across all shards, as
    /// `(global edge id, destination, interactions)`, sorted by edge id —
    /// the order the serial adjacency list would yield for the same graph.
    pub fn out_pairs(&self, u: NodeId) -> Vec<(EdgeId, NodeId, &[Interaction])> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let Some(&lu) = shard.to_local.get(&u) else {
                continue;
            };
            for &le in shard.graph.out_edges(lu) {
                let edge = shard.graph.edge(le);
                out.push((
                    shard.edge_globals[le.index()],
                    shard.node_globals[edge.dst.index()],
                    edge.interactions.as_slice(),
                ));
            }
        }
        out.sort_unstable_by_key(|&(id, _, _)| id);
        out
    }

    /// The sources of `u`'s live in-edges across all shards, sorted by the
    /// in-edge's global id — the order serial
    /// [`TemporalGraph::in_neighbors`] would yield.
    pub fn in_sources(&self, u: NodeId) -> Vec<NodeId> {
        let mut srcs: Vec<(EdgeId, NodeId)> = Vec::new();
        for shard in &self.shards {
            let Some(&lu) = shard.to_local.get(&u) else {
                continue;
            };
            for &le in shard.graph.in_edges(lu) {
                let edge = shard.graph.edge(le);
                srcs.push((
                    shard.edge_globals[le.index()],
                    shard.node_globals[edge.src.index()],
                ));
            }
        }
        srcs.sort_unstable_by_key(|&(id, _)| id);
        srcs.into_iter().map(|(_, src)| src).collect()
    }

    /// Number of live out-edges of `u` across all shards — the serial
    /// [`TemporalGraph::out_degree`]. Every edge lives in exactly one
    /// shard, so the replicas' local degrees add up; nothing is allocated.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.to_local.get(&u).map(|&lu| s.graph.out_degree(lu)))
            .sum()
    }

    /// Number of live in-edges of `u` across all shards — the serial
    /// [`TemporalGraph::in_degree`], summed like
    /// [`ShardedGraph::out_degree`].
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.shards
            .iter()
            .filter_map(|s| s.to_local.get(&u).map(|&lu| s.graph.in_degree(lu)))
            .sum()
    }

    /// Merges a delta into the sharded graph: routes it into at most K
    /// shard-local deltas, applies them in parallel, and reports one global
    /// [`AppliedDelta`] with the same ids the serial path would report (see
    /// the [module docs](self) for which orders are preserved).
    ///
    /// Fails exactly where [`TemporalGraph::apply`] fails — base vertex
    /// count mismatch or a regressing expiry frontier — leaving the graph
    /// unchanged.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<AppliedDelta, GraphError> {
        if delta.base_nodes() != self.nodes.len() {
            return Err(GraphError::Invalid {
                message: format!(
                    "delta was built against {} vertices but the graph has {} \
                     (deltas must be applied in drain order)",
                    delta.base_nodes(),
                    self.nodes.len()
                ),
            });
        }
        if let (Some(new), Some(current)) = (delta.expiry(), self.frontier) {
            if new < current {
                return Err(GraphError::Invalid {
                    message: format!(
                        "expiry frontier must be monotone: delta expires before {new} \
                         but the graph window already starts at {current}"
                    ),
                });
            }
        }

        let nodes_before = self.nodes.len();
        self.nodes.extend(delta.new_nodes().iter().cloned());

        // Route: walk the delta's interactions in order, assigning global
        // edge ids to new pairs in first-appearance order (serial-identical)
        // and staging each interaction on its owning shard under local ids.
        let mut staged: Vec<StagedShard> = self
            .shards
            .iter()
            .map(|s| StagedShard {
                base_local_nodes: s.graph.node_count(),
                new_nodes: Vec::new(),
                interactions: Vec::new(),
                new_edge_globals: Vec::new(),
            })
            .collect();
        let mut new_edges = Vec::new();
        let mut touched_edges = Vec::new();
        let mut touched_seen: HashSet<EdgeId> = HashSet::new();
        for &(u, v, i) in delta.interactions() {
            let gid = match self.pair_index.get(&(u, v)) {
                Some(&gid) => gid,
                None => {
                    let s = self.owner(u, v);
                    let local = EdgeId::from_index(
                        self.shards[s].graph.edge_count() + staged[s].new_edge_globals.len(),
                    );
                    let gid = EdgeId::from_index(self.edges.len());
                    self.edges.push(EdgeLoc {
                        shard: s as u32,
                        local,
                        src: u,
                        dst: v,
                    });
                    self.pair_index.insert((u, v), gid);
                    staged[s].new_edge_globals.push(gid);
                    new_edges.push(gid);
                    gid
                }
            };
            let s = self.edges[gid.index()].shard as usize;
            let lu = local_node(&mut self.shards[s], &mut staged[s], &self.nodes, u);
            let lv = local_node(&mut self.shards[s], &mut staged[s], &self.nodes, v);
            staged[s].interactions.push((lu, lv, i));
            if touched_seen.insert(gid) {
                touched_edges.push(gid);
            }
        }

        // Build shard deltas; an expiry frontier is broadcast to every
        // shard so windowed eviction happens shard-locally.
        let expire = delta.expiry();
        let mut new_edge_globals: Vec<Vec<EdgeId>> = Vec::with_capacity(staged.len());
        let shard_deltas: Vec<Option<GraphDelta>> = staged
            .into_iter()
            .map(|st| {
                new_edge_globals.push(st.new_edge_globals);
                if st.new_nodes.is_empty() && st.interactions.is_empty() && expire.is_none() {
                    return None;
                }
                let mut d = GraphDelta::from_validated_parts(
                    st.base_local_nodes,
                    st.new_nodes,
                    st.interactions,
                );
                if let Some(f) = expire {
                    d = d.expire_before(f);
                }
                Some(d)
            })
            .collect();

        // Apply shard deltas in parallel: each shard is an independent
        // TemporalGraph, so applications share nothing.
        let applieds: Vec<Option<AppliedDelta>> = parallel_map_mut(&mut self.shards, |i, shard| {
            shard_deltas[i].as_ref().map(|d| {
                shard
                    .graph
                    .apply(d)
                    .expect("a routed shard delta is valid by construction")
            })
        });

        // Translate per-shard reports back to global ids.
        let mut removed_interactions = 0usize;
        let mut shrunk_edges = Vec::new();
        let mut removed_edges = Vec::new();
        for (s, applied) in applieds.iter().enumerate() {
            let Some(a) = applied else { continue };
            let shard = &mut self.shards[s];
            debug_assert_eq!(
                a.new_edges.len(),
                new_edge_globals[s].len(),
                "shard-local edge creation must match routed assignment"
            );
            shard.edge_globals.append(&mut new_edge_globals[s]);
            removed_interactions += a.removed_interactions;
            for &le in &a.shrunk_edges {
                shrunk_edges.push(shard.edge_globals[le.index()]);
            }
            for &le in &a.removed_edges {
                let gid = shard.edge_globals[le.index()];
                removed_edges.push(gid);
                let loc = self.edges[gid.index()];
                if self.pair_index.get(&(loc.src, loc.dst)) == Some(&gid) {
                    self.pair_index.remove(&(loc.src, loc.dst));
                }
            }
        }
        // Per-shard eviction cannot reproduce the serial heap's pop order;
        // report the same sets in ascending id order instead.
        shrunk_edges.sort_unstable();
        removed_edges.sort_unstable();
        if let Some(f) = expire {
            self.frontier = Some(self.frontier.map_or(f, |c| c.max(f)));
        }

        Ok(AppliedDelta {
            nodes_before,
            nodes_after: self.nodes.len(),
            new_edges,
            touched_edges,
            interactions: delta.interactions().len(),
            removed_interactions,
            shrunk_edges,
            removed_edges,
        })
    }

    /// Compares this sharded graph against a serial [`TemporalGraph`] fed
    /// the same deltas and describes the first divergence, or `None` if the
    /// two are identical (ids, names, endpoints, interaction sequences,
    /// tombstones, frontier). The canonical equivalence check used by the
    /// proptests and the `experiments parallel` harness.
    pub fn first_divergence(&self, serial: &TemporalGraph) -> Option<String> {
        if self.nodes.len() != serial.node_count() {
            return Some(format!(
                "node count: sharded {} vs serial {}",
                self.nodes.len(),
                serial.node_count()
            ));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId::from_index(i);
            if node != serial.node(id) {
                return Some(format!(
                    "node {id}: sharded {:?} vs serial {:?}",
                    node.name,
                    serial.node(id).name
                ));
            }
        }
        if self.frontier != serial.frontier() {
            return Some(format!(
                "frontier: sharded {:?} vs serial {:?}",
                self.frontier,
                serial.frontier()
            ));
        }
        if self.edges.len() != serial.edge_count() {
            return Some(format!(
                "edge count: sharded {} vs serial {}",
                self.edges.len(),
                serial.edge_count()
            ));
        }
        for (i, loc) in self.edges.iter().enumerate() {
            let id = EdgeId::from_index(i);
            let serial_edge = serial.edge(id);
            if (loc.src, loc.dst) != (serial_edge.src, serial_edge.dst) {
                return Some(format!(
                    "edge {id} endpoints: sharded ({}, {}) vs serial ({}, {})",
                    loc.src, loc.dst, serial_edge.src, serial_edge.dst
                ));
            }
            if self.edge_interactions(id) != serial_edge.interactions.as_slice() {
                return Some(format!(
                    "edge {id} interactions: sharded {:?} vs serial {:?}",
                    self.edge_interactions(id),
                    serial_edge.interactions
                ));
            }
            let in_pair_index = self.pair_index.get(&(loc.src, loc.dst)) == Some(&id);
            let in_serial_index = serial.find_edge(loc.src, loc.dst) == Some(id);
            if in_pair_index != in_serial_index {
                return Some(format!(
                    "edge {id} liveness: sharded indexed {in_pair_index} \
                     vs serial indexed {in_serial_index}"
                ));
            }
        }
        None
    }
}

/// The local replica id of global vertex `g` in `shard`, creating the
/// replica (staged) on first use.
fn local_node(shard: &mut Shard, staged: &mut StagedShard, nodes: &[Node], g: NodeId) -> NodeId {
    if let Some(&l) = shard.to_local.get(&g) {
        return l;
    }
    let l = NodeId::from_index(staged.base_local_nodes + staged.new_nodes.len());
    shard.to_local.insert(g, l);
    shard.node_globals.push(g);
    staged.new_nodes.push(nodes[g.index()].clone());
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Stages `records` on a persistent builder and drains them as the next
    /// delta of the sequence (the builder keeps name→id numbering across
    /// drains, exactly like a streaming ingester).
    fn drain(b: &mut GraphBuilder, records: &[(&str, &str, i64, f64)]) -> GraphDelta {
        for &(s, d, t, q) in records {
            let s = b.get_or_add_node(s);
            let d = b.get_or_add_node(d);
            b.add_interaction(s, d, Interaction::new(t, q)).unwrap();
        }
        b.drain_delta()
    }

    fn check_equivalence(deltas: &[GraphDelta], k: usize) {
        let mut serial = TemporalGraph::new();
        let mut sharded = ShardedGraph::new(k);
        for delta in deltas {
            let a = serial.apply(delta).unwrap();
            let b = sharded.apply(delta).unwrap();
            assert_eq!(a.nodes_before, b.nodes_before);
            assert_eq!(a.nodes_after, b.nodes_after);
            assert_eq!(a.new_edges, b.new_edges, "new edge ids must match serially");
            assert_eq!(a.touched_edges, b.touched_edges);
            assert_eq!(a.interactions, b.interactions);
            assert_eq!(a.removed_interactions, b.removed_interactions);
            let mut shrunk = a.shrunk_edges.clone();
            shrunk.sort_unstable();
            assert_eq!(shrunk, b.shrunk_edges);
            let mut removed = a.removed_edges.clone();
            removed.sort_unstable();
            assert_eq!(removed, b.removed_edges);
            assert_eq!(sharded.first_divergence(&serial), None);
        }
        assert_eq!(sharded.interaction_count(), serial.interaction_count());
        assert_eq!(sharded.live_edge_count(), serial.live_edge_count());
    }

    #[test]
    fn matches_serial_on_append_only_sequences() {
        let mut b = GraphBuilder::new();
        let d1 = drain(
            &mut b,
            &[("a", "b", 1, 1.0), ("b", "c", 2, 2.0), ("a", "c", 3, 3.0)],
        );
        let d2 = drain(
            &mut b,
            &[("c", "d", 4, 1.0), ("a", "b", 5, 2.0), ("d", "a", 6, 1.5)],
        );
        for k in [1, 2, 3, 7] {
            check_equivalence(&[d1.clone(), d2.clone()], k);
        }
    }

    #[test]
    fn matches_serial_under_expiry_and_revival() {
        let mut b = GraphBuilder::new();
        let d1 = drain(
            &mut b,
            &[("a", "b", 1, 1.0), ("b", "c", 5, 1.0), ("c", "d", 9, 1.0)],
        );
        // Evicts a->b entirely (tombstone) and nothing else.
        let d2 = drain(&mut b, &[]).expire_before(4);
        // Revives the dead pair under a fresh id, with a straggler that dies
        // on arrival.
        let d3 = drain(
            &mut b,
            &[("a", "b", 7, 2.0), ("a", "b", 2, 9.0), ("d", "e", 8, 1.0)],
        )
        .expire_before(6);
        for k in [1, 2, 3, 7] {
            check_equivalence(&[d1.clone(), d2.clone(), d3.clone()], k);
        }
    }

    #[test]
    fn rejects_base_mismatch_and_frontier_regression() {
        let mut sharded = ShardedGraph::new(3);
        let mut b = GraphBuilder::new();
        let d1 = drain(&mut b, &[("a", "b", 10, 1.0)]).expire_before(5);
        sharded.apply(&d1).unwrap();
        // Wrong base count.
        let stale = GraphDelta::new(9, vec![], vec![]).unwrap();
        assert!(matches!(
            sharded.apply(&stale),
            Err(GraphError::Invalid { .. })
        ));
        // Regressing frontier.
        let back = GraphDelta::new(2, vec![], vec![]).unwrap().expire_before(3);
        assert!(matches!(
            sharded.apply(&back),
            Err(GraphError::Invalid { .. })
        ));
        // State unchanged: same frontier, same content.
        assert_eq!(sharded.frontier(), Some(5));
        assert_eq!(sharded.interaction_count(), 1);
    }

    #[test]
    fn adjacency_views_are_sorted_by_global_edge_id() {
        let mut b = GraphBuilder::new();
        let d1 = drain(
            &mut b,
            &[
                ("hub", "a", 1, 1.0),
                ("hub", "b", 2, 1.0),
                ("hub", "c", 3, 1.0),
                ("x", "hub", 4, 1.0),
                ("c", "hub", 5, 1.0),
            ],
        );
        let mut serial = TemporalGraph::new();
        serial.apply(&d1).unwrap();
        for k in [1, 2, 3, 7] {
            let mut sharded = ShardedGraph::new(k);
            sharded.apply(&d1).unwrap();
            let hub = serial.node_by_name("hub").unwrap();
            let serial_out: Vec<(EdgeId, NodeId)> = serial
                .out_edges(hub)
                .iter()
                .map(|&e| (e, serial.edge(e).dst))
                .collect();
            let sharded_out: Vec<(EdgeId, NodeId)> = sharded
                .out_pairs(hub)
                .into_iter()
                .map(|(e, dst, _)| (e, dst))
                .collect();
            assert_eq!(serial_out, sharded_out, "k={k}");
            let serial_in: Vec<NodeId> = serial.in_neighbors(hub).collect();
            assert_eq!(serial_in, sharded.in_sources(hub), "k={k}");
            for v in serial.node_ids() {
                assert_eq!(sharded.out_degree(v), serial.out_degree(v), "k={k}");
                assert_eq!(sharded.in_degree(v), serial.in_degree(v), "k={k}");
            }
            for (e, _, ints) in sharded.out_pairs(hub) {
                assert_eq!(ints, serial.edge(e).interactions.as_slice());
            }
        }
    }
}
