//! The [`TemporalGraph`] type: an immutable, query-friendly representation of
//! a temporal interaction network.

use crate::error::ValidateError;
use crate::ids::{EdgeId, NodeId, Quantity, Time};
use crate::interaction::{self, Interaction};
use serde::{DeError, Deserialize, Serialize, Value};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A vertex of the network.
///
/// Vertices carry only an external `name` (account id, IP address, user id,
/// ...). The paper's graphs are otherwise unlabeled; all structure lives on
/// the edges.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Human-readable external identifier of the vertex.
    pub name: String,
}

/// A directed edge `(src, dst)` carrying a chronologically sorted sequence of
/// interactions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Source vertex of every interaction on this edge.
    pub src: NodeId,
    /// Destination vertex of every interaction on this edge.
    pub dst: NodeId,
    /// Interactions, sorted chronologically.
    pub interactions: Vec<Interaction>,
}

impl Edge {
    /// Total quantity carried by the edge (sum over its interactions).
    pub fn total_quantity(&self) -> Quantity {
        interaction::total_quantity(&self.interactions)
    }

    /// Whether this edge slot is a tombstone: every interaction expired
    /// behind a sliding-window frontier. Tombstones keep their endpoints
    /// (so change reports stay interpretable) but are absent from the
    /// adjacency lists and the `(src, dst)` lookup, and their identifier is
    /// never reused — a later interaction on the same pair creates a fresh
    /// edge.
    #[inline]
    pub fn is_tombstone(&self) -> bool {
        self.interactions.is_empty()
    }

    /// Earliest interaction timestamp on this edge, if any.
    pub fn min_time(&self) -> Option<Time> {
        interaction::min_time(&self.interactions)
    }

    /// Latest interaction timestamp on this edge, if any.
    pub fn max_time(&self) -> Option<Time> {
        interaction::max_time(&self.interactions)
    }
}

/// An immutable temporal interaction network.
///
/// The representation is a pair of dense tables (nodes, edges) plus incoming
/// and outgoing adjacency lists and a `(src, dst) -> edge` index. Parallel
/// edges are merged at construction time: for every ordered vertex pair there
/// is at most one edge, whose interaction list is the chronologically sorted
/// union of all interactions added for that pair.
///
/// Construction goes through [`crate::GraphBuilder`]; transformation
/// algorithms (preprocessing, simplification, subgraph extraction) produce
/// new graphs rather than mutating in place.
#[derive(Debug, Clone)]
pub struct TemporalGraph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) out_edges: Vec<Vec<EdgeId>>,
    pub(crate) in_edges: Vec<Vec<EdgeId>>,
    /// High-water mark of applied expiry frontiers: every interaction in the
    /// graph has `time >= frontier`. `None` until a windowed delta is
    /// applied (append-only graphs never set it).
    pub(crate) frontier: Option<Time>,
    /// Derived cache, skipped by serialization; restore with
    /// [`TemporalGraph::rebuild_index`].
    pub(crate) edge_index: HashMap<(NodeId, NodeId), EdgeId>,
    /// Lazy min-heap of `(candidate min time, edge)` pairs used by eviction
    /// to find expired interactions without scanning the edge table. Entries
    /// may be stale (the edge's true minimum moved up, or the edge was
    /// tombstoned); the invariant is one-sided: every live edge has at least
    /// one entry at or below its current minimum timestamp. Derived cache,
    /// skipped by serialization.
    pub(crate) expiry: BinaryHeap<Reverse<(Time, EdgeId)>>,
}

// Hand-written serde impls (instead of the derive) so that the `frontier`
// field is emitted only when a window has actually been applied: the
// vendored shim serializes `Option::None` as JSON `null`, which the
// interchange format reserves exclusively for lossy quantities, and the
// derive has no `skip_serializing_if`. Omission also keeps pre-window JSON
// readable: a missing `frontier` deserializes as `None`.
impl Serialize for TemporalGraph {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("nodes".to_string(), self.nodes.to_value()),
            ("edges".to_string(), self.edges.to_value()),
            ("out_edges".to_string(), self.out_edges.to_value()),
            ("in_edges".to_string(), self.in_edges.to_value()),
        ];
        if let Some(f) = self.frontier {
            fields.push(("frontier".to_string(), f.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for TemporalGraph {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let Value::Object(_) = value else {
            return Err(DeError::new("expected an object for TemporalGraph"));
        };
        fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, DeError> {
            match value.get(name) {
                Some(v) => T::from_value(v),
                None => Err(DeError::new(format!(
                    "missing field `{name}` in TemporalGraph"
                ))),
            }
        }
        Ok(TemporalGraph {
            nodes: field(value, "nodes")?,
            edges: field(value, "edges")?,
            out_edges: field(value, "out_edges")?,
            in_edges: field(value, "in_edges")?,
            frontier: match value.get("frontier") {
                Some(v) => Option::from_value(v)?,
                None => None,
            },
            edge_index: HashMap::new(),
            expiry: BinaryHeap::new(),
        })
    }
}

// `BinaryHeap` has no `PartialEq`, and both the heap and the `(src, dst)`
// index are caches derived from the edge table — equality is defined over
// the canonical tables only.
impl PartialEq for TemporalGraph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.edges == other.edges
            && self.out_edges == other.out_edges
            && self.in_edges == other.in_edges
            && self.frontier == other.frontier
    }
}

impl TemporalGraph {
    /// Builds the adjacency structures from node and edge tables.
    ///
    /// `edges` must already be deduplicated per `(src, dst)` pair and each
    /// interaction list chronologically sorted; [`crate::GraphBuilder`]
    /// guarantees this.
    pub(crate) fn from_parts(nodes: Vec<Node>, edges: Vec<Edge>) -> Self {
        let n = nodes.len();
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        let mut edge_index = HashMap::with_capacity(edges.len());
        let mut expiry = BinaryHeap::with_capacity(edges.len());
        for (i, e) in edges.iter().enumerate() {
            let id = EdgeId::from_index(i);
            out_edges[e.src.index()].push(id);
            in_edges[e.dst.index()].push(id);
            edge_index.insert((e.src, e.dst), id);
            if let Some(t) = e.min_time() {
                expiry.push(Reverse((t, id)));
            }
        }
        TemporalGraph {
            nodes,
            edges,
            out_edges,
            in_edges,
            frontier: None,
            edge_index,
            expiry,
        }
    }

    /// Rebuilds the caches derived from the edge table — the
    /// `(src, dst) -> edge` index and the eviction heap — both of which are
    /// skipped by serialization. Tombstoned edges are excluded from the
    /// lookup, exactly as eviction left them.
    pub fn rebuild_index(&mut self) {
        self.edge_index = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.is_tombstone())
            .map(|(i, e)| ((e.src, e.dst), EdgeId::from_index(i)))
            .collect();
        self.expiry = self
            .edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.min_time().map(|t| Reverse((t, EdgeId::from_index(i)))))
            .collect();
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (merged, directed) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total number of interactions over all edges.
    pub fn interaction_count(&self) -> usize {
        self.edges.iter().map(|e| e.interactions.len()).sum()
    }

    /// Total quantity transferred over all interactions of the graph.
    pub fn total_quantity(&self) -> Quantity {
        self.edges.iter().map(Edge::total_quantity).sum()
    }

    /// Iterates over all node identifiers.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterates over all edge identifiers.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// Returns the node table entry for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the edge table entry for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// All nodes in identifier order.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges in identifier order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Identifiers of the edges leaving `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out_edges[v.index()]
    }

    /// Identifiers of the edges entering `v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.in_edges[v.index()]
    }

    /// Out-degree of `v` (number of distinct successors).
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_edges[v.index()].len()
    }

    /// In-degree of `v` (number of distinct predecessors).
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_edges[v.index()].len()
    }

    /// Successor vertices of `v`.
    pub fn out_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges[v.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].dst)
    }

    /// Predecessor vertices of `v`.
    pub fn in_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges[v.index()]
            .iter()
            .map(move |&e| self.edges[e.index()].src)
    }

    /// Looks up the edge from `src` to `dst`, if present.
    #[inline]
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.edge_index.get(&(src, dst)).copied()
    }

    /// Whether the graph contains an edge from `src` to `dst`.
    #[inline]
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.edge_index.contains_key(&(src, dst))
    }

    /// Finds a node by its external name (linear scan; intended for small
    /// graphs and tests).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(NodeId::from_index)
    }

    /// The earliest interaction timestamp in the whole graph.
    pub fn min_time(&self) -> Option<Time> {
        self.edges.iter().filter_map(Edge::min_time).min()
    }

    /// The latest interaction timestamp in the whole graph.
    pub fn max_time(&self) -> Option<Time> {
        self.edges.iter().filter_map(Edge::max_time).max()
    }

    /// The expiry high-water mark: every interaction in the graph has
    /// `time >= frontier`. `None` for append-only graphs (no windowed delta
    /// was ever applied).
    #[inline]
    pub fn frontier(&self) -> Option<Time> {
        self.frontier
    }

    /// Whether edge `id` is a tombstone (see [`Edge::is_tombstone`]).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn is_tombstone(&self, id: EdgeId) -> bool {
        self.edges[id.index()].is_tombstone()
    }

    /// Number of live (non-tombstoned) edges. [`TemporalGraph::edge_count`]
    /// keeps counting tombstone slots because identifiers are never reused.
    pub fn live_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| !e.is_tombstone()).count()
    }

    /// Number of vertices with at least one live incident edge. Vertices
    /// whose every edge expired stay in the node table (ids and names are
    /// never reused) but stop counting here.
    pub fn live_node_count(&self) -> usize {
        (0..self.nodes.len())
            .filter(|&i| !self.out_edges[i].is_empty() || !self.in_edges[i].is_empty())
            .count()
    }

    /// Checks internal consistency (adjacency lists, sorted interactions,
    /// index coherence, tombstone unlinking, frontier respected). Used by
    /// tests, debug assertions, and snapshot recovery — the typed error lets
    /// callers distinguish unrepairable edge-table corruption from link
    /// drift that [`TemporalGraph::rebuild_index`] can fix (see
    /// [`ValidateError::is_data_corruption`]).
    pub fn validate(&self) -> Result<(), ValidateError> {
        let mut live = 0usize;
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId::from_index(i);
            if e.src.index() >= self.nodes.len() || e.dst.index() >= self.nodes.len() {
                return Err(ValidateError::NodeOutOfRange { edge: id });
            }
            if !interaction::is_chronological(&e.interactions) {
                return Err(ValidateError::UnsortedInteractions { edge: id });
            }
            if let (Some(f), Some(t)) = (self.frontier, e.min_time()) {
                if t < f {
                    return Err(ValidateError::FrontierViolation {
                        edge: id,
                        time: t,
                        frontier: f,
                    });
                }
            }
            if e.is_tombstone() {
                // Tombstones keep their slot but must be fully unlinked.
                if self.out_edges[e.src.index()].contains(&id)
                    || self.in_edges[e.dst.index()].contains(&id)
                {
                    return Err(ValidateError::TombstoneLinked { edge: id });
                }
                if self.edge_index.get(&(e.src, e.dst)) == Some(&id) {
                    return Err(ValidateError::TombstoneIndexed { edge: id });
                }
                continue;
            }
            live += 1;
            if !self.out_edges[e.src.index()].contains(&id) {
                return Err(ValidateError::MissingFromOutAdjacency {
                    edge: id,
                    node: e.src,
                });
            }
            if !self.in_edges[e.dst.index()].contains(&id) {
                return Err(ValidateError::MissingFromInAdjacency {
                    edge: id,
                    node: e.dst,
                });
            }
            if self.edge_index.get(&(e.src, e.dst)) != Some(&id) {
                return Err(ValidateError::IndexInconsistent { edge: id });
            }
        }
        let adj_total: usize = self.out_edges.iter().map(Vec::len).sum();
        if adj_total != live {
            return Err(ValidateError::OutAdjacencyCount {
                linked: adj_total,
                live,
            });
        }
        let adj_total_in: usize = self.in_edges.iter().map(Vec::len).sum();
        if adj_total_in != live {
            return Err(ValidateError::InAdjacencyCount {
                linked: adj_total_in,
                live,
            });
        }
        Ok(())
    }

    /// Reassembles a graph from snapshot parts: the canonical tables (nodes,
    /// edges — tombstones included) and the expiry frontier.
    ///
    /// Unlike the builder path this accepts tombstoned edge slots: adjacency
    /// lists and the `(src, dst)` index are rebuilt from the live edges only,
    /// exactly as eviction left them before the snapshot was taken.
    ///
    /// One pass over the edge table builds the adjacency (in edge order),
    /// the pair index and the expiry heap, and checks each edge as it goes:
    /// endpoints in range, interactions chronological, none before the
    /// frontier, and one live edge per pair (a second index entry for a
    /// pair is the duplicate). That is everything
    /// [`TemporalGraph::validate`] can find in reassembled parts, so corrupt
    /// snapshot payloads surface as the same typed [`ValidateError`],
    /// without `validate`'s adjacency scans, whose cost is the square of a
    /// hub's degree.
    pub fn from_stored_parts(
        nodes: Vec<Node>,
        edges: Vec<Edge>,
        frontier: Option<Time>,
    ) -> Result<Self, ValidateError> {
        let n = nodes.len();
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        let mut edge_index = HashMap::with_capacity(edges.len());
        let mut expiry = Vec::with_capacity(edges.len());
        for (i, e) in edges.iter().enumerate() {
            let id = EdgeId::from_index(i);
            if e.src.index() >= n || e.dst.index() >= n {
                return Err(ValidateError::NodeOutOfRange { edge: id });
            }
            if !interaction::is_chronological(&e.interactions) {
                return Err(ValidateError::UnsortedInteractions { edge: id });
            }
            // Chronological, so the first interaction is the earliest; a
            // tombstone has none and stays unlinked.
            let Some(first) = e.interactions.first() else {
                continue;
            };
            if let Some(f) = frontier.filter(|&f| first.time < f) {
                return Err(ValidateError::FrontierViolation {
                    edge: id,
                    time: first.time,
                    frontier: f,
                });
            }
            if let Some(earlier) = edge_index.insert((e.src, e.dst), id) {
                // `validate` finds the earlier edge missing from the index.
                return Err(ValidateError::IndexInconsistent { edge: earlier });
            }
            out_edges[e.src.index()].push(id);
            in_edges[e.dst.index()].push(id);
            expiry.push(Reverse((first.time, id)));
        }
        let graph = TemporalGraph {
            nodes,
            edges,
            out_edges,
            in_edges,
            frontier,
            edge_index,
            expiry: BinaryHeap::from(expiry),
        };
        debug_assert_eq!(graph.validate(), Ok(()));
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn toy() -> TemporalGraph {
        // Figure 3 of the paper.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let y = b.add_node("y");
        let z = b.add_node("z");
        let t = b.add_node("t");
        b.add_interaction(s, y, Interaction::new(1, 5.0)).unwrap();
        b.add_interaction(s, z, Interaction::new(2, 3.0)).unwrap();
        b.add_interaction(y, z, Interaction::new(3, 5.0)).unwrap();
        b.add_interaction(y, t, Interaction::new(4, 4.0)).unwrap();
        b.add_interaction(z, t, Interaction::new(5, 1.0)).unwrap();
        b.build()
    }

    #[test]
    fn counts() {
        let g = toy();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.interaction_count(), 5);
        assert_eq!(g.total_quantity(), 18.0);
        g.validate().unwrap();
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = toy();
        let s = g.node_by_name("s").unwrap();
        let y = g.node_by_name("y").unwrap();
        let t = g.node_by_name("t").unwrap();
        assert_eq!(g.out_degree(s), 2);
        assert_eq!(g.in_degree(s), 0);
        assert_eq!(g.out_degree(y), 2);
        assert_eq!(g.in_degree(y), 1);
        assert_eq!(g.in_degree(t), 2);
        assert_eq!(g.out_degree(t), 0);
        let succ: Vec<_> = g.out_neighbors(y).collect();
        assert_eq!(succ.len(), 2);
        assert!(succ.contains(&g.node_by_name("z").unwrap()));
        assert!(succ.contains(&t));
        let pred: Vec<_> = g.in_neighbors(t).collect();
        assert_eq!(pred.len(), 2);
    }

    #[test]
    fn edge_lookup() {
        let g = toy();
        let s = g.node_by_name("s").unwrap();
        let y = g.node_by_name("y").unwrap();
        let t = g.node_by_name("t").unwrap();
        assert!(g.has_edge(s, y));
        assert!(!g.has_edge(y, s));
        assert!(!g.has_edge(s, t));
        let e = g.find_edge(s, y).unwrap();
        assert_eq!(g.edge(e).interactions, vec![Interaction::new(1, 5.0)]);
    }

    #[test]
    fn time_span() {
        let g = toy();
        assert_eq!(g.min_time(), Some(1));
        assert_eq!(g.max_time(), Some(5));
    }

    #[test]
    fn edge_helpers() {
        let g = toy();
        let s = g.node_by_name("s").unwrap();
        let y = g.node_by_name("y").unwrap();
        let e = g.edge(g.find_edge(s, y).unwrap());
        assert_eq!(e.total_quantity(), 5.0);
        assert_eq!(e.min_time(), Some(1));
        assert_eq!(e.max_time(), Some(1));
    }

    #[test]
    fn node_by_name_missing() {
        let g = toy();
        assert!(g.node_by_name("nope").is_none());
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let mut g = toy();
        g.edge_index.clear();
        assert!(g.find_edge(NodeId(0), NodeId(1)).is_none());
        g.rebuild_index();
        assert!(g.find_edge(NodeId(0), NodeId(1)).is_some());
        g.validate().unwrap();
    }

    #[test]
    fn serde_roundtrip_via_json() {
        let g = toy();
        let s = serde_json::to_string(&g).unwrap();
        let mut back: TemporalGraph = serde_json::from_str(&s).unwrap();
        back.rebuild_index();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.interaction_count(), g.interaction_count());
        back.validate().unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.interaction_count(), 0);
        assert_eq!(g.min_time(), None);
        g.validate().unwrap();
    }

    #[test]
    fn validate_reports_typed_errors() {
        // Unsorted interactions: data corruption.
        let mut g = toy();
        g.edges[0].interactions = vec![Interaction::new(5, 1.0), Interaction::new(1, 1.0)];
        let err = g.validate().unwrap_err();
        assert_eq!(err, ValidateError::UnsortedInteractions { edge: EdgeId(0) });
        assert!(err.is_data_corruption());

        // Stale edge index entry: repairable drift.
        let mut g = toy();
        g.edge_index.clear();
        let err = g.validate().unwrap_err();
        assert_eq!(err, ValidateError::IndexInconsistent { edge: EdgeId(0) });
        assert!(!err.is_data_corruption());
        g.rebuild_index();
        g.validate().unwrap();

        // Frontier violation: data corruption.
        let mut g = toy();
        g.frontier = Some(3);
        let err = g.validate().unwrap_err();
        assert!(matches!(err, ValidateError::FrontierViolation { .. }));
        assert!(err.is_data_corruption());
    }

    #[test]
    fn from_stored_parts_roundtrips_and_validates() {
        let g = toy();
        let back =
            TemporalGraph::from_stored_parts(g.nodes.clone(), g.edges.clone(), g.frontier).unwrap();
        assert_eq!(back, g);
        back.validate().unwrap();

        // Tombstoned slots survive the round trip unlinked.
        let mut with_tomb = toy();
        let dead = EdgeId(1);
        with_tomb.edges[dead.index()].interactions.clear();
        with_tomb.rebuild_index();
        let src = with_tomb.edges[dead.index()].src;
        let dst = with_tomb.edges[dead.index()].dst;
        with_tomb.out_edges[src.index()].retain(|&e| e != dead);
        with_tomb.in_edges[dst.index()].retain(|&e| e != dead);
        with_tomb.validate().unwrap();
        let back = TemporalGraph::from_stored_parts(
            with_tomb.nodes.clone(),
            with_tomb.edges.clone(),
            with_tomb.frontier,
        )
        .unwrap();
        assert_eq!(back, with_tomb);
        assert!(back.is_tombstone(dead));
        assert!(back.find_edge(src, dst).is_none());

        // Corrupt payloads are rejected with a typed error.
        let mut bad_edges = g.edges.clone();
        bad_edges[0].src = NodeId(99);
        let err = TemporalGraph::from_stored_parts(g.nodes.clone(), bad_edges, None).unwrap_err();
        assert_eq!(err, ValidateError::NodeOutOfRange { edge: EdgeId(0) });

        // A tombstone's endpoints are checked too.
        let mut bad_edges = with_tomb.edges.clone();
        bad_edges[dead.index()].dst = NodeId(99);
        let err = TemporalGraph::from_stored_parts(g.nodes.clone(), bad_edges, None).unwrap_err();
        assert_eq!(err, ValidateError::NodeOutOfRange { edge: dead });

        // A second live edge for a pair: the first one is the edge the
        // index does not hold.
        let mut dup_edges = g.edges.clone();
        dup_edges.push(g.edges[2].clone());
        let err = TemporalGraph::from_stored_parts(g.nodes.clone(), dup_edges, None).unwrap_err();
        assert_eq!(err, ValidateError::IndexInconsistent { edge: EdgeId(2) });
        // A tombstone beside a live edge of the same pair is what eviction
        // and a revival leave behind, and restores.
        let mut revived = with_tomb.edges.clone();
        revived.push(g.edges[dead.index()].clone());
        let back = TemporalGraph::from_stored_parts(g.nodes.clone(), revived, None).unwrap();
        assert_eq!(back.find_edge(src, dst), Some(EdgeId(5)));
        back.validate().unwrap();

        // An interaction list out of time order.
        let mut unsorted = g.edges.clone();
        unsorted[3].interactions = vec![Interaction::new(9, 1.0), Interaction::new(4, 4.0)];
        let err = TemporalGraph::from_stored_parts(g.nodes.clone(), unsorted, None).unwrap_err();
        assert_eq!(err, ValidateError::UnsortedInteractions { edge: EdgeId(3) });

        // An interaction before the frontier.
        let err = TemporalGraph::from_stored_parts(g.nodes.clone(), g.edges.clone(), Some(3))
            .unwrap_err();
        assert_eq!(
            err,
            ValidateError::FrontierViolation {
                edge: EdgeId(0),
                time: 1,
                frontier: 3,
            }
        );
        let at_frontier =
            TemporalGraph::from_stored_parts(g.nodes.clone(), g.edges.clone(), Some(1)).unwrap();
        assert_eq!(at_frontier.frontier(), Some(1));
    }
}
