//! Appending to a [`TemporalGraph`]: validated deltas and their application.
//!
//! The paper's setting is a *log*: interactions keep arriving. This module is
//! the seam that lets every snapshot consumer become a streaming consumer —
//! a [`GraphDelta`] is a validated batch of new vertices and interactions,
//! and [`TemporalGraph::apply`] merges one into an existing graph while
//! preserving every construction invariant:
//!
//! * **chronological interaction order** — additions are merged into each
//!   edge's sorted sequence (with a fast append path for in-order logs);
//! * **merged parallel edges** — an interaction for an existing `(src, dst)`
//!   pair lands on that pair's edge, never on a duplicate;
//! * **stable identifiers** — existing [`NodeId`]s/[`EdgeId`]s never change;
//!   new nodes and new edges are appended in first-appearance order, exactly
//!   as [`crate::GraphBuilder`] would have numbered them in a from-scratch
//!   build;
//! * **no self-loops** — rejected at delta construction with a typed error.
//!
//! Because identifier assignment is first-appearance order in both paths,
//! applying one big delta and applying the same records as many small deltas
//! produce **identical** graphs — and both are identical to a from-scratch
//! [`crate::GraphBuilder::build`] over the whole log. (The workspace
//! proptests pin this down.) That equivalence is what lets downstream
//! incremental structures — the path tables in `tin_patterns` — patch
//! themselves per delta instead of rebuilding per snapshot.
//!
//! [`AppliedDelta`] reports what an application changed (new node range, new
//! edges, every edge that received interactions), which is exactly the
//! information an incremental index needs to compute its invalidation set.

use crate::error::GraphError;
use crate::graph::{Edge, Node, TemporalGraph};
use crate::ids::{EdgeId, NodeId, Time};
use crate::interaction::{self, Interaction};
use std::cmp::{Ordering, Reverse};
use std::collections::HashMap;

/// A validated batch of new vertices and interactions to append to a graph
/// with exactly [`GraphDelta::base_nodes`] existing vertices.
///
/// Construct with [`GraphDelta::new`] (which validates) or by draining a
/// [`crate::GraphBuilder`] via [`crate::GraphBuilder::drain_delta`] (which
/// validates incrementally as records are added). Apply with
/// [`TemporalGraph::apply`].
#[derive(Debug, Clone, PartialEq)]
pub struct GraphDelta {
    /// Number of vertices the target graph must already have; new nodes are
    /// numbered starting here.
    base_nodes: usize,
    /// Vertices to append, in identifier order (`base_nodes`,
    /// `base_nodes + 1`, ...).
    new_nodes: Vec<Node>,
    /// Interactions to merge, in arrival order. Endpoints may reference
    /// existing vertices (`< base_nodes`) or new ones.
    interactions: Vec<(NodeId, NodeId, Interaction)>,
    /// Sliding-window expiry frontier: when set, applying the delta evicts
    /// every interaction with `time < expire` (additions included) after the
    /// merge. Set with [`GraphDelta::expire_before`].
    expire: Option<Time>,
}

impl GraphDelta {
    /// Builds a delta after validating it: every endpoint must be a known
    /// vertex (existing or newly added), no interaction may be a self-loop,
    /// and quantities must be non-negative (NaN is rejected).
    pub fn new(
        base_nodes: usize,
        new_nodes: Vec<Node>,
        interactions: Vec<(NodeId, NodeId, Interaction)>,
    ) -> Result<Self, GraphError> {
        let total = base_nodes + new_nodes.len();
        for &(src, dst, i) in &interactions {
            if src.index() >= total {
                return Err(GraphError::UnknownNode(src));
            }
            if dst.index() >= total {
                return Err(GraphError::UnknownNode(dst));
            }
            if src == dst {
                return Err(GraphError::SelfLoop(src));
            }
            if i.quantity.is_nan() || i.quantity < 0.0 {
                return Err(GraphError::Invalid {
                    message: format!(
                        "interaction quantity must be non-negative, got {}",
                        i.quantity
                    ),
                });
            }
        }
        Ok(GraphDelta {
            base_nodes,
            new_nodes,
            interactions,
            expire: None,
        })
    }

    /// Crate-internal constructor for producers that validate record by
    /// record ([`crate::GraphBuilder`]); skips the redundant re-validation.
    pub(crate) fn from_validated_parts(
        base_nodes: usize,
        new_nodes: Vec<Node>,
        interactions: Vec<(NodeId, NodeId, Interaction)>,
    ) -> Self {
        debug_assert!(
            GraphDelta::new(base_nodes, new_nodes.clone(), interactions.clone()).is_ok(),
            "producer staged an invalid delta"
        );
        GraphDelta {
            base_nodes,
            new_nodes,
            interactions,
            expire: None,
        }
    }

    /// Attaches a sliding-window expiry frontier: applying the delta will
    /// evict every interaction older than `frontier` (the batch's own
    /// additions included — a straggler behind the window dies immediately),
    /// tombstoning edges that lose their whole sequence. Repeated calls keep
    /// the largest frontier; application fails if the frontier regresses
    /// below the graph's current one (frontiers are monotone).
    #[must_use]
    pub fn expire_before(mut self, frontier: Time) -> Self {
        self.expire = Some(self.expire.map_or(frontier, |f| f.max(frontier)));
        self
    }

    /// The expiry frontier this delta carries, if any.
    #[inline]
    pub fn expiry(&self) -> Option<Time> {
        self.expire
    }

    /// Number of vertices the target graph must already have.
    #[inline]
    pub fn base_nodes(&self) -> usize {
        self.base_nodes
    }

    /// Vertices this delta appends, in identifier order.
    #[inline]
    pub fn new_nodes(&self) -> &[Node] {
        &self.new_nodes
    }

    /// Interactions this delta merges, in arrival order.
    #[inline]
    pub fn interactions(&self) -> &[(NodeId, NodeId, Interaction)] {
        &self.interactions
    }

    /// Whether the delta changes nothing. A delta that only carries an
    /// expiry frontier is not empty — applying it can evict interactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.new_nodes.is_empty() && self.interactions.is_empty() && self.expire.is_none()
    }
}

/// What [`TemporalGraph::apply`] changed: the inputs an incremental index
/// needs to invalidate precisely instead of rebuilding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedDelta {
    /// Vertex count before the application; new vertices (if any) are
    /// `nodes_before .. nodes_after` in identifier order.
    pub nodes_before: usize,
    /// Vertex count after the application.
    pub nodes_after: usize,
    /// Edges created by this application (new `(src, dst)` pairs), in
    /// identifier order. In a fold made with [`AppliedDelta::absorb`], a
    /// listed edge may since have been tombstoned.
    pub new_edges: Vec<EdgeId>,
    /// Every edge that received at least one interaction (includes all of
    /// [`AppliedDelta::new_edges`]), in first-touch order. A fold made with
    /// [`AppliedDelta::absorb`] lists an edge once per application that
    /// touched it.
    pub touched_edges: Vec<EdgeId>,
    /// Number of interactions merged.
    pub interactions: usize,
    /// Number of interactions evicted by the expiry frontier (zero for
    /// append-only deltas). Counts stragglers the same delta added and the
    /// frontier immediately expired.
    pub removed_interactions: usize,
    /// Edges that lost interactions to the frontier but still carry at
    /// least one — shrunk in place, still live after this application. In
    /// a fold made with [`AppliedDelta::absorb`], a listed edge may since
    /// have been tombstoned, and so also be in
    /// [`AppliedDelta::removed_edges`].
    pub shrunk_edges: Vec<EdgeId>,
    /// Edges whose entire interaction sequence expired: now tombstones,
    /// unlinked from the adjacency lists and the `(src, dst)` lookup. Their
    /// slot (and id) is retained and never reused.
    pub removed_edges: Vec<EdgeId>,
}

impl AppliedDelta {
    /// Identifiers of the vertices this application added.
    pub fn new_node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.nodes_before..self.nodes_after).map(NodeId::from_index)
    }

    /// Every edge whose interaction sequence changed: touched by additions,
    /// shrunk by eviction, or tombstoned. An edge can appear more than once
    /// (e.g. it gained new interactions *and* lost expired ones in the same
    /// application, or a fold changed it more than once) — incremental
    /// indexes should treat this as a set.
    pub fn changed_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.touched_edges
            .iter()
            .chain(&self.shrunk_edges)
            .chain(&self.removed_edges)
            .copied()
    }

    /// Folds `later`, the application that came right after this one, into
    /// `self`, so that `self` describes both as one application:
    /// `nodes_before` stays this one's, `nodes_after` becomes `later`'s,
    /// the interaction counts add up, and every edge list gains `later`'s
    /// entries.
    ///
    /// This is what an index that skipped the states in between needs to
    /// catch up in one step: an edge outside the fold's
    /// [`AppliedDelta::changed_edges`] has the same interaction sequence
    /// before the first application and after the last. The fold does not
    /// net changes out: an edge can sit in a list once per application, an
    /// edge created and then tombstoned within the fold is in both
    /// `new_edges` and `removed_edges`, and one shrunk and then tombstoned
    /// is in both `shrunk_edges` and `removed_edges`. So the per-list
    /// invariants of a single application do not hold for a fold: of its
    /// edge lists, only [`AppliedDelta::changed_edges`], read as a set, is
    /// meaningful.
    pub fn absorb(&mut self, later: AppliedDelta) {
        debug_assert_eq!(
            self.nodes_after, later.nodes_before,
            "absorb folds consecutive applications"
        );
        self.nodes_after = later.nodes_after;
        self.new_edges.extend(later.new_edges);
        self.touched_edges.extend(later.touched_edges);
        self.interactions += later.interactions;
        self.removed_interactions += later.removed_interactions;
        self.shrunk_edges.extend(later.shrunk_edges);
        self.removed_edges.extend(later.removed_edges);
    }
}

impl TemporalGraph {
    /// Creates an empty graph. Grow it with [`TemporalGraph::apply`]; a
    /// from-scratch [`crate::GraphBuilder::build`] is exactly this plus one
    /// delta.
    pub fn new() -> Self {
        TemporalGraph::from_parts(Vec::new(), Vec::new())
    }

    /// Merges a delta into the graph, preserving every construction
    /// invariant (see the [module docs](self)).
    ///
    /// Cost is proportional to the delta, not the graph:
    /// `O(Δ log Δ)` to sort the additions plus, per touched edge, either an
    /// `O(log)` append check (when the new interactions all land at or after
    /// the edge's current end — the common case for roughly time-ordered
    /// logs) or one linear merge of that edge's sequence. Untouched edges
    /// and vertices are never visited.
    ///
    /// Fails with [`GraphError::Invalid`] when the delta was built against a
    /// different vertex count (apply deltas in the order they were drained),
    /// leaving the graph unchanged.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<AppliedDelta, GraphError> {
        if delta.base_nodes != self.nodes.len() {
            return Err(GraphError::Invalid {
                message: format!(
                    "delta was built against {} vertices but the graph has {} \
                     (deltas must be applied in drain order)",
                    delta.base_nodes,
                    self.nodes.len()
                ),
            });
        }
        if let (Some(new), Some(current)) = (delta.expire, self.frontier) {
            if new < current {
                return Err(GraphError::Invalid {
                    message: format!(
                        "expiry frontier must be monotone: delta expires before {new} \
                         but the graph window already starts at {current}"
                    ),
                });
            }
        }
        // A deserialized graph arrives without its `(src, dst)` index (and
        // eviction heap); the merge needs them, so restore both before
        // touching anything. Tombstones are legitimately absent from the
        // index, so "fewer entries than edges" is not the signal — "no
        // entries at all despite having edges" is.
        if self.edge_index.is_empty() && !self.edges.is_empty() {
            self.rebuild_index();
        }

        let nodes_before = self.nodes.len();
        self.nodes.extend(delta.new_nodes.iter().cloned());
        self.out_edges.resize_with(self.nodes.len(), Vec::new);
        self.in_edges.resize_with(self.nodes.len(), Vec::new);

        // Pass 1: route every interaction to its edge, creating edges for
        // new pairs in first-appearance order (builder-identical ids).
        let mut new_edges = Vec::new();
        let mut touched_edges = Vec::new();
        let mut additions: HashMap<EdgeId, Vec<Interaction>> = HashMap::new();
        for &(src, dst, i) in &delta.interactions {
            let id = match self.edge_index.get(&(src, dst)) {
                Some(&id) => id,
                None => {
                    let id = EdgeId::from_index(self.edges.len());
                    self.edges.push(Edge {
                        src,
                        dst,
                        interactions: Vec::new(),
                    });
                    self.out_edges[src.index()].push(id);
                    self.in_edges[dst.index()].push(id);
                    self.edge_index.insert((src, dst), id);
                    new_edges.push(id);
                    id
                }
            };
            let list = additions.entry(id).or_insert_with(|| {
                touched_edges.push(id);
                Vec::new()
            });
            list.push(i);
        }

        // Pass 2: merge each touched edge's additions into its sorted
        // sequence. Ties on (time, quantity) are identical values, so any
        // batch split of the same records yields the same sequence.
        for &id in &touched_edges {
            let mut incoming = additions.remove(&id).expect("staged above");
            interaction::sort_chronologically(&mut incoming);
            let edge = &mut self.edges[id.index()];
            let old_min = edge.interactions.first().map(|i| i.time);
            match edge.interactions.last() {
                None => edge.interactions = incoming,
                Some(last) if last.chronological_cmp(&incoming[0]) != Ordering::Greater => {
                    edge.interactions.extend_from_slice(&incoming);
                }
                Some(_) => {
                    edge.interactions = interaction::merge_sorted(&edge.interactions, &incoming);
                }
            }
            // Keep the eviction heap's invariant (every live edge has an
            // entry at or below its min) without flooding it: a new entry is
            // only needed when the minimum actually moved down.
            let new_min = edge.interactions[0].time;
            if old_min.is_none_or(|m| new_min < m) {
                self.expiry.push(Reverse((new_min, id)));
            }
        }

        // Eviction pass: drop every interaction older than the effective
        // frontier (the graph's standing one, raised by the delta's). This
        // runs after the merge so that one invariant holds unconditionally:
        // the live content is exactly the records with `time >= frontier`,
        // no matter how records were batched.
        let frontier = match (self.frontier, delta.expire) {
            (Some(current), Some(new)) => Some(current.max(new)),
            (current, new) => current.or(new),
        };
        let mut removed_interactions = 0usize;
        let mut shrunk_edges = Vec::new();
        let mut removed_edges = Vec::new();
        if let Some(f) = frontier {
            self.frontier = Some(f);
            while let Some(&Reverse((t, id))) = self.expiry.peek() {
                if t >= f {
                    break;
                }
                self.expiry.pop();
                let edge = &mut self.edges[id.index()];
                if edge.interactions.is_empty() {
                    continue; // stale entry for an already-tombstoned edge
                }
                let current_min = edge.interactions[0].time;
                if current_min >= f {
                    // Stale entry (the edge's minimum moved up); remember
                    // the real minimum for future frontiers.
                    self.expiry.push(Reverse((current_min, id)));
                    continue;
                }
                let cut = edge.interactions.partition_point(|i| i.time < f);
                removed_interactions += cut;
                edge.interactions.drain(..cut);
                if edge.interactions.is_empty() {
                    // Tombstone: unlink from adjacency and lookup; the slot
                    // (and id) is retained and never reused.
                    let (src, dst) = (edge.src, edge.dst);
                    self.out_edges[src.index()].retain(|&e| e != id);
                    self.in_edges[dst.index()].retain(|&e| e != id);
                    self.edge_index.remove(&(src, dst));
                    removed_edges.push(id);
                } else {
                    self.expiry.push(Reverse((edge.interactions[0].time, id)));
                    shrunk_edges.push(id);
                }
            }
        }

        Ok(AppliedDelta {
            nodes_before,
            nodes_after: self.nodes.len(),
            new_edges,
            touched_edges,
            interactions: delta.interactions.len(),
            removed_interactions,
            shrunk_edges,
            removed_edges,
        })
    }
}

impl Default for TemporalGraph {
    fn default() -> Self {
        TemporalGraph::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_records, GraphBuilder};

    fn node(name: &str) -> Node {
        Node { name: name.into() }
    }

    #[test]
    fn delta_validation_rejects_bad_batches() {
        // Unknown endpoint.
        let err = GraphDelta::new(
            1,
            vec![],
            vec![(NodeId(0), NodeId(1), Interaction::new(1, 1.0))],
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::UnknownNode(NodeId(1))));
        // Self-loop.
        let err = GraphDelta::new(
            2,
            vec![],
            vec![(NodeId(1), NodeId(1), Interaction::new(1, 1.0))],
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop(NodeId(1))));
        // Negative quantity.
        let err = GraphDelta::new(
            2,
            vec![],
            vec![(
                NodeId(0),
                NodeId(1),
                Interaction {
                    time: 1,
                    quantity: -1.0,
                },
            )],
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::Invalid { .. }));
        // New nodes extend the valid range.
        assert!(GraphDelta::new(
            1,
            vec![node("b")],
            vec![(NodeId(0), NodeId(1), Interaction::new(1, 1.0))],
        )
        .is_ok());
    }

    #[test]
    fn apply_to_empty_matches_builder() {
        let records = [
            ("u1", "u2", 2, 5.0),
            ("u1", "u2", 4, 3.0),
            ("u2", "u3", 3, 4.0),
            ("u3", "u1", 6, 5.0),
        ];
        let built = from_records(records);
        let mut b = GraphBuilder::new();
        for (s, d, t, q) in records {
            let s = b.get_or_add_node(s);
            let d = b.get_or_add_node(d);
            b.add_interaction(s, d, Interaction::new(t, q)).unwrap();
        }
        let delta = b.drain_delta();
        let mut g = TemporalGraph::new();
        let applied = g.apply(&delta).unwrap();
        assert_eq!(g, built);
        g.validate().unwrap();
        assert_eq!(applied.nodes_before, 0);
        assert_eq!(applied.nodes_after, 3);
        assert_eq!(applied.new_edges.len(), 3);
        assert_eq!(applied.touched_edges.len(), 3);
        assert_eq!(applied.interactions, 4);
    }

    #[test]
    fn apply_merges_into_existing_edges_and_keeps_ids_stable() {
        let mut g = from_records([("a", "b", 5, 1.0), ("b", "c", 6, 2.0)]);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let e_ab = g.find_edge(a, b).unwrap();
        // Append one out-of-order interaction on the existing pair and one
        // new pair through a new vertex.
        let delta = GraphDelta::new(
            3,
            vec![node("d")],
            vec![
                (a, b, Interaction::new(1, 9.0)),
                (NodeId(3), a, Interaction::new(2, 4.0)),
            ],
        )
        .unwrap();
        let applied = g.apply(&delta).unwrap();
        g.validate().unwrap();
        // Existing ids are untouched; the merged edge is re-sorted.
        assert_eq!(g.find_edge(a, b), Some(e_ab));
        assert_eq!(
            g.edge(e_ab).interactions,
            vec![Interaction::new(1, 9.0), Interaction::new(5, 1.0)]
        );
        assert_eq!(applied.new_edges.len(), 1);
        assert_eq!(applied.touched_edges.len(), 2);
        assert_eq!(g.node_count(), 4);
        let d = g.node_by_name("d").unwrap();
        assert!(g.has_edge(d, a));
        assert_eq!(applied.new_node_ids().collect::<Vec<_>>(), vec![NodeId(3)]);
    }

    #[test]
    fn apply_in_order_append_uses_the_fast_path_result() {
        // Whether or not the fast path triggers, the sequence must come out
        // sorted; exercise both the append case and the merge case.
        let mut g = from_records([("a", "b", 5, 1.0)]);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let append = GraphDelta::new(2, vec![], vec![(a, b, Interaction::new(9, 2.0))]).unwrap();
        g.apply(&append).unwrap();
        let merge = GraphDelta::new(2, vec![], vec![(a, b, Interaction::new(7, 3.0))]).unwrap();
        g.apply(&merge).unwrap();
        let e = g.edge(g.find_edge(a, b).unwrap());
        assert_eq!(
            e.interactions,
            vec![
                Interaction::new(5, 1.0),
                Interaction::new(7, 3.0),
                Interaction::new(9, 2.0)
            ]
        );
        g.validate().unwrap();
    }

    #[test]
    fn apply_rejects_base_mismatch_and_leaves_graph_unchanged() {
        let mut g = from_records([("a", "b", 1, 1.0)]);
        let before = g.clone();
        let stale = GraphDelta::new(7, vec![], vec![]).unwrap();
        assert!(matches!(g.apply(&stale), Err(GraphError::Invalid { .. })));
        assert_eq!(g, before);
    }

    #[test]
    fn split_deltas_equal_one_delta() {
        let records = [
            ("a", "b", 3, 1.0),
            ("b", "c", 1, 2.0),
            ("a", "b", 1, 5.0),
            ("c", "a", 2, 1.5),
            ("b", "c", 1, 2.0), // exact duplicate across the split point
        ];
        let whole = from_records(records);
        for split in 0..=records.len() {
            let mut g = TemporalGraph::new();
            let mut b = GraphBuilder::new();
            for (i, (s, d, t, q)) in records.iter().enumerate() {
                if i == split {
                    g.apply(&b.drain_delta()).unwrap();
                }
                let s = b.get_or_add_node(*s);
                let d = b.get_or_add_node(*d);
                b.add_interaction(s, d, Interaction::new(*t, *q)).unwrap();
            }
            g.apply(&b.drain_delta()).unwrap();
            assert_eq!(g, whole, "split at {split}");
            g.validate().unwrap();
        }
    }

    #[test]
    fn apply_rebuilds_a_missing_index() {
        // A deserialized graph has no (src, dst) index; apply must restore
        // it rather than duplicating edges.
        let mut g = from_records([("a", "b", 1, 1.0)]);
        g.edge_index.clear();
        let a = NodeId(0);
        let b = NodeId(1);
        let delta = GraphDelta::new(2, vec![], vec![(a, b, Interaction::new(2, 1.0))]).unwrap();
        g.apply(&delta).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge(EdgeId(0)).interactions.len(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let mut g = from_records([("a", "b", 1, 1.0)]);
        let before = g.clone();
        let delta = GraphDelta::new(2, vec![], vec![]).unwrap();
        let applied = g.apply(&delta).unwrap();
        assert_eq!(g, before);
        assert!(applied.new_edges.is_empty());
        assert!(applied.touched_edges.is_empty());
        assert!(delta.is_empty());
        assert_eq!(applied.removed_interactions, 0);
        // An eviction-only delta is *not* empty: applying it can change the
        // graph.
        assert!(!GraphDelta::new(2, vec![], vec![])
            .unwrap()
            .expire_before(5)
            .is_empty());
    }

    #[test]
    fn expiry_shrinks_and_tombstones_edges() {
        let mut g = from_records([
            ("a", "b", 1, 1.0),
            ("a", "b", 5, 2.0),
            ("b", "c", 2, 3.0),
            ("c", "a", 9, 4.0),
        ]);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        let e_ab = g.find_edge(a, b).unwrap();
        let e_bc = g.find_edge(b, c).unwrap();
        let delta = GraphDelta::new(3, vec![], vec![]).unwrap().expire_before(4);
        let applied = g.apply(&delta).unwrap();
        g.validate().unwrap();
        // a->b lost its t=1 interaction but keeps t=5; b->c lost everything.
        assert_eq!(applied.removed_interactions, 2);
        assert_eq!(applied.shrunk_edges, vec![e_ab]);
        assert_eq!(applied.removed_edges, vec![e_bc]);
        assert_eq!(g.edge(e_ab).interactions, vec![Interaction::new(5, 2.0)]);
        assert!(g.is_tombstone(e_bc));
        assert!(!g.has_edge(b, c));
        assert!(g.find_edge(b, c).is_none());
        assert_eq!(g.frontier(), Some(4));
        assert_eq!(g.live_edge_count(), 2);
        assert_eq!(g.edge_count(), 3); // the tombstone slot is retained
        assert_eq!(g.interaction_count(), 2);
        // Tombstones keep their endpoints so change reports stay readable.
        assert_eq!(g.edge(e_bc).src, b);
        assert_eq!(g.edge(e_bc).dst, c);
    }

    #[test]
    fn frontier_must_be_monotone() {
        let mut g = from_records([("a", "b", 10, 1.0)]);
        g.apply(&GraphDelta::new(2, vec![], vec![]).unwrap().expire_before(5))
            .unwrap();
        let before = g.clone();
        let err = g
            .apply(&GraphDelta::new(2, vec![], vec![]).unwrap().expire_before(3))
            .unwrap_err();
        assert!(matches!(err, GraphError::Invalid { .. }));
        assert_eq!(g, before, "a rejected delta leaves the graph unchanged");
        // Re-applying the same frontier is fine (monotone, not strict).
        g.apply(&GraphDelta::new(2, vec![], vec![]).unwrap().expire_before(5))
            .unwrap();
    }

    #[test]
    fn stragglers_behind_the_standing_frontier_die_immediately() {
        let mut g = from_records([("a", "b", 10, 1.0)]);
        let (a, b) = (NodeId(0), NodeId(1));
        g.apply(&GraphDelta::new(2, vec![], vec![]).unwrap().expire_before(8))
            .unwrap();
        // A later batch with no frontier of its own delivers one in-window
        // and one expired record: the straggler must not resurrect history.
        let delta = GraphDelta::new(
            2,
            vec![],
            vec![
                (a, b, Interaction::new(3, 9.0)),
                (a, b, Interaction::new(12, 2.0)),
            ],
        )
        .unwrap();
        let applied = g.apply(&delta).unwrap();
        g.validate().unwrap();
        assert_eq!(applied.removed_interactions, 1);
        let e = g.find_edge(a, b).unwrap();
        assert_eq!(
            g.edge(e).interactions,
            vec![Interaction::new(10, 1.0), Interaction::new(12, 2.0)]
        );
    }

    #[test]
    fn tombstoned_pairs_revive_under_a_fresh_id() {
        let mut g = from_records([("a", "b", 1, 1.0), ("b", "c", 5, 1.0)]);
        let (a, b) = (NodeId(0), NodeId(1));
        let old = g.find_edge(a, b).unwrap();
        g.apply(&GraphDelta::new(3, vec![], vec![]).unwrap().expire_before(3))
            .unwrap();
        assert!(g.is_tombstone(old));
        // New interaction on the dead pair: fresh edge id, old slot intact.
        let delta = GraphDelta::new(3, vec![], vec![(a, b, Interaction::new(7, 2.0))]).unwrap();
        let applied = g.apply(&delta).unwrap();
        g.validate().unwrap();
        let new = g.find_edge(a, b).unwrap();
        assert_ne!(new, old, "tombstoned ids are never reused");
        assert_eq!(applied.new_edges, vec![new]);
        assert!(g.is_tombstone(old));
        assert_eq!(g.edge(new).interactions, vec![Interaction::new(7, 2.0)]);
        // The node ids were reused (names are stable), only the edge id is
        // fresh.
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn window_that_evicts_everything() {
        let mut g = from_records([("a", "b", 1, 1.0), ("b", "c", 2, 2.0)]);
        let applied = g
            .apply(
                &GraphDelta::new(3, vec![], vec![])
                    .unwrap()
                    .expire_before(100),
            )
            .unwrap();
        g.validate().unwrap();
        assert_eq!(applied.removed_interactions, 2);
        assert_eq!(applied.removed_edges.len(), 2);
        assert_eq!(g.live_edge_count(), 0);
        assert_eq!(g.live_node_count(), 0);
        assert_eq!(g.interaction_count(), 0);
        assert_eq!(g.node_count(), 3, "vertices keep their slots and names");
        assert_eq!(g.min_time(), None);
    }

    #[test]
    fn changed_edges_unions_additions_and_removals() {
        let mut g = from_records([("a", "b", 1, 1.0), ("b", "c", 2, 1.0)]);
        let (a, b) = (NodeId(0), NodeId(1));
        // One delta that both appends to a->b and expires both old records.
        let delta = GraphDelta::new(3, vec![], vec![(a, b, Interaction::new(9, 1.0))])
            .unwrap()
            .expire_before(5);
        let applied = g.apply(&delta).unwrap();
        g.validate().unwrap();
        let e_ab = g.find_edge(a, b).unwrap();
        let mut changed: Vec<EdgeId> = applied.changed_edges().collect();
        changed.sort_unstable();
        changed.dedup();
        assert!(changed.contains(&e_ab), "touched (shrunk too)");
        assert_eq!(changed.len(), 2, "touched a->b plus tombstoned b->c");
        assert!(applied.shrunk_edges.contains(&e_ab));
        assert_eq!(applied.removed_edges.len(), 1);
    }

    #[test]
    fn absorb_folds_two_applications_into_one() {
        let mut g = from_records([("a", "b", 1, 1.0), ("a", "b", 5, 1.0), ("b", "c", 2, 1.0)]);
        let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let e_ab = g.find_edge(a, b).unwrap();
        let e_bc = g.find_edge(b, c).unwrap();
        // First: a new vertex and a new pair.
        let first = g
            .apply(
                &GraphDelta::new(3, vec![node("d")], vec![(c, d, Interaction::new(6, 1.0))])
                    .unwrap(),
            )
            .unwrap();
        // Second: another vertex and pair, and a frontier that shrinks a->b
        // and tombstones b->c. Each of its lists names an edge the first
        // application left alone.
        let second = g
            .apply(
                &GraphDelta::new(4, vec![node("e")], vec![(d, a, Interaction::new(8, 1.0))])
                    .unwrap()
                    .expire_before(3),
            )
            .unwrap();
        let as_set = |applied: &AppliedDelta| {
            let mut edges: Vec<EdgeId> = applied.changed_edges().collect();
            edges.sort_unstable();
            edges.dedup();
            edges
        };
        let mut want = as_set(&first);
        want.extend(as_set(&second));
        want.sort_unstable();
        want.dedup();

        let mut fold = first.clone();
        fold.absorb(second.clone());
        assert_eq!(fold.nodes_before, first.nodes_before);
        assert_eq!(fold.nodes_after, second.nodes_after);
        assert_eq!((fold.nodes_before, fold.nodes_after), (3, 5));
        assert_eq!(fold.interactions, first.interactions + second.interactions);
        assert_eq!(fold.interactions, 2);
        assert_eq!(
            fold.removed_interactions,
            first.removed_interactions + second.removed_interactions
        );
        assert_eq!(fold.removed_interactions, 2);
        assert_eq!(second.shrunk_edges, vec![e_ab]);
        assert_eq!(second.removed_edges, vec![e_bc]);
        assert_eq!(fold.new_node_ids().count(), 2);
        assert_eq!(as_set(&fold), want);
        let e_cd = g.find_edge(c, d).unwrap();
        let e_da = g.find_edge(d, a).unwrap();
        assert_eq!(want, vec![e_ab, e_bc, e_cd, e_da]);
        assert_eq!(fold.new_edges, vec![e_cd, e_da]);
    }
}
