//! Incremental flow sessions: a persistent network-simplex basis kept
//! alive across streaming [`GraphDelta`](tin_graph::GraphDelta) batches.
//!
//! The streaming pipeline re-solves near-identical flow subproblems on
//! every batch: a window slide expires a few interactions at the back and
//! appends a few at the front, leaving the vast majority of the
//! time-expanded circulation untouched. A cold solve rebuilds the
//! formulation *and* the spanning-tree basis from zero each time;
//! [`FlowSession`] instead
//!
//! 1. patches the existing min-cost-flow arc arrays in place
//!    ([`McfFormulation::apply_delta`] — stable arc ids, tombstones become
//!    zero-capacity arcs), and
//! 2. keeps the network simplex itself *resident* between solves
//!    ([`NetflowSession`]): the previous optimal basis stays live in the
//!    engine, expired capacity is repaired by worst-first dual pivots, new
//!    arcs are priced in by warm primal pivots, and a state the patch
//!    cannot reuse (a shrunk problem, a re-costed tree arc, a dual repair
//!    over its work budget, a dual stall, the pivot limit) transparently
//!    restarts from scratch.
//!    The budget ([`tin_lp::DUAL_REPAIR_BUDGET`]) bounds what a batch can
//!    spend on a warm repair before it pays for the cold solve.
//!
//! The solved value is exact on every batch — equal to what a cold
//! [`netflow_max_flow`](crate::netflow_max_flow) on the current graph
//! returns — the session only changes where the simplex *starts*, never
//! where it stops. [`SessionStats`] reports how much work the resident
//! basis actually carried batch-to-batch.
//!
//! ```
//! use tin_flow::{FlowMethod, FlowSession};
//! use tin_graph::{GraphBuilder, GraphDelta, Interaction};
//!
//! let mut b = GraphBuilder::new();
//! let s = b.add_node("s");
//! let x = b.add_node("x");
//! let t = b.add_node("t");
//! b.add_pairs(s, x, &[(1, 3.0)]).unwrap();
//! b.add_pairs(x, t, &[(2, 3.0)]).unwrap();
//! let mut g = b.build();
//!
//! let mut session = FlowSession::new(&g, s, t, FlowMethod::Lp).unwrap();
//! assert_eq!(session.solve().unwrap().flow, 3.0);
//!
//! let delta = GraphDelta::new(3, vec![], vec![(s, x, Interaction::new(3, 2.0)),
//!                                            (x, t, Interaction::new(4, 2.0))]).unwrap();
//! let applied = g.apply(&delta).unwrap();
//! session.advance(&g, &applied);
//! let solve = session.solve().unwrap();
//! assert_eq!(solve.flow, 5.0);
//! assert!(solve.basis_reused);
//! ```

use tin_graph::{AppliedDelta, NodeId, TemporalGraph};
use tin_lp::{LpStatus, McfSolution, NetflowSession};

use crate::error::FlowError;
use crate::lp_formulation::{build_mcf_session, McfFormulation, McfPatch};
use crate::solver::FlowMethod;

/// Counters describing how much work the resident engine saved across the
/// session's lifetime. All pivot counts are cumulative.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Delta batches folded in via [`FlowSession::advance`].
    pub advances: usize,
    /// Total [`FlowSession::solve`] calls.
    pub solves: usize,
    /// Solves that successfully re-optimized from the previous basis.
    pub basis_hits: usize,
    /// Solves that found the engine resident but restarted it from scratch
    /// (the problem shrank, a tree arc was re-costed, the dual repair ran
    /// over its work budget or stalled, or the warm pivots hit the pivot
    /// limit). Budget restarts are included, and also counted in
    /// [`SessionStats::budget_restarts`].
    pub fallback_cold: usize,
    /// Fallbacks whose dual repair ran over its work budget,
    /// [`tin_lp::DUAL_REPAIR_BUDGET`] units per node and arc
    /// ([`McfSolution::budget_restart`]).
    pub budget_restarts: usize,
    /// Incremental attempts after expiry-only batches: every patch since
    /// the previous solve only removed capacity ([`McfPatch::shrink_only`]),
    /// so the dual repair does all the work. This counts attempts: each
    /// resident solve counts here or in
    /// [`SessionStats::primal_reoptimizations`] whether it reused the basis
    /// or fell back, so the two sum to `basis_hits + fallback_cold`.
    pub dual_reoptimizations: usize,
    /// Incremental attempts after batches that also added or moved arcs,
    /// which the final primal pricing brings into the tree.
    pub primal_reoptimizations: usize,
    /// Pivots spent in solves that reused a basis.
    pub warm_pivots: usize,
    /// Pivots spent in cold solves (first solve + fallbacks' restarts).
    pub cold_pivots: usize,
    /// Pivots of incremental attempts that fell back, spent before the
    /// restart ([`McfSolution::abandoned_pivots`]); in neither
    /// `warm_pivots` nor `cold_pivots`.
    pub abandoned_pivots: usize,
    /// Arcs tombstoned to zero capacity by expiry so far.
    pub tombstoned_arcs: usize,
    /// Arcs appended for newly arrived interactions so far.
    pub added_arcs: usize,
    /// Formulation rebuilds triggered by tombstone pile-up: the patched
    /// arrays keep dead arcs for id stability, so once more than a quarter
    /// of the arcs are dead (in arrays of at least 256 arcs) the session
    /// re-emits the formulation from the current graph (and the next solve
    /// restarts the resident engine on the compact instance).
    pub compactions: usize,
}

/// Result of one [`FlowSession::solve`]: the exact maximum flow for the
/// session's current graph plus how the simplex got there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSolve {
    /// The maximum flow from source to sink — identical to a cold exact
    /// solve on the current graph.
    pub flow: f64,
    /// Whether this solve re-optimized from the previous basis.
    pub basis_reused: bool,
    /// Whether the engine was resident but restarted from scratch.
    pub fallback_cold: bool,
    /// Simplex pivots this solve performed (the restart's, after a
    /// fallback).
    pub pivots: usize,
    /// The dual repair's work on this solve, the abandoned attempt's after
    /// a fallback ([`McfSolution::repair_work`]).
    pub repair_work: usize,
}

/// An exact flow computation kept warm across streaming delta batches. See
/// the [module docs](self) for the lifecycle.
#[derive(Debug, Clone)]
pub struct FlowSession {
    formulation: McfFormulation,
    source: NodeId,
    sink: NodeId,
    engine: NetflowSession,
    /// Pre-existing arcs patched since the last solve — the resident
    /// engine's sync list, drained by [`FlowSession::solve`].
    touched: Vec<u32>,
    /// Dead arcs accumulated since the formulation was last (re)built;
    /// drives the compaction trigger.
    tombstoned_since_rebuild: usize,
    /// `true` while every advance since the last solve only shrank
    /// capacities (dual pivots are expected to do all the repair).
    shrink_only_pending: bool,
    stats: SessionStats,
}

impl FlowSession {
    /// Opens a session for the `source → sink` flow on `graph`.
    ///
    /// `method` must be exact ([`FlowMethod::is_exact`]): the session
    /// maintains a simplex basis, which the greedy algorithm does not have.
    /// All exact methods agree on the optimum, so the session always tracks
    /// it through the min-cost-flow reduction regardless of which exact
    /// method the caller benchmarks against.
    pub fn new(
        graph: &TemporalGraph,
        source: NodeId,
        sink: NodeId,
        method: FlowMethod,
    ) -> Result<Self, FlowError> {
        if !method.is_exact() {
            return Err(FlowError::SessionRequiresExact);
        }
        let nodes = graph.node_count();
        if source.index() >= nodes {
            return Err(FlowError::NodeOutOfRange(source));
        }
        if sink.index() >= nodes {
            return Err(FlowError::NodeOutOfRange(sink));
        }
        if source == sink {
            return Err(FlowError::SourceEqualsSink(source));
        }
        Ok(FlowSession {
            formulation: build_mcf_session(graph, source, sink),
            source,
            sink,
            engine: NetflowSession::new(),
            touched: Vec::new(),
            tombstoned_since_rebuild: 0,
            shrink_only_pending: true,
            stats: SessionStats::default(),
        })
    }

    /// The session's flow source.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The session's flow sink.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Cumulative basis-reuse telemetry.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The live formulation (compacted on the schedule described in
    /// [`SessionStats::compactions`]).
    pub fn formulation(&self) -> &McfFormulation {
        &self.formulation
    }

    /// Folds one applied delta batch into the session's formulation.
    ///
    /// `graph` must be the graph *after* `delta` was applied to it — the
    /// [`AppliedDelta`] carries only the ids of what changed; the receiver
    /// re-reads the current interaction sequences from the graph. Returns
    /// the patch summary.
    pub fn advance(&mut self, graph: &TemporalGraph, delta: &AppliedDelta) -> McfPatch {
        let patch = self.formulation.apply_delta(graph, delta);
        self.stats.advances += 1;
        self.stats.tombstoned_arcs += patch.tombstoned;
        self.stats.added_arcs += patch.added_arcs;
        self.shrink_only_pending &= patch.shrink_only;
        self.touched.extend_from_slice(&patch.touched_arcs);
        self.tombstoned_since_rebuild += patch.tombstoned;
        // Compaction: id stability keeps every dead arc (and dead vertex
        // copy) in the patched arrays, so a long session's solves would pay
        // `O(total history)` instead of `O(live window)`. Once more than a
        // quarter of the arcs are dead, re-emit the formulation from the
        // current graph; the next solve restarts the resident engine on the
        // compact instance. Amortized over the batches that grew the pile,
        // the rebuild is O(1) per batch.
        let arcs = self.formulation.problem.num_arcs();
        if arcs >= 256 && self.tombstoned_since_rebuild * 4 > arcs {
            self.formulation = build_mcf_session(graph, self.source, self.sink);
            self.engine = NetflowSession::new();
            self.touched.clear();
            self.tombstoned_since_rebuild = 0;
            self.stats.compactions += 1;
        }
        patch
    }

    /// Solves the current state exactly through the resident engine: the
    /// previous solve's simplex state absorbs the accumulated patches and
    /// re-proves optimality, falling back to a from-scratch solve when it
    /// cannot or when its dual repair runs over budget.
    pub fn solve(&mut self) -> Result<SessionSolve, FlowError> {
        if self.engine.is_resident() {
            if self.shrink_only_pending {
                self.stats.dual_reoptimizations += 1;
            } else {
                self.stats.primal_reoptimizations += 1;
            }
        }
        let solution: McfSolution = self.engine.solve(&self.formulation.problem, &self.touched);
        self.touched.clear();
        self.stats.solves += 1;
        if solution.basis_reused {
            self.stats.basis_hits += 1;
            self.stats.warm_pivots += solution.pivots;
        } else {
            self.stats.cold_pivots += solution.pivots;
        }
        if solution.fallback_cold {
            self.stats.fallback_cold += 1;
            self.stats.budget_restarts += usize::from(solution.budget_restart);
            self.stats.abandoned_pivots += solution.abandoned_pivots;
        }
        if solution.status != LpStatus::Optimal {
            return Err(FlowError::LpFailed(solution.status));
        }
        self.shrink_only_pending = true;
        Ok(SessionSolve {
            flow: solution.flows[self.formulation.return_arc],
            basis_reused: solution.basis_reused,
            fallback_cold: solution.fallback_cold,
            pivots: solution.pivots,
            repair_work: solution.repair_work,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_formulation::netflow_max_flow;
    use tin_graph::{GraphBuilder, GraphDelta, Interaction, Node};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    fn seed_graph() -> (TemporalGraph, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let x = b.add_node("x");
        let y = b.add_node("y");
        let t = b.add_node("t");
        b.add_pairs(s, x, &[(1, 3.0), (4, 2.0)]).unwrap();
        b.add_pairs(s, y, &[(2, 6.0)]).unwrap();
        b.add_pairs(x, y, &[(5, 5.0)]).unwrap();
        b.add_pairs(y, t, &[(6, 4.0)]).unwrap();
        b.add_pairs(x, t, &[(7, 2.0)]).unwrap();
        (b.build(), s, t)
    }

    #[test]
    fn rejects_greedy_and_bad_endpoints() {
        let (g, s, t) = seed_graph();
        assert_eq!(
            FlowSession::new(&g, s, t, FlowMethod::Greedy).unwrap_err(),
            FlowError::SessionRequiresExact
        );
        assert_eq!(
            FlowSession::new(&g, s, s, FlowMethod::Lp).unwrap_err(),
            FlowError::SourceEqualsSink(s)
        );
        assert_eq!(
            FlowSession::new(&g, NodeId(99), t, FlowMethod::Lp).unwrap_err(),
            FlowError::NodeOutOfRange(NodeId(99))
        );
        assert_eq!(
            FlowSession::new(&g, s, NodeId(99), FlowMethod::Lp).unwrap_err(),
            FlowError::NodeOutOfRange(NodeId(99))
        );
    }

    #[test]
    fn session_matches_cold_solves_across_mixed_batches() {
        let (mut g, s, t) = seed_graph();
        let mut session = FlowSession::new(&g, s, t, FlowMethod::Lp).unwrap();
        let first = session.solve().unwrap();
        assert!(!first.basis_reused);
        assert_close(first.flow, netflow_max_flow(&g, s, t).unwrap().flow);

        let batches = vec![
            // Growth: more capacity along the bottleneck.
            GraphDelta::new(4, vec![], vec![(NodeId(2), t, Interaction::new(8, 3.0))]).unwrap(),
            // Pure expiry — the dual route.
            GraphDelta::new(4, vec![], vec![]).unwrap().expire_before(2),
            // Window slide: expiry + growth through a new vertex.
            GraphDelta::new(
                4,
                vec![Node { name: "z".into() }],
                vec![
                    (NodeId(1), NodeId(4), Interaction::new(9, 2.0)),
                    (NodeId(4), t, Interaction::new(10, 2.0)),
                ],
            )
            .unwrap()
            .expire_before(4),
        ];
        for delta in &batches {
            let applied = g.apply(delta).unwrap();
            session.advance(&g, &applied);
            let warm = session.solve().unwrap();
            let cold = netflow_max_flow(&g, s, t).unwrap().flow;
            assert_close(warm.flow, cold);
        }
        let stats = session.stats();
        assert_eq!(stats.solves, 4);
        assert_eq!(stats.advances, 3);
        assert_eq!(stats.dual_reoptimizations, 1);
        assert_eq!(stats.primal_reoptimizations, 2);
        assert_eq!(stats.basis_hits + stats.fallback_cold, 3);
        assert_eq!(
            stats.dual_reoptimizations + stats.primal_reoptimizations,
            stats.basis_hits + stats.fallback_cold,
            "re-optimizations count attempts"
        );
        assert!(stats.tombstoned_arcs > 0 && stats.added_arcs > 0);
    }

    #[test]
    fn expiry_only_stream_stays_on_the_dual_path() {
        let (mut g, s, t) = seed_graph();
        let mut session = FlowSession::new(&g, s, t, FlowMethod::PreSim).unwrap();
        session.solve().unwrap();
        for frontier in [3, 5, 8] {
            let delta = GraphDelta::new(4, vec![], vec![])
                .unwrap()
                .expire_before(frontier);
            let applied = g.apply(&delta).unwrap();
            let patch = session.advance(&g, &applied);
            assert!(patch.shrink_only);
            let warm = session.solve().unwrap();
            assert_close(warm.flow, netflow_max_flow(&g, s, t).unwrap().flow);
            assert!(warm.basis_reused, "dual reopt should keep the basis");
        }
        assert_eq!(session.stats().dual_reoptimizations, 3);
        assert_eq!(session.stats().basis_hits, 3);
        assert_eq!(session.stats().fallback_cold, 0);
    }

    #[test]
    fn solve_without_advance_is_pivot_free() {
        let (g, s, t) = seed_graph();
        let mut session = FlowSession::new(&g, s, t, FlowMethod::Lp).unwrap();
        let first = session.solve().unwrap();
        let again = session.solve().unwrap();
        assert_close(again.flow, first.flow);
        assert!(again.basis_reused);
        assert_eq!(again.pivots, 0);
    }
}
