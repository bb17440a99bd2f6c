//! The flow computation pipelines evaluated in the paper (Section 6.2).
//!
//! * [`FlowMethod::Greedy`] — the linear-time greedy scan (greedy flow, not
//!   necessarily the maximum);
//! * [`FlowMethod::Lp`] — the baseline: formulate the Section 4.2.1 LP over
//!   the whole graph and solve it;
//! * [`FlowMethod::Pre`] — greedy-solubility test, then Algorithm 1
//!   preprocessing, then the solubility test again, LP only if still needed;
//! * [`FlowMethod::PreSim`] — like `Pre`, plus Algorithm 2 graph
//!   simplification before falling back to the LP. This is the paper's
//!   complete solution;
//! * [`FlowMethod::TimeExpanded`] — an additional exact solver (Dinic on the
//!   time-expanded static network) used as a fast oracle and cross-check.
//!
//! Every maximum-flow run is classified into the difficulty classes used by
//! Tables 6–8: class A (soluble by greedy as-is), class B (soluble by greedy
//! after preprocessing) and class C (LP required even after preprocessing).

use crate::error::FlowError;
use crate::greedy::{greedy_flow, greedy_flow_with};
use crate::lp_formulation::{build_lp, max_flow_with_engine, LpOutcome, SimplexEngine};
use crate::preprocess::PreprocessReport;
use crate::reduce::FlatDag;
use crate::simplify::SimplifyReport;
use serde::{Deserialize, Serialize};
use tin_graph::{topological_order, NodeId, Quantity, TemporalGraph};
use tin_maxflow::time_expanded_max_flow;

/// The flow computation strategies compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowMethod {
    /// Greedy flow (Definition 5) — linear, but not necessarily maximum.
    Greedy,
    /// Maximum flow via the LP formulation on the unmodified graph.
    Lp,
    /// Maximum flow via solubility test + preprocessing (+ LP if needed).
    Pre,
    /// Maximum flow via solubility test + preprocessing + simplification
    /// (+ LP if needed) — the paper's full solution.
    PreSim,
    /// Maximum flow via Dinic on the time-expanded static network.
    TimeExpanded,
}

impl FlowMethod {
    /// All methods, in the order used by the paper's tables.
    pub const ALL: [FlowMethod; 5] = [
        FlowMethod::Greedy,
        FlowMethod::Lp,
        FlowMethod::Pre,
        FlowMethod::PreSim,
        FlowMethod::TimeExpanded,
    ];

    /// Short name used in reports and benchmark labels.
    pub fn name(self) -> &'static str {
        match self {
            FlowMethod::Greedy => "Greedy",
            FlowMethod::Lp => "LP",
            FlowMethod::Pre => "Pre",
            FlowMethod::PreSim => "PreSim",
            FlowMethod::TimeExpanded => "TimeExpanded",
        }
    }

    /// Whether this method computes the *maximum* flow (as opposed to the
    /// greedy flow).
    pub fn is_exact(self) -> bool {
        !matches!(self, FlowMethod::Greedy)
    }
}

impl std::fmt::Display for FlowMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Difficulty classes of Tables 6–8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DifficultyClass {
    /// The input graph satisfies Lemma 2: greedy already computes the
    /// maximum flow.
    A,
    /// After Algorithm 1 preprocessing the graph satisfies Lemma 2 (or the
    /// flow is trivially 0).
    B,
    /// LP (or an equivalent exact solver) is required even after
    /// preprocessing.
    C,
}

impl std::fmt::Display for DifficultyClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DifficultyClass::A => f.write_str("A"),
            DifficultyClass::B => f.write_str("B"),
            DifficultyClass::C => f.write_str("C"),
        }
    }
}

/// Instrumentation collected while computing a flow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Interactions in the input graph.
    pub interactions_input: usize,
    /// Interactions remaining after preprocessing (when it ran).
    pub interactions_after_preprocess: Option<usize>,
    /// Interactions remaining after simplification (when it ran).
    pub interactions_after_simplify: Option<usize>,
    /// What the exact engine reported (when one ran): the LP size, pivots
    /// and which engine it was. The default pipeline routes class C through
    /// the network simplex; [`compute_flow_with_engine`] can pick the sparse
    /// revised simplex instead.
    pub lp: Option<LpOutcome>,
    /// Whether the final answer was produced by the greedy scan.
    pub solved_by_greedy: bool,
    /// Preprocessing report (when preprocessing ran).
    pub preprocess: Option<PreprocessReport>,
    /// Simplification report (when simplification ran).
    pub simplify: Option<SimplifyReport>,
}

/// Result of a flow computation.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The computed flow value (greedy flow for [`FlowMethod::Greedy`], the
    /// maximum flow otherwise).
    pub flow: Quantity,
    /// The method that produced the value.
    pub method: FlowMethod,
    /// Difficulty class (only populated by `Pre` and `PreSim`, which perform
    /// the classification as a side effect).
    pub class: Option<DifficultyClass>,
    /// Instrumentation.
    pub stats: SolveStats,
}

/// Checks that the endpoints are distinct existing vertices.
fn check_endpoints(graph: &TemporalGraph, source: NodeId, sink: NodeId) -> Result<(), FlowError> {
    if source.index() >= graph.node_count() {
        return Err(FlowError::NodeOutOfRange(source));
    }
    if sink.index() >= graph.node_count() {
        return Err(FlowError::NodeOutOfRange(sink));
    }
    if source == sink {
        return Err(FlowError::SourceEqualsSink(source));
    }
    Ok(())
}

/// The error every pipeline returns for a cyclic input.
const NOT_A_DAG: FlowError = FlowError::Graph(tin_graph::GraphError::NotADag);

/// Checks the endpoints and that `graph` is a DAG: the check of the methods
/// that do not build the flat DAG, which `Pre` and `PreSim` take their DAG
/// check and topological order from.
fn validate(graph: &TemporalGraph, source: NodeId, sink: NodeId) -> Result<(), FlowError> {
    check_endpoints(graph, source, sink)?;
    topological_order(graph).map_err(|_| NOT_A_DAG)?;
    Ok(())
}

/// Computes the flow from `source` to `sink` in `graph` with the requested
/// method.
///
/// The graph must be a DAG and the endpoints must be distinct existing
/// vertices. Graphs with multiple sources/sinks should first be augmented
/// with [`tin_graph::augment_with_synthetic_endpoints`].
pub fn compute_flow(
    graph: &TemporalGraph,
    source: NodeId,
    sink: NodeId,
    method: FlowMethod,
) -> Result<FlowResult, FlowError> {
    compute_flow_with_engine(graph, source, sink, method, SimplexEngine::NetworkSimplex)
}

/// Like [`compute_flow`], but with an explicit choice of exact engine for the
/// subproblems that need one (`Lp`, and the class C leg of `Pre`/`PreSim`).
///
/// [`SimplexEngine::NetworkSimplex`] — the engine [`compute_flow`] uses —
/// skips the LP assembly entirely and solves the time-expanded
/// min-cost circulation directly; [`SimplexEngine::SparseRevised`] solves
/// the Section 4.2.1 LP, as the paper does with `lpsolve`.
pub fn compute_flow_with_engine(
    graph: &TemporalGraph,
    source: NodeId,
    sink: NodeId,
    method: FlowMethod,
    engine: SimplexEngine,
) -> Result<FlowResult, FlowError> {
    match method {
        FlowMethod::Pre | FlowMethod::PreSim => check_endpoints(graph, source, sink)?,
        _ => validate(graph, source, sink)?,
    }
    let mut stats = SolveStats {
        interactions_input: graph.interaction_count(),
        ..SolveStats::default()
    };
    match method {
        FlowMethod::Greedy => {
            stats.solved_by_greedy = true;
            Ok(FlowResult {
                flow: greedy_flow(graph, source, sink).flow,
                method,
                class: None,
                stats,
            })
        }
        FlowMethod::TimeExpanded => Ok(FlowResult {
            flow: time_expanded_max_flow(graph, source, sink),
            method,
            class: None,
            stats,
        }),
        FlowMethod::Lp => {
            let outcome = max_flow_with_engine(graph, source, sink, engine)?;
            Ok(FlowResult {
                flow: outcome.flow,
                method,
                class: None,
                stats: SolveStats {
                    lp: Some(outcome),
                    ..stats
                },
            })
        }
        FlowMethod::Pre => solve_with_preprocessing(graph, source, sink, false, engine, stats),
        FlowMethod::PreSim => solve_with_preprocessing(graph, source, sink, true, engine, stats),
    }
}

/// Computes the maximum flow with the paper's complete solution
/// ([`FlowMethod::PreSim`]).
pub fn maximum_flow(
    graph: &TemporalGraph,
    source: NodeId,
    sink: NodeId,
) -> Result<FlowResult, FlowError> {
    compute_flow(graph, source, sink, FlowMethod::PreSim)
}

/// The `Pre`/`PreSim` pipeline. Everything runs on one flat DAG, whose
/// construction is also the DAG check: the class A test, preprocessing,
/// the Lemma 2 test, simplification, the Lemma 2 test again, and the exact
/// leg, which the network simplex solves from the circulation emitted
/// straight off the DAG into its arrays. Class A's greedy scan reads the
/// input graph, whose edge order decides greedy's ties. Only the sparse
/// engine builds a graph of the reduced DAG, for [`build_lp`].
fn solve_with_preprocessing(
    graph: &TemporalGraph,
    source: NodeId,
    sink: NodeId,
    with_simplify: bool,
    engine: SimplexEngine,
    mut stats: SolveStats,
) -> Result<FlowResult, FlowError> {
    let method = if with_simplify {
        FlowMethod::PreSim
    } else {
        FlowMethod::Pre
    };
    let solved_by_greedy = |flow, class, mut stats: SolveStats| {
        stats.solved_by_greedy = true;
        Ok(FlowResult {
            flow,
            method,
            class: Some(class),
            stats,
        })
    };

    let mut dag = FlatDag::new(graph, source, sink);
    if !dag.is_dag() {
        return Err(NOT_A_DAG);
    }

    // Step 1: class A — greedy already solves the maximum flow problem.
    if dag.is_greedy_soluble() {
        let flow = greedy_flow_with(graph, source, sink, dag.greedy_scratch());
        return solved_by_greedy(flow, DifficultyClass::A, stats);
    }

    // Step 2: preprocessing (Algorithm 1).
    let report = dag.preprocess();
    stats.interactions_after_preprocess = Some(report.interactions_remaining);
    stats.preprocess = Some(report);
    if dag.is_zero_flow() {
        return solved_by_greedy(0.0, DifficultyClass::B, stats);
    }

    // Step 3: class B — preprocessing exposed a Lemma 2 graph.
    if dag.is_greedy_soluble() {
        let flow = dag.greedy_flow();
        return solved_by_greedy(flow, DifficultyClass::B, stats);
    }

    // Step 4 (PreSim only): simplification (Algorithm 2), which may produce
    // a Lemma 2 graph.
    if with_simplify {
        let report = dag.simplify();
        stats.interactions_after_simplify = Some(report.interactions_after);
        stats.simplify = Some(report);
        if dag.is_greedy_soluble() {
            let flow = dag.greedy_flow();
            return solved_by_greedy(flow, DifficultyClass::C, stats);
        }
    }

    // Step 5: class C — exact solve on the reduced DAG.
    let outcome = match engine {
        SimplexEngine::NetworkSimplex => dag.max_flow()?,
        SimplexEngine::SparseRevised => {
            let (graph, source, sink) = dag.into_graph();
            build_lp(&graph, source, sink).solve().map(|(o, _)| o)?
        }
    };
    Ok(FlowResult {
        flow: outcome.flow,
        method,
        class: Some(DifficultyClass::C),
        stats: SolveStats {
            lp: Some(outcome),
            ..stats
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tin_graph::{GraphBuilder, GraphError};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// Figure 3: class C (greedy ≠ max even though it is tiny).
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

    #[test]
    fn all_exact_methods_agree_on_figure3() {
        let (g, s, t) = figure3();
        let expected = 5.0;
        for method in [
            FlowMethod::Lp,
            FlowMethod::Pre,
            FlowMethod::PreSim,
            FlowMethod::TimeExpanded,
        ] {
            let r = compute_flow(&g, s, t, method).unwrap();
            assert_close(r.flow, expected);
            assert_eq!(r.method, method);
        }
        let greedy = compute_flow(&g, s, t, FlowMethod::Greedy).unwrap();
        assert_close(greedy.flow, 1.0);
        assert!(greedy.stats.solved_by_greedy);
    }

    #[test]
    fn class_a_graph_is_solved_by_greedy() {
        // A chain: Lemma 2 applies immediately.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(1, 5.0), (3, 2.0)]).unwrap();
        b.add_pairs(a, t, &[(2, 4.0), (4, 9.0)]).unwrap();
        let g = b.build();
        let r = compute_flow(&g, s, t, FlowMethod::PreSim).unwrap();
        assert_eq!(r.class, Some(DifficultyClass::A));
        assert!(r.stats.solved_by_greedy);
        assert!(r.stats.preprocess.is_none());
        assert_close(r.flow, 7.0);
    }

    #[test]
    fn class_b_graph_needs_preprocessing_only() {
        // Figure 6(c): after preprocessing the graph collapses to the chain
        // s -> z -> t, which greedy solves.
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
        let g = b.build();
        let r = compute_flow(&g, s, t, FlowMethod::Pre).unwrap();
        assert_eq!(r.class, Some(DifficultyClass::B));
        assert!(r.stats.solved_by_greedy);
        assert!(r.stats.preprocess.is_some());
        assert_close(r.flow, 4.0);
        // PreSim agrees and LP agrees.
        assert_close(
            compute_flow(&g, s, t, FlowMethod::PreSim).unwrap().flow,
            4.0,
        );
        assert_close(compute_flow(&g, s, t, FlowMethod::Lp).unwrap().flow, 4.0);
    }

    #[test]
    fn class_c_graph_reports_lp_statistics() {
        let (g, s, t) = figure3();
        let r = compute_flow(&g, s, t, FlowMethod::Pre).unwrap();
        assert_eq!(r.class, Some(DifficultyClass::C));
        let lp = r.stats.lp.as_ref().expect("class C runs the exact engine");
        assert!(lp.nonzeros > 0);
        assert!(lp.density > 0.0);
        // The default pipeline routes class C through the network simplex.
        assert_eq!(lp.engine, SimplexEngine::NetworkSimplex);
        let rs = compute_flow(&g, s, t, FlowMethod::PreSim).unwrap();
        assert_eq!(rs.class, Some(DifficultyClass::C));
    }

    #[test]
    fn every_engine_solves_class_c_identically() {
        let (g, s, t) = figure3();
        for engine in [SimplexEngine::NetworkSimplex, SimplexEngine::SparseRevised] {
            for method in [FlowMethod::Lp, FlowMethod::Pre, FlowMethod::PreSim] {
                let r = compute_flow_with_engine(&g, s, t, method, engine).unwrap();
                assert_close(r.flow, 5.0);
                assert_eq!(r.stats.lp.map(|o| o.engine), Some(engine));
            }
        }
        // The dense tableau, the sparse engine's test reference, agrees on
        // the reduced LPs the sparse engine solves for `Pre` and `PreSim`.
        for with_simplify in [false, true] {
            let mut dag = FlatDag::new(&g, s, t);
            dag.preprocess();
            if with_simplify {
                dag.simplify();
            }
            assert!(!dag.is_greedy_soluble(), "Figure 3 stays class C");
            let (reduced, rs, rt) = dag.into_graph();
            let f = build_lp(&reduced, rs, rt);
            let dense = tin_lp::dense::solve(&f.problem);
            assert!(dense.is_optimal());
            assert_close(dense.objective + f.fixed_flow, 5.0);
        }
    }

    #[test]
    fn presim_shrinks_the_lp_compared_to_pre() {
        // Figure 7(a): PreSim contracts three chains; if the LP still runs it
        // sees far fewer variables than Pre's LP.
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
        let g = b.build();
        let pre = compute_flow(&g, s, t, FlowMethod::Pre).unwrap();
        let presim = compute_flow(&g, s, t, FlowMethod::PreSim).unwrap();
        assert_close(pre.flow, presim.flow);
        let pre_vars = pre.stats.lp.map_or(0, |o| o.variables);
        match presim.stats.lp.map(|o| o.variables) {
            Some(v) => assert!(
                v < pre_vars,
                "PreSim LP ({v}) not smaller than Pre LP ({pre_vars})"
            ),
            None => assert!(presim.stats.solved_by_greedy),
        }
        let lp = compute_flow(&g, s, t, FlowMethod::Lp).unwrap();
        assert_close(lp.flow, presim.flow);
    }

    #[test]
    fn zero_flow_detected_by_preprocessing() {
        // `a` fans out (so Lemma 2 does not apply), but every forwarding
        // interaction happens before anything can arrive: preprocessing
        // disconnects the sink and proves the flow is 0 without any LP.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let c = b.add_node("c");
        let d = b.add_node("d");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(10, 5.0)]).unwrap();
        b.add_pairs(a, c, &[(2, 5.0)]).unwrap();
        b.add_pairs(a, d, &[(3, 1.0)]).unwrap();
        b.add_pairs(d, t, &[(4, 1.0)]).unwrap();
        b.add_pairs(c, t, &[(1, 5.0)]).unwrap();
        let g = b.build();
        let r = compute_flow(&g, s, t, FlowMethod::PreSim).unwrap();
        assert_close(r.flow, 0.0);
        assert_eq!(r.class, Some(DifficultyClass::B));
        // The exact solvers agree.
        assert_close(
            compute_flow(&g, s, t, FlowMethod::TimeExpanded)
                .unwrap()
                .flow,
            0.0,
        );
        assert_close(compute_flow(&g, s, t, FlowMethod::Lp).unwrap().flow, 0.0);
    }

    #[test]
    fn windowed_graph_with_an_expired_source_edge() {
        // Expiry tombstones s→v, v's only in-edge; the reductions must skip
        // the tombstoned slot rather than treat it as an empty edge.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let bb = b.add_node("b");
        let v = b.add_node("v");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(5, 1.0)]).unwrap();
        b.add_pairs(a, t, &[(6, 1.0)]).unwrap();
        b.add_pairs(a, bb, &[(7, 1.0)]).unwrap();
        b.add_pairs(bb, t, &[(8, 1.0)]).unwrap();
        b.add_pairs(s, v, &[(1, 1.0)]).unwrap();
        b.add_pairs(v, t, &[(9, 1.0)]).unwrap();
        let mut g = b.build();
        let window = tin_graph::GraphDelta::new(g.node_count(), vec![], vec![])
            .unwrap()
            .expire_before(2);
        g.apply(&window).unwrap();
        assert!(g.is_tombstone(
            g.edge_ids()
                .find(|&e| g.edge(e).src == s && g.edge(e).dst == v)
                .unwrap()
        ));
        for method in FlowMethod::ALL.into_iter().filter(|m| m.is_exact()) {
            assert_close(compute_flow(&g, s, t, method).unwrap().flow, 1.0);
        }
    }

    #[test]
    fn huge_finite_quantities_do_not_overflow_any_exact_method() {
        // The quantities sum past f64::MAX. Every exact method must still
        // return the bottleneck, v→t's 1e308, on both engines; the
        // time-expanded network once panicked on its overflowed stand-in
        // for ∞.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let v = b.add_node("v");
        let t = b.add_node("t");
        b.add_pairs(s, v, &[(1, 1e308), (2, 1e308)]).unwrap();
        b.add_pairs(v, t, &[(3, 1e308)]).unwrap();
        let g = b.build();
        for method in FlowMethod::ALL.into_iter().filter(|m| m.is_exact()) {
            assert_eq!(
                compute_flow(&g, s, t, method).unwrap().flow,
                1e308,
                "{method}"
            );
            // Only `Lp` reaches the engine here: `Pre` and `PreSim` finish
            // in class A.
            let sparse = compute_flow_with_engine(&g, s, t, method, SimplexEngine::SparseRevised);
            assert_eq!(sparse.unwrap().flow, 1e308, "{method} on the sparse engine");
        }
        // v's one row has right-hand side 1e308 + 1e308 = +∞, which the LP
        // accepts as a row that never binds; the dense reference agrees.
        let lp = build_lp(&g, s, t);
        assert_eq!(lp.problem.num_constraints(), 1);
        let dense = tin_lp::dense::solve(&lp.problem);
        assert_eq!(dense.status, tin_lp::LpStatus::Optimal);
        assert_eq!(dense.objective + lp.fixed_flow, 1e308);
    }

    #[test]
    fn maximum_flow_is_presim() {
        let (g, s, t) = figure3();
        let r = maximum_flow(&g, s, t).unwrap();
        assert_eq!(r.method, FlowMethod::PreSim);
        assert_close(r.flow, 5.0);
    }

    #[test]
    fn validation_errors() {
        let (g, s, t) = figure3();
        assert_eq!(
            compute_flow(&g, s, s, FlowMethod::Greedy).unwrap_err(),
            FlowError::SourceEqualsSink(s)
        );
        assert!(matches!(
            compute_flow(&g, NodeId(99), t, FlowMethod::Greedy).unwrap_err(),
            FlowError::NodeOutOfRange(_)
        ));
        // Cyclic graphs are rejected.
        let mut b = GraphBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.add_pairs(a, c, &[(1, 1.0)]).unwrap();
        b.add_pairs(c, a, &[(2, 1.0)]).unwrap();
        let cyc = b.build();
        assert_eq!(
            compute_flow(&cyc, a, c, FlowMethod::Greedy).unwrap_err(),
            FlowError::Graph(GraphError::NotADag)
        );
    }

    #[test]
    fn method_metadata() {
        assert_eq!(FlowMethod::Greedy.name(), "Greedy");
        assert_eq!(FlowMethod::PreSim.to_string(), "PreSim");
        assert!(!FlowMethod::Greedy.is_exact());
        assert!(FlowMethod::Lp.is_exact());
        assert_eq!(FlowMethod::ALL.len(), 5);
        assert_eq!(DifficultyClass::A.to_string(), "A");
        assert_eq!(DifficultyClass::C.to_string(), "C");
    }

    #[test]
    fn greedy_never_exceeds_maximum_on_examples() {
        let (g, s, t) = figure3();
        let greedy = compute_flow(&g, s, t, FlowMethod::Greedy).unwrap().flow;
        let max = compute_flow(&g, s, t, FlowMethod::PreSim).unwrap().flow;
        assert!(greedy <= max + 1e-9);
    }
}
