//! The linear-programming formulation of maximum flow (Section 4.2.1).
//!
//! One variable `x_i` is created for every interaction that does **not**
//! originate from the flow source (interactions leaving the source always
//! transfer their full quantity — reserving at the source can never help).
//! For every variable:
//!
//! * `0 ≤ x_i ≤ q_i` (an interaction cannot move more than its quantity) —
//!   emitted as a **variable upper bound**, not a constraint row: the
//!   revised simplex handles bounds in its ratio test, so the per-
//!   interaction capacities cost the LP nothing;
//! * `x_i ≤ (quantity arrived at src(i) strictly before t_i)
//!          − (quantity already sent by src(i) before t_i)`,
//!   which is constraint (2) of the paper. Interactions leaving the same
//!   vertex at the same timestamp share the buffer (earlier-ordered ones are
//!   included in the "already sent" sum), matching the strict-precedence
//!   semantics of the greedy scan and of the time-expanded reduction.
//!
//! The objective maximizes the total quantity entering the sink. Unbounded
//! (synthetic) quantities are replaced by a finite stand-in larger than the
//! total finite quantity of the graph, which can never constrain an optimal
//! solution.
//!
//! The constraint matrix this produces is extremely sparse — each variable
//! appears in one balance row per downstream departure of its endpoint —
//! which is the regime the sparse revised simplex
//! ([`SimplexEngine::SparseRevised`]) is built for.
//!
//! The class C **hot path** does not assemble this LP at all: the same
//! flow problem is a pure min-cost circulation on the time-expanded
//! network, solved by the network simplex
//! ([`SimplexEngine::NetworkSimplex`]). One emission loop writes it into
//! one of two sinks: a [`MinCostFlowProblem`] for [`build_mcf`] and the
//! flow sessions (see [`McfFormulation`]), or, for a cold solve that only
//! needs the maximum flow ([`netflow_max_flow`] and the exact leg of
//! `Pre`/`PreSim`), the simplex's own arrays through [`Circulation`].
//! [`SimplexEngine`] picks between the LP and the circulation in
//! [`max_flow_with_engine`].

use crate::error::FlowError;
use std::cell::RefCell;
use std::cmp::Ordering;
use tin_graph::{AppliedDelta, EdgeId, Events, Interaction, NodeId, Quantity, TemporalGraph, Time};
use tin_lp::netflow::stash;
use tin_lp::{Circulation, LpProblem, LpSolution, LpStatus, McfSolution, MinCostFlowProblem};

/// The exact engine that solves a maximum-flow problem, read by
/// [`max_flow_with_engine`] and [`crate::compute_flow_with_engine`] and
/// recorded in [`LpOutcome::engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimplexEngine {
    /// The network simplex on the time-expanded circulation of
    /// [`build_mcf`] — what [`crate::compute_flow`] uses.
    NetworkSimplex,
    /// The sparse revised simplex on the Section 4.2.1 LP of [`build_lp`],
    /// the stand-in for the paper's `lpsolve`.
    SparseRevised,
}

/// A constructed LP instance together with the bookkeeping needed to
/// interpret its solution.
#[derive(Debug, Clone)]
pub struct LpFormulation {
    /// The linear program (maximization).
    pub problem: LpProblem,
    /// Number of decision variables (interactions not leaving the source).
    pub variables: usize,
    /// Number of constraint rows (balance constraints only; per-interaction
    /// capacities are variable bounds, not rows).
    pub constraints: usize,
    /// Flow contributed by interactions that go directly from the source to
    /// the sink (they are constants, not variables).
    pub fixed_flow: Quantity,
}

/// Result of solving the LP formulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LpOutcome {
    /// The maximum flow from the source to the sink.
    pub flow: Quantity,
    /// Number of LP variables.
    pub variables: usize,
    /// Number of LP constraint rows.
    pub constraints: usize,
    /// Simplex iterations performed (pivots plus bound flips).
    pub iterations: usize,
    /// Basis refactorizations performed (0 for the network simplex, which
    /// has no factorized basis).
    pub refactorizations: usize,
    /// Nonzero coefficients in the constraint matrix.
    pub nonzeros: usize,
    /// Nonzero density of the constraint matrix (nonzeros over rows ×
    /// columns; 0 for empty programs).
    pub density: f64,
    /// Which engine produced the solution.
    pub engine: SimplexEngine,
    /// Basis-changing pivots performed.
    pub pivots: usize,
    /// Pivots whose step length was (numerically) zero.
    pub degenerate_pivots: usize,
}

/// Builds the Section 4.2.1 linear program for `graph` with the given flow
/// endpoints.
pub fn build_lp(graph: &TemporalGraph, source: NodeId, sink: NodeId) -> LpFormulation {
    let events = Events::collect(graph);
    let evs = events.as_slice();

    // Finite stand-in for unbounded quantities.
    let finite_total: f64 = evs
        .iter()
        .map(|e| {
            if e.quantity.is_finite() {
                e.quantity
            } else {
                0.0
            }
        })
        .sum();
    let unbounded = finite_total + 1.0;
    let value_of = |q: Quantity| if q.is_finite() { q } else { unbounded };

    // Assign variable indices to interactions that do not leave the source
    // (and do not leave the sink — the model assumes the sink only absorbs).
    let mut var_of_event: Vec<Option<usize>> = vec![None; evs.len()];
    let mut variables = 0usize;
    for (idx, ev) in evs.iter().enumerate() {
        if ev.src != source && ev.src != sink {
            var_of_event[idx] = Some(variables);
            variables += 1;
        }
    }

    let mut problem = LpProblem::new(variables);
    let mut fixed_flow = 0.0;

    // Objective + upper bounds.
    for (idx, ev) in evs.iter().enumerate() {
        match var_of_event[idx] {
            Some(var) => {
                problem.set_upper_bound(var, value_of(ev.quantity));
                if ev.dst == sink {
                    problem.add_objective_coefficient(var, 1.0);
                }
            }
            None => {
                if ev.src == source && ev.dst == sink {
                    fixed_flow += value_of(ev.quantity);
                }
            }
        }
    }

    // Balance constraints, built per vertex from its chronological timeline.
    // in_vars / in_const hold arrivals strictly before the current timestamp;
    // pending_* hold arrivals at the current timestamp (not yet usable).
    let mut timeline: Vec<Vec<usize>> = vec![Vec::new(); graph.node_count()];
    for (idx, ev) in evs.iter().enumerate() {
        if ev.src != source && ev.src != sink {
            timeline[ev.src.index()].push(idx);
        }
        if ev.dst != ev.src && ev.dst != source && ev.dst != sink {
            timeline[ev.dst.index()].push(idx);
        }
    }
    for v in graph.node_ids() {
        if v == source || v == sink {
            continue;
        }
        let events_of_v = &timeline[v.index()];
        if events_of_v.is_empty() {
            continue;
        }
        let mut in_vars: Vec<usize> = Vec::new();
        let mut in_const = 0.0f64;
        let mut out_vars: Vec<usize> = Vec::new();
        let mut pending_in_vars: Vec<usize> = Vec::new();
        let mut pending_in_const = 0.0f64;
        let mut current_time = None;
        for &idx in events_of_v {
            let ev = &evs[idx];
            if current_time != Some(ev.time) {
                // New timestamp: everything that arrived earlier becomes
                // usable.
                in_vars.append(&mut pending_in_vars);
                in_const += pending_in_const;
                pending_in_const = 0.0;
                current_time = Some(ev.time);
            }
            if ev.src == v {
                let var = var_of_event[idx].expect("outgoing interaction of a non-endpoint vertex");
                // x_i + sum(out so far) - sum(in strictly before) <= in_const
                let mut coeffs: Vec<(usize, f64)> =
                    Vec::with_capacity(1 + out_vars.len() + in_vars.len());
                coeffs.push((var, 1.0));
                coeffs.extend(out_vars.iter().map(|&j| (j, 1.0)));
                coeffs.extend(in_vars.iter().map(|&j| (j, -1.0)));
                problem.add_le_constraint(&coeffs, in_const);
                out_vars.push(var);
            }
            if ev.dst == v {
                match var_of_event[idx] {
                    Some(var) => pending_in_vars.push(var),
                    None => pending_in_const += value_of(ev.quantity),
                }
            }
        }
    }

    let constraints = problem.num_constraints();
    LpFormulation {
        problem,
        variables,
        constraints,
        fixed_flow,
    }
}

impl LpFormulation {
    /// Solves the program with the sparse revised simplex and interprets the
    /// result as a maximum flow value.
    pub fn solve(&self) -> Result<(LpOutcome, LpSolution), FlowError> {
        let solution = self.problem.solve();
        if solution.status != LpStatus::Optimal {
            return Err(FlowError::LpFailed(solution.status));
        }
        let outcome = LpOutcome {
            flow: solution.objective + self.fixed_flow,
            variables: self.variables,
            constraints: self.constraints,
            iterations: solution.iterations,
            refactorizations: solution.refactorizations,
            nonzeros: solution.matrix_nonzeros,
            density: solution.matrix_density,
            engine: SimplexEngine::SparseRevised,
            pivots: solution.pivots,
            degenerate_pivots: solution.degenerate_pivots,
        };
        Ok((outcome, solution))
    }
}

/// Convenience wrapper: builds and solves the LP formulation, returning the
/// maximum flow from `source` to `sink`.
pub fn lp_max_flow(
    graph: &TemporalGraph,
    source: NodeId,
    sink: NodeId,
) -> Result<LpOutcome, FlowError> {
    let formulation = build_lp(graph, source, sink);
    formulation.solve().map(|(outcome, _)| outcome)
}

/// The direct min-cost-flow form of the maximum-flow problem: the
/// time-expanded network emitted straight into a
/// [`MinCostFlowProblem`], skipping the [`LpProblem`] row/column assembly
/// entirely. Balance rows become the circulation's conservation
/// constraints, per-interaction capacities become arc capacities, and a
/// `sink → source` return arc of cost −1 makes the min-cost circulation
/// equal minus the maximum flow.
#[derive(Debug, Clone)]
pub struct McfFormulation {
    /// The min-cost circulation.
    pub problem: MinCostFlowProblem,
    /// Index of the `sink → source` return arc; its flow at the optimum is
    /// the maximum flow.
    pub return_arc: usize,
    /// Interactions skipped because they cannot carry flow (their source
    /// vertex has no strictly earlier arrival).
    pub skipped_interactions: usize,
    /// Number of decision variables the Section 4.2.1 LP would have had
    /// (interactions not leaving the flow endpoints) — reported in the
    /// outcome so per-engine statistics stay comparable.
    pub lp_variables: usize,
    /// Incremental-patching bookkeeping, present only for session builds
    /// ([`build_mcf_session`]); `None` keeps the one-shot path free of it.
    tracking: Option<Box<Tracking>>,
}

/// Sentinel arc id for an interaction currently unrepresentable in the
/// network (its source vertex has no strictly earlier arrival — the strict
/// precedence rule).
const SKIP_ARC: u32 = u32::MAX;

/// Time-expanded node ids of the flow endpoints (fixed by construction).
const SRC_NODE: usize = 0;
const SINK_NODE: usize = 1;

/// The arcs currently representing one edge's interactions, in
/// chronological `(time, quantity)` order — the same order
/// `Edge::interactions` is kept in, so a delta shows up as a two-pointer
/// diff against it.
#[derive(Debug, Clone, Default)]
struct EdgeMirror {
    entries: Vec<(Time, Quantity, u32)>,
}

/// Bookkeeping that lets [`McfFormulation::apply_delta`] patch the arc
/// arrays in place instead of re-emitting the whole problem.
#[derive(Debug, Clone)]
struct Tracking {
    source: NodeId,
    sink: NodeId,
    /// Per-vertex `(arrival time, node copy)` lists, ascending by time.
    /// Copies of expired arrivals are kept forever: a dead copy only ever
    /// relays holdover flow, which makes it value-equivalent to the
    /// collapsed chain a cold rebuild would produce, and keeping it means
    /// arc tails never dangle.
    arrivals: Vec<Vec<(Time, u32)>>,
    /// One mirror per edge, indexed by `EdgeId::index()` (stable arc ids
    /// keyed by edge id, as tombstoned edges keep their slot).
    mirrors: Vec<EdgeMirror>,
    /// Running total of finite interaction quantity, driving `big`.
    finite_total: f64,
    /// Finite stand-in for unbounded interaction quantities (grows with
    /// the stream; always larger than `finite_total`).
    big: f64,
    /// Live arcs whose capacity is `big`, bumped in place when it grows.
    big_arcs: Vec<u32>,
}

/// Chronological `(time, quantity)` order — the comparator
/// `Interaction::chronological_cmp` uses, applied to mirror entries.
fn chrono_cmp(t1: Time, q1: Quantity, t2: Time, q2: Quantity) -> Ordering {
    t1.cmp(&t2)
        .then(q1.partial_cmp(&q2).unwrap_or(Ordering::Equal))
}

/// Summary of one in-place [`McfFormulation::apply_delta`] patch.
#[derive(Debug, Clone, Default)]
pub struct McfPatch {
    /// The delta only removed capacity (expired interactions, tombstoned
    /// edges): the resident tree of a [`tin_lp::NetflowSession`] stays
    /// dual-feasible, so its dual repair alone restores the optimum.
    pub shrink_only: bool,
    /// Arcs tombstoned to zero capacity.
    pub tombstoned: usize,
    /// Arcs created for newly arrived interactions.
    pub added_arcs: usize,
    /// Vertex copies appended for new arrival times.
    pub added_nodes: usize,
    /// Existing arcs re-pointed at a newly spliced copy (the strict
    /// precedence rule moved their tail).
    pub retargeted: usize,
    /// Ids of every *pre-existing* arc the patch mutated in place
    /// (tombstoned, retargeted, or capacity-bumped) — exactly what a
    /// [`NetflowSession`](tin_lp::NetflowSession) needs to sync its
    /// resident simplex state (appended arcs it discovers on its own).
    /// May contain duplicates.
    pub touched_arcs: Vec<u32>,
}

/// Builds the time-expanded min-cost-flow instance for `graph` with the
/// given flow endpoints. The construction mirrors
/// `tin_maxflow::TimeExpandedNetwork` exactly: one node per (vertex,
/// arrival-time) copy, holdover arcs chaining copies forward in time, and
/// one arc per interaction from the latest copy of its source *strictly
/// before* its timestamp (the paper's strict precedence rule).
pub fn build_mcf(graph: &TemporalGraph, source: NodeId, sink: NodeId) -> McfFormulation {
    build_graph_mcf(graph, source, sink, false)
}

/// Like [`build_mcf`], but records the bookkeeping
/// [`McfFormulation::apply_delta`] needs to patch the problem in place as
/// the graph streams forward. Session builds also use truly infinite
/// holdover/return capacities (instead of the finite total-quantity
/// stand-in, which a growing stream would outrun) — safe because every
/// source→sink path crosses a finite interaction arc.
pub fn build_mcf_session(graph: &TemporalGraph, source: NodeId, sink: NodeId) -> McfFormulation {
    build_graph_mcf(graph, source, sink, true)
}

/// Every edge slot of `graph` in edge-id order — tombstones included, so a
/// session's mirrors stay indexed by edge id.
fn graph_edges(
    graph: &TemporalGraph,
) -> impl Iterator<Item = (usize, usize, &[Interaction])> + Clone {
    graph
        .edges()
        .iter()
        .map(|e| (e.src.index(), e.dst.index(), e.interactions.as_slice()))
}

fn build_graph_mcf(
    graph: &TemporalGraph,
    source: NodeId,
    sink: NodeId,
    session: bool,
) -> McfFormulation {
    McfFormulation::from_emitted(emit(
        graph.node_count(),
        graph_edges(graph),
        source.index(),
        sink.index(),
        session,
        |nodes, arcs| {
            let mut problem = MinCostFlowProblem::new(nodes);
            problem.reserve_arcs(arcs);
            problem
        },
    ))
}

/// Where [`emit`] writes the circulation's arcs: a [`MinCostFlowProblem`]
/// for [`build_mcf`] and sessions, or the network simplex's own arrays
/// ([`Circulation`]) for a cold solve that only reads the maximum flow.
pub(crate) trait ArcSink {
    /// Appends the arc `tail → head`; returns its index.
    fn add_arc(&mut self, tail: usize, head: usize, cost: f64, capacity: f64) -> usize;
}

impl ArcSink for MinCostFlowProblem {
    fn add_arc(&mut self, tail: usize, head: usize, cost: f64, capacity: f64) -> usize {
        MinCostFlowProblem::add_arc(self, tail, head, cost, capacity)
    }
}

impl ArcSink for Circulation {
    fn add_arc(&mut self, tail: usize, head: usize, cost: f64, capacity: f64) -> usize {
        Circulation::add_arc(self, tail, head, cost, capacity)
    }
}

/// A circulation [`emit`] wrote, with what the flow problem needs to read
/// it.
pub(crate) struct Emitted<S> {
    arcs: S,
    return_arc: usize,
    skipped: usize,
    lp_variables: usize,
    tracking: Option<Box<Tracking>>,
}

/// The emitter's recycled buffers: every vertex's distinct arrival times,
/// counting-sorted by vertex into one array.
#[derive(Default)]
struct ArrivalBuffers {
    /// Vertex `v`'s arrival times, ascending and distinct, are
    /// `times[runs[v]..runs[v + 1]]`; the `k`-th is the time of node
    /// `2 + runs[v] + k`, v's `k`-th copy.
    times: Vec<Time>,
    runs: Vec<u32>,
}

thread_local! {
    static ARRIVALS: RefCell<ArrivalBuffers> = RefCell::new(ArrivalBuffers::default());
}

/// The first index at or after `from` of `times` (ascending) whose time is
/// not below `t`: a galloping search, so a cursor that only moves forward
/// pays for the distance it moves, not for the whole run.
fn seek(times: &[Time], from: usize, t: Time) -> usize {
    let rest = &times[from..];
    if rest.first().is_none_or(|&at| at >= t) {
        return from;
    }
    // rest[0] < t: double the probe until it passes t or the run ends.
    let mut probe = 1;
    while probe < rest.len() && rest[probe] < t {
        probe *= 2;
    }
    let lo = probe / 2 + 1;
    let hi = probe.min(rest.len());
    from + lo + rest[lo..hi].partition_point(|&at| at < t)
}

/// Emits the time-expanded circulation of the edge list `edges` — `(src,
/// dst, interactions)` triples over vertices `0..nodes`, interactions
/// chronologically sorted — into the sink `open(node count, arc count
/// bound)` returns. This is the one emission loop: [`build_mcf`],
/// sessions, the cold exact legs and the reduced flow DAG all come through
/// it. Arcs follow the list's order, which is what makes two lists of the
/// same edges in the same order emit the identical problem — the reduced
/// flow DAG relies on it to match [`build_mcf`] of the graph it would
/// build.
///
/// Node 0 is the source, node 1 the sink, then every vertex's copies in
/// vertex order. Arcs: the holdovers, vertex by vertex; one arc per
/// interaction that can carry flow, in list order; the return arc last.
pub(crate) fn emit<'a, S: ArcSink>(
    nodes: usize,
    edges: impl Iterator<Item = (usize, usize, &'a [Interaction])> + Clone,
    source: usize,
    sink: usize,
    session: bool,
    open: impl FnOnce(usize, usize) -> S,
) -> Emitted<S> {
    let mut buffers = ARRIVALS.with(|slot| slot.take());
    let ArrivalBuffers { times, runs } = &mut buffers;

    // Pass 1 counts every vertex's arrivals (the flow endpoints get no
    // copies), and prefix sums turn the counts into end offsets.
    runs.clear();
    runs.resize(nodes + 1, 0);
    let mut interactions = 0usize;
    for (_, dst, ints) in edges.clone() {
        interactions += ints.len();
        if dst != source && dst != sink {
            runs[dst] += ints.len() as u32;
        }
    }
    let mut total = 0u32;
    for r in runs.iter_mut() {
        total += *r;
        *r = total;
    }

    // Pass 2 reads every interaction. It sums the finite quantities: no s-t
    // flow can exceed that total, so total + 1 stands in for "unbounded"
    // without ever constraining an optimal solution, and keeps the
    // circulation bounded (no infinite-capacity negative cycle can exist).
    // And it counting-sorts the arrival times by vertex: each edge's times
    // go in one block just below its head's end offset, which then moves
    // down past them and ends at the start of the vertex's run.
    times.clear();
    times.resize(total as usize, 0);
    let mut finite_total = 0.0f64;
    for (_, dst, ints) in edges.clone() {
        for i in ints {
            finite_total += if i.quantity.is_finite() {
                i.quantity
            } else {
                0.0
            };
        }
        if dst != source && dst != sink {
            let end = runs[dst] as usize;
            let start = end - ints.len();
            for (slot, i) in times[start..end].iter_mut().zip(ints) {
                *slot = i.time;
            }
            runs[dst] = start as u32;
        }
    }
    let unbounded = finite_total + 1.0;
    // Session builds chain copies with truly infinite capacity: the finite
    // stand-in would have to grow with the stream, and holdover/return arcs
    // never bound the optimum anyway.
    let relay_cap = if session { f64::INFINITY } else { unbounded };

    // Sort every run and drop repeated times, compacting the runs in place.
    let mut copies = 0usize;
    let mut holdovers = 0usize;
    for v in 0..nodes {
        let (lo, hi) = (runs[v] as usize, runs[v + 1] as usize);
        runs[v] = copies as u32;
        if hi - lo > 1 {
            times[lo..hi].sort_unstable();
        }
        let first = copies;
        for k in lo..hi {
            if k == lo || times[k] != times[k - 1] {
                times[copies] = times[k];
                copies += 1;
            }
        }
        holdovers += (copies - first).saturating_sub(1);
    }
    runs[nodes] = copies as u32;
    times.truncate(copies);

    let mut arcs = open(2 + copies, holdovers + interactions + 1);

    // Holdover arcs carry buffered quantity forward in time.
    for v in 0..nodes {
        for c in runs[v] as usize + 1..runs[v + 1] as usize {
            arcs.add_arc(2 + c - 1, 2 + c, 0.0, relay_cap);
        }
    }

    // Interaction arcs: the tail is the latest copy of `src` strictly
    // before the interaction's time, the head the copy of `dst` at it. Both
    // only move forward along an edge's chronological interactions, so a
    // cursor per edge end finds them.
    let mut skipped = 0usize;
    let mut mirrors = if session {
        vec![EdgeMirror::default(); edges.clone().count()]
    } else {
        Vec::new()
    };
    let mut big_arcs: Vec<u32> = Vec::new();
    let mut lp_variables = 0usize;
    for (eidx, (src, dst, ints)) in edges.enumerate() {
        // Same counting rule as `build_lp`: interactions leaving the flow
        // endpoints are constants there, not variables.
        if src != source && src != sink {
            lp_variables += ints.len();
        }
        if src == sink || dst == source {
            skipped += ints.len();
            continue;
        }
        let (from, to) = (runs[src] as usize, runs[dst] as usize);
        let from_times = &times[from..runs[src + 1] as usize];
        let to_times = &times[to..runs[dst + 1] as usize];
        let (mut tail_at, mut head_at) = (0, 0);
        for inter in ints {
            let cap = if inter.quantity.is_finite() {
                inter.quantity
            } else {
                unbounded
            };
            let tail = if src == source {
                Some(SRC_NODE)
            } else {
                tail_at = seek(from_times, tail_at, inter.time);
                // None: nothing can have arrived yet.
                (tail_at > 0).then(|| 2 + from + tail_at - 1)
            };
            let arc = match tail {
                None => {
                    skipped += 1;
                    SKIP_ARC
                }
                Some(tail) => {
                    let head = if dst == sink {
                        SINK_NODE
                    } else {
                        head_at = seek(to_times, head_at, inter.time);
                        debug_assert_eq!(to_times[head_at], inter.time);
                        2 + to + head_at
                    };
                    let arc = arcs.add_arc(tail, head, 0.0, cap) as u32;
                    if session && !inter.quantity.is_finite() {
                        big_arcs.push(arc);
                    }
                    arc
                }
            };
            if session {
                mirrors[eidx]
                    .entries
                    .push((inter.time, inter.quantity, arc));
            }
        }
    }

    // The return arc closes the circulation; rewarding its flow at cost −1
    // makes "minimize cost" mean "maximize the s-t flow".
    let return_arc = arcs.add_arc(SINK_NODE, SRC_NODE, -1.0, relay_cap);
    let tracking = session.then(|| {
        Box::new(Tracking {
            source: NodeId::from_index(source),
            sink: NodeId::from_index(sink),
            arrivals: (0..nodes)
                .map(|v| {
                    let (lo, hi) = (runs[v] as usize, runs[v + 1] as usize);
                    (lo..hi).map(|c| (times[c], (2 + c) as u32)).collect()
                })
                .collect(),
            mirrors,
            finite_total,
            big: unbounded,
            big_arcs,
        })
    });
    ARRIVALS.with(|slot| {
        let mut slot = slot.borrow_mut();
        stash(&mut slot.times, std::mem::take(times), total as usize);
        stash(&mut slot.runs, std::mem::take(runs), nodes + 1);
    });
    Emitted {
        arcs,
        return_arc,
        skipped,
        lp_variables,
        tracking,
    }
}

/// Solves a circulation [`emit`] wrote straight into the solver and reads
/// the maximum flow off its return arc: no per-arc flows, no objective.
pub(crate) fn solve_emitted(e: Emitted<Circulation>) -> Result<LpOutcome, FlowError> {
    let mut c = e.arcs;
    let status = c.solve();
    if status != LpStatus::Optimal {
        return Err(FlowError::LpFailed(status));
    }
    Ok(netflow_outcome(
        c.flow(e.return_arc),
        e.lp_variables,
        c.num_nodes(),
        c.num_arcs(),
        c.pivots(),
        c.degenerate_pivots(),
    ))
}

/// The [`LpOutcome`] of a network-simplex solve: the variable count the
/// Section 4.2.1 LP would have had (so the paper's size statistics stay
/// engine-independent) and the circulation's nodes as "constraints" — its
/// balance rows.
fn netflow_outcome(
    flow: Quantity,
    variables: usize,
    nodes: usize,
    arcs: usize,
    pivots: usize,
    degenerate_pivots: usize,
) -> LpOutcome {
    let nonzeros = 2 * arcs;
    LpOutcome {
        flow,
        variables,
        constraints: nodes,
        iterations: pivots,
        refactorizations: 0,
        nonzeros,
        density: if nodes * arcs == 0 {
            0.0
        } else {
            nonzeros as f64 / (nodes * arcs) as f64
        },
        engine: SimplexEngine::NetworkSimplex,
        pivots,
        degenerate_pivots,
    }
}

impl McfFormulation {
    /// The formulation of a circulation [`emit`] wrote into a problem.
    pub(crate) fn from_emitted(e: Emitted<MinCostFlowProblem>) -> Self {
        McfFormulation {
            problem: e.arcs,
            return_arc: e.return_arc,
            skipped_interactions: e.skipped,
            lp_variables: e.lp_variables,
            tracking: e.tracking,
        }
    }

    /// Whether this formulation was built by [`build_mcf_session`] and can
    /// therefore be patched with [`McfFormulation::apply_delta`].
    pub fn is_session(&self) -> bool {
        self.tracking.is_some()
    }

    /// Patches the arc arrays in place after `delta` was applied to
    /// `graph` (pass the post-application graph). Expired interactions
    /// tombstone their arcs to zero capacity; new interactions get arcs,
    /// appending vertex copies and splicing holdover chains where new
    /// arrival times appear; arcs whose strict-precedence tail moved onto a
    /// spliced copy are retargeted. Arc and node ids are stable throughout,
    /// which is what lets the tree a resident [`tin_lp::NetflowSession`]
    /// keeps survive the patch: [`McfPatch::touched_arcs`] lists the arcs
    /// it must re-sync.
    ///
    /// Returns a [`McfPatch`] summary; [`McfPatch::shrink_only`] tells the
    /// caller whether the patch only removed capacity, which the session's
    /// dual repair absorbs without primal pivots.
    ///
    /// # Panics
    /// Panics if this formulation was not built by [`build_mcf_session`].
    pub fn apply_delta(&mut self, graph: &TemporalGraph, delta: &AppliedDelta) -> McfPatch {
        let tracking = self
            .tracking
            .as_mut()
            .expect("apply_delta requires a session formulation (build_mcf_session)");
        let mut patch = McfPatch::default();
        if tracking.arrivals.len() < graph.node_count() {
            tracking.arrivals.resize(graph.node_count(), Vec::new());
        }
        if tracking.mirrors.len() < graph.edge_count() {
            tracking
                .mirrors
                .resize(graph.edge_count(), EdgeMirror::default());
        }

        // Phase A: two-pointer diff of each changed edge's mirrored arcs
        // against its current interaction sequence (both chronologically
        // sorted; a tombstoned edge's sequence is empty, expiring
        // everything it still mirrored).
        let mut changed: Vec<u32> = delta.changed_edges().map(|e| e.0).collect();
        changed.sort_unstable();
        changed.dedup();
        let mut additions: Vec<(u32, Time, Quantity)> = Vec::new();
        for &eidx in &changed {
            let edge = graph.edge(EdgeId(eidx));
            if edge.src == tracking.sink || edge.dst == tracking.source {
                continue; // never represented in the network
            }
            let counts_var = edge.src != tracking.source && edge.src != tracking.sink;
            let mirror = &mut tracking.mirrors[eidx as usize];
            let current = edge.interactions.as_slice();
            let mut kept = Vec::with_capacity(current.len());
            let (mut i, mut j) = (0usize, 0usize);
            loop {
                let order = match (mirror.entries.get(i), current.get(j)) {
                    (None, None) => break,
                    (Some(_), None) => Ordering::Less,
                    (None, Some(_)) => Ordering::Greater,
                    (Some(&(t, q, _)), Some(cur)) => chrono_cmp(t, q, cur.time, cur.quantity),
                };
                match order {
                    // Mirrored but gone from the graph: expired.
                    Ordering::Less => {
                        let (_, q, arc) = mirror.entries[i];
                        if arc == SKIP_ARC {
                            self.skipped_interactions -= 1;
                        } else {
                            self.problem.set_capacity(arc as usize, 0.0);
                            patch.tombstoned += 1;
                            patch.touched_arcs.push(arc);
                            if !q.is_finite() {
                                tracking.big_arcs.retain(|&a| a != arc);
                            }
                        }
                        if counts_var {
                            self.lp_variables -= 1;
                        }
                        i += 1;
                    }
                    // In the graph but not mirrored: newly arrived.
                    Ordering::Greater => {
                        let cur = &current[j];
                        additions.push((eidx, cur.time, cur.quantity));
                        j += 1;
                    }
                    Ordering::Equal => {
                        kept.push(mirror.entries[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            mirror.entries = kept;
        }

        // Phase B: arrival times the network has no vertex copy for yet.
        let mut new_arrivals: Vec<(u32, Time)> = Vec::new();
        for &(eidx, time, _) in &additions {
            let dst = graph.edge(EdgeId(eidx)).dst;
            if dst == tracking.sink {
                continue;
            }
            let list = &tracking.arrivals[dst.index()];
            let k = list.partition_point(|&(at, _)| at < time);
            if list.get(k).map(|&(at, _)| at) != Some(time) {
                new_arrivals.push((dst.0, time));
            }
        }
        new_arrivals.sort_unstable();
        new_arrivals.dedup();

        // Phase C: splice each new copy into its vertex's holdover chain
        // (the old prev→next holdover stays as a harmless zero-cost bypass)
        // and re-point the outgoing interaction arcs whose
        // strict-precedence tail it takes over: with `next` the following
        // arrival, departures in `(t, next]` now buffer at the new copy.
        for &(v, t) in &new_arrivals {
            let c = self.problem.add_node() as u32;
            patch.added_nodes += 1;
            let list = &mut tracking.arrivals[v as usize];
            let pos = list.partition_point(|&(at, _)| at < t);
            if pos > 0 {
                self.problem
                    .add_arc(list[pos - 1].1 as usize, c as usize, 0.0, f64::INFINITY);
            }
            if pos < list.len() {
                self.problem
                    .add_arc(c as usize, list[pos].1 as usize, 0.0, f64::INFINITY);
            }
            list.insert(pos, (t, c));
            let next = list.get(pos + 1).map(|&(at, _)| at);
            for &oe in graph.out_edges(NodeId(v)) {
                let edge = graph.edge(oe);
                if edge.dst == tracking.source {
                    continue; // not represented
                }
                let mirror = &mut tracking.mirrors[oe.index()];
                for entry in &mut mirror.entries {
                    if entry.0 <= t || next.is_some_and(|nx| entry.0 > nx) {
                        continue;
                    }
                    if entry.2 == SKIP_ARC {
                        // The interaction finally has a usable tail copy.
                        let head = if edge.dst == tracking.sink {
                            SINK_NODE
                        } else {
                            let dlist = &tracking.arrivals[edge.dst.index()];
                            let k = dlist.partition_point(|&(at, _)| at < entry.0);
                            debug_assert_eq!(dlist.get(k).map(|&(at, _)| at), Some(entry.0));
                            dlist[k].1 as usize
                        };
                        let cap = if entry.1.is_finite() {
                            entry.1
                        } else {
                            tracking.big
                        };
                        let arc = self.problem.add_arc(c as usize, head, 0.0, cap) as u32;
                        if !entry.1.is_finite() {
                            tracking.big_arcs.push(arc);
                        }
                        entry.2 = arc;
                        self.skipped_interactions -= 1;
                        patch.added_arcs += 1;
                    } else {
                        let head = self.problem.arcs()[entry.2 as usize].head;
                        self.problem.retarget(entry.2 as usize, c as usize, head);
                        patch.retargeted += 1;
                        patch.touched_arcs.push(entry.2);
                    }
                }
            }
        }

        // Keep the unbounded stand-in above the running finite total before
        // any new arc uses it (doubling amortizes the in-place bumps).
        let added_finite: f64 = additions
            .iter()
            .map(|&(_, _, q)| if q.is_finite() { q } else { 0.0 })
            .sum();
        tracking.finite_total += added_finite;
        let mut bumped = false;
        if tracking.finite_total + 1.0 > tracking.big {
            tracking.big = 2.0 * tracking.finite_total + 1.0;
            for &a in &tracking.big_arcs {
                self.problem.set_capacity(a as usize, tracking.big);
            }
            patch.touched_arcs.extend_from_slice(&tracking.big_arcs);
            bumped = true;
        }

        // Phase D: arcs for the newly arrived interactions (their head
        // copies all exist after phase C).
        for &(eidx, time, qty) in &additions {
            let edge = graph.edge(EdgeId(eidx));
            let tail = if edge.src == tracking.source {
                Some(SRC_NODE)
            } else {
                let list = &tracking.arrivals[edge.src.index()];
                match list.partition_point(|&(at, _)| at < time) {
                    0 => None, // strict precedence: nothing arrived yet
                    k => Some(list[k - 1].1 as usize),
                }
            };
            let head = if edge.dst == tracking.sink {
                SINK_NODE
            } else {
                let list = &tracking.arrivals[edge.dst.index()];
                let k = list.partition_point(|&(at, _)| at < time);
                debug_assert_eq!(list.get(k).map(|&(at, _)| at), Some(time));
                list[k].1 as usize
            };
            let arc = match tail {
                None => {
                    self.skipped_interactions += 1;
                    SKIP_ARC
                }
                Some(tl) => {
                    let cap = if qty.is_finite() { qty } else { tracking.big };
                    let arc = self.problem.add_arc(tl, head, 0.0, cap) as u32;
                    if !qty.is_finite() {
                        tracking.big_arcs.push(arc);
                    }
                    patch.added_arcs += 1;
                    arc
                }
            };
            if edge.src != tracking.source && edge.src != tracking.sink {
                self.lp_variables += 1;
            }
            let mirror = &mut tracking.mirrors[eidx as usize];
            let pos = mirror
                .entries
                .partition_point(|&(t2, q2, _)| chrono_cmp(t2, q2, time, qty) != Ordering::Greater);
            mirror.entries.insert(pos, (time, qty, arc));
        }

        patch.shrink_only =
            patch.added_arcs == 0 && patch.added_nodes == 0 && patch.retargeted == 0 && !bumped;
        patch
    }

    /// Solves the circulation with the network simplex and interprets the
    /// result as a maximum flow value (see [`LpOutcome`] for what the
    /// size statistics count).
    pub fn solve(&self) -> Result<(LpOutcome, McfSolution), FlowError> {
        let solution = self.problem.solve();
        if solution.status != LpStatus::Optimal {
            return Err(FlowError::LpFailed(solution.status));
        }
        let outcome = netflow_outcome(
            solution.flows[self.return_arc],
            self.lp_variables,
            self.problem.num_nodes(),
            self.problem.num_arcs(),
            solution.pivots,
            solution.degenerate_pivots,
        );
        Ok((outcome, solution))
    }
}

/// Builds and solves the time-expanded min-cost-flow instance with the
/// network simplex, returning the maximum flow from `source` to `sink`:
/// the circulation [`build_mcf`] would build, emitted straight into the
/// solver's arrays (a [`Circulation`]).
pub fn netflow_max_flow(
    graph: &TemporalGraph,
    source: NodeId,
    sink: NodeId,
) -> Result<LpOutcome, FlowError> {
    solve_emitted(emit(
        graph.node_count(),
        graph_edges(graph),
        source.index(),
        sink.index(),
        false,
        Circulation::new,
    ))
}

/// Builds and solves the exact flow problem with the chosen engine:
/// [`SimplexEngine::NetworkSimplex`] takes the direct min-cost-flow path
/// ([`build_mcf`], no LP assembly at all); [`SimplexEngine::SparseRevised`]
/// solves the balance-row LP of [`build_lp`].
pub fn max_flow_with_engine(
    graph: &TemporalGraph,
    source: NodeId,
    sink: NodeId,
    engine: SimplexEngine,
) -> Result<LpOutcome, FlowError> {
    match engine {
        SimplexEngine::NetworkSimplex => netflow_max_flow(graph, source, sink),
        SimplexEngine::SparseRevised => lp_max_flow(graph, source, sink),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tin_graph::{GraphBuilder, Interaction, Node};
    use tin_maxflow::time_expanded_max_flow;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// Figure 3 of the paper: the maximum flow is 5 (Table 3).
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
    fn figure3_lp_reaches_the_table3_optimum() {
        let (g, s, t) = figure3();
        let out = lp_max_flow(&g, s, t).unwrap();
        assert_close(out.flow, 5.0);
        // 3 interactions do not originate from the source.
        assert_eq!(out.variables, 3);
        // Capacities are variable bounds now: only the 3 balance rows remain.
        assert_eq!(out.constraints, 3);
        assert!(out.nonzeros > 0);
        assert!(out.density > 0.0);
    }

    #[test]
    fn figure1_lp_maximum_is_five() {
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
        let out = lp_max_flow(&g, s, t).unwrap();
        assert_close(out.flow, 5.0);
        assert_eq!(out.variables, 5);
    }

    #[test]
    fn direct_source_to_sink_interactions_are_constants() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let t = b.add_node("t");
        b.add_pairs(s, t, &[(1, 4.0), (7, 2.5)]).unwrap();
        let g = b.build();
        let f = build_lp(&g, s, t);
        assert_eq!(f.variables, 0);
        assert_close(f.fixed_flow, 6.5);
        let out = lp_max_flow(&g, s, t).unwrap();
        assert_close(out.flow, 6.5);
    }

    #[test]
    fn lp_agrees_with_time_expanded_on_paper_examples() {
        let (g, s, t) = figure3();
        assert_close(
            lp_max_flow(&g, s, t).unwrap().flow,
            time_expanded_max_flow(&g, s, t),
        );
    }

    #[test]
    fn same_timestamp_departures_cannot_double_spend() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        let u = b.add_node("u");
        b.add_pairs(s, a, &[(1, 5.0)]).unwrap();
        b.add_pairs(a, t, &[(9, 4.0)]).unwrap();
        b.add_pairs(a, u, &[(9, 4.0)]).unwrap();
        let g = b.build();
        // Only 4 units can reach t (the other simultaneous interaction
        // competes for the same 5-unit buffer but goes elsewhere).
        let out = lp_max_flow(&g, s, t).unwrap();
        assert_close(out.flow, 4.0);
        assert_close(out.flow, time_expanded_max_flow(&g, s, t));
    }

    #[test]
    fn same_timestamp_arrival_cannot_be_relayed() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(3, 4.0)]).unwrap();
        b.add_pairs(a, t, &[(3, 4.0)]).unwrap();
        let g = b.build();
        assert_close(lp_max_flow(&g, s, t).unwrap().flow, 0.0);
    }

    #[test]
    fn unbounded_source_interactions_do_not_blow_up() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_interaction(s, a, tin_graph::Interaction::new(i64::MIN, f64::INFINITY))
            .unwrap();
        b.add_pairs(a, t, &[(5, 3.0)]).unwrap();
        let g = b.build();
        let out = lp_max_flow(&g, s, t).unwrap();
        assert_close(out.flow, 3.0);
    }

    #[test]
    fn reservation_is_exploited() {
        // s sends 10 to a early; a can forward 6 at time 2 towards a dead end
        // and 10 at time 3 towards the sink. The LP must route everything to
        // the sink even though greedy would waste 6.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let dead = b.add_node("dead");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(1, 10.0)]).unwrap();
        b.add_pairs(a, dead, &[(2, 6.0)]).unwrap();
        b.add_pairs(a, t, &[(3, 10.0)]).unwrap();
        let g = b.build();
        let out = lp_max_flow(&g, s, t).unwrap();
        assert_close(out.flow, 10.0);
        let greedy = crate::greedy::greedy_flow(&g, s, t).flow;
        assert_close(greedy, 4.0);
    }

    #[test]
    fn empty_graph_has_zero_flow() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let t = b.add_node("t");
        let g = b.build();
        let out = lp_max_flow(&g, s, t).unwrap();
        assert_close(out.flow, 0.0);
        assert_eq!(out.variables, 0);
    }

    #[test]
    fn formulation_counts_are_consistent() {
        let (g, s, t) = figure3();
        let f = build_lp(&g, s, t);
        assert_eq!(f.variables, 3);
        // One balance row per variable; the capacities are variable bounds.
        assert_eq!(f.constraints, 3);
        assert_eq!(f.problem.num_vars(), 3);
        for var in 0..3 {
            assert!(f.problem.upper_bound(var).is_finite());
        }
    }

    #[test]
    fn both_engines_agree_on_the_formulation() {
        let (g, s, t) = figure3();
        let f = build_lp(&g, s, t);
        let sparse = f.problem.solve();
        let dense = tin_lp::dense::solve(&f.problem);
        assert!(sparse.is_optimal() && dense.is_optimal());
        assert!((sparse.objective - dense.objective).abs() < 1e-6);
        assert!((sparse.objective + f.fixed_flow - 5.0).abs() < 1e-6);
    }

    #[test]
    fn netflow_reaches_the_figure3_optimum() {
        let (g, s, t) = figure3();
        let out = netflow_max_flow(&g, s, t).unwrap();
        assert_close(out.flow, 5.0);
        assert_eq!(out.engine, SimplexEngine::NetworkSimplex);
        assert_eq!(out.refactorizations, 0);
        assert!(out.pivots > 0);
        // The returned circulation is a feasible flow on the network.
        let f = build_mcf(&g, s, t);
        let (_, sol) = f.solve().unwrap();
        assert!(f.problem.is_feasible(&sol.flows, 1e-6));
    }

    #[test]
    fn mcf_emitter_mirrors_the_time_expanded_reduction() {
        use tin_maxflow::TimeExpandedNetwork;
        let (g, s, t) = figure3();
        let mcf = build_mcf(&g, s, t);
        let net = TimeExpandedNetwork::build(&g, s, t);
        // Same node count (source + sink + copies) and the same arcs plus
        // the one return arc closing the circulation.
        assert_eq!(mcf.problem.num_nodes(), 2 + net.copy_count);
        assert_eq!(mcf.skipped_interactions, net.skipped_interactions);
        assert_eq!(mcf.return_arc, mcf.problem.num_arcs() - 1);
    }

    #[test]
    fn all_three_engines_agree_on_paper_examples() {
        let (g, s, t) = figure3();
        let netflow = max_flow_with_engine(&g, s, t, SimplexEngine::NetworkSimplex).unwrap();
        let sparse = max_flow_with_engine(&g, s, t, SimplexEngine::SparseRevised).unwrap();
        assert_close(netflow.flow, sparse.flow);
        assert_eq!(netflow.engine, SimplexEngine::NetworkSimplex);
        assert_eq!(sparse.engine, SimplexEngine::SparseRevised);
    }

    #[test]
    fn netflow_handles_edge_cases_like_the_lp() {
        // Empty graph.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let t = b.add_node("t");
        let g = b.build();
        assert_close(netflow_max_flow(&g, s, t).unwrap().flow, 0.0);

        // Direct source-to-sink interactions.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let t = b.add_node("t");
        b.add_pairs(s, t, &[(1, 4.0), (7, 2.5)]).unwrap();
        let g = b.build();
        assert_close(netflow_max_flow(&g, s, t).unwrap().flow, 6.5);

        // Same-timestamp arrival cannot be relayed (strict precedence).
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(3, 4.0)]).unwrap();
        b.add_pairs(a, t, &[(3, 4.0)]).unwrap();
        let g = b.build();
        assert_close(netflow_max_flow(&g, s, t).unwrap().flow, 0.0);

        // Unbounded quantities use the finite stand-in.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_interaction(s, a, tin_graph::Interaction::new(i64::MIN, f64::INFINITY))
            .unwrap();
        b.add_pairs(a, t, &[(5, 3.0)]).unwrap();
        let g = b.build();
        assert_close(netflow_max_flow(&g, s, t).unwrap().flow, 3.0);

        // Reservation is exploited, same as the LP.
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let dead = b.add_node("dead");
        let t = b.add_node("t");
        b.add_pairs(s, a, &[(1, 10.0)]).unwrap();
        b.add_pairs(a, dead, &[(2, 6.0)]).unwrap();
        b.add_pairs(a, t, &[(3, 10.0)]).unwrap();
        let g = b.build();
        assert_close(netflow_max_flow(&g, s, t).unwrap().flow, 10.0);
    }

    #[test]
    fn session_build_solves_identically_to_cold_build() {
        let (g, s, t) = figure3();
        let cold = build_mcf(&g, s, t);
        let session = build_mcf_session(&g, s, t);
        assert!(session.is_session());
        assert!(!cold.is_session());
        assert_eq!(session.problem.num_nodes(), cold.problem.num_nodes());
        assert_eq!(session.problem.num_arcs(), cold.problem.num_arcs());
        assert_eq!(session.skipped_interactions, cold.skipped_interactions);
        assert_eq!(session.lp_variables, cold.lp_variables);
        let warm = session.solve().unwrap().0.flow;
        let reference = cold.solve().unwrap().0.flow;
        assert_close(warm, reference);
    }

    /// Replays delta batches against one session formulation, asserting
    /// after every batch that it solves to the same optimum (and carries the
    /// same LP bookkeeping) as a formulation rebuilt from scratch.
    fn assert_session_tracks_rebuild(
        mut g: TemporalGraph,
        s: NodeId,
        t: NodeId,
        batches: Vec<tin_graph::GraphDelta>,
    ) -> Vec<McfPatch> {
        // Stat bookkeeping (skipped/variable counts) must match a rebuild
        // exactly as long as nothing expires; once copies outlive their
        // inflow the patched network legitimately keeps structurally valid
        // arcs a rebuild would classify as skipped, so only the optimum is
        // comparable then.
        let growth_only = batches.iter().all(|d| d.expiry().is_none());
        let mut session = build_mcf_session(&g, s, t);
        let mut patches = Vec::new();
        for delta in &batches {
            let applied = g.apply(delta).unwrap();
            patches.push(session.apply_delta(&g, &applied));
            let rebuilt = build_mcf_session(&g, s, t);
            if growth_only {
                assert_eq!(session.skipped_interactions, rebuilt.skipped_interactions);
                assert_eq!(session.lp_variables, rebuilt.lp_variables);
            }
            let patched = session.solve().unwrap().0.flow;
            let reference = rebuilt.solve().unwrap().0.flow;
            assert_close(patched, reference);
            assert_close(patched, netflow_max_flow(&g, s, t).unwrap().flow);
        }
        patches
    }

    #[test]
    fn apply_delta_tracks_rebuild_through_growth_batches() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let x = b.add_node("x");
        let y = b.add_node("y");
        let t = b.add_node("t");
        b.add_pairs(s, x, &[(1, 3.0)]).unwrap();
        b.add_pairs(x, t, &[(5, 5.0)]).unwrap();
        let g = b.build();
        let batches = vec![
            // New interactions on existing and new edges, including one
            // (s→y at 2) that creates a copy mid-stream.
            tin_graph::GraphDelta::new(
                4,
                vec![],
                vec![
                    (s, y, Interaction::new(2, 6.0)),
                    (y, t, Interaction::new(9, 4.0)),
                ],
            )
            .unwrap(),
            // Out-of-order arrival: x gains an earlier copy at time 0, which
            // splices ahead of the existing time-1 copy and must NOT steal
            // the x→t@5 departure (still tied to the latest arrival ≤ 5);
            // y→x@3 then retargets nothing but adds capacity upstream.
            tin_graph::GraphDelta::new(
                4,
                vec![],
                vec![
                    (s, x, Interaction::new(0, 1.0)),
                    (y, x, Interaction::new(3, 2.0)),
                ],
            )
            .unwrap(),
            // A brand-new vertex appears with through-traffic.
            tin_graph::GraphDelta::new(
                4,
                vec![Node { name: "z".into() }],
                vec![
                    (x, NodeId(4), Interaction::new(6, 4.0)),
                    (NodeId(4), t, Interaction::new(7, 3.0)),
                ],
            )
            .unwrap(),
        ];
        let patches = assert_session_tracks_rebuild(g, s, t, batches);
        assert!(patches.iter().all(|p| !p.shrink_only));
        assert!(patches.iter().any(|p| p.added_nodes > 0));
    }

    #[test]
    fn apply_delta_materializes_previously_skipped_interactions() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        b.add_pairs(a, t, &[(5, 4.0)]).unwrap();
        let g = b.build();
        let mut session = build_mcf_session(&g, s, t);
        assert_eq!(session.skipped_interactions, 1);
        // No arrival at `a` precedes the a→t@5 departure, so flow is 0...
        let batches = vec![
            // ...until s→a@2 arrives: the new copy at (a, 2) must
            // materialize the skipped arc, not just splice the chain.
            tin_graph::GraphDelta::new(3, vec![], vec![(s, a, Interaction::new(2, 4.0))]).unwrap(),
        ];
        let mut g2 = g.clone();
        let applied = g2.apply(&batches[0]).unwrap();
        let patch = session.apply_delta(&g2, &applied);
        assert!(patch.added_arcs >= 2);
        assert_eq!(session.skipped_interactions, 0);
        assert_close(session.solve().unwrap().0.flow, 4.0);
        assert_session_tracks_rebuild(g, s, t, batches);
    }

    #[test]
    fn apply_delta_expiry_is_shrink_only_and_tracks_rebuild() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let x = b.add_node("x");
        let t = b.add_node("t");
        b.add_pairs(s, x, &[(1, 2.0), (4, 3.0)]).unwrap();
        b.add_pairs(x, t, &[(2, 2.0), (6, 5.0)]).unwrap();
        let g = b.build();
        let batches = vec![
            // Pure expiry: s→x@1 and x→t@2 fall out of the window. The
            // vertex copies stay (ids are stable), the arcs tombstone.
            tin_graph::GraphDelta::new(3, vec![], vec![])
                .unwrap()
                .expire_before(3),
            // Expire everything that remains: edges fully tombstone.
            tin_graph::GraphDelta::new(3, vec![], vec![])
                .unwrap()
                .expire_before(100),
        ];
        let patches = assert_session_tracks_rebuild(g, s, t, batches);
        assert!(patches.iter().all(|p| p.shrink_only));
        assert!(patches.iter().all(|p| p.tombstoned > 0));
        assert!(patches
            .iter()
            .all(|p| p.added_arcs == 0 && p.added_nodes == 0));
    }

    #[test]
    fn apply_delta_mixed_window_slide_tracks_rebuild() {
        let mut b = GraphBuilder::new();
        let s = b.add_node("s");
        let x = b.add_node("x");
        let y = b.add_node("y");
        let t = b.add_node("t");
        b.add_pairs(s, x, &[(1, 3.0), (2, 2.0)]).unwrap();
        b.add_pairs(x, y, &[(3, 4.0)]).unwrap();
        b.add_pairs(y, t, &[(4, 4.0)]).unwrap();
        let g = b.build();
        // Sliding window: adds at the front, expiry at the back, same batch.
        let batches = vec![
            tin_graph::GraphDelta::new(
                4,
                vec![],
                vec![
                    (s, y, Interaction::new(5, 2.0)),
                    (y, t, Interaction::new(6, 3.0)),
                ],
            )
            .unwrap()
            .expire_before(2),
            tin_graph::GraphDelta::new(4, vec![], vec![(x, t, Interaction::new(7, 1.0))])
                .unwrap()
                .expire_before(4),
        ];
        let patches = assert_session_tracks_rebuild(g, s, t, batches);
        assert!(patches.iter().all(|p| !p.shrink_only));
        assert!(patches.iter().all(|p| p.tombstoned > 0));
    }

    #[test]
    #[should_panic(expected = "requires a session formulation")]
    fn apply_delta_rejects_one_shot_formulations() {
        let (g, s, t) = figure3();
        let mut cold = build_mcf(&g, s, t);
        let mut g2 = g.clone();
        let delta =
            tin_graph::GraphDelta::new(4, vec![], vec![(s, t, Interaction::new(9, 1.0))]).unwrap();
        let applied = g2.apply(&delta).unwrap();
        cold.apply_delta(&g2, &applied);
    }
}
