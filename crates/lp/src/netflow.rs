//! Network simplex for min-cost flow.
//!
//! The class C flow LPs are pure min-cost-flow problems on a time-expanded
//! network, so they do not need a general simplex at all: a basis of a
//! min-cost-flow problem is a spanning tree of the network, and a pivot is
//! a walk around the single cycle the entering arc closes — O(tree depth)
//! work with no basis factorization, no eta file and no refactorization.
//!
//! This module provides:
//!
//! * [`MinCostFlowProblem`] — node supplies plus arcs with cost, capacity
//!   and lower bound;
//! * a **network simplex** ([`MinCostFlowProblem::solve`]) over an explicit
//!   spanning-tree basis: parent/depth arrays plus a child/sibling thread
//!   for subtree traversal, an artificial-root initial tree, block pricing
//!   (blocks of `⌊√(m+n)⌋` arcs, at least 16, scanned without branching on
//!   the arc state; arcs of zero capacity are never priced, at either
//!   bound), and the *strongly feasible tree* leaving-arc rule (last
//!   blocking arc from the apex) that prevents cycling under degeneracy;
//! * [`NetflowSession`] — the same engine kept resident across a stream of
//!   solves of one evolving circulation, syncing only the patched arcs and
//!   repairing the kept tree with worst-first dual pivots;
//! * [`MinCostFlowProblem::to_lp`] / [`MinCostFlowProblem::from_lp`] —
//!   lossless bridges to the general [`LpProblem`] form, used by the
//!   three-way engine-equivalence proptests and by
//!   [`LpProblem::solve_with`] when [`SimplexEngine::NetworkSimplex`] is
//!   requested on a network-structured LP.
//!
//! Infeasibility is detected in phase 1 (artificial arcs keep positive
//! flow at the phase-1 optimum), unboundedness in phase 2 (the entering
//! arc closes a negative-cost cycle with unlimited residual capacity).

use crate::problem::{LpProblem, Sense, SimplexEngine};
use crate::simplex;
use crate::solution::{LpSolution, LpStatus};

/// Reduced-cost / residual tolerance (same scale as the LP engines).
const EPS: f64 = 1e-9;
/// Feasibility tolerance for the phase-1 verdict.
const FEAS_EPS: f64 = 1e-6;
/// Sentinel for "no node" in the tree arrays.
const NONE: usize = usize::MAX;

/// Null link in the solver's u32-indexed tree/arc records.
const NIL: u32 = u32::MAX;

/// One directed arc of a min-cost-flow problem.
#[derive(Debug, Clone, Copy)]
pub struct McfArc {
    /// Node the arc leaves.
    pub tail: usize,
    /// Node the arc enters.
    pub head: usize,
    /// Minimum flow the arc must carry (finite, `≤ upper`).
    pub lower: f64,
    /// Maximum flow the arc may carry (`+∞` for uncapacitated arcs).
    pub upper: f64,
    /// Cost per unit of flow.
    pub cost: f64,
}

/// A min-cost-flow problem: find arc flows `lᵃ ≤ xᵃ ≤ uᵃ` satisfying
/// `Σ out(v) − Σ in(v) = supply(v)` at every node `v` while minimizing
/// `Σ costᵃ · xᵃ`.
#[derive(Debug, Clone)]
pub struct MinCostFlowProblem {
    supplies: Vec<f64>,
    arcs: Vec<McfArc>,
    /// Maximum network-simplex pivots before giving up (0 = automatic,
    /// scaled with problem size — the same safety valve as
    /// [`LpProblem::max_iterations`]).
    pub max_iterations: usize,
}

/// Result of a network-simplex run, with the same telemetry shape as
/// [`LpSolution`]: pivot and degenerate-pivot counts.
#[derive(Debug, Clone)]
pub struct McfSolution {
    /// Termination status ([`LpStatus::NumericalFailure`] is never
    /// produced: there is no factorized basis to go singular).
    pub status: LpStatus,
    /// Total cost `Σ costᵃ · xᵃ` (0 unless optimal).
    pub objective: f64,
    /// Per-arc flows in the original (unshifted) space (empty unless
    /// optimal).
    pub flows: Vec<f64>,
    /// Basis-changing or bound-flipping pivots performed across both
    /// phases.
    pub pivots: usize,
    /// Pivots whose step length was (numerically) zero.
    pub degenerate_pivots: usize,
    /// Arcs primal pricing read across both phases (every arc of every
    /// block scanned, the final full wrap that proves optimality
    /// included): a deterministic measure of pricing work.
    pub arcs_priced: usize,
    /// Whether a [`NetflowSession`] answered this solve from its resident
    /// tree. `false` for [`MinCostFlowProblem::solve`], for a session's
    /// first solve, and for a session solve that restarted from scratch.
    pub basis_reused: bool,
    /// Whether a [`NetflowSession`] had resident state but could not reuse
    /// it and restarted from scratch: the problem shrank, the dual repair
    /// stalled, or the warm pivots hit the pivot limit or an unbounded
    /// verdict (which the restart then renders authoritatively).
    pub fallback_cold: bool,
}

impl McfSolution {
    /// A solution carrying `status` and no simplex work.
    fn with_status(status: LpStatus) -> Self {
        McfSolution {
            status,
            objective: 0.0,
            flows: Vec::new(),
            pivots: 0,
            degenerate_pivots: 0,
            arcs_priced: 0,
            basis_reused: false,
            fallback_cold: false,
        }
    }

    /// Whether the solver proved optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }
}

impl MinCostFlowProblem {
    /// Creates a problem over `num_nodes` nodes with zero supplies and no
    /// arcs.
    pub fn new(num_nodes: usize) -> Self {
        MinCostFlowProblem {
            supplies: vec![0.0; num_nodes],
            arcs: Vec::new(),
            max_iterations: 0,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.supplies.len()
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Reserves room for at least `additional` more arcs. Emitters that
    /// know their arc count up front (e.g. the time-expanded flow
    /// circulation) use this to build the problem in one allocation.
    pub fn reserve_arcs(&mut self, additional: usize) {
        self.arcs.reserve(additional);
    }

    /// Sets the supply of `node` (positive = source, negative = demand).
    ///
    /// # Panics
    /// Panics if `node` is out of range or `supply` is not finite.
    pub fn set_supply(&mut self, node: usize, supply: f64) {
        assert!(node < self.supplies.len(), "node index {node} out of range");
        assert!(supply.is_finite(), "supply must be finite, got {supply}");
        self.supplies[node] = supply;
    }

    /// The supply of `node`.
    pub fn supply(&self, node: usize) -> f64 {
        self.supplies[node]
    }

    /// Adds an arc with lower bound 0; returns its index.
    pub fn add_arc(&mut self, tail: usize, head: usize, cost: f64, capacity: f64) -> usize {
        self.add_arc_bounded(tail, head, cost, 0.0, capacity)
    }

    /// Adds an arc with an explicit `lower ≤ flow ≤ upper` band; returns
    /// its index.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, `cost` or `lower` is not
    /// finite, or the band is empty (`lower > upper`).
    pub fn add_arc_bounded(
        &mut self,
        tail: usize,
        head: usize,
        cost: f64,
        lower: f64,
        upper: f64,
    ) -> usize {
        let n = self.supplies.len();
        assert!(tail < n, "arc tail {tail} out of range");
        assert!(head < n, "arc head {head} out of range");
        assert!(cost.is_finite(), "arc cost must be finite, got {cost}");
        assert!(
            lower.is_finite(),
            "arc lower bound must be finite, got {lower}"
        );
        assert!(
            !upper.is_nan() && lower <= upper,
            "arc bounds must satisfy lower <= upper, got [{lower}, {upper}]"
        );
        self.arcs.push(McfArc {
            tail,
            head,
            lower,
            upper,
            cost,
        });
        self.arcs.len() - 1
    }

    /// The arcs in insertion order.
    pub fn arcs(&self) -> &[McfArc] {
        &self.arcs
    }

    /// Appends a node with supply 0; returns its index. Used by streaming
    /// emitters that grow a problem in place (new vertex copies of the
    /// time-expanded network) — existing arc indices are unaffected.
    pub fn add_node(&mut self) -> usize {
        self.supplies.push(0.0);
        self.supplies.len() - 1
    }

    /// Changes the capacity (upper bound) of an existing arc in place.
    /// Setting it to the arc's lower bound tombstones the arc: it can never
    /// carry flow again but keeps its index, which is what lets streaming
    /// callers patch a problem without renumbering.
    ///
    /// # Panics
    /// Panics if `arc` is out of range or the band would be empty.
    pub fn set_capacity(&mut self, arc: usize, upper: f64) {
        let a = &mut self.arcs[arc];
        assert!(
            !upper.is_nan() && a.lower <= upper,
            "arc bounds must satisfy lower <= upper, got [{}, {upper}]",
            a.lower
        );
        a.upper = upper;
    }

    /// Moves an existing arc to new endpoints in place (same cost and
    /// bounds). Streaming emitters use this when a patched network inserts
    /// a node "between" an arc's old tail and its timestamp.
    ///
    /// # Panics
    /// Panics if `arc` or an endpoint is out of range.
    pub fn retarget(&mut self, arc: usize, tail: usize, head: usize) {
        let n = self.supplies.len();
        assert!(tail < n, "arc tail {tail} out of range");
        assert!(head < n, "arc head {head} out of range");
        let a = &mut self.arcs[arc];
        a.tail = tail;
        a.head = head;
    }

    /// Evaluates `Σ costᵃ · xᵃ` at a given flow vector.
    pub fn flow_cost(&self, flows: &[f64]) -> f64 {
        self.arcs.iter().zip(flows).map(|(a, &x)| a.cost * x).sum()
    }

    /// Checks node balance and arc bounds within tolerance `tol`.
    pub fn is_feasible(&self, flows: &[f64], tol: f64) -> bool {
        if flows.len() != self.arcs.len() {
            return false;
        }
        let mut balance: Vec<f64> = self.supplies.iter().map(|&s| -s).collect();
        for (a, &x) in self.arcs.iter().zip(flows) {
            if x.is_nan() || x < a.lower - tol || x > a.upper + tol {
                return false;
            }
            balance[a.tail] += x;
            balance[a.head] -= x;
        }
        balance.iter().all(|&b| b.abs() <= tol)
    }

    /// Rewrites the problem as a general [`LpProblem`] (minimize sense, one
    /// equality row per node, one variable per arc shifted by its lower
    /// bound). Returns the program and the constant objective offset:
    /// `mcf objective = lp objective + offset`.
    pub fn to_lp(&self) -> (LpProblem, f64) {
        let mut lp = LpProblem::new(self.arcs.len());
        lp.set_sense(Sense::Minimize);
        lp.max_iterations = self.max_iterations;
        let mut offset = 0.0;
        let mut rhs: Vec<f64> = self.supplies.clone();
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.supplies.len()];
        for (j, a) in self.arcs.iter().enumerate() {
            lp.set_objective_coefficient(j, a.cost);
            offset += a.cost * a.lower;
            if a.upper.is_finite() {
                lp.set_upper_bound(j, a.upper - a.lower);
            }
            rhs[a.tail] -= a.lower;
            rhs[a.head] += a.lower;
            rows[a.tail].push((j, 1.0));
            rows[a.head].push((j, -1.0));
        }
        for (v, coeffs) in rows.iter().enumerate() {
            lp.add_eq_constraint(coeffs, rhs[v]);
        }
        (lp, offset)
    }

    /// Recovers a min-cost-flow problem from a general LP when (and only
    /// when) the LP has pure network structure: every row is an equality
    /// and every variable carries exactly one `+1` and one `−1` coefficient
    /// (its tail and head rows). Returns `None` otherwise — including for
    /// the paper's class C balance formulation, whose variables appear in
    /// arbitrarily many rows; that path uses the direct emitter in the core
    /// crate instead.
    pub fn from_lp(problem: &LpProblem) -> Option<MinCostFlowProblem> {
        use crate::problem::ConstraintOp;
        if problem.row_meta.iter().any(|m| m.op != ConstraintOp::Eq) {
            return None;
        }
        let n_vars = problem.num_vars();
        let mut tail = vec![NONE; n_vars];
        let mut head = vec![NONE; n_vars];
        for &(row, var, c) in &problem.entries {
            if c == 1.0 && tail[var] == NONE {
                tail[var] = row;
            } else if c == -1.0 && head[var] == NONE {
                head[var] = row;
            } else {
                return None;
            }
        }
        if tail
            .iter()
            .zip(&head)
            .any(|(&t, &h)| t == NONE || h == NONE)
        {
            return None;
        }
        let minimize = problem.sense() == Sense::Minimize;
        let mut mcf = MinCostFlowProblem::new(problem.num_constraints());
        mcf.max_iterations = problem.max_iterations;
        for (row, meta) in problem.row_meta.iter().enumerate() {
            mcf.set_supply(row, meta.rhs);
        }
        for j in 0..n_vars {
            let c = problem.objective()[j];
            mcf.add_arc(
                tail[j],
                head[j],
                if minimize { c } else { -c },
                problem.upper_bound(j),
            );
        }
        Some(mcf)
    }

    /// The pivot budget for one solve: the explicit cap when set, else a
    /// generous size-proportional default.
    fn pivot_limit(&self) -> usize {
        if self.max_iterations > 0 {
            self.max_iterations
        } else {
            200 * (self.supplies.len() + self.arcs.len()) + 2_000
        }
    }

    /// Solves the problem with the network simplex from scratch.
    pub fn solve(&self) -> McfSolution {
        let n = self.supplies.len();
        let m = self.arcs.len();
        if n == 0 {
            return McfSolution::with_status(LpStatus::Optimal);
        }

        // The zero flow is already feasible for circulation problems (the
        // entire flow hot path): skip phase 1 and seed the basis with a
        // spanning tree of real arcs instead of making phase 2 evict the
        // capacity-pinned artificials one degenerate pivot at a time. The
        // check is allocation-free: zero supplies and zero lower bounds
        // mean every per-node excess is exactly 0.
        let warm =
            self.supplies.iter().all(|&s| s == 0.0) && self.arcs.iter().all(|a| a.lower == 0.0);

        // Shift lower bounds away (x = l + x′) and compute the residual
        // per-node excess the artificial arcs must initially carry.
        let excess: Vec<f64> = if warm {
            Vec::new()
        } else {
            let mut excess = self.supplies.clone();
            for a in &self.arcs {
                excess[a.tail] -= a.lower;
                excess[a.head] += a.lower;
            }
            if excess.iter().sum::<f64>().abs() > FEAS_EPS {
                // Total supply ≠ total demand: no flow can conserve.
                return McfSolution::with_status(LpStatus::Infeasible);
            }
            excess
        };
        let mut s = NetSimplex::new(self, &excess, warm);
        let limit = self.pivot_limit();

        if warm {
            s.warm_start();
        } else {
            // Phase 1: drain the artificial arcs (cost 1 there, 0
            // elsewhere).
            match s.run(limit, true) {
                Ok(()) => {}
                Err(LpStatus::Unbounded) => {
                    // Phase-1 cost is bounded below by 0; an "unbounded"
                    // step can only be a numerical artifact. Mirror the LP
                    // engines.
                    return s.outcome(LpStatus::Infeasible);
                }
                Err(status) => return s.outcome(status),
            }
            let art_flow: f64 = s.arcs[m..].iter().map(|a| a.flow).sum();
            if art_flow > FEAS_EPS {
                return s.outcome(LpStatus::Infeasible);
            }

            // Phase 2: real costs; artificial arcs pinned to zero capacity.
            s.enter_phase2(&self.arcs);
        }
        if let Err(status) = s.run(limit, false) {
            return s.outcome(status);
        }
        self.extract(&s, false)
    }

    /// Builds the optimal [`McfSolution`] from a finished simplex run;
    /// `reused` says whether a resident session's tree answered it.
    fn extract(&self, s: &NetSimplex, reused: bool) -> McfSolution {
        let flows: Vec<f64> = self
            .arcs
            .iter()
            .zip(&s.arcs)
            .map(|(a, rec)| (a.lower + rec.flow).clamp(a.lower, a.upper))
            .collect();
        let objective = self.flow_cost(&flows);
        McfSolution {
            objective,
            flows,
            basis_reused: reused,
            ..s.outcome(LpStatus::Optimal)
        }
    }
}

/// Where an arc currently rests. The discriminant is the sign pricing
/// multiplies the reduced cost by: an arc at its lower bound violates
/// optimality when its reduced cost is negative, one at its capacity when
/// it is positive, and a tree arc never.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(i8)]
enum ArcState {
    /// Nonbasic at its (shifted) lower bound 0.
    Lower = -1,
    /// In the spanning-tree basis.
    Tree = 0,
    /// Nonbasic at its capacity.
    Upper = 1,
}

/// One arc of the expanded network, all attributes together: the pricing
/// scan reads the state, capacity, cost and both endpoints of every arc in
/// a block, and the cycle walks read several fields of the same arc, so one
/// 40-byte record beats six scattered parallel-vector loads — and a
/// one-shot solve on a small instance is dominated by allocation and
/// first-touch cost, which two backing arrays keep minimal.
#[derive(Debug, Clone, Copy)]
struct ArcRec {
    tail: u32,
    head: u32,
    state: ArcState,
    cap: f64,
    cost: f64,
    flow: f64,
}

/// One node of the tree basis: parent/depth plus a child/sibling thread so
/// a pivot can walk exactly the re-hung subtree.
#[derive(Debug, Clone, Copy)]
struct NodeRec {
    parent: u32,
    pred: u32,
    depth: u32,
    first_child: u32,
    next_sib: u32,
    prev_sib: u32,
    pot: f64,
}

const NODE_INIT: NodeRec = NodeRec {
    parent: NIL,
    pred: NIL,
    depth: 0,
    first_child: NIL,
    next_sib: NIL,
    prev_sib: NIL,
    pot: 0.0,
};

/// Recycled per-thread solver buffers. A worker solving many instances back
/// to back — the shape of the flow pipeline, one subgraph after another —
/// pays for the backing allocations once instead of on every solve:
/// [`NetSimplex::new`] takes the buffers out of the slot and its `Drop`
/// puts them back, whatever path `solve` exits through.
#[derive(Default)]
struct Scratch {
    arcs: Vec<ArcRec>,
    nodes: Vec<NodeRec>,
    path_from: Vec<(usize, usize, bool)>,
    path_to: Vec<(usize, usize, bool)>,
    chain: Vec<usize>,
    chain_arcs: Vec<usize>,
    stack: Vec<usize>,
    start: Vec<usize>,
    incoming: Vec<u32>,
    marks: Vec<bool>,
    adj: Vec<u32>,
    adj_start: Vec<u32>,
}

/// Returns a recycled buffer to the scratch slot, first dropping excess
/// capacity: a long-running stream solves problems of wildly varying size
/// on the same thread, and without a cap every buffer would pin its
/// high-water allocation forever. Anything beyond 4× what the *current*
/// problem needs is given back to the allocator.
fn stash<T>(slot: &mut Vec<T>, mut buf: Vec<T>, need: usize) {
    if buf.capacity() > 4 * need.max(1) {
        buf.truncate(need);
        buf.shrink_to(need);
    }
    *slot = buf;
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

/// Pricing block size for a network of `total` arcs, artificial ones
/// included: `⌊√total⌋`, at least 16, the size of LEMON's block search
/// (Kovács, "Minimum-cost flow algorithms: an experimental evaluation",
/// 2015). A pivot changes a cycle of a few dozen arcs and violations are
/// sparse, so a longer block mostly reads arcs whose reduced costs the
/// pivot left alone; DESIGN.md has the measurements.
fn pricing_block(total: usize) -> usize {
    total.isqrt().max(16)
}

/// The spanning-tree basis and pivot machinery. Nodes `0..n` are real, node
/// `n` is the artificial root; arcs `0..m` are real, arc `m + v` is node
/// `v`'s artificial arc.
struct NetSimplex {
    n: usize,
    m: usize,
    arcs: Vec<ArcRec>,
    nodes: Vec<NodeRec>,
    // Block pricing: the roving cursor and the block size
    // (`pricing_block`).
    cursor: usize,
    block: usize,
    // Telemetry and the running artificial-flow total (phase-1 early exit).
    pivots: usize,
    degenerate: usize,
    arcs_priced: usize,
    infeasibility: f64,
    // Reusable pivot scratch: the two tree paths to the apex
    // (node, pred arc, arc aligned with the cycle orientation) and the
    // parent chain being reversed.
    path_from: Vec<(usize, usize, bool)>,
    path_to: Vec<(usize, usize, bool)>,
    chain: Vec<usize>,
    chain_arcs: Vec<usize>,
    stack: Vec<usize>,
    // CSR bucketing scratch for `warm_start` / `seed_tree`.
    start: Vec<usize>,
    incoming: Vec<u32>,
    // Subtree membership flags for the dual pivots (all `false` between
    // uses; cleared through the visited list, never by a full sweep).
    marks: Vec<bool>,
    // Real-arc incidence CSR (`adj_start[v]..adj_start[v+1]` indexes into
    // `adj`), built on demand by the incremental path so a dual pivot can
    // scan only the arcs incident to a small cut subtree instead of the
    // whole arc array. Valid only while `adj_valid` — any endpoint edit or
    // structural growth clears it.
    adj: Vec<u32>,
    adj_start: Vec<u32>,
    adj_valid: bool,
    adj_enabled: bool,
}

impl Drop for NetSimplex {
    fn drop(&mut self) {
        let (n, m) = (self.n, self.m);
        SCRATCH.with(|slot| {
            let mut sc = slot.borrow_mut();
            stash(&mut sc.arcs, std::mem::take(&mut self.arcs), m + n);
            stash(&mut sc.nodes, std::mem::take(&mut self.nodes), n + 1);
            stash(
                &mut sc.path_from,
                std::mem::take(&mut self.path_from),
                n + 1,
            );
            stash(&mut sc.path_to, std::mem::take(&mut self.path_to), n + 1);
            stash(&mut sc.chain, std::mem::take(&mut self.chain), n + 1);
            stash(
                &mut sc.chain_arcs,
                std::mem::take(&mut self.chain_arcs),
                n + 1,
            );
            stash(&mut sc.stack, std::mem::take(&mut self.stack), n + 1);
            stash(&mut sc.start, std::mem::take(&mut self.start), n + 1);
            stash(&mut sc.incoming, std::mem::take(&mut self.incoming), m + n);
            stash(&mut sc.marks, std::mem::take(&mut self.marks), n + 1);
            stash(&mut sc.adj, std::mem::take(&mut self.adj), 2 * m);
            stash(
                &mut sc.adj_start,
                std::mem::take(&mut self.adj_start),
                n + 2,
            );
        });
    }
}

impl NetSimplex {
    /// With `warm`, the caller promises the zero flow is feasible (every
    /// excess is 0) and will build the initial basis via
    /// [`NetSimplex::warm_start`]: real costs are installed immediately,
    /// the artificial arcs start empty and capacity-pinned, and no
    /// all-artificial tree is built only to be torn down again.
    fn new(p: &MinCostFlowProblem, excess: &[f64], warm: bool) -> Self {
        let n = p.supplies.len();
        let m = p.arcs.len();
        let root = n;
        let total = m + n;
        assert!(total < NIL as usize, "network too large for u32 indexing");
        let mut sc = SCRATCH.with(|slot| slot.take());
        sc.arcs.clear();
        sc.arcs.reserve(total);
        sc.nodes.clear();
        sc.nodes.resize(n + 1, NODE_INIT);
        let mut s = NetSimplex {
            n,
            m,
            arcs: sc.arcs,
            nodes: sc.nodes,
            cursor: 0,
            block: pricing_block(total),
            pivots: 0,
            degenerate: 0,
            arcs_priced: 0,
            infeasibility: 0.0,
            path_from: sc.path_from,
            path_to: sc.path_to,
            chain: sc.chain,
            chain_arcs: sc.chain_arcs,
            stack: sc.stack,
            start: sc.start,
            incoming: sc.incoming,
            marks: sc.marks,
            adj: sc.adj,
            adj_start: sc.adj_start,
            adj_valid: false,
            adj_enabled: false,
        };
        for a in &p.arcs {
            s.arcs.push(ArcRec {
                tail: a.tail as u32,
                head: a.head as u32,
                state: ArcState::Lower,
                cap: a.upper - a.lower,
                cost: if warm { a.cost } else { 0.0 },
                flow: 0.0,
            });
        }
        if warm {
            // The caller builds the basis via `warm_start`; the artificial
            // arcs start empty and capacity-pinned.
            for v in 0..n {
                s.arcs.push(ArcRec {
                    tail: v as u32,
                    head: root as u32,
                    state: ArcState::Lower,
                    cap: 0.0,
                    cost: 0.0,
                    flow: 0.0,
                });
            }
            return s;
        }
        // Artificial-root initialization: every node hangs off the root by
        // one artificial arc carrying its excess, oriented so the initial
        // tree is strongly feasible (zero-flow arcs point toward the root).
        for (v, &e) in excess.iter().enumerate() {
            let (tail, head, flow) = if e >= 0.0 {
                (v, root, e)
            } else {
                (root, v, -e)
            };
            s.nodes[v].pot = if e >= 0.0 { -1.0 } else { 1.0 };
            s.arcs.push(ArcRec {
                tail: tail as u32,
                head: head as u32,
                state: ArcState::Tree,
                cap: f64::INFINITY,
                cost: 1.0, // phase-1 cost; real arcs cost 0 for now
                flow,
            });
            s.infeasibility += flow;
            s.nodes[v].parent = root as u32;
            s.nodes[v].pred = (m + v) as u32;
            s.nodes[v].depth = 1;
            s.attach(root, v);
        }
        s
    }

    /// Rebuilds the parent/pred/child-sibling tree from the arc `Tree`
    /// states a resident session kept, after a re-cost of a tree arc
    /// invalidated its potentials. Tree arcs are treated as undirected
    /// edges; any arc that would close a cycle (possible after retargeting)
    /// is demoted to nonbasic-at-lower, and every connected piece —
    /// including nodes appended since the previous solve — is anchored to
    /// the artificial root through its lowest-numbered node's artificial
    /// arc. Depths and potentials are left for the caller to refresh.
    fn seed_tree(&mut self) {
        let root = self.n;
        let mut start = std::mem::take(&mut self.start);
        start.clear();
        start.resize(self.n + 1, 0);
        for arc in &self.arcs[..self.m] {
            if arc.state == ArcState::Tree {
                start[arc.tail as usize] += 1;
                start[arc.head as usize] += 1;
            }
        }
        let mut run = 0usize;
        for s in start.iter_mut() {
            run += *s;
            *s = run;
        }
        let mut incoming = std::mem::take(&mut self.incoming);
        incoming.clear();
        incoming.resize(run, 0);
        for (a, arc) in self.arcs[..self.m].iter().enumerate() {
            if arc.state == ArcState::Tree {
                for v in [arc.tail as usize, arc.head as usize] {
                    let slot = &mut start[v];
                    *slot -= 1;
                    incoming[*slot] = a as u32;
                }
            }
        }
        self.stack.clear();
        for anchor in 0..self.n {
            if self.nodes[anchor].parent != NIL {
                continue;
            }
            self.nodes[anchor].parent = root as u32;
            self.nodes[anchor].pred = (self.m + anchor) as u32;
            self.arcs[self.m + anchor].state = ArcState::Tree;
            self.attach(root, anchor);
            self.stack.push(anchor);
            while let Some(v) = self.stack.pop() {
                for &inc in &incoming[start[v]..start[v + 1]] {
                    let a = inc as usize;
                    let arc = self.arcs[a];
                    let u = if arc.tail as usize == v {
                        arc.head as usize
                    } else {
                        arc.tail as usize
                    };
                    if self.nodes[u].parent == NIL {
                        self.nodes[u].parent = v as u32;
                        self.nodes[u].pred = a as u32;
                        self.attach(v, u);
                        self.stack.push(u);
                    } else if self.arcs[a].state == ArcState::Tree
                        && self.nodes[v].pred as usize != a
                        && self.nodes[u].pred as usize != a
                    {
                        // Both endpoints already attached and the arc is
                        // neither one's entry: it closes a cycle. The stored
                        // tree is stale here; rest the arc at its lower
                        // bound instead.
                        self.arcs[a].state = ArcState::Lower;
                        self.arcs[a].flow = 0.0;
                    }
                }
            }
        }
        self.start = start;
        self.incoming = incoming;
    }

    /// Tree elimination: given per-node residual excesses `e` (indexed
    /// `0..=n`, root last), assigns every basic arc the unique flow that
    /// balances its subtree. Preorder by explicit stack puts parents before
    /// descendants, so the reverse sweep sees every child first and solves
    /// the triangular system in one pass. Flows may land outside their
    /// bounds — that is the caller's dual repair to finish.
    fn eliminate_tree_flows(&mut self, e: &mut [f64]) {
        let root = self.n;
        self.chain.clear();
        self.stack.clear();
        let mut c = self.nodes[root].first_child;
        while c != NIL {
            self.stack.push(c as usize);
            c = self.nodes[c as usize].next_sib;
        }
        while let Some(v) = self.stack.pop() {
            self.chain.push(v);
            let mut c = self.nodes[v].first_child;
            while c != NIL {
                self.stack.push(c as usize);
                c = self.nodes[c as usize].next_sib;
            }
        }
        for i in (0..self.chain.len()).rev() {
            let v = self.chain[i];
            let a = self.nodes[v].pred as usize;
            let ev = e[v];
            self.arcs[a].flow = if self.arcs[a].tail as usize == v {
                ev
            } else {
                -ev
            };
            e[self.nodes[v].parent as usize] += ev;
        }
    }

    fn rc(&self, a: &ArcRec) -> f64 {
        a.cost + self.nodes[a.tail as usize].pot - self.nodes[a.head as usize].pot
    }

    /// A solution carrying `status` and this run's work counters.
    fn outcome(&self, status: LpStatus) -> McfSolution {
        McfSolution {
            pivots: self.pivots,
            degenerate_pivots: self.degenerate,
            arcs_priced: self.arcs_priced,
            ..McfSolution::with_status(status)
        }
    }

    /// Block pricing: scan blocks of [`pricing_block`] arcs from a roving
    /// cursor and return the most-violating arc of the first block that
    /// contains any violation (the first such arc on ties). A full wrap
    /// without one proves optimality.
    ///
    /// An arc's violation is its reduced cost times the sign its
    /// [`ArcState`] discriminant carries, or 0 when its capacity is at most
    /// `EPS`: an arc that can never carry flow is exempt at either bound,
    /// since entering it could only be a zero-step bound flip. Computing
    /// it takes no branch on the state, and the scan keeps the best
    /// `(index, value)` pair, starting from `EPS`.
    fn price(&mut self) -> Option<usize> {
        let total = self.arcs.len();
        let mut scanned = 0;
        while scanned < total {
            let take = self.block.min(total - scanned);
            // The block may wrap: scan as (at most) two contiguous runs so
            // the hot loop stays free of modular indexing.
            let first = take.min(total - self.cursor);
            let best = self.scan(self.cursor, self.cursor + first, (NONE, EPS));
            let (enter, _) = self.scan(0, take - first, best);
            self.cursor = (self.cursor + take) % total;
            scanned += take;
            self.arcs_priced += take;
            if enter != NONE {
                return Some(enter);
            }
        }
        None
    }

    /// The arc of `lo..hi` whose violation (see [`Self::price`]) most
    /// exceeds `best`'s value, or `best` itself when none does.
    fn scan(&self, lo: usize, hi: usize, mut best: (usize, f64)) -> (usize, f64) {
        for (i, a) in self.arcs[lo..hi].iter().enumerate() {
            let v = if a.cap > EPS {
                f64::from(a.state as i8) * self.rc(a)
            } else {
                0.0
            };
            if v > best.1 {
                best = (lo + i, v);
            }
        }
        best
    }

    fn attach(&mut self, p: usize, x: usize) {
        let old = self.nodes[p].first_child;
        self.nodes[x].next_sib = old;
        self.nodes[x].prev_sib = NIL;
        if old != NIL {
            self.nodes[old as usize].prev_sib = x as u32;
        }
        self.nodes[p].first_child = x as u32;
    }

    fn detach(&mut self, x: usize) {
        let p = self.nodes[x].parent as usize;
        let prev = self.nodes[x].prev_sib;
        let next = self.nodes[x].next_sib;
        if prev == NIL {
            self.nodes[p].first_child = next;
        } else {
            self.nodes[prev as usize].next_sib = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev_sib = prev;
        }
        self.nodes[x].prev_sib = NIL;
        self.nodes[x].next_sib = NIL;
    }

    fn set_flow(&mut self, a: usize, x: f64) {
        if a >= self.m {
            self.infeasibility += x - self.arcs[a].flow;
        }
        self.arcs[a].flow = x;
    }

    /// Recomputes depth and potential for the subtree rooted at `start`
    /// from its (already final) parent, walking the child/sibling thread.
    fn refresh_subtree(&mut self, start: usize) {
        self.stack.clear();
        self.stack.push(start);
        while let Some(x) = self.stack.pop() {
            let p = self.nodes[x].parent as usize;
            let arc = self.arcs[self.nodes[x].pred as usize];
            self.nodes[x].depth = self.nodes[p].depth + 1;
            self.nodes[x].pot = if arc.head as usize == x {
                self.nodes[p].pot + arc.cost
            } else {
                self.nodes[p].pot - arc.cost
            };
            let mut c = self.nodes[x].first_child;
            while c != NIL {
                self.stack.push(c as usize);
                c = self.nodes[c as usize].next_sib;
            }
        }
    }

    /// Switches to phase-2 costs: real arc costs return, artificial arcs
    /// are pinned at zero capacity (they may linger in the tree,
    /// degenerate, but can never carry flow again).
    fn enter_phase2(&mut self, arcs: &[McfArc]) {
        for (rec, arc) in self.arcs.iter_mut().zip(arcs) {
            rec.cost = arc.cost;
        }
        let mut drained = 0.0;
        for rec in &mut self.arcs[self.m..] {
            rec.cost = 0.0;
            rec.cap = 0.0;
            drained += rec.flow;
            rec.flow = 0.0;
        }
        self.infeasibility -= drained;
        let root = self.n;
        self.nodes[root].pot = 0.0;
        let mut c = self.nodes[root].first_child;
        while c != NIL {
            self.refresh_subtree(c as usize);
            c = self.nodes[c as usize].next_sib;
        }
        self.cursor = 0;
    }

    /// Builds the initial basis as a spanning tree of *real* arcs wherever
    /// one exists (requires `warm` construction). Only valid when the zero
    /// flow is feasible (all excesses 0): every tree arc then rests at its
    /// lower bound, so strong feasibility requires each to point toward the
    /// root — which a reverse BFS guarantees by hanging a node `u` below
    /// `v` exactly when an arc `u → v` exists and `v` is already attached.
    /// Each connected piece is anchored to the root by a single artificial
    /// arc (oriented `node → root`); the other artificials never enter the
    /// basis instead of being pivoted out one degenerate step at a time.
    fn warm_start(&mut self) {
        let root = self.n;
        // Bucket real arcs by head for the reverse BFS (zero-capacity arcs
        // can never carry flow and would only seed degenerate cycles).
        // Backward fill: prefix-sum to *end* offsets, then insert each arc
        // by decrementing its bucket cursor in place — `start[v]` lands on
        // the begin offset and `start[v + 1]` is the end, with no second
        // cursor array.
        let mut start = std::mem::take(&mut self.start);
        start.clear();
        start.resize(self.n + 1, 0);
        for arc in &self.arcs[..self.m] {
            if arc.cap > EPS {
                start[arc.head as usize] += 1;
            }
        }
        let mut run = 0usize;
        for s in start.iter_mut() {
            run += *s;
            *s = run;
        }
        let mut incoming = std::mem::take(&mut self.incoming);
        incoming.clear();
        incoming.resize(run, 0);
        for (a, arc) in self.arcs[..self.m].iter().enumerate() {
            if arc.cap > EPS {
                let slot = &mut start[arc.head as usize];
                *slot -= 1;
                incoming[*slot] = a as u32;
            }
        }

        // `parent == NIL` doubles as "not yet attached".
        self.stack.clear();
        for anchor in 0..self.n {
            if self.nodes[anchor].parent != NIL {
                continue;
            }
            self.nodes[anchor].parent = root as u32;
            self.nodes[anchor].pred = (self.m + anchor) as u32;
            self.arcs[self.m + anchor].state = ArcState::Tree;
            self.attach(root, anchor);
            self.stack.push(anchor);
            while let Some(v) = self.stack.pop() {
                for &a in &incoming[start[v]..start[v + 1]] {
                    let u = self.arcs[a as usize].tail as usize;
                    if self.nodes[u].parent == NIL {
                        self.nodes[u].parent = v as u32;
                        self.nodes[u].pred = a;
                        self.arcs[a as usize].state = ArcState::Tree;
                        self.attach(v, u);
                        self.stack.push(u);
                    }
                }
            }
        }

        self.start = start;
        self.incoming = incoming;

        self.nodes[root].pot = 0.0;
        let mut c = self.nodes[root].first_child;
        while c != NIL {
            self.refresh_subtree(c as usize);
            c = self.nodes[c as usize].next_sib;
        }
    }

    fn run(&mut self, limit: usize, phase1: bool) -> Result<(), LpStatus> {
        loop {
            if phase1 && self.infeasibility <= EPS {
                return Ok(());
            }
            if self.pivots >= limit {
                return Err(LpStatus::IterationLimit);
            }
            let Some(enter) = self.price() else {
                return Ok(());
            };
            self.pivot(enter)?;
        }
    }

    /// One pivot: close the cycle of `enter`, push the blocking step
    /// around it, and (unless the entering arc blocks itself — a bound
    /// flip) exchange it against the leaving arc in the tree.
    fn pivot(&mut self, enter: usize) -> Result<(), LpStatus> {
        let erec = self.arcs[enter];
        // Push direction: out of `from`, into `to`.
        let (from, to) = match erec.state {
            ArcState::Lower => (erec.tail as usize, erec.head as usize),
            ArcState::Upper => (erec.head as usize, erec.tail as usize),
            ArcState::Tree => unreachable!("entering arc must be nonbasic"),
        };

        self.cycle_paths(from, to);

        // Blocking step: the smallest residual around the cycle.
        let residual = |arc: &ArcRec, fwd: bool| if fwd { arc.cap - arc.flow } else { arc.flow };
        let mut delta = erec.cap;
        for &(_, a, fwd) in self.path_from.iter().chain(self.path_to.iter()) {
            delta = delta.min(residual(&self.arcs[a], fwd));
        }
        if delta.is_infinite() {
            return Err(LpStatus::Unbounded);
        }

        // Strongly-feasible leaving rule: of all blocking arcs, take the
        // LAST one met when traversing the cycle from the apex along its
        // orientation — i.e. prefer the to-side arc nearest the apex, then
        // the entering arc itself, then the from-side arc nearest `from`.
        let tie = delta + EPS;
        let mut leave: Option<(usize, usize, bool)> = None;
        let mut leave_on_from_side = false;
        for &(z, a, fwd) in &self.path_to {
            if residual(&self.arcs[a], fwd) <= tie {
                leave = Some((z, a, fwd));
            }
        }
        if leave.is_none() && erec.cap > tie {
            for &(z, a, fwd) in &self.path_from {
                if residual(&self.arcs[a], fwd) <= tie {
                    leave = Some((z, a, fwd));
                    leave_on_from_side = true;
                    break;
                }
            }
        }

        self.pivots += 1;
        if delta <= EPS {
            self.degenerate += 1;
        }

        self.apply_cycle(delta);

        let Some((z, larc, lfwd)) = leave else {
            // The entering arc blocked itself: a bound flip, no tree change.
            let (next, x) = match erec.state {
                ArcState::Lower => (ArcState::Upper, erec.cap),
                _ => (ArcState::Lower, 0.0),
            };
            self.arcs[enter].state = next;
            self.set_flow(enter, x);
            return Ok(());
        };

        // The entering arc takes the step; the leaving arc snaps to the
        // bound it hit.
        let x = match erec.state {
            ArcState::Lower => delta,
            _ => erec.cap - delta,
        };
        self.set_flow(enter, x);
        self.arcs[enter].state = ArcState::Tree;
        let snap = if lfwd { self.arcs[larc].cap } else { 0.0 };
        self.set_flow(larc, snap);
        self.arcs[larc].state = if lfwd {
            ArcState::Upper
        } else {
            ArcState::Lower
        };

        let (q, p_attach) = if leave_on_from_side {
            (from, to)
        } else {
            (to, from)
        };
        self.rehang(q, z, p_attach, enter);
        Ok(())
    }

    /// Walks both endpoints of the entering arc's cycle up to their apex,
    /// recording each tree arc and whether it is aligned with the cycle
    /// orientation (the orientation runs from → enter → to → apex → from).
    fn cycle_paths(&mut self, from: usize, to: usize) {
        self.path_from.clear();
        self.path_to.clear();
        let (mut u, mut v) = (from, to);
        while self.nodes[u].depth > self.nodes[v].depth {
            let a = self.nodes[u].pred as usize;
            self.path_from.push((u, a, self.arcs[a].head as usize == u));
            u = self.nodes[u].parent as usize;
        }
        while self.nodes[v].depth > self.nodes[u].depth {
            let a = self.nodes[v].pred as usize;
            self.path_to.push((v, a, self.arcs[a].tail as usize == v));
            v = self.nodes[v].parent as usize;
        }
        while u != v {
            let a = self.nodes[u].pred as usize;
            self.path_from.push((u, a, self.arcs[a].head as usize == u));
            u = self.nodes[u].parent as usize;
            let a = self.nodes[v].pred as usize;
            self.path_to.push((v, a, self.arcs[a].tail as usize == v));
            v = self.nodes[v].parent as usize;
        }
    }

    /// Pushes `delta` units around the cycle recorded by
    /// [`NetSimplex::cycle_paths`] (the entering arc itself is the
    /// caller's to update).
    fn apply_cycle(&mut self, delta: f64) {
        for i in 0..self.path_from.len() {
            let (_, a, fwd) = self.path_from[i];
            let x = self.arcs[a].flow + if fwd { delta } else { -delta };
            self.set_flow(a, x);
        }
        for i in 0..self.path_to.len() {
            let (_, a, fwd) = self.path_to[i];
            let x = self.arcs[a].flow + if fwd { delta } else { -delta };
            self.set_flow(a, x);
        }
    }

    /// Re-hangs the subtree severed by a pivot: `q` (the cycle endpoint
    /// below the leaving arc) becomes a child of `p_attach` via `enter`,
    /// and the parent chain from `q` up to `z` (the node the leaving arc
    /// hung from) reverses. Finishes by refreshing depths and potentials
    /// across the re-hung subtree.
    fn rehang(&mut self, q: usize, z: usize, p_attach: usize, enter: usize) {
        self.chain.clear();
        self.chain_arcs.clear();
        let mut x = q;
        loop {
            self.chain.push(x);
            if x == z {
                break;
            }
            self.chain_arcs.push(self.nodes[x].pred as usize);
            x = self.nodes[x].parent as usize;
        }
        self.detach(q);
        self.nodes[q].parent = p_attach as u32;
        self.nodes[q].pred = enter as u32;
        self.attach(p_attach, q);
        for i in 0..self.chain_arcs.len() {
            let child = self.chain[i + 1];
            let new_parent = self.chain[i];
            let arc = self.chain_arcs[i];
            self.detach(child);
            self.nodes[child].parent = new_parent as u32;
            self.nodes[child].pred = arc as u32;
            self.attach(new_parent, child);
        }
        self.refresh_subtree(q);
    }

    /// Every tree arc (each is exactly one real node's entry arc): the
    /// [`Self::dual_repair`] worklist of a caller that recomputed all tree
    /// flows.
    fn tree_arcs(&self) -> Vec<u32> {
        self.nodes[..self.n].iter().map(|node| node.pred).collect()
    }

    /// Dual network simplex over a dual-feasible tree: while some tree arc
    /// is outside its bounds, repair the most-violated one with a single
    /// dual pivot. The tree stays dual-feasible throughout (the entering
    /// arc is the minimum-reduced-cost nonbasic arc crossing the violated
    /// arc's tree cut), so when the loop drains, the final primal phase
    /// the caller runs is typically pivot-free.
    ///
    /// `worklist` must hold every tree arc that may be out of bounds: the
    /// caller seeds it with the arcs whose flows it rewrote, and each pivot
    /// appends the arcs it touched (its cycle plus the entering arc). Each
    /// round scans the list once, dropping entries that left the tree or
    /// sit within their bounds, and pivots out the most-violated survivor;
    /// ties go to the higher arc id, so the order of the list never
    /// matters. Worst-first keeps a pivot from re-damaging arcs an earlier
    /// pivot already repaired, which an arbitrary drain order does over and
    /// over on degenerate time-expanded chains.
    fn dual_repair(&mut self, limit: usize, worklist: &mut Vec<u32>) -> Result<(), DualOutcome> {
        loop {
            let mut worst: Option<(u32, f64, bool)> = None;
            let mut i = 0;
            while i < worklist.len() {
                let t = worklist[i];
                let arc = &self.arcs[t as usize];
                let (over, under) = (arc.flow - arc.cap, -arc.flow);
                let v = over.max(under);
                if arc.state != ArcState::Tree || v <= FEAS_EPS {
                    worklist.swap_remove(i);
                    continue;
                }
                if worst.is_none_or(|(bt, bv, _)| v > bv || (v == bv && t > bt)) {
                    worst = Some((t, v, over > under));
                }
                i += 1;
            }
            let Some((t, violation, over)) = worst else {
                return Ok(());
            };
            if self.pivots >= limit {
                return Err(DualOutcome::Limit);
            }
            let enter = self.dual_pivot(t as usize, violation, over)?;
            let cycle = self.path_from.iter().chain(&self.path_to);
            worklist.extend(cycle.map(|&(_, a, _)| a as u32));
            worklist.push(enter as u32);
        }
    }

    /// Builds the real-arc incidence CSR for [`Self::dual_pivot`]'s
    /// entering-arc scan. Two counting passes over the arc array — cheaper
    /// than a single full-array scan per pivot as soon as the repair does
    /// more than one.
    fn build_incidence(&mut self) {
        let slots = self.n + 2;
        self.adj_start.clear();
        self.adj_start.resize(slots, 0);
        for arc in &self.arcs[..self.m] {
            self.adj_start[arc.tail as usize + 1] += 1;
            self.adj_start[arc.head as usize + 1] += 1;
        }
        for i in 1..slots {
            self.adj_start[i] += self.adj_start[i - 1];
        }
        self.adj.clear();
        self.adj.resize(2 * self.m, 0);
        // `stack` doubles as the write cursors (restored below).
        self.stack.clear();
        self.stack
            .extend(self.adj_start[..self.n + 1].iter().map(|&x| x as usize));
        for (i, arc) in self.arcs[..self.m].iter().enumerate() {
            for v in [arc.tail as usize, arc.head as usize] {
                self.adj[self.stack[v]] = i as u32;
                self.stack[v] += 1;
            }
        }
        self.stack.clear();
        self.adj_valid = true;
    }

    /// Scores a candidate entering arc for a dual pivot across the marked
    /// cut: `None` if it does not cross (or cannot carry flow the needed
    /// way), otherwise the dual ratio key — the pivot picks the minimum,
    /// which is exactly the choice that keeps the tree dual-feasible.
    fn entering_key(&self, arc: &ArcRec, need_s_to_r: bool) -> Option<f64> {
        let in_s = self.marks[arc.tail as usize];
        if in_s == self.marks[arc.head as usize] {
            return None;
        }
        match arc.state {
            ArcState::Tree => None,
            ArcState::Lower => {
                if arc.cap <= EPS || in_s != need_s_to_r {
                    None
                } else {
                    Some(self.rc(arc))
                }
            }
            ArcState::Upper => {
                if in_s == need_s_to_r {
                    None
                } else {
                    Some(-self.rc(arc))
                }
            }
        }
    }

    /// One dual pivot: the violated tree arc `t` leaves (snapping to the
    /// bound it broke), and the flow it cannot carry is rerouted across its
    /// tree cut through the entering arc — the nonbasic crossing arc of
    /// minimum reduced cost in the needed direction, which is exactly the
    /// choice that keeps every nonbasic arc dual-feasible after the
    /// potentials shift. Returns the entering arc's index.
    fn dual_pivot(&mut self, t: usize, violation: f64, over: bool) -> Result<usize, DualOutcome> {
        let trec = self.arcs[t];
        let tail_t = trec.tail as usize;
        let head_t = trec.head as usize;
        // S = the subtree below `t`, i.e. of whichever endpoint `t` is the
        // entry arc for; R = everything else.
        let x = if (self.nodes[tail_t].pred as usize) == t {
            tail_t
        } else {
            head_t
        };
        debug_assert_eq!(self.nodes[x].pred as usize, t);
        self.chain.clear();
        self.stack.clear();
        self.stack.push(x);
        self.marks[x] = true;
        self.chain.push(x);
        while let Some(y) = self.stack.pop() {
            let mut c = self.nodes[y].first_child;
            while c != NIL {
                let cu = c as usize;
                self.marks[cu] = true;
                self.chain.push(cu);
                self.stack.push(cu);
                c = self.nodes[cu].next_sib;
            }
        }
        // Which way the replacement capacity must cross the cut: reducing
        // an over-capacity arc needs a substitute in its own direction;
        // raising a negative flow needs a push against it.
        let need_s_to_r = over == self.marks[tail_t];
        let mut best: Option<(usize, f64)> = None;
        // The entering arc crosses the (S, R) cut, so it is incident to S:
        // for a *small* S, scanning S's incident arcs beats the full-array
        // sweep. Balanced cuts (deep time-expanded chains put half the
        // tree below an evicted arc) stay on the linear scan — it walks
        // the arc array in order, which the cache likes far better than
        // chasing adjacency indirections of comparable volume. The index
        // is built lazily on the first small cut of a repair pass.
        if self.adj_enabled && self.chain.len() * 16 < self.n {
            if !self.adj_valid {
                self.build_incidence();
            }
            for ci in 0..self.chain.len() {
                let y = self.chain[ci];
                for k in self.adj_start[y] as usize..self.adj_start[y + 1] as usize {
                    let arc_idx = self.adj[k] as usize;
                    if let Some(key) = self.entering_key(&self.arcs[arc_idx], need_s_to_r) {
                        // Ties break toward the lower arc id so the choice
                        // is identical to the full scan's, whatever order
                        // the adjacency lists visit the candidates in.
                        if best.is_none_or(|(bi, bk)| key < bk || (key == bk && arc_idx < bi)) {
                            best = Some((arc_idx, key));
                        }
                    }
                }
            }
        } else {
            for arc_idx in 0..self.m {
                if let Some(key) = self.entering_key(&self.arcs[arc_idx], need_s_to_r) {
                    if best.is_none_or(|(_, bk)| key < bk) {
                        best = Some((arc_idx, key));
                    }
                }
            }
        }
        let entered = best.map(|(enter, _)| {
            let erec = self.arcs[enter];
            let (from, to) = match erec.state {
                ArcState::Lower => (erec.tail as usize, erec.head as usize),
                ArcState::Upper => (erec.head as usize, erec.tail as usize),
                ArcState::Tree => unreachable!("entering arc must be nonbasic"),
            };
            let (q, p_attach) = if self.marks[from] {
                (from, to)
            } else {
                (to, from)
            };
            (enter, erec, from, to, q, p_attach)
        });
        // Restore the all-false marks invariant through the visited list
        // before any structural change.
        for i in 0..self.chain.len() {
            let y = self.chain[i];
            self.marks[y] = false;
        }
        let Some((enter, erec, from, to, q, p_attach)) = entered else {
            return Err(DualOutcome::Stall);
        };

        // The cycle of `enter` crosses the cut exactly twice: through
        // `enter` and back through `t`, so pushing the violation around it
        // lands `t` exactly on the bound it broke.
        self.cycle_paths(from, to);
        self.pivots += 1;
        if violation <= EPS {
            self.degenerate += 1;
        }
        self.apply_cycle(violation);
        let xf = match erec.state {
            ArcState::Lower => violation,
            _ => erec.cap - violation,
        };
        self.set_flow(enter, xf);
        self.arcs[enter].state = ArcState::Tree;
        let (snap, state) = if over && self.arcs[t].cap > EPS {
            (self.arcs[t].cap, ArcState::Upper)
        } else {
            // Under its lower bound — or a zero-capacity bound, where
            // `Lower` keeps the arc exempt from pricing.
            (0.0, ArcState::Lower)
        };
        self.set_flow(t, snap);
        self.arcs[t].state = state;
        self.rehang(q, x, p_attach, enter);
        Ok(enter)
    }
}

/// Why the dual repair gave up (the session restarts from scratch).
enum DualOutcome {
    /// A primal infeasibility has no nonbasic crossing arc to absorb it.
    Stall,
    /// The pivot limit was reached before feasibility was restored.
    Limit,
}

/// A network-simplex engine that stays *resident* across a stream of solves
/// of one evolving min-cost-flow problem.
///
/// Rebuilding the solver state — arc records, spanning tree, potentials —
/// on every call is an `O(n + m)` reconstruction that costs as much as
/// half a cold solve at the streaming workloads' small-batch cadence. A
/// `NetflowSession` keeps the simplex state alive between solves and syncs
/// only what changed:
///
/// * appended arcs are spliced in nonbasic-at-lower (the artificial block
///   shifts up in place) and appended nodes hang off the root as fresh
///   zero-capacity anchors;
/// * `touched` arcs (capacity, cost or endpoint patches) are refreshed
///   individually and the flow each edit displaces is routed root-ward
///   through the tree; the spanning tree is rebuilt (and every basic flow
///   recomputed by tree elimination) only when a *tree* arc was re-costed,
///   and the potentials survive otherwise;
/// * each solve then repairs the tree arcs left outside their bounds with
///   worst-first dual pivots and finishes with primal pricing.
///
/// The caller must list in `touched` every pre-existing arc it mutated
/// since the previous solve (appended arcs are picked up automatically;
/// duplicates are fine) — debug builds verify the sync against the problem.
/// Whenever the resident state cannot be reused (first solve, shrunk
/// problem, non-circulation shape, dual stall, pivot limit), the session
/// transparently solves from scratch — keeping the fresh state resident —
/// and reports it via [`McfSolution::fallback_cold`].
///
/// The incremental path covers exactly the warm-start shape of
/// [`MinCostFlowProblem::solve`]: all-zero supplies and lower bounds (a
/// circulation), which is the only shape the streaming flow emitters
/// produce. Other problems are solved cold on every call.
#[derive(Default)]
pub struct NetflowSession {
    engine: Option<NetSimplex>,
}

impl std::fmt::Debug for NetflowSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("NetflowSession");
        match &self.engine {
            Some(s) => d
                .field("resident", &true)
                .field("nodes", &s.n)
                .field("arcs", &s.m),
            None => d.field("resident", &false),
        }
        .finish()
    }
}

impl Clone for NetflowSession {
    /// A cloned session starts non-resident: the engine state is a cache
    /// of the *original*'s last solve, and the clone's first solve rebuilds
    /// its own from scratch.
    fn clone(&self) -> Self {
        NetflowSession::default()
    }
}

impl NetflowSession {
    /// Opens an empty session; the first [`NetflowSession::solve`] solves
    /// from scratch and leaves its state resident.
    pub fn new() -> Self {
        NetflowSession::default()
    }

    /// Whether a previous solve's state is resident, making the next
    /// [`NetflowSession::solve`] incremental.
    pub fn is_resident(&self) -> bool {
        self.engine.is_some()
    }

    /// Solves `problem`, incrementally when resident state from the
    /// previous solve can absorb the patch. `touched` lists the index of
    /// every pre-existing arc whose capacity, cost or endpoints changed
    /// since the previous solve; it is ignored on a non-incremental solve.
    pub fn solve(&mut self, problem: &MinCostFlowProblem, touched: &[u32]) -> McfSolution {
        let n = problem.supplies.len();
        let m = problem.arcs.len();
        if n == 0 {
            self.engine = None;
            return McfSolution::with_status(LpStatus::Optimal);
        }
        let circulation = problem.supplies.iter().all(|&s| s == 0.0)
            && problem.arcs.iter().all(|a| a.lower == 0.0);
        if !circulation || m + n >= NIL as usize {
            // Outside the resident shape: plain cold solve, nothing kept.
            self.engine = None;
            return problem.solve();
        }
        let had_state = self.engine.is_some();
        if had_state {
            if let Some(solution) = self.solve_incremental(problem, touched) {
                return solution;
            }
        }
        let mut solution = self.restart(problem);
        solution.fallback_cold = had_state;
        solution
    }

    /// From-scratch solve of a circulation (warm spanning-tree start, no
    /// phase 1) that leaves the finished simplex state resident.
    fn restart(&mut self, problem: &MinCostFlowProblem) -> McfSolution {
        // Dropping the stale engine first recycles its buffers through the
        // thread-local scratch slot, where `NetSimplex::new` reclaims them.
        self.engine = None;
        let mut s = NetSimplex::new(problem, &[], true);
        s.warm_start();
        if let Err(status) = s.run(problem.pivot_limit(), false) {
            return s.outcome(status);
        }
        let solution = problem.extract(&s, false);
        self.engine = Some(s);
        solution
    }

    /// The incremental path: sync the resident state to the patched
    /// problem, repair, re-prove optimality. `None` means the state could
    /// not be reused and the caller should restart from scratch.
    ///
    /// The previous solve left an exact invariant behind: nonbasic arcs
    /// rest on their bounds, tree flows form a conserving circulation, and
    /// the potentials price every nonbasic arc nonnegative. The sync
    /// therefore never re-derives global state — it edits exactly what the
    /// patch touched and lets two local repair mechanisms absorb the
    /// damage: surplus routing (flow deltas pushed root-ward through the
    /// tree) and worklist dual pivots (tree arcs knocked outside their
    /// bounds).
    fn solve_incremental(
        &mut self,
        problem: &MinCostFlowProblem,
        touched: &[u32],
    ) -> Option<McfSolution> {
        let n = problem.supplies.len();
        let m = problem.arcs.len();
        // Take the engine out: every bail-out path simply drops it (its
        // buffers recycle through the scratch slot for the restart).
        let mut s = self.engine.take().expect("caller checked residency");
        if s.n > n || s.m > m {
            // The problem shrank: it is a different instance, not a patch.
            return None;
        }
        let (old_n, old_m) = (s.n, s.m);
        let dm = m - old_m;
        let mut touched: Vec<u32> = touched
            .iter()
            .copied()
            .filter(|&t| (t as usize) < old_m)
            .collect();
        touched.sort_unstable();
        touched.dedup();

        // A tree arc whose *cost* changed invalidates the potentials of an
        // entire subtree — rare enough (the flow formulations never re-cost
        // an arc) that a full tree reseed is the simplest correct answer.
        // Endpoint moves and capacity changes are repaired surgically.
        let reseed = touched.iter().any(|&t| {
            let rec = &s.arcs[t as usize];
            rec.state == ArcState::Tree && rec.cost != problem.arcs[t as usize].cost
        });

        // Structural growth. Appended real arcs are spliced in ahead of
        // the artificial block so arc ids keep their meaning; tree `pred`
        // references into the shifted artificial block move with it.
        if dm > 0 {
            s.arcs.splice(
                old_m..old_m,
                problem.arcs[old_m..].iter().map(|a| ArcRec {
                    tail: a.tail as u32,
                    head: a.head as u32,
                    state: ArcState::Lower,
                    cap: a.upper - a.lower,
                    cost: a.cost,
                    flow: 0.0,
                }),
            );
            for node in &mut s.nodes {
                if node.pred != NIL && node.pred as usize >= old_m {
                    node.pred += dm as u32;
                }
            }
        }
        if n > old_n {
            // The artificial root's id moves from `old_n` to `n`: rewrite
            // the artificial arcs' endpoints and every tree link that
            // referenced it, then anchor each appended node under the root
            // (cost-0 arcs, so the inherited potential stays consistent).
            let (old_root, root) = (old_n, n);
            for rec in &mut s.arcs[m..] {
                if rec.tail as usize == old_root {
                    rec.tail = root as u32;
                }
                if rec.head as usize == old_root {
                    rec.head = root as u32;
                }
            }
            s.nodes.resize(n + 1, NODE_INIT);
            s.nodes[root] = s.nodes[old_root];
            for v in old_n..n {
                s.nodes[v] = NODE_INIT;
            }
            for v in 0..old_n {
                if s.nodes[v].parent as usize == old_root {
                    s.nodes[v].parent = root as u32;
                }
            }
            for v in old_n..n {
                s.arcs.push(ArcRec {
                    tail: v as u32,
                    head: root as u32,
                    state: ArcState::Tree,
                    cap: 0.0,
                    cost: 0.0,
                    flow: 0.0,
                });
                s.nodes[v].parent = root as u32;
                s.nodes[v].pred = (m + v) as u32;
                s.nodes[v].depth = 1;
                s.nodes[v].pot = s.nodes[root].pot;
                s.attach(root, v);
            }
        }
        s.n = n;
        s.m = m;
        s.block = pricing_block(m + n);
        // Appended arcs sit at `old_m..m`: point the pricing cursor there
        // so the first blocks scanned are the ones most likely to violate.
        s.cursor = old_m;
        s.marks.resize(n + 1, false);
        s.pivots = 0;
        s.degenerate = 0;
        s.arcs_priced = 0;
        s.infeasibility = 0.0;
        s.adj_valid = false;
        let root = n;
        let limit = problem.pivot_limit();

        let mut worklist: Vec<u32> = if reseed {
            // Sync every touched arc in place, rebuild the tree from the arc
            // states, recompute all flows by elimination: any tree arc may
            // now be out of bounds.
            for &t in &touched {
                let a = &problem.arcs[t as usize];
                let rec = &mut s.arcs[t as usize];
                rec.tail = a.tail as u32;
                rec.head = a.head as u32;
                rec.cost = a.cost;
                rec.cap = a.upper - a.lower;
            }
            for node in &mut s.nodes {
                *node = NODE_INIT;
            }
            for rec in &mut s.arcs[m..] {
                rec.state = ArcState::Lower;
                rec.flow = 0.0;
            }
            s.seed_tree();
            let mut excess = vec![0.0f64; n + 1];
            for rec in &mut s.arcs[..m] {
                match rec.state {
                    ArcState::Upper if !rec.cap.is_finite() || rec.cap <= EPS => {
                        rec.state = ArcState::Lower;
                        rec.flow = 0.0;
                        continue;
                    }
                    ArcState::Upper => rec.flow = rec.cap,
                    ArcState::Lower | ArcState::Tree => {
                        rec.flow = 0.0;
                        continue;
                    }
                }
                excess[rec.tail as usize] -= rec.flow;
                excess[rec.head as usize] += rec.flow;
            }
            s.eliminate_tree_flows(&mut excess);
            s.nodes[root].pot = 0.0;
            let mut c = s.nodes[root].first_child;
            while c != NIL {
                s.refresh_subtree(c as usize);
                c = s.nodes[c as usize].next_sib;
            }
            s.tree_arcs()
        } else {
            // Sparse sync. `excess` tracks the conservation surplus each
            // flow edit leaves behind at a node; `hot` the nodes holding
            // one; `worklist` the tree arcs whose flows were (or will be)
            // rewritten and may now sit outside their bounds.
            let mut excess = vec![0.0f64; n + 1];
            let mut hot: Vec<usize> = Vec::new();
            let mut worklist: Vec<u32> = Vec::new();
            for &t in &touched {
                let i = t as usize;
                let a = &problem.arcs[i];
                let new_cap = a.upper - a.lower;
                let rec = &mut s.arcs[i];
                let moved = rec.tail as usize != a.tail || rec.head as usize != a.head;
                match rec.state {
                    ArcState::Lower => {
                        // Resting at zero flow: every patch is free.
                        rec.tail = a.tail as u32;
                        rec.head = a.head as u32;
                        rec.cap = new_cap;
                        rec.cost = a.cost;
                    }
                    ArcState::Upper => {
                        // The rest flow follows the bound: retract the old
                        // contribution, apply the new one.
                        let old = rec.flow;
                        if old != 0.0 {
                            excess[rec.tail as usize] += old;
                            excess[rec.head as usize] -= old;
                            hot.push(rec.tail as usize);
                            hot.push(rec.head as usize);
                        }
                        rec.tail = a.tail as u32;
                        rec.head = a.head as u32;
                        rec.cap = new_cap;
                        rec.cost = a.cost;
                        if !new_cap.is_finite() || new_cap <= EPS {
                            rec.state = ArcState::Lower;
                            rec.flow = 0.0;
                        } else {
                            rec.flow = new_cap;
                            excess[a.tail] -= new_cap;
                            excess[a.head] += new_cap;
                            hot.push(a.tail);
                            hot.push(a.head);
                        }
                    }
                    ArcState::Tree if moved => {
                        // A retargeted basic arc: demote it, give its flow
                        // back to its old endpoints, and re-anchor the
                        // subtree it was holding up directly under the
                        // root (zero-capacity anchor — any flow the
                        // subtree still exchanges with the rest surfaces
                        // there as a violation for the dual repair).
                        let f = rec.flow;
                        let (ot, oh) = (rec.tail as usize, rec.head as usize);
                        rec.state = ArcState::Lower;
                        rec.flow = 0.0;
                        rec.tail = a.tail as u32;
                        rec.head = a.head as u32;
                        rec.cap = new_cap;
                        rec.cost = a.cost;
                        if f != 0.0 {
                            excess[ot] += f;
                            excess[oh] -= f;
                            hot.push(ot);
                            hot.push(oh);
                        }
                        let x = if s.nodes[ot].pred as usize == i {
                            ot
                        } else {
                            oh
                        };
                        debug_assert_eq!(s.nodes[x].pred as usize, i);
                        s.detach(x);
                        s.nodes[x].parent = root as u32;
                        s.nodes[x].pred = (m + x) as u32;
                        s.arcs[m + x].state = ArcState::Tree;
                        s.attach(root, x);
                        s.refresh_subtree(x);
                        worklist.push((m + x) as u32);
                    }
                    ArcState::Tree => {
                        // Capacity change on a basic arc: the flow stays;
                        // if the new bound cut below it, the dual repair
                        // will reroute the difference.
                        rec.cap = new_cap;
                        rec.cost = a.cost;
                        worklist.push(t);
                    }
                }
            }
            // Route every surplus to the root through the tree: the
            // contributions sum to zero there, and each rewritten tree
            // flow becomes a repair candidate.
            for &v0 in &hot {
                let e = excess[v0];
                if e == 0.0 || v0 == root {
                    continue;
                }
                excess[v0] = 0.0;
                let mut v = v0;
                while v != root {
                    let a = s.nodes[v].pred as usize;
                    if s.arcs[a].tail as usize == v {
                        s.arcs[a].flow += e;
                    } else {
                        s.arcs[a].flow -= e;
                    }
                    worklist.push(a as u32);
                    v = s.nodes[v].parent as usize;
                }
            }
            worklist
        };
        s.adj_enabled = true;
        if s.dual_repair(limit, &mut worklist).is_err() {
            return None;
        }

        if cfg!(debug_assertions) {
            for (i, (rec, a)) in s.arcs.iter().zip(&problem.arcs).enumerate() {
                assert!(
                    rec.tail as usize == a.tail
                        && rec.head as usize == a.head
                        && rec.cost == a.cost
                        && rec.cap == a.upper - a.lower,
                    "arc {i} was patched but not listed in `touched`"
                );
            }
        }

        if s.run(limit, false).is_err() {
            // Includes `Unbounded`: restart and let the from-scratch solve
            // render the authoritative verdict.
            return None;
        }
        let solution = problem.extract(&s, true);
        self.engine = Some(s);
        Some(solution)
    }
}

/// Capacity of this thread's recycled arc buffer — observability hook for
/// the scratch-shrink tests.
#[cfg(test)]
fn scratch_arc_capacity() -> usize {
    SCRATCH.with(|slot| slot.borrow().arcs.capacity())
}

/// Solves a general [`LpProblem`] with the network simplex when it has
/// network structure (see [`MinCostFlowProblem::from_lp`]); otherwise falls
/// back to the sparse revised simplex — the returned
/// [`LpSolution::engine`] records which engine actually ran.
pub fn solve_lp(problem: &LpProblem) -> LpSolution {
    let Some(mcf) = MinCostFlowProblem::from_lp(problem) else {
        return simplex::solve(problem);
    };
    let s = mcf.solve();
    let maximize = problem.sense() == Sense::Maximize;
    let nodes = mcf.num_nodes();
    let arcs = mcf.num_arcs();
    let nonzeros = 2 * arcs;
    LpSolution {
        status: s.status,
        objective: if maximize { -s.objective } else { s.objective },
        variables: s.flows,
        iterations: s.pivots,
        refactorizations: 0,
        engine: SimplexEngine::NetworkSimplex,
        matrix_nonzeros: nonzeros,
        matrix_density: if nodes * arcs == 0 {
            0.0
        } else {
            nonzeros as f64 / (nodes * arcs) as f64
        },
        pivots: s.pivots,
        degenerate_pivots: s.degenerate_pivots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_optimal(p: &MinCostFlowProblem, want: f64) -> McfSolution {
        let s = p.solve();
        assert_eq!(s.status, LpStatus::Optimal, "want optimal, got {s:?}");
        assert!(
            (s.objective - want).abs() < 1e-6,
            "objective {} != {want}",
            s.objective
        );
        assert!(p.is_feasible(&s.flows, 1e-6), "returned flow infeasible");
        assert!((p.flow_cost(&s.flows) - s.objective).abs() < 1e-9);
        s
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let s = MinCostFlowProblem::new(0).solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, 0.0);
        assert_eq!(s.pivots, 0);
    }

    #[test]
    fn single_arc_transportation() {
        let mut p = MinCostFlowProblem::new(2);
        p.set_supply(0, 3.0);
        p.set_supply(1, -3.0);
        p.add_arc(0, 1, 2.0, 5.0);
        let s = assert_optimal(&p, 6.0);
        assert_eq!(s.flows, vec![3.0]);
    }

    #[test]
    fn cheaper_path_is_preferred() {
        // 0 -> 2 directly (cost 5) vs 0 -> 1 -> 2 (cost 1 + 1).
        let mut p = MinCostFlowProblem::new(3);
        p.set_supply(0, 4.0);
        p.set_supply(2, -4.0);
        p.add_arc(0, 2, 5.0, f64::INFINITY);
        p.add_arc(0, 1, 1.0, f64::INFINITY);
        p.add_arc(1, 2, 1.0, f64::INFINITY);
        let s = assert_optimal(&p, 8.0);
        assert_eq!(s.flows, vec![0.0, 4.0, 4.0]);
    }

    #[test]
    fn capacity_forces_a_split() {
        // Cheap path capped at 3, remainder takes the expensive arc.
        let mut p = MinCostFlowProblem::new(3);
        p.set_supply(0, 5.0);
        p.set_supply(2, -5.0);
        p.add_arc(0, 2, 5.0, f64::INFINITY);
        p.add_arc(0, 1, 1.0, 3.0);
        p.add_arc(1, 2, 1.0, f64::INFINITY);
        let s = assert_optimal(&p, 3.0 * 2.0 + 2.0 * 5.0);
        assert_eq!(s.flows, vec![2.0, 3.0, 3.0]);
    }

    #[test]
    fn lower_bounds_are_respected() {
        // The expensive arc must carry at least 2 units.
        let mut p = MinCostFlowProblem::new(2);
        p.set_supply(0, 5.0);
        p.set_supply(1, -5.0);
        p.add_arc_bounded(0, 1, 10.0, 2.0, 10.0);
        p.add_arc(0, 1, 1.0, f64::INFINITY);
        let s = assert_optimal(&p, 2.0 * 10.0 + 3.0);
        assert_eq!(s.flows, vec![2.0, 3.0]);
    }

    #[test]
    fn max_flow_as_min_cost_circulation() {
        // Classic: all supplies 0, return arc sink->source at cost -1;
        // optimal cost = -(max flow). Two disjoint paths of caps 3 and 2.
        let mut p = MinCostFlowProblem::new(4);
        p.add_arc(0, 1, 0.0, 3.0);
        p.add_arc(1, 3, 0.0, 3.0);
        p.add_arc(0, 2, 0.0, 2.0);
        p.add_arc(2, 3, 0.0, 2.0);
        p.add_arc(3, 0, -1.0, 100.0);
        let s = assert_optimal(&p, -5.0);
        assert_eq!(s.flows[4], 5.0);
    }

    #[test]
    fn imbalanced_supplies_are_infeasible() {
        let mut p = MinCostFlowProblem::new(2);
        p.set_supply(0, 3.0);
        p.set_supply(1, -1.0);
        p.add_arc(0, 1, 1.0, 10.0);
        assert_eq!(p.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn insufficient_capacity_is_infeasible() {
        let mut p = MinCostFlowProblem::new(2);
        p.set_supply(0, 3.0);
        p.set_supply(1, -3.0);
        p.add_arc(0, 1, 1.0, 2.0);
        assert_eq!(p.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn negative_uncapacitated_cycle_is_unbounded() {
        let mut p = MinCostFlowProblem::new(2);
        p.add_arc(0, 1, -1.0, f64::INFINITY);
        p.add_arc(1, 0, 0.0, f64::INFINITY);
        assert_eq!(p.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_self_loop_is_unbounded_and_bounded_one_flips() {
        let mut p = MinCostFlowProblem::new(1);
        p.add_arc(0, 0, -1.0, f64::INFINITY);
        assert_eq!(p.solve().status, LpStatus::Unbounded);

        let mut p = MinCostFlowProblem::new(1);
        p.add_arc(0, 0, -1.0, 4.0);
        let s = assert_optimal(&p, -4.0);
        assert_eq!(s.flows, vec![4.0]);
    }

    #[test]
    fn zero_capacity_arcs_are_inert() {
        let mut p = MinCostFlowProblem::new(2);
        p.set_supply(0, 1.0);
        p.set_supply(1, -1.0);
        p.add_arc(0, 1, -100.0, 0.0); // attractive but unusable
        p.add_arc(0, 1, 3.0, 2.0);
        let s = assert_optimal(&p, 3.0);
        assert_eq!(s.flows, vec![0.0, 1.0]);
    }

    #[test]
    fn zero_capacity_arc_at_upper_is_not_priced() {
        // Both nodes hang off the root by cost-0 artificial arcs, so both
        // potentials are 0 and the arc's reduced cost is its cost, 5: at
        // its capacity that would be a violation, but a zero-capacity arc
        // can only enter as a zero-step bound flip.
        let mut p = MinCostFlowProblem::new(2);
        p.add_arc(0, 1, 5.0, 0.0);
        let mut s = NetSimplex::new(&p, &[], true);
        s.warm_start();
        s.arcs[0].state = ArcState::Upper;
        assert!(s.rc(&s.arcs[0]) > EPS);
        assert_eq!(s.price(), None);
        // The same arc with capacity is priced.
        s.arcs[0].cap = 1.0;
        assert_eq!(s.price(), Some(0));
    }

    /// A fixed min-cost circulation of `nodes` nodes and `arcs` random arcs
    /// (self-loops included) with costs in `-10..=10` and capacities in
    /// `1..=9`, drawn from a fixed-seed LCG.
    fn random_circulation(nodes: usize, arcs: usize) -> MinCostFlowProblem {
        let mut state = 0x5eed_2021_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut p = MinCostFlowProblem::new(nodes);
        for _ in 0..arcs {
            let (tail, head) = (next() % nodes, next() % nodes);
            let cost = (next() % 21) as f64 - 10.0;
            let cap = (next() % 9 + 1) as f64;
            p.add_arc(tail, head, cost, cap);
        }
        p
    }

    #[test]
    fn pricing_reads_a_few_sqrt_blocks_per_pivot() {
        // 7,500 arcs with the artificials: √ blocks of 86 arcs. Pricing
        // read 112 arcs per pivot here (11,920 pivots); blocks of
        // `total / 8` read 1,022 (8,709 pivots).
        let mut p = random_circulation(1_500, 6_000);
        let total = p.num_nodes() + p.num_arcs();
        let sqrt = total.isqrt();
        let sol = p.solve();
        assert!(sol.is_optimal());
        assert!(sol.pivots > 1_000, "{} pivots", sol.pivots);
        assert!(
            sol.arcs_priced <= 3 * sqrt * sol.pivots,
            "{} arcs priced in {} pivots, over 3·√{total} per pivot",
            sol.arcs_priced,
            sol.pivots
        );

        // A session prices through the same scan and counts per solve: its
        // first solve is the cold one, and an incremental solve reads at
        // least the full wrap that proves optimality.
        let mut session = NetflowSession::new();
        let first = session.solve(&p, &[]);
        assert_eq!(
            (first.pivots, first.arcs_priced),
            (sol.pivots, sol.arcs_priced)
        );
        p.set_capacity(0, 50.0);
        let warm = session.solve(&p, &[0]);
        assert!(warm.basis_reused);
        assert!(warm.arcs_priced >= total && warm.arcs_priced < sol.arcs_priced);
    }

    #[test]
    fn degenerate_pivots_are_counted_not_looped() {
        // A diamond where every arc has the same capacity as the demand:
        // plenty of ties, still terminates (strongly feasible trees).
        let mut p = MinCostFlowProblem::new(4);
        p.set_supply(0, 2.0);
        p.set_supply(3, -2.0);
        p.add_arc(0, 1, 1.0, 2.0);
        p.add_arc(0, 2, 1.0, 2.0);
        p.add_arc(1, 3, 1.0, 2.0);
        p.add_arc(2, 3, 1.0, 2.0);
        p.add_arc(1, 2, 0.0, 2.0);
        let s = assert_optimal(&p, 4.0);
        assert!(s.pivots >= 1);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut p = MinCostFlowProblem::new(3);
        p.set_supply(0, 4.0);
        p.set_supply(2, -4.0);
        p.add_arc(0, 1, 1.0, 10.0);
        p.add_arc(1, 2, 1.0, 10.0);
        p.max_iterations = 1;
        assert_eq!(p.solve().status, LpStatus::IterationLimit);
    }

    #[test]
    fn to_lp_round_trips_through_from_lp() {
        let mut p = MinCostFlowProblem::new(3);
        p.set_supply(0, 4.0);
        p.set_supply(2, -4.0);
        p.add_arc(0, 1, 1.0, 3.0);
        p.add_arc(1, 2, 2.0, f64::INFINITY);
        p.add_arc(0, 2, 4.0, f64::INFINITY);
        let (lp, offset) = p.to_lp();
        assert_eq!(offset, 0.0);
        let back = MinCostFlowProblem::from_lp(&lp).expect("network structure survives");
        assert_eq!(back.num_nodes(), 3);
        assert_eq!(back.num_arcs(), 3);
        let direct = p.solve();
        let round = back.solve();
        assert!((direct.objective - round.objective).abs() < 1e-9);
        // And the LpProblem agrees with the network simplex.
        let lp_sol = lp.solve();
        assert_eq!(lp_sol.status, LpStatus::Optimal);
        assert!((lp_sol.objective + offset - direct.objective).abs() < 1e-6);
    }

    #[test]
    fn to_lp_carries_lower_bound_offsets() {
        let mut p = MinCostFlowProblem::new(2);
        p.set_supply(0, 5.0);
        p.set_supply(1, -5.0);
        p.add_arc_bounded(0, 1, 10.0, 2.0, 10.0);
        p.add_arc(0, 1, 1.0, f64::INFINITY);
        let (lp, offset) = p.to_lp();
        assert_eq!(offset, 20.0);
        let lp_sol = lp.solve();
        assert_eq!(lp_sol.status, LpStatus::Optimal);
        let direct = p.solve();
        assert!((lp_sol.objective + offset - direct.objective).abs() < 1e-6);
    }

    #[test]
    fn from_lp_rejects_non_network_programs() {
        // An inequality row.
        let mut lp = LpProblem::new(1);
        lp.add_le_constraint(&[(0, 1.0)], 1.0);
        assert!(MinCostFlowProblem::from_lp(&lp).is_none());
        // A variable in three rows.
        let mut lp = LpProblem::new(1);
        lp.add_eq_constraint(&[(0, 1.0)], 0.0);
        lp.add_eq_constraint(&[(0, -1.0)], 0.0);
        lp.add_eq_constraint(&[(0, 1.0)], 0.0);
        assert!(MinCostFlowProblem::from_lp(&lp).is_none());
        // A non-unit coefficient.
        let mut lp = LpProblem::new(1);
        lp.add_eq_constraint(&[(0, 2.0)], 0.0);
        assert!(MinCostFlowProblem::from_lp(&lp).is_none());
        // A variable that touches no row.
        let mut lp = LpProblem::new(1);
        lp.add_eq_constraint(&[], 0.0);
        assert!(MinCostFlowProblem::from_lp(&lp).is_none());
    }

    #[test]
    fn solve_lp_runs_the_network_engine_on_network_programs() {
        let mut p = MinCostFlowProblem::new(3);
        p.set_supply(0, 4.0);
        p.set_supply(2, -4.0);
        p.add_arc(0, 1, 1.0, 3.0);
        p.add_arc(1, 2, 2.0, f64::INFINITY);
        p.add_arc(0, 2, 4.0, f64::INFINITY);
        let (lp, _) = p.to_lp();
        let sol = solve_lp(&lp);
        assert_eq!(sol.engine, SimplexEngine::NetworkSimplex);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(lp.is_feasible(&sol.variables, 1e-6));
        // Non-network programs fall back to the sparse revised engine.
        let mut general = LpProblem::new(1);
        general.set_objective_coefficient(0, 1.0);
        general.add_le_constraint(&[(0, 1.0)], 2.0);
        let sol = solve_lp(&general);
        assert_eq!(sol.engine, SimplexEngine::SparseRevised);
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "lower <= upper")]
    fn empty_bound_band_panics() {
        let mut p = MinCostFlowProblem::new(2);
        p.add_arc_bounded(0, 1, 0.0, 3.0, 1.0);
    }

    /// A small max-flow circulation (the shape the streaming pipeline
    /// re-solves every batch): 4 nodes, 2 disjoint source→sink paths plus
    /// the cost −1 return arc.
    fn circulation() -> MinCostFlowProblem {
        let mut p = MinCostFlowProblem::new(4);
        p.add_arc(0, 1, 0.0, 3.0);
        p.add_arc(1, 3, 0.0, 3.0);
        p.add_arc(0, 2, 0.0, 2.0);
        p.add_arc(2, 3, 0.0, 2.0);
        p.add_arc(3, 0, -1.0, 100.0);
        p
    }

    fn assert_warm_matches_cold(p: &MinCostFlowProblem, warm: &McfSolution) {
        let cold = p.solve();
        assert_eq!(warm.status, cold.status, "warm/cold status disagree");
        if cold.status == LpStatus::Optimal {
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "warm objective {} != cold {}",
                warm.objective,
                cold.objective
            );
            assert!(p.is_feasible(&warm.flows, 1e-6), "warm flow infeasible");
        }
    }

    #[test]
    fn resident_session_matches_cold_through_patches() {
        let mut p = circulation();
        let mut session = NetflowSession::new();
        let first = session.solve(&p, &[]);
        assert!(first.is_optimal() && !first.basis_reused && !first.fallback_cold);
        assert_warm_matches_cold(&p, &first);
        assert!(session.is_resident());

        // Capacity raise on the bottleneck.
        p.set_capacity(1, 5.0);
        let warm = session.solve(&p, &[1]);
        assert!(warm.is_optimal() && warm.basis_reused);
        assert_warm_matches_cold(&p, &warm);

        // Expiry-shaped shrink: tombstone a flow-carrying arc.
        p.set_capacity(0, 0.0);
        let warm = session.solve(&p, &[0]);
        assert!(warm.basis_reused, "shrink should repair in place");
        assert_warm_matches_cold(&p, &warm);

        // Growth: a new node spliced into the network with fresh arcs.
        let v = p.add_node();
        p.add_arc(0, v, 0.5, 4.0);
        p.add_arc(v, 3, 0.5, 4.0);
        let warm = session.solve(&p, &[]);
        assert!(warm.basis_reused);
        assert_warm_matches_cold(&p, &warm);

        // Retarget (possibly a tree arc) plus another capacity touch.
        p.retarget(2, 0, v);
        p.set_capacity(3, 1.0);
        let warm = session.solve(&p, &[2, 3]);
        assert!(warm.basis_reused);
        assert_warm_matches_cold(&p, &warm);
    }

    #[test]
    fn resident_session_reseeds_after_recosting_a_tree_arc() {
        let p = circulation();
        let mut session = NetflowSession::new();
        assert_warm_matches_cold(&p, &session.solve(&p, &[]));
        // The return arc carries 5 of its 100 units, strictly inside its
        // bounds, so it is basic.
        let engine = session.engine.as_ref().expect("resident");
        assert_eq!(engine.arcs[4].state, ArcState::Tree);

        // Re-cost it and, in the same batch, cut it below its flow: the
        // re-cost rebuilds the tree and the cut leaves a tree arc out of
        // bounds for the dual repair.
        let mut q = MinCostFlowProblem::new(p.num_nodes());
        for a in &p.arcs()[..4] {
            q.add_arc(a.tail, a.head, a.cost, a.upper);
        }
        q.add_arc(3, 0, -2.0, 4.0);
        let warm = session.solve(&q, &[4]);
        assert!(warm.basis_reused && !warm.fallback_cold);
        assert!((warm.objective - (-8.0)).abs() < 1e-9);
        assert_warm_matches_cold(&q, &warm);
    }

    #[test]
    fn resident_session_is_pivot_free_on_unchanged_problem() {
        let p = circulation();
        let mut session = NetflowSession::new();
        session.solve(&p, &[]);
        let again = session.solve(&p, &[]);
        assert!(again.basis_reused);
        assert_eq!(again.pivots, 0, "unchanged problem should need no pivots");
    }

    #[test]
    fn resident_session_restarts_on_shrunk_problem() {
        let big = circulation();
        let mut session = NetflowSession::new();
        session.solve(&big, &[]);
        let mut small = MinCostFlowProblem::new(2);
        small.add_arc(0, 1, -1.0, 2.0);
        small.add_arc(1, 0, 0.0, 2.0);
        let sol = session.solve(&small, &[]);
        assert!(sol.is_optimal());
        assert!(sol.fallback_cold, "fewer arcs must force a restart");
        assert!(!sol.basis_reused);
        assert_warm_matches_cold(&small, &sol);
        assert!(session.is_resident(), "the restart state stays resident");
    }

    #[test]
    fn resident_session_solves_non_circulations_cold() {
        let mut p = MinCostFlowProblem::new(2);
        p.set_supply(0, 3.0);
        p.set_supply(1, -3.0);
        p.add_arc(0, 1, 1.0, 5.0);
        let mut session = NetflowSession::new();
        let sol = session.solve(&p, &[]);
        assert!(sol.is_optimal());
        assert!((sol.objective - 3.0).abs() < 1e-9);
        assert!(
            !session.is_resident(),
            "supply/demand problems stay outside the resident shape"
        );
    }

    #[test]
    fn resident_session_tracks_a_growing_then_expiring_stream() {
        // A longer randomized churn: interleave growth, shrink, retargets
        // and re-solves, checking the exact optimum against cold each step.
        let mut p = MinCostFlowProblem::new(3);
        p.add_arc(0, 1, 1.0, 4.0);
        p.add_arc(1, 2, 1.0, 4.0);
        p.add_arc(2, 0, -3.0, 50.0);
        let mut session = NetflowSession::new();
        assert_warm_matches_cold(&p, &session.solve(&p, &[]));
        let mut state = 0xabcd_1234_u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for step in 0..60 {
            let mut touched = Vec::new();
            let n = p.num_nodes();
            let m = p.num_arcs();
            match step % 4 {
                0 => {
                    let v = p.add_node();
                    let (a, b) = ((rng() * n as f64) as usize % n, v);
                    p.add_arc(a, b, rng() * 2.0 - 0.5, rng() * 5.0);
                    p.add_arc(b, (a + 1) % n, rng() * 2.0 - 0.5, rng() * 5.0);
                }
                1 => {
                    let a = (rng() * m as f64) as usize % m;
                    p.set_capacity(a, if rng() < 0.4 { 0.0 } else { rng() * 6.0 });
                    touched.push(a as u32);
                }
                2 => {
                    let a = (rng() * m as f64) as usize % m;
                    let t = (rng() * n as f64) as usize % n;
                    let h = (rng() * n as f64) as usize % n;
                    if t != h {
                        p.retarget(a, t, h);
                        touched.push(a as u32);
                    }
                }
                _ => {
                    let a = (rng() * m as f64) as usize % m;
                    p.set_capacity(a, rng() * 8.0);
                    touched.push(a as u32);
                }
            }
            let warm = session.solve(&p, &touched);
            assert_warm_matches_cold(&p, &warm);
        }
    }

    #[test]
    fn scratch_buffers_shrink_after_oversized_solves() {
        // Solve one big instance (a long path), then a tiny one: the
        // recycled arc buffer must give up its high-water capacity instead
        // of pinning it forever (the 4× rule in `stash`).
        let nodes = 20_000;
        let mut big = MinCostFlowProblem::new(nodes);
        for v in 0..nodes - 1 {
            big.add_arc(v, v + 1, 1.0, 10.0);
        }
        big.add_arc(nodes - 1, 0, -5.0, 3.0);
        assert_eq!(big.solve().status, LpStatus::Optimal);
        assert!(scratch_arc_capacity() >= 2 * nodes - 1);

        let tiny = circulation();
        assert_eq!(tiny.solve().status, LpStatus::Optimal);
        let need = tiny.num_arcs() + tiny.num_nodes();
        assert!(
            scratch_arc_capacity() <= 4 * need,
            "scratch arc capacity {} still above 4 × {need}",
            scratch_arc_capacity()
        );
    }
}
