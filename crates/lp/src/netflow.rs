//! Network simplex for min-cost circulations.
//!
//! The class C flow LPs are pure min-cost-flow problems on a time-expanded
//! network, so they do not need a general simplex at all: a basis of a
//! min-cost-flow problem is a spanning tree of the network, and a pivot is
//! a walk around the single cycle the entering arc closes — O(tree depth)
//! work with no basis factorization, no eta file and no refactorization.
//! Every such problem is a circulation (no node supplies, every flow
//! between zero and its arc's capacity), so the zero flow is feasible and
//! the simplex needs no phase 1.
//!
//! This module provides:
//!
//! * [`MinCostFlowProblem`] — a min-cost circulation: arcs with a cost and
//!   a capacity over a node count;
//! * a **network simplex** ([`MinCostFlowProblem::solve`]) over an explicit
//!   spanning-tree basis: parent/depth arrays plus a child/sibling thread
//!   for subtree traversal, a start tree of real arcs built by reverse BFS
//!   and anchored to an artificial root, pricing from a FIFO queue of
//!   candidate arcs (seeded by one scan of the arcs, then fed after each
//!   pivot with the violating arcs incident to the subtree it re-hung, so
//!   an empty queue proves optimality; arcs of zero capacity are never
//!   priced, at either bound), and the *strongly feasible tree*
//!   leaving-arc rule (last blocking arc from the apex) that prevents
//!   cycling under degeneracy;
//! * [`Circulation`] — a circulation written arc by arc straight into the
//!   simplex's arrays and solved once, cold, through the same start as
//!   [`MinCostFlowProblem::solve`], for callers that read only a flow or
//!   two;
//! * [`NetflowSession`] — the same engine kept resident across a stream of
//!   solves of one evolving circulation, syncing only the patched arcs and
//!   repairing the kept tree with worst-first dual pivots, within a work
//!   budget ([`DUAL_REPAIR_BUDGET`]) past which it solves from scratch;
//! * [`MinCostFlowProblem::to_lp`] — a lossless bridge to the
//!   [`LpProblem`] form (whose optimum is minus the minimum cost), used by
//!   the engine-equivalence proptests.
//!
//! A solve ends optimal, unbounded (the entering arc closes a negative-cost
//! cycle with unlimited residual capacity) or at the pivot limit; with the
//! zero flow feasible, no circulation is infeasible.

use crate::problem::LpProblem;
use crate::solution::LpStatus;
use std::collections::VecDeque;

/// Reduced-cost / residual tolerance (same scale as the LP engines).
const EPS: f64 = 1e-9;
/// How far outside its bounds a tree arc's flow may sit before the dual
/// repair pivots it out.
const FEAS_EPS: f64 = 1e-6;
/// Null link in the solver's u32-indexed tree/arc records.
const NIL: u32 = u32::MAX;

/// One directed arc of a min-cost circulation.
#[derive(Debug, Clone, Copy)]
pub struct McfArc {
    /// Node the arc leaves.
    pub tail: usize,
    /// Node the arc enters.
    pub head: usize,
    /// The arc's capacity, the most flow it may carry (`≥ 0`, `+∞` for
    /// uncapacitated arcs); the least is 0.
    pub upper: f64,
    /// Cost per unit of flow.
    pub cost: f64,
}

/// A min-cost circulation: find arc flows `0 ≤ xᵃ ≤ uᵃ` that conserve flow
/// at every node (`Σ out(v) = Σ in(v)`) while minimizing `Σ costᵃ · xᵃ`.
///
/// A negative-cost arc is what draws flow: a capped `t → s` return arc of
/// cost `−c` stands in for a supply of its capacity at `s` and a demand of
/// it at `t`, routed at up to `c` per unit. A return arc of cost −1 and
/// unlimited capacity makes the minimum cost minus the maximum `s → t`
/// flow, which is how the flow pipeline uses it.
#[derive(Debug, Clone)]
pub struct MinCostFlowProblem {
    nodes: usize,
    arcs: Vec<McfArc>,
    /// Maximum network-simplex pivots before giving up (0 = automatic,
    /// scaled with problem size, as the LP solvers' limit always is).
    pub max_iterations: usize,
}

/// Result of a network-simplex run, with the same telemetry shape as
/// [`LpSolution`](crate::LpSolution): pivot and degenerate-pivot counts.
#[derive(Debug, Clone)]
pub struct McfSolution {
    /// Termination status: [`LpStatus::Optimal`],
    /// [`LpStatus::Unbounded`] or [`LpStatus::IterationLimit`]. A
    /// circulation is never infeasible (the zero flow is feasible), and
    /// there is no factorized basis to go singular.
    pub status: LpStatus,
    /// Total cost `Σ costᵃ · xᵃ` (0 unless optimal).
    pub objective: f64,
    /// Per-arc flows (empty unless optimal).
    pub flows: Vec<f64>,
    /// Basis-changing or bound-flipping pivots performed.
    pub pivots: usize,
    /// Pivots whose step length was (numerically) zero.
    pub degenerate_pivots: usize,
    /// Arcs primal pricing read: the seed scan of a cold start, the arcs
    /// incident to every node whose potential a pivot or the sync rewrote,
    /// the arcs a session solve seeds, and every arc taken from the
    /// candidate queue. A deterministic measure of pricing work.
    pub arcs_priced: usize,
    /// Work a [`NetflowSession`]'s dual repair did on this solve, in the
    /// unit of [`DUAL_REPAIR_BUDGET`]: two per node of every cut a dual
    /// pivot marked (marked, then cleared) plus every arc its entering-arc
    /// search read. When the solve fell back, this is the abandoned
    /// attempt's work; 0 for a solve that ran no repair.
    pub repair_work: usize,
    /// Pivots of the incremental attempt a fallback abandoned; they are
    /// not in [`McfSolution::pivots`], which counts the restart's.
    pub abandoned_pivots: usize,
    /// Whether a [`NetflowSession`] answered this solve from its resident
    /// tree. `false` for [`MinCostFlowProblem::solve`], for a session's
    /// first solve, and for a session solve that restarted from scratch.
    pub basis_reused: bool,
    /// Whether a [`NetflowSession`] had resident state but could not reuse
    /// it and restarted from scratch: the problem shrank, a tree arc was
    /// re-costed, the dual repair ran over its work budget
    /// ([`McfSolution::budget_restart`]) or stalled, or the warm pivots hit
    /// the pivot limit or an unbounded verdict (which the restart then
    /// renders authoritatively).
    pub fallback_cold: bool,
    /// Whether the fallback was the dual repair running over
    /// [`DUAL_REPAIR_BUDGET`]`·(m + n)` units of work.
    pub budget_restart: bool,
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
            repair_work: 0,
            abandoned_pivots: 0,
            basis_reused: false,
            fallback_cold: false,
            budget_restart: false,
        }
    }

    /// Whether the solver proved optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }
}

impl MinCostFlowProblem {
    /// Creates a circulation over `num_nodes` nodes with no arcs.
    pub fn new(num_nodes: usize) -> Self {
        MinCostFlowProblem {
            nodes: num_nodes,
            arcs: Vec::new(),
            max_iterations: 0,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes
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

    /// Adds the arc `tail → head` with cost `cost` per unit and capacity
    /// `capacity`; returns its index.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, `cost` is not finite, or
    /// `capacity` is negative or NaN.
    pub fn add_arc(&mut self, tail: usize, head: usize, cost: f64, capacity: f64) -> usize {
        assert!(tail < self.nodes, "arc tail {tail} out of range");
        assert!(head < self.nodes, "arc head {head} out of range");
        assert!(cost.is_finite(), "arc cost must be finite, got {cost}");
        assert_capacity(capacity);
        self.arcs.push(McfArc {
            tail,
            head,
            upper: capacity,
            cost,
        });
        self.arcs.len() - 1
    }

    /// The arcs in insertion order.
    pub fn arcs(&self) -> &[McfArc] {
        &self.arcs
    }

    /// Appends a node; returns its index. Used by streaming emitters that
    /// grow a problem in place (new vertex copies of the time-expanded
    /// network) — existing arc indices are unaffected.
    pub fn add_node(&mut self) -> usize {
        self.nodes += 1;
        self.nodes - 1
    }

    /// Changes the capacity of an existing arc in place. Setting it to 0
    /// tombstones the arc: it can never carry flow again but keeps its
    /// index, which is what lets streaming callers patch a problem without
    /// renumbering.
    ///
    /// # Panics
    /// Panics if `arc` is out of range or `capacity` is negative or NaN.
    pub fn set_capacity(&mut self, arc: usize, capacity: f64) {
        assert_capacity(capacity);
        self.arcs[arc].upper = capacity;
    }

    /// Moves an existing arc to new endpoints in place (same cost and
    /// capacity). Streaming emitters use this when a patched network
    /// inserts a node "between" an arc's old tail and its timestamp.
    ///
    /// # Panics
    /// Panics if `arc` or an endpoint is out of range.
    pub fn retarget(&mut self, arc: usize, tail: usize, head: usize) {
        assert!(tail < self.nodes, "arc tail {tail} out of range");
        assert!(head < self.nodes, "arc head {head} out of range");
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
        let mut balance = vec![0.0; self.nodes];
        for (a, &x) in self.arcs.iter().zip(flows) {
            if x.is_nan() || x < -tol || x > a.upper + tol {
                return false;
            }
            balance[a.tail] += x;
            balance[a.head] -= x;
        }
        balance.iter().all(|&b| b.abs() <= tol)
    }

    /// Rewrites the circulation as an [`LpProblem`]: one variable per arc
    /// bounded by its capacity, objective `−cost`, and one row
    /// `Σ out − Σ in ≤ 0` per node. The rows sum to zero, so each holds with
    /// equality at every feasible point, and the LP's optimum is minus the
    /// circulation's minimum cost.
    pub fn to_lp(&self) -> LpProblem {
        let mut lp = LpProblem::new(self.arcs.len());
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.nodes];
        for (j, a) in self.arcs.iter().enumerate() {
            lp.set_objective_coefficient(j, -a.cost);
            if a.upper.is_finite() {
                lp.set_upper_bound(j, a.upper);
            }
            rows[a.tail].push((j, 1.0));
            rows[a.head].push((j, -1.0));
        }
        for coeffs in &rows {
            lp.add_le_constraint(coeffs, 0.0);
        }
        lp
    }

    /// The pivot budget for one solve: the explicit cap when set, else
    /// [`default_pivot_limit`].
    fn pivot_limit(&self) -> usize {
        if self.max_iterations > 0 {
            self.max_iterations
        } else {
            default_pivot_limit(self.nodes, self.arcs.len())
        }
    }

    /// Copies the arcs into a freshly opened simplex, ready for
    /// [`NetSimplex::solve_circulation`].
    fn circulation(&self) -> NetSimplex {
        let mut s = NetSimplex::open(self.nodes, self.arcs.len());
        for a in &self.arcs {
            s.push_arc(a.tail, a.head, a.cost, a.upper);
        }
        s
    }

    /// Solves the circulation with the network simplex from scratch.
    pub fn solve(&self) -> McfSolution {
        if self.nodes == 0 {
            return McfSolution::with_status(LpStatus::Optimal);
        }
        let mut s = self.circulation();
        if let Err(status) = s.solve_circulation(self.pivot_limit()) {
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
            .map(|(a, rec)| rec.flow.clamp(0.0, a.upper))
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

/// Panics unless `capacity` is a valid arc capacity: `≥ 0`, possibly `+∞`.
fn assert_capacity(capacity: f64) {
    assert!(capacity >= 0.0, "arc capacity must be >= 0, got {capacity}");
}

/// The pivot budget of a solve that sets no cap of its own: a generous
/// multiple of the network's size.
fn default_pivot_limit(nodes: usize, arcs: usize) -> usize {
    200 * (nodes + arcs) + 2_000
}

/// A circulation written arc by arc straight into the network simplex's
/// recycled arrays, then solved once from scratch.
///
/// It is for a caller that emits a problem only to solve it and read a flow
/// or two: no [`MinCostFlowProblem`] is built and copied, and no per-arc
/// flow vector or objective is computed. The solve is the one a
/// [`MinCostFlowProblem::solve`] of the same arcs runs, pivot for pivot,
/// with the default pivot budget.
///
/// ```
/// use tin_lp::{Circulation, LpStatus};
///
/// // Two parallel paths 0 → 1 of capacities 2 and 3, closed by a return
/// // arc that earns 1 per unit: the circulation is the maximum flow.
/// let mut c = Circulation::new(2, 3);
/// c.add_arc(0, 1, 0.0, 2.0);
/// c.add_arc(0, 1, 0.0, 3.0);
/// let back = c.add_arc(1, 0, -1.0, f64::INFINITY);
/// assert_eq!(c.solve(), LpStatus::Optimal);
/// assert_eq!(c.flow(back), 5.0);
/// ```
pub struct Circulation {
    s: NetSimplex,
    solved: bool,
}

impl Circulation {
    /// Opens an empty circulation over `nodes` nodes with room for `arcs`
    /// arcs.
    pub fn new(nodes: usize, arcs: usize) -> Self {
        Circulation {
            s: NetSimplex::open(nodes, arcs),
            solved: false,
        }
    }

    /// Appends the arc `tail → head` with capacity `capacity` and cost
    /// `cost` per unit; returns its index. Debug builds check the arguments
    /// as [`MinCostFlowProblem::add_arc`] does.
    pub fn add_arc(&mut self, tail: usize, head: usize, cost: f64, capacity: f64) -> usize {
        debug_assert!(!self.solved, "arc added after the solve");
        debug_assert!(
            tail < self.s.n && head < self.s.n,
            "arc endpoint out of range"
        );
        debug_assert!(cost.is_finite(), "arc cost must be finite, got {cost}");
        debug_assert!(capacity >= 0.0, "arc capacity must be >= 0, got {capacity}");
        self.s.push_arc(tail, head, cost, capacity)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.s.n
    }

    /// Number of arcs added so far.
    pub fn num_arcs(&self) -> usize {
        if self.solved {
            self.s.m
        } else {
            self.s.arcs.len()
        }
    }

    /// Solves the circulation from scratch and returns the status.
    ///
    /// # Panics
    /// Panics if called a second time.
    pub fn solve(&mut self) -> LpStatus {
        assert!(!self.solved, "a circulation is solved once");
        self.solved = true;
        let limit = default_pivot_limit(self.s.n, self.s.arcs.len());
        match self.s.solve_circulation(limit) {
            Ok(()) => LpStatus::Optimal,
            Err(status) => status,
        }
    }

    /// The flow on `arc` after an optimal [`Circulation::solve`], read as
    /// [`McfSolution::flows`] reads it.
    pub fn flow(&self, arc: usize) -> f64 {
        let rec = &self.s.arcs[arc];
        rec.flow.clamp(0.0, rec.cap)
    }

    /// Basis-changing or bound-flipping pivots the solve performed.
    pub fn pivots(&self) -> usize {
        self.s.pivots
    }

    /// Pivots whose step length was (numerically) zero.
    pub fn degenerate_pivots(&self) -> usize {
        self.s.degenerate
    }
}

/// Where an arc currently rests. The discriminant is the sign pricing
/// multiplies the reduced cost by: an arc at its lower bound violates
/// optimality when its reduced cost is negative, one at its capacity when
/// it is positive, and a tree arc never.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(i8)]
enum ArcState {
    /// Nonbasic at its lower bound 0.
    Lower = -1,
    /// In the spanning-tree basis.
    Tree = 0,
    /// Nonbasic at its capacity.
    Upper = 1,
}

/// One arc of the expanded network, all attributes together: pricing reads
/// the state, capacity, cost and both endpoints of each arc it checks, and
/// the cycle walks read several fields of the same arc, so one 40-byte
/// record beats six scattered parallel-vector loads — and a one-shot solve
/// on a small instance is dominated by allocation and first-touch cost,
/// which two backing arrays keep minimal.
#[derive(Debug, Clone, Copy)]
struct ArcRec {
    tail: u32,
    head: u32,
    state: ArcState,
    /// Whether the arc waits in the pricing queue. It sits in the padding
    /// after `state`, so the record stays 40 bytes and the flag costs no
    /// buffer of its own.
    queued: bool,
    cap: f64,
    cost: f64,
    flow: f64,
}

impl ArcRec {
    /// An arc resting nonbasic at its lower bound 0, not queued.
    fn at_lower(tail: usize, head: usize, cost: f64, cap: f64) -> Self {
        ArcRec {
            tail: tail as u32,
            head: head as u32,
            state: ArcState::Lower,
            queued: false,
            cap,
            cost,
            flow: 0.0,
        }
    }
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
/// [`NetSimplex::open`] takes the buffers out of the slot and its `Drop`
/// puts them back, whatever path `solve` exits through.
#[derive(Default)]
struct Scratch {
    arcs: Vec<ArcRec>,
    nodes: Vec<NodeRec>,
    path_from: Vec<(usize, usize, bool)>,
    path_to: Vec<(usize, usize, bool)>,
    chain: Vec<usize>,
    stack: Vec<usize>,
    marks: Vec<bool>,
    adj: Vec<u32>,
    adj_start: Vec<u32>,
    queue: Vec<u32>,
    refreshed: Vec<u32>,
}

/// Returns a recycled buffer to its scratch slot, first dropping excess
/// capacity: a long-running stream solves problems of wildly varying size
/// on the same thread, and without a cap every buffer would pin its
/// high-water allocation forever. Anything beyond 4× what the *current*
/// problem needs (`need` elements) is given back to the allocator. The
/// flow pipeline's own recycled buffers follow the same rule.
pub fn stash<T>(slot: &mut Vec<T>, mut buf: Vec<T>, need: usize) {
    if buf.capacity() > 4 * need.max(1) {
        buf.truncate(need);
        buf.shrink_to(need);
    }
    *slot = buf;
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

/// Makes room in the emptied buffer `buf` for a walk of `len` tree nodes.
/// When it must grow, it grows at once to the `n + 1` nodes any walk can
/// take: a recycled buffer that a smaller solve shrank then grows once per
/// solve, not by doublings as the tree deepens.
fn make_room<T>(buf: &mut Vec<T>, len: u32, n: usize) {
    if buf.capacity() < len as usize {
        buf.reserve(n + 1);
    }
}

/// Work budget of a [`NetflowSession`]'s dual repair per node and arc of
/// the patched problem. Once a repair's work ([`McfSolution::repair_work`])
/// exceeds `DUAL_REPAIR_BUDGET · (m + n)`, the session abandons the warm
/// start before the next dual pivot and solves from scratch: the
/// rent-or-buy rule of Karlin et al., "Competitive Snoopy Caching" (1988),
/// with a cold solve as the purchase. One pivot does at most `m + 2n`
/// work, so an abandoned repair does at most the budget plus that.
/// DESIGN.md has the measurements behind the value.
pub const DUAL_REPAIR_BUDGET: usize = 4;

/// The spanning-tree basis and pivot machinery. Nodes `0..n` are real, node
/// `n` is the artificial root; arcs `0..m` are real, arc `m + v` is node
/// `v`'s artificial arc.
struct NetSimplex {
    n: usize,
    m: usize,
    arcs: Vec<ArcRec>,
    nodes: Vec<NodeRec>,
    // Pricing. `queue` holds candidate entering arcs in FIFO order, each
    // at most once (`ArcRec::queued`); `refreshed` the nodes whose
    // potentials changed since the last `flush`, at most `n` of them;
    // `rescan` that the next flush scans every real arc instead (a cold
    // start, or more refreshes than `refreshed` holds). The invariant:
    // every nonbasic arc of capacity above `EPS` that violates optimality
    // is queued or incident to a node in `refreshed`, or `rescan` is set.
    queue: VecDeque<u32>,
    refreshed: Vec<u32>,
    rescan: bool,
    // Telemetry. `repair_work` is the dual repair's budgeted count (only a
    // session's incremental path runs dual pivots).
    pivots: usize,
    degenerate: usize,
    arcs_priced: usize,
    repair_work: usize,
    // Reusable pivot scratch: the two tree paths to the apex
    // (node, pred arc, arc aligned with the cycle orientation), a dual
    // pivot's cut, and the traversal stack.
    path_from: Vec<(usize, usize, bool)>,
    path_to: Vec<(usize, usize, bool)>,
    chain: Vec<usize>,
    stack: Vec<usize>,
    // Subtree membership flags for the dual pivots (all `false` between
    // uses; cleared through the visited list, never by a full sweep).
    marks: Vec<bool>,
    // Real-arc incidence CSR (`adj_start[v]..adj_start[v+1]` indexes into
    // `adj`, in arc id order): the cold start's reverse BFS walks it, a
    // flush reads the refreshed nodes' arcs from it, and a dual pivot
    // scans a small cut subtree's arcs in it instead of the whole arc
    // array. Valid only while `adj_valid` — any endpoint edit or
    // structural growth clears it, and the next reader rebuilds it.
    adj: Vec<u32>,
    adj_start: Vec<u32>,
    adj_valid: bool,
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
            stash(&mut sc.stack, std::mem::take(&mut self.stack), n + 1);
            stash(&mut sc.marks, std::mem::take(&mut self.marks), n + 1);
            stash(&mut sc.adj, std::mem::take(&mut self.adj), 2 * m);
            stash(
                &mut sc.adj_start,
                std::mem::take(&mut self.adj_start),
                n + 2,
            );
            // Emptied first, the deque turns back into a `Vec` in place.
            let mut queue = std::mem::take(&mut self.queue);
            queue.clear();
            stash(&mut sc.queue, queue.into(), m);
            stash(&mut sc.refreshed, std::mem::take(&mut self.refreshed), n);
        });
    }
}

impl NetSimplex {
    /// Takes the recycled buffers for a network of `n` real nodes with room
    /// for `arcs` real arcs. The real arcs come next, through
    /// [`NetSimplex::push_arc`]; [`NetSimplex::solve_circulation`] then
    /// appends the artificial ones.
    fn open(n: usize, arcs: usize) -> Self {
        assert!(n < NIL as usize, "network too large for u32 indexing");
        let mut sc = SCRATCH.with(|slot| slot.take());
        sc.arcs.clear();
        sc.arcs.reserve(arcs + n);
        sc.nodes.clear();
        sc.nodes.resize(n + 1, NODE_INIT);
        sc.refreshed.clear();
        NetSimplex {
            n,
            m: 0,
            arcs: sc.arcs,
            nodes: sc.nodes,
            queue: sc.queue.into(),
            refreshed: sc.refreshed,
            rescan: false,
            pivots: 0,
            degenerate: 0,
            arcs_priced: 0,
            repair_work: 0,
            path_from: sc.path_from,
            path_to: sc.path_to,
            chain: sc.chain,
            stack: sc.stack,
            marks: sc.marks,
            adj: sc.adj,
            adj_start: sc.adj_start,
            adj_valid: false,
        }
    }

    /// Appends a real arc, nonbasic at its lower bound 0; returns its index.
    fn push_arc(&mut self, tail: usize, head: usize, cost: f64, cap: f64) -> usize {
        self.arcs.push(ArcRec::at_lower(tail, head, cost, cap));
        self.arcs.len() - 1
    }

    /// The cold solve, which every from-scratch solve goes through:
    /// [`MinCostFlowProblem::solve`], a restarting [`NetflowSession`] and
    /// [`Circulation::solve`]. It ends the real arcs (fixing `m`) and
    /// appends the artificial arcs, empty and capacity-pinned, since the
    /// zero flow is feasible; [`NetSimplex::warm_start`] builds the basis
    /// from real arcs, and the primal pivots run from there.
    fn solve_circulation(&mut self, limit: usize) -> Result<(), LpStatus> {
        self.m = self.arcs.len();
        assert!(
            self.m + self.n < NIL as usize,
            "network too large for u32 indexing"
        );
        let root = self.n;
        for v in 0..self.n {
            self.arcs.push(ArcRec::at_lower(v, root, 0.0, 0.0));
        }
        self.queue.reserve(self.m);
        self.refreshed.reserve(self.n);
        self.warm_start();
        self.run(limit)
    }

    fn rc(&self, a: &ArcRec) -> f64 {
        a.cost + self.nodes[a.tail as usize].pot - self.nodes[a.head as usize].pot
    }

    /// How far `a` violates optimality: its reduced cost times the sign its
    /// [`ArcState`] discriminant carries, or 0 when its capacity is at most
    /// `EPS`. An arc that can never carry flow is exempt at either bound,
    /// since entering it could only be a zero-step bound flip. A tree arc
    /// and the zero-capacity artificial arcs never violate.
    fn violation(&self, a: &ArcRec) -> f64 {
        if a.cap > EPS {
            f64::from(a.state as i8) * self.rc(a)
        } else {
            0.0
        }
    }

    /// A solution carrying `status` and this run's work counters.
    fn outcome(&self, status: LpStatus) -> McfSolution {
        McfSolution {
            pivots: self.pivots,
            degenerate_pivots: self.degenerate,
            arcs_priced: self.arcs_priced,
            repair_work: self.repair_work,
            ..McfSolution::with_status(status)
        }
    }

    /// Pricing: after a [`Self::flush`], the first arc taken from the
    /// candidate queue that still violates optimality by more than `EPS`
    /// enters. The queue is first in, first out, and each arc is checked
    /// again when it is taken, since a pivot after it was queued may have
    /// cured it. By the queue's invariant (see the `queue` field), an
    /// empty queue proves optimality; debug builds check that with a sweep
    /// of every arc.
    fn price(&mut self) -> Option<usize> {
        self.flush();
        while let Some(a) = self.queue.pop_front() {
            let a = a as usize;
            self.arcs[a].queued = false;
            self.arcs_priced += 1;
            if self.violation(&self.arcs[a]) > EPS {
                return Some(a);
            }
        }
        if cfg!(debug_assertions) {
            for (i, a) in self.arcs.iter().enumerate() {
                assert!(
                    self.violation(a) <= EPS,
                    "arc {i} violates optimality with the pricing queue empty"
                );
            }
        }
        None
    }

    /// Queues every violating real arc incident to a node in `refreshed`,
    /// or, when `rescan` is set, every violating real arc, and empties
    /// both. Rebuilds the incidence CSR first if an edit left it stale.
    fn flush(&mut self) {
        if self.rescan {
            self.rescan = false;
            self.refreshed.clear();
            for a in 0..self.m {
                self.consider(a);
            }
            return;
        }
        if self.refreshed.is_empty() {
            return;
        }
        if !self.adj_valid {
            self.build_incidence();
        }
        for i in 0..self.refreshed.len() {
            let v = self.refreshed[i] as usize;
            for k in self.adj_start[v] as usize..self.adj_start[v + 1] as usize {
                self.consider(self.adj[k] as usize);
            }
        }
        self.refreshed.clear();
    }

    /// Reads arc `a` for pricing and queues it if it violates optimality
    /// and is not queued yet.
    fn consider(&mut self, a: usize) {
        self.arcs_priced += 1;
        let arc = &self.arcs[a];
        if !arc.queued && self.violation(arc) > EPS {
            self.arcs[a].queued = true;
            self.queue.push_back(a as u32);
        }
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

    /// Recomputes depth and potential for the subtree rooted at `start`
    /// from its (already final) parent, walking the child/sibling thread,
    /// and records each node in `refreshed` for the next pricing flush
    /// (past `n` records, it sets `rescan` instead). It records even while
    /// the incidence CSR is stale; the flush rebuilds it.
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
            if self.refreshed.len() < self.n {
                self.refreshed.push(x as u32);
            } else {
                self.rescan = true;
            }
            let mut c = self.nodes[x].first_child;
            while c != NIL {
                self.stack.push(c as usize);
                c = self.nodes[c as usize].next_sib;
            }
        }
    }

    /// Builds the initial basis as a spanning tree of *real* arcs wherever
    /// one exists, once [`NetSimplex::solve_circulation`] has appended the
    /// artificial arcs empty. The start flow is zero, so every tree arc
    /// rests at its lower bound, and strong feasibility requires each to
    /// point toward the root — which a reverse BFS guarantees by hanging a
    /// node `u` below `v` exactly when an arc `u → v` exists and `v` is
    /// already attached. Each connected piece is anchored to the root by a
    /// single artificial arc (oriented `node → root`); the other
    /// artificials never enter the basis, so no pivot is spent evicting
    /// them. Every potential is new, so pricing starts with `rescan`: one
    /// scan of the real arcs seeds the queue.
    fn warm_start(&mut self) {
        let root = self.n;
        self.build_incidence();
        // `parent == NIL` doubles as "not yet attached". Every node enters
        // the stack once at most, here and in a subtree refresh.
        self.stack.clear();
        self.stack.reserve(self.n + 1);
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
                // The arcs into `v`, latest first. Zero-capacity arcs can
                // never carry flow and would only seed degenerate cycles.
                for k in (self.adj_start[v] as usize..self.adj_start[v + 1] as usize).rev() {
                    let a = self.adj[k] as usize;
                    let arc = &self.arcs[a];
                    let u = arc.tail as usize;
                    if arc.head as usize != v || arc.cap <= EPS || self.nodes[u].parent != NIL {
                        continue;
                    }
                    self.nodes[u].parent = v as u32;
                    self.nodes[u].pred = a as u32;
                    self.arcs[a].state = ArcState::Tree;
                    self.attach(v, u);
                    self.stack.push(u);
                }
            }
        }

        self.nodes[root].pot = 0.0;
        let mut c = self.nodes[root].first_child;
        while c != NIL {
            self.refresh_subtree(c as usize);
            c = self.nodes[c as usize].next_sib;
        }
        self.rescan = true;
    }

    /// Primal pivots until pricing finds no violation (`Ok`), the entering
    /// arc closes an uncapacitated negative-cost cycle
    /// ([`LpStatus::Unbounded`]) or the pivots reach `limit`
    /// ([`LpStatus::IterationLimit`]).
    fn run(&mut self, limit: usize) -> Result<(), LpStatus> {
        loop {
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
            self.arcs[enter].flow = x;
            return Ok(());
        };

        // The entering arc takes the step; the leaving arc snaps to the
        // bound it hit.
        let x = match erec.state {
            ArcState::Lower => delta,
            _ => erec.cap - delta,
        };
        self.arcs[enter].flow = x;
        self.arcs[enter].state = ArcState::Tree;
        let snap = if lfwd { self.arcs[larc].cap } else { 0.0 };
        self.arcs[larc].flow = snap;
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
        // Each path is at most its end's depth long.
        self.path_from.clear();
        self.path_to.clear();
        make_room(&mut self.path_from, self.nodes[from].depth, self.n);
        make_room(&mut self.path_to, self.nodes[to].depth, self.n);
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
        for &(_, a, fwd) in &self.path_from {
            self.arcs[a].flow += if fwd { delta } else { -delta };
        }
        for &(_, a, fwd) in &self.path_to {
            self.arcs[a].flow += if fwd { delta } else { -delta };
        }
    }

    /// Re-hangs the subtree severed by a pivot: `q` (the cycle endpoint
    /// below the leaving arc) becomes a child of `p_attach` via `enter`,
    /// and the parent chain from `q` up to `z` (the node the leaving arc
    /// hung from) reverses, each node hanging below its former child by
    /// the arc that joined them. Finishes by refreshing depths and
    /// potentials across the re-hung subtree.
    fn rehang(&mut self, q: usize, z: usize, p_attach: usize, enter: usize) {
        let (mut x, mut parent, mut arc) = (q, p_attach, enter as u32);
        loop {
            // Read before the move: no earlier step of the walk rewrites
            // `x`'s own parent or tree arc.
            let (old_parent, old_arc) = (self.nodes[x].parent as usize, self.nodes[x].pred);
            self.detach(x);
            self.nodes[x].parent = parent as u32;
            self.nodes[x].pred = arc;
            self.attach(parent, x);
            if x == z {
                break;
            }
            (x, parent, arc) = (old_parent, x, old_arc);
        }
        self.refresh_subtree(q);
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
    ///
    /// Before each pivot the repair checks the pivot `limit` and its work
    /// `budget` (see [`DUAL_REPAIR_BUDGET`]).
    fn dual_repair(
        &mut self,
        limit: usize,
        budget: usize,
        worklist: &mut Vec<u32>,
    ) -> Result<(), DualOutcome> {
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
            if self.repair_work > budget {
                return Err(DualOutcome::Budget);
            }
            let enter = self.dual_pivot(t as usize, violation, over)?;
            let cycle = self.path_from.iter().chain(&self.path_to);
            worklist.extend(cycle.map(|&(_, a, _)| a as u32));
            worklist.push(enter as u32);
        }
    }

    /// Builds the real-arc incidence CSR (see the `adj` field): two
    /// counting passes over the arc array.
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
        // is built lazily on the first small cut of a repair pass, and a
        // small cut whose incidence lists hold `m` arcs or more is swept
        // too, so no pivot reads more than `m` arcs.
        let mut reads = self.m;
        if self.chain.len() * 16 < self.n {
            if !self.adj_valid {
                self.build_incidence();
            }
            let start = &self.adj_start;
            reads = self
                .chain
                .iter()
                .map(|&y| (start[y + 1] - start[y]) as usize)
                .sum();
        }
        self.repair_work += 2 * self.chain.len() + reads.min(self.m);
        if reads < self.m {
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
        self.arcs[enter].flow = xf;
        self.arcs[enter].state = ArcState::Tree;
        let (snap, state) = if over && self.arcs[t].cap > EPS {
            (self.arcs[t].cap, ArcState::Upper)
        } else {
            // Under its lower bound — or a zero-capacity bound, where
            // `Lower` keeps the arc exempt from pricing.
            (0.0, ArcState::Lower)
        };
        self.arcs[t].flow = snap;
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
    /// The repair's work passed its budget ([`DUAL_REPAIR_BUDGET`]).
    Budget,
}

/// What an incremental attempt had done when the session gave it up: the
/// restart's [`McfSolution`] reports it.
#[derive(Default)]
struct Abandoned {
    pivots: usize,
    repair_work: usize,
    budget: bool,
}

impl Abandoned {
    fn of(s: &NetSimplex, budget: bool) -> Self {
        Abandoned {
            pivots: s.pivots,
            repair_work: s.repair_work,
            budget,
        }
    }
}

/// A network-simplex engine that stays *resident* across a stream of solves
/// of one evolving circulation.
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
///   through the tree, so the potentials survive; a re-costed *tree* arc
///   would invalidate a subtree's potentials, and sends the solve to a
///   restart from scratch instead (no flow emitter re-costs an arc);
/// * each solve then repairs the tree arcs left outside their bounds with
///   worst-first dual pivots and finishes with primal pricing.
///
/// The caller must list in `touched` every pre-existing arc it mutated
/// since the previous solve (appended arcs are picked up automatically;
/// duplicates are fine) — debug builds verify the sync against the problem.
/// Whenever the resident state cannot be reused (a shrunk problem, a
/// re-costed tree arc, a dual repair over its work budget
/// [`DUAL_REPAIR_BUDGET`], a dual stall, the pivot limit), the session
/// transparently solves from scratch through the start
/// [`MinCostFlowProblem::solve`] takes — keeping the fresh state resident —
/// and reports it via [`McfSolution::fallback_cold`] (and, for the budget,
/// [`McfSolution::budget_restart`]). The first solve takes that start too.
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
    ///
    /// # Panics
    /// Panics if the problem's nodes and arcs together reach `u32::MAX`.
    pub fn solve(&mut self, problem: &MinCostFlowProblem, touched: &[u32]) -> McfSolution {
        let n = problem.nodes;
        let m = problem.arcs.len();
        if n == 0 {
            self.engine = None;
            return McfSolution::with_status(LpStatus::Optimal);
        }
        assert!(m + n < NIL as usize, "network too large for u32 indexing");
        let abandoned = if self.engine.is_some() {
            match self.solve_incremental(problem, touched) {
                Ok(solution) => return solution,
                Err(abandoned) => Some(abandoned),
            }
        } else {
            None
        };
        let mut solution = self.restart(problem);
        if let Some(a) = abandoned {
            solution.fallback_cold = true;
            solution.budget_restart = a.budget;
            solution.repair_work = a.repair_work;
            solution.abandoned_pivots = a.pivots;
        }
        solution
    }

    /// From-scratch solve (the reverse-BFS start of
    /// [`NetSimplex::solve_circulation`]) that leaves the finished simplex
    /// state resident.
    fn restart(&mut self, problem: &MinCostFlowProblem) -> McfSolution {
        // Dropping the stale engine first recycles its buffers through the
        // thread-local scratch slot, where `NetSimplex::open` reclaims them.
        self.engine = None;
        let mut s = problem.circulation();
        if let Err(status) = s.solve_circulation(problem.pivot_limit()) {
            return s.outcome(status);
        }
        let solution = problem.extract(&s, false);
        self.engine = Some(s);
        solution
    }

    /// The incremental path: sync the resident state to the patched
    /// problem, repair, re-prove optimality. `Err` means the state could
    /// not be reused and the caller should restart from scratch; it
    /// carries what the abandoned attempt had done.
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
    ) -> Result<McfSolution, Abandoned> {
        let n = problem.nodes;
        let m = problem.arcs.len();
        // Take the engine out: every bail-out path simply drops it (its
        // buffers recycle through the scratch slot for the restart).
        let mut s = self.engine.take().expect("caller checked residency");
        if s.n > n || s.m > m {
            // The problem shrank: it is a different instance, not a patch.
            return Err(Abandoned::default());
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

        // A tree arc whose *cost* changed invalidates the potentials of a
        // whole subtree, which the sparse sync below cannot repair. No flow
        // emitter re-costs an arc (the problem has no cost setter), so such
        // a patch simply restarts cold. Endpoint moves and capacity changes
        // are repaired surgically.
        if touched.iter().any(|&t| {
            let rec = &s.arcs[t as usize];
            rec.state == ArcState::Tree && rec.cost != problem.arcs[t as usize].cost
        }) {
            return Err(Abandoned::default());
        }

        // Structural growth. Appended real arcs are spliced in ahead of
        // the artificial block so arc ids keep their meaning; tree `pred`
        // references into the shifted artificial block move with it.
        if dm > 0 {
            s.arcs.splice(
                old_m..old_m,
                problem.arcs[old_m..]
                    .iter()
                    .map(|a| ArcRec::at_lower(a.tail, a.head, a.cost, a.upper)),
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
                    state: ArcState::Tree,
                    ..ArcRec::at_lower(v, root, 0.0, 0.0)
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
        s.marks.resize(n + 1, false);
        // A finished solve left the queue and `refreshed` empty.
        s.queue.reserve(m);
        s.refreshed.reserve(n);
        s.pivots = 0;
        s.degenerate = 0;
        s.arcs_priced = 0;
        s.repair_work = 0;
        s.adj_valid = false;
        let root = n;
        let limit = problem.pivot_limit();

        // Sparse sync. `excess` tracks the conservation surplus each flow
        // edit leaves behind at a node; `hot` the nodes holding one;
        // `worklist` the tree arcs whose flows were (or will be) rewritten
        // and may now sit outside their bounds.
        let mut excess = vec![0.0f64; n + 1];
        let mut hot: Vec<usize> = Vec::new();
        let mut worklist: Vec<u32> = Vec::new();
        for &t in &touched {
            let i = t as usize;
            let a = &problem.arcs[i];
            let new_cap = a.upper;
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
                    // A retargeted basic arc (its cost is unchanged, see
                    // above): demote it, give its flow back to its old
                    // endpoints, and re-anchor the subtree it was holding
                    // up directly under the root (zero-capacity anchor —
                    // any flow the subtree still exchanges with the rest
                    // surfaces there as a violation for the dual repair).
                    let f = rec.flow;
                    let (ot, oh) = (rec.tail as usize, rec.head as usize);
                    rec.state = ArcState::Lower;
                    rec.flow = 0.0;
                    rec.tail = a.tail as u32;
                    rec.head = a.head as u32;
                    rec.cap = new_cap;
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
                    // Capacity change on a basic arc: the flow stays; if
                    // the new bound cut below it, the dual repair will
                    // reroute the difference.
                    rec.cap = new_cap;
                    worklist.push(t);
                }
            }
        }
        // Route every surplus to the root through the tree: the
        // contributions sum to zero there, and each rewritten tree flow
        // becomes a repair candidate.
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
        if let Err(outcome) = s.dual_repair(limit, DUAL_REPAIR_BUDGET * (m + n), &mut worklist) {
            return Err(Abandoned::of(&s, matches!(outcome, DualOutcome::Budget)));
        }

        if cfg!(debug_assertions) {
            for (i, (rec, a)) in s.arcs.iter().zip(&problem.arcs).enumerate() {
                assert!(
                    rec.tail as usize == a.tail
                        && rec.head as usize == a.head
                        && rec.cost == a.cost
                        && rec.cap == a.upper,
                    "arc {i} was patched but not listed in `touched`"
                );
            }
        }

        // Seed pricing with every arc the patch gave a new reduced cost or
        // bound: the appended arcs and the touched ones. The nodes the sync
        // and the repair re-hung are in `refreshed`, for the first flush.
        for a in old_m..m {
            s.consider(a);
        }
        for &t in &touched {
            s.consider(t as usize);
        }
        if s.run(limit).is_err() {
            // Includes `Unbounded`: restart and let the from-scratch solve
            // render the authoritative verdict.
            return Err(Abandoned::of(&s, false));
        }
        let solution = problem.extract(&s, true);
        self.engine = Some(s);
        Ok(solution)
    }
}

/// Capacity of this thread's recycled arc buffer — observability hook for
/// the scratch-shrink tests.
#[cfg(test)]
fn scratch_arc_capacity() -> usize {
    SCRATCH.with(|slot| slot.borrow().arcs.capacity())
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

    /// The cost of the capped return arcs below. It outweighs every path's
    /// cost, so a return arc `t → s` of capacity `q` routes exactly `q`
    /// units from `s` to `t` whenever the network can carry them: the
    /// circulation's stand-in for a supply of `q` at `s` and a demand of
    /// `q` at `t`.
    const RETURN_COST: f64 = -100.0;

    #[test]
    fn single_arc_transportation() {
        let mut p = MinCostFlowProblem::new(2);
        p.add_arc(0, 1, 2.0, 5.0);
        p.add_arc(1, 0, RETURN_COST, 3.0);
        let s = assert_optimal(&p, 3.0 * 2.0 + 3.0 * RETURN_COST);
        assert_eq!(s.flows, vec![3.0, 3.0]);
    }

    #[test]
    fn cheaper_path_is_preferred() {
        // 0 -> 2 directly (cost 5) vs 0 -> 1 -> 2 (cost 1 + 1).
        let mut p = MinCostFlowProblem::new(3);
        p.add_arc(0, 2, 5.0, f64::INFINITY);
        p.add_arc(0, 1, 1.0, f64::INFINITY);
        p.add_arc(1, 2, 1.0, f64::INFINITY);
        p.add_arc(2, 0, RETURN_COST, 4.0);
        let s = assert_optimal(&p, 8.0 + 4.0 * RETURN_COST);
        assert_eq!(s.flows, vec![0.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn capacity_forces_a_split() {
        // Cheap path capped at 3, remainder takes the expensive arc.
        let mut p = MinCostFlowProblem::new(3);
        p.add_arc(0, 2, 5.0, f64::INFINITY);
        p.add_arc(0, 1, 1.0, 3.0);
        p.add_arc(1, 2, 1.0, f64::INFINITY);
        p.add_arc(2, 0, RETURN_COST, 5.0);
        let s = assert_optimal(&p, 3.0 * 2.0 + 2.0 * 5.0 + 5.0 * RETURN_COST);
        assert_eq!(s.flows, vec![2.0, 3.0, 3.0, 5.0]);
    }

    #[test]
    fn max_flow_as_min_cost_circulation() {
        // Classic: return arc sink->source at cost -1;
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
        p.add_arc(0, 1, -100.0, 0.0); // attractive but unusable
        p.add_arc(0, 1, 3.0, 2.0);
        p.add_arc(1, 0, RETURN_COST, 1.0);
        let s = assert_optimal(&p, 3.0 + RETURN_COST);
        assert_eq!(s.flows, vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn zero_capacity_arc_at_upper_is_not_priced() {
        // Both nodes hang off the root by cost-0 artificial arcs, so both
        // potentials are 0 and the arc's reduced cost is its cost, 5: at
        // its capacity that would be a violation, but a zero-capacity arc
        // can only enter as a zero-step bound flip, so the seed scan does
        // not queue it.
        let mut p = MinCostFlowProblem::new(2);
        p.add_arc(0, 1, 5.0, 0.0);
        let mut s = p.circulation();
        s.solve_circulation(0).unwrap_err();
        s.arcs[0].state = ArcState::Upper;
        assert!(s.rc(&s.arcs[0]) > EPS);
        assert_eq!(s.price(), None);
        // The same arc with capacity is queued once a node it touches is
        // refreshed, and enters.
        s.arcs[0].cap = 1.0;
        s.refresh_subtree(0);
        assert_eq!(s.refreshed, [0]);
        assert_eq!(s.price(), Some(0));
        assert!(s.queue.is_empty() && !s.arcs[0].queued);
    }

    #[test]
    fn pricing_reads_the_rehung_arcs_not_a_sweep_per_pivot() {
        // A time-expanded circulation of 5,981 arcs and nodes. The seed
        // scan reads its 3,981 real arcs once; after that a pivot reads the
        // arcs incident to the subtree it re-hung and the arcs it takes
        // from the queue: 440 per pivot over 754 pivots here, against a
        // bound of 747. Blocks of `⌊√(m+n)⌋` arcs read 233 per pivot over
        // 1,241 pivots, and one sweep reads 5,981.
        let (mut p, interactions) = time_expanded_circulation(2, 20, 100, 2_000);
        let (m, total) = (p.num_arcs(), p.num_arcs() + p.num_nodes());
        let sol = p.solve();
        assert!(sol.is_optimal());
        assert!(sol.pivots > 500, "{} pivots", sol.pivots);
        assert!(
            sol.arcs_priced - m <= total / 8 * sol.pivots,
            "{} arcs priced in {} pivots, over {m} plus {total}/8 per pivot",
            sol.arcs_priced,
            sol.pivots
        );

        // A session prices through the same queue and counts per solve: its
        // first solve is the cold one, and an incremental solve reads the
        // arcs it touched and re-hung, no sweep. After these 8 expiries it
        // reads 17 arcs for 1 pivot; block pricing read 5,981, the full
        // wrap that proved optimality.
        let mut session = NetflowSession::new();
        let first = session.solve(&p, &[]);
        assert_eq!(
            (first.pivots, first.arcs_priced),
            (sol.pivots, sol.arcs_priced)
        );
        for &a in &interactions[..8] {
            p.set_capacity(a, 0.0);
        }
        let touched: Vec<u32> = interactions[..8].iter().map(|&a| a as u32).collect();
        let warm = session.solve(&p, &touched);
        assert!(warm.basis_reused && warm.pivots > 0, "{warm:?}");
        assert!(warm.arcs_priced < total / 8, "{warm:?}");
    }

    #[test]
    fn degenerate_pivots_are_counted_not_looped() {
        // A diamond where every arc has the same capacity as the return
        // arc: plenty of ties, still terminates (strongly feasible trees).
        let mut p = MinCostFlowProblem::new(4);
        p.add_arc(0, 1, 1.0, 2.0);
        p.add_arc(0, 2, 1.0, 2.0);
        p.add_arc(1, 3, 1.0, 2.0);
        p.add_arc(2, 3, 1.0, 2.0);
        p.add_arc(1, 2, 0.0, 2.0);
        p.add_arc(3, 0, RETURN_COST, 2.0);
        let s = assert_optimal(&p, 4.0 + 2.0 * RETURN_COST);
        assert!(s.pivots >= 1);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut p = MinCostFlowProblem::new(3);
        p.add_arc(0, 1, 1.0, 10.0);
        p.add_arc(1, 2, 1.0, 10.0);
        p.add_arc(2, 0, RETURN_COST, 4.0);
        p.max_iterations = 1;
        assert_eq!(p.solve().status, LpStatus::IterationLimit);
    }

    #[test]
    fn to_lp_optimum_is_minus_the_minimum_cost() {
        // Two parallel arcs of different costs, the cheap one capped below
        // the return arc's capacity.
        let mut p = MinCostFlowProblem::new(2);
        p.add_arc(0, 1, 10.0, 10.0);
        p.add_arc(0, 1, 1.0, 3.0);
        p.add_arc(1, 0, RETURN_COST, 5.0);
        let lp_sol = p.to_lp().solve();
        assert_eq!(lp_sol.status, LpStatus::Optimal);
        let direct = assert_optimal(&p, 2.0 * 10.0 + 3.0 + 5.0 * RETURN_COST);
        assert!((lp_sol.objective + direct.objective).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 0")]
    fn negative_capacity_panics() {
        let mut p = MinCostFlowProblem::new(2);
        p.add_arc(0, 1, 0.0, -1.0);
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
    fn resident_session_restarts_cold_after_recosting_a_tree_arc() {
        let p = circulation();
        let mut session = NetflowSession::new();
        assert_warm_matches_cold(&p, &session.solve(&p, &[]));
        // The return arc carries 5 of its 100 units, strictly inside its
        // bounds, so it is basic.
        let engine = session.engine.as_ref().expect("resident");
        assert_eq!(engine.arcs[4].state, ArcState::Tree);

        // Re-cost it and, in the same batch, cut it below its flow: the
        // re-cost invalidates the potentials below the arc, so the session
        // restarts cold before any repair work.
        let mut q = MinCostFlowProblem::new(p.num_nodes());
        for a in &p.arcs()[..4] {
            q.add_arc(a.tail, a.head, a.cost, a.upper);
        }
        q.add_arc(3, 0, -2.0, 4.0);
        let sol = session.solve(&q, &[4]);
        assert!(sol.fallback_cold && !sol.basis_reused && !sol.budget_restart);
        assert_eq!((sol.repair_work, sol.abandoned_pivots), (0, 0));
        assert!((sol.objective - (-8.0)).abs() < 1e-9);
        assert_warm_matches_cold(&q, &sol);

        // The restarted state stays resident: an unchanged re-solve reuses
        // it without a pivot.
        let again = session.solve(&q, &[]);
        assert!(again.basis_reused && !again.fallback_cold);
        assert_eq!(again.pivots, 0);
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

    /// Eight parallel unit-capacity chains of 100 arcs from node 0 to node
    /// 1, a 3-unit bypass arc and the cost −1 return arc; returns the first
    /// arc of every chain.
    fn parallel_chains() -> (MinCostFlowProblem, Vec<usize>) {
        let (chains, len) = (8, 100);
        let mut p = MinCostFlowProblem::new(2 + chains * (len - 1));
        let mut firsts = Vec::new();
        for c in 0..chains {
            let mut prev = 0;
            for i in 0..len {
                let next = if i == len - 1 {
                    1
                } else {
                    2 + c * (len - 1) + i
                };
                let a = p.add_arc(prev, next, 0.0, 1.0);
                if i == 0 {
                    firsts.push(a);
                }
                prev = next;
            }
        }
        p.add_arc(0, 1, 0.0, 3.0);
        p.add_arc(1, 0, -1.0, f64::INFINITY);
        (p, firsts)
    }

    #[test]
    fn resident_session_restarts_cold_when_the_repair_runs_over_budget() {
        let (mut p, firsts) = parallel_chains();
        let mut session = NetflowSession::new();
        assert_warm_matches_cold(&p, &session.solve(&p, &[]));
        // Expire every chain's earliest arc at once: each chain's unit must
        // leave, one dual pivot per chain, and each pivot's cut holds a
        // chain's worth of nodes, too many for the incidence index, so it
        // sweeps every arc.
        for &a in &firsts {
            p.set_capacity(a, 0.0);
        }
        let touched: Vec<u32> = firsts.iter().map(|&a| a as u32).collect();
        let sol = session.solve(&p, &touched);
        assert!(sol.is_optimal() && (sol.objective - (-3.0)).abs() < 1e-9);
        assert_warm_matches_cold(&p, &sol);
        assert!(sol.fallback_cold && sol.budget_restart && !sol.basis_reused);
        let (m, n) = (p.num_arcs(), p.num_nodes());
        let budget = DUAL_REPAIR_BUDGET * (m + n);
        assert!(
            budget < sol.repair_work && sol.repair_work <= budget + m + 2 * n,
            "repair work {} against budget {budget}",
            sol.repair_work
        );
        assert!(sol.abandoned_pivots > 0);

        // The restart stays resident: an unchanged re-solve is pivot-free.
        assert!(session.is_resident());
        let again = session.solve(&p, &[]);
        assert!(again.basis_reused && !again.fallback_cold);
        assert_eq!((again.pivots, again.repair_work), (0, 0));
    }

    /// A time-expanded circulation: `vertices` holdover chains of `steps`
    /// copies joined by uncapacitated cost-0 arcs, `interactions` random
    /// arcs between two vertices' copies of one step (capacities 1..=9),
    /// and the cost −1 return arc from the last vertex's last copy to the
    /// first vertex's first copy. Returns the interaction arcs, earliest
    /// first.
    fn time_expanded_circulation(
        seed: u64,
        vertices: usize,
        steps: usize,
        interactions: usize,
    ) -> (MinCostFlowProblem, Vec<usize>) {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let copy = |v: usize, step: usize| v * steps + step;
        let mut p = MinCostFlowProblem::new(vertices * steps);
        for v in 0..vertices {
            for step in 1..steps {
                p.add_arc(copy(v, step - 1), copy(v, step), 0.0, f64::INFINITY);
            }
        }
        let mut arcs = Vec::new();
        for _ in 0..interactions {
            let step = next() % steps;
            let a = next() % vertices;
            let b = (a + 1 + next() % (vertices - 1)) % vertices;
            let cap = (next() % 9 + 1) as f64;
            arcs.push((step, p.add_arc(copy(a, step), copy(b, step), 0.0, cap)));
        }
        p.add_arc(
            copy(vertices - 1, steps - 1),
            copy(0, 0),
            -1.0,
            f64::INFINITY,
        );
        arcs.sort_unstable();
        (p, arcs.into_iter().map(|(_, a)| a).collect())
    }

    #[test]
    fn worst_first_repair_fits_the_budget_where_a_lifo_drain_does_not() {
        // Expiring the 8 earliest interactions of this network leaves tree
        // arcs out of bounds. The worst-first repair re-optimizes in 4
        // pivots and 1,367 units of work, against a budget of 3,332.
        // Draining the worklist last-in first-out instead ran over the
        // budget after 7 dual pivots and restarted cold. Over seeds 0..400
        // of this shape, worst-first restarted cold 83 times and the
        // last-in-first-out drain 118. (Seed 2 told them apart under block
        // pricing; from the tree the pricing queue leaves, both orders fit
        // its budget.)
        let (mut p, interactions) = time_expanded_circulation(111, 8, 40, 200);
        let mut session = NetflowSession::new();
        session.solve(&p, &[]);
        for &a in &interactions[..8] {
            p.set_capacity(a, 0.0);
        }
        let touched: Vec<u32> = interactions[..8].iter().map(|&a| a as u32).collect();
        let sol = session.solve(&p, &touched);
        assert_warm_matches_cold(&p, &sol);
        assert!(sol.basis_reused && !sol.fallback_cold, "{sol:?}");
        assert!(sol.repair_work > 0 && sol.pivots <= 10, "{sol:?}");
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
