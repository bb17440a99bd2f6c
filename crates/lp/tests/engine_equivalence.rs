//! Property-based cross-check of the two exact engines against each other
//! and against the dense-tableau test reference.
//!
//! The sparse revised simplex ([`LpProblem::solve`]), the network simplex
//! ([`MinCostFlowProblem::solve`]) and the dense tableau ([`dense::solve`],
//! a test reference) are independent implementations sharing only the
//! problem representations. On randomized flow-shaped LPs (`≤` rows with
//! non-negative right-hand sides, so the zero point is always feasible) the
//! sparse engine must agree with the dense tableau on status and, when
//! optimal, on the objective value with both returned points feasible; on
//! the default seed the 96 cases are 81 optimal and 15 unbounded, 40 of
//! them with degenerate pivots. On randomized min-cost circulations all
//! **three** are held to the same bar: the network simplex solves the
//! instance directly while the two LP solvers solve its
//! [`MinCostFlowProblem::to_lp`] image, whose optimum is minus the minimum
//! cost, and status, optimal value and primal feasibility must line up —
//! including degenerate/zero-capacity and unbounded instances. The same
//! instances also go through the network simplex's other two cold entries,
//! [`Circulation`] and a fresh [`NetflowSession`], which must repeat
//! [`MinCostFlowProblem::solve`] pivot for pivot. Directed tests pin the
//! corners explicitly.

use proptest::prelude::*;
use tin_lp::{
    dense, Circulation, LpProblem, LpSolution, LpStatus, MinCostFlowProblem, NetflowSession,
};

/// A deterministic pseudo-random LP description derived from a seed, shaped
/// like the flow formulation: each `≤` row touches only a few variables with
/// ±1-ish coefficients and has a non-negative right-hand side (often 0, the
/// degenerate case). Every variable is upper-bounded unless
/// `allow_infinite`, which leaves about a quarter of them without a bound
/// (unbounded programs become possible).
#[derive(Debug, Clone)]
struct RandomLp {
    num_vars: usize,
    seed: u64,
    rows: usize,
    allow_infinite: bool,
}

fn random_lp(max_vars: usize, max_rows: usize) -> impl Strategy<Value = RandomLp> {
    (2..=max_vars, 1..=max_rows, any::<u64>(), 0u32..100).prop_map(|(num_vars, rows, seed, pct)| {
        RandomLp {
            num_vars,
            rows,
            seed,
            allow_infinite: pct < 50,
        }
    })
}

fn build(desc: &RandomLp) -> LpProblem {
    let mut state = desc.seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let n = desc.num_vars;
    let mut p = LpProblem::new(n);
    for j in 0..n {
        // Mix of positive, zero and negative objective coefficients.
        let c = (next() * 4.0).floor() - 1.0;
        p.set_objective_coefficient(j, c);
        // Bounded (some tightly, some generously, a few fixed at 0) — the
        // flow formulation's `x_i ≤ q_i` shape — or, under
        // `allow_infinite`, sometimes not at all.
        let u = (next() * 6.0).floor();
        if !(desc.allow_infinite && next() < 0.25) {
            p.set_upper_bound(j, u);
        }
    }
    for _ in 0..desc.rows {
        // Short sparse rows: 1–4 variables, coefficients in {−2,−1,1,2}.
        let len = 1 + (next() * 4.0) as usize;
        let mut coeffs = Vec::with_capacity(len);
        for _ in 0..len {
            let var = (next() * n as f64) as usize % n;
            let mut c = (next() * 4.0).floor() - 2.0;
            if c == 0.0 {
                c = 1.0;
            }
            coeffs.push((var, c));
        }
        let rhs = ((next() * 8.0).floor() - 2.0).max(0.0);
        p.add_le_constraint(&coeffs, rhs);
    }
    p
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Both engines reach the same verdict, and on optimal programs the
    /// same objective value from feasible points.
    #[test]
    fn engines_agree_on_random_flow_shaped_lps(desc in random_lp(10, 8)) {
        let p = build(&desc);
        let sparse = p.solve();
        let dense = dense::solve(&p);
        prop_assert_eq!(sparse.status, dense.status,
            "sparse {:?} vs dense {:?}", sparse.status, dense.status);
        if sparse.status == LpStatus::Optimal {
            prop_assert!(close(sparse.objective, dense.objective),
                "objective: sparse {} vs dense {}", sparse.objective, dense.objective);
            prop_assert!(p.is_feasible(&sparse.variables, 1e-6),
                "sparse point infeasible: {:?}", sparse.variables);
            prop_assert!(p.is_feasible(&dense.variables, 1e-6),
                "dense point infeasible: {:?}", dense.variables);
            prop_assert!(close(p.objective_value(&sparse.variables), sparse.objective));
        }
    }

    /// All-bounded programs can never be unbounded, whatever the rows say.
    #[test]
    fn bounded_programs_are_never_unbounded(desc in random_lp(8, 6)) {
        let p = build(&RandomLp { allow_infinite: false, ..desc });
        let s = p.solve();
        prop_assert!(s.status != LpStatus::Unbounded);
    }
}

// --- Three-way oracle on random min-cost circulations ---------------------

/// A deterministic pseudo-random min-cost circulation derived from a seed.
/// Capped return arcs of a large negative cost stand in for supply and
/// demand pairs, capacities include exact zeros (degenerate pivots), and
/// `allow_infinite` mixes in uncapacitated arcs with signed costs
/// (unbounded rays become possible).
#[derive(Debug, Clone)]
struct RandomMcf {
    nodes: usize,
    arcs: usize,
    seed: u64,
    allow_infinite: bool,
}

fn random_mcf(max_nodes: usize, max_arcs: usize) -> impl Strategy<Value = RandomMcf> {
    (2..=max_nodes, 1..=max_arcs, any::<u64>(), 0u32..100).prop_map(|(nodes, arcs, seed, pct)| {
        RandomMcf {
            nodes,
            arcs,
            seed,
            allow_infinite: pct < 30,
        }
    })
}

/// The cost of the generator's return arcs: below minus the cost of any
/// simple path, so each return arc `v → u` of capacity `q` pulls up to `q`
/// units from `u` to `v` whatever the route costs.
const RETURN_COST: f64 = -100.0;

fn build_mcf(desc: &RandomMcf) -> MinCostFlowProblem {
    let mut state = desc.seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let n = desc.nodes;
    let mut p = MinCostFlowProblem::new(n);
    // Return arcs in place of supply/demand pairs.
    for _ in 0..n / 2 {
        let u = (next() * n as f64) as usize % n;
        let v = (next() * n as f64) as usize % n;
        if u != v {
            let q = (next() * 4.0).floor();
            p.add_arc(v, u, RETURN_COST, q);
        }
    }
    for _ in 0..desc.arcs {
        let tail = (next() * n as f64) as usize % n;
        let mut head = (next() * n as f64) as usize % n;
        if head == tail {
            head = (head + 1) % n;
        }
        let cost = (next() * 7.0).floor() - 3.0;
        // Exact zero capacities are generated on purpose: they are the
        // degenerate corner (an arc that can never leave its bound).
        let cap = match (next() * 6.0) as usize {
            0 => 0.0,
            1 => 1.0,
            2 => 2.0,
            3 => 3.0,
            4 => 5.0,
            _ if desc.allow_infinite => f64::INFINITY,
            _ => 4.0,
        };
        p.add_arc(tail, head, cost, cap);
    }
    p
}

/// Status, pivots, degenerate pivots and the bits of every arc's flow:
/// what each cold entry of the network simplex must repeat exactly.
type ColdRun = (LpStatus, usize, usize, Vec<u64>);

fn cold_run(status: LpStatus, pivots: usize, degenerate: usize, flows: &[f64]) -> ColdRun {
    let bits = flows.iter().map(|x| x.to_bits()).collect();
    (status, pivots, degenerate, bits)
}

/// `p` solved through [`Circulation`], arc by arc into the simplex's
/// arrays; its flows are read only when optimal, as
/// [`tin_lp::McfSolution::flows`] are.
fn through_circulation(p: &MinCostFlowProblem) -> ColdRun {
    let mut c = Circulation::new(p.num_nodes(), p.num_arcs());
    for a in p.arcs() {
        c.add_arc(a.tail, a.head, a.cost, a.upper);
    }
    let status = c.solve();
    let flows: Vec<f64> = match status {
        LpStatus::Optimal => (0..p.num_arcs()).map(|a| c.flow(a)).collect(),
        _ => Vec::new(),
    };
    cold_run(status, c.pivots(), c.degenerate_pivots(), &flows)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The network simplex (solving the instance directly) and both LP
    /// solvers (solving its `to_lp` image) agree on the verdict; on optimal
    /// instances they agree on the optimal cost, and the network simplex
    /// returns a primal-feasible flow whose cost matches its objective.
    /// [`Circulation`] and a fresh [`NetflowSession`] take the same cold
    /// start: same status, pivots and degenerate pivots, and bit-equal
    /// flows.
    #[test]
    fn three_engines_agree_on_random_mcf_instances(desc in random_mcf(6, 14)) {
        let p = build_mcf(&desc);
        let net = p.solve();
        let lp = p.to_lp();
        let sparse = lp.solve();
        let dense = dense::solve(&lp);
        prop_assert_eq!(sparse.status, dense.status,
            "sparse {:?} vs dense {:?}", sparse.status, dense.status);
        prop_assert_eq!(net.status, sparse.status,
            "netflow {:?} vs LP engines {:?}", net.status, sparse.status);
        if net.status == LpStatus::Optimal {
            // The LP image maximizes minus the cost.
            prop_assert!(close(net.objective, -sparse.objective),
                "cost: netflow {} vs sparse {}", net.objective, -sparse.objective);
            prop_assert!(close(net.objective, -dense.objective),
                "cost: netflow {} vs dense {}", net.objective, -dense.objective);
            prop_assert!(p.is_feasible(&net.flows, 1e-6),
                "netflow point infeasible: {:?}", net.flows);
            prop_assert!(close(p.flow_cost(&net.flows), net.objective));
        }

        let want = cold_run(net.status, net.pivots, net.degenerate_pivots, &net.flows);
        prop_assert_eq!(&through_circulation(&p), &want, "Circulation");
        let fresh = NetflowSession::new().solve(&p, &[]);
        prop_assert!(!fresh.basis_reused && !fresh.fallback_cold);
        let got = cold_run(fresh.status, fresh.pivots, fresh.degenerate_pivots, &fresh.flows);
        prop_assert_eq!(&got, &want, "fresh NetflowSession");
    }

    /// With every capacity finite the instance can never be unbounded.
    #[test]
    fn finite_capacity_instances_are_never_unbounded(desc in random_mcf(6, 12)) {
        let p = build_mcf(&RandomMcf { allow_infinite: false, ..desc });
        prop_assert!(p.solve().status != LpStatus::Unbounded);
    }
}

// --- Directed corner cases ------------------------------------------------

/// A solver of [`LpProblem`]s.
type Solver = fn(&LpProblem) -> LpSolution;

/// The sparse engine and the dense-tableau reference, by name.
fn engines() -> [(&'static str, Solver); 2] {
    [("sparse", LpProblem::solve), ("dense", dense::solve)]
}

#[test]
fn degenerate_beale_cycle_terminates_on_both_engines() {
    // Beale's classic cycling example; anti-cycling safeguards must hold.
    for (engine, solve) in engines() {
        let mut p = LpProblem::new(4);
        p.set_objective_coefficient(0, 0.75);
        p.set_objective_coefficient(1, -150.0);
        p.set_objective_coefficient(2, 0.02);
        p.set_objective_coefficient(3, -6.0);
        p.add_le_constraint(&[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], 0.0);
        p.add_le_constraint(&[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], 0.0);
        p.add_le_constraint(&[(2, 1.0)], 1.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal, "{engine}");
        assert!(
            (s.objective - 0.05).abs() < 1e-6,
            "{engine}: {}",
            s.objective
        );
    }
}

#[test]
fn massively_degenerate_zero_rhs_program_terminates() {
    // Every balance row has RHS 0 (the hard degenerate case in flow LPs).
    for (engine, solve) in engines() {
        let n = 20;
        let mut p = LpProblem::new(n);
        p.set_objective_coefficient(n - 1, 1.0);
        p.set_upper_bound(0, 3.0);
        for j in 1..n {
            p.set_upper_bound(j, 10.0);
            p.add_le_constraint(&[(j, 1.0), (j - 1, -1.0)], 0.0);
        }
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal, "{engine}");
        assert!(
            (s.objective - 3.0).abs() < 1e-6,
            "{engine}: {}",
            s.objective
        );
    }
}

#[test]
fn unbounded_direction_is_reported_by_both_engines() {
    for (engine, solve) in engines() {
        // max x + y with only x - y <= 2: no upper bounds anywhere.
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(0, 1.0);
        p.set_objective_coefficient(1, 1.0);
        p.add_le_constraint(&[(0, 1.0), (1, -1.0)], 2.0);
        assert_eq!(solve(&p).status, LpStatus::Unbounded, "{engine}");
    }
}

#[test]
fn row_with_a_fixed_variable_is_solved_exactly() {
    // x fixed at 0, x + y <= 3, y <= 4 -> y = 3.
    for (engine, solve) in engines() {
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(1, 1.0);
        p.set_upper_bound(0, 0.0);
        p.set_upper_bound(1, 4.0);
        p.add_le_constraint(&[(0, 1.0), (1, 1.0)], 3.0);
        let s = solve(&p);
        assert_eq!(s.status, LpStatus::Optimal, "{engine}");
        assert!((s.objective - 3.0).abs() < 1e-6, "{engine}");
    }
}

// --- Directed three-way MCF corners ---------------------------------------

/// Asserts the network simplex, the sparse engine and the dense reference
/// all return `expect` for the given instance.
fn assert_three_way_status(p: &MinCostFlowProblem, expect: LpStatus) {
    assert_eq!(p.solve().status, expect, "netflow");
    let lp = p.to_lp();
    for (engine, solve) in engines() {
        assert_eq!(solve(&lp).status, expect, "{engine}");
    }
}

#[test]
fn zero_capacity_arcs_are_degenerate_not_wrong() {
    // A cheap but zero-capacity shortcut must not attract flow; the costly
    // detour carries the single unit the return arc pulls, on all three
    // engines.
    let mut p = MinCostFlowProblem::new(3);
    p.add_arc(0, 2, 1.0, 0.0); // direct but capacity 0
    p.add_arc(0, 1, 2.0, 5.0);
    p.add_arc(1, 2, 2.0, 5.0);
    p.add_arc(2, 0, RETURN_COST, 1.0);
    let want = 4.0 + RETURN_COST;
    let net = p.solve();
    assert_eq!(net.status, LpStatus::Optimal);
    assert!((net.objective - want).abs() < 1e-6, "{}", net.objective);
    assert_eq!(net.flows[0], 0.0);
    let lp = p.to_lp();
    for (engine, solve) in engines() {
        let s = solve(&lp);
        assert_eq!(s.status, LpStatus::Optimal, "{engine}");
        assert!((-s.objective - want).abs() < 1e-6, "{engine}");
    }
}

#[test]
fn negative_cost_uncapacitated_cycle_is_unbounded_on_all_three_engines() {
    let mut p = MinCostFlowProblem::new(2);
    p.add_arc(0, 1, -1.0, f64::INFINITY);
    p.add_arc(1, 0, -1.0, f64::INFINITY);
    assert_three_way_status(&p, LpStatus::Unbounded);
}
