//! Property-based cross-check of the two exact engines against each other
//! and against the dense-tableau test reference.
//!
//! The sparse revised simplex ([`LpProblem::solve`]), the network simplex
//! ([`MinCostFlowProblem::solve`]) and the dense two-phase tableau
//! ([`dense::solve`], a test reference) are independent implementations
//! sharing only the problem representations. On randomized flow-shaped LPs
//! the sparse engine must agree with the dense tableau on status and, when
//! optimal, on the objective value with both returned points feasible. On
//! randomized bounded min-cost-flow instances all **three** are held to the
//! same bar: the network simplex solves the instance directly while the two
//! LP solvers solve its [`MinCostFlowProblem::to_lp`] image, and status,
//! optimal value and primal feasibility must line up — including
//! degenerate/zero-capacity, infeasible and unbounded instances. Directed
//! tests pin those corners explicitly.

use proptest::prelude::*;
use tin_lp::{dense, LpProblem, LpSolution, LpStatus, MinCostFlowProblem};

/// A deterministic pseudo-random LP description derived from a seed, shaped
/// like the flow formulation: every variable is upper-bounded, and each
/// constraint row touches only a few variables with ±1-ish coefficients.
#[derive(Debug, Clone)]
struct RandomLp {
    num_vars: usize,
    seed: u64,
    rows: usize,
}

fn random_lp(max_vars: usize, max_rows: usize) -> impl Strategy<Value = RandomLp> {
    (2..=max_vars, 1..=max_rows, any::<u64>()).prop_map(|(num_vars, rows, seed)| RandomLp {
        num_vars,
        rows,
        seed,
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
        // Every variable bounded (some tightly, some generously, a few
        // fixed at 0) — the flow formulation's `x_i ≤ q_i` shape.
        let u = (next() * 6.0).floor();
        p.set_upper_bound(j, u);
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
        let rhs = (next() * 8.0).floor() - 2.0;
        let kind = next();
        if kind < 0.6 {
            p.add_le_constraint(&coeffs, rhs.max(0.0));
        } else if kind < 0.85 {
            p.add_ge_constraint(&coeffs, rhs.min(3.0));
        } else {
            p.add_eq_constraint(&coeffs, rhs.abs().min(4.0));
        }
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
        let p = build(&desc);
        let s = p.solve();
        prop_assert!(s.status != LpStatus::Unbounded);
    }
}

// --- Three-way oracle on random min-cost-flow instances -------------------

/// A deterministic pseudo-random bounded MCF instance derived from a seed.
/// Capacities include exact zeros (degenerate pivots), `imbalance` skews
/// total supply away from total demand (infeasible), and `allow_infinite`
/// mixes in uncapacitated arcs with signed costs (unbounded rays become
/// possible).
#[derive(Debug, Clone)]
struct RandomMcf {
    nodes: usize,
    arcs: usize,
    seed: u64,
    allow_infinite: bool,
    imbalance: bool,
}

fn random_mcf(max_nodes: usize, max_arcs: usize) -> impl Strategy<Value = RandomMcf> {
    (2..=max_nodes, 1..=max_arcs, any::<u64>(), 0u32..100).prop_map(|(nodes, arcs, seed, pct)| {
        RandomMcf {
            nodes,
            arcs,
            seed,
            allow_infinite: pct < 30,
            imbalance: pct >= 85,
        }
    })
}

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
    // Balanced supply/demand pairs (plus an optional deliberate imbalance).
    for _ in 0..n / 2 {
        let u = (next() * n as f64) as usize % n;
        let v = (next() * n as f64) as usize % n;
        if u != v {
            let q = (next() * 4.0).floor();
            p.set_supply(u, p.supply(u) + q);
            p.set_supply(v, p.supply(v) - q);
        }
    }
    if desc.imbalance {
        let u = (next() * n as f64) as usize % n;
        p.set_supply(u, p.supply(u) + 1.0);
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
        let lower = if cap.is_finite() && cap >= 1.0 && next() < 0.25 {
            1.0
        } else {
            0.0
        };
        p.add_arc_bounded(tail, head, cost, lower, cap);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The network simplex (solving the instance directly) and both LP
    /// solvers (solving its `to_lp` image) agree on the verdict; on optimal
    /// instances they agree on the optimal cost, and the network simplex
    /// returns a primal-feasible flow whose cost matches its objective.
    #[test]
    fn three_engines_agree_on_random_mcf_instances(desc in random_mcf(6, 14)) {
        let p = build_mcf(&desc);
        let net = p.solve();
        let (lp, offset) = p.to_lp();
        let sparse = lp.solve();
        let dense = dense::solve(&lp);
        prop_assert_eq!(sparse.status, dense.status,
            "sparse {:?} vs dense {:?}", sparse.status, dense.status);
        prop_assert_eq!(net.status, sparse.status,
            "netflow {:?} vs LP engines {:?}", net.status, sparse.status);
        if net.status == LpStatus::Optimal {
            prop_assert!(close(net.objective, sparse.objective + offset),
                "cost: netflow {} vs sparse {}", net.objective, sparse.objective + offset);
            prop_assert!(close(net.objective, dense.objective + offset),
                "cost: netflow {} vs dense {}", net.objective, dense.objective + offset);
            prop_assert!(p.is_feasible(&net.flows, 1e-6),
                "netflow point infeasible: {:?}", net.flows);
            prop_assert!(close(p.flow_cost(&net.flows), net.objective));
        }
    }

    /// With every capacity finite the instance can never be unbounded, and
    /// whenever supplies balance the zero point argument applies: lower
    /// bounds of zero make the instance trivially feasible.
    #[test]
    fn finite_capacity_instances_are_never_unbounded(desc in random_mcf(6, 12)) {
        let p = build_mcf(&RandomMcf { allow_infinite: false, ..desc });
        prop_assert!(p.solve().status != LpStatus::Unbounded);
    }
}

// --- Directed corner cases ------------------------------------------------

/// A solver of general LPs.
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
        // max x + y with only x + y >= 2: no upper bounds anywhere.
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(0, 1.0);
        p.set_objective_coefficient(1, 1.0);
        p.add_ge_constraint(&[(0, 1.0), (1, 1.0)], 2.0);
        assert_eq!(solve(&p).status, LpStatus::Unbounded, "{engine}");
    }
}

#[test]
fn row_infeasibility_is_reported_by_both_engines() {
    for (engine, solve) in engines() {
        let mut p = LpProblem::new(2);
        p.add_eq_constraint(&[(0, 1.0), (1, 1.0)], 4.0);
        p.add_le_constraint(&[(0, 1.0), (1, 1.0)], 1.0);
        assert_eq!(solve(&p).status, LpStatus::Infeasible, "{engine}");
    }
}

#[test]
fn bound_infeasibility_is_reported_by_both_engines() {
    // x + y >= 5 but both variables are bounded by 1.
    for (engine, solve) in engines() {
        let mut p = LpProblem::new(2);
        p.set_upper_bound(0, 1.0);
        p.set_upper_bound(1, 1.0);
        p.add_ge_constraint(&[(0, 1.0), (1, 1.0)], 5.0);
        assert_eq!(solve(&p).status, LpStatus::Infeasible, "{engine}");
    }
}

#[test]
fn equality_with_fixed_variables_is_solved_exactly() {
    // x fixed at 0, x + y = 3, y <= 4 -> y = 3.
    for (engine, solve) in engines() {
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(1, 1.0);
        p.set_upper_bound(0, 0.0);
        p.set_upper_bound(1, 4.0);
        p.add_eq_constraint(&[(0, 1.0), (1, 1.0)], 3.0);
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
    let (lp, _) = p.to_lp();
    for (engine, solve) in engines() {
        assert_eq!(solve(&lp).status, expect, "{engine}");
    }
}

#[test]
fn zero_capacity_arcs_are_degenerate_not_wrong() {
    // A cheap but zero-capacity shortcut must not attract flow; the costly
    // detour carries the single unit on all three engines.
    let mut p = MinCostFlowProblem::new(3);
    p.set_supply(0, 1.0);
    p.set_supply(2, -1.0);
    p.add_arc(0, 2, 1.0, 0.0); // direct but capacity 0
    p.add_arc(0, 1, 2.0, 5.0);
    p.add_arc(1, 2, 2.0, 5.0);
    let net = p.solve();
    assert_eq!(net.status, LpStatus::Optimal);
    assert!((net.objective - 4.0).abs() < 1e-6, "{}", net.objective);
    assert_eq!(net.flows[0], 0.0);
    let (lp, offset) = p.to_lp();
    for (engine, solve) in engines() {
        let s = solve(&lp);
        assert_eq!(s.status, LpStatus::Optimal, "{engine}");
        assert!((s.objective + offset - 4.0).abs() < 1e-6, "{engine}");
    }
}

#[test]
fn imbalanced_supplies_are_infeasible_on_all_three_engines() {
    let mut p = MinCostFlowProblem::new(2);
    p.set_supply(0, 2.0);
    p.set_supply(1, -1.0); // total supply 1 ≠ 0
    p.add_arc(0, 1, 1.0, 5.0);
    assert_three_way_status(&p, LpStatus::Infeasible);
}

#[test]
fn capacity_cut_infeasibility_matches_on_all_three_engines() {
    // Balanced supplies, but the only connecting arc is one unit short.
    let mut p = MinCostFlowProblem::new(2);
    p.set_supply(0, 3.0);
    p.set_supply(1, -3.0);
    p.add_arc(0, 1, 1.0, 2.0);
    assert_three_way_status(&p, LpStatus::Infeasible);
}

#[test]
fn negative_cost_uncapacitated_cycle_is_unbounded_on_all_three_engines() {
    let mut p = MinCostFlowProblem::new(2);
    p.add_arc(0, 1, -1.0, f64::INFINITY);
    p.add_arc(1, 0, -1.0, f64::INFINITY);
    assert_three_way_status(&p, LpStatus::Unbounded);
}
