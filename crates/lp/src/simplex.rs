//! Sparse revised simplex with bounded variables — the engine behind
//! [`LpProblem::solve`](crate::LpProblem::solve).
//!
//! Where the dense tableau ([`crate::dense`]) updates an `m × n` matrix on
//! every pivot, the revised method keeps only:
//!
//! * the constraint matrix in compressed-sparse-column form (built once,
//!   never modified);
//! * the basis inverse as a product-form *eta file* ([`crate::sparse::EtaFile`]),
//!   one elementary transformation per pivot, periodically rebuilt from
//!   scratch (a *refactorization*) to bound memory and rounding drift;
//! * the values of the basic variables.
//!
//! Per iteration this costs one BTRAN (pricing vector `y = B⁻ᵀ c_B`), a
//! partial-pricing scan of candidate columns (Dantzig's rule inside the
//! scanned section, Bland's rule after a degeneracy threshold), one FTRAN of
//! the entering column and an `O(m)` ratio test — instead of the tableau's
//! `O(m · n)` elimination.
//!
//! Variable upper bounds `0 ≤ xⱼ ≤ uⱼ` are native: a nonbasic variable rests
//! at either of its bounds, the ratio test caps the step at the entering
//! variable's opposite bound (a *bound flip*, no basis change at all), and
//! basic variables leave at whichever bound they hit. The flow formulation's
//! per-interaction capacities `xᵢ ≤ qᵢ` therefore cost nothing: they are
//! bounds, not rows.
//!
//! Every row is `aᵢ · x ≤ bᵢ` with `bᵢ ≥ 0` (see [`LpProblem`]), so `x = 0`
//! is feasible: each row gets a slack column, the slacks form the starting
//! basis at the right-hand side, and the solve is one phase.

use crate::problem::LpProblem;
use crate::solution::{LpSolution, LpStatus};
use crate::sparse::{CscMatrix, EtaFile};

/// Numerical tolerance for pricing and pivot admissibility.
const EPS: f64 = 1e-9;

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bound {
    Lower,
    Upper,
}

/// Outcome of one ratio test.
enum Step {
    /// The entering variable reaches its opposite bound before any basic
    /// variable blocks: flip it, no basis change.
    BoundFlip,
    /// Basic row `row` blocks after step `t`; its variable leaves at
    /// `leaves_at`.
    Pivot {
        row: usize,
        t: f64,
        leaves_at: Bound,
    },
    /// No finite step limit: the program is unbounded in this direction.
    Unbounded,
}

struct Solver<'a> {
    problem: &'a LpProblem,
    /// Constraint matrix over all columns: the structural ones, then one
    /// slack per row.
    matrix: CscMatrix,
    /// Per-column upper bound (`+∞` when unbounded). Lower bounds are all 0.
    upper: Vec<f64>,
    /// Objective coefficient per column (0 for the slacks).
    costs: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Values of the basic variables, aligned with `basis`.
    x_basic: Vec<f64>,
    /// For nonbasic columns: which bound the variable rests at.
    at: Vec<Bound>,
    is_basic: Vec<bool>,
    etas: EtaFile,
    /// Rebuild the eta file once this many pivots accumulate on top of the
    /// last refactorization (the file itself retains one eta per basis
    /// column after a rebuild, so the trigger counts pivots, not file
    /// length).
    refactor_interval: usize,
    /// Pivots since the last refactorization (or since the start).
    pivots_since_refactor: usize,
    /// Partial-pricing state: where the next scan starts.
    pricing_cursor: usize,
    /// Telemetry.
    iterations: usize,
    pivots: usize,
    degenerate: usize,
    refactorizations: usize,
    /// Scratch for the entering column (FTRAN work vector).
    work: Vec<f64>,
    /// Scratch for the pricing vector `y = B⁻ᵀ c_B` (BTRAN work vector).
    pricing: Vec<f64>,
}

impl<'a> Solver<'a> {
    fn new(problem: &'a LpProblem) -> Self {
        let n = problem.num_vars();
        let m = problem.rhs.len();
        let total_cols = n + m;

        // The structural triplets, then slack `n + i` of row `i`, basic at
        // the row's right-hand side.
        let mut triplets = problem.entries.clone();
        triplets.extend((0..m).map(|i| (i, n + i, 1.0)));
        let matrix = CscMatrix::from_triplets(m, total_cols, &triplets);

        let mut upper = vec![f64::INFINITY; total_cols];
        upper[..n].copy_from_slice(problem.upper_bounds());
        let mut costs = vec![0.0; total_cols];
        costs[..n].copy_from_slice(problem.objective());
        let mut is_basic = vec![false; total_cols];
        is_basic[n..].fill(true);

        Solver {
            problem,
            matrix,
            basis: (n..total_cols).collect(),
            upper,
            costs,
            x_basic: problem.rhs.clone(),
            at: vec![Bound::Lower; total_cols],
            is_basic,
            etas: EtaFile::new(),
            refactor_interval: (m / 2).clamp(32, 512),
            pivots_since_refactor: 0,
            pricing_cursor: 0,
            iterations: 0,
            pivots: 0,
            degenerate: 0,
            refactorizations: 0,
            work: vec![0.0; m],
            pricing: Vec::with_capacity(m),
        }
    }

    fn m(&self) -> usize {
        self.problem.rhs.len()
    }

    /// Recomputes the basic variable values from scratch:
    /// `x_B = B⁻¹ (b − Σ_{j nonbasic at upper} uⱼ aⱼ)`.
    fn recompute_basic_values(&mut self) {
        let mut rhs = self.problem.rhs.clone();
        for j in 0..self.matrix.ncols() {
            if !self.is_basic[j] && self.at[j] == Bound::Upper {
                let u = self.upper[j];
                if u != 0.0 {
                    for (r, v) in self.matrix.col(j) {
                        rhs[r] -= u * v;
                    }
                }
            }
        }
        self.etas.ftran(&mut rhs);
        self.x_basic = rhs;
    }

    /// Rebuilds the eta file from the current basis. Returns `false` on a
    /// numerically singular basis.
    #[must_use]
    fn refactorize(&mut self) -> bool {
        // The reinversion reorders `basis` row-wise; values are recomputed
        // right after, so only the set matters here.
        if !self.etas.refactorize(&self.matrix, &mut self.basis) {
            return false;
        }
        self.refactorizations += 1;
        self.pivots_since_refactor = 0;
        self.recompute_basic_values();
        true
    }

    /// Reduced cost of column `j` given the pricing vector `y = B⁻ᵀ c_B`.
    #[inline]
    fn reduced_cost(&self, j: usize, y: &[f64]) -> f64 {
        self.costs[j] - self.matrix.col_dot(j, y)
    }

    /// Whether nonbasic column `j` with reduced cost `d` improves the
    /// objective when moved off its bound.
    #[inline]
    fn improves(&self, j: usize, d: f64) -> bool {
        match self.at[j] {
            Bound::Lower => d > EPS,
            Bound::Upper => d < -EPS,
        }
    }

    /// Computes the pricing vector `y = B⁻ᵀ c_B` into the reusable
    /// `pricing` scratch (no per-iteration allocation).
    fn compute_pricing_vector(&mut self) {
        let mut y = std::mem::take(&mut self.pricing);
        y.clear();
        y.extend(self.basis.iter().map(|&v| self.costs[v]));
        self.etas.btran(&mut y);
        self.pricing = y;
    }

    /// Chooses the entering column, or `None` at optimality.
    ///
    /// Partial pricing: columns are scanned in sections starting at a
    /// persistent cursor; the first section containing any improving column
    /// yields its best (Dantzig) candidate. Under `bland`, the lowest-index
    /// improving column wins instead (termination guarantee).
    fn entering(&mut self, y: &[f64], bland: bool) -> Option<usize> {
        let ncols = self.matrix.ncols();
        if ncols == 0 {
            return None;
        }
        let eligible = |s: &Self, j: usize| -> bool {
            !s.is_basic[j] && s.upper[j] > EPS // skip fixed columns (u = 0)
        };
        if bland {
            return (0..ncols)
                .find(|&j| eligible(self, j) && self.improves(j, self.reduced_cost(j, y)));
        }
        let section = (ncols / 8).clamp(32, 1024);
        let mut scanned = 0usize;
        let mut cursor = self.pricing_cursor.min(ncols.saturating_sub(1));
        while scanned < ncols {
            let mut best: Option<(usize, f64)> = None;
            let end = (cursor + section).min(cursor + (ncols - scanned));
            for step in cursor..end {
                let j = step % ncols;
                if !eligible(self, j) {
                    continue;
                }
                let d = self.reduced_cost(j, y);
                if self.improves(j, d) && best.is_none_or(|(_, bd)| d.abs() > bd) {
                    best = Some((j, d.abs()));
                }
            }
            scanned += end - cursor;
            cursor = end % ncols;
            if let Some((j, _)) = best {
                self.pricing_cursor = cursor;
                return Some(j);
            }
        }
        self.pricing_cursor = cursor;
        None
    }

    /// Bounded-variable ratio test for entering column `q` moving in
    /// direction `sigma` (+1 off its lower bound, −1 off its upper bound),
    /// with `w = B⁻¹ a_q` already FTRANed into `self.work`.
    fn ratio_test(&self, q: usize, sigma: f64, bland: bool) -> Step {
        let mut t_best = self.upper[q]; // bound-flip distance (may be +∞)
        let mut choice: Option<(usize, f64, Bound)> = None; // (row, |w|, leaves_at)
        for (i, &wi) in self.work.iter().enumerate() {
            if wi.abs() <= EPS {
                continue;
            }
            let delta = sigma * wi; // basic value changes by −delta · t
            let (limit, leaves_at) = if delta > EPS {
                ((self.x_basic[i] / delta).max(0.0), Bound::Lower)
            } else if delta < -EPS {
                let u = self.upper[self.basis[i]];
                if u.is_infinite() {
                    continue;
                }
                (((u - self.x_basic[i]) / -delta).max(0.0), Bound::Upper)
            } else {
                continue;
            };
            let better = match &choice {
                _ if limit < t_best - EPS => true,
                None => limit <= t_best + EPS,
                Some((row, wabs, _)) if (limit - t_best).abs() <= EPS => {
                    if bland {
                        // Bland: smallest leaving variable index.
                        self.basis[i] < self.basis[*row]
                    } else {
                        // Stability: largest pivot magnitude among ties.
                        wi.abs() > *wabs
                    }
                }
                _ => false,
            };
            if better {
                t_best = limit.min(t_best);
                choice = Some((i, wi.abs(), leaves_at));
            }
        }
        match choice {
            Some((row, _, leaves_at)) => Step::Pivot {
                row,
                t: t_best,
                leaves_at,
            },
            None if t_best.is_finite() => Step::BoundFlip,
            None => Step::Unbounded,
        }
    }

    /// Runs the simplex loop. `Ok(())` means the current basis is optimal.
    fn optimize(&mut self, max_iters: usize) -> Result<(), LpStatus> {
        let bland_threshold = max_iters / 2;
        let mut local = 0usize;
        loop {
            let bland = local >= bland_threshold;
            self.compute_pricing_vector();
            // Lend the pricing buffer out for the scan (entering() needs
            // `&mut self` for the cursor), then return it for reuse.
            let y = std::mem::take(&mut self.pricing);
            let q = self.entering(&y, bland);
            self.pricing = y;
            let Some(q) = q else {
                return Ok(());
            };
            let sigma = match self.at[q] {
                Bound::Lower => 1.0,
                Bound::Upper => -1.0,
            };
            // w = B⁻¹ a_q.
            self.work.iter_mut().for_each(|v| *v = 0.0);
            self.matrix.scatter_col(q, &mut self.work);
            self.etas.ftran(&mut self.work);

            match self.ratio_test(q, sigma, bland) {
                Step::Unbounded => return Err(LpStatus::Unbounded),
                Step::BoundFlip => {
                    let t = self.upper[q];
                    for (i, &wi) in self.work.iter().enumerate() {
                        if wi != 0.0 {
                            self.x_basic[i] -= sigma * t * wi;
                        }
                    }
                    self.at[q] = match self.at[q] {
                        Bound::Lower => Bound::Upper,
                        Bound::Upper => Bound::Lower,
                    };
                }
                Step::Pivot { row, t, leaves_at } => {
                    self.pivots += 1;
                    if t <= EPS {
                        self.degenerate += 1;
                    }
                    for (i, &wi) in self.work.iter().enumerate() {
                        if wi != 0.0 {
                            self.x_basic[i] -= sigma * t * wi;
                        }
                    }
                    let entering_value = match self.at[q] {
                        Bound::Lower => t,
                        Bound::Upper => self.upper[q] - t,
                    };
                    let leaving = self.basis[row];
                    self.is_basic[leaving] = false;
                    self.at[leaving] = leaves_at;
                    self.basis[row] = q;
                    self.is_basic[q] = true;
                    self.x_basic[row] = entering_value;
                    self.etas.push_pivot(row, &self.work);
                    self.pivots_since_refactor += 1;
                    if self.pivots_since_refactor >= self.refactor_interval && !self.refactorize() {
                        return Err(LpStatus::NumericalFailure);
                    }
                }
            }
            self.iterations += 1;
            local += 1;
            if local > max_iters {
                return Err(LpStatus::IterationLimit);
            }
        }
    }

    /// Extracts the structural solution.
    fn extract(&self) -> Vec<f64> {
        let n = self.problem.num_vars();
        let mut x = vec![0.0f64; n];
        for (j, xi) in x.iter_mut().enumerate() {
            if !self.is_basic[j] && self.at[j] == Bound::Upper {
                *xi = self.upper[j];
            }
        }
        for (i, &v) in self.basis.iter().enumerate() {
            if v < n {
                x[v] = self.x_basic[i].max(0.0);
                if self.upper[v].is_finite() {
                    x[v] = x[v].min(self.upper[v]);
                }
            }
        }
        x
    }

    fn telemetry(&self, mut s: LpSolution) -> LpSolution {
        s.pivots = self.pivots;
        s.degenerate_pivots = self.degenerate;
        s.refactorizations = self.refactorizations;
        s.matrix_nonzeros = self.problem.num_nonzeros();
        let dense_size = self.m() * self.problem.num_vars();
        s.matrix_density = if dense_size == 0 {
            0.0
        } else {
            s.matrix_nonzeros as f64 / dense_size as f64
        };
        s
    }
}

/// Solves `problem` with the sparse revised simplex.
pub fn solve(problem: &LpProblem) -> LpSolution {
    let n = problem.num_vars();

    // No constraint rows: each variable independently runs to whichever of
    // its bounds the objective prefers.
    if problem.rhs.is_empty() {
        let mut x = vec![0.0f64; n];
        for (j, xj) in x.iter_mut().enumerate() {
            if problem.objective()[j] > EPS {
                let u = problem.upper_bound(j);
                if u.is_infinite() {
                    return LpSolution::with_status(LpStatus::Unbounded, 0);
                }
                *xj = u;
            }
        }
        return LpSolution {
            objective: problem.objective_value(&x),
            variables: x,
            ..LpSolution::with_status(LpStatus::Optimal, 0)
        };
    }

    let mut solver = Solver::new(problem);
    let max_iters = 200 * (solver.m() + solver.matrix.ncols()) + 2000;
    if let Err(status) = solver.optimize(max_iters) {
        let s = LpSolution::with_status(status, solver.iterations);
        return solver.telemetry(s);
    }

    let x = solver.extract();
    let objective = problem.objective_value(&x);
    let s = LpSolution {
        objective,
        variables: x,
        ..LpSolution::with_status(LpStatus::Optimal, solver.iterations)
    };
    solver.telemetry(s)
}

#[cfg(test)]
mod tests {
    use crate::dense;
    use crate::problem::LpProblem;
    use crate::solution::LpStatus;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// Runs the same program through the sparse engine and the dense
    /// tableau reference and checks they agree before returning the sparse
    /// solution.
    fn solve_both(p: &LpProblem) -> crate::solution::LpSolution {
        let sparse = p.solve();
        let dense = dense::solve(p);
        assert_eq!(sparse.status, dense.status, "engine status disagreement");
        if sparse.status == LpStatus::Optimal {
            assert_close(sparse.objective, dense.objective);
        }
        sparse
    }

    #[test]
    fn simple_two_variable_maximum() {
        // max 3x + 2y, x + y <= 4, x <= 2, y <= 3 -> x=2, y=2, obj=10.
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(0, 3.0);
        p.set_objective_coefficient(1, 2.0);
        p.add_le_constraint(&[(0, 1.0), (1, 1.0)], 4.0);
        p.set_upper_bound(0, 2.0);
        p.set_upper_bound(1, 3.0);
        let s = solve_both(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 10.0);
        assert_close(s.variables[0], 2.0);
        assert_close(s.variables[1], 2.0);
        assert!(p.is_feasible(&s.variables, 1e-7));
    }

    #[test]
    fn classic_production_problem() {
        // max 5x + 4y; 6x + 4y <= 24; x + 2y <= 6 -> x=3, y=1.5, obj=21.
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(0, 5.0);
        p.set_objective_coefficient(1, 4.0);
        p.add_le_constraint(&[(0, 6.0), (1, 4.0)], 24.0);
        p.add_le_constraint(&[(0, 1.0), (1, 2.0)], 6.0);
        let s = solve_both(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 21.0);
        assert_close(s.variables[0], 3.0);
        assert_close(s.variables[1], 1.5);
    }

    #[test]
    fn unbounded_program_is_detected() {
        // max x with only x - y <= 1: x = 1 + y grows without limit.
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(0, 1.0);
        p.add_le_constraint(&[(0, 1.0), (1, -1.0)], 1.0);
        assert_eq!(solve_both(&p).status, LpStatus::Unbounded);
    }

    #[test]
    fn upper_bound_tames_an_otherwise_unbounded_program() {
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(0, 1.0);
        p.add_le_constraint(&[(0, 1.0), (1, -1.0)], 1.0);
        p.set_upper_bound(0, 7.5);
        let s = solve_both(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 7.5);
    }

    #[test]
    fn unconstrained_problems() {
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(0, 1.0);
        assert_eq!(solve_both(&p).status, LpStatus::Unbounded);

        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(0, -1.0);
        let s = solve_both(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 0.0);
        assert_eq!(s.variables, vec![0.0, 0.0]);
    }

    #[test]
    fn unconstrained_problem_with_bounds_solves_directly() {
        // No rows at all: variables run to their preferred bound.
        let mut p = LpProblem::new(3);
        p.set_objective_coefficient(0, 2.0);
        p.set_objective_coefficient(1, -1.0);
        p.set_upper_bound(0, 4.0);
        p.set_upper_bound(1, 9.0);
        p.set_upper_bound(2, 1.0);
        let s = solve_both(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 8.0);
        assert_close(s.variables[0], 4.0);
        assert_close(s.variables[1], 0.0);
        assert_eq!(s.iterations, 0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic cycling-prone example (Beale); Bland fallback must save us.
        let mut p = LpProblem::new(4);
        p.set_objective_coefficient(0, 0.75);
        p.set_objective_coefficient(1, -150.0);
        p.set_objective_coefficient(2, 0.02);
        p.set_objective_coefficient(3, -6.0);
        p.add_le_constraint(&[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], 0.0);
        p.add_le_constraint(&[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], 0.0);
        p.add_le_constraint(&[(2, 1.0)], 1.0);
        let s = solve_both(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 0.05);
    }

    #[test]
    fn zero_rhs_row_is_tight_at_the_optimum() {
        // max x; x - y <= 0; y <= 2 -> x = 2.
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(0, 1.0);
        p.add_le_constraint(&[(0, 1.0), (1, -1.0)], 0.0);
        p.set_upper_bound(1, 2.0);
        let s = solve_both(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn flow_like_chain_program() {
        // Mimics the paper's formulation for a 3-edge chain: the quantity on
        // each downstream interaction is bounded by what arrived upstream.
        // x0 <= 5 (from source, fixed), x1 <= 4, x1 <= x0, x2 <= 6, x2 <= x1.
        // Maximize x2 -> 4.
        let mut p = LpProblem::new(3);
        p.set_objective_coefficient(2, 1.0);
        p.set_upper_bound(0, 5.0);
        p.set_upper_bound(1, 4.0);
        p.set_upper_bound(2, 6.0);
        p.add_le_constraint(&[(1, 1.0), (0, -1.0)], 0.0);
        p.add_le_constraint(&[(2, 1.0), (1, -1.0)], 0.0);
        let s = solve_both(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 4.0);
    }

    #[test]
    fn redundant_constraints_do_not_confuse_the_solver() {
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(0, 1.0);
        p.set_objective_coefficient(1, 1.0);
        for _ in 0..5 {
            p.add_le_constraint(&[(0, 1.0), (1, 1.0)], 7.0);
        }
        p.set_upper_bound(0, 4.0);
        p.set_upper_bound(1, 4.0);
        let s = solve_both(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 7.0);
    }

    #[test]
    fn repeated_rows_with_a_zero_rhs_tie() {
        // max x; x + y <= 4 stated twice plus x - y <= 0 -> x = y = 2.
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(0, 1.0);
        p.add_le_constraint(&[(0, 1.0), (1, 1.0)], 4.0);
        p.add_le_constraint(&[(0, 1.0), (1, 1.0)], 4.0);
        p.add_le_constraint(&[(0, 1.0), (1, -1.0)], 0.0);
        let s = solve_both(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
        assert_close(s.variables[1], 2.0);
    }

    #[test]
    fn fixed_variables_are_respected() {
        // x fixed at 0 by its bound; max x + y with y <= 3 -> 3.
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(0, 1.0);
        p.set_objective_coefficient(1, 1.0);
        p.set_upper_bound(0, 0.0);
        p.set_upper_bound(1, 3.0);
        p.add_le_constraint(&[(0, 1.0), (1, 1.0)], 10.0);
        let s = solve_both(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 3.0);
        assert_close(s.variables[0], 0.0);
    }

    #[test]
    fn larger_random_feasible_program_is_solved_and_feasible() {
        // A pseudo-random but deterministic LP; we only assert that the
        // solver terminates with a feasible optimal point matching the
        // dense engine.
        let n = 12;
        let mut p = LpProblem::new(n);
        let mut state = 42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for j in 0..n {
            p.set_objective_coefficient(j, next());
            p.set_upper_bound(j, 1.0 + 4.0 * next());
        }
        for _ in 0..8 {
            let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, next())).collect();
            p.add_le_constraint(&coeffs, 3.0 + 5.0 * next());
        }
        let s = solve_both(&p);
        assert_eq!(s.status, LpStatus::Optimal);
        assert!(p.is_feasible(&s.variables, 1e-6));
        assert!(s.objective >= -1e-9);
        assert_close(p.objective_value(&s.variables), s.objective);
    }

    #[test]
    fn refactorization_kicks_in_on_long_pivot_chains() {
        // A chain program long enough to force more pivots than the
        // refactorization interval (32 minimum): ~90 variables each bounded
        // by its predecessor.
        let n = 90;
        let mut p = LpProblem::new(n);
        p.set_objective_coefficient(n - 1, 1.0);
        p.set_upper_bound(0, 5.0);
        for j in 1..n {
            p.set_upper_bound(j, 5.0 + (j % 3) as f64);
            p.add_le_constraint(&[(j, 1.0), (j - 1, -1.0)], 0.0);
        }
        let s = p.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 5.0);
        assert!(
            s.refactorizations >= 1,
            "expected at least one refactorization, got {} over {} iterations",
            s.refactorizations,
            s.iterations
        );
        // Telemetry reflects a genuinely sparse matrix.
        assert!(s.matrix_density < 0.05, "density {}", s.matrix_density);
    }
}
