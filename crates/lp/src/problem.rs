//! Construction of linear programs: `max c · x` over `≤` rows with
//! non-negative right-hand sides and bounded non-negative variables, the
//! class the flow formulation produces.

use crate::simplex;
use crate::solution::LpSolution;

/// A linear program in the class the flow formulation produces:
///
/// ```text
/// maximize    c · x
/// subject to  aᵢ · x ≤ bᵢ      for every constraint i, with bᵢ ≥ 0
///             0 ≤ xⱼ ≤ uⱼ      for every variable j
/// ```
///
/// Every right-hand side is non-negative (`+∞` allowed), so `x = 0` is
/// feasible: both solvers start from the all-slack basis in one phase, and
/// no solve can end infeasible.
///
/// Upper bounds are first-class (`uⱼ = +∞` by default, see
/// [`LpProblem::set_upper_bound`]); the revised simplex handles them in the
/// ratio test instead of materializing one `≤` row per bound, which is what
/// keeps the flow formulation's constraint matrix small.
///
/// Coefficients are stored as `(row, var, value)` triplets — the natural
/// output of [`LpProblem::add_le_constraint`] — and assembled into a
/// compressed-sparse-column matrix only when a solve starts. Nothing is ever
/// densified.
#[derive(Debug, Clone)]
pub struct LpProblem {
    num_vars: usize,
    objective: Vec<f64>,
    upper: Vec<f64>,
    /// `(row, var, coefficient)` triplets, grouped by row in append order.
    pub(crate) entries: Vec<(usize, usize, f64)>,
    /// Right-hand side of each row (`≥ 0`, possibly `+∞`).
    pub(crate) rhs: Vec<f64>,
}

impl LpProblem {
    /// Creates a problem with `num_vars` non-negative variables, no upper
    /// bounds and an all-zero objective.
    pub fn new(num_vars: usize) -> Self {
        LpProblem {
            num_vars,
            objective: vec![0.0; num_vars],
            upper: vec![f64::INFINITY; num_vars],
            entries: Vec::new(),
            rhs: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraint rows added so far (variable bounds are not
    /// rows).
    pub fn num_constraints(&self) -> usize {
        self.rhs.len()
    }

    /// Number of stored constraint coefficients.
    pub fn num_nonzeros(&self) -> usize {
        self.entries.len()
    }

    /// Sets the objective coefficient of variable `var`.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    pub fn set_objective_coefficient(&mut self, var: usize, coeff: f64) {
        assert!(var < self.num_vars, "variable index {var} out of range");
        self.objective[var] = coeff;
    }

    /// Adds `delta` to the objective coefficient of variable `var`.
    pub fn add_objective_coefficient(&mut self, var: usize, delta: f64) {
        assert!(var < self.num_vars, "variable index {var} out of range");
        self.objective[var] += delta;
    }

    /// The dense objective vector.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Adds the row `coeffs · x ≤ rhs`.
    ///
    /// `coeffs` is a sparse list of `(variable, coefficient)` pairs; repeated
    /// variables are summed. The coefficients go straight into the sparse
    /// triplet store.
    ///
    /// `rhs = +∞` is legal (a row that never binds): the flow formulation's
    /// right-hand sides are sums of quantities, which reach it when finite
    /// quantities overflow.
    ///
    /// # Panics
    /// Panics if any variable index is out of range, any coefficient is NaN,
    /// or `rhs` is NaN or negative.
    pub fn add_le_constraint(&mut self, coeffs: &[(usize, f64)], rhs: f64) {
        assert!(
            !rhs.is_nan() && rhs >= 0.0,
            "constraint rhs must be a non-negative number, got {rhs}"
        );
        let row = self.rhs.len();
        let start = self.entries.len();
        for &(var, c) in coeffs {
            assert!(var < self.num_vars, "variable index {var} out of range");
            assert!(!c.is_nan(), "constraint coefficient must not be NaN");
            // Merge duplicates within this row (rows are short in practice).
            match self.entries[start..].iter_mut().find(|(_, v, _)| *v == var) {
                Some((_, _, existing)) => *existing += c,
                None => self.entries.push((row, var, c)),
            }
        }
        self.rhs.push(rhs);
    }

    /// Sets the upper bound `x_var ≤ bound`.
    ///
    /// This is a true variable bound handled by the simplex ratio test, not
    /// a constraint row. Repeated calls keep the tightest bound.
    ///
    /// # Panics
    /// Panics if `var` is out of range or `bound` is NaN or negative.
    pub fn set_upper_bound(&mut self, var: usize, bound: f64) {
        assert!(var < self.num_vars, "variable index {var} out of range");
        assert!(
            !bound.is_nan() && bound >= 0.0,
            "upper bound must be a non-negative number, got {bound}"
        );
        self.upper[var] = self.upper[var].min(bound);
    }

    /// The upper bound of variable `var` (`+∞` when unbounded).
    pub fn upper_bound(&self, var: usize) -> f64 {
        self.upper[var]
    }

    /// The per-variable upper bounds (`+∞` when unbounded).
    pub fn upper_bounds(&self) -> &[f64] {
        &self.upper
    }

    /// Solves the program with the sparse revised simplex.
    pub fn solve(&self) -> LpSolution {
        simplex::solve(self)
    }

    /// Evaluates the objective at a given point (useful for checking
    /// candidate solutions in tests).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Checks whether `x` satisfies every constraint and the `0 ≤ xⱼ ≤ uⱼ`
    /// bounds within tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars {
            return false;
        }
        if x.iter()
            .zip(&self.upper)
            .any(|(&v, &u)| v < -tol || v > u + tol || v.is_nan())
        {
            return false;
        }
        let mut lhs = vec![0.0f64; self.rhs.len()];
        for &(row, var, c) in &self.entries {
            lhs[row] += c * x[var];
        }
        lhs.iter().zip(&self.rhs).all(|(&l, &b)| l <= b + tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accessors() {
        let mut p = LpProblem::new(3);
        assert_eq!(p.num_vars(), 3);
        assert_eq!(p.num_constraints(), 0);
        p.set_objective_coefficient(0, 1.0);
        p.add_objective_coefficient(0, 2.0);
        p.set_objective_coefficient(2, -1.0);
        assert_eq!(p.objective(), &[3.0, 0.0, -1.0]);
        p.add_le_constraint(&[(0, 1.0), (1, 1.0)], 5.0);
        p.add_le_constraint(&[(2, 2.0)], 1.0);
        p.add_le_constraint(&[(0, 1.0), (2, -1.0)], f64::INFINITY);
        assert_eq!(p.num_constraints(), 3);
        assert_eq!(p.num_nonzeros(), 5);
        // Bounds are not rows.
        p.set_upper_bound(1, 9.0);
        assert_eq!(p.num_constraints(), 3);
        assert_eq!(p.upper_bound(1), 9.0);
        assert!(p.upper_bound(0).is_infinite());
    }

    #[test]
    fn duplicate_coefficients_are_merged() {
        let mut p = LpProblem::new(2);
        p.add_le_constraint(&[(0, 1.0), (0, 2.0), (1, 1.0)], 4.0);
        assert_eq!(p.entries, vec![(0, 0, 3.0), (0, 1, 1.0)]);
    }

    #[test]
    fn repeated_upper_bounds_keep_the_tightest() {
        let mut p = LpProblem::new(1);
        p.set_upper_bound(0, 5.0);
        p.set_upper_bound(0, 7.0);
        assert_eq!(p.upper_bound(0), 5.0);
        p.set_upper_bound(0, 2.0);
        assert_eq!(p.upper_bound(0), 2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_objective_panics() {
        let mut p = LpProblem::new(1);
        p.set_objective_coefficient(1, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_constraint_panics() {
        let mut p = LpProblem::new(1);
        p.add_le_constraint(&[(3, 1.0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_upper_bound_panics() {
        let mut p = LpProblem::new(1);
        p.set_upper_bound(0, -1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rhs_panics() {
        let mut p = LpProblem::new(1);
        p.add_le_constraint(&[(0, -1.0)], -1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_rhs_panics() {
        let mut p = LpProblem::new(1);
        p.add_le_constraint(&[(0, 1.0)], f64::NAN);
    }

    #[test]
    fn feasibility_and_objective_evaluation() {
        let mut p = LpProblem::new(2);
        p.set_objective_coefficient(0, 1.0);
        p.set_objective_coefficient(1, 2.0);
        p.add_le_constraint(&[(0, 1.0), (1, 1.0)], 3.0);
        p.add_le_constraint(&[(1, 1.0), (0, -1.0)], 0.0);
        assert!(p.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!p.is_feasible(&[2.0, 2.0], 1e-9)); // violates the first row
        assert!(!p.is_feasible(&[0.0, 1.0], 1e-9)); // violates the second
        assert!(!p.is_feasible(&[-1.0, 0.0], 1e-9)); // negative
        assert!(!p.is_feasible(&[1.0], 1e-9)); // wrong arity
        assert_eq!(p.objective_value(&[1.0, 1.0]), 3.0);
    }

    #[test]
    fn feasibility_checks_upper_bounds() {
        let mut p = LpProblem::new(2);
        p.set_upper_bound(0, 1.5);
        assert!(p.is_feasible(&[1.5, 10.0], 1e-9));
        assert!(!p.is_feasible(&[2.0, 0.0], 1e-9));
    }
}
