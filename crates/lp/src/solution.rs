//! Solver results.

/// Outcome of a simplex run. There is no infeasible outcome: an
/// [`LpProblem`](crate::LpProblem) has non-negative right-hand sides and a
/// circulation has no supplies, so the zero point is always feasible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The iteration limit was hit before reaching optimality (should not
    /// happen on the well-behaved programs produced by the flow
    /// formulation; reported rather than panicking).
    IterationLimit,
    /// The basis matrix became numerically singular and refactorization
    /// could not recover it (sparse revised engine only; reported rather
    /// than panicking).
    NumericalFailure,
}

/// Solution of a linear program, with enough telemetry to see *how* it was
/// solved (pivot counts, basis refactorizations, matrix sparsity).
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value at the returned point (0 unless `status` is
    /// [`LpStatus::Optimal`]).
    pub objective: f64,
    /// Values of the decision variables (empty unless `status` is
    /// [`LpStatus::Optimal`]).
    pub variables: Vec<f64>,
    /// Number of simplex iterations performed (pivots plus, for the revised
    /// engine, bound flips).
    pub iterations: usize,
    /// Number of basis refactorizations performed (always 0 for the dense
    /// tableau reference, which has no factorized basis).
    pub refactorizations: usize,
    /// Nonzero entries in the constraint matrix the solver actually worked
    /// on (the dense tableau counts its bound-expanded rows).
    pub matrix_nonzeros: usize,
    /// `matrix_nonzeros` over the dense row × column size (0 for empty
    /// programs) — the observability hook for "how sparse was this LP".
    pub matrix_density: f64,
    /// Basis-changing pivots. For the dense tableau this equals
    /// `iterations`; the revised engine also counts bound flips in
    /// `iterations` but not here.
    pub pivots: usize,
    /// Pivots whose step length was (numerically) zero — the degeneracy
    /// observability hook for the engine-comparison tables.
    pub degenerate_pivots: usize,
}

impl LpSolution {
    /// Convenience constructor: the given status with all telemetry zeroed;
    /// builders fill in the rest via struct update syntax.
    pub(crate) fn with_status(status: LpStatus, iterations: usize) -> Self {
        LpSolution {
            status,
            objective: 0.0,
            variables: Vec::new(),
            iterations,
            refactorizations: 0,
            matrix_nonzeros: 0,
            matrix_density: 0.0,
            pivots: 0,
            degenerate_pivots: 0,
        }
    }

    /// Whether the solver proved optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_helpers() {
        let s = LpSolution::with_status(LpStatus::Unbounded, 3);
        assert!(!s.is_optimal());
        assert_eq!(s.iterations, 3);
        assert_eq!(s.objective, 0.0);
        assert_eq!(s.refactorizations, 0);
        assert!(s.variables.is_empty());
        let o = LpSolution {
            objective: 1.5,
            variables: vec![1.0],
            iterations: 1,
            ..LpSolution::with_status(LpStatus::Optimal, 1)
        };
        assert!(o.is_optimal());
    }
}
