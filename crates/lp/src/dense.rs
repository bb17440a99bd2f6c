//! Dense primal simplex, retained as a test reference.
//!
//! This is the original baseline solver of this crate, a test reference and
//! not an engine. It stays as an independent implementation so that the
//! property tests can cross-check the sparse revised simplex
//! ([`crate::simplex`]) against it on the programs [`LpProblem`] holds,
//! where no other reference exists. The implementation follows the classic
//! full-tableau method:
//!
//! 1. every finite variable upper bound is expanded into an explicit
//!    `xⱼ ≤ uⱼ` row — the tableau has no native notion of bounds, and this
//!    is the very densification the revised simplex exists to avoid;
//! 2. each `≤` row gets a slack column, and the slacks form the starting
//!    basis (every right-hand side is non-negative, so `x = 0` is feasible
//!    and one phase suffices);
//! 3. the objective is optimized over the full tableau.
//!
//! Pricing is Dantzig's rule (most negative reduced cost); after a generous
//! number of pivots the solver switches to Bland's rule, which guarantees
//! termination in the presence of degeneracy.
//!
//! Do not use it outside tests.

use crate::problem::LpProblem;
use crate::solution::{LpSolution, LpStatus};

/// Numerical tolerance used for pivoting decisions.
const EPS: f64 = 1e-9;

/// A materialized `coeffs · x ≤ rhs` row.
struct Row {
    coeffs: Vec<(usize, f64)>,
    rhs: f64,
}

/// Rebuilds row-wise constraint storage from the problem's triplet store and
/// appends one `≤` row per finite variable upper bound.
fn materialize_rows(problem: &LpProblem) -> Vec<Row> {
    let mut rows: Vec<Row> = problem
        .rhs
        .iter()
        .map(|&rhs| Row {
            coeffs: Vec::new(),
            rhs,
        })
        .collect();
    for &(row, var, c) in &problem.entries {
        rows[row].coeffs.push((var, c));
    }
    for (var, &u) in problem.upper_bounds().iter().enumerate() {
        if u.is_finite() {
            rows.push(Row {
                coeffs: vec![(var, 1.0)],
                rhs: u,
            });
        }
    }
    rows
}

struct Tableau {
    /// Number of constraint rows.
    m: usize,
    /// Number of structural (decision) variables.
    n_struct: usize,
    /// Total number of columns excluding the RHS column.
    n_cols: usize,
    /// Row-major tableau rows, each of length `n_cols + 1` (last entry is
    /// the RHS).
    rows: Vec<Vec<f64>>,
    /// Objective row: reduced costs `z_j - c_j`, last entry is the current
    /// objective value.
    obj: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
}

impl Tableau {
    fn rhs(&self, i: usize) -> f64 {
        self.rows[i][self.n_cols]
    }

    /// Performs a pivot on (`row`, `col`): `col` enters the basis, the
    /// previous basic variable of `row` leaves.
    fn pivot(&mut self, row: usize, col: usize) {
        let pivot_val = self.rows[row][col];
        debug_assert!(pivot_val.abs() > EPS, "pivot on a (near) zero element");
        let inv = 1.0 / pivot_val;
        for v in self.rows[row].iter_mut() {
            *v *= inv;
        }
        // Borrow the pivot row out by value to keep the borrow checker happy
        // without cloning the whole row for every elimination.
        let pivot_row = std::mem::take(&mut self.rows[row]);
        for (i, r) in self.rows.iter_mut().enumerate() {
            if i == row {
                continue;
            }
            let factor = r[col];
            if factor.abs() > EPS {
                for (a, &p) in r.iter_mut().zip(pivot_row.iter()) {
                    *a -= factor * p;
                }
                r[col] = 0.0; // avoid numerical crumbs in the pivot column
            }
        }
        let factor = self.obj[col];
        if factor.abs() > EPS {
            for (a, &p) in self.obj.iter_mut().zip(pivot_row.iter()) {
                *a -= factor * p;
            }
            self.obj[col] = 0.0;
        }
        self.rows[row] = pivot_row;
        self.basis[row] = col;
    }

    /// Computes the objective row for maximizing `costs · x` given the
    /// current basis: `obj[j] = c_B · B⁻¹ A_j − c_j`, `obj[rhs] = c_B · B⁻¹ b`.
    /// Columns past the end of `costs` (the slacks) cost 0.
    fn price(&mut self, costs: &[f64]) {
        let mut obj = vec![0.0; self.n_cols + 1];
        for (j, o) in obj.iter_mut().enumerate().take(self.n_cols) {
            *o = -costs.get(j).copied().unwrap_or(0.0);
        }
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = costs.get(b).copied().unwrap_or(0.0);
            if cb != 0.0 {
                for (o, &a) in obj.iter_mut().zip(&self.rows[i]) {
                    *o += cb * a;
                }
            }
        }
        self.obj = obj;
    }

    /// Chooses the entering column, or `None` when the current basis is
    /// optimal.
    fn entering(&self, bland: bool) -> Option<usize> {
        if bland {
            (0..self.n_cols).find(|&j| self.obj[j] < -EPS)
        } else {
            let mut best = None;
            let mut best_val = -EPS;
            for j in 0..self.n_cols {
                if self.obj[j] < best_val {
                    best_val = self.obj[j];
                    best = Some(j);
                }
            }
            best
        }
    }

    /// Ratio test: chooses the leaving row for entering column `col`, or
    /// `None` when the problem is unbounded in that direction.
    fn leaving(&self, col: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.m {
            let a = self.rows[i][col];
            if a > EPS {
                let ratio = self.rhs(i) / a;
                match best {
                    None => best = Some((i, ratio)),
                    Some((bi, br)) => {
                        // Smaller ratio wins; ties broken by smaller basic
                        // variable index (lexicographic-ish, helps avoid
                        // cycling even under Dantzig pricing).
                        if ratio < br - EPS
                            || ((ratio - br).abs() <= EPS && self.basis[i] < self.basis[bi])
                        {
                            best = Some((i, ratio));
                        }
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }
}

/// Runs the simplex loop for the current objective row. Returns `Ok(())`
/// at optimality, `Err(status)` for unbounded / iteration-limit outcomes.
fn optimize(
    t: &mut Tableau,
    max_iters: usize,
    pivots: &mut usize,
    degenerate: &mut usize,
) -> Result<(), LpStatus> {
    let bland_threshold = max_iters / 2;
    let mut local = 0usize;
    loop {
        let bland = local >= bland_threshold;
        let Some(col) = t.entering(bland) else {
            return Ok(());
        };
        let Some(row) = t.leaving(col) else {
            return Err(LpStatus::Unbounded);
        };
        if t.rhs(row) / t.rows[row][col] <= EPS {
            *degenerate += 1;
        }
        t.pivot(row, col);
        *pivots += 1;
        local += 1;
        if local > max_iters {
            return Err(LpStatus::IterationLimit);
        }
    }
}

/// Solves `problem` with the dense tableau simplex.
pub fn solve(problem: &LpProblem) -> LpSolution {
    let n = problem.num_vars();
    let rows = materialize_rows(problem);
    let m = rows.len();
    let finish = |mut s: LpSolution, degenerate: usize| {
        // Every dense iteration is a pivot.
        s.pivots = s.iterations;
        s.degenerate_pivots = degenerate;
        // The tableau works on the bound-expanded row set; report the
        // size it actually solved.
        s.matrix_nonzeros = rows.iter().map(|r| r.coeffs.len()).sum();
        s.matrix_density = if m * n == 0 {
            0.0
        } else {
            s.matrix_nonzeros as f64 / (m * n) as f64
        };
        s
    };

    // Trivial case: no constraints and no finite bounds. Any variable with a
    // positive objective coefficient makes the program unbounded; otherwise
    // x = 0 is optimal.
    if m == 0 {
        return if problem.objective().iter().any(|&c| c > EPS) {
            finish(LpSolution::with_status(LpStatus::Unbounded, 0), 0)
        } else {
            finish(
                LpSolution {
                    variables: vec![0.0; n],
                    ..LpSolution::with_status(LpStatus::Optimal, 0)
                },
                0,
            )
        };
    }

    // --- Build the tableau -------------------------------------------------
    // Column layout: [structural 0..n) [slack n..n+m), slack n + i basic in
    // row i at the row's right-hand side.
    let n_cols = n + m;
    let mut trows = vec![vec![0.0; n_cols + 1]; m];
    for (i, row) in rows.iter().enumerate() {
        for &(var, c) in &row.coeffs {
            trows[i][var] += c;
        }
        trows[i][n + i] = 1.0;
        trows[i][n_cols] = row.rhs;
    }
    let mut tableau = Tableau {
        m,
        n_struct: n,
        n_cols,
        rows: trows,
        obj: vec![0.0; n_cols + 1],
        basis: (n..n_cols).collect(),
    };

    let max_iters = 200 * (m + n_cols) + 2000;
    let mut pivots = 0usize;
    let mut degenerate = 0usize;
    tableau.price(problem.objective());
    if let Err(status) = optimize(&mut tableau, max_iters, &mut pivots, &mut degenerate) {
        return finish(LpSolution::with_status(status, pivots), degenerate);
    }

    // --- Extract the solution ---------------------------------------------
    let mut x = vec![0.0; n];
    for (i, &b) in tableau.basis.iter().enumerate() {
        if b < tableau.n_struct {
            x[b] = tableau.rhs(i).max(0.0);
        }
    }
    let objective = problem.objective_value(&x);
    finish(
        LpSolution {
            objective,
            variables: x,
            ..LpSolution::with_status(LpStatus::Optimal, pivots)
        },
        degenerate,
    )
}
