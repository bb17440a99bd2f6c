//! Sparse linear-algebra substrate for the revised simplex.
//!
//! Two pieces live here:
//!
//! * [`CscMatrix`] — a compressed-sparse-column store for the constraint
//!   matrix (including the slack columns). The simplex only ever
//!   walks whole columns (pricing, FTRAN), which is exactly what CSC makes
//!   cheap.
//! * [`EtaFile`] — the basis inverse in product form. Every pivot appends
//!   one *eta* transformation; `B⁻¹ v` (FTRAN) applies them in order,
//!   `B⁻ᵀ v` (BTRAN) in reverse. When the file grows past a threshold the
//!   caller re-inverts the basis from scratch ([`EtaFile::refactorize`]),
//!   which both bounds memory and washes out accumulated rounding error.

/// Tolerance below which eta entries are dropped as numerical noise.
const DROP_TOL: f64 = 1e-12;

/// A sparse matrix in compressed-sparse-column form.
///
/// Row indices within a column are stored in insertion order (the simplex
/// never requires them sorted); duplicate `(row, col)` entries must be
/// merged by the caller before construction.
#[derive(Debug, Clone)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a matrix from `(row, col, value)` triplets via a counting
    /// sort over columns — `O(nnz + ncols)`, no densification.
    ///
    /// # Panics
    /// Panics if any index is out of range. Zero-valued triplets are kept
    /// (the caller controls what counts as a structural zero).
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut counts = vec![0usize; ncols + 1];
        for &(r, c, _) in triplets {
            assert!(r < nrows, "row index {r} out of range");
            assert!(c < ncols, "column index {c} out of range");
            counts[c + 1] += 1;
        }
        for c in 0..ncols {
            counts[c + 1] += counts[c];
        }
        let col_ptr = counts.clone();
        let nnz = triplets.len();
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut cursor = counts;
        for &(r, c, v) in triplets {
            let at = cursor[c];
            row_idx[at] = r;
            values[at] = v;
            cursor[c] += 1;
        }
        CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of stored entries over the dense size (0 for an empty
    /// matrix).
    pub fn density(&self) -> f64 {
        let dense = self.nrows * self.ncols;
        if dense == 0 {
            0.0
        } else {
            self.nnz() as f64 / dense as f64
        }
    }

    /// Iterates over the `(row, value)` nonzeros of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&r, &v)| (r, v))
    }

    /// Number of nonzeros in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Dot product of column `j` with a dense vector.
    #[inline]
    pub fn col_dot(&self, j: usize, x: &[f64]) -> f64 {
        self.col(j).map(|(r, v)| v * x[r]).sum()
    }

    /// Scatters column `j` into a dense vector (which must be zeroed by the
    /// caller), returning the touched rows.
    #[inline]
    pub fn scatter_col(&self, j: usize, out: &mut [f64]) {
        for (r, v) in self.col(j) {
            out[r] += v;
        }
    }
}

/// One product-form elementary transformation: pivoting on row `pivot_row`
/// with the (pre-pivot) column `w = B⁻¹ a_q`.
#[derive(Debug, Clone)]
struct Eta {
    pivot_row: usize,
    /// `w[pivot_row]` — never (near) zero.
    pivot_value: f64,
    /// Off-pivot nonzeros `(row, w[row])`.
    entries: Vec<(usize, f64)>,
}

/// The basis inverse as a sequence of eta transformations.
#[derive(Debug, Clone, Default)]
pub struct EtaFile {
    etas: Vec<Eta>,
    /// Total off-pivot nonzeros across the file (cheap growth metric).
    nnz: usize,
}

impl EtaFile {
    /// An empty file (represents the identity).
    pub fn new() -> Self {
        EtaFile::default()
    }

    /// Number of eta transformations accumulated since the last
    /// refactorization.
    pub fn len(&self) -> usize {
        self.etas.len()
    }

    /// Whether the file represents the identity.
    pub fn is_empty(&self) -> bool {
        self.etas.is_empty()
    }

    /// Clears the file back to the identity.
    pub fn clear(&mut self) {
        self.etas.clear();
        self.nnz = 0;
    }

    /// Appends the eta transformation of a pivot on `pivot_row` with FTRANed
    /// entering column `w` (dense, length = number of rows).
    pub fn push_pivot(&mut self, pivot_row: usize, w: &[f64]) {
        let pivot_value = w[pivot_row];
        debug_assert!(pivot_value.abs() > DROP_TOL, "pivot on a (near) zero");
        let entries: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(r, &v)| r != pivot_row && v.abs() > DROP_TOL)
            .map(|(r, &v)| (r, v))
            .collect();
        self.nnz += entries.len();
        self.etas.push(Eta {
            pivot_row,
            pivot_value,
            entries,
        });
    }

    /// FTRAN: overwrites `x` with `B⁻¹ x`, applying the etas in order.
    pub fn ftran(&self, x: &mut [f64]) {
        for eta in &self.etas {
            let xr = x[eta.pivot_row] / eta.pivot_value;
            if xr != 0.0 {
                for &(r, v) in &eta.entries {
                    x[r] -= v * xr;
                }
            }
            x[eta.pivot_row] = xr;
        }
    }

    /// BTRAN: overwrites `y` with `B⁻ᵀ y`, applying the etas in reverse.
    pub fn btran(&self, y: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut yr = y[eta.pivot_row];
            for &(r, v) in &eta.entries {
                yr -= v * y[r];
            }
            y[eta.pivot_row] = yr / eta.pivot_value;
        }
    }

    /// Re-inverts the basis from scratch: replaces the file with a fresh
    /// elimination sequence for the basis columns `basis` of `matrix`, and
    /// rewrites `basis` in the row order induced by the elimination (the
    /// variable of `basis[r]` is the one whose column pivots on row `r`).
    ///
    /// Columns are processed sparsest-first (a cheap Markowitz-style
    /// heuristic) with partial pivoting, so the rebuilt file is both sparser
    /// and numerically cleaner than the incremental one it replaces.
    ///
    /// Returns `false` if the basis matrix is (numerically) singular, in
    /// which case the file and `basis` are left in an unspecified but
    /// internally consistent state and the caller should abort.
    #[must_use]
    pub fn refactorize(&mut self, matrix: &CscMatrix, basis: &mut [usize]) -> bool {
        let m = matrix.nrows();
        debug_assert_eq!(basis.len(), m);
        self.clear();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&k| matrix.col_nnz(basis[k]));
        let mut row_done = vec![false; m];
        let mut new_basis = vec![usize::MAX; m];
        let mut work = vec![0.0f64; m];
        for &k in &order {
            let var = basis[k];
            matrix.scatter_col(var, &mut work);
            self.ftran(&mut work);
            // Partial pivoting over rows not yet assigned to a column.
            let mut pivot: Option<(usize, f64)> = None;
            for (r, &v) in work.iter().enumerate() {
                if !row_done[r] && v.abs() > pivot.map_or(DROP_TOL, |(_, pv)| pv.abs()) {
                    pivot = Some((r, v));
                }
            }
            let Some((r, _)) = pivot else {
                work.iter_mut().for_each(|v| *v = 0.0);
                return false; // singular
            };
            self.push_pivot(r, &work);
            row_done[r] = true;
            new_basis[r] = var;
            work.iter_mut().for_each(|v| *v = 0.0);
        }
        basis.copy_from_slice(&new_basis);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn csc_from_triplets_and_column_access() {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        let m = CscMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 1, 3.0), (0, 2, 2.0)]);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 3);
        assert!(approx(m.density(), 0.5));
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 1.0)]);
        assert_eq!(m.col(1).collect::<Vec<_>>(), vec![(1, 3.0)]);
        assert_eq!(m.col(2).collect::<Vec<_>>(), vec![(0, 2.0)]);
        assert_eq!(m.col_nnz(2), 1);
        assert!(approx(m.col_dot(2, &[5.0, 7.0]), 10.0));
    }

    #[test]
    fn empty_matrix_density_is_zero() {
        let m = CscMatrix::from_triplets(0, 0, &[]);
        assert_eq!(m.nnz(), 0);
        assert!(approx(m.density(), 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_triplet_panics() {
        CscMatrix::from_triplets(1, 1, &[(1, 0, 1.0)]);
    }

    #[test]
    fn eta_ftran_btran_invert_a_known_matrix() {
        // B = [2 1; 0 4] as columns of a CSC matrix.
        let b = CscMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 4.0)]);
        let mut basis = vec![0usize, 1usize];
        let mut file = EtaFile::new();
        assert!(file.refactorize(&b, &mut basis));
        // FTRAN: solve B x = [3, 8] -> x = [ (3 - 1*2)/2, 2 ] = [0.5, 2].
        let mut x = vec![3.0, 8.0];
        file.ftran(&mut x);
        assert!(approx(x[0], 0.5), "{x:?}");
        assert!(approx(x[1], 2.0), "{x:?}");
        // BTRAN: solve Bᵀ y = [2, 9] -> y0 = 1, y1 = (9 - 1*1)/4 = 2.
        let mut y = vec![2.0, 9.0];
        file.btran(&mut y);
        assert!(approx(y[0], 1.0), "{y:?}");
        assert!(approx(y[1], 2.0), "{y:?}");
    }

    #[test]
    fn refactorize_detects_singularity() {
        // Two identical columns.
        let b = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0)]);
        let mut basis = vec![0usize, 1usize];
        let mut file = EtaFile::new();
        assert!(!file.refactorize(&b, &mut basis));
    }

    #[test]
    fn incremental_pivot_matches_refactorized_solve() {
        // Start from the identity basis (columns 2, 3 of a matrix whose
        // first two columns are structural) and pivot column 0 in on row 0.
        let mat = CscMatrix::from_triplets(
            2,
            4,
            &[
                (0, 0, 3.0),
                (1, 0, 1.0),
                (1, 1, 5.0),
                (0, 2, 1.0),
                (1, 3, 1.0),
            ],
        );
        let mut file = EtaFile::new();
        // w = B⁻¹ a_0 = a_0 (identity basis).
        let mut w = vec![0.0; 2];
        mat.scatter_col(0, &mut w);
        file.ftran(&mut w);
        file.push_pivot(0, &w);
        assert_eq!(file.len(), 1);
        // New basis = [a0, e1]; check B⁻¹ [6, 5] = [2, 3].
        let mut x = vec![6.0, 5.0];
        file.ftran(&mut x);
        assert!(approx(x[0], 2.0), "{x:?}");
        assert!(approx(x[1], 3.0), "{x:?}");
        // Refactorizing the same basis gives the same action.
        let mut basis = vec![0usize, 3usize];
        let mut fresh = EtaFile::new();
        assert!(fresh.refactorize(&mat, &mut basis));
        let mut x2 = vec![6.0, 5.0];
        fresh.ftran(&mut x2);
        assert!(approx(x2[0], 2.0), "{x2:?}");
        assert!(approx(x2[1], 3.0), "{x2:?}");
        file.clear();
        assert!(file.is_empty());
    }
}
