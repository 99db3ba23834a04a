//! Dense linear algebra: matrices, vectors and LU factorisation.
//!
//! The MNA matrices of the circuits in this reproduction are tiny (a handful
//! of nodes), so a straightforward dense row-major matrix with partial-pivot
//! LU is the right tool — no sparse machinery needed.  The LU API is one
//! in-place pair, [`Matrix::factorise_in_place`] and
//! [`Matrix::solve_factored`], whose callers own every buffer, so a Newton
//! loop that sizes them once factorises and solves without allocating.

use std::ops::{Index, IndexMut};

use crate::error::SolverError;

/// A dense, row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Sets every entry to zero (reuses the allocation between transient
    /// steps).
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Adds `value` to entry `(row, col)` — the MNA "stamp" operation.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        self[(row, col)] += value;
    }

    /// LU-factorises the matrix in place with partial pivoting: afterwards
    /// it holds `L` (unit diagonal, below) and `U` (on and above the
    /// diagonal) of the row-permuted input, and `pivots[i]` is the input row
    /// that ended up in row `i`.  `pivots` is overwritten, so one buffer
    /// serves every factorisation of a size without reallocating, and one
    /// factorisation serves any number of right-hand sides through
    /// [`Matrix::solve_factored`].
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] for a non-square matrix and
    /// [`SolverError::SingularMatrix`] when a pivot column has no usable
    /// pivot (the matrix is then partially overwritten).
    pub fn factorise_in_place(&mut self, pivots: &mut Vec<usize>) -> Result<(), SolverError> {
        if self.rows != self.cols {
            return Err(SolverError::DimensionMismatch {
                context: "Matrix::factorise_in_place (square matrix required)",
                expected: self.rows,
                actual: self.cols,
            });
        }
        let n = self.rows;
        pivots.clear();
        pivots.extend(0..n);
        for k in 0..n {
            // Partial pivoting: find the largest entry in column k at or
            // below the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = self[(k, k)].abs();
            for i in (k + 1)..n {
                let v = self[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < 1e-300 {
                return Err(SolverError::SingularMatrix { column: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = self[(k, j)];
                    self[(k, j)] = self[(pivot_row, j)];
                    self[(pivot_row, j)] = tmp;
                }
                pivots.swap(k, pivot_row);
            }
            for i in (k + 1)..n {
                let factor = self[(i, k)] / self[(k, k)];
                self[(i, k)] = factor;
                for j in (k + 1)..n {
                    let delta = factor * self[(k, j)];
                    self[(i, j)] -= delta;
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` into `x`, where `self` and `pivots` are the output
    /// of [`Matrix::factorise_in_place`].
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] when `b` or `x` has the
    /// wrong length.
    pub fn solve_factored(
        &self,
        pivots: &[usize],
        b: &[f64],
        x: &mut [f64],
    ) -> Result<(), SolverError> {
        let n = self.rows;
        for len in [b.len(), x.len()] {
            if len != n {
                return Err(SolverError::DimensionMismatch {
                    context: "Matrix::solve_factored",
                    expected: n,
                    actual: len,
                });
            }
        }
        // Apply the row permutation.
        for (xi, &p) in x.iter_mut().zip(pivots) {
            *xi = b[p];
        }
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let mut sum = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                sum -= self[(i, j)] * xj;
            }
            x[i] = sum;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for (j, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
                sum -= self[(i, j)] * xj;
            }
            x[i] = sum / self[(i, i)];
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        &mut self.data[row * self.cols + col]
    }
}

/// Infinity norm of a vector.
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A square matrix from its rows.
    fn square(rows: &[&[f64]]) -> Matrix {
        let mut a = Matrix::zeros(rows.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                a[(i, j)] = v;
            }
        }
        a
    }

    /// Factorises `a` and solves `a·x = b` through the in-place pair.
    fn solve(mut a: Matrix, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        let mut pivots = Vec::new();
        a.factorise_in_place(&mut pivots)?;
        let mut x = vec![0.0; b.len()];
        a.solve_factored(&pivots, b, &mut x)?;
        Ok(x)
    }

    /// `a·x`, the residual check of the solve tests.
    fn mul(a: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..x.len())
            .map(|i| (0..x.len()).map(|j| a[(i, j)] * x[j]).sum())
            .collect()
    }

    #[test]
    fn known_3x3_system() {
        let a = square(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = solve(a, &[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let x = solve(square(&[&[0.0, 1.0], &[1.0, 0.0]]), &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_rejected() {
        assert!(matches!(
            solve(square(&[&[1.0, 2.0], &[2.0, 4.0]]), &[1.0, 2.0]),
            Err(SolverError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        assert!(Matrix::zeros(2, 3)
            .factorise_in_place(&mut Vec::new())
            .is_err());
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let mut lu = square(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let mut pivots = Vec::new();
        lu.factorise_in_place(&mut pivots).unwrap();
        assert!(lu
            .solve_factored(&pivots, &[1.0, 2.0, 3.0], &mut [0.0; 2])
            .is_err());
        assert!(lu
            .solve_factored(&pivots, &[1.0, 2.0], &mut [0.0; 3])
            .is_err());
    }

    #[test]
    fn stamp_add_and_clear() {
        let mut a = Matrix::zeros(2, 2);
        a.add(0, 0, 1.5);
        a.add(0, 0, 0.5);
        assert_eq!(a[(0, 0)], 2.0);
        a.clear();
        assert_eq!(a[(0, 0)], 0.0);
    }

    #[test]
    fn vector_infinity_norm() {
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
    }

    #[test]
    fn lu_reuse_for_multiple_rhs() {
        let a = square(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let mut lu = a.clone();
        let mut pivots = Vec::new();
        lu.factorise_in_place(&mut pivots).unwrap();
        let mut x = [0.0; 2];
        for b in [[1.0, 0.0], [0.0, 1.0], [5.0, -2.0]] {
            lu.solve_factored(&pivots, &b, &mut x).unwrap();
            let back = mul(&a, &x);
            assert!((back[0] - b[0]).abs() < 1e-12);
            assert!((back[1] - b[1]).abs() < 1e-12);
        }
    }

    proptest! {
        #[test]
        fn prop_solve_recovers_solution(
            seed in proptest::collection::vec(-10.0_f64..10.0, 9),
            x_true in proptest::collection::vec(-5.0_f64..5.0, 3),
        ) {
            // Build a diagonally dominant matrix so it is well conditioned.
            let mut a = Matrix::zeros(3, 3);
            for i in 0..3 {
                let mut row_sum = 0.0;
                for j in 0..3 {
                    if i != j {
                        a[(i, j)] = seed[i * 3 + j];
                        row_sum += seed[i * 3 + j].abs();
                    }
                }
                a[(i, i)] = row_sum + 1.0 + seed[i * 3 + i].abs();
            }
            let b = mul(&a, &x_true);
            let x = solve(a, &b).unwrap();
            for (xs, xt) in x.iter().zip(&x_true) {
                prop_assert!((xs - xt).abs() < 1e-8);
            }
        }

        #[test]
        fn prop_reused_workspace_matches_a_fresh_one_bit_for_bit(
            n in 1_usize..7,
            entries in proptest::collection::vec(-10.0_f64..10.0, 3 * 36),
            rhs in proptest::collection::vec(-5.0_f64..5.0, 3 * 6),
            shifts in proptest::collection::vec(0_usize..6, 3),
        ) {
            // One workspace serves three systems of the same size, as the
            // transient Newton loop reuses its buffers: stale pivots or a
            // stale solution from the previous system must not leak.
            let mut lu = Matrix::zeros(n, n);
            let mut pivots = Vec::new();
            let mut x = vec![0.0; n];
            for system in 0..3 {
                // Diagonally dominant rows (well conditioned), rotated by a
                // per-system shift so partial pivoting has to swap rows.
                let seed = &entries[system * 36..(system + 1) * 36];
                let mut a = Matrix::zeros(n, n);
                for i in 0..n {
                    let row = (i + shifts[system]) % n;
                    let mut off_diagonal = 0.0;
                    for j in (0..n).filter(|&j| j != i) {
                        a[(row, j)] = seed[i * 6 + j];
                        off_diagonal += seed[i * 6 + j].abs();
                    }
                    a[(row, i)] = off_diagonal + 1.0 + seed[i * 6 + i].abs();
                }
                let b = &rhs[system * 6..system * 6 + n];
                let fresh = solve(a.clone(), b).unwrap();

                lu.clear();
                for i in 0..n {
                    for j in 0..n {
                        lu[(i, j)] = a[(i, j)];
                    }
                }
                lu.factorise_in_place(&mut pivots).unwrap();
                lu.solve_factored(&pivots, b, &mut x).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&x), bits(&fresh));
            }
        }
    }
}
