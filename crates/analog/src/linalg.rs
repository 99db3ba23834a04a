//! Dense linear algebra: matrices, vectors and LU factorisation.
//!
//! The MNA matrices of the circuits in this reproduction are tiny (a handful
//! of nodes), so a straightforward dense row-major matrix with partial-pivot
//! LU is the right tool — no sparse machinery needed.

use std::fmt;
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

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a nested array of rows.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] when the rows have
    /// different lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, SolverError> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        for row in rows {
            if row.len() != n_cols {
                return Err(SolverError::DimensionMismatch {
                    context: "Matrix::from_rows",
                    expected: n_cols,
                    actual: row.len(),
                });
            }
        }
        Ok(Self {
            rows: n_rows,
            cols: n_cols,
            data: rows.iter().flatten().copied().collect(),
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
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

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] when `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, SolverError> {
        if x.len() != self.cols {
            return Err(SolverError::DimensionMismatch {
                context: "Matrix::mul_vec",
                expected: self.cols,
                actual: x.len(),
            });
        }
        if self.cols == 0 {
            return Ok(vec![0.0; self.rows]);
        }
        let result = self
            .data
            .chunks(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect();
        Ok(result)
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| {
                self.data[i * self.cols..(i + 1) * self.cols]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// LU-factorises the matrix (with partial pivoting) and solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::SingularMatrix`] when a pivot is numerically
    /// zero, or [`SolverError::DimensionMismatch`] for a non-square matrix
    /// or wrong-length right-hand side.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        let lu = LuFactorisation::new(self.clone())?;
        lu.solve(b)
    }

    /// LU-factorises the matrix in place with partial pivoting: afterwards
    /// it holds `L` (unit diagonal, below) and `U` (on and above the
    /// diagonal) of the row-permuted input, and `pivots[i]` is the input row
    /// that ended up in row `i`.  `pivots` is overwritten, so one buffer
    /// serves every factorisation of a size without reallocating — the
    /// allocation-free half of [`LuFactorisation::new`], which wraps it.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] for a non-square matrix and
    /// [`SolverError::SingularMatrix`] when a pivot column has no usable
    /// pivot (the matrix is then partially overwritten).
    pub fn factorise_in_place(&mut self, pivots: &mut Vec<usize>) -> Result<(), SolverError> {
        if self.rows != self.cols {
            return Err(SolverError::DimensionMismatch {
                context: "LuFactorisation::new (square matrix required)",
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
    /// of [`Matrix::factorise_in_place`] — the allocation-free half of
    /// [`LuFactorisation::solve`], which wraps it.
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
                    context: "LuFactorisation::solve",
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

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.4e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// An LU factorisation with partial pivoting, reusable for several
/// right-hand sides.
#[derive(Debug, Clone)]
pub struct LuFactorisation {
    lu: Matrix,
    pivots: Vec<usize>,
}

impl LuFactorisation {
    /// Factorises a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] for non-square input and
    /// [`SolverError::SingularMatrix`] when a pivot column has no usable
    /// pivot.
    pub fn new(mut a: Matrix) -> Result<Self, SolverError> {
        let mut pivots = Vec::new();
        a.factorise_in_place(&mut pivots)?;
        Ok(Self { lu: a, pivots })
    }

    /// Solves `A·x = b` using the stored factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] when `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        let mut x = vec![0.0; b.len()];
        self.lu.solve_factored(&self.pivots, b, &mut x)?;
        Ok(x)
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

    #[test]
    fn identity_solve_returns_rhs() {
        let a = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(a.solve(&b).unwrap(), b);
    }

    #[test]
    fn mul_vec_handles_zero_column_matrix() {
        let empty = Matrix::zeros(0, 0);
        assert_eq!(empty.mul_vec(&[]).unwrap(), Vec::<f64>::new());
        let tall = Matrix::zeros(3, 0);
        assert_eq!(tall.mul_vec(&[]).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn known_3x3_system() {
        let a = Matrix::from_rows(&[
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ])
        .unwrap();
        let b = vec![8.0, -11.0, -3.0];
        let x = a.solve(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(SolverError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(a.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let a = Matrix::identity(3);
        assert!(a.solve(&[1.0, 2.0]).is_err());
        let mut pivots = Vec::new();
        let mut lu = a.clone();
        lu.factorise_in_place(&mut pivots).unwrap();
        assert!(lu
            .solve_factored(&pivots, &[1.0, 2.0, 3.0], &mut [0.0; 2])
            .is_err());
        assert!(lu
            .solve_factored(&pivots, &[1.0, 2.0], &mut [0.0; 3])
            .is_err());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0]]).is_err());
    }

    #[test]
    fn mul_vec_and_norms() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, -4.0]]).unwrap();
        let y = a.mul_vec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, -1.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
        assert_eq!(a.norm_inf(), 7.0);
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
    }

    #[test]
    fn stamp_add_and_clear() {
        let mut a = Matrix::zeros(2, 2);
        a.add(0, 0, 1.5);
        a.add(0, 0, 0.5);
        assert_eq!(a[(0, 0)], 2.0);
        a.clear();
        assert_eq!(a[(0, 0)], 0.0);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 2);
    }

    #[test]
    fn display_formats_rows() {
        let a = Matrix::identity(2);
        let text = a.to_string();
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn lu_reuse_for_multiple_rhs() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let lu = LuFactorisation::new(a.clone()).unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [5.0, -2.0]] {
            let x = lu.solve(&b).unwrap();
            let back = a.mul_vec(&x).unwrap();
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
            let b = a.mul_vec(&x_true).unwrap();
            let x = a.solve(&b).unwrap();
            for (xs, xt) in x.iter().zip(&x_true) {
                prop_assert!((xs - xt).abs() < 1e-8);
            }
        }

        #[test]
        fn prop_in_place_pair_matches_the_wrapper_bit_for_bit(
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
                let wrapped = a.solve(b).unwrap();

                lu.clear();
                for i in 0..n {
                    for j in 0..n {
                        lu[(i, j)] = a[(i, j)];
                    }
                }
                lu.factorise_in_place(&mut pivots).unwrap();
                lu.solve_factored(&pivots, b, &mut x).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&x), bits(&wrapped));
            }
        }
    }
}
