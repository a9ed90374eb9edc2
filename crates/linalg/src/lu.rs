#![allow(clippy::needless_range_loop)] // triangular index loops mirror the factorization math

use crate::{LinalgError, Matrix, Result, Vector};

/// LU decomposition with partial pivoting: `P * A = L * U`.
///
/// The factorization is stored compactly: `L` (unit lower triangular, implicit
/// unit diagonal) and `U` (upper triangular) share one matrix, and the row
/// permutation is stored as an index vector. A single factorization can be
/// reused for many right-hand sides — the absorbing-chain analysis in
/// `archrel-markov` exploits this to obtain absorption probabilities toward
/// every absorbing state from one decomposition of `I - Q`.
///
/// # Examples
///
/// ```
/// use archrel_linalg::{Lu, Matrix, Vector};
///
/// # fn main() -> Result<(), archrel_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = Lu::decompose(&a)?;
/// let x = lu.solve(&Vector::from_slice(&[3.0, 5.0]))?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (strictly lower, unit diagonal implied) and U (upper).
    factors: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<u32>,
    /// Number of row swaps performed (determinant sign).
    swaps: usize,
}

/// Pivots with absolute value below this threshold are treated as zero,
/// declaring the matrix numerically singular.
pub const SINGULARITY_EPS: f64 = 1e-300;

impl Lu {
    /// Factorizes `a` with partial (row) pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular input and
    /// [`LinalgError::Singular`] when a pivot collapses to (numerical) zero.
    pub fn decompose(a: &Matrix) -> Result<Lu> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut f = a.clone();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut swaps = 0;

        for k in 0..n {
            // Select the pivot row: largest |entry| in column k at or below k.
            let mut pivot_row = k;
            let mut pivot_val = f.get(k, k).abs();
            for i in (k + 1)..n {
                let v = f.get(i, k).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < SINGULARITY_EPS {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = f.get(k, j);
                    f.set(k, j, f.get(pivot_row, j));
                    f.set(pivot_row, j, tmp);
                }
                perm.swap(k, pivot_row);
                swaps += 1;
            }
            let pivot = f.get(k, k);
            for i in (k + 1)..n {
                let m = f.get(i, k) / pivot;
                f.set(i, k, m);
                if m == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    let v = f.get(i, j) - m * f.get(k, j);
                    f.set(i, j, v);
                }
            }
        }
        Ok(Lu {
            factors: f,
            perm,
            swaps,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.factors.rows()
    }

    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len() != self.dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "LU solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let f = self.factors.as_slice();
        // Apply permutation: y = P b.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p as usize]).collect();
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let mut s = x[i];
            for (j, xj) in x.iter().enumerate().take(i) {
                s -= f[i * n + j] * xj;
            }
            x[i] = s;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= f[i * n + j] * x[j];
            }
            x[i] = s / f[i * n + i];
        }
        Ok(Vector::from(x))
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `B.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "LU matrix solve",
                left: (n, n),
                right: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = self.solve(&b.col(j))?;
            for i in 0..n {
                out.set(i, j, col[i]);
            }
        }
        Ok(out)
    }

    /// Computes `A^{-1}` by solving against the identity.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors (none in practice for a valid `Lu`).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Determinant of the original matrix: product of `U`'s diagonal times
    /// the permutation sign.
    pub fn determinant(&self) -> f64 {
        let sign = if self.swaps.is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        (0..self.dim()).fold(sign, |d, i| d * self.factors.get(i, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &Vector, b: &Vector) -> f64 {
        (&a.mul_vector(x).unwrap() - b).norm_inf()
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Vector::from_slice(&[3.0, 5.0]);
        let x = a.solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let b = Vector::from_slice(&[2.0, 3.0]);
        let x = a.solve(&b).unwrap();
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn rectangular_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = a.inverse().unwrap();
        let prod = a.mul_matrix(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(2)) < 1e-12);
    }

    #[test]
    fn determinant_sign_with_swaps() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((a.determinant().unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_matrix_identity_gives_inverse() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 5.0]]).unwrap();
        let lu = a.lu().unwrap();
        let inv = lu.solve_matrix(&Matrix::identity(2)).unwrap();
        assert!(
            a.mul_matrix(&inv)
                .unwrap()
                .max_abs_diff(&Matrix::identity(2))
                < 1e-12
        );
    }

    #[test]
    fn solve_dimension_mismatch() {
        let a = Matrix::identity(3);
        let lu = a.lu().unwrap();
        assert!(matches!(
            lu.solve(&Vector::zeros(2)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn larger_system_hilbert_like() {
        // A well-known moderately conditioned system.
        let n = 6;
        let a = Matrix::from_fn(n, n, |i, j| {
            1.0 / ((i + j + 1) as f64) + if i == j { 1.0 } else { 0.0 }
        });
        let xs = Vector::from_slice(&[1.0, -2.0, 3.0, -4.0, 5.0, -6.0]);
        let b = a.mul_vector(&xs).unwrap();
        let x = a.solve(&b).unwrap();
        assert!(x.max_abs_diff(&xs) < 1e-9);
    }
}
