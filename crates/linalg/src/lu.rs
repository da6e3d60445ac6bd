//! LU factorization with partial pivoting.

use crate::{LinalgError, Matrix};

/// LU factorization `P A = L U` of a square matrix with partial pivoting.
///
/// Stores the combined `L\U` factors in-place plus the row permutation, and
/// solves `A x = b` by forward/back substitution.
#[derive(Debug, Clone)]
pub struct Lu {
    lu: Matrix,
    perm: Vec<usize>,
    sign: f64,
}

const PIVOT_EPS: f64 = 1e-13;

impl Lu {
    /// Factors `a`. Returns [`LinalgError::Singular`] if a pivot collapses.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        assert_eq!(a.rows(), a.cols(), "LU requires a square matrix");
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;

        for k in 0..n {
            // Partial pivot: largest |entry| in column k at/below the diagonal.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in k + 1..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < PIVOT_EPS {
                return Err(LinalgError::Singular(k));
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in k + 1..n {
                    let sub = factor * lu[(k, j)];
                    lu[(i, j)] -= sub;
                }
            }
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Matrix dimension.
    pub(crate) fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.dim(), "rhs dimension mismatch");
        let n = self.dim();
        // Apply permutation: y = P b.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in i + 1..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        x
    }

    /// Solves for several right-hand sides given as matrix columns.
    pub(crate) fn solve_matrix(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.rows(), self.dim(), "rhs row dimension mismatch");
        let mut out = Matrix::zeros(b.rows(), b.cols());
        let mut col = vec![0.0; b.rows()];
        for j in 0..b.cols() {
            for i in 0..b.rows() {
                col[i] = b[(i, j)];
            }
            let x = self.solve(&col);
            for i in 0..b.rows() {
                out[(i, j)] = x[i];
            }
        }
        out
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Inverse of the original matrix.
    pub fn inverse(&self) -> Matrix {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x);
        crate::ops::dist2(&ax, b)
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!(residual(&a, &x, &[3.0, 5.0]) < 1e-12);
    }

    #[test]
    fn solve_needs_pivoting() {
        // Zero on the initial diagonal forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[7.0, 9.0]);
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::factor(&a), Err(LinalgError::Singular(_))));
    }

    #[test]
    fn det_matches_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn det_sign_with_pivoting() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0, 2.0], &[3.0, 5.0, 1.0], &[8.0, 1.0, 6.0]]);
        let inv = Lu::factor(&a).unwrap().inverse();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-10);
    }

    #[test]
    fn solve_matrix_columnwise() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 4.0], &[4.0, 8.0]]);
        let x = Lu::factor(&a).unwrap().solve_matrix(&b);
        assert!(x.max_abs_diff(&Matrix::from_rows(&[&[1.0, 2.0], &[1.0, 2.0]])) < 1e-12);
    }

    #[test]
    fn random_solve_roundtrip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for n in [1usize, 2, 3, 5, 8, 12] {
            // Diagonally dominant => well-conditioned and nonsingular.
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = rng.gen_range(-1.0..1.0);
                }
                a[(i, i)] += n as f64;
            }
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let x = Lu::factor(&a).unwrap().solve(&b);
            assert!(residual(&a, &x, &b) < 1e-9, "n={n}");
        }
    }
}
