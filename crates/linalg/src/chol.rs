//! Cholesky factorization for symmetric positive-definite systems.
//!
//! The affine projections inside the MPC and SVM proximal operators solve
//! `(M W⁻¹ Mᵀ) λ = r`, whose coefficient matrix is SPD whenever `M` has full
//! row rank. Cholesky is ~2× cheaper than LU and numerically ideal here.

use crate::{LinalgError, Matrix};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

const PD_EPS: f64 = 1e-13;

impl Cholesky {
    /// Factors the symmetric positive-definite matrix `a` (only the lower
    /// triangle is read).
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        assert_eq!(a.rows(), a.cols(), "Cholesky requires a square matrix");
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut acc = a[(i, j)];
                for k in 0..j {
                    acc -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if acc <= PD_EPS {
                        return Err(LinalgError::NotPositiveDefinite(i));
                    }
                    l[(i, i)] = acc.sqrt();
                } else {
                    l[(i, j)] = acc / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Matrix dimension.
    pub(crate) fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.dim(), "rhs dimension mismatch");
        let n = self.dim();
        let mut y = b.to_vec();
        // L y = b
        for i in 0..n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= self.l[(i, j)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        // Lᵀ x = y
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in i + 1..n {
                acc -= self.l[(j, i)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_known_spd() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        // L = [[2,0],[1,sqrt(2)]]
        assert!((ch.l()[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((ch.l()[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((ch.l()[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn l_lt_reconstructs() {
        let a = Matrix::from_rows(&[&[6.0, 3.0, 1.0], &[3.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose());
        assert!(rec.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn solve_matches_lu() {
        let a = Matrix::from_rows(&[&[6.0, 3.0, 1.0], &[3.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]);
        let b = [1.0, -2.0, 3.5];
        let x_ch = Cholesky::factor(&a).unwrap().solve(&b);
        let x_lu = crate::Lu::factor(&a).unwrap().solve(&b);
        for i in 0..3 {
            assert!((x_ch[i] - x_lu[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite(_))
        ));
    }

    #[test]
    fn identity_solve_is_identity() {
        let ch = Cholesky::factor(&Matrix::identity(4)).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ch.solve(&b), b.to_vec());
    }
}
