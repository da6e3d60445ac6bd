//! Projections onto affine subspaces `{s : M s = c}`.
//!
//! These are the backbone of equality-constrained proximal operators: the
//! MPC dynamics factor (`q(t+1) − q(t) = A q(t) + B u(t)`) and the SVM
//! consensus factor (`w₁ = w₂`) are both of this form.

use crate::{Cholesky, LinalgError, Matrix};

/// Projects `x` onto `{s : M s = c}` in the Euclidean norm:
///
/// `proj(x) = x − Mᵀ (M Mᵀ)⁻¹ (M x − c)`.
///
/// Requires `M` to have full row rank; otherwise returns an error.
pub fn project_affine(m: &Matrix, c: &[f64], x: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if c.len() != m.rows() {
        return Err(LinalgError::DimensionMismatch {
            expected: m.rows(),
            got: c.len(),
        });
    }
    if x.len() != m.cols() {
        return Err(LinalgError::DimensionMismatch {
            expected: m.cols(),
            got: x.len(),
        });
    }
    let mmt = m.aat();
    let ch = Cholesky::factor(&mmt)?;
    let mut r = m.matvec(x);
    for i in 0..r.len() {
        r[i] -= c[i];
    }
    let lambda = ch.solve(&r);
    let corr = m.matvec_t(&lambda);
    let mut s = x.to_vec();
    for i in 0..s.len() {
        s[i] -= corr[i];
    }
    Ok(s)
}

/// Weighted projection: `argmin_s Σᵢ wᵢ (sᵢ − xᵢ)²  s.t.  M s = c`, i.e. the
/// proximal map of the indicator of the affine set under a diagonal metric.
///
/// Solution: `s = x − W⁻¹ Mᵀ (M W⁻¹ Mᵀ)⁻¹ (M x − c)` with `W = diag(w)`.
/// All weights must be strictly positive.
pub fn project_affine_weighted(
    m: &Matrix,
    c: &[f64],
    x: &[f64],
    w: &[f64],
) -> Result<Vec<f64>, LinalgError> {
    if c.len() != m.rows() {
        return Err(LinalgError::DimensionMismatch {
            expected: m.rows(),
            got: c.len(),
        });
    }
    for len in [x.len(), w.len()] {
        if len != m.cols() {
            return Err(LinalgError::DimensionMismatch {
                expected: m.cols(),
                got: len,
            });
        }
    }
    let ch = Cholesky::factor(&weighted_gram(m.rows(), m.as_slice(), w))?;
    let mut r = m.matvec(x);
    for i in 0..r.len() {
        r[i] -= c[i];
    }
    let lambda = ch.solve(&r);
    let corr = m.matvec_t(&lambda);
    let mut s = x.to_vec();
    for i in 0..m.cols() {
        s[i] -= corr[i] / w[i];
    }
    Ok(s)
}

/// The Gram matrix `K = M W⁻¹ Mᵀ` of a row-major `rows × w.len()`
/// matrix `data` under the diagonal metric `W = diag(w)`: the system
/// [`project_affine_weighted`] factors. A caller that only needs to know
/// whether the projection factors builds it from borrowed data and
/// factors it, with the same bits the projection would see.
///
/// # Panics
/// If a weight is not strictly positive, or `data` is not
/// `rows · w.len()` long.
pub fn weighted_gram(rows: usize, data: &[f64], w: &[f64]) -> Matrix {
    assert!(
        w.iter().all(|&v| v > 0.0),
        "weights must be strictly positive"
    );
    let cols = w.len();
    assert_eq!(data.len(), rows * cols, "matrix data is not rows × cols");
    let mut k = Matrix::zeros(rows, rows);
    for i in 0..rows {
        let mi = &data[i * cols..(i + 1) * cols];
        for j in i..rows {
            let mj = &data[j * cols..(j + 1) * cols];
            let mut acc = 0.0;
            for t in 0..cols {
                acc += mi[t] * mj[t] / w[t];
            }
            k[(i, j)] = acc;
            k[(j, i)] = acc;
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn projection_satisfies_constraint() {
        // Plane x + y + z = 3.
        let m = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]);
        let p = project_affine(&m, &[3.0], &[5.0, -1.0, 2.0]).unwrap();
        assert!((p.iter().sum::<f64>() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn projection_of_feasible_point_is_identity() {
        let m = Matrix::from_rows(&[&[1.0, -1.0, 0.0], &[0.0, 1.0, -1.0]]);
        let x = [2.0, 2.0, 2.0]; // satisfies x0=x1=x2
        let p = project_affine(&m, &[0.0, 0.0], &x).unwrap();
        assert!(ops::dist2(&p, &x) < 1e-12);
    }

    #[test]
    fn projection_is_idempotent() {
        let m = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[0.0, 1.0, 3.0]]);
        let c = [1.0, -2.0];
        let p1 = project_affine(&m, &c, &[0.3, -0.7, 1.9]).unwrap();
        let p2 = project_affine(&m, &c, &p1).unwrap();
        assert!(ops::dist2(&p1, &p2) < 1e-10);
    }

    #[test]
    fn residual_is_orthogonal_to_nullspace() {
        // x - proj(x) must lie in range(Mᵀ): check (x-p) ⟂ any feasible direction.
        let m = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]);
        let x = [4.0, 0.0, 0.0];
        let p = project_affine(&m, &[3.0], &x).unwrap();
        let diff: Vec<f64> = x.iter().zip(&p).map(|(a, b)| a - b).collect();
        // Feasible directions span {(1,-1,0), (0,1,-1)}.
        assert!(ops::dot(&diff, &[1.0, -1.0, 0.0]).abs() < 1e-12);
        assert!(ops::dot(&diff, &[0.0, 1.0, -1.0]).abs() < 1e-12);
    }

    #[test]
    fn weighted_projection_reduces_to_unweighted_for_unit_weights() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, -1.0]]);
        let c = [0.5];
        let x = [1.0, -1.0, 0.25];
        let a = project_affine(&m, &c, &x).unwrap();
        let b = project_affine_weighted(&m, &c, &x, &[1.0, 1.0, 1.0]).unwrap();
        assert!(ops::dist2(&a, &b) < 1e-12);
    }

    #[test]
    fn weighted_projection_respects_weights() {
        // Constraint s0 = s1; heavy weight on s0 keeps s0 nearly fixed.
        let m = Matrix::from_rows(&[&[1.0, -1.0]]);
        let x = [0.0, 10.0];
        let p = project_affine_weighted(&m, &[0.0], &x, &[1e6, 1.0]).unwrap();
        assert!((p[0] - p[1]).abs() < 1e-9);
        assert!(
            p[0].abs() < 0.01,
            "heavy-weighted coordinate should barely move, got {}",
            p[0]
        );
    }

    #[test]
    fn weighted_equality_consensus_matches_closed_form() {
        // Paper Appendix C-4: w1 = w2 = (ρ1 n1 + ρ2 n2)/(ρ1 + ρ2).
        let m = Matrix::from_rows(&[&[1.0, -1.0]]);
        let (r1, r2, n1, n2) = (2.0, 3.0, 4.0, -1.0);
        let p = project_affine_weighted(&m, &[0.0], &[n1, n2], &[r1, r2]).unwrap();
        let expect = (r1 * n1 + r2 * n2) / (r1 + r2);
        assert!((p[0] - expect).abs() < 1e-12);
        assert!((p[1] - expect).abs() < 1e-12);
    }

    #[test]
    fn dimension_mismatch_errors() {
        let m = Matrix::from_rows(&[&[1.0, 1.0]]);
        assert!(project_affine(&m, &[1.0, 2.0], &[0.0, 0.0]).is_err());
        assert!(project_affine(&m, &[1.0], &[0.0]).is_err());
    }

    #[test]
    fn weighted_mismatch_reports_the_offending_length() {
        let m = Matrix::from_rows(&[&[1.0, 1.0]]);
        let mismatch = |got| LinalgError::DimensionMismatch { expected: 2, got };
        let short_w = project_affine_weighted(&m, &[1.0], &[0.0, 0.0], &[1.0]);
        assert_eq!(short_w.unwrap_err(), mismatch(1));
        let long_x = project_affine_weighted(&m, &[1.0], &[0.0; 3], &[1.0, 1.0]);
        assert_eq!(long_x.unwrap_err(), mismatch(3));
    }

    #[test]
    fn rank_deficient_constraint_errors() {
        let m = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        assert!(project_affine(&m, &[1.0, 2.0], &[0.0, 0.0]).is_err());
    }
}
