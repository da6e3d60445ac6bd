//! Row-major dense matrix.

/// Row-major dense `f64` matrix.
///
/// Sized for the small systems parADMM proximal operators solve (the MPC
/// dynamics projection is 4×10); all operations are plain O(n³)/O(n²) loops.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from nested row slices.
    ///
    /// # Panics
    /// If rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// The `n × n` identity.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the row-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    /// If `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a pre-allocated output.
    pub(crate) fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output dimension mismatch");
        for i in 0..self.rows {
            y[i] = crate::ops::dot(self.row(i), x);
        }
    }

    /// Transposed matrix–vector product `Aᵀ x`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            let row = self.row(i);
            for j in 0..self.cols {
                y[j] += row[j] * xi;
            }
        }
        y
    }

    /// Matrix product `A B`.
    ///
    /// # Panics
    /// If inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        out
    }

    /// `A Aᵀ` (used by affine projections).
    pub(crate) fn aat(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.rows);
        for i in 0..self.rows {
            for j in i..self.rows {
                let v = crate::ops::dot(self.row(i), self.row(j));
                out[(i, j)] = v;
                out[(j, i)] = v;
            }
        }
        out
    }

    /// Scales every entry by `a`.
    pub fn scaled(&self, a: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * a).collect(),
        }
    }

    /// Maximum absolute entry difference against another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
    }

    #[test]
    fn construction_and_indexing() {
        let m = abc();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_and_diag() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3[(1, 1)], 1.0);
        assert_eq!(i3[(0, 1)], 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = abc();
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let m = abc();
        let mut y = [0.0; 2];
        m.matvec_into(&[2.0, -1.0], &mut y);
        assert_eq!(y.to_vec(), m.matvec(&[2.0, -1.0]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = abc();
        assert_eq!(m.matmul(&Matrix::identity(2)), m);
        assert_eq!(Matrix::identity(2).matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn aat_is_symmetric_and_correct() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 1.0, -1.0]]);
        let s = a.aat();
        assert_eq!(s.rows(), 2);
        assert_eq!(s[(0, 0)], 14.0);
        assert_eq!(s[(0, 1)], s[(1, 0)]);
        assert_eq!(s[(0, 1)], -1.0);
    }

    #[test]
    fn norms_and_diff() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[3.0, 1.0]]);
        assert_eq!(a.max_abs_diff(&b), 3.0);
    }
}
