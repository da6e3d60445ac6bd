//! The argument pack handed to a proximal operator.

/// Borrowed views of one factor's slice of the ADMM state.
///
/// `n` and `x` are the factor's contiguous blocks of the global edge-ordered
/// arrays (`degree() * dims` scalars each); `rho` has one weight per edge.
pub struct ProxCtx<'a> {
    /// Proximal inputs `n(a,b)` for each edge of the factor, flattened.
    pub n: &'a [f64],
    /// Per-edge penalty weights `ρ(a,b)`.
    pub rho: &'a [f64],
    /// Output: the minimizer, written flattened like `n`.
    pub x: &'a mut [f64],
    /// Components per edge vector.
    pub dims: usize,
}

impl<'a> ProxCtx<'a> {
    /// Builds a context, checking shape consistency.
    ///
    /// # Panics
    /// If `n`/`x` lengths differ, are not a multiple of `dims`, or `rho`
    /// does not have one entry per edge.
    pub fn new(n: &'a [f64], rho: &'a [f64], x: &'a mut [f64], dims: usize) -> Self {
        // One multiply-compare covers "a multiple of dims" and "one rho per
        // edge"; which of the two failed is sorted out off the hot path.
        if dims == 0 || n.len() != x.len() || rho.len().checked_mul(dims) != Some(n.len()) {
            shape_mismatch(n.len(), rho.len(), x.len(), dims);
        }
        ProxCtx { n, rho, x, dims }
    }

    /// Number of edges (`|∂a|`) this factor touches.
    #[inline]
    pub fn degree(&self) -> usize {
        self.rho.len()
    }

    /// Copies `n` into `x` (identity prox), the starting point of many
    /// operators.
    #[inline]
    pub fn copy_n_to_x(&mut self) {
        // A factor block is a handful of scalars, for which the `memcpy`
        // call behind a variable-length `copy_from_slice` costs more than
        // the copy. Fixed-length pieces compile to plain moves.
        let len = self.n.len();
        if len > INLINE_COPY_MAX || self.x.len() != len {
            return self.x.copy_from_slice(self.n);
        }
        let mut j = 0;
        while j + 4 <= len {
            self.x[j..j + 4].copy_from_slice(&self.n[j..j + 4]);
            j += 4;
        }
        if j + 2 <= len {
            self.x[j..j + 2].copy_from_slice(&self.n[j..j + 2]);
            j += 2;
        }
        if j < len {
            self.x[j] = self.n[j];
        }
    }
}

/// Longest block [`ProxCtx::copy_n_to_x`] copies with an inline loop.
const INLINE_COPY_MAX: usize = 16;

/// The panic of [`ProxCtx::new`], with the message of the first check
/// that fails.
#[cold]
#[inline(never)]
fn shape_mismatch(n: usize, rho: usize, x: usize, dims: usize) -> ! {
    assert!(dims > 0, "dims must be positive");
    assert_eq!(n, x, "n and x must be the same shape");
    assert_eq!(n % dims, 0, "block length must be a multiple of dims");
    assert_eq!(rho, n / dims, "one rho per edge");
    unreachable!("ProxCtx::new found a shape mismatch none of its checks names")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let n = [1.0, 2.0, 3.0, 4.0];
        let rho = [1.0, 2.0];
        let mut x = [0.0; 4];
        let ctx = ProxCtx::new(&n, &rho, &mut x, 2);
        assert_eq!(ctx.degree(), 2);
        assert_eq!(ctx.dims, 2);
    }

    #[test]
    fn copy_n_to_x() {
        let n = [1.0, 2.0];
        let rho = [1.0, 1.0];
        let mut x = [0.0; 2];
        let mut ctx = ProxCtx::new(&n, &rho, &mut x, 1);
        ctx.copy_n_to_x();
        assert_eq!(x, n);
    }

    /// Every length through the inline pieces (4, 2, 1) and past them
    /// copies every scalar, bit for bit.
    #[test]
    fn copy_n_to_x_at_every_small_length() {
        for len in 0..=2 * INLINE_COPY_MAX {
            let n: Vec<f64> = (0..len)
                .map(|j| if j % 5 == 0 { -0.0 } else { j as f64 + 0.5 })
                .collect();
            let rho = vec![1.0; len];
            let mut x = vec![f64::NAN; len];
            ProxCtx::new(&n, &rho, &mut x, 1).copy_n_to_x();
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&x), bits(&n), "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "one rho per edge")]
    fn rho_shape_checked() {
        let n = [1.0, 2.0];
        let rho = [1.0];
        let mut x = [0.0; 2];
        let _ = ProxCtx::new(&n, &rho, &mut x, 1);
    }

    #[test]
    #[should_panic(expected = "multiple of dims")]
    fn block_length_checked() {
        let n = [1.0, 2.0, 3.0];
        let rho = [1.0];
        let mut x = [0.0; 3];
        let _ = ProxCtx::new(&n, &rho, &mut x, 2);
    }

    #[test]
    #[should_panic(expected = "same shape")]
    fn nx_shape_checked() {
        let n = [1.0, 2.0];
        let rho = [1.0];
        let mut x = [0.0; 3];
        let _ = ProxCtx::new(&n, &rho, &mut x, 2);
    }
}
