//! Free functions over `f64` slices.
//!
//! These are the hot inner loops of the m/u/n/z ADMM updates, so they are
//! written as simple indexed loops the compiler auto-vectorizes.

/// Dot product `xᵀy`. Panics if lengths differ (debug) — callers guarantee
/// equal lengths structurally.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = 0.0;
    for i in 0..x.len().min(y.len()) {
        acc += x[i] * y[i];
    }
    acc
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Squared Euclidean norm `‖x‖₂²`.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Squared distance `‖x − y‖₂²`.
#[inline]
pub fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = 0.0;
    for i in 0..x.len().min(y.len()) {
        let d = x[i] - y[i];
        acc += d * d;
    }
    acc
}

/// Euclidean distance `‖x − y‖₂`.
#[inline]
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    dist2_sq(x, y).sqrt()
}

/// `y ← y + a·x` (AXPY).
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for i in 0..x.len().min(y.len()) {
        y[i] += a * x[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm2_sq(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn distances() {
        assert_eq!(dist2(&[1.0, 1.0], &[4.0, 5.0]), 5.0);
        assert_eq!(dist2_sq(&[0.0], &[2.0]), 4.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = [1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, [7.0, 9.0]);
    }
}
