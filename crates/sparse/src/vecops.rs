//! Dense-vector helpers used across the solver and the experiment harnesses.

/// Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Infinity norm.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// Dot product.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Componentwise maximum absolute difference.
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

/// A deterministic "interesting" right-hand side for experiments: entries
/// alternate in sign and vary in magnitude so triangular solves are
/// non-trivial at every index.
pub fn test_rhs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let s = if i % 2 == 0 { 1.0 } else { -1.0 };
            s * (1.0 + (i % 17) as f64 * 0.25)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rhs_is_deterministic_and_nonzero() {
        let a = test_rhs(40);
        let b = test_rhs(40);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| *v != 0.0));
        assert!(a[0] != a[2]); // varies in magnitude
    }

    #[test]
    fn max_abs_diff_basic() {
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[1.5, 4.0]), 1.0);
    }
}
