//! Condition-number estimation from the sparse factor.
//!
//! `condest` returns an estimate of `κ₁(A) = ‖A‖₁ · ‖A⁻¹‖₁` using Hager's
//! power method on `‖A⁻¹‖₁` — each iteration costs one pair of triangular
//! solves against the gathered factor, never forming the inverse. A library
//! user runs this after a factorization to judge how many digits of the
//! computed solution to trust (standard solver-library functionality,
//! `?pocon` in LAPACK terms).

use crate::driver::{GatheredFactor, SolverOptions, SymPack};
use crate::SolverError;
use sympack_sparse::SparseSym;

/// 1-norm of the symmetric matrix (max column sum of absolute values).
pub fn norm1(a: &SparseSym) -> f64 {
    let n = a.n();
    let mut colsum = vec![0.0f64; n];
    for c in 0..n {
        let rows = a.col_rows(c);
        let vals = a.col_values(c);
        colsum[c] += vals[0].abs();
        for k in 1..rows.len() {
            colsum[c] += vals[k].abs();
            colsum[rows[k]] += vals[k].abs();
        }
    }
    colsum.into_iter().fold(0.0, f64::max)
}

/// Solve `A·x = b` using a gathered factor (serial sparse substitution).
pub fn solve_with_factor(g: &GatheredFactor, b: &[f64]) -> Vec<f64> {
    let l = &g.l_permuted;
    let n = l.n();
    let mut y = g.perm.apply_vec(b);
    // Forward: L y = b (column-oriented).
    for c in 0..n {
        let rows = l.col_rows(c);
        let vals = l.col_values(c);
        y[c] /= vals[0];
        let yc = y[c];
        for k in 1..rows.len() {
            y[rows[k]] -= vals[k] * yc;
        }
    }
    // Backward: Lᵀ x = y (column c of L is row c of Lᵀ).
    for c in (0..n).rev() {
        let rows = l.col_rows(c);
        let vals = l.col_values(c);
        let mut s = y[c];
        for k in 1..rows.len() {
            s -= vals[k] * y[rows[k]];
        }
        y[c] = s / vals[0];
    }
    g.perm.unapply_vec(&y)
}

/// Estimate `‖A⁻¹‖₁` by Hager's method using the factor (≤ `max_iter`
/// solve pairs; 5 is the classical choice).
fn inv_norm1_estimate(a: &SparseSym, g: &GatheredFactor, max_iter: usize) -> f64 {
    let n = a.n();
    let mut x = vec![1.0 / n as f64; n];
    let mut best = 0.0f64;
    let mut last_j = usize::MAX;
    for _ in 0..max_iter {
        let y = solve_with_factor(g, &x);
        let est: f64 = y.iter().map(|v| v.abs()).sum();
        best = best.max(est);
        let xi: Vec<f64> = y
            .iter()
            .map(|v| if *v >= 0.0 { 1.0 } else { -1.0 })
            .collect();
        let z = solve_with_factor(g, &xi); // A symmetric: Aᵀ = A
        let (mut j, mut zmax) = (0usize, 0.0f64);
        for (k, v) in z.iter().enumerate() {
            if v.abs() > zmax {
                zmax = v.abs();
                j = k;
            }
        }
        let ztx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
        if zmax <= ztx || j == last_j {
            break;
        }
        last_j = j;
        x = vec![0.0; n];
        x[j] = 1.0;
    }
    best
}

/// Estimate the 1-norm condition number `κ₁(A)`.
///
/// # Errors
/// Propagates factorization failures.
pub fn condest(a: &SparseSym, opts: &SolverOptions) -> Result<f64, SolverError> {
    let g = SymPack::factor_gather(a, opts)?;
    Ok(norm1(a) * inv_norm1_estimate(a, &g, 5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::{laplacian_2d, random_spd};
    use sympack_sparse::Coo;

    #[test]
    fn norm1_of_known_matrix() {
        // [[2, -1], [-1, 3]]: column sums 3 and 4.
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 2.0).unwrap();
        c.push(1, 1, 3.0).unwrap();
        c.push_sym(1, 0, -1.0).unwrap();
        let a = c.to_csc().to_lower_sym();
        assert_eq!(norm1(&a), 4.0);
    }

    #[test]
    fn diagonal_matrix_condition_is_ratio() {
        let mut c = Coo::new(4, 4);
        for (i, d) in [10.0, 2.0, 0.5, 5.0].iter().enumerate() {
            c.push(i, i, *d).unwrap();
        }
        let a = c.to_csc().to_lower_sym();
        let k = condest(&a, &SolverOptions::default()).unwrap();
        // Exact κ₁ = 10 / 0.5 = 20; Hager is exact for diagonal matrices.
        assert!((k - 20.0).abs() < 1e-10, "got {k}");
    }

    #[test]
    fn solve_with_factor_matches_driver_solve() {
        let a = random_spd(60, 4, 31);
        let b: Vec<f64> = (0..60).map(|i| (i % 7) as f64 - 3.0).collect();
        let opts = SolverOptions::default();
        let g = SymPack::factor_gather(&a, &opts).unwrap();
        let x1 = solve_with_factor(&g, &b);
        let x2 = SymPack::factor_and_solve(&a, &b, &opts).x;
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn laplacian_condition_grows_with_size() {
        // κ(Laplacian) ~ O(h^-2): the 16x16 grid must be markedly worse
        // conditioned than the 4x4 grid.
        let small = condest(&laplacian_2d(4, 4), &SolverOptions::default()).unwrap();
        let large = condest(&laplacian_2d(16, 16), &SolverOptions::default()).unwrap();
        assert!(large > 4.0 * small, "small={small}, large={large}");
        assert!(small > 1.0);
    }

    #[test]
    fn estimate_is_a_lower_bound_within_reason() {
        // Hager's estimate never exceeds the true norm and is usually within
        // a small factor; compare with the exact dense inverse 1-norm.
        let a = random_spd(30, 4, 3);
        let opts = SolverOptions::default();
        let g = SymPack::factor_gather(&a, &opts).unwrap();
        let est = inv_norm1_estimate(&a, &g, 5);
        // Exact ||A^{-1}||_1 by solving for all unit vectors.
        let mut exact = 0.0f64;
        for j in 0..30 {
            let mut e = vec![0.0; 30];
            e[j] = 1.0;
            let col = solve_with_factor(&g, &e);
            exact = exact.max(col.iter().map(|v| v.abs()).sum());
        }
        assert!(est <= exact * (1.0 + 1e-10), "estimate above true norm");
        assert!(est >= 0.3 * exact, "estimate too loose: {est} vs {exact}");
    }
}
