//! Selected inversion: compute the entries of `A⁻¹` on the sparsity pattern
//! of the Cholesky factor `L`.
//!
//! This is the computation behind PEXSI, one of the two applications the
//! paper names as motivation in §5.3 ("evaluating specific elements of a
//! matrix inverse without explicitly inverting the matrix"). The recursion
//! (Takahashi; Lin et al.'s PEXSI formulation) processes columns in reverse:
//! with `J = {i > j : L(i,j) ≠ 0}` and `v = L(J,j)/L(j,j)`,
//!
//! ```text
//! S(J, j) = −S(J, J) · v
//! S(j, j) = 1/L(j,j)² − vᵀ · S(J, j)
//! ```
//!
//! All entries of `S(J,J)` referenced on the right are themselves inside the
//! factor's pattern (the classical closure property of the fill), so the
//! recursion never needs entries it hasn't computed.

use crate::driver::{SolverOptions, SymPack};
use crate::SolverError;
use sympack_ordering::Permutation;
use sympack_sparse::SparseSym;

/// The selected entries of `A⁻¹`, stored on the factor's pattern (in the
/// permuted ordering) with accessors in the original ordering.
#[derive(Debug)]
pub struct SelectedInverse {
    /// Column pattern (permuted indices): `rows[j][0] == j`.
    rows: Vec<Vec<usize>>,
    /// Matching values of `A⁻¹`.
    vals: Vec<Vec<f64>>,
    /// `inv[original] = permuted`.
    inv_perm: Vec<usize>,
}

impl SelectedInverse {
    /// Entry `A⁻¹(i, j)` in ORIGINAL indices, if it lies in the selected
    /// (factor) pattern; `None` otherwise.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        let (pi, pj) = (self.inv_perm[i], self.inv_perm[j]);
        let (r, c) = if pi >= pj { (pi, pj) } else { (pj, pi) };
        let k = self.rows[c].binary_search(&r).ok()?;
        Some(self.vals[c][k])
    }

    /// The full diagonal of `A⁻¹` in original indices (always selected).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.len())
            .map(|i| self.get(i, i).expect("diagonal is always in the pattern"))
            .collect()
    }

    /// Number of selected entries (lower triangle including diagonal).
    pub fn n_selected(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// Factor `A` (with the full distributed machinery) and run the selected
/// inversion on the gathered factor.
///
/// # Errors
/// Propagates factorization failures.
pub fn selected_inverse(
    a: &SparseSym,
    opts: &SolverOptions,
) -> Result<SelectedInverse, SolverError> {
    let gathered = SymPack::factor_gather(a, opts)?;
    let l = &gathered.l_permuted;
    let n = l.n();
    // Column arrays of L (pattern shared with S).
    let mut rows: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut lvals: Vec<Vec<f64>> = Vec::with_capacity(n);
    for c in 0..n {
        rows.push(l.col_rows(c).to_vec());
        lvals.push(l.col_values(c).to_vec());
    }
    let mut svals: Vec<Vec<f64>> = rows.iter().map(|r| vec![0.0; r.len()]).collect();
    // Reverse sweep with a scatter map: pos[r] = position of row r in J.
    let mut pos = vec![usize::MAX; n];
    let mut v = vec![0.0f64; n];
    let mut y = vec![0.0f64; n];
    for j in (0..n).rev() {
        let col = &rows[j];
        let ljj = lvals[j][0];
        let m = col.len() - 1; // |J|
        if m == 0 {
            svals[j][0] = 1.0 / (ljj * ljj);
            continue;
        }
        for (k, &r) in col[1..].iter().enumerate() {
            pos[r] = k;
            v[k] = lvals[j][k + 1] / ljj;
            y[k] = 0.0;
        }
        // y = S(J, J) · v using the computed columns of S.
        for (kb, &b) in col[1..].iter().enumerate() {
            let scol = &rows[b];
            let sv = &svals[b];
            for (idx, &r) in scol.iter().enumerate() {
                if r == b {
                    y[kb] += sv[idx] * v[kb];
                } else if pos[r] != usize::MAX {
                    let kr = pos[r];
                    y[kr] += sv[idx] * v[kb];
                    y[kb] += sv[idx] * v[kr];
                }
            }
        }
        // S(J, j) = −y ; S(j,j) = 1/ljj² − vᵀ S(J,j).
        let mut dot = 0.0;
        for k in 0..m {
            svals[j][k + 1] = -y[k];
            dot += v[k] * y[k];
        }
        svals[j][0] = 1.0 / (ljj * ljj) + dot;
        for &r in &col[1..] {
            pos[r] = usize::MAX;
        }
    }
    let inv = Permutation::from_vec(gathered.perm.as_slice().to_vec()).inverse();
    Ok(SelectedInverse {
        rows,
        vals: svals,
        inv_perm: inv.as_slice().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_dense::{KernelConfig, Mat};
    use sympack_sparse::gen::{laplacian_2d, random_spd};

    /// Dense inverse oracle via Cholesky.
    fn dense_inverse(a: &SparseSym) -> Mat {
        let n = a.n();
        let mut m = Mat::zeros(n, n);
        for c in 0..n {
            for r in 0..n {
                m[(r, c)] = a.get(r, c);
            }
        }
        sympack_dense::potrf_cfg(&KernelConfig::default(), &mut m).unwrap();
        m.zero_upper();
        // Solve for each unit vector.
        let mut inv = Mat::zeros(n, n);
        for c in 0..n {
            let mut e = vec![0.0; n];
            e[c] = 1.0;
            crate::trisolve::forward_subst(&m, &mut e);
            crate::trisolve::backward_subst(&m, &mut e);
            for r in 0..n {
                inv[(r, c)] = e[r];
            }
        }
        inv
    }

    #[test]
    fn matches_dense_inverse_on_selected_pattern() {
        let a = random_spd(40, 4, 8);
        let s = selected_inverse(&a, &SolverOptions::default()).unwrap();
        let dense = dense_inverse(&a);
        let mut checked = 0;
        for j in 0..40 {
            for i in j..40 {
                if let Some(v) = s.get(i, j) {
                    assert!(
                        (v - dense[(i, j)]).abs() < 1e-8 * dense[(i, j)].abs().max(1.0),
                        "S({i},{j}) = {v} vs dense {}",
                        dense[(i, j)]
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 40, "too few selected entries checked: {checked}");
    }

    #[test]
    fn diagonal_matches_dense_inverse() {
        let a = laplacian_2d(7, 6);
        let s = selected_inverse(&a, &SolverOptions::default()).unwrap();
        let dense = dense_inverse(&a);
        let diag = s.diagonal();
        for i in 0..a.n() {
            assert!((diag[i] - dense[(i, i)]).abs() < 1e-10, "diag {i}");
            assert!(diag[i] > 0.0, "inverse diagonal must be positive (SPD)");
        }
    }

    #[test]
    fn symmetric_accessor() {
        let a = random_spd(25, 3, 5);
        let s = selected_inverse(&a, &SolverOptions::default()).unwrap();
        for i in 0..25 {
            for j in 0..25 {
                assert_eq!(s.get(i, j), s.get(j, i));
            }
        }
    }

    #[test]
    fn distributed_factor_gives_same_selinv() {
        let a = random_spd(50, 4, 77);
        let serial = selected_inverse(
            &a,
            &SolverOptions {
                n_nodes: 1,
                ranks_per_node: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let dist = selected_inverse(
            &a,
            &SolverOptions {
                n_nodes: 2,
                ranks_per_node: 2,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..50 {
            let (a1, a2) = (serial.get(i, i).unwrap(), dist.get(i, i).unwrap());
            assert!((a1 - a2).abs() < 1e-9);
        }
    }
}
