//! Symmetric sparse storage: lower triangle (with diagonal) in CSC form.
//!
//! This is the input format consumed by the symbolic and numeric
//! factorization phases — exactly what a Rutherford-Boeing `rsa` file or the
//! lower triangle of a Matrix Market `symmetric` file holds. A [`SparseSym`]
//! is a [`SymPattern`] plus one value per stored entry; the analysis phase
//! reads only the pattern.

/// The sparsity pattern of a symmetric matrix: its lower triangle (diagonal
/// included) in CSC form, no values. Valid by construction — every column
/// starts with its diagonal and its rows are strictly increasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymPattern {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
}

impl SymPattern {
    /// Assemble from raw CSC parts of the lower triangle.
    ///
    /// # Panics
    /// Panics when the structure is inconsistent, a column is missing its
    /// diagonal entry, rows are unsorted, or an entry lies above the diagonal.
    pub fn from_parts(n: usize, col_ptr: Vec<usize>, row_idx: Vec<usize>) -> Self {
        assert_eq!(col_ptr.len(), n + 1);
        assert_eq!(*col_ptr.last().unwrap(), row_idx.len());
        for c in 0..n {
            let rows = &row_idx[col_ptr[c]..col_ptr[c + 1]];
            assert!(
                !rows.is_empty() && rows[0] == c,
                "column {c} must start with its diagonal"
            );
            for w in rows.windows(2) {
                assert!(
                    w[0] < w[1],
                    "rows must be strictly increasing within column {c}"
                );
            }
            assert!(
                *rows.last().unwrap() < n,
                "row index out of bounds in column {c}"
            );
        }
        SymPattern {
            n,
            col_ptr,
            row_idx,
        }
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored entries (lower triangle only).
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Column pointers.
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices of every column, concatenated.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Row indices of (lower-triangle) column `c`; `col_rows(c)[0] == c`.
    pub fn col_rows(&self, c: usize) -> &[usize] {
        &self.row_idx[self.col_ptr[c]..self.col_ptr[c + 1]]
    }

    /// The pattern of `P·A·Pᵀ` (with `perm[new] = old`).
    ///
    /// # Panics
    /// Panics when `perm` is not a permutation of `0..n`.
    pub fn permute(&self, perm: &[usize]) -> SymPattern {
        self.permute_with(&vec![(); self.nnz()], perm).0
    }

    /// The one symmetric permutation: `P·A·Pᵀ` of the lower triangle with
    /// one payload per entry (`()` for a bare pattern, `f64` for a matrix).
    ///
    /// Every stored `(r, c)` maps to `(max, min)` of its new indices. Two
    /// stable counting passes — bucket by new row, then by new column — leave
    /// each column's rows ascending without a comparison sort; a symmetric
    /// permutation never merges entries, so payloads move untouched.
    fn permute_with<T: Copy + Default>(
        &self,
        payload: &[T],
        perm: &[usize],
    ) -> (SymPattern, Vec<T>) {
        let n = self.n;
        assert_eq!(perm.len(), n);
        let mut new_of = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(
                old < n && new_of[old] == usize::MAX,
                "perm is not a permutation"
            );
            new_of[old] = new;
        }
        let nnz = self.nnz();
        // New (row, col) of every entry, and how many land in each.
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_ptr = vec![0usize; n + 1];
        let moved = |r: usize, c: usize| {
            let (a, b) = (new_of[r], new_of[c]);
            (a.max(b), a.min(b))
        };
        for c in 0..n {
            for &r in self.col_rows(c) {
                let (nr, nc) = moved(r, c);
                row_ptr[nr + 1] += 1;
                col_ptr[nc + 1] += 1;
            }
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
            col_ptr[i + 1] += col_ptr[i];
        }
        // Pass 1: bucket by new row.
        let mut by_row_col = vec![0usize; nnz];
        let mut by_row_val = vec![T::default(); nnz];
        let mut next = row_ptr.clone();
        for c in 0..n {
            let at = self.col_ptr[c];
            for (k, &r) in self.col_rows(c).iter().enumerate() {
                let (nr, nc) = moved(r, c);
                let slot = next[nr];
                next[nr] += 1;
                by_row_col[slot] = nc;
                by_row_val[slot] = payload[at + k];
            }
        }
        // Pass 2: rows ascending into their columns.
        let mut row_idx = vec![0usize; nnz];
        let mut out = vec![T::default(); nnz];
        next.copy_from_slice(&col_ptr);
        for nr in 0..n {
            for k in row_ptr[nr]..row_ptr[nr + 1] {
                let nc = by_row_col[k];
                let slot = next[nc];
                next[nc] += 1;
                row_idx[slot] = nr;
                out[slot] = by_row_val[k];
            }
        }
        (SymPattern::from_parts(n, col_ptr, row_idx), out)
    }
}

/// A symmetric matrix stored as its lower triangle (diagonal included).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSym {
    pattern: SymPattern,
    values: Vec<f64>,
}

impl SparseSym {
    /// Assemble from raw CSC parts of the lower triangle.
    ///
    /// # Panics
    /// Panics when the structure is inconsistent, a column is missing its
    /// diagonal entry, rows are unsorted, or an entry lies above the diagonal.
    pub fn from_parts(
        n: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_idx.len(), values.len());
        SparseSym::from_pattern(SymPattern::from_parts(n, col_ptr, row_idx), values)
    }

    /// Attach one value per stored entry (column-major pattern order) to an
    /// already validated pattern.
    ///
    /// # Panics
    /// Panics when `values.len() != pattern.nnz()`.
    pub fn from_pattern(pattern: SymPattern, values: Vec<f64>) -> Self {
        assert_eq!(pattern.nnz(), values.len(), "one value per stored entry");
        SparseSym { pattern, values }
    }

    /// The sparsity pattern (everything but the values).
    pub fn pattern(&self) -> &SymPattern {
        &self.pattern
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.pattern.n
    }

    /// Stored entries (lower triangle only).
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// Entries of the full symmetric matrix (`2·nnz − n`).
    pub fn nnz_full(&self) -> usize {
        2 * self.nnz() - self.n()
    }

    /// Column pointers.
    pub fn col_ptr(&self) -> &[usize] {
        &self.pattern.col_ptr
    }

    /// Row indices of (lower-triangle) column `c`; `col_rows(c)[0] == c`.
    pub fn col_rows(&self, c: usize) -> &[usize] {
        self.pattern.col_rows(c)
    }

    /// Values of (lower-triangle) column `c`.
    pub fn col_values(&self, c: usize) -> &[f64] {
        &self.values[self.pattern.col_ptr[c]..self.pattern.col_ptr[c + 1]]
    }

    /// Value at `(row, col)` of the full symmetric matrix.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (r, c) = if row >= col { (row, col) } else { (col, row) };
        match self.col_rows(c).binary_search(&r) {
            Ok(k) => self.col_values(c)[k],
            Err(_) => 0.0,
        }
    }

    /// Frobenius norm of the full symmetric matrix (off-diagonal entries
    /// counted twice). Used as the global scale of the block low-rank
    /// truncation threshold.
    pub fn frobenius_norm(&self) -> f64 {
        let mut s = 0.0f64;
        for c in 0..self.n() {
            for (k, &r) in self.col_rows(c).iter().enumerate() {
                let v = self.col_values(c)[k];
                s += if r == c { v * v } else { 2.0 * v * v };
            }
        }
        s.sqrt()
    }

    /// Symmetric matrix–vector product `y = A·x` using only the stored
    /// lower triangle.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n());
        let mut y = vec![0.0; self.n()];
        for c in 0..self.n() {
            let rows = self.col_rows(c);
            let vals = self.col_values(c);
            // Diagonal entry.
            y[c] += vals[0] * x[c];
            for k in 1..rows.len() {
                let r = rows[k];
                let v = vals[k];
                y[r] += v * x[c];
                y[c] += v * x[r];
            }
        }
        y
    }

    /// Expand to a full (both triangles) [`crate::Csc`].
    pub fn to_full_csc(&self) -> crate::Csc {
        let mut coo = crate::Coo::new(self.n(), self.n());
        for c in 0..self.n() {
            for (&r, &v) in self.col_rows(c).iter().zip(self.col_values(c)) {
                coo.push_sym(r, c, v).expect("in range");
            }
        }
        coo.to_csc()
    }

    /// Apply the symmetric permutation `P·A·Pᵀ` (with `perm[new] = old`) and
    /// return the permuted lower triangle. Linear in `nnz`: see
    /// [`SymPattern::permute`].
    ///
    /// Values move bit for bit, except that a stored `-0.0` comes back as
    /// `+0.0` — what summing triplets from zero did when this went through
    /// [`crate::Coo`], kept so a permuted matrix is the same bits as ever.
    ///
    /// # Panics
    /// Panics when `perm` is not a permutation of `0..n`.
    pub fn permute(&self, perm: &[usize]) -> SparseSym {
        let (pattern, mut values) = self.pattern.permute_with(&self.values, perm);
        for v in &mut values {
            *v += 0.0;
        }
        SparseSym { pattern, values }
    }

    /// Residual norm `‖A·x − b‖₂`.
    fn residual_norm(&self, x: &[f64], b: &[f64]) -> f64 {
        let ax = self.spmv(x);
        ax.iter()
            .zip(b)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Relative residual `‖A·x − b‖₂ / ‖b‖₂` (`‖b‖` floored at machine tiny
    /// to avoid division by zero).
    pub fn relative_residual(&self, x: &[f64], b: &[f64]) -> f64 {
        let bn = b
            .iter()
            .map(|v| v * v)
            .sum::<f64>()
            .sqrt()
            .max(f64::MIN_POSITIVE);
        self.residual_norm(x, b) / bn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn tridiag(n: usize) -> SparseSym {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 4.0).unwrap();
            if i + 1 < n {
                c.push_sym(i + 1, i, -1.0).unwrap();
            }
        }
        c.to_csc().to_lower_sym()
    }

    #[test]
    fn counts() {
        let s = tridiag(5);
        assert_eq!(s.n(), 5);
        assert_eq!(s.nnz(), 9);
        assert_eq!(s.nnz_full(), 13);
    }

    #[test]
    fn get_uses_symmetry() {
        let s = tridiag(4);
        assert_eq!(s.get(1, 2), -1.0);
        assert_eq!(s.get(2, 1), -1.0);
        assert_eq!(s.get(0, 3), 0.0);
    }

    #[test]
    fn spmv_matches_full_expansion() {
        let s = tridiag(6);
        let x: Vec<f64> = (0..6).map(|i| (i as f64) * 0.5 - 1.0).collect();
        let via_sym = s.spmv(&x);
        let via_full = s.to_full_csc().spmv(&x);
        for (a, b) in via_sym.iter().zip(&via_full) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn permute_preserves_spectrum_entrywise() {
        let s = tridiag(5);
        let perm = [4, 2, 0, 1, 3];
        let p = s.permute(&perm);
        for new_c in 0..5 {
            for new_r in 0..5 {
                assert_eq!(p.get(new_r, new_c), s.get(perm[new_r], perm[new_c]));
            }
        }
    }

    #[test]
    fn permute_matches_the_coo_oracle() {
        let s = crate::gen::random_spd(30, 5, 3);
        let perm: Vec<usize> = (0..30).map(|i| (i * 7 + 11) % 30).collect();
        let oracle = s.to_full_csc().permute_sym(&perm).to_lower_sym();
        assert_eq!(s.permute(&perm), oracle);
        assert_eq!(&s.pattern().permute(&perm), oracle.pattern());
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        // A = 4I on 3 nodes minus couplings; pick x, compute b = Ax.
        let s = tridiag(3);
        let x = [1.0, -2.0, 0.5];
        let b = s.spmv(&x);
        assert!(s.residual_norm(&x, &b) < 1e-14);
        assert!(s.relative_residual(&x, &b) < 1e-14);
    }

    #[test]
    #[should_panic(expected = "must start with its diagonal")]
    fn missing_diagonal_rejected() {
        SparseSym::from_parts(2, vec![0, 1, 2], vec![1, 1], vec![1.0, 1.0]);
    }
}
