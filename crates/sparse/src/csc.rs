//! Compressed-sparse-column storage.
//!
//! The canonical container for a fully-stored (both triangles) sparse matrix.
//! Column pointers, row indices (sorted within each column) and values.

use crate::sym::SparseSym;

/// A general sparse matrix in compressed-sparse-column form.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    n_rows: usize,
    n_cols: usize,
    /// `col_ptr[c]..col_ptr[c+1]` indexes the entries of column `c`.
    col_ptr: Vec<usize>,
    /// Row index of each stored entry; sorted within each column.
    row_idx: Vec<usize>,
    /// Value of each stored entry.
    values: Vec<f64>,
}

impl Csc {
    /// Assemble from raw parts.
    ///
    /// # Panics
    /// Panics when the arrays are structurally inconsistent (wrong pointer
    /// length, unsorted or out-of-bounds rows).
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(col_ptr.len(), n_cols + 1, "col_ptr length must be n_cols+1");
        assert_eq!(
            *col_ptr.last().unwrap(),
            row_idx.len(),
            "col_ptr must end at nnz"
        );
        assert_eq!(row_idx.len(), values.len(), "row/value arrays must match");
        for c in 0..n_cols {
            let s = &row_idx[col_ptr[c]..col_ptr[c + 1]];
            for w in s.windows(2) {
                assert!(
                    w[0] < w[1],
                    "rows must be strictly increasing within a column"
                );
            }
            if let Some(&last) = s.last() {
                assert!(last < n_rows, "row index out of bounds");
            }
        }
        Csc {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Column pointer array (length `n_cols + 1`).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices of column `c`.
    pub fn col_rows(&self, c: usize) -> &[usize] {
        &self.row_idx[self.col_ptr[c]..self.col_ptr[c + 1]]
    }

    /// Values of column `c`.
    pub fn col_values(&self, c: usize) -> &[f64] {
        &self.values[self.col_ptr[c]..self.col_ptr[c + 1]]
    }

    /// Value at `(row, col)`, 0.0 when not stored. O(log nnz(col)).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let rows = self.col_rows(col);
        match rows.binary_search(&row) {
            Ok(k) => self.col_values(col)[k],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix–vector product `y = A·x`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols);
        let mut y = vec![0.0; self.n_rows];
        for (c, &xc) in x.iter().enumerate() {
            if xc == 0.0 {
                continue;
            }
            for (&r, &v) in self.col_rows(c).iter().zip(self.col_values(c)) {
                y[r] += v * xc;
            }
        }
        y
    }

    /// True when the matrix is structurally and numerically symmetric.
    pub fn is_symmetric(&self) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        for c in 0..self.n_cols {
            for (&r, &v) in self.col_rows(c).iter().zip(self.col_values(c)) {
                if self.get(c, r) != v {
                    return false;
                }
            }
        }
        true
    }

    /// Extract the lower triangle (including diagonal) as a [`SparseSym`].
    ///
    /// # Panics
    /// Panics when the matrix is not square.
    pub fn to_lower_sym(&self) -> SparseSym {
        assert_eq!(
            self.n_rows, self.n_cols,
            "symmetric view requires a square matrix"
        );
        let n = self.n_cols;
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for c in 0..n {
            for (&r, &v) in self.col_rows(c).iter().zip(self.col_values(c)) {
                if r >= c {
                    row_idx.push(r);
                    values.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        SparseSym::from_parts(n, col_ptr, row_idx, values)
    }

    /// Symmetric permutation `P·A·Pᵀ`, where `perm[new] = old`, through a
    /// [`crate::Coo`] round trip — the way [`SparseSym::permute`] used to
    /// work, kept as the oracle its counting sort is tested against.
    ///
    /// # Panics
    /// Panics when the matrix is not square or `perm` is not a permutation of
    /// `0..n`.
    #[cfg(test)]
    pub(crate) fn permute_sym(&self, perm: &[usize]) -> Csc {
        assert_eq!(self.n_rows, self.n_cols);
        let n = self.n_cols;
        assert_eq!(perm.len(), n);
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(
                old < n && inv[old] == usize::MAX,
                "perm is not a permutation"
            );
            inv[old] = new;
        }
        let mut coo = crate::coo::Coo::new(n, n);
        for c in 0..n {
            for (&r, &v) in self.col_rows(c).iter().zip(self.col_values(c)) {
                coo.push(inv[r], inv[c], v)
                    .expect("permuted index in range");
            }
        }
        coo.to_csc()
    }

    /// Dense representation (tests / tiny matrices only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.n_cols]; self.n_rows];
        for c in 0..self.n_cols {
            for (&r, &v) in self.col_rows(c).iter().zip(self.col_values(c)) {
                d[r][c] = v;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample() -> Csc {
        // [ 4 -1  0 ]
        // [-1  4 -1 ]
        // [ 0 -1  4 ]
        let mut c = Coo::new(3, 3);
        for i in 0..3 {
            c.push(i, i, 4.0).unwrap();
        }
        c.push_sym(1, 0, -1.0).unwrap();
        c.push_sym(2, 1, -1.0).unwrap();
        c.to_csc()
    }

    #[test]
    fn structure_accessors() {
        let m = sample();
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.col_rows(1), &[0, 1, 2]);
        assert_eq!(m.get(1, 0), -1.0);
        assert_eq!(m.get(2, 0), 0.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let y = m.spmv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![4.0 - 2.0, -1.0 + 8.0 - 3.0, -2.0 + 12.0]);
    }

    #[test]
    fn symmetry_check() {
        let m = sample();
        assert!(m.is_symmetric());
        let mut c = Coo::new(2, 2);
        c.push(0, 1, 1.0).unwrap();
        assert!(!c.to_csc().is_symmetric());
    }

    #[test]
    fn lower_extraction_keeps_diagonal_and_sub() {
        let s = sample().to_lower_sym();
        assert_eq!(s.n(), 3);
        assert_eq!(s.nnz(), 5); // 3 diagonal + 2 sub-diagonal
        assert_eq!(s.col_rows(0), &[0, 1]);
        assert_eq!(s.col_rows(2), &[2]);
    }

    #[test]
    fn permute_identity_is_noop() {
        let m = sample();
        assert_eq!(m.permute_sym(&[0, 1, 2]), m);
    }

    #[test]
    fn permute_reversal_flips_band() {
        let m = sample();
        let p = m.permute_sym(&[2, 1, 0]);
        assert!(p.is_symmetric());
        assert_eq!(p.get(0, 0), 4.0);
        assert_eq!(p.get(1, 0), -1.0); // old (1,2)
        assert_eq!(p.get(2, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "perm is not a permutation")]
    fn permute_rejects_duplicates() {
        sample().permute_sym(&[0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_rejects_unsorted_rows() {
        Csc::from_parts(3, 1, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
    }
}
