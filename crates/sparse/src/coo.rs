//! Triplet (coordinate) assembly format.
//!
//! Matrices are typically assembled entry by entry — finite-element style —
//! before being compressed to CSC. `Coo` accumulates `(row, col, value)`
//! triplets, summing duplicates at compression time, which matches the
//! assembly semantics of Matrix Market files and FEM stiffness assembly.

use crate::csc::Csc;
use crate::SparseError;

/// A matrix under assembly: an unordered bag of `(row, col, value)` triplets.
#[derive(Debug, Clone)]
pub struct Coo {
    n_rows: usize,
    n_cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Coo {
    /// Create an empty `n_rows × n_cols` assembly.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Coo {
            n_rows,
            n_cols,
            entries: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of raw (pre-deduplication) triplets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Add `value` at `(row, col)`. Duplicates are summed on compression.
    ///
    /// # Errors
    /// [`SparseError::IndexOutOfBounds`] when the coordinate exceeds the
    /// matrix dimensions.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), SparseError> {
        if row >= self.n_rows || col >= self.n_cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                n: self.n_rows.max(self.n_cols),
            });
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Add `value` at both `(row, col)` and `(col, row)` (off-diagonal), or
    /// once on the diagonal — the usual way to assemble a symmetric matrix
    /// from its lower triangle.
    pub fn push_sym(&mut self, row: usize, col: usize, value: f64) -> Result<(), SparseError> {
        self.push(row, col, value)?;
        if row != col {
            self.push(col, row, value)?;
        }
        Ok(())
    }

    /// Compress to CSC, summing duplicate coordinates from `+0.0` in push
    /// order. Every pushed coordinate stays a stored entry: an explicit `0.0`
    /// (pushed, or the result of cancellation) is kept, because the stored
    /// pattern is what `pattern_hash` and the plan cache key on. A lone
    /// `-0.0` is stored as `+0.0` (`0.0 + -0.0`).
    pub fn to_csc(&self) -> Csc {
        // Counting sort by column, then sort each column's rows.
        let mut col_counts = vec![0usize; self.n_cols + 1];
        for &(_, c, _) in &self.entries {
            col_counts[c + 1] += 1;
        }
        for c in 0..self.n_cols {
            col_counts[c + 1] += col_counts[c];
        }
        let mut rows = vec![0usize; self.entries.len()];
        let mut vals = vec![0f64; self.entries.len()];
        let mut next = col_counts.clone();
        for &(r, c, v) in &self.entries {
            let slot = next[c];
            next[c] += 1;
            rows[slot] = r;
            vals[slot] = v;
        }
        // Per-column: sort by row, merge duplicates.
        let mut out_ptr = Vec::with_capacity(self.n_cols + 1);
        let mut out_rows = Vec::with_capacity(self.entries.len());
        let mut out_vals = Vec::with_capacity(self.entries.len());
        out_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for c in 0..self.n_cols {
            scratch.clear();
            scratch.extend(
                rows[col_counts[c]..col_counts[c + 1]]
                    .iter()
                    .copied()
                    .zip(vals[col_counts[c]..col_counts[c + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < scratch.len() {
                let r = scratch[i].0;
                let mut v = 0.0;
                while i < scratch.len() && scratch[i].0 == r {
                    v += scratch[i].1;
                    i += 1;
                }
                out_rows.push(r);
                out_vals.push(v);
            }
            out_ptr.push(out_rows.len());
        }
        Csc::from_parts(self.n_rows, self.n_cols, out_ptr, out_rows, out_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_bounds_check() {
        let mut c = Coo::new(3, 3);
        assert!(c.push(2, 2, 1.0).is_ok());
        assert!(matches!(
            c.push(3, 0, 1.0),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            c.push(0, 3, 1.0),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn duplicates_are_summed() {
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 1.0).unwrap();
        c.push(0, 0, 2.5).unwrap();
        c.push(1, 0, -1.0).unwrap();
        let m = c.to_csc();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.get(1, 0), -1.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn explicit_zeros_stay_stored() {
        // A pushed 0.0, a cancelled pair and a lone -0.0 are all entries of
        // the pattern; the -0.0 is stored as +0.0 (summed from +0.0).
        let mut c = Coo::new(3, 3);
        c.push(0, 0, 0.0).unwrap();
        c.push(1, 0, 2.0).unwrap();
        c.push(1, 0, -2.0).unwrap();
        c.push(2, 0, -0.0).unwrap();
        let m = c.to_csc();
        assert_eq!(m.col_rows(0), &[0, 1, 2]);
        for v in m.col_values(0) {
            assert_eq!(v.to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn push_sym_mirrors_off_diagonals() {
        let mut c = Coo::new(3, 3);
        c.push_sym(0, 0, 4.0).unwrap();
        c.push_sym(2, 0, -1.0).unwrap();
        let m = c.to_csc();
        assert_eq!(m.get(2, 0), -1.0);
        assert_eq!(m.get(0, 2), -1.0);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn columns_are_row_sorted() {
        let mut c = Coo::new(4, 1);
        c.push(3, 0, 3.0).unwrap();
        c.push(0, 0, 0.5).unwrap();
        c.push(2, 0, 2.0).unwrap();
        let m = c.to_csc();
        assert_eq!(m.col_rows(0), &[0, 2, 3]);
    }

    #[test]
    fn empty_assembly_compresses() {
        let m = Coo::new(5, 5).to_csc();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.col_ptr().len(), 6);
    }
}
