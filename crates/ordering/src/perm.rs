//! Permutation vectors.
//!
//! Convention throughout the workspace: `perm[new] = old` — the permutation
//! lists original indices in their new order, so applying it to a matrix
//! gives `P·A·Pᵀ` where row `new` of the permuted matrix is row `perm[new]`
//! of the original.

/// A permutation of `0..n`, stored as `perm[new] = old`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<usize>,
}

impl Permutation {
    /// The identity permutation of length `n`.
    pub fn identity(n: usize) -> Self {
        Permutation {
            perm: (0..n).collect(),
        }
    }

    /// Wrap an existing `perm[new] = old` vector.
    ///
    /// # Panics
    /// Panics if the vector is not a permutation of `0..len`.
    pub fn from_vec(perm: Vec<usize>) -> Self {
        let p = Permutation { perm };
        p.validate().expect("not a permutation");
        p
    }

    /// Length `n`.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The raw `perm[new] = old` slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.perm
    }

    /// Old index at new position `new`.
    pub fn old_of(&self, new: usize) -> usize {
        self.perm[new]
    }

    /// The inverse permutation: `inv[old] = new`.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.perm.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            inv[old] = new;
        }
        Permutation { perm: inv }
    }

    /// Compose: apply `self` after `first` (`result[new] = first[self[new]]`).
    pub fn compose(&self, first: &Permutation) -> Permutation {
        assert_eq!(self.len(), first.len());
        Permutation {
            perm: self.perm.iter().map(|&m| first.perm[m]).collect(),
        }
    }

    /// Verify this is a bijection on `0..n`.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.perm.len();
        let mut seen = vec![false; n];
        for &o in &self.perm {
            if o >= n {
                return Err(format!("index {o} out of range for length {n}"));
            }
            if seen[o] {
                return Err(format!("index {o} appears twice"));
            }
            seen[o] = true;
        }
        Ok(())
    }

    /// Permute a dense vector from old ordering to new: `out[new] = x[perm[new]]`.
    pub fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        self.apply_into(x, &mut out);
        out
    }

    /// [`Permutation::apply_vec`] into `out`, which it overwrites.
    pub fn apply_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.perm.len());
        assert_eq!(out.len(), self.perm.len());
        for (o, &old) in out.iter_mut().zip(&self.perm) {
            *o = x[old];
        }
    }

    /// Undo [`Permutation::apply_vec`]: `out[perm[new]] = x[new]`.
    pub fn unapply_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        self.unapply_into(x, &mut out);
        out
    }

    /// [`Permutation::unapply_vec`] into `out`, which it overwrites.
    pub fn unapply_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.perm.len());
        assert_eq!(out.len(), self.perm.len());
        for (&xi, &old) in x.iter().zip(&self.perm) {
            out[old] = xi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(4);
        assert_eq!(p.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::from_vec(vec![2, 0, 3, 1]);
        let id = p.compose(&p.inverse());
        // compose(self, first): result[new] = first[self[new]];
        // with first = inverse: inv[p[new]] = new.
        assert_eq!(id, Permutation::identity(4));
    }

    #[test]
    fn apply_unapply_roundtrip() {
        let p = Permutation::from_vec(vec![3, 1, 0, 2]);
        let x = vec![10.0, 11.0, 12.0, 13.0];
        let y = p.apply_vec(&x);
        assert_eq!(y, vec![13.0, 11.0, 10.0, 12.0]);
        assert_eq!(p.unapply_vec(&y), x);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn from_vec_rejects_duplicates() {
        Permutation::from_vec(vec![0, 0, 1]);
    }

    #[test]
    fn validate_reports_out_of_range() {
        let p = Permutation { perm: vec![0, 5] };
        assert!(p.validate().is_err());
    }
}
