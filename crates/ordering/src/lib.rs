//! Fill-reducing orderings for sparse Cholesky.
//!
//! The paper applies a nested-dissection ordering computed by Scotch to every
//! matrix before factorization (§5: "a fill-reducing ordering computed using
//! Scotch is applied to the original matrix"). Scotch itself is a large
//! external C library; this crate implements the underlying algorithms from
//! scratch:
//!
//! * [`nested_dissection`] — recursive vertex-separator dissection (George's
//!   algorithm, the one Scotch implements), using level-set separators from
//!   pseudo-peripheral vertices,
//! * [`min_degree`] — a quotient-graph minimum-degree ordering (used for the
//!   small sub-blocks at the dissection leaves, and standalone),
//! * [`mod@rcm`] — reverse Cuthill-McKee (bandwidth-reducing; used as a
//!   comparison point),
//! * [`metrics`] — fill-in and factor-flop estimates for comparing orderings,
//!   matching the paper's motivation for using nested dissection at all.

pub mod metrics;
pub mod minimum_degree;
pub mod nd;
pub mod perm;
pub mod rcm;

pub use minimum_degree::min_degree;
pub use nd::{nested_dissection, NdOptions, FORK_MIN};
pub use perm::Permutation;
pub use rcm::rcm;

use sympack_sparse::SparseSym;

/// Which fill-reducing ordering to apply before factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingKind {
    /// Leave the matrix in its natural order.
    Natural,
    /// Reverse Cuthill-McKee (bandwidth reduction).
    Rcm,
    /// Quotient-graph minimum degree.
    MinDegree,
    /// Recursive vertex-separator nested dissection (the paper's choice,
    /// via Scotch).
    NestedDissection,
}

/// Compute the requested ordering for a symmetric matrix.
pub fn compute_ordering(a: &SparseSym, kind: OrderingKind) -> Permutation {
    compute_ordering_on(a, kind, 1)
}

/// [`compute_ordering`] on up to `workers` threads, the calling thread
/// included. Only nested dissection forks (its two halves below a separator
/// are independent, see [`mod@nd`]); the permutation is the same for every
/// worker count, and at one worker nothing is spawned.
pub fn compute_ordering_on(a: &SparseSym, kind: OrderingKind, workers: usize) -> Permutation {
    match kind {
        OrderingKind::Natural => Permutation::identity(a.n()),
        OrderingKind::Rcm => rcm(a),
        OrderingKind::MinDegree => min_degree(a),
        OrderingKind::NestedDissection => {
            nd::nested_dissection_on(a, &NdOptions::default(), workers)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::laplacian_2d;

    #[test]
    fn all_kinds_produce_valid_permutations() {
        let a = laplacian_2d(7, 6);
        for kind in [
            OrderingKind::Natural,
            OrderingKind::Rcm,
            OrderingKind::MinDegree,
            OrderingKind::NestedDissection,
        ] {
            let p = compute_ordering(&a, kind);
            assert_eq!(p.len(), a.n(), "{kind:?}");
            p.validate().unwrap();
        }
    }

    #[test]
    fn natural_is_identity() {
        let a = laplacian_2d(3, 3);
        let p = compute_ordering(&a, OrderingKind::Natural);
        assert_eq!(p.as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
