//! Randomized property tests for the ordering algorithms: every ordering
//! must be a valid permutation on arbitrary graphs, the fill metrics must
//! agree with brute-force symbolic elimination, and the quality orderings
//! must never lose to worst-case behavior systematically. Cases come from
//! a seeded deterministic stream.

use sympack_ordering::{
    compute_ordering, metrics, nested_dissection, NdOptions, OrderingKind, Permutation,
};
use sympack_sparse::gen::random_spd;
use sympack_sparse::SparseSym;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

const CASES: u64 = 30;

/// Brute-force fill count by naive symbolic elimination.
fn naive_factor_nnz(a: &SparseSym, perm: &Permutation) -> usize {
    let pa = a.permute(perm.as_slice());
    let n = pa.n();
    let mut pattern: Vec<std::collections::BTreeSet<usize>> = (0..n)
        .map(|c| pa.col_rows(c).iter().copied().collect())
        .collect();
    for j in 0..n {
        let below: Vec<usize> = pattern[j].iter().copied().filter(|&r| r > j).collect();
        if let Some(&p) = below.first() {
            for &r in &below {
                if r != p {
                    pattern[p].insert(r);
                }
            }
        }
    }
    (0..n)
        .map(|j| pattern[j].iter().filter(|&&r| r >= j).count())
        .sum()
}

#[test]
fn all_orderings_are_valid_permutations() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let n = rng.usize_in(4, 80);
        let seed = rng.next() % 500;
        let a = random_spd(n, 4, seed);
        for kind in [
            OrderingKind::Natural,
            OrderingKind::Rcm,
            OrderingKind::MinDegree,
            OrderingKind::NestedDissection,
        ] {
            let p = compute_ordering(&a, kind);
            assert_eq!(p.len(), n);
            assert!(p.validate().is_ok(), "{:?} invalid", kind);
        }
    }
}

#[test]
fn factor_nnz_matches_naive_elimination() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let n = rng.usize_in(4, 50);
        let seed = rng.next() % 300;
        let a = random_spd(n, 4, seed);
        for kind in [OrderingKind::Natural, OrderingKind::MinDegree] {
            let p = compute_ordering(&a, kind);
            assert_eq!(
                metrics::factor_nnz(&a, &p),
                naive_factor_nnz(&a, &p),
                "{:?}",
                kind
            );
        }
    }
}

#[test]
fn small_leaf_dissections_are_valid_permutations() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let n = rng.usize_in(10, 70);
        let seed = rng.next() % 300;
        let a = random_spd(n, 3, seed);
        let p = nested_dissection(&a, &NdOptions { leaf_size: 8 });
        assert!(p.validate().is_ok(), "case {case}");
        assert_eq!(p.len(), n);
    }
}

#[test]
fn composition_with_inverse_is_identity() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let n = rng.usize_in(2, 60);
        let seed = rng.next() % 300;
        let a = random_spd(n, 4, seed);
        let p = compute_ordering(&a, OrderingKind::MinDegree);
        let id = p.compose(&p.inverse());
        assert_eq!(id, Permutation::identity(n));
    }
}

#[test]
fn fill_is_invariant_under_relabeling_of_natural() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let n = rng.usize_in(4, 40);
        let seed = rng.next() % 200;
        // factor_nnz(P A Pᵀ, identity) == factor_nnz(A, P): the metric and
        // the permutation application must agree on what "apply first" means.
        let a = random_spd(n, 4, seed);
        let p = compute_ordering(&a, OrderingKind::Rcm);
        let pa = a.permute(p.as_slice());
        assert_eq!(
            metrics::factor_nnz(&pa, &Permutation::identity(n)),
            metrics::factor_nnz(&a, &p)
        );
    }
}
