//! Randomized property tests for the ordering algorithms: every ordering
//! must be a valid permutation on arbitrary graphs, the fill metrics must
//! agree with brute-force symbolic elimination, and the quality orderings
//! must never lose to worst-case behavior systematically. Cases come from
//! a seeded deterministic stream.

use sympack_ordering::{
    compute_ordering, compute_ordering_on, metrics, nested_dissection, NdOptions, OrderingKind,
    Permutation, FORK_MIN,
};
use sympack_sparse::gen::{
    bone_like, flan_like, laplacian_2d, laplacian_3d, random_spd, thermal_like,
};
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

/// `a` and `b` side by side with no edge between them: a graph whose top
/// split is a components split.
fn disjoint(a: &SparseSym, b: &SparseSym) -> SparseSym {
    let (na, nb) = (a.n(), b.n());
    let mut col_ptr = a.col_ptr().to_vec();
    let mut rows = Vec::new();
    let mut values = Vec::new();
    for c in 0..na {
        rows.extend_from_slice(a.col_rows(c));
        values.extend_from_slice(a.col_values(c));
    }
    for c in 0..nb {
        rows.extend(b.col_rows(c).iter().map(|r| r + na));
        values.extend_from_slice(b.col_values(c));
        col_ptr.push(rows.len());
    }
    SparseSym::from_parts(na + nb, col_ptr, rows, values)
}

/// The nested dissection on 2, 3 and 4 workers must be the one-worker
/// permutation, bit for bit.
fn assert_forks_are_identical(name: &str, a: &SparseSym) {
    let one = compute_ordering_on(a, OrderingKind::NestedDissection, 1);
    assert_eq!(
        one,
        compute_ordering(a, OrderingKind::NestedDissection),
        "{name}"
    );
    one.validate().unwrap();
    for workers in 2..=4 {
        let forked = compute_ordering_on(a, OrderingKind::NestedDissection, workers);
        assert_eq!(forked, one, "{name}: {workers} workers");
    }
}

#[test]
fn forked_dissection_is_bit_identical_to_one_worker() {
    let leaf = NdOptions::default().leaf_size;
    let empty = SparseSym::from_parts(0, vec![0], vec![], vec![]);
    let mut cases: Vec<(String, SparseSym)> = vec![
        ("n = 0".into(), empty),
        ("n = 1".into(), laplacian_2d(1, 1)),
        ("n = 2".into(), laplacian_2d(2, 1)),
        ("2D 60 × 60".into(), laplacian_2d(60, 60)),
        ("2D 97 × 23".into(), laplacian_2d(97, 23)),
        ("3D 14³".into(), laplacian_3d(14, 14, 14)),
        ("3D 20 × 12 × 9".into(), laplacian_3d(20, 12, 9)),
        ("thermal 60²".into(), thermal_like(60, 60, 0.35, 7)),
        ("thermal 45 × 70".into(), thermal_like(45, 70, 0.5, 11)),
        (
            "components: 2D 40² + 3D 11³".into(),
            disjoint(&laplacian_2d(40, 40), &laplacian_3d(11, 11, 11)),
        ),
        (
            "components: thermal 36² + path".into(),
            disjoint(&thermal_like(36, 36, 0.35, 3), &laplacian_2d(700, 1)),
        ),
    ];
    // Around the leaf size and the fork constant, in a path, a near-square
    // grid and a random graph of exactly that many vertices.
    for n in [
        leaf - 1,
        leaf,
        leaf + 1,
        FORK_MIN - 1,
        FORK_MIN,
        FORK_MIN + 1,
    ] {
        let w = (1..=n)
            .rev()
            .find(|w| n % w == 0 && w * w <= n)
            .unwrap_or(1);
        cases.push((format!("path {n}"), laplacian_2d(n, 1)));
        cases.push((format!("2D {w} × {}", n / w), laplacian_2d(w, n / w)));
        cases.push((format!("random {n}"), random_spd(n, 4, n as u64)));
    }
    for (name, a) in &cases {
        assert_forks_are_identical(name, a);
    }
}

/// The `perf/` matrices at full size (and the larger 3D brick of
/// `ordering_quality`): too slow unoptimized, run with `--release --
/// --include-ignored`.
#[test]
#[ignore]
fn forked_dissection_is_bit_identical_on_the_full_size_matrices() {
    for (name, a) in [
        ("flan_like(22³)", flan_like(22, 22, 22)),
        ("thermal_like(110²)", thermal_like(110, 110, 0.35, 20230)),
        ("bone_like(16³)", bone_like(16, 16, 16)),
        ("flan_like(26³)", flan_like(26, 26, 26)),
    ] {
        assert_forks_are_identical(name, &a);
    }
}
