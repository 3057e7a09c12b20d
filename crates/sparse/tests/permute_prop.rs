//! `SparseSym::permute` against the path it replaced.
//!
//! Until PR 21 a symmetric permutation went `to_full_csc → Coo → to_csc →
//! Coo → to_csc → to_lower_sym`: two triplet round trips with a comparison
//! sort per column. It is now two counting passes over the lower triangle.
//! The old path is rebuilt here from the public `Coo` API as the oracle, and
//! the new one must return the *identical* matrix — structure and the
//! `to_bits` of every value — because everything downstream (the symbolic
//! factor, the numeric factor, every pinned fingerprint) starts from it.

use sympack_sparse::gen::{random_spd, XorShift64};
use sympack_sparse::{Coo, SparseSym};

/// `P·A·Pᵀ` the way `permute` computed it before the counting sort.
fn permute_via_coo(a: &SparseSym, perm: &[usize]) -> SparseSym {
    let n = a.n();
    let mut new_of = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        new_of[old] = new;
    }
    let full = a.to_full_csc();
    let mut coo = Coo::new(n, n);
    for c in 0..n {
        for (&r, &v) in full.col_rows(c).iter().zip(full.col_values(c)) {
            coo.push(new_of[r], new_of[c], v).unwrap();
        }
    }
    coo.to_csc().to_lower_sym()
}

fn assert_identical(got: &SparseSym, want: &SparseSym, what: &str) {
    assert_eq!(got.n(), want.n(), "{what}: order");
    assert_eq!(got.col_ptr(), want.col_ptr(), "{what}: column pointers");
    for c in 0..want.n() {
        assert_eq!(got.col_rows(c), want.col_rows(c), "{what}: rows of {c}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(got.col_values(c)),
            bits(want.col_values(c)),
            "{what}: value bits of column {c}"
        );
    }
}

fn shuffled(n: usize, rng: &mut XorShift64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.next_below(i + 1));
    }
    perm
}

fn check(a: &SparseSym, perm: &[usize], what: &str) {
    assert_identical(&a.permute(perm), &permute_via_coo(a, perm), what);
    assert_eq!(
        &a.pattern().permute(perm),
        a.permute(perm).pattern(),
        "{what}: the bare pattern permutes like the matrix"
    );
}

#[test]
fn random_spd_under_random_permutations() {
    let mut rng = XorShift64::new(0x9e21_0001);
    for trial in 0..120 {
        let n = 1 + rng.next_below(70);
        let a = random_spd(n, 1 + rng.next_below(8), trial);
        let perm = shuffled(n, &mut rng);
        check(&a, &perm, &format!("trial {trial} (n={n})"));
    }
}

#[test]
fn identity_reversal_and_tiny_orders() {
    for n in [1usize, 2, 3, 17, 64] {
        let a = random_spd(n, 4, n as u64);
        let id: Vec<usize> = (0..n).collect();
        let rev: Vec<usize> = (0..n).rev().collect();
        check(&a, &id, &format!("identity n={n}"));
        check(&a, &rev, &format!("reversal n={n}"));
        assert_eq!(a.permute(&id), a, "identity is a no-op (n={n})");
    }
    // n = 2, the one off-diagonal entry swapping triangles.
    let a = SparseSym::from_parts(2, vec![0, 2, 3], vec![0, 1, 1], vec![4.0, -1.5, 3.0]);
    let p = a.permute(&[1, 0]);
    assert_eq!(p.col_rows(0), &[0, 1]);
    assert_eq!(p.col_values(0), &[3.0, -1.5]);
    assert_eq!(p.col_values(1), &[4.0]);
    check(&a, &[1, 0], "n=2 swap");
}

#[test]
fn explicit_and_negative_zeros_are_carried_like_the_oracle() {
    // Stored zeros are part of the pattern; a lone -0.0 comes back +0.0
    // (the triplet path summed from +0.0), NaN payloads and subnormals move
    // untouched.
    let a = SparseSym::from_parts(
        4,
        vec![0, 3, 5, 7, 8],
        vec![0, 1, 3, 1, 2, 2, 3, 3],
        vec![2.0, 0.0, -0.0, 5e-324, f64::NAN, -0.0, 1.0, -7.25],
    );
    let mut rng = XorShift64::new(0x9e21_0002);
    for trial in 0..24 {
        let perm = shuffled(4, &mut rng);
        let p = a.permute(&perm);
        assert_eq!(p.nnz(), a.nnz(), "no stored zero is dropped");
        check(&a, &perm, &format!("zeros trial {trial}"));
    }
    let id = a.permute(&[0, 1, 2, 3]);
    assert_eq!(id.col_values(0)[2].to_bits(), 0.0f64.to_bits());
    assert_eq!(id.col_values(2)[0].to_bits(), 0.0f64.to_bits());
}

#[test]
#[should_panic(expected = "perm is not a permutation")]
fn a_repeated_index_is_rejected() {
    random_spd(5, 3, 1).permute(&[0, 1, 1, 3, 4]);
}

#[test]
#[should_panic(expected = "perm is not a permutation")]
fn an_out_of_range_index_is_rejected() {
    random_spd(5, 3, 1).permute(&[0, 1, 2, 3, 5]);
}

#[test]
#[should_panic]
fn a_short_permutation_is_rejected() {
    random_spd(5, 3, 1).permute(&[0, 1, 2, 3]);
}
