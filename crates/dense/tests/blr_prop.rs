//! Randomized properties of the block low-rank truncation kernels: the
//! truncation error bound against a dense oracle, adversarial shapes
//! (exact ranks 0/1/full, strided panels with `ld > m`), recompression of
//! low-rank sums, the storage-profitability policy, the absolute
//! (global-threshold) criterion, and bit determinism of the whole path.
//! The kernels take an absolute threshold; the block-relative properties
//! pass `tol·‖A‖_F`.

use sympack_dense::lowrank::{compress_raw_abs, recompress_abs, LowRankMat};
use sympack_dense::Mat;

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
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    /// Exactly rank-`k` matrix with decaying term magnitudes, so truncated
    /// ranks below `k` are also meaningful.
    fn rank_k(&mut self, m: usize, n: usize, k: usize) -> Mat {
        let mut a = Mat::zeros(m, n);
        for t in 0..k {
            let scale = 0.4f64.powi(t as i32);
            let u: Vec<f64> = (0..m).map(|_| self.f64_in(-1.0, 1.0) * scale).collect();
            let v: Vec<f64> = (0..n).map(|_| self.f64_in(-1.0, 1.0)).collect();
            let s = a.as_mut_slice();
            for c in 0..n {
                for r in 0..m {
                    s[c * m + r] += u[r] * v[c];
                }
            }
        }
        a
    }
}

const CASES: u64 = 48;

fn fro(a: &Mat) -> f64 {
    a.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Block-relative truncation, `‖A − U·Vᵀ‖_F ≤ tol·‖A‖_F`.
fn compress(a: &Mat, tol: f64, max_rank: usize) -> Option<LowRankMat> {
    compress_raw_abs(
        a.as_slice(),
        a.rows(),
        a.cols(),
        a.ld(),
        tol * fro(a),
        max_rank,
    )
}

/// `‖A − U·Vᵀ‖_F` against the dense oracle.
fn resid_fro(a: &Mat, lr: &LowRankMat) -> f64 {
    let d = lr.to_dense();
    a.as_slice()
        .iter()
        .zip(d.as_slice())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Random shapes and ranks: whenever compression succeeds, the Frobenius
/// truncation error obeys `‖A − U·Vᵀ‖_F ≤ tol·‖A‖_F` (dense oracle), the
/// rank respects the storage-profitability bound, and rank never exceeds
/// the cap.
#[test]
fn truncation_error_bounded_by_tolerance() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let m = rng.usize_in(4, 50);
        let n = rng.usize_in(4, 50);
        let k = rng.usize_in(0, m.min(n) + 1);
        let a = rng.rank_k(m, n, k);
        for tol in [1e-12, 1e-8, 1e-4, 1e-2] {
            if let Some(lr) = compress(&a, tol, usize::MAX) {
                // The pivoted MGS stopping test maintains the residual in
                // floating point; allow a small slack over the bound.
                assert!(
                    resid_fro(&a, &lr) <= tol * fro(&a) * (1.0 + 1e-9) + 1e-13,
                    "case {case} tol {tol}: err {} > {}",
                    resid_fro(&a, &lr),
                    tol * fro(&a)
                );
                assert!(lr.rank() * (m + n) < m * n, "unprofitable rank accepted");
            }
        }
    }
}

/// Adversarial exact ranks: 0 (zero block), 1, and full rank. Zero blocks
/// compress to rank 0, rank-1 blocks to rank 1, and full-rank blocks with a
/// flat spectrum are declined rather than approximated.
#[test]
fn adversarial_ranks_zero_one_full() {
    for case in 0..CASES {
        let mut rng = Rng::new(1000 + case);
        let m = rng.usize_in(8, 40);
        let n = rng.usize_in(8, 40);

        let zero = Mat::zeros(m, n);
        let lr = compress(&zero, 1e-10, usize::MAX).expect("zero block compresses");
        assert_eq!(lr.rank(), 0);
        assert_eq!(lr.payload_len(), 0);

        let one = rng.rank_k(m, n, 1);
        if fro(&one) > 0.0 {
            let lr = compress(&one, 1e-10, usize::MAX).expect("rank-1 block compresses");
            assert_eq!(lr.rank(), 1, "case {case}");
            assert!(resid_fro(&one, &lr) <= 1e-9 * fro(&one));
        }

        // Scaled identity padded into m × n: every nonzero singular value
        // equals 1, so no admissible rank below min(m, n) exists.
        let full = Mat::from_fn(m, n, |r, c| if r == c { 3.0 } else { 0.0 });
        assert!(
            compress(&full, 1e-10, usize::MAX).is_none(),
            "case {case}: flat-spectrum block must decline"
        );
    }
}

/// `compress_raw_abs` on a strided panel (`ld > m`) must see exactly the
/// `m × n` window: compressing the strided view and the compacted copy
/// gives bit-identical factors.
#[test]
fn strided_panels_match_compacted() {
    for case in 0..CASES {
        let mut rng = Rng::new(2000 + case);
        let m = rng.usize_in(4, 30);
        let n = rng.usize_in(4, 30);
        let ld = m + rng.usize_in(1, 20);
        let k = rng.usize_in(1, 4);
        // Build the strided panel: window rows are a rank-k block, the
        // padding rows below are garbage that must never be read.
        let win = rng.rank_k(m, n, k);
        let mut strided = vec![f64::NAN; ld * n];
        for c in 0..n {
            strided[c * ld..c * ld + m].copy_from_slice(&win.as_slice()[c * m..(c + 1) * m]);
        }
        let abs = 1e-10 * fro(&win);
        let a = compress_raw_abs(&strided, m, n, ld, abs, usize::MAX);
        let b = compress_raw_abs(win.as_slice(), m, n, m, abs, usize::MAX);
        match (a, b) {
            (Some(x), Some(y)) => {
                assert_eq!(x.u().as_slice(), y.u().as_slice(), "case {case}");
                assert_eq!(x.v().as_slice(), y.v().as_slice(), "case {case}");
            }
            (None, None) => {}
            (x, y) => panic!(
                "case {case}: strided/compacted disagree ({:?} vs {:?})",
                x.map(|l| l.rank()),
                y.map(|l| l.rank())
            ),
        }
    }
}

/// The absolute (global-threshold) criterion: with `abs_tol = tol·‖A‖_F`
/// it matches the relative error bound, and a block whose norm is far
/// below the threshold truncates to rank 0.
#[test]
fn absolute_threshold_criterion() {
    for case in 0..CASES {
        let mut rng = Rng::new(3000 + case);
        let m = rng.usize_in(8, 40);
        let n = rng.usize_in(8, 40);
        let k = rng.usize_in(1, 6);
        let a = rng.rank_k(m, n, k);
        let norm = fro(&a);
        if norm == 0.0 {
            continue;
        }
        let abs = 1e-8 * norm;
        if let Some(lr) = compress_raw_abs(a.as_slice(), m, n, a.ld(), abs, usize::MAX) {
            assert!(
                resid_fro(&a, &lr) <= abs * (1.0 + 1e-9) + 1e-13,
                "case {case}: abs criterion violated"
            );
        }
        // A tiny block under a loose absolute threshold vanishes entirely —
        // the behavior that lets far off-diagonal blocks truncate hard.
        let tiny = compress_raw_abs(a.as_slice(), m, n, a.ld(), 10.0 * norm, usize::MAX)
            .expect("tiny-norm block compresses under a loose absolute threshold");
        assert_eq!(tiny.rank(), 0, "case {case}");
    }
}

/// Recompression of sums: stacking the factors of two low-rank blocks and
/// re-truncating stays within tolerance of the dense sum and never grows
/// the rank past the concatenation.
#[test]
fn recompression_of_sums_bounded() {
    for case in 0..CASES {
        let mut rng = Rng::new(4000 + case);
        let m = rng.usize_in(12, 48);
        let n = rng.usize_in(12, 48);
        let ka = rng.usize_in(1, 4);
        let kb = rng.usize_in(1, 4);
        let a = rng.rank_k(m, n, ka);
        let b = rng.rank_k(m, n, kb);
        let (Some(la), Some(lb)) = (
            compress(&a, 1e-12, usize::MAX),
            compress(&b, 1e-12, usize::MAX),
        ) else {
            continue;
        };
        let k = la.rank() + lb.rank();
        let mut us = la.u().as_slice().to_vec();
        us.extend_from_slice(lb.u().as_slice());
        let mut vs = la.v().as_slice().to_vec();
        vs.extend_from_slice(lb.v().as_slice());
        let u = Mat::from_col_major(m, k, us);
        let v = Mat::from_col_major(n, k, vs);
        let dense_sum = {
            let mut s = a.clone();
            for (x, y) in s.as_mut_slice().iter_mut().zip(b.as_slice()) {
                *x += y;
            }
            s
        };
        let Some(sum) = recompress_abs(&u, &v, 1e-9 * fro(&dense_sum), usize::MAX) else {
            continue; // sum crossed the profitability bound — legal decline
        };
        assert!(sum.rank() <= k, "case {case}: recompression grew the rank");
        let err = resid_fro(&dense_sum, &sum);
        // The stacked factorization itself carries ~1e-12 of error from the
        // two compressions; fold that into the bound.
        assert!(
            err <= 1e-9 * fro(&dense_sum) * (1.0 + 1e-6) + 1e-10,
            "case {case}: err {err}"
        );
    }
}

/// Bit determinism: the entire compress → payload → recompress path gives
/// bit-identical results across repeated runs on identical input, including
/// through the wire payload roundtrip.
#[test]
fn compression_is_bit_deterministic() {
    for case in 0..8 {
        let mut rng = Rng::new(5000 + case);
        let m = rng.usize_in(16, 48);
        let n = rng.usize_in(16, 48);
        let a = rng.rank_k(m, n, 5);
        let one = compress(&a, 1e-9, usize::MAX).expect("rank-5 block compresses");
        for _ in 0..3 {
            let again = compress(&a, 1e-9, usize::MAX).unwrap();
            assert_eq!(one.u().as_slice(), again.u().as_slice());
            assert_eq!(one.v().as_slice(), again.v().as_slice());
            let wire = LowRankMat::from_payload(m, n, again.rank(), &again.to_payload());
            assert_eq!(one.u().as_slice(), wire.u().as_slice());
            assert_eq!(one.v().as_slice(), wire.v().as_slice());
            let re = recompress_abs(wire.u(), wire.v(), 1e-9 * fro(&a), usize::MAX);
            let re2 = recompress_abs(one.u(), one.v(), 1e-9 * fro(&a), usize::MAX);
            match (re, re2) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.u().as_slice(), y.u().as_slice());
                    assert_eq!(x.v().as_slice(), y.v().as_slice());
                }
                (None, None) => {}
                _ => panic!("case {case}: recompress determinism broken"),
            }
        }
    }
}
