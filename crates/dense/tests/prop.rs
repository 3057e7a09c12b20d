//! Randomized tests for the dense kernels: seeded random shapes and
//! contents, checked against the naive reference implementations and
//! against algebraic identities (reconstruction, inverse-of-multiply).

use sympack_dense::naive::{gemm_ref, potrf_ref, syrk_ref, trsm_ref};
use sympack_dense::{
    gemm_nt_cfg, potrf_cfg, syrk_lower_cfg, trsm_right_lower_trans_cfg, KernelConfig, Mat,
};

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
    fn mat(&mut self, rows: usize, cols: usize) -> Mat {
        let v: Vec<f64> = (0..rows * cols).map(|_| self.f64_in(-10.0, 10.0)).collect();
        Mat::from_col_major(rows, cols, v)
    }
}

const CASES: u64 = 48;

#[test]
fn potrf_reconstructs_random_spd() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let n = rng.usize_in(1, 60);
        let g = rng.mat(n, n);
        let mut a = g.matmul(&g.transpose());
        for i in 0..n {
            a[(i, i)] += n as f64 * 10.0 + 1.0;
        }
        let a0 = a.clone();
        potrf_cfg(&KernelConfig::default(), &mut a).unwrap();
        a.zero_upper();
        let recon = a.matmul(&a.transpose());
        let scale = a0.fro_norm().max(1.0);
        assert!(recon.max_abs_diff(&a0) / scale < 1e-10);
    }
}

#[test]
fn blocked_potrf_agrees_with_reference() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let n = 37;
        // G·Gᵀ + n·I is SPD for any G.
        let g = rng.mat(n, n);
        let mut a = g.matmul(&g.transpose());
        for i in 0..n {
            a[(i, i)] += n as f64 * 10.0 + 1.0;
        }
        let mut blocked = a.clone();
        potrf_cfg(&KernelConfig::default(), &mut blocked).unwrap();
        blocked.zero_upper();
        let reference = potrf_ref(&a).unwrap();
        assert!(blocked.max_abs_diff(&reference) < 1e-8);
    }
}

#[test]
fn gemm_agrees_with_reference() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let m = rng.usize_in(1, 40);
        let n = rng.usize_in(1, 40);
        let k = rng.usize_in(1, 40);
        let a = rng.mat(m, k);
        let b = rng.mat(n, k);
        let mut c1 = rng.mat(m, n);
        let mut c2 = c1.clone();
        gemm_nt_cfg(&KernelConfig::default(), &mut c1, &a, &b);
        gemm_ref(&mut c2, &a, &b);
        assert!(c1.max_abs_diff(&c2) < 1e-9);
    }
}

#[test]
fn syrk_agrees_with_reference() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let n = rng.usize_in(1, 40);
        let k = rng.usize_in(1, 40);
        let a = rng.mat(n, k);
        let mut c1 = rng.mat(n, n);
        let mut c2 = c1.clone();
        syrk_lower_cfg(&KernelConfig::default(), &mut c1, &a);
        syrk_ref(&mut c2, &a);
        for j in 0..n {
            for i in j..n {
                assert!((c1[(i, j)] - c2[(i, j)]).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn trsm_inverts_multiplication() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let m = rng.usize_in(1, 30);
        let n = rng.usize_in(1, 30);
        let g = rng.mat(n, n);
        let mut spd = g.matmul(&g.transpose());
        for i in 0..n {
            spd[(i, i)] += n as f64 * 10.0 + 1.0;
        }
        let l = potrf_ref(&spd).unwrap();
        let x = rng.mat(m, n);
        let b = x.matmul(&l.transpose());
        let mut solved = b.clone();
        trsm_right_lower_trans_cfg(&KernelConfig::default(), &mut solved, &l);
        let reference = trsm_ref(&l, &b);
        let scale = x.fro_norm().max(1.0);
        assert!(solved.max_abs_diff(&x) / scale < 1e-8);
        assert!(solved.max_abs_diff(&reference) < 1e-8);
    }
}
