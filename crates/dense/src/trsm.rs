//! Triangular solve `X · Lᵀ = B` (BLAS `TRSM`, side=right, uplo=lower,
//! trans=T, diag=non-unit).
//!
//! This is the operation performed by *Factorization* tasks `F(i,j)`: given
//! the factored diagonal block `L(j,j)` of supernode `j`, each off-diagonal
//! block `B(i,j)` of the supernode is turned into a factor block by solving
//! `L(i,j) · L(j,j)ᵀ = B(i,j)` in place.
//!
//! The solve is two-level blocked by the constants [`JB`], [`SJ`] and [`RS`];
//! its GEMM updates run under the caller's [`KernelConfig`].

use crate::config::KernelConfig;
use crate::gemm::gemm_nt_raw;
use crate::mat::Mat;

/// Outer column-panel width. Wide, so the trailing update — the GEMM that
/// dominates the flops — runs with inner dimension `JB` and streams the
/// trailing columns of `B` only `n/JB` times. Narrowing it makes the scalar
/// in-panel share smaller but multiplies those memory-bound passes over `C`;
/// 64 measured best on the `kernel_roofline` sweep (see
/// `results/kernel_roofline.txt`).
pub const JB: usize = 64;
/// Inner sub-block width within a panel. The scalar triangular sweep is
/// confined to `SJ` columns at a time; the rest of the in-panel work runs on
/// the GEMM path, so the truly-scalar flop share is O(SJ/n).
pub const SJ: usize = 16;
/// Row-strip height for the scalar triangular sweep. Row strips of the solve
/// are independent (row `i` of column `j` depends only on row `i` of earlier
/// columns), so the sweep runs strip-by-strip: an `RS × SJ` strip of `B`
/// (16 KiB) stays L1-resident across the whole k-loop instead of streaming
/// every full column from L2 per AXPY. Each element still sees the identical
/// k-ascending update sequence, so results are bit-identical to the
/// unstripped sweep.
pub const RS: usize = 128;

/// Solve `X · Lᵀ = B` in place on raw column-major buffers under `cfg`.
///
/// * `l`: `n × n` lower-triangular, leading dimension `ldl`
/// * `b`: `m × n`, leading dimension `ldb`; overwritten with `X`
///
/// The strict upper triangle of `l` is never read.
pub fn trsm_right_lower_trans_raw(
    cfg: &KernelConfig,
    b: &mut [f64],
    ldb: usize,
    m: usize,
    n: usize,
    l: &[f64],
    ldl: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    // Right-looking blocked sweep over column panels of B. For panel
    // J = [jj, jend):
    //   1. solve the small triangular system against L[J, J] (all updates
    //      from earlier panels have already been applied),
    //   2. update the trailing columns:
    //      B[:, jend..] -= B[:, J] * (L[jend.., J])^T   (GEMM).
    // Right-looking keeps the GEMM's A operand at a fixed JB columns — the
    // just-solved panel, packed once — instead of the left-looking form
    // whose A operand is *all* solved columns, re-packed on every panel
    // (O(m·n²/JB) packing traffic against O(m·n²) flops).
    for jj in (0..n).step_by(JB) {
        let jend = (jj + JB).min(n);
        let jb = jend - jj;
        // In-panel solve, itself blocked: scalar-solve SJ columns, then push
        // their contribution into the remaining panel columns as a GEMM.
        for sj in (jj..jend).step_by(SJ) {
            let send = (sj + SJ).min(jend);
            // Unblocked solve of columns sj..send against L[sj..send, sj..send],
            // strip-mined over rows.
            for i0 in (0..m).step_by(RS) {
                let rows = RS.min(m - i0);
                for j in sj..send {
                    for k in sj..j {
                        let ljk = l[k * ldl + j];
                        if ljk != 0.0 {
                            let (bk, bj) = {
                                let (lo, hi) = b.split_at_mut(j * ldb + i0);
                                (&lo[k * ldb + i0..k * ldb + i0 + rows], &mut hi[..rows])
                            };
                            for i in 0..rows {
                                bj[i] -= bk[i] * ljk;
                            }
                        }
                    }
                    let d = l[j * ldl + j];
                    let inv = 1.0 / d;
                    for v in &mut b[j * ldb + i0..j * ldb + i0 + rows] {
                        *v *= inv;
                    }
                }
            }
            if send < jend {
                // B[:, send..jend] -= B[:, sj..send] * (L[send..jend, sj..send])^T
                let (done, rest) = b.split_at_mut(send * ldb);
                gemm_nt_raw(
                    cfg,
                    rest,
                    ldb,
                    m,
                    jend - send,
                    &done[sj * ldb..],
                    ldb,
                    &l[sj * ldl + send..],
                    ldl,
                    send - sj,
                );
            }
        }
        if jend < n {
            // B[:, jend..] -= B[:, jj..jend] * (L[jend.., jj..jend])^T
            let (done, rest) = b.split_at_mut(jend * ldb);
            gemm_nt_raw(
                cfg,
                rest,
                ldb,
                m,
                n - jend,
                &done[jj * ldb..],
                ldb,
                &l[jj * ldl + jend..],
                ldl,
                jb,
            );
        }
    }
}

/// Matrix-level wrapper with an explicit config: overwrite `B` with the
/// solution `X` of `X·Lᵀ = B`.
///
/// # Panics
/// Panics if `L` is not square or `B.cols() != L.rows()`.
pub fn trsm_right_lower_trans_cfg(cfg: &KernelConfig, b: &mut Mat, l: &Mat) {
    assert_eq!(l.rows(), l.cols(), "trsm: L must be square");
    assert_eq!(
        b.cols(),
        l.rows(),
        "trsm: B column count must match L order"
    );
    let (m, n) = (b.rows(), b.cols());
    let (ldb, ldl) = (b.ld(), l.ld());
    trsm_right_lower_trans_raw(cfg, b.as_mut_slice(), ldb, m, n, l.as_slice(), ldl);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::{edges, tiny_blocks};
    use crate::naive::{potrf_ref, trsm_ref};

    fn check_cfg(cfg: &KernelConfig, m: usize, n: usize) {
        let a = Mat::spd_from(n, |r, c| ((r * 7 + c * 5) % 11) as f64 - 5.0);
        let l = potrf_ref(&a).unwrap();
        let b0 = Mat::from_fn(m, n, |r, c| ((r * 3 + c) % 13) as f64 - 6.0);
        let mut b = b0.clone();
        trsm_right_lower_trans_cfg(cfg, &mut b, &l);
        let expect = trsm_ref(&l, &b0);
        assert!(b.max_abs_diff(&expect) < 1e-9, "m={m} n={n}");
        // X * L^T must reproduce B0.
        let recon = b.matmul(&l.transpose());
        assert!(recon.max_abs_diff(&b0) < 1e-8, "m={m} n={n} reconstruction");
    }

    fn check(m: usize, n: usize) {
        check_cfg(&KernelConfig::default(), m, n);
    }

    #[test]
    fn matches_reference_small() {
        for &(m, n) in &[(1, 1), (3, 2), (4, 4), (2, 7)] {
            check(m, n);
        }
    }

    #[test]
    fn matches_reference_across_panel_boundaries() {
        // n straddles the sub-block and the panel width, m the row strip.
        for n in edges(SJ).into_iter().chain(edges(JB)) {
            check(10, n);
        }
        for m in edges(RS) {
            check(m, 2 * SJ + 3);
        }
        check(33, 96);
    }

    #[test]
    fn upper_triangle_of_l_is_ignored() {
        let a = Mat::spd_from(5, |r, c| (r * 2 + c) as f64);
        let mut l = potrf_ref(&a).unwrap();
        let b0 = Mat::from_fn(3, 5, |r, c| (r + c) as f64);
        let mut b1 = b0.clone();
        trsm_right_lower_trans_cfg(&KernelConfig::default(), &mut b1, &l);
        // Poison the strict upper triangle; result must not change.
        for j in 1..5 {
            for i in 0..j {
                l[(i, j)] = f64::NAN;
            }
        }
        let mut b2 = b0.clone();
        trsm_right_lower_trans_cfg(&KernelConfig::default(), &mut b2, &l);
        assert_eq!(b1.max_abs_diff(&b2), 0.0);
    }

    #[test]
    fn identity_l_is_noop() {
        let l = Mat::eye(6);
        let b0 = Mat::from_fn(4, 6, |r, c| (r * 6 + c) as f64);
        let mut b = b0.clone();
        trsm_right_lower_trans_cfg(&KernelConfig::default(), &mut b, &l);
        assert_eq!(b, b0);
    }

    #[test]
    fn non_default_panels_match_reference() {
        // Panel, sub-block and row-strip edges with every trailing update on
        // the packed core under cache blocks a few register tiles wide.
        let cfg = tiny_blocks();
        for (m, n) in [(10, SJ + 1), (RS + 1, JB + 1), (33, 2 * JB + 3)] {
            check_cfg(&cfg, m, n);
        }
    }
}
