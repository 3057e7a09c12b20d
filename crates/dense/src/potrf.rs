//! Blocked lower-triangular Cholesky factorization (LAPACK `POTRF`).
//!
//! Used by *Diagonal Factorization* tasks `D(i)`: the dense diagonal block of
//! supernode `i` is factored in place into its lower Cholesky factor. The
//! blocked algorithm is the classical right-looking panel scheme — factor a
//! diagonal panel, TRSM the sub-panel, SYRK the trailing submatrix — so that
//! almost all flops run through the level-3 kernels in this crate, under
//! the caller's [`KernelConfig`]. The outer panel width and the inner
//! diagonal-tile step are the constants [`PB`] and [`IB`].

use crate::config::KernelConfig;
use crate::error::DenseError;
use crate::mat::Mat;
use crate::syrk::syrk_lower_raw;
use crate::trsm::trsm_right_lower_trans_raw;

/// Outer panel width: the strip TRSM and the trailing SYRK run with inner
/// dimension `PB` — wide enough for the packed core — while the diagonal
/// tile, which cannot use it, stays `PB²/n²` of the flops.
pub const PB: usize = 48;
/// Column step inside a diagonal tile: only an `IB × IB` corner is factored
/// by the scalar loop, everything else in the tile goes through TRSM/SYRK.
pub const IB: usize = 8;

/// Unblocked in-place lower Cholesky of the leading `n × n` of `a`
/// (leading dimension `lda`). Only the lower triangle is read and written.
fn potrf_unblocked(a: &mut [f64], lda: usize, n: usize, col0: usize) -> Result<(), DenseError> {
    for j in 0..n {
        let mut d = a[j * lda + j];
        // d -= sum_k a[j,k]^2 was already folded in by the caller's SYRK;
        // within the panel we still need the left-of-j columns of the panel.
        for k in 0..j {
            let v = a[k * lda + j];
            d -= v * v;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(DenseError::NotPositiveDefinite { column: col0 + j });
        }
        let djj = d.sqrt();
        a[j * lda + j] = djj;
        let inv = 1.0 / djj;
        for i in j + 1..n {
            let mut s = a[j * lda + i];
            for k in 0..j {
                s -= a[k * lda + i] * a[k * lda + j];
            }
            a[j * lda + i] = s * inv;
        }
    }
    Ok(())
}

/// Right-looking factorization of one `n × n` diagonal tile (`n ≤ PB`)
/// in [`IB`]-column steps: scalar-factor the ib×ib corner, TRSM the rows
/// below it, SYRK the trailing part of the tile. `a` points at the tile's
/// diagonal element; `tile` is caller-owned scratch (the corner interleaves
/// with the strip it solves in the same columns, so it is copied out to keep
/// the borrows disjoint). Without this second level the scalar tile factor
/// is ~PB²/n² of the flops but runs an order of magnitude below the packed
/// rate, which made it ~a quarter of the total wall time.
fn potrf_tile(
    cfg: &KernelConfig,
    a: &mut [f64],
    lda: usize,
    n: usize,
    col0: usize,
    tile: &mut Vec<f64>,
) -> Result<(), DenseError> {
    let mut j = 0;
    while j < n {
        let ib = IB.min(n - j);
        potrf_unblocked(&mut a[j * lda + j..], lda, ib, col0 + j)?;
        let m = n - j - ib;
        if m > 0 {
            tile.resize(ib * ib, 0.0);
            for c in 0..ib {
                let src = (j + c) * lda + j;
                tile[c * ib..c * ib + ib].copy_from_slice(&a[src..src + ib]);
            }
            trsm_right_lower_trans_raw(cfg, &mut a[j * lda + j + ib..], lda, m, ib, tile, ib);
            // The sub-corner strip (cols j..j+ib, rows j+ib..) lies entirely
            // before column j+ib in memory, so it splits off borrow-disjoint
            // from the trailing target — SYRK reads it strided in place.
            let (lo, hi) = a.split_at_mut((j + ib) * lda);
            syrk_lower_raw(
                cfg,
                &mut hi[j + ib..],
                lda,
                m,
                &lo[j * lda + j + ib..],
                lda,
                ib,
            );
        }
        j += ib;
    }
    Ok(())
}

/// In-place blocked lower Cholesky on a raw column-major buffer under `cfg`.
///
/// On success the lower triangle of `a` holds `L` with `A = L·Lᵀ`; the strict
/// upper triangle is left unmodified. On failure the buffer contents are
/// unspecified and the error reports the offending global column.
pub fn potrf_raw(
    cfg: &KernelConfig,
    a: &mut [f64],
    lda: usize,
    n: usize,
) -> Result<(), DenseError> {
    // Workspace for the jb×jb diagonal-tile copy, reused across all panels:
    // one allocation per call keeps the right-looking panel loop itself
    // allocation-free. The level-3 interior — the strip TRSM and the
    // trailing SYRK — runs on the packed register-blocked GEMM core via
    // those kernels.
    let mut tile: Vec<f64> = Vec::new();
    let mut j = 0;
    while j < n {
        let jb = PB.min(n - j);
        // Factor panel A[j.., j..j+jb]: first the jb x jb diagonal tile
        // (itself ib-blocked; the scratch vec is free for reuse below).
        {
            let panel = &mut a[j * lda..];
            potrf_tile(cfg, &mut panel[j..], lda, jb, j, &mut tile)?;
        }
        let m = n - j - jb;
        if m > 0 {
            // ... then the sub-diagonal strip: solve X * Ljj^T = A[j+jb.., j..j+jb].
            // The diagonal tile and the strip live interleaved in the same
            // columns, so pack the (small) jb x jb tile into the scratch
            // buffer to keep the borrows disjoint.
            tile.resize(jb * jb, 0.0);
            for c in 0..jb {
                let src = (j + c) * lda + j;
                tile[c * jb..c * jb + jb].copy_from_slice(&a[src..src + jb]);
            }
            {
                // Strided view of the strip: rows j+jb..n of columns j..j+jb.
                // Solve in place column panel with ld = lda.
                let off = j * lda + j + jb;
                trsm_right_lower_trans_raw(cfg, &mut a[off..], lda, m, jb, &tile, jb);
            }
            // Trailing update: A[j+jb.., j+jb..] -= strip * strip^T (SYRK).
            // The strip (cols j..j+jb, rows j+jb..n) lies entirely before
            // column j+jb in memory, so it splits off borrow-disjoint from
            // the trailing target; SYRK reads it strided in place — its own
            // internal pack is the only copy the strip takes per panel.
            let (lo, hi) = a.split_at_mut((j + jb) * lda);
            syrk_lower_raw(
                cfg,
                &mut hi[j + jb..],
                lda,
                m,
                &lo[j * lda + j + jb..],
                lda,
                jb,
            );
        }
        j += jb;
    }
    Ok(())
}

/// In-place blocked lower Cholesky of a [`Mat`] with an explicit config.
///
/// On success the lower triangle of `a` holds `L`; the strict upper triangle
/// is untouched (call [`Mat::zero_upper`] if a clean `L` is needed).
///
/// # Errors
/// [`DenseError::NotPositiveDefinite`] when a non-positive pivot appears.
pub fn potrf_cfg(cfg: &KernelConfig, a: &mut Mat) -> Result<(), DenseError> {
    assert_eq!(a.rows(), a.cols(), "potrf requires a square matrix");
    let n = a.rows();
    let lda = a.ld();
    potrf_raw(cfg, a.as_mut_slice(), lda, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::{edges, tiny_blocks};
    use crate::naive::potrf_ref;

    fn check_cfg(cfg: &KernelConfig, n: usize) {
        let a0 = Mat::spd_from(n, |r, c| ((r * 17 + c * 9) % 23) as f64 * 0.25 - 2.5);
        let mut a = a0.clone();
        potrf_cfg(cfg, &mut a).unwrap();
        a.zero_upper();
        let expect = potrf_ref(&a0).unwrap();
        assert!(
            a.max_abs_diff(&expect) < 1e-8,
            "n={n} diff={}",
            a.max_abs_diff(&expect)
        );
        let recon = a.matmul(&a.transpose());
        assert!(recon.max_abs_diff(&a0) < 1e-7, "n={n} reconstruction");
    }

    fn check(n: usize) {
        check_cfg(&KernelConfig::default(), n);
    }

    #[test]
    fn matches_reference_small() {
        for n in [1, 2, 3, 5, 8, 13] {
            check(n);
        }
    }

    #[test]
    fn matches_reference_across_panel_boundaries() {
        // n straddles the in-tile step and the panel width.
        for n in edges(IB).into_iter().chain(edges(PB)).chain([96, 150]) {
            check(n);
        }
    }

    #[test]
    fn detects_indefinite_matrix_at_correct_column() {
        let mut a = Mat::eye(100);
        a[(73, 73)] = -4.0;
        match potrf_cfg(&KernelConfig::default(), &mut a) {
            Err(DenseError::NotPositiveDefinite { column }) => assert_eq!(column, 73),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn detects_semidefinite_matrix() {
        // Rank-1 matrix: ones everywhere — fails at column 1.
        let mut a = Mat::from_fn(5, 5, |_, _| 1.0);
        match potrf_cfg(&KernelConfig::default(), &mut a) {
            Err(DenseError::NotPositiveDefinite { column }) => assert_eq!(column, 1),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn upper_triangle_preserved() {
        let mut a = Mat::spd_from(10, |r, c| (r + c % 3) as f64);
        // Stamp a sentinel into the strict upper triangle.
        for j in 1..10 {
            for i in 0..j {
                a[(i, j)] = 777.0;
            }
        }
        // Mirror lower values so the matrix used is the lower triangle.
        potrf_cfg(&KernelConfig::default(), &mut a).unwrap();
        for j in 1..10 {
            for i in 0..j {
                assert_eq!(a[(i, j)], 777.0);
            }
        }
    }

    #[test]
    fn non_default_panels_match_reference() {
        // The same edges with every TRSM/SYRK update on the packed core
        // under cache blocks a few register tiles wide.
        let cfg = tiny_blocks();
        for n in [IB + 1, PB - 1, PB + 1, 2 * PB + 3] {
            check_cfg(&cfg, n);
        }
    }
}
