//! Panel kernels for the blocked multi-NRHS triangular solve.
//!
//! The distributed solve in `sympack::trisolve` operates on dense column
//! panels `B` of shape `n × nrhs` (one column per right-hand side) instead of
//! single vectors. Its four task bodies map onto four kernels:
//!
//! * [`trsm_left_lower_notrans_raw`] — `L · Y = B` (forward substitution on a
//!   panel; BLAS `TRSM` side=left, trans=N),
//! * [`trsm_left_lower_trans_raw`] — `Lᵀ · X = B` (backward substitution on a
//!   panel; side=left, trans=T),
//! * [`gemm_nn_acc_cfg`] — `C ← C + A·B` (a block's forward contribution),
//! * [`gemm_tn_acc_cfg`] — `C ← C + Aᵀ·B` (a block's backward contribution).
//!
//! Accumulation is *additive* here (the solve subtracts contributions at the
//! owning accumulator), in contrast to [`crate::gemm::gemm_nt_cfg`]'s built-in
//! subtraction. With `nrhs = 1` the substitution kernels perform exactly the
//! arithmetic of the scalar `forward_subst`/`backward_subst` routines, column
//! sweep for column sweep, so the single-vector solve path is unchanged.
//!
//! The blocked left TRSMs solve [`SB`]-column diagonal blocks; their
//! off-diagonal updates run under the caller's [`KernelConfig`]. Past
//! `pack_min_flops`, a product with one column (`nrhs = 1`) takes the
//! vector path, which computes the packed core's chain without packing;
//! wider ones take the packed core.

use crate::config::KernelConfig;
use crate::mat::Mat;
use crate::microkernel::{gemm_packed, gemv, Dest};
use crate::pack::Operand;
use std::cell::Cell;

/// Solve-block width of the blocked left TRSMs. Problems with `n <= SB` run
/// the original unblocked substitution sweep unchanged — the `nrhs = 1` case
/// must stay arithmetically identical to the scalar
/// `forward_subst`/`backward_subst` routines, and small panels gain nothing
/// from blocking. Above it, 64 gives the rank-`SB` updates an inner dimension
/// the packed core runs well at (the same width as [`crate::trsm::JB`]).
pub const SB: usize = 64;

thread_local! {
    /// The blocked TRSMs' copy of already-solved rows, reused across calls
    /// like the pack buffers (taken out for the call, put back after it).
    static SOLVED_ROWS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// The engine of a product past `cfg.pack_min_flops`, in
/// [`gemm_packed`]'s signature: [`by_shape`] in every kernel, the packed
/// core alone where a test holds the vector path against it.
type Core = fn(&KernelConfig, Dest<'_>, (usize, usize, usize), Operand<'_>, Operand<'_>);

/// A one-column product takes the vector path ([`gemv`]), whose arithmetic
/// is the packed core's; two or more columns are packed.
fn by_shape(
    cfg: &KernelConfig,
    d: Dest<'_>,
    (m, n, k): (usize, usize, usize),
    a: Operand<'_>,
    b: Operand<'_>,
) {
    match b {
        Operand::Kx(b, _) if n == 1 => gemv(cfg, d, (m, k), a, &b[..k]),
        _ => gemm_packed(cfg, d, (m, n, k), a, b),
    }
}

/// Unblocked forward substitution sweep over rows `0..n` (the pre-blocking
/// kernel, kept verbatim as the within-panel solve).
fn trsm_left_notrans_unblocked(
    b: &mut [f64],
    ldb: usize,
    n: usize,
    nrhs: usize,
    l: &[f64],
    ldl: usize,
) {
    for c in 0..n {
        let lc = &l[c * ldl..c * ldl + n];
        let d = lc[c];
        for k in 0..nrhs {
            let col = &mut b[k * ldb..k * ldb + n];
            let yc = col[c] / d;
            col[c] = yc;
            for r in c + 1..n {
                col[r] -= lc[r] * yc;
            }
        }
    }
}

/// Unblocked backward substitution sweep over rows `0..n`.
fn trsm_left_trans_unblocked(
    b: &mut [f64],
    ldb: usize,
    n: usize,
    nrhs: usize,
    l: &[f64],
    ldl: usize,
) {
    for c in (0..n).rev() {
        let lc = &l[c * ldl..c * ldl + n];
        let d = lc[c];
        for k in 0..nrhs {
            let col = &mut b[k * ldb..k * ldb + n];
            let mut v = col[c];
            for r in c + 1..n {
                v -= lc[r] * col[r];
            }
            col[c] = v / d;
        }
    }
}

/// Solve `L · Y = B` in place on raw column-major buffers under `cfg`.
///
/// * `l`: `n × n` lower-triangular, leading dimension `ldl`
/// * `b`: `n × nrhs`, leading dimension `ldb`; overwritten with `Y`
///
/// The strict upper triangle of `l` is never read. For `n > SB` the
/// solve is blocked: an unblocked sweep on each [`SB`]-column diagonal block
/// followed by a rank-`SB` GEMM update of the rows below, so the bulk of the
/// flops run through the packed register-blocked core.
pub fn trsm_left_lower_notrans_raw(
    cfg: &KernelConfig,
    b: &mut [f64],
    ldb: usize,
    n: usize,
    nrhs: usize,
    l: &[f64],
    ldl: usize,
) {
    trsm_notrans(cfg, by_shape, b, ldb, n, nrhs, l, ldl);
}

/// [`trsm_left_lower_notrans_raw`] with its updates past the packing
/// threshold on `core`.
#[allow(clippy::too_many_arguments)] // the raw TRSM interface plus the core
fn trsm_notrans(
    cfg: &KernelConfig,
    core: Core,
    b: &mut [f64],
    ldb: usize,
    n: usize,
    nrhs: usize,
    l: &[f64],
    ldl: usize,
) {
    if n == 0 || nrhs == 0 {
        return;
    }
    if n <= SB {
        trsm_left_notrans_unblocked(b, ldb, n, nrhs, l, ldl);
        return;
    }
    // Scratch copy of the solved diagonal-block rows: each column of `b`
    // interleaves solved (read) and trailing (written) rows, so the GEMM
    // operands cannot be split borrows of `b` itself. The copy is
    // O(SB · nrhs) per block — SB× below the update's flop count.
    let mut ysolved = SOLVED_ROWS.take();
    let mut c0 = 0;
    while c0 < n {
        let cb = SB.min(n - c0);
        // Solve the cb × cb diagonal block in place on rows c0..c0+cb.
        {
            let lblock = &l[c0 * ldl + c0..];
            trsm_left_notrans_unblocked(&mut b[c0..], ldb, cb, nrhs, lblock, ldl);
        }
        let rows_below = n - c0 - cb;
        if rows_below > 0 {
            ysolved.resize(cb * nrhs, 0.0);
            for k in 0..nrhs {
                let src = k * ldb + c0;
                ysolved[k * cb..k * cb + cb].copy_from_slice(&b[src..src + cb]);
            }
            // B[c0+cb.., :] -= L[c0+cb.., c0..c0+cb] · Y[c0..c0+cb, :].
            gemm_nn_raw_impl(
                cfg,
                core,
                &mut b[c0 + cb..],
                ldb,
                rows_below,
                nrhs,
                &l[c0 * ldl + c0 + cb..],
                ldl,
                &ysolved,
                cb,
                cb,
                true,
            );
        }
        c0 += cb;
    }
    SOLVED_ROWS.set(ysolved);
}

/// Solve `Lᵀ · X = B` in place on raw column-major buffers under `cfg`.
///
/// Same shapes as [`trsm_left_lower_notrans_raw`]; `b` is overwritten with
/// `X`. The strict upper triangle of `l` is never read. For `n > SB` the
/// solve is blocked bottom-up: each diagonal block first absorbs the
/// contribution of the already-solved rows below it through a packed
/// `Aᵀ·B` GEMM, then runs the unblocked sweep.
pub fn trsm_left_lower_trans_raw(
    cfg: &KernelConfig,
    b: &mut [f64],
    ldb: usize,
    n: usize,
    nrhs: usize,
    l: &[f64],
    ldl: usize,
) {
    trsm_trans(cfg, by_shape, b, ldb, n, nrhs, l, ldl);
}

/// [`trsm_left_lower_trans_raw`] with its updates past the packing
/// threshold on `core`.
#[allow(clippy::too_many_arguments)] // the raw TRSM interface plus the core
fn trsm_trans(
    cfg: &KernelConfig,
    core: Core,
    b: &mut [f64],
    ldb: usize,
    n: usize,
    nrhs: usize,
    l: &[f64],
    ldl: usize,
) {
    if n == 0 || nrhs == 0 {
        return;
    }
    if n <= SB {
        trsm_left_trans_unblocked(b, ldb, n, nrhs, l, ldl);
        return;
    }
    // Scratch copy of the already-solved rows below the current block (same
    // borrow-splitting constraint as the notrans case).
    let mut xsolved = SOLVED_ROWS.take();
    let nblocks = n.div_ceil(SB);
    for blk in (0..nblocks).rev() {
        let c0 = blk * SB;
        let cb = SB.min(n - c0);
        let rows_below = n - c0 - cb;
        if rows_below > 0 {
            xsolved.resize(rows_below * nrhs, 0.0);
            for k in 0..nrhs {
                let src = k * ldb + c0 + cb;
                xsolved[k * rows_below..(k + 1) * rows_below]
                    .copy_from_slice(&b[src..src + rows_below]);
            }
            // B[c0..c0+cb, :] -= L[c0+cb.., c0..c0+cb]ᵀ · X[c0+cb.., :].
            gemm_tn_raw_impl(
                cfg,
                core,
                &mut b[c0..],
                ldb,
                cb,
                nrhs,
                &l[c0 * ldl + c0 + cb..],
                ldl,
                &xsolved,
                rows_below,
                rows_below,
                true,
            );
        }
        let lblock = &l[c0 * ldl + c0..];
        trsm_left_trans_unblocked(&mut b[c0..], ldb, cb, nrhs, lblock, ldl);
    }
    SOLVED_ROWS.set(xsolved);
}

/// True when an `m × n × k` product under `cfg` runs the direct loop nest
/// of [`gemm_nn_acc_raw`] / [`gemm_tn_acc_raw`]; false when it amortizes
/// packing (per `cfg.pack_min_flops`) and takes the packed core or the
/// vector path.
pub fn is_small(cfg: &KernelConfig, m: usize, n: usize, k: usize) -> bool {
    crate::flops::gemm(m, n, k) < cfg.pack_min_flops
}

/// Shared `C ← C ± A · B` body: `core` when the problem amortizes packing
/// (per `cfg.pack_min_flops`), the direct loop nest otherwise. `sub`
/// selects subtraction (used by the blocked forward solve's trailing
/// update).
#[allow(clippy::too_many_arguments)] // BLAS-style raw interface: (buffer, ld) per operand
fn gemm_nn_raw_impl(
    cfg: &KernelConfig,
    core: Core,
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    k: usize,
    sub: bool,
) {
    debug_assert!(ldc >= m.max(1) && lda >= m.max(1) && ldb >= k.max(1));
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if !is_small(cfg, m, n, k) {
        let d = Dest {
            c,
            ldc,
            sub,
            lower: false,
        };
        core(cfg, d, (m, n, k), Operand::Xk(a, lda), Operand::Kx(b, ldb));
        return;
    }
    // Small path. Negating `b` instead of branching on `sub` in the inner
    // loop is exact (multiplication by ±1.0 never rounds), so the add and
    // subtract variants share one loop nest with identical rounding. No
    // skip-zero guard, matching `gemm::gemm_nt_unpacked_raw`'s choice: solve
    // panels are dense once a supernode has been visited.
    let sign = if sub { -1.0 } else { 1.0 };
    for j in 0..n {
        let cj = &mut c[j * ldc..j * ldc + m];
        let bj = &b[j * ldb..j * ldb + k];
        for p in 0..k {
            let bpj = sign * bj[p];
            let ap = &a[p * lda..p * lda + m];
            for i in 0..m {
                cj[i] += ap[i] * bpj;
            }
        }
    }
}

/// Shared `C ← C ± Aᵀ · B` body; see [`gemm_nn_raw_impl`].
#[allow(clippy::too_many_arguments)] // BLAS-style raw interface: (buffer, ld) per operand
fn gemm_tn_raw_impl(
    cfg: &KernelConfig,
    core: Core,
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    k: usize,
    sub: bool,
) {
    debug_assert!(ldc >= m.max(1) && lda >= k.max(1) && ldb >= k.max(1));
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if !is_small(cfg, m, n, k) {
        let d = Dest {
            c,
            ldc,
            sub,
            lower: false,
        };
        core(cfg, d, (m, n, k), Operand::Kx(a, lda), Operand::Kx(b, ldb));
        return;
    }
    for j in 0..n {
        let bj = &b[j * ldb..j * ldb + k];
        let cj = &mut c[j * ldc..j * ldc + m];
        for i in 0..m {
            let ai = &a[i * lda..i * lda + k];
            let mut s = 0.0;
            for p in 0..k {
                s += ai[p] * bj[p];
            }
            if sub {
                cj[i] -= s;
            } else {
                cj[i] += s;
            }
        }
    }
}

/// Compute `C ← C + A · B` on raw column-major buffers under `cfg`.
///
/// * `c`: `m × n`, leading dimension `ldc`
/// * `a`: `m × k`, leading dimension `lda`
/// * `b`: `k × n`, leading dimension `ldb`
#[allow(clippy::too_many_arguments)] // BLAS-style raw interface: (buffer, ld) per operand
pub fn gemm_nn_acc_raw(
    cfg: &KernelConfig,
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    k: usize,
) {
    gemm_nn_raw_impl(cfg, by_shape, c, ldc, m, n, a, lda, b, ldb, k, false);
}

/// Compute `C ← C + Aᵀ · B` on raw column-major buffers under `cfg`.
///
/// * `c`: `m × n`, leading dimension `ldc`
/// * `a`: `k × m`, leading dimension `lda` (transposed operand)
/// * `b`: `k × n`, leading dimension `ldb`
#[allow(clippy::too_many_arguments)] // BLAS-style raw interface: (buffer, ld) per operand
pub fn gemm_tn_acc_raw(
    cfg: &KernelConfig,
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    k: usize,
) {
    gemm_tn_raw_impl(cfg, by_shape, c, ldc, m, n, a, lda, b, ldb, k, false);
}

/// Matrix-level wrapper with an explicit config: `C ← C + A·B`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm_nn_acc_cfg(cfg: &KernelConfig, c: &mut Mat, a: &Mat, b: &Mat) {
    assert_eq!(a.cols(), b.rows(), "gemm_nn: inner dimensions differ");
    assert_eq!(c.rows(), a.rows(), "gemm_nn: row dimensions differ");
    assert_eq!(c.cols(), b.cols(), "gemm_nn: column dimensions differ");
    let (m, n, k) = (c.rows(), c.cols(), a.cols());
    let (ldc, lda, ldb) = (c.ld(), a.ld(), b.ld());
    gemm_nn_acc_raw(
        cfg,
        c.as_mut_slice(),
        ldc,
        m,
        n,
        a.as_slice(),
        lda,
        b.as_slice(),
        ldb,
        k,
    );
}

/// Matrix-level wrapper with an explicit config: `C ← C + Aᵀ·B`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm_tn_acc_cfg(cfg: &KernelConfig, c: &mut Mat, a: &Mat, b: &Mat) {
    assert_eq!(a.rows(), b.rows(), "gemm_tn: inner dimensions differ");
    assert_eq!(c.rows(), a.cols(), "gemm_tn: row dimensions differ");
    assert_eq!(c.cols(), b.cols(), "gemm_tn: column dimensions differ");
    let (m, n, k) = (c.rows(), c.cols(), a.rows());
    let (ldc, lda, ldb) = (c.ld(), a.ld(), b.ld());
    gemm_tn_acc_raw(
        cfg,
        c.as_mut_slice(),
        ldc,
        m,
        n,
        a.as_slice(),
        lda,
        b.as_slice(),
        ldb,
        k,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::{edges, forced_isas, tiny_blocks};
    use crate::naive::potrf_ref;

    /// `L·Y = B` in place, through the raw kernel the solve phase calls.
    fn trsm_left_lower_notrans_cfg(cfg: &KernelConfig, b: &mut Mat, l: &Mat) {
        let (n, nrhs, ldb, ldl) = (b.rows(), b.cols(), b.ld(), l.ld());
        trsm_left_lower_notrans_raw(cfg, b.as_mut_slice(), ldb, n, nrhs, l.as_slice(), ldl);
    }

    /// `Lᵀ·X = B` in place, through the raw kernel the solve phase calls.
    fn trsm_left_lower_trans_cfg(cfg: &KernelConfig, b: &mut Mat, l: &Mat) {
        let (n, nrhs, ldb, ldl) = (b.rows(), b.cols(), b.ld(), l.ld());
        trsm_left_lower_trans_raw(cfg, b.as_mut_slice(), ldb, n, nrhs, l.as_slice(), ldl);
    }

    fn spd_factor(n: usize) -> Mat {
        let a = Mat::spd_from(n, |r, c| ((r * 7 + c * 5) % 11) as f64 - 5.0);
        potrf_ref(&a).unwrap()
    }

    fn panel(n: usize, nrhs: usize) -> Mat {
        Mat::from_fn(n, nrhs, |r, c| ((r * 3 + c * 5) % 13) as f64 - 6.0)
    }

    #[test]
    fn left_notrans_solves_each_column() {
        for &(n, nrhs) in &[(1, 1), (4, 1), (5, 3), (9, 8), (17, 16)] {
            let l = spd_factor(n);
            let b0 = panel(n, nrhs);
            let mut y = b0.clone();
            trsm_left_lower_notrans_cfg(&KernelConfig::default(), &mut y, &l);
            // L·Y must reproduce B0.
            let recon = l.matmul(&y);
            assert!(recon.max_abs_diff(&b0) < 1e-9, "n={n} nrhs={nrhs}");
        }
    }

    #[test]
    fn left_trans_solves_each_column() {
        for &(n, nrhs) in &[(1, 1), (4, 1), (5, 3), (9, 8), (17, 16)] {
            let l = spd_factor(n);
            let b0 = panel(n, nrhs);
            let mut x = b0.clone();
            trsm_left_lower_trans_cfg(&KernelConfig::default(), &mut x, &l);
            let recon = l.transpose().matmul(&x);
            assert!(recon.max_abs_diff(&b0) < 1e-9, "n={n} nrhs={nrhs}");
        }
    }

    #[test]
    fn single_column_matches_scalar_substitution() {
        // nrhs = 1 must be arithmetically identical to the scalar routines
        // the vector solve path used (bit-equality, not just tolerance).
        let l = spd_factor(11);
        let b0 = panel(11, 1);
        let mut fwd_panel = b0.clone();
        trsm_left_lower_notrans_cfg(&KernelConfig::default(), &mut fwd_panel, &l);
        let mut fwd_scalar: Vec<f64> = b0.as_slice().to_vec();
        for c in 0..11 {
            let yc = fwd_scalar[c] / l[(c, c)];
            fwd_scalar[c] = yc;
            for r in c + 1..11 {
                fwd_scalar[r] -= l[(r, c)] * yc;
            }
        }
        assert_eq!(fwd_panel.as_slice(), &fwd_scalar[..]);
    }

    #[test]
    fn upper_triangle_of_l_is_ignored() {
        let mut l = spd_factor(6);
        let b0 = panel(6, 4);
        let mut y1 = b0.clone();
        trsm_left_lower_notrans_cfg(&KernelConfig::default(), &mut y1, &l);
        let mut x1 = b0.clone();
        trsm_left_lower_trans_cfg(&KernelConfig::default(), &mut x1, &l);
        for j in 1..6 {
            for i in 0..j {
                l[(i, j)] = f64::NAN;
            }
        }
        let mut y2 = b0.clone();
        trsm_left_lower_notrans_cfg(&KernelConfig::default(), &mut y2, &l);
        let mut x2 = b0.clone();
        trsm_left_lower_trans_cfg(&KernelConfig::default(), &mut x2, &l);
        assert_eq!(y1.max_abs_diff(&y2), 0.0);
        assert_eq!(x1.max_abs_diff(&x2), 0.0);
    }

    #[test]
    fn gemm_nn_acc_matches_matmul() {
        for &(m, n, k) in &[(1, 1, 1), (3, 2, 4), (7, 5, 3), (16, 9, 11)] {
            let a = Mat::from_fn(m, k, |r, c| ((r * 13 + c * 7) % 9) as f64 - 4.0);
            let b = Mat::from_fn(k, n, |r, c| ((r * 5 + c * 11) % 13) as f64 * 0.5 - 3.0);
            let c0 = Mat::from_fn(m, n, |r, c| (r + c) as f64);
            let mut c1 = c0.clone();
            gemm_nn_acc_cfg(&KernelConfig::default(), &mut c1, &a, &b);
            let mut expect = a.matmul(&b);
            for (e, base) in expect.as_mut_slice().iter_mut().zip(c0.as_slice()) {
                *e += base;
            }
            assert!(c1.max_abs_diff(&expect) < 1e-10, "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn gemm_tn_acc_matches_matmul() {
        for &(m, n, k) in &[(1, 1, 1), (3, 2, 4), (7, 5, 3), (16, 9, 11)] {
            let a = Mat::from_fn(k, m, |r, c| ((r * 13 + c * 7) % 9) as f64 - 4.0);
            let b = Mat::from_fn(k, n, |r, c| ((r * 5 + c * 11) % 13) as f64 * 0.5 - 3.0);
            let c0 = Mat::from_fn(m, n, |r, c| (2 * r + c) as f64);
            let mut c1 = c0.clone();
            gemm_tn_acc_cfg(&KernelConfig::default(), &mut c1, &a, &b);
            let mut expect = a.transpose().matmul(&b);
            for (e, base) in expect.as_mut_slice().iter_mut().zip(c0.as_slice()) {
                *e += base;
            }
            assert!(c1.max_abs_diff(&expect) < 1e-10, "m={m} n={n} k={k}");
        }
    }

    /// Both blocked left solves under `cfg` against the unblocked sweeps.
    fn blocked_matches_unblocked(cfg: &KernelConfig, n: usize, nrhs: usize) {
        let l = spd_factor(n);
        let b0 = panel(n, nrhs);
        let (ldb, ldl) = (b0.ld(), l.ld());
        let mut blocked = b0.clone();
        trsm_left_lower_notrans_cfg(cfg, &mut blocked, &l);
        let mut sweep = b0.clone();
        trsm_left_notrans_unblocked(sweep.as_mut_slice(), ldb, n, nrhs, l.as_slice(), ldl);
        assert!(
            blocked.max_abs_diff(&sweep) < 1e-8,
            "notrans n={n} nrhs={nrhs}"
        );
        let mut blocked = b0.clone();
        trsm_left_lower_trans_cfg(cfg, &mut blocked, &l);
        let mut sweep = b0.clone();
        trsm_left_trans_unblocked(sweep.as_mut_slice(), ldb, n, nrhs, l.as_slice(), ldl);
        assert!(
            blocked.max_abs_diff(&sweep) < 1e-8,
            "trans n={n} nrhs={nrhs}"
        );
    }

    #[test]
    fn blocked_solves_match_unblocked_across_sb_boundary() {
        // n straddles the solve-block width; the blocked path must agree
        // with the unblocked sweep to rounding.
        let shapes = edges(SB).map(|n| (n, 5)).into_iter();
        for (n, nrhs) in shapes.chain([(200, 8), (200, 1)]) {
            blocked_matches_unblocked(&KernelConfig::default(), n, nrhs);
        }
    }

    #[test]
    fn non_default_solve_block_matches_unblocked() {
        // The same edges with every off-diagonal update on the packed core
        // under cache blocks a few register tiles wide.
        let cfg = tiny_blocks();
        for (n, nrhs) in [(SB + 1, 5), (2 * SB + 3, 3)] {
            blocked_matches_unblocked(&cfg, n, nrhs);
        }
    }

    #[test]
    fn accumulating_gemms_match_matmul_above_pack_threshold() {
        // Shapes large enough to take the packed register-blocked path.
        for &(m, n, k) in &[(150, 40, 90), (257, 33, 129)] {
            let a = Mat::from_fn(m, k, |r, c| ((r * 13 + c * 7) % 9) as f64 - 4.0);
            let b = Mat::from_fn(k, n, |r, c| ((r * 5 + c * 11) % 13) as f64 * 0.5 - 3.0);
            let c0 = Mat::from_fn(m, n, |r, c| (r + c) as f64);
            let mut c1 = c0.clone();
            gemm_nn_acc_cfg(&KernelConfig::default(), &mut c1, &a, &b);
            let mut expect = a.matmul(&b);
            for (e, base) in expect.as_mut_slice().iter_mut().zip(c0.as_slice()) {
                *e += base;
            }
            assert!(c1.max_abs_diff(&expect) < 1e-9, "nn m={m} n={n} k={k}");

            let at = Mat::from_fn(k, m, |r, c| ((r * 13 + c * 7) % 9) as f64 - 4.0);
            let mut c1 = c0.clone();
            gemm_tn_acc_cfg(&KernelConfig::default(), &mut c1, &at, &b);
            let mut expect = at.transpose().matmul(&b);
            for (e, base) in expect.as_mut_slice().iter_mut().zip(c0.as_slice()) {
                *e += base;
            }
            assert!(c1.max_abs_diff(&expect) < 1e-9, "tn m={m} n={n} k={k}");
        }
    }

    /// Every config the vector path must match the packed core under: each
    /// ISA this machine has with the default blocking and with every call
    /// past the packing threshold, plus cache blocks a few tiles wide.
    fn identity_configs() -> Vec<KernelConfig> {
        let forced = forced_isas().into_iter().map(|(cfg, _)| cfg);
        let eager = |cfg: KernelConfig| {
            let eager = KernelConfig {
                pack_min_flops: 0,
                ..cfg.clone()
            };
            [cfg, eager]
        };
        forced.flat_map(eager).chain([tiny_blocks()]).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn one_column_vector_path_is_bit_identical_to_the_packed_core() {
        // C ± A·b and C ± Aᵀ·b through the dispatch every kernel uses, and
        // through the packed core alone: rows across the SIMD row groups and
        // the eight-row chains, k across the kc edges.
        for cfg in identity_configs() {
            let ks = edges(cfg.kc).into_iter().chain([1, 3]);
            for (m, k) in [1, 5, 8, 17, 31, 33, 70, 131]
                .into_iter()
                .flat_map(|m| ks.clone().map(move |k| (m, k)))
            {
                let (lda_n, lda_t) = (m + 3, k + 2);
                let a_n: Vec<f64> = (0..lda_n * k)
                    .map(|v| ((v * 7 % 23) as f64 - 11.0) / 7.0)
                    .collect();
                let a_t: Vec<f64> = (0..lda_t * m)
                    .map(|v| ((v * 5 % 19) as f64 - 9.0) / 3.0)
                    .collect();
                let b: Vec<f64> = (0..k).map(|p| ((p * 11 % 17) as f64 - 8.0) / 9.0).collect();
                let c0: Vec<f64> = (0..m).map(|i| (i % 13) as f64 * 0.37 - 2.0).collect();
                for sub in [false, true] {
                    let run = |core: Core, trans: bool| {
                        let mut c = c0.clone();
                        if trans {
                            gemm_tn_raw_impl(
                                &cfg, core, &mut c, m, m, 1, &a_t, lda_t, &b, k, k, sub,
                            );
                        } else {
                            gemm_nn_raw_impl(
                                &cfg, core, &mut c, m, m, 1, &a_n, lda_n, &b, k, k, sub,
                            );
                        }
                        bits(&c)
                    };
                    for trans in [false, true] {
                        let what = format!(
                            "{:?} kc {} m {m} k {k} sub {sub} trans {trans}",
                            cfg.isa, cfg.kc
                        );
                        assert_eq!(run(by_shape, trans), run(gemm_packed, trans), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn one_column_blocked_trsms_are_bit_identical_to_the_packed_core() {
        // The blocked solves' updates of a single right-hand side take the
        // vector path; across the SB edges they must not move a bit.
        for cfg in identity_configs() {
            for n in edges(SB).into_iter().chain([200]) {
                let l = spd_factor(n);
                let b0 = panel(n, 1);
                let run = |core: Core, trans: bool| {
                    let mut x = b0.as_slice().to_vec();
                    let trsm = if trans { trsm_trans } else { trsm_notrans };
                    trsm(&cfg, core, &mut x, n, n, 1, l.as_slice(), l.ld());
                    bits(&x)
                };
                for trans in [false, true] {
                    let what = format!("{:?} n {n} trans {trans}", cfg.isa);
                    assert_eq!(run(by_shape, trans), run(gemm_packed, trans), "{what}");
                }
            }
        }
    }

    #[test]
    fn raw_kernels_respect_leading_dimensions() {
        // Embed a 2×2 C in a 4-row buffer; rows 2..4 of each column must stay
        // untouched by both accumulating kernels.
        let cfg = KernelConfig::default();
        let mut c = vec![1.0; 8];
        let a = [1.0, 2.0]; // 2×1, lda = 2
        let b = [3.0, 4.0]; // 1×2, ldb = 1
        gemm_nn_acc_raw(&cfg, &mut c, 4, 2, 2, &a, 2, &b, 1, 1);
        assert_eq!(&c, &[4.0, 7.0, 1.0, 1.0, 5.0, 9.0, 1.0, 1.0]);
        let mut c = vec![0.0; 8];
        let at = [1.0, 2.0]; // 2×1 transposed operand (k=2, m=1), lda = 2
        let bt = [3.0, 4.0, 5.0, 6.0]; // 2×2, ldb = 2
        gemm_tn_acc_raw(&cfg, &mut c, 4, 1, 2, &at, 2, &bt, 2, 2);
        assert_eq!(&c, &[11.0, 0.0, 0.0, 0.0, 17.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn degenerate_dimensions_are_noops() {
        let cfg = KernelConfig::default();
        let mut empty: Vec<f64> = Vec::new();
        trsm_left_lower_notrans_raw(&cfg, &mut empty, 1, 0, 3, &[], 1);
        trsm_left_lower_trans_raw(&cfg, &mut empty, 1, 4, 0, &[1.0; 16], 4);
        let mut c = vec![7.0; 4];
        gemm_nn_acc_raw(&cfg, &mut c, 2, 2, 2, &[], 2, &[], 1, 0);
        gemm_tn_acc_raw(&cfg, &mut c, 2, 2, 2, &[], 1, &[], 1, 0);
        assert_eq!(&c, &[7.0; 4]);
    }
}
