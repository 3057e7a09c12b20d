//! Blocked general matrix multiply `C ← C − A·Bᵀ`.
//!
//! This is the exact operation performed by the paper's *Update* tasks
//! `U(i,j,k)` with an off-diagonal target block: the target `C` is updated by
//! the product of two factored panels `A` and `B` from the same supernode.
//!
//! The kernel operates on raw column-major slices with explicit leading
//! dimensions so the solver can apply it directly to sub-panels of supernode
//! buffers. Large problems run through the packed register-blocked core
//! ([`crate::microkernel`]); tiny problems — where packing cannot amortize —
//! keep the direct two-column loop nest, preserved in
//! [`gemm_nt_unpacked_raw`] (also the measured "pre-PR" baseline of the
//! `kernel_roofline` benchmark). The dispatch point comes from the caller's
//! [`KernelConfig`] (`pack_min_flops`); the unpacked nest's tiles are the
//! constants [`NB`] and [`KB`].

use crate::config::KernelConfig;
use crate::mat::Mat;
use crate::microkernel::{gemm_packed, Dest};
use crate::pack::Operand;

/// Column tile of the unpacked loop nest: with [`KB`], sized so a tile's
/// `B` entries (`NB × KB` doubles, 64 KiB) stay cache-resident while the `A`
/// columns stream past. The solver only runs the nest below
/// `pack_min_flops`, where a call rarely spans more than one tile; the tiles
/// matter to the `kernel_roofline` baseline rows, which run it at any size.
pub const NB: usize = 64;
/// Inner-product tile of the unpacked loop nest; see [`NB`].
pub const KB: usize = 128;

/// Compute `C ← C − A · Bᵀ` on raw column-major buffers under `cfg`.
///
/// * `c`: `m × n` with leading dimension `ldc`
/// * `a`: `m × k` with leading dimension `lda`
/// * `b`: `n × k` with leading dimension `ldb`
///
/// Dispatches to the packed register-blocked core when the problem is large
/// enough to amortize packing (`cfg.pack_min_flops`), and to
/// [`gemm_nt_unpacked_raw`] otherwise.
///
/// # Panics
/// Panics (via debug assertions and slice bounds) when the buffers are too
/// small for the given dimensions.
#[allow(clippy::too_many_arguments)] // BLAS-style raw interface: (buffer, ld) per operand
pub fn gemm_nt_raw(
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
    debug_assert!(ldc >= m.max(1) && lda >= m.max(1) && ldb >= n.max(1));
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if crate::flops::gemm(m, n, k) < cfg.pack_min_flops {
        gemm_nt_unpacked_raw(c, ldc, m, n, a, lda, b, ldb, k);
        return;
    }
    gemm_nt_packed_raw(cfg, c, ldc, m, n, a, lda, b, ldb, k);
}

/// The packed register-blocked path, unconditionally — no size dispatch.
///
/// [`gemm_nt_raw`] is the entry point the solver uses; this one exists so
/// the `kernel_roofline` benchmark can measure the packed engine on both
/// sides of `cfg.pack_min_flops` (the crossover sweep that threshold's
/// default is derived from).
#[allow(clippy::too_many_arguments)] // BLAS-style raw interface: (buffer, ld) per operand
pub fn gemm_nt_packed_raw(
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
    debug_assert!(ldc >= m.max(1) && lda >= m.max(1) && ldb >= n.max(1));
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let d = Dest {
        c,
        ldc,
        sub: true,
        lower: false,
    };
    gemm_packed(cfg, d, (m, n, k), Operand::Xk(a, lda), Operand::Xk(b, ldb));
}

/// The pre-packing two-column loop nest: `C ← C − A · Bᵀ` reading operands
/// in place through their leading dimensions, tiled by [`NB`]/[`KB`].
///
/// Kept (a) as the small-problem fast path — no packing traffic, which wins
/// below `pack_min_flops` — and (b) as the measured baseline the
/// `kernel_roofline` benchmark compares the packed engine against.
#[allow(clippy::too_many_arguments)] // BLAS-style raw interface: (buffer, ld) per operand
pub fn gemm_nt_unpacked_raw(
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
    debug_assert!(ldc >= m.max(1) && lda >= m.max(1) && ldb >= n.max(1));
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Loop order: jj (n tiles) -> kk (k strips) -> 2-column register
    // microkernel over j -> p -> i. Updating two C columns per k-strip pass
    // reuses every loaded A column twice, which roughly doubles arithmetic
    // intensity versus a plain rank-1 sweep; the inner i-loops stay
    // contiguous so LLVM vectorizes them.
    //
    // No skip-zero guards anywhere: factored supernode panels are dense, so
    // a `b == 0.0` test almost never fires after the first panel while its
    // branch sits inside the hot loop nest. The remainder column used to
    // guard and the main path did not; `kernel_roofline` measured the
    // guarded variant no faster on dense operands (within noise at n = 256),
    // so both paths now uniformly skip the test — which also keeps the
    // remainder column's rounding behavior identical to the main path's.
    for jj in (0..n).step_by(NB) {
        let jend = (jj + NB).min(n);
        for kk in (0..k).step_by(KB) {
            let kend = (kk + KB).min(k);
            let mut j = jj;
            while j + 1 < jend {
                // Two destination columns, split without overlap.
                let (head, tail) = c.split_at_mut((j + 1) * ldc);
                let cj0 = &mut head[j * ldc..j * ldc + m];
                let cj1 = &mut tail[..m];
                let mut p = kk;
                while p + 1 < kend {
                    let b00 = b[p * ldb + j];
                    let b01 = b[p * ldb + j + 1];
                    let b10 = b[(p + 1) * ldb + j];
                    let b11 = b[(p + 1) * ldb + j + 1];
                    let a0 = &a[p * lda..p * lda + m];
                    let a1 = &a[(p + 1) * lda..(p + 1) * lda + m];
                    for i in 0..m {
                        let (x0, x1) = (a0[i], a1[i]);
                        cj0[i] -= x0 * b00 + x1 * b10;
                        cj1[i] -= x0 * b01 + x1 * b11;
                    }
                    p += 2;
                }
                if p < kend {
                    let b0 = b[p * ldb + j];
                    let b1 = b[p * ldb + j + 1];
                    let ap = &a[p * lda..p * lda + m];
                    for i in 0..m {
                        let x = ap[i];
                        cj0[i] -= x * b0;
                        cj1[i] -= x * b1;
                    }
                }
                j += 2;
            }
            // Remainder column.
            if j < jend {
                let cj = &mut c[j * ldc..j * ldc + m];
                let mut p = kk;
                while p + 1 < kend {
                    let bj0 = b[p * ldb + j];
                    let bj1 = b[(p + 1) * ldb + j];
                    let a0 = &a[p * lda..p * lda + m];
                    let a1 = &a[(p + 1) * lda..(p + 1) * lda + m];
                    for i in 0..m {
                        cj[i] -= a0[i] * bj0 + a1[i] * bj1;
                    }
                    p += 2;
                }
                if p < kend {
                    let bjp = b[p * ldb + j];
                    let ap = &a[p * lda..p * lda + m];
                    for i in 0..m {
                        cj[i] -= ap[i] * bjp;
                    }
                }
            }
        }
    }
}

/// Matrix-level wrapper with an explicit config: `C ← C − A·Bᵀ`.
///
/// # Panics
/// Panics if `A.cols() != B.cols()`, `C.rows() != A.rows()`, or
/// `C.cols() != B.rows()`.
pub fn gemm_nt_cfg(cfg: &KernelConfig, c: &mut Mat, a: &Mat, b: &Mat) {
    assert_eq!(a.cols(), b.cols(), "gemm_nt: inner dimensions differ");
    assert_eq!(c.rows(), a.rows(), "gemm_nt: row dimensions differ");
    assert_eq!(c.cols(), b.rows(), "gemm_nt: column dimensions differ");
    let (m, n, k) = (c.rows(), c.cols(), a.cols());
    let (ldc, lda, ldb) = (c.ld(), a.ld(), b.ld());
    gemm_nt_raw(
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
    use crate::config::tests::edges;
    use crate::naive::gemm_ref;

    fn check(m: usize, n: usize, k: usize) {
        let a = Mat::from_fn(m, k, |r, c| ((r * 13 + c * 7) % 9) as f64 - 4.0);
        let b = Mat::from_fn(n, k, |r, c| ((r * 5 + c * 11) % 13) as f64 * 0.5 - 3.0);
        let mut c1 = Mat::from_fn(m, n, |r, c| (r + c) as f64);
        let mut c2 = c1.clone();
        gemm_nt_cfg(&KernelConfig::default(), &mut c1, &a, &b);
        gemm_ref(&mut c2, &a, &b);
        assert!(c1.max_abs_diff(&c2) < 1e-10, "m={m} n={n} k={k}");
    }

    #[test]
    fn matches_reference_on_small_shapes() {
        for &(m, n, k) in &[(1, 1, 1), (2, 3, 4), (5, 5, 5), (7, 1, 3), (1, 7, 3)] {
            check(m, n, k);
        }
    }

    #[test]
    fn matches_reference_across_tile_boundaries() {
        // Spans the unpacked tile sizes, the packed dispatch threshold and
        // the packed cache blocks.
        for &(m, n, k) in &[
            (65, 64, 129),
            (63, 65, 127),
            (100, 70, 130),
            (129, 2, 1),
            (260, 140, 300),
        ] {
            check(m, n, k);
        }
    }

    #[test]
    fn unpacked_baseline_matches_reference() {
        // n straddles NB and k straddles KB: every tile edge of the nest.
        let mut shapes = vec![(5, 3, 4), (65, 64, 129), (100, 70, 130)];
        shapes.extend(edges(NB).iter().zip(edges(KB)).map(|(&n, k)| (9, n, k)));
        for (m, n, k) in shapes {
            let a = Mat::from_fn(m, k, |r, c| ((r * 13 + c * 7) % 9) as f64 - 4.0);
            let b = Mat::from_fn(n, k, |r, c| ((r * 5 + c * 11) % 13) as f64 * 0.5 - 3.0);
            let mut c1 = Mat::from_fn(m, n, |r, c| (r + c) as f64);
            let mut c2 = c1.clone();
            gemm_nt_unpacked_raw(
                c1.as_mut_slice(),
                m,
                m,
                n,
                a.as_slice(),
                m,
                b.as_slice(),
                n,
                k,
            );
            gemm_ref(&mut c2, &a, &b);
            assert!(c1.max_abs_diff(&c2) < 1e-10, "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn degenerate_dimensions_are_noops() {
        let a = Mat::zeros(3, 0);
        let b = Mat::zeros(2, 0);
        let mut c = Mat::from_fn(3, 2, |r, _| r as f64);
        let before = c.clone();
        gemm_nt_cfg(&KernelConfig::default(), &mut c, &a, &b);
        assert_eq!(c, before);
    }

    #[test]
    fn raw_kernel_respects_leading_dimension() {
        // Embed a 2x2 C in a 4-row buffer; rows 2..4 must stay untouched.
        let mut c = vec![1.0; 8];
        let a = [1.0, 2.0, 9.0, 9.0]; // 2x1, lda=4 would overrun; use lda=2 here
        let b = [3.0, 4.0];
        gemm_nt_raw(
            &KernelConfig::default(),
            &mut c,
            4,
            2,
            2,
            &a[..2],
            2,
            &b,
            2,
            1,
        );
        // C[0,0] = 1 - 1*3, C[1,0] = 1 - 2*3, C[0,1] = 1 - 1*4, C[1,1] = 1 - 2*4
        assert_eq!(&c, &[-2.0, -5.0, 1.0, 1.0, -3.0, -7.0, 1.0, 1.0]);
    }

    #[test]
    fn dispatch_threshold_is_config_driven() {
        // With pack_min_flops = 0 every call takes the packed path; with
        // u64::MAX every call stays unpacked. Both must match the oracle.
        let (m, n, k) = (40, 30, 25);
        let a = Mat::from_fn(m, k, |r, c| ((r * 13 + c * 7) % 9) as f64 - 4.0);
        let b = Mat::from_fn(n, k, |r, c| ((r * 5 + c * 11) % 13) as f64 * 0.5 - 3.0);
        let mut want = Mat::from_fn(m, n, |r, c| (r + c) as f64);
        gemm_ref(&mut want, &a, &b);
        for pack_min_flops in [0, u64::MAX] {
            let cfg = KernelConfig {
                pack_min_flops,
                ..Default::default()
            };
            let mut c = Mat::from_fn(m, n, |r, c| (r + c) as f64);
            gemm_nt_cfg(&cfg, &mut c, &a, &b);
            assert!(c.max_abs_diff(&want) < 1e-10);
        }
    }
}
