//! Symmetric rank-k update `C ← C − A·Aᵀ` (lower triangle).
//!
//! Used by *Update* tasks `U(i,j,i)` whose target block sits on the diagonal
//! of the matrix: the update of a diagonal block by a factored panel is
//! symmetric, so only the lower triangle is computed — this halves the work
//! relative to GEMM, exactly as BLAS `SYRK` does. The packed-dispatch
//! threshold comes from the caller's [`KernelConfig`]; the diagonal-tile
//! edge is the constant [`DB`].

use crate::config::KernelConfig;
use crate::gemm::gemm_nt_raw;
use crate::mat::Mat;
use crate::microkernel::{gemm_packed_shared_a_rows, Dest, Isa};
use crate::pack::{self, ApackFull, Operand};

/// Diagonal-tile edge. A diagonal tile runs on the packed core into a
/// `DB × DB` scratch (18 KiB, L1-resident) whose lower half is folded into
/// `C`: the work discarded above the diagonal grows with `DB`, the number of
/// passes over the packed `B` strips with `n / DB`. 48 is three strips of the
/// widest register tile.
pub const DB: usize = 48;

// Tiles run as whole-strip ranges of the shared `A` pack, so tile boundaries
// must land on packed-strip boundaries under every ISA.
const _: () = {
    let mut i = 0;
    while i < Isa::ALL.len() {
        assert!(DB.is_multiple_of(Isa::ALL[i].tile().0));
        i += 1;
    }
};

/// Compute `C ← C − A·Aᵀ` updating only the lower triangle, on raw
/// column-major buffers under `cfg`. `c` is `n × n` (leading dimension
/// `ldc`), `a` is `n × k` (leading dimension `lda`).
pub fn syrk_lower_raw(
    cfg: &KernelConfig,
    c: &mut [f64],
    ldc: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    k: usize,
) {
    if n == 0 || k == 0 {
        return;
    }
    if crate::flops::syrk(n, k) >= cfg.pack_min_flops {
        syrk_lower_packed(cfg, c, ldc, n, a, lda, k);
        return;
    }
    // Small problem: tile the diagonal; each diagonal DB×DB tile gets a
    // triangular update and the panel below it a plain GEMM.
    for jj in (0..n).step_by(DB) {
        let jend = (jj + DB).min(n);
        let jb = jend - jj;
        for j in jj..jend {
            for p in 0..k {
                let ajp = a[p * lda + j];
                if ajp == 0.0 {
                    continue;
                }
                let col = &mut c[j * ldc..j * ldc + jend];
                let ap = &a[p * lda..p * lda + jend];
                for i in j..jend {
                    col[i] -= ap[i] * ajp;
                }
            }
        }
        // Rectangular panel below the diagonal tile: rows jend..n, cols jj..jend.
        let m = n - jend;
        if m > 0 {
            // C[jend.., jj..jend] -= A[jend.., :] * A[jj..jend, :]^T
            let c_off = jj * ldc + jend;
            gemm_nt_raw(
                cfg,
                &mut c[c_off..],
                ldc,
                m,
                jb,
                &a[jend..],
                lda,
                &a[jj..],
                lda,
                k,
            );
        }
    }
}

/// Packed-core SYRK: the `n × k` panel is packed into `mr`-strip format
/// **once** ([`ApackFull`]), then every diagonal tile and every sub-diagonal
/// block runs against strip subranges of that shared pack — the per-tile
/// GEMM calls of the naive tiling would otherwise re-pack the same `A` rows
/// `n/DB` times over. The pack, the `B` strips and the diagonal-tile
/// accumulator all live in the thread-local scratch, so a factorization's
/// thousands of SYRK calls stop allocating after warm-up.
///
/// Diagonal tiles run on the packed core into a zeroed scratch tile whose
/// lower half is then folded into `C`. Register tiles strictly above the
/// diagonal are skipped; the ones straddling it still compute a few unused
/// elements, but at the packed rate that beats running the exact half on a
/// scalar triangular loop.
fn syrk_lower_packed(
    cfg: &KernelConfig,
    c: &mut [f64],
    ldc: usize,
    n: usize,
    a: &[f64],
    lda: usize,
    k: usize,
) {
    pack::with_buffers(|pa, pb, tile| {
        let apack = ApackFull::pack(cfg, pa, Operand::Xk(a, lda), n, k);
        for jj in (0..n).step_by(DB) {
            let jend = (jj + DB).min(n);
            let jb = jend - jj;
            // The B operand of both products: rows jj..jend of A, transposed.
            let b = Operand::Xk(&a[jj..], lda);
            tile.clear();
            tile.resize(jb * jb, 0.0);
            let diag = Dest {
                c: tile,
                ldc: jb,
                sub: true,
                lower: true,
            };
            gemm_packed_shared_a_rows(cfg, diag, jj, (jb, jb), &apack, b, pb);
            for j in 0..jb {
                let col = &mut c[(jj + j) * ldc + jj..(jj + j) * ldc + jend];
                let tcol = &tile[j * jb..j * jb + jb];
                for i in j..jb {
                    col[i] += tcol[i];
                }
            }
            // Rectangular panel below the diagonal tile:
            // C[jend.., jj..jend] -= A[jend.., :] * A[jj..jend, :]^T
            let below = Dest {
                c: &mut c[jj * ldc + jend..],
                ldc,
                sub: true,
                lower: false,
            };
            gemm_packed_shared_a_rows(cfg, below, jend, (n - jend, jb), &apack, b, pb);
        }
    });
}

/// Matrix-level wrapper with an explicit config: `C ← C − A·Aᵀ`, lower
/// triangle only.
///
/// The strict upper triangle of `C` is left untouched.
///
/// # Panics
/// Panics if `C` is not square or `A.rows() != C.rows()`.
pub fn syrk_lower_cfg(cfg: &KernelConfig, c: &mut Mat, a: &Mat) {
    assert_eq!(c.rows(), c.cols(), "syrk_lower: C must be square");
    assert_eq!(a.rows(), c.rows(), "syrk_lower: A rows must match C");
    let (n, k) = (c.rows(), a.cols());
    let (ldc, lda) = (c.ld(), a.ld());
    syrk_lower_raw(cfg, c.as_mut_slice(), ldc, n, a.as_slice(), lda, k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::{edges, tiny_blocks};
    use crate::naive::syrk_ref;

    fn check_cfg(cfg: &KernelConfig, n: usize, k: usize) {
        let a = Mat::from_fn(n, k, |r, c| ((r * 11 + c * 3) % 7) as f64 - 3.0);
        let mut c1 = Mat::from_fn(n, n, |r, c| (r * n + c) as f64 * 0.125);
        let mut c2 = c1.clone();
        syrk_lower_cfg(cfg, &mut c1, &a);
        syrk_ref(&mut c2, &a);
        for j in 0..n {
            for i in j..n {
                assert!(
                    (c1[(i, j)] - c2[(i, j)]).abs() < 1e-10,
                    "n={n} k={k} at ({i},{j})"
                );
            }
        }
    }

    fn check(n: usize, k: usize) {
        check_cfg(&KernelConfig::default(), n, k);
    }

    #[test]
    fn matches_reference_small() {
        for &(n, k) in &[(1, 1), (2, 3), (5, 4), (8, 8)] {
            check(n, k);
        }
    }

    #[test]
    fn matches_reference_across_tile_boundaries() {
        // n straddles DB on the unpacked (k = 3) and the packed (k = 40)
        // side of the dispatch threshold.
        for n in edges(DB) {
            for k in [3, 40] {
                check(n, k);
            }
        }
        check(130, 5);
    }

    #[test]
    fn upper_triangle_untouched() {
        let a = Mat::from_fn(6, 4, |r, c| (r + c) as f64);
        let mut c = Mat::from_fn(6, 6, |_, _| 42.0);
        syrk_lower_cfg(&KernelConfig::default(), &mut c, &a);
        for j in 1..6 {
            for i in 0..j {
                assert_eq!(c[(i, j)], 42.0, "upper entry ({i},{j}) modified");
            }
        }
    }

    #[test]
    fn zero_k_is_noop() {
        let a = Mat::zeros(4, 0);
        let mut c = Mat::eye(4);
        syrk_lower_cfg(&KernelConfig::default(), &mut c, &a);
        assert_eq!(c, Mat::eye(4));
    }

    #[test]
    fn non_default_tile_matches_reference() {
        // The same DB edges with every call on the packed core under cache
        // blocks a few register tiles wide.
        let cfg = tiny_blocks();
        for n in edges(DB) {
            check_cfg(&cfg, n, 20);
        }
    }
}
