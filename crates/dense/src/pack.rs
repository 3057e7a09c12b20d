//! Operand packing for the register-blocked GEMM core.
//!
//! The packed kernel engine (see [`crate::microkernel`]) never reads matrix
//! operands through their leading dimensions inside the flop loop. Instead,
//! each cache block is first *packed* into a contiguous layout aligned with
//! the register tile `mr × nr` of the resolved ISA
//! ([`crate::microkernel::Isa::tile`]):
//!
//! * the `A` operand is packed into **`mr`-row strips**: for each strip of
//!   `mr` consecutive rows, the `kb` columns of the current k-block are
//!   stored contiguously (`dst[strip][p][r]`, `r < mr`), so the microkernel
//!   streams `A` with unit stride regardless of `lda`;
//! * the `B` operand is packed into **`nr`-column strips** with the symmetric
//!   layout (`dst[strip][p][j]`, `j < nr`).
//!
//! Strips whose row/column count is short (matrix edge) are zero-padded to
//! the full width, so the microkernel always runs the full register tile and
//! the write-back masks the padding. Packing happens once per cache block
//! and is amortized over the `O(mc·nc·kc)` flops of the block.
//!
//! The two layouts are one layout at two widths, so there is one packer per
//! *storage* orientation (`Operand`), not per operand: GEMM, SYRK, TRSM
//! and the panel solves all share it and one microkernel. Pack buffers are
//! **thread-local and reusable**: hot factorization loops call the packed
//! kernels thousands of times without touching the allocator.

use crate::config::KernelConfig;
use std::cell::RefCell;

thread_local! {
    /// Reusable (packed-A, packed-B, SYRK diagonal tile) scratch.
    static PACK_BUFS: RefCell<[Vec<f64>; 3]> = const { RefCell::new([Vec::new(), Vec::new(), Vec::new()]) };
}

/// Run `f` with the calling thread's reusable scratch: the packed-`A`
/// buffer, the packed-`B` buffer and SYRK's diagonal-tile accumulator.
///
/// Not reentrant: `f` must not call back into `with_buffers` (the packed
/// GEMM core and the packed SYRK are the only callers and never nest).
pub(crate) fn with_buffers<R>(
    f: impl FnOnce(&mut Vec<f64>, &mut Vec<f64>, &mut Vec<f64>) -> R,
) -> R {
    PACK_BUFS.with(|cell| {
        let [pa, pb, tile] = &mut *cell.borrow_mut();
        f(pa, pb, tile)
    })
}

/// One GEMM operand as its caller stores it, addressed `(x, p)`: `x` is the
/// `C`-row index for the `A` operand and the `C`-column index for the `B`
/// operand, `p` the inner-product index. Each variant holds the column-major
/// buffer and its leading dimension.
#[derive(Clone, Copy)]
pub(crate) enum Operand<'a> {
    /// Stored `x × k`: `(x, p)` at `[p·ld + x]` — an `A` used as is, or the
    /// `B` of a product `A·Bᵀ`. Strips are contiguous runs of the source.
    Xk(&'a [f64], usize),
    /// Stored `k × x`: `(x, p)` at `[x·ld + p]` — the `A` of a product
    /// `Aᵀ·B`, or a `B` used as is. Strips gather across source columns.
    Kx(&'a [f64], usize),
}

impl Operand<'_> {
    /// Pack the `xb × kb` block starting at `(x0, p0)` into `w`-wide strips
    /// (`dst[strip][p][r]`, `r < w`), zero-padding the last strip. `dst` must
    /// hold exactly `⌈xb/w⌉·w·kb` slots; every one of them is written.
    #[allow(clippy::too_many_arguments)] // (buffer, width) + a 2-D block
    pub(crate) fn pack(
        self,
        dst: &mut [f64],
        w: usize,
        x0: usize,
        xb: usize,
        p0: usize,
        kb: usize,
    ) {
        assert_eq!(dst.len(), xb.div_ceil(w) * w * kb, "pack buffer size");
        for (s, strip) in dst.chunks_exact_mut(w * kb).enumerate() {
            let (x, live) = (x0 + s * w, w.min(xb - s * w));
            match self {
                Operand::Xk(src, ld) => {
                    for (p, d) in strip.chunks_exact_mut(w).enumerate() {
                        let at = (p0 + p) * ld + x;
                        d[..live].copy_from_slice(&src[at..at + live]);
                        d[live..].fill(0.0);
                    }
                }
                Operand::Kx(src, ld) => {
                    for r in 0..live {
                        let col = &src[(x + r) * ld + p0..][..kb];
                        for (p, &v) in col.iter().enumerate() {
                            strip[p * w + r] = v;
                        }
                    }
                    for d in strip.chunks_exact_mut(w) {
                        d[live..].fill(0.0);
                    }
                }
            }
        }
    }

    /// [`pack`](Operand::pack) into `buf` resized to fit. Growth zero-fills
    /// once; steady-state calls only overwrite.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn pack_vec(
        self,
        buf: &mut Vec<f64>,
        w: usize,
        x0: usize,
        xb: usize,
        p0: usize,
        kb: usize,
    ) {
        buf.resize(xb.div_ceil(w) * w * kb, 0.0);
        self.pack(buf, w, x0, xb, p0, kb);
    }
}

/// A fully packed `A` operand (`m × k`), packed **once** and read by many
/// macro-kernel sweeps: the diagonal tiles and sub-diagonal blocks of one
/// SYRK.
///
/// Layout: k-blocks of at most `cfg.kc` columns, outer to inner: block →
/// `mr`-strip → column → row, for the `mr` and `kc` of the config the pack
/// was built under — consumers must run under the same config.
/// [`Self::block_strips`] hands the macro-kernel the exact strip layout
/// [`Operand::pack`] produces per block.
pub(crate) struct ApackFull<'a> {
    buf: &'a [f64],
    mr: usize,
    strips: usize,
    k: usize,
    kc: usize,
}

impl<'a> ApackFull<'a> {
    /// Pack all `m × k` of `a` into `buf` (resized to fit, so a reused
    /// buffer stops allocating after warm-up).
    pub fn pack(
        cfg: &KernelConfig,
        buf: &'a mut Vec<f64>,
        a: Operand<'_>,
        m: usize,
        k: usize,
    ) -> Self {
        let (mr, kc) = (cfg.isa().tile().0, cfg.kc);
        let strips = m.div_ceil(mr);
        buf.resize(strips * mr * k, 0.0);
        for p0 in (0..k).step_by(kc) {
            let kb = kc.min(k - p0);
            let block = &mut buf[strips * mr * p0..strips * mr * (p0 + kb)];
            a.pack(block, mr, 0, m, p0, kb);
        }
        ApackFull {
            buf,
            mr,
            strips,
            k,
            kc,
        }
    }

    /// Strip height the pack was built for.
    pub fn mr(&self) -> usize {
        self.mr
    }

    /// Total `mr`-strips covering the row dimension.
    pub fn strips(&self) -> usize {
        self.strips
    }

    /// The `(p0, kb)` extents of each k-block, in order.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.k)
            .step_by(self.kc)
            .map(|p0| (p0, self.kc.min(self.k - p0)))
    }

    /// The packed strips `[s0, s1)` of k-block `q`, laid out exactly like an
    /// [`Operand::pack`] buffer of `s1 - s0` strips.
    pub(crate) fn block_strips(&self, q: usize, s0: usize, s1: usize) -> &[f64] {
        let p0 = q * self.kc;
        let kb = self.kc.min(self.k - p0);
        let off = self.strips * self.mr * p0;
        &self.buf[off + s0 * kb * self.mr..off + s1 * kb * self.mr]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strip widths of every register tile in the crate (`nr`/`mr` of the
    /// 8×4 tiles, `nr`/`mr` of AVX-512's 16×8).
    const WIDTHS: [usize; 3] = [4, 8, 16];

    fn packed(op: Operand<'_>, w: usize, x0: usize, xb: usize, p0: usize, kb: usize) -> Vec<f64> {
        let mut dst = vec![99.0; 1]; // stale content must not leak
        op.pack_vec(&mut dst, w, x0, xb, p0, kb);
        dst
    }

    #[test]
    fn pack_a_nt_strips_and_pads() {
        // 21×3 block out of a 25-row buffer: several strips at every width,
        // padding in the last strip must be zero.
        let (lda, mb) = (25, 21);
        let a: Vec<f64> = (0..lda * 3).map(|v| v as f64).collect();
        for w in WIDTHS {
            let dst = packed(Operand::Xk(&a, lda), w, 1, mb, 0, 3);
            let strips = mb.div_ceil(w);
            assert_eq!(dst.len(), strips * w * 3);
            for s in 0..strips {
                let rows = w.min(mb - s * w);
                for p in 0..3 {
                    for r in 0..w {
                        let got = dst[s * 3 * w + p * w + r];
                        if r < rows {
                            assert_eq!(got, a[p * lda + 1 + s * w + r]);
                        } else {
                            assert_eq!(got, 0.0, "w {w}: padding at strip {s} p {p} r {r}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pack_b_t_matches_transposed_elements() {
        // b is 5×4 column-major (n=5, k=4); operand Bᵀ is 4×5.
        let ldb = 6;
        let b: Vec<f64> = (0..ldb * 4).map(|v| (v * 3 % 17) as f64).collect();
        for w in WIDTHS {
            let dst = packed(Operand::Xk(&b, ldb), w, 0, 5, 1, 3);
            for s in 0..5usize.div_ceil(w) {
                let cols = w.min(5 - s * w);
                for p in 0..3 {
                    for j in 0..w {
                        let got = dst[s * 3 * w + p * w + j];
                        if j < cols {
                            assert_eq!(got, b[(1 + p) * ldb + s * w + j]);
                        } else {
                            assert_eq!(got, 0.0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gather_packers_match_contiguous_packers_on_transposed_data() {
        // Packing Xᵀ as stored `k × x` must equal packing X as stored
        // `x × k` (same operand, two storage orientations), from a nonzero
        // block origin and through a leading dimension larger than the rows.
        let (m, k) = (21, 7);
        let (ldx, ldt) = (m + 2, k + 3);
        let mut x = vec![-1.0; ldx * k];
        let mut xt = vec![-2.0; ldt * m];
        for i in 0..m {
            for p in 0..k {
                let v = ((i * k + p) * 7 % 23) as f64 - 11.0;
                x[p * ldx + i] = v;
                xt[i * ldt + p] = v;
            }
        }
        for w in WIDTHS {
            let d1 = packed(Operand::Xk(&x, ldx), w, 2, m - 2, 1, k - 1);
            let d2 = packed(Operand::Kx(&xt, ldt), w, 2, m - 2, 1, k - 1);
            assert_eq!(d1, d2, "w {w}");
        }
    }

    #[test]
    fn apack_full_blocks_match_block_packer() {
        for (cfg, resolved) in crate::config::tests::forced_isas() {
            let isa = cfg.isa;
            let (m, k) = (37, cfg.kc + 7); // forces two k-blocks
            let lda = m + 3;
            let a: Vec<f64> = (0..lda * k).map(|v| (v % 29) as f64 - 14.0).collect();
            let mut buf = vec![99.0; 5];
            let full = ApackFull::pack(&cfg, &mut buf, Operand::Xk(&a, lda), m, k);
            assert_eq!(full.mr(), resolved.tile().0);
            assert_eq!(full.blocks().count(), 2);
            for (q, (p0, kb)) in full.blocks().enumerate() {
                let expect = packed(Operand::Xk(&a, lda), full.mr(), 0, m, p0, kb);
                assert_eq!(
                    full.block_strips(q, 0, full.strips()),
                    &expect[..],
                    "{isa:?} block {q}"
                );
            }
        }
    }
}
