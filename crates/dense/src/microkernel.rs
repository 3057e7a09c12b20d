//! Register-blocked GEMM core: one microkernel per ISA plus cache-level
//! blocking.
//!
//! This is the single flop engine behind every level-3 kernel in the crate
//! (GEMM, SYRK, TRSM updates, the blocked POTRF trailing update and the
//! panel-solve accumulations). The structure is the classical BLIS
//! decomposition, with the cache blocks `mc/kc/nc` supplied at runtime by a
//! [`crate::config::KernelConfig`] and the register tile `mr × nr` by the
//! [`Isa`] that config resolves to ([`Isa::tile`]):
//!
//! ```text
//! for jc in 0..n step nc            // B panel       (stays in L3)
//!   for pc in 0..k step kc          // pack B(pc,jc) (stays in L2)
//!     for ic in 0..m step mc        // pack A(ic,pc) (stays in L2/L1)
//!       for jr in 0..nb step nr     //   macro-kernel over register tiles
//!         for ir in 0..mb step mr
//!           C[ir:ir+mr, jr:jr+nr] ∓= Apack · Bpack   // microkernel
//! ```
//!
//! The microkernel holds an `mr × nr` tile of `C` in registers across the
//! entire `kb`-long inner product — **no loads or stores of `C`** inside the
//! k-loop — and reads its operands from the contiguous zero-padded strips
//! produced by [`crate::pack`], so edge tiles take the same code path as
//! interior tiles.
//!
//! **Arithmetic contract.** Every ISA computes, per element of `C` and per
//! `kc` block, the same chain: an accumulator starting at `+0.0` takes
//! `acc = fma(a, b, acc)` — one rounding per step — for `p` ascending over
//! the block, then one `C ∓= acc`. Lanes never mix, so the tile shape, the
//! vector width, the cache blocking and shared-vs-local packing cannot
//! change a bit of the result, and a fingerprint pinned on one machine holds
//! on every other. The instruction is spelled out on every
//! ISA because Rust never contracts `a * b + c` on its own: `vfmadd…pd` on
//! `zmm`/`ymm` through `std::arch`, [`f64::mul_add`] on [`Isa::Portable`]
//! (the hardware instruction where the target has one at baseline, libm's
//! correctly rounded `fma` where it does not — slow there, never different).
//! Check what a build issues with
//! `objdump -d --no-show-raw-insn <binary> | grep -A80 '<.*tile_avx512.*>:' | grep -E 'vfmadd|vmulpd|vaddpd'`.
//!
//! A product with a single column does not pack: `gemv` computes the same
//! chain straight from the operands (the one-RHS solve's GEMVs), so it is
//! bit for bit what this core would return for the call.

use crate::config::KernelConfig;
use crate::pack::{self, ApackFull, Operand};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Instruction set of the microkernel, resolved once per kernel call from
/// the config's [`crate::config::IsaSelect`]. The choice is a pure function
/// of the hardware and never changes results (see the arithmetic contract).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Isa {
    /// 512-bit `zmm` vectors, 32 registers (`avx512f`).
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// 256-bit `ymm` vectors, 16 registers (`avx2` + `fma`).
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// Scalar Rust at the target's baseline (SSE2 on x86-64).
    Portable,
}

impl Isa {
    /// Every ISA compiled into this build, widest first.
    pub(crate) const ALL: &'static [Isa] = &[
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma,
        Isa::Portable,
    ];

    /// Human-readable name (tuning profiles and benchmark reports key on it).
    pub fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => "avx2+fma",
            Isa::Portable => "portable",
        }
    }

    /// Register tile `(mr, nr)`: `mr` is two vectors of `C` rows, `nr` as
    /// many columns as leave registers for the two `A` vectors and the `B`
    /// broadcast — 16 accumulators of the 32 `zmm`, 8 of the 16 `ymm`.
    /// AVX-512's 16×8 is the fastest tile of the `kernel_roofline` tile scan
    /// (8×8 41, 16×8 69, 24×8 74, 32×4 53 Gflop/s for the k-loop alone; see
    /// `results/kernel_roofline.txt`) that keeps the default `mc`/`nc` =
    /// 128/512 and SYRK's tile edge [`crate::syrk::DB`] = 48 whole tiles: 24
    /// does not divide 128, 32 does not divide 48.
    pub const fn tile(self) -> (usize, usize) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => (16, 8),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => (8, 4),
            Isa::Portable => (8, 4),
        }
    }

    /// Whether this machine can run the ISA's microkernel.
    pub fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            Isa::Portable => true,
        }
    }
}

/// The widest microkernel ISA this machine has.
pub fn isa() -> Isa {
    *Isa::ALL
        .iter()
        .find(|i| i.available())
        .expect("Portable is always available")
}

/// Name of [`isa()`].
pub fn isa_name() -> &'static str {
    isa().name()
}

/// Destination of a packed product `C ∓= A·B`.
pub(crate) struct Dest<'a> {
    /// `C`, column-major from its `(0, 0)` element.
    pub c: &'a mut [f64],
    /// Leading dimension of `c`.
    pub ldc: usize,
    /// `C -= A·B` instead of `C += A·B`.
    pub sub: bool,
    /// Skip register tiles that lie strictly above `C`'s diagonal (SYRK
    /// keeps only the lower half of its diagonal blocks).
    pub lower: bool,
}

/// `C[i0.., j0..] ∓= acc` on the `mv × nv` valid part of one register tile
/// (`acc` column-major with `mr` rows; edge tiles mask the zero padding).
/// `inline(always)` so each ISA's tile function compiles it at its own
/// vector width.
#[inline(always)]
fn writeback(
    acc: &[f64],
    mr: usize,
    d: &mut Dest<'_>,
    (i0, j0): (usize, usize),
    (mv, nv): (usize, usize),
) {
    for j in 0..nv {
        let at = (j0 + j) * d.ldc + i0;
        let (col, t) = (&mut d.c[at..at + mv], &acc[j * mr..j * mr + mv]);
        if d.sub {
            for (c, &v) in col.iter_mut().zip(t) {
                *c -= v;
            }
        } else {
            for (c, &v) in col.iter_mut().zip(t) {
                *c += v;
            }
        }
    }
}

/// One register tile on [`Isa::Portable`]: `acc = Σ_p a[p]·b[p]ᵀ` over the
/// packed strips `a` (`kb × 8`) and `b` (`kb × 4`), then the write-back at
/// `at` masked to `valid`.
fn tile_portable(
    a: &[f64],
    b: &[f64],
    d: &mut Dest<'_>,
    at: (usize, usize),
    valid: (usize, usize),
) {
    let mut acc = [0.0; 8 * 4];
    for (a, b) in a.chunks_exact(8).zip(b.chunks_exact(4)) {
        for (j, &bj) in b.iter().enumerate() {
            for (i, &ai) in a.iter().enumerate() {
                acc[j * 8 + i] = ai.mul_add(bj, acc[j * 8 + i]);
            }
        }
    }
    writeback(&acc, 8, d, at, valid);
}

/// Stamp out one SIMD instantiation of [`tile_portable`]'s contract from its
/// intrinsics: `2·lanes` rows as two vectors per `C` column, `nr` columns,
/// all `2·nr` accumulators in registers for the whole k-loop. One macro, so
/// the ISAs cannot drift apart in arithmetic. Intrinsics, because the
/// autovectorizer cannot be trusted with this loop: given the scalar body at
/// 16×8 it emits `vgatherqpd`/`vscatterqpd` and runs at 4 Gflop/s.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_tile {
    ($name:ident, $features:literal, $lanes:literal, $nr:literal, $zero:ident,
     $load:ident, $splat:ident, $fma:ident, $store:ident) => {
        #[target_feature(enable = $features)]
        fn $name(
            a: &[f64],
            b: &[f64],
            d: &mut Dest<'_>,
            at: (usize, usize),
            valid: (usize, usize),
        ) {
            const MR: usize = 2 * $lanes;
            let mut v = [[$zero(); 2]; $nr];
            for (a, b) in a.chunks_exact(MR).zip(b.chunks_exact($nr)) {
                // SAFETY: `chunks_exact(MR)` hands out exactly 2·lanes elements.
                let (a0, a1) = unsafe { ($load(a.as_ptr()), $load(a.as_ptr().add($lanes))) };
                for j in 0..$nr {
                    let bj = $splat(b[j]);
                    v[j][0] = $fma(a0, bj, v[j][0]);
                    v[j][1] = $fma(a1, bj, v[j][1]);
                }
            }
            let mut acc = [0.0; MR * $nr];
            for (col, vj) in acc.chunks_exact_mut(MR).zip(&v) {
                // SAFETY: `chunks_exact_mut(MR)` hands out exactly 2·lanes elements.
                unsafe {
                    $store(col.as_mut_ptr(), vj[0]);
                    $store(col.as_mut_ptr().add($lanes), vj[1]);
                }
            }
            writeback(&acc, MR, d, at, valid);
        }
    };
}

#[cfg(target_arch = "x86_64")]
simd_tile!(
    tile_avx2,
    "avx2,fma",
    4,
    4,
    _mm256_setzero_pd,
    _mm256_loadu_pd,
    _mm256_set1_pd,
    _mm256_fmadd_pd,
    _mm256_storeu_pd
);
#[cfg(target_arch = "x86_64")]
simd_tile!(
    tile_avx512,
    "avx512f",
    8,
    8,
    _mm512_setzero_pd,
    _mm512_loadu_pd,
    _mm512_set1_pd,
    _mm512_fmadd_pd,
    _mm512_storeu_pd
);

/// Rows `rows` of one `kc` block of a one-column product, `C[i] ∓= Σ_p
/// A(i, p0 + p)·b[p]`, eight independent chains at a time: each row's
/// accumulator starts at `+0.0` and takes `fma(a, b, acc)` for `p`
/// ascending, then one `C ∓=` — [`tile_portable`]'s chain for a tile with
/// one valid column. `inline(always)` so each ISA's vector path compiles it
/// with its own `fma`: the scalar instruction where the ISA has one, libm's
/// on [`Isa::Portable`].
#[inline(always)]
fn gemv_rows(d: &mut Dest<'_>, rows: std::ops::Range<usize>, a: Operand<'_>, p0: usize, b: &[f64]) {
    const G: usize = 8;
    let kb = b.len();
    let mut i0 = rows.start;
    while i0 < rows.end {
        let g = G.min(rows.end - i0);
        let mut acc = [0.0; G];
        match a {
            Operand::Xk(a, lda) => {
                for (p, &bp) in b.iter().enumerate() {
                    let col = &a[(p0 + p) * lda + i0..][..g];
                    for (acc, &ai) in acc.iter_mut().zip(col) {
                        *acc = ai.mul_add(bp, *acc);
                    }
                }
            }
            Operand::Kx(a, lda) => {
                // Rows past `g` repeat the last one and are never read.
                let row = |r: usize| &a[(i0 + r.min(g - 1)) * lda + p0..][..kb];
                let rows: [&[f64]; G] = std::array::from_fn(row);
                for (p, &bp) in b.iter().enumerate() {
                    for (acc, row) in acc.iter_mut().zip(&rows).take(g) {
                        *acc = row[p].mul_add(bp, *acc);
                    }
                }
            }
        }
        writeback(&acc, G, d, (i0, 0), (g, 1));
        i0 += g;
    }
}

/// Stamp out one SIMD instantiation of the vector path: a stored-as-is `A`
/// ([`Operand::Xk`]) runs `4·lanes` rows per step as four vector chains
/// (one `A` column slice per `p`, `b[p]` broadcast); the remaining rows, and
/// a transposed `A` ([`Operand::Kx`]: a row's chain reads one stored column,
/// so lanes across rows would be gathers), run through [`gemv_rows`]. Same
/// chain per element as [`simd_tile!`]'s tiles.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_gemv {
    ($name:ident, $features:literal, $lanes:literal, $zero:ident,
     $load:ident, $splat:ident, $fma:ident, $store:ident) => {
        #[target_feature(enable = $features)]
        fn $name(d: &mut Dest<'_>, m: usize, a: Operand<'_>, p0: usize, b: &[f64]) {
            const R: usize = 4 * $lanes;
            let Operand::Xk(a_xk, lda) = a else {
                return gemv_rows(d, 0..m, a, p0, b);
            };
            let mut i0 = 0;
            while i0 + R <= m {
                let mut v = [$zero(); 4];
                for (p, &bp) in b.iter().enumerate() {
                    let col = &a_xk[(p0 + p) * lda + i0..][..R];
                    let bp = $splat(bp);
                    for (q, vq) in v.iter_mut().enumerate() {
                        // SAFETY: `col` holds R = 4·lanes elements.
                        let aq = unsafe { $load(col.as_ptr().add(q * $lanes)) };
                        *vq = $fma(aq, bp, *vq);
                    }
                }
                let mut acc = [0.0; R];
                for (q, vq) in v.iter().enumerate() {
                    // SAFETY: `acc` holds R = 4·lanes elements.
                    unsafe { $store(acc.as_mut_ptr().add(q * $lanes), *vq) };
                }
                writeback(&acc, R, d, (i0, 0), (R, 1));
                i0 += R;
            }
            gemv_rows(d, i0..m, a, p0, b);
        }
    };
}

#[cfg(target_arch = "x86_64")]
simd_gemv!(
    gemv_avx2,
    "avx2,fma",
    4,
    _mm256_setzero_pd,
    _mm256_loadu_pd,
    _mm256_set1_pd,
    _mm256_fmadd_pd,
    _mm256_storeu_pd
);
#[cfg(target_arch = "x86_64")]
simd_gemv!(
    gemv_avx512,
    "avx512f",
    8,
    _mm512_setzero_pd,
    _mm512_loadu_pd,
    _mm512_set1_pd,
    _mm512_fmadd_pd,
    _mm512_storeu_pd
);

/// The vector path: `C ∓= A·b` for one column `b` (`k` entries) and an
/// `m × k` operand `a`, bit for bit what [`gemm_packed`] computes for the
/// same call with `n = 1` — per `kc` block one chain from zero, `p`
/// ascending, then one `C ∓= acc` — without packing `A` into strips that a
/// register tile then sweeps with one valid column.
pub(crate) fn gemv(
    cfg: &KernelConfig,
    mut d: Dest<'_>,
    (m, k): (usize, usize),
    a: Operand<'_>,
    b: &[f64],
) {
    if m == 0 || k == 0 {
        return;
    }
    let isa = cfg.isa();
    for p0 in (0..k).step_by(cfg.kc) {
        let b = &b[p0..p0 + cfg.kc.min(k - p0)];
        match isa {
            Isa::Portable => gemv_rows(&mut d, 0..m, a, p0, b),
            // SAFETY (both arms): as in `macro_kernel`, `isa` only resolves
            // to an ISA whose `available()` held.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => unsafe { gemv_avx2(&mut d, m, a, p0, b) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { gemv_avx512(&mut d, m, a, p0, b) },
        }
    }
}

/// Macro-kernel: sweep register tiles over one packed `(mb × kb)` A block ×
/// `(kb × nb)` B block, updating `C` at offset `(i0, j0)`.
fn macro_kernel(
    isa: Isa,
    d: &mut Dest<'_>,
    (i0, j0): (usize, usize),
    (mb, nb, kb): (usize, usize, usize),
    pa: &[f64],
    pb: &[f64],
) {
    let (mr, nr) = isa.tile();
    for (js, b) in pb.chunks_exact(kb * nr).enumerate() {
        let (j, nv) = (j0 + js * nr, nr.min(nb - js * nr));
        for (is, a) in pa.chunks_exact(kb * mr).enumerate() {
            let (i, mv) = (i0 + is * mr, mr.min(mb - is * mr));
            if d.lower && i + mr <= j {
                continue;
            }
            match isa {
                Isa::Portable => tile_portable(a, b, d, (i, j), (mv, nv)),
                // SAFETY (both arms): `isa` comes out of `KernelConfig::isa`,
                // which only resolves to an ISA whose `available()` held.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2Fma => unsafe { tile_avx2(a, b, d, (i, j), (mv, nv)) },
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => unsafe { tile_avx512(a, b, d, (i, j), (mv, nv)) },
            }
        }
    }
}

/// Blocked packed GEMM: `C ∓= A·B` on an `m × n × k` problem under the cache
/// blocking and ISA of `cfg`.
///
/// The operand orientations live in the two [`Operand`]s, so the same core
/// serves `A·Bᵀ` (factorization updates), `A·B` (forward panel solve) and
/// `Aᵀ·B` (backward panel solve).
pub(crate) fn gemm_packed(
    cfg: &KernelConfig,
    mut d: Dest<'_>,
    (m, n, k): (usize, usize, usize),
    a: Operand<'_>,
    b: Operand<'_>,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let isa = cfg.isa();
    let (mr, nr) = isa.tile();
    let (mc, kc, nc) = (cfg.mc, cfg.kc, cfg.nc);
    pack::with_buffers(|pa, pb, _| {
        for jc in (0..n).step_by(nc) {
            let nb = nc.min(n - jc);
            for pc in (0..k).step_by(kc) {
                let kb = kc.min(k - pc);
                b.pack_vec(pb, nr, jc, nb, pc, kb);
                for ic in (0..m).step_by(mc) {
                    let mb = mc.min(m - ic);
                    a.pack_vec(pa, mr, ic, mb, pc, kb);
                    macro_kernel(isa, &mut d, (ic, jc), (mb, nb, kb), pa, pb);
                }
            }
        }
    });
}

/// Blocked packed GEMM of an `m × n` panel against rows `row0..row0+m` of a
/// pre-packed shared `A` operand ([`ApackFull`]), with the `B` scratch passed
/// in. `cfg` must be the config the pack was built under and `row0` must be
/// `mr`-aligned (the packed strips cannot be split mid-strip); row 0 of `C`
/// corresponds to packed row `row0`. This lets one [`ApackFull`] serve
/// several sub-problems — SYRK packs its panel once and runs every diagonal
/// tile and sub-diagonal block against strip subranges instead of
/// re-packing per tile.
pub(crate) fn gemm_packed_shared_a_rows(
    cfg: &KernelConfig,
    mut d: Dest<'_>,
    row0: usize,
    (m, n): (usize, usize),
    apack: &ApackFull<'_>,
    b: Operand<'_>,
    pb: &mut Vec<f64>,
) {
    if m == 0 || n == 0 {
        return;
    }
    let isa = cfg.isa();
    let (mr, nr) = isa.tile();
    assert!(
        mr == apack.mr() && row0.is_multiple_of(mr),
        "row0 must be a whole strip of a pack built for this ISA"
    );
    let (s_begin, s_end) = (row0 / mr, (row0 + m).div_ceil(mr));
    debug_assert!(s_end <= apack.strips());
    // mc blocking over the shared strips keeps the L2 footprint identical to
    // the thread-local path. mc % mr == 0 is a validated config invariant.
    let strips_per_mc = cfg.mc / mr;
    for jc in (0..n).step_by(cfg.nc) {
        let nb = cfg.nc.min(n - jc);
        for (q, (p0, kb)) in apack.blocks().enumerate() {
            b.pack_vec(pb, nr, jc, nb, p0, kb);
            for s0 in (s_begin..s_end).step_by(strips_per_mc) {
                let s1 = (s0 + strips_per_mc).min(s_end);
                let ic = (s0 - s_begin) * mr;
                let mb = ((s1 - s_begin) * mr).min(m) - ic;
                let pa = apack.block_strips(q, s0, s1);
                macro_kernel(isa, &mut d, (ic, jc), (mb, nb, kb), pa, pb);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Default blocking forced to each ISA this machine has.
    fn forced_configs() -> Vec<KernelConfig> {
        let isas = crate::config::tests::forced_isas();
        isas.into_iter().map(|(cfg, _)| cfg).collect()
    }

    /// `C -= A·Bᵀ` through the thread-local packed path (`ldc = m`).
    fn run_packed(
        cfg: &KernelConfig,
        c: &mut [f64],
        m: usize,
        n: usize,
        k: usize,
        a: &[f64],
        b: &[f64],
    ) {
        let d = Dest {
            c,
            ldc: m.max(1),
            sub: true,
            lower: false,
        };
        gemm_packed(cfg, d, (m, n, k), Operand::Xk(a, m), Operand::Xk(b, n));
    }

    /// Dense reference for `C -= A·Bᵀ` on raw buffers.
    fn gemm_nt_ref(c: &mut [f64], ldc: usize, m: usize, n: usize, a: &[f64], b: &[f64], k: usize) {
        for j in 0..n {
            for i in 0..m {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[p * m + i] * b[p * n + j];
                }
                c[j * ldc + i] -= s;
            }
        }
    }

    fn check(cfg: &KernelConfig, m: usize, n: usize, k: usize) {
        let a: Vec<f64> = (0..m * k).map(|v| ((v * 13) % 9) as f64 - 4.0).collect();
        let b: Vec<f64> = (0..n * k)
            .map(|v| ((v * 7) % 11) as f64 * 0.5 - 2.0)
            .collect();
        let mut c1: Vec<f64> = (0..m * n).map(|v| (v % 5) as f64).collect();
        let mut c2 = c1.clone();
        run_packed(cfg, &mut c1, m, n, k, &a, &b);
        gemm_nt_ref(&mut c2, m.max(1), m, n, &a, &b, k);
        for (i, (x, y)) in c1.iter().zip(&c2).enumerate() {
            assert!(
                (x - y).abs() < 1e-10,
                "{:?} m={m} n={n} k={k} idx={i}: {x} vs {y}",
                cfg.isa
            );
        }
    }

    #[test]
    fn packed_core_matches_reference_across_tile_edges() {
        for cfg in forced_configs() {
            let (mr, nr) = cfg.isa().tile();
            for &(m, n, k) in &[
                (1, 1, 1),
                (mr - 1, nr - 1, 3),
                (mr + 1, nr + 1, cfg.kc + 1),
                (2 * mr + 3, 2 * nr + 1, 17),
                (cfg.mc + 5, cfg.nc.min(70) + 3, cfg.kc + 9),
                (130, 70, 130),
            ] {
                check(&cfg, m, n, k);
            }
        }
    }

    #[test]
    fn shared_a_path_is_bit_identical_to_thread_local_path() {
        for cfg in forced_configs() {
            let (m, n, k) = (67, 41, cfg.kc + 19);
            let a: Vec<f64> = (0..m * k).map(|v| ((v * 3) % 13) as f64 - 6.0).collect();
            let b: Vec<f64> = (0..n * k).map(|v| ((v * 5) % 7) as f64 - 3.0).collect();
            let c0: Vec<f64> = (0..m * n).map(|v| (v % 11) as f64 * 0.25).collect();
            let mut c1 = c0.clone();
            run_packed(&cfg, &mut c1, m, n, k, &a, &b);
            let mut abuf = Vec::new();
            let apack = ApackFull::pack(&cfg, &mut abuf, Operand::Xk(&a, m), m, k);
            let mut c2 = c0.clone();
            let d = Dest {
                c: &mut c2,
                ldc: m,
                sub: true,
                lower: false,
            };
            let mut pb = Vec::new();
            gemm_packed_shared_a_rows(&cfg, d, 0, (m, n), &apack, Operand::Xk(&b, n), &mut pb);
            assert!(
                c1.iter().zip(&c2).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{:?}: shared-A packing must not change the accumulation order",
                cfg.isa
            );
        }
    }

    #[test]
    fn row_ranged_shared_a_matches_full_product_rows() {
        for cfg in forced_configs() {
            let (mr, nr) = cfg.isa().tile();
            let (m, n, k) = (5 * mr + 5, 23, cfg.kc + 7);
            let a: Vec<f64> = (0..m * k).map(|v| ((v * 3) % 13) as f64 - 6.0).collect();
            let b: Vec<f64> = (0..n * k).map(|v| ((v * 5) % 7) as f64 - 3.0).collect();
            let mut cfull = vec![0.0; m * n];
            run_packed(&cfg, &mut cfull, m, n, k, &a, &b);
            let mut abuf = Vec::new();
            let apack = ApackFull::pack(&cfg, &mut abuf, Operand::Xk(&a, m), m, k);
            // Sub-ranges: an interior mr-aligned window, the padded tail and
            // everything. `lower` on the last one must leave exactly the
            // register tiles strictly above the diagonal untouched.
            let windows = [
                (2 * mr, 3 * mr, false),
                (5 * mr, 5, false),
                (0, m, false),
                (0, m, true),
            ];
            for (row0, mm, lower) in windows {
                let mut csub = vec![0.0; mm * n];
                let d = Dest {
                    c: &mut csub,
                    ldc: mm,
                    sub: true,
                    lower,
                };
                let mut pb = Vec::new();
                gemm_packed_shared_a_rows(
                    &cfg,
                    d,
                    row0,
                    (mm, n),
                    &apack,
                    Operand::Xk(&b, n),
                    &mut pb,
                );
                for j in 0..n {
                    for i in 0..mm {
                        let skipped = lower && (i / mr + 1) * mr <= j / nr * nr;
                        let want = if skipped {
                            0.0
                        } else {
                            cfull[j * m + row0 + i]
                        };
                        assert_eq!(
                            csub[j * mm + i].to_bits(),
                            want.to_bits(),
                            "{:?} row0={row0} mm={mm} lower={lower} ({i},{j})",
                            cfg.isa
                        );
                        assert!(
                            !skipped || i < j,
                            "only strictly-upper elements are skipped"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn non_default_blocking_matches_reference() {
        // Same problem under a deliberately odd (but valid) blocking: the
        // accumulation order is k-ascending regardless of mc/nc, so results
        // agree with the reference to the bit for the packed core.
        let (m, n, k) = (77, 53, 90);
        let a: Vec<f64> = (0..m * k).map(|v| ((v * 13) % 9) as f64 - 4.0).collect();
        let b: Vec<f64> = (0..n * k).map(|v| ((v * 7) % 11) as f64 - 5.0).collect();
        let run = |cfg: &KernelConfig| {
            let mut c = vec![0.0; m * n];
            run_packed(cfg, &mut c, m, n, k, &a, &b);
            c
        };
        for cfg in forced_configs() {
            let (mr, nr) = cfg.isa().tile();
            let base = run(&cfg);
            let small = KernelConfig {
                mc: 2 * mr,
                kc: 96,
                nc: 3 * nr,
                ..cfg.clone()
            };
            small.validate().unwrap();
            let alt = run(&small);
            // Different kc splits the k loop differently, so allow rounding: the
            // two must agree to GEMM accuracy, and bit-exactly when kc matches.
            for (x, y) in base.iter().zip(&alt) {
                assert!((x - y).abs() < 1e-10);
            }
            let same_kc = KernelConfig {
                mc: 2 * mr,
                nc: 3 * nr,
                ..cfg.clone()
            };
            same_kc.validate().unwrap();
            let alt2 = run(&same_kc);
            assert!(base
                .iter()
                .zip(&alt2)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}
