//! Property tests for the packed register-blocked engine against the naive
//! oracle (`sympack_dense::naive` and plain triple loops).
//!
//! Every sweep runs once per microkernel ISA the machine has, forced through
//! [`IsaSelect`] (unavailable ISAs are reported on stdout, never skipped
//! silently). The shape set is adversarial around that ISA's register tile:
//! every dimension sweeps `{0, 1, nr−1, nr, nr+1, mr−1, mr, mr+1, 2·mr+3, …}`
//! so each test hits empty problems, single-element tiles, full register
//! tiles, one-past boundaries, and ragged edge strips in both the `m` (`mr`)
//! and `n` (`nr`) directions, as well as shapes that cross the mc/kc/nc
//! cache blocks. Every loop-blocking constant of the crate (`NB`, `KB`, `DB`,
//! `JB`, `SJ`, `RS`, `PB`, `IB`, `SB`) is crossed the same way — `c − 1`, `c`,
//! `c + 1`, `2c + 3` in the dimension it blocks ([`edges`]).
//!
//! Every call runs on a sub-panel of a larger buffer: leading dimensions are
//! strictly greater than the logical dimension and the operand starts at a
//! nonzero offset, so any kernel that confuses `ld` with the row count or
//! writes outside its panel trips the sentinel checks here.
//!
//! The sweeps run both under [`KernelConfig::default()`] and under a set of
//! deliberately skewed configs (tiny cache blocks, forced packed dispatch):
//! every validated config must stay within 1e-13 of the oracle and be bitwise
//! deterministic run-to-run. On top of the oracle sweeps,
//! [`every_isa_is_bit_identical_to_portable`] pins the arithmetic contract:
//! forcing any ISA changes speed, never a bit.

use sympack_dense::config::{IsaSelect, KernelConfig};
use sympack_dense::gemm::{gemm_nt_packed_raw, gemm_nt_raw, KB, NB};
use sympack_dense::panel::{
    gemm_nn_acc_raw, gemm_tn_acc_raw, trsm_left_lower_notrans_raw, trsm_left_lower_trans_raw, SB,
};
use sympack_dense::potrf::{potrf_raw, IB, PB};
use sympack_dense::syrk::{syrk_lower_raw, DB};
use sympack_dense::trsm::{trsm_right_lower_trans_raw, JB, RS, SJ};

/// The default config forced to each microkernel ISA this machine has, with
/// that ISA's register tile `(mr, nr)`. ISAs the machine lacks are reported,
/// never skipped silently.
fn forced_isas() -> Vec<(KernelConfig, (usize, usize))> {
    let mut out = Vec::new();
    for isa in [IsaSelect::Portable, IsaSelect::Avx2Fma, IsaSelect::Avx512] {
        let cfg = KernelConfig {
            isa,
            ..Default::default()
        };
        match cfg.resolve_isa() {
            Ok(resolved) => out.push((cfg, resolved.tile())),
            Err(e) => println!("skipped {isa:?}: {e}"),
        }
    }
    out
}

/// Adversarial sizes for the `m`/`n`/`k` dimensions around an `mr × nr`
/// register tile, plus one size (61) that is a multiple of nothing.
fn dims((mr, nr): (usize, usize)) -> Vec<usize> {
    let mut d = vec![0, 1, nr - 1, nr, nr + 1, mr - 1, mr, mr + 1, 2 * mr + 3, 61];
    d.sort_unstable();
    d.dedup();
    d
}

/// Sizes on both sides of a loop-blocking constant and past its second block.
fn edges(c: usize) -> [usize; 4] {
    [c - 1, c, c + 1, 2 * c + 3]
}

/// Larger sizes that cross the default cache-blocking boundaries
/// (mc = 128, kc = 256); kept to a few so the full sweep stays fast.
fn big_dims() -> [usize; 2] {
    let cfg = KernelConfig::default();
    [cfg.mc + 5, cfg.kc + 9]
}

/// Non-default configs every kernel sweep must also pass under: tiny cache
/// blocks (many mc/kc/nc iterations even on small shapes) and skewed ones,
/// both with a forced-packed dispatch (`pack_min_flops = 0`), each built on
/// `base`'s ISA and tile. All must validate.
fn skewed_configs(base: &KernelConfig, (mr, nr): (usize, usize)) -> Vec<KernelConfig> {
    let cfgs = vec![
        // Tiny cache blocks: several blocking iterations on modest shapes.
        KernelConfig {
            mc: 2 * mr,
            kc: 16,
            nc: 3 * nr,
            pack_min_flops: 0,
            ..base.clone()
        },
        // Packed core forced on for every shape, skewed blocks.
        KernelConfig {
            mc: 3 * mr,
            kc: 48,
            nc: 7 * nr,
            pack_min_flops: 0,
            ..base.clone()
        },
    ];
    for cfg in &cfgs {
        cfg.validate().expect("skewed test config must validate");
    }
    cfgs
}

const SENTINEL: f64 = -777.25;

fn deterministic_fill(buf: &mut [f64], salt: u64) {
    for (i, x) in buf.iter_mut().enumerate() {
        let h = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(salt)
            .wrapping_mul(0x2545F4914F6CDD1D);
        // Values in [-1, 1): keeps products O(k), so 1e-13 relative slack
        // is many ulps of headroom without hiding real blunders.
        *x = ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
    }
}

/// Max relative difference |x−y| / max(1, |y|) over two equal-length slices.
fn max_rel_diff(got: &[f64], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
        .fold(0.0, f64::max)
}

/// A column-major operand embedded in an oversized buffer: `ld > rows`
/// strictly, nonzero starting offset, sentinel-filled padding.
struct Panel {
    buf: Vec<f64>,
    off: usize,
    ld: usize,
    rows: usize,
    cols: usize,
}

impl Panel {
    fn new(rows: usize, cols: usize, salt: u64) -> Self {
        // ld strictly greater than rows, misaligned w.r.t. mr on purpose.
        let ld = rows + 3 + (salt as usize % 5);
        let off = 2 + (salt as usize % 7);
        let buf = vec![SENTINEL; off + ld * cols.max(1) + 4];
        let mut p = Panel {
            buf,
            off,
            ld,
            rows,
            cols,
        };
        // Fill only the logical rows of each column; padding rows keep the
        // sentinel so out-of-panel writes are detectable.
        let mut col = vec![0.0; rows];
        for j in 0..cols {
            deterministic_fill(&mut col, salt.wrapping_add(j as u64));
            let base = p.off + j * p.ld;
            p.buf[base..base + rows].copy_from_slice(&col);
        }
        p
    }

    fn slice(&self) -> &[f64] {
        &self.buf[self.off..]
    }

    fn slice_mut(&mut self) -> &mut [f64] {
        &mut self.buf[self.off..]
    }

    /// Dense `rows × cols` copy of the logical panel.
    fn dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.rows * self.cols];
        for j in 0..self.cols {
            for i in 0..self.rows {
                out[j * self.rows + i] = self.buf[self.off + j * self.ld + i];
            }
        }
        out
    }

    /// Panics if any padding element (before the offset, past the logical
    /// rows of a column, or after the last column) was modified.
    fn assert_padding_intact(&self, what: &str) {
        for (i, &v) in self.buf[..self.off].iter().enumerate() {
            assert_eq!(v, SENTINEL, "{what}: prefix padding [{i}] clobbered");
        }
        for j in 0..self.cols {
            let base = self.off + j * self.ld;
            for r in self.rows..self.ld {
                let idx = base + r;
                if idx < self.buf.len() {
                    assert_eq!(
                        self.buf[idx], SENTINEL,
                        "{what}: padding row {r} of column {j} clobbered"
                    );
                }
            }
        }
        let tail = self.off + self.ld * self.cols.max(1);
        for (i, &v) in self.buf[tail..].iter().enumerate() {
            assert_eq!(v, SENTINEL, "{what}: suffix padding [{i}] clobbered");
        }
    }
}

/// Oracle: `C ← C − A·Bᵀ` by the definitional triple loop on dense copies.
fn gemm_nt_oracle(c: &mut [f64], m: usize, n: usize, a: &[f64], b: &[f64], k: usize) {
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[p * m + i] * b[p * n + j];
            }
            c[j * m + i] -= acc;
        }
    }
}

fn shape_sweep(tile: (usize, usize), mut body: impl FnMut(usize, usize, usize)) {
    let (mr, nr) = tile;
    let [big_m, big_k] = big_dims();
    let dims = dims(tile);
    for &m in &dims {
        for &n in &dims {
            for &k in &dims {
                body(m, n, k);
            }
        }
    }
    // A few cache-block crossers (full cartesian product would be slow).
    for &m in &[big_m, big_k] {
        body(m, nr + 1, big_k);
        body(m, 2 * mr + 3, mr - 1);
    }
    body(mr + 1, big_m, big_k);
    body(2 * mr + 3, big_k, big_m);
    // The unpacked nest's tile edges, on shapes the default dispatch still
    // sends to it (under `pack_min_flops`).
    for n in edges(NB) {
        body(1, n, 100);
    }
    for k in edges(KB) {
        body(1, 50, k);
    }
}

#[test]
fn gemm_dispatch_and_forced_packed_match_oracle_on_subpanels() {
    for (cfg, tile) in forced_isas() {
        shape_sweep(tile, |m, n, k| {
            let a = Panel::new(m, k, 11);
            let b = Panel::new(n, k, 23);
            let mut want = Panel::new(m, n, 37).dense();
            gemm_nt_oracle(&mut want, m, n, &a.dense(), &b.dense(), k);

            for forced in [false, true] {
                let mut c = Panel::new(m, n, 37);
                let (ldc, lda, ldb) = (c.ld, a.ld, b.ld);
                if forced {
                    gemm_nt_packed_raw(
                        &cfg,
                        c.slice_mut(),
                        ldc,
                        m,
                        n,
                        a.slice(),
                        lda,
                        b.slice(),
                        ldb,
                        k,
                    );
                } else {
                    gemm_nt_raw(
                        &cfg,
                        c.slice_mut(),
                        ldc,
                        m,
                        n,
                        a.slice(),
                        lda,
                        b.slice(),
                        ldb,
                        k,
                    );
                }
                let rel = max_rel_diff(&c.dense(), &want);
                assert!(
                    rel <= 1e-13,
                    "gemm m={m} n={n} k={k} forced={forced}: rel diff {rel:e}"
                );
                c.assert_padding_intact("gemm C");
            }
            a.assert_padding_intact("gemm A");
            b.assert_padding_intact("gemm B");
        });
    }
}

#[test]
fn gemm_is_bitwise_deterministic_run_to_run() {
    for (cfg, tile) in forced_isas() {
        shape_sweep(tile, |m, n, k| {
            let a = Panel::new(m, k, 5);
            let b = Panel::new(n, k, 7);
            let mut c1 = Panel::new(m, n, 9);
            let mut c2 = Panel::new(m, n, 9);
            let (lda, ldb) = (a.ld, b.ld);
            let ldc = c1.ld;
            gemm_nt_raw(
                &cfg,
                c1.slice_mut(),
                ldc,
                m,
                n,
                a.slice(),
                lda,
                b.slice(),
                ldb,
                k,
            );
            gemm_nt_raw(
                &cfg,
                c2.slice_mut(),
                ldc,
                m,
                n,
                a.slice(),
                lda,
                b.slice(),
                ldb,
                k,
            );
            assert_eq!(
                c1.buf, c2.buf,
                "gemm m={m} n={n} k={k}: runs differ bitwise"
            );
        });
    }
}

#[test]
fn gemm_under_skewed_configs_matches_oracle_and_is_deterministic() {
    // Every skewed (but validated) config must stay within the same oracle
    // tolerance as the default config and remain bitwise run-to-run
    // deterministic — changing blocking must never change correctness.
    for (base, tile) in forced_isas() {
        for (ci, cfg) in skewed_configs(&base, tile).iter().enumerate() {
            shape_sweep(tile, |m, n, k| {
                let a = Panel::new(m, k, 11);
                let b = Panel::new(n, k, 23);
                let mut want = Panel::new(m, n, 37).dense();
                gemm_nt_oracle(&mut want, m, n, &a.dense(), &b.dense(), k);

                let mut c1 = Panel::new(m, n, 37);
                let mut c2 = Panel::new(m, n, 37);
                let (ldc, lda, ldb) = (c1.ld, a.ld, b.ld);
                gemm_nt_raw(
                    cfg,
                    c1.slice_mut(),
                    ldc,
                    m,
                    n,
                    a.slice(),
                    lda,
                    b.slice(),
                    ldb,
                    k,
                );
                gemm_nt_raw(
                    cfg,
                    c2.slice_mut(),
                    ldc,
                    m,
                    n,
                    a.slice(),
                    lda,
                    b.slice(),
                    ldb,
                    k,
                );
                let rel = max_rel_diff(&c1.dense(), &want);
                assert!(
                    rel <= 1e-13,
                    "gemm cfg#{ci} m={m} n={n} k={k}: rel diff {rel:e}"
                );
                assert_eq!(c1.buf, c2.buf, "gemm cfg#{ci} m={m} n={n} k={k}: bits");
                c1.assert_padding_intact("gemm C (skewed cfg)");
            });
        }
    }
}

#[test]
fn syrk_matches_gemm_oracle_lower_triangle_on_subpanels() {
    for (default_cfg, tile) in forced_isas() {
        let skewed = skewed_configs(&default_cfg, tile);
        let mut configs: Vec<&KernelConfig> = vec![&default_cfg];
        configs.extend(skewed.iter());
        for (ci, cfg) in configs.iter().enumerate() {
            for &n in dims(tile).iter().chain(&edges(DB)) {
                for &k in dims(tile).iter().chain(&big_dims()) {
                    let a = Panel::new(n, k, 13);
                    // Oracle: full C ← C − A·Aᵀ, then compare lower halves.
                    let mut want = Panel::new(n, n, 17).dense();
                    gemm_nt_oracle(&mut want, n, n, &a.dense(), &a.dense(), k);

                    let mut c = Panel::new(n, n, 17);
                    let (ldc, lda) = (c.ld, a.ld);
                    syrk_lower_raw(cfg, c.slice_mut(), ldc, n, a.slice(), lda, k);
                    let got = c.dense();
                    let orig = Panel::new(n, n, 17).dense();
                    for j in 0..n {
                        for i in 0..n {
                            let (g, w) = (got[j * n.max(1) + i], want[j * n.max(1) + i]);
                            if i >= j {
                                let rel = (g - w).abs() / w.abs().max(1.0);
                                assert!(
                                    rel <= 1e-13,
                                    "syrk cfg#{ci} n={n} k={k} at ({i},{j}): {rel:e}"
                                );
                            } else {
                                // Strict upper triangle must be untouched.
                                assert_eq!(g, orig[j * n.max(1) + i], "syrk upper ({i},{j})");
                            }
                        }
                    }
                    c.assert_padding_intact("syrk C");
                    a.assert_padding_intact("syrk A");
                }
            }
        }
    }
}

#[test]
fn trsm_reconstructs_rhs_on_subpanels() {
    for (default_cfg, tile) in forced_isas() {
        let skewed = skewed_configs(&default_cfg, tile);
        let mut configs: Vec<&KernelConfig> = vec![&default_cfg];
        configs.extend(skewed.iter());
        // m × n over the tile edges, then n across the sub-block and panel
        // widths and m across the row strip.
        let mut shapes: Vec<(usize, usize)> = Vec::new();
        for &m in &dims(tile) {
            shapes.extend(dims(tile).iter().chain(&big_dims()).map(|&n| (m, n)));
        }
        shapes.extend(edges(SJ).iter().chain(&edges(JB)).map(|&n| (10, n)));
        shapes.extend(edges(RS).map(|m| (m, 2 * SJ + 3)));
        for (ci, cfg) in configs.iter().enumerate() {
            for &(m, n) in &shapes {
                let l = lower_factor(n, 29);
                let b0 = Panel::new(m, n, 31);
                let mut b = Panel::new(m, n, 31);
                let (ldb, ldl) = (b.ld, l.ld);
                trsm_right_lower_trans_raw(cfg, b.slice_mut(), ldb, m, n, l.slice(), ldl);
                // Check X·Lᵀ = B0:   B0[i,j] = Σ_{p≤j} X[i,p]·L[j,p].
                let x = b.dense();
                let want = b0.dense();
                let ld = l.dense();
                let mut maxrel: f64 = 0.0;
                for j in 0..n {
                    for i in 0..m {
                        let mut acc = 0.0;
                        for p in 0..=j {
                            acc += x[p * m + i] * ld[p * n + j];
                        }
                        maxrel = maxrel
                            .max((acc - want[j * m + i]).abs() / want[j * m + i].abs().max(1.0));
                    }
                }
                assert!(
                    maxrel <= 1e-12,
                    "trsm cfg#{ci} m={m} n={n}: reconstruction {maxrel:e}"
                );
                b.assert_padding_intact("trsm B");
            }
        }
    }
}

#[test]
fn panel_accumulating_gemms_match_oracle_on_subpanels() {
    for (cfg, tile) in forced_isas() {
        // C += A·B (nn) and C += Aᵀ·B (tn) over the same adversarial sweep.
        shape_sweep(tile, |m, n, k| {
            let ann = Panel::new(m, k, 41);
            let atn = Panel::new(k, m, 43);
            let b = Panel::new(k, n, 47);
            let (bd, annd, atnd) = (b.dense(), ann.dense(), atn.dense());

            let mut want_nn = Panel::new(m, n, 53).dense();
            let mut want_tn = want_nn.clone();
            for j in 0..n {
                for i in 0..m {
                    let mut s_nn = 0.0;
                    let mut s_tn = 0.0;
                    for p in 0..k {
                        s_nn += annd[p * m + i] * bd[j * k + p];
                        s_tn += atnd[i * k + p] * bd[j * k + p];
                    }
                    want_nn[j * m + i] += s_nn;
                    want_tn[j * m + i] += s_tn;
                }
            }

            let mut c = Panel::new(m, n, 53);
            let (ldc, lda, ldb) = (c.ld, ann.ld, b.ld);
            gemm_nn_acc_raw(
                &cfg,
                c.slice_mut(),
                ldc,
                m,
                n,
                ann.slice(),
                lda,
                b.slice(),
                ldb,
                k,
            );
            let rel = max_rel_diff(&c.dense(), &want_nn);
            assert!(rel <= 1e-13, "gemm_nn_acc m={m} n={n} k={k}: {rel:e}");
            c.assert_padding_intact("gemm_nn_acc C");

            let mut c = Panel::new(m, n, 53);
            let (ldc, lda, ldb) = (c.ld, atn.ld, b.ld);
            gemm_tn_acc_raw(
                &cfg,
                c.slice_mut(),
                ldc,
                m,
                n,
                atn.slice(),
                lda,
                b.slice(),
                ldb,
                k,
            );
            let rel = max_rel_diff(&c.dense(), &want_tn);
            assert!(rel <= 1e-13, "gemm_tn_acc m={m} n={n} k={k}: {rel:e}");
            c.assert_padding_intact("gemm_tn_acc C");
        });
    }
}

/// Lower-triangular, well-conditioned `n × n` factor embedded in a panel;
/// the strict upper triangle is NaN (never read).
fn lower_factor(n: usize, salt: u64) -> Panel {
    let mut l = Panel::new(n, n, salt);
    for j in 0..n {
        for i in 0..j {
            l.buf[l.off + j * l.ld + i] = f64::NAN;
        }
        l.buf[l.off + j * l.ld + j] = 2.0 + (j % 3) as f64 * 0.25;
        for i in j + 1..n {
            l.buf[l.off + j * l.ld + i] *= 0.5;
        }
    }
    l
}

/// Every kernel of the crate on one `(m, n, k)` shape under `cfg`, on strict
/// `ld > dim` sub-panels; returns every output buffer, padding included.
fn all_kernels(cfg: &KernelConfig, m: usize, n: usize, k: usize) -> Vec<(&'static str, Vec<f64>)> {
    let mut out = Vec::new();
    // GEMM nt (dispatching and forced-packed), nn and tn.
    let (a, b) = (Panel::new(m, k, 11), Panel::new(n, k, 23));
    for (name, forced) in [("gemm_nt", false), ("gemm_nt_packed", true)] {
        let mut c = Panel::new(m, n, 37);
        let ldc = c.ld;
        let gemm = if forced {
            gemm_nt_packed_raw
        } else {
            gemm_nt_raw
        };
        gemm(
            cfg,
            c.slice_mut(),
            ldc,
            m,
            n,
            a.slice(),
            a.ld,
            b.slice(),
            b.ld,
            k,
        );
        out.push((name, c.buf));
    }
    let (at, bn) = (Panel::new(k, m, 43), Panel::new(k, n, 47));
    let mut c = Panel::new(m, n, 53);
    let ldc = c.ld;
    gemm_nn_acc_raw(
        cfg,
        c.slice_mut(),
        ldc,
        m,
        n,
        a.slice(),
        a.ld,
        bn.slice(),
        bn.ld,
        k,
    );
    out.push(("gemm_nn_acc", c.buf));
    let mut c = Panel::new(m, n, 53);
    gemm_tn_acc_raw(
        cfg,
        c.slice_mut(),
        ldc,
        m,
        n,
        at.slice(),
        at.ld,
        bn.slice(),
        bn.ld,
        k,
    );
    out.push(("gemm_tn_acc", c.buf));
    // SYRK: m × m lower update by the m × k panel.
    let mut c = Panel::new(m, m, 17);
    let ldc = c.ld;
    syrk_lower_raw(cfg, c.slice_mut(), ldc, m, a.slice(), a.ld, k);
    out.push(("syrk", c.buf));
    // TRSM (right) and the two panel solves (left) against an n × n factor.
    let l = lower_factor(n, 29);
    let mut x = Panel::new(m, n, 31);
    let ldx = x.ld;
    trsm_right_lower_trans_raw(cfg, x.slice_mut(), ldx, m, n, l.slice(), l.ld);
    out.push(("trsm_right", x.buf));
    type LeftSolve = fn(&KernelConfig, &mut [f64], usize, usize, usize, &[f64], usize);
    let left_solves: [(&str, LeftSolve); 2] = [
        ("trsm_left_notrans", trsm_left_lower_notrans_raw),
        ("trsm_left_trans", trsm_left_lower_trans_raw),
    ];
    for (name, solve) in left_solves {
        let mut y = Panel::new(n, m, 59);
        let ldy = y.ld;
        solve(cfg, y.slice_mut(), ldy, n, m, l.slice(), l.ld);
        out.push((name, y.buf));
    }
    // POTRF of the n × n matrix L·Lᵀ + n·I (lower triangle filled).
    let ld = l.dense();
    let mut spd = Panel::new(n, n, 61);
    for j in 0..n {
        for i in j..n {
            let dot: f64 = (0..=j).map(|p| ld[p * n + i] * ld[p * n + j]).sum();
            spd.buf[spd.off + j * spd.ld + i] = dot + if i == j { n as f64 } else { 0.0 };
        }
    }
    let lds = spd.ld;
    potrf_raw(cfg, spd.slice_mut(), lds, n).expect("spd by construction");
    out.push(("potrf", spd.buf));
    out
}

#[test]
fn every_isa_is_bit_identical_to_portable() {
    // The arithmetic contract of `sympack_dense::microkernel`: every ISA runs
    // the same per-element chain, so forcing one changes speed, never a bit.
    // Shapes sit around the register-tile edges of *every* ISA (all ISAs see
    // the same shapes — that is what makes the outputs comparable), `k`
    // crosses `kc`, and `pack_min_flops = 0` sends even the tiny ones through
    // the packed core; the default blocking covers the dispatching path. The
    // sweeps above hold each of these outputs within 1e-13 of the oracle.
    let isas = forced_isas();
    let (portable, others) = isas.split_first().expect("Portable is always available");
    let mut edge: Vec<usize> = isas.iter().flat_map(|(_, tile)| dims(*tile)).collect();
    edge.sort_unstable();
    edge.dedup();
    edge.retain(|&d| d > 0);
    let blockings = [
        // Valid under every tile: mc a multiple of 16, nc of 8.
        KernelConfig {
            mc: 32,
            kc: 16,
            nc: 24,
            pack_min_flops: 0,
            ..Default::default()
        },
        KernelConfig::default(),
    ];
    // Every loop-blocking constant crossed in the dimension it blocks: the
    // SYRK tile and the TRSM row strip in `m`, every other panel width in
    // `n` (`all_kernels` factors and solves against an n × n block).
    let mut const_edges: Vec<usize> = [NB, KB, DB, JB, SJ, RS, PB, IB, SB]
        .into_iter()
        .flat_map(edges)
        .collect();
    const_edges.sort_unstable();
    const_edges.dedup();
    let mut compared = 0usize;
    for blocking in &blockings {
        let tiny = blocking.pack_min_flops == 0;
        let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
        for (i, &m) in edge.iter().enumerate() {
            // Each m against a rotating window of n and k: every edge value
            // appears in every position without the full cartesian product.
            for d in 0..3 {
                let n = edge[(i + 2 * d + 1) % edge.len()];
                let k = edge[(i + 3 * d + 2) % edge.len()];
                shapes.push((m, n, k));
            }
        }
        if !tiny {
            let [big_m, big_k] = big_dims();
            shapes.extend([(big_m, 35, big_k), (35, big_m, 70), (97, 97, big_k)]);
        }
        for (i, &e) in const_edges.iter().enumerate() {
            shapes.push((e, e.min(2 * JB + 3), [5, 17, 40][i % 3]));
        }
        for &(m, n, k) in &shapes {
            let with = |cfg: &KernelConfig| {
                all_kernels(
                    &KernelConfig {
                        isa: cfg.isa,
                        ..blocking.clone()
                    },
                    m,
                    n,
                    k,
                )
            };
            let want = with(&portable.0);
            for (cfg, _) in others {
                for ((name, got), (_, want)) in with(cfg).iter().zip(&want) {
                    let same = got.len() == want.len()
                        && got
                            .iter()
                            .zip(want)
                            .all(|(g, w)| g.to_bits() == w.to_bits());
                    assert!(
                        same,
                        "{name} m={m} n={n} k={k} tiny_blocks={tiny}: {:?} differs from Portable",
                        cfg.isa
                    );
                    compared += 1;
                }
            }
        }
    }
    println!(
        "compared {compared} kernel outputs bit for bit across {} ISA(s)",
        isas.len()
    );
}

#[test]
fn packed_path_fuses_on_every_isa() {
    // Operands on which fused and un-fused arithmetic differ: with
    // a = b = 1 + 2⁻³⁰ the exact product is 1 + 2⁻²⁹ + 2⁻⁶⁰, which rounds to
    // 1 + 2⁻²⁹. So a·b − (1 + 2⁻²⁹) is 2⁻⁶⁰ under one rounding (fma) and 0
    // under two (mul, then add) — a silent fall-back to `vmulpd` + `vaddpd`
    // on any ISA fails here, not in a fingerprint three layers up.
    let x = 1.0 + 2f64.powi(-30);
    let y = -(1.0 + 2f64.powi(-29));
    for (cfg, (mr, nr)) in forced_isas() {
        // Every element of the two-term product C += A·B is 1·y + x·x, in
        // that order: the accumulator holds y when x·x arrives. The shape
        // covers full register tiles and ragged edges both ways.
        let (m, n, k) = (2 * mr + 3, 2 * nr + 1, 2);
        let a: Vec<f64> = (0..m * k).map(|i| if i < m { 1.0 } else { x }).collect();
        let b: Vec<f64> = (0..k * n).map(|i| if i % k == 0 { y } else { x }).collect();
        let mut c = vec![0.0; m * n];
        let forced = KernelConfig {
            pack_min_flops: 0,
            ..cfg.clone()
        };
        gemm_nn_acc_raw(&forced, &mut c, m, m, n, &a, m, &b, k, k);
        for (i, &v) in c.iter().enumerate() {
            assert_eq!(
                v,
                2f64.powi(-60),
                "{:?}: element {i} of the packed product was not fused",
                cfg.isa
            );
        }
    }
}
