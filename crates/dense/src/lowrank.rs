//! Block low-rank (BLR) compression: truncated factorizations of
//! off-diagonal supernode blocks.
//!
//! A dense `m × n` block `A` is replaced by `U·Vᵀ` (`U: m × r`, `V: n × r`)
//! whenever a rank-`r` approximation satisfies the absolute Frobenius
//! threshold `‖A − U·Vᵀ‖_F ≤ τ` *and* the factored form is actually smaller
//! (`r·(m+n) < m·n`, `r ≤ max_rank`). The solver sets `τ = tol·‖A_glob‖_F`
//! from the norm of the whole input matrix (the global-threshold BLR
//! criterion). The truncation kernel is a
//! column-pivoted modified Gram–Schmidt QR on the residual matrix: each step
//! picks the residual column of largest norm, orthogonalizes, and downdates
//! every remaining column, so the maintained residual *is* the approximation
//! error and the stopping test is exact. The pivot order is a deterministic
//! function of the input (largest norm, lowest index on ties), which keeps
//! the compressed path bit-reproducible run to run.
//!
//! Sums of low-rank products are re-truncated without an SVD:
//! `U·Vᵀ = Qu·(Ru·Rvᵀ)·Qvᵀ` reduces the problem to the small `k × k` core
//! `Ru·Rvᵀ`, which goes back through the same pivoted truncation
//! ([`recompress_abs`]).

use crate::config::ConfigError;
use crate::mat::Mat;

/// Validated knobs of the block low-rank factorization mode.
///
/// `tol == 0.0` disables compression entirely — every block stays dense and
/// the factorization is bit-identical to the exact path. That is the
/// default, so existing callers are untouched unless they opt in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlrConfig {
    /// Frobenius truncation tolerance relative to the norm of the whole
    /// input matrix; `0.0` = exact/dense mode.
    pub tol: f64,
    /// Blocks with `min(rows, cols)` below this stay dense (compression
    /// overhead would not amortize on small blocks).
    pub min_block: usize,
    /// Hard cap on the stored rank; a block whose tolerance-satisfying rank
    /// exceeds the cap stays dense rather than losing accuracy.
    pub max_rank: usize,
}

impl Default for BlrConfig {
    fn default() -> Self {
        BlrConfig {
            tol: 0.0,
            min_block: 48,
            max_rank: usize::MAX,
        }
    }
}

impl BlrConfig {
    /// True when compression is on (`tol > 0`).
    pub fn enabled(&self) -> bool {
        self.tol > 0.0
    }

    /// True when a `rows × cols` factored panel is a compression candidate
    /// under this config (the tolerance still decides whether it actually
    /// compresses).
    pub fn eligible(&self, rows: usize, cols: usize) -> bool {
        self.enabled() && rows.min(cols) >= self.min_block
    }

    /// Reject nonsensical configurations before any numeric work.
    ///
    /// # Errors
    /// [`ConfigError::InvalidBlr`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.tol.is_finite() || self.tol < 0.0 {
            return Err(ConfigError::InvalidBlr {
                field: "tol",
                why: "must be finite and non-negative",
            });
        }
        if self.tol >= 1.0 {
            return Err(ConfigError::InvalidBlr {
                field: "tol",
                why: "must be below 1 (a rank-0 factor already achieves it)",
            });
        }
        if self.enabled() && self.min_block < 2 {
            return Err(ConfigError::InvalidBlr {
                field: "min_block",
                why: "must be at least 2 when compression is enabled",
            });
        }
        if self.enabled() && self.max_rank == 0 {
            return Err(ConfigError::InvalidBlr {
                field: "max_rank",
                why: "must be at least 1 when compression is enabled",
            });
        }
        Ok(())
    }
}

/// A block stored in truncated-factorization form: `A ≈ U·Vᵀ` with
/// `U: rows × rank` and `V: cols × rank`. Rank 0 represents the zero block.
#[derive(Debug, Clone, PartialEq)]
pub struct LowRankMat {
    u: Mat,
    v: Mat,
}

impl LowRankMat {
    /// Pair two factors (`u.cols() == v.cols()` is the shared rank).
    ///
    /// # Panics
    /// Panics when the factor ranks disagree.
    pub fn from_parts(u: Mat, v: Mat) -> LowRankMat {
        assert_eq!(u.cols(), v.cols(), "factor ranks must agree");
        LowRankMat { u, v }
    }

    /// Row count of the represented block.
    pub fn rows(&self) -> usize {
        self.u.rows()
    }

    /// Column count of the represented block.
    pub fn cols(&self) -> usize {
        self.v.rows()
    }

    /// Stored rank.
    pub fn rank(&self) -> usize {
        self.u.cols()
    }

    /// The left factor `U` (`rows × rank`, orthonormal columns as produced
    /// by [`compress_raw_abs`]).
    pub fn u(&self) -> &Mat {
        &self.u
    }

    /// The right factor `V` (`cols × rank`).
    pub fn v(&self) -> &Mat {
        &self.v
    }

    /// Stored payload elements: `(rows + cols) · rank`.
    pub fn payload_len(&self) -> usize {
        (self.rows() + self.cols()) * self.rank()
    }

    /// Stored payload bytes (f64 entries).
    pub fn bytes(&self) -> u64 {
        (self.payload_len() * std::mem::size_of::<f64>()) as u64
    }

    /// Materialize the dense block `U·Vᵀ`.
    pub fn to_dense(&self) -> Mat {
        let (m, n, r) = (self.rows(), self.cols(), self.rank());
        let mut out = Mat::zeros(m, n);
        let (us, vs, os) = (self.u.as_slice(), self.v.as_slice(), out.as_mut_slice());
        for k in 0..r {
            let uk = &us[k * m..(k + 1) * m];
            for c in 0..n {
                let vkc = vs[k * n + c];
                if vkc == 0.0 {
                    continue;
                }
                let col = &mut os[c * m..(c + 1) * m];
                for (o, &u) in col.iter_mut().zip(uk) {
                    *o += u * vkc;
                }
            }
        }
        out
    }

    /// Serialize to the wire payload `[u | v]` (both factors column-major,
    /// `(rows + cols) · rank` f64 values).
    pub fn to_payload(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.payload_len());
        out.extend_from_slice(self.u.as_slice());
        out.extend_from_slice(self.v.as_slice());
        out
    }

    /// Rebuild from a wire payload produced by [`LowRankMat::to_payload`].
    ///
    /// # Panics
    /// Panics when `data.len() != (rows + cols) · rank`.
    pub fn from_payload(rows: usize, cols: usize, rank: usize, data: &[f64]) -> LowRankMat {
        assert_eq!(data.len(), (rows + cols) * rank, "payload length");
        let u = Mat::from_col_major(rows, rank, data[..rows * rank].to_vec());
        let v = Mat::from_col_major(cols, rank, data[rows * rank..].to_vec());
        LowRankMat { u, v }
    }
}

/// Either representation of a stored block, borrowed for a kernel call.
#[derive(Debug, Clone, Copy)]
pub enum BlockRef<'a> {
    /// The classical dense representation.
    Dense(&'a Mat),
    /// The truncated-factorization representation.
    LowRank(&'a LowRankMat),
}

impl BlockRef<'_> {
    /// Row count of the represented block.
    pub fn rows(&self) -> usize {
        match self {
            BlockRef::Dense(m) => m.rows(),
            BlockRef::LowRank(l) => l.rows(),
        }
    }

    /// Column count of the represented block.
    pub fn cols(&self) -> usize {
        match self {
            BlockRef::Dense(m) => m.cols(),
            BlockRef::LowRank(l) => l.cols(),
        }
    }
}

/// Truncate a column-major `m × n` panel (leading dimension `ld ≥ m`) to
/// the lowest rank meeting the *absolute* Frobenius threshold `‖A − U·Vᵀ‖_F
/// ≤ abs_tol`, by column-pivoted modified Gram–Schmidt on the residual,
/// independent of the block's own norm. This is the global-threshold
/// criterion of BLR solvers — a far off-diagonal block with a tiny norm
/// truncates to a much lower rank than a block-relative rule allows, while
/// the overall backward error stays bounded by the threshold times the block
/// count. Returns `None` when no admissible rank is *profitable*: the
/// threshold-satisfying rank exceeds `max_rank`, or the factored form would
/// not be smaller than the dense block — callers keep such blocks dense, so
/// accuracy is never silently degraded.
///
/// # Panics
/// Panics when `ld < m` or the slice is too short for the panel.
pub fn compress_raw_abs(
    a: &[f64],
    m: usize,
    n: usize,
    ld: usize,
    abs_tol: f64,
    max_rank: usize,
) -> Option<LowRankMat> {
    // A rank at or past the storage break-even point `m·n / (m+n)` can never
    // be profitable, so the pivoted sweep is capped there: a block that will
    // be declined aborts after ~one GEMM-equivalent of work instead of
    // sweeping to full rank. Accepted blocks are unaffected — any admissible
    // rank lies strictly below the cap.
    let cap = max_rank.min((m * n) / (m + n).max(1));
    let lr = truncate_raw(a, m, n, ld, abs_tol, cap)?;
    // Profitability: the factored form must actually shrink the block.
    if lr.rank() * (m + n) >= m * n {
        return None;
    }
    Some(lr)
}

/// The threshold-only truncation behind [`compress_raw_abs`]: returns the
/// lowest-rank factorization meeting `abs_tol` (or `None` past `max_rank`)
/// without the storage-profitability policy — [`recompress_abs`] applies it
/// to small cores where the factored form is never smaller.
fn truncate_raw(
    a: &[f64],
    m: usize,
    n: usize,
    ld: usize,
    abs_tol: f64,
    max_rank: usize,
) -> Option<LowRankMat> {
    assert!(ld >= m.max(1), "leading dimension too small");
    if n > 0 {
        assert!(a.len() >= ld * (n - 1) + m, "panel slice too short");
    }
    // Residual copy (compacted to ld == m) and exact column norms.
    let mut work = vec![0.0f64; m * n];
    for c in 0..n {
        work[c * m..(c + 1) * m].copy_from_slice(&a[c * ld..c * ld + m]);
    }
    let col_norm2 =
        |w: &[f64], c: usize| -> f64 { w[c * m..(c + 1) * m].iter().map(|x| x * x).sum() };
    // Column residual norms are maintained incrementally (the xGEQP3
    // downdate `‖c‖² ← ‖c‖² − ⟨c,q⟩²`) instead of being recomputed each
    // step, so one accepted rank costs ~2·m·n flops, not 4·m·n. A column
    // whose downdated norm has lost most of its original magnitude is
    // recomputed exactly to guard against cancellation.
    let mut norm2: Vec<f64> = (0..n).map(|c| col_norm2(&work, c)).collect();
    let orig2 = norm2.clone();
    let total2: f64 = norm2.iter().sum();
    let thresh2 = abs_tol * abs_tol;
    let cap = max_rank.min(m).min(n);

    let mut u = Vec::new(); // r columns of length m
    let mut v = vec![0.0f64; 0]; // filled as r grows: v[k*n + c]
    let mut r = 0usize;
    let mut remaining2 = total2;
    while remaining2 > thresh2 {
        if r == cap {
            return None; // tolerance not met within the rank cap
        }
        // Deterministic pivot: largest residual column norm, lowest index.
        let mut p = 0usize;
        let mut best = -1.0f64;
        for (c, &s) in norm2.iter().enumerate() {
            if s > best {
                best = s;
                p = c;
            }
        }
        if best <= 0.0 {
            break; // residual is exactly zero despite the float sum above
        }
        let norm = col_norm2(&work, p).sqrt();
        if norm <= 0.0 {
            break; // downdated estimate drifted from an exactly-zero column
        }
        let q: Vec<f64> = work[p * m..(p + 1) * m].iter().map(|x| x / norm).collect();
        // Project every residual column onto q and downdate.
        let mut vrow = vec![0.0f64; n];
        for c in 0..n {
            let col = &mut work[c * m..(c + 1) * m];
            let dot: f64 = col.iter().zip(&q).map(|(x, y)| x * y).sum();
            vrow[c] = dot;
            if dot != 0.0 {
                for (x, &y) in col.iter_mut().zip(&q) {
                    *x -= dot * y;
                }
            }
            let down = norm2[c] - dot * dot;
            norm2[c] = if down <= 1e-12 * orig2[c] {
                col_norm2(&work, c) // cancellation guard: recompute exactly
            } else {
                down
            };
        }
        // The pivot column's residual is exactly zero by construction.
        work[p * m..(p + 1) * m].fill(0.0);
        norm2[p] = 0.0;
        u.extend_from_slice(&q);
        v.extend_from_slice(&vrow);
        r += 1;
        remaining2 = norm2.iter().sum();
    }
    let u = Mat::from_col_major(m, r, u);
    // v was built row-major (one rank row per step): transpose into n × r.
    let mut vt = vec![0.0f64; n * r];
    for k in 0..r {
        for c in 0..n {
            vt[k * n + c] = v[k * n + c];
        }
    }
    let v = Mat::from_col_major(n, r, vt);
    Some(LowRankMat { u, v })
}

/// Modeled flop count of one [`compress_raw_abs`] call that stopped at rank `r`:
/// per accepted rank the kernel projects and downdates every residual
/// column (`2·m·n`), with column norms maintained incrementally (O(n) per
/// step); one extra `m·n` pass covers the initial norm computation.
pub fn compress_flops(m: usize, n: usize, r: usize) -> u64 {
    (2 * m * n * r.max(1) + m * n) as u64
}

/// Plain (unpivoted) MGS thin QR of `a` (`m × k`): returns `(Q, R)` with
/// `Q: m × k`, `R: k × k` upper triangular and `A = Q·R`. Rank-deficient
/// columns yield zero `Q` columns (the downstream core truncation drops
/// them), keeping the factor exact.
fn mgs_qr(a: &Mat) -> (Mat, Mat) {
    let (m, k) = (a.rows(), a.cols());
    let mut q = a.as_slice().to_vec();
    let mut rr = vec![0.0f64; k * k];
    for j in 0..k {
        for i in 0..j {
            let dot: f64 = (0..m).map(|t| q[i * m + t] * q[j * m + t]).sum();
            rr[j * k + i] = dot;
            if dot != 0.0 {
                for t in 0..m {
                    q[j * m + t] -= dot * q[i * m + t];
                }
            }
        }
        let norm: f64 = (0..m)
            .map(|t| q[j * m + t] * q[j * m + t])
            .sum::<f64>()
            .sqrt();
        rr[j * k + j] = norm;
        if norm > 0.0 {
            for t in 0..m {
                q[j * m + t] /= norm;
            }
        }
    }
    (Mat::from_col_major(m, k, q), Mat::from_col_major(k, k, rr))
}

/// Re-truncate an accumulated low-rank sum `U·Vᵀ` (rank `k`, typically the
/// concatenation of several rank-`rᵢ` terms) back to the lowest rank meeting
/// the absolute threshold `abs_tol` of [`compress_raw_abs`]: thin-QR both
/// factors, truncate the small `k × k` core `Ru·Rvᵀ` with the same pivoted
/// kernel, and fold the core factors back in. Returns `None` when the
/// truncated form would not be admissible ([`compress_raw_abs`]'s rules
/// applied to the full block shape).
pub fn recompress_abs(u: &Mat, v: &Mat, abs_tol: f64, max_rank: usize) -> Option<LowRankMat> {
    assert_eq!(u.cols(), v.cols(), "factor ranks must agree");
    let (m, n, k) = (u.rows(), v.rows(), u.cols());
    if k == 0 {
        return Some(LowRankMat {
            u: Mat::zeros(m, 0),
            v: Mat::zeros(n, 0),
        });
    }
    let (qu, ru) = mgs_qr(u);
    let (qv, rv) = mgs_qr(v);
    // Core C = Ru · Rvᵀ (k × k); threshold-only truncation — profitability
    // is judged against the full block shape below, not the tiny core.
    let core = ru.matmul(&rv.transpose());
    let c = truncate_raw(core.as_slice(), k, k, k, abs_tol, max_rank.min(k))?;
    let r = c.rank();
    if r * (m + n) >= m * n || r > max_rank {
        return None;
    }
    Some(LowRankMat {
        u: qu.matmul(c.u()),
        v: qv.matmul(c.v()),
    })
}

/// Modeled flop count of one [`recompress_abs`] call collapsing rank `k` to
/// rank `r` on an `m × n` block: two thin QRs (`2(m+n)k²`), the `k³` core
/// products, and the two fold-back GEMMs (`2(m+n)kr`).
pub fn recompress_flops(m: usize, n: usize, k: usize, r: usize) -> u64 {
    let mn = m + n;
    (2 * mn * k * k + 2 * k * k * k + 2 * mn * k * r.max(1)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Block-relative truncation, `‖A − U·Vᵀ‖_F ≤ tol·‖A‖_F`.
    fn compress(a: &Mat, tol: f64, max_rank: usize) -> Option<LowRankMat> {
        compress_raw_abs(
            a.as_slice(),
            a.rows(),
            a.cols(),
            a.ld(),
            tol * a.fro_norm(),
            max_rank,
        )
    }

    fn rank_k(m: usize, n: usize, k: usize, seed: u64) -> Mat {
        let f = |i: usize, j: usize, s: u64| {
            (((i * 31 + j * 17 + s as usize * 7) % 13) as f64 - 6.0) * 0.21
        };
        let u = Mat::from_fn(m, k, |r, c| f(r, c, seed));
        let v = Mat::from_fn(n, k, |r, c| f(r, c, seed + 1));
        u.matmul(&v.transpose())
    }

    #[test]
    fn exact_rank_recovered_and_error_bounded() {
        let a = rank_k(40, 24, 3, 5);
        let lr = compress(&a, 1e-12, usize::MAX).expect("rank-3 block compresses");
        assert!(lr.rank() <= 3 + 1);
        let err = lr.to_dense().max_abs_diff(&a);
        assert!(err < 1e-10 * a.fro_norm().max(1.0), "err {err}");
    }

    #[test]
    fn zero_block_compresses_to_rank_zero() {
        let a = Mat::zeros(20, 12);
        let lr = compress(&a, 1e-8, usize::MAX).unwrap();
        assert_eq!(lr.rank(), 0);
        assert_eq!(lr.to_dense().max_abs_diff(&a), 0.0);
        assert_eq!(lr.payload_len(), 0);
    }

    #[test]
    fn full_rank_block_declines_compression() {
        // Identity-dominated block: numerical rank = min(m, n).
        let a = Mat::from_fn(16, 16, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(compress(&a, 1e-10, usize::MAX).is_none());
    }

    #[test]
    fn rank_cap_declines_rather_than_degrades() {
        let a = rank_k(30, 30, 6, 9);
        assert!(compress(&a, 1e-12, 2).is_none());
    }

    #[test]
    fn payload_roundtrip_is_bitwise() {
        let a = rank_k(25, 18, 2, 3);
        let lr = compress(&a, 1e-10, usize::MAX).unwrap();
        let p = lr.to_payload();
        let back = LowRankMat::from_payload(lr.rows(), lr.cols(), lr.rank(), &p);
        assert_eq!(back.u().as_slice(), lr.u().as_slice());
        assert_eq!(back.v().as_slice(), lr.v().as_slice());
    }

    #[test]
    fn recompress_sums_within_tolerance() {
        let a = rank_k(32, 20, 2, 1);
        let b = rank_k(32, 20, 2, 8);
        let la = compress(&a, 1e-12, usize::MAX).unwrap();
        let lb = compress(&b, 1e-12, usize::MAX).unwrap();
        // Stack factors: [Ua | Ub]·[Va | Vb]ᵀ = A + B.
        let mut us = la.u().as_slice().to_vec();
        us.extend_from_slice(lb.u().as_slice());
        let mut vs = la.v().as_slice().to_vec();
        vs.extend_from_slice(lb.v().as_slice());
        let u = Mat::from_col_major(32, la.rank() + lb.rank(), us);
        let v = Mat::from_col_major(20, la.rank() + lb.rank(), vs);
        let dense_sum = {
            let mut s = a.clone();
            for (x, y) in s.as_mut_slice().iter_mut().zip(b.as_slice()) {
                *x += y;
            }
            s
        };
        let sum = recompress_abs(&u, &v, 1e-10 * dense_sum.fro_norm(), usize::MAX)
            .expect("sum stays low-rank");
        assert!(sum.rank() <= la.rank() + lb.rank());
        let err = sum.to_dense().max_abs_diff(&dense_sum);
        assert!(err < 1e-8 * dense_sum.fro_norm().max(1.0), "err {err}");
    }

    #[test]
    fn config_validation() {
        assert!(BlrConfig::default().validate().is_ok());
        assert!(BlrConfig {
            tol: 1e-8,
            ..Default::default()
        }
        .validate()
        .is_ok());
        assert!(BlrConfig {
            tol: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(BlrConfig {
            tol: f64::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(BlrConfig {
            tol: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(BlrConfig {
            tol: 1e-8,
            min_block: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(BlrConfig {
            tol: 1e-8,
            max_rank: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(!BlrConfig::default().enabled());
        assert!(!BlrConfig::default().eligible(100, 100));
        let on = BlrConfig {
            tol: 1e-8,
            min_block: 16,
            ..Default::default()
        };
        assert!(on.eligible(16, 16) && !on.eligible(15, 64));
    }
}
