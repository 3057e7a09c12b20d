//! The kernel engine: real math, modeled time, per-location call counts.

use crate::cost::CostModel;
use crate::offload::{Loc, OffloadThresholds};
use crate::Op;
use sympack_dense::lowrank::{self, BlockRef, BlrConfig, LowRankMat};
use sympack_dense::{
    flops, gemm_nn_acc_cfg, gemm_nt_cfg, gemm_tn_acc_cfg, ConfigError, KernelConfig, Mat,
};

/// CPU/GPU call counters per operation — the data behind the paper's Fig. 6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub potrf_cpu: u64,
    pub potrf_gpu: u64,
    pub trsm_cpu: u64,
    pub trsm_gpu: u64,
    pub syrk_cpu: u64,
    pub syrk_gpu: u64,
    pub gemm_cpu: u64,
    pub gemm_gpu: u64,
}

impl OpCounts {
    /// `(cpu, gpu)` counts for `op`.
    pub fn get(&self, op: Op) -> (u64, u64) {
        match op {
            Op::Potrf => (self.potrf_cpu, self.potrf_gpu),
            Op::Trsm => (self.trsm_cpu, self.trsm_gpu),
            Op::Syrk => (self.syrk_cpu, self.syrk_gpu),
            Op::Gemm => (self.gemm_cpu, self.gemm_gpu),
        }
    }

    fn bump(&mut self, op: Op, loc: Loc) {
        let slot = match (op, loc) {
            (Op::Potrf, Loc::Cpu) => &mut self.potrf_cpu,
            (Op::Potrf, Loc::Gpu) => &mut self.potrf_gpu,
            (Op::Trsm, Loc::Cpu) => &mut self.trsm_cpu,
            (Op::Trsm, Loc::Gpu) => &mut self.trsm_gpu,
            (Op::Syrk, Loc::Cpu) => &mut self.syrk_cpu,
            (Op::Syrk, Loc::Gpu) => &mut self.syrk_gpu,
            (Op::Gemm, Loc::Cpu) => &mut self.gemm_cpu,
            (Op::Gemm, Loc::Gpu) => &mut self.gemm_gpu,
        };
        *slot += 1;
    }

    /// Merge another counter set into this one (rank aggregation).
    pub fn merge(&mut self, other: &OpCounts) {
        self.potrf_cpu += other.potrf_cpu;
        self.potrf_gpu += other.potrf_gpu;
        self.trsm_cpu += other.trsm_cpu;
        self.trsm_gpu += other.trsm_gpu;
        self.syrk_cpu += other.syrk_cpu;
        self.syrk_gpu += other.syrk_gpu;
        self.gemm_cpu += other.gemm_cpu;
        self.gemm_gpu += other.gemm_gpu;
    }

    /// Total calls across both locations.
    pub fn total(&self) -> u64 {
        Op::ALL
            .iter()
            .map(|&op| {
                let (c, g) = self.get(op);
                c + g
            })
            .sum()
    }
}

/// Counters of the block low-rank path (all zero in dense mode).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlrCounters {
    /// Factored panels stored (and published) in compressed form.
    pub compressed: u64,
    /// Eligible panels that stayed dense (tolerance rank too high or the
    /// factored form not smaller).
    pub declined: u64,
    /// GEMM/SYRK updates executed with at least one low-rank operand.
    pub lr_updates: u64,
    /// Low-rank products re-truncated to a lower rank before materializing.
    pub recompressed: u64,
}

impl BlrCounters {
    /// Merge another counter set into this one (rank aggregation).
    pub fn merge(&mut self, other: &BlrCounters) {
        self.compressed += other.compressed;
        self.declined += other.declined;
        self.lr_updates += other.lr_updates;
        self.recompressed += other.recompressed;
    }
}

/// Executes factorization kernels: the arithmetic is always done for real
/// (so the factor is exact); the returned `f64` is the *modeled* execution
/// time at the location the offload heuristic picked.
#[derive(Debug, Clone)]
pub struct KernelEngine {
    /// Execution-time model.
    pub cost: CostModel,
    /// Per-op offload thresholds.
    pub thresholds: OffloadThresholds,
    /// CPU/GPU call counts so far.
    pub counts: OpCounts,
    /// When false, everything runs on the CPU regardless of thresholds
    /// (the paper's non-GPU build).
    pub gpu_enabled: bool,
    /// Blocking, dispatch-threshold, and ISA configuration threaded into
    /// every dense kernel call this engine makes. Always validated: the
    /// constructors start from [`KernelConfig::default`] and
    /// [`KernelEngine::with_config`] rejects invalid replacements.
    pub config: KernelConfig,
    /// Block low-rank compression knobs. The default (`tol = 0`) disables
    /// the compressed paths entirely: [`KernelEngine::compress_block`] is
    /// never called and [`KernelEngine::gemm_any`]/[`KernelEngine::syrk_any`]
    /// only ever see dense operands, so dense-mode results stay bit-identical
    /// to the pre-BLR engine.
    pub blr: BlrConfig,
    /// Global Frobenius scale of the problem (`‖A‖_F`), set by the engine at
    /// factorization start whenever BLR is on: truncation uses the absolute
    /// threshold `blr.tol · blr_scale` (the global-threshold BLR criterion).
    pub blr_scale: f64,
    /// Call counters of the block low-rank path.
    pub blr_counts: BlrCounters,
}

impl KernelEngine {
    /// Engine with GPU offload enabled and default calibration.
    pub fn new_gpu() -> Self {
        KernelEngine {
            cost: CostModel::default(),
            thresholds: OffloadThresholds::default(),
            counts: OpCounts::default(),
            gpu_enabled: true,
            config: KernelConfig::default(),
            blr: BlrConfig::default(),
            blr_scale: 0.0,
            blr_counts: BlrCounters::default(),
        }
    }

    /// CPU-only engine.
    pub fn new_cpu() -> Self {
        KernelEngine {
            gpu_enabled: false,
            ..Self::new_gpu()
        }
    }

    /// Replace the kernel configuration, validating it first.
    ///
    /// # Errors
    /// Returns the [`ConfigError`] describing the first violated invariant;
    /// on error the engine keeps its previous (valid) config.
    pub fn with_config(mut self, config: KernelConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        self.config = config;
        Ok(self)
    }

    /// Decide where an `op` touching `elements` matrix entries runs.
    pub fn place(&self, op: Op, elements: usize) -> Loc {
        if !self.gpu_enabled {
            return Loc::Cpu;
        }
        self.thresholds.place(op, elements)
    }

    /// Modeled seconds of `fl` flops of `op` run at `loc`. Counts nothing:
    /// the kernel methods below bump the op counts, the solve's kernels
    /// price their calls through this alone.
    pub fn modeled_secs(&self, op: Op, loc: Loc, fl: u64) -> f64 {
        match loc {
            Loc::Cpu => self.cost.cpu_time(op, fl),
            Loc::Gpu => self.cost.gpu_time(op, fl),
        }
    }

    fn time_for(&mut self, op: Op, loc: Loc, fl: u64) -> f64 {
        self.counts.bump(op, loc);
        self.modeled_secs(op, loc, fl)
    }

    /// Factor a diagonal block in place (lower Cholesky). Returns
    /// `(location, modeled seconds)`.
    ///
    /// # Errors
    /// Propagates [`sympack_dense::DenseError::NotPositiveDefinite`].
    pub fn potrf(&mut self, a: &mut Mat) -> Result<(Loc, f64), sympack_dense::DenseError> {
        let n = a.rows();
        let loc = self.place(Op::Potrf, n * n);
        sympack_dense::potrf_cfg(&self.config, a)?;
        Ok((loc, self.time_for(Op::Potrf, loc, flops::potrf(n))))
    }

    /// Panel solve `B ← B·L⁻ᵀ` in place. Returns `(location, seconds)`.
    pub fn trsm(&mut self, b: &mut Mat, l: &Mat) -> (Loc, f64) {
        let (m, n) = (b.rows(), b.cols());
        let loc = self.place(Op::Trsm, m * n + n * n);
        sympack_dense::trsm_right_lower_trans_cfg(&self.config, b, l);
        (loc, self.time_for(Op::Trsm, loc, flops::trsm(m, n)))
    }

    /// Symmetric update `C ← C − A·Aᵀ` (lower). Returns `(location, seconds)`.
    pub fn syrk(&mut self, c: &mut Mat, a: &Mat) -> (Loc, f64) {
        let (n, k) = (c.rows(), a.cols());
        let loc = self.place(Op::Syrk, n * k + n * n);
        sympack_dense::syrk_lower_cfg(&self.config, c, a);
        (loc, self.time_for(Op::Syrk, loc, flops::syrk(n, k)))
    }

    /// General update `C ← C − A·Bᵀ`. Returns `(location, seconds)`.
    pub fn gemm(&mut self, c: &mut Mat, a: &Mat, b: &Mat) -> (Loc, f64) {
        let (m, n, k) = (c.rows(), c.cols(), a.cols());
        let loc = self.place(Op::Gemm, m * k + n * k + m * n);
        sympack_dense::gemm_nt_cfg(&self.config, c, a, b);
        (loc, self.time_for(Op::Gemm, loc, flops::gemm(m, n, k)))
    }

    /// Try to compress a factored off-diagonal panel. Returns the low-rank
    /// form (or `None` when the panel is ineligible or compression does not
    /// pay) plus the modeled seconds spent on the truncated factorization.
    ///
    /// Compression arithmetic is charged as GEMM time at the same placement
    /// the panel's kernels use: the pivoted Gram–Schmidt sweep is a sequence
    /// of rank-1 panel products with the same roofline behaviour, and runs
    /// wherever the freshly factored panel lives (device-resident truncation
    /// when the panel was offloaded).
    pub fn compress_block(&mut self, a: &Mat) -> (Option<LowRankMat>, f64) {
        let (m, n) = (a.rows(), a.cols());
        if !self.blr.eligible(m, n) {
            return (None, 0.0);
        }
        let lr = lowrank::compress_raw_abs(
            a.as_slice(),
            m,
            n,
            a.ld(),
            self.blr.tol * self.blr_scale,
            self.blr.max_rank,
        );
        let sweep_rank = match &lr {
            Some(lr) => lr.rank(),
            // A declined panel paid for the sweep up to the profitability
            // bound (or the configured cap), where `compress` aborts.
            None => self.blr.max_rank.min((m * n) / (m + n).max(1)),
        };
        let loc = self.place(Op::Gemm, m * n);
        let secs = self.time_for(Op::Gemm, loc, lowrank::compress_flops(m, n, sweep_rank));
        match &lr {
            Some(_) => self.blr_counts.compressed += 1,
            None => self.blr_counts.declined += 1,
        }
        (lr, secs)
    }

    /// Symmetric update `C ← C − A·Aᵀ` where `A` may be stored low-rank.
    /// Dense operands take the exact [`KernelEngine::syrk`] path (bit-identical
    /// to pre-BLR); a rank-`r` operand runs the factored form
    /// `G = Vᵀ·V`, `W = U·G`, `C ← C − W·Uᵀ` and is charged its actual flops.
    pub fn syrk_any(&mut self, c: &mut Mat, a: BlockRef<'_>) -> (Loc, f64) {
        let lr = match a {
            BlockRef::Dense(a) => return self.syrk(c, a),
            BlockRef::LowRank(lr) => lr,
        };
        self.blr_counts.lr_updates += 1;
        let (n, k, r) = (c.rows(), lr.cols(), lr.rank());
        let loc = self.place(Op::Syrk, (n + k) * r + n * n);
        if r > 0 {
            let mut g = Mat::zeros(r, r);
            gemm_tn_acc_cfg(&self.config, &mut g, lr.v(), lr.v());
            let mut w = Mat::zeros(n, r);
            gemm_nn_acc_cfg(&self.config, &mut w, lr.u(), &g);
            gemm_nt_cfg(&self.config, c, &w, lr.u());
        }
        let fl = 2 * (k as u64) * (r as u64) * (r as u64)
            + 2 * (n as u64) * (r as u64) * (r as u64)
            + 2 * (n as u64) * (n as u64) * (r as u64);
        (loc, self.time_for(Op::Syrk, loc, fl))
    }

    /// General update `C ← C − A·Bᵀ` where either operand may be stored
    /// low-rank. Dense×dense takes the exact [`KernelEngine::gemm`] path
    /// (bit-identical to pre-BLR); compressed operands run in factored form
    /// and are charged their actual flops. When both operands are compressed
    /// and the product rank is large relative to the destination, the product
    /// is re-truncated before materializing.
    pub fn gemm_any(&mut self, c: &mut Mat, a: BlockRef<'_>, b: BlockRef<'_>) -> (Loc, f64) {
        let (ma, nb) = (c.rows(), c.cols());
        match (a, b) {
            (BlockRef::Dense(a), BlockRef::Dense(b)) => self.gemm(c, a, b),
            (BlockRef::LowRank(la), BlockRef::Dense(b)) => {
                // C ← C − Ua·(B·Va)ᵀ.
                self.blr_counts.lr_updates += 1;
                let (k, r) = (la.cols(), la.rank());
                let loc = self.place(Op::Gemm, la.payload_len() + nb * k + ma * nb);
                if r > 0 {
                    let mut p = Mat::zeros(nb, r);
                    gemm_nn_acc_cfg(&self.config, &mut p, b, la.v());
                    gemm_nt_cfg(&self.config, c, la.u(), &p);
                }
                let fl = 2 * (nb as u64) * (k as u64) * (r as u64)
                    + 2 * (ma as u64) * (nb as u64) * (r as u64);
                (loc, self.time_for(Op::Gemm, loc, fl))
            }
            (BlockRef::Dense(a), BlockRef::LowRank(lb)) => {
                // C ← C − (A·Vb)·Ubᵀ.
                self.blr_counts.lr_updates += 1;
                let (k, r) = (lb.cols(), lb.rank());
                let loc = self.place(Op::Gemm, ma * k + lb.payload_len() + ma * nb);
                if r > 0 {
                    let mut p = Mat::zeros(ma, r);
                    gemm_nn_acc_cfg(&self.config, &mut p, a, lb.v());
                    gemm_nt_cfg(&self.config, c, &p, lb.u());
                }
                let fl = 2 * (ma as u64) * (k as u64) * (r as u64)
                    + 2 * (ma as u64) * (nb as u64) * (r as u64);
                (loc, self.time_for(Op::Gemm, loc, fl))
            }
            (BlockRef::LowRank(la), BlockRef::LowRank(lb)) => {
                // S = Vaᵀ·Vb, W = Ua·S, C ← C − W·Ubᵀ.
                self.blr_counts.lr_updates += 1;
                let (k, ra, rb) = (la.cols(), la.rank(), lb.rank());
                let loc = self.place(Op::Gemm, la.payload_len() + lb.payload_len() + ma * nb);
                let mut fl = 2 * (k as u64) * (ra as u64) * (rb as u64)
                    + 2 * (ma as u64) * (ra as u64) * (rb as u64);
                if ra > 0 && rb > 0 {
                    let mut s = Mat::zeros(ra, rb);
                    gemm_tn_acc_cfg(&self.config, &mut s, la.v(), lb.v());
                    let mut w = Mat::zeros(ma, rb);
                    gemm_nn_acc_cfg(&self.config, &mut w, la.u(), &s);
                    // The product has rank ≤ min(ra, rb); when the carrier
                    // rank rb overshoots the destination badly, re-truncate
                    // (W, Ub) before paying the 2·ma·nb·rb materialization.
                    let mut mat_rank = rb;
                    if 2 * rb >= ma.min(nb) && self.blr.enabled() {
                        fl += lowrank::recompress_flops(ma, nb, rb, rb);
                        let t = lowrank::recompress_abs(
                            &w,
                            lb.u(),
                            self.blr.tol * self.blr_scale,
                            self.blr.max_rank,
                        );
                        if let Some(t) = t {
                            if t.rank() < rb {
                                self.blr_counts.recompressed += 1;
                                mat_rank = t.rank();
                                if mat_rank > 0 {
                                    gemm_nt_cfg(&self.config, c, t.u(), t.v());
                                }
                            } else {
                                gemm_nt_cfg(&self.config, c, &w, lb.u());
                            }
                        } else {
                            gemm_nt_cfg(&self.config, c, &w, lb.u());
                        }
                    } else {
                        gemm_nt_cfg(&self.config, c, &w, lb.u());
                    }
                    fl += 2 * (ma as u64) * (nb as u64) * (mat_rank as u64);
                }
                (loc, self.time_for(Op::Gemm, loc, fl))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn potrf_is_numerically_real() {
        let a0 = Mat::spd_from(30, |r, c| ((r * 7 + c) % 5) as f64 - 2.0);
        let mut a = a0.clone();
        let mut eng = KernelEngine::new_gpu();
        let (_, secs) = eng.potrf(&mut a).unwrap();
        assert!(secs > 0.0);
        a.zero_upper();
        let recon = a.matmul(&a.transpose());
        assert!(recon.max_abs_diff(&a0) < 1e-9);
        assert_eq!(eng.counts.total(), 1);
    }

    #[test]
    fn placement_counts_split_by_size() {
        let mut eng = KernelEngine::new_gpu();
        // Small gemm -> CPU.
        let mut c = Mat::zeros(4, 4);
        let a = Mat::from_fn(4, 4, |r, _| r as f64);
        let b = Mat::from_fn(4, 4, |_, c| c as f64);
        let (loc, _) = eng.gemm(&mut c, &a, &b);
        assert_eq!(loc, Loc::Cpu);
        // Large gemm -> GPU.
        let mut c = Mat::zeros(96, 96);
        let a = Mat::from_fn(96, 32, |r, _| (r % 3) as f64);
        let b = Mat::from_fn(96, 32, |_, c| (c % 5) as f64);
        let (loc, _) = eng.gemm(&mut c, &a, &b);
        assert_eq!(loc, Loc::Gpu);
        assert_eq!(eng.counts.gemm_cpu, 1);
        assert_eq!(eng.counts.gemm_gpu, 1);
    }

    #[test]
    fn cpu_engine_never_offloads() {
        let mut eng = KernelEngine::new_cpu();
        let mut c = Mat::zeros(128, 128);
        let a = Mat::from_fn(128, 64, |r, _| (r % 7) as f64 * 0.1);
        let b = Mat::from_fn(128, 64, |_, c| (c % 3) as f64 * 0.1);
        let (loc, _) = eng.gemm(&mut c, &a, &b);
        assert_eq!(loc, Loc::Cpu);
    }

    #[test]
    fn gpu_time_reflects_launch_overhead_for_small_kernels() {
        let mut eng = KernelEngine::new_gpu();
        eng.thresholds = OffloadThresholds::gpu_always();
        let mut c = Mat::zeros(2, 2);
        let a = Mat::from_fn(2, 2, |_, _| 1.0);
        let b = Mat::from_fn(2, 2, |_, _| 1.0);
        let (loc, secs) = eng.gemm(&mut c, &a, &b);
        assert_eq!(loc, Loc::Gpu);
        assert!(secs >= eng.cost.kernel_launch);
    }

    #[test]
    fn with_config_rejects_invalid_and_keeps_numerics_for_valid() {
        // Invalid: mc not a multiple of the resolved ISA's strip height.
        let (mr, _) = KernelConfig::default().resolve_isa().unwrap().tile();
        let bad = KernelConfig {
            mc: mr + 1,
            ..Default::default()
        };
        assert!(matches!(
            KernelEngine::new_cpu().with_config(bad),
            Err(sympack_dense::ConfigError::NotMultiple { field: "mc", .. })
        ));
        // Valid non-default config: factor must still be exact.
        let cfg = KernelConfig {
            mc: 32,
            kc: 64,
            nc: 16,
            pack_min_flops: 0,
            ..Default::default()
        };
        let mut eng = KernelEngine::new_cpu().with_config(cfg.clone()).unwrap();
        assert_eq!(eng.config, cfg);
        let a0 = Mat::spd_from(40, |r, c| ((r * 5 + c) % 7) as f64 - 3.0);
        let mut a = a0.clone();
        eng.potrf(&mut a).unwrap();
        a.zero_upper();
        let recon = a.matmul(&a.transpose());
        assert!(recon.max_abs_diff(&a0) < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = OpCounts {
            gemm_cpu: 2,
            ..Default::default()
        };
        let b = OpCounts {
            gemm_cpu: 3,
            potrf_gpu: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.gemm_cpu, 5);
        assert_eq!(a.potrf_gpu, 1);
        assert_eq!(a.total(), 6);
    }
}
