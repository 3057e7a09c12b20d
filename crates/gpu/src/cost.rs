//! Kernel execution-time model — the solver's one cost model.
//!
//! [`crate::KernelEngine`] charges each kernel call's modeled seconds to
//! the virtual clock, and the §4.2 offload thresholds are the crossovers of
//! the CPU and GPU curves. Nothing else prices a task: the scheduler pops
//! ready tasks by policy, not by cost.
//!
//! Times follow `T = overhead + flops / rate`, with per-operation rates:
//! GEMM runs closest to peak on both architectures; TRSM and POTRF have
//! lower arithmetic intensity and more serialization, hence lower sustained
//! rates — this per-op difference is exactly why the paper needs *separate*
//! offload thresholds per operation (§4.2).

use crate::Op;

/// Calibrated rates (flops/second) and overheads (seconds).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Sustained CPU rates per op for one flat-MPI rank (one Milan core).
    pub cpu_gemm: f64,
    pub cpu_syrk: f64,
    pub cpu_trsm: f64,
    pub cpu_potrf: f64,
    /// Sustained GPU rates per op (A100-class fp64).
    pub gpu_gemm: f64,
    pub gpu_syrk: f64,
    pub gpu_trsm: f64,
    pub gpu_potrf: f64,
    /// Fixed cost of launching + synchronizing one GPU kernel.
    pub kernel_launch: f64,
    /// Fixed per-call CPU (BLAS dispatch) overhead.
    pub cpu_call: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_gemm: 8.0e9,
            cpu_syrk: 7.0e9,
            cpu_trsm: 5.0e9,
            cpu_potrf: 3.5e9,
            gpu_gemm: 5.0e12,
            gpu_syrk: 3.5e12,
            gpu_trsm: 1.2e12,
            gpu_potrf: 0.6e12,
            kernel_launch: 10.0e-6,
            cpu_call: 0.3e-6,
        }
    }
}

impl CostModel {
    /// CPU execution time for `flops` of operation `op`.
    pub fn cpu_time(&self, op: Op, flops: u64) -> f64 {
        let rate = match op {
            Op::Gemm => self.cpu_gemm,
            Op::Syrk => self.cpu_syrk,
            Op::Trsm => self.cpu_trsm,
            Op::Potrf => self.cpu_potrf,
        };
        self.cpu_call + flops as f64 / rate
    }

    /// GPU execution time for `flops` of operation `op`, including launch
    /// and synchronization overhead. Small kernels also run below the
    /// asymptotic rate (not enough blocks to fill the SMs), modeled by a
    /// square-root efficiency ramp.
    ///
    /// Composite routines launch more than one kernel: cuSolver `potrf` is a
    /// blocked algorithm issuing a panel/TRSM/SYRK sequence (≈8 launches for
    /// the block sizes seen here), and `trsm` typically splits into a couple
    /// of sweeps — which is precisely why the paper needs *later* offload
    /// thresholds for those ops.
    pub fn gpu_time(&self, op: Op, flops: u64) -> f64 {
        let (rate, launches) = match op {
            Op::Gemm => (self.gpu_gemm, 1.0),
            Op::Syrk => (self.gpu_syrk, 1.0),
            Op::Trsm => (self.gpu_trsm, 2.0),
            Op::Potrf => (self.gpu_potrf, 8.0),
        };
        // Efficiency ramp: reaches ~70% at 100 Mflop, ~full rate at 1 Gflop.
        let f = flops as f64;
        let eff = (f / (f + 5.0e7)).max(0.02);
        self.kernel_launch * launches + f / (rate * eff)
    }

    /// Flop count at which the GPU starts beating the CPU for `op`
    /// (by bisection on the two time models; used to sanity-check and to
    /// derive default offload thresholds).
    pub(crate) fn crossover_flops(&self, op: Op) -> u64 {
        let (mut lo, mut hi) = (1u64, 1u64 << 40);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.gpu_time(op, mid) < self.cpu_time(op, mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_loses_small_wins_big() {
        let m = CostModel::default();
        for op in Op::ALL {
            let small = 10_000; // tiny kernel
            assert!(
                m.gpu_time(op, small) > m.cpu_time(op, small),
                "{op:?}: GPU should lose on tiny kernels"
            );
            let big = 10_000_000_000; // 10 Gflop
            assert!(
                m.gpu_time(op, big) < m.cpu_time(op, big),
                "{op:?}: GPU should win on huge kernels"
            );
        }
    }

    #[test]
    fn crossover_is_monotone_in_overhead() {
        let base = CostModel::default();
        let mut slow_launch = CostModel::default();
        slow_launch.kernel_launch *= 4.0;
        for op in Op::ALL {
            assert!(slow_launch.crossover_flops(op) > base.crossover_flops(op));
        }
    }

    #[test]
    fn crossover_brackets_decision() {
        let m = CostModel::default();
        for op in Op::ALL {
            let x = m.crossover_flops(op);
            assert!(m.gpu_time(op, x) <= m.cpu_time(op, x));
            if x > 1 {
                assert!(m.gpu_time(op, x - 1) > m.cpu_time(op, x - 1));
            }
        }
    }

    #[test]
    fn potrf_crosses_over_at_larger_blocks_than_gemm() {
        // Per-op thresholds exist because crossover happens at different
        // *block sizes* per op. Convert flop crossovers to the square-block
        // edge length n that generates them: POTRF (n³/3 flops on an n×n
        // buffer, poor GPU rate) needs a much larger block than GEMM
        // (2n³ flops over 3n² elements, near-peak GPU rate).
        let m = CostModel::default();
        let gemm_n = (m.crossover_flops(Op::Gemm) as f64 / 2.0).cbrt();
        let potrf_n = (m.crossover_flops(Op::Potrf) as f64 * 3.0).cbrt();
        assert!(
            potrf_n > gemm_n,
            "potrf block edge {potrf_n:.0} should exceed gemm's {gemm_n:.0}"
        );
    }
}
