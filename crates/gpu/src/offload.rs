//! The offload heuristic: where should a kernel run?
//!
//! Paper §4.2: "a simple heuristic based on buffer size … each operation has
//! a different size threshold … thresholds have default values that were
//! determined via a simple brute-force manual tuning effort, but … symPACK
//! also allows the user to specify each threshold manually."

use crate::Op;

/// Where a kernel executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// Host CPU.
    Cpu,
    /// The simulated GPU.
    Gpu,
}

/// What to do when a device allocation fails (paper §4.2 "fallback options").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OomPolicy {
    /// Perform the computation on the CPU instead (default behavior).
    CpuFallback,
    /// Abort the factorization with an error so the user can rerun with a
    /// larger per-process device quota.
    Abort,
}

/// Per-operation element-count thresholds: a kernel is offloaded when the
/// total number of matrix elements it touches reaches the threshold.
#[derive(Debug, Clone)]
pub struct OffloadThresholds {
    /// Minimum elements (n²) of a diagonal block for GPU POTRF.
    pub potrf: usize,
    /// Minimum elements (panel m·n + diag n²) for GPU TRSM.
    pub trsm: usize,
    /// Minimum elements (n·k input + n² output) for GPU SYRK.
    pub syrk: usize,
    /// Minimum elements (m·k + n·k + m·n) for GPU GEMM.
    pub gemm: usize,
}

impl Default for OffloadThresholds {
    fn default() -> Self {
        // Defaults hand-tuned against CostModel::default(), mirroring the
        // paper's brute-force tuning: GEMM/SYRK amortize launches soonest,
        // TRSM later, POTRF last.
        OffloadThresholds {
            potrf: 112 * 112,
            trsm: 96 * 96,
            syrk: 64 * 64,
            gemm: 48 * 48,
        }
    }
}

impl OffloadThresholds {
    /// Thresholds that keep every kernel on the CPU (GPU mode off).
    pub fn cpu_only() -> Self {
        OffloadThresholds {
            potrf: usize::MAX,
            trsm: usize::MAX,
            syrk: usize::MAX,
            gemm: usize::MAX,
        }
    }

    /// Thresholds that push every kernel to the GPU (a deliberately bad
    /// "GPU-only" configuration; the ablation bench shows why the paper's
    /// hybrid beats it).
    pub fn gpu_always() -> Self {
        OffloadThresholds {
            potrf: 0,
            trsm: 0,
            syrk: 0,
            gemm: 0,
        }
    }

    /// The threshold for `op`.
    pub(crate) fn for_op(&self, op: Op) -> usize {
        match op {
            Op::Potrf => self.potrf,
            Op::Trsm => self.trsm,
            Op::Syrk => self.syrk,
            Op::Gemm => self.gemm,
        }
    }

    /// Decide placement from the total element count a kernel touches.
    pub fn place(&self, op: Op, elements: usize) -> Loc {
        if elements >= self.for_op(op) {
            Loc::Gpu
        } else {
            Loc::Cpu
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_routes_small_to_cpu_large_to_gpu() {
        let t = OffloadThresholds::default();
        assert_eq!(t.place(Op::Gemm, 10), Loc::Cpu);
        assert_eq!(t.place(Op::Gemm, 1_000_000), Loc::Gpu);
        assert_eq!(t.place(Op::Potrf, 100 * 100), Loc::Cpu);
        assert_eq!(t.place(Op::Potrf, 150 * 150), Loc::Gpu);
    }

    #[test]
    fn cpu_only_never_offloads() {
        let t = OffloadThresholds::cpu_only();
        for op in Op::ALL {
            assert_eq!(t.place(op, usize::MAX - 1), Loc::Cpu);
        }
    }

    #[test]
    fn gpu_always_always_offloads() {
        let t = OffloadThresholds::gpu_always();
        for op in Op::ALL {
            assert_eq!(t.place(op, 0), Loc::Gpu);
        }
    }

    #[test]
    fn per_op_thresholds_are_ordered_like_the_crossovers() {
        // POTRF needs the biggest blocks, GEMM the smallest.
        let t = OffloadThresholds::default();
        assert!(t.potrf > t.trsm);
        assert!(t.trsm > t.syrk);
        assert!(t.syrk >= t.gemm);
    }
}
