//! Simulated GPU substrate.
//!
//! The paper offloads sufficiently large POTRF/TRSM/SYRK/GEMM calls to an
//! NVIDIA A100 via cuSolver/cuBLAS (§4). Without CUDA, this crate models the
//! device with the two properties that drive the paper's offload heuristic:
//!
//! 1. **fixed kernel-launch overhead** — invoking and synchronizing a CUDA
//!    kernel costs ~10 µs regardless of problem size (§4.2: "overheads …
//!    significant and relatively insensitive to problem size"), and
//! 2. **far higher asymptotic throughput** — an A100 sustains a few TFLOP/s
//!    of fp64 BLAS-3 versus a few GFLOP/s for the single CPU core a flat-MPI
//!    rank owns.
//!
//! [`KernelEngine`] executes every kernel *numerically for real* (through
//! `sympack-dense`) and returns the *modeled* execution time for the chosen
//! location; [`OffloadThresholds`] implements the per-operation buffer-size
//! heuristic of §4.2, and [`OpCounts`] records the CPU/GPU call distribution
//! that Fig. 6 plots.

pub mod analytic;
pub mod cost;
pub mod engine;
pub mod offload;

pub use analytic::analytical_thresholds;
pub use cost::CostModel;
pub use engine::{BlrCounters, KernelEngine, OpCounts};
pub use offload::{Loc, OffloadThresholds, OomPolicy};

/// The four dense operations of the factorization (paper Fig. 6 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Dense Cholesky of a diagonal block (cuSolver `potrf`).
    Potrf,
    /// Triangular solve of a panel (cuBLAS `trsm`).
    Trsm,
    /// Symmetric rank-k update (cuBLAS `syrk`).
    Syrk,
    /// General update (cuBLAS `gemm`).
    Gemm,
}

impl Op {
    /// All operations, in the order Fig. 6 lists them.
    pub const ALL: [Op; 4] = [Op::Syrk, Op::Gemm, Op::Trsm, Op::Potrf];

    /// Display name matching the paper's figure labels.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Potrf => "POTRF",
            Op::Trsm => "TRSM",
            Op::Syrk => "SYRK",
            Op::Gemm => "GEMM",
        }
    }
}
