//! symPACK-rs: a task-based fan-out supernodal sparse Cholesky solver.
//!
//! A Rust reproduction of *"symPACK: A GPU-Capable Fan-Out Sparse Cholesky
//! Solver"* (SC-W 2023). The solver factors a sparse symmetric positive
//! definite matrix `A = L·Lᵀ` and solves `A·x = b`, distributing dense
//! supernode blocks over PGAS ranks with a 2D block-cyclic map and driving
//! the computation with the paper's three task types (§3.2):
//!
//! * `D(j)` — factor the diagonal block of supernode `j` (POTRF),
//! * `F(i,j)` — factor off-diagonal block `B(i,j)` (TRSM),
//! * `U(a,j,b)` — update block `B(a,b)` with the outer product of factored
//!   blocks `L(a,j)·L(b,j)ᵀ` (GEMM, or SYRK when `a = b`).
//!
//! Communication follows the fan-out paradigm of §3.4: a completed factor
//! block is *pushed* as a `signal(ptr, meta)` RPC to every rank owning a
//! dependent task; receivers poll, issue one-sided gets (or device copies
//! for GPU-bound blocks — the memory-kinds path of §4), and move tasks whose
//! dependency counters reach zero onto the ready-task queue (RTQ).
//!
//! # Quick start
//!
//! ```
//! use sympack::{SolverOptions, SymPack};
//! use sympack_sparse::gen::laplacian_2d;
//!
//! let a = laplacian_2d(12, 12);
//! let b = vec![1.0; a.n()];
//! let result = SymPack::factor_and_solve(&a, &b, &SolverOptions::default());
//! assert!(result.relative_residual < 1e-10);
//! ```

pub mod condest;
pub mod driver;
pub mod engine;
pub mod map2d;
pub mod plan;
pub mod sched;
pub mod selinv;
pub mod solve_tasks;
pub mod storage;
pub mod taskgraph;
pub mod trisolve;
pub mod update;

pub use condest::condest;
pub use driver::{GatheredFactor, MultiSolveReport, SolveReport, SolverOptions, SymPack};
pub use map2d::ProcGrid;
pub use plan::{
    make_kernels, pattern_hash, plan_cache_key, NumericFactor, PanelSolve, PlanPhases, SolvePlan,
    SymbolicPlan,
};
pub use selinv::{selected_inverse, SelectedInverse};
// Re-exported so solver users can name `SolverOptions::kernel_config`'s
// and `SolverOptions::blr`'s types without depending on the dense crate
// directly.
pub use sched::PublishStats;
pub use storage::Block;
pub use sympack_dense::{BlrConfig, ConfigError, IsaSelect, KernelConfig};
// Re-exported so solver users can name the scaling knobs
// (`SolverOptions::bcast` / `SolverOptions::coalesce`) without depending
// on the pgas crate directly.
pub use sympack_pgas::coalesce::{BcastTopology, CoalesceConfig};
pub use taskgraph::{RtqPolicy, TaskKey};

/// Errors surfaced by the solver.
#[derive(Debug, Clone)]
pub enum SolverError {
    /// The matrix is not positive definite; the offending column is given in
    /// the *permuted* ordering.
    NotPositiveDefinite {
        /// Column (in the permuted matrix) with a non-positive pivot.
        column: usize,
    },
    /// A device allocation failed and the OOM policy was
    /// [`sympack_gpu::OomPolicy::Abort`] (paper §4.2's strict fallback).
    DeviceOom {
        requested: usize,
        available: usize,
        /// Which task/block the allocation served (for diagnosis).
        context: String,
    },
    /// A one-sided get kept timing out and the bounded retry budget ran
    /// out (only possible under network fault injection).
    FetchTimeout {
        /// Attempts made before giving up.
        attempts: u32,
        /// Which task/block the fetch served.
        context: String,
    },
    /// A numeric re-factorization was handed values that do not match the
    /// sparsity pattern the session was analyzed for — either a value array
    /// of the wrong length or a matrix whose structure differs. The
    /// symbolic factor, mapping and task graph are pattern-specific, so the
    /// request is rejected instead of producing garbage.
    PatternMismatch {
        /// Lower-triangle nonzeros of the session's pattern.
        expected_nnz: usize,
        /// Lower-triangle nonzeros (or value count) actually supplied.
        actual_nnz: usize,
        /// What differed (length vs. structure).
        detail: String,
    },
    /// A solve was requested against a session whose numeric factor has
    /// been evicted from the factor cache (fleet memory-budget pressure).
    /// The factor must be re-materialized via `refactorize`/
    /// `ensure_resident` before solving; the fleet does this transparently,
    /// so the error only surfaces when a caller bypasses it.
    FactorEvicted {
        /// Pattern hash of the session whose factor is gone.
        pattern: u64,
    },
    /// The quiescence detector diagnosed a stall: every rank went idle with
    /// unfinished tasks and no messages in flight — the signature of a
    /// dropped notification. Reported instead of hanging.
    Stalled {
        /// Rank that diagnosed the stall.
        rank: usize,
        /// Tasks that rank had executed.
        done: usize,
        /// Tasks that rank owns in total.
        total: usize,
        /// Engine-specific diagnosis.
        detail: String,
    },
    /// [`SolverOptions::validate`] rejected the options. Every distributed
    /// phase checks them before the first rank thread exists, so a bad
    /// configuration is an error value, never a panic inside a rank.
    InvalidOptions {
        /// The offending `SolverOptions` field.
        field: &'static str,
        /// What is wrong with it.
        detail: String,
    },
    /// An input's shape disagrees with the matrix or plan it is used with
    /// (right-hand-side length, panel size, number of factor stores).
    ShapeMismatch {
        /// Which input.
        what: &'static str,
        /// The size the matrix/plan requires.
        expected: usize,
        /// The size supplied.
        actual: usize,
    },
}

impl SolverError {
    /// `Ok` when `actual == expected`, else [`SolverError::ShapeMismatch`].
    pub fn check_shape(what: &'static str, expected: usize, actual: usize) -> Result<(), Self> {
        if actual == expected {
            Ok(())
        } else {
            Err(SolverError::ShapeMismatch {
                what,
                expected,
                actual,
            })
        }
    }
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::NotPositiveDefinite { column } => {
                write!(f, "matrix is not positive definite (permuted column {column})")
            }
            SolverError::DeviceOom { requested, available, context } => write!(
                f,
                "device allocation of {requested} bytes failed ({available} bytes free) with Abort policy while fetching {context}"
            ),
            SolverError::FetchTimeout { attempts, context } => write!(
                f,
                "one-sided get of {context} failed after {attempts} attempts (injected transient faults exhausted the retry budget)"
            ),
            SolverError::PatternMismatch { expected_nnz, actual_nnz, detail } => write!(
                f,
                "refactorization rejected: {detail} (session pattern has {expected_nnz} lower-triangle nonzeros, got {actual_nnz})"
            ),
            SolverError::FactorEvicted { pattern } => write!(
                f,
                "solve rejected: numeric factor for pattern {pattern:#018x} was evicted under memory pressure; re-materialize via refactorize/ensure_resident first"
            ),
            SolverError::Stalled { rank, done, total, detail } => write!(
                f,
                "stall diagnosed on rank {rank} after {done}/{total} tasks: {detail}"
            ),
            SolverError::InvalidOptions { field, detail } => {
                write!(f, "invalid SolverOptions::{field}: {detail}")
            }
            SolverError::ShapeMismatch { what, expected, actual } => {
                write!(f, "{what}: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for SolverError {}
