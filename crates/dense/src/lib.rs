//! Dense linear-algebra kernels for the symPACK-rs sparse Cholesky solver.
//!
//! The paper's numeric factorization performs all of its arithmetic through
//! four dense routines applied to supernode blocks:
//!
//! * [`potrf_cfg`] — Cholesky factorization of a dense diagonal block
//!   (LAPACK `POTRF`), used by *Diagonal Factorization* tasks `D(i)`.
//! * [`trsm_right_lower_trans_cfg`] — triangular solve `X · Lᵀ = B`
//!   (BLAS `TRSM`), used by *Factorization* tasks `F(i,j)`.
//! * [`syrk_lower_cfg`] — symmetric rank-k update `C ← C − A·Aᵀ` (BLAS `SYRK`),
//!   used by *Update* tasks `U(i,j,k)` whose target is a diagonal block.
//! * [`gemm_nt_cfg`] — general update `C ← C − A·Bᵀ` (BLAS `GEMM`), used by
//!   *Update* tasks with off-diagonal targets.
//!
//! The blocked multi-NRHS triangular solve adds the [`panel`] kernels:
//! left-side substitutions `L·Y = B` / `Lᵀ·X = B` and the accumulating
//! products `C += A·B` / `C += Aᵀ·B` over dense right-hand-side panels.
//!
//! All matrices are stored **column-major** (Fortran/BLAS convention) so that
//! supernode panels — tall dense column blocks — are contiguous per column.
//!
//! Large problems run on a BLIS-style packed engine: [`pack`] copies
//! operands into `mr`/`nr`-strip tile-major buffers and [`microkernel`]
//! drives one register-tile kernel per ISA under runtime mc/kc/nc cache
//! blocking — explicit intrinsics on a 16×8 tile for AVX-512 and an 8×4 tile
//! for AVX2, scalar Rust on 8×4 elsewhere, the widest available chosen at
//! runtime. All three run the same arithmetic per element of `C`, so the
//! choice never changes a bit of a result. Problems too small to amortize
//! packing keep direct loop nests ([`naive`] remains the correctness
//! oracle). Every kernel runs on the calling thread: the solver's one unit
//! of parallelism is the PGAS rank, and a second core is used by running a
//! second rank.
//!
//! What a caller can set is one validated [`KernelConfig`] value: the cache
//! blocking of the packed core (`mc`, `kc`, `nc`), the flop count at which
//! packing starts (`pack_min_flops`) — the four numbers `sympack-tune` fits —
//! and the ISA selection. Each kernel exists in two forms: a `*_cfg` entry
//! point taking `&KernelConfig` explicitly, and the plain name, which runs
//! under [`KernelConfig::default()`], the config every pinned fingerprint was
//! captured under. Everything else that blocks a loop is a constant beside
//! that loop ([`gemm::NB`], [`gemm::KB`], [`syrk::DB`], [`trsm::JB`],
//! [`trsm::SJ`], [`trsm::RS`], [`potrf::PB`], [`potrf::IB`], [`panel::SB`]),
//! and the register-tile shape belongs to the ISA the config resolves to
//! ([`microkernel::Isa::tile`]).

pub mod config;
pub mod error;
pub mod gemm;
pub mod lowrank;
pub mod mat;
pub mod microkernel;
pub mod naive;
pub mod pack;
pub mod panel;
pub mod potrf;
pub mod syrk;
pub mod trsm;

pub use config::{ConfigError, IsaSelect, KernelConfig};
pub use error::DenseError;
pub use gemm::gemm_nt_cfg;
pub use lowrank::{BlockRef, BlrConfig, LowRankMat};
pub use mat::Mat;
pub use panel::{gemm_nn_acc_cfg, gemm_tn_acc_cfg};
pub use potrf::potrf_cfg;
pub use syrk::syrk_lower_cfg;
pub use trsm::trsm_right_lower_trans_cfg;

/// Floating-point operation counts for the four kernels, used by the
/// simulated-time cost model in `sympack-gpu` and `sympack-pgas`.
///
/// The counts are the standard LAPACK working-note formulas and are exact
/// for the dense case (multiplications + additions).
pub mod flops {
    /// Flops for a Cholesky factorization of an `n × n` block.
    #[inline]
    pub fn potrf(n: usize) -> u64 {
        // n³/3 + n²/2 + n/6 = n(n+1)(2n+1)/6, computed exactly in integers.
        let n = n as u64;
        n * (n + 1) * (2 * n + 1) / 6
    }

    /// Flops for a triangular solve of an `m × n` right-hand side against an
    /// `n × n` triangular block (`X · Lᵀ = B`).
    #[inline]
    pub fn trsm(m: usize, n: usize) -> u64 {
        m as u64 * (n as u64) * (n as u64)
    }

    /// Flops for a symmetric rank-k update of an `n × n` lower triangle by an
    /// `n × k` panel.
    #[inline]
    pub fn syrk(n: usize, k: usize) -> u64 {
        (n as u64) * (n as u64 + 1) * (k as u64)
    }

    /// Flops for a general `m × n × k` matrix multiply-accumulate.
    #[inline]
    pub fn gemm(m: usize, n: usize, k: usize) -> u64 {
        2 * m as u64 * n as u64 * k as u64
    }
}

#[cfg(test)]
mod tests {
    use super::flops;

    #[test]
    fn flop_formulas_are_monotone() {
        assert!(flops::potrf(8) < flops::potrf(9));
        assert!(flops::trsm(4, 8) < flops::trsm(5, 8));
        assert!(flops::syrk(4, 8) < flops::syrk(4, 9));
        assert!(flops::gemm(2, 3, 4) == 48);
    }

    #[test]
    fn potrf_flops_match_closed_form_small() {
        // n=1: one sqrt ~ counted as 1.
        assert_eq!(flops::potrf(1), 1);
        // n=2: 1/3*8 + 1/2*4 + 2/6 = 2.67+2+0.33 = 5
        assert_eq!(flops::potrf(2), 5);
    }
}
