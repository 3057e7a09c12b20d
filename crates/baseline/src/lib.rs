//! The comparison baseline: a right-looking supernodal solver in the style
//! of PaStiX (the solver the paper benchmarks against).
//!
//! Same substrates as symPACK-rs — the same symbolic analysis, dense
//! kernels, GPU cost model and PGAS runtime — but with the algorithmic
//! structure of a classical right-looking distributed solver:
//!
//! * **1D cyclic mapping**: supernode `j` (diagonal block *and* every
//!   off-diagonal block below it) lives on rank `j mod P`, so a big
//!   separator supernode serializes on one rank (the bottleneck the paper's
//!   2D block-cyclic map removes, §3.3);
//! * **panel granularity**: a supernode is factored as one unit (POTRF +
//!   all TRSMs back-to-back) and broadcast as one message, so no dependent
//!   work can start until the whole panel is finished and transferred;
//! * **eager right-looking updates**: a received panel is applied to *all*
//!   local target supernodes immediately — correct, but without the
//!   task-level overlap of the fan-out RTQ scheduler;
//! * **two-sided flavored communication**: receives pay an extra rendezvous
//!   overhead per message, as an MPI-style matched send/recv does.
//!
//! Numerically this produces the identical factor (same analysis, same
//! kernels), which the cross-solver tests exploit.
//!
//! [`fanin`] adds the third family of §2.3's taxonomy: a fan-in solver that
//! computes updates at the source owner and ships aggregate buffers.

mod column;
pub mod fanboth;
pub mod fanin;
pub mod rightlooking;

pub use fanboth::{fanboth_factor_and_solve, try_fanboth_factor_and_solve};
pub use fanin::{fanin_factor_and_solve, try_fanin_factor_and_solve};
pub use rightlooking::{
    baseline_factor_and_solve, try_baseline_factor_and_solve, BaselineOptions, BaselineReport,
};

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::laplacian_2d;
    use sympack_sparse::vecops::test_rhs;

    #[test]
    fn baseline_is_numerically_correct() {
        let a = laplacian_2d(9, 8);
        let b = test_rhs(a.n());
        let r = baseline_factor_and_solve(&a, &b, &BaselineOptions::default());
        assert!(
            r.relative_residual < 1e-10,
            "residual {}",
            r.relative_residual
        );
    }
}
