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
//!
//! Every family runs on the fan-out's own run path
//! ([`sympack::driver::try_factor_and_solve_with`]) under the solver's own
//! [`SolverOptions`] and reports a [`sympack::SolveReport`]. What is a
//! family's own is its engine, its map and its solve-message charge. The
//! map is fixed, and the families publish flat and dense, so a `grid`, a
//! non-[`Flat`](sympack::BcastTopology::Flat) `bcast` or an enabled `blr` is
//! an [`SolverError::InvalidOptions`] naming the field.

mod column;
pub mod fanboth;
pub mod fanin;
pub mod rightlooking;

pub use fanboth::{fanboth_factor_and_solve, try_fanboth_factor_and_solve};
pub use fanin::{fanin_factor_and_solve, try_fanin_factor_and_solve};
pub use rightlooking::{
    baseline_factor_and_solve, try_baseline_factor_and_solve, try_baseline_factor_and_solve_multi,
};

use sympack::driver::try_factor_and_solve_with;
use sympack::plan::EngineFamily;
use sympack::sched::Engine;
use sympack::{BcastTopology, MultiSolveReport, ProcGrid, SolverError, SolverOptions};
use sympack_sparse::SparseSym;

/// The baselines' options are the solver's. The old name stays for the
/// wall-clock benchmark (`perf/`), which still spells it.
pub type BaselineOptions = SolverOptions;

/// Factor and solve every right-hand side of `bs` with one family: validate
/// the options, refuse those the family fixes otherwise, set the family's
/// `grid` over the run's ranks and hand over to the solver's one-shot
/// driver.
fn run<E: Engine>(
    family: &EngineFamily<E>,
    grid: fn(usize) -> ProcGrid,
    a: &SparseSym,
    bs: &[Vec<f64>],
    opts: &SolverOptions,
) -> Result<MultiSolveReport, SolverError> {
    opts.validate()?;
    let fixed = [
        ("grid", opts.grid.is_some(), "maps blocks with its own grid"),
        ("bcast", opts.bcast != BcastTopology::Flat, "publishes flat"),
        ("blr", opts.blr.enabled(), "publishes dense blocks"),
    ];
    if let Some(&(field, _, why)) = fixed.iter().find(|f| f.1) {
        let detail = format!("the {} baseline {why}", family.label);
        return Err(SolverError::InvalidOptions { field, detail });
    }
    let opts = SolverOptions {
        grid: Some(grid(opts.n_nodes * opts.ranks_per_node)),
        ..opts.clone()
    };
    try_factor_and_solve_with(family, a, bs, &opts).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::laplacian_2d;
    use sympack_sparse::vecops::test_rhs;

    #[test]
    fn baseline_is_numerically_correct() {
        let a = laplacian_2d(9, 8);
        let b = test_rhs(a.n());
        let r = baseline_factor_and_solve(&a, &b, &SolverOptions::default());
        assert!(
            r.relative_residual < 1e-10,
            "residual {}",
            r.relative_residual
        );
    }
}
