//! High-level driver: analysis → distributed factorization → solve.

use crate::map2d::ProcGrid;
use crate::plan::FAN_OUT;
use crate::plan::{factor_numeric, launch, EngineFamily, FactorGraph, SolvePlan, SymbolicPlan};
use crate::sched::Engine;
use crate::taskgraph::RtqPolicy;
use crate::SolverError;
use std::sync::Arc;
use sympack_gpu::{OffloadThresholds, OomPolicy, OpCounts};
use sympack_ordering::{compute_ordering, OrderingKind};
use sympack_pgas::coalesce::{BcastTopology, CoalesceConfig};
use sympack_pgas::{NetModel, StatsSnapshot};
use sympack_sparse::SparseSym;
use sympack_symbolic::{analyze, AnalyzeOptions, SymbolicFactor};
use sympack_trace::telemetry::TelemetryReport;

/// Everything configurable about a solve, mirroring the paper's run setup
/// (ordering via Scotch → nested dissection; nodes × ranks-per-node; GPU
/// mode with per-op thresholds; scheduling policy).
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Fill-reducing ordering (paper: Scotch nested dissection).
    pub ordering: OrderingKind,
    /// Supernode/amalgamation options.
    pub analyze: AnalyzeOptions,
    /// Virtual nodes in the job.
    pub n_nodes: usize,
    /// Ranks per node (the paper tunes this per problem; "flat MPI"). A rank
    /// is the only unit of parallelism: every dense kernel runs on its
    /// rank's thread, so a second core is used by asking for a second rank.
    pub ranks_per_node: usize,
    /// Communication cost model (Perlmutter-calibrated default).
    pub net: NetModel,
    /// Enable GPU offload.
    pub gpu: bool,
    /// Override the default per-op offload thresholds.
    pub thresholds: Option<OffloadThresholds>,
    /// Device-OOM fallback (§4.2).
    pub oom_policy: OomPolicy,
    /// Ready-task-queue scheduling policy (paper default: LIFO).
    pub rtq_policy: RtqPolicy,
    /// Per-rank device-memory quota in bytes.
    pub device_quota: usize,
    /// Override the process grid (e.g. [`ProcGrid::one_dimensional`] for the
    /// mapping ablation); default: most-square grid.
    pub grid: Option<ProcGrid>,
    /// Iterative-refinement steps after each solve (0 = off, as in the
    /// paper's runs — its PaStiX driver had refinement explicitly disabled).
    /// Each step gathers the iterate, forms every column's residual against
    /// the permuted matrix, and re-runs the distributed triangular solve —
    /// in the one-shot driver, a `Session` and a `Fleet` alike; only
    /// [`crate::plan::solve_panel_distributed`], with no matrix, refuses it.
    pub refine_steps: usize,
    /// Collect a per-task execution timeline (see `sympack-trace`); events
    /// are returned in the report for Chrome-trace export.
    pub trace: bool,
    /// Collect live telemetry (counters, gauges, histograms, time-series
    /// rings sampled on the virtual clock) and run a per-rank health
    /// watchdog. Retrieve the merged snapshot and health events through
    /// [`SymPack::try_factor_and_solve_observed`]; snapshots are
    /// bit-deterministic under `deterministic` lockstep. Telemetry never
    /// touches the virtual clocks, so modeled makespans are unchanged.
    pub telemetry: bool,
    /// Seeded network fault injection (delays, drops, duplicates) on the
    /// signal/rget paths; `None` = reliable network.
    pub faults: Option<sympack_pgas::FaultPlan>,
    /// Run ranks in deterministic lockstep (round-robin turnstile) so a
    /// given seed reproduces the exact same schedule and virtual clocks.
    pub deterministic: bool,
    /// Dense-kernel configuration — the packed core's cache blocking
    /// (`mc`/`kc`/`nc`), its dispatch threshold (`pack_min_flops`) and the
    /// ISA selection — threaded into every kernel call made by every rank.
    /// The default is what every pinned fingerprint was captured under;
    /// load a calibrated config from `sympack-tune` to adapt blocking to
    /// the host machine.
    /// Checked by [`SolverOptions::validate`]: an invalid config is a
    /// [`SolverError::InvalidOptions`] from every solver entry point,
    /// before any rank thread or numeric work exists.
    pub kernel_config: sympack_dense::KernelConfig,
    /// Block-publication wire pattern for the fan-out factorization:
    /// [`BcastTopology::Flat`] (owner signals every consumer, the
    /// historical pattern) or [`BcastTopology::Tree`] (k-ary tree over
    /// node groups with leader relays — wire bytes drop from O(targets)
    /// to O(log targets) per published block).
    pub bcast: BcastTopology,
    /// Per-destination signal coalescing: signals bound for the same rank
    /// within a scheduling quantum ship as one framed message. `None`
    /// (default) keeps the historical one-RPC-per-signal wire pattern,
    /// bit-identical to pre-coalescing schedules.
    pub coalesce: Option<CoalesceConfig>,
    /// Block low-rank compression of factored off-diagonal panels: after
    /// its TRSM, a panel at least `min_block` in both dimensions is
    /// truncated to relative Frobenius tolerance `tol` and — when the
    /// factored form is smaller — stored, published, and consumed as
    /// `U·Vᵀ`. The default (`tol = 0`) disables compression entirely;
    /// dense-mode schedules and factors are bit-identical to pre-BLR
    /// builds. Checked by [`SolverOptions::validate`].
    pub blr: sympack_dense::BlrConfig,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            ordering: OrderingKind::NestedDissection,
            analyze: AnalyzeOptions::default(),
            n_nodes: 1,
            ranks_per_node: 2,
            net: NetModel::default(),
            gpu: true,
            thresholds: None,
            oom_policy: OomPolicy::CpuFallback,
            rtq_policy: RtqPolicy::Lifo,
            device_quota: usize::MAX,
            grid: None,
            refine_steps: 0,
            trace: false,
            telemetry: false,
            faults: None,
            deterministic: false,
            kernel_config: sympack_dense::KernelConfig::default(),
            bcast: BcastTopology::Flat,
            coalesce: None,
            blr: sympack_dense::BlrConfig::default(),
        }
    }
}

impl SolverOptions {
    /// Check the options every distributed phase would otherwise trip over
    /// inside a rank thread (where a panic strands the other ranks): at
    /// least one rank, an explicit grid that covers exactly
    /// `n_nodes × ranks_per_node` ranks, a valid dense-kernel config and a
    /// valid BLR config. Called by every solver entry point before a plan
    /// is built or a rank is spawned.
    ///
    /// # Errors
    /// [`SolverError::InvalidOptions`] naming the offending field.
    pub fn validate(&self) -> Result<(), SolverError> {
        let invalid = |field, detail| Err(SolverError::InvalidOptions { field, detail });
        let p = self.n_nodes * self.ranks_per_node;
        if p == 0 {
            return invalid("n_nodes × ranks_per_node", "no ranks".to_string());
        }
        if let Some(g) = self.grid.filter(|g| g.n_procs() != p) {
            let detail = format!("a {}×{} grid cannot hold {p} ranks", g.pr(), g.pc());
            return invalid("grid", detail);
        }
        if let Err(e) = self.kernel_config.validate() {
            return invalid("kernel_config", e.to_string());
        }
        if let Err(e) = self.blr.validate() {
            return invalid("blr", e.to_string());
        }
        Ok(())
    }
}

/// Result of a factor+solve run.
#[derive(Debug)]
pub struct SolveReport {
    /// Solution of `A·x = b` in the original ordering.
    pub x: Vec<f64>,
    /// `‖A·x − b‖₂ / ‖b‖₂` against the *original* matrix.
    pub relative_residual: f64,
    /// Virtual makespan of the numeric factorization (seconds).
    pub factor_time: f64,
    /// Virtual makespan of the triangular solve (seconds).
    pub solve_time: f64,
    /// Per-rank CPU/GPU kernel call counts (Fig. 6 data).
    pub op_counts: Vec<OpCounts>,
    /// Per-rank block-publication byte accounting (dense vs compressed).
    pub publish: Vec<crate::PublishStats>,
    /// Per-rank BLR kernel counters (all zero in dense mode).
    pub blr_counts: Vec<sympack_gpu::BlrCounters>,
    /// Total bytes of retained factor blocks across all ranks.
    pub factor_bytes: u64,
    /// Communication counters.
    pub stats: StatsSnapshot,
    /// Factor nonzeros (from the symbolic phase).
    pub l_nnz: usize,
    /// Factorization flops implied by the structure.
    pub flops: u64,
    /// Number of supernodes.
    pub n_supernodes: usize,
    /// Factorization task timeline (empty unless `SolverOptions::trace`).
    pub trace: Vec<sympack_trace::TraceEvent>,
    /// Executed scheduler tasks per kind, summed over ranks
    /// (factorization kinds `diag`/`panel`/`update` plus the solve sweep
    /// kinds) — a schedule-invariant the cross-solver tests check.
    pub task_counts: Vec<(String, u64)>,
    /// Assembled flight-recorder profile (None unless `SolverOptions::trace`).
    pub profile: Option<sympack_trace::profile::Profile>,
}

/// Result of a factor-once / solve-many run.
#[derive(Debug)]
pub struct MultiSolveReport {
    /// One solution per right-hand side, in the original ordering.
    pub xs: Vec<Vec<f64>>,
    /// Relative residual per right-hand side.
    pub relative_residuals: Vec<f64>,
    /// Virtual makespan of the (single) numeric factorization.
    pub factor_time: f64,
    /// Virtual makespan of each triangular solve.
    pub solve_times: Vec<f64>,
    /// Per-rank kernel call counts (factorization phase).
    pub op_counts: Vec<OpCounts>,
    /// Per-rank block-publication byte accounting (dense vs compressed).
    pub publish: Vec<crate::PublishStats>,
    /// Per-rank BLR kernel counters (all zero in dense mode).
    pub blr_counts: Vec<sympack_gpu::BlrCounters>,
    /// Total bytes of retained factor blocks across all ranks (compressed
    /// blocks at their stored `[U|V]` size).
    pub factor_bytes: u64,
    /// Communication counters for the whole session.
    pub stats: StatsSnapshot,
    /// Factor nonzeros.
    pub l_nnz: usize,
    /// Structure-implied factorization flops.
    pub flops: u64,
    /// Number of supernodes.
    pub n_supernodes: usize,
    /// Factorization task timeline (empty unless `SolverOptions::trace`).
    pub trace: Vec<sympack_trace::TraceEvent>,
    /// Executed scheduler tasks per kind, summed over ranks (factorization
    /// plus the first solve).
    pub task_counts: Vec<(String, u64)>,
    /// Assembled flight-recorder profile (None unless `SolverOptions::trace`):
    /// critical path, per-rank wait attribution and the communication matrix
    /// over the whole factor+solve timeline.
    pub profile: Option<sympack_trace::profile::Profile>,
}

impl From<MultiSolveReport> for SolveReport {
    /// The report of a one-right-hand-side run (of a wider run, its first
    /// right-hand side's).
    fn from(m: MultiSolveReport) -> SolveReport {
        SolveReport {
            x: m.xs.into_iter().next().expect("at least one rhs"),
            relative_residual: m.relative_residuals[0],
            factor_time: m.factor_time,
            solve_time: m.solve_times[0],
            op_counts: m.op_counts,
            publish: m.publish,
            blr_counts: m.blr_counts,
            factor_bytes: m.factor_bytes,
            stats: m.stats,
            l_nnz: m.l_nnz,
            flops: m.flops,
            n_supernodes: m.n_supernodes,
            trace: m.trace,
            task_counts: m.task_counts,
            profile: m.profile,
        }
    }
}

/// A factor gathered to the driver: the composite permutation and the
/// permuted Cholesky factor as a sparse matrix. Input to post-factorization
/// computations such as [`crate::selinv`].
#[derive(Debug)]
pub struct GatheredFactor {
    /// Composite permutation (`perm[new] = old`) applied before factoring.
    pub perm: sympack_ordering::Permutation,
    /// The factor `L` of the permuted matrix (lower triangle, diagonal
    /// included).
    pub l_permuted: SparseSym,
    /// Virtual factorization makespan.
    pub factor_time: f64,
}

/// The solver façade.
pub struct SymPack;

impl SymPack {
    /// Analyze, factor and solve; panics on numerical failure (see
    /// [`SymPack::try_factor_and_solve`] for the fallible form).
    pub fn factor_and_solve(a: &SparseSym, b: &[f64], opts: &SolverOptions) -> SolveReport {
        Self::try_factor_and_solve(a, b, opts).expect("factorization failed")
    }

    /// Analyze, factor and solve `A·x = b`.
    ///
    /// # Errors
    /// [`SolverError::InvalidOptions`] / [`SolverError::ShapeMismatch`] for
    /// options or a right-hand side the solver cannot run with;
    /// [`SolverError::NotPositiveDefinite`] when a pivot fails;
    /// [`SolverError::DeviceOom`] under the Abort OOM policy.
    pub fn try_factor_and_solve(
        a: &SparseSym,
        b: &[f64],
        opts: &SolverOptions,
    ) -> Result<SolveReport, SolverError> {
        Self::try_factor_and_solve_multi(a, &[b.to_vec()], opts).map(SolveReport::from)
    }

    /// Factor once and solve against several right-hand sides in the same
    /// session — the paper's repeated-solve applications (§5.3) amortize the
    /// factorization this way.
    ///
    /// # Errors
    /// Same failure modes as [`SymPack::try_factor_and_solve`].
    pub fn try_factor_and_solve_multi(
        a: &SparseSym,
        bs: &[Vec<f64>],
        opts: &SolverOptions,
    ) -> Result<MultiSolveReport, SolverError> {
        Self::try_factor_and_solve_observed(a, bs, opts).0
    }

    /// [`SymPack::try_factor_and_solve_multi`] plus the telemetry plane:
    /// returns the merged [`sympack_trace::telemetry::TelemetryReport`]
    /// (per-rank instrument snapshots + watchdog health events) alongside
    /// the solve result. The report is `Some` whenever
    /// [`SolverOptions::telemetry`] is set and the run started —
    /// *including* when the run itself failed, which is exactly when a
    /// stalled rank's health events matter most.
    ///
    /// Factorization and every solve run in **one** SPMD region (one
    /// launch, the ranks' virtual clocks running on from factor to solve);
    /// the per-rank bodies are the plan layer's, shared with
    /// [`crate::plan::factor_numeric`] and
    /// [`crate::plan::solve_panel_distributed`].
    pub fn try_factor_and_solve_observed(
        a: &SparseSym,
        bs: &[Vec<f64>],
        opts: &SolverOptions,
    ) -> (
        Result<MultiSolveReport, SolverError>,
        Option<TelemetryReport>,
    ) {
        try_factor_and_solve_with(&FAN_OUT, a, bs, opts)
    }

    /// Factor `A` and gather the distributed factor into one sparse matrix.
    ///
    /// # Errors
    /// Same failure modes as [`SymPack::try_factor_and_solve`].
    pub fn factor_gather(
        a: &SparseSym,
        opts: &SolverOptions,
    ) -> Result<GatheredFactor, SolverError> {
        opts.validate()?;
        let plan = SolvePlan::new(a, opts);
        let nf = factor_numeric(&plan, &Arc::new(plan.permute(a)))?;
        let (sf, grid) = (plan.sf(), plan.grid());
        let block = |i: usize, j: usize| {
            let owned = nf.stores[grid.map(i, j)].get((i, j));
            owned.expect("every block has an owner").to_dense()
        };
        // Assemble the permuted L column by column.
        let n = sf.n();
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for j in 0..sf.n_supernodes() {
            let first = sf.partition.first_col(j);
            let diag = block(j, j);
            let below: Vec<_> = sf
                .layout
                .blocks_of(j)
                .iter()
                .map(|b| block(b.target, j))
                .collect();
            for jc in 0..sf.partition.width(j) {
                // Diagonal block: rows jc.. of column jc (lower triangle).
                for r in jc..diag.rows() {
                    row_idx.push(first + r);
                    values.push(diag[(r, jc)]);
                }
                // Off-diagonal blocks, ascending targets → ascending rows.
                for (b, m) in sf.layout.blocks_of(j).iter().zip(&below) {
                    let rows = sf.block_rows(j, b);
                    for (ri, &gr) in rows.iter().enumerate() {
                        row_idx.push(gr);
                        values.push(m[(ri, jc)]);
                    }
                }
                col_ptr.push(row_idx.len());
            }
        }
        let l_permuted = SparseSym::from_parts(n, col_ptr, row_idx, values);
        let perm = sympack_ordering::Permutation::from_vec(sf.perm.as_slice().to_vec());
        Ok(GatheredFactor {
            perm,
            l_permuted,
            factor_time: nf.factor_time,
        })
    }

    /// Run the symbolic phase only (shared by tools and benches).
    pub fn analyze_only(a: &SparseSym, opts: &SolverOptions) -> SymbolicFactor {
        let ordering = compute_ordering(a, opts.ordering);
        analyze(a, &ordering, &opts.analyze)
    }
}

/// The one-shot body of [`SymPack::try_factor_and_solve_observed`] for any
/// engine family: analyze (compiling the family's graph `G`), then factor
/// with `family`'s engine and solve every right-hand side in one SPMD
/// region. The fan-out runs through it, and so do the baselines
/// (`sympack-baseline`), each with the grid of its own map set in `opts`.
///
/// # Errors
/// Same failure modes as [`SymPack::try_factor_and_solve`].
pub fn try_factor_and_solve_with<E: Engine, G: FactorGraph<Key = E::Key>>(
    family: &EngineFamily<E, G>,
    a: &SparseSym,
    bs: &[Vec<f64>],
    opts: &SolverOptions,
) -> (
    Result<MultiSolveReport, SolverError>,
    Option<TelemetryReport>,
) {
    fn check(a: &SparseSym, bs: &[Vec<f64>], opts: &SolverOptions) -> Result<(), SolverError> {
        opts.validate()?;
        SolverError::check_shape("right-hand sides (at least)", 1, bs.len().min(1))?;
        bs.iter()
            .try_for_each(|b| SolverError::check_shape("rhs length", a.n(), b.len()))
    }
    if let Err(e) = check(a, bs, opts) {
        return (Err(e), None);
    }
    let plan = SolvePlan::from_symbolic(Arc::new(SymbolicPlan::<G>::analyze(a, opts)), opts);
    let sf = plan.sf();
    let ap = plan.permute(a);
    let bps: Vec<Vec<f64>> = bs.iter().map(|b| sf.perm.apply_vec(b)).collect();
    let (run, telemetry) = launch(&plan, family, 1, |rank, ctx| {
        let mut out = ctx.factor_rank(rank, &ap);
        for bp in &bps {
            // A failure anywhere (factorization, an earlier solve) ends
            // the region on every rank together: the solves are
            // collective, so the exits stay aligned.
            if out.aborted(rank) {
                break;
            }
            // Only the first solve's tasks are traced.
            let trace = opts.trace && out.solves.is_empty();
            out.push_solve(ctx.solve_rank(rank, &out.store, Some(&ap), bp, 1, trace));
        }
        out
    });
    let report = run.map(|asm| {
        let mut profile = opts.trace.then(|| asm.profile(family.label));
        let (f, solves, task_counts) = (asm.factor, asm.solves, asm.task_counts);
        // Attach per-rank publication accounting only for compressed
        // runs, so dense-mode profile documents keep their pre-BLR byte
        // layout.
        if let Some(p) = profile.as_mut().filter(|_| opts.blr.enabled()) {
            p.blr = f
                .publish
                .iter()
                .enumerate()
                .map(|(rank, o)| sympack_trace::profile::BlrRank {
                    rank,
                    dense_bytes: o.dense_bytes,
                    lr_bytes: o.lr_bytes,
                    lr_dense_equiv_bytes: o.lr_dense_equiv_bytes,
                    dense_blocks: o.dense_blocks,
                    lr_blocks: o.lr_blocks,
                })
                .collect();
        }
        let xs: Vec<Vec<f64>> = solves
            .iter()
            .map(|(xp, _)| sf.perm.unapply_vec(xp))
            .collect();
        MultiSolveReport {
            relative_residuals: xs
                .iter()
                .zip(bs)
                .map(|(x, b)| a.relative_residual(x, b))
                .collect(),
            xs,
            factor_bytes: f.factor_bytes(),
            factor_time: f.factor_time,
            solve_times: solves.iter().map(|&(_, t)| t).collect(),
            op_counts: f.op_counts,
            publish: f.publish,
            blr_counts: f.blr_counts,
            stats: f.stats,
            l_nnz: sf.l_nnz,
            flops: sf.flops,
            n_supernodes: sf.n_supernodes(),
            trace: f.trace,
            task_counts,
            profile,
        }
    });
    (report, telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::{laplacian_2d, random_spd, thermal_like};
    use sympack_sparse::vecops::test_rhs;

    #[test]
    fn solves_small_laplacian_exactly() {
        let a = laplacian_2d(10, 9);
        let b = test_rhs(a.n());
        let r = SymPack::factor_and_solve(&a, &b, &SolverOptions::default());
        assert!(
            r.relative_residual < 1e-10,
            "residual {}",
            r.relative_residual
        );
        assert!(r.factor_time > 0.0);
        assert!(r.solve_time > 0.0);
        assert!(r.l_nnz >= a.nnz());
    }

    #[test]
    fn multi_node_runs_agree_with_single_rank() {
        let a = random_spd(80, 5, 2);
        let b = test_rhs(80);
        let single = SymPack::factor_and_solve(
            &a,
            &b,
            &SolverOptions {
                n_nodes: 1,
                ranks_per_node: 1,
                ..Default::default()
            },
        );
        let multi = SymPack::factor_and_solve(
            &a,
            &b,
            &SolverOptions {
                n_nodes: 2,
                ranks_per_node: 3,
                ..Default::default()
            },
        );
        assert!(single.relative_residual < 1e-10);
        assert!(multi.relative_residual < 1e-10);
        let diff = sympack_sparse::vecops::max_abs_diff(&single.x, &multi.x);
        let scale = sympack_sparse::vecops::norm_inf(&single.x).max(1.0);
        assert!(diff / scale < 1e-8, "solutions diverge: {diff}");
    }

    #[test]
    fn rejects_indefinite_matrix_with_column_info() {
        // Make the matrix indefinite by flipping one diagonal sign.
        let a = laplacian_2d(5, 5);
        let full = a.to_full_csc();
        let mut coo = sympack_sparse::Coo::new(25, 25);
        for c in 0..25 {
            for (&r, &v) in full.col_rows(c).iter().zip(full.col_values(c)) {
                if r >= c {
                    let v = if r == 12 && c == 12 { -v } else { v };
                    coo.push(r, c, v).unwrap();
                }
            }
        }
        let bad = coo.to_csc().to_lower_sym();
        let b = test_rhs(25);
        match SymPack::try_factor_and_solve(&bad, &b, &SolverOptions::default()) {
            Err(SolverError::NotPositiveDefinite { .. }) => {}
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn gpu_and_cpu_modes_agree_numerically() {
        let a = thermal_like(9, 9, 0.2, 3);
        let b = test_rhs(a.n());
        let gpu = SymPack::factor_and_solve(&a, &b, &SolverOptions::default());
        let cpu = SymPack::factor_and_solve(
            &a,
            &b,
            &SolverOptions {
                gpu: false,
                ..Default::default()
            },
        );
        assert!(gpu.relative_residual < 1e-10);
        assert!(cpu.relative_residual < 1e-10);
        // CPU-only mode must record zero GPU calls.
        for c in &cpu.op_counts {
            for op in sympack_gpu::Op::ALL {
                assert_eq!(c.get(op).1, 0, "CPU run used the GPU for {op:?}");
            }
        }
    }

    #[test]
    fn one_dimensional_grid_ablation_still_correct() {
        let a = laplacian_2d(8, 8);
        let b = test_rhs(64);
        let r = SymPack::factor_and_solve(
            &a,
            &b,
            &SolverOptions {
                n_nodes: 2,
                ranks_per_node: 2,
                grid: Some(ProcGrid::one_dimensional(4)),
                ..Default::default()
            },
        );
        assert!(r.relative_residual < 1e-10);
    }

    #[test]
    fn all_rtq_policies_solve_correctly() {
        let a = random_spd(60, 4, 9);
        let b = test_rhs(60);
        for policy in [
            RtqPolicy::Lifo,
            RtqPolicy::Fifo,
            RtqPolicy::CriticalPath,
            RtqPolicy::CommAware,
        ] {
            let r = SymPack::factor_and_solve(
                &a,
                &b,
                &SolverOptions {
                    rtq_policy: policy,
                    ..Default::default()
                },
            );
            assert!(r.relative_residual < 1e-10, "{policy:?}");
        }
    }

    #[test]
    fn tree_broadcast_solves_correctly_across_arities() {
        let a = thermal_like(10, 10, 0.2, 7);
        let b = test_rhs(a.n());
        for arity in [2usize, 4] {
            let r = SymPack::factor_and_solve(
                &a,
                &b,
                &SolverOptions {
                    n_nodes: 4,
                    ranks_per_node: 2,
                    bcast: BcastTopology::Tree { arity },
                    deterministic: true,
                    ..Default::default()
                },
            );
            assert!(r.relative_residual < 1e-10, "arity {arity}");
        }
    }

    #[test]
    fn coalesced_signals_solve_correctly() {
        let a = random_spd(80, 5, 11);
        let b = test_rhs(80);
        let r = SymPack::factor_and_solve(
            &a,
            &b,
            &SolverOptions {
                n_nodes: 2,
                ranks_per_node: 2,
                coalesce: Some(CoalesceConfig::default()),
                deterministic: true,
                ..Default::default()
            },
        );
        assert!(r.relative_residual < 1e-10);
    }

    #[test]
    fn tree_with_coalescing_matches_flat_solution() {
        let a = thermal_like(9, 9, 0.25, 13);
        let b = test_rhs(a.n());
        let base = SolverOptions {
            n_nodes: 3,
            ranks_per_node: 2,
            deterministic: true,
            ..Default::default()
        };
        let flat = SymPack::factor_and_solve(&a, &b, &base);
        let tree = SymPack::factor_and_solve(
            &a,
            &b,
            &SolverOptions {
                bcast: BcastTopology::Tree { arity: 2 },
                coalesce: Some(CoalesceConfig::default()),
                ..base
            },
        );
        assert!(flat.relative_residual < 1e-10);
        assert!(tree.relative_residual < 1e-10);
        // Same arithmetic, different wire pattern: the factors agree to
        // rounding, so the solutions essentially coincide.
        let diff = sympack_sparse::vecops::max_abs_diff(&flat.x, &tree.x);
        let scale = sympack_sparse::vecops::norm_inf(&flat.x).max(1.0);
        assert!(diff / scale < 1e-8, "solutions diverge: {diff}");
        // The relay pattern must not inflate task counts (schedule invariant).
        assert_eq!(flat.task_counts, tree.task_counts);
    }

    #[test]
    fn flat_default_is_bit_identical_to_pre_aggregation_schedule() {
        // Two runs of the default (Flat, no coalescing) options must agree
        // bit-for-bit in makespan — the pass-through contract that keeps
        // this PR from perturbing every historical baseline.
        let a = thermal_like(8, 8, 0.3, 5);
        let b = test_rhs(a.n());
        let opts = SolverOptions {
            n_nodes: 2,
            ranks_per_node: 2,
            deterministic: true,
            ..Default::default()
        };
        let r1 = SymPack::factor_and_solve(&a, &b, &opts);
        let r2 = SymPack::factor_and_solve(&a, &b, &opts);
        assert_eq!(r1.factor_time.to_bits(), r2.factor_time.to_bits());
        assert_eq!(r1.solve_time.to_bits(), r2.solve_time.to_bits());
        assert_eq!(r1.x, r2.x);
    }
}
