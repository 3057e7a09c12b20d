//! High-level driver: analysis → distributed factorization → solve.

use crate::engine::FactoEngine;
use crate::map2d::ProcGrid;
use crate::plan::{make_kernels, SolvePlan};
use crate::taskgraph::RtqPolicy;
use crate::trisolve;
use crate::SolverError;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack_gpu::{OffloadThresholds, OomPolicy, OpCounts};
use sympack_ordering::{compute_ordering, OrderingKind};
use sympack_pgas::coalesce::{BcastTopology, CoalesceConfig};
use sympack_pgas::{NetModel, Runtime, StatsSnapshot};
use sympack_sparse::SparseSym;
use sympack_symbolic::{analyze, AnalyzeOptions, SymbolicFactor};

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
    /// Ranks per node (the paper tunes this per problem; "flat MPI").
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
    /// Use thread-parallel CPU kernels inside each rank (shared-memory mode;
    /// affects wall-clock execution, not the modeled times). The worker
    /// budget is rank-aware: hardware threads are divided by the number of
    /// live PGAS ranks, so enabling this under flat-MPI cannot oversubscribe.
    pub intra_parallel: bool,
    /// Iterative-refinement steps after each solve (0 = off, as in the
    /// paper's runs — its PaStiX driver had refinement explicitly disabled).
    /// Each step gathers the iterate, forms the residual against the
    /// permuted matrix, and re-runs the distributed triangular solve.
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
    /// Dense-kernel blocking, dispatch-threshold and ISA configuration,
    /// threaded into every kernel call made by every rank (and into the
    /// scheduler's per-task cost estimates). The default reproduces the
    /// historical compile-time constants bit-for-bit; load a calibrated
    /// config from `sympack-tune` to adapt blocking to the host machine.
    /// Validated when the kernel engine is built — an invalid config
    /// panics at plan/driver construction, before any numeric work.
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
    /// builds. Validated when the kernel engine is built.
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
            intra_parallel: false,
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
    pub publish: Vec<crate::engine::PublishStats>,
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

/// The pieces of `x` a rank owns after one triangular solve.
type XPieces = Vec<(usize, Vec<f64>)>;

/// Drain the rank-level comm tracer (empty when tracing is off).
fn comm_events(rank: &mut sympack_pgas::Rank) -> Vec<sympack_trace::TraceEvent> {
    rank.take_tracer()
        .map(sympack_trace::Tracer::into_events)
        .unwrap_or_default()
}

/// What one rank hands back to the driver.
struct RankOut {
    error: Option<SolverError>,
    factor_time: f64,
    /// One entry per right-hand side: (solve makespan, owned x pieces).
    solves: Vec<(f64, XPieces)>,
    counts: OpCounts,
    publish: crate::engine::PublishStats,
    blr: sympack_gpu::BlrCounters,
    /// Bytes of this rank's retained factor blocks (stored size).
    factor_bytes: u64,
    trace: Vec<sympack_trace::TraceEvent>,
    /// Executed scheduler tasks per kind (factorization + first solve).
    tasks: Vec<(String, u64)>,
    /// This rank's telemetry snapshot (None unless `SolverOptions::telemetry`).
    telemetry: Option<sympack_trace::telemetry::TelemetrySnapshot>,
    /// Health events this rank's watchdog raised.
    health: Vec<sympack_trace::health::HealthEvent>,
}

/// Outcome of factorization without a solve (used by benches that time the
/// phases separately).
#[derive(Debug)]
pub struct FactorizeOutcome {
    /// Virtual factorization makespan.
    pub factor_time: f64,
    /// Per-rank op counts.
    pub op_counts: Vec<OpCounts>,
    /// Communication counters.
    pub stats: StatsSnapshot,
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
    pub publish: Vec<crate::engine::PublishStats>,
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
    /// [`SolverError::NotPositiveDefinite`] when a pivot fails;
    /// [`SolverError::DeviceOom`] under the Abort OOM policy.
    pub fn try_factor_and_solve(
        a: &SparseSym,
        b: &[f64],
        opts: &SolverOptions,
    ) -> Result<SolveReport, SolverError> {
        let multi = Self::try_factor_and_solve_multi(a, std::slice::from_ref(&b.to_vec()), opts)?;
        let MultiSolveReport {
            mut xs,
            mut relative_residuals,
            factor_time,
            mut solve_times,
            op_counts,
            publish,
            blr_counts,
            factor_bytes,
            stats,
            l_nnz,
            flops,
            n_supernodes,
            trace,
            task_counts,
            profile,
        } = multi;
        Ok(SolveReport {
            x: xs.pop().expect("one rhs"),
            relative_residual: relative_residuals.pop().expect("one rhs"),
            factor_time,
            solve_time: solve_times.pop().expect("one rhs"),
            op_counts,
            publish,
            blr_counts,
            factor_bytes,
            stats,
            l_nnz,
            flops,
            n_supernodes,
            trace,
            task_counts,
            profile,
        })
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
    /// [`SolverOptions::telemetry`] is set — *including* when the run
    /// itself failed, which is exactly when a stalled rank's health events
    /// matter most.
    pub fn try_factor_and_solve_observed(
        a: &SparseSym,
        bs: &[Vec<f64>],
        opts: &SolverOptions,
    ) -> (
        Result<MultiSolveReport, SolverError>,
        Option<sympack_trace::telemetry::TelemetryReport>,
    ) {
        assert!(!bs.is_empty(), "need at least one right-hand side");
        for b in bs {
            assert_eq!(b.len(), a.n(), "rhs length must match the matrix order");
        }
        let plan = SolvePlan::new(a, opts);
        let sf = Arc::clone(plan.sf());
        let ap = Arc::new(plan.permute(a));
        let bps: Arc<Vec<Vec<f64>>> = Arc::new(bs.iter().map(|b| sf.perm.apply_vec(b)).collect());
        let grid = plan.grid();
        let config = plan.pgas_config();
        let abort = Arc::new(AtomicBool::new(false));
        let opts2 = opts.clone();
        let report = Runtime::run(config, |rank| {
            let kernels = make_kernels(&opts2);
            let mut engine = FactoEngine::new(
                Arc::clone(&sf),
                &ap,
                grid,
                rank.id(),
                kernels,
                opts2.rtq_policy,
                opts2.oom_policy,
                Arc::clone(&abort),
                opts2.bcast,
                opts2.coalesce,
                Arc::clone(&plan.symbolic.tasks[rank.id()]),
            );
            if opts2.trace {
                engine.rt.tracer = Some(sympack_trace::Tracer::new());
                // Comm-layer spans (rget/rput/rpc/drain) for the profile.
                rank.set_tracer(sympack_trace::Tracer::new());
            }
            if opts2.telemetry {
                // Scheduler instruments sample on the virtual clock after
                // every charged task; the watchdog rides the rank so it
                // also sees the solve phase's idle polls.
                engine.rt.telemetry = Some(Box::new(
                    sympack_trace::telemetry::SchedTelemetry::new(rank.id()),
                ));
                rank.set_watchdog(sympack_trace::health::Watchdog::new(
                    sympack_trace::health::WatchRules::default(),
                ));
            }
            let (mut engine, factor_time) = FactoEngine::run_to_completion(rank, engine);
            let tel_snapshot = engine.rt.telemetry.take().map(|t| t.snapshot());
            let trace_events = engine
                .rt
                .tracer
                .take()
                .map(sympack_trace::Tracer::into_events)
                .unwrap_or_default();
            let facto_tasks: Vec<(String, u64)> = engine
                .rt
                .task_counts()
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect();
            if let Some(err) = engine.rt.error.take() {
                let mut trace = trace_events;
                trace.extend(comm_events(rank));
                let health = rank
                    .take_watchdog()
                    .map(sympack_trace::health::Watchdog::into_events)
                    .unwrap_or_default();
                if opts2.trace {
                    trace.extend(health.iter().map(|h| h.to_trace_event(rank.id())));
                }
                return RankOut {
                    error: Some(err),
                    factor_time,
                    solves: Vec::new(),
                    counts: engine.kernels.counts,
                    publish: engine.publish,
                    blr: engine.kernels.blr_counts,
                    factor_bytes: engine.store.iter().map(|(_, b)| b.bytes()).sum(),
                    trace,
                    tasks: facto_tasks,
                    telemetry: tel_snapshot,
                    health,
                };
            }
            if abort.load(std::sync::atomic::Ordering::SeqCst) {
                // Another rank failed; it carries the error.
                let mut trace = trace_events;
                trace.extend(comm_events(rank));
                let health = rank
                    .take_watchdog()
                    .map(sympack_trace::health::Watchdog::into_events)
                    .unwrap_or_default();
                if opts2.trace {
                    trace.extend(health.iter().map(|h| h.to_trace_event(rank.id())));
                }
                return RankOut {
                    error: None,
                    factor_time,
                    solves: Vec::new(),
                    counts: engine.kernels.counts,
                    publish: engine.publish,
                    blr: engine.kernels.blr_counts,
                    factor_bytes: engine.store.iter().map(|(_, b)| b.bytes()).sum(),
                    trace,
                    tasks: facto_tasks,
                    telemetry: tel_snapshot,
                    health,
                };
            }
            let mut solves = Vec::with_capacity(bps.len());
            let mut solve_trace: Vec<sympack_trace::TraceEvent> = Vec::new();
            let mut solve_tasks: Vec<(String, u64)> = Vec::new();
            let mut solve_error: Option<SolverError> = None;
            for bp in bps.iter() {
                let solve_kernels = make_kernels(&opts2);
                let params = trisolve::SolveParams {
                    policy: opts2.rtq_policy,
                    msg_overhead: 0.0,
                    trace: opts2.trace && solve_trace.is_empty(),
                };
                let mut out = trisolve::solve(
                    rank,
                    Arc::clone(&sf),
                    grid,
                    &engine.store,
                    bp,
                    solve_kernels,
                    &params,
                );
                solve_trace.extend(std::mem::take(&mut out.trace));
                if solve_tasks.is_empty() {
                    solve_tasks = out
                        .task_counts
                        .iter()
                        .map(|&(k, v)| (k.to_string(), v))
                        .collect();
                }
                solve_error = out.error.take();
                let (mut x_map, mut solve_time) = (out.x, out.elapsed);
                // A diagnosed solve stall aborts the job; every rank breaks
                // out of the per-rhs loop together (the solve itself is
                // collective, so the break points stay aligned).
                if solve_error.is_some() || rank.job_aborted() {
                    solves.push((solve_time, x_map.into_iter().collect()));
                    break;
                }
                for _ in 0..opts2.refine_steps {
                    // Gather the permuted iterate, form r = b - A·x, solve
                    // the correction and add it in — classical iterative
                    // refinement using the same distributed solve.
                    let t0 = rank.now();
                    let xp = trisolve::allgather_solution(rank, &sf, &x_map);
                    let ax = ap.spmv(&xp);
                    let rp: Vec<f64> = bp.iter().zip(&ax).map(|(b, a)| b - a).collect();
                    // Charge the residual SpMV (2 flops per stored entry,
                    // both triangles) to the local clock.
                    rank.advance(2.0 * ap.nnz_full() as f64 / 4.0e9);
                    let refine_kernels = make_kernels(&opts2);
                    let refine_params = trisolve::SolveParams {
                        policy: opts2.rtq_policy,
                        ..Default::default()
                    };
                    let dout = trisolve::solve(
                        rank,
                        Arc::clone(&sf),
                        grid,
                        &engine.store,
                        &rp,
                        refine_kernels,
                        &refine_params,
                    );
                    let (d_map, dt) = (dout.x, dout.elapsed);
                    for (sn, dx) in d_map {
                        let x = x_map.get_mut(&sn).expect("same ownership");
                        for (xi, di) in x.iter_mut().zip(dx) {
                            *xi += di;
                        }
                    }
                    solve_time += dt + (rank.now() - t0 - dt).max(0.0);
                }
                solves.push((solve_time, x_map.into_iter().collect()));
            }
            let mut trace = trace_events;
            trace.extend(solve_trace);
            trace.extend(comm_events(rank));
            let health = rank
                .take_watchdog()
                .map(sympack_trace::health::Watchdog::into_events)
                .unwrap_or_default();
            if opts2.trace {
                trace.extend(health.iter().map(|h| h.to_trace_event(rank.id())));
            }
            let mut tasks = facto_tasks;
            tasks.extend(solve_tasks);
            RankOut {
                error: solve_error,
                factor_time,
                solves,
                counts: engine.kernels.counts,
                publish: engine.publish,
                blr: engine.kernels.blr_counts,
                factor_bytes: engine.store.iter().map(|(_, b)| b.bytes()).sum(),
                trace,
                tasks,
                telemetry: tel_snapshot,
                health,
            }
        });
        // Assemble the telemetry report before the error check so a stalled
        // or aborted run still surfaces its snapshots and health events.
        let mut outs = report.results;
        let telemetry_report = opts.telemetry.then(|| {
            let snaps: Vec<_> = outs.iter_mut().filter_map(|o| o.telemetry.take()).collect();
            let health = outs
                .iter_mut()
                .flat_map(|o| std::mem::take(&mut o.health))
                .collect::<Vec<_>>();
            sympack_trace::telemetry::TelemetryReport::from_ranks(snaps, health)
        });
        // Propagate the first error (rank order) if any.
        if let Some(pos) = outs.iter().position(|o| o.error.is_some()) {
            return (
                Err(outs.swap_remove(pos).error.expect("checked")),
                telemetry_report,
            );
        }
        // Assemble each permuted solution from the per-rank pieces.
        let n = a.n();
        let mut xs = Vec::with_capacity(bs.len());
        let mut relative_residuals = Vec::with_capacity(bs.len());
        let mut solve_times = Vec::with_capacity(bs.len());
        for (k, b) in bs.iter().enumerate() {
            let mut xp = vec![0.0; n];
            for out in &outs {
                for (sn, piece) in &out.solves[k].1 {
                    let first = sf.partition.first_col(*sn);
                    xp[first..first + piece.len()].copy_from_slice(piece);
                }
            }
            let x = sf.perm.unapply_vec(&xp);
            relative_residuals.push(a.relative_residual(&x, b));
            xs.push(x);
            solve_times.push(outs.iter().map(|o| o.solves[k].0).fold(0.0, f64::max));
        }
        let trace = sympack_trace::merge(
            outs.iter_mut()
                .map(|o| std::mem::take(&mut o.trace))
                .collect(),
        );
        // Sum per-kind task counts over ranks.
        let mut by_kind: std::collections::BTreeMap<String, u64> =
            std::collections::BTreeMap::new();
        for out in &outs {
            for (k, v) in &out.tasks {
                *by_kind.entry(k.clone()).or_insert(0) += v;
            }
        }
        let mut profile = opts.trace.then(|| {
            sympack_trace::profile::Profile::build(
                "fanout",
                &trace,
                report.makespan,
                report.final_clocks.len(),
                report.comm,
            )
        });
        // Attach per-rank publication accounting only for compressed runs,
        // so dense-mode profile documents keep their pre-BLR byte layout.
        if let Some(p) = profile.as_mut() {
            if opts.blr.enabled() {
                p.blr = outs
                    .iter()
                    .enumerate()
                    .map(|(rank, o)| sympack_trace::profile::BlrRank {
                        rank,
                        dense_bytes: o.publish.dense_bytes,
                        lr_bytes: o.publish.lr_bytes,
                        lr_dense_equiv_bytes: o.publish.lr_dense_equiv_bytes,
                        dense_blocks: o.publish.dense_blocks,
                        lr_blocks: o.publish.lr_blocks,
                    })
                    .collect();
            }
        }
        (
            Ok(MultiSolveReport {
                xs,
                relative_residuals,
                factor_time: outs.iter().map(|o| o.factor_time).fold(0.0, f64::max),
                solve_times,
                op_counts: outs.iter().map(|o| o.counts).collect(),
                publish: outs.iter().map(|o| o.publish).collect(),
                blr_counts: outs.iter().map(|o| o.blr).collect(),
                factor_bytes: outs.iter().map(|o| o.factor_bytes).sum(),
                stats: report.stats,
                l_nnz: sf.l_nnz,
                flops: sf.flops,
                n_supernodes: sf.n_supernodes(),
                trace,
                task_counts: by_kind.into_iter().collect(),
                profile,
            }),
            telemetry_report,
        )
    }

    /// Factor `A` and gather the distributed factor into one sparse matrix.
    ///
    /// # Errors
    /// Same failure modes as [`SymPack::try_factor_and_solve`].
    pub fn factor_gather(
        a: &SparseSym,
        opts: &SolverOptions,
    ) -> Result<GatheredFactor, SolverError> {
        let plan = SolvePlan::new(a, opts);
        let sf = Arc::clone(plan.sf());
        let ap = Arc::new(plan.permute(a));
        let grid = plan.grid();
        let config = plan.pgas_config();
        let abort = Arc::new(AtomicBool::new(false));
        let opts2 = opts.clone();
        type BlockDump = Vec<((usize, usize), usize, usize, Vec<f64>)>;
        let report = Runtime::run(config, |rank| -> (Option<SolverError>, f64, BlockDump) {
            let kernels = make_kernels(&opts2);
            let engine = FactoEngine::new(
                Arc::clone(&sf),
                &ap,
                grid,
                rank.id(),
                kernels,
                opts2.rtq_policy,
                opts2.oom_policy,
                Arc::clone(&abort),
                opts2.bcast,
                opts2.coalesce,
                Arc::clone(&plan.symbolic.tasks[rank.id()]),
            );
            let (engine, factor_time) = FactoEngine::run_to_completion(rank, engine);
            if let Some(err) = engine.rt.error {
                return (Some(err), factor_time, Vec::new());
            }
            let blocks = engine
                .store
                .iter()
                .map(|(k, m)| (*k, m.rows(), m.cols(), m.to_dense().as_slice().to_vec()))
                .collect();
            (None, factor_time, blocks)
        });
        let mut blocks: std::collections::HashMap<(usize, usize), (usize, usize, Vec<f64>)> =
            std::collections::HashMap::new();
        let mut factor_time = 0.0f64;
        for (err, ft, dump) in report.results {
            if let Some(e) = err {
                return Err(e);
            }
            factor_time = factor_time.max(ft);
            for (k, r, c, data) in dump {
                blocks.insert(k, (r, c, data));
            }
        }
        // Assemble the permuted L column by column.
        let n = sf.n();
        let ns = sf.n_supernodes();
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for j in 0..ns {
            let first = sf.partition.first_col(j);
            let w = sf.partition.width(j);
            let (dr, _dc, ddata) = blocks.get(&(j, j)).expect("diag block gathered");
            for jc in 0..w {
                // Diagonal block: rows jc..w of column jc (lower triangle).
                for r in jc..w {
                    row_idx.push(first + r);
                    values.push(ddata[jc * dr + r]);
                }
                // Off-diagonal blocks, ascending targets → ascending rows.
                for b in sf.layout.blocks_of(j) {
                    let (br, _bc, bdata) = blocks.get(&(b.target, j)).expect("block gathered");
                    let rows = &sf.patterns[j][b.row_offset..b.row_offset + b.n_rows];
                    for (ri, &gr) in rows.iter().enumerate() {
                        row_idx.push(gr);
                        values.push(bdata[jc * br + ri]);
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
            factor_time,
        })
    }

    /// Run the symbolic phase only (shared by tools and benches).
    pub fn analyze_only(a: &SparseSym, opts: &SolverOptions) -> SymbolicFactor {
        let ordering = compute_ordering(a, opts.ordering);
        analyze(a, &ordering, &opts.analyze)
    }
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
