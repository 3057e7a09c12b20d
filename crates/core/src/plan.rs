//! The plan layer: analysis/mapping state that outlives a single
//! factorization, and the **one run path** from matrix to solution that
//! every entry point is a composition of.
//!
//! Two types carry the state, both typed by the [`FactorGraph`] their
//! engine family runs (the fan-out's [`LocalTasks`] by default):
//!
//! * [`SymbolicPlan`] — everything derived from the sparsity *pattern*
//!   alone: composite ordering, symbolic factor, 2D process grid, every
//!   rank's compiled factorization graph and solve, and the retained pattern
//!   arrays. It carries no numeric state, so one `Arc<SymbolicPlan>` can
//!   back any number of concurrent tenants whose matrices share a
//!   [`pattern_hash`] — the analyze-once/solve-many design a fleet-wide
//!   plan cache keys on. A baseline's plan is another type, so it can
//!   neither enter that cache nor hold a fan-out graph.
//! * [`SolvePlan`] — an `Arc<SymbolicPlan>` plus the per-job
//!   [`SolverOptions`]; the handle the numeric phases run against.
//!
//! The run path has one implementation of each per-rank phase, for every
//! engine family ([`EngineFamily`]: the fan-out and the three baselines):
//!
//! * `launch` — the only place an SPMD region under a plan is started.
//!   Validates the plan *before* any rank thread exists
//!   ([`SolverOptions::validate`]), attaches the rank-level observers
//!   (`observe`), builds the rank's kernel executor ([`make_kernels`]),
//!   runs the region's body and assembles the ranks' results.
//! * `RankCtx::factor_rank` — the factorization of one rank: builds the
//!   family's engine on the one construction path ([`EngineFamily::build`]:
//!   block store, scheduling core over the plan's graph, publication layer,
//!   fetch path), attaches the engine-level observers and drives the one
//!   factor loop ([`sched::run_to_completion`]).
//! * `RankCtx::solve_rank` — the distributed triangular solve of one rank
//!   ([`trisolve::solve_panel`]) and the one iterative-refinement loop.
//! * `RankOut` / `assemble` — the one per-rank result and the one
//!   cross-rank assembler (pieces → permuted panels, first error in rank
//!   order, task-count sums, timeline merge, telemetry report).
//!
//! [`factor_numeric`] is `launch(factor_rank)`; [`solve_panel_with`] is
//! `launch(solve_rank)`, both fan-out only; the one-shot
//! [`crate::driver::try_factor_and_solve_with`] is one `launch` whose body is
//! `factor_rank` followed by a `solve_rank` per right-hand side — it keeps a
//! *single* region so the ranks' virtual clocks run on from factorization
//! into the solves — and `sympack-service` sessions sit on the first two.

use crate::engine::FactoEngine;
use crate::map2d::ProcGrid;
use crate::sched::{
    self, CommLayer, Core, Engine, FetchConfig, FetchMode, Graph, LoopWall, PublishStats, RankOf,
    TaskEngine, TaskKind,
};
use crate::solve_tasks::SolveTasks;
use crate::storage::BlockStore;
use crate::taskgraph::LocalTasks;
use crate::trisolve;
use crate::{SolverError, SolverOptions};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack_gpu::{BlrCounters, KernelEngine, OpCounts};
use sympack_ordering::{compute_ordering_on, OrderingKind, FORK_MIN};
use sympack_pgas::{PgasConfig, Rank, RunReport, Runtime, StatsSnapshot};
use sympack_sparse::{SparseSym, SymPattern};
use sympack_symbolic::{analyze_timed, AnalyzePhases, Lap, SymbolicFactor};
use sympack_trace::health::{HealthEvent, Watchdog};
use sympack_trace::profile::{CommMatrix, Profile};
use sympack_trace::telemetry::{SchedTelemetry, TelemetryReport, TelemetrySnapshot};
use sympack_trace::{TraceEvent, Tracer};

/// Build the kernel executor a rank uses under `opts` (GPU mode, offload
/// thresholds, intra-rank parallelism, dense-kernel config).
///
/// # Panics
/// Panics if [`SolverOptions::kernel_config`] or [`SolverOptions::blr`] is
/// invalid. The solver never gets here with such options: every
/// distributed phase runs [`SolverOptions::validate`] first and returns
/// [`SolverError::InvalidOptions`] instead. Validate before calling this
/// directly.
pub fn make_kernels(opts: &SolverOptions) -> KernelEngine {
    let mut k = if opts.gpu {
        KernelEngine::new_gpu()
    } else {
        KernelEngine::new_cpu()
    };
    if let Some(t) = &opts.thresholds {
        k.thresholds = t.clone();
    }
    opts.blr.validate().expect("invalid SolverOptions::blr");
    k.blr = opts.blr;
    k.with_config(opts.kernel_config.clone())
        .expect("invalid SolverOptions::kernel_config")
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_eat(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a hash of a matrix's sparsity structure (order, explicit nonzero
/// count, column pointers, row indices — values excluded). Two matrices
/// with equal hashes share the symbolic factorization; sessions use this
/// to validate re-factorization requests against the analyzed pattern, and
/// the fleet plan cache uses it (folded with the layout-relevant options,
/// see [`plan_cache_key`]) to skip analysis for patterns already seen.
///
/// `n` and `nnz` are folded in explicitly before the index arrays so that
/// truncations or extensions that happen to preserve an array prefix still
/// change the digest.
pub fn pattern_hash(a: &SparseSym) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_eat(&mut h, a.n() as u64);
    fnv_eat(&mut h, a.nnz() as u64);
    for &p in a.col_ptr() {
        fnv_eat(&mut h, p as u64);
    }
    for &r in a.pattern().row_idx() {
        fnv_eat(&mut h, r as u64);
    }
    h
}

/// Cache key for a [`SymbolicPlan`]: the [`pattern_hash`] folded with every
/// option that changes the symbolic artifacts — ordering kind, amalgamation
/// parameters, and the rank layout the task graphs were sliced for. Two
/// tenants whose matrices share a pattern *and* whose jobs run under the
/// same analysis/layout options may share one `Arc<SymbolicPlan>`; anything
/// numeric-only (net model, GPU mode, fault plan…) is deliberately left out.
/// BLR compression is numeric-only too — it changes how factored panels are
/// *stored*, not the symbolic structure — so an exact (`tol = 0`) and an
/// approximate (`tol > 0`) tenant of the same pattern share one plan.
///
/// The grid enters as `pr` and `pc` only: [`ProcGrid::map`] is the paper's
/// `(i mod pr)·pc + (j mod pc)` and nothing else, so `pr × pc` determines
/// every block's owner. A placement policy that made two grids of the same
/// shape own blocks differently would have to be folded in here.
pub fn plan_cache_key(pattern: u64, opts: &SolverOptions) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_eat(&mut h, pattern);
    let ord = match opts.ordering {
        OrderingKind::Natural => 0u64,
        OrderingKind::Rcm => 1,
        OrderingKind::MinDegree => 2,
        OrderingKind::NestedDissection => 3,
    };
    fnv_eat(&mut h, ord);
    fnv_eat(&mut h, opts.analyze.max_sn_width as u64);
    fnv_eat(&mut h, opts.analyze.amalgamation_ratio.to_bits());
    fnv_eat(&mut h, opts.n_nodes as u64);
    fnv_eat(&mut h, opts.ranks_per_node as u64);
    let grid = effective_grid(opts);
    fnv_eat(&mut h, grid.pr() as u64);
    fnv_eat(&mut h, grid.pc() as u64);
    h
}

fn effective_grid(opts: &SolverOptions) -> ProcGrid {
    let p = opts.n_nodes * opts.ranks_per_node;
    let grid = opts.grid.unwrap_or_else(|| ProcGrid::squarest(p));
    assert_eq!(grid.n_procs(), p, "grid size must equal rank count");
    grid
}

/// One rank's compiled factorization graph, as an engine family defines it
/// (DESIGN.md §5.3): a pure function of the symbolic factor, the grid and
/// the rank, compiled once per rank per plan ([`SymbolicPlan::analyze`]).
/// Every factorization under the plan shares it behind an `Arc` and copies
/// only the counters it decrements.
pub trait FactorGraph: Send + Sync + 'static {
    /// The task species the graph schedules.
    type Key: TaskKind;

    /// Compile `rank`'s slice of the factorization under `grid`.
    fn compile(sf: &SymbolicFactor, grid: &ProcGrid, rank: usize) -> Self;

    /// The tasks the rank's scheduling core is built over.
    fn graph(&self) -> &Graph<Self::Key>;
}

impl FactorGraph for LocalTasks {
    type Key = crate::TaskKey;

    fn compile(sf: &SymbolicFactor, grid: &ProcGrid, rank: usize) -> Self {
        LocalTasks::build(sf, grid, rank)
    }

    fn graph(&self) -> &Graph<crate::TaskKey> {
        &self.graph
    }
}

/// Everything derived from a sparsity pattern under fixed analysis/layout
/// options, and nothing derived from numeric values: composite ordering,
/// symbolic factor, 2D block-cyclic grid, every rank's compiled
/// factorization graph `G` and solve, and the original (unpermuted) pattern
/// arrays needed to rebuild a matrix from fresh values. Immutable once
/// built; shared via `Arc` between every session whose matrix hashes to the
/// same pattern.
#[derive(Debug)]
pub struct SymbolicPlan<G = LocalTasks> {
    /// The symbolic factor (ordering, supernode partition, block layout).
    pub sf: Arc<SymbolicFactor>,
    /// 2D block-cyclic process grid the task graphs were sliced for.
    pub grid: ProcGrid,
    /// Structure hash of the analyzed matrix (see [`pattern_hash`]).
    pub pattern: u64,
    /// Plan-cache key: `pattern` folded with the analysis/layout options
    /// (see [`plan_cache_key`]).
    pub key: u64,
    /// Every rank's compiled factorization graph, shared (not copied) by
    /// every numeric factorization under this plan.
    pub tasks: Vec<Arc<G>>,
    /// Every rank's compiled slice of the triangular solve (both sweeps),
    /// shared by every solve under this plan.
    pub solve_tasks: Vec<Arc<SolveTasks>>,
    /// The analyzed (unpermuted) pattern, kept to rebuild a matrix from
    /// fresh values.
    pub a_pattern: SymPattern,
    /// Wall-clock milliseconds spent on ordering + analysis + task-graph
    /// construction when this plan was built. A tenant served from a cached
    /// plan pays none of it (its own analyze wall time is ≈ 0).
    pub analyze_wall_ms: f64,
    /// Where `analyze_wall_ms` went. Wall-clock, so — like it — never part
    /// of a deterministic telemetry or fleet document.
    pub phases: PlanPhases,
}

/// Wall-clock milliseconds of every phase of [`SymbolicPlan::analyze`], in
/// the order they run. On one worker they partition the build. With more
/// (see [`SymbolicPlan::analyze`]) the [`pattern_hash`] runs on its own
/// thread beside the symbolic analysis and is timed there;
/// [`PlanPhases::total_ms`] leaves that part out, so it always sums the
/// calling thread's critical path and equals
/// [`SymbolicPlan::analyze_wall_ms`] up to timer reads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanPhases {
    /// [`pattern_hash`], [`plan_cache_key`] and the retained pattern copy
    /// (with the hash on its own thread, also that thread's spawn and join).
    pub pattern_hash_ms: f64,
    /// The fill-reducing ordering.
    pub ordering_ms: f64,
    /// The symbolic analysis, phase by phase.
    pub symbolic: AnalyzePhases,
    /// Every rank's factorization graph, compiled by the plan's family.
    pub task_graphs_ms: f64,
    /// Every rank's compiled triangular solve.
    pub solve_tasks_ms: f64,
    /// The part of `pattern_hash_ms` that ran beside the symbolic analysis
    /// (0 on one worker).
    hash_beside_ms: f64,
}

impl PlanPhases {
    /// `(name, milliseconds)` of every phase in the order they run — what
    /// the tools print.
    pub fn rows(&self) -> [(&'static str, f64); 10] {
        let s = &self.symbolic;
        [
            ("pattern hash", self.pattern_hash_ms),
            ("ordering", self.ordering_ms),
            ("etree + postorder", s.etree_ms),
            ("pattern permute", s.permute_ms),
            ("column counts", s.col_counts_ms),
            ("supernodes + amalgamation", s.supernodes_ms),
            ("patterns", s.patterns_ms),
            ("layout", s.layout_ms),
            ("per-rank task graphs", self.task_graphs_ms),
            ("solve tasks", self.solve_tasks_ms),
        ]
    }

    /// Sum of the phases on the critical path: all of them, less the hash
    /// when it ran beside the symbolic analysis.
    pub fn total_ms(&self) -> f64 {
        self.rows().iter().map(|r| r.1).sum::<f64>() - self.hash_beside_ms
    }
}

/// Threads the analysis prologue may use: the plan's rank count (the cores
/// its numeric phases are about to occupy), capped by the machine. Matrices
/// of at most [`FORK_MIN`] vertices get one: nothing of theirs is worth a
/// thread spawn.
fn analysis_workers(a: &SparseSym, n_ranks: usize) -> usize {
    if n_ranks == 1 || a.n() <= FORK_MIN {
        return 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    n_ranks.min(cores)
}

impl SymbolicPlan {
    /// [`SymbolicPlan::analyze`] for the fan-out, whose plan is the default
    /// type — the constructor the plan cache, sessions and tools call.
    ///
    /// # Panics
    /// Panics if an explicit [`SolverOptions::grid`] disagrees with
    /// `n_nodes × ranks_per_node`.
    pub fn build(a: &SparseSym, opts: &SolverOptions) -> SymbolicPlan {
        Self::analyze(a, opts)
    }
}

impl<G: FactorGraph> SymbolicPlan<G> {
    /// Run ordering + symbolic analysis, fix the process grid and compile
    /// every rank's factorization graph `G` and solve. This is the expensive
    /// front-loaded phase the plan cache amortizes.
    ///
    /// On a matrix of more than [`FORK_MIN`] vertices and a plan of more than
    /// one rank, the prologue uses as many threads as the plan has ranks (at
    /// most the machine's cores): the nested dissection forks its halves and
    /// the [`pattern_hash`] runs beside the symbolic analysis. The plan is
    /// the same bit for bit on any number of threads. The graphs are
    /// compiled on this thread, rank after rank.
    ///
    /// # Panics
    /// Panics if an explicit [`SolverOptions::grid`] disagrees with
    /// `n_nodes × ranks_per_node`.
    pub fn analyze(a: &SparseSym, opts: &SolverOptions) -> Self {
        let t0 = std::time::Instant::now();
        let mut lap = Lap::start();
        let grid = effective_grid(opts);
        let n_ranks = grid.n_procs();
        let workers = analysis_workers(a, n_ranks);
        let a_pattern = a.pattern().clone();
        // This thread's share of the hash row: the copy, the hash or its
        // thread's spawn and join, and the key.
        let mut own_ms = lap.ms();
        let ordering = compute_ordering_on(a, opts.ordering, workers);
        let ordering_ms = lap.ms();
        // With a second worker the hash runs beside the symbolic analysis,
        // timed on its own thread; what the plan keeps is still allocated
        // on this one. On one worker it runs here, and nothing is spawned.
        let ((pattern, hash_beside_ms), (sf, symbolic)) = if workers > 1 {
            std::thread::scope(|s| {
                let hash = s.spawn(|| {
                    let mut lap = Lap::start();
                    (pattern_hash(a), lap.ms())
                });
                own_ms += lap.ms();
                let analyzed = analyze_timed(a, &ordering, &opts.analyze);
                lap.ms();
                (hash.join().expect("pattern_hash panicked"), analyzed)
            })
        } else {
            let hash = (pattern_hash(a), 0.0);
            own_ms += lap.ms();
            let analyzed = analyze_timed(a, &ordering, &opts.analyze);
            lap.ms();
            (hash, analyzed)
        };
        let key = plan_cache_key(pattern, opts);
        let pattern_hash_ms = hash_beside_ms + own_ms + lap.ms();
        let sf = Arc::new(sf);
        let tasks = (0..n_ranks)
            .map(|r| Arc::new(G::compile(&sf, &grid, r)))
            .collect();
        let task_graphs_ms = lap.ms();
        let solve_tasks = SolveTasks::build_all(&sf, &grid);
        let solve_tasks_ms = lap.ms();
        SymbolicPlan {
            sf,
            grid,
            pattern,
            key,
            tasks,
            solve_tasks,
            a_pattern,
            analyze_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            phases: PlanPhases {
                pattern_hash_ms,
                ordering_ms,
                symbolic,
                task_graphs_ms,
                solve_tasks_ms,
                hash_beside_ms,
            },
        }
    }
}

impl<G> SymbolicPlan<G> {
    /// Total ranks the task graphs were sliced for.
    pub fn n_ranks(&self) -> usize {
        self.grid.n_procs()
    }

    /// Whether `a` has exactly the sparsity pattern this plan was built for.
    pub fn matches(&self, a: &SparseSym) -> bool {
        pattern_hash(a) == self.pattern
    }

    /// Rebuild a matrix with this plan's pattern from a flat value slice
    /// (values in column-major pattern order, one per stored entry).
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the pattern's entry count —
    /// callers validate first and surface [`SolverError::PatternMismatch`].
    pub fn matrix_from_values(&self, values: &[f64]) -> SparseSym {
        SparseSym::from_pattern(self.a_pattern.clone(), values.to_vec())
    }

    /// Number of explicitly stored entries in the analyzed pattern.
    pub fn pattern_nnz(&self) -> usize {
        self.a_pattern.nnz()
    }
}

/// A symbolic plan paired with the per-job [`SolverOptions`]: the handle
/// the distributed numeric phases run against. Cheap to clone (the symbolic
/// half is behind an `Arc`); many plans can share one [`SymbolicPlan`]
/// while differing in numeric-only options (net model, faults, tracing…).
#[derive(Debug)]
pub struct SolvePlan<G = LocalTasks> {
    /// The shared pattern-derived artifacts.
    pub symbolic: Arc<SymbolicPlan<G>>,
    /// Options the numeric phases run under (rank layout must agree with
    /// the symbolic plan's grid).
    pub opts: SolverOptions,
}

impl<G> Clone for SolvePlan<G> {
    fn clone(&self) -> Self {
        SolvePlan {
            symbolic: Arc::clone(&self.symbolic),
            opts: self.opts.clone(),
        }
    }
}

impl SolvePlan {
    /// Run ordering + symbolic analysis, fix the process grid and compile
    /// the fan-out's graphs ([`SymbolicPlan::build`]) — the fresh-analysis
    /// path (cache miss).
    ///
    /// # Panics
    /// Panics if an explicit [`SolverOptions::grid`] disagrees with
    /// `n_nodes × ranks_per_node`.
    pub fn new(a: &SparseSym, opts: &SolverOptions) -> SolvePlan {
        Self::from_symbolic(Arc::new(SymbolicPlan::build(a, opts)), opts)
    }
}

impl<G> SolvePlan<G> {
    /// Reuse a cached symbolic plan — the cache-hit path: no ordering, no
    /// analysis, no task-graph construction, numeric-only factorization.
    ///
    /// `opts`' rank layout must be the one `symbolic` was sliced for (the
    /// plan cache keys on it, see [`plan_cache_key`]); the numeric phases
    /// reject a disagreeing pair with [`SolverError::InvalidOptions`].
    pub fn from_symbolic(symbolic: Arc<SymbolicPlan<G>>, opts: &SolverOptions) -> Self {
        SolvePlan {
            symbolic,
            opts: opts.clone(),
        }
    }

    /// The symbolic factor (ordering, supernode partition, block layout).
    pub fn sf(&self) -> &Arc<SymbolicFactor> {
        &self.symbolic.sf
    }

    /// 2D block-cyclic process grid.
    pub fn grid(&self) -> ProcGrid {
        self.symbolic.grid
    }

    /// Structure hash of the analyzed matrix (see [`pattern_hash`]).
    pub fn pattern(&self) -> u64 {
        self.symbolic.pattern
    }

    /// Total ranks in the job.
    pub fn n_ranks(&self) -> usize {
        self.opts.n_nodes * self.opts.ranks_per_node
    }

    /// [`SolverOptions::validate`], plus: the options' rank count is the one
    /// the symbolic plan sliced its task graphs for, and their analysis and
    /// layout (ordering, amalgamation, rank layout, grid shape) the ones it
    /// was built under — its [`plan_cache_key`].
    fn validate(&self) -> Result<(), SolverError> {
        self.opts.validate()?;
        let invalid = |field, detail| Err(SolverError::InvalidOptions { field, detail });
        let (want, built) = (self.n_ranks(), self.symbolic.n_ranks());
        if want != built {
            let detail = format!("{want} ranks requested, the symbolic plan was built for {built}");
            return invalid("ranks_per_node", detail);
        }
        if plan_cache_key(self.pattern(), &self.opts) != self.symbolic.key {
            let detail = "the symbolic plan was built under other analysis or layout options";
            return invalid("ordering, analyze or grid", detail.to_string());
        }
        Ok(())
    }

    /// PGAS runtime configuration for one distributed phase under this plan
    /// (fresh per phase: `Runtime::spmd` consumes it).
    pub fn pgas_config(&self) -> PgasConfig {
        let mut config = PgasConfig::multi_node(self.opts.n_nodes, self.opts.ranks_per_node);
        config.net = self.opts.net.clone();
        config.device_quota = self.opts.device_quota;
        config.faults = self.opts.faults;
        config.deterministic = self.opts.deterministic;
        config
    }

    /// Apply the composite permutation to a matrix with this plan's pattern.
    pub fn permute(&self, a: &SparseSym) -> SparseSym {
        a.permute(self.symbolic.sf.perm.as_slice())
    }
}

/// What one rank hands back from a distributed phase — the single per-rank
/// result of every entry point (one-shot driver of every family, plan layer). A
/// phase fills in the half it ran: a factorization the factor fields, a
/// solve one `solves` entry per panel.
#[derive(Debug, Default)]
pub(crate) struct RankOut {
    /// The error this rank diagnosed. Ranks that merely observed the
    /// job-wide abort carry none; [`assemble`] reports the first in rank
    /// order.
    pub error: Option<SolverError>,
    /// Virtual time this rank spent in the factorization.
    pub factor_time: f64,
    /// This rank's factor blocks.
    pub store: BlockStore,
    /// Kernel call counts of the factorization.
    pub counts: OpCounts,
    /// Block-publication byte accounting (dense vs compressed).
    pub publish: PublishStats,
    /// BLR kernel counters of the factorization.
    pub blr: BlrCounters,
    /// One `(virtual solve time, owned pieces)` entry per solved panel.
    pub solves: Vec<(f64, trisolve::XArena)>,
    /// Task timeline: engine spans, then solve spans, then — appended by
    /// [`RankOut::finish`] — comm spans and health markers.
    pub trace: Vec<TraceEvent>,
    /// Executed scheduler tasks per kind (factorization + first solve).
    pub tasks: Vec<(&'static str, u64)>,
    /// Scheduler instruments of the factorization.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Health events this rank's watchdog raised.
    pub health: Vec<HealthEvent>,
    /// Wall-clock attribution of the factor loop (zero unless `telemetry`).
    /// Real time, so it stays out of `telemetry` and every hashed document.
    pub wall: LoopWall,
}

/// Attach the rank-level observers: the comm-span tracer (rget/copy/rpc/
/// drain spans for the profile) under `trace`, the health watchdog under
/// `telemetry` — it rides the rank, so it sees the idle polls of every
/// phase of the region. [`RankOut::finish`] collects both.
pub(crate) fn observe<M>(rank: &mut Rank<M>, trace: bool, telemetry: bool) {
    if trace {
        rank.set_tracer(Tracer::new());
    }
    if telemetry {
        rank.set_watchdog(Watchdog::new());
    }
}

impl RankOut {
    /// True when the region must skip its remaining collective phases: this
    /// rank failed, or another did. The abort is sticky and job-wide, so
    /// every rank takes the same exit and the barriers stay aligned.
    pub(crate) fn aborted<M>(&self, rank: &Rank<M>) -> bool {
        self.error.is_some() || rank.job_aborted()
    }

    /// Fold one triangular solve into the result.
    pub(crate) fn push_solve(&mut self, mut solve: trisolve::SolveOutcome) {
        self.trace.append(&mut solve.trace);
        if self.solves.is_empty() {
            self.tasks.extend(solve.task_counts);
        }
        // The first error stands: a clean solve pushed after a failed phase
        // must not clear it.
        self.error = self.error.take().or(solve.error);
        self.solves.push((solve.elapsed, solve.x));
    }

    /// Collect what [`observe`] attached: the comm spans, and the
    /// watchdog's health events (mirrored into the timeline under `trace`).
    pub(crate) fn finish<M>(mut self, rank: &mut Rank<M>, trace: bool) -> Self {
        if let Some(tracer) = rank.take_tracer() {
            self.trace.extend(tracer.into_events());
        }
        if let Some(watchdog) = rank.take_watchdog() {
            self.health = watchdog.into_events();
        }
        if trace {
            let me = rank.id();
            self.trace
                .extend(self.health.iter().map(|h| h.to_trace_event(me)));
        }
        self
    }
}

/// A distributed phase assembled across ranks.
#[derive(Debug)]
pub(crate) struct Assembled {
    /// The factorization half: per-rank stores and counters, the region's
    /// communication counters and merged timeline.
    pub factor: NumericFactor,
    /// One `(permuted n × nrhs solution panel, virtual makespan)` per solve.
    pub solves: Vec<(Vec<f64>, f64)>,
    /// Executed scheduler tasks per kind, summed over ranks.
    pub task_counts: Vec<(String, u64)>,
    makespan: f64,
    comm: CommMatrix,
}

impl Assembled {
    /// The flight-recorder profile of the region (critical path, per-rank
    /// wait attribution, comm matrix) over its merged timeline.
    pub(crate) fn profile(&self, engine: &str) -> Profile {
        let n_ranks = self.factor.stores.len();
        let comm = self.comm.clone();
        Profile::build(engine, &self.factor.trace, self.makespan, n_ranks, comm)
    }
}

/// Assemble the per-rank results of one SPMD region whose solves carried
/// `nrhs` right-hand sides each — the one place pieces become permuted
/// solution panels, the first error (rank order) is picked, task counts are
/// summed and timelines merged. The telemetry report (under `telemetry`) is
/// built before the error check, so a stalled or aborted run still surfaces
/// its snapshots and health events.
pub(crate) fn assemble(
    sf: &SymbolicFactor,
    run: RunReport<RankOut>,
    nrhs: usize,
    telemetry: bool,
) -> (Result<Assembled, SolverError>, Option<TelemetryReport>) {
    let mut outs = run.results;
    let report = telemetry.then(|| {
        let snaps: Vec<_> = outs.iter_mut().filter_map(|o| o.telemetry.take()).collect();
        let health = outs.iter_mut().flat_map(|o| std::mem::take(&mut o.health));
        TelemetryReport::from_ranks(snaps, health.collect::<Vec<_>>())
    });
    if let Some(err) = outs.iter_mut().find_map(|o| o.error.take()) {
        return (Err(err), report);
    }
    let n = sf.n();
    let solves = (0..outs[0].solves.len())
        .map(|k| {
            let mut xp = vec![0.0; n * nrhs];
            let mut solve_time = 0.0f64;
            for (elapsed, x) in outs.iter().map(|o| &o.solves[k]) {
                solve_time = solve_time.max(*elapsed);
                for (sn, panel) in x.pieces() {
                    let first = sf.partition.first_col(sn);
                    let w = panel.len() / nrhs;
                    for c in 0..nrhs {
                        xp[c * n + first..][..w].copy_from_slice(&panel[c * w..][..w]);
                    }
                }
            }
            (xp, solve_time)
        })
        .collect();
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for (kind, count) in outs.iter().flat_map(|o| &o.tasks) {
        *by_kind.entry(*kind).or_insert(0) += count;
    }
    let factor = NumericFactor {
        factor_time: outs.iter().map(|o| o.factor_time).fold(0.0, f64::max),
        op_counts: outs.iter().map(|o| o.counts).collect(),
        publish: outs.iter().map(|o| o.publish).collect(),
        blr_counts: outs.iter().map(|o| o.blr).collect(),
        loop_wall: outs.iter().map(|o| o.wall).collect(),
        stats: run.stats,
        trace: sympack_trace::merge(
            outs.iter_mut()
                .map(|o| std::mem::take(&mut o.trace))
                .collect(),
        ),
        stores: outs.into_iter().map(|o| o.store).collect(),
    };
    let assembled = Assembled {
        factor,
        solves,
        task_counts: by_kind
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        makespan: run.makespan,
        comm: run.comm,
    };
    (Ok(assembled), report)
}

/// What the one run path needs to know about an engine family (DESIGN.md
/// §5.3): the label of its profile, whether its transport is two-sided, and
/// its engine's constructor. The family's graph `G` is compiled by its plan
/// ([`SymbolicPlan::analyze`]); the kernels, the launch, the engine's shared
/// parts ([`EngineFamily::build`]), the factor loop, the solve and the
/// assembly are the same for every family.
pub struct EngineFamily<E: Engine, G> {
    /// Engine name of the family's profile.
    pub label: &'static str,
    /// Rendezvous charge (seconds) of the family's two-sided receives, paid
    /// by every fetch of its factorization ([`FetchMode::Blocking`]) and by
    /// every message of its triangular solve. Zero means one-sided
    /// ([`FetchMode::NonBlocking`]).
    pub rendezvous: f64,
    /// The family's engine from the parts [`EngineFamily::build`] made.
    pub engine: fn(EngineParts<'_, E, G>) -> E,
}

/// What [`EngineFamily::build`] makes for one rank, the same way for every
/// family, and hands to the family's engine.
pub struct EngineParts<'a, E: Engine, G> {
    /// The plan the rank factors under.
    pub plan: &'a SolvePlan<G>,
    /// The permuted matrix `store` was scattered from.
    pub ap: &'a SparseSym,
    /// This rank's id.
    pub rank: usize,
    /// This rank's compiled graph, shared with the plan.
    pub graph: Arc<G>,
    /// This rank's blocks of `ap`.
    pub store: BlockStore,
    /// The scheduling core over `graph`, publication and fetch path.
    pub core: Core<E::Key, E::Meta>,
    /// The rank's kernel executor.
    pub kernels: KernelEngine,
}

impl<E: Engine, G: FactorGraph<Key = E::Key>> EngineFamily<E, G> {
    /// The one construction path of a factorization engine: rank `rank`'s
    /// block store of the permuted matrix `ap`, a scheduling core over its
    /// compiled graph in `plan`, the publication layer and the fetch path,
    /// handed with `kernels` to the family's engine.
    pub fn build(
        &self,
        plan: &SolvePlan<G>,
        ap: &SparseSym,
        rank: usize,
        kernels: KernelEngine,
        abort: Arc<AtomicBool>,
    ) -> E {
        let (opts, grid) = (&plan.opts, plan.grid());
        let graph = Arc::clone(&plan.symbolic.tasks[rank]);
        let store = BlockStore::init(plan.sf(), ap, &grid, rank);
        let mode = match self.rendezvous {
            0.0 => FetchMode::NonBlocking,
            overhead => FetchMode::Blocking { overhead },
        };
        let core = Core {
            rt: TaskEngine::new(graph.graph(), opts.rtq_policy, abort),
            comm: CommLayer::new(opts.coalesce, opts.bcast),
            fetch: FetchConfig::for_engine(kernels.gpu_enabled, opts.oom_policy, mode),
        };
        (self.engine)(EngineParts {
            plan,
            ap,
            rank,
            graph,
            store,
            core,
            kernels,
        })
    }
}

/// The fan-out family: symPACK's own engine and a one-sided solve.
pub const FAN_OUT: EngineFamily<FactoEngine, LocalTasks> = EngineFamily {
    label: "fanout",
    rendezvous: 0.0,
    engine: FactoEngine::new,
};

/// One rank's handle on a distributed phase under a plan: what [`launch`]
/// gives the per-rank body.
pub(crate) struct RankCtx<'a, E: Engine, G> {
    plan: &'a SolvePlan<G>,
    family: &'a EngineFamily<E, G>,
    /// Pristine kernel executor; every factorization and solve runs on its
    /// own copy (fresh call counters).
    kernels: KernelEngine,
    abort: &'a Arc<AtomicBool>,
}

impl<E: Engine, G: FactorGraph<Key = E::Key>> RankCtx<'_, E, G> {
    /// Factor this rank's slice of the permuted matrix `ap`: build the
    /// family's engine, attach the engine-level observers the plan's options
    /// ask for (task tracer; scheduler instruments, sampled on the virtual
    /// clock after every charged task), drive it through the one factor loop
    /// and collect the factorization half of the result.
    pub(crate) fn factor_rank(&self, rank: &mut RankOf<E>, ap: &SparseSym) -> RankOut {
        let (kernels, abort) = (self.kernels.clone(), Arc::clone(self.abort));
        let mut engine = self.family.build(self.plan, ap, rank.id(), kernels, abort);
        let rt = &mut engine.core().rt;
        if self.plan.opts.trace {
            rt.tracer = Some(Tracer::new());
        }
        if self.plan.opts.telemetry {
            rt.telemetry = Some(Box::new(SchedTelemetry::new(rank.id())));
            rt.wall.start();
        }
        let (mut engine, factor_time) = sched::run_to_completion(rank, engine);
        let core = engine.core();
        let (publish, rt) = (core.comm.stats(), &mut core.rt);
        let wall = rt.wall.finish();
        let (error, tasks) = (rt.error.take(), rt.task_counts());
        let trace = rt.tracer.take().map_or_else(Vec::new, Tracer::into_events);
        let telemetry = rt.telemetry.take().map(|t| t.snapshot());
        let (store, kernels) = engine.into_factor();
        RankOut {
            error,
            factor_time,
            store,
            counts: kernels.counts,
            publish,
            blr: kernels.blr_counts,
            trace,
            tasks,
            telemetry,
            wall,
            ..Default::default()
        }
    }

    /// Solve one permuted `n × nrhs` panel `bp` against this rank's factor
    /// blocks — the one solve body, paying the family's message overhead —
    /// then, given the permuted matrix `ap`, run the one refinement loop:
    /// [`SolverOptions::refine_steps`] times gather the iterate, form every
    /// column's residual `b − A·x`, solve the correction and add it in.
    pub(crate) fn solve_rank(
        &self,
        rank: &mut RankOf<E>,
        store: &BlockStore,
        ap: Option<&SparseSym>,
        bp: &[f64],
        nrhs: usize,
        trace: bool,
    ) -> trisolve::SolveOutcome {
        let (symbolic, kernels) = (&self.plan.symbolic, &self.kernels);
        let solve = |rank: &mut RankOf<E>, bp: &[f64], trace| {
            let params = trisolve::SolveParams {
                policy: self.plan.opts.rtq_policy,
                msg_overhead: self.family.rendezvous,
                trace,
            };
            let (sf, tasks) = (&symbolic.sf, &symbolic.solve_tasks[rank.id()]);
            let (sf, tasks) = (Arc::clone(sf), Arc::clone(tasks));
            trisolve::solve_panel(rank, sf, tasks, store, bp, nrhs, kernels.clone(), &params)
        };
        let mut s = solve(rank, bp, trace);
        let Some(ap) = ap else { return s };
        for _ in 0..self.plan.opts.refine_steps {
            if s.error.is_some() || rank.job_aborted() {
                break;
            }
            let t0 = rank.now();
            let xp = trisolve::allgather_solution(rank, &symbolic.sf, &s.x);
            let (n, mut rp) = (ap.n(), Vec::with_capacity(bp.len()));
            for c in 0..nrhs {
                let ax = ap.spmv(&xp[c * n..][..n]);
                rp.extend(bp[c * n..][..n].iter().zip(ax).map(|(b, a)| b - a));
            }
            // Charge the residual SpMVs (2 flops per stored entry, both
            // triangles, per column) to the local clock.
            rank.advance(2.0 * ap.nnz_full() as f64 * nrhs as f64 / 4.0e9);
            let d = solve(rank, &rp, false);
            // Same rank, same plan: the arenas line up one to one.
            s.x.add(&d.x);
            s.elapsed += d.elapsed + (rank.now() - t0 - d.elapsed).max(0.0);
            s.error = d.error;
        }
        s
    }
}

/// Run one SPMD region of `family` under `plan` and assemble it — the launch
/// every entry point goes through. The plan is validated *before* any rank
/// thread exists (a rank that panics strands its peers: under lockstep it
/// never hands the turn on). Each rank is observed as the plan's options
/// ask, runs `body`, and hands its [`RankOut`] to [`assemble`]; `nrhs` is
/// the panel width of the region's solves.
pub(crate) fn launch<E: Engine, G: FactorGraph>(
    plan: &SolvePlan<G>,
    family: &EngineFamily<E, G>,
    nrhs: usize,
    body: impl Fn(&mut RankOf<E>, &RankCtx<'_, E, G>) -> RankOut + Sync,
) -> (Result<Assembled, SolverError>, Option<TelemetryReport>) {
    if let Err(e) = plan.validate() {
        return (Err(e), None);
    }
    let opts = &plan.opts;
    let abort = Arc::new(AtomicBool::new(false));
    let run = Runtime::spmd(plan.pgas_config(), |rank| {
        observe(rank, opts.trace, opts.telemetry);
        let ctx = RankCtx {
            plan,
            family,
            kernels: make_kernels(opts),
            abort: &abort,
        };
        body(rank, &ctx).finish(rank, opts.trace)
    });
    assemble(plan.sf(), run, nrhs, opts.telemetry)
}

/// A completed distributed numeric factorization whose per-rank block
/// stores were handed back to the caller — the retained factor of a solver
/// session, indexed by rank id.
#[derive(Debug)]
pub struct NumericFactor {
    /// Factor blocks per rank (`stores[r]` belongs to rank `r`).
    pub stores: Vec<BlockStore>,
    /// Virtual factorization makespan.
    pub factor_time: f64,
    /// Per-rank kernel call counts.
    pub op_counts: Vec<OpCounts>,
    /// Per-rank block-publication byte accounting (dense vs compressed).
    pub publish: Vec<PublishStats>,
    /// Per-rank BLR kernel counters (all zero in dense mode).
    pub blr_counts: Vec<BlrCounters>,
    /// Per-rank wall-clock attribution of the factor loop (all zero unless
    /// [`SolverOptions::telemetry`]).
    pub loop_wall: Vec<LoopWall>,
    /// Communication counters of the factorization run.
    pub stats: StatsSnapshot,
    /// Merged timeline of the region that produced the factor (empty
    /// unless [`SolverOptions::trace`]).
    pub trace: Vec<TraceEvent>,
}

impl NumericFactor {
    /// Total bytes of retained factor blocks across all ranks — what the
    /// fleet's LRU factor cache budgets. *Actual stored* bytes: a factor
    /// with compressed panels charges its `(rows+cols)·rank` factored
    /// extents, not the symbolic dense extents.
    pub fn factor_bytes(&self) -> u64 {
        let blocks = self.stores.iter().flat_map(|s| s.iter());
        blocks.map(|(_, m)| m.bytes()).sum()
    }
}

/// Run the numeric factorization under `plan`, reusing the plan's prebuilt
/// per-rank task graphs, and return the per-rank block stores.
///
/// `ap` must be the permuted matrix ([`SolvePlan::permute`]).
///
/// # Errors
/// [`SolverError::InvalidOptions`] for options [`SolverOptions::validate`]
/// rejects; [`SolverError::NotPositiveDefinite`] on a pivot failure,
/// [`SolverError::DeviceOom`] under the Abort OOM policy, plus the
/// fault-injection failure modes ([`SolverError::Stalled`],
/// [`SolverError::FetchTimeout`]).
pub fn factor_numeric(plan: &SolvePlan, ap: &Arc<SparseSym>) -> Result<NumericFactor, SolverError> {
    factor_numeric_observed(plan, ap).0
}

/// [`factor_numeric`] plus the telemetry plane: the merged per-rank
/// scheduler instruments and watchdog health events, `Some` whenever
/// [`SolverOptions::telemetry`] is set — also when the factorization
/// failed, exactly as [`crate::SymPack::try_factor_and_solve_observed`]
/// guarantees for the one-shot.
pub fn factor_numeric_observed(
    plan: &SolvePlan,
    ap: &Arc<SparseSym>,
) -> (Result<NumericFactor, SolverError>, Option<TelemetryReport>) {
    let (run, telemetry) = launch(plan, &FAN_OUT, 0, |rank, ctx| ctx.factor_rank(rank, ap));
    (run.map(|a| a.factor), telemetry)
}

/// Result of one distributed panel solve.
#[derive(Debug)]
pub struct PanelSolve {
    /// The full *permuted* solution panel, `n × nrhs` column-major. Callers
    /// undo the composite permutation per column.
    pub xp: Vec<f64>,
    /// Virtual makespan of the panel solve (max over ranks).
    pub solve_time: f64,
    /// Solve timeline (empty unless [`SolverOptions::trace`]).
    pub trace: Vec<TraceEvent>,
}

/// Run one distributed triangular panel solve against retained factor
/// stores. `bp` is the full permuted `n × nrhs` right-hand-side panel,
/// column-major; `stores[r]` is rank `r`'s slice of the factor (from
/// [`factor_numeric`]). Given `ap`, the permuted matrix the stores factor,
/// every column is refined [`SolverOptions::refine_steps`] times against it.
///
/// # Errors
/// [`SolverError::ShapeMismatch`] when `nrhs` is zero, `bp` is not
/// `n × nrhs` or `stores` does not hold one store per rank;
/// [`SolverError::InvalidOptions`] as for [`factor_numeric`], and for
/// `refine_steps > 0` without `ap`; the solve's diagnosed failure modes
/// under fault injection ([`SolverError::Stalled`],
/// [`SolverError::FetchTimeout`]).
pub fn solve_panel_with(
    plan: &SolvePlan,
    stores: &[BlockStore],
    ap: Option<&SparseSym>,
    bp: &[f64],
    nrhs: usize,
) -> Result<PanelSolve, SolverError> {
    if ap.is_none() && plan.opts.refine_steps > 0 {
        let detail = "no matrix to refine against".to_string();
        return Err(SolverError::InvalidOptions {
            field: "refine_steps",
            detail,
        });
    }
    let (n, p) = (plan.sf().n(), plan.n_ranks());
    SolverError::check_shape("right-hand sides (at least)", 1, nrhs.min(1))?;
    SolverError::check_shape("factor stores", p, stores.len())?;
    SolverError::check_shape("rhs panel entries", n * nrhs, bp.len())?;
    let (run, _telemetry) = launch(plan, &FAN_OUT, nrhs, |rank, ctx| {
        let mut out = RankOut::default();
        let store = &stores[rank.id()];
        out.push_solve(ctx.solve_rank(rank, store, ap, bp, nrhs, plan.opts.trace));
        out
    });
    run.map(|mut a| {
        let (xp, solve_time) = a.solves.pop().expect("the region ran one solve");
        let trace = a.factor.trace;
        PanelSolve {
            xp,
            solve_time,
            trace,
        }
    })
}

/// [`solve_panel_with`] without a matrix, so it refuses `refine_steps > 0`.
///
/// # Errors
/// As [`solve_panel_with`].
pub fn solve_panel_distributed(
    plan: &SolvePlan,
    stores: &[BlockStore],
    bp: &[f64],
    nrhs: usize,
) -> Result<PanelSolve, SolverError> {
    solve_panel_with(plan, stores, None, bp, nrhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::{laplacian_2d, random_spd};
    use sympack_sparse::vecops::test_rhs;

    #[test]
    fn pattern_hash_ignores_values_but_not_structure() {
        let a = laplacian_2d(6, 6);
        // Same structure, different values.
        let mut values: Vec<f64> = Vec::new();
        let mut row_idx: Vec<usize> = Vec::new();
        for c in 0..a.n() {
            values.extend(a.col_values(c).iter().map(|v| v * 3.0));
            row_idx.extend_from_slice(a.col_rows(c));
        }
        let scaled = SparseSym::from_parts(a.n(), a.col_ptr().to_vec(), row_idx, values);
        assert_eq!(pattern_hash(&a), pattern_hash(&scaled));
        // Different structure.
        let b = laplacian_2d(6, 5);
        assert_ne!(pattern_hash(&a), pattern_hash(&b));
    }

    #[test]
    fn build_phases_partition_the_analysis_wall_time() {
        // Big enough that the timer reads between phases are noise, and
        // above `FORK_MIN`, so at P = 2 the hash runs on its own thread
        // wherever there is a second core.
        let a = laplacian_2d(60, 60);
        assert!(a.n() > FORK_MIN);
        for ranks_per_node in [1, 2] {
            let opts = SolverOptions {
                ranks_per_node,
                ..Default::default()
            };
            let plan = SymbolicPlan::build(&a, &opts);
            let phases = plan.phases;
            assert!(phases.rows().iter().all(|&(_, ms)| ms >= 0.0));
            assert!(phases.ordering_ms > 0.0 && phases.symbolic.patterns_ms > 0.0);
            assert!(phases.pattern_hash_ms >= phases.hash_beside_ms);
            let beside = analysis_workers(&a, ranks_per_node) > 1;
            assert_eq!(phases.hash_beside_ms > 0.0, beside, "P = {ranks_per_node}");
            // The critical path, not the sum of all work. Outside the laps
            // there are only timer reads (≈ 0.01 ms of ≈ 40 ms unoptimized),
            // while a hash counted twice would be ≈ 5 %.
            let sum = phases.total_ms();
            assert!(
                (sum - plan.analyze_wall_ms).abs() <= 0.01 * plan.analyze_wall_ms,
                "P = {ranks_per_node}: critical path sums to {sum} ms, analyze_wall_ms = {}",
                plan.analyze_wall_ms
            );
        }
    }

    #[test]
    fn the_plan_is_the_same_on_any_number_of_analysis_threads() {
        use sympack_sparse::gen::thermal_like;
        for a in [laplacian_2d(48, 40), thermal_like(40, 40, 0.35, 3)] {
            let one = SymbolicPlan::build(&a, &SolverOptions::default());
            for ranks_per_node in [2, 4] {
                let opts = SolverOptions {
                    ranks_per_node,
                    ..Default::default()
                };
                let plan = SymbolicPlan::build(&a, &opts);
                assert_eq!(plan.sf.perm, one.sf.perm, "P = {ranks_per_node}");
                assert_eq!(plan.pattern, one.pattern, "P = {ranks_per_node}");
            }
        }
    }

    #[test]
    fn loop_wall_attributes_the_factor_loop_and_is_off_without_telemetry() {
        use crate::sched::Wall;
        let a = laplacian_2d(60, 60);
        let mut opts = SolverOptions {
            ranks_per_node: 2,
            gpu: false,
            ..Default::default()
        };
        let plan = SolvePlan::new(&a, &opts);
        let ap = Arc::new(plan.permute(&a));
        let nf = factor_numeric(&plan, &ap).unwrap();
        assert!(nf.loop_wall.iter().all(|w| *w == LoopWall::default()));
        opts.telemetry = true;
        let timed = SolvePlan::from_symbolic(Arc::clone(&plan.symbolic), &opts);
        let nf = factor_numeric(&timed, &ap).unwrap();
        assert_eq!(nf.loop_wall.len(), 2);
        for w in &nf.loop_wall {
            assert!(w.get(Wall::Kernel) > 0.0 && w.get(Wall::Scatter) > 0.0);
            assert!(w.get(Wall::Signals) > 0.0 && w.get(Wall::Publish) > 0.0);
            let sum: f64 = Wall::ALL.iter().map(|&b| w.get(b)).sum();
            assert!(sum > 0.0 && sum == w.loop_ms());
        }
    }

    #[test]
    fn cache_key_separates_layouts_and_orderings() {
        let a = laplacian_2d(6, 6);
        let h = pattern_hash(&a);
        let base = SolverOptions {
            n_nodes: 1,
            ranks_per_node: 4,
            ..Default::default()
        };
        let k0 = plan_cache_key(h, &base);
        assert_eq!(k0, plan_cache_key(h, &base.clone()));
        // Numeric-only knobs do not change the key.
        let numeric = SolverOptions {
            gpu: true,
            trace: true,
            ..base.clone()
        };
        assert_eq!(k0, plan_cache_key(h, &numeric));
        // Layout and ordering do.
        let wide = SolverOptions {
            ranks_per_node: 2,
            n_nodes: 2,
            ..base.clone()
        };
        assert_ne!(k0, plan_cache_key(h, &wide));
        let nd = SolverOptions {
            ordering: OrderingKind::Natural,
            ..base.clone()
        };
        assert_ne!(k0, plan_cache_key(h, &nd));
    }

    #[test]
    fn a_clean_solve_pushed_after_a_failed_phase_keeps_the_error() {
        let a = laplacian_2d(4, 4);
        let plan = SolvePlan::new(&a, &SolverOptions::default());
        let run = Runtime::spmd(plan.pgas_config(), |_: &mut Rank<()>| {
            let mut out = RankOut {
                error: Some(SolverError::NotPositiveDefinite { column: 3 }),
                ..Default::default()
            };
            out.push_solve(trisolve::SolveOutcome::default());
            out
        });
        match assemble(plan.sf(), run, 1, false).0 {
            Err(SolverError::NotPositiveDefinite { column: 3 }) => {}
            other => panic!("the factor error was lost: {other:?}"),
        }
    }

    #[test]
    fn mis_shaped_solve_inputs_are_errors_on_every_rank() {
        // `trisolve::solve_panel` is public (the compiled-solve tests drive
        // it directly): a bad panel must come back as an error from every
        // rank, under lockstep too, never as a panic that strands the
        // peers.
        let a = laplacian_2d(6, 6);
        let opts = SolverOptions {
            n_nodes: 1,
            ranks_per_node: 2,
            deterministic: true,
            ..Default::default()
        };
        let plan = SolvePlan::new(&a, &opts);
        let nf = factor_numeric(&plan, &Arc::new(plan.permute(&a))).unwrap();
        let no_blocks = [BlockStore::default(), BlockStore::default()];
        let n = a.n();
        for (stores, bp, nrhs, what) in [
            (&nf.stores[..], vec![], 0, "right-hand sides (at least)"),
            (&nf.stores[..], vec![1.0; n + 1], 1, "rhs panel entries"),
            (&no_blocks[..], vec![1.0; n], 1, "factor store blocks"),
        ] {
            let run = Runtime::spmd(plan.pgas_config(), |rank| {
                let ctx = RankCtx {
                    plan: &plan,
                    family: &FAN_OUT,
                    kernels: make_kernels(&opts),
                    abort: &Arc::new(AtomicBool::new(false)),
                };
                let solve = ctx.solve_rank(rank, &stores[rank.id()], None, &bp, nrhs, false);
                (solve.error, solve.x.pieces().count())
            });
            for (rank, result) in run.results.into_iter().enumerate() {
                match result {
                    (Some(SolverError::ShapeMismatch { what: w, .. }), 0) if w == what => {}
                    other => panic!("rank {rank}, {what}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn factor_then_panel_solve_matches_one_shot() {
        let a = random_spd(70, 4, 5);
        let opts = SolverOptions {
            n_nodes: 1,
            ranks_per_node: 4,
            trace: true,
            ..Default::default()
        };
        let plan = SolvePlan::new(&a, &opts);
        let ap = Arc::new(plan.permute(&a));
        let nf = factor_numeric(&plan, &ap).unwrap();
        assert!(nf.factor_time > 0.0);
        assert!(nf.factor_bytes() > 0);
        let b = test_rhs(a.n());
        let bp = plan.sf().perm.apply_vec(&b);
        let ps = solve_panel_distributed(&plan, &nf.stores, &bp, 1).unwrap();
        let x = plan.sf().perm.unapply_vec(&ps.xp);
        assert!(a.relative_residual(&x, &b) < 1e-10);
        // The plan path honours `opts.trace` like the one-shot does.
        assert!(nf.trace.iter().any(|e| e.name.starts_with("D(")));
        assert!(ps.trace.iter().any(|e| e.name.starts_with("Ly(")));
    }

    #[test]
    fn shared_symbolic_plan_factors_bit_identically() {
        let a = laplacian_2d(7, 6);
        let opts = SolverOptions {
            n_nodes: 2,
            ranks_per_node: 2,
            deterministic: true,
            ..Default::default()
        };
        let fresh = SolvePlan::new(&a, &opts);
        let cached = SolvePlan::from_symbolic(Arc::clone(&fresh.symbolic), &opts);
        let ap = Arc::new(fresh.permute(&a));
        let nf1 = factor_numeric(&fresh, &ap).unwrap();
        let nf2 = factor_numeric(&cached, &ap).unwrap();
        assert_eq!(nf1.factor_time.to_bits(), nf2.factor_time.to_bits());
        for (s1, s2) in nf1.stores.iter().zip(nf2.stores.iter()) {
            let mut keys: Vec<_> = s1.iter().map(|(k, _)| *k).collect();
            keys.sort_unstable();
            for k in keys {
                let m1 = s1.get(k).unwrap().to_dense();
                let m2 = s2.get(k).unwrap().to_dense();
                assert_eq!(m1.as_slice(), m2.as_slice(), "block {k:?}");
            }
        }
    }

    #[test]
    fn multi_rhs_panel_solves_each_column() {
        let a = laplacian_2d(8, 7);
        let n = a.n();
        let opts = SolverOptions {
            n_nodes: 2,
            ranks_per_node: 2,
            ..Default::default()
        };
        let plan = SolvePlan::new(&a, &opts);
        let ap = Arc::new(plan.permute(&a));
        let nf = factor_numeric(&plan, &ap).unwrap();
        let nrhs = 3;
        let bs: Vec<Vec<f64>> = (0..nrhs)
            .map(|k| (0..n).map(|i| ((i + k) as f64 * 0.3).cos()).collect())
            .collect();
        let mut bp = vec![0.0; n * nrhs];
        for (k, b) in bs.iter().enumerate() {
            bp[k * n..(k + 1) * n].copy_from_slice(&plan.sf().perm.apply_vec(b));
        }
        let ps = solve_panel_distributed(&plan, &nf.stores, &bp, nrhs).unwrap();
        for (k, b) in bs.iter().enumerate() {
            let x = plan.sf().perm.unapply_vec(&ps.xp[k * n..(k + 1) * n]);
            assert!(a.relative_residual(&x, b) < 1e-10, "rhs {k}");
        }
    }
}
