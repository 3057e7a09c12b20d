//! Right-looking supernodal factorization with 1D cyclic mapping.
//!
//! Scheduling runs through the shared [`sympack::sched::TaskEngine`]; the
//! baseline's character survives as *parameters* of that runtime: a
//! per-kernel submission overhead (`RUNTIME_TASK_OVERHEAD`) and a
//! two-sided blocking fetch with a rendezvous charge per receive
//! ([`FetchMode::Blocking`]).

use crate::column::{factor_column, ColumnBuf};
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack::map2d::{distinct_owners, ProcGrid};
use sympack::plan::{self, RankOut};
use sympack::sched::{self, CommLayer, Core, Engine, FetchConfig, FetchMode, TaskEngine, TaskKind};
use sympack::solve_tasks::SolveTasks;
use sympack::storage::BlockStore;
use sympack::trisolve::{self, SolveParams};
use sympack::update::{apply_update, UpdateScratch};
use sympack::{RtqPolicy, SolverError};
use sympack_dense::BlockRef;
use sympack_gpu::{KernelEngine, OffloadThresholds, OomPolicy, OpCounts};
use sympack_ordering::{compute_ordering, OrderingKind};
use sympack_pgas::coalesce::{BcastTopology, CoalesceConfig};
use sympack_pgas::{FaultPlan, NetModel, Payload, PgasConfig, Rank, Runtime, StatsSnapshot};
use sympack_sparse::SparseSym;
use sympack_symbolic::{analyze, AnalyzeOptions, SymbolicFactor};
use sympack_trace::profile::Profile;
use sympack_trace::{TraceCat, TraceEvent};

/// Per-receive rendezvous overhead of the two-sided protocol (seconds),
/// shared by the two 1D-mapped families.
pub(crate) const RENDEZVOUS_OVERHEAD: f64 = 5.0e-6;

/// Per-kernel submission overhead of the baseline's dynamic runtime
/// scheduler (StarPU in the paper's PaStiX build): every task goes through
/// dependency tracking, worker selection and queue hand-off. Published
/// StarPU measurements put this at several microseconds per task.
const RUNTIME_TASK_OVERHEAD: f64 = 6.0e-6;

/// Baseline run configuration (mirrors [`sympack::SolverOptions`] minus the
/// choices the baseline doesn't have: mapping is 1D).
#[derive(Debug, Clone)]
pub struct BaselineOptions {
    /// Fill-reducing ordering — the paper uses the same Scotch ordering for
    /// both solvers, so default to nested dissection here too.
    pub ordering: OrderingKind,
    /// Supernode/amalgamation options (same defaults as symPACK-rs).
    pub analyze: AnalyzeOptions,
    /// Virtual nodes.
    pub n_nodes: usize,
    /// Ranks per node.
    pub ranks_per_node: usize,
    /// Communication cost model.
    pub net: NetModel,
    /// GPU offload on/off (PaStiX 6.2.2 is GPU-capable via StarPU/cuBLAS).
    pub gpu: bool,
    /// Optional threshold override.
    pub thresholds: Option<OffloadThresholds>,
    /// Ready-task-queue ordering policy of the shared runtime.
    pub rtq_policy: RtqPolicy,
    /// Collect a task timeline (factorization + solve).
    pub trace: bool,
    /// Device-OOM fallback policy on the fetch path (§4.2 semantics, shared
    /// with the fan-out solver).
    pub oom_policy: OomPolicy,
    /// Per-rank device-memory quota in bytes.
    pub device_quota: usize,
    /// Seeded network fault injection; `None` = reliable network.
    pub faults: Option<FaultPlan>,
    /// Run ranks in deterministic lockstep (reproducible schedules).
    pub deterministic: bool,
    /// Per-destination signal coalescing (shared comm layer); `None`
    /// keeps the historical one-RPC-per-signal wire pattern.
    pub coalesce: Option<CoalesceConfig>,
    /// A pre-computed symbolic factor to reuse (the plan-cache hit path):
    /// skips ordering + analysis entirely. Must have been analyzed for the
    /// same matrix pattern under the same `ordering`/`analyze` options —
    /// callers obtain it from a previous run's analysis or a fleet plan
    /// cache; with a mismatched factor the numeric phase produces garbage.
    pub symbolic: Option<Arc<SymbolicFactor>>,
}

impl Default for BaselineOptions {
    fn default() -> Self {
        BaselineOptions {
            ordering: OrderingKind::NestedDissection,
            analyze: AnalyzeOptions::default(),
            n_nodes: 1,
            ranks_per_node: 2,
            net: NetModel::default(),
            gpu: true,
            thresholds: None,
            rtq_policy: RtqPolicy::Lifo,
            trace: false,
            oom_policy: OomPolicy::CpuFallback,
            device_quota: usize::MAX,
            faults: None,
            deterministic: false,
            coalesce: None,
            symbolic: None,
        }
    }
}

/// Result of a baseline run (same shape as the symPACK report, minus
/// solver-specific fields).
#[derive(Debug)]
pub struct BaselineReport {
    /// Solution in the original ordering.
    pub x: Vec<f64>,
    /// `‖A·x − b‖₂ / ‖b‖₂` against the original matrix.
    pub relative_residual: f64,
    /// Virtual factorization makespan (seconds).
    pub factor_time: f64,
    /// Virtual solve makespan (seconds).
    pub solve_time: f64,
    /// Per-rank kernel counts.
    pub op_counts: Vec<OpCounts>,
    /// Communication counters.
    pub stats: StatsSnapshot,
    /// Task timeline across ranks (empty unless [`BaselineOptions::trace`]).
    pub trace: Vec<TraceEvent>,
    /// Executed tasks per kind, summed over ranks (factorization + solve).
    pub task_counts: Vec<(String, u64)>,
    /// Assembled flight-recorder profile (None unless
    /// [`BaselineOptions::trace`]).
    pub profile: Option<Profile>,
}

/// A family's engine constructor: `(sf, ap, grid, rank, kernels, opts, abort)`.
type EngineCtor<E> = fn(
    &Arc<SymbolicFactor>,
    &SparseSym,
    ProcGrid,
    usize,
    KernelEngine,
    &BaselineOptions,
    &Arc<AtomicBool>,
) -> E;

/// Factor and solve with one baseline family — the runner all three share.
/// A family is its engine (`build`, called once per rank), the process
/// `grid` it maps blocks with (built over the run's rank count once the
/// options are known to be valid), the per-message rendezvous overhead
/// (`msg_overhead`) its triangular solve pays, and the `label` of its
/// profile. Everything after the engine's construction is the solver's one
/// run path: [`RankOut::factor`] over the shared factor loop, the shared
/// distributed solve, [`plan::assemble`].
pub(crate) fn run<E: Engine>(
    label: &'static str,
    grid: fn(usize) -> ProcGrid,
    msg_overhead: f64,
    a: &SparseSym,
    b: &[f64],
    opts: &BaselineOptions,
    build: EngineCtor<E>,
) -> Result<BaselineReport, SolverError> {
    SolverError::check_shape("rhs length", a.n(), b.len())?;
    let p = opts.n_nodes * opts.ranks_per_node;
    if p == 0 {
        return Err(SolverError::InvalidOptions {
            field: "n_nodes × ranks_per_node",
            detail: "no ranks".into(),
        });
    }
    let grid = grid(p);
    let sf = match &opts.symbolic {
        Some(sf) => {
            SolverError::check_shape("symbolic factor dimension", a.n(), sf.n())?;
            Arc::clone(sf)
        }
        None => Arc::new(analyze(
            a,
            &compute_ordering(a, opts.ordering),
            &opts.analyze,
        )),
    };
    let ap = a.permute(sf.perm.as_slice());
    let bp = sf.perm.apply_vec(b);
    let mut config = PgasConfig::multi_node(opts.n_nodes, opts.ranks_per_node);
    config.net = opts.net.clone();
    config.device_quota = opts.device_quota;
    config.faults = opts.faults;
    config.deterministic = opts.deterministic;
    let mut kernels = if opts.gpu {
        KernelEngine::new_gpu()
    } else {
        KernelEngine::new_cpu()
    };
    if let Some(t) = &opts.thresholds {
        kernels.thresholds = t.clone();
    }
    let abort = Arc::new(AtomicBool::new(false));
    // The shared solve runs over its compiled task slices, built here for
    // this family's own grid.
    let solve_tasks = SolveTasks::build_all(&sf, &grid);
    let report = Runtime::run(config, |rank| {
        plan::observe(rank, opts.trace, false);
        let engine = build(&sf, &ap, grid, rank.id(), kernels.clone(), opts, &abort);
        let mut out = RankOut::factor(rank, engine, opts.trace, false);
        if !out.aborted(rank) {
            let params = SolveParams {
                policy: opts.rtq_policy,
                msg_overhead,
                trace: opts.trace,
            };
            let (sf, tasks) = (Arc::clone(&sf), Arc::clone(&solve_tasks[rank.id()]));
            let k = kernels.clone();
            let solve = trisolve::solve_panel(rank, sf, tasks, &out.store, &bp, 1, k, &params);
            out.push_solve(solve);
        }
        out.finish(rank, opts.trace)
    });
    let mut asm = plan::assemble(&sf, report, 1, false).0?;
    let profile = opts.trace.then(|| asm.profile(label));
    let (xp, solve_time) = asm.solves.pop().expect("the region ran one solve");
    let x = sf.perm.unapply_vec(&xp);
    Ok(BaselineReport {
        relative_residual: a.relative_residual(&x, b),
        x,
        factor_time: asm.factor.factor_time,
        solve_time,
        op_counts: asm.factor.op_counts,
        stats: asm.factor.stats,
        trace: asm.factor.trace,
        task_counts: asm.task_counts,
        profile,
    })
}

/// The two task species of the panel-granular right-looking algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RlKey {
    /// POTRF + all TRSMs of owned supernode `j`, then the panel broadcast.
    Factor { j: usize },
    /// Apply every update of received panel `j` to this rank's supernodes.
    Apply { j: usize },
}

impl TaskKind for RlKey {
    fn priority_key(&self) -> (usize, usize) {
        match *self {
            RlKey::Factor { j } => (j, 0),
            RlKey::Apply { j } => (j, 1),
        }
    }
    fn seed_key(&self) -> (usize, usize, usize, usize) {
        match *self {
            RlKey::Factor { j } => (j, 0, 0, 0),
            RlKey::Apply { j } => (j, 1, 0, 0),
        }
    }
    fn kind_name(&self) -> &'static str {
        match self {
            RlKey::Factor { .. } => "factor_panel",
            RlKey::Apply { .. } => "apply_panel",
        }
    }
    fn trace_label(&self) -> String {
        match *self {
            RlKey::Factor { j } => format!("P({j})"),
            RlKey::Apply { j } => format!("A({j})"),
        }
    }
    fn trace_cat(&self) -> TraceCat {
        match self {
            RlKey::Factor { .. } => TraceCat::Potrf,
            RlKey::Apply { .. } => TraceCat::Gemm,
        }
    }
}

/// The `meta` of a panel broadcast: the packed panel of supernode `j`
/// (diagonal block, then the off-diagonal blocks in layout order).
#[derive(Debug, Clone, Copy)]
struct PanelMeta {
    j: usize,
}

impl sched::Meta for PanelMeta {
    fn describe(&self) -> String {
        format!("broadcast panel of supernode {}", self.j)
    }
}

/// 1D supernode-cyclic owner of supernode `j` (both 1D-mapped families).
pub(crate) fn owner_of(j: usize, p: usize) -> usize {
    j % p
}

/// The shared core of a baseline engine over `rt`: flat publication (the
/// families message a handful of ranks per payload), coalescing and the
/// fetch path as the options ask.
pub(crate) fn core_for<K: TaskKind, M: sched::Meta>(
    rt: TaskEngine<K, sched::Signal<M>>,
    kernels: &KernelEngine,
    opts: &BaselineOptions,
    mode: FetchMode,
) -> Core<K, M> {
    Core {
        rt,
        comm: CommLayer::new(opts.coalesce, BcastTopology::Flat),
        fetch: FetchConfig::for_engine(kernels.gpu_enabled, opts.oom_policy, mode),
    }
}

/// Per-rank right-looking engine, installed as the rank's user state.
struct RlEngine {
    sf: Arc<SymbolicFactor>,
    store: BlockStore,
    kernels: KernelEngine,
    core: Core<RlKey, PanelMeta>,
    /// Received (or self-broadcast) panels awaiting application.
    inputs: HashMap<usize, ColumnBuf>,
    scratch: UpdateScratch,
    p: usize,
    me: usize,
}

impl RlEngine {
    fn new(
        sf: &Arc<SymbolicFactor>,
        ap: &SparseSym,
        grid: ProcGrid,
        rank: usize,
        kernels: KernelEngine,
        opts: &BaselineOptions,
        abort: &Arc<AtomicBool>,
    ) -> Self {
        let (sf, abort) = (Arc::clone(sf), Arc::clone(abort));
        let p = grid.n_procs();
        let store = BlockStore::init(&sf, ap, &grid, rank);
        let ns = sf.n_supernodes();
        let mut rt = TaskEngine::new(opts.rtq_policy, abort);
        rt.set_task_overhead(RUNTIME_TASK_OVERHEAD);
        // Incoming panel counts per owned supernode, and one apply task per
        // panel this rank must process.
        let mut incoming: HashMap<usize, usize> = HashMap::new();
        for j in (0..ns).filter(|&j| owner_of(j, p) == rank) {
            incoming.insert(j, 0);
        }
        for j in 0..ns {
            let mut relevant = false;
            for bb in sf.layout.blocks_of(j) {
                if owner_of(bb.target, p) == rank {
                    relevant = true;
                    *incoming.get_mut(&bb.target).expect("owned") += 1;
                }
            }
            if relevant {
                rt.insert_task(RlKey::Apply { j }, 1);
            }
        }
        for (&j, &deps) in &incoming {
            rt.insert_task(RlKey::Factor { j }, deps);
        }
        rt.seed_ready();
        let mode = FetchMode::Blocking {
            overhead: RENDEZVOUS_OVERHEAD,
        };
        RlEngine {
            core: core_for(rt, &kernels, opts, mode),
            sf,
            store,
            kernels,
            inputs: HashMap::new(),
            scratch: UpdateScratch::default(),
            p,
            me: rank,
        }
    }

    /// POTRF + TRSMs of supernode `j`, then broadcast the whole panel to
    /// every rank owning a target (self included, without communication).
    fn exec_factor(&mut self, rank: &mut Rank, j: usize) {
        let (key, sf) = (RlKey::Factor { j }, &self.sf);
        let rt = &mut self.core.rt;
        if !factor_column(rt, &mut self.kernels, &mut self.store, sf, rank, key, j) {
            return;
        }
        let targets = sf.layout.blocks_of(j).iter().map(|bb| bb.target);
        let dests = distinct_owners(targets.map(|t| owner_of(t, self.p)));
        if dests.is_empty() {
            return;
        }
        let packed = Payload::new(ColumnBuf::pack_store(sf, &self.store, j));
        let meta = PanelMeta { j };
        self.core
            .comm
            .publish::<Self>(rank, Payload::clone(&packed), None, &dests, meta);
        if dests.contains(&self.me) {
            // Self-application without communication.
            let now = rank.now();
            self.on_data(rank, meta, packed, now);
        }
    }

    /// Apply every update from panel `j` into this rank's supernodes and
    /// release the owned factor tasks whose last input this was.
    fn exec_apply(&mut self, rank: &mut Rank, j: usize) {
        let (key, sf) = (RlKey::Apply { j }, &self.sf);
        let panel = self.inputs.remove(&j).expect("panel present");
        let col = sf.layout.blocks_of(j);
        let mine = |b: usize| owner_of(b, self.p) == self.me;
        for (bi, bb) in col.iter().enumerate().filter(|(_, bb)| mine(bb.target)) {
            let b = bb.target;
            let lb = BlockRef::Dense(&panel.mats[bi + 1]);
            for (ai, ba) in col.iter().enumerate().skip(bi) {
                let a = ba.target;
                // SYRK into the diagonal block of b when a == b.
                let target_rows = (a != b).then(|| {
                    let tinfo = sf.layout.find(a, b).expect("target block exists");
                    sf.block_rows(b, tinfo)
                });
                let target = self.store.get_mut((a, b)).expect("target block owned");
                let secs = apply_update(
                    &mut self.kernels,
                    &mut self.scratch,
                    &mut self.core.rt.wall,
                    BlockRef::Dense(&panel.mats[ai + 1]),
                    lb,
                    sf.block_rows(j, ba),
                    sf.block_rows(j, bb),
                    target_rows,
                    sf.partition.first_col(b),
                    target.dense_mut(),
                );
                self.core.rt.charge(rank, key, secs);
            }
        }
        let now = rank.now();
        for bb in col.iter().filter(|bb| mine(bb.target)) {
            self.core.rt.dec(RlKey::Factor { j: bb.target }, now);
        }
    }
}

impl Engine for RlEngine {
    type Key = RlKey;
    type Meta = PanelMeta;

    const STALL_DETAIL: &'static str = "right-looking factorization quiesced with unfinished \
                                        tasks (dropped panel broadcast suspected)";

    fn core(&mut self) -> &mut Core<RlKey, PanelMeta> {
        &mut self.core
    }

    fn exec(&mut self, rank: &mut Rank, _id: sched::TaskId, key: RlKey) {
        match key {
            RlKey::Factor { j } => self.exec_factor(rank, j),
            RlKey::Apply { j } => self.exec_apply(rank, j),
        }
    }

    /// A panel arrived (a blocking two-sided receive): keep it for its
    /// apply task.
    fn on_data(&mut self, _rank: &mut Rank, meta: PanelMeta, data: Payload, ready_at: f64) {
        let j = meta.j;
        self.inputs.insert(j, ColumnBuf::unpack(&self.sf, j, &data));
        self.core.rt.dec(RlKey::Apply { j }, ready_at);
    }

    fn into_factor(self) -> (BlockStore, KernelEngine) {
        (self.store, self.kernels)
    }
}

/// Factor and solve with the right-looking baseline; panics on failure
/// (see [`try_baseline_factor_and_solve`] for the fallible form).
pub fn baseline_factor_and_solve(
    a: &SparseSym,
    b: &[f64],
    opts: &BaselineOptions,
) -> BaselineReport {
    try_baseline_factor_and_solve(a, b, opts).expect("baseline factorization failed")
}

/// Factor and solve with the right-looking baseline.
///
/// # Errors
/// [`SolverError::NotPositiveDefinite`] when a pivot fails;
/// [`SolverError::DeviceOom`] under the Abort OOM policy;
/// [`SolverError::FetchTimeout`] / [`SolverError::Stalled`] under fault
/// injection when the retry budget or the quiescence detector gives up.
pub fn try_baseline_factor_and_solve(
    a: &SparseSym,
    b: &[f64],
    opts: &BaselineOptions,
) -> Result<BaselineReport, SolverError> {
    // 1D grid + a rendezvous per solve message.
    run(
        "rightlooking",
        ProcGrid::one_dimensional,
        RENDEZVOUS_OVERHEAD,
        a,
        b,
        opts,
        RlEngine::new,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::{laplacian_2d, random_spd};
    use sympack_sparse::vecops::test_rhs;

    #[test]
    fn multi_rank_baseline_matches_single_rank() {
        let a = random_spd(70, 5, 13);
        let b = test_rhs(70);
        let one = baseline_factor_and_solve(
            &a,
            &b,
            &BaselineOptions {
                n_nodes: 1,
                ranks_per_node: 1,
                ..Default::default()
            },
        );
        let four = baseline_factor_and_solve(
            &a,
            &b,
            &BaselineOptions {
                n_nodes: 2,
                ranks_per_node: 2,
                ..Default::default()
            },
        );
        assert!(one.relative_residual < 1e-10);
        assert!(four.relative_residual < 1e-10);
        let diff = sympack_sparse::vecops::max_abs_diff(&one.x, &four.x);
        assert!(diff < 1e-8, "solutions diverge: {diff}");
    }

    #[test]
    fn baseline_agrees_with_sympack() {
        let a = laplacian_2d(8, 7);
        let b = test_rhs(a.n());
        let base = baseline_factor_and_solve(&a, &b, &BaselineOptions::default());
        let sp = sympack::SymPack::factor_and_solve(&a, &b, &sympack::SolverOptions::default());
        let diff = sympack_sparse::vecops::max_abs_diff(&base.x, &sp.x);
        assert!(diff < 1e-8, "solvers disagree: {diff}");
    }

    #[test]
    fn one_dimensional_map_serializes_columns() {
        // Structural sanity: with the 1D map every block of supernode j has
        // the same owner.
        let g = ProcGrid::one_dimensional(5);
        for j in 0..30 {
            for i in j..30 {
                assert_eq!(g.map(i, j), j % 5);
            }
        }
    }

    #[test]
    fn baseline_trace_and_counts_cover_both_phases() {
        let a = laplacian_2d(7, 7);
        let b = test_rhs(a.n());
        let r = baseline_factor_and_solve(
            &a,
            &b,
            &BaselineOptions {
                trace: true,
                ..Default::default()
            },
        );
        assert!(
            !r.trace.is_empty(),
            "tracer wired through the shared runtime"
        );
        let kinds: Vec<&str> = r.task_counts.iter().map(|(k, _)| k.as_str()).collect();
        for expected in ["factor_panel", "apply_panel", "fwd_diag", "bwd_diag"] {
            assert!(
                kinds.contains(&expected),
                "missing task kind {expected}: {kinds:?}"
            );
        }
    }
}
