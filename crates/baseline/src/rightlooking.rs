//! Right-looking supernodal factorization with 1D cyclic mapping.
//!
//! Scheduling runs through the shared [`sympack::sched::TaskEngine`]; the
//! baseline's character survives as *parameters* of that runtime: a
//! per-kernel submission overhead (`RUNTIME_TASK_OVERHEAD`) and a
//! two-sided blocking fetch with a rendezvous charge per receive (the
//! family's `rendezvous`, [`sympack::sched::FetchMode::Blocking`]).

use crate::column::{factor_column, ColumnBuf};
use crate::run;
use std::collections::HashMap;
use std::sync::Arc;
use sympack::map2d::{distinct_owners, ProcGrid};
use sympack::plan::{EngineFamily, EngineParts, FactorGraph};
use sympack::sched::{self, Core, Engine, Graph, RankOf, TaskId, TaskKind};
use sympack::storage::BlockStore;
use sympack::update::{apply_update, UpdateScratch};
use sympack::{MultiSolveReport, SolveReport, SolverError, SolverOptions};
use sympack_dense::BlockRef;
use sympack_gpu::KernelEngine;
use sympack_pgas::Payload;
use sympack_sparse::SparseSym;
use sympack_symbolic::SymbolicFactor;
use sympack_trace::TraceCat;

/// Per-receive rendezvous overhead of the two-sided protocol (seconds),
/// shared by the two 1D-mapped families.
pub(crate) const RENDEZVOUS_OVERHEAD: f64 = 5.0e-6;

/// Per-kernel submission overhead of the baseline's dynamic runtime
/// scheduler (StarPU in the paper's PaStiX build): every task goes through
/// dependency tracking, worker selection and queue hand-off. Published
/// StarPU measurements put this at several microseconds per task.
const RUNTIME_TASK_OVERHEAD: f64 = 6.0e-6;

/// The right-looking family on the solver's run path: two-sided, so a
/// rendezvous per receive of the factorization and per solve message.
const RIGHT_LOOKING: EngineFamily<RlEngine, RlGraph> = EngineFamily {
    label: "rightlooking",
    rendezvous: RENDEZVOUS_OVERHEAD,
    engine: RlEngine::new,
};

/// The two task species of the panel-granular right-looking algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Id of the task on owned supernode `j` when a 1D-mapped family compiles
/// those tasks first, by ascending `j`: `j`'s rank among its owner's
/// supernodes.
pub(crate) fn owned_id(j: usize, p: usize) -> TaskId {
    (j / p) as TaskId
}

/// The right-looking graph of one rank, compiled by its plan.
#[derive(Debug)]
struct RlGraph {
    graph: Graph<RlKey>,
    /// Id of `Apply { j }` per supernode (`TaskId::MAX` where this rank
    /// owns no target of `j`); `Factor { j }` is [`owned_id`].
    apply_id: Vec<TaskId>,
}

impl FactorGraph for RlGraph {
    type Key = RlKey;

    /// One factor task per owned supernode, waiting for every panel that
    /// updates it; one apply task per panel this rank must process.
    fn compile(sf: &SymbolicFactor, grid: &ProcGrid, rank: usize) -> Self {
        let (p, ns) = (grid.n_procs(), sf.n_supernodes());
        let mut keys: Vec<_> = (rank..ns).step_by(p).map(|j| RlKey::Factor { j }).collect();
        let mut deps = vec![0; keys.len()];
        let mut apply_id = vec![TaskId::MAX; ns];
        for j in 0..ns {
            let targets = sf.layout.blocks_of(j).iter().map(|bb| bb.target);
            let mut relevant = false;
            for b in targets.filter(|&b| owner_of(b, p) == rank) {
                deps[owned_id(b, p) as usize] += 1;
                relevant = true;
            }
            if relevant {
                apply_id[j] = keys.len() as TaskId;
                keys.push(RlKey::Apply { j });
                deps.push(1);
            }
        }
        RlGraph {
            graph: Graph::new(keys, deps),
            apply_id,
        }
    }

    fn graph(&self) -> &Graph<RlKey> {
        &self.graph
    }
}

/// Per-rank right-looking engine; the factor loop delivers its signals.
struct RlEngine {
    sf: Arc<SymbolicFactor>,
    graph: Arc<RlGraph>,
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
    /// The engine over its parts, paying the runtime's per-task overhead.
    fn new(parts: EngineParts<'_, Self, RlGraph>) -> Self {
        let mut core = parts.core;
        core.rt.set_task_overhead(RUNTIME_TASK_OVERHEAD);
        RlEngine {
            sf: Arc::clone(parts.plan.sf()),
            graph: parts.graph,
            store: parts.store,
            kernels: parts.kernels,
            core,
            inputs: HashMap::new(),
            scratch: UpdateScratch::default(),
            p: parts.plan.grid().n_procs(),
            me: parts.rank,
        }
    }

    /// POTRF + TRSMs of supernode `j`, then broadcast the whole panel to
    /// every rank owning a target (self included, without communication).
    fn exec_factor(&mut self, rank: &mut RankOf<Self>, j: usize) {
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
            .publish(rank, Payload::clone(&packed), None, &dests, meta);
        if dests.contains(&self.me) {
            // Self-application without communication.
            let now = rank.now();
            self.on_data(rank, meta, packed, now);
        }
    }

    /// Apply every update from panel `j` into this rank's supernodes and
    /// release the owned factor tasks whose last input this was.
    fn exec_apply(&mut self, rank: &mut RankOf<Self>, j: usize) {
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
            self.core.rt.dec_id(owned_id(bb.target, self.p), now);
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

    fn exec(&mut self, rank: &mut RankOf<Self>, _id: sched::TaskId, key: RlKey) {
        match key {
            RlKey::Factor { j } => self.exec_factor(rank, j),
            RlKey::Apply { j } => self.exec_apply(rank, j),
        }
    }

    /// A panel arrived (a blocking two-sided receive): keep it for its
    /// apply task.
    fn on_data(&mut self, _rank: &mut RankOf<Self>, meta: PanelMeta, data: Payload, ready_at: f64) {
        let j = meta.j;
        self.inputs.insert(j, ColumnBuf::unpack(&self.sf, j, &data));
        self.core.rt.dec_id(self.graph.apply_id[j], ready_at);
    }

    fn into_factor(self) -> (BlockStore, KernelEngine) {
        (self.store, self.kernels)
    }
}

/// Factor and solve with the right-looking baseline; panics on failure
/// (see [`try_baseline_factor_and_solve`] for the fallible form).
pub fn baseline_factor_and_solve(a: &SparseSym, b: &[f64], opts: &SolverOptions) -> SolveReport {
    try_baseline_factor_and_solve(a, b, opts).expect("baseline factorization failed")
}

/// Factor and solve with the right-looking baseline.
///
/// # Errors
/// As [`try_baseline_factor_and_solve_multi`].
pub fn try_baseline_factor_and_solve(
    a: &SparseSym,
    b: &[f64],
    opts: &SolverOptions,
) -> Result<SolveReport, SolverError> {
    try_baseline_factor_and_solve_multi(a, &[b.to_vec()], opts).map(SolveReport::from)
}

/// Factor once with the right-looking baseline and solve every right-hand
/// side of `bs` — the fan-out's multi-RHS driver with this family's engine
/// on a 1D grid.
///
/// # Errors
/// [`SolverError::InvalidOptions`] for options the solver rejects and for a
/// `grid`, a non-flat `bcast` or an enabled `blr` (see [`crate`]);
/// [`SolverError::ShapeMismatch`] for a mis-sized right-hand side;
/// [`SolverError::NotPositiveDefinite`] when a pivot fails;
/// [`SolverError::DeviceOom`] under the Abort OOM policy;
/// [`SolverError::FetchTimeout`] / [`SolverError::Stalled`] under fault
/// injection when the retry budget or the quiescence detector gives up.
pub fn try_baseline_factor_and_solve_multi(
    a: &SparseSym,
    bs: &[Vec<f64>],
    opts: &SolverOptions,
) -> Result<MultiSolveReport, SolverError> {
    run(&RIGHT_LOOKING, ProcGrid::one_dimensional, a, bs, opts)
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
            &SolverOptions {
                n_nodes: 1,
                ranks_per_node: 1,
                ..Default::default()
            },
        );
        let four = baseline_factor_and_solve(
            &a,
            &b,
            &SolverOptions {
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
        let base = baseline_factor_and_solve(&a, &b, &SolverOptions::default());
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
            &SolverOptions {
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
