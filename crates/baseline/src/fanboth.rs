//! Fan-both supernodal factorization — the third family of Ashcraft's
//! taxonomy (§2.3) and the algorithm of the original symPACK paper the
//! authors cite as \[15\] (Jacquelin et al., "An Asynchronous Task-based
//! Fan-Both Sparse Cholesky Solver").
//!
//! Fan-both generalizes fan-out and fan-in through a **computation map**:
//! update `U(a,j,b)` may execute on *any* rank, so both kinds of messages
//! flow — *factors* travel from their owners to the compute ranks, and
//! *aggregates* travel from compute ranks to the target owners. This
//! implementation uses the natural 2D computation map
//! `cmap(a,j,b) = map(a,j)` (the owner of the source block `L(a,j)`), so:
//!
//! * a factored block `L(b,j)` is sent only **down its grid column** (to the
//!   owners of blocks `(a,j)`, `a ≥ b`) — `pr` destinations instead of the
//!   fan-out's scattered target owners;
//! * each rank accumulates all of its products for a target block `(a,b)`
//!   in one aggregation buffer and ships it **once** — the fan-in economy.
//!
//! Everything else matches the fan-out solver: 2D block-cyclic ownership,
//! asynchronous signal + one-sided get transport, and the same task species
//! — fan-both schedules the fan-out's own [`TaskKey`] through the shared
//! [`sympack::sched::TaskEngine`], so the comparison in the `taxonomy`
//! bench isolates the communication family.

use crate::column::add_block;
use crate::rightlooking::core_for;
use crate::run;
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack::map2d::{distinct_owners, ProcGrid};
use sympack::plan::{EngineFamily, SolvePlan};
use sympack::sched::{self, Core, Engine, FetchMode, TaskEngine};
use sympack::storage::BlockStore;
use sympack::update::{apply_update, UpdateScratch};
use sympack::{SolveReport, SolverError, SolverOptions, TaskKey};
use sympack_dense::{BlockRef, Mat};
use sympack_gpu::KernelEngine;
use sympack_pgas::{Payload, Rank};
use sympack_sparse::SparseSym;
use sympack_symbolic::SymbolicFactor;

/// The `meta` of a fan-both message: which block the payload is, and
/// whether it is a factor or an aggregate of updates to it.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// The factored block `L(i,j)` (`rows × cols`, dense).
    Factor {
        i: usize,
        j: usize,
        rows: usize,
        cols: usize,
    },
    /// One rank's aggregate for target block `(a,b)`.
    Aggregate {
        a: usize,
        b: usize,
        rows: usize,
        cols: usize,
    },
}

impl sched::Meta for Msg {
    fn describe(&self) -> String {
        match self {
            Msg::Factor { i, j, .. } => format!("factored block L({i},{j})"),
            Msg::Aggregate { a, b, .. } => format!("aggregate update for block ({a},{b})"),
        }
    }
}

/// Per-rank fan-both engine, installed as the rank's user state.
struct FbEngine {
    sf: Arc<SymbolicFactor>,
    grid: ProcGrid,
    /// Owned blocks; a factored one lives here and nowhere else.
    store: BlockStore,
    kernels: KernelEngine,
    core: Core<TaskKey, Msg>,
    /// Fetched factored blocks of other ranks.
    inputs: HashMap<(usize, usize), Mat>,
    /// Aggregation buffers per target block.
    aggs: HashMap<(usize, usize), Mat>,
    /// For each input factor block `(i,j)`, the owned tasks consuming it
    /// (updates computing here, and — for diagonal factors — owned panels).
    consumers: HashMap<(usize, usize), Vec<TaskKey>>,
    /// Outstanding local update contributions per target block.
    my_contribs: HashMap<(usize, usize), usize>,
    scratch: UpdateScratch,
    me: usize,
}

/// Factored block `L(i,j)` as this rank holds it: in its store when it owns
/// the block, among the fetched inputs otherwise.
fn factored<'a>(
    store: &'a BlockStore,
    inputs: &'a HashMap<(usize, usize), Mat>,
    key: (usize, usize),
) -> &'a Mat {
    match store.get(key) {
        Some(block) => block.dense(),
        None => inputs.get(&key).expect("factor block present"),
    }
}

impl FbEngine {
    fn new(
        plan: &SolvePlan,
        ap: &SparseSym,
        rank: usize,
        kernels: KernelEngine,
        abort: Arc<AtomicBool>,
    ) -> Self {
        let (sf, grid, opts) = (Arc::clone(plan.sf()), plan.grid(), &plan.opts);
        let store = BlockStore::init(&sf, ap, &grid, rank);
        let ns = sf.n_supernodes();
        let mut rt = TaskEngine::new(opts.rtq_policy, abort);
        // Static task analysis. For each pair (a >= b) of targets of
        // supernode j, the update computes on cmap = map(a, j) and lands on
        // map(a, b). contrib_ranks[(a,b)] collects the distinct compute
        // ranks, which become the target-side dependency counts.
        let mut contrib_ranks: HashMap<(usize, usize), std::collections::HashSet<usize>> =
            HashMap::new();
        let mut consumers: HashMap<(usize, usize), Vec<TaskKey>> = HashMap::new();
        let mut my_contribs: HashMap<(usize, usize), usize> = HashMap::new();
        for j in 0..ns {
            let blocks = sf.layout.blocks_of(j);
            for (bi, bb) in blocks.iter().enumerate() {
                for ba in &blocks[bi..] {
                    let (a, b) = (ba.target, bb.target);
                    let cmap = grid.map(a, j);
                    contrib_ranks.entry((a, b)).or_default().insert(cmap);
                    if cmap == rank {
                        let key = TaskKey::Update { j, a, b };
                        rt.insert_task(key, if a == b { 1 } else { 2 });
                        consumers.entry((a, j)).or_default().push(key);
                        if a != b {
                            consumers.entry((b, j)).or_default().push(key);
                        }
                        *my_contribs.entry((a, b)).or_default() += 1;
                    }
                }
            }
        }
        // D/F tasks owned by me: a diagonal task waits for its incoming
        // aggregates; a panel task additionally waits for its diagonal
        // factor.
        for j in 0..ns {
            if grid.map(j, j) == rank {
                rt.insert_task(
                    TaskKey::Diag { j },
                    contrib_ranks.get(&(j, j)).map_or(0, |s| s.len()),
                );
            }
            for bb in sf.layout.blocks_of(j) {
                let i = bb.target;
                if grid.map(i, j) == rank {
                    rt.insert_task(
                        TaskKey::Panel { i, j },
                        1 + contrib_ranks.get(&(i, j)).map_or(0, |s| s.len()),
                    );
                    consumers
                        .entry((j, j))
                        .or_default()
                        .push(TaskKey::Panel { i, j });
                }
            }
        }
        rt.seed_ready();
        FbEngine {
            core: core_for(rt, &kernels, opts, FetchMode::NonBlocking),
            sf,
            grid,
            store,
            kernels,
            inputs: HashMap::new(),
            aggs: HashMap::new(),
            consumers,
            my_contribs,
            scratch: UpdateScratch::default(),
            me: rank,
        }
    }

    /// Factored block `(i,j)` became available here at `now`: release the
    /// owned tasks consuming it.
    fn release_consumers(&mut self, i: usize, j: usize, now: f64) {
        for &k in self.consumers.get(&(i, j)).into_iter().flatten() {
            self.core.rt.dec(k, now);
        }
    }

    /// An aggregate for `(a,b)` (received, or this rank's own) is complete:
    /// fold it into the owned target and release the target's task.
    fn absorb(&mut self, a: usize, b: usize, buf: &Mat, now: f64) {
        let target = self.store.get_mut((a, b)).expect("target owned");
        add_block(target.dense_mut(), buf, a == b);
        let key = if a == b {
            TaskKey::Diag { j: b }
        } else {
            TaskKey::Panel { i: a, j: b }
        };
        self.core.rt.dec(key, now);
    }

    /// Store freshly factored `L(i,j)`, send it to the owners of the blocks
    /// `(t,j)`, `t ≥ i`, down its grid column — the compute ranks of the
    /// updates (or, for a diagonal factor, the panel solves) that use it —
    /// and release this rank's own consumers.
    fn publish_factor(&mut self, rank: &mut Rank, mut blk: Mat, i: usize, j: usize) {
        let below = self.sf.layout.blocks_of(j).iter();
        let below = below.filter(|bb| bb.target >= i);
        let dests = distinct_owners(below.map(|bb| self.grid.map(bb.target, j)));
        let (rows, cols) = (blk.rows(), blk.cols());
        let meta = Msg::Factor { i, j, rows, cols };
        self.core
            .comm
            .publish::<Self>(rank, blk.share(), None, &dests, meta);
        self.store.put((i, j), blk);
        self.release_consumers(i, j, rank.now());
    }

    fn exec_diag(&mut self, rank: &mut Rank, j: usize) {
        let mut diag = self.store.take((j, j)).expect("diag owned").into_dense();
        let first = self.sf.partition.first_col(j);
        let rt = &mut self.core.rt;
        let Some(secs) = sched::potrf_or_fail(rt, &mut self.kernels, rank, &mut diag, first) else {
            self.store.put((j, j), diag);
            return;
        };
        rt.charge(rank, TaskKey::Diag { j }, secs);
        self.publish_factor(rank, diag, j, j);
    }

    fn exec_panel(&mut self, rank: &mut Rank, i: usize, j: usize) {
        let mut blk = self.store.take((i, j)).expect("panel owned").into_dense();
        let ldiag = factored(&self.store, &self.inputs, (j, j));
        let (_, secs) = self.kernels.trsm(&mut blk, ldiag);
        self.core.rt.charge(rank, TaskKey::Panel { i, j }, secs);
        self.publish_factor(rank, blk, i, j);
    }

    /// Run one update product into the aggregation buffer for `(a, b)`; ship
    /// or absorb the buffer once this rank's last contribution lands.
    fn exec_update(&mut self, rank: &mut Rank, j: usize, a: usize, b: usize) {
        let sf = &self.sf;
        let find = |i, j| sf.layout.find(i, j).expect("block exists");
        let w = sf.partition.width(b);
        // The target's rows: SYRK into the diagonal block when a == b.
        let tinfo = (a != b).then(|| find(a, b));
        let agg = self.aggs.entry((a, b));
        let agg = agg.or_insert_with(|| Mat::zeros(tinfo.map_or(w, |t| t.n_rows), w));
        let secs = apply_update(
            &mut self.kernels,
            &mut self.scratch,
            &mut self.core.rt.wall,
            BlockRef::Dense(factored(&self.store, &self.inputs, (a, j))),
            BlockRef::Dense(factored(&self.store, &self.inputs, (b, j))),
            sf.block_rows(j, find(a, j)),
            sf.block_rows(j, find(b, j)),
            tinfo.map(|t| sf.block_rows(b, t)),
            sf.partition.first_col(b),
            agg,
        );
        self.core.rt.charge(rank, TaskKey::Update { j, a, b }, secs);
        // Last contribution to (a,b) from this rank? Ship or absorb.
        let c = self.my_contribs.get_mut(&(a, b)).expect("contrib counted");
        *c -= 1;
        if *c > 0 {
            return;
        }
        let buf = self.aggs.remove(&(a, b)).expect("aggregate exists");
        let owner = self.grid.map(a, b);
        if owner == self.me {
            self.absorb(a, b, &buf, rank.now());
        } else {
            let (rows, cols) = (buf.rows(), buf.cols());
            let meta = Msg::Aggregate { a, b, rows, cols };
            self.core
                .comm
                .publish::<Self>(rank, buf.into_vec(), None, &[owner], meta);
        }
    }
}

impl Engine for FbEngine {
    type Key = TaskKey;
    type Meta = Msg;

    const STALL_DETAIL: &'static str = "fan-both factorization quiesced with unfinished tasks \
                                        (dropped factor or aggregate suspected)";

    fn core(&mut self) -> &mut Core<TaskKey, Msg> {
        &mut self.core
    }

    fn exec(&mut self, rank: &mut Rank, _id: sched::TaskId, key: TaskKey) {
        match key {
            TaskKey::Diag { j } => self.exec_diag(rank, j),
            TaskKey::Panel { i, j } => self.exec_panel(rank, i, j),
            TaskKey::Update { j, a, b } => self.exec_update(rank, j, a, b),
        }
    }

    /// Fan-both does not track transfer completion times (its tasks start
    /// whenever picked), so the fetch `ready_at` is ignored.
    fn on_data(&mut self, rank: &mut Rank, meta: Msg, data: Payload, _ready_at: f64) {
        let now = rank.now();
        match meta {
            Msg::Factor { i, j, rows, cols } => {
                self.inputs
                    .insert((i, j), Mat::from_shared(rows, cols, data));
                self.release_consumers(i, j, now);
            }
            Msg::Aggregate { a, b, rows, cols } => {
                self.absorb(a, b, &Mat::from_shared(rows, cols, data), now);
            }
        }
    }

    fn into_factor(self) -> (BlockStore, KernelEngine) {
        (self.store, self.kernels)
    }
}

/// The fan-both family on the solver's run path: 2D map, one-sided
/// transport like the fan-out, so no rendezvous in the solve.
const FAN_BOTH: EngineFamily<FbEngine> = EngineFamily {
    label: "fanboth",
    msg_overhead: 0.0,
    engine: FbEngine::new,
};

/// Factor and solve with the fan-both algorithm on a 2D grid; panics on
/// failure (see [`try_fanboth_factor_and_solve`] for the fallible form).
pub fn fanboth_factor_and_solve(a: &SparseSym, b: &[f64], opts: &SolverOptions) -> SolveReport {
    try_fanboth_factor_and_solve(a, b, opts).expect("fan-both factorization failed")
}

/// Factor and solve with the fan-both algorithm on a 2D grid.
///
/// # Errors
/// As [`crate::try_baseline_factor_and_solve_multi`].
pub fn try_fanboth_factor_and_solve(
    a: &SparseSym,
    b: &[f64],
    opts: &SolverOptions,
) -> Result<SolveReport, SolverError> {
    run(&FAN_BOTH, ProcGrid::squarest, a, &[b.to_vec()], opts).map(SolveReport::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::{laplacian_2d, random_spd};
    use sympack_sparse::vecops::{max_abs_diff, test_rhs};

    #[test]
    fn fanboth_is_numerically_correct() {
        let a = laplacian_2d(9, 8);
        let b = test_rhs(a.n());
        let r = fanboth_factor_and_solve(&a, &b, &SolverOptions::default());
        assert!(
            r.relative_residual < 1e-10,
            "residual {}",
            r.relative_residual
        );
    }

    #[test]
    fn fanboth_matches_fanout_across_rank_counts() {
        let a = random_spd(80, 5, 27);
        let b = test_rhs(80);
        let reference =
            sympack::SymPack::factor_and_solve(&a, &b, &sympack::SolverOptions::default());
        for (nodes, ppn) in [(1, 1), (2, 2), (3, 2), (2, 4)] {
            let r = fanboth_factor_and_solve(
                &a,
                &b,
                &SolverOptions {
                    n_nodes: nodes,
                    ranks_per_node: ppn,
                    ..Default::default()
                },
            );
            assert!(r.relative_residual < 1e-10, "nodes={nodes} ppn={ppn}");
            let d = max_abs_diff(&r.x, &reference.x);
            assert!(d < 1e-8, "nodes={nodes} ppn={ppn}: diverges by {d}");
        }
    }

    #[test]
    fn fanboth_message_count_sits_between_families() {
        // Fan-both trades factor broadcasts against aggregate volume; on a
        // multi-rank grid it must not exceed the fan-out's message count.
        let a = laplacian_2d(14, 14);
        let b = test_rhs(a.n());
        let bo = SolverOptions {
            n_nodes: 4,
            ranks_per_node: 1,
            ..Default::default()
        };
        let so = sympack::SolverOptions {
            n_nodes: 4,
            ranks_per_node: 1,
            ..Default::default()
        };
        let fb = fanboth_factor_and_solve(&a, &b, &bo);
        let fo = sympack::SymPack::factor_and_solve(&a, &b, &so);
        assert!(
            fb.stats.rpcs <= fo.stats.rpcs,
            "fan-both rpcs {} vs fan-out {}",
            fb.stats.rpcs,
            fo.stats.rpcs
        );
    }
}
