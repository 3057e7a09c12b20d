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
use crate::run;
use std::collections::HashMap;
use std::sync::Arc;
use sympack::map2d::{distinct_owners, ProcGrid};
use sympack::plan::{EngineFamily, EngineParts, FactorGraph};
use sympack::sched::{self, Core, Engine, Graph, RankOf, TaskId};
use sympack::storage::BlockStore;
use sympack::update::{apply_update, UpdateScratch};
use sympack::{SolveReport, SolverError, SolverOptions, TaskKey};
use sympack_dense::{BlockRef, Mat};
use sympack_gpu::KernelEngine;
use sympack_pgas::Payload;
use sympack_sparse::SparseSym;
use sympack_symbolic::SymbolicFactor;

/// The `meta` of a fan-both message: which block the payload is, and
/// whether it is a factor or an aggregate of updates to it.
#[derive(Debug, Clone, Copy)]
enum FbMeta {
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

impl sched::Meta for FbMeta {
    fn describe(&self) -> String {
        match self {
            FbMeta::Factor { i, j, .. } => format!("factored block L({i},{j})"),
            FbMeta::Aggregate { a, b, .. } => format!("aggregate update for block ({a},{b})"),
        }
    }
}

/// The fan-both graph of one rank, compiled by its plan.
#[derive(Debug)]
struct FbGraph {
    graph: Graph<TaskKey>,
    /// Dense block numbering of the tables below (see [`block_index`]).
    start: Vec<usize>,
    /// Per block: its `D`/`F` task here (`TaskId::MAX` if not owned).
    factor_id: Vec<TaskId>,
    /// CSR over blocks: the owned tasks consuming each factored block
    /// (updates computing here, and — for diagonal factors — owned panels),
    /// in release order.
    consumer_ptr: Vec<u32>,
    consumers: Vec<TaskId>,
    /// Local update contributions per target block, all outstanding.
    my_contribs: Vec<u32>,
}

impl FbGraph {
    /// The owned tasks consuming factored block `blk`, in release order.
    fn consumers_of(&self, blk: usize) -> &[TaskId] {
        &self.consumers[self.consumer_ptr[blk] as usize..self.consumer_ptr[blk + 1] as usize]
    }
}

impl FactorGraph for FbGraph {
    type Key = TaskKey;

    fn compile(sf: &SymbolicFactor, grid: &ProcGrid, rank: usize) -> Self {
        let (ns, p) = (sf.n_supernodes(), grid.n_procs());
        let mut start = vec![0];
        for j in 0..ns {
            start.push(start[j] + 1 + sf.layout.blocks_of(j).len());
        }
        let n_blocks = start[ns];
        // Factor tasks of the owned blocks: D(j) waits for its incoming
        // aggregates, F(i,j) also for its diagonal factor.
        let (mut keys, mut deps) = (Vec::new(), Vec::new());
        let mut factor_id = vec![TaskId::MAX; n_blocks];
        // (consumed block, consuming task), in release order.
        let mut edges: Vec<(usize, TaskId)> = Vec::new();
        for j in 0..ns {
            let rows = std::iter::once(j).chain(sf.layout.blocks_of(j).iter().map(|b| b.target));
            for (k, i) in rows.enumerate().filter(|&(_, i)| grid.map(i, j) == rank) {
                let id = keys.len() as TaskId;
                factor_id[start[j] + k] = id;
                if i == j {
                    keys.push(TaskKey::Diag { j });
                } else {
                    keys.push(TaskKey::Panel { i, j });
                    edges.push((start[j], id));
                }
                deps.push(u32::from(i != j));
            }
        }
        // Updates: for each pair (a >= b) of targets of supernode j, the
        // update computes on cmap = map(a, j) and lands on map(a, b). An
        // owned target waits for one aggregate per distinct compute rank.
        let n_factor = keys.len();
        let mut counted = vec![false; n_factor * p];
        let mut my_contribs = vec![0; n_blocks];
        for j in 0..ns {
            let blocks = sf.layout.blocks_of(j);
            for (bi, bb) in blocks.iter().enumerate() {
                for (ai, ba) in blocks.iter().enumerate().skip(bi) {
                    let (a, b) = (ba.target, bb.target);
                    let (cmap, target) = (grid.map(a, j), block_index(sf, &start, a, b));
                    let t = factor_id[target] as usize; // MAX: not owned
                    if t < n_factor && !std::mem::replace(&mut counted[t * p + cmap], true) {
                        deps[t] += 1;
                    }
                    if cmap == rank {
                        let id = keys.len() as TaskId;
                        keys.push(TaskKey::Update { j, a, b });
                        deps.push(if a == b { 1 } else { 2 });
                        edges.push((start[j] + 1 + ai, id));
                        if a != b {
                            edges.push((start[j] + 1 + bi, id));
                        }
                        my_contribs[target] += 1;
                    }
                }
            }
        }
        // The consumer lists as a CSR; the sort is stable, so each block's
        // list keeps its release order.
        edges.sort_by_key(|&(blk, _)| blk);
        let row_start = |b| edges.partition_point(|&(blk, _)| blk < b) as u32;
        FbGraph {
            graph: Graph::new(keys, deps),
            start,
            factor_id,
            consumer_ptr: (0..=n_blocks).map(row_start).collect(),
            consumers: edges.iter().map(|&(_, id)| id).collect(),
            my_contribs,
        }
    }

    fn graph(&self) -> &Graph<TaskKey> {
        &self.graph
    }
}

/// Per-rank fan-both engine; the factor loop delivers its signals.
struct FbEngine {
    sf: Arc<SymbolicFactor>,
    grid: ProcGrid,
    graph: Arc<FbGraph>,
    /// Owned blocks; a factored one lives here and nowhere else.
    store: BlockStore,
    kernels: KernelEngine,
    core: Core<TaskKey, FbMeta>,
    /// Fetched factored blocks of other ranks.
    inputs: HashMap<(usize, usize), Mat>,
    /// Aggregation buffers per target block.
    aggs: HashMap<(usize, usize), Mat>,
    /// Outstanding local update contributions per target block (a copy of
    /// the graph's).
    my_contribs: Vec<u32>,
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

/// Index of block `(i, j)` in the dense numbering `start` (supernode `j`'s
/// diagonal block at `start[j]`, its `k`-th off-diagonal block at
/// `start[j] + 1 + k`): a binary search of column `j`.
fn block_index(sf: &SymbolicFactor, start: &[usize], i: usize, j: usize) -> usize {
    if i == j {
        return start[j];
    }
    let col = sf.layout.blocks_of(j);
    let k = col.binary_search_by_key(&i, |b| b.target);
    start[j] + 1 + k.expect("block exists")
}

impl FbEngine {
    fn new(parts: EngineParts<'_, Self, FbGraph>) -> Self {
        FbEngine {
            sf: Arc::clone(parts.plan.sf()),
            grid: parts.plan.grid(),
            my_contribs: parts.graph.my_contribs.clone(),
            graph: parts.graph,
            store: parts.store,
            kernels: parts.kernels,
            core: parts.core,
            inputs: HashMap::new(),
            aggs: HashMap::new(),
            scratch: UpdateScratch::default(),
            me: parts.rank,
        }
    }

    /// Factored block `(i,j)` became available here at `now`: release the
    /// owned tasks consuming it.
    fn release_consumers(&mut self, i: usize, j: usize, now: f64) {
        let blk = block_index(&self.sf, &self.graph.start, i, j);
        for &t in self.graph.consumers_of(blk) {
            self.core.rt.dec_id(t, now);
        }
    }

    /// An aggregate for `(a,b)` (received, or this rank's own) is complete:
    /// fold it into the owned target and release the target's task.
    fn absorb(&mut self, a: usize, b: usize, buf: &Mat, now: f64) {
        let target = self.store.get_mut((a, b)).expect("target owned");
        add_block(target.dense_mut(), buf, a == b);
        let t = self.graph.factor_id[block_index(&self.sf, &self.graph.start, a, b)];
        self.core.rt.dec_id(t, now);
    }

    /// Store freshly factored `L(i,j)`, send it to the owners of the blocks
    /// `(t,j)`, `t ≥ i`, down its grid column — the compute ranks of the
    /// updates (or, for a diagonal factor, the panel solves) that use it —
    /// and release this rank's own consumers.
    fn publish_factor(&mut self, rank: &mut RankOf<Self>, mut blk: Mat, i: usize, j: usize) {
        let below = self.sf.layout.blocks_of(j).iter();
        let below = below.filter(|bb| bb.target >= i);
        let dests = distinct_owners(below.map(|bb| self.grid.map(bb.target, j)));
        let (rows, cols) = (blk.rows(), blk.cols());
        let meta = FbMeta::Factor { i, j, rows, cols };
        self.core
            .comm
            .publish(rank, blk.share(), None, &dests, meta);
        self.store.put((i, j), blk);
        self.release_consumers(i, j, rank.now());
    }

    fn exec_diag(&mut self, rank: &mut RankOf<Self>, j: usize) {
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

    fn exec_panel(&mut self, rank: &mut RankOf<Self>, i: usize, j: usize) {
        let mut blk = self.store.take((i, j)).expect("panel owned").into_dense();
        let ldiag = factored(&self.store, &self.inputs, (j, j));
        let (_, secs) = self.kernels.trsm(&mut blk, ldiag);
        self.core.rt.charge(rank, TaskKey::Panel { i, j }, secs);
        self.publish_factor(rank, blk, i, j);
    }

    /// Run one update product into the aggregation buffer for `(a, b)`; ship
    /// or absorb the buffer once this rank's last contribution lands.
    fn exec_update(&mut self, rank: &mut RankOf<Self>, j: usize, a: usize, b: usize) {
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
        let c = &mut self.my_contribs[block_index(sf, &self.graph.start, a, b)];
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
            let meta = FbMeta::Aggregate { a, b, rows, cols };
            self.core
                .comm
                .publish(rank, buf.into_vec(), None, &[owner], meta);
        }
    }
}

impl Engine for FbEngine {
    type Key = TaskKey;
    type Meta = FbMeta;

    const STALL_DETAIL: &'static str = "fan-both factorization quiesced with unfinished tasks \
                                        (dropped factor or aggregate suspected)";

    fn core(&mut self) -> &mut Core<TaskKey, FbMeta> {
        &mut self.core
    }

    fn exec(&mut self, rank: &mut RankOf<Self>, _id: sched::TaskId, key: TaskKey) {
        match key {
            TaskKey::Diag { j } => self.exec_diag(rank, j),
            TaskKey::Panel { i, j } => self.exec_panel(rank, i, j),
            TaskKey::Update { j, a, b } => self.exec_update(rank, j, a, b),
        }
    }

    /// Fan-both does not track transfer completion times (its tasks start
    /// whenever picked), so the fetch `ready_at` is ignored.
    fn on_data(&mut self, rank: &mut RankOf<Self>, meta: FbMeta, data: Payload, _ready_at: f64) {
        let now = rank.now();
        match meta {
            FbMeta::Factor { i, j, rows, cols } => {
                self.inputs
                    .insert((i, j), Mat::from_shared(rows, cols, data));
                self.release_consumers(i, j, now);
            }
            FbMeta::Aggregate { a, b, rows, cols } => {
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
const FAN_BOTH: EngineFamily<FbEngine, FbGraph> = EngineFamily {
    label: "fanboth",
    rendezvous: 0.0,
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
