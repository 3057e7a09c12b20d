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

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack::map2d::ProcGrid;
use sympack::sched::{self, CommLayer, Engine, FetchConfig, FetchMode, TaskEngine};
use sympack::storage::BlockStore;
use sympack::{SolverError, TaskKey};
use sympack_dense::Mat;
use sympack_gpu::KernelEngine;
use sympack_pgas::{GlobalPtr, MemKind, Rank};
use sympack_sparse::SparseSym;
use sympack_symbolic::SymbolicFactor;

use crate::rightlooking::{run, BaselineOptions, BaselineReport, SIGNAL_WIRE_BYTES};

/// Incoming notifications.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// A factored block `L(i,j)` is available at `ptr`.
    Factor {
        ptr: GlobalPtr,
        i: usize,
        j: usize,
        rows: usize,
        cols: usize,
    },
    /// An aggregate for target block `(a,b)` is available at `ptr`.
    Aggregate {
        ptr: GlobalPtr,
        a: usize,
        b: usize,
        rows: usize,
        cols: usize,
    },
}

impl sched::Signal for Msg {
    fn ptr(&self) -> GlobalPtr {
        match self {
            Msg::Factor { ptr, .. } | Msg::Aggregate { ptr, .. } => *ptr,
        }
    }

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
    store: BlockStore,
    kernels: KernelEngine,
    /// The shared scheduling core: dep counters, RTQ, inbox, tracer.
    rt: TaskEngine<TaskKey, Msg>,
    /// Factored blocks available locally (own or fetched).
    inputs: HashMap<(usize, usize), Mat>,
    /// Aggregation buffers per target block.
    aggs: HashMap<(usize, usize), Mat>,
    /// For each input factor block `(i,j)`, the owned tasks consuming it
    /// (updates computing here, and — for diagonal factors — owned panels).
    consumers: HashMap<(usize, usize), Vec<TaskKey>>,
    /// Outstanding local update contributions per target block.
    my_contribs: HashMap<(usize, usize), usize>,
    fetch: FetchConfig,
    /// Per-destination signal coalescing (pass-through when off).
    comm: CommLayer,
    me: usize,
}

impl FbEngine {
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
        let store = BlockStore::init(&sf, ap, &grid, rank);
        let ns = sf.n_supernodes();
        let mut rt: TaskEngine<TaskKey, Msg> = TaskEngine::new(opts.rtq_policy, abort);
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
        let fetch =
            FetchConfig::for_engine(kernels.gpu_enabled, opts.oom_policy, FetchMode::NonBlocking);
        FbEngine {
            sf,
            grid,
            store,
            kernels,
            rt,
            inputs: HashMap::new(),
            aggs: HashMap::new(),
            consumers,
            my_contribs,
            fetch,
            comm: CommLayer::new(opts.coalesce),
            me: rank,
        }
    }

    /// Resolve queued notifications through the runtime's shared one-sided
    /// fetch path. Fan-both does not track transfer completion times (its
    /// tasks start whenever picked), so the fetch `ready_at` is ignored.
    fn drain_pending(&mut self, rank: &mut Rank) {
        let signals = self.rt.take_signals();
        if signals.is_empty() {
            return;
        }
        let cfg = self.fetch;
        let res = sched::drain_signals(rank, signals, &cfg, |rank, msg, data, _ready_at| {
            let now = rank.now();
            match msg {
                Msg::Factor {
                    i, j, rows, cols, ..
                } => {
                    self.inputs
                        .insert((i, j), Mat::from_col_major(rows, cols, data));
                    if let Some(keys) = self.consumers.get(&(i, j)).cloned() {
                        for k in keys {
                            self.rt.dec(k, now);
                        }
                    }
                }
                Msg::Aggregate {
                    a, b, rows, cols, ..
                } => {
                    let buf = Mat::from_col_major(rows, cols, data);
                    absorb(&mut self.store, a, b, &buf);
                    self.dec_target(a, b, now);
                }
            }
        });
        if let Err(err) = res {
            self.rt.fail(rank, err);
        }
    }

    /// Release the target-side dependency of `(a,b)` after an aggregate
    /// lands.
    fn dec_target(&mut self, a: usize, b: usize, now: f64) {
        let key = if a == b {
            TaskKey::Diag { j: b }
        } else {
            TaskKey::Panel { i: a, j: b }
        };
        self.rt.dec(key, now);
    }

    fn exec_diag(&mut self, rank: &mut Rank, j: usize) {
        let mut diag = self.store.take((j, j)).expect("diag owned").into_dense();
        let first = self.sf.partition.first_col(j);
        let Some(secs) =
            sched::potrf_or_fail(&mut self.rt, &mut self.kernels, rank, &mut diag, first)
        else {
            self.store.put((j, j), diag);
            return;
        };
        self.rt.charge(rank, TaskKey::Diag { j }, secs);
        // Fan L(j,j) to the panel owners down the grid column.
        let mut dests: Vec<usize> = self
            .sf
            .layout
            .blocks_of(j)
            .iter()
            .map(|bb| self.grid.map(bb.target, j))
            .collect();
        dests.sort_unstable();
        dests.dedup();
        self.publish_factor(rank, &diag, j, j, &dests);
        // L(j,j) is also an input to this rank's own panel tasks.
        self.consume_local(rank, j, j);
        self.inputs.insert((j, j), diag.clone());
        self.store.put((j, j), diag);
    }

    fn exec_panel(&mut self, rank: &mut Rank, i: usize, j: usize) {
        let mut blk = self.store.take((i, j)).expect("panel owned").into_dense();
        let ldiag = self.inputs.get(&(j, j)).expect("diagonal factor present");
        let (_, secs) = self.kernels.trsm(&mut blk, ldiag);
        self.rt.charge(rank, TaskKey::Panel { i, j }, secs);
        // Fan L(i,j) to the compute ranks of updates that use it:
        // U(a,j,i) at map(a,j) for a >= i, and U(i,j,b) at map(i,j) = me.
        let mut dests: Vec<usize> = self
            .sf
            .layout
            .blocks_of(j)
            .iter()
            .filter(|bb| bb.target >= i)
            .map(|bb| self.grid.map(bb.target, j))
            .collect();
        dests.sort_unstable();
        dests.dedup();
        self.publish_factor(rank, &blk, i, j, &dests);
        self.consume_local(rank, i, j);
        self.inputs.insert((i, j), blk.clone());
        self.store.put((i, j), blk);
    }

    /// Release this rank's own consumers of a locally produced factor block.
    fn consume_local(&mut self, rank: &mut Rank, i: usize, j: usize) {
        let now = rank.now();
        if let Some(keys) = self.consumers.get(&(i, j)).cloned() {
            for k in keys {
                self.rt.dec(k, now);
            }
        }
    }

    /// Publish a factored block: place it in the shared heap and signal the
    /// remote destinations.
    fn publish_factor(&mut self, rank: &mut Rank, data: &Mat, i: usize, j: usize, dests: &[usize]) {
        let remote: Vec<usize> = dests.iter().copied().filter(|&d| d != self.me).collect();
        if remote.is_empty() {
            return;
        }
        let ptr = rank
            .alloc(MemKind::Host, data.rows() * data.cols())
            .expect("host alloc");
        rank.write_local(&ptr, data.as_slice());
        let (rows, cols) = (data.rows(), data.cols());
        for d in remote {
            let msg = Msg::Factor {
                ptr,
                i,
                j,
                rows,
                cols,
            };
            // Factor notifications ride the droppable/duplicable signal
            // path; the inbox deduplicates and the stall detector diagnoses
            // drops. try_with_state: a straggling duplicate may land after
            // the state is torn down.
            self.comm.send(rank, d, SIGNAL_WIRE_BYTES, move |r| {
                r.try_with_state::<FbEngine, _>(|_, st| {
                    st.rt.post_unique(msg);
                });
            });
        }
    }

    /// Run one update product into the aggregation buffer for `(a, b)`; ship
    /// or absorb the buffer once this rank's last contribution lands.
    fn exec_update(&mut self, rank: &mut Rank, j: usize, a: usize, b: usize) {
        let key = TaskKey::Update { j, a, b };
        let binfo_j = self.sf.layout.find(b, j).expect("source block");
        let rows_b =
            self.sf.patterns[j][binfo_j.row_offset..binfo_j.row_offset + binfo_j.n_rows].to_vec();
        let first_b = self.sf.partition.first_col(b);
        let lb = self.inputs.get(&(b, j)).expect("L(b,j) present");
        if a == b {
            let nb = lb.rows();
            let mut temp = Mat::zeros(nb, nb);
            let (_, secs) = self.kernels.syrk(&mut temp, lb);
            self.rt.charge(rank, key, secs);
            let w = self.sf.partition.width(b);
            let agg = self.aggs.entry((b, b)).or_insert_with(|| Mat::zeros(w, w));
            for (ci, &gc) in rows_b.iter().enumerate() {
                let tc = gc - first_b;
                for (ri, &gr) in rows_b.iter().enumerate().skip(ci) {
                    agg[(gr - first_b, tc)] += temp[(ri, ci)];
                }
            }
        } else {
            let la = self.inputs.get(&(a, j)).expect("L(a,j) present");
            let ainfo_j = self.sf.layout.find(a, j).expect("source block");
            let rows_a =
                &self.sf.patterns[j][ainfo_j.row_offset..ainfo_j.row_offset + ainfo_j.n_rows];
            let tinfo = self.sf.layout.find(a, b).expect("target block exists");
            let target_rows =
                &self.sf.patterns[b][tinfo.row_offset..tinfo.row_offset + tinfo.n_rows];
            let row_map: Vec<usize> = rows_a
                .iter()
                .map(|r| target_rows.binary_search(r).expect("row containment"))
                .collect();
            let mut temp = Mat::zeros(la.rows(), lb.rows());
            let lb = self.inputs.get(&(b, j)).expect("L(b,j) present");
            let la = self.inputs.get(&(a, j)).expect("L(a,j) present");
            let (_, secs) = self.kernels.gemm(&mut temp, la, lb);
            self.rt.charge(rank, key, secs);
            let w = self.sf.partition.width(b);
            let agg = self
                .aggs
                .entry((a, b))
                .or_insert_with(|| Mat::zeros(tinfo.n_rows, w));
            for (ci, &gc) in rows_b.iter().enumerate() {
                let tc = gc - first_b;
                for (ri, &tr) in row_map.iter().enumerate() {
                    agg[(tr, tc)] += temp[(ri, ci)];
                }
            }
        }
        // Last contribution to (a,b) from this rank? Ship or absorb.
        let c = self.my_contribs.get_mut(&(a, b)).expect("contrib counted");
        *c -= 1;
        if *c == 0 {
            let buf = self.aggs.remove(&(a, b)).expect("aggregate exists");
            let owner = self.grid.map(a, b);
            if owner == self.me {
                absorb(&mut self.store, a, b, &buf);
                let now = rank.now();
                self.dec_target(a, b, now);
            } else {
                let ptr = rank
                    .alloc(MemKind::Host, buf.rows() * buf.cols())
                    .expect("host alloc");
                rank.write_local(&ptr, buf.as_slice());
                let (rows, cols) = (buf.rows(), buf.cols());
                let msg = Msg::Aggregate {
                    ptr,
                    a,
                    b,
                    rows,
                    cols,
                };
                self.comm.send(rank, owner, SIGNAL_WIRE_BYTES, move |r| {
                    r.try_with_state::<FbEngine, _>(|_, st| {
                        st.rt.post_unique(msg);
                    });
                });
            }
        }
    }
}

/// Fold an aggregate into the owned target block.
fn absorb(store: &mut BlockStore, a: usize, b: usize, buf: &Mat) {
    let m = store.get_mut((a, b)).expect("target owned").dense_mut();
    if a == b {
        for c in 0..buf.cols() {
            for r in c..buf.rows() {
                m[(r, c)] += buf[(r, c)];
            }
        }
    } else {
        for c in 0..buf.cols() {
            for r in 0..buf.rows() {
                m[(r, c)] += buf[(r, c)];
            }
        }
    }
}

impl Engine for FbEngine {
    type Key = TaskKey;
    type Sig = Msg;

    const STALL_DETAIL: &'static str = "fan-both factorization quiesced with unfinished tasks \
                                        (dropped factor or aggregate suspected)";

    fn step(&mut self, rank: &mut Rank) -> bool {
        self.drain_pending(rank);
        self.comm.tick(rank);
        let Some((id, key, ready_at)) = self.rt.pick() else {
            self.comm.flush_all(rank);
            return false;
        };
        self.rt.begin(rank, ready_at);
        match key {
            TaskKey::Diag { j } => self.exec_diag(rank, j),
            TaskKey::Panel { i, j } => self.exec_panel(rank, i, j),
            TaskKey::Update { j, a, b } => self.exec_update(rank, j, a, b),
        }
        self.rt.complete(id);
        true
    }

    fn rt(&mut self) -> &mut TaskEngine<TaskKey, Msg> {
        &mut self.rt
    }

    fn into_factor(self) -> (BlockStore, KernelEngine) {
        (self.store, self.kernels)
    }
}

/// Factor and solve with the fan-both algorithm on a 2D grid; panics on
/// failure (see [`try_fanboth_factor_and_solve`] for the fallible form).
pub fn fanboth_factor_and_solve(
    a: &SparseSym,
    b: &[f64],
    opts: &BaselineOptions,
) -> BaselineReport {
    try_fanboth_factor_and_solve(a, b, opts).expect("fan-both factorization failed")
}

/// Factor and solve with the fan-both algorithm on a 2D grid.
///
/// # Errors
/// [`SolverError::NotPositiveDefinite`] when a pivot fails;
/// [`SolverError::DeviceOom`] under the Abort OOM policy;
/// [`SolverError::FetchTimeout`] / [`SolverError::Stalled`] under fault
/// injection when the retry budget or the quiescence detector gives up.
pub fn try_fanboth_factor_and_solve(
    a: &SparseSym,
    b: &[f64],
    opts: &BaselineOptions,
) -> Result<BaselineReport, SolverError> {
    let grid = ProcGrid::squarest(opts.n_nodes * opts.ranks_per_node);
    // One-sided transport, like the fan-out: no rendezvous in the solve.
    run("fanboth", grid, 0.0, a, b, opts, FbEngine::new)
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
        let r = fanboth_factor_and_solve(&a, &b, &BaselineOptions::default());
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
                &BaselineOptions {
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
        let bo = BaselineOptions {
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
