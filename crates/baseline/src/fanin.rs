//! Fan-in supernodal factorization — the other family in Ashcraft's
//! taxonomy the paper recounts in §2.3.
//!
//! Where the fan-out algorithm broadcasts *factors* and computes updates at
//! the owner of the **target**, the fan-in algorithm computes updates at the
//! owner of the **source** column and ships *aggregate vectors*: each rank
//! accumulates all of its updates to a remote target supernode in a local
//! aggregation buffer and sends the buffer once, when its last local
//! contribution has been folded in. Messages are fewer but larger and later
//! — the latency/volume trade the taxonomy is about.
//!
//! Mapping is the same 1D supernode-cyclic distribution as the
//! right-looking baseline, so the three solvers (fan-out 2D symPACK,
//! right-looking 1D, fan-in 1D) isolate the communication-family effect.
//! Scheduling runs through the shared [`sympack::sched::TaskEngine`]; the
//! two-sided flavor survives as the runtime's blocking-fetch rendezvous
//! charge.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack::map2d::ProcGrid;
use sympack::sched::{self, CommLayer, Engine, FetchConfig, FetchMode, TaskEngine, TaskKind};
use sympack::storage::BlockStore;
use sympack::SolverError;
use sympack_dense::Mat;
use sympack_gpu::KernelEngine;
use sympack_pgas::{GlobalPtr, MemKind, Rank};
use sympack_sparse::SparseSym;
use sympack_symbolic::SymbolicFactor;
use sympack_trace::TraceCat;

use crate::rightlooking::{
    owner_of, run, BaselineOptions, BaselineReport, RENDEZVOUS_OVERHEAD, SIGNAL_WIRE_BYTES,
};

/// The single task species of the fan-in algorithm: factor owned supernode
/// `j` (POTRF + TRSMs) and immediately compute every update it sources,
/// folding them into local targets or aggregation buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FiKey {
    j: usize,
}

impl TaskKind for FiKey {
    fn priority_key(&self) -> (usize, usize) {
        (self.j, 0)
    }
    fn seed_key(&self) -> (usize, usize, usize, usize) {
        (self.j, 0, 0, 0)
    }
    fn kind_name(&self) -> &'static str {
        "factor_scatter"
    }
    fn trace_label(&self) -> String {
        format!("S({})", self.j)
    }
    fn trace_cat(&self) -> TraceCat {
        TraceCat::Potrf
    }
}

/// An aggregation buffer for one remote target supernode: the diagonal
/// update plus one dense block per off-diagonal block of the target.
struct AggBuffer {
    diag: Mat,
    blocks: Vec<Mat>,
}

impl AggBuffer {
    fn new(sf: &SymbolicFactor, b: usize) -> Self {
        let w = sf.partition.width(b);
        let blocks = sf
            .layout
            .blocks_of(b)
            .iter()
            .map(|info| Mat::zeros(info.n_rows, w))
            .collect();
        AggBuffer {
            diag: Mat::zeros(w, w),
            blocks,
        }
    }

    fn pack(&self) -> Vec<f64> {
        let mut out = Vec::new();
        out.extend_from_slice(self.diag.as_slice());
        for b in &self.blocks {
            out.extend_from_slice(b.as_slice());
        }
        out
    }

    fn unpack(sf: &SymbolicFactor, b: usize, data: &[f64]) -> Self {
        let w = sf.partition.width(b);
        let diag = Mat::from_col_major(w, w, data[..w * w].to_vec());
        let mut off = w * w;
        let mut blocks = Vec::new();
        for info in sf.layout.blocks_of(b) {
            let len = info.n_rows * w;
            blocks.push(Mat::from_col_major(
                info.n_rows,
                w,
                data[off..off + len].to_vec(),
            ));
            off += len;
        }
        AggBuffer { diag, blocks }
    }
}

/// A received aggregate: pointer to the packed buffer of target `b`.
#[derive(Debug, Clone, Copy)]
struct AggSignal {
    ptr: GlobalPtr,
    target: usize,
}

impl sched::Signal for AggSignal {
    fn ptr(&self) -> GlobalPtr {
        self.ptr
    }

    fn describe(&self) -> String {
        format!("aggregate update for supernode {}", self.target)
    }
}

/// Add a received (or locally finished) aggregate into the owned blocks.
fn absorb_aggregate(sf: &SymbolicFactor, store: &mut BlockStore, b: usize, agg: &AggBuffer) {
    {
        let diag = store.get_mut((b, b)).expect("diag owned").dense_mut();
        for c in 0..agg.diag.cols() {
            for r in c..agg.diag.rows() {
                diag[(r, c)] += agg.diag[(r, c)];
            }
        }
    }
    for (info, buf) in sf.layout.blocks_of(b).iter().zip(&agg.blocks) {
        let m = store
            .get_mut((info.target, b))
            .expect("block owned")
            .dense_mut();
        for c in 0..buf.cols() {
            for r in 0..buf.rows() {
                m[(r, c)] += buf[(r, c)];
            }
        }
    }
}

/// Per-rank fan-in engine, installed as the rank's user state.
struct FiEngine {
    sf: Arc<SymbolicFactor>,
    store: BlockStore,
    kernels: KernelEngine,
    /// The shared scheduling core: dep counters, RTQ, inbox, tracer.
    rt: TaskEngine<FiKey, AggSignal>,
    /// Aggregation buffers for remote targets, keyed by target supernode.
    aggs: HashMap<usize, AggBuffer>,
    /// Outstanding local contributions per remote target.
    my_contribs: HashMap<usize, usize>,
    fetch: FetchConfig,
    /// Per-destination signal coalescing (pass-through when off).
    comm: CommLayer,
    p: usize,
    me: usize,
}

impl FiEngine {
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
        let mut rt: TaskEngine<FiKey, AggSignal> = TaskEngine::new(opts.rtq_policy, abort);
        // Dependency accounting.
        // deps[j] (owned j) = #own earlier supernodes contributing to j
        //                   + #remote ranks contributing to j (one aggregate
        //                     message each).
        // my_contribs[b] (remote b) = #own supernodes contributing to b.
        let mut remaining: HashMap<usize, usize> = HashMap::new();
        let mut my_contribs: HashMap<usize, usize> = HashMap::new();
        for j in (0..ns).filter(|&j| owner_of(j, p) == rank) {
            remaining.insert(j, 0);
        }
        let mut contributing_ranks: HashMap<usize, std::collections::HashSet<usize>> =
            HashMap::new();
        for j in 0..ns {
            let src_owner = owner_of(j, p);
            for bb in sf.layout.blocks_of(j) {
                let b = bb.target;
                let dst_owner = owner_of(b, p);
                if dst_owner == rank {
                    if src_owner == rank {
                        *remaining.get_mut(&b).expect("owned") += 1;
                    } else {
                        contributing_ranks.entry(b).or_default().insert(src_owner);
                    }
                } else if src_owner == rank {
                    *my_contribs.entry(b).or_default() += 1;
                }
            }
        }
        for (b, ranks) in &contributing_ranks {
            *remaining.get_mut(b).expect("owned") += ranks.len();
        }
        for (&j, &deps) in &remaining {
            rt.insert_task(FiKey { j }, deps);
        }
        rt.seed_ready();
        let mode = FetchMode::Blocking {
            overhead: RENDEZVOUS_OVERHEAD,
        };
        let fetch = FetchConfig::for_engine(kernels.gpu_enabled, opts.oom_policy, mode);
        FiEngine {
            sf,
            store,
            kernels,
            rt,
            aggs: HashMap::new(),
            my_contribs,
            fetch,
            comm: CommLayer::new(opts.coalesce),
            p,
            me: rank,
        }
    }

    /// Resolve queued aggregate signals: blocking two-sided receives, then
    /// fold each aggregate into the owned target and release its factor
    /// task.
    fn drain_pending(&mut self, rank: &mut Rank) {
        let signals = self.rt.take_signals();
        if signals.is_empty() {
            return;
        }
        let cfg = self.fetch;
        let res = sched::drain_signals(rank, signals, &cfg, |_rank, s, data, ready_at| {
            let agg = AggBuffer::unpack(&self.sf, s.target, &data);
            absorb_aggregate(&self.sf, &mut self.store, s.target, &agg);
            self.rt.dec(FiKey { j: s.target }, ready_at);
        });
        if let Err(err) = res {
            self.rt.fail(rank, err);
        }
    }

    /// Factor supernode `j` and fan its updates in: owned targets are
    /// updated in place, remote targets accumulate into aggregation buffers
    /// shipped once the last local contribution lands.
    fn exec_factor(&mut self, rank: &mut Rank, key: FiKey) {
        let j = key.j;
        let mut diag = self.store.take((j, j)).expect("diag owned").into_dense();
        let first = self.sf.partition.first_col(j);
        let Some(secs) =
            sched::potrf_or_fail(&mut self.rt, &mut self.kernels, rank, &mut diag, first)
        else {
            self.store.put((j, j), diag);
            return;
        };
        self.rt.charge(rank, key, secs);
        for bb in self.sf.layout.blocks_of(j).to_vec() {
            let mut blk = self
                .store
                .take((bb.target, j))
                .expect("block owned")
                .into_dense();
            let (_, secs) = self.kernels.trsm(&mut blk, &diag);
            self.rt.charge(rank, key, secs);
            self.store.put((bb.target, j), blk);
        }
        self.store.put((j, j), diag);
        // Compute this supernode's updates at the source (fan-in).
        let touched = self.scatter_updates(rank, key);
        let now = rank.now();
        for b in touched {
            if owner_of(b, self.p) == self.me {
                self.rt.dec(FiKey { j: b }, now);
            } else {
                let c = self.my_contribs.get_mut(&b).expect("contrib counted");
                *c -= 1;
                if *c == 0 {
                    // Last local contribution folded in: ship the aggregate
                    // once.
                    let agg = self.aggs.remove(&b).expect("aggregate exists");
                    let packed = agg.pack();
                    let ptr = rank.alloc(MemKind::Host, packed.len()).expect("host alloc");
                    rank.write_local(&ptr, &packed);
                    let sig = AggSignal { ptr, target: b };
                    let dest = owner_of(b, self.p);
                    // Aggregates ride the droppable/duplicable signal path;
                    // the inbox deduplicates and the stall detector
                    // diagnoses drops. try_with_state: a straggling
                    // duplicate may land after the state is torn down.
                    self.comm.send(rank, dest, SIGNAL_WIRE_BYTES, move |r| {
                        r.try_with_state::<FiEngine, _>(|_, st| {
                            st.rt.post_unique(sig);
                        });
                    });
                }
            }
        }
    }

    /// Apply the update pairs of factored supernode `j` into either the
    /// local store (owned targets) or the aggregation buffers (remote
    /// targets). Returns the distinct targets touched.
    fn scatter_updates(&mut self, rank: &mut Rank, key: FiKey) -> Vec<usize> {
        let j = key.j;
        let blocks_meta = self.sf.layout.blocks_of(j).to_vec();
        let mut touched = Vec::new();
        for (bi, bb) in blocks_meta.iter().enumerate() {
            let b = bb.target;
            let local = owner_of(b, self.p) == self.me;
            touched.push(b);
            let first_b = self.sf.partition.first_col(b);
            let rows_b = self.sf.patterns[j][bb.row_offset..bb.row_offset + bb.n_rows].to_vec();
            let lb = self
                .store
                .get((b, j))
                .expect("factored block local")
                .to_dense();
            for ba in blocks_meta.iter().skip(bi) {
                let a = ba.target;
                let la = self
                    .store
                    .get((a, j))
                    .expect("factored block local")
                    .to_dense();
                if a == b {
                    let nb = lb.rows();
                    let mut temp = Mat::zeros(nb, nb);
                    let (_, secs) = self.kernels.syrk(&mut temp, &lb);
                    self.rt.charge(rank, key, secs);
                    let sf = &self.sf;
                    let target: &mut Mat = if local {
                        self.store.get_mut((b, b)).expect("diag owned").dense_mut()
                    } else {
                        &mut self
                            .aggs
                            .entry(b)
                            .or_insert_with(|| AggBuffer::new(sf, b))
                            .diag
                    };
                    for (ci, &gc) in rows_b.iter().enumerate() {
                        let tc = gc - first_b;
                        for (ri, &gr) in rows_b.iter().enumerate().skip(ci) {
                            target[(gr - first_b, tc)] += temp[(ri, ci)];
                        }
                    }
                } else {
                    let rows_a =
                        self.sf.patterns[j][ba.row_offset..ba.row_offset + ba.n_rows].to_vec();
                    let tinfo = self.sf.layout.find(a, b).expect("target block exists");
                    let target_rows =
                        &self.sf.patterns[b][tinfo.row_offset..tinfo.row_offset + tinfo.n_rows];
                    let row_map: Vec<usize> = rows_a
                        .iter()
                        .map(|r| target_rows.binary_search(r).expect("row containment"))
                        .collect();
                    let mut temp = Mat::zeros(la.rows(), lb.rows());
                    let (_, secs) = self.kernels.gemm(&mut temp, &la, &lb);
                    self.rt.charge(rank, key, secs);
                    // Which block of the target supernode does (a,b) map to?
                    let bidx = self
                        .sf
                        .layout
                        .blocks_of(b)
                        .iter()
                        .position(|i2| i2.target == a)
                        .expect("block index");
                    let sf = &self.sf;
                    let target: &mut Mat = if local {
                        self.store
                            .get_mut((a, b))
                            .expect("target block owned")
                            .dense_mut()
                    } else {
                        &mut self
                            .aggs
                            .entry(b)
                            .or_insert_with(|| AggBuffer::new(sf, b))
                            .blocks[bidx]
                    };
                    for (ci, &gc) in rows_b.iter().enumerate() {
                        let tc = gc - first_b;
                        for (ri, &tr) in row_map.iter().enumerate() {
                            target[(tr, tc)] += temp[(ri, ci)];
                        }
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }
}

impl Engine for FiEngine {
    type Key = FiKey;
    type Sig = AggSignal;

    const STALL_DETAIL: &'static str =
        "fan-in factorization quiesced with unfinished tasks (dropped aggregate suspected)";

    fn step(&mut self, rank: &mut Rank) -> bool {
        self.drain_pending(rank);
        self.comm.tick(rank);
        let Some((id, key, ready_at)) = self.rt.pick() else {
            self.comm.flush_all(rank);
            return false;
        };
        self.rt.begin(rank, ready_at);
        self.exec_factor(rank, key);
        self.rt.complete(id);
        true
    }

    fn rt(&mut self) -> &mut TaskEngine<FiKey, AggSignal> {
        &mut self.rt
    }

    fn into_factor(self) -> (BlockStore, KernelEngine) {
        (self.store, self.kernels)
    }
}

/// Factor and solve with the fan-in algorithm; panics on failure (see
/// [`try_fanin_factor_and_solve`] for the fallible form).
pub fn fanin_factor_and_solve(a: &SparseSym, b: &[f64], opts: &BaselineOptions) -> BaselineReport {
    try_fanin_factor_and_solve(a, b, opts).expect("fan-in factorization failed")
}

/// Factor and solve with the fan-in algorithm.
///
/// # Errors
/// [`SolverError::NotPositiveDefinite`] when a pivot fails;
/// [`SolverError::DeviceOom`] under the Abort OOM policy;
/// [`SolverError::FetchTimeout`] / [`SolverError::Stalled`] under fault
/// injection when the retry budget or the quiescence detector gives up.
pub fn try_fanin_factor_and_solve(
    a: &SparseSym,
    b: &[f64],
    opts: &BaselineOptions,
) -> Result<BaselineReport, SolverError> {
    let grid = ProcGrid::one_dimensional(opts.n_nodes * opts.ranks_per_node);
    run(
        "fanin",
        grid,
        RENDEZVOUS_OVERHEAD,
        a,
        b,
        opts,
        FiEngine::new,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::{laplacian_2d, random_spd};
    use sympack_sparse::vecops::{max_abs_diff, test_rhs};

    #[test]
    fn fanin_is_numerically_correct() {
        let a = laplacian_2d(9, 8);
        let b = test_rhs(a.n());
        let r = fanin_factor_and_solve(&a, &b, &BaselineOptions::default());
        assert!(
            r.relative_residual < 1e-10,
            "residual {}",
            r.relative_residual
        );
    }

    #[test]
    fn fanin_matches_fanout_across_rank_counts() {
        let a = random_spd(80, 5, 19);
        let b = test_rhs(80);
        let reference =
            sympack::SymPack::factor_and_solve(&a, &b, &sympack::SolverOptions::default());
        for (nodes, ppn) in [(1, 1), (2, 2), (3, 2)] {
            let r = fanin_factor_and_solve(
                &a,
                &b,
                &BaselineOptions {
                    n_nodes: nodes,
                    ranks_per_node: ppn,
                    ..Default::default()
                },
            );
            assert!(r.relative_residual < 1e-10);
            let d = max_abs_diff(&r.x, &reference.x);
            assert!(d < 1e-8, "nodes={nodes} ppn={ppn}: diverges by {d}");
        }
    }

    #[test]
    fn fanin_sends_fewer_messages_than_rightlooking_broadcasts() {
        // The taxonomy's point: aggregates coalesce what the panel
        // broadcast sends piecemeal. Compare RPC counts on a problem with
        // many supernodes.
        let a = laplacian_2d(16, 16);
        let b = test_rhs(a.n());
        let opts = BaselineOptions {
            n_nodes: 4,
            ranks_per_node: 1,
            ..Default::default()
        };
        let fi = fanin_factor_and_solve(&a, &b, &opts);
        let rl = crate::rightlooking::baseline_factor_and_solve(&a, &b, &opts);
        assert!(
            fi.stats.rpcs < rl.stats.rpcs,
            "fan-in rpcs {} vs right-looking {}",
            fi.stats.rpcs,
            rl.stats.rpcs
        );
    }
}
