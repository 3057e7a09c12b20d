//! The per-rank factorization executor: fan-out communication and the
//! task-execution bodies of the paper's Figs. 3–4. All scheduling (LTQ,
//! RTQ, signal inbox, dependency counters, abort) runs through the shared
//! [`crate::sched::TaskEngine`].

use crate::plan::SolvePlan;
use crate::sched::{self, CommLayer, FetchConfig, FetchMode, TaskEngine, TaskKind};
use crate::storage::{Block, BlockStore};
use crate::taskgraph::{BlockId, LocalTasks, RtqPolicy, TaskKey, TaskOps};
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack_dense::{LowRankMat, Mat};
use sympack_gpu::KernelEngine;
use sympack_pgas::coalesce::{plan_tree, BcastPlan, BcastTopology, SIGNAL_WIRE_BYTES};
use sympack_pgas::{GlobalPtr, MemKind, Rank};
use sympack_symbolic::SymbolicFactor;

/// Sentinel rank meaning "dense payload" on the signal wire.
const DENSE_WIRE: usize = usize::MAX;

/// A `signal(ptr, meta)` notification queued by an incoming RPC
/// (paper Fig. 4, steps 3–4). `lr_rank == usize::MAX` means the pointed-to
/// payload is the dense column-major block; any other value means the
/// payload is the concatenated `[U | V]` factors of that rank.
#[derive(Debug, Clone, Copy)]
pub struct Signal {
    ptr: GlobalPtr,
    i: usize,
    j: usize,
    rows: usize,
    cols: usize,
    lr_rank: usize,
}

impl sched::Signal for Signal {
    fn ptr(&self) -> GlobalPtr {
        self.ptr
    }

    fn describe(&self) -> String {
        if self.i == self.j {
            format!("factored diagonal block L({},{})", self.i, self.j)
        } else if self.lr_rank != DENSE_WIRE {
            format!(
                "factored panel block L({},{}) (rank-{} compressed)",
                self.i, self.j, self.lr_rank
            )
        } else {
            format!("factored panel block L({},{})", self.i, self.j)
        }
    }
}

/// A pending relay obligation: this rank is a leader position in a
/// hierarchical broadcast and must forward the block (re-hosted locally)
/// to its node members and child leaders once the data arrives.
struct RelayDuty {
    plan: Arc<BcastPlan>,
    pos: usize,
}

/// Per-rank block-publication accounting: payload bytes this rank placed in
/// its shared heap for consumers to fetch, split by stored form. For a
/// compressed publication, `lr_dense_equiv_bytes` records what the same
/// block would have cost dense — the basis of the compression ratio the
/// profiler reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Payload bytes of dense block publications.
    pub dense_bytes: u64,
    /// Payload bytes of compressed (`[U|V]`) block publications.
    pub lr_bytes: u64,
    /// Dense-equivalent bytes of the compressed publications.
    pub lr_dense_equiv_bytes: u64,
    /// Blocks published dense.
    pub dense_blocks: u64,
    /// Blocks published compressed.
    pub lr_blocks: u64,
}

impl PublishStats {
    /// Merge another rank's stats into this one.
    pub fn merge(&mut self, other: &PublishStats) {
        self.dense_bytes += other.dense_bytes;
        self.lr_bytes += other.lr_bytes;
        self.lr_dense_equiv_bytes += other.lr_dense_equiv_bytes;
        self.dense_blocks += other.dense_blocks;
        self.lr_blocks += other.lr_blocks;
    }

    /// Total payload bytes published (any form).
    pub fn published_bytes(&self) -> u64 {
        self.dense_bytes + self.lr_bytes
    }
}

/// Per-rank factorization engine. Installed as the rank's user state so the
/// RPC `signal` closures can reach it.
pub struct FactoEngine {
    sf: Arc<SymbolicFactor>,
    /// This rank's compiled task-graph slice, shared with the plan: task
    /// and block ids, consumer lists, operands, fan-out destinations.
    graph: Arc<LocalTasks>,
    /// This rank's blocks of `A` (progressively overwritten with `L`);
    /// slot ids are the graph's owned block ids. A factored block lives
    /// here and nowhere else — local consumers read it in place.
    pub store: BlockStore,
    /// The shared scheduling core: LTQ, RTQ, inbox, abort, tracer.
    pub rt: TaskEngine<TaskKey, Signal>,
    /// Fetched remote factored blocks, indexed by `block id − n_owned`.
    /// Availability *time* is tracked on the consuming tasks (via their
    /// dependency decrements), not on the block itself. Compressed panels
    /// stay compressed: the update kernels consume them in factored form.
    inputs: Vec<Option<Block>>,
    /// Storage of the update kernels' product temporary, reused by every
    /// update task.
    work: Vec<f64>,
    /// Scratch row map of the update scatter, reused likewise.
    row_map: Vec<usize>,
    /// Dense-kernel executor with offload heuristic and op counters.
    pub kernels: KernelEngine,
    /// Signal-resolution data path: host `rget`s, or direct device copies
    /// for blocks of at least `device_threshold` elements (§4.2).
    pub fetch: FetchConfig,
    /// Block-publication wire pattern: flat owner→targets or k-ary tree
    /// over node groups with leader relays.
    topology: BcastTopology,
    /// Per-destination signal coalescing front-end (pass-through when the
    /// solver options leave coalescing off).
    comm: CommLayer,
    /// Relay obligations keyed by the incoming signal's pointer, installed
    /// at signal acceptance and discharged when the data arrives.
    relays: HashMap<GlobalPtr, RelayDuty>,
    /// Block-publication byte accounting (dense vs compressed).
    pub publish: PublishStats,
}

/// The block behind id `b`, if present: an owned block lives in the store,
/// a fetched one in the input table. (A free function over the two fields
/// so callers can keep borrowing the rest of the engine.)
fn block<'a>(store: &'a BlockStore, inputs: &'a [Option<Block>], b: BlockId) -> Option<&'a Block> {
    let (b, n_owned) = (b as usize, store.len());
    if b < n_owned {
        store.slot(b)
    } else {
        inputs[b - n_owned].as_ref()
    }
}

impl FactoEngine {
    /// Build the engine for `rank` under `plan`, over the rank's compiled
    /// task-graph slice (built once per [`crate::plan::SymbolicPlan`]):
    /// allocate the owned blocks, scatter the permuted matrix `ap` into
    /// them and copy the initial dependency counters.
    pub fn new(
        plan: &SolvePlan,
        ap: &sympack_sparse::SparseSym,
        rank: usize,
        kernels: KernelEngine,
        abort: Arc<AtomicBool>,
    ) -> Self {
        let (sf, grid) = (Arc::clone(plan.sf()), plan.grid());
        let graph = Arc::clone(&plan.symbolic.tasks[rank]);
        let (policy, oom_policy) = (plan.opts.rtq_policy, plan.opts.oom_policy);
        let mut kernels = kernels;
        if kernels.blr.enabled() {
            // Global truncation scale: ‖A‖_F is permutation-invariant, so
            // every rank computes the identical value from its copy of the
            // permuted matrix (the absolute-threshold BLR criterion).
            kernels.blr_scale = ap.frobenius_norm();
        }
        let store = BlockStore::init(&sf, ap, &grid, rank);
        assert_eq!(
            store.keys(),
            &graph.blocks[..graph.n_owned],
            "task graph was compiled for another rank or grid"
        );
        let mut rt = TaskEngine::from_compiled(Arc::clone(&graph.keys), &graph.deps, policy, abort);
        if policy == RtqPolicy::CommAware {
            // Overlap-driven urgency: a factor task's output unblocks this
            // many *remote* ranks, so producing it early feeds the network
            // while local update work hides behind the transfers. (Factor
            // task `l` factors owned block `l`.)
            for l in 0..graph.n_owned as BlockId {
                let urg = graph.dests_of(l).len();
                if urg > 0 {
                    rt.set_urgency(l, urg as u64);
                }
            }
        }
        rt.seed_ready();
        let fetch =
            FetchConfig::for_engine(kernels.gpu_enabled, oom_policy, FetchMode::NonBlocking);
        let n_inputs = graph.blocks.len() - graph.n_owned;
        FactoEngine {
            sf,
            store,
            rt,
            inputs: (0..n_inputs).map(|_| None).collect(),
            graph,
            work: Vec::new(),
            row_map: Vec::new(),
            kernels,
            fetch,
            topology: plan.opts.bcast,
            comm: CommLayer::new(plan.opts.coalesce),
            relays: HashMap::new(),
            publish: PublishStats::default(),
        }
    }

    /// Estimated seconds of kernel work this rank has not yet completed:
    /// the roofline estimate of every unexecuted task, summed on demand in
    /// task-id order. Update tasks whose operands have already arrived
    /// compressed are estimated from the *stored* ranks, so the figure
    /// sharpens as BLR panels land. Advisory only — the RTQ never sees it.
    pub fn estimated_remaining(&self) -> f64 {
        let (sf, k) = (&self.sf, &self.kernels);
        let stored_rank = |b| block(&self.store, &self.inputs, b).and_then(Block::lr_rank);
        self.rt.estimated_remaining(|id, key| {
            let ops = self.graph.ops[id as usize];
            key.estimate_secs_stored(
                sf,
                &k.cost,
                &k.config,
                stored_rank(ops.a),
                stored_rank(ops.b),
            )
        })
    }

    /// Factored block `blk` became available at `ready_at` (factored here,
    /// or fetched): decrement its consumers, naming the producing task as
    /// the dependency edge for the profiler.
    fn release_consumers(&mut self, blk: BlockId, bytes: u64, ready_at: f64) {
        let (i, j) = self.graph.blocks[blk as usize];
        let producer = if i == j {
            TaskKey::Diag { j }
        } else {
            TaskKey::Panel { i, j }
        };
        for &t in self.graph.consumers_of(blk) {
            self.rt.dec_from_id(t, ready_at, || producer.trace_label());
        }
        self.rt.add_mem(bytes);
    }

    /// Resolve pending signals into data movement (Fig. 4 step 5) through
    /// the runtime's shared fetch path. A signal that carried a relay duty
    /// discharges it here, once the data has actually arrived.
    fn drain_pending(&mut self, rank: &mut Rank) {
        let signals = self.rt.take_signals();
        if signals.is_empty() {
            return;
        }
        let cfg = self.fetch;
        let res = sched::drain_signals(rank, signals, &cfg, |rank, s, data, ready_at| {
            if let Some(duty) = self.relays.remove(&s.ptr) {
                self.forward_relay(rank, &s, &data, ready_at, duty);
            }
            let blk = if s.lr_rank == DENSE_WIRE {
                Block::Dense(Mat::from_col_major(s.rows, s.cols, data))
            } else {
                Block::LowRank(LowRankMat::from_payload(s.rows, s.cols, s.lr_rank, &data))
            };
            let id = self
                .graph
                .input_id((s.i, s.j))
                .expect("a fanned-out block has a consumer on its destination");
            let bytes = blk.bytes();
            self.inputs[id as usize - self.graph.n_owned] = Some(blk);
            self.release_consumers(id, bytes, ready_at);
        });
        if let Err(err) = res {
            self.rt.fail(rank, err);
        }
    }

    /// Fan a completed factor block out to the ranks owning dependent tasks
    /// (Fig. 4 steps 1–2: allocate in the shared heap, then `signal` RPCs).
    /// Under [`BcastTopology::Tree`] the owner only signals its own node's
    /// consumers plus the first `arity` remote-node leaders; the leaders
    /// re-host and relay onward ([`FactoEngine::forward_relay`]), so the
    /// owner's NIC serves O(arity) remote pulls instead of O(targets).
    fn fanout(&mut self, rank: &mut Rank, blk: BlockId, data: &Block) {
        let n_dests = self.graph.dests_of(blk).len();
        if n_dests == 0 {
            return;
        }
        let (i, j) = self.graph.blocks[blk as usize];
        // Compressed panels ship their `[U | V]` factors — (rows+cols)·rank
        // values instead of rows·cols — so every rget/relay hop downstream
        // moves (and is charged for) the reduced byte count.
        let (payload_len, lr_rank) = match data {
            Block::Dense(m) => (m.rows() * m.cols(), DENSE_WIRE),
            Block::LowRank(lr) => (lr.payload_len(), lr.rank()),
        };
        match data {
            Block::Dense(_) => {
                self.publish.dense_blocks += 1;
                self.publish.dense_bytes += (payload_len * 8) as u64;
            }
            Block::LowRank(_) => {
                self.publish.lr_blocks += 1;
                self.publish.lr_bytes += (payload_len * 8) as u64;
                self.publish.lr_dense_equiv_bytes += (data.rows() * data.cols() * 8) as u64;
            }
        }
        let ptr = rank
            .alloc(MemKind::Host, payload_len)
            .expect("host allocation cannot fail");
        match data {
            Block::Dense(m) => rank.write_local(&ptr, m.as_slice()),
            Block::LowRank(lr) => rank.write_local(&ptr, &lr.to_payload()),
        }
        let sig = Signal {
            ptr,
            i,
            j,
            rows: data.rows(),
            cols: data.cols(),
            lr_rank,
        };
        match self.topology {
            BcastTopology::Flat => {
                for k in 0..n_dests {
                    self.send_signal(rank, self.graph.dests_of(blk)[k], sig);
                }
            }
            BcastTopology::Tree { arity } => {
                let plan = Arc::new(plan_tree(
                    rank.id(),
                    self.graph.dests_of(blk),
                    arity,
                    rank.ranks_per_node(),
                ));
                for idx in 0..plan.direct.len() {
                    self.send_signal(rank, plan.direct[idx], sig);
                }
                for pos in plan.root_children() {
                    self.send_relay(rank, sig, &plan, pos);
                }
            }
        }
    }

    /// Ship one plain dependency signal toward `dest`, through the
    /// coalescing layer (pass-through when coalescing is off).
    fn send_signal(&mut self, rank: &mut Rank, dest: usize, sig: Signal) {
        // Signals ride the droppable/duplicable path; the receiving
        // inbox deduplicates (post_unique) and the stall detector
        // diagnoses drops. try_with_state: a straggling duplicate may
        // land after the factorization state is torn down.
        self.comm
            .send(rank, dest, SIGNAL_WIRE_BYTES, move |target| {
                target.try_with_state::<FactoEngine, _>(|_, st| {
                    st.rt.post_unique(sig);
                });
            });
    }

    /// Ship a signal that also assigns a relay duty: the receiver — the
    /// leader at tree position `pos` of `plan` — must forward the block
    /// onward once its data arrives. The duty is installed only on first
    /// acceptance, so fault-injected duplicates never relay twice.
    fn send_relay(&mut self, rank: &mut Rank, sig: Signal, plan: &Arc<BcastPlan>, pos: usize) {
        let dest = plan.leaders[pos];
        let plan = Arc::clone(plan);
        self.comm
            .send(rank, dest, SIGNAL_WIRE_BYTES, move |target| {
                let plan = Arc::clone(&plan);
                target.try_with_state::<FactoEngine, _>(|_, st| {
                    if st.rt.post_unique(sig) {
                        st.relays.insert(sig.ptr, RelayDuty { plan, pos });
                    }
                });
            });
    }

    /// Discharge a relay duty: re-host the arrived block in this rank's
    /// shared heap and signal the leader's node members (flat) plus its
    /// child leaders (who inherit relay duties of their own). Virtual-time
    /// honesty: the block cannot leave this rank before it arrived, so the
    /// leader's clock first advances to the fetch completion time.
    fn forward_relay(
        &mut self,
        rank: &mut Rank,
        s: &Signal,
        data: &[f64],
        ready_at: f64,
        duty: RelayDuty,
    ) {
        rank.advance_to(ready_at);
        let ptr = rank
            .alloc(MemKind::Host, data.len())
            .expect("host allocation cannot fail");
        rank.write_local(&ptr, data);
        let fwd = Signal { ptr, ..*s };
        let RelayDuty { plan, pos } = duty;
        for idx in 0..plan.members[pos].len() {
            self.send_signal(rank, plan.members[pos][idx], fwd);
        }
        for child in plan.children_of(pos) {
            self.send_relay(rank, fwd, &plan, child);
        }
    }

    /// Publish a freshly factored owned block: fan it out, store it (its
    /// one resident copy) and release its local consumers.
    fn publish_factored(&mut self, rank: &mut Rank, blk: BlockId, data: Block) {
        self.fanout(rank, blk, &data);
        let now = rank.now();
        let bytes = data.bytes();
        self.store.put_slot(blk as usize, data);
        self.release_consumers(blk, bytes, now);
    }

    fn exec_diag(&mut self, rank: &mut Rank, key: TaskKey, j: usize, ops: TaskOps) {
        let mut m = self
            .store
            .take_slot(ops.target as usize)
            .expect("diag block owned")
            .into_dense();
        let first = self.sf.partition.first_col(j);
        let Some(secs) = sched::potrf_or_fail(&mut self.rt, &mut self.kernels, rank, &mut m, first)
        else {
            self.store.put_slot(ops.target as usize, m);
            return;
        };
        self.rt.charge(rank, key, secs);
        self.publish_factored(rank, ops.target, Block::Dense(m));
    }

    fn exec_panel(&mut self, rank: &mut Rank, key: TaskKey, ops: TaskOps) {
        let mut b = self
            .store
            .take_slot(ops.target as usize)
            .expect("panel block owned")
            .into_dense();
        let ldiag = block(&self.store, &self.inputs, ops.a)
            .expect("diagonal factor present")
            .dense();
        let (_loc, mut secs) = self.kernels.trsm(&mut b, ldiag);
        // BLR: try to truncate the factored panel right after the solve —
        // before publication — so storage, wire bytes, and every downstream
        // update see the compressed form. Disabled-tolerance runs skip this
        // branch entirely and stay bit-identical to the dense engine.
        let stored = if self.kernels.blr.eligible(b.rows(), b.cols()) {
            let (lr, csecs) = self.kernels.compress_block(&b);
            secs += csecs;
            match lr {
                Some(lr) => Block::LowRank(lr),
                None => Block::Dense(b),
            }
        } else {
            Block::Dense(b)
        };
        self.rt.charge(rank, key, secs);
        self.publish_factored(rank, ops.target, stored);
    }

    /// `U(a,j,b)`: form `−L(a,j)·L(b,j)ᵀ` in the reusable workspace, then
    /// scatter-add it into the target block, which is taken out of the
    /// store for the duration (the operands are borrowed from it).
    fn exec_update(&mut self, rank: &mut Rank, key: TaskKey, ops: TaskOps) {
        // SYRK into a diagonal block when both operands are the same panel.
        let syrk = ops.a == ops.b;
        let la = block(&self.store, &self.inputs, ops.a).expect("input L(a,j) present");
        let lb = block(&self.store, &self.inputs, ops.b).expect("input L(b,j) present");
        let (ma, nb) = (la.rows(), lb.rows());
        let mut buf = std::mem::take(&mut self.work);
        buf.clear();
        buf.resize(ma * nb, 0.0);
        let mut temp = Mat::from_col_major(ma, nb, buf);
        let (_loc, secs) = if syrk {
            self.kernels.syrk_any(&mut temp, lb.as_ref())
        } else {
            self.kernels.gemm_any(&mut temp, la.as_ref(), lb.as_ref())
        };
        self.rt.charge(rank, key, secs);
        let (b, _) = self.graph.blocks[ops.b as usize];
        let first_b = self.sf.partition.first_col(b);
        let rows_a = self.graph.block_rows(&self.sf, ops.a);
        let rows_b = self.graph.block_rows(&self.sf, ops.b);
        // Row map: where each row of L(a,j) lands in the target block.
        self.row_map.clear();
        if syrk {
            self.row_map.extend(rows_b.iter().map(|&r| r - first_b));
        } else {
            // Rows of L(a,j) within supernode a are a subset of the target
            // block's rows (symbolic containment); both lists ascend, so
            // one forward walk finds them all.
            let target_rows = self.graph.block_rows(&self.sf, ops.target);
            let mut t = 0;
            for &r in rows_a {
                while target_rows[t] != r {
                    t += 1;
                }
                self.row_map.push(t);
                t += 1;
            }
        }
        let mut target = self
            .store
            .take_slot(ops.target as usize)
            .expect("target block owned");
        let tm = target.dense_mut();
        let ld = tm.ld();
        let (dst, src) = (tm.as_mut_slice(), temp.as_slice());
        for (ci, &gc) in rows_b.iter().enumerate() {
            // SYRK fills the lower triangle only: rows from the diagonal.
            let r0 = if syrk { ci } else { 0 };
            let tcol = &mut dst[(gc - first_b) * ld..][..ld];
            let scol = &src[ci * ma..][..ma];
            for (&tr, &v) in self.row_map[r0..].iter().zip(&scol[r0..]) {
                tcol[tr] += v;
            }
        }
        self.store.put_slot(ops.target as usize, target);
        self.work = temp.into_vec();
        // Local successor: the panel (or diagonal) task of the target block,
        // which carries the block's id.
        self.rt
            .dec_from_id(ops.target, rank.now(), || key.trace_label());
    }
}

impl sched::Engine for FactoEngine {
    type Key = TaskKey;
    type Sig = Signal;

    const STALL_DETAIL: &'static str =
        "factorization quiesced with unfinished tasks (dropped signal suspected)";

    fn step(&mut self, rank: &mut Rank) -> bool {
        self.drain_pending(rank);
        // Quantum-expired frames flush as virtual time advances; when the
        // rank has no ready work at all, everything buffered must go out so
        // a held-back signal can never starve the job into a false stall.
        self.comm.tick(rank);
        let Some((id, key, ready_at)) = self.rt.pick() else {
            self.comm.flush_all(rank);
            return false;
        };
        self.rt.begin(rank, ready_at);
        let ops = self.graph.ops[id as usize];
        match key {
            TaskKey::Diag { j } => self.exec_diag(rank, key, j, ops),
            TaskKey::Panel { .. } => self.exec_panel(rank, key, ops),
            TaskKey::Update { .. } => self.exec_update(rank, key, ops),
        }
        self.rt.complete(id);
        true
    }

    fn rt(&mut self) -> &mut TaskEngine<TaskKey, Signal> {
        &mut self.rt
    }

    fn publish_stats(&self) -> PublishStats {
        self.publish
    }

    fn into_factor(self) -> (BlockStore, KernelEngine) {
        (self.store, self.kernels)
    }
}
