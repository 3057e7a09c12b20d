//! The per-rank factorization executor: fan-out communication and the
//! task-execution bodies of the paper's Figs. 3–4. All scheduling (LTQ,
//! RTQ, signal inbox, dependency counters, abort) runs through the shared
//! [`crate::sched::TaskEngine`].

use crate::plan::EngineParts;
use crate::sched::{self, Core, RankOf, TaskId, TaskKind, Wall};
use crate::storage::{Block, BlockStore};
use crate::taskgraph::{BlockId, LocalTasks, RtqPolicy, TaskKey, TaskOps};
use crate::update::{apply_update, UpdateScratch};
use std::sync::Arc;
use sympack_dense::{LowRankMat, Mat};
use sympack_gpu::KernelEngine;
use sympack_pgas::Payload;
use sympack_symbolic::SymbolicFactor;

/// Sentinel rank meaning "dense payload" on the signal wire.
const DENSE_WIRE: usize = usize::MAX;

/// The `meta` of the fan-out's `signal(ptr, meta)`: which factored block
/// the payload is and in what form. `lr_rank == usize::MAX` means the dense
/// column-major block; any other value means the concatenated `[U | V]`
/// factors of that rank.
#[derive(Debug, Clone, Copy)]
pub struct BlockMeta {
    i: usize,
    j: usize,
    rows: usize,
    cols: usize,
    lr_rank: usize,
}

impl sched::Meta for BlockMeta {
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

/// Per-rank factorization engine; the factor loop delivers its signals.
pub struct FactoEngine {
    sf: Arc<SymbolicFactor>,
    /// This rank's compiled task-graph slice, shared with the plan: task
    /// and block ids, consumer lists, operands, fan-out destinations.
    graph: Arc<LocalTasks>,
    /// This rank's blocks of `A` (progressively overwritten with `L`);
    /// slot ids are the graph's owned block ids. A factored block lives
    /// here and nowhere else — local consumers read it in place.
    pub store: BlockStore,
    /// The shared core: scheduling, publication (topology, coalescing,
    /// byte accounting) and the fetch path.
    pub core: Core<TaskKey, BlockMeta>,
    /// Fetched remote factored blocks, indexed by `block id − n_owned`.
    /// Availability *time* is tracked on the consuming tasks (via their
    /// dependency decrements), not on the block itself. Compressed panels
    /// stay compressed: the update kernels consume them in factored form.
    inputs: Vec<Option<Block>>,
    /// Product temporary and row map of the update kernel, reused by every
    /// update task.
    scratch: UpdateScratch,
    /// Dense-kernel executor with offload heuristic and op counters.
    pub kernels: KernelEngine,
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
    /// The fan-out engine from the parts [`crate::plan::EngineFamily::build`]
    /// made for one rank: fix the BLR truncation scale, check that the store
    /// and the plan's graph agree, and record the CommAware urgencies.
    pub fn new(parts: EngineParts<'_, Self, LocalTasks>) -> Self {
        let EngineParts {
            plan,
            ap,
            graph,
            store,
            mut core,
            mut kernels,
            ..
        } = parts;
        if kernels.blr.enabled() {
            // Global truncation scale: ‖A‖_F is permutation-invariant, so
            // every rank computes the identical value from its copy of the
            // permuted matrix (the absolute-threshold BLR criterion).
            kernels.blr_scale = ap.frobenius_norm();
        }
        assert_eq!(
            store.keys(),
            &graph.blocks[..graph.n_owned],
            "task graph was compiled for another rank or grid"
        );
        if plan.opts.rtq_policy == RtqPolicy::CommAware {
            // Overlap-driven urgency: a factor task's output unblocks this
            // many *remote* ranks, so producing it early feeds the network
            // while local update work hides behind the transfers. (Factor
            // task `l` factors owned block `l`.)
            for l in 0..graph.n_owned as BlockId {
                let urg = graph.dests_of(l).len();
                if urg > 0 {
                    core.rt.set_urgency(l, urg as u64);
                }
            }
        }
        let n_inputs = graph.blocks.len() - graph.n_owned;
        FactoEngine {
            sf: Arc::clone(plan.sf()),
            store,
            core,
            inputs: (0..n_inputs).map(|_| None).collect(),
            graph,
            scratch: UpdateScratch::default(),
            kernels,
        }
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
            self.core
                .rt
                .dec_from_id(t, ready_at, || producer.trace_label());
        }
        self.core.rt.add_mem(bytes);
    }

    /// Publish a freshly factored owned block: fan it out to the ranks
    /// owning dependent tasks (Fig. 4 steps 1–2; a compressed panel ships
    /// its `[U | V]` factors — (rows+cols)·rank values instead of
    /// rows·cols), store it and release its local consumers. A dense block
    /// is frozen, not copied: the store, the shared-heap segment and every
    /// consumer's input are the one buffer.
    fn publish_factored(&mut self, rank: &mut RankOf<Self>, blk: BlockId, mut data: Block) {
        let dests = self.graph.dests_of(blk);
        if !dests.is_empty() {
            let (i, j) = self.graph.blocks[blk as usize];
            let (rows, cols) = (data.rows(), data.cols());
            let (payload, lr_dense_equiv, lr_rank) = match &mut data {
                Block::Dense(m) => (m.share(), None, DENSE_WIRE),
                Block::LowRank(lr) => (Payload::new(lr.to_payload()), Some(rows * cols), lr.rank()),
            };
            let meta = BlockMeta {
                i,
                j,
                rows,
                cols,
                lr_rank,
            };
            self.core.rt.wall.lap(Wall::Bookkeeping);
            self.core
                .comm
                .publish(rank, payload, lr_dense_equiv, dests, meta);
            self.core.rt.wall.lap(Wall::Publish);
        }
        let now = rank.now();
        let bytes = data.bytes();
        self.store.put_slot(blk as usize, data);
        self.release_consumers(blk, bytes, now);
    }

    fn exec_diag(&mut self, rank: &mut RankOf<Self>, key: TaskKey, j: usize, ops: TaskOps) {
        let mut m = self
            .store
            .take_slot(ops.target as usize)
            .expect("diag block owned")
            .into_dense();
        let first = self.sf.partition.first_col(j);
        self.core.rt.wall.lap(Wall::Bookkeeping);
        let Some(secs) =
            sched::potrf_or_fail(&mut self.core.rt, &mut self.kernels, rank, &mut m, first)
        else {
            self.store.put_slot(ops.target as usize, m);
            return;
        };
        self.core.rt.wall.lap(Wall::Kernel);
        self.core.rt.charge(rank, key, secs);
        self.publish_factored(rank, ops.target, Block::Dense(m));
    }

    fn exec_panel(&mut self, rank: &mut RankOf<Self>, key: TaskKey, ops: TaskOps) {
        let mut b = self
            .store
            .take_slot(ops.target as usize)
            .expect("panel block owned")
            .into_dense();
        let ldiag = block(&self.store, &self.inputs, ops.a)
            .expect("diagonal factor present")
            .dense();
        self.core.rt.wall.lap(Wall::Bookkeeping);
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
        self.core.rt.wall.lap(Wall::Kernel);
        self.core.rt.charge(rank, key, secs);
        self.publish_factored(rank, ops.target, stored);
    }

    /// `U(a,j,b)` into the owned target block, which is taken out of the
    /// store for the duration (the operands are borrowed from it).
    fn exec_update(&mut self, rank: &mut RankOf<Self>, key: TaskKey, ops: TaskOps) {
        let (graph, sf) = (&self.graph, &self.sf);
        let mut target = self
            .store
            .take_slot(ops.target as usize)
            .expect("target block owned");
        let la = block(&self.store, &self.inputs, ops.a).expect("input L(a,j) present");
        let lb = block(&self.store, &self.inputs, ops.b).expect("input L(b,j) present");
        let (b, _) = graph.blocks[ops.b as usize];
        // SYRK into a diagonal block when both operands are the same panel.
        let target_rows = (ops.a != ops.b).then(|| graph.block_rows(sf, ops.target));
        let secs = apply_update(
            &mut self.kernels,
            &mut self.scratch,
            &mut self.core.rt.wall,
            la.as_ref(),
            lb.as_ref(),
            graph.block_rows(sf, ops.a),
            graph.block_rows(sf, ops.b),
            target_rows,
            sf.partition.first_col(b),
            target.dense_mut(),
        );
        self.store.put_slot(ops.target as usize, target);
        self.core.rt.charge(rank, key, secs);
        // Local successor: the panel (or diagonal) task of the target block,
        // which carries the block's id.
        self.core
            .rt
            .dec_from_id(ops.target, rank.now(), || key.trace_label());
    }
}

impl sched::Engine for FactoEngine {
    type Key = TaskKey;
    type Meta = BlockMeta;

    const STALL_DETAIL: &'static str =
        "factorization quiesced with unfinished tasks (dropped signal suspected)";

    fn core(&mut self) -> &mut Core<TaskKey, BlockMeta> {
        &mut self.core
    }

    fn exec(&mut self, rank: &mut RankOf<Self>, id: TaskId, key: TaskKey) {
        let ops = self.graph.ops[id as usize];
        match key {
            TaskKey::Diag { j } => self.exec_diag(rank, key, j, ops),
            TaskKey::Panel { .. } => self.exec_panel(rank, key, ops),
            TaskKey::Update { .. } => self.exec_update(rank, key, ops),
        }
    }

    /// A fanned-out block arrived: a dense one is its owner's buffer, wrapped
    /// (compressed panels stay compressed: the update kernels consume them
    /// in factored form).
    fn on_data(&mut self, _rank: &mut RankOf<Self>, s: BlockMeta, data: Payload, ready_at: f64) {
        let blk = if s.lr_rank == DENSE_WIRE {
            Block::Dense(Mat::from_shared(s.rows, s.cols, data))
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
    }

    fn into_factor(self) -> (BlockStore, KernelEngine) {
        (self.store, self.kernels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{factor_numeric, make_kernels, SolvePlan, FAN_OUT};
    use crate::SolverOptions;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;
    use sympack_dense::BlrConfig;
    use sympack_pgas::coalesce::BcastTopology;
    use sympack_pgas::Runtime;
    use sympack_sparse::gen::{bone_like, flan_like};

    /// `(block, address of its first element)` of every dense block a rank
    /// holds after its factor loop: the owned ones, and the fetched inputs.
    type Held = Vec<((usize, usize), usize)>;

    fn addresses<'a>(blocks: impl Iterator<Item = (&'a (usize, usize), &'a Block)>) -> Held {
        blocks
            .filter(|(_, b)| !b.is_lowrank())
            .map(|(k, b)| (*k, b.dense().as_slice().as_ptr() as usize))
            .collect()
    }

    #[test]
    fn every_dense_remote_input_is_its_owners_stored_buffer() {
        // The brick's top separators give blocks past the 64 × 64 elements
        // that take the device path of `fetch` under `gpu`.
        let (small, big) = (bone_like(5, 5, 4), flan_like(9, 9, 9));
        let blr_on = BlrConfig {
            tol: 1e-6,
            min_block: 4,
            ..Default::default()
        };
        let tree = BcastTopology::Tree { arity: 2 };
        for (n_nodes, ranks_per_node) in [(1, 2), (3, 1), (2, 2)] {
            for (bcast, blr, gpu) in [
                (BcastTopology::Flat, BlrConfig::default(), false),
                (tree, BlrConfig::default(), false),
                (BcastTopology::Flat, BlrConfig::default(), true),
                (BcastTopology::Flat, blr_on, false),
                (tree, blr_on, false),
            ] {
                let opts = SolverOptions {
                    n_nodes,
                    ranks_per_node,
                    gpu,
                    bcast,
                    blr,
                    ..Default::default()
                };
                let what = format!(
                    "{n_nodes}×{ranks_per_node} {bcast:?} blr={} gpu={gpu}",
                    blr.tol
                );
                let a = if gpu { &big } else { &small };
                let plan = SolvePlan::new(a, &opts);
                let ap = plan.permute(a);
                let abort = Arc::new(AtomicBool::new(false));
                let run = Runtime::spmd(plan.pgas_config(), |rank| {
                    let (me, abort) = (rank.id(), Arc::clone(&abort));
                    let engine = FAN_OUT.build(&plan, &ap, me, make_kernels(&opts), abort);
                    let (engine, _) = sched::run_to_completion(rank, engine);
                    assert!(engine.core.rt.error.is_none());
                    let fetched = engine.graph.blocks[engine.graph.n_owned..].iter();
                    let inputs = fetched.zip(&engine.inputs).map(|(k, b)| {
                        let b = b.as_ref().expect("every input of a finished rank arrived");
                        (k, b)
                    });
                    (addresses(engine.store.iter()), addresses(inputs))
                });
                let owned: HashMap<_, _> = run.results.iter().flat_map(|r| r.0.clone()).collect();
                let inputs: Held = run.results.iter().flat_map(|r| r.1.clone()).collect();
                assert!(!inputs.is_empty(), "{what}: nothing crossed ranks");
                for (key, at) in inputs {
                    assert_eq!(at, owned[&key], "{what}: input {key:?} is a copy");
                }
                assert_eq!(run.stats.copied_bytes, 0, "{what}");
                assert_eq!(run.stats.copies > 0, gpu, "{what}: device fetches");
                // The same factorization through the public path copies
                // nothing either, and hands back whole, unshared stores.
                let nf = factor_numeric(&plan, &Arc::new(ap)).unwrap();
                assert_eq!(nf.stats.copied_bytes, 0, "{what}");
                assert_eq!(
                    nf.stats.rgets + nf.stats.copies,
                    run.stats.rgets + run.stats.copies
                );
            }
        }
    }
}
