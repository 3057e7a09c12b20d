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

use crate::column::{factor_column, ColumnBuf};
use crate::rightlooking::{core_for, owner_of, RENDEZVOUS_OVERHEAD};
use crate::run;
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack::map2d::ProcGrid;
use sympack::plan::{EngineFamily, SolvePlan};
use sympack::sched::{self, Core, Engine, FetchMode, TaskEngine, TaskKind};
use sympack::storage::BlockStore;
use sympack::update::{apply_update, UpdateScratch};
use sympack::{SolveReport, SolverError, SolverOptions};
use sympack_gpu::KernelEngine;
use sympack_pgas::{Payload, Rank};
use sympack_sparse::SparseSym;
use sympack_symbolic::SymbolicFactor;
use sympack_trace::TraceCat;

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

/// The `meta` of an aggregate: the packed updates of one rank to target
/// supernode `target` (a [`ColumnBuf`] of it).
#[derive(Debug, Clone, Copy)]
struct AggMeta {
    target: usize,
}

impl sched::Meta for AggMeta {
    fn describe(&self) -> String {
        format!("aggregate update for supernode {}", self.target)
    }
}

/// Per-rank fan-in engine, installed as the rank's user state.
struct FiEngine {
    sf: Arc<SymbolicFactor>,
    store: BlockStore,
    kernels: KernelEngine,
    core: Core<FiKey, AggMeta>,
    /// Aggregation buffers for remote targets, keyed by target supernode.
    aggs: HashMap<usize, ColumnBuf>,
    /// Outstanding local contributions per remote target.
    my_contribs: HashMap<usize, usize>,
    scratch: UpdateScratch,
    p: usize,
    me: usize,
}

impl FiEngine {
    fn new(
        plan: &SolvePlan,
        ap: &SparseSym,
        rank: usize,
        kernels: KernelEngine,
        abort: Arc<AtomicBool>,
    ) -> Self {
        let (sf, grid, opts) = (Arc::clone(plan.sf()), plan.grid(), &plan.opts);
        let p = grid.n_procs();
        let store = BlockStore::init(&sf, ap, &grid, rank);
        let ns = sf.n_supernodes();
        let mut rt = TaskEngine::new(opts.rtq_policy, abort);
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
        FiEngine {
            core: core_for(rt, &kernels, opts, mode),
            sf,
            store,
            kernels,
            aggs: HashMap::new(),
            my_contribs,
            scratch: UpdateScratch::default(),
            p,
            me: rank,
        }
    }

    /// Apply the update pairs of factored supernode `j` into either the
    /// local store (owned targets) or the aggregation buffers (remote
    /// targets).
    fn scatter_updates(&mut self, rank: &mut Rank, key: FiKey) {
        let (j, sf) = (key.j, &self.sf);
        let col = sf.layout.blocks_of(j);
        for (bi, bb) in col.iter().enumerate() {
            let b = bb.target;
            let local = owner_of(b, self.p) == self.me;
            let of_b = sf.layout.blocks_of(b);
            for ba in &col[bi..] {
                let a = ba.target;
                // Which block of supernode b is the target (a,b)?
                let tidx = (a != b).then(|| {
                    let found = of_b.binary_search_by_key(&a, |t| t.target);
                    found.expect("target block exists")
                });
                // An owned target leaves the store while the operands are
                // borrowed from it; a remote one is its aggregate's block.
                let mut owned = local.then(|| self.store.take((a, b)).expect("target owned"));
                let target = match &mut owned {
                    Some(block) => block.dense_mut(),
                    None => {
                        let agg = self.aggs.entry(b);
                        let agg = agg.or_insert_with(|| ColumnBuf::zeros(sf, b));
                        &mut agg.mats[tidx.map_or(0, |t| t + 1)]
                    }
                };
                let operand = |i| self.store.get((i, j)).expect("factored block local");
                let secs = apply_update(
                    &mut self.kernels,
                    &mut self.scratch,
                    &mut self.core.rt.wall,
                    operand(a).as_ref(),
                    operand(b).as_ref(),
                    sf.block_rows(j, ba),
                    sf.block_rows(j, bb),
                    tidx.map(|t| sf.block_rows(b, &of_b[t])),
                    sf.partition.first_col(b),
                    target,
                );
                if let Some(block) = owned {
                    self.store.put((a, b), block);
                }
                self.core.rt.charge(rank, key, secs);
            }
        }
    }
}

impl Engine for FiEngine {
    type Key = FiKey;
    type Meta = AggMeta;

    const STALL_DETAIL: &'static str =
        "fan-in factorization quiesced with unfinished tasks (dropped aggregate suspected)";

    fn core(&mut self) -> &mut Core<FiKey, AggMeta> {
        &mut self.core
    }

    /// Factor supernode `j` and fan its updates in: owned targets are
    /// updated in place, remote targets accumulate into aggregation buffers
    /// shipped once the last local contribution lands.
    fn exec(&mut self, rank: &mut Rank, _id: sched::TaskId, key: FiKey) {
        let (j, sf) = (key.j, &self.sf);
        let rt = &mut self.core.rt;
        if !factor_column(rt, &mut self.kernels, &mut self.store, sf, rank, key, j) {
            return;
        }
        // Compute this supernode's updates at the source (fan-in).
        self.scatter_updates(rank, key);
        let now = rank.now();
        for b in self.sf.layout.blocks_of(j).iter().map(|bb| bb.target) {
            let owner = owner_of(b, self.p);
            if owner == self.me {
                self.core.rt.dec(FiKey { j: b }, now);
                continue;
            }
            let c = self.my_contribs.get_mut(&b).expect("contrib counted");
            *c -= 1;
            if *c == 0 {
                // Last local contribution folded in: ship the aggregate
                // once.
                let packed = self.aggs.remove(&b).expect("aggregate exists").pack();
                let meta = AggMeta { target: b };
                self.core
                    .comm
                    .publish::<Self>(rank, packed, None, &[owner], meta);
            }
        }
    }

    /// An aggregate arrived (a blocking two-sided receive): fold it into the
    /// owned target and release its factor task.
    fn on_data(&mut self, _rank: &mut Rank, meta: AggMeta, data: Payload, ready_at: f64) {
        let b = meta.target;
        ColumnBuf::unpack(&self.sf, b, &data).add_into(&self.sf, &mut self.store, b);
        self.core.rt.dec(FiKey { j: b }, ready_at);
    }

    fn into_factor(self) -> (BlockStore, KernelEngine) {
        (self.store, self.kernels)
    }
}

/// The fan-in family on the solver's run path: 1D map, a rendezvous per
/// solve message.
const FAN_IN: EngineFamily<FiEngine> = EngineFamily {
    label: "fanin",
    msg_overhead: RENDEZVOUS_OVERHEAD,
    engine: FiEngine::new,
};

/// Factor and solve with the fan-in algorithm; panics on failure (see
/// [`try_fanin_factor_and_solve`] for the fallible form).
pub fn fanin_factor_and_solve(a: &SparseSym, b: &[f64], opts: &SolverOptions) -> SolveReport {
    try_fanin_factor_and_solve(a, b, opts).expect("fan-in factorization failed")
}

/// Factor and solve with the fan-in algorithm.
///
/// # Errors
/// As [`crate::try_baseline_factor_and_solve_multi`].
pub fn try_fanin_factor_and_solve(
    a: &SparseSym,
    b: &[f64],
    opts: &SolverOptions,
) -> Result<SolveReport, SolverError> {
    run(&FAN_IN, ProcGrid::one_dimensional, a, &[b.to_vec()], opts).map(SolveReport::from)
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
        let r = fanin_factor_and_solve(&a, &b, &SolverOptions::default());
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
                &SolverOptions {
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
        let opts = SolverOptions {
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
