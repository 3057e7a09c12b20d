//! The advisory remaining-work estimate of the fan-out engine
//! ([`FactoEngine::estimated_remaining`]): nothing is stored for it, it is
//! summed on demand in task-id order from the compiled graph and whatever
//! form the operands are stored in at that moment.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack::engine::FactoEngine;
use sympack::plan::{make_kernels, SolvePlan, FAN_OUT};
use sympack::sched;
use sympack::{Block, SolverOptions};
use sympack_sparse::gen::{bone_like, random_spd};
use sympack_sparse::SparseSym;

/// Rank `rank`'s engine, built the way every factorization builds it.
fn engine_for(plan: &SolvePlan, ap: &SparseSym, rank: usize) -> FactoEngine {
    let abort = Arc::new(AtomicBool::new(false));
    FAN_OUT.build(plan, ap, rank, make_kernels(&plan.opts), abort)
}

#[test]
fn estimated_remaining_is_bit_reproducible_across_engines() {
    // Summed in task-id order over a shared compiled graph: two engines
    // (and the graph's own total) agree to the last bit, in this process
    // and in any other.
    let a = random_spd(90, 5, 4);
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 3,
        ..Default::default()
    };
    let plan = SolvePlan::new(&a, &opts);
    let ap = plan.permute(&a);
    for rank in 0..3 {
        let (e1, e2) = (engine_for(&plan, &ap, rank), engine_for(&plan, &ap, rank));
        let r1 = e1.estimated_remaining();
        assert!(r1 > 0.0);
        assert_eq!(r1.to_bits(), e2.estimated_remaining().to_bits());
        let total = plan.symbolic.tasks[rank].estimated_secs(
            plan.sf(),
            &e1.kernels.cost,
            &e1.kernels.config,
        );
        assert_eq!(r1.to_bits(), total.to_bits());
    }
}

#[test]
fn estimated_remaining_follows_stored_ranks_after_a_compressed_arrival() {
    let a = bone_like(6, 6, 5);
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 1,
        blr: sympack::BlrConfig {
            tol: 1e-6,
            min_block: 8,
            max_rank: usize::MAX,
        },
        ..Default::default()
    };
    let plan = SolvePlan::new(&a, &opts);
    let ap = plan.permute(&a);
    let report = sympack_pgas::Runtime::run(plan.pgas_config(), |rank| {
        let mut e = engine_for(&plan, &ap, 0);
        let (sf, graph) = (plan.sf(), &plan.symbolic.tasks[0]);
        let (cost, cfg) = (e.kernels.cost.clone(), e.kernels.config.clone());
        // The same unexecuted tasks, every operand assumed dense.
        let symbolic = |e: &FactoEngine| {
            e.core
                .rt
                .estimated_remaining(|_, k| k.estimate_secs(sf, &cost, &cfg))
        };
        let mut checked_first_arrival = false;
        while sched::step(&mut e, rank) {
            let (stored, dense) = (e.estimated_remaining(), symbolic(&e));
            match e.kernels.blr_counts.compressed {
                0 => assert_eq!(stored.to_bits(), dense.to_bits()),
                1 if !checked_first_arrival => {
                    // Exactly one compressed panel exists and all its
                    // consumers are still pending: the on-demand sum moves
                    // by their dense-minus-stored estimates.
                    checked_first_arrival = true;
                    let blk = (0..e.store.len())
                        .find(|&s| e.store.slot(s).is_some_and(Block::is_lowrank))
                        .expect("one compressed panel") as u32;
                    let r = e.store.slot(blk as usize).and_then(Block::lr_rank);
                    let saved: f64 = graph
                        .consumers_of(blk)
                        .iter()
                        .map(|&t| {
                            let (k, ops) = (graph.graph.keys[t as usize], graph.ops[t as usize]);
                            let ra = if ops.a == blk { r } else { None };
                            let rb = if ops.b == blk { r } else { None };
                            k.estimate_secs(sf, &cost, &cfg)
                                - k.estimate_secs_stored(sf, &cost, &cfg, ra, rb)
                        })
                        .sum();
                    assert!(saved != 0.0, "the stored rank must move the estimate");
                    assert!(((dense - stored) - saved).abs() <= 1e-12 * dense);
                }
                _ => {}
            }
        }
        assert!(e.core.rt.finished() && e.core.rt.error.is_none());
        assert_eq!(e.estimated_remaining(), 0.0);
        checked_first_arrival
    });
    assert!(report.results[0], "the run never compressed a panel");
}
