//! The engine contract, from the consumer side: a toy engine that writes
//! only what [`Engine`] asks for — `exec`, `on_data`, an accessor — and gets
//! every cross-cutting feature of `sympack::sched` without a line of wire,
//! relay, dedup, stall or accounting code of its own.
//!
//! The toy: rank 0 publishes a payload to every other rank (`Ping`); each
//! of them consumes it and publishes it back (`Pong`); rank 0 finishes once
//! every echo has arrived (`Done`).

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack::plan::{factor_numeric, make_kernels};
use sympack::sched::{
    self, CommLayer, Core, Engine, FetchConfig, FetchMode, Meta, RankOf, TaskEngine,
};
use sympack::sched::{Graph, PublishStats, RtqPolicy, TaskId, TaskKind};
use sympack::storage::BlockStore;
use sympack::trisolve::{self, SolveParams};
use sympack::{BcastTopology, CoalesceConfig, SolvePlan, SolverError, SolverOptions};
use sympack_dense::{KernelConfig, Mat};
use sympack_gpu::{KernelEngine, OomPolicy};
use sympack_pgas::{FaultPlan, Payload, PgasConfig, RunReport, Runtime};
use sympack_sparse::gen::laplacian_2d;
use sympack_sparse::vecops::{max_abs_diff, test_rhs};
use sympack_sparse::SparseSym;
use sympack_trace::{SpanKind, TraceCat, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Toy {
    Ping,
    Pong,
    Done,
}

impl TaskKind for Toy {
    fn priority_key(&self) -> (usize, usize) {
        (*self as usize, 0)
    }
    fn seed_key(&self) -> (usize, usize, usize, usize) {
        (*self as usize, 0, 0, 0)
    }
    fn kind_name(&self) -> &'static str {
        "toy"
    }
    fn trace_label(&self) -> String {
        format!("{self:?}")
    }
    fn trace_cat(&self) -> TraceCat {
        TraceCat::Other
    }
}

/// The toy's message metadata: who published the payload.
#[derive(Debug, Clone, Copy)]
struct From(usize);

impl Meta for From {
    fn describe(&self) -> String {
        format!("toy payload of rank {}", self.0)
    }
}

// ---- the whole engine: state, `exec`, `on_data` -------------------------
struct ToyEngine {
    core: Core<Toy, From>,
    /// Every payload value received, in arrival order.
    got: Vec<f64>,
}

impl Engine for ToyEngine {
    type Key = Toy;
    type Meta = From;
    const STALL_DETAIL: &'static str = "toy engine quiesced (dropped ping or pong suspected)";

    fn core(&mut self) -> &mut Core<Toy, From> {
        &mut self.core
    }

    fn exec(&mut self, rank: &mut RankOf<Self>, _id: TaskId, key: Toy) {
        let me = From(rank.id());
        let others: Vec<usize> = (1..rank.n_ranks()).collect();
        let comm = &mut self.core.comm;
        match key {
            Toy::Ping => comm.publish(rank, vec![1.0, 2.0, 3.0], None, &others, me),
            Toy::Pong => comm.publish(rank, self.got.clone(), None, &[0], me),
            Toy::Done => {}
        }
        self.core.rt.charge(rank, key, 1.0e-6);
    }

    fn on_data(&mut self, rank: &mut RankOf<Self>, _from: From, data: Payload, ready_at: f64) {
        self.got.extend(data.iter());
        // Rank 0's `Done` is its task 1, every other rank's `Pong` task 0.
        let next = TaskId::from(rank.id() == 0);
        self.core.rt.dec_id(next, ready_at);
    }

    fn into_factor(self) -> (BlockStore, KernelEngine) {
        (BlockStore::default(), KernelEngine::new_cpu())
    }
}
// -------------------------------------------------------------------------

/// What one rank reports back from a toy run.
struct Outcome {
    got: Vec<f64>,
    error: Option<SolverError>,
    published: PublishStats,
    exec_spans: Vec<String>,
}

/// Rank `rank`'s toy engine: rank 0 pings every other rank and waits for
/// their echoes.
fn toy_engine(
    rank: &RankOf<ToyEngine>,
    topology: BcastTopology,
    coalesce: Option<CoalesceConfig>,
    abort: &Arc<AtomicBool>,
) -> ToyEngine {
    let graph = if rank.id() == 0 {
        let waits = rank.n_ranks() as u32 - 1;
        Graph::new(vec![Toy::Ping, Toy::Done], vec![0, waits])
    } else {
        Graph::new(vec![Toy::Pong], vec![1])
    };
    let mut rt = TaskEngine::new(&graph, RtqPolicy::Fifo, Arc::clone(abort));
    rt.tracer = Some(Tracer::new());
    ToyEngine {
        core: Core {
            rt,
            comm: CommLayer::new(coalesce, topology),
            fetch: FetchConfig::for_engine(false, OomPolicy::CpuFallback, FetchMode::NonBlocking),
        },
        got: Vec::new(),
    }
}

/// Run the toy on 2 nodes × 2 ranks under lockstep.
fn run_toy(
    topology: BcastTopology,
    coalesce: Option<CoalesceConfig>,
    faults: Option<FaultPlan>,
) -> RunReport<Outcome> {
    let mut config = PgasConfig::multi_node(2, 2);
    config.deterministic = true;
    config.faults = faults;
    let abort = Arc::new(AtomicBool::new(false));
    Runtime::spmd(config, |rank| {
        let engine = toy_engine(rank, topology, coalesce, &abort);
        let (mut engine, _elapsed) = sched::run_to_completion(rank, engine);
        let events = engine
            .core
            .rt
            .tracer
            .take()
            .expect("installed")
            .into_events();
        Outcome {
            got: engine.got,
            error: engine.core.rt.error.take(),
            published: engine.core.comm.stats(),
            exec_spans: events
                .into_iter()
                .filter(|ev| ev.kind == SpanKind::Exec)
                .map(|ev| ev.name)
                .collect(),
        }
    })
}

/// Every rank finished cleanly and received each payload exactly once.
fn assert_clean(run: &RunReport<Outcome>, what: &str) {
    for (r, out) in run.results.iter().enumerate() {
        assert!(out.error.is_none(), "{what}: rank {r}: {:?}", out.error);
        let echoes = if r == 0 { 3 } else { 1 };
        let want: Vec<f64> = [1.0, 2.0, 3.0].repeat(echoes);
        assert_eq!(out.got, want, "{what}: rank {r} payloads");
    }
}

#[test]
fn a_toy_engine_inherits_publication_accounting_and_tracing() {
    let run = run_toy(BcastTopology::Flat, None, None);
    assert_clean(&run, "flat");
    for (r, out) in run.results.iter().enumerate() {
        // One payload of three f64 each, counted by the publication layer.
        assert_eq!(out.published.dense_blocks, 1, "rank {r}");
        assert_eq!(out.published.published_bytes(), 24, "rank {r}");
        let want: &[&str] = if r == 0 { &["Ping", "Done"] } else { &["Pong"] };
        assert_eq!(out.exec_spans, want, "rank {r} exec spans");
    }
    assert_eq!(run.stats.rgets, 6, "one fetch per delivered payload");
    assert_eq!(run.stats.frames, 0);
    assert_eq!(run.comm.msgs_between(2, 3), 0, "flat: nobody relays");
}

#[test]
fn a_toy_engine_inherits_signal_dedup() {
    let plan = FaultPlan {
        dup_prob: 1.0,
        ..FaultPlan::duplication(7)
    };
    let run = run_toy(BcastTopology::Flat, None, Some(plan));
    assert!(run.stats.rpcs_duplicated > 0, "the plan never duplicated");
    assert_clean(&run, "duplicated signals");
    assert_eq!(run.stats.rgets, 6, "a duplicate must not fetch again");
}

#[test]
fn a_toy_engine_inherits_the_stall_diagnosis() {
    let plan = FaultPlan {
        drop_prob: 1.0,
        dup_prob: 0.0,
        ..FaultPlan::duplication(7)
    };
    let run = run_toy(BcastTopology::Flat, None, Some(plan));
    let stalled = run.results.iter().find_map(|out| match &out.error {
        Some(SolverError::Stalled { detail, .. }) => Some(detail.as_str()),
        _ => None,
    });
    assert_eq!(stalled, Some(ToyEngine::STALL_DETAIL));
}

#[test]
fn a_toy_engine_inherits_coalesced_frames() {
    let run = run_toy(BcastTopology::Flat, Some(CoalesceConfig::default()), None);
    assert_clean(&run, "coalesced");
    assert!(run.stats.frames > 0, "signals must travel framed");
    assert_eq!(run.stats.frame_subs, 6, "every signal rode a frame");
}

#[test]
fn a_toy_engine_inherits_the_broadcast_tree() {
    // Rank 0 (node 0) pings ranks 1, 2, 3: rank 1 directly, node 1 through
    // its leader rank 2, which re-hosts the payload and relays to rank 3.
    let run = run_toy(BcastTopology::Tree { arity: 2 }, None, None);
    assert_clean(&run, "tree");
    assert_eq!(
        run.comm.msgs_between(0, 3),
        0,
        "the owner never signals rank 3"
    );
    assert!(run.comm.msgs_between(2, 3) > 0, "the leader relays");
    assert!(
        run.comm.bytes_between(2, 3) >= 24,
        "rank 3 pulls from the leader"
    );
}

/// A duplicated signal that outlives the factor loop is the next phase's
/// to drop. Under a plan that duplicates every signal, each rank runs the
/// toy's factor loop, then rank 0 publishes once more to rank 3: both
/// copies of that signal drain in the triangular solve that follows on a
/// real factor, which ignores them and still matches a dense oracle.
#[test]
fn a_duplicate_signal_drained_by_the_solve_is_ignored() {
    let a = laplacian_2d(6, 6);
    let opts = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        deterministic: true,
        faults: Some(FaultPlan {
            dup_prob: 1.0,
            ..FaultPlan::duplication(7)
        }),
        ..Default::default()
    };
    let plan = SolvePlan::new(&a, &opts);
    let ap = plan.permute(&a);
    let nf = factor_numeric(&plan, &Arc::new(ap.clone())).expect("factor");
    let bp = test_rhs(ap.n());
    let abort = Arc::new(AtomicBool::new(false));
    let params = SolveParams {
        policy: RtqPolicy::Lifo,
        msg_overhead: 0.0,
        trace: false,
    };
    let run = Runtime::spmd(plan.pgas_config(), |rank| {
        let engine = toy_engine(rank, BcastTopology::Flat, None, &abort);
        let (mut engine, _) = sched::run_to_completion(rank, engine);
        if rank.id() == 0 {
            let comm = &mut engine.core.comm;
            comm.publish(rank, vec![9.0], None, &[3], From(0));
        }
        let me = rank.id();
        let (sf, tasks) = (&plan.symbolic.sf, &plan.symbolic.solve_tasks[me]);
        let (sf, tasks) = (Arc::clone(sf), Arc::clone(tasks));
        let kernels = make_kernels(&opts);
        let solve =
            trisolve::solve_panel(rank, sf, tasks, &nf.stores[me], &bp, 1, kernels, &params);
        let pieces: Vec<(usize, Vec<f64>)> =
            solve.x.pieces().map(|(sn, x)| (sn, x.to_vec())).collect();
        (engine.got, pieces, solve.error)
    });
    // Asserted out here: a rank that panics under lockstep strands its peers.
    for (r, (_, _, error)) in run.results.iter().enumerate() {
        assert!(error.is_none(), "rank {r}: {error:?}");
    }
    // Ping, pong and the straggler, each delivered twice.
    assert_eq!(run.stats.rpcs_duplicated, 3 + 3 + 1);
    assert_eq!(
        run.results[3].0,
        [1.0, 2.0, 3.0],
        "no engine saw the straggler"
    );
    let mut xp = vec![0.0; ap.n()];
    for (sn, piece) in run.results.iter().flat_map(|(_, pieces, _)| pieces) {
        let first = plan.symbolic.sf.partition.first_col(*sn);
        xp[first..first + piece.len()].copy_from_slice(piece);
    }
    let oracle = dense_solve(&ap, &bp);
    let scale = oracle.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    let err = max_abs_diff(&xp, &oracle) / scale;
    assert!(err < 1e-13, "solve vs dense oracle: {err:e}");
}

/// Dense Cholesky oracle: solve `a·x = b` via `sympack-dense`.
fn dense_solve(a: &SparseSym, b: &[f64]) -> Vec<f64> {
    let n = a.n();
    let mut m = Mat::zeros(n, n);
    for c in 0..n {
        for r in 0..n {
            m[(r, c)] = a.get(r, c);
        }
    }
    sympack_dense::potrf_cfg(&KernelConfig::default(), &mut m).expect("oracle requires SPD");
    m.zero_upper();
    let mut x = b.to_vec();
    trisolve::forward_subst(&m, &mut x);
    trisolve::backward_subst(&m, &mut x);
    x
}
