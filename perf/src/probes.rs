//! The one-off probes of a traced run and the per-layer metrics derived from
//! them and from the traced iterations. Every probe runs on every workload,
//! on the workload's own matrix and rank count, and calls public functions
//! of the layer it measures.

use crate::bench::{factor_on_plan, solve_on_plan, Bench, Ops};
use crate::inputs::Inputs;
use crate::metrics::Metrics;
use crate::replay::{replay, Replay};
use crate::spans::{machine_speed, self_times, Recorder};
use crate::stats::median;
use std::hint::black_box;
use std::sync::Arc;
use sympack::plan::factor_numeric;
use sympack::taskgraph::LocalTasks;
use sympack::{pattern_hash, ProcGrid, SolvePlan, SolverError, SolverOptions, SymPack};
use sympack_baseline::{
    try_baseline_factor_and_solve, try_fanboth_factor_and_solve, try_fanin_factor_and_solve,
    BaselineOptions,
};
use sympack_multifrontal::{multifrontal_factor, MfOptions};
use sympack_ordering::compute_ordering;
use sympack_pgas::{GlobalPtr, MemKind, PgasConfig, Runtime};
use sympack_service::Session;
use sympack_symbolic::analyze;

/// Repetitions per probe: enough for a median where a probe is cheap, twice
/// where it is a reference row that costs a whole solve.
const ANALYSIS_REPS: usize = 3;
const FACTOR_REPS: usize = 3;
const SOLVE_REPS: u64 = 10;
const REPLAY_REPS: usize = 3;
const REFERENCE_REPS: usize = 2;
const FLOOD_REPS: usize = 5;
const FLOOD_WINDOW: usize = 64;
/// 128 KiB per get.
const FLOOD_ELEMS: usize = 16 * 1024;
const FLOOR_RUNS: u32 = 200;

/// A window of one-sided gets between two ranks through the real runtime,
/// as `crates/bench/benches/rma_bandwidth.rs` drives it; returns the payload
/// bytes moved.
fn rget_flood() -> u64 {
    let report = Runtime::run(PgasConfig::multi_node(2, 1), |rank| {
        if rank.id() == 0 {
            let ptr = rank
                .alloc(MemKind::Host, FLOOD_ELEMS)
                .expect("host allocation");
            rank.write_local(&ptr, &vec![1.5; FLOOD_ELEMS]);
            rank.rpc(1, move |r| {
                r.with_state::<Vec<GlobalPtr>, _>(|_, v| v.push(ptr))
            });
            rank.barrier();
            rank.barrier();
            0
        } else {
            rank.set_state(Vec::<GlobalPtr>::new());
            rank.barrier();
            while rank.progress() == 0 {
                std::thread::yield_now();
            }
            let ptr = rank.take_state::<Vec<GlobalPtr>>()[0];
            let handles: Vec<_> = (0..FLOOD_WINDOW).map(|_| rank.rget(&ptr)).collect();
            let bytes = handles
                .into_iter()
                .map(|h| h.wait(rank).len() as u64 * 8)
                .sum();
            rank.barrier();
            bytes
        }
    });
    report.results[1]
}

/// A one-shot factor + solve that reports its own residual against the
/// original matrix: two operations.
fn one_shot_checked<R>(
    ops: &mut Ops,
    what: &str,
    r: Result<R, SolverError>,
    residual: impl Fn(&R) -> f64,
) -> Option<R> {
    let report = ops.returned(what, 2, r)?;
    ops.check_residual(what, residual(&report));
    Some(report)
}

/// Run every probe and derive the per-layer metrics. `rec` holds the traced
/// iterations and receives the probes' spans; `plain` holds the untraced
/// iterations the traced ones alternated with; `first_iteration_s` is the wall
/// time of the process's first iteration. `None` when an operation of a probe
/// failed (already counted and reported by `bench.ops`).
pub fn per_layer(
    bench: &mut Bench,
    rec: &mut Recorder,
    plain: &Recorder,
    first_iteration_s: f64,
) -> Option<Metrics> {
    let Bench {
        workload,
        opts,
        inputs,
        ops,
        ..
    } = bench;
    let (a, b0, p) = (&inputs.a, &inputs.b0, workload.p);

    // ordering / symbolic / core.plan: `SolvePlan::new`, then its children
    // called one by one.
    let grid = ProcGrid::squarest(p);
    let mut analysis = None;
    for _ in 0..ANALYSIS_REPS {
        let (plan, _) = rec.span("plan_new", |_| SolvePlan::new(a, opts));
        rec.span("plan_children", |rec| {
            rec.span("pattern_hash", |_| black_box(pattern_hash(a)));
            let (ordering, _) = rec.span("ordering", |_| compute_ordering(a, opts.ordering));
            let (sf, _) = rec.span("symbolic", |_| analyze(a, &ordering, &opts.analyze));
            rec.span("taskgraph", |_| {
                for r in 0..p {
                    black_box(LocalTasks::build(&sf, &grid, r));
                }
            });
            analysis = Some((plan, sf));
        });
    }
    let (plan, sf) = analysis.expect("ANALYSIS_REPS > 0");

    // core.engine / core.trisolve on the plan path and service on top of it:
    // the same factorizations and solves, directly and through a session,
    // taking turns.
    let (r, _) = rec.span("session_new", |_| Session::new(a, opts));
    let mut session = ops.returned("Session::new", 1, r)?;
    let mut nf = None;
    for _ in 0..FACTOR_REPS {
        let (r, _) = rec.span("direct_factor", |rec| factor_on_plan(rec, &plan, a));
        nf = Some(ops.returned("factor_numeric", 1, r)?);
        let (r, _) = rec.span("session_refactor", |_| session.refactorize(&inputs.values));
        ops.returned("Session::refactorize", 1, r)?;
    }
    let nf = nf.expect("FACTOR_REPS > 0");
    let mut solve_virtual = 0.0;
    for j in 0..SOLVE_REPS {
        let b = [inputs.rhs(0, 300 + j)];
        let (r, _) = rec.span("direct_solve", |rec| {
            solve_on_plan(rec, &plan, &nf.stores, &b)
        });
        let (xs, virtual_s) = ops.returned("solve_panel_distributed", 1, r)?;
        ops.verify("solve_panel_distributed", a, &xs[0], &b[0]);
        solve_virtual = virtual_s;
        let (r, _) = rec.span("session_solve", |_| session.solve(&b[0]));
        let x = ops.returned("Session::solve", 1, r)?;
        ops.verify("Session::solve", a, &x, &b[0]);
    }
    let session_factor_bytes = session.factor_bytes();
    drop(session);

    // Exact communication counts: one factorization in lockstep.
    let lockstep = SolverOptions {
        deterministic: true,
        ..opts.clone()
    };
    let lockstep = SolvePlan::from_symbolic(Arc::clone(&plan.symbolic), &lockstep);
    let (r, _) = rec.span("lockstep_factor", |_| {
        factor_numeric(&lockstep, &Arc::new(lockstep.permute(a)))
    });
    let comm = ops.returned("factor_numeric (deterministic)", 1, r)?.stats;
    let factor_virtual = nf.factor_time;
    drop(nf);

    // dense + gpu: the kernel calls alone.
    let replays: Vec<Replay> = (0..REPLAY_REPS)
        .map(|_| rec.span("kernel_replay", |_| replay(&sf, opts)).0)
        .collect();

    // multifrontal + baseline: the reference rows, one-shot at the
    // workload's P (the multifrontal solver is serial and analyzes itself).
    let reference = BaselineOptions {
        n_nodes: 1,
        ranks_per_node: p,
        gpu: false,
        ..Default::default()
    };
    for _ in 0..REFERENCE_REPS {
        let (r, _) = rec.span("multifrontal", |_| {
            multifrontal_factor(a, &MfOptions::default())
        });
        ops.returned("multifrontal_factor", 1, r)?;
        let (r, _) = rec.span("rightlooking", |_| {
            try_baseline_factor_and_solve(a, b0, &reference)
        });
        one_shot_checked(ops, "right-looking", r, |r| r.relative_residual)?;
        let (r, _) = rec.span("fanin", |_| try_fanin_factor_and_solve(a, b0, &reference));
        one_shot_checked(ops, "fan-in", r, |r| r.relative_residual)?;
        let (r, _) = rec.span("fanboth", |_| {
            try_fanboth_factor_and_solve(a, b0, &reference)
        });
        one_shot_checked(ops, "fan-both", r, |r| r.relative_residual)?;
    }

    // trace: what the solver's own telemetry costs a one-shot, and what its
    // tracing costs one at half the linear size — at full size tracing alone
    // takes 11 s (dense3d) to 43 s (sparse2d), 30× to 100× the solve.
    let telemetry = SolverOptions {
        telemetry: true,
        ..opts.clone()
    };
    let tracing = SolverOptions {
        trace: true,
        ..opts.clone()
    };
    let half = Inputs::generate(workload.matrix.half(), 0);
    let mut task_counts = Vec::new();
    for _ in 0..REFERENCE_REPS {
        let (r, _) = rec.span("oneshot_plain", |_| {
            SymPack::try_factor_and_solve(a, b0, opts)
        });
        task_counts = one_shot_checked(ops, "one-shot", r, |r| r.relative_residual)?.task_counts;
        let (r, _) = rec.span("oneshot_telemetry", |_| {
            SymPack::try_factor_and_solve(a, b0, &telemetry)
        });
        one_shot_checked(ops, "one-shot + telemetry", r, |r| r.relative_residual)?;
        let (r, _) = rec.span("half_plain", |_| {
            SymPack::try_factor_and_solve(&half.a, &half.b0, opts)
        });
        one_shot_checked(ops, "half-size one-shot", r, |r| r.relative_residual)?;
    }
    let (r, _) = rec.span("half_trace", |_| {
        SymPack::try_factor_and_solve(&half.a, &half.b0, &tracing)
    });
    one_shot_checked(ops, "half-size one-shot + trace", r, |r| {
        r.relative_residual
    })?;
    let factor_tasks: u64 = task_counts
        .iter()
        .filter(|(kind, _)| matches!(kind.as_str(), "diag" | "panel" | "update"))
        .map(|(_, n)| n)
        .sum();
    let solve_tasks = task_counts.iter().map(|(_, n)| n).sum::<u64>() - factor_tasks;

    // pgas: the substrate alone.
    let mut flood_bytes = 0;
    for _ in 0..FLOOD_REPS {
        flood_bytes = rec.span("rget_flood", |_| rget_flood()).0;
    }
    let (_, floor_s) = rec.span("run_floor", |_| {
        for _ in 0..FLOOR_RUNS {
            Runtime::run(plan.pgas_config(), |rank| black_box(rank.id()));
        }
    });

    // Every time below is in reference seconds: wall × the run's speed.
    let speed = machine_speed(&[rec, plain]);
    let med = |name: &str| speed * median(rec.samples(name));
    let replay_median =
        |f: &dyn Fn(&Replay) -> f64| speed * median(&replays.iter().map(f).collect::<Vec<_>>());
    let replay_s = replay_median(&Replay::total_wall);
    let model_s = replays[0].modeled;
    let (analyze_s, factor_s, solve_s) = (med("analyze"), med("factor"), med("solve"));
    let children = med("pattern_hash") + med("ordering") + med("symbolic") + med("taskgraph");
    let accounted: Vec<f64> = rec
        .spans()
        .iter()
        .zip(self_times(rec.spans()))
        .filter(|(s, _)| s.name == "iteration")
        .map(|(s, own)| 1.0 - own / (s.end - s.start))
        .collect();

    let mut m = Metrics::default();
    m.set("sparse.permute_s", med("permute"));
    m.set("sparse.residual_s", med("residual"));
    m.set("sparse.nnz", a.nnz() as f64);
    m.set("ordering.time_s", med("ordering"));
    m.set("ordering.fill_ratio", sf.l_nnz as f64 / a.nnz() as f64);
    m.set("symbolic.time_s", med("symbolic"));
    m.set("symbolic.supernodes", sf.n_supernodes() as f64);
    m.set(
        "symbolic.blocks",
        (sf.n_supernodes() + sf.layout.n_off_diagonal()) as f64,
    );
    m.set("symbolic.l_nnz", sf.l_nnz as f64);
    m.set("symbolic.flops", sf.flops as f64);
    m.set("core.taskgraph_s", med("taskgraph"));
    m.set("core.pattern_hash_s", med("pattern_hash"));
    m.set("core.plan_other_s", med("plan_new") - children);
    m.set("dense.replay_s", replay_s);
    m.set(
        "dense.replay_gflops",
        replays[0].flops as f64 / replay_s / 1e9,
    );
    m.set("dense.calls", replays[0].total_calls() as f64);
    // In the order of `Replay::wall`.
    let per_op = [
        "dense.potrf_s",
        "dense.trsm_s",
        "dense.syrk_s",
        "dense.gemm_s",
    ];
    for (i, name) in per_op.into_iter().enumerate() {
        m.set(name, replay_median(&|r| r.wall[i]));
    }
    m.set("gpu.model_s", model_s);
    m.set("gpu.model_over_wall", model_s / replay_s);
    m.set("core.factor_gflops", sf.flops as f64 / factor_s / 1e9);
    m.set("core.factor_tasks", factor_tasks as f64);
    m.set("core.factor_virtual_s", factor_virtual);
    m.set(
        "core.model_over_wall",
        factor_virtual / med("direct_factor"),
    );
    m.set("core.kernel_share", replay_s / (p as f64 * factor_s));
    m.set("core.runtime_tax_s", factor_s - replay_s / p as f64);
    m.set("core.solve16_s", med("panel"));
    m.set(
        "core.solve_rhs_per_s",
        crate::inputs::PANEL_RHS as f64 / med("panel"),
    );
    m.set("core.solve_tasks", solve_tasks as f64);
    m.set("core.solve_virtual_s", solve_virtual);
    m.set(
        "core.driver_tax_s",
        med("one_shot") - (analyze_s + factor_s + solve_s),
    );
    m.set(
        "core.first_call_ratio",
        speed * first_iteration_s / med("iteration"),
    );
    m.set("core.max_residual", ops.max_residual);
    m.set("pgas.rgets", comm.rgets as f64);
    m.set("pgas.rpcs", comm.rpcs as f64);
    m.set("pgas.bytes", (comm.net_bytes + comm.intra_bytes) as f64);
    m.set(
        "pgas.rget_flood_gbps",
        flood_bytes as f64 / med("rget_flood") / 1e9,
    );
    m.set(
        "pgas.run_floor_us",
        speed * floor_s / f64::from(FLOOR_RUNS) * 1e6,
    );
    m.set("multifrontal.factor_s", med("multifrontal"));
    m.set("baseline.rightlooking_s", med("rightlooking"));
    m.set("baseline.fanin_s", med("fanin"));
    m.set("baseline.fanboth_s", med("fanboth"));
    m.set("service.session_new_s", med("session_new"));
    m.set(
        "service.refactor_overhead_s",
        med("session_refactor") - med("direct_factor"),
    );
    m.set(
        "service.solve_overhead_s",
        med("session_solve") - med("direct_solve"),
    );
    m.set("service.factor_bytes", session_factor_bytes as f64);
    m.set(
        "trace.telemetry_overhead",
        med("oneshot_telemetry") / med("oneshot_plain"),
    );
    m.set(
        "trace.tracing_overhead",
        med("half_trace") / med("half_plain"),
    );
    m.set(
        "bench.span_overhead",
        median(rec.samples("iteration")) / median(plain.samples("iteration")),
    );
    m.set("bench.span_accounted", median(&accounted));
    m.set("bench.machine_speed", speed);
    Some(m)
}
