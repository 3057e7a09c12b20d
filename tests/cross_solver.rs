//! Cross-solver integration tests: symPACK-rs, the right-looking baseline
//! and a dense oracle must agree on identical inputs.

mod golden;

use golden::{Fingerprint, SOLVER};
use sympack::map2d::distinct_owners;
use sympack::{ProcGrid, SolvePlan, SolveReport, SolverError, SolverOptions, SymPack};
use sympack_baseline::baseline_factor_and_solve;
use sympack_dense::{KernelConfig, Mat};
use sympack_sparse::gen;
use sympack_sparse::vecops::{max_abs_diff, test_rhs};
use sympack_sparse::SparseSym;

type Baseline = fn(&SparseSym, &[f64], &SolverOptions) -> Result<SolveReport, SolverError>;

/// The three baseline families, in the order the pinned cases run them.
const BASELINES: [(&str, Baseline); 3] = [
    (
        "right-looking",
        sympack_baseline::try_baseline_factor_and_solve,
    ),
    ("fan-in", sympack_baseline::try_fanin_factor_and_solve),
    ("fan-both", sympack_baseline::try_fanboth_factor_and_solve),
];

/// Dense Cholesky oracle: solve via `sympack-dense` on the full matrix.
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
    let mut rhs = b.to_vec();
    sympack::trisolve::forward_subst(&m, &mut rhs);
    sympack::trisolve::backward_subst(&m, &mut rhs);
    rhs
}

#[test]
fn three_way_agreement_on_random_spd() {
    for seed in [1u64, 2, 3] {
        let a = gen::random_spd(90, 5, seed);
        let b = test_rhs(90);
        let oracle = dense_solve(&a, &b);
        let sp = SymPack::factor_and_solve(&a, &b, &SolverOptions::default());
        let bl = baseline_factor_and_solve(&a, &b, &SolverOptions::default());
        let scale = oracle.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        assert!(
            max_abs_diff(&sp.x, &oracle) / scale < 1e-9,
            "seed {seed}: symPACK vs oracle"
        );
        assert!(
            max_abs_diff(&bl.x, &oracle) / scale < 1e-9,
            "seed {seed}: baseline vs oracle"
        );
    }
}

#[test]
fn three_way_agreement_on_structured_problems() {
    for a in [
        gen::laplacian_2d(8, 9),
        gen::flan_like(4, 3, 3),
        gen::bone_like(3, 3, 2),
    ] {
        let b = test_rhs(a.n());
        let oracle = dense_solve(&a, &b);
        let sp = SymPack::factor_and_solve(&a, &b, &SolverOptions::default());
        let bl = baseline_factor_and_solve(&a, &b, &SolverOptions::default());
        let scale = oracle.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        assert!(max_abs_diff(&sp.x, &oracle) / scale < 1e-9);
        assert!(max_abs_diff(&bl.x, &oracle) / scale < 1e-9);
    }
}

#[test]
fn solver_reports_same_structure_counts() {
    // Both solvers run the identical analysis, so their total kernel call
    // counts must match exactly (same supernodes, same blocks, same tasks).
    let a = gen::laplacian_2d(10, 10);
    let b = test_rhs(a.n());
    let opts = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        ..Default::default()
    };
    let sp = SymPack::factor_and_solve(&a, &b, &opts);
    let bl = baseline_factor_and_solve(&a, &b, &opts);
    let total = |counts: &[sympack_gpu::OpCounts]| {
        let mut t = sympack_gpu::OpCounts::default();
        for c in counts {
            t.merge(c);
        }
        // Compare cpu+gpu totals per op (placement may differ; volume not).
        sympack_gpu::Op::ALL.map(|op| {
            let (c, g) = t.get(op);
            c + g
        })
    };
    // symPACK's op_counts cover the factorization only; the baseline's too.
    assert_eq!(total(&sp.op_counts), total(&bl.op_counts));
}

#[test]
#[allow(non_snake_case)] // keep the paper's capitalization in the test name
fn symPACK_beats_baseline_on_modeled_time_at_scale() {
    // The paper's headline claim, at reproduction scale: on a 3D problem
    // with several nodes, the fan-out solver's modeled makespan beats the
    // right-looking 1D baseline by a clear margin.
    let a = gen::flan_like(8, 8, 8);
    let b = test_rhs(a.n());
    let opts = SolverOptions {
        n_nodes: 4,
        ranks_per_node: 2,
        ..Default::default()
    };
    let sp = SymPack::factor_and_solve(&a, &b, &opts);
    let bl = baseline_factor_and_solve(&a, &b, &opts);
    assert!(
        sp.factor_time < bl.factor_time,
        "symPACK {} vs baseline {}",
        sp.factor_time,
        bl.factor_time
    );
    assert!(sp.solve_time < bl.solve_time);
}

#[test]
fn all_engines_agree_across_ranks_and_rtq_policies() {
    // The shared task runtime makes the RTQ policy a parameter of every
    // engine. Whatever the policy and rank count: (a) every solver family
    // returns the right answer, and (b) the per-kind executed-task totals
    // are schedule-invariant — the policy reorders work, it must never
    // change what work exists.
    use std::collections::BTreeMap;
    use sympack::RtqPolicy;

    let a = gen::laplacian_2d(9, 9);
    let b = test_rhs(a.n());
    type Counts = BTreeMap<String, u64>;
    let to_map = |v: &[(String, u64)]| -> Counts { v.iter().cloned().collect() };

    // (engine, P) -> counts under the first policy, for invariance checks.
    let mut reference: BTreeMap<(&str, usize), Counts> = BTreeMap::new();
    for (n_nodes, ranks_per_node) in [(1, 1), (1, 2), (2, 2)] {
        let p = n_nodes * ranks_per_node;
        for policy in [RtqPolicy::Lifo, RtqPolicy::Fifo, RtqPolicy::CriticalPath] {
            let opts = SolverOptions {
                n_nodes,
                ranks_per_node,
                rtq_policy: policy,
                ..Default::default()
            };
            let sp = SymPack::factor_and_solve(&a, &b, &opts);
            let rl = baseline_factor_and_solve(&a, &b, &opts);
            let fi = sympack_baseline::fanin_factor_and_solve(&a, &b, &opts);
            let fb = sympack_baseline::fanboth_factor_and_solve(&a, &b, &opts);
            let runs: [(&str, f64, Counts); 4] = [
                ("fan-out", sp.relative_residual, to_map(&sp.task_counts)),
                (
                    "right-looking",
                    rl.relative_residual,
                    to_map(&rl.task_counts),
                ),
                ("fan-in", fi.relative_residual, to_map(&fi.task_counts)),
                ("fan-both", fb.relative_residual, to_map(&fb.task_counts)),
            ];
            for (name, residual, counts) in runs {
                assert!(
                    residual <= 1e-8,
                    "{name} P={p} {policy:?}: residual {residual}"
                );
                assert!(
                    !counts.is_empty(),
                    "{name} P={p} {policy:?}: no task counts"
                );
                let entry = reference.entry((name, p)).or_insert_with(|| counts.clone());
                assert_eq!(
                    *entry, counts,
                    "{name} P={p} {policy:?}: task counts changed with the RTQ policy"
                );
            }
        }
    }
    // Task totals are also rank-count-invariant for the engines whose task
    // graph is owner-partitioned (fan-out, fan-in, fan-both), except the
    // triangular solve's block groups: one per rank that owns blocks an
    // arriving panel releases, so their totals are those the family's grid
    // makes of the layout. The right-looking baseline replicates panel
    // applications per rank, so only its factor-task count is P-invariant.
    let grouped = |kind: &str| kind == "fwd_col" || kind == "bwd_row";
    type Grid = fn(usize) -> ProcGrid;
    let grids: [(&str, Grid); 3] = [
        ("fan-out", ProcGrid::squarest),
        ("fan-in", ProcGrid::one_dimensional),
        ("fan-both", ProcGrid::squarest),
    ];
    for (name, grid) in grids {
        let one = &reference[&(name, 1)];
        for p in [1, 2, 4] {
            let at_p = &reference[&(name, p)];
            assert_eq!(
                one.iter().filter(|(k, _)| !grouped(k)).collect::<Vec<_>>(),
                at_p.iter().filter(|(k, _)| !grouped(k)).collect::<Vec<_>>(),
                "{name}: task totals changed between P=1 and P={p}"
            );
            assert_eq!(
                [at_p["fwd_col"], at_p["bwd_row"]],
                solve_groups(&a, grid(p)),
                "{name} P={p}: executed block groups (fwd_col, bwd_row)"
            );
        }
    }
    for p in [2, 4] {
        assert_eq!(
            reference[&("right-looking", 1)]["factor_panel"],
            reference[&("right-looking", p)]["factor_panel"],
            "right-looking: factor task count changed with P"
        );
    }
}

/// The triangular solve's block groups over `grid`, summed over its ranks:
/// forward one per column and distinct owner of the column's off-diagonal
/// blocks, backward one per row and distinct owner of the row's.
fn solve_groups(a: &SparseSym, grid: ProcGrid) -> [u64; 2] {
    let opts = SolverOptions {
        ranks_per_node: grid.n_procs(),
        grid: Some(grid),
        ..Default::default()
    };
    let plan = SolvePlan::new(a, &opts);
    let sf = plan.sf();
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); sf.n_supernodes()];
    let mut cols = 0;
    for j in 0..sf.n_supernodes() {
        let owners = sf.layout.blocks_of(j).iter().map(|b| grid.map(b.target, j));
        cols += distinct_owners(owners).len();
        for b in sf.layout.blocks_of(j) {
            rows[b.target].push(grid.map(b.target, j));
        }
    }
    let rows: usize = rows.into_iter().map(|o| distinct_owners(o).len()).sum();
    [cols as u64, rows as u64]
}

/// Each rank's executed tasks in order, as its trace recorded them (the
/// merged trace is sorted by start, and one rank's tasks do not overlap).
fn executed(r: &SolveReport) -> impl Iterator<Item = &sympack_trace::TraceEvent> {
    let ranks = r.trace.iter().map(|ev| ev.rank + 1).max().unwrap_or(0);
    (0..ranks).flat_map(move |rank| {
        r.trace
            .iter()
            .filter(move |ev| ev.rank == rank && ev.kind == sympack_trace::SpanKind::Exec)
    })
}

/// Everything a baseline run reports that a schedule change would move:
/// the solution in `bits`, both virtual makespans in `virtual`, the per-kind
/// task totals in `schedule` and the message counts in `traffic`. A traced
/// run also folds into `schedule` each rank's executed tasks in order:
/// rank, label, producer and RTQ depth.
fn baseline_fingerprint(r: &SolveReport) -> Fingerprint {
    let mut fp = Fingerprint::new(&SOLVER);
    fp.fold("bits", r.x.as_slice());
    fp.fold("virtual", &r.factor_time);
    fp.fold("virtual", &r.solve_time);
    for (kind, n) in &r.task_counts {
        fp.fold("schedule", kind.as_str());
        fp.fold("schedule", n);
    }
    for ev in executed(r) {
        fp.fold("schedule", &(ev.rank as u64));
        fp.fold("schedule", ev.name.as_str());
        fp.fold("schedule", ev.pred.as_deref().unwrap_or("-"));
        fp.fold("schedule", &(ev.rtq_depth as u64));
    }
    fp.fold("traffic", &r.stats.rgets);
    fp.fold("traffic", &r.stats.rpcs);
    fp
}

/// `baseline_fingerprint` of {right-looking, fan-in, fan-both} × P ∈ {1, 2,
/// 4} × trace {off, on} on `thermal_like(12,12,0.3,5)` under lockstep,
/// against the `cross_solver` corpus (`tests/golden/cross_solver.txt`, which
/// says where each group of cases was captured).
#[test]
fn baseline_schedules_are_identical_to_the_per_engine_run_ranks() {
    let a = gen::thermal_like(12, 12, 0.3, 5);
    let b = test_rhs(a.n());
    let mut cases = Vec::new();
    for (name, run) in BASELINES {
        for p in [1usize, 2, 4] {
            for trace in [false, true] {
                let opts = SolverOptions {
                    n_nodes: 1,
                    ranks_per_node: p,
                    deterministic: true,
                    trace,
                    ..Default::default()
                };
                let r = run(&a, &b, &opts).expect("SPD input");
                assert_eq!(r.trace.is_empty(), !trace);
                let case = format!("per-engine {name} P={p} trace={trace}");
                cases.push((case, baseline_fingerprint(&r)));
            }
        }
    }
    golden::check("cross_solver", cases);
}

/// `baseline_fingerprint` of {right-looking, fan-in, fan-both} × (Fifo and
/// CriticalPath at P ∈ {2, 3}, then Lifo at P = 3) on
/// `thermal_like(12,12,0.3,5)`, traced under lockstep, against the
/// `cross_solver` corpus: the orders a task id could leak into if the ready
/// queue ever consulted it. CommAware is left out: the baselines record no urgency, so
/// it pops exactly like CriticalPath.
#[test]
fn baseline_schedules_are_identical_under_every_pop_order() {
    use sympack::RtqPolicy;
    let a = gen::thermal_like(12, 12, 0.3, 5);
    let b = test_rhs(a.n());
    let runs = [
        (RtqPolicy::Fifo, 2),
        (RtqPolicy::Fifo, 3),
        (RtqPolicy::CriticalPath, 2),
        (RtqPolicy::CriticalPath, 3),
        (RtqPolicy::Lifo, 3),
    ];
    let mut cases = Vec::new();
    for (name, run) in BASELINES {
        for (rtq_policy, p) in runs {
            let opts = SolverOptions {
                n_nodes: 1,
                ranks_per_node: p,
                deterministic: true,
                trace: true,
                rtq_policy,
                ..Default::default()
            };
            let r = run(&a, &b, &opts).expect("SPD input");
            assert!(!r.trace.is_empty());
            let case = format!("pop-order {name} {rtq_policy:?} P={p}");
            cases.push((case, baseline_fingerprint(&r)));
        }
    }
    golden::check("cross_solver", cases);
}

/// A traced fan-out run on the wire paths no other fingerprint reaches: per
/// rank, every factorization task in execution order — label, producer edge
/// and RTQ depth in `schedule`, the resident input-buffer bytes in
/// `traffic`, its ready time in `virtual` — then both makespans in
/// `virtual`, the solution in `bits`, and the per-rank publication
/// accounting and the message / byte / frame counters in `traffic`.
fn fanout_wire_fingerprint(r: &SolveReport) -> Fingerprint {
    let mut fp = Fingerprint::new(&SOLVER);
    let factor_task =
        |ev: &&sympack_trace::TraceEvent| ["D(", "F(", "U("].iter().any(|s| ev.name.starts_with(s));
    for ev in executed(r).filter(factor_task) {
        fp.fold("schedule", &(ev.rank as u64));
        fp.fold("schedule", ev.name.as_str());
        fp.fold("virtual", &ev.ready_at);
        fp.fold("schedule", ev.pred.as_deref().unwrap_or("-"));
        fp.fold("traffic", &ev.bytes);
        fp.fold("schedule", &(ev.rtq_depth as u64));
    }
    fp.fold("virtual", &r.factor_time);
    fp.fold("virtual", &r.solve_time);
    fp.fold("bits", r.x.as_slice());
    for p in &r.publish {
        for n in [
            p.dense_bytes,
            p.lr_bytes,
            p.lr_dense_equiv_bytes,
            p.dense_blocks,
            p.lr_blocks,
        ] {
            fp.fold("traffic", &n);
        }
    }
    let s = &r.stats;
    for n in [s.rgets, s.rpcs, s.net_bytes, s.intra_bytes, s.device_bytes] {
        fp.fold("traffic", &n);
    }
    fp.fold("traffic", &s.frames);
    fp.fold("traffic", &s.frame_subs);
    fp
}

/// The paths the fan-out and baseline cases above do not run (they are
/// `Flat`, uncoalesced, dense), on `bone_like(6,6,5)` at 2 nodes × 2 ranks,
/// traced under lockstep, against the `cross_solver` corpus: fan-out under
/// `Tree { arity: 2 }` + default coalescing, fan-out under BLR at `tol =
/// 1e-8`, then right-looking / fan-in / fan-both under default coalescing.
#[test]
fn tree_coalesced_and_blr_schedules_are_identical_to_the_per_engine_copies() {
    use sympack_pgas::coalesce::{BcastTopology, CoalesceConfig};
    let a = gen::bone_like(6, 6, 5);
    let b = test_rhs(a.n());
    let base = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        deterministic: true,
        trace: true,
        ..Default::default()
    };
    let tree = SolverOptions {
        bcast: BcastTopology::Tree { arity: 2 },
        coalesce: Some(CoalesceConfig::default()),
        ..base.clone()
    };
    let blr = SolverOptions {
        blr: sympack::BlrConfig {
            tol: 1e-8,
            min_block: 8,
            max_rank: usize::MAX,
        },
        ..base.clone()
    };
    let mut cases = Vec::new();
    let r = SymPack::try_factor_and_solve(&a, &b, &tree).expect("tree + coalesce");
    assert!(r.stats.frames > 0, "coalescing never framed a signal");
    cases.push((
        "wire fan-out tree+coalesce".to_string(),
        fanout_wire_fingerprint(&r),
    ));
    let r = SymPack::try_factor_and_solve(&a, &b, &blr).expect("blr");
    let lr_blocks: u64 = r.publish.iter().map(|p| p.lr_blocks).sum();
    assert!(lr_blocks > 0, "BLR row published nothing compressed");
    cases.push(("wire fan-out blr".to_string(), fanout_wire_fingerprint(&r)));
    let bopts = SolverOptions {
        coalesce: Some(CoalesceConfig::default()),
        ..base
    };
    for (name, run) in BASELINES {
        let r = run(&a, &b, &bopts).expect("SPD input");
        assert!(r.stats.frames > 0, "coalescing never framed a signal");
        assert!(!r.trace.is_empty());
        cases.push((format!("wire {name} coalesce"), baseline_fingerprint(&r)));
    }
    golden::check("cross_solver", cases);
}
