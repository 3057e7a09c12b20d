//! Failure-injection integration tests: non-SPD inputs, invalid options
//! and mis-shaped inputs, device memory exhaustion under both fallback
//! policies (§4.2) — for the fan-out solver and for every baseline engine
//! — and malformed files. Every failure is a typed error on the calling
//! thread: nothing panics inside a rank, nothing hangs.

#![allow(non_snake_case)]

use std::sync::Arc;
use sympack::plan::{factor_numeric, solve_panel_distributed};
use sympack::{
    BcastTopology, ProcGrid, SolvePlan, SolveReport, SolverError, SolverOptions, SymPack,
};
use sympack_baseline::{
    try_baseline_factor_and_solve, try_fanboth_factor_and_solve, try_fanin_factor_and_solve,
};
use sympack_fleet::{Fleet, FleetConfig, FleetError};
use sympack_gpu::OomPolicy;
use sympack_service::{RhsPanel, Session};
use sympack_sparse::gen;
use sympack_sparse::vecops::test_rhs;
use sympack_sparse::{Coo, SparseSym};

/// All three baseline engines behind one fallible signature.
type BaselineFn = fn(&SparseSym, &[f64], &SolverOptions) -> Result<SolveReport, SolverError>;

const BASELINES: [(&str, BaselineFn); 3] = [
    ("right-looking", try_baseline_factor_and_solve),
    ("fan-in", try_fanin_factor_and_solve),
    ("fan-both", try_fanboth_factor_and_solve),
];

/// Flip the sign of diagonal entry `k` of a SPD matrix.
fn break_spd(a: &SparseSym, k: usize) -> SparseSym {
    let n = a.n();
    let mut coo = Coo::new(n, n);
    for c in 0..n {
        for (&r, &v) in a.col_rows(c).iter().zip(a.col_values(c)) {
            let v = if r == k && c == k { -v } else { v };
            coo.push(r, c, v).unwrap();
        }
    }
    coo.to_csc().to_lower_sym()
}

#[test]
fn indefinite_matrix_fails_cleanly_on_every_rank_count() {
    let good = gen::laplacian_2d(8, 8);
    let bad = break_spd(&good, 30);
    let b = test_rhs(bad.n());
    for (nodes, ppn) in [(1, 1), (2, 2), (4, 2)] {
        let opts = SolverOptions {
            n_nodes: nodes,
            ranks_per_node: ppn,
            ..Default::default()
        };
        match SymPack::try_factor_and_solve(&bad, &b, &opts) {
            Err(SolverError::NotPositiveDefinite { .. }) => {}
            other => panic!("nodes={nodes} ppn={ppn}: expected failure, got {other:?}"),
        }
    }
    // The baselines fail the same way — through the shared factor loop's
    // job-wide abort, on every rank count, free-running and in lockstep
    // (where a rank that panicked instead would strand the others).
    for (name, run) in BASELINES {
        for p in [1, 2, 4] {
            for deterministic in [false, true] {
                let opts = SolverOptions {
                    n_nodes: 1,
                    ranks_per_node: p,
                    deterministic,
                    ..Default::default()
                };
                match run(&bad, &b, &opts) {
                    Err(SolverError::NotPositiveDefinite { column }) => assert!(column < bad.n()),
                    other => panic!(
                        "{name} P={p} deterministic={deterministic}: \
                         expected NotPositiveDefinite, got {other:?}"
                    ),
                }
            }
        }
    }
}

#[test]
fn invalid_options_are_typed_errors_before_any_rank_runs() {
    // P = 2 under lockstep is the configuration where a rank panicking on
    // a bad option used to hang the job: every entry point must reject the
    // options up front instead.
    let a = gen::laplacian_2d(6, 6);
    let b = test_rhs(a.n());
    let base = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 2,
        deterministic: true,
        ..Default::default()
    };
    let mut bad_kernels = base.clone();
    bad_kernels.kernel_config.mc = 0;
    let mut bad_blr = base.clone();
    bad_blr.blr.tol = -1.0;
    let bad_grid = SolverOptions {
        grid: Some(ProcGrid::one_dimensional(3)),
        ..base.clone()
    };
    let no_ranks = SolverOptions {
        ranks_per_node: 0,
        ..base.clone()
    };
    let good_plan = SolvePlan::new(&a, &base);
    let ap = Arc::new(good_plan.permute(&a));
    for (field, opts) in [
        ("kernel_config", bad_kernels),
        ("blr", bad_blr),
        ("grid", bad_grid),
        ("n_nodes × ranks_per_node", no_ranks),
    ] {
        let rejected = |what: &str, r: Result<(), SolverError>| match r {
            Err(SolverError::InvalidOptions { field: f, .. }) => assert_eq!(f, field, "{what}"),
            other => panic!("{what}, bad {field}: expected InvalidOptions, got {other:?}"),
        };
        assert!(opts.validate().is_err(), "{field}");
        rejected(
            "one-shot",
            SymPack::try_factor_and_solve(&a, &b, &opts).map(drop),
        );
        rejected("factor_gather", SymPack::factor_gather(&a, &opts).map(drop));
        rejected("Session::new", Session::new(&a, &opts).map(drop));
        rejected(
            "Session::with_plan",
            Session::with_plan(&a, Arc::clone(&good_plan.symbolic), &opts).map(drop),
        );
        // A plan whose options went bad after it was built: the launch of
        // every distributed phase checks again.
        let stale = SolvePlan {
            symbolic: Arc::clone(&good_plan.symbolic),
            opts,
        };
        rejected("factor_numeric", factor_numeric(&stale, &ap).map(drop));
    }
    // The baselines reject a rank-less layout the same way (their runner
    // used to panic in `Runtime::run` or while sizing the grid), and the
    // options their family fixes otherwise: its own map, flat and dense
    // publication — even where the options are valid for the fan-out.
    let with = |edit: fn(&mut SolverOptions)| {
        let mut opts = base.clone();
        edit(&mut opts);
        opts
    };
    let fixed = [
        ("n_nodes × ranks_per_node", with(|o| o.ranks_per_node = 0)),
        ("n_nodes × ranks_per_node", with(|o| o.n_nodes = 0)),
        (
            "grid",
            with(|o| o.grid = Some(ProcGrid::one_dimensional(2))),
        ),
        (
            "bcast",
            with(|o| o.bcast = BcastTopology::Tree { arity: 2 }),
        ),
        ("blr", with(|o| o.blr.tol = 1e-8)),
    ];
    for (name, run) in BASELINES {
        for (want, opts) in &fixed {
            match run(&a, &b, opts) {
                Err(SolverError::InvalidOptions { field, .. }) => {
                    assert_eq!(field, *want, "{name}")
                }
                other => panic!("{name}, {want}: expected InvalidOptions, got {other:?}"),
            }
        }
    }
    // A rank layout other than the one the cached plan was sliced for.
    let four = SolverOptions {
        ranks_per_node: 4,
        ..base.clone()
    };
    match Session::with_plan(&a, Arc::clone(&good_plan.symbolic), &four) {
        Err(SolverError::InvalidOptions { .. }) => {}
        other => panic!("layout mismatch: expected InvalidOptions, got {other:?}"),
    }
}

#[test]
fn mis_shaped_inputs_are_typed_errors() {
    let a = gen::laplacian_2d(6, 6);
    let n = a.n();
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 2,
        deterministic: true,
        ..Default::default()
    };
    let shape = |what: &str, r: Result<(), SolverError>, want: (usize, usize)| match r {
        Err(SolverError::ShapeMismatch {
            expected, actual, ..
        }) => assert_eq!((expected, actual), want, "{what}"),
        other => panic!("{what}: expected ShapeMismatch, got {other:?}"),
    };
    // One-shot: a short right-hand side, and no right-hand side at all.
    let short = vec![1.0; n - 1];
    shape(
        "short rhs",
        SymPack::try_factor_and_solve(&a, &short, &opts).map(drop),
        (n, n - 1),
    );
    shape(
        "no rhs",
        SymPack::try_factor_and_solve_multi(&a, &[], &opts).map(drop),
        (1, 0),
    );
    // Baselines: a short right-hand side.
    for (name, run) in BASELINES {
        shape(name, run(&a, &short, &opts).map(drop), (n, n - 1));
    }
    // Plan layer: panel size, panel width, store count.
    let plan = SolvePlan::new(&a, &opts);
    let nf = factor_numeric(&plan, &Arc::new(plan.permute(&a))).expect("SPD");
    let bp = vec![1.0; n];
    shape(
        "panel entries",
        solve_panel_distributed(&plan, &nf.stores, &bp, 2).map(drop),
        (2 * n, n),
    );
    shape(
        "zero-width panel",
        solve_panel_distributed(&plan, &nf.stores, &[], 0).map(drop),
        (1, 0),
    );
    shape(
        "store count",
        solve_panel_distributed(&plan, &nf.stores[..1], &bp, 1).map(drop),
        (2, 1),
    );
    // Session: a panel with the wrong row count.
    let session = Session::new(&a, &opts).expect("SPD");
    shape(
        "session panel rows",
        session
            .solve_batch(&[RhsPanel::from_vector(&short)])
            .map(drop),
        (n, n - 1),
    );
    // Fleet (the one serving front-end): a short job is refused with
    // nothing queued, ticketed or counted, and the next, correctly sized job
    // is served as ticket 0.
    let mut fleet = Fleet::new(&opts, FleetConfig::default());
    let tenant = fleet.admit("t", &a, 1.0).expect("SPD");
    let before = (fleet.metrics_json(), fleet.telemetry_json());
    let refused = fleet.submit_at(tenant, short, 0.0).map(drop);
    let refused = refused.map_err(|e| match e {
        FleetError::Solver(e) => e,
        other => panic!("fleet: expected a solver error, got {other}"),
    });
    shape("fleet rhs length", refused, (n, n - 1));
    assert_eq!((fleet.metrics_json(), fleet.telemetry_json()), before);
    assert_eq!(fleet.submit_at(tenant, test_rhs(n), 0.0).ok(), Some(0));
    let served = fleet.drain().expect("served");
    assert_eq!(served.iter().map(|j| j.id).collect::<Vec<_>>(), [0]);
}

#[test]
fn fleet_admission_under_invalid_options_is_a_typed_error() {
    // `Fleet::new` takes any options; `admit` used to reach the plan cache
    // key's grid assert with them and panic. It validates first: no plan
    // is built, no plan-cache miss is counted and no tenant is admitted.
    let a = gen::laplacian_2d(6, 6);
    for (field, opts) in [
        (
            "grid",
            SolverOptions {
                n_nodes: 1,
                ranks_per_node: 1,
                grid: Some(ProcGrid::new(2, 2)),
                ..Default::default()
            },
        ),
        (
            "n_nodes × ranks_per_node",
            SolverOptions {
                ranks_per_node: 0,
                ..Default::default()
            },
        ),
    ] {
        let mut fleet = Fleet::new(&opts, FleetConfig::default());
        let before = (fleet.metrics_json(), fleet.telemetry_json());
        match fleet.admit("t", &a, 1.0) {
            Err(FleetError::Solver(SolverError::InvalidOptions { field: f, .. })) if f == field => {
            }
            other => panic!("{field}: expected InvalidOptions, got {other:?}"),
        }
        let cache = fleet.cache_metrics();
        assert_eq!((cache.plan_hits, cache.plan_misses), (0, 0), "{field}");
        assert_eq!(
            (fleet.metrics_json(), fleet.telemetry_json()),
            before,
            "{field}"
        );
    }
}

#[test]
fn a_panel_solve_without_the_matrix_refuses_refinement() {
    // Sessions and fleets refine against the matrix they retain; the bare
    // plan-layer panel solve has none, so it refuses the option rather
    // than ignore it.
    let a = gen::laplacian_2d(6, 6);
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 2,
        deterministic: true,
        ..Default::default()
    };
    let plan = SolvePlan::new(&a, &opts);
    let nf = factor_numeric(&plan, &Arc::new(plan.permute(&a))).expect("factor");
    let refining = SolvePlan {
        opts: SolverOptions {
            refine_steps: 2,
            ..opts
        },
        ..plan
    };
    let bp = refining.sf().perm.apply_vec(&test_rhs(a.n()));
    match solve_panel_distributed(&refining, &nf.stores, &bp, 1) {
        Err(SolverError::InvalidOptions {
            field: "refine_steps",
            ..
        }) => {}
        other => panic!("expected InvalidOptions, got {:?}", other.map(drop)),
    }
}

#[test]
fn a_plan_refuses_options_it_was_not_built_under() {
    // Same rank count, other analysis or grid: the plan's ordering and
    // block map would run while the options claim another.
    let a = gen::laplacian_2d(8, 8);
    let base = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 4,
        deterministic: true,
        ..Default::default()
    };
    let symbolic = SolvePlan::new(&a, &base).symbolic;
    let ap = Arc::new(SolvePlan::from_symbolic(Arc::clone(&symbolic), &base).permute(&a));
    let rcm = SolverOptions {
        ordering: sympack_ordering::OrderingKind::Rcm,
        ..base.clone()
    };
    let one_row = SolverOptions {
        grid: Some(ProcGrid::one_dimensional(4)),
        ..base.clone()
    };
    for (what, opts) in [("ordering", rcm), ("grid", one_row)] {
        let rejected = |entry: &str, r: Result<(), SolverError>| match r {
            Err(SolverError::InvalidOptions {
                field: "ordering, analyze or grid",
                ..
            }) => {}
            other => panic!("{what} through {entry}: expected InvalidOptions, got {other:?}"),
        };
        let plan = SolvePlan::from_symbolic(Arc::clone(&symbolic), &opts);
        rejected("factor_numeric", factor_numeric(&plan, &ap).map(drop));
        let session = Session::with_plan(&a, Arc::clone(&symbolic), &opts);
        rejected("Session::with_plan", session.map(drop));
    }
}

#[test]
fn fleet_configuration_is_checked_at_admission() {
    // `Fleet::new` used to assert `shards`, `max_batch` and `quantum`, and
    // `admit` the weight (a NaN weight included). `admit` checks all four
    // where it validates the options: a typed error naming the field, no
    // plan built, no plan-cache hit or miss counted, no tenant admitted.
    let a = gen::laplacian_2d(6, 6);
    let ok = FleetConfig::default();
    let quantum = |quantum| FleetConfig { quantum, ..ok };
    for (field, config, weight) in [
        ("shards", FleetConfig { shards: 0, ..ok }, 1.0),
        ("max_batch", FleetConfig { max_batch: 0, ..ok }, 1.0),
        ("quantum", quantum(0.0), 1.0),
        ("quantum", quantum(-2.0), 1.0),
        ("quantum", quantum(f64::NAN), 1.0),
        ("weight", ok, 0.0),
        ("weight", ok, -1.0),
        ("weight", ok, f64::NAN),
    ] {
        let label = format!("{field} ({config:?}, weight {weight})");
        let mut fleet = Fleet::new(&SolverOptions::default(), config);
        let before = (fleet.metrics_json(), fleet.telemetry_json());
        match fleet.admit("t", &a, weight) {
            Err(FleetError::InvalidConfig { field: f }) if f == field => {}
            other => panic!("{label}: expected InvalidConfig, got {other:?}"),
        }
        let cache = fleet.cache_metrics();
        assert_eq!((cache.plan_hits, cache.plan_misses), (0, 0), "{label}");
        assert_eq!(
            (fleet.metrics_json(), fleet.telemetry_json()),
            before,
            "{label}"
        );
    }
}

#[test]
fn indefinite_failure_position_is_plausible() {
    // A semidefinite matrix (rank-deficient) must also fail; the reported
    // column is in the permuted ordering so we only check the range.
    let mut coo = Coo::new(20, 20);
    for i in 0..20 {
        coo.push(i, i, 1.0).unwrap();
    }
    // Two identical coupled rows -> singular 2x2 principal minor somewhere.
    coo.push_sym(11, 10, 1.0).unwrap();
    let a = coo.to_csc().to_lower_sym();
    match SymPack::try_factor_and_solve(&a, &test_rhs(20), &SolverOptions::default()) {
        Err(SolverError::NotPositiveDefinite { column }) => assert!(column < 20),
        other => panic!("expected NotPositiveDefinite, got {other:?}"),
    }
}

#[test]
fn device_oom_cpu_fallback_still_solves() {
    let a = gen::flan_like(6, 6, 6);
    let b = test_rhs(a.n());
    let mut opts = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        ..Default::default()
    };
    opts.device_quota = 8 << 10; // far below the biggest block
    opts.oom_policy = OomPolicy::CpuFallback;
    let r = SymPack::try_factor_and_solve(&a, &b, &opts).expect("fallback must complete");
    assert!(r.relative_residual < 1e-9);
}

#[test]
fn device_oom_abort_policy_raises() {
    // Needs a problem big enough that some fanned-out block crosses the
    // device-copy threshold (64x64 elements).
    let a = gen::flan_like(12, 12, 12);
    let b = test_rhs(a.n());
    let mut opts = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        ..Default::default()
    };
    opts.device_quota = 8 << 10;
    opts.oom_policy = OomPolicy::Abort;
    match SymPack::try_factor_and_solve(&a, &b, &opts) {
        Err(SolverError::DeviceOom {
            requested,
            available,
            context,
        }) => {
            assert!(requested > available);
            // The error names the block whose fetch overflowed the device.
            assert!(
                context.contains("L("),
                "error should name the failing block, got context {context:?}"
            );
        }
        other => panic!("expected DeviceOom, got {other:?}"),
    }
}

#[test]
fn device_oom_cpu_fallback_covers_baseline_engines() {
    let a = gen::flan_like(6, 6, 6);
    let b = test_rhs(a.n());
    let mut opts = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        ..Default::default()
    };
    opts.device_quota = 8 << 10; // far below the biggest panel
    opts.oom_policy = OomPolicy::CpuFallback;
    for (name, run) in BASELINES {
        let r = run(&a, &b, &opts)
            .unwrap_or_else(|e| panic!("{name}: fallback must complete, got {e}"));
        assert!(r.relative_residual < 1e-9, "{name}");
    }
}

#[test]
fn device_oom_abort_names_the_failing_fetch_in_baselines() {
    // Big enough that some shipped panel/aggregate crosses the device-copy
    // threshold (64x64 elements) and overflows the tiny quota.
    let a = gen::flan_like(12, 12, 12);
    let b = test_rhs(a.n());
    let mut opts = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        ..Default::default()
    };
    opts.device_quota = 8 << 10;
    opts.oom_policy = OomPolicy::Abort;
    for (name, run) in BASELINES {
        match run(&a, &b, &opts) {
            Err(SolverError::DeviceOom {
                requested,
                available,
                context,
            }) => {
                assert!(requested > available, "{name}");
                assert!(
                    !context.is_empty(),
                    "{name}: error should name the failing panel/aggregate"
                );
            }
            other => panic!("{name}: expected DeviceOom, got {other:?}"),
        }
    }
}

#[test]
fn unlimited_quota_never_oomss() {
    let a = gen::flan_like(5, 5, 5);
    let b = test_rhs(a.n());
    let mut opts = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 1,
        ..Default::default()
    };
    opts.oom_policy = OomPolicy::Abort; // would fail loudly if quota hit
    let r = SymPack::try_factor_and_solve(&a, &b, &opts).expect("no quota, no OOM");
    assert!(r.relative_residual < 1e-9);
}

#[test]
fn malformed_matrix_files_are_rejected_not_panicked() {
    use sympack_sparse::io::{mm, rb};
    // Matrix Market failures.
    for text in [
        "",                                                                   // empty
        "%%MatrixMarket matrix coordinate real general\n",                    // no size
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 5.0\n",    // 0-based index
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5.0\n",    // out of range
        "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", // complex
    ] {
        assert!(mm::read(text.as_bytes()).is_err(), "accepted: {text:?}");
    }
    // Rutherford-Boeing failures.
    for text in [
        "",                                      // empty
        "t\n1 1 1 1\n",                          // truncated header
        "t\n1 1 1 1\nrua 2 2 1 0\nfmt\n",        // unsymmetric type
        "t\n1 1 1 1\nrsa 2 2 9 0\nfmt\n1 2 3\n", // token shortfall
    ] {
        assert!(rb::read(text.as_bytes()).is_err(), "accepted: {text:?}");
    }
}
