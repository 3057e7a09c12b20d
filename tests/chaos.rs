//! Deterministic schedule-fuzzing and network fault-injection harness.
//!
//! Sweeps seeds × fault plans × engines × rank counts × comm topologies
//! through the shared task runtime in deterministic lockstep mode,
//! asserting that
//!
//! * with faults disabled, a run is bit-reproducible (identical virtual
//!   makespans and per-kind task counts across repeats);
//! * delay and duplication plans never change the numerical result
//!   (residual ≤ 1e-8) — the inbox deduplicates, the schedule just shifts;
//! * drop plans either complete with the correct result (the dropped
//!   message was redundant or a duplicate survived) or surface a
//!   *diagnosed* failure ([`SolverError::Stalled`] /
//!   [`SolverError::FetchTimeout`]) — never a hang.
//!
//! Every run exercises the triangular-solve engine on top of the selected
//! factorization engine, so the sweep covers all five engines on the shared
//! runtime (fan-out, right-looking, fan-in, fan-both, solve).
//!
//! The `tree` topology runs the full communication-aggregation layer —
//! per-destination signal coalescing plus (for the fan-out engine) the
//! hierarchical node-group broadcast over a two-node split — so fault
//! injection lands on coalesced frames and tree-relay hops too: a dropped
//! frame loses every sub-frame in it, and a dropped relay starves a whole
//! subtree, both of which must surface as a diagnosed stall, never a hang
//! or a wrong answer.
//!
//! A failing case panics with a one-line repro command of the form
//! `CHAOS_SEED=<n> CHAOS_PLAN=<p> CHAOS_ENGINE=<e> CHAOS_RANKS=<r>
//! CHAOS_TOPO=<t> cargo test -p sympack-integration --test chaos -- repro
//! --nocapture` and is appended to `target/chaos-failures.txt` for CI
//! artifact upload.
//!
//! `CHAOS_SEED_BUDGET` scales the number of seeds per (plan, engine, ranks)
//! combination (default 2 → ≥ 100 fuzz runs across the two sweep tests).

use sympack::{BcastTopology, CoalesceConfig, SolverError, SolverOptions, SymPack};
use sympack_baseline::{
    try_baseline_factor_and_solve, try_fanboth_factor_and_solve, try_fanin_factor_and_solve,
};
use sympack_fleet::{Fleet, FleetConfig};
use sympack_pgas::FaultPlan;
use sympack_service::Session;
use sympack_sparse::gen;
use sympack_sparse::vecops::test_rhs;

const ENGINES: [&str; 4] = ["fanout", "rightlooking", "fanin", "fanboth"];
const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];
const TOPOLOGIES: [&str; 2] = ["flat", "tree"];
const RESIDUAL_TOL: f64 = 1e-8;

/// Node split for a topology: `tree` spreads the ranks over two virtual
/// nodes (so node-group relays actually cross the network), `flat` keeps
/// the historical single-node layout.
fn nodes_of(topo: &str, ranks: usize) -> (usize, usize) {
    match topo {
        "tree" if ranks >= 2 => (2, ranks / 2),
        _ => (1, ranks),
    }
}

/// Seeds per (plan, engine, ranks) combination.
fn seed_budget() -> u64 {
    std::env::var("CHAOS_SEED_BUDGET")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// Build the named fault plan for `seed`. `none` disables injection.
fn plan_of(name: &str, seed: u64) -> Option<FaultPlan> {
    match name {
        "none" => None,
        "delays" => Some(FaultPlan::delays_only(seed)),
        "dup" => Some(FaultPlan::duplication(seed)),
        "drops" => Some(FaultPlan::drops(seed)),
        "chaos" => Some(FaultPlan::chaos(seed)),
        other => panic!("unknown fault plan {other:?}"),
    }
}

/// What one fuzz run reports: virtual makespans, per-kind task counts and
/// the relative residual.
struct RunOutcome {
    factor_time: f64,
    solve_time: f64,
    task_counts: Vec<(String, u64)>,
    residual: f64,
}

/// One factor+solve run of `engine` under `plan_name`/`seed` at `ranks`
/// ranks and `topo` comm topology, in deterministic lockstep mode.
fn run_one(
    engine: &str,
    plan_name: &str,
    seed: u64,
    ranks: usize,
    topo: &str,
) -> Result<RunOutcome, SolverError> {
    let a = gen::laplacian_2d(6, 6);
    let b = test_rhs(a.n());
    let faults = plan_of(plan_name, seed);
    let (n_nodes, ranks_per_node) = nodes_of(topo, ranks);
    let tree = topo == "tree";
    // Under `tree` the full aggregation layer is on: signal coalescing for
    // every engine, plus the node-group broadcast tree (arity 2, so even
    // tiny rank counts form relay chains) for the fan-out engine.
    let bcast = if tree {
        BcastTopology::Tree { arity: 2 }
    } else {
        BcastTopology::Flat
    };
    let coalesce = tree.then(CoalesceConfig::default);
    let opts = SolverOptions {
        n_nodes,
        ranks_per_node,
        faults,
        deterministic: true,
        coalesce,
        ..Default::default()
    };
    let r = match engine {
        "fanout" => SymPack::try_factor_and_solve(&a, &b, &SolverOptions { bcast, ..opts })?,
        "rightlooking" => try_baseline_factor_and_solve(&a, &b, &opts)?,
        "fanin" => try_fanin_factor_and_solve(&a, &b, &opts)?,
        "fanboth" => try_fanboth_factor_and_solve(&a, &b, &opts)?,
        other => panic!("unknown engine {other:?}"),
    };
    Ok(RunOutcome {
        factor_time: r.factor_time,
        solve_time: r.solve_time,
        task_counts: r.task_counts,
        residual: r.relative_residual,
    })
}

/// One-line command reproducing a failing case.
fn repro_cmd(engine: &str, plan: &str, seed: u64, ranks: usize, topo: &str) -> String {
    format!(
        "CHAOS_SEED={seed} CHAOS_PLAN={plan} CHAOS_ENGINE={engine} CHAOS_RANKS={ranks} \
         CHAOS_TOPO={topo} cargo test -p sympack-integration --test chaos -- repro --nocapture"
    )
}

/// Append a failing case to `target/chaos-failures.txt` (CI artifact).
fn record_failure(line: &str) {
    use std::io::Write;
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos-failures.txt");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(f, "{line}");
    }
}

/// Fail the sweep with a repro command, recording it for artifact upload.
fn fail_case(engine: &str, plan: &str, seed: u64, ranks: usize, topo: &str, why: &str) -> ! {
    let cmd = repro_cmd(engine, plan, seed, ranks, topo);
    record_failure(&format!("{why} :: {cmd}"));
    panic!("{why}\nrepro: {cmd}");
}

#[test]
fn fault_free_runs_are_bit_deterministic() {
    for topo in TOPOLOGIES {
        for engine in ENGINES {
            for ranks in [2, 4] {
                let first = run_one(engine, "none", 0, ranks, topo).unwrap_or_else(|e| {
                    panic!("{engine}/{topo} P={ranks}: fault-free run failed: {e}")
                });
                let second = run_one(engine, "none", 0, ranks, topo).unwrap_or_else(|e| {
                    panic!("{engine}/{topo} P={ranks}: fault-free rerun failed: {e}")
                });
                assert_eq!(
                    first.factor_time.to_bits(),
                    second.factor_time.to_bits(),
                    "{engine}/{topo} P={ranks}: factor makespan not bit-reproducible \
                     ({} vs {})",
                    first.factor_time,
                    second.factor_time
                );
                assert_eq!(
                    first.solve_time.to_bits(),
                    second.solve_time.to_bits(),
                    "{engine}/{topo} P={ranks}: solve makespan not bit-reproducible \
                     ({} vs {})",
                    first.solve_time,
                    second.solve_time
                );
                assert_eq!(
                    first.task_counts, second.task_counts,
                    "{engine}/{topo} P={ranks}: task counts not reproducible"
                );
                assert!(first.residual < RESIDUAL_TOL);
            }
        }
    }
}

#[test]
fn delay_plans_shift_schedules_without_changing_results() {
    // Delays reorder message arrival but lose nothing: every seed must
    // complete with the correct result, and per-kind task counts must match
    // the fault-free schedule (a schedule invariant).
    let budget = seed_budget();
    for topo in TOPOLOGIES {
        for engine in ENGINES {
            for &ranks in &RANK_COUNTS {
                let baseline = run_one(engine, "none", 0, ranks, topo).unwrap_or_else(|e| {
                    panic!("{engine}/{topo} P={ranks}: fault-free run failed: {e}")
                });
                for seed in 0..budget {
                    match run_one(engine, "delays", seed, ranks, topo) {
                        Ok(out) => {
                            if out.residual >= RESIDUAL_TOL {
                                fail_case(
                                    engine,
                                    "delays",
                                    seed,
                                    ranks,
                                    topo,
                                    &format!("residual {} exceeds {RESIDUAL_TOL}", out.residual),
                                );
                            }
                            if out.task_counts != baseline.task_counts {
                                fail_case(
                                    engine,
                                    "delays",
                                    seed,
                                    ranks,
                                    topo,
                                    "per-kind task counts diverge from the fault-free schedule",
                                );
                            }
                        }
                        Err(e) => fail_case(
                            engine,
                            "delays",
                            seed,
                            ranks,
                            topo,
                            &format!("delay-only plan must complete, got {e}"),
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn duplication_plans_are_absorbed_by_the_idempotent_inbox() {
    let budget = seed_budget();
    for topo in TOPOLOGIES {
        for engine in ENGINES {
            for &ranks in &RANK_COUNTS {
                for seed in 0..budget {
                    match run_one(engine, "dup", seed, ranks, topo) {
                        Ok(out) => {
                            if out.residual >= RESIDUAL_TOL {
                                fail_case(
                                    engine,
                                    "dup",
                                    seed,
                                    ranks,
                                    topo,
                                    &format!(
                                        "duplicate delivery changed the result \
                                         (residual {})",
                                        out.residual
                                    ),
                                );
                            }
                        }
                        Err(e) => fail_case(
                            engine,
                            "dup",
                            seed,
                            ranks,
                            topo,
                            &format!("duplication plan must complete, got {e}"),
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn drop_plans_complete_or_diagnose_a_stall_never_hang() {
    let budget = seed_budget();
    let (mut completed, mut diagnosed) = (0u64, 0u64);
    for topo in TOPOLOGIES {
        for plan in ["drops", "chaos"] {
            for engine in ENGINES {
                for &ranks in &RANK_COUNTS {
                    for seed in 0..budget {
                        match run_one(engine, plan, seed, ranks, topo) {
                            Ok(out) => {
                                completed += 1;
                                if out.residual >= RESIDUAL_TOL {
                                    fail_case(
                                        engine,
                                        plan,
                                        seed,
                                        ranks,
                                        topo,
                                        &format!(
                                            "completed with wrong result \
                                             (residual {})",
                                            out.residual
                                        ),
                                    );
                                }
                            }
                            // The two diagnosed failure modes of a lossy
                            // network: the quiescence detector named the
                            // stall, or the rget retry budget ran out.
                            // Reaching here at all means the run terminated
                            // (no hang) — including frame drops (all subs
                            // lost at once) and relay drops (a starved
                            // subtree) under the tree topology.
                            Err(SolverError::Stalled { .. })
                            | Err(SolverError::FetchTimeout { .. }) => {
                                diagnosed += 1;
                            }
                            Err(e) => fail_case(
                                engine,
                                plan,
                                seed,
                                ranks,
                                topo,
                                &format!("undiagnosed failure mode: {e}"),
                            ),
                        }
                    }
                }
            }
        }
    }
    eprintln!("drop sweep: {completed} completed, {diagnosed} diagnosed stalls");
    assert!(
        completed + diagnosed > 0,
        "sweep executed no cases — budget misconfigured?"
    );
}

#[test]
fn eviction_under_faults_rematerializes_correctly() {
    // LRU churn under message chaos: three single-shard tenants behind a
    // two-factor budget keep evicting each other, so every scheduling round
    // re-factorizes an evicted tenant *while* the fault plan delays or
    // duplicates its messages. Lossless plans must stay invisible to the
    // serving layer: every answer correct, the budget held, and the churn
    // counters actually moving.
    let budget = seed_budget();
    let a = gen::laplacian_2d(6, 6);
    let base = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 2,
        deterministic: true,
        refine_steps: 0,
        ..Default::default()
    };
    let one = Session::new(&a, &base)
        .expect("probe factorization")
        .factor_bytes();
    let config = FleetConfig {
        shards: 1,
        factor_budget_bytes: 2 * one + one / 2,
        max_pending_per_tenant: 16,
        max_batch: 1,
        quantum: 1.0,
    };
    for plan in ["delays", "dup"] {
        for seed in 0..budget {
            let opts = SolverOptions {
                faults: plan_of(plan, seed),
                ..base.clone()
            };
            let mut fleet = Fleet::new(&opts, config);
            let tenants: Vec<_> = ["alice", "bob", "carol"]
                .iter()
                .map(|name| {
                    fleet.admit(name, &a, 1.0).unwrap_or_else(|e| {
                        panic!("{plan}/seed={seed}: admit {name} under faults: {e}")
                    })
                })
                .collect();
            let b = test_rhs(a.n());
            for round in 0..3 {
                for &t in &tenants {
                    fleet.submit_at(t, b.clone(), round as f64 * 0.1).unwrap();
                }
            }
            let done = fleet
                .drain()
                .unwrap_or_else(|e| panic!("{plan}/seed={seed}: fleet drain under faults: {e}"));
            assert_eq!(done.len(), 9, "{plan}/seed={seed}: all jobs complete");
            for c in &done {
                let res = a.relative_residual(&c.x, &b);
                assert!(
                    res < RESIDUAL_TOL,
                    "{plan}/seed={seed}: tenant {} job {} re-factorized wrong under \
                     faults (residual {res})",
                    c.tenant.0,
                    c.id
                );
            }
            let cm = fleet.cache_metrics();
            assert!(
                cm.factor_evictions >= 1,
                "{plan}/seed={seed}: budget never forced an eviction"
            );
            assert!(
                cm.rematerializations >= 1,
                "{plan}/seed={seed}: no evicted tenant was re-factorized"
            );
            assert!(
                cm.resident_high_water_bytes <= config.factor_budget_bytes,
                "{plan}/seed={seed}: high-water {} over budget {}",
                cm.resident_high_water_bytes,
                config.factor_budget_bytes
            );
        }
    }
}

/// Re-run a single failing case from its environment description:
/// `CHAOS_SEED=<n> CHAOS_PLAN=<p> CHAOS_ENGINE=<e> CHAOS_RANKS=<r>
/// CHAOS_TOPO=<t> cargo test -p sympack-integration --test chaos -- repro
/// --nocapture`. `CHAOS_TOPO` defaults to `flat`, so pre-existing repro
/// lines keep reproducing the same runs.
#[test]
fn repro() {
    let Ok(seed) = std::env::var("CHAOS_SEED") else {
        return; // not invoked as a repro; nothing to do
    };
    let seed: u64 = seed.parse().expect("CHAOS_SEED must be an integer");
    let plan = std::env::var("CHAOS_PLAN").unwrap_or_else(|_| "chaos".into());
    let engine = std::env::var("CHAOS_ENGINE").unwrap_or_else(|_| "fanout".into());
    let ranks: usize = std::env::var("CHAOS_RANKS")
        .unwrap_or_else(|_| "4".into())
        .parse()
        .expect("CHAOS_RANKS must be an integer");
    let topo = std::env::var("CHAOS_TOPO").unwrap_or_else(|_| "flat".into());
    match run_one(&engine, &plan, seed, ranks, &topo) {
        Ok(out) => eprintln!(
            "repro {engine}/{plan}/{topo}/seed={seed}/P={ranks}: completed, \
             residual {} factor {}s solve {}s",
            out.residual, out.factor_time, out.solve_time
        ),
        Err(e) => eprintln!("repro {engine}/{plan}/{topo}/seed={seed}/P={ranks}: failed with {e}"),
    }
}

#[test]
fn blr_mode_under_faults_stays_accurate_and_never_hangs() {
    // Compressed publications ride the same signal/rget machinery as dense
    // ones — a low-rank `[U|V]` payload dropped, delayed or duplicated must
    // behave exactly like a dense block would: lossless plans (delays, dup)
    // complete with the residual inside the BLR tolerance budget, and drop
    // plans either complete correctly or surface a diagnosed stall, never a
    // hang and never a silently wrong answer.
    let budget = seed_budget();
    let a = gen::bone_like(6, 6, 5);
    let b = test_rhs(a.n());
    let opts_for = |ranks: usize, faults: Option<FaultPlan>| {
        let (n_nodes, ranks_per_node) = nodes_of("tree", ranks);
        SolverOptions {
            n_nodes,
            ranks_per_node,
            faults,
            deterministic: true,
            // tol=1e-6 with two refinement steps: the factorization is
            // approximate, the refined solution is not (≪ RESIDUAL_TOL).
            refine_steps: 2,
            blr: sympack::BlrConfig {
                tol: 1e-6,
                min_block: 8,
                max_rank: usize::MAX,
            },
            ..Default::default()
        }
    };
    for ranks in [2usize, 4] {
        // The fault-free baseline must actually exercise the compressed
        // path — otherwise the sweep tests nothing.
        let base = SymPack::try_factor_and_solve(&a, &b, &opts_for(ranks, None))
            .unwrap_or_else(|e| panic!("P={ranks}: fault-free BLR run failed: {e}"));
        let compressed: u64 = base.blr_counts.iter().map(|c| c.compressed).sum();
        assert!(compressed > 0, "P={ranks}: BLR chaos case never compressed");
        assert!(base.relative_residual < RESIDUAL_TOL);
        for plan in ["delays", "dup", "drops"] {
            for seed in 0..budget {
                let opts = opts_for(ranks, plan_of(plan, seed));
                match SymPack::try_factor_and_solve(&a, &b, &opts) {
                    Ok(r) => {
                        if r.relative_residual >= RESIDUAL_TOL {
                            fail_case(
                                "fanout-blr",
                                plan,
                                seed,
                                ranks,
                                "tree",
                                &format!(
                                    "BLR run completed with wrong result \
                                     (residual {})",
                                    r.relative_residual
                                ),
                            );
                        }
                    }
                    Err(SolverError::Stalled { .. } | SolverError::FetchTimeout { .. })
                        if plan == "drops" => {} // diagnosed, not hung
                    Err(e) => fail_case(
                        "fanout-blr",
                        plan,
                        seed,
                        ranks,
                        "tree",
                        &format!("{plan} plan must complete or diagnose, got {e}"),
                    ),
                }
            }
        }
    }
}
