//! Telemetry-plane integration tests: snapshot determinism across solver
//! and fleet layers, clock invariance (instruments never move a virtual
//! clock), and the health watchdog — an injected network stall must raise
//! a typed `Stalled` health event *before* the engine's own quiescence
//! abort fires, and an impossible latency objective must raise `SloBurn`.
//! The plan layer (`factor_numeric_observed`, the path sessions and the
//! fleet serve from) is observed by the same per-rank body as the one-shot
//! driver, so its instruments and health events must equal the one-shot's.
//! The baselines run that one-shot driver too: `telemetry` reaches them, and
//! it must not move their clocks either.

use std::sync::Arc;
use sympack::plan::factor_numeric_observed;
use sympack::{SolvePlan, SolveReport, SolverError, SolverOptions, SymPack};
use sympack_baseline::{
    try_baseline_factor_and_solve, try_fanboth_factor_and_solve, try_fanin_factor_and_solve,
};
use sympack_fleet::{Fleet, FleetConfig};
use sympack_pgas::FaultPlan;
use sympack_service::{Server, ServerConfig, Session};
use sympack_sparse::gen;
use sympack_sparse::vecops::test_rhs;
use sympack_sparse::SparseSym;
use sympack_trace::health::HealthKind;
use sympack_trace::telemetry::SloPolicy;

/// The three baseline engines behind one signature.
type BaselineFn = fn(&SparseSym, &[f64], &SolverOptions) -> Result<SolveReport, SolverError>;

fn opts(p: usize, telemetry: bool) -> SolverOptions {
    SolverOptions {
        n_nodes: 1,
        ranks_per_node: p,
        deterministic: true,
        telemetry,
        ..Default::default()
    }
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i + 1) as f64 * 0.23).cos()).collect()
}

/// A seeded fleet mix at P ranks; returns its telemetry document.
fn fleet_doc(p: usize) -> String {
    let config = FleetConfig {
        shards: 2,
        factor_budget_bytes: 0,
        max_pending_per_tenant: 16,
        max_batch: 4,
        quantum: 2.0,
    };
    let mut fleet = Fleet::new(&opts(p, false), config);
    let a = gen::laplacian_2d(8, 8);
    let small = gen::laplacian_2d(6, 6);
    let mut ids = Vec::new();
    for (i, m) in [&a, &small, &a].iter().enumerate() {
        let id = fleet
            .admit(&format!("tenant{i}"), m, 1.0 + i as f64)
            .expect("admit");
        fleet.set_slo(id, SloPolicy::new(1.0, 0.99));
        ids.push((id, m.n()));
    }
    for round in 0..3 {
        for (t, &(id, n)) in ids.iter().enumerate() {
            let at = round as f64 * 0.03 + t as f64 * 0.0001;
            fleet.submit_at(id, rhs(n), at).expect("submit");
        }
        fleet.step().expect("step");
    }
    fleet.drain().expect("drain");
    fleet.telemetry_json()
}

#[test]
fn solver_snapshots_are_byte_identical_across_reruns() {
    let a = gen::laplacian_2d(12, 12);
    let b = vec![test_rhs(a.n())];
    for p in [1, 2, 4] {
        let run = || {
            let (result, tel) = SymPack::try_factor_and_solve_observed(&a, &b, &opts(p, true));
            let report = result.unwrap_or_else(|e| panic!("P={p}: solve failed: {e}"));
            (report, tel.expect("telemetry requested").to_json())
        };
        let (r1, doc1) = run();
        let (r2, doc2) = run();
        assert_eq!(doc1, doc2, "P={p}: snapshot JSON not byte-identical");
        assert_eq!(r1.factor_time.to_bits(), r2.factor_time.to_bits());
        // Instruments never touch a virtual clock: the untelemetered twin
        // has a bit-equal makespan.
        let base = SymPack::try_factor_and_solve_multi(&a, &b, &opts(p, false)).expect("baseline");
        assert_eq!(
            base.factor_time.to_bits(),
            r1.factor_time.to_bits(),
            "P={p}: telemetry changed the factor makespan"
        );
        for (name, run) in [
            ("right-looking", try_baseline_factor_and_solve as BaselineFn),
            ("fan-in", try_fanin_factor_and_solve),
            ("fan-both", try_fanboth_factor_and_solve),
        ] {
            let (on, off) = (opts(p, true), opts(p, false));
            let on = run(&a, &b[0], &on).expect("SPD input");
            let off = run(&a, &b[0], &off).expect("SPD input");
            let clocks = |r: &SolveReport| (r.factor_time.to_bits(), r.solve_time.to_bits());
            assert_eq!(
                clocks(&on),
                clocks(&off),
                "P={p} {name}: telemetry moved a clock"
            );
            assert_eq!(on.x, off.x, "P={p} {name}");
        }
        assert!(doc1.contains("\"kind\":\"solver\""), "P={p}");
        assert!(doc1.contains("sympack_sched_tasks_total"), "P={p}");
        assert!(doc1.contains("sympack_pgas_bytes_sent_total"), "P={p}");
        // The plan path attaches the same observers in the same body: the
        // scheduler instruments cover the factorization only, so a plan-path
        // factorization reports exactly the one-shot's document.
        let plan = SolvePlan::new(&a, &opts(p, true));
        let (nf, tel) = factor_numeric_observed(&plan, &Arc::new(plan.permute(&a)));
        let nf = nf.unwrap_or_else(|e| panic!("P={p}: factor_numeric failed: {e}"));
        assert_eq!(nf.factor_time.to_bits(), r1.factor_time.to_bits(), "P={p}");
        assert_eq!(
            tel.expect("telemetry requested").to_json(),
            doc1,
            "P={p}: plan-path telemetry differs from the one-shot's"
        );
    }
}

#[test]
fn fleet_documents_are_byte_identical_across_reruns() {
    for p in [1, 2, 4] {
        let doc1 = fleet_doc(p);
        let doc2 = fleet_doc(p);
        assert_eq!(doc1, doc2, "P={p}: fleet telemetry not byte-identical");
        assert!(doc1.contains("\"kind\":\"fleet\""), "P={p}");
        assert!(
            doc1.contains("sympack_fleet_jobs_served_total"),
            "P={p}: per-tenant serving counters missing"
        );
    }
}

#[test]
fn watchdog_raises_stalled_before_quiescence_abort() {
    // Sweep drop plans until one stalls the solver; the watchdog trips at
    // a fraction of the engine's quiescence-abort threshold, so every
    // diagnosed stall must carry a typed `Stalled` health event raised
    // strictly before the abort time.
    let a = gen::laplacian_2d(6, 6);
    let b = vec![test_rhs(a.n())];
    let (mut stalls, mut plan_stalls) = (0, 0);
    for seed in 0..400u64 {
        let o = SolverOptions {
            faults: Some(FaultPlan::drops(seed)),
            refine_steps: 0,
            ..opts(2, true)
        };
        let (result, tel) = SymPack::try_factor_and_solve_observed(&a, &b, &o);
        // The same seed on the plan path: a stall in the factorization is
        // the same stall, diagnosed by the same watchdog.
        let plan = SolvePlan::new(&a, &o);
        let (factored, plan_tel) = factor_numeric_observed(&plan, &Arc::new(plan.permute(&a)));
        if let Err(SolverError::Stalled { .. }) = factored {
            assert!(
                matches!(result, Err(SolverError::Stalled { .. })),
                "seed {seed}: plan path stalled, one-shot returned {result:?}"
            );
            let events = |t: &Option<sympack_trace::telemetry::TelemetryReport>| {
                let t = t
                    .as_ref()
                    .expect("telemetry report present even on failure");
                sympack_trace::health::health_events_json(&t.health)
            };
            assert!(events(&plan_tel).contains("stalled"), "seed {seed}");
            assert_eq!(events(&plan_tel), events(&tel), "seed {seed}");
            plan_stalls += 1;
        }
        match result {
            Ok(_) | Err(SolverError::FetchTimeout { .. }) => continue,
            Err(SolverError::Stalled { .. }) => {
                let tel = tel.expect("telemetry report present even on failure");
                assert!(
                    tel.health.iter().any(|h| h.kind == HealthKind::Stalled),
                    "seed {seed}: stalled run carries no Stalled health event"
                );
                stalls += 1;
                if stalls >= 3 && plan_stalls > 0 {
                    return;
                }
            }
            Err(e) => panic!("seed {seed}: undiagnosed failure {e}"),
        }
    }
    assert!(stalls > 0, "no drop seed in 0..400 produced a stall");
    assert!(plan_stalls > 0, "no drop seed stalled the plan path");
}

#[test]
fn fleet_watchdog_raises_slo_burn_for_impossible_objective() {
    let config = FleetConfig {
        shards: 1,
        factor_budget_bytes: 0,
        max_pending_per_tenant: 8,
        max_batch: 4,
        quantum: 2.0,
    };
    let mut fleet = Fleet::new(&opts(2, false), config);
    let a = gen::laplacian_2d(6, 6);
    let id = fleet.admit("burner", &a, 1.0).expect("admit");
    fleet.set_slo(id, SloPolicy::new(1e-12, 0.99));
    for k in 0..4 {
        fleet
            .submit_at(id, rhs(a.n()), k as f64 * 0.001)
            .expect("submit");
    }
    fleet.step().expect("step");
    fleet.drain().expect("drain");
    assert!(
        fleet
            .health_events()
            .iter()
            .any(|h| h.kind == HealthKind::SloBurn && h.subject == "burner"),
        "impossible objective must burn the error budget: {:?}",
        fleet.health_events()
    );
    let doc = fleet.telemetry_json();
    assert!(doc.contains("\"slo_burn\""), "event missing from document");
}

#[test]
fn session_solves_feed_service_telemetry() {
    // The serving-layer instruments accumulate across session solves and
    // render in the Prometheus exposition (spot checks only — the byte
    // gates live in the snapshot tests above).
    let a = gen::laplacian_2d(8, 8);
    let session = Session::new(&a, &opts(2, false)).expect("session");
    let mut server = Server::new(session, ServerConfig::default());
    for k in 0..5 {
        server
            .submit_at(rhs(a.n()), k as f64 * 0.001)
            .expect("submit");
    }
    server.drain().expect("drain");
    let text = server.telemetry().telemetry().render_text();
    assert!(text.contains("sympack_service_jobs_submitted_total 5"));
    assert!(text.contains("sympack_service_jobs_served_total 5"));
    assert!(text.contains("sympack_service_batch_size"));
    assert!(text.contains("sympack_service_latency_seconds"));
}
