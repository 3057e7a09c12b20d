//! Serving-layer economics: what a persistent [`Session`] buys over the
//! one-shot driver.
//!
//! ```text
//! cargo run --release -p sympack-bench --bin session_amortization [--quick]
//! ```
//!
//! Three tables:
//!
//! 1. **Batched panel solve vs per-vector** — virtual time of one
//!    `solve_batch` over `nrhs ∈ {4, 16, 64}` right-hand sides against the
//!    same columns solved one at a time. A panel solve issues the same
//!    message and task count as a single-vector solve, so the win grows
//!    with `nrhs`.
//! 2. **Numeric refactorization vs fresh factor-and-solve** — wall-clock
//!    cost of [`Session::refactorize`] (numeric phase only, symbolic state
//!    reused) against a fresh `SymPack::factor_and_solve` on the same
//!    pattern (which re-runs ordering, analysis, mapping and task-graph
//!    construction every time).
//! 3. **Amortization curve** — amortized virtual cost per served job as a
//!    one-tenant fleet (a single-session server) batches a growing job
//!    count, against the one-shot cost. The jobs are a mix replayed by
//!    `sympack_bench::replay`, which checks every residual.
//!
//! Tables 1 and 3 run under deterministic lockstep, so two runs print them
//! identically; table 2 is wall-clock and moves run to run.

use std::time::Instant;
use sympack::{SolverOptions, SymPack};
use sympack_bench::gate::Args;
use sympack_bench::replay::{replay, Event, Mix, Tenant};
use sympack_bench::{fmt_secs, render_table, Problem};
use sympack_fleet::{FleetConfig, TenantId};
use sympack_service::{RhsPanel, Session};
use sympack_sparse::gen::{laplacian_3d, XorShift64};
use sympack_sparse::SparseSym;

fn rhs_columns(n: usize, nrhs: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = XorShift64::new(seed);
    (0..nrhs)
        .map(|_| (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect())
        .collect()
}

fn lower_values(a: &SparseSym) -> Vec<f64> {
    let mut v = Vec::with_capacity(a.nnz());
    for c in 0..a.n() {
        v.extend_from_slice(a.col_values(c));
    }
    v
}

fn main() {
    let quick = Args::from_env(&["--quick"], &[]).has("--quick");
    let opts = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        ..Default::default()
    };
    // The virtual-time tables run in lockstep, so they reproduce exactly;
    // the wall-clock table runs free.
    let lockstep = SolverOptions {
        deterministic: true,
        ..opts.clone()
    };

    let (name, a) = if quick {
        ("laplacian_3d 8^3", laplacian_3d(8, 8, 8))
    } else {
        ("laplacian_3d 12^3", laplacian_3d(12, 12, 12))
    };
    println!(
        "=== {} — n={}, nnz={} — 4 ranks (2 nodes × 2) ===",
        name,
        a.n(),
        a.nnz_full()
    );
    let session = Session::new(&a, &lockstep).expect("SPD model problem factors");

    // Table 1: one panel solve vs nrhs single-vector solves.
    let mut rows = vec![vec![
        "nrhs".to_string(),
        "panel solve".to_string(),
        "per-vector".to_string(),
        "speedup".to_string(),
        "worst residual".to_string(),
    ]];
    for &nrhs in &[4usize, 16, 64] {
        let cols = rhs_columns(a.n(), nrhs, 7 + nrhs as u64);
        let panel = RhsPanel::from_columns(&cols);
        let batch = session.solve_batch(&[panel]).expect("panel solve");
        let mut per_vector = 0.0;
        let mut worst = 0.0f64;
        for (k, b) in cols.iter().enumerate() {
            let one = session
                .solve_batch(&[RhsPanel::from_vector(b)])
                .expect("vector solve");
            per_vector += one.solve_time;
            let r = a.relative_residual(batch.panels[0].column(k), b);
            worst = worst.max(r);
        }
        rows.push(vec![
            nrhs.to_string(),
            fmt_secs(batch.solve_time),
            fmt_secs(per_vector),
            format!("{:.2}x", per_vector / batch.solve_time),
            format!("{worst:.3e}"),
        ]);
    }
    println!("\n-- batched panel solve vs per-vector (virtual time) --");
    println!("{}", render_table(&rows));

    // Table 2: numeric refactorization vs fresh factor-and-solve, wall-clock.
    // Uses the bench problems so the analysis phase being skipped is
    // non-trivial work.
    let mut rows = vec![vec![
        "problem".to_string(),
        "refactorize (wall)".to_string(),
        "fresh factor_and_solve (wall)".to_string(),
        "refactor advantage".to_string(),
        "residual".to_string(),
    ]];
    let problems: Vec<(String, SparseSym)> = Problem::ALL
        .iter()
        .map(|p| (p.name().to_string(), p.matrix_quick()))
        .collect();
    let reps = if quick { 2 } else { 3 };
    for (pname, m) in &problems {
        let mut session = Session::new(m, &opts).expect("SPD model problem factors");
        let values = lower_values(m);
        let b: Vec<f64> = rhs_columns(m.n(), 1, 99).remove(0);
        // Warm-up once each, then time `reps` repetitions of both paths.
        session.refactorize(&values).expect("same pattern");
        let t0 = Instant::now();
        for _ in 0..reps {
            session.refactorize(&values).expect("same pattern");
        }
        let refactor_wall = t0.elapsed().as_secs_f64() / reps as f64;
        let x = session.solve(&b).expect("solve");
        let residual = m.relative_residual(&x, &b);
        let t0 = Instant::now();
        for _ in 0..reps {
            let r = SymPack::factor_and_solve(m, &b, &opts);
            assert!(r.relative_residual < 1e-8);
        }
        let fresh_wall = t0.elapsed().as_secs_f64() / reps as f64;
        rows.push(vec![
            pname.clone(),
            fmt_secs(refactor_wall),
            fmt_secs(fresh_wall),
            format!("{:.2}x", fresh_wall / refactor_wall),
            format!("{residual:.3e}"),
        ]);
    }
    println!("\n-- numeric refactorization vs fresh solve (wall-clock) --");
    println!("{}", render_table(&rows));

    // Table 3: amortized cost per job as a one-tenant fleet batches more
    // jobs, read after each checkpoint's drain.
    let checkpoints: &[usize] = if quick { &[1, 8, 64] } else { &[1, 8, 64, 256] };
    let jobs = rhs_columns(a.n(), checkpoints[checkpoints.len() - 1], 4242);
    let mut events = Vec::new();
    for (j, rhs) in jobs.into_iter().enumerate() {
        events.push(Event::Submit {
            tenant: 0,
            at: j as f64 * 1e-4,
            rhs,
        });
        if checkpoints.contains(&(j + 1)) {
            events.push(Event::Drain);
        }
    }
    let config = FleetConfig {
        shards: 1,
        factor_budget_bytes: 0,
        max_pending_per_tenant: 1 << 14,
        max_batch: 16,
        quantum: 16.0,
    };
    let tenants = vec![Tenant {
        name: "amortization".to_string(),
        matrix: &a,
        weight: 1.0,
        slo: None,
    }];
    let mut rows = vec![vec![
        "jobs served".to_string(),
        "amortized cost/job".to_string(),
        "one-shot cost/job".to_string(),
        "advantage".to_string(),
    ]];
    replay(&lockstep, config, &Mix { tenants, events }, |fleet, _| {
        let m = fleet.tenant_metrics(TenantId(0));
        rows.push(vec![
            format!("{}", m.jobs_served),
            fmt_secs(m.amortized_cost_per_job()),
            fmt_secs(m.one_shot_cost_per_job()),
            format!(
                "{:.1}x",
                m.one_shot_cost_per_job() / m.amortized_cost_per_job()
            ),
        ]);
    })
    .expect("replayed jobs solve");
    println!("\n-- amortization: session cost per job vs one-shot (virtual time) --");
    println!("{}", render_table(&rows));
    println!("(virtual times are modeled makespans; wall-clock rows are measured on this machine)");
}
