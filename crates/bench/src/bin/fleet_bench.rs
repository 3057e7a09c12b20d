//! Multi-tenant fleet load generator: replays a seeded heavy-tailed tenant
//! mix over the matrix zoo through the `sympack-fleet` serving layer and
//! records plan-cache hit rates, LRU eviction churn and per-tenant latency
//! quantiles.
//!
//! ```text
//! cargo run --release -p sympack-bench --bin fleet_bench             # full sweep → BENCH_fleet.json
//! cargo run --release -p sympack-bench --bin fleet_bench -- --quick  # quick mix + gates (CI PR job)
//! cargo run --release -p sympack-bench --bin fleet_bench -- --check  # regression gate vs committed JSON
//! ```
//!
//! Optional artifacts (any mode): `--metrics-json PATH` dumps the last
//! fleet's cache + per-tenant metrics, `--telemetry-json PATH` dumps the
//! live-telemetry snapshot document (render or validate it with
//! `sympack-top --replay`), `--profile-json PATH` dumps a flight-recorder
//! profile of the per-request spans that `sympack-prof report` breaks down
//! by tenant.
//!
//! Every mix is seeded and runs entirely in the solver's virtual clocks:
//! tenant→pattern assignment, fairness weights, job counts and arrivals all
//! come from one `XorShift64` stream, and no wall-clock value reaches the
//! JSON, so the recorded rows are bit-stable. The full sweep rewrites
//! `BENCH_fleet.json` reproducibly; `--check` re-derives the quick-mix rows
//! and compares them byte-for-byte against the committed file, then
//! validates the serving invariants on the committed full-mix row:
//!
//! * repeated-pattern tenants admit as plan-cache hits (zero analysis);
//! * the LRU keeps the steady-state resident factor bytes under budget
//!   while evictions and re-materializations both actually happen.

use sympack::SolverOptions;
use sympack_bench::gate::{self, sci, Args, Row, Rows, Suite};
use sympack_bench::Problem;
use sympack_fleet::{Fleet, FleetConfig, TenantId};
use sympack_service::Session;
use sympack_sparse::gen::XorShift64;
use sympack_sparse::SparseSym;
use sympack_trace::json::Obj;
use sympack_trace::profile::{CommMatrix, Profile};

/// One replayable tenant mix. Heavy-tailed twice over: tenants are
/// Zipf-assigned to patterns (a hot pattern is shared by many tenants, so
/// the plan cache pays off) and to traffic classes (most tenants submit a
/// trickle, a few submit bursts at boosted fairness weight).
struct MixSpec {
    name: &'static str,
    seed: u64,
    tenants: usize,
    shards: usize,
    ranks_per_shard: usize,
    max_batch: usize,
    quantum: f64,
    /// Factor budget as a percentage of the summed per-tenant factor
    /// demand: < 100 guarantees LRU pressure.
    budget_pct: u64,
}

/// CI PR mix: small enough for a debug-build smoke run.
const QUICK: MixSpec = MixSpec {
    name: "quick",
    seed: 0x5eed_f1ee_0000_0001,
    tenants: 6,
    shards: 2,
    ranks_per_shard: 2,
    max_batch: 4,
    quantum: 2.0,
    budget_pct: 60,
};

/// Nightly mix: more tenants than the budget can keep resident, wider
/// shards, longer bursts.
const FULL: MixSpec = MixSpec {
    name: "full",
    seed: 0x5eed_f1ee_0000_0002,
    tenants: 12,
    shards: 3,
    ranks_per_shard: 4,
    max_batch: 8,
    quantum: 2.0,
    budget_pct: 55,
};

/// Heavy-tailed pick over `0..k`: P(i) ∝ 1/(i+1).
fn zipf(rng: &mut XorShift64, k: usize) -> usize {
    let h: f64 = (0..k).map(|i| 1.0 / (i + 1) as f64).sum();
    let mut u = rng.next_f64() * h;
    for i in 0..k {
        u -= 1.0 / (i + 1) as f64;
        if u <= 0.0 {
            return i;
        }
    }
    k - 1
}

/// Deterministic per-job right-hand side (recomputable for the residual
/// check without retaining every submitted vector).
fn rhs_for(tenant: usize, job: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i + 1) as f64 * 0.13 + tenant as f64 * 0.71 + job as f64 * 0.37).sin())
        .collect()
}

/// Replay one mix. Returns its rows of `BENCH_fleet.json` — the fleet-wide
/// summary, then one row per tenant — and the finished fleet (for the
/// metrics/profile artifacts).
fn run_mix(spec: &MixSpec) -> (Row, Vec<Row>, Fleet) {
    let mut rng = XorShift64::new(spec.seed);
    let zoo: Vec<SparseSym> = Problem::ALL.iter().map(|p| p.matrix_quick()).collect();

    // Seeded tenant population: pattern, fairness weight and burst length
    // are all heavy-tailed draws from the one stream.
    const WEIGHTS: [f64; 4] = [1.0, 1.0, 2.0, 4.0];
    const BURSTS: [usize; 4] = [4, 6, 10, 16];
    let assign: Vec<usize> = (0..spec.tenants)
        .map(|_| zipf(&mut rng, zoo.len()))
        .collect();
    let weights: Vec<f64> = (0..spec.tenants)
        .map(|_| WEIGHTS[zipf(&mut rng, WEIGHTS.len())])
        .collect();
    let bursts: Vec<usize> = (0..spec.tenants)
        .map(|_| BURSTS[zipf(&mut rng, BURSTS.len())])
        .collect();

    // Budget sized off probe factorizations of the distinct patterns in
    // play: a fixed fraction of the total per-tenant demand, so the LRU is
    // guaranteed to churn.
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: spec.ranks_per_shard,
        deterministic: true,
        ..Default::default()
    };
    let mut pattern_bytes = vec![0u64; zoo.len()];
    for (k, a) in zoo.iter().enumerate() {
        if assign.contains(&k) {
            pattern_bytes[k] = Session::new(a, &opts)
                .expect("probe factorization")
                .factor_bytes();
        }
    }
    let demand: u64 = assign.iter().map(|&k| pattern_bytes[k]).sum();
    let budget = demand * spec.budget_pct / 100;

    let config = FleetConfig {
        shards: spec.shards,
        factor_budget_bytes: budget,
        max_pending_per_tenant: 64,
        max_batch: spec.max_batch,
        quantum: spec.quantum,
    };
    let mut fleet = Fleet::new(&opts, config);

    // Admission: plan-cache hits are exactly the repeated patterns, and a
    // hit tenant pays zero analysis — the acceptance signal.
    let mut seen = vec![false; zoo.len()];
    let mut hits = vec![false; spec.tenants];
    let ids: Vec<TenantId> = (0..spec.tenants)
        .map(|t| {
            let k = assign[t];
            hits[t] = seen[k];
            seen[k] = true;
            fleet
                .admit(&format!("t{t:02}"), &zoo[k], weights[t])
                .unwrap_or_else(|e| panic!("{}: admit t{t:02}: {e}", spec.name))
        })
        .collect();
    let distinct = seen.iter().filter(|&&s| s).count();
    let cache = fleet.cache_metrics();
    assert_eq!(
        cache.plan_misses as usize, distinct,
        "{}: misses",
        spec.name
    );
    assert_eq!(
        cache.plan_hits as usize,
        spec.tenants - distinct,
        "{}: hits",
        spec.name
    );
    for (t, &id) in ids.iter().enumerate() {
        if hits[t] {
            assert_eq!(
                fleet.tenant_analyze_wall_ms(id),
                0.0,
                "{}: t{t:02} hit must skip analysis",
                spec.name
            );
        }
    }

    // Submit every tenant's burst with seeded arrival jitter, then drain
    // under the fair scheduler.
    for (t, &id) in ids.iter().enumerate() {
        let n = zoo[assign[t]].n();
        for j in 0..bursts[t] {
            let arrival = j as f64 * 0.02 + rng.next_f64() * 0.01;
            fleet
                .submit_at(id, rhs_for(t, j as u64, n), arrival)
                .unwrap_or_else(|e| panic!("{}: submit t{t:02}/{j}: {e}", spec.name));
        }
    }
    let done = fleet
        .drain()
        .unwrap_or_else(|e| panic!("{}: drain: {e}", spec.name));
    let total_jobs: u64 = bursts.iter().map(|&b| b as u64).sum();
    assert_eq!(
        done.len() as u64,
        total_jobs,
        "{}: all jobs complete",
        spec.name
    );
    for c in &done {
        let a = &zoo[assign[c.tenant.0]];
        let b = rhs_for(c.tenant.0, c.id, a.n());
        let res = a.relative_residual(&c.x, &b);
        assert!(
            res < 1e-8,
            "{}: t{:02}/job-{} residual {res}",
            spec.name,
            c.tenant.0,
            c.id
        );
    }

    let cache = fleet.cache_metrics();
    assert_eq!(
        fleet.request_spans().len() as u64,
        total_jobs,
        "{}: spans",
        spec.name
    );

    let scenario = Row::from(
        Obj::new()
            .str("mix", spec.name)
            .u64("tenants", spec.tenants as u64)
            .u64("patterns", distinct as u64)
            .u64("shards", spec.shards as u64)
            .u64("ranks_per_shard", spec.ranks_per_shard as u64)
            .u64("jobs", total_jobs)
            .u64("plan_hits", cache.plan_hits)
            .u64("plan_misses", cache.plan_misses)
            .u64("evictions", cache.factor_evictions)
            .u64("rematerializations", cache.rematerializations)
            .u64("budget_bytes", budget)
            .u64("high_water_bytes", cache.resident_high_water_bytes)
            .u64("resident_bytes", cache.resident_bytes)
            .str("makespan", &sci(fleet.makespan())),
    );
    let tenant_rows: Vec<Row> = ids
        .iter()
        .enumerate()
        .map(|(t, &id)| {
            let m = fleet.tenant_metrics(id);
            Row::from(
                Obj::new()
                    .str("mix", spec.name)
                    .str("tenant", &format!("t{t:02}"))
                    .str("pattern", Problem::ALL[assign[t]].name())
                    // Mirrors the fleet's round-robin shard pinning.
                    .u64("shard", (t % spec.shards) as u64)
                    .str("weight", &sci(weights[t]))
                    .bool("plan_hit", hits[t])
                    .u64("evictions", fleet.tenant_evictions(id))
                    .u64("jobs", m.jobs_served)
                    .str("p50", &sci(m.latency.p50()))
                    .str("p99", &sci(m.latency.p99())),
            )
        })
        .collect();
    (scenario, tenant_rows, fleet)
}

/// The serving invariants on one mix's summary row: the plan cache was
/// exercised, the budget forced eviction and transparent
/// re-materialization, yet steady-state residency never exceeded it.
/// Returns the summary of the row.
fn serving_invariants(scenario: &Row) -> Result<String, String> {
    let mix = scenario.text("mix")?;
    let (hits, misses) = (scenario.u64("plan_hits")?, scenario.u64("plan_misses")?);
    let evictions = scenario.u64("evictions")?;
    let remat = scenario.u64("rematerializations")?;
    let budget = scenario.u64("budget_bytes")?;
    let high = scenario.u64("high_water_bytes")?;
    if hits < 1 || misses < 1 {
        return Err(format!("{mix} mix must exercise the plan cache"));
    }
    if evictions < 1 || remat < 1 {
        return Err(format!("{mix} mix must churn the LRU"));
    }
    if high > budget {
        return Err(format!("{mix} mix high-water {high} over budget {budget}"));
    }
    Ok(format!(
        "{mix} mix: {hits} hits, {evictions} evictions, high-water {high}/{budget} B"
    ))
}

/// Dump the optional `--metrics-json` / `--telemetry-json` /
/// `--profile-json` artifacts from a finished fleet.
fn write_artifacts(args: &Args, fleet: &Fleet, spec: &MixSpec) {
    if let Some(path) = args.value("--metrics-json") {
        std::fs::write(path, fleet.metrics_json() + "\n").expect("write metrics json");
        println!("wrote fleet metrics to {path}");
    }
    if let Some(path) = args.value("--telemetry-json") {
        std::fs::write(path, fleet.telemetry_json() + "\n").expect("write telemetry json");
        println!("wrote fleet telemetry snapshot to {path}");
    }
    if let Some(path) = args.value("--profile-json") {
        let profile = Profile::build(
            "fleet",
            fleet.request_spans(),
            fleet.makespan(),
            spec.shards,
            CommMatrix::empty(spec.shards),
        );
        std::fs::write(path, profile.to_json()).expect("write profile json");
        println!("wrote fleet request profile to {path}");
    }
}

/// The quick mix with its invariants: the CI PR smoke, and the rows
/// `--check` re-derives.
fn quick(args: &Args, out: &mut Rows) -> Result<(), String> {
    let (scenario, tenant_rows, fleet) = run_mix(&QUICK);
    let verdict = serving_invariants(&scenario);
    out.push(scenario);
    tenant_rows.into_iter().for_each(|row| out.push(row));
    write_artifacts(args, &fleet, &QUICK);
    verdict.map(drop)
}

/// Both mixes; the file lists the two summaries before the tenants. The
/// artifacts come from the full mix.
fn full(args: &Args, out: &mut Rows) -> Result<(), String> {
    let (quick_scenario, quick_tenants, _) = run_mix(&QUICK);
    out.push(quick_scenario);
    let (full_scenario, full_tenants, fleet) = run_mix(&FULL);
    out.push(full_scenario);
    for row in quick_tenants.into_iter().chain(full_tenants) {
        out.push(row);
    }
    write_artifacts(args, &fleet, &FULL);
    Ok(())
}

/// Every summary row satisfies the serving invariants; the final line
/// quotes the full mix.
fn gate(rows: &[Row]) -> Result<String, String> {
    let mut full = None;
    for scenario in rows.iter().filter(|r| r.u64("tenants").is_ok()) {
        let summary = serving_invariants(scenario)?;
        if scenario.text("mix") == Ok(FULL.name) {
            full = Some(summary);
        }
    }
    full.ok_or("full-mix row missing".to_string())
}

fn main() -> std::process::ExitCode {
    gate::run(&Suite {
        file: "BENCH_fleet.json",
        flags: &["--metrics-json", "--telemetry-json", "--profile-json"],
        quick,
        cheap: quick,
        full,
        gate,
    })
}
