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
//!
//! Every mix also requires each tenant's batching to coalesce jobs into one
//! panel solve, and the shared replay (`sympack_bench::replay`) checks every
//! job's residual against the right-hand side it was submitted with.

use sympack::SolverOptions;
use sympack_bench::gate::{self, sci, Args, Row, Rows, Suite};
use sympack_bench::replay::{replay, Event, Mix, Tenant};
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

/// Replay one mix. Returns its rows of `BENCH_fleet.json` — the fleet-wide
/// summary, then one row per tenant — and the finished fleet (for the
/// metrics/profile artifacts).
fn run_mix(spec: &MixSpec) -> Result<(Row, Vec<Row>, Fleet), String> {
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

    // Every tenant's burst with seeded arrival jitter and a per-job
    // right-hand side, then a drain under the fair scheduler.
    let mut events = Vec::new();
    for (t, &burst) in bursts.iter().enumerate() {
        for j in 0..burst {
            let at = j as f64 * 0.02 + rng.next_f64() * 0.01;
            let phase = t as f64 * 0.71 + j as f64 * 0.37;
            let rhs = (0..zoo[assign[t]].n())
                .map(|i| ((i + 1) as f64 * 0.13 + phase).sin())
                .collect();
            events.push(Event::Submit { tenant: t, at, rhs });
        }
    }
    events.push(Event::Drain);
    let tenants = (0..spec.tenants)
        .map(|t| Tenant {
            name: format!("t{t:02}"),
            matrix: &zoo[assign[t]],
            weight: weights[t],
            slo: None,
        })
        .collect();
    let config = FleetConfig {
        shards: spec.shards,
        factor_budget_bytes: budget,
        max_pending_per_tenant: 64,
        max_batch: spec.max_batch,
        quantum: spec.quantum,
    };
    let mix = Mix { tenants, events };
    let name = spec.name;
    let fleet = replay(&opts, config, &mix, |_, _| {}).map_err(|e| format!("{name}: {e}"))?;

    // Plan-cache hits are exactly the repeated patterns, and a hit tenant
    // pays zero analysis — the acceptance signal. Every tenant's batching
    // coalesced at least two jobs into one panel solve.
    let mut seen = vec![false; zoo.len()];
    let hits: Vec<bool> = assign
        .iter()
        .map(|&k| std::mem::replace(&mut seen[k], true))
        .collect();
    let distinct = seen.iter().filter(|&&s| s).count() as u64;
    let cache = fleet.cache_metrics();
    if (cache.plan_misses, cache.plan_hits) != (distinct, spec.tenants as u64 - distinct) {
        return Err(format!("{name}: {distinct} patterns, {cache:?}"));
    }
    for t in 0..spec.tenants {
        if hits[t] && fleet.tenant_analyze_wall_ms(TenantId(t)) != 0.0 {
            return Err(format!("{name}: t{t:02} hit must skip analysis"));
        }
        if fleet.tenant_metrics(TenantId(t)).coalesced_jobs == 0 {
            return Err(format!("{name}: t{t:02} never coalesced two jobs"));
        }
    }
    let total_jobs: u64 = bursts.iter().map(|&b| b as u64).sum();
    if fleet.request_spans().len() as u64 != total_jobs {
        return Err(format!("{name}: one request span per job"));
    }

    let scenario = Row::from(
        Obj::new()
            .str("mix", spec.name)
            .u64("tenants", spec.tenants as u64)
            .u64("patterns", distinct)
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
    let tenant_rows: Vec<Row> = (0..spec.tenants)
        .map(|t| {
            let id = TenantId(t);
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
    Ok((scenario, tenant_rows, fleet))
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
    let (scenario, tenant_rows, fleet) = run_mix(&QUICK)?;
    let verdict = serving_invariants(&scenario);
    out.push(scenario);
    tenant_rows.into_iter().for_each(|row| out.push(row));
    write_artifacts(args, &fleet, &QUICK);
    verdict.map(drop)
}

/// Both mixes; the file lists the two summaries before the tenants. The
/// artifacts come from the full mix.
fn full(args: &Args, out: &mut Rows) -> Result<(), String> {
    let (quick_scenario, quick_tenants, _) = run_mix(&QUICK)?;
    out.push(quick_scenario);
    let (full_scenario, full_tenants, fleet) = run_mix(&FULL)?;
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
