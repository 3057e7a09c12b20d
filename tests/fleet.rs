//! Fleet integration tests: plan-cache reuse must be invisible to the
//! numerics.
//!
//! * [`cached_plan_is_bit_identical_across_engines`] pins the tentpole
//!   contract of the pattern-keyed plan cache: a factorization built from a
//!   cached `SymbolicPlan` produces byte-identical factor blocks and solve
//!   results vs. a fresh analyze — fan-out + panel triangular solve,
//!   through `Session` — at P ∈ {1, 2, 4}. (The baselines have no
//!   plan-cache path: they analyze on every call, as the fan-out's
//!   one-shot does.)
//! * [`fleet_amortizes_analysis_across_tenants`] drives a small multi-tenant
//!   mix end to end: repeated-pattern tenants admit as plan-cache hits
//!   (analyze wall time exactly 0), every tenant's solutions stay correct,
//!   and the LRU keeps residency under the configured byte budget.
//! * [`one_tenant_fleet_serves_like_the_single_session_server`] pins the
//!   one-tenant fleet (`shards: 1`, no factor budget, `quantum =
//!   max_batch`) — the shape that replaced the single-session server —
//!   to what the server produced on the same workload: its metrics JSON and
//!   final clock, and its jobs and request spans in the `fleet` corpus
//!   (`tests/golden/fleet.txt`).
//! * [`serving_views_agree_with_the_registry`] ties the fleet's report
//!   views (`tenant_metrics`, `cache_metrics`, the tenants of
//!   `telemetry_json`) to the registry snapshot inside that document, on a
//!   mix that evicts, re-materializes, refactorizes and rejects jobs.
//! * [`a_refining_blr_tenant_serves_full_accuracy`] serves a block-low-rank
//!   tenant whose options ask for refinement: its jobs come back to full
//!   accuracy, which the same tenant without refinement does not reach.

mod golden;

use std::sync::Arc;

use golden::Fingerprint;
use sympack::{SolverOptions, SymbolicPlan};
use sympack_fleet::{Fleet, FleetConfig};
use sympack_service::Session;
use sympack_sparse::gen;
use sympack_sparse::SparseSym;
use sympack_trace::json::{self, JsonValue};

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i + 1) as f64 * 0.23).sin()).collect()
}

fn assert_bits_eq(label: &str, xs: &[f64], ys: &[f64]) {
    assert_eq!(xs.len(), ys.len(), "{label}: length");
    for (i, (u, v)) in xs.iter().zip(ys.iter()).enumerate() {
        assert_eq!(u.to_bits(), v.to_bits(), "{label}: element {i}");
    }
}

fn assert_factors_bit_identical(label: &str, fresh: &Session, cached: &Session) {
    let s1 = fresh.factor_stores().expect("fresh factor resident");
    let s2 = cached.factor_stores().expect("cached factor resident");
    assert_eq!(s1.len(), s2.len(), "{label}: rank count");
    for (r, (a, b)) in s1.iter().zip(s2.iter()).enumerate() {
        let mut keys: Vec<_> = a.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        let mut keys_b: Vec<_> = b.iter().map(|(k, _)| *k).collect();
        keys_b.sort_unstable();
        assert_eq!(keys, keys_b, "{label}: rank {r} block keys");
        for k in keys {
            let m1 = a.get(k).unwrap().to_dense();
            let m2 = b.get(k).unwrap().to_dense();
            assert_bits_eq(
                &format!("{label}: rank {r} block {k:?}"),
                m1.as_slice(),
                m2.as_slice(),
            );
        }
    }
}

#[test]
fn cached_plan_is_bit_identical_across_engines() {
    let a = gen::laplacian_2d(7, 6);
    let b = rhs(a.n());
    for p in [1usize, 2, 4] {
        // Fan-out factorization + panel triangular solve via Session: the
        // cached-plan session must reproduce the fresh session bit for bit.
        let opts = SolverOptions {
            n_nodes: 1,
            ranks_per_node: p,
            deterministic: true,
            ..Default::default()
        };
        let fresh = Session::new(&a, &opts).unwrap_or_else(|e| panic!("P={p}: fresh: {e}"));
        let plan: Arc<SymbolicPlan> = fresh.symbolic_plan();
        let cached = Session::with_plan(&a, Arc::clone(&plan), &opts)
            .unwrap_or_else(|e| panic!("P={p}: cached: {e}"));
        assert_eq!(cached.analyze_wall_ms(), 0.0, "P={p}: hit skips analysis");
        assert_eq!(
            fresh.factor_time().to_bits(),
            cached.factor_time().to_bits(),
            "P={p}: fan-out factor_time"
        );
        assert_factors_bit_identical(&format!("P={p} fan-out"), &fresh, &cached);
        let xf = fresh.solve(&b).unwrap();
        let xc = cached.solve(&b).unwrap();
        assert_bits_eq(&format!("P={p} trisolve"), &xf, &xc);
        assert!(a.relative_residual(&xc, &b) < 1e-8, "P={p}: residual");
    }
}

#[test]
fn fleet_amortizes_analysis_across_tenants() {
    let patterns = [gen::laplacian_2d(7, 7), gen::laplacian_2d(6, 6)];
    for p in [1usize, 2, 4] {
        let opts = SolverOptions {
            n_nodes: 1,
            ranks_per_node: p,
            deterministic: true,
            ..Default::default()
        };
        // Budget sized from a probe factor so the third tenant forces LRU
        // eviction (two distinct patterns, five tenants).
        let probe = Session::new(&patterns[0], &opts).unwrap();
        let budget = 2 * probe.factor_bytes();
        let config = FleetConfig {
            shards: 2,
            factor_budget_bytes: budget,
            max_pending_per_tenant: 16,
            max_batch: 4,
            quantum: 2.0,
        };
        let mut fleet = Fleet::new(&opts, config);
        let names = ["t0", "t1", "t2", "t3", "t4"];
        let ids: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                fleet
                    .admit(name, &patterns[i % patterns.len()], 1.0)
                    .unwrap_or_else(|e| panic!("P={p}: admit {name}: {e}"))
            })
            .collect();
        // Two patterns → two misses, three hits; hits pay zero analysis.
        let cache = fleet.cache_metrics();
        assert_eq!(cache.plan_misses, 2, "P={p}");
        assert_eq!(cache.plan_hits, 3, "P={p}");
        for (i, &id) in ids.iter().enumerate() {
            if i < patterns.len() {
                assert!(
                    fleet.tenant_analyze_wall_ms(id) > 0.0,
                    "P={p} t{i}: first sight"
                );
            } else {
                assert_eq!(
                    fleet.tenant_analyze_wall_ms(id),
                    0.0,
                    "P={p} t{i}: cache hit"
                );
            }
        }
        // Serve a burst from every tenant; all answers correct, residency
        // bounded by the budget throughout.
        for (i, &id) in ids.iter().enumerate() {
            let n = fleet.session(id).n();
            for j in 0..3 {
                fleet
                    .submit_at(id, rhs(n), (i * 3 + j) as f64 * 0.05)
                    .unwrap();
            }
        }
        let done = fleet.drain().unwrap();
        assert_eq!(done.len(), 15, "P={p}");
        for c in &done {
            let n = c.x.len();
            let a = &patterns[c.tenant.0 % patterns.len()];
            assert_eq!(a.n(), n);
            assert!(a.relative_residual(&c.x, &rhs(n)) < 1e-8, "P={p} job");
        }
        let cache = fleet.cache_metrics();
        assert!(cache.factor_evictions >= 1, "P={p}: budget forces eviction");
        assert!(
            cache.resident_high_water_bytes <= budget,
            "P={p}: high-water"
        );
        // Request spans name their tenants for the flight recorder.
        assert_eq!(fleet.request_spans().len(), 15, "P={p}");
        assert!(fleet
            .request_spans()
            .iter()
            .all(|s| s.name.contains("/job-")));
    }
}

fn lower_values(a: &SparseSym) -> Vec<f64> {
    (0..a.n()).flat_map(|c| a.col_values(c).to_vec()).collect()
}

/// `ServiceMetrics` JSON (`analyze_wall_ms` zeroed: wall clock) of the
/// workload below, as the single-session server `sympack-service` had at
/// bd45142 served it, re-pinned once since, when supernode amalgamation
/// became graded by width (the factor has fewer, wider blocks).
const SERVER_METRICS: &str = concat!(
    r#"{"jobs_submitted":20,"jobs_rejected":0,"jobs_served":20,"batches":6,"#,
    r#""coalesced_jobs":14,"refactorizations":2,"#,
    r#""batch_sizes":{"count":6,"mean":3.3333333333333335,"p50":4,"p99":4,"max":4},"#,
    r#""latency_virtual_secs":{"count":20,"mean":0.00018334854800009515,"#,
    r#""p50":0.0001534538000000918,"p99":0.0003534538000002918,"max":0.0003534538000002918},"#,
    r#""solve_virtual_total":0.00031967028000000016,"factor_virtual_total":0.0001658892171428571,"#,
    r#""amortized_cost_per_job":0.000024277974857142864,"#,
    r#""one_shot_cost_per_job":0.00010857478571428572,"analyze_wall_ms":0}"#
);
/// The server's final virtual clock.
const SERVER_CLOCK: f64 = 1.00195292754;

#[test]
fn one_tenant_fleet_serves_like_the_single_session_server() {
    // Deterministic lockstep at P = 2; 20 jobs arriving from t = 1.0, after
    // the admission factorization the fleet charges to the shard clock
    // (the server's clock started at 0 after it); batches of at most 4;
    // one refactorize-then-restore between the 2nd and 3rd batch.
    let a = gen::laplacian_2d(8, 8);
    let n = a.n();
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 2,
        deterministic: true,
        ..Default::default()
    };
    let config = FleetConfig {
        shards: 1,
        factor_budget_bytes: 0,
        max_pending_per_tenant: 64,
        max_batch: 4,
        quantum: 4.0,
    };
    let values = lower_values(&a);
    let scaled: Vec<f64> = values.iter().map(|v| v * 2.0).collect();
    let job = |k: usize| -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7 + k * 13) as f64 * 0.17).sin())
            .collect()
    };
    let arrival = |k: usize| 1.0 + k as f64 * 1e-4;
    let mut fleet = Fleet::new(&opts, config);
    let solo = fleet.admit("solo", &a, 1.0).unwrap();
    assert!(fleet.makespan() < arrival(0), "arrivals follow admission");
    let mut done = Vec::new();
    for k in 0..10 {
        fleet.submit_at(solo, job(k), arrival(k)).unwrap();
    }
    done.extend(fleet.step().unwrap());
    done.extend(fleet.step().unwrap());
    fleet.refactorize(solo, &scaled).unwrap();
    done.extend(fleet.step().unwrap());
    fleet.refactorize(solo, &values).unwrap();
    for k in 10..20 {
        fleet.submit_at(solo, job(k), arrival(k)).unwrap();
    }
    done.extend(fleet.drain().unwrap());

    let mut m = fleet.tenant_metrics(solo).clone();
    m.analyze_wall_ms = 0.0;
    assert_eq!(m.to_json(), SERVER_METRICS);
    assert_eq!(done.len(), 20, "jobs");
    let mut jobs = Fingerprint::new(&["schedule", "virtual", "bits"]);
    for j in &done {
        jobs.fold("schedule", &j.id);
        jobs.fold("virtual", &j.arrival);
        jobs.fold("virtual", &j.completion);
        jobs.fold("bits", j.x.as_slice());
    }
    let spans = fleet.request_spans();
    assert_eq!(spans.len(), 20, "spans");
    let mut span_fp = Fingerprint::new(&["virtual", "traffic"]);
    for (k, s) in spans.iter().enumerate() {
        assert_eq!(s.name, format!("solo/job-{k}"));
        span_fp.fold("virtual", &s.start);
        span_fp.fold("virtual", &s.dur);
        span_fp.fold("virtual", &s.kernel);
        span_fp.fold("traffic", &s.bytes);
    }
    golden::check(
        "fleet",
        vec![
            ("one-tenant jobs".to_string(), jobs),
            ("one-tenant spans".to_string(), span_fp),
        ],
    );
    assert_eq!(fleet.makespan().to_bits(), SERVER_CLOCK.to_bits());
}

/// The field `key` of a JSON object.
fn at<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key).unwrap_or_else(|| panic!("no field {key}"))
}

#[test]
fn serving_views_agree_with_the_registry() {
    // Two shards, three tenants on one pattern, a byte budget for two
    // factors: admissions and serves evict and re-materialize. Bursts of
    // 5 against a queue bound of 4 are partly rejected, and one tenant
    // refactorizes between rounds.
    let a = gen::laplacian_2d(8, 8);
    let n = a.n();
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 1,
        deterministic: true,
        ..Default::default()
    };
    let one = Session::new(&a, &opts).unwrap().factor_bytes();
    let config = FleetConfig {
        shards: 2,
        factor_budget_bytes: 2 * one,
        max_pending_per_tenant: 4,
        max_batch: 2,
        quantum: 2.0,
    };
    let names = ["alice", "bob", "carol"];
    let mut fleet = Fleet::new(&opts, config);
    let ids: Vec<_> = names
        .iter()
        .map(|name| fleet.admit(name, &a, 1.0).unwrap())
        .collect();
    let mut rejected = 0;
    for round in 0..3 {
        for (i, &id) in ids.iter().enumerate() {
            for k in 0..(2 + round + i) {
                let arrival = (round * 10 + k) as f64 * 1e-3;
                rejected += fleet.submit_at(id, rhs(n), arrival).is_err() as u64;
            }
        }
        if round == 1 {
            fleet.refactorize(ids[0], &lower_values(&a)).unwrap();
        }
        fleet.drain().unwrap();
    }

    let doc = json::parse(&fleet.telemetry_json()).unwrap();
    let counters = at(at(&doc, "telemetry"), "counters").as_array().unwrap();
    let counter = |name: &str, tenant: &str| -> u64 {
        let labeled = |c: &&JsonValue| {
            at(c, "name").as_str() == Some(name)
                && at(at(c, "labels"), "tenant").as_str() == Some(tenant)
        };
        let c = counters.iter().find(labeled);
        c.and_then(|c| at(c, "value").as_u64())
            .unwrap_or_else(|| panic!("no counter {name}{{tenant={tenant:?}}}"))
    };
    let entries = at(&doc, "tenants").as_array().unwrap();
    let mut evictions = 0;
    for ((&id, name), entry) in ids.iter().zip(names).zip(entries) {
        let m = fleet.tenant_metrics(id);
        let served = counter("sympack_fleet_jobs_served_total", name);
        let evicted = counter("sympack_fleet_evictions_total", name);
        assert_eq!(m.jobs_served, served, "{name}: jobs served");
        assert_eq!(at(entry, "jobs_served").as_u64(), Some(served), "{name}");
        assert_eq!(fleet.tenant_evictions(id), evicted, "{name}: evictions");
        assert_eq!(at(entry, "evictions").as_u64(), Some(evicted), "{name}");
        assert_eq!(m.jobs_submitted, m.jobs_served, "{name}: all drained");
        evictions += evicted;
    }
    let cache = fleet.cache_metrics();
    assert_eq!(cache.factor_evictions, evictions);
    let cached = at(at(&doc, "cache"), "factor_evictions").as_u64();
    assert_eq!(cached, Some(evictions));
    // The mix took every path the books count.
    let total = |f: fn(&sympack_fleet::ServiceMetrics) -> u64| -> u64 {
        ids.iter().map(|&id| f(&fleet.tenant_metrics(id))).sum()
    };
    assert!(evictions > 0 && cache.rematerializations > 0, "{cache:?}");
    assert_eq!(total(|m| m.jobs_rejected), rejected);
    assert!(rejected > 0);
    assert!(total(|m| m.refactorizations) > cache.rematerializations);
}

#[test]
fn a_refining_blr_tenant_serves_full_accuracy() {
    let a = gen::bone_like(6, 6, 5);
    let n = a.n();
    let worst_residual = |refine_steps| {
        let opts = SolverOptions {
            n_nodes: 1,
            ranks_per_node: 2,
            deterministic: true,
            refine_steps,
            blr: sympack::BlrConfig {
                tol: 1e-6,
                min_block: 8,
                max_rank: usize::MAX,
            },
            ..Default::default()
        };
        let mut fleet = Fleet::new(&opts, FleetConfig::default());
        let t = fleet
            .admit("blr", &a, 1.0)
            .unwrap_or_else(|e| panic!("refine_steps = {refine_steps}: admit: {e}"));
        let bs: Vec<Vec<f64>> = (0..3)
            .map(|k| rhs(n).iter().map(|v| v + k as f64).collect())
            .collect();
        for (k, b) in bs.iter().enumerate() {
            fleet.submit_at(t, b.clone(), k as f64 * 0.01).unwrap();
        }
        let done = fleet.drain().unwrap();
        assert_eq!(done.len(), bs.len(), "refine_steps = {refine_steps}");
        done.iter()
            .map(|c| a.relative_residual(&c.x, &c.rhs))
            .fold(0.0, f64::max)
    };
    let (plain, refined) = (worst_residual(0), worst_residual(2));
    assert!(refined <= 1e-10, "refined tenant: residual {refined}");
    assert!(plain > 1e-10, "unrefined tenant: residual {plain}");
}
