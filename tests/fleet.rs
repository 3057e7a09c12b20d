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

use std::sync::Arc;

use sympack::{SolverOptions, SymbolicPlan};
use sympack_fleet::{Fleet, FleetConfig};
use sympack_service::Session;
use sympack_sparse::gen;

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
