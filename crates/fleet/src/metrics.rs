//! The fleet's two reports, per-tenant [`ServiceMetrics`] and fleet-wide
//! [`FleetCacheMetrics`]: views that [`crate::Fleet`] builds on demand from
//! the one place each number is kept (a tenant's ticket counter and exact
//! histograms, its session's factorization counts, the configuration).

use sympack_trace::json::Obj;
use sympack_trace::telemetry::Histogram;

/// Per-tenant serving metrics. All times are virtual seconds from the
/// solver's cost model; wall-clock milliseconds appear only in the
/// explicitly named `*_wall_ms` fields.
#[derive(Debug, Default, Clone)]
pub struct ServiceMetrics {
    /// Jobs accepted into the queue.
    pub jobs_submitted: u64,
    /// Jobs rejected by admission control (queue full).
    pub jobs_rejected: u64,
    /// Jobs completed by a panel solve.
    pub jobs_served: u64,
    /// Panel solves executed.
    pub batches: u64,
    /// Jobs that shared a panel solve with at least one other job
    /// (Σ max(batch − 1, 0) over batches) — nonzero means batching coalesced.
    pub coalesced_jobs: u64,
    /// Numeric factorizations after admission: re-factorizations and
    /// re-materializations of an evicted factor.
    pub refactorizations: u64,
    /// Jobs per batch.
    pub batch_sizes: Histogram,
    /// Per-job virtual-time latency: completion − arrival.
    pub latency: Histogram,
    /// Virtual seconds spent in panel solves (summed).
    pub solve_virtual_total: f64,
    /// Virtual seconds of the session's factorization(s), including
    /// re-factorizations.
    pub factor_virtual_total: f64,
    /// Virtual cost of one fresh factorization (the session's first) — the
    /// per-job factor cost an unbatched one-shot driver would pay.
    pub one_shot_factor_cost: f64,
    /// Wall-clock milliseconds of ordering + symbolic analysis (paid once).
    pub analyze_wall_ms: f64,
}

impl ServiceMetrics {
    /// Amortized virtual cost per served job: all factorizations plus all
    /// panel solves, divided by jobs served (0 when no jobs ran).
    pub fn amortized_cost_per_job(&self) -> f64 {
        if self.jobs_served == 0 {
            0.0
        } else {
            (self.factor_virtual_total + self.solve_virtual_total) / self.jobs_served as f64
        }
    }

    /// Virtual cost per job of the one-shot alternative: a fresh
    /// factorization plus a mean solve for every job.
    pub fn one_shot_cost_per_job(&self) -> f64 {
        let mean_solve = if self.batches == 0 {
            0.0
        } else {
            self.solve_virtual_total / self.batches as f64
        };
        self.one_shot_factor_cost + mean_solve
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("jobs_submitted", self.jobs_submitted)
            .u64("jobs_rejected", self.jobs_rejected)
            .u64("jobs_served", self.jobs_served)
            .u64("batches", self.batches)
            .u64("coalesced_jobs", self.coalesced_jobs)
            .u64("refactorizations", self.refactorizations)
            .raw("batch_sizes", &self.batch_sizes.to_json())
            .raw("latency_virtual_secs", &self.latency.to_json())
            .f64("solve_virtual_total", self.solve_virtual_total)
            .f64("factor_virtual_total", self.factor_virtual_total)
            .f64("amortized_cost_per_job", self.amortized_cost_per_job())
            .f64("one_shot_cost_per_job", self.one_shot_cost_per_job())
            .f64("analyze_wall_ms", self.analyze_wall_ms)
            .finish()
    }
}

/// Fleet-level cache counters: the symbolic plan cache (a hit skips
/// ordering + analysis + mapping for a pattern already seen) and the LRU
/// numeric-factor cache that evicts cold tenants' factors under a byte
/// budget. Byte figures are steady-state (sampled after budget
/// enforcement), so `resident_high_water_bytes ≤ factor_budget_bytes`
/// whenever every single factor fits the budget on its own.
#[derive(Debug, Default, Clone)]
pub struct FleetCacheMetrics {
    /// Tenant admissions whose pattern (under identical analysis/layout
    /// options) was already in the plan cache — no analysis ran.
    pub plan_hits: u64,
    /// Tenant admissions that had to run ordering + analysis + mapping.
    pub plan_misses: u64,
    /// Numeric factors dropped by the LRU under budget pressure.
    pub factor_evictions: u64,
    /// Evicted factors rebuilt on demand before a solve.
    pub rematerializations: u64,
    /// Configured byte budget for resident numeric factors (0 = unlimited).
    pub factor_budget_bytes: u64,
    /// Bytes of resident numeric factors at the latest sample.
    pub resident_bytes: u64,
    /// Largest steady-state resident total observed.
    pub resident_high_water_bytes: u64,
}

impl FleetCacheMetrics {
    /// Plan-cache hit rate over all admissions (0 when none).
    fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("plan_hits", self.plan_hits)
            .u64("plan_misses", self.plan_misses)
            .f64("plan_hit_rate", self.plan_hit_rate())
            .u64("factor_evictions", self.factor_evictions)
            .u64("rematerializations", self.rematerializations)
            .u64("factor_budget_bytes", self.factor_budget_bytes)
            .u64("resident_bytes", self.resident_bytes)
            .u64("resident_high_water_bytes", self.resident_high_water_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fleet, FleetConfig};
    use sympack::SolverOptions;
    use sympack_sparse::gen::laplacian_2d;
    use sympack_sparse::vecops::test_rhs;

    #[test]
    fn batch_recording_accumulates_coalescing() {
        // Batches of 1, 4 and 3 jobs on one tenant: the view derives the
        // served and coalesced counts from what the batches recorded.
        let opts = SolverOptions {
            deterministic: true,
            ..Default::default()
        };
        let config = FleetConfig {
            shards: 1,
            max_batch: 4,
            quantum: 4.0,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(&opts, config);
        let a = laplacian_2d(5, 5);
        let t = fleet.admit("t", &a, 1.0).unwrap();
        for burst in [1, 4, 3] {
            for _ in 0..burst {
                fleet.submit_at(t, test_rhs(a.n()), 0.0).unwrap();
            }
            fleet.step().unwrap();
        }
        let m = fleet.tenant_metrics(t);
        assert_eq!(m.batches, 3);
        assert_eq!(m.jobs_served, 8);
        assert_eq!(m.coalesced_jobs, 5); // (1-1) + (4-1) + (3-1)
        assert_eq!(m.batch_sizes.count(), 3);
        assert_eq!(m.batch_sizes.max(), 4.0);
        assert!(m.solve_virtual_total > 0.0);
    }

    #[test]
    fn amortization_beats_one_shot_once_jobs_accumulate() {
        let mut m = ServiceMetrics {
            factor_virtual_total: 10.0,
            one_shot_factor_cost: 10.0,
            jobs_served: 32,
            batches: 8,
            solve_virtual_total: 8.0,
            ..ServiceMetrics::default()
        };
        // Amortized: (10 + 8) / 32 ≈ 0.56 ≪ one-shot 10 + 1 = 11.
        assert!(m.amortized_cost_per_job() < 1.0);
        assert!(m.one_shot_cost_per_job() > 10.0);
        m.jobs_served = 0;
        m.batches = 0;
        assert_eq!(m.amortized_cost_per_job(), 0.0);
        assert_eq!(m.one_shot_cost_per_job(), 10.0);
    }

    #[test]
    fn fleet_cache_metrics_rates_and_json() {
        let mut c = FleetCacheMetrics::default();
        assert_eq!(c.plan_hit_rate(), 0.0);
        c.plan_hits = 3;
        c.plan_misses = 1;
        c.factor_evictions = 5;
        c.resident_bytes = 1024;
        c.resident_high_water_bytes = 2048;
        assert_eq!(c.plan_hit_rate(), 0.75);
        let json = c.to_json();
        assert!(json.contains("\"plan_hits\":3"));
        assert!(json.contains("\"factor_evictions\":5"));
        assert!(json.contains("\"resident_high_water_bytes\":2048"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_export_is_balanced_and_contains_fields() {
        let mut m = ServiceMetrics {
            jobs_submitted: 7,
            jobs_rejected: 2,
            jobs_served: 5,
            batches: 1,
            coalesced_jobs: 4,
            ..ServiceMetrics::default()
        };
        m.batch_sizes.record(5.0);
        m.latency.record(1.5);
        let json = m.to_json();
        assert!(json.contains("\"jobs_submitted\":7"));
        assert!(json.contains("\"coalesced_jobs\":4"));
        assert!(json.contains("\"latency_virtual_secs\":{"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
