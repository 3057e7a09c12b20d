//! The one load generator for fleet traffic. A [`Mix`] is data: its tenants
//! and an ordered list of [`Event`]s. [`replay`] admits the tenants, drives a
//! [`Fleet`] through the events and checks every completed job's residual
//! against the right-hand side it was submitted with.

use std::collections::HashSet;
use sympack::SolverOptions;
use sympack_fleet::{Fleet, FleetConfig, TenantId};
use sympack_sparse::SparseSym;
use sympack_trace::telemetry::SloPolicy;

/// The bound on every replayed job's relative residual.
const RESIDUAL_TOL: f64 = 1e-8;

/// One tenant of a mix, admitted in mix order (so `TenantId(i)` is the
/// `i`-th tenant).
#[derive(Debug)]
pub struct Tenant<'a> {
    /// The name it is admitted under.
    pub name: String,
    /// Its matrix.
    pub matrix: &'a SparseSym,
    /// Its fairness weight.
    pub weight: f64,
    /// A latency objective, set right after its admission.
    pub slo: Option<SloPolicy>,
}

/// One step of a mix's traffic.
#[derive(Debug)]
pub enum Event {
    /// Tenant `tenant` (its index in [`Mix::tenants`]) submits `rhs`,
    /// arriving at virtual time `at` ([`Fleet::submit_at`]).
    Submit {
        tenant: usize,
        at: f64,
        rhs: Vec<f64>,
    },
    /// One scheduling round ([`Fleet::step`]).
    Step,
    /// Rounds until every queue is empty ([`Fleet::drain`]).
    Drain,
}

/// A replayable fleet workload.
#[derive(Debug)]
pub struct Mix<'a> {
    /// The tenants, in admission order.
    pub tenants: Vec<Tenant<'a>>,
    /// The traffic, in order. Every submitted job must complete by the end.
    pub events: Vec<Event>,
}

/// Replay `mix` on a new fleet (`opts` per shard, `config` for sizing,
/// budget and fairness) and return the fleet the last event left. Each
/// right-hand side moves into the fleet and comes back with its completed
/// job. `after` sees the fleet after every [`Event::Step`] and
/// [`Event::Drain`].
///
/// # Errors
/// A fleet error (admission, a rejected submission, a failed solve), a job
/// whose relative residual exceeds 1e-8 or a job that never completed.
pub fn replay(
    opts: &SolverOptions,
    config: FleetConfig,
    mix: Mix,
    mut after: impl FnMut(&Fleet, &Event),
) -> Result<Fleet, String> {
    let mut fleet = Fleet::new(opts, config);
    for t in &mix.tenants {
        let id = fleet
            .admit(&t.name, t.matrix, t.weight)
            .map_err(|e| format!("admit {}: {e}", t.name))?;
        if let Some(policy) = t.slo {
            fleet.set_slo(id, policy);
        }
    }
    // The (tenant, ticket) of every job in flight.
    let mut in_flight = HashSet::new();
    for event in mix.events {
        let done = match event {
            Event::Submit { tenant, at, rhs } => {
                let ticket = fleet
                    .submit_at(TenantId(tenant), rhs, at)
                    .map_err(|e| format!("submit {}: {e}", mix.tenants[tenant].name))?;
                in_flight.insert((tenant, ticket));
                continue;
            }
            Event::Step => fleet.step(),
            Event::Drain => fleet.drain(),
        };
        for job in done.map_err(|e| e.to_string())? {
            let tenant = &mix.tenants[job.tenant.0];
            let job_name = || format!("{}/job-{}", tenant.name, job.id);
            if !in_flight.remove(&(job.tenant.0, job.id)) {
                return Err(format!("{} was never submitted", job_name()));
            }
            let residual = tenant.matrix.relative_residual(&job.x, &job.rhs);
            if residual.is_nan() || residual > RESIDUAL_TOL {
                return Err(format!("{} residual {residual:e}", job_name()));
            }
        }
        after(&fleet, &event);
    }
    match in_flight.len() {
        0 => Ok(fleet),
        left => Err(format!("{left} submitted jobs never completed")),
    }
}
