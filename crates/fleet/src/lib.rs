//! Multi-tenant solver fleet: many concurrent sessions sharing ranks, a
//! pattern-keyed symbolic plan cache, an LRU factor cache under a memory
//! budget, and fair per-tenant admission.
//!
//! A [`sympack_service::Session`] amortizes analysis for *one* matrix. A
//! [`Fleet`] is the serving front-end over sessions: a job queue per
//! tenant, bounded admission, batching that coalesces pending right-hand
//! sides into one panel solve, and latency/amortization metrics. It hosts
//! many tenants at once — the "millions of users" shape, where symPACK's
//! front-loaded cost (ordering + symbolic analysis + mapping dominate the
//! first factorization) is amortized *across* tenants:
//!
//! * **Plan cache** (`Fleet::plans`) — symbolic plans keyed by
//!   [`sympack::pattern_hash`] folded with the analysis/layout options
//!   ([`sympack::plan_cache_key`]). A tenant whose sparsity pattern was
//!   seen before skips ordering, analysis and task-graph construction
//!   entirely: admission is a numeric-only factorization against the shared
//!   `Arc<SymbolicPlan>` (its analyze wall time is ≈ 0).
//! * **Sharding** — tenants are assigned round-robin to `shards`
//!   independent rank gangs; tenants on one shard serialize in that shard's
//!   virtual clock, different shards overlap. The fleet makespan is the
//!   max over shard clocks.
//! * **LRU factor cache** — resident numeric factors are bounded by
//!   [`FleetConfig::factor_budget_bytes`]; the least-recently-served cold
//!   tenants' factors are evicted ([`sympack_service::Session`] keeps the
//!   values and all symbolic state) and re-materialized on demand via a
//!   numeric re-factorization before the next solve.
//! * **Fair admission** — weighted deficit round-robin: each scheduling
//!   round a tenant earns `weight × quantum` service credit and may serve
//!   at most its accumulated credit (capped by the batch bound), so one hot
//!   tenant cannot starve the queue; idle tenants forfeit their credit.
//!
//! A single-session server is a one-tenant fleet: with `shards: 1`,
//! `factor_budget_bytes: 0` and `quantum = max_batch`, every
//! [`Fleet::step`] serves up to `max_batch` queued jobs as one panel solve,
//! and [`Fleet::refactorize`] pauses the shard for a numeric
//! re-factorization.
//!
//! All queueing/latency accounting runs in the solver's virtual clocks, so
//! a seeded workload replays exactly; per-tenant [`ServiceMetrics`] and
//! fleet-wide [`FleetCacheMetrics`] report the counters (views built on
//! demand from where each count is kept), and per-request `{tenant}/job-{id}`
//! spans feed the flight-recorder profile.

mod metrics;

pub use metrics::{FleetCacheMetrics, ServiceMetrics};

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use sympack::{pattern_hash, plan_cache_key, SolverError, SolverOptions, SymbolicPlan};
use sympack_service::{RhsPanel, Session};
use sympack_sparse::SparseSym;
use sympack_trace::health::{HealthEvent, WatchSample, Watchdog};
use sympack_trace::json::{Arr, Obj};
use sympack_trace::telemetry::{
    CounterId, GaugeId, HistId, Histogram, SloPolicy, SloTracker, Telemetry, SNAPSHOT_SCHEMA,
};
use sympack_trace::{SpanKind, TraceCat, TraceEvent};

/// Errors surfaced by the fleet.
#[derive(Debug)]
pub enum FleetError {
    /// A tenant name was admitted twice.
    DuplicateTenant {
        /// The offending name.
        tenant: String,
    },
    /// An operation referenced a tenant the fleet does not host.
    UnknownTenant {
        /// The unknown name.
        tenant: String,
    },
    /// Per-tenant admission control rejected the job: that tenant's pending
    /// queue is at capacity. Other tenants are unaffected.
    QueueFull {
        /// The tenant whose queue is full.
        tenant: String,
        /// The configured per-tenant queue bound.
        capacity: usize,
    },
    /// A [`FleetConfig`] field (`shards`, `max_batch`, `quantum`) or a
    /// tenant's `weight` is not positive; [`Fleet::admit`] checks them.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
    },
    /// A distributed phase failed underneath the fleet.
    Solver(SolverError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::DuplicateTenant { tenant } => {
                write!(f, "tenant {tenant:?} is already admitted")
            }
            FleetError::UnknownTenant { tenant } => {
                write!(f, "unknown tenant {tenant:?}")
            }
            FleetError::QueueFull { tenant, capacity } => {
                write!(
                    f,
                    "job rejected: tenant {tenant:?} queue is full ({capacity} jobs)"
                )
            }
            FleetError::InvalidConfig { field } => {
                write!(f, "invalid fleet configuration: {field} must be positive")
            }
            FleetError::Solver(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<SolverError> for FleetError {
    fn from(e: SolverError) -> FleetError {
        FleetError::Solver(e)
    }
}

/// Fleet sizing, budget and fairness policy.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Independent rank gangs. Each admitted tenant is pinned round-robin
    /// to one shard; tenants on a shard serialize in its virtual clock.
    pub shards: usize,
    /// Byte budget for resident numeric factors across all tenants; the
    /// LRU evicts cold tenants' factors to stay under it. 0 = unlimited.
    pub factor_budget_bytes: u64,
    /// Per-tenant pending-queue bound; submissions beyond it are rejected
    /// with [`FleetError::QueueFull`].
    pub max_pending_per_tenant: usize,
    /// Maximum right-hand sides coalesced into one panel solve per tenant
    /// per scheduling round.
    pub max_batch: usize,
    /// Service credit a weight-1.0 tenant earns per scheduling round, in
    /// jobs. A tenant may serve at most its accumulated credit per round.
    pub quantum: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 2,
            factor_budget_bytes: 0,
            max_pending_per_tenant: 64,
            max_batch: 16,
            quantum: 2.0,
        }
    }
}

/// Ticket identifying an admitted tenant (index into admission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub usize);

/// One queued solve request of one tenant.
#[derive(Debug)]
struct FleetJob {
    id: u64,
    rhs: Vec<f64>,
    arrival: f64,
}

/// A completed fleet solve request.
#[derive(Debug)]
pub struct FleetCompleted {
    /// The tenant the job belongs to.
    pub tenant: TenantId,
    /// Per-tenant job ticket returned by [`Fleet::submit_at`].
    pub id: u64,
    /// The solution vector.
    pub x: Vec<f64>,
    /// The right-hand side the job was submitted with, handed back.
    pub rhs: Vec<f64>,
    /// Virtual arrival time the job was submitted with.
    pub arrival: f64,
    /// Virtual time (on the tenant's shard clock) the coalesced solve
    /// serving this job finished.
    pub completion: f64,
}

#[derive(Debug)]
struct Tenant {
    name: String,
    session: Session,
    shard: usize,
    weight: f64,
    deficit: f64,
    pending: VecDeque<FleetJob>,
    /// The next job ticket: also the count of jobs accepted.
    next_id: u64,
    jobs_rejected: u64,
    /// One sample per batch and one per served job: their counts too.
    batch_sizes: Histogram,
    latency: Histogram,
    solve_virtual_total: f64,
    factor_virtual_total: f64,
    /// The analysis paid at admission (0 on a plan-cache hit).
    analyze_wall_ms: f64,
    /// Bytes of this tenant's factor when resident (recorded at install,
    /// kept across eviction so the LRU can pre-budget re-materialization).
    factor_bytes: u64,
    /// Monotone LRU stamp: bumped every time the tenant is served.
    last_served: u64,
    evictions: u64,
    /// Compliance against this tenant's latency objective (the default
    /// policy has an unbounded objective, so nothing burns until
    /// [`Fleet::set_slo`] tightens it).
    slo: SloTracker,
    /// Handles into the fleet registry, all labeled `tenant="name"`.
    instruments: TenantInstruments,
}

impl Tenant {
    /// The tenant's serving metrics, gathered from where each number is
    /// kept: its ticket counter, histograms and session.
    fn metrics(&self) -> ServiceMetrics {
        let jobs_served = self.latency.count() as u64;
        let batches = self.batch_sizes.count() as u64;
        ServiceMetrics {
            jobs_submitted: self.next_id,
            jobs_rejected: self.jobs_rejected,
            jobs_served,
            batches,
            // Every batch holds at least one job.
            coalesced_jobs: jobs_served - batches,
            refactorizations: self.session.refactorizations() + self.session.rematerializations(),
            batch_sizes: self.batch_sizes.clone(),
            latency: self.latency.clone(),
            solve_virtual_total: self.solve_virtual_total,
            factor_virtual_total: self.factor_virtual_total,
            one_shot_factor_cost: self.session.first_factor_time(),
            analyze_wall_ms: self.analyze_wall_ms,
        }
    }
}

/// Per-tenant instrument handles into the fleet-level registry.
#[derive(Debug, Clone, Copy)]
struct TenantInstruments {
    latency: HistId,
    served: CounterId,
    served_bytes: CounterId,
    evictions: CounterId,
    pending: GaugeId,
}

/// A multi-tenant serving front-end: many [`Session`]s sharded over
/// independent rank gangs behind one plan cache, one factor budget and one
/// fair scheduler. See the crate docs for the architecture.
#[derive(Debug)]
pub struct Fleet {
    opts: SolverOptions,
    config: FleetConfig,
    /// The plan cache, by [`sympack::plan_cache_key`]: a hit hands out
    /// another `Arc` to the shared plan, a miss builds it once.
    plans: HashMap<u64, Arc<SymbolicPlan>>,
    tenants: Vec<Tenant>,
    /// One virtual clock per shard.
    clocks: Vec<f64>,
    /// Monotone counter backing the LRU stamps.
    use_counter: u64,
    /// Admissions that found their plan cached (each miss adds an entry).
    plan_hits: u64,
    /// Resident factor bytes at the latest sample, and the largest sample.
    resident_bytes: u64,
    resident_high_water_bytes: u64,
    request_spans: Vec<TraceEvent>,
    /// The live registry: per-tenant latency/served/eviction instruments
    /// plus fleet-wide residency gauges, sampled on the (monotone) fleet
    /// makespan so every ring's timestamps are nondecreasing.
    tel: Telemetry,
    /// Fleet-wide gauges.
    resident_gauge: GaugeId,
    backlog_gauge: GaugeId,
    /// Health watchdog, evaluated after every scheduling round.
    watchdog: Watchdog,
    /// Monotone sampling clock: the latest virtual time any instrument was
    /// sampled at. Submissions can carry arrivals ahead of the shard
    /// clocks, so rings tick at `max(makespan, last tick, event time)` to
    /// keep every series nondecreasing.
    sample_clock: f64,
}

impl Fleet {
    /// New empty fleet. `opts` is the per-shard solver configuration every
    /// tenant session runs under (rank layout, net model, kernels…); the
    /// fleet's total rank pool is `config.shards ×
    /// (opts.n_nodes × opts.ranks_per_node)`. [`Fleet::admit`]
    /// checks `config` and `opts`.
    pub fn new(opts: &SolverOptions, config: FleetConfig) -> Fleet {
        let mut tel = Telemetry::new();
        let resident_gauge = tel.gauge("sympack_fleet_resident_bytes", &[]);
        let backlog_gauge = tel.gauge("sympack_fleet_backlog_jobs", &[]);
        Fleet {
            opts: opts.clone(),
            config,
            plans: HashMap::new(),
            tenants: Vec::new(),
            clocks: vec![0.0; config.shards],
            use_counter: 0,
            plan_hits: 0,
            resident_bytes: 0,
            resident_high_water_bytes: 0,
            request_spans: Vec::new(),
            tel,
            resident_gauge,
            backlog_gauge,
            watchdog: Watchdog::new(),
            sample_clock: 0.0,
        }
    }

    /// Sampling tick: push every instrument's current value into its ring
    /// at a monotone virtual time.
    fn tick(&mut self, at: f64) {
        self.sample_clock = self.sample_clock.max(at).max(self.makespan());
        self.tel.sample(self.sample_clock);
    }

    /// Admit a tenant with its matrix and fairness weight: plan-cache
    /// lookup (hit → numeric-only factorization, no analysis), first
    /// factorization charged to the tenant's shard clock, then LRU budget
    /// enforcement. Weight 1.0 is the baseline share; 2.0 earns double
    /// service credit per round.
    ///
    /// # Errors
    /// [`FleetError::InvalidConfig`] for a zero `shards` or `max_batch`, a
    /// `quantum` or `weight` that is not positive (NaN included), and
    /// [`SolverError::InvalidOptions`] (wrapped in [`FleetError::Solver`])
    /// for fleet options [`SolverOptions::validate`] rejects — all before
    /// any plan is looked up or built; [`FleetError::DuplicateTenant`] on a
    /// name collision; otherwise the factorization failure modes wrapped in
    /// [`FleetError::Solver`].
    pub fn admit(
        &mut self,
        name: &str,
        a: &SparseSym,
        weight: f64,
    ) -> Result<TenantId, FleetError> {
        let c = &self.config;
        for (field, positive) in [
            ("shards", c.shards > 0),
            ("max_batch", c.max_batch > 0),
            ("quantum", c.quantum > 0.0),
            ("weight", weight > 0.0),
        ] {
            if !positive {
                return Err(FleetError::InvalidConfig { field });
            }
        }
        self.opts.validate()?;
        if self.tenants.iter().any(|t| t.name == name) {
            return Err(FleetError::DuplicateTenant {
                tenant: name.to_string(),
            });
        }
        let key = plan_cache_key(pattern_hash(a), &self.opts);
        let hit = self.plans.contains_key(&key);
        let plan = self.plans.entry(key);
        let plan = plan.or_insert_with(|| Arc::new(SymbolicPlan::build(a, &self.opts)));
        let plan = Arc::clone(plan);
        self.plan_hits += hit as u64;
        let analyze_wall_ms = if hit { 0.0 } else { plan.analyze_wall_ms };
        let session = Session::with_plan(a, plan, &self.opts)?;
        let idx = self.tenants.len();
        let shard = idx % self.config.shards;
        self.clocks[shard] += session.first_factor_time();
        let factor_virtual_total = session.first_factor_time();
        let factor_bytes = session.factor_bytes();
        self.use_counter += 1;
        let labels: &[(&str, &str)] = &[("tenant", name)];
        let instruments = TenantInstruments {
            latency: self.tel.histogram("sympack_fleet_latency_seconds", labels),
            served: self.tel.counter("sympack_fleet_jobs_served_total", labels),
            served_bytes: self.tel.counter("sympack_fleet_served_bytes_total", labels),
            evictions: self.tel.counter("sympack_fleet_evictions_total", labels),
            pending: self.tel.gauge("sympack_fleet_pending_jobs", labels),
        };
        self.tenants.push(Tenant {
            name: name.to_string(),
            session,
            shard,
            weight,
            deficit: 0.0,
            pending: VecDeque::new(),
            next_id: 0,
            jobs_rejected: 0,
            batch_sizes: Histogram::new(),
            latency: Histogram::new(),
            solve_virtual_total: 0.0,
            factor_virtual_total,
            analyze_wall_ms,
            factor_bytes,
            last_served: self.use_counter,
            evictions: 0,
            slo: SloTracker::new(SloPolicy::default()),
            instruments,
        });
        self.enforce_budget(Some(idx));
        self.sample_residency();
        Ok(TenantId(idx))
    }

    /// Submit one right-hand side for `tenant`, arriving at virtual time
    /// `arrival`. Returns a per-tenant job ticket matched by
    /// [`FleetCompleted::id`].
    ///
    /// # Errors
    /// [`FleetError::UnknownTenant`]; [`FleetError::Solver`] with
    /// [`SolverError::ShapeMismatch`] when `rhs` length differs from the
    /// tenant's matrix order (the job is not counted, queued or ticketed);
    /// [`FleetError::QueueFull`].
    pub fn submit_at(
        &mut self,
        tenant: TenantId,
        rhs: Vec<f64>,
        arrival: f64,
    ) -> Result<u64, FleetError> {
        let i = self.index(tenant)?;
        let t = &mut self.tenants[i];
        SolverError::check_shape("rhs length", t.session.n(), rhs.len())?;
        if t.pending.len() >= self.config.max_pending_per_tenant {
            t.jobs_rejected += 1;
            return Err(FleetError::QueueFull {
                tenant: t.name.clone(),
                capacity: self.config.max_pending_per_tenant,
            });
        }
        let id = t.next_id;
        t.next_id += 1;
        t.pending.push_back(FleetJob { id, rhs, arrival });
        let (instruments, depth) = (t.instruments, t.pending.len());
        self.tel.set(instruments.pending, depth as f64);
        let backlog: u64 = self.tenants.iter().map(|t| t.pending.len() as u64).sum();
        self.tel.set(self.backlog_gauge, backlog as f64);
        self.tick(arrival);
        Ok(id)
    }

    /// Run one weighted-deficit-round-robin scheduling round: every tenant
    /// (admission order) earns `weight × quantum` service credit; tenants
    /// with pending work serve up to `min(credit, max_batch)` jobs as one
    /// coalesced panel solve on their shard clock, evicted factors are
    /// re-materialized first (LRU pre-budgeted), and idle tenants forfeit
    /// their credit. Returns every job completed this round.
    ///
    /// # Errors
    /// [`FleetError::Solver`] when a distributed phase fails.
    pub fn step(&mut self) -> Result<Vec<FleetCompleted>, FleetError> {
        let mut done = Vec::new();
        for i in 0..self.tenants.len() {
            if self.tenants[i].pending.is_empty() {
                // Standard DRR: an idle tenant must not bank credit.
                self.tenants[i].deficit = 0.0;
                continue;
            }
            self.tenants[i].deficit += self.tenants[i].weight * self.config.quantum;
            let credit = self.tenants[i].deficit.floor() as usize;
            let take = credit
                .min(self.config.max_batch)
                .min(self.tenants[i].pending.len());
            if take == 0 {
                continue;
            }
            done.extend(self.serve(i, take)?);
            self.tenants[i].deficit -= take as f64;
        }
        self.observe_health();
        Ok(done)
    }

    /// Run scheduling rounds until every tenant queue is empty.
    ///
    /// # Errors
    /// [`FleetError::Solver`] when a distributed phase fails.
    pub fn drain(&mut self) -> Result<Vec<FleetCompleted>, FleetError> {
        let mut all = Vec::new();
        while self.tenants.iter().any(|t| !t.pending.is_empty()) {
            all.extend(self.step()?);
        }
        Ok(all)
    }

    /// Serve `take` jobs of tenant `i` as one coalesced panel solve.
    fn serve(&mut self, i: usize, take: usize) -> Result<Vec<FleetCompleted>, FleetError> {
        // Re-materialize an evicted factor first, pre-budgeting its known
        // size so the steady-state resident total never exceeds the budget.
        let mut service_time = 0.0;
        if !self.tenants[i].session.is_resident() {
            service_time +=
                self.factor_tenant(i, |s| Ok(s.ensure_resident()?.expect("factor was evicted")))?;
        }
        let shard = self.tenants[i].shard;
        let mut jobs: Vec<FleetJob> = self.tenants[i].pending.drain(..take).collect();
        let mut clock = self.clocks[shard];
        for j in &jobs {
            clock = clock.max(j.arrival);
        }
        let cols: Vec<Vec<f64>> = jobs
            .iter_mut()
            .map(|j| std::mem::take(&mut j.rhs))
            .collect();
        let batch = self.tenants[i]
            .session
            .solve_batch(&[RhsPanel::from_columns(&cols)])?;
        service_time += batch.solve_time;
        clock += service_time;
        self.clocks[shard] = clock;
        self.use_counter += 1;
        self.tenants[i].last_served = self.use_counter;
        self.tenants[i].batch_sizes.record(take as f64);
        self.tenants[i].solve_virtual_total += batch.solve_time;
        let panel = &batch.panels[0];
        let n = self.tenants[i].session.n();
        let mut done = Vec::with_capacity(take);
        let instruments = self.tenants[i].instruments;
        for ((k, j), rhs) in jobs.into_iter().enumerate().zip(cols) {
            let latency = clock - j.arrival;
            self.tenants[i].latency.record(latency);
            self.tenants[i].slo.record(latency);
            self.tel.observe(instruments.latency, latency);
            let mut span = TraceEvent::basic(
                shard,
                format!("{}/job-{}", self.tenants[i].name, j.id),
                TraceCat::Solve,
                j.arrival,
                latency,
            );
            span.kind = SpanKind::Request;
            // Service time of the round (re-materialization + coalesced
            // solve); `dur - kernel` is the wait the profile attributes to
            // the tenant.
            span.kernel = service_time.min(latency);
            span.bytes = (n * 8) as u64;
            self.request_spans.push(span);
            done.push(FleetCompleted {
                tenant: TenantId(i),
                id: j.id,
                x: panel.column(k).to_vec(),
                rhs,
                arrival: j.arrival,
                completion: clock,
            });
        }
        self.tel.inc(instruments.served, take as u64);
        self.tel
            .inc(instruments.served_bytes, (take * n * 8) as u64);
        self.tel
            .set(instruments.pending, self.tenants[i].pending.len() as f64);
        self.sample_residency();
        self.tick(clock);
        Ok(done)
    }

    /// Numeric re-factorization of a tenant's session from a new value
    /// array laid out like its matrix's lower-triangle storage (see
    /// [`Session::refactorize`]). The tenant's shard clock advances by the
    /// factorization makespan, modelling the service pause; the tenant's
    /// session counts it, and its factor size is recorded and the budget
    /// enforced again, as after a re-materialization. Queued jobs are
    /// served against the new factor.
    ///
    /// # Errors
    /// [`FleetError::UnknownTenant`]; [`FleetError::Solver`] wrapping the
    /// session's rejection ([`SolverError::PatternMismatch`]) or
    /// factorization failure; the session keeps its previous values.
    pub fn refactorize(&mut self, tenant: TenantId, values: &[f64]) -> Result<(), FleetError> {
        let i = self.index(tenant)?;
        let ft = self.factor_tenant(i, |s| s.refactorize(values))?;
        self.clocks[self.tenants[i].shard] += ft;
        self.sample_residency();
        Ok(())
    }

    /// Run `factor` (a re-materialization or a re-factorization) on tenant
    /// `i`'s session, pre-budgeting its known factor size when it is
    /// evicted; then add its makespan to the tenant's factor time, record
    /// the new factor size and enforce the budget again. Returns the
    /// factorization makespan.
    fn factor_tenant(
        &mut self,
        i: usize,
        factor: impl FnOnce(&mut Session) -> Result<f64, SolverError>,
    ) -> Result<f64, FleetError> {
        if !self.tenants[i].session.is_resident() {
            self.make_room_for(i);
        }
        let t = &mut self.tenants[i];
        let ft = factor(&mut t.session)?;
        t.factor_virtual_total += ft;
        t.factor_bytes = t.session.factor_bytes();
        self.enforce_budget(Some(i));
        Ok(ft)
    }

    /// The index of a hosted tenant.
    fn index(&self, tenant: TenantId) -> Result<usize, FleetError> {
        if tenant.0 < self.tenants.len() {
            Ok(tenant.0)
        } else {
            Err(FleetError::UnknownTenant {
                tenant: format!("#{}", tenant.0),
            })
        }
    }

    /// Evict least-recently-served tenants (never `keep`) until the
    /// resident total plus tenant `i`'s known factor size fits the budget.
    fn make_room_for(&mut self, i: usize) {
        if self.config.factor_budget_bytes == 0 {
            return;
        }
        let need = self.tenants[i].factor_bytes;
        let budget = self.config.factor_budget_bytes.saturating_sub(need);
        self.evict_down_to(budget, Some(i));
    }

    /// Evict least-recently-served tenants (never `keep`) until the
    /// resident total is within the configured budget.
    fn enforce_budget(&mut self, keep: Option<usize>) {
        if self.config.factor_budget_bytes == 0 {
            return;
        }
        self.evict_down_to(self.config.factor_budget_bytes, keep);
    }

    fn evict_down_to(&mut self, budget: u64, keep: Option<usize>) {
        loop {
            let resident: u64 = self.tenants.iter().map(|t| t.session.factor_bytes()).sum();
            if resident <= budget {
                return;
            }
            // Coldest resident tenant other than `keep`.
            let victim = self
                .tenants
                .iter()
                .enumerate()
                .filter(|(j, t)| Some(*j) != keep && t.session.is_resident())
                .min_by_key(|(_, t)| t.last_served)
                .map(|(j, _)| j);
            let Some(v) = victim else {
                // Nothing evictable (e.g. a single factor larger than the
                // budget): the over-budget residual is visible in the
                // sampled high-water mark.
                return;
            };
            self.tenants[v].session.evict_factor();
            self.tenants[v].evictions += 1;
            self.tel.inc(self.tenants[v].instruments.evictions, 1);
        }
    }

    /// Record the current resident total into the cache gauges.
    fn sample_residency(&mut self) {
        let resident: u64 = self.tenants.iter().map(|t| t.session.factor_bytes()).sum();
        self.resident_bytes = resident;
        self.resident_high_water_bytes = self.resident_high_water_bytes.max(resident);
        self.tel.set(self.resident_gauge, resident as f64);
        let backlog: u64 = self.tenants.iter().map(|t| t.pending.len() as u64).sum();
        self.tel.set(self.backlog_gauge, backlog as f64);
    }

    /// One watchdog evaluation over the fleet's current state: cumulative
    /// served jobs vs backlog (stall), fullest queue fraction (saturation),
    /// cumulative evictions (thrash) and per-tenant SLO burn rates.
    fn observe_health(&mut self) {
        let progress: u64 = self.tenants.iter().map(|t| t.latency.count() as u64).sum();
        let backlog: u64 = self.tenants.iter().map(|t| t.pending.len() as u64).sum();
        let cap = self.config.max_pending_per_tenant.max(1) as f64;
        let queue_frac = self
            .tenants
            .iter()
            .map(|t| t.pending.len() as f64 / cap)
            .fold(0.0, f64::max);
        let burn: Vec<(&str, f64)> = self
            .tenants
            .iter()
            .map(|t| (t.name.as_str(), t.slo.burn_rate()))
            .collect();
        let now = self.sample_clock.max(self.makespan());
        self.watchdog.observe(&WatchSample {
            now,
            progress,
            backlog,
            queue_frac,
            evictions: self.cache_metrics().factor_evictions,
            burn: &burn,
        });
    }

    /// Fleet makespan: the furthest shard clock.
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Fleet-wide cache counters and residency gauges, gathered from the
    /// plan cache, the tenants and their sessions.
    pub fn cache_metrics(&self) -> FleetCacheMetrics {
        FleetCacheMetrics {
            plan_hits: self.plan_hits,
            plan_misses: self.plans.len() as u64,
            factor_evictions: self.tenants.iter().map(|t| t.evictions).sum(),
            rematerializations: self
                .tenants
                .iter()
                .map(|t| t.session.rematerializations())
                .sum(),
            factor_budget_bytes: self.config.factor_budget_bytes,
            resident_bytes: self.resident_bytes,
            resident_high_water_bytes: self.resident_high_water_bytes,
        }
    }

    /// Per-tenant serving metrics.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn tenant_metrics(&self, tenant: TenantId) -> ServiceMetrics {
        self.tenants[tenant.0].metrics()
    }

    /// A tenant's session (matrix order, pattern, residency…).
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn session(&self, tenant: TenantId) -> &Session {
        &self.tenants[tenant.0].session
    }

    /// Factor evictions a tenant has suffered.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn tenant_evictions(&self, tenant: TenantId) -> u64 {
        self.tenants[tenant.0].evictions
    }

    /// Wall-clock ms of analysis the tenant paid at admission — 0 on a
    /// plan-cache hit (the acceptance signal for pattern reuse).
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn tenant_analyze_wall_ms(&self, tenant: TenantId) -> f64 {
        self.tenants[tenant.0].analyze_wall_ms
    }

    /// Per-request spans (`{tenant}/job-{id}`, arrival → completion, rank =
    /// shard) accumulated over the fleet's lifetime, for the
    /// flight-recorder profile.
    pub fn request_spans(&self) -> &[TraceEvent] {
        &self.request_spans
    }

    /// Set (or replace) a tenant's latency objective. Replacing the policy
    /// resets the tenant's good/bad tallies — compliance is judged against
    /// one policy at a time. The default policy admitted with the tenant
    /// has an unbounded objective, so nothing burns until this is called.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn set_slo(&mut self, tenant: TenantId, policy: SloPolicy) {
        self.tenants[tenant.0].slo = SloTracker::new(policy);
    }

    /// A tenant's SLO tracker (policy, compliance, burn rate).
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    pub fn slo(&self, tenant: TenantId) -> &SloTracker {
        &self.tenants[tenant.0].slo
    }

    /// Health events the fleet watchdog has raised so far.
    pub fn health_events(&self) -> &[HealthEvent] {
        self.watchdog.events()
    }

    /// The complete live-telemetry document `sympack-top` renders: schema
    /// header, per-tenant serving/SLO state, the instrument snapshot and
    /// the health event stream. Byte-deterministic for a fixed workload:
    /// every figure is a count or a virtual time, collections iterate in
    /// admission or sorted key order, and wall-clock values (the tenants'
    /// `analyze_wall_ms`) are deliberately excluded — those live in
    /// [`Fleet::metrics_json`], which is not replay-compared.
    pub fn telemetry_json(&self) -> String {
        let mut tenants = Arr::new();
        for t in &self.tenants {
            let m = t.metrics();
            tenants.push(
                Obj::new()
                    .str("tenant", &t.name)
                    .u64("shard", t.shard as u64)
                    .f64("weight", t.weight)
                    .u64("evictions", t.evictions)
                    .u64("pending", t.pending.len() as u64)
                    .bool("resident", t.session.is_resident())
                    .u64("jobs_submitted", m.jobs_submitted)
                    .u64("jobs_rejected", m.jobs_rejected)
                    .u64("jobs_served", m.jobs_served)
                    .u64("batches", m.batches)
                    .u64("refactorizations", m.refactorizations)
                    .raw("latency", &m.latency.to_json())
                    .raw("slo", &t.slo.to_json())
                    .finish(),
            );
        }
        Obj::new()
            .str("schema", SNAPSHOT_SCHEMA)
            .str("kind", "fleet")
            .f64("makespan", self.makespan())
            .raw("cache", &self.cache_metrics().to_json())
            .raw("tenants", &tenants.finish())
            .raw("telemetry", &self.tel.snapshot().to_json())
            .raw(
                "health",
                &sympack_trace::health::health_events_json(self.watchdog.events()),
            )
            .finish()
    }

    /// Serialize the fleet's metrics: cache counters plus one entry per
    /// tenant (admission order) with its shard, weight, evictions, analyze
    /// wall ms and serving metrics.
    pub fn metrics_json(&self) -> String {
        let mut tenants = Arr::new();
        for t in &self.tenants {
            tenants.push(
                Obj::new()
                    .str("tenant", &t.name)
                    .u64("shard", t.shard as u64)
                    .f64("weight", t.weight)
                    .u64("evictions", t.evictions)
                    .f64("analyze_wall_ms", t.analyze_wall_ms)
                    .raw("metrics", &t.metrics().to_json())
                    .finish(),
            );
        }
        Obj::new()
            .raw("cache", &self.cache_metrics().to_json())
            .f64("makespan", self.makespan())
            .raw("tenants", &tenants.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::laplacian_2d;
    use sympack_sparse::vecops::test_rhs;

    fn opts(p: usize) -> SolverOptions {
        SolverOptions {
            n_nodes: 1,
            ranks_per_node: p,
            deterministic: true,
            ..Default::default()
        }
    }

    fn config() -> FleetConfig {
        FleetConfig {
            shards: 2,
            factor_budget_bytes: 0,
            max_pending_per_tenant: 16,
            max_batch: 4,
            quantum: 2.0,
        }
    }

    #[test]
    fn plan_cache_hits_on_repeated_pattern() {
        let mut fleet = Fleet::new(&opts(2), config());
        let a = laplacian_2d(7, 7);
        let t0 = fleet.admit("alice", &a, 1.0).unwrap();
        let t1 = fleet.admit("bob", &a, 1.0).unwrap();
        let other = laplacian_2d(6, 7);
        let t2 = fleet.admit("carol", &other, 1.0).unwrap();
        let c = fleet.cache_metrics();
        assert_eq!(c.plan_hits, 1);
        assert_eq!(c.plan_misses, 2);
        assert_eq!(fleet.plans.len(), 2);
        // First sight pays analysis; the repeat does not.
        assert!(fleet.tenant_analyze_wall_ms(t0) > 0.0);
        assert_eq!(fleet.tenant_analyze_wall_ms(t1), 0.0);
        assert!(fleet.tenant_analyze_wall_ms(t2) > 0.0);
        // Shared plan: same pattern, same Arc.
        assert!(Arc::ptr_eq(
            &fleet.session(t0).symbolic_plan(),
            &fleet.session(t1).symbolic_plan()
        ));
    }

    #[test]
    fn duplicate_and_unknown_tenants_are_typed_errors() {
        let mut fleet = Fleet::new(&opts(1), config());
        let a = laplacian_2d(5, 5);
        fleet.admit("alice", &a, 1.0).unwrap();
        match fleet.admit("alice", &a, 1.0) {
            Err(FleetError::DuplicateTenant { tenant }) => assert_eq!(tenant, "alice"),
            other => panic!("expected DuplicateTenant, got {other:?}"),
        }
        match fleet.submit_at(TenantId(9), test_rhs(a.n()), 0.0) {
            Err(FleetError::UnknownTenant { .. }) => {}
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
        assert_eq!(fleet.tenants.len(), 1);
    }

    #[test]
    fn per_tenant_queues_bound_admission_independently() {
        let mut cfg = config();
        cfg.max_pending_per_tenant = 2;
        let mut fleet = Fleet::new(&opts(1), cfg);
        let a = laplacian_2d(5, 5);
        let alice = fleet.admit("alice", &a, 1.0).unwrap();
        let bob = fleet.admit("bob", &a, 1.0).unwrap();
        fleet.submit_at(alice, test_rhs(a.n()), 0.0).unwrap();
        fleet.submit_at(alice, test_rhs(a.n()), 0.1).unwrap();
        match fleet.submit_at(alice, test_rhs(a.n()), 0.2) {
            Err(FleetError::QueueFull { tenant, capacity }) => {
                assert_eq!(tenant, "alice");
                assert_eq!(capacity, 2);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // A full neighbour queue does not block other tenants.
        fleet.submit_at(bob, test_rhs(a.n()), 0.2).unwrap();
        let done = fleet.drain().unwrap();
        assert_eq!(done.len(), 3);
    }

    #[test]
    fn wdrr_serves_hot_and_cold_tenants_by_weight() {
        let mut cfg = config();
        cfg.shards = 1; // one shard: strict scheduling contention
        cfg.max_batch = 4;
        cfg.quantum = 1.0;
        let mut fleet = Fleet::new(&opts(1), cfg);
        let a = laplacian_2d(6, 6);
        let hot = fleet.admit("hot", &a, 3.0).unwrap();
        let cold = fleet.admit("cold", &a, 1.0).unwrap();
        for i in 0..12 {
            fleet
                .submit_at(hot, test_rhs(a.n()), i as f64 * 0.01)
                .unwrap();
        }
        for i in 0..4 {
            fleet
                .submit_at(cold, test_rhs(a.n()), i as f64 * 0.01)
                .unwrap();
        }
        // Round 1: hot earns 3 credits, cold 1 — no starvation.
        let round = fleet.step().unwrap();
        let hot_served = round.iter().filter(|c| c.tenant == hot).count();
        let cold_served = round.iter().filter(|c| c.tenant == cold).count();
        assert_eq!(hot_served, 3);
        assert_eq!(cold_served, 1);
        // Drain the rest; everyone gets served, ~3:1 per round throughout.
        let rest = fleet.drain().unwrap();
        assert_eq!(round.len() + rest.len(), 16);
        assert_eq!(fleet.tenant_metrics(hot).jobs_served, 12);
        assert_eq!(fleet.tenant_metrics(cold).jobs_served, 4);
        // All solutions are correct.
        let b = test_rhs(a.n());
        for c in round.iter().chain(rest.iter()) {
            assert!(a.relative_residual(&c.x, &b) < 1e-10);
        }
    }

    #[test]
    fn shards_overlap_in_virtual_time() {
        let mut fleet = Fleet::new(&opts(1), config()); // 2 shards
        let a = laplacian_2d(6, 6);
        let alice = fleet.admit("alice", &a, 1.0).unwrap(); // shard 0
        let bob = fleet.admit("bob", &a, 1.0).unwrap(); // shard 1
        for i in 0..4 {
            fleet
                .submit_at(alice, test_rhs(a.n()), i as f64 * 0.01)
                .unwrap();
            fleet
                .submit_at(bob, test_rhs(a.n()), i as f64 * 0.01)
                .unwrap();
        }
        fleet.drain().unwrap();
        // Both shards advanced, and the fleet makespan is the max — less
        // than the serialized sum of both shard clocks.
        let (c0, c1) = (fleet.clocks[0], fleet.clocks[1]);
        assert!(c0 > 0.0 && c1 > 0.0);
        assert_eq!(fleet.makespan(), c0.max(c1));
        assert!(fleet.makespan() < c0 + c1);
    }

    #[test]
    fn lru_eviction_keeps_residency_under_budget_and_rematerializes() {
        let a = laplacian_2d(8, 8);
        // Find one factor's size, then budget for roughly two of three.
        let probe = Session::new(&a, &opts(2)).unwrap();
        let one = probe.factor_bytes();
        assert!(one > 0);
        let mut cfg = config();
        cfg.shards = 1;
        cfg.factor_budget_bytes = 2 * one + one / 2;
        let mut fleet = Fleet::new(&opts(2), cfg);
        let tenants: Vec<TenantId> = ["alice", "bob", "carol"]
            .iter()
            .map(|name| fleet.admit(name, &a, 1.0).unwrap())
            .collect();
        // Three factors cannot all be resident: someone was evicted.
        let c = fleet.cache_metrics();
        assert!(c.factor_evictions >= 1, "evictions: {}", c.factor_evictions);
        assert!(c.resident_bytes <= cfg.factor_budget_bytes);
        assert!(c.resident_high_water_bytes <= cfg.factor_budget_bytes);
        // Serving the evicted tenant re-materializes transparently and the
        // answer is right.
        let b = test_rhs(a.n());
        for &t in &tenants {
            fleet.submit_at(t, b.clone(), 0.0).unwrap();
        }
        let done = fleet.drain().unwrap();
        assert_eq!(done.len(), 3);
        for c in &done {
            assert!(a.relative_residual(&c.x, &b) < 1e-10);
        }
        let c = fleet.cache_metrics();
        assert!(c.rematerializations >= 1);
        assert!(c.resident_bytes <= cfg.factor_budget_bytes);
        assert!(c.resident_high_water_bytes <= cfg.factor_budget_bytes);
        // Metrics JSON is balanced and names every tenant.
        let json = fleet.metrics_json();
        for name in ["alice", "bob", "carol"] {
            assert!(json.contains(&format!("\"tenant\":\"{name}\"")));
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn telemetry_document_tracks_slo_burn_and_health() {
        let mut cfg = config();
        cfg.shards = 1;
        cfg.max_batch = 1;
        cfg.max_pending_per_tenant = 4;
        let mut fleet = Fleet::new(&opts(1), cfg);
        let a = laplacian_2d(6, 6);
        let alice = fleet.admit("alice", &a, 1.0).unwrap();
        // Impossible objective: every served request burns error budget.
        fleet.set_slo(alice, SloPolicy::new(1e-12, 0.99));
        for i in 0..4 {
            fleet
                .submit_at(alice, test_rhs(a.n()), i as f64 * 0.01)
                .unwrap();
        }
        fleet.drain().unwrap();
        assert!(fleet.slo(alice).burn_rate() > 1.0);
        assert!(
            fleet
                .health_events()
                .iter()
                .any(|e| e.kind == sympack_trace::health::HealthKind::SloBurn
                    && e.subject == "alice"),
            "expected an SloBurn event, got {:?}",
            fleet.health_events()
        );
        // The document parses, carries the schema header, and every ring
        // series has nondecreasing timestamps.
        let doc = fleet.telemetry_json();
        let v = sympack_trace::json::parse(&doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("sympack-telemetry-v1")
        );
        assert_eq!(v.get("kind").and_then(|s| s.as_str()), Some("fleet"));
        let series = v
            .get("telemetry")
            .and_then(|t| t.get("series"))
            .and_then(|s| s.as_array())
            .expect("series section");
        assert!(!series.is_empty());
        for entry in series {
            let pts = entry.get("points").and_then(|p| p.as_array()).unwrap();
            let ts: Vec<f64> = pts
                .iter()
                .map(|p| p.as_array().unwrap()[0].as_f64().unwrap())
                .collect();
            assert!(ts.windows(2).all(|w| w[0] <= w[1]), "series went backwards");
        }
        // Text exposition names the per-tenant instruments.
        let text = fleet.tel.render_text();
        assert!(text.contains("sympack_fleet_jobs_served_total{tenant=\"alice\"} 4"));
        assert!(text.contains("sympack_fleet_resident_bytes"));
    }

    #[test]
    fn request_spans_carry_tenant_names_and_service_split() {
        let mut fleet = Fleet::new(&opts(1), config());
        let a = laplacian_2d(6, 6);
        let alice = fleet.admit("alice", &a, 1.0).unwrap();
        for i in 0..3 {
            fleet
                .submit_at(alice, test_rhs(a.n()), i as f64 * 0.1)
                .unwrap();
        }
        let done = fleet.drain().unwrap();
        let spans = fleet.request_spans();
        assert_eq!(spans.len(), done.len());
        for (span, job) in spans.iter().zip(&done) {
            assert_eq!(span.kind, SpanKind::Request);
            assert_eq!(span.name, format!("alice/job-{}", job.id));
            assert!(span.kernel <= span.dur + 1e-15, "service ≤ latency");
            assert!(span.kernel > 0.0);
        }
    }

    /// The single-session server shape: one shard, no factor budget, and
    /// every round's credit equal to the batch bound.
    fn one_tenant(max_pending: usize, max_batch: usize) -> FleetConfig {
        FleetConfig {
            shards: 1,
            factor_budget_bytes: 0,
            max_pending_per_tenant: max_pending,
            max_batch,
            quantum: max_batch as f64,
        }
    }

    fn lower_values(a: &SparseSym) -> Vec<f64> {
        (0..a.n()).flat_map(|c| a.col_values(c).to_vec()).collect()
    }

    #[test]
    fn server_coalesces_and_bounds_the_queue() {
        let a = laplacian_2d(6, 6);
        let n = a.n();
        let mut fleet = Fleet::new(&opts(2), one_tenant(4, 3));
        let solo = fleet.admit("solo", &a, 1.0).unwrap();
        for i in 0..4 {
            fleet.submit_at(solo, test_rhs(n), i as f64 * 0.5).unwrap();
        }
        match fleet.submit_at(solo, test_rhs(n), 2.5) {
            Err(FleetError::QueueFull { capacity: 4, .. }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        let done = fleet.drain().unwrap();
        assert_eq!(done.len(), 4);
        let m = fleet.tenant_metrics(solo);
        assert_eq!(m.jobs_submitted, 4);
        assert_eq!(m.jobs_rejected, 1);
        assert_eq!(m.jobs_served, 4);
        assert_eq!(m.batches, 2); // 3 + 1 under max_batch = 3
        assert_eq!(m.coalesced_jobs, 2);
        assert!(m.latency.count() == 4);
        for j in &done {
            assert!(a.relative_residual(&j.x, &test_rhs(n)) < 1e-10);
            assert!(j.completion >= j.arrival);
        }
        // Clock advanced past the last arrival plus solve work.
        assert!(fleet.makespan() > 1.5);
    }

    #[test]
    fn server_records_one_request_span_per_job() {
        let a = laplacian_2d(6, 6);
        let n = a.n();
        let mut fleet = Fleet::new(&opts(2), one_tenant(64, 16));
        let solo = fleet.admit("solo", &a, 1.0).unwrap();
        for i in 0..3 {
            fleet.submit_at(solo, test_rhs(n), i as f64 * 0.25).unwrap();
        }
        let done = fleet.drain().unwrap();
        let spans = fleet.request_spans();
        assert_eq!(spans.len(), done.len());
        for (span, job) in spans.iter().zip(&done) {
            assert_eq!(span.kind, SpanKind::Request);
            assert_eq!(span.name, format!("solo/job-{}", job.id));
            assert_eq!(span.start, job.arrival);
            assert!((span.end() - job.completion).abs() < 1e-15);
            assert_eq!(span.bytes, (n * 8) as u64);
        }
        // Request spans round-trip through the Chrome exporter.
        let json = sympack_trace::to_chrome_json(spans);
        assert!(json.contains("solo/job-0"));
    }

    #[test]
    fn server_refactorize_advances_clock_and_metrics() {
        let a = laplacian_2d(6, 6);
        let mut fleet = Fleet::new(&opts(2), one_tenant(64, 16));
        let solo = fleet.admit("solo", &a, 1.0).unwrap();
        let before = fleet.makespan();
        let values: Vec<f64> = lower_values(&a).iter().map(|v| v * 2.0).collect();
        fleet.refactorize(solo, &values).unwrap();
        let ft = fleet.session(solo).factor_time();
        assert_eq!(fleet.makespan(), before + ft);
        let m = fleet.tenant_metrics(solo);
        assert_eq!(m.refactorizations, 1);
        assert_eq!(m.factor_virtual_total, m.one_shot_factor_cost + ft);
        // Queued work is served against the new factor: A·2 halves x.
        fleet.submit_at(solo, test_rhs(a.n()), 0.0).unwrap();
        let x2: Vec<f64> = fleet.drain().unwrap()[0]
            .x
            .iter()
            .map(|v| 2.0 * v)
            .collect();
        assert!(a.relative_residual(&x2, &test_rhs(a.n())) < 1e-10);
        // A rejected value array changes nothing.
        match fleet.refactorize(solo, &values[1..]) {
            Err(FleetError::Solver(SolverError::PatternMismatch { .. })) => {}
            other => panic!("expected PatternMismatch, got {other:?}"),
        }
        assert_eq!(fleet.tenant_metrics(solo).refactorizations, 1);
        match fleet.refactorize(TenantId(1), &values) {
            Err(FleetError::UnknownTenant { .. }) => {}
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
    }

    #[test]
    fn refactorizing_an_evicted_tenant_stays_under_the_budget() {
        let a = laplacian_2d(8, 8);
        let one = Session::new(&a, &opts(2)).unwrap().factor_bytes();
        let mut cfg = config();
        cfg.shards = 1;
        cfg.factor_budget_bytes = one + one / 2;
        let mut fleet = Fleet::new(&opts(2), cfg);
        let alice = fleet.admit("alice", &a, 1.0).unwrap();
        let bob = fleet.admit("bob", &a, 1.0).unwrap();
        assert!(!fleet.session(alice).is_resident());
        // Refactorizing alice makes room for its factor first (bob goes)
        // and counts in the tenant's metrics, not in the cache's
        // re-materializations.
        fleet.refactorize(alice, &lower_values(&a)).unwrap();
        assert!(fleet.session(alice).is_resident());
        assert!(!fleet.session(bob).is_resident());
        let c = fleet.cache_metrics();
        assert_eq!((c.factor_evictions, c.rematerializations), (2, 0));
        assert_eq!(c.resident_bytes, one);
        assert!(c.resident_high_water_bytes <= cfg.factor_budget_bytes);
        assert_eq!(fleet.tenant_metrics(alice).refactorizations, 1);
    }
}
