//! The reusable half of the driver: analysis/mapping state that outlives a
//! single factorization, plus the distributed numeric phases that run
//! against it.
//!
//! [`crate::driver::SymPack`] is the one-shot façade: every call re-runs
//! ordering, symbolic analysis and mapping. The plan layer splits those
//! phases out so they can be paid once and reused — the shape needed by
//! `sympack-service` sessions, which factor once, solve many right-hand
//! sides and re-factor repeatedly on an unchanged sparsity pattern (the
//! paper's §5.3 applications).
//!
//! Two types share the work:
//!
//! * [`SymbolicPlan`] — everything derived from the sparsity *pattern*
//!   alone: composite ordering, symbolic factor, 2D process grid, per-rank
//!   task-graph slices, and the retained pattern arrays. It carries no
//!   numeric state, so one `Arc<SymbolicPlan>` can back any number of
//!   concurrent tenants whose matrices share a [`pattern_hash`] — the
//!   analyze-once/solve-many design a fleet-wide plan cache keys on.
//! * [`SolvePlan`] — an `Arc<SymbolicPlan>` plus the per-job
//!   [`SolverOptions`]; the handle the numeric phases
//!   ([`factor_numeric`], [`solve_panel_distributed`]) run against.

use crate::engine::FactoEngine;
use crate::map2d::ProcGrid;
use crate::storage::BlockStore;
use crate::taskgraph::LocalTasks;
use crate::trisolve;
use crate::{SolverError, SolverOptions};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack_gpu::{KernelEngine, OpCounts};
use sympack_ordering::{compute_ordering, OrderingKind};
use sympack_pgas::{PgasConfig, Runtime, StatsSnapshot};
use sympack_sparse::SparseSym;
use sympack_symbolic::{analyze, SymbolicFactor};

/// Build the kernel executor a rank uses under `opts` (GPU mode, offload
/// thresholds, intra-rank parallelism, dense-kernel config).
///
/// # Panics
/// Panics if [`SolverOptions::kernel_config`] or [`SolverOptions::blr`] is
/// invalid — this runs at plan/driver construction, so a bad config fails
/// fast before any numeric work or communication starts.
pub fn make_kernels(opts: &SolverOptions) -> KernelEngine {
    let mut k = if opts.gpu {
        KernelEngine::new_gpu()
    } else {
        KernelEngine::new_cpu()
    };
    if let Some(t) = &opts.thresholds {
        k.thresholds = t.clone();
    }
    k.intra_parallel = opts.intra_parallel;
    opts.blr.validate().expect("invalid SolverOptions::blr");
    k.blr = opts.blr;
    k.with_config(opts.kernel_config.clone())
        .expect("invalid SolverOptions::kernel_config")
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_eat(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a hash of a matrix's sparsity structure (order, explicit nonzero
/// count, column pointers, row indices — values excluded). Two matrices
/// with equal hashes share the symbolic factorization; sessions use this
/// to validate re-factorization requests against the analyzed pattern, and
/// the fleet plan cache uses it (folded with the layout-relevant options,
/// see [`plan_cache_key`]) to skip analysis for patterns already seen.
///
/// `n` and `nnz` are folded in explicitly before the index arrays so that
/// truncations or extensions that happen to preserve an array prefix still
/// change the digest.
pub fn pattern_hash(a: &SparseSym) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_eat(&mut h, a.n() as u64);
    fnv_eat(&mut h, a.nnz() as u64);
    for &p in a.col_ptr() {
        fnv_eat(&mut h, p as u64);
    }
    for c in 0..a.n() {
        for &r in a.col_rows(c) {
            fnv_eat(&mut h, r as u64);
        }
    }
    h
}

/// Cache key for a [`SymbolicPlan`]: the [`pattern_hash`] folded with every
/// option that changes the symbolic artifacts — ordering kind, amalgamation
/// parameters, and the rank layout the task graphs were sliced for. Two
/// tenants whose matrices share a pattern *and* whose jobs run under the
/// same analysis/layout options may share one `Arc<SymbolicPlan>`; anything
/// numeric-only (net model, GPU mode, fault plan…) is deliberately left out.
/// BLR compression is numeric-only too — it changes how factored panels are
/// *stored*, not the symbolic structure — so an exact (`tol = 0`) and an
/// approximate (`tol > 0`) tenant of the same pattern share one plan.
pub fn plan_cache_key(pattern: u64, opts: &SolverOptions) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_eat(&mut h, pattern);
    let ord = match opts.ordering {
        OrderingKind::Natural => 0u64,
        OrderingKind::Rcm => 1,
        OrderingKind::MinDegree => 2,
        OrderingKind::NestedDissection => 3,
    };
    fnv_eat(&mut h, ord);
    fnv_eat(&mut h, opts.analyze.max_sn_width as u64);
    fnv_eat(&mut h, opts.analyze.amalgamation_ratio.to_bits());
    fnv_eat(&mut h, opts.n_nodes as u64);
    fnv_eat(&mut h, opts.ranks_per_node as u64);
    let grid = effective_grid(opts);
    fnv_eat(&mut h, grid.pr() as u64);
    fnv_eat(&mut h, grid.pc() as u64);
    h
}

fn effective_grid(opts: &SolverOptions) -> ProcGrid {
    let p = opts.n_nodes * opts.ranks_per_node;
    let grid = opts.grid.unwrap_or_else(|| ProcGrid::squarest(p));
    assert_eq!(grid.n_procs(), p, "grid size must equal rank count");
    grid
}

/// Everything derived from a sparsity pattern under fixed analysis/layout
/// options, and nothing derived from numeric values: composite ordering,
/// symbolic factor, 2D block-cyclic grid, per-rank task-graph slices, and
/// the original (unpermuted) pattern arrays needed to rebuild a matrix from
/// fresh values. Immutable once built; shared via `Arc` between every
/// session whose matrix hashes to the same pattern.
#[derive(Debug)]
pub struct SymbolicPlan {
    /// The symbolic factor (ordering, supernode partition, block layout).
    pub sf: Arc<SymbolicFactor>,
    /// 2D block-cyclic process grid the task graphs were sliced for.
    pub grid: ProcGrid,
    /// Structure hash of the analyzed matrix (see [`pattern_hash`]).
    pub pattern: u64,
    /// Plan-cache key: `pattern` folded with the analysis/layout options
    /// (see [`plan_cache_key`]).
    pub key: u64,
    /// Every rank's compiled slice of the factorization task graph, shared
    /// (not copied) by every numeric factorization under this plan.
    pub tasks: Vec<Arc<LocalTasks>>,
    /// Matrix order of the analyzed pattern.
    pub n: usize,
    /// Column pointers of the analyzed (unpermuted) pattern.
    pub col_ptr: Vec<usize>,
    /// Concatenated row indices of the analyzed (unpermuted) pattern.
    pub row_idx: Vec<usize>,
    /// Wall-clock milliseconds spent on ordering + analysis + task-graph
    /// construction when this plan was built. A tenant served from a cached
    /// plan pays none of it (its own analyze wall time is ≈ 0).
    pub analyze_wall_ms: f64,
}

impl SymbolicPlan {
    /// Run ordering + symbolic analysis, fix the process grid and slice the
    /// task graph for every rank. This is the expensive front-loaded phase
    /// the plan cache amortizes.
    ///
    /// # Panics
    /// Panics if an explicit [`SolverOptions::grid`] disagrees with
    /// `n_nodes × ranks_per_node`.
    pub fn build(a: &SparseSym, opts: &SolverOptions) -> SymbolicPlan {
        let t0 = std::time::Instant::now();
        let pattern = pattern_hash(a);
        let ordering = compute_ordering(a, opts.ordering);
        let sf = Arc::new(analyze(a, &ordering, &opts.analyze));
        let grid = effective_grid(opts);
        let n_ranks = grid.n_procs();
        let tasks: Vec<Arc<LocalTasks>> = (0..n_ranks)
            .map(|r| Arc::new(LocalTasks::build(&sf, &grid, r)))
            .collect();
        let mut row_idx = Vec::with_capacity(a.nnz());
        for c in 0..a.n() {
            row_idx.extend_from_slice(a.col_rows(c));
        }
        SymbolicPlan {
            sf,
            grid,
            pattern,
            key: plan_cache_key(pattern, opts),
            tasks,
            n: a.n(),
            col_ptr: a.col_ptr().to_vec(),
            row_idx,
            analyze_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// Total ranks the task graphs were sliced for.
    pub fn n_ranks(&self) -> usize {
        self.grid.n_procs()
    }

    /// Whether `a` has exactly the sparsity pattern this plan was built for.
    pub fn matches(&self, a: &SparseSym) -> bool {
        pattern_hash(a) == self.pattern
    }

    /// Rebuild a matrix with this plan's pattern from a flat value slice
    /// (values in column-major pattern order, one per stored entry).
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the pattern's entry count —
    /// callers validate first and surface [`SolverError::PatternMismatch`].
    pub fn matrix_from_values(&self, values: &[f64]) -> SparseSym {
        assert_eq!(values.len(), self.row_idx.len(), "one value per entry");
        SparseSym::from_parts(
            self.n,
            self.col_ptr.clone(),
            self.row_idx.clone(),
            values.to_vec(),
        )
    }

    /// Number of explicitly stored entries in the analyzed pattern.
    pub fn pattern_nnz(&self) -> usize {
        self.row_idx.len()
    }
}

/// A symbolic plan paired with the per-job [`SolverOptions`]: the handle
/// the distributed numeric phases run against. Cheap to clone (the symbolic
/// half is behind an `Arc`); many plans can share one [`SymbolicPlan`]
/// while differing in numeric-only options (net model, faults, tracing…).
#[derive(Debug, Clone)]
pub struct SolvePlan {
    /// The shared pattern-derived artifacts.
    pub symbolic: Arc<SymbolicPlan>,
    /// Options the numeric phases run under (rank layout must agree with
    /// the symbolic plan's grid).
    pub opts: SolverOptions,
}

impl SolvePlan {
    /// Run ordering + symbolic analysis and fix the process grid — the
    /// fresh-analysis path (cache miss).
    ///
    /// # Panics
    /// Panics if an explicit [`SolverOptions::grid`] disagrees with
    /// `n_nodes × ranks_per_node`.
    pub fn new(a: &SparseSym, opts: &SolverOptions) -> SolvePlan {
        SolvePlan {
            symbolic: Arc::new(SymbolicPlan::build(a, opts)),
            opts: opts.clone(),
        }
    }

    /// Reuse a cached symbolic plan — the cache-hit path: no ordering, no
    /// analysis, no task-graph construction, numeric-only factorization.
    ///
    /// # Panics
    /// Panics if `opts`' rank layout disagrees with the layout `symbolic`
    /// was sliced for (the plan cache keys on it, see [`plan_cache_key`]).
    pub fn from_symbolic(symbolic: Arc<SymbolicPlan>, opts: &SolverOptions) -> SolvePlan {
        assert_eq!(
            opts.n_nodes * opts.ranks_per_node,
            symbolic.n_ranks(),
            "rank layout must match the cached symbolic plan"
        );
        SolvePlan {
            symbolic,
            opts: opts.clone(),
        }
    }

    /// The symbolic factor (ordering, supernode partition, block layout).
    pub fn sf(&self) -> &Arc<SymbolicFactor> {
        &self.symbolic.sf
    }

    /// 2D block-cyclic process grid.
    pub fn grid(&self) -> ProcGrid {
        self.symbolic.grid
    }

    /// Structure hash of the analyzed matrix (see [`pattern_hash`]).
    pub fn pattern(&self) -> u64 {
        self.symbolic.pattern
    }

    /// Total ranks in the job.
    pub fn n_ranks(&self) -> usize {
        self.opts.n_nodes * self.opts.ranks_per_node
    }

    /// PGAS runtime configuration for one distributed phase under this plan
    /// (fresh per phase: `Runtime::run` consumes it).
    pub fn pgas_config(&self) -> PgasConfig {
        let mut config = PgasConfig::multi_node(self.opts.n_nodes, self.opts.ranks_per_node);
        config.net = self.opts.net.clone();
        config.device_quota = self.opts.device_quota;
        config.faults = self.opts.faults;
        config.deterministic = self.opts.deterministic;
        config
    }

    /// Apply the composite permutation to a matrix with this plan's pattern.
    pub fn permute(&self, a: &SparseSym) -> SparseSym {
        a.permute(self.symbolic.sf.perm.as_slice())
    }
}

/// A completed distributed numeric factorization whose per-rank block
/// stores were handed back to the caller — the retained factor of a solver
/// session, indexed by rank id.
#[derive(Debug)]
pub struct NumericFactor {
    /// Factor blocks per rank (`stores[r]` belongs to rank `r`).
    pub stores: Vec<BlockStore>,
    /// Virtual factorization makespan.
    pub factor_time: f64,
    /// Per-rank kernel call counts.
    pub op_counts: Vec<OpCounts>,
    /// Per-rank block-publication byte accounting (dense vs compressed).
    pub publish: Vec<crate::engine::PublishStats>,
    /// Per-rank BLR kernel counters (all zero in dense mode).
    pub blr_counts: Vec<sympack_gpu::BlrCounters>,
    /// Communication counters of the factorization run.
    pub stats: StatsSnapshot,
}

impl NumericFactor {
    /// Total bytes of retained factor blocks across all ranks (f64 entries
    /// at 8 bytes each) — what the fleet's LRU factor cache budgets.
    pub fn factor_bytes(&self) -> u64 {
        factor_store_bytes(&self.stores)
    }
}

/// Bytes of numeric factor payload held in a set of per-rank block stores —
/// *actual stored* bytes, so a factor with compressed panels charges its
/// `(rows+cols)·rank` factored extents, not the symbolic dense extents.
pub fn factor_store_bytes(stores: &[BlockStore]) -> u64 {
    stores
        .iter()
        .flat_map(|s| s.iter())
        .map(|(_, m)| m.bytes())
        .sum()
}

/// Run the numeric factorization under `plan`, reusing the plan's prebuilt
/// per-rank task graphs, and return the per-rank block stores.
///
/// `ap` must be the permuted matrix ([`SolvePlan::permute`]).
///
/// # Errors
/// [`SolverError::NotPositiveDefinite`] on a pivot failure,
/// [`SolverError::DeviceOom`] under the Abort OOM policy, plus the
/// fault-injection failure modes ([`SolverError::Stalled`],
/// [`SolverError::FetchTimeout`]).
pub fn factor_numeric(plan: &SolvePlan, ap: &Arc<SparseSym>) -> Result<NumericFactor, SolverError> {
    let symbolic = Arc::clone(&plan.symbolic);
    assert_eq!(
        symbolic.n_ranks(),
        plan.n_ranks(),
        "one task slice per rank"
    );
    let abort = Arc::new(AtomicBool::new(false));
    let sf = Arc::clone(&symbolic.sf);
    let ap = Arc::clone(ap);
    let grid = symbolic.grid;
    let opts = plan.opts.clone();
    let report = Runtime::run(plan.pgas_config(), |rank| {
        let kernels = make_kernels(&opts);
        let engine = FactoEngine::new(
            Arc::clone(&sf),
            &ap,
            grid,
            rank.id(),
            kernels,
            opts.rtq_policy,
            opts.oom_policy,
            Arc::clone(&abort),
            opts.bcast,
            opts.coalesce,
            Arc::clone(&symbolic.tasks[rank.id()]),
        );
        let (mut engine, factor_time) = FactoEngine::run_to_completion(rank, engine);
        let error = engine.rt.error.take();
        (
            error,
            factor_time,
            engine.store,
            engine.kernels.counts,
            engine.publish,
            engine.kernels.blr_counts,
        )
    });
    let mut stores = Vec::with_capacity(report.results.len());
    let mut op_counts = Vec::with_capacity(report.results.len());
    let mut publish = Vec::with_capacity(report.results.len());
    let mut blr_counts = Vec::with_capacity(report.results.len());
    let mut factor_time = 0.0f64;
    let mut first_error = None;
    for (error, ft, store, counts, pub_stats, blr) in report.results {
        if first_error.is_none() {
            first_error = error;
        }
        factor_time = factor_time.max(ft);
        stores.push(store);
        op_counts.push(counts);
        publish.push(pub_stats);
        blr_counts.push(blr);
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    Ok(NumericFactor {
        stores,
        factor_time,
        op_counts,
        publish,
        blr_counts,
        stats: report.stats,
    })
}

/// Result of one distributed panel solve.
#[derive(Debug)]
pub struct PanelSolve {
    /// The full *permuted* solution panel, `n × nrhs` column-major. Callers
    /// undo the composite permutation per column.
    pub xp: Vec<f64>,
    /// Virtual makespan of the panel solve (max over ranks).
    pub solve_time: f64,
}

/// Run one distributed triangular panel solve against retained factor
/// stores. `bp` is the full permuted `n × nrhs` right-hand-side panel,
/// column-major; `stores[r]` is rank `r`'s slice of the factor (from
/// [`factor_numeric`]).
///
/// # Errors
/// The solve's diagnosed failure modes under fault injection:
/// [`SolverError::Stalled`] and [`SolverError::FetchTimeout`].
pub fn solve_panel_distributed(
    plan: &SolvePlan,
    stores: &[BlockStore],
    bp: &[f64],
    nrhs: usize,
) -> Result<PanelSolve, SolverError> {
    assert_eq!(stores.len(), plan.n_ranks(), "one block store per rank");
    let sf = Arc::clone(&plan.symbolic.sf);
    assert_eq!(bp.len(), sf.n() * nrhs, "rhs panel must be n × nrhs");
    let grid = plan.symbolic.grid;
    let opts = plan.opts.clone();
    let report = Runtime::run(plan.pgas_config(), |rank| {
        let kernels = make_kernels(&opts);
        let params = trisolve::SolveParams {
            policy: opts.rtq_policy,
            msg_overhead: 0.0,
            trace: false,
        };
        let mut out = trisolve::solve_panel(
            rank,
            Arc::clone(&sf),
            grid,
            &stores[rank.id()],
            bp,
            nrhs,
            kernels,
            &params,
        );
        let pieces: Vec<(usize, Vec<f64>)> = out.x.drain().collect();
        (out.error, out.elapsed, pieces)
    });
    let n = plan.symbolic.sf.n();
    let mut xp = vec![0.0; n * nrhs];
    let mut solve_time = 0.0f64;
    let mut first_error = None;
    for (error, elapsed, pieces) in report.results {
        if first_error.is_none() {
            first_error = error;
        }
        solve_time = solve_time.max(elapsed);
        for (sn, panel) in pieces {
            let first = plan.symbolic.sf.partition.first_col(sn);
            let w = panel.len() / nrhs;
            for k in 0..nrhs {
                xp[k * n + first..k * n + first + w].copy_from_slice(&panel[k * w..(k + 1) * w]);
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    Ok(PanelSolve { xp, solve_time })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::{laplacian_2d, random_spd};
    use sympack_sparse::vecops::test_rhs;

    #[test]
    fn pattern_hash_ignores_values_but_not_structure() {
        let a = laplacian_2d(6, 6);
        // Same structure, different values.
        let mut values: Vec<f64> = Vec::new();
        let mut row_idx: Vec<usize> = Vec::new();
        for c in 0..a.n() {
            values.extend(a.col_values(c).iter().map(|v| v * 3.0));
            row_idx.extend_from_slice(a.col_rows(c));
        }
        let scaled = SparseSym::from_parts(a.n(), a.col_ptr().to_vec(), row_idx, values);
        assert_eq!(pattern_hash(&a), pattern_hash(&scaled));
        // Different structure.
        let b = laplacian_2d(6, 5);
        assert_ne!(pattern_hash(&a), pattern_hash(&b));
    }

    #[test]
    fn cache_key_separates_layouts_and_orderings() {
        let a = laplacian_2d(6, 6);
        let h = pattern_hash(&a);
        let base = SolverOptions {
            n_nodes: 1,
            ranks_per_node: 4,
            ..Default::default()
        };
        let k0 = plan_cache_key(h, &base);
        assert_eq!(k0, plan_cache_key(h, &base.clone()));
        // Numeric-only knobs do not change the key.
        let numeric = SolverOptions {
            gpu: true,
            trace: true,
            ..base.clone()
        };
        assert_eq!(k0, plan_cache_key(h, &numeric));
        // Layout and ordering do.
        let wide = SolverOptions {
            ranks_per_node: 2,
            n_nodes: 2,
            ..base.clone()
        };
        assert_ne!(k0, plan_cache_key(h, &wide));
        let nd = SolverOptions {
            ordering: OrderingKind::Natural,
            ..base.clone()
        };
        assert_ne!(k0, plan_cache_key(h, &nd));
    }

    #[test]
    fn factor_then_panel_solve_matches_one_shot() {
        let a = random_spd(70, 4, 5);
        let opts = SolverOptions {
            n_nodes: 1,
            ranks_per_node: 4,
            ..Default::default()
        };
        let plan = SolvePlan::new(&a, &opts);
        let ap = Arc::new(plan.permute(&a));
        let nf = factor_numeric(&plan, &ap).unwrap();
        assert!(nf.factor_time > 0.0);
        assert!(nf.factor_bytes() > 0);
        let b = test_rhs(a.n());
        let bp = plan.sf().perm.apply_vec(&b);
        let ps = solve_panel_distributed(&plan, &nf.stores, &bp, 1).unwrap();
        let x = plan.sf().perm.unapply_vec(&ps.xp);
        assert!(a.relative_residual(&x, &b) < 1e-10);
    }

    #[test]
    fn shared_symbolic_plan_factors_bit_identically() {
        let a = laplacian_2d(7, 6);
        let opts = SolverOptions {
            n_nodes: 2,
            ranks_per_node: 2,
            deterministic: true,
            ..Default::default()
        };
        let fresh = SolvePlan::new(&a, &opts);
        let cached = SolvePlan::from_symbolic(Arc::clone(&fresh.symbolic), &opts);
        let ap = Arc::new(fresh.permute(&a));
        let nf1 = factor_numeric(&fresh, &ap).unwrap();
        let nf2 = factor_numeric(&cached, &ap).unwrap();
        assert_eq!(nf1.factor_time.to_bits(), nf2.factor_time.to_bits());
        for (s1, s2) in nf1.stores.iter().zip(nf2.stores.iter()) {
            let mut keys: Vec<_> = s1.iter().map(|(k, _)| *k).collect();
            keys.sort_unstable();
            for k in keys {
                let m1 = s1.get(k).unwrap().to_dense();
                let m2 = s2.get(k).unwrap().to_dense();
                assert_eq!(m1.as_slice(), m2.as_slice(), "block {k:?}");
            }
        }
    }

    #[test]
    fn multi_rhs_panel_solves_each_column() {
        let a = laplacian_2d(8, 7);
        let n = a.n();
        let opts = SolverOptions {
            n_nodes: 2,
            ranks_per_node: 2,
            ..Default::default()
        };
        let plan = SolvePlan::new(&a, &opts);
        let ap = Arc::new(plan.permute(&a));
        let nf = factor_numeric(&plan, &ap).unwrap();
        let nrhs = 3;
        let bs: Vec<Vec<f64>> = (0..nrhs)
            .map(|k| (0..n).map(|i| ((i + k) as f64 * 0.3).cos()).collect())
            .collect();
        let mut bp = vec![0.0; n * nrhs];
        for (k, b) in bs.iter().enumerate() {
            bp[k * n..(k + 1) * n].copy_from_slice(&plan.sf().perm.apply_vec(b));
        }
        let ps = solve_panel_distributed(&plan, &nf.stores, &bp, nrhs).unwrap();
        for (k, b) in bs.iter().enumerate() {
            let x = plan.sf().perm.unapply_vec(&ps.xp[k * n..(k + 1) * n]);
            assert!(a.relative_residual(&x, b) < 1e-10, "rhs {k}");
        }
    }
}
