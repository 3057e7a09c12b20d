//! Solver sessions: factor once, serve many.
//!
//! The one-shot [`sympack::SymPack`] driver re-runs ordering, symbolic
//! analysis, mapping and factorization on every call — the right shape for
//! a benchmark, the wrong one for the paper's §5.3 applications
//! (optimization loops, selected inversion, time-stepping), which solve
//! against one factorization hundreds of times and periodically re-factor
//! on an unchanged sparsity pattern. This crate keeps the factor alive:
//! a [`Session`] owns the analyzed plan (ordering, symbolic factor, 2D
//! mapping, per-rank task graphs) and the distributed numeric factor. It
//! exposes [`Session::solve_batch`] (one distributed *panel* triangular
//! solve over many right-hand sides — same message and task count as a
//! single-vector solve) and [`Session::refactorize`] (numeric-only
//! re-factorization reusing all symbolic state, with typed rejection of
//! pattern-mismatched input).
//!
//! Serving a session — a job queue with bounded admission, batching that
//! coalesces pending right-hand sides into one panel solve, latency and
//! amortization metrics — is `sympack-fleet`'s job: a single-session
//! server is a one-tenant fleet.

use std::sync::Arc;
use std::time::Instant;

use sympack::plan::{factor_numeric, solve_panel_distributed};
use sympack::storage::BlockStore;
use sympack::{SolvePlan, SolverError, SolverOptions, SymbolicPlan};
use sympack_sparse::SparseSym;

/// A dense column panel of right-hand sides (or solutions): `n × nrhs`,
/// column-major.
#[derive(Debug, Clone)]
pub struct RhsPanel {
    n: usize,
    nrhs: usize,
    data: Vec<f64>,
}

impl RhsPanel {
    /// Wrap a column-major `n × nrhs` buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != n * nrhs` or `nrhs == 0`.
    pub fn new(n: usize, nrhs: usize, data: Vec<f64>) -> RhsPanel {
        assert!(nrhs > 0, "a panel has at least one column");
        assert_eq!(data.len(), n * nrhs, "panel buffer must be n × nrhs");
        RhsPanel { n, nrhs, data }
    }

    /// Single-column panel from one right-hand-side vector.
    pub fn from_vector(b: &[f64]) -> RhsPanel {
        RhsPanel::new(b.len(), 1, b.to_vec())
    }

    /// Panel from equal-length columns.
    ///
    /// # Panics
    /// Panics when `cols` is empty or the columns disagree in length.
    pub fn from_columns(cols: &[Vec<f64>]) -> RhsPanel {
        assert!(!cols.is_empty(), "a panel has at least one column");
        let n = cols[0].len();
        let mut data = Vec::with_capacity(n * cols.len());
        for c in cols {
            assert_eq!(c.len(), n, "panel columns must agree in length");
            data.extend_from_slice(c);
        }
        RhsPanel::new(n, cols.len(), data)
    }

    /// Rows (matrix order).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Columns (right-hand sides).
    pub fn nrhs(&self) -> usize {
        self.nrhs
    }

    /// One column as a slice.
    pub fn column(&self, k: usize) -> &[f64] {
        &self.data[k * self.n..(k + 1) * self.n]
    }

    /// The whole column-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// Result of one [`Session::solve_batch`]: solution panels aligned with the
/// input panels, plus the virtual makespan of the single distributed panel
/// solve that served all of them.
#[derive(Debug)]
pub struct BatchSolve {
    /// One solution panel per input panel, same shapes.
    pub panels: Vec<RhsPanel>,
    /// Virtual makespan of the coalesced panel solve.
    pub solve_time: f64,
    /// Total right-hand sides served.
    pub nrhs: usize,
}

/// A persistent solver session: analysis and mapping paid once, the numeric
/// factor retained across solves, numeric-only re-factorization on the same
/// pattern.
#[derive(Debug)]
pub struct Session {
    plan: SolvePlan,
    /// The retained numeric factor; `None` while evicted from the factor
    /// cache (see [`Session::evict_factor`]).
    stores: Option<Vec<BlockStore>>,
    /// Current numeric values (concatenated column values of the analyzed
    /// pattern), retained so an evicted factor can be re-materialized.
    values: Vec<f64>,
    factor_bytes: u64,
    factor_time: f64,
    first_factor_time: f64,
    analyze_wall_ms: f64,
    refactorizations: u64,
    rematerializations: u64,
}

fn collect_values(a: &SparseSym) -> Vec<f64> {
    let mut values = Vec::with_capacity(a.nnz());
    for c in 0..a.n() {
        values.extend_from_slice(a.col_values(c));
    }
    values
}

impl Session {
    /// Check the options a session is built under: what
    /// [`SolverOptions::validate`] checks, and `refine_steps == 0`, because
    /// a session's solves do not refine.
    ///
    /// # Errors
    /// [`SolverError::InvalidOptions`] naming the offending field.
    pub fn validate_options(opts: &SolverOptions) -> Result<(), SolverError> {
        opts.validate()?;
        if opts.refine_steps > 0 {
            return Err(SolverError::InvalidOptions {
                field: "refine_steps",
                detail: format!("{} requested; a session does not refine", opts.refine_steps),
            });
        }
        Ok(())
    }

    /// Analyze `a`, build per-rank task graphs and run the first numeric
    /// factorization — the fresh-analysis (plan-cache miss) path.
    ///
    /// # Errors
    /// [`SolverError::InvalidOptions`] for options
    /// [`Session::validate_options`] rejects; any factorization failure
    /// ([`SolverError::NotPositiveDefinite`], device OOM under the Abort
    /// policy, fault-injection diagnoses).
    pub fn new(a: &SparseSym, opts: &SolverOptions) -> Result<Session, SolverError> {
        Session::validate_options(opts)?;
        let t0 = Instant::now();
        let plan = SolvePlan::new(a, opts);
        let analyze_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        Session::factor_first(a, plan, analyze_wall_ms)
    }

    /// Build a session from a cached [`SymbolicPlan`] — the plan-cache hit
    /// path: no ordering, no symbolic analysis, no task-graph construction;
    /// only the numeric factorization runs. The session's
    /// [`Session::analyze_wall_ms`] is 0 — the defining property of a cache
    /// hit.
    ///
    /// # Errors
    /// [`SolverError::PatternMismatch`] when `a`'s structure differs from
    /// the pattern `symbolic` was analyzed for;
    /// [`SolverError::InvalidOptions`] for options
    /// [`Session::validate_options`] rejects (checked first) or a rank
    /// layout other than the one `symbolic` was built for; otherwise the
    /// factorization failure modes.
    pub fn with_plan(
        a: &SparseSym,
        symbolic: Arc<SymbolicPlan>,
        opts: &SolverOptions,
    ) -> Result<Session, SolverError> {
        Session::validate_options(opts)?;
        if !symbolic.matches(a) {
            return Err(SolverError::PatternMismatch {
                expected_nnz: symbolic.pattern_nnz(),
                actual_nnz: a.nnz(),
                detail: "matrix structure differs from the cached symbolic plan".to_string(),
            });
        }
        let plan = SolvePlan::from_symbolic(symbolic, opts);
        Session::factor_first(a, plan, 0.0)
    }

    fn factor_first(
        a: &SparseSym,
        plan: SolvePlan,
        analyze_wall_ms: f64,
    ) -> Result<Session, SolverError> {
        let mut session = Session {
            plan,
            stores: None,
            values: collect_values(a),
            factor_bytes: 0,
            factor_time: 0.0,
            first_factor_time: 0.0,
            analyze_wall_ms,
            refactorizations: 0,
            rematerializations: 0,
        };
        session.first_factor_time = session.factor(a)?;
        Ok(session)
    }

    /// Factor `a` (which has the session's pattern) and install the result
    /// as the resident factor — the one numeric-factorization step behind
    /// creation, re-factorization and re-materialization. On error the
    /// previous factor stays installed.
    fn factor(&mut self, a: &SparseSym) -> Result<f64, SolverError> {
        let nf = factor_numeric(&self.plan, &Arc::new(self.plan.permute(a)))?;
        self.factor_bytes = nf.factor_bytes();
        self.factor_time = nf.factor_time;
        self.stores = Some(nf.stores);
        Ok(nf.factor_time)
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.plan.symbolic.a_pattern.n()
    }

    /// Lower-triangle stored nonzeros of the analyzed pattern — the value
    /// count [`Session::refactorize`] expects.
    pub fn pattern_nnz(&self) -> usize {
        self.plan.symbolic.pattern_nnz()
    }

    /// Structure hash of the analyzed pattern.
    pub fn pattern(&self) -> u64 {
        self.plan.pattern()
    }

    /// The shared symbolic plan backing this session — hand it to
    /// [`Session::with_plan`] (or a fleet plan cache) to serve another
    /// matrix with the same pattern without re-analyzing.
    pub fn symbolic_plan(&self) -> Arc<SymbolicPlan> {
        Arc::clone(&self.plan.symbolic)
    }

    /// Whether the numeric factor is currently materialized (not evicted).
    pub fn is_resident(&self) -> bool {
        self.stores.is_some()
    }

    /// Bytes of numeric factor payload when resident, 0 while evicted.
    pub fn factor_bytes(&self) -> u64 {
        if self.stores.is_some() {
            self.factor_bytes
        } else {
            0
        }
    }

    /// Drop the numeric factor, keeping all symbolic state and the current
    /// values. Returns the bytes freed (0 when already evicted). The next
    /// solve must be preceded by [`Session::ensure_resident`].
    pub fn evict_factor(&mut self) -> u64 {
        match self.stores.take() {
            Some(_) => self.factor_bytes,
            None => 0,
        }
    }

    /// Re-materialize the factor from the retained values if it was
    /// evicted. Returns `Some(factor_time)` when a re-factorization ran,
    /// `None` when the factor was already resident.
    ///
    /// # Errors
    /// The factorization failure modes.
    pub fn ensure_resident(&mut self) -> Result<Option<f64>, SolverError> {
        if self.stores.is_some() {
            return Ok(None);
        }
        let a = self.plan.symbolic.matrix_from_values(&self.values);
        let factor_time = self.factor(&a)?;
        self.rematerializations += 1;
        Ok(Some(factor_time))
    }

    /// Factor re-materializations performed after evictions.
    pub fn rematerializations(&self) -> u64 {
        self.rematerializations
    }

    /// The retained per-rank factor blocks (`None` while evicted) — read
    /// access for byte-identity checks and storage accounting.
    pub fn factor_stores(&self) -> Option<&[BlockStore]> {
        self.stores.as_deref()
    }

    /// Virtual makespan of the most recent factorization.
    pub fn factor_time(&self) -> f64 {
        self.factor_time
    }

    /// Virtual makespan of the session's first factorization.
    pub fn first_factor_time(&self) -> f64 {
        self.first_factor_time
    }

    /// Wall-clock milliseconds of ordering + symbolic analysis + task-graph
    /// construction (paid once at session creation).
    pub fn analyze_wall_ms(&self) -> f64 {
        self.analyze_wall_ms
    }

    /// Numeric re-factorizations performed so far.
    pub fn refactorizations(&self) -> u64 {
        self.refactorizations
    }

    /// The analysis/mapping plan the session runs under.
    pub fn plan(&self) -> &SolvePlan {
        &self.plan
    }

    /// The dense-kernel configuration every factorization and solve of
    /// this session runs under (fixed at [`Session::new`] from
    /// [`SolverOptions::kernel_config`]; per-session, so co-resident
    /// sessions can carry different tunings).
    pub fn kernel_config(&self) -> &sympack::KernelConfig {
        &self.plan.opts.kernel_config
    }

    /// Solve every right-hand side in `panels` with one distributed panel
    /// triangular solve and return the solution panels in the same shapes.
    /// Returns the coalesced solve's virtual makespan; an empty batch is a
    /// no-op with zero cost.
    ///
    /// # Errors
    /// [`SolverError::ShapeMismatch`] when a panel's row count differs from
    /// the session matrix; [`SolverError::FactorEvicted`] when the factor
    /// was evicted and not re-materialized, plus the solve's
    /// fault-injection diagnoses ([`SolverError::Stalled`],
    /// [`SolverError::FetchTimeout`]).
    pub fn solve_batch(&self, panels: &[RhsPanel]) -> Result<BatchSolve, SolverError> {
        let total: usize = panels.iter().map(|p| p.nrhs()).sum();
        if total == 0 {
            return Ok(BatchSolve {
                panels: Vec::new(),
                solve_time: 0.0,
                nrhs: 0,
            });
        }
        let stores = self.stores.as_ref().ok_or(SolverError::FactorEvicted {
            pattern: self.plan.pattern(),
        })?;
        let n = self.n();
        let mut bp = vec![0.0; n * total];
        let mut k = 0;
        for p in panels {
            SolverError::check_shape("rhs panel rows", n, p.n())?;
            for c in 0..p.nrhs() {
                let col = self.plan.sf().perm.apply_vec(p.column(c));
                bp[k * n..(k + 1) * n].copy_from_slice(&col);
                k += 1;
            }
        }
        let ps = solve_panel_distributed(&self.plan, stores, &bp, total)?;
        let mut out = Vec::with_capacity(panels.len());
        let mut k = 0;
        for p in panels {
            let mut data = Vec::with_capacity(n * p.nrhs());
            for _ in 0..p.nrhs() {
                data.extend(self.plan.sf().perm.unapply_vec(&ps.xp[k * n..(k + 1) * n]));
                k += 1;
            }
            out.push(RhsPanel::new(n, p.nrhs(), data));
        }
        Ok(BatchSolve {
            panels: out,
            solve_time: ps.solve_time,
            nrhs: total,
        })
    }

    /// Solve one right-hand side (a 1-column [`Session::solve_batch`]).
    ///
    /// # Errors
    /// Same as [`Session::solve_batch`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        let out = self.solve_batch(&[RhsPanel::from_vector(b)])?;
        Ok(out.panels[0].column(0).to_vec())
    }

    /// Numeric re-factorization from a new value array laid out exactly like
    /// the analyzed matrix's lower-triangle storage (concatenated column
    /// values, [`Session::pattern_nnz`] entries). Reuses the ordering,
    /// symbolic factor, mapping and task graphs; rebuilds only the numeric
    /// block storage. On success returns the new factorization's virtual
    /// makespan; on any error the previous factor stays installed.
    ///
    /// # Errors
    /// [`SolverError::PatternMismatch`] when `values` has the wrong length;
    /// otherwise the factorization failure modes.
    ///
    /// # Examples
    ///
    /// Re-factor twice the analyzed matrix:
    ///
    /// ```
    /// use sympack::SolverOptions;
    /// use sympack_service::Session;
    /// use sympack_sparse::gen::laplacian_2d;
    ///
    /// let a = laplacian_2d(6, 6);
    /// let mut session = Session::new(&a, &SolverOptions::default()).unwrap();
    /// let mut values = vec![0.0; session.pattern_nnz()];
    /// let stored = (0..a.n()).flat_map(|c| a.col_values(c));
    /// for (v, a_v) in values.iter_mut().zip(stored) {
    ///     *v = 2.0 * a_v;
    /// }
    /// session.refactorize(&values).unwrap();
    /// ```
    pub fn refactorize(&mut self, values: &[f64]) -> Result<f64, SolverError> {
        let expected = self.pattern_nnz();
        if values.len() != expected {
            return Err(SolverError::PatternMismatch {
                expected_nnz: expected,
                actual_nnz: values.len(),
                detail: "value array length does not match the analyzed pattern".to_string(),
            });
        }
        let a = self.plan.symbolic.matrix_from_values(values);
        self.refactor_with(&a)
    }

    /// Numeric re-factorization from a full matrix, which must have exactly
    /// the session's sparsity structure (checked by
    /// [`sympack::pattern_hash`]).
    ///
    /// # Errors
    /// [`SolverError::PatternMismatch`] when the structure differs;
    /// otherwise the factorization failure modes.
    pub fn refactorize_matrix(&mut self, a: &SparseSym) -> Result<f64, SolverError> {
        if !self.plan.symbolic.matches(a) {
            return Err(SolverError::PatternMismatch {
                expected_nnz: self.pattern_nnz(),
                actual_nnz: a.nnz(),
                detail: "matrix structure differs from the analyzed pattern".to_string(),
            });
        }
        self.refactor_with(a)
    }

    fn refactor_with(&mut self, a: &SparseSym) -> Result<f64, SolverError> {
        let factor_time = self.factor(a)?;
        self.values = collect_values(a);
        self.refactorizations += 1;
        Ok(factor_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack::SymPack;
    use sympack_sparse::gen::laplacian_2d;
    use sympack_sparse::vecops::test_rhs;

    fn opts(p: usize) -> SolverOptions {
        SolverOptions {
            n_nodes: 1,
            ranks_per_node: p,
            ..Default::default()
        }
    }

    #[test]
    fn session_solve_matches_one_shot_driver() {
        let a = laplacian_2d(9, 8);
        let b = test_rhs(a.n());
        let session = Session::new(&a, &opts(4)).unwrap();
        let x = session.solve(&b).unwrap();
        assert!(a.relative_residual(&x, &b) < 1e-10);
        let one_shot = SymPack::factor_and_solve(&a, &b, &opts(4));
        for (xs, xo) in x.iter().zip(one_shot.x.iter()) {
            assert!((xs - xo).abs() < 1e-12);
        }
    }

    #[test]
    fn session_under_non_default_kernel_config_solves_correctly() {
        let a = laplacian_2d(9, 8);
        let b = test_rhs(a.n());
        let cfg = sympack::KernelConfig {
            mc: 48,
            kc: 64,
            nc: 40,
            pack_min_flops: 0,
            ..Default::default()
        };
        cfg.validate().unwrap();
        let mut o = opts(2);
        o.kernel_config = cfg.clone();
        let session = Session::new(&a, &o).unwrap();
        assert_eq!(session.kernel_config(), &cfg);
        let x = session.solve(&b).unwrap();
        assert!(a.relative_residual(&x, &b) < 1e-10);
        // Default-config session on the same problem: same solution to
        // within roundoff from the reordered blocking.
        let sd = Session::new(&a, &opts(2)).unwrap();
        assert_eq!(sd.kernel_config(), &sympack::KernelConfig::default());
        let xd = sd.solve(&b).unwrap();
        for (u, v) in x.iter().zip(xd.iter()) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn session_with_scaling_knobs_factors_and_refactors() {
        // The strong-scaling knobs (tree broadcast + signal coalescing)
        // flow through the session path: SolverOptions → SolvePlan →
        // factor_numeric, including re-factorization.
        let a = laplacian_2d(8, 8);
        let b = test_rhs(a.n());
        let mut o = opts(4);
        o.n_nodes = 2;
        o.ranks_per_node = 2;
        o.bcast = sympack::BcastTopology::Tree { arity: 2 };
        o.coalesce = Some(sympack::CoalesceConfig::default());
        o.deterministic = true;
        let mut session = Session::new(&a, &o).unwrap();
        let x = session.solve(&b).unwrap();
        assert!(a.relative_residual(&x, &b) < 1e-10);
        // Re-factor on the same pattern with scaled values.
        let values: Vec<f64> = (0..a.n())
            .flat_map(|c| a.col_values(c).iter().map(|v| v * 2.0).collect::<Vec<_>>())
            .collect();
        session.refactorize(&values).unwrap();
        let x2 = session.solve(&b).unwrap();
        for (u, v) in x.iter().zip(x2.iter()) {
            assert!((u - 2.0 * v).abs() < 1e-9, "A/2 scaling inverts x");
        }
    }

    #[test]
    fn session_with_cached_plan_skips_analysis_and_matches_bits() {
        let a = laplacian_2d(8, 7);
        let b = test_rhs(a.n());
        let mut o = opts(4);
        o.deterministic = true;
        let fresh = Session::new(&a, &o).unwrap();
        let cached = Session::with_plan(&a, fresh.symbolic_plan(), &o).unwrap();
        // Cache hit: no analysis wall time, same pattern, bit-equal results.
        assert_eq!(cached.analyze_wall_ms(), 0.0);
        assert!(fresh.analyze_wall_ms() > 0.0);
        // The phase breakdown belongs to the shared plan: what its builder
        // paid, inside the builder's analysis wall time.
        assert_eq!(cached.symbolic_plan().phases, fresh.symbolic_plan().phases);
        let phases = fresh.symbolic_plan().phases.total_ms();
        assert!(phases > 0.0 && phases <= fresh.analyze_wall_ms());
        assert_eq!(cached.pattern(), fresh.pattern());
        assert_eq!(
            cached.factor_time().to_bits(),
            fresh.factor_time().to_bits()
        );
        let xf = fresh.solve(&b).unwrap();
        let xc = cached.solve(&b).unwrap();
        for (u, v) in xf.iter().zip(xc.iter()) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        // A different pattern is rejected with a typed error.
        let other = laplacian_2d(8, 6);
        match Session::with_plan(&other, fresh.symbolic_plan(), &o) {
            Err(SolverError::PatternMismatch { .. }) => {}
            other => panic!("expected PatternMismatch, got {other:?}"),
        }
    }

    #[test]
    fn evicted_factor_rematerializes_and_solves() {
        let a = laplacian_2d(7, 6);
        let b = test_rhs(a.n());
        let mut o = opts(2);
        o.deterministic = true;
        let mut session = Session::new(&a, &o).unwrap();
        let x0 = session.solve(&b).unwrap();
        let bytes = session.factor_bytes();
        assert!(bytes > 0);
        assert!(session.is_resident());
        // Evict: solves are rejected with a typed error until re-materialized.
        assert_eq!(session.evict_factor(), bytes);
        assert!(!session.is_resident());
        assert_eq!(session.factor_bytes(), 0);
        assert_eq!(session.evict_factor(), 0);
        match session.solve(&b) {
            Err(SolverError::FactorEvicted { pattern }) => {
                assert_eq!(pattern, session.pattern())
            }
            other => panic!("expected FactorEvicted, got {other:?}"),
        }
        // Re-materialize from the retained values: bit-identical solves.
        let ft = session.ensure_resident().unwrap();
        assert!(ft.is_some());
        assert_eq!(session.rematerializations(), 1);
        assert_eq!(session.factor_bytes(), bytes);
        assert!(session.ensure_resident().unwrap().is_none());
        let x1 = session.solve(&b).unwrap();
        for (u, v) in x0.iter().zip(x1.iter()) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        // Eviction after a refactorize re-materializes the *new* values.
        let values: Vec<f64> = (0..a.n())
            .flat_map(|c| a.col_values(c).iter().map(|v| v * 2.0).collect::<Vec<_>>())
            .collect();
        session.refactorize(&values).unwrap();
        session.evict_factor();
        session.ensure_resident().unwrap();
        let x2 = session.solve(&b).unwrap();
        for (u, v) in x0.iter().zip(x2.iter()) {
            assert!((u - 2.0 * v).abs() < 1e-9, "A*2 halves x");
        }
    }

    #[test]
    fn batch_solve_returns_per_panel_solutions() {
        let a = laplacian_2d(7, 7);
        let n = a.n();
        let session = Session::new(&a, &opts(2)).unwrap();
        let p1 = RhsPanel::from_columns(&[
            (0..n).map(|i| (i as f64 * 0.1).sin()).collect(),
            (0..n).map(|i| (i as f64 * 0.2).cos()).collect(),
        ]);
        let p2 = RhsPanel::from_vector(&test_rhs(n));
        let out = session.solve_batch(&[p1.clone(), p2.clone()]).unwrap();
        assert_eq!(out.nrhs, 3);
        assert_eq!(out.panels.len(), 2);
        assert_eq!(out.panels[0].nrhs(), 2);
        for (pin, pout) in [(&p1, &out.panels[0]), (&p2, &out.panels[1])] {
            for k in 0..pin.nrhs() {
                let r = a.relative_residual(pout.column(k), pin.column(k));
                assert!(r < 1e-10, "panel col {k}: {r}");
            }
        }
    }

    #[test]
    fn empty_batch_is_free() {
        let a = laplacian_2d(5, 5);
        let session = Session::new(&a, &opts(1)).unwrap();
        let out = session.solve_batch(&[]).unwrap();
        assert_eq!(out.nrhs, 0);
        assert_eq!(out.solve_time, 0.0);
    }

    #[test]
    fn refactorize_wrong_length_is_typed_rejection() {
        let a = laplacian_2d(6, 6);
        let mut session = Session::new(&a, &opts(2)).unwrap();
        let bad = vec![1.0; session.pattern_nnz() + 3];
        match session.refactorize(&bad) {
            Err(SolverError::PatternMismatch {
                expected_nnz,
                actual_nnz,
                ..
            }) => {
                assert_eq!(expected_nnz, session.pattern_nnz());
                assert_eq!(actual_nnz, session.pattern_nnz() + 3);
            }
            other => panic!("expected PatternMismatch, got {other:?}"),
        }
        // The original factor must still serve solves.
        let b = test_rhs(a.n());
        let x = session.solve(&b).unwrap();
        assert!(a.relative_residual(&x, &b) < 1e-10);
    }

    #[test]
    fn refactorize_matrix_rejects_different_structure() {
        let a = laplacian_2d(6, 6);
        let mut session = Session::new(&a, &opts(2)).unwrap();
        let other = laplacian_2d(6, 5);
        match session.refactorize_matrix(&other) {
            Err(SolverError::PatternMismatch { .. }) => {}
            other => panic!("expected PatternMismatch, got {other:?}"),
        }
    }

    #[test]
    fn refactorize_installs_new_values() {
        let a = laplacian_2d(8, 6);
        let mut session = Session::new(&a, &opts(4)).unwrap();
        // Scale the matrix by 2: solutions must halve.
        let mut values = Vec::with_capacity(session.pattern_nnz());
        for c in 0..a.n() {
            values.extend(a.col_values(c).iter().map(|v| v * 2.0));
        }
        session.refactorize(&values).unwrap();
        assert_eq!(session.refactorizations(), 1);
        let b = test_rhs(a.n());
        let x = session.solve(&b).unwrap();
        let x_orig = SymPack::factor_and_solve(&a, &b, &opts(4)).x;
        for (h, f) in x.iter().zip(x_orig.iter()) {
            assert!((2.0 * h - f).abs() < 1e-9);
        }
    }
}
