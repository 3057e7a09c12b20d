//! Set-up and the iteration bodies of the two workload paths, with the
//! correctness gate around every operation.
//!
//! Both bodies run the same lifecycle under the same span names, so every
//! end-to-end metric has one meaning on every workload:
//!
//! | span       | cold path (driver + plan layer)            | warm path (`service::Session`)                |
//! |------------|--------------------------------------------|-----------------------------------------------|
//! | `one_shot` | `SymPack::try_factor_and_solve`            | `Session::new` + `solve` (admission, miss)    |
//! | `analyze`  | `SolvePlan::new`                           | `SolvePlan::new`                              |
//! | `factor`   | `plan.permute` + `factor_numeric`          | `Session::with_plan` (admission, hit)         |
//! | `solve`    | permute b + `solve_panel_distributed` (1)  | `Session::solve`                              |
//! | `panel`    | the same with a 16-column panel            | `Session::solve_batch` of one 16-RHS panel    |
//! | `refactor` | permute + `factor_numeric`, perturbed values, same plan | `Session::refactorize` on the resident session |
//!
//! `generate` (inputs of the iteration) and `residual` (the checks) are
//! spans too, so the children of `iteration` account for its whole wall.

use crate::inputs::{fnv1a, Inputs, Path, Workload, PANEL_RHS};
use crate::spans::Recorder;
use std::sync::Arc;
use sympack::plan::{factor_numeric, solve_panel_distributed};
use sympack::storage::BlockStore;
use sympack::{NumericFactor, SolvePlan, SolverError, SolverOptions, SymPack};
use sympack_service::{RhsPanel, Session};
use sympack_sparse::SparseSym;

/// Every solve must reach this relative residual against the matrix it was
/// asked to solve with (original ordering, perturbed where applicable).
pub const TOLERANCE: f64 = 1e-10;

/// Single-RHS solves per iteration (cold: 4 + the check of the refactor;
/// warm: the check of the admitted tenant + 8).
const COLD_SOLVES: u64 = 4;
const WARM_SOLVES: u64 = 8;
const WARM_PANELS: u64 = 2;

/// Operations attempted and failed. Every factorization and every solve is
/// one operation; it fails on `Err` or on a residual above [`TOLERANCE`].
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub max_residual: f64,
}

impl Ops {
    /// Count `n` operations that one call performed; on `Err` all fail.
    pub fn returned<T>(&mut self, what: &str, n: u64, r: Result<T, SolverError>) -> Option<T> {
        self.attempted += n;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(n, &format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn fail(&mut self, n: u64, why: &str) {
        self.failed += n;
        eprintln!("FAILED operation: {why}");
    }

    /// The residual check of a solve already counted by [`Ops::returned`].
    pub fn verify(&mut self, what: &str, a: &SparseSym, x: &[f64], b: &[f64]) {
        self.check_residual(what, a.relative_residual(x, b));
    }

    pub fn check_residual(&mut self, what: &str, residual: f64) {
        // NaN compares false and so fails too.
        if residual <= TOLERANCE {
            self.max_residual = self.max_residual.max(residual);
        } else {
            self.fail(
                1,
                &format!("{what}: relative residual {residual:e} > {TOLERANCE:e}"),
            );
        }
    }
}

/// `plan.permute` + `factor_numeric`: values in → factor resident.
pub fn factor_on_plan(
    rec: &mut Recorder,
    plan: &SolvePlan,
    a: &SparseSym,
) -> Result<NumericFactor, SolverError> {
    let (ap, _) = rec.span("permute", |_| Arc::new(plan.permute(a)));
    rec.span("factor_numeric", |_| factor_numeric(plan, &ap)).0
}

/// Right-hand sides in → solutions out on the plan path, permutes included.
/// Returns the solutions and the solve's virtual makespan.
pub fn solve_on_plan(
    rec: &mut Recorder,
    plan: &SolvePlan,
    stores: &[BlockStore],
    bs: &[Vec<f64>],
) -> Result<(Vec<Vec<f64>>, f64), SolverError> {
    let perm = &plan.sf().perm;
    let n = plan.sf().n();
    let (bp, _) = rec.span("permute_rhs", |_| {
        bs.iter()
            .flat_map(|b| perm.apply_vec(b))
            .collect::<Vec<f64>>()
    });
    let (ps, _) = rec.span("solve_panel", |_| {
        solve_panel_distributed(plan, stores, &bp, bs.len())
    });
    let ps = ps?;
    let (xs, _) = rec.span("unpermute", |_| {
        ps.xp.chunks(n).map(|xp| perm.unapply_vec(xp)).collect()
    });
    Ok((xs, ps.solve_time))
}

/// One plan-path solve (span `name`, `bs.len()` columns) as one operation,
/// every column checked against `a`.
fn plan_solve_checked(
    rec: &mut Recorder,
    ops: &mut Ops,
    name: &'static str,
    plan: &SolvePlan,
    nf: &NumericFactor,
    a: &SparseSym,
    bs: &[Vec<f64>],
) {
    let (r, _) = rec.span(name, |rec| solve_on_plan(rec, plan, &nf.stores, bs));
    if let Some((xs, _)) = ops.returned(name, 1, r) {
        rec.span("residual", |_| {
            xs.iter()
                .zip(bs)
                .for_each(|(x, b)| ops.verify(name, a, x, b));
        });
    }
}

/// One `Session::solve` (span `solve`) as one operation, checked against `a`.
fn session_solve_checked(
    rec: &mut Recorder,
    ops: &mut Ops,
    session: &Session,
    a: &SparseSym,
    b: &[f64],
) {
    let (r, _) = rec.span("solve", |_| session.solve(b));
    if let Some(x) = ops.returned("Session::solve", 1, r) {
        rec.span("residual", |_| ops.verify("Session::solve", a, &x, b));
    }
}

/// A workload's solver state between iterations.
pub struct Bench {
    pub workload: &'static Workload,
    pub opts: SolverOptions,
    pub inputs: Inputs,
    pub ops: Ops,
    /// The long-lived session of the warm path.
    resident: Option<Session>,
    /// Bits of the first one-shot solution at P = 1, where one rank runs in
    /// program order and every later solution must repeat them.
    one_shot_bits: Option<u64>,
}

impl Bench {
    /// Generate the inputs and, on the warm path, open the resident session
    /// (analysis + first factorization). `ops` carries the counts so far.
    ///
    /// # Errors
    /// The session's first factorization failed; nothing can be measured.
    pub fn set_up(
        workload: &'static Workload,
        seed: u64,
        mut ops: Ops,
    ) -> Result<Bench, SolverError> {
        let inputs = Inputs::generate(workload.matrix, seed);
        let opts = workload.options();
        let resident = match workload.path {
            Path::Cold => None,
            Path::Warm => {
                ops.attempted += 1;
                Some(Session::new(&inputs.a, &opts)?)
            }
        };
        Ok(Bench {
            workload,
            opts,
            inputs,
            ops,
            resident,
            one_shot_bits: None,
        })
    }

    /// One closed-loop iteration `k ≥ 1` (0 is the warm-up), as the span
    /// `iteration`.
    pub fn iteration(&mut self, rec: &mut Recorder, k: u64) {
        rec.set_iteration(Some(k));
        rec.span("iteration", |rec| match self.workload.path {
            Path::Cold => self.cold_iteration(rec, k),
            Path::Warm => self.warm_iteration(rec, k),
        });
        rec.set_iteration(None);
    }

    fn cold_iteration(&mut self, rec: &mut Recorder, k: u64) {
        let Bench {
            workload,
            opts,
            inputs,
            ops,
            one_shot_bits,
            ..
        } = self;
        let a = &inputs.a;
        let ((solve_bs, panel_bs, ak, check_b), _) = rec.span("generate", |_| {
            (
                (0..COLD_SOLVES)
                    .map(|j| inputs.rhs(k, j))
                    .collect::<Vec<_>>(),
                (0..PANEL_RHS as u64)
                    .map(|j| inputs.rhs(k, 100 + j))
                    .collect::<Vec<_>>(),
                inputs.with_values(inputs.perturbed_values(k)),
                inputs.rhs(k, 200),
            )
        });

        // Matrix + rhs in → x out on the one-shot driver path.
        let (r, _) = rec.span("one_shot", |_| {
            SymPack::try_factor_and_solve(a, &inputs.b0, opts)
        });
        if let Some(report) = ops.returned("one-shot factor+solve", 2, r) {
            rec.span("residual", |_| {
                ops.verify("one-shot solve", a, &report.x, &inputs.b0)
            });
            if workload.p == 1 {
                let bits = fnv1a(report.x.iter().map(|v| v.to_bits()));
                if *one_shot_bits.get_or_insert(bits) != bits {
                    ops.fail(
                        1,
                        "one-shot solution at P = 1 changed bits between iterations",
                    );
                }
            }
        }

        // The same work phase by phase on the plan path.
        let (plan, _) = rec.span("analyze", |_| SolvePlan::new(a, opts));
        let (nf, _) = rec.span("factor", |rec| factor_on_plan(rec, &plan, a));
        let Some(nf) = ops.returned("factor_numeric", 1, nf) else {
            return;
        };
        for b in &solve_bs {
            plan_solve_checked(rec, ops, "solve", &plan, &nf, a, std::slice::from_ref(b));
        }
        plan_solve_checked(rec, ops, "panel", &plan, &nf, a, &panel_bs);

        // New values on the same plan; the old factor stays resident until
        // the new one is complete, as in `Session::refactorize`.
        let (nf2, _) = rec.span("refactor", |rec| factor_on_plan(rec, &plan, &ak));
        drop(nf);
        if let Some(nf2) = ops.returned("refactor", 1, nf2) {
            plan_solve_checked(rec, ops, "solve", &plan, &nf2, &ak, &[check_b]);
        }
    }

    fn warm_iteration(&mut self, rec: &mut Recorder, k: u64) {
        let Bench {
            opts,
            inputs,
            ops,
            resident,
            ..
        } = self;
        let resident = resident
            .as_mut()
            .expect("the warm set-up opened the session");
        let ((values_k, ak, solve_bs, panels), _) = rec.span("generate", |_| {
            let values_k = inputs.perturbed_values(k);
            let panel = |p: u64| {
                let cols: Vec<Vec<f64>> = (0..PANEL_RHS as u64)
                    .map(|j| inputs.rhs(k, 100 * (p + 1) + j))
                    .collect();
                RhsPanel::from_columns(&cols)
            };
            (
                values_k.clone(),
                inputs.with_values(values_k),
                (0..=WARM_SOLVES)
                    .map(|j| inputs.rhs(k, j))
                    .collect::<Vec<_>>(),
                (0..WARM_PANELS).map(panel).collect::<Vec<_>>(),
            )
        });
        // A new tenant, plan-cache miss: matrix + rhs in → x out.
        let (r, _) = rec.span("one_shot", |_| Session::new(&ak, opts)?.solve(&inputs.b0));
        if let Some(x) = ops.returned("Session::new + solve", 2, r) {
            rec.span("residual", |_| {
                ops.verify("Session::new + solve", &ak, &x, &inputs.b0)
            });
        }

        // The same admission in two steps: analysis (what a plan cache
        // keeps), then values in → factor resident on a cache hit.
        let (plan, _) = rec.span("analyze", |_| SolvePlan::new(&ak, opts));
        let (tenant, _) = rec.span("factor", |_| {
            Session::with_plan(&ak, Arc::clone(&plan.symbolic), opts)
        });
        if let Some(tenant) = ops.returned("Session::with_plan", 1, tenant) {
            session_solve_checked(rec, ops, &tenant, &ak, &solve_bs[0]);
        }

        // The resident session: new values, then vector and panel solves.
        let (r, _) = rec.span("refactor", |_| resident.refactorize(&values_k));
        if ops.returned("Session::refactorize", 1, r).is_none() {
            return;
        }
        for b in &solve_bs[1..] {
            session_solve_checked(rec, ops, resident, &ak, b);
        }
        for panel in &panels {
            let (r, _) = rec.span("panel", |_| {
                resident.solve_batch(std::slice::from_ref(panel))
            });
            if let Some(out) = ops.returned("Session::solve_batch", 1, r) {
                rec.span("residual", |_| {
                    for c in 0..PANEL_RHS {
                        ops.verify(
                            "Session::solve_batch",
                            &ak,
                            out.panels[0].column(c),
                            panel.column(c),
                        );
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Matrix, WORKLOADS};

    #[test]
    fn every_workload_iterates_with_all_operations_correct() {
        for w in &WORKLOADS {
            let mut bench = Bench::set_up(w.quick(), 20230, Ops::default()).expect("set-up");
            let mut rec = Recorder::new(true);
            bench.iteration(&mut rec, 1);
            bench.iteration(&mut rec, 2);
            assert_eq!(bench.ops.failed, 0, "{}", w.name);
            // one-shot (2) + factor + refactor + solves + panels, twice;
            // the warm set-up adds the resident session's factorization.
            let per_iteration = match w.path {
                Path::Cold => 2 + 2 + (COLD_SOLVES + 1) + 1,
                Path::Warm => 2 + 2 + (WARM_SOLVES + 1) + WARM_PANELS,
            };
            let set_up = u64::from(w.path == Path::Warm);
            assert_eq!(
                bench.ops.attempted,
                set_up + 2 * per_iteration,
                "{}",
                w.name
            );
            assert!(bench.ops.max_residual > 0.0 && bench.ops.max_residual <= TOLERANCE);
            for name in ["one_shot", "analyze", "factor", "refactor"] {
                assert_eq!(rec.samples(name).len(), 2, "{} {name}", w.name);
            }
            assert!(rec.spans().iter().all(|s| s.iteration.is_some()));
        }
    }

    #[test]
    fn a_wrong_solution_and_an_error_are_failed_operations() {
        let inputs = Inputs::generate(Matrix::Dense3d(3), 1);
        let mut ops = Ops::default();
        let b = inputs.rhs(1, 0);
        ops.verify("zero is no solution", &inputs.a, &vec![0.0; b.len()], &b);
        ops.check_residual("NaN", f64::NAN);
        assert_eq!(ops.failed, 2);
        let r: Result<(), _> = Err(SolverError::NotPositiveDefinite { column: 0 });
        assert!(ops.returned("factor", 2, r).is_none());
        assert_eq!((ops.attempted, ops.failed), (2, 4));
        assert_eq!(ops.max_residual, 0.0);
    }

    #[test]
    fn a_stale_factor_fails_the_residual_check() {
        // Solve the perturbed system with the unperturbed factor: the
        // perturbation is what makes a skipped refactorization visible.
        let w = WORKLOADS[0].quick();
        let inputs = Inputs::generate(w.matrix, 20230);
        let plan = SolvePlan::new(&inputs.a, &w.options());
        let mut rec = Recorder::new(false);
        let nf = factor_on_plan(&mut rec, &plan, &inputs.a).expect("factor");
        let b = inputs.rhs(1, 0);
        let (xs, _) =
            solve_on_plan(&mut rec, &plan, &nf.stores, std::slice::from_ref(&b)).expect("solve");
        let ak = inputs.with_values(inputs.perturbed_values(1));
        assert!(inputs.a.relative_residual(&xs[0], &b) <= TOLERANCE);
        assert!(ak.relative_residual(&xs[0], &b) > 1e-3);
    }
}
