//! Solver-session integration tests: the factor-once serving layer must
//! agree with every one-shot engine, survive fault injection, and reject
//! pattern-mismatched re-factorizations with a typed error.
//!
//! * [`session_batch_matches_every_engine_per_rhs`] cross-checks one
//!   `Session::solve_batch` panel against per-RHS solutions from all five
//!   engines on the shared runtime — fan-out (`SymPack`), right-looking,
//!   fan-in, fan-both, and the triangular-solve engine driven both in panel
//!   mode (by the session) and vector mode (by every one-shot driver) — at
//!   P ∈ {1, 2, 4}.
//! * [`chaos_refactorize_then_solve_completes_under_faults`] runs the
//!   `tests/chaos.rs` sweep shape (seeded fault plans, deterministic
//!   lockstep) through a refactorize-then-solve session lifecycle: delay and
//!   duplication plans must never change the numerical result.
//! * [`refactorize_rejections_are_typed_errors`] pins the
//!   `SolverError::PatternMismatch` contract: wrong-length values and
//!   structure-mismatched matrices are rejected with expected/actual nnz,
//!   and the session keeps serving from its previous factor.
//! * [`one_shot_plan_path_and_session_agree_bit_for_bit`] pins the three
//!   entry points to one another: the one-shot driver, the plan layer
//!   (`factor_numeric` + `solve_panel_distributed`) and `Session` produce
//!   the same factor bits and the same virtual factor makespan, and a
//!   refining session the one-shot's refined solution.
//! * [`refinement_improves_every_column_of_a_panel`] refines a 16-column
//!   `solve_batch` over a block-low-rank factor column by column.

use std::sync::Arc;
use sympack::plan::{factor_numeric, solve_panel_distributed};
use sympack::storage::BlockStore;
use sympack::{SolvePlan, SolverError, SolverOptions, SymPack};
use sympack_baseline::{
    try_baseline_factor_and_solve, try_fanboth_factor_and_solve, try_fanin_factor_and_solve,
};
use sympack_pgas::FaultPlan;
use sympack_service::{RhsPanel, Session};
use sympack_sparse::gen;
use sympack_sparse::vecops::max_abs_diff;
use sympack_sparse::SparseSym;
use sympack_symbolic::SymbolicFactor;

const RESIDUAL_TOL: f64 = 1e-8;

fn rhs_columns(n: usize, nrhs: usize) -> Vec<Vec<f64>> {
    (0..nrhs)
        .map(|k| {
            (0..n)
                .map(|i| ((i + 1) as f64 * 0.17 + k as f64 * 0.9).sin())
                .collect()
        })
        .collect()
}

/// Lower-triangle values of `a` scaled by `s`, in the session's
/// `refactorize` layout.
fn scaled_values(a: &SparseSym, s: f64) -> Vec<f64> {
    let mut v = Vec::with_capacity(a.nnz());
    for c in 0..a.n() {
        v.extend(a.col_values(c).iter().map(|x| x * s));
    }
    v
}

/// The same matrix with its values scaled by `s` (structure unchanged).
fn scaled_matrix(a: &SparseSym, s: f64) -> SparseSym {
    let mut row_idx = Vec::with_capacity(a.nnz());
    for c in 0..a.n() {
        row_idx.extend_from_slice(a.col_rows(c));
    }
    SparseSym::from_parts(a.n(), a.col_ptr().to_vec(), row_idx, scaled_values(a, s))
}

#[test]
fn session_batch_matches_every_engine_per_rhs() {
    let a = gen::laplacian_2d(7, 6);
    let n = a.n();
    let bs = rhs_columns(n, 4);
    for p in [1usize, 2, 4] {
        let opts = SolverOptions {
            n_nodes: 1,
            ranks_per_node: p,
            ..Default::default()
        };
        let session = Session::new(&a, &opts).unwrap_or_else(|e| panic!("P={p}: session: {e}"));
        let batch = session
            .solve_batch(&[RhsPanel::from_columns(&bs)])
            .unwrap_or_else(|e| panic!("P={p}: solve_batch: {e}"));
        assert_eq!(batch.nrhs, bs.len());
        for (k, b) in bs.iter().enumerate() {
            let x = batch.panels[0].column(k);
            let res = a.relative_residual(x, b);
            assert!(res < RESIDUAL_TOL, "P={p} rhs {k}: panel residual {res}");
            let scale = x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            // Fan-out engine (one-shot driver, vector solve path).
            let sp = SymPack::try_factor_and_solve(&a, b, &opts)
                .unwrap_or_else(|e| panic!("P={p} rhs {k}: fanout: {e}"));
            assert!(sp.relative_residual < RESIDUAL_TOL);
            assert!(
                max_abs_diff(x, &sp.x) / scale < 1e-9,
                "P={p} rhs {k}: session panel vs fanout per-RHS solution"
            );
            // The three baseline factorization engines.
            for (name, run) in [
                (
                    "rightlooking",
                    try_baseline_factor_and_solve as fn(_, _, _) -> _,
                ),
                ("fanin", try_fanin_factor_and_solve),
                ("fanboth", try_fanboth_factor_and_solve),
            ] {
                let bl = run(&a, b, &opts).unwrap_or_else(|e| panic!("P={p} rhs {k}: {name}: {e}"));
                assert!(bl.relative_residual < RESIDUAL_TOL);
                assert!(
                    max_abs_diff(x, &bl.x) / scale < 1e-9,
                    "P={p} rhs {k}: session panel vs {name} per-RHS solution"
                );
            }
        }
    }
}

#[test]
fn chaos_refactorize_then_solve_completes_under_faults() {
    // The chaos.rs contract, applied to the session lifecycle: under delay
    // and duplication plans in deterministic lockstep, create → refactorize
    // (rescaled values) → batched solve must complete with the correct
    // result for every seed. Both the factorization runs and the panel
    // solve execute under the fault plan.
    let a = gen::laplacian_2d(6, 6);
    let scale = 3.0;
    let a_scaled = scaled_matrix(&a, scale);
    let bs = rhs_columns(a.n(), 3);
    for plan in ["delays", "dup"] {
        for seed in 0..3u64 {
            let faults = match plan {
                "delays" => FaultPlan::delays_only(seed),
                "dup" => FaultPlan::duplication(seed),
                other => unreachable!("{other}"),
            };
            let opts = SolverOptions {
                n_nodes: 1,
                ranks_per_node: 4,
                faults: Some(faults),
                deterministic: true,
                ..Default::default()
            };
            let mut session = Session::new(&a, &opts)
                .unwrap_or_else(|e| panic!("{plan}/seed={seed}: session: {e}"));
            session
                .refactorize(&scaled_values(&a, scale))
                .unwrap_or_else(|e| panic!("{plan}/seed={seed}: refactorize: {e}"));
            let batch = session
                .solve_batch(&[RhsPanel::from_columns(&bs)])
                .unwrap_or_else(|e| panic!("{plan}/seed={seed}: solve_batch: {e}"));
            for (k, b) in bs.iter().enumerate() {
                let res = a_scaled.relative_residual(batch.panels[0].column(k), b);
                assert!(
                    res < RESIDUAL_TOL,
                    "{plan}/seed={seed} rhs {k}: residual {res} after \
                     refactorize-then-solve under faults"
                );
            }
        }
    }
}

#[test]
fn deterministic_sessions_are_bit_reproducible() {
    let a = gen::laplacian_2d(6, 6);
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 4,
        deterministic: true,
        ..Default::default()
    };
    let bs = rhs_columns(a.n(), 2);
    let run = || {
        let s = Session::new(&a, &opts).expect("SPD");
        let batch = s
            .solve_batch(&[RhsPanel::from_columns(&bs)])
            .expect("solve");
        (s.factor_time(), batch.solve_time)
    };
    let (f1, s1) = run();
    let (f2, s2) = run();
    assert_eq!(
        f1.to_bits(),
        f2.to_bits(),
        "factor makespan not reproducible"
    );
    assert_eq!(
        s1.to_bits(),
        s2.to_bits(),
        "solve makespan not reproducible"
    );
}

#[test]
fn refactorize_rejections_are_typed_errors() {
    let a = gen::laplacian_2d(6, 5);
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 2,
        ..Default::default()
    };
    let mut session = Session::new(&a, &opts).expect("SPD");
    let expected = session.pattern_nnz();

    // Wrong-length value array: typed rejection with both counts.
    match session.refactorize(&vec![1.0; expected - 1]) {
        Err(SolverError::PatternMismatch {
            expected_nnz,
            actual_nnz,
            ..
        }) => {
            assert_eq!(expected_nnz, expected);
            assert_eq!(actual_nnz, expected - 1);
        }
        other => panic!("short values: expected PatternMismatch, got {other:?}"),
    }

    // Structure mismatch (same order, different sparsity): typed rejection.
    let different = gen::random_spd(a.n(), 3, 11);
    match session.refactorize_matrix(&different) {
        Err(SolverError::PatternMismatch { expected_nnz, .. }) => {
            assert_eq!(expected_nnz, expected);
        }
        other => panic!("wrong structure: expected PatternMismatch, got {other:?}"),
    }

    // The error message names both counts for operators.
    let msg = session
        .refactorize(&vec![0.0; expected + 7])
        .unwrap_err()
        .to_string();
    assert!(msg.contains(&expected.to_string()) && msg.contains(&(expected + 7).to_string()));

    // After every rejection the original factor still serves solves.
    let b = rhs_columns(a.n(), 1).remove(0);
    let x = session.solve(&b).expect("previous factor intact");
    assert!(a.relative_residual(&x, &b) < RESIDUAL_TOL);
}

/// Every stored entry of the lower-triangular factor held in per-rank block
/// stores, as sorted `(col, row, bits)` triples in the permuted ordering.
fn store_entries(sf: &SymbolicFactor, stores: &[BlockStore]) -> Vec<(usize, usize, u64)> {
    let mut v = Vec::new();
    for (&(i, j), blk) in stores.iter().flat_map(|s| s.iter()) {
        let m = blk.to_dense();
        let first = sf.partition.first_col(j);
        let rows: Vec<usize> = if i == j {
            (first..first + m.rows()).collect()
        } else {
            let info = sf.layout.find(i, j).expect("stored block is in the layout");
            sf.block_rows(j, info).to_vec()
        };
        for c in 0..m.cols() {
            for (ri, &r) in rows.iter().enumerate() {
                if r >= first + c {
                    v.push((first + c, r, m[(ri, c)].to_bits()));
                }
            }
        }
    }
    v.sort_unstable();
    v
}

#[test]
fn one_shot_plan_path_and_session_agree_bit_for_bit() {
    let a = gen::thermal_like(9, 9, 0.3, 5);
    let b = rhs_columns(a.n(), 1).remove(0);
    for p in [1usize, 2, 4] {
        let opts = SolverOptions {
            n_nodes: 1,
            ranks_per_node: p,
            deterministic: true,
            ..Default::default()
        };
        let one = SymPack::try_factor_and_solve(&a, &b, &opts).expect("one-shot");
        let gathered = SymPack::factor_gather(&a, &opts).expect("gather");
        let plan = SolvePlan::new(&a, &opts);
        let sf = Arc::clone(plan.sf());
        let nf = factor_numeric(&plan, &Arc::new(plan.permute(&a))).expect("factor_numeric");
        let ps = solve_panel_distributed(&plan, &nf.stores, &sf.perm.apply_vec(&b), 1)
            .expect("solve_panel_distributed");
        let x_plan = sf.perm.unapply_vec(&ps.xp);
        let session = Session::new(&a, &opts).expect("session");
        let x_session = session.solve(&b).expect("session solve");

        for (name, t) in [
            ("factor_gather", gathered.factor_time),
            ("factor_numeric", nf.factor_time),
            ("Session", session.factor_time()),
        ] {
            assert_eq!(
                t.to_bits(),
                one.factor_time.to_bits(),
                "P={p}: factor makespan of {name} differs from the one-shot"
            );
        }
        let l = &gathered.l_permuted;
        let mut want = Vec::with_capacity(l.nnz());
        for c in 0..l.n() {
            for (&r, v) in l.col_rows(c).iter().zip(l.col_values(c)) {
                want.push((c, r, v.to_bits()));
            }
        }
        assert_eq!(store_entries(&sf, &nf.stores), want, "P={p}: plan path");
        let resident = session.factor_stores().expect("resident");
        assert_eq!(store_entries(&sf, resident), want, "P={p}: Session");

        // Session is the plan path; the one-shot solves inside the fused
        // factor→solve region, where message arrival order (and with it the
        // accumulation order at P > 1) may differ.
        assert_eq!(x_plan, x_session, "P={p}: plan path vs Session");
        if p == 1 {
            assert_eq!(x_plan, one.x, "P=1: plan path vs one-shot");
        } else {
            assert!(max_abs_diff(&x_plan, &one.x) < 1e-12, "P={p}");
        }

        // Refinement runs the same step on both paths: the session against
        // the matrix rebuilt from its retained values.
        let refined = SolverOptions {
            refine_steps: 2,
            ..opts
        };
        let one = SymPack::try_factor_and_solve(&a, &b, &refined).expect("refined one-shot");
        let session = Session::new(&a, &refined).expect("refining session");
        let x_session = session.solve(&b).expect("refined session solve");
        if p == 1 {
            assert_eq!(x_session, one.x, "P=1: refined Session vs one-shot");
        } else {
            let diff = max_abs_diff(&x_session, &one.x);
            assert!(diff < 1e-12, "P={p}: refined Session vs one-shot: {diff}");
        }
    }
}

#[test]
fn refinement_improves_every_column_of_a_panel() {
    // A block-low-rank factor solves to O(tol); two refinement steps take
    // every column of one 16-column batch further, each on its own
    // residual.
    let a = gen::bone_like(6, 6, 5);
    let bs = rhs_columns(a.n(), 16);
    let panel = [RhsPanel::from_columns(&bs)];
    let residuals = |refine_steps| {
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
        let session = Session::new(&a, &opts).expect("BLR session");
        let out = session.solve_batch(&panel).expect("16-column batch");
        let x = &out.panels[0];
        let column = |k: usize| a.relative_residual(x.column(k), &bs[k]);
        (0..16).map(column).collect::<Vec<f64>>()
    };
    let (plain, refined) = (residuals(0), residuals(2));
    for (k, (r0, r2)) in plain.iter().zip(&refined).enumerate() {
        assert!(r2 <= r0, "column {k}: refined {r2} > unrefined {r0}");
    }
    assert!(plain.iter().all(|&r| r > 1e-10), "unrefined: {plain:?}");
    assert!(refined.iter().all(|&r| r <= 1e-10), "refined: {refined:?}");
}

/// At P = 2 every block that crossed ranks is stored *shared* (frozen at
/// publication, see `Mat::share`). A second factorization must not reach
/// the first one's blocks through that sharing, and everything that reads
/// a retained factor — panel solves, refactorization, eviction and
/// re-materialization — must behave as over owned blocks.
#[test]
fn a_retained_factor_is_untouched_while_the_next_one_is_computed() {
    let a = gen::bone_like(4, 4, 3);
    let b = rhs_columns(a.n(), 1).remove(0);
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 2,
        deterministic: true,
        ..Default::default()
    };
    let plan = SolvePlan::new(&a, &opts);
    let sf = Arc::clone(plan.sf());
    let bp = sf.perm.apply_vec(&b);
    let solve = |stores: &[BlockStore]| {
        solve_panel_distributed(&plan, stores, &bp, 1)
            .expect("panel solve")
            .xp
    };
    let first = factor_numeric(&plan, &Arc::new(plan.permute(&a))).expect("first factor");
    assert!(first.stats.rgets > 0, "blocks crossed ranks");
    let (x1, entries1) = (solve(&first.stores), store_entries(&sf, &first.stores));
    // Twice more, with other values, while `first` is alive.
    let a3 = scaled_matrix(&a, 3.0);
    let second = factor_numeric(&plan, &Arc::new(plan.permute(&a3))).expect("second factor");
    let third = factor_numeric(&plan, &Arc::new(plan.permute(&a))).expect("third factor");
    assert_eq!(store_entries(&sf, &first.stores), entries1);
    assert_eq!(solve(&first.stores), x1, "first factor's solution moved");
    assert_eq!(
        store_entries(&sf, &third.stores),
        entries1,
        "same input, same bits"
    );
    let x3 = sf.perm.unapply_vec(&solve(&second.stores));
    assert!(a3.relative_residual(&x3, &b) < RESIDUAL_TOL);
    drop(first);
    assert_eq!(solve(&third.stores), x1);

    // The same through a session: refactorize away and back, evict and
    // re-materialize — the solution bits return every time.
    let mut session = Session::new(&a, &opts).expect("session");
    let xs = session.solve(&b).expect("solve");
    assert_eq!(xs, sf.perm.unapply_vec(&x1));
    session
        .refactorize(&scaled_values(&a, 3.0))
        .expect("refactorize ×3");
    assert!(a3.relative_residual(&session.solve(&b).expect("solve ×3"), &b) < RESIDUAL_TOL);
    session
        .refactorize(&scaled_values(&a, 1.0))
        .expect("refactorize back");
    assert_eq!(session.solve(&b).expect("solve"), xs);
    assert!(session.evict_factor() > 0);
    session.ensure_resident().expect("re-materialize");
    assert_eq!(session.solve(&b).expect("solve"), xs);
    assert_eq!(session.refactorizations(), 2);
}
