//! A multifrontal sparse Cholesky solver — the MUMPS family.
//!
//! The paper's §2.3 names MUMPS as the multifrontal representative among
//! distributed solvers (and §5.3 notes it lacks GPU support, which is why
//! the paper benchmarks against PaStiX instead). This crate implements the
//! multifrontal method so the workspace covers all the algorithm families
//! the paper discusses: fan-out (symPACK), right-looking panel / fan-in
//! (baseline crate) and multifrontal.
//!
//! The multifrontal method turns the sparse factorization into a postorder
//! traversal of the supernodal elimination tree where each supernode works
//! on a small dense **frontal matrix**:
//!
//! 1. allocate the front `F` of order `w + |pattern|` (supernode columns
//!    plus below-diagonal rows),
//! 2. scatter the supernode's original-matrix entries into `F`,
//! 3. **extend-add** the children's update matrices into `F`,
//! 4. factor the leading `w×w` panel (POTRF + TRSM), leaving the Schur
//!    complement — the **update matrix** passed to the parent.
//!
//! Children's update matrices live on a stack whose high-water mark is the
//! method's characteristic memory cost, reported in
//! [`MultifrontalFactor::peak_stack_elements`].

use std::collections::HashMap;
use sympack::condest::solve_with_factor;
use sympack::driver::GatheredFactor;
use sympack::SolverError;
use sympack_dense::Mat;
use sympack_gpu::KernelEngine;
use sympack_ordering::{compute_ordering, OrderingKind, Permutation};
use sympack_sparse::SparseSym;
use sympack_symbolic::{analyze, AnalyzeOptions};

/// Options for the multifrontal factorization.
#[derive(Debug, Clone)]
pub struct MfOptions {
    /// Fill-reducing ordering (defaults to nested dissection, like the rest
    /// of the workspace).
    pub ordering: OrderingKind,
    /// Supernode detection / amalgamation options.
    pub analyze: AnalyzeOptions,
}

impl Default for MfOptions {
    fn default() -> Self {
        MfOptions {
            ordering: OrderingKind::NestedDissection,
            analyze: AnalyzeOptions::default(),
        }
    }
}

/// The result of a multifrontal factorization.
#[derive(Debug)]
pub struct MultifrontalFactor {
    /// The factor in gathered form (reusable by the shared solve/condest
    /// utilities).
    pub factor: GatheredFactor,
    /// Peak number of `f64` elements simultaneously held by update matrices
    /// on the stack — the multifrontal working-set signature.
    pub peak_stack_elements: usize,
    /// Modeled factorization time (same kernel cost model as the other
    /// solvers; serial, so it is the sum of all kernel times).
    pub modeled_time: f64,
}

/// Factor `A = L·Lᵀ` with the multifrontal method.
///
/// # Errors
/// [`SolverError::NotPositiveDefinite`] on a failed pivot (column reported
/// in the permuted ordering).
pub fn multifrontal_factor(
    a: &SparseSym,
    opts: &MfOptions,
) -> Result<MultifrontalFactor, SolverError> {
    let ordering = compute_ordering(a, opts.ordering);
    let sf = analyze(a, &ordering, &opts.analyze);
    let ap = a.permute(sf.perm.as_slice());
    let ns = sf.n_supernodes();
    let n = sf.n();
    let mut kernels = KernelEngine::new_cpu();
    let mut modeled_time = 0.0f64;
    // Children lists of the supernodal elimination tree.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); ns];
    for s in 0..ns {
        let p = sf.sn_parent[s];
        if p != usize::MAX {
            children[p].push(s);
        }
    }
    // Update matrices waiting for their parent (the "stack").
    let mut updates: HashMap<usize, Mat> = HashMap::new();
    let mut stack_elements = 0usize;
    let mut peak_stack = 0usize;
    // Assembled factor columns.
    let mut col_rows: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut col_vals: Vec<Vec<f64>> = Vec::with_capacity(n);
    for _ in 0..n {
        col_rows.push(Vec::new());
        col_vals.push(Vec::new());
    }
    // Supernodes are postordered, so ascending order is a valid traversal.
    for j in 0..ns {
        let first = sf.partition.first_col(j);
        let w = sf.partition.width(j);
        let pat = &sf.patterns[j];
        let fsize = w + pat.len();
        // Global row -> front-local index.
        let mut local = HashMap::with_capacity(fsize);
        for k in 0..w {
            local.insert(first + k, k);
        }
        for (k, &r) in pat.iter().enumerate() {
            local.insert(r, w + k);
        }
        let mut front = Mat::zeros(fsize, fsize);
        // 1. Original entries of A (lower triangle of the supernode's cols).
        for c in first..first + w {
            let lc = c - first;
            for (&r, &v) in ap.col_rows(c).iter().zip(ap.col_values(c)) {
                let lr = *local.get(&r).expect("row in front");
                front[(lr, lc)] = v;
            }
        }
        // 2. Extend-add the children's update matrices.
        for &c in &children[j] {
            let u = updates.remove(&c).expect("child update on stack");
            stack_elements -= u.rows() * u.cols();
            let crows = &sf.patterns[c];
            debug_assert_eq!(u.rows(), crows.len());
            let map: Vec<usize> = crows
                .iter()
                .map(|r| *local.get(r).expect("child rows contained in parent front"))
                .collect();
            for (uc, &tc) in map.iter().enumerate() {
                for (ur, &tr) in map.iter().enumerate().skip(uc) {
                    front[(tr.max(tc), tr.min(tc))] += u[(ur, uc)];
                }
            }
        }
        // 3. Partial factorization of the leading w×w panel.
        //    (a) POTRF on the diagonal block.
        let mut diag = Mat::from_fn(w, w, |r, c| front[(r, c)]);
        match kernels.potrf(&mut diag) {
            Ok((_, secs)) => modeled_time += secs,
            Err(sympack_dense::DenseError::NotPositiveDefinite { column }) => {
                return Err(SolverError::NotPositiveDefinite {
                    column: first + column,
                });
            }
            Err(e) => panic!("unexpected dense error: {e}"),
        }
        //    (b) TRSM of the sub-panel.
        let m = pat.len();
        let mut panel = Mat::from_fn(m, w, |r, c| front[(w + r, c)]);
        if m > 0 {
            let (_, secs) = kernels.trsm(&mut panel, &diag);
            modeled_time += secs;
        }
        //    (c) Schur complement U = F22 − panel·panelᵀ.
        if m > 0 {
            let mut u = Mat::from_fn(
                m,
                m,
                |r, c| {
                    if r >= c {
                        front[(w + r, w + c)]
                    } else {
                        0.0
                    }
                },
            );
            let (_, secs) = kernels.syrk(&mut u, &panel);
            modeled_time += secs;
            // Only the lower triangle of U is meaningful; extend-add reads
            // exactly that (ur >= uc).
            stack_elements += u.rows() * u.cols();
            peak_stack = peak_stack.max(stack_elements);
            updates.insert(j, u);
        }
        // 4. Harvest the factor columns.
        for c in 0..w {
            let rows = &mut col_rows[first + c];
            let vals = &mut col_vals[first + c];
            for r in c..w {
                rows.push(first + r);
                vals.push(diag[(r, c)]);
            }
            for (k, &gr) in pat.iter().enumerate() {
                rows.push(gr);
                vals.push(panel[(k, c)]);
            }
        }
    }
    debug_assert!(updates.is_empty(), "every update consumed by its parent");
    // Assemble L.
    let mut col_ptr = Vec::with_capacity(n + 1);
    let mut row_idx = Vec::new();
    let mut values = Vec::new();
    col_ptr.push(0);
    for c in 0..n {
        row_idx.extend_from_slice(&col_rows[c]);
        values.extend_from_slice(&col_vals[c]);
        col_ptr.push(row_idx.len());
    }
    let l_permuted = SparseSym::from_parts(n, col_ptr, row_idx, values);
    let perm = Permutation::from_vec(sf.perm.as_slice().to_vec());
    Ok(MultifrontalFactor {
        factor: GatheredFactor {
            perm,
            l_permuted,
            factor_time: modeled_time,
        },
        peak_stack_elements: peak_stack,
        modeled_time,
    })
}

/// Factor and solve `A·x = b` with the multifrontal method.
///
/// # Errors
/// Propagates factorization failures.
pub fn multifrontal_solve(
    a: &SparseSym,
    b: &[f64],
    opts: &MfOptions,
) -> Result<Vec<f64>, SolverError> {
    let f = multifrontal_factor(a, opts)?;
    Ok(solve_with_factor(&f.factor, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::{bone_like, laplacian_2d, laplacian_3d, random_spd, thermal_like};
    use sympack_sparse::vecops::{max_abs_diff, test_rhs};

    #[test]
    fn solves_structured_problems() {
        for a in [
            laplacian_2d(10, 9),
            laplacian_3d(5, 4, 4),
            bone_like(3, 3, 3),
            thermal_like(12, 12, 0.3, 4),
        ] {
            let b = test_rhs(a.n());
            let x = multifrontal_solve(&a, &b, &MfOptions::default()).unwrap();
            let res = a.relative_residual(&x, &b);
            assert!(res < 1e-10, "residual {res}");
        }
    }

    #[test]
    fn factor_matches_fan_out_solver_exactly_in_structure() {
        // Same analysis -> identical L pattern; values agree to fp
        // reduction order.
        let a = random_spd(70, 5, 23);
        let mf = multifrontal_factor(&a, &MfOptions::default()).unwrap();
        let fo = sympack::SymPack::factor_gather(&a, &sympack::SolverOptions::default()).unwrap();
        let (lm, lf) = (&mf.factor.l_permuted, &fo.l_permuted);
        assert_eq!(lm.n(), lf.n());
        assert_eq!(lm.nnz(), lf.nnz());
        for c in 0..lm.n() {
            assert_eq!(
                lm.col_rows(c),
                lf.col_rows(c),
                "pattern differs in column {c}"
            );
            for (x, y) in lm.col_values(c).iter().zip(lf.col_values(c)) {
                assert!(
                    (x - y).abs() < 1e-8 * y.abs().max(1.0),
                    "column {c}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn rejects_indefinite_input() {
        let mut coo = sympack_sparse::Coo::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, if i == 4 { -1.0 } else { 2.0 }).unwrap();
        }
        coo.push_sym(5, 0, 0.5).unwrap();
        let a = coo.to_csc().to_lower_sym();
        match multifrontal_factor(&a, &MfOptions::default()) {
            Err(SolverError::NotPositiveDefinite { .. }) => {}
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn stack_high_water_is_positive_and_bounded() {
        let a = laplacian_2d(16, 16);
        let mf = multifrontal_factor(&a, &MfOptions::default()).unwrap();
        assert!(mf.peak_stack_elements > 0);
        // The stack can never exceed the total factor size squared bound;
        // sanity: it should be far below n².
        assert!(mf.peak_stack_elements < a.n() * a.n() / 4);
        assert!(mf.modeled_time > 0.0);
    }

    #[test]
    fn agrees_with_fan_out_solutions() {
        let a = random_spd(90, 5, 55);
        let b = test_rhs(90);
        let x_mf = multifrontal_solve(&a, &b, &MfOptions::default()).unwrap();
        let x_fo = sympack::SymPack::factor_and_solve(&a, &b, &sympack::SolverOptions::default()).x;
        assert!(max_abs_diff(&x_mf, &x_fo) < 1e-8);
    }

    #[test]
    fn amalgamation_reduces_tree_and_still_solves() {
        let a = thermal_like(14, 14, 0.35, 6);
        let none = MfOptions {
            analyze: AnalyzeOptions {
                amalgamation_ratio: 0.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let some = MfOptions {
            analyze: AnalyzeOptions {
                amalgamation_ratio: 0.4,
                ..Default::default()
            },
            ..Default::default()
        };
        let b = test_rhs(a.n());
        let x1 = multifrontal_solve(&a, &b, &none).unwrap();
        let x2 = multifrontal_solve(&a, &b, &some).unwrap();
        assert!(a.relative_residual(&x1, &b) < 1e-10);
        assert!(a.relative_residual(&x2, &b) < 1e-10);
    }
}
