//! Golden fingerprints of the analysis prologue.
//!
//! One case per (matrix, ordering, rank count) of everything the prologue
//! hands the numeric phases — composite permutation, supernode partition,
//! row patterns, block layout, `l_nnz`, `flops`, `pattern_hash` and
//! `plan_cache_key` — in six columns, against the `analysis` corpus
//! (`tests/golden/analysis.txt`). The corpus was captured at the commit
//! *before* the prologue was rewritten, so a green run says the rewrite
//! changed no bit of the plan — "identical, not merely equivalent". A
//! mismatch names the moved columns; never apply the fresh corpus unless the
//! plan was *meant* to change.
//!
//! Some benchmark-scale rows are too slow for an unoptimized test run:
//! minimum degree (seconds per matrix in a release build, minutes in debug)
//! and the natural / RCM orderings of the 3D bricks (12–19 M entries of `L`,
//! 2–10 s each in debug). Those rows live in an `#[ignore]`d test that CI
//! runs with `--release -- --ignored`; the default run checks every other
//! benchmark-scale row and all four orderings at the quick scale.

#[path = "../../../tests/golden/mod.rs"]
mod golden;

use golden::Fingerprint;
use sympack::{plan_cache_key, SolverOptions, SymbolicPlan};
use sympack_ordering::OrderingKind;
use sympack_sparse::gen::{bone_like, flan_like, thermal_like};
use sympack_sparse::SparseSym;

/// The columns of an analysis case.
const COLUMNS: [&str; 6] = ["perm", "partition", "patterns", "layout", "counts", "keys"];

/// The fold of one built plan: the composite permutation in `perm`; the
/// partition's start array (every first column, then `n`) and the
/// supernodal tree in `partition`; the row patterns in `patterns`; the block
/// layout in `layout`; `l_nnz` and `flops` in `counts`; `pattern_hash` and
/// `plan_cache_key` in `keys`.
fn fingerprint(plan: &SymbolicPlan, opts: &SolverOptions) -> Fingerprint {
    let sf = &plan.sf;
    let mut fp = Fingerprint::new(&COLUMNS);
    for &old in sf.perm.as_slice() {
        fp.fold("perm", &(old as u64));
    }
    for s in 0..sf.n_supernodes() {
        fp.fold("partition", &(sf.partition.first_col(s) as u64));
    }
    fp.fold("partition", &(sf.partition.n() as u64));
    for s in 0..sf.n_supernodes() {
        let pat: &[usize] = &sf.patterns[s];
        fp.fold("patterns", &(pat.len() as u64));
        for &r in pat {
            fp.fold("patterns", &(r as u64));
        }
        fp.fold("partition", &(sf.sn_parent[s] as u64));
        for b in sf.layout.blocks_of(s) {
            fp.fold("layout", &(b.target as u64));
            fp.fold("layout", &(b.row_offset as u64));
            fp.fold("layout", &(b.n_rows as u64));
        }
    }
    fp.fold("counts", &(sf.l_nnz as u64));
    fp.fold("counts", &sf.flops);
    fp.fold("keys", &plan.pattern);
    fp.fold("keys", &plan.key);
    assert_eq!(plan.key, plan_cache_key(plan.pattern, opts));
    fp
}

const KINDS: [OrderingKind; 4] = [
    OrderingKind::Natural,
    OrderingKind::Rcm,
    OrderingKind::MinDegree,
    OrderingKind::NestedDissection,
];

type Case = (&'static str, fn() -> SparseSym);

/// The three `perf/` workload matrices and the three `ordering_quality`
/// matrices (thermal is the same matrix in both sets).
const LARGE: [Case; 5] = [
    ("flan_like(22^3)", || flan_like(22, 22, 22)),
    ("thermal_like(110^2,0.35)", || {
        thermal_like(110, 110, 0.35, 20230)
    }),
    ("bone_like(16^3)", || bone_like(16, 16, 16)),
    ("flan_like(26^3)", || flan_like(26, 26, 26)),
    ("bone_like(14^3)", || bone_like(14, 14, 14)),
];

/// The `--quick` scale of the same generators.
const QUICK: [Case; 3] = [
    ("flan_like(7^3)", || flan_like(7, 7, 7)),
    ("bone_like(6,6,5)", || bone_like(6, 6, 5)),
    ("thermal_like(24^2,0.35)", || {
        thermal_like(24, 24, 0.35, 20230)
    }),
];

/// Rows of [`LARGE`] left to the release-only test.
fn slow(name: &str, kind: OrderingKind) -> bool {
    kind == OrderingKind::MinDegree
        || (name.starts_with("flan") && kind != OrderingKind::NestedDissection)
}

/// The cases of `matrices` × `KINDS` × P ∈ {1, 2} that `run` selects,
/// against the `analysis` corpus.
fn check(matrices: &[Case], run: impl Fn(&str, OrderingKind) -> bool) {
    let mut cases = Vec::new();
    for (name, gen) in matrices {
        let a = gen();
        for kind in KINDS.into_iter().filter(|&k| run(name, k)) {
            for p in [1usize, 2] {
                let opts = SolverOptions {
                    ordering: kind,
                    ranks_per_node: p,
                    ..Default::default()
                };
                let fp = fingerprint(&SymbolicPlan::build(&a, &opts), &opts);
                cases.push((format!("{name} {kind:?} P={p}"), fp));
            }
        }
    }
    golden::check("analysis", cases);
}

#[test]
fn quick_scale_plans_are_bit_identical_under_every_ordering() {
    check(&QUICK, |_, _| true);
}

#[test]
fn benchmark_scale_plans_are_bit_identical() {
    check(&LARGE, |name, kind| !slow(name, kind));
}

#[test]
#[ignore = "slow unoptimized: run with --release -- --ignored"]
fn slow_benchmark_scale_plans_are_bit_identical() {
    check(&LARGE, slow);
}
