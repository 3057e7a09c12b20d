//! Golden fingerprints of the analysis prologue.
//!
//! One FNV-1a fold per (matrix, ordering, rank count) of everything the
//! prologue hands the numeric phases: composite permutation, supernode
//! partition, row patterns, block layout, `l_nnz`, `flops`, `pattern_hash`
//! and `plan_cache_key`. The constants were captured at the commit *before*
//! the prologue was rewritten (PR 21: counting-sort permutation, relabeled
//! elimination tree, skeleton column counts, flat patterns, scratch-reusing
//! dissection), so a green run says the rewrite changed no bit of the plan —
//! "identical, not merely equivalent". A mismatch prints the new value; never
//! paste it in unless the plan was *meant* to change.
//!
//! Some benchmark-scale rows are too slow for an unoptimized test run:
//! minimum degree (seconds per matrix in a release build, minutes in debug)
//! and the natural / RCM orderings of the 3D bricks (12–19 M entries of `L`,
//! 2–10 s each in debug). Those rows live in an `#[ignore]`d test that CI
//! runs with `--release -- --ignored`; the default run checks every other
//! benchmark-scale row and all four orderings at the quick scale.

use sympack::{plan_cache_key, SolverOptions, SymbolicPlan};
use sympack_ordering::OrderingKind;
use sympack_sparse::gen::{bone_like, flan_like, thermal_like};
use sympack_sparse::SparseSym;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn eat(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// The fold of one built plan.
fn fingerprint(plan: &SymbolicPlan, opts: &SolverOptions) -> u64 {
    let sf = &plan.sf;
    let mut h = FNV_OFFSET;
    for &old in sf.perm.as_slice() {
        eat(&mut h, old as u64);
    }
    // The partition's start array: every first column, then `n`.
    for s in 0..sf.n_supernodes() {
        eat(&mut h, sf.partition.first_col(s) as u64);
    }
    eat(&mut h, sf.partition.n() as u64);
    for s in 0..sf.n_supernodes() {
        let pat: &[usize] = &sf.patterns[s];
        eat(&mut h, pat.len() as u64);
        for &r in pat {
            eat(&mut h, r as u64);
        }
        eat(&mut h, sf.sn_parent[s] as u64);
        for b in sf.layout.blocks_of(s) {
            eat(&mut h, b.target as u64);
            eat(&mut h, b.row_offset as u64);
            eat(&mut h, b.n_rows as u64);
        }
    }
    eat(&mut h, sf.l_nnz as u64);
    eat(&mut h, sf.flops);
    eat(&mut h, plan.pattern);
    eat(&mut h, plan.key);
    assert_eq!(plan.key, plan_cache_key(plan.pattern, opts));
    h
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

/// `[P = 1, P = 2]` folds per ordering kind, in `KINDS` order.
type Golden = [[u64; 2]; 4];

/// Rows of [`LARGE`] left to the release-only test.
fn slow(name: &str, kind: OrderingKind) -> bool {
    kind == OrderingKind::MinDegree
        || (name.starts_with("flan") && kind != OrderingKind::NestedDissection)
}

fn check(cases: &[Case], golden: &[Golden], run: impl Fn(&str, OrderingKind) -> bool) {
    let mut bad = Vec::new();
    for ((name, gen), want) in cases.iter().zip(golden) {
        let a = gen();
        for k in (0..KINDS.len()).filter(|&k| run(name, KINDS[k])) {
            for (pi, p) in [1usize, 2].into_iter().enumerate() {
                let opts = SolverOptions {
                    ordering: KINDS[k],
                    ranks_per_node: p,
                    ..Default::default()
                };
                let got = fingerprint(&SymbolicPlan::build(&a, &opts), &opts);
                if got != want[k][pi] {
                    bad.push(format!(
                        "{name} {:?} P={p}: got {got:#018x}, pinned {:#018x}",
                        KINDS[k], want[k][pi]
                    ));
                }
            }
        }
    }
    assert!(bad.is_empty(), "analysis moved:\n{}", bad.join("\n"));
}

const GOLDEN_LARGE: [Golden; 5] = [
    // flan_like(22^3)
    [
        [0xb4e3709bb939aa24, 0xc9df7a2ae8f6d6aa],
        [0xc8e958542ff1fad4, 0xe769f203217b5d98],
        [0xb2668c6eeb39ea01, 0x52236c376ab1b939],
        [0x17682d945c59149d, 0x77e23d4bd946c1cc],
    ],
    // thermal_like(110^2,0.35)
    [
        [0x7d275de72d3e3300, 0xcd7b84ab6e79f2be],
        [0xb3c42d734b1b48b2, 0xd4adeb969b90387b],
        [0x6baf7d3af5199e4a, 0x0f0d1775ef785b32],
        [0xd168dfd9c2ab2254, 0x3da78547e8b184d8],
    ],
    // bone_like(16^3)
    [
        [0x24948fdad344eca7, 0x6149d88fc9be38bc],
        [0x31d3fece8b22294c, 0x0999f53a2f09a700],
        [0x3500256308dc4d19, 0x8239513f0d70295c],
        [0x3ddf366d25533457, 0x7b547a12bef4b8e1],
    ],
    // flan_like(26^3)
    [
        [0x473190cf28cd7a07, 0x09cebd54a865cd40],
        [0x3ad8a93db3619f19, 0x4af90f8701173e58],
        [0x9797b593444632e3, 0xc24b8db9c71a3c27],
        [0x5c7fed3c6f11a7a1, 0x5e027f8971d63250],
    ],
    // bone_like(14^3)
    [
        [0x97b63617d2821b11, 0x083419780f3b7712],
        [0x803ed893b88cfa58, 0x95045278b3048f10],
        [0xe36a56243a72d42b, 0x947741bf21b71d8f],
        [0x9269e223d6c6e7a4, 0xa7c02a8a56aac42a],
    ],
];

const GOLDEN_QUICK: [Golden; 3] = [
    // flan_like(7^3)
    [
        [0xadc4f789cfa5ecfc, 0xf0c3d0959a7ea2b6],
        [0xd2c4004e7811f386, 0x9db93cfdeb0ed18f],
        [0x3a629dfa9daa601b, 0x9ae9c7e5c8579421],
        [0x1d12f95d22d40e01, 0x46cf7b0182e6ccc5],
    ],
    // bone_like(6,6,5)
    [
        [0x4adec0f2ebd21295, 0x4dba7819f949024b],
        [0x7539bd07ba4084ac, 0xc6cbd480d042bebe],
        [0xf2e033f3a3ba0811, 0x1902823144257060],
        [0xe1eeb2caa5d2861f, 0x918e88f2f6818246],
    ],
    // thermal_like(24^2,0.35)
    [
        [0x9c084a40ae3e7290, 0x74ba5c5b6db621d8],
        [0x2d7e4060119a7daf, 0x47017271403871da],
        [0x3769fd786fef8d63, 0x097e0401c1c90cbc],
        [0x8c473ef1643c90e7, 0xe21b4c4b6e3dd6e7],
    ],
];

#[test]
fn quick_scale_plans_are_bit_identical_under_every_ordering() {
    check(&QUICK, &GOLDEN_QUICK, |_, _| true);
}

#[test]
fn benchmark_scale_plans_are_bit_identical() {
    check(&LARGE, &GOLDEN_LARGE, |name, kind| !slow(name, kind));
}

#[test]
#[ignore = "slow unoptimized: run with --release -- --ignored"]
fn slow_benchmark_scale_plans_are_bit_identical() {
    check(&LARGE, &GOLDEN_LARGE, slow);
}
