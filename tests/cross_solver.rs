//! Cross-solver integration tests: symPACK-rs, the right-looking baseline
//! and a dense oracle must agree on identical inputs.

use sympack::{SolverOptions, SymPack};
use sympack_baseline::baseline_factor_and_solve;
use sympack_dense::{KernelConfig, Mat};
use sympack_sparse::gen;
use sympack_sparse::vecops::{max_abs_diff, test_rhs};
use sympack_sparse::SparseSym;

/// Dense Cholesky oracle: solve via `sympack-dense` on the full matrix.
fn dense_solve(a: &SparseSym, b: &[f64]) -> Vec<f64> {
    let n = a.n();
    let mut m = Mat::zeros(n, n);
    for c in 0..n {
        for r in 0..n {
            m[(r, c)] = a.get(r, c);
        }
    }
    sympack_dense::potrf_cfg(&KernelConfig::default(), &mut m).expect("oracle requires SPD");
    m.zero_upper();
    let mut rhs = b.to_vec();
    sympack::trisolve::forward_subst(&m, &mut rhs);
    sympack::trisolve::backward_subst(&m, &mut rhs);
    rhs
}

#[test]
fn three_way_agreement_on_random_spd() {
    for seed in [1u64, 2, 3] {
        let a = gen::random_spd(90, 5, seed);
        let b = test_rhs(90);
        let oracle = dense_solve(&a, &b);
        let sp = SymPack::factor_and_solve(&a, &b, &SolverOptions::default());
        let bl = baseline_factor_and_solve(&a, &b, &SolverOptions::default());
        let scale = oracle.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        assert!(
            max_abs_diff(&sp.x, &oracle) / scale < 1e-9,
            "seed {seed}: symPACK vs oracle"
        );
        assert!(
            max_abs_diff(&bl.x, &oracle) / scale < 1e-9,
            "seed {seed}: baseline vs oracle"
        );
    }
}

#[test]
fn three_way_agreement_on_structured_problems() {
    for a in [
        gen::laplacian_2d(8, 9),
        gen::flan_like(4, 3, 3),
        gen::bone_like(3, 3, 2),
    ] {
        let b = test_rhs(a.n());
        let oracle = dense_solve(&a, &b);
        let sp = SymPack::factor_and_solve(&a, &b, &SolverOptions::default());
        let bl = baseline_factor_and_solve(&a, &b, &SolverOptions::default());
        let scale = oracle.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        assert!(max_abs_diff(&sp.x, &oracle) / scale < 1e-9);
        assert!(max_abs_diff(&bl.x, &oracle) / scale < 1e-9);
    }
}

#[test]
fn solver_reports_same_structure_counts() {
    // Both solvers run the identical analysis, so their total kernel call
    // counts must match exactly (same supernodes, same blocks, same tasks).
    let a = gen::laplacian_2d(10, 10);
    let b = test_rhs(a.n());
    let opts = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        ..Default::default()
    };
    let sp = SymPack::factor_and_solve(&a, &b, &opts);
    let bl = baseline_factor_and_solve(&a, &b, &opts);
    let total = |counts: &[sympack_gpu::OpCounts]| {
        let mut t = sympack_gpu::OpCounts::default();
        for c in counts {
            t.merge(c);
        }
        // Compare cpu+gpu totals per op (placement may differ; volume not).
        sympack_gpu::Op::ALL.map(|op| {
            let (c, g) = t.get(op);
            c + g
        })
    };
    // symPACK's op_counts cover the factorization only; the baseline's too.
    assert_eq!(total(&sp.op_counts), total(&bl.op_counts));
}

#[test]
#[allow(non_snake_case)] // keep the paper's capitalization in the test name
fn symPACK_beats_baseline_on_modeled_time_at_scale() {
    // The paper's headline claim, at reproduction scale: on a 3D problem
    // with several nodes, the fan-out solver's modeled makespan beats the
    // right-looking 1D baseline by a clear margin.
    let a = gen::flan_like(8, 8, 8);
    let b = test_rhs(a.n());
    let opts = SolverOptions {
        n_nodes: 4,
        ranks_per_node: 2,
        ..Default::default()
    };
    let sp = SymPack::factor_and_solve(&a, &b, &opts);
    let bl = baseline_factor_and_solve(&a, &b, &opts);
    assert!(
        sp.factor_time < bl.factor_time,
        "symPACK {} vs baseline {}",
        sp.factor_time,
        bl.factor_time
    );
    assert!(sp.solve_time < bl.solve_time);
}

#[test]
fn all_engines_agree_across_ranks_and_rtq_policies() {
    // The shared task runtime makes the RTQ policy a parameter of every
    // engine. Whatever the policy and rank count: (a) every solver family
    // returns the right answer, and (b) the per-kind executed-task totals
    // are schedule-invariant — the policy reorders work, it must never
    // change what work exists.
    use std::collections::BTreeMap;
    use sympack::RtqPolicy;

    let a = gen::laplacian_2d(9, 9);
    let b = test_rhs(a.n());
    type Counts = BTreeMap<String, u64>;
    let to_map = |v: &[(String, u64)]| -> Counts { v.iter().cloned().collect() };

    // (engine, P) -> counts under the first policy, for invariance checks.
    let mut reference: BTreeMap<(&str, usize), Counts> = BTreeMap::new();
    for (n_nodes, ranks_per_node) in [(1, 1), (1, 2), (2, 2)] {
        let p = n_nodes * ranks_per_node;
        for policy in [RtqPolicy::Lifo, RtqPolicy::Fifo, RtqPolicy::CriticalPath] {
            let opts = SolverOptions {
                n_nodes,
                ranks_per_node,
                rtq_policy: policy,
                ..Default::default()
            };
            let sp = SymPack::factor_and_solve(&a, &b, &opts);
            let rl = baseline_factor_and_solve(&a, &b, &opts);
            let fi = sympack_baseline::fanin_factor_and_solve(&a, &b, &opts);
            let fb = sympack_baseline::fanboth_factor_and_solve(&a, &b, &opts);
            let runs: [(&str, f64, Counts); 4] = [
                ("fan-out", sp.relative_residual, to_map(&sp.task_counts)),
                (
                    "right-looking",
                    rl.relative_residual,
                    to_map(&rl.task_counts),
                ),
                ("fan-in", fi.relative_residual, to_map(&fi.task_counts)),
                ("fan-both", fb.relative_residual, to_map(&fb.task_counts)),
            ];
            for (name, residual, counts) in runs {
                assert!(
                    residual <= 1e-8,
                    "{name} P={p} {policy:?}: residual {residual}"
                );
                assert!(
                    !counts.is_empty(),
                    "{name} P={p} {policy:?}: no task counts"
                );
                let entry = reference.entry((name, p)).or_insert_with(|| counts.clone());
                assert_eq!(
                    *entry, counts,
                    "{name} P={p} {policy:?}: task counts changed with the RTQ policy"
                );
            }
        }
    }
    // Task totals are also rank-count-invariant for the engines whose task
    // graph is owner-partitioned (fan-out, fan-in, fan-both). The
    // right-looking baseline replicates panel applications per rank, so
    // only its factor-task count is P-invariant.
    for name in ["fan-out", "fan-in", "fan-both"] {
        let one = reference[&(name, 1)].clone();
        for p in [2, 4] {
            assert_eq!(
                one,
                reference[&(name, p)],
                "{name}: task totals changed between P=1 and P={p}"
            );
        }
    }
    for p in [2, 4] {
        assert_eq!(
            reference[&("right-looking", 1)]["factor_panel"],
            reference[&("right-looking", p)]["factor_panel"],
            "right-looking: factor task count changed with P"
        );
    }
}

/// FNV-1a over everything a baseline run reports that a schedule change
/// would move: solution bits, both virtual makespans, the per-kind task
/// totals and the message counts.
fn baseline_fingerprint(r: &sympack::SolveReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in &r.x {
        eat(&v.to_bits().to_le_bytes());
    }
    eat(&r.factor_time.to_bits().to_le_bytes());
    eat(&r.solve_time.to_bits().to_le_bytes());
    for (kind, n) in &r.task_counts {
        eat(kind.as_bytes());
        eat(&n.to_le_bytes());
    }
    eat(&r.stats.rgets.to_le_bytes());
    eat(&r.stats.rpcs.to_le_bytes());
    h
}

/// `baseline_fingerprint` of {right-looking, fan-in, fan-both} × P ∈ {1, 2,
/// 4} × trace {off, on} on `thermal_like(12,12,0.3,5)` under lockstep, in
/// that nesting order, as printed by this test at commit 6bf6ee9 — the last
/// one where each baseline owned its own `run_rank` and report assembly.
const BASELINE_PARENT_FINGERPRINTS: [u64; 18] = [
    0xbd063f66097e5da2,
    0xbd063f66097e5da2,
    0x83ce5fcf2e958a97,
    0x83ce5fcf2e958a97,
    0x87a4bedd9a14358a,
    0x87a4bedd9a14358a,
    0xbcab8dd54c6d543d,
    0xbcab8dd54c6d543d,
    0x5ef31d2cbae15e92,
    0x5ef31d2cbae15e92,
    0x1c45119010fedcd7,
    0x1c45119010fedcd7,
    0x815a8c96f197f844,
    0x815a8c96f197f844,
    0x47a8bfac1956b1ce,
    0x47a8bfac1956b1ce,
    0x3019ef487bf00cef,
    0x3019ef487bf00cef,
];

#[test]
fn baseline_schedules_are_identical_to_the_per_engine_run_ranks() {
    let a = gen::thermal_like(12, 12, 0.3, 5);
    let b = test_rhs(a.n());
    let engines: [fn(&SparseSym, &[f64], &SolverOptions) -> _; 3] = [
        sympack_baseline::try_baseline_factor_and_solve,
        sympack_baseline::try_fanin_factor_and_solve,
        sympack_baseline::try_fanboth_factor_and_solve,
    ];
    let mut got = Vec::new();
    for run in engines {
        for p in [1usize, 2, 4] {
            for trace in [false, true] {
                let opts = SolverOptions {
                    n_nodes: 1,
                    ranks_per_node: p,
                    deterministic: true,
                    trace,
                    ..Default::default()
                };
                let r = run(&a, &b, &opts).expect("SPD input");
                assert_eq!(r.trace.is_empty(), !trace);
                got.push(baseline_fingerprint(&r));
            }
        }
    }
    assert_eq!(
        got, BASELINE_PARENT_FINGERPRINTS,
        "baseline schedule or solution bits changed; got {got:#018x?}"
    );
}

/// FNV-1a over a traced fan-out run on the wire paths no other fingerprint
/// reaches: per rank, every factorization task in execution order (label,
/// ready time, producer edge, memory gauge, RTQ depth), then both
/// makespans, the solution bits, the per-rank publication accounting and
/// the message / byte counters.
fn fanout_wire_fingerprint(r: &sympack::SolveReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for rank in 0..r.publish.len() {
        for ev in r.trace.iter().filter(|ev| {
            ev.rank == rank
                && ev.kind == sympack_trace::SpanKind::Exec
                && ["D(", "F(", "U("].iter().any(|s| ev.name.starts_with(s))
        }) {
            eat(&(rank as u64).to_le_bytes());
            eat(ev.name.as_bytes());
            eat(&ev.ready_at.to_bits().to_le_bytes());
            eat(ev.pred.as_deref().unwrap_or("-").as_bytes());
            eat(&ev.bytes.to_le_bytes());
            eat(&(ev.rtq_depth as u64).to_le_bytes());
        }
    }
    eat(&r.factor_time.to_bits().to_le_bytes());
    eat(&r.solve_time.to_bits().to_le_bytes());
    for v in &r.x {
        eat(&v.to_bits().to_le_bytes());
    }
    for p in &r.publish {
        for n in [
            p.dense_bytes,
            p.lr_bytes,
            p.lr_dense_equiv_bytes,
            p.dense_blocks,
            p.lr_blocks,
        ] {
            eat(&n.to_le_bytes());
        }
    }
    let s = &r.stats;
    for n in [s.rgets, s.rpcs, s.net_bytes, s.intra_bytes, s.device_bytes] {
        eat(&n.to_le_bytes());
    }
    eat(&s.frames.to_le_bytes());
    eat(&s.frame_subs.to_le_bytes());
    h
}

/// Fingerprints of the paths the 24 fan-out and 18 baseline rows do not run
/// (they are `Flat`, uncoalesced, dense), on `bone_like(6,6,5)` at 2 nodes ×
/// 2 ranks under lockstep, as printed by this test at commit c825d9d — the
/// last one where every engine owned its own `step`, publication and update
/// code: fan-out under `Tree { arity: 2 }` + default coalescing, fan-out
/// under BLR at `tol = 1e-8`, then right-looking / fan-in / fan-both under
/// default coalescing. Re-pinned once since, when the packed dense core went
/// from `mul` + `add` to fused multiply-add (`bone_like(6,6,5)` reaches the
/// packed path): only the solution bits moved — task, message, frame, byte
/// and compressed-block counts and both makespans of all five rows are
/// unchanged (EXPERIMENTS.md "PR 19").
const WIRE_PATH_PARENT_FINGERPRINTS: [u64; 5] = [
    0x6f32670130ac686a,
    0x8159bb0e5fb33a1a,
    0x86add2e6f26445ed,
    0xd9e914c2a3af21a8,
    0xee6b12b5f36cb5da,
];

#[test]
fn tree_coalesced_and_blr_schedules_are_identical_to_the_per_engine_copies() {
    use sympack_pgas::coalesce::{BcastTopology, CoalesceConfig};
    let a = gen::bone_like(6, 6, 5);
    let b = test_rhs(a.n());
    let base = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        deterministic: true,
        trace: true,
        ..Default::default()
    };
    let tree = SolverOptions {
        bcast: BcastTopology::Tree { arity: 2 },
        coalesce: Some(CoalesceConfig::default()),
        ..base.clone()
    };
    let blr = SolverOptions {
        blr: sympack::BlrConfig {
            tol: 1e-8,
            min_block: 8,
            max_rank: usize::MAX,
        },
        ..base.clone()
    };
    let mut got = Vec::new();
    let r = SymPack::try_factor_and_solve(&a, &b, &tree).expect("tree + coalesce");
    assert!(r.stats.frames > 0, "coalescing never framed a signal");
    got.push(fanout_wire_fingerprint(&r));
    let r = SymPack::try_factor_and_solve(&a, &b, &blr).expect("blr");
    let lr_blocks: u64 = r.publish.iter().map(|p| p.lr_blocks).sum();
    assert!(lr_blocks > 0, "BLR row published nothing compressed");
    got.push(fanout_wire_fingerprint(&r));
    let bopts = SolverOptions {
        trace: false,
        coalesce: Some(CoalesceConfig::default()),
        ..base
    };
    for run in [
        sympack_baseline::try_baseline_factor_and_solve,
        sympack_baseline::try_fanin_factor_and_solve,
        sympack_baseline::try_fanboth_factor_and_solve,
    ] {
        let r = run(&a, &b, &bopts).expect("SPD input");
        assert!(r.stats.frames > 0, "coalescing never framed a signal");
        got.push(baseline_fingerprint(&r));
    }
    assert_eq!(
        got, WIRE_PATH_PARENT_FINGERPRINTS,
        "schedule, solution bits or wire accounting changed; got {got:#018x?}"
    );
}
