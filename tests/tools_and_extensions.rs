//! Integration tests for the extension features: selected inversion,
//! condition estimation, multi-RHS, tracing, analysis statistics, the
//! multifrontal solver and the taxonomy variants — all on shared inputs so
//! the pieces are exercised together the way a downstream user would.

use sympack::{SolverOptions, SymPack};
use sympack_sparse::gen::{laplacian_2d, random_spd};
use sympack_sparse::vecops::{max_abs_diff, test_rhs};

#[test]
fn trace_covers_every_task_of_the_factorization() {
    let a = laplacian_2d(10, 10);
    let b = test_rhs(a.n());
    let opts = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        trace: true,
        ..Default::default()
    };
    let r = SymPack::factor_and_solve(&a, &b, &opts);
    assert!(r.relative_residual < 1e-10);
    // One execution span per factorization task: D + F + U counts from the
    // analysis. The trace also carries the solve sweep (category `Solve`)
    // and the comm-layer spans (kind != Exec), counted separately.
    let sf = SymPack::analyze_only(&a, &opts);
    let mut expected = sf.n_supernodes(); // diagonals
    for j in 0..sf.n_supernodes() {
        let m = sf.layout.blocks_of(j).len();
        expected += m; // panels
        expected += m * (m + 1) / 2; // updates
    }
    let is_exec = |e: &&sympack_trace::TraceEvent| e.kind == sympack_trace::SpanKind::Exec;
    let facto_events = r
        .trace
        .iter()
        .filter(is_exec)
        .filter(|e| !matches!(e.cat, sympack_trace::TraceCat::Solve))
        .count();
    assert_eq!(
        facto_events, expected,
        "trace must cover every task exactly once"
    );
    let solve_events = r
        .trace
        .iter()
        .filter(is_exec)
        .filter(|e| matches!(e.cat, sympack_trace::TraceCat::Solve))
        .count();
    assert!(solve_events > 0, "solve sweep must be traced too");
    let comm_spans = r.trace.iter().filter(|e| !is_exec(e)).count();
    assert!(comm_spans > 0, "comm layer must be traced too");
    // Task executions never overlap on a single rank (comm spans may — a
    // blocking fetch runs inside the dependency gap of the next task).
    let mut by_rank: std::collections::HashMap<usize, Vec<(f64, f64)>> = Default::default();
    for e in r.trace.iter().filter(is_exec) {
        by_rank
            .entry(e.rank)
            .or_default()
            .push((e.start, e.start + e.dur));
    }
    for (rank, mut iv) in by_rank {
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in iv.windows(2) {
            assert!(
                w[1].0 >= w[0].1 - 1e-12,
                "rank {rank}: overlapping task intervals {w:?}"
            );
        }
    }
}

#[test]
fn untraced_runs_return_no_events() {
    let a = laplacian_2d(6, 6);
    let r = SymPack::factor_and_solve(&a, &test_rhs(36), &SolverOptions::default());
    assert!(r.trace.is_empty());
}

#[test]
fn selinv_diagonal_vs_condest_machinery() {
    // diag(A^-1) from selected inversion must match per-column solves done
    // through the gathered-factor path used by condest.
    let a = random_spd(45, 4, 99);
    let opts = SolverOptions::default();
    let s = sympack::selected_inverse(&a, &opts).unwrap();
    let g = SymPack::factor_gather(&a, &opts).unwrap();
    for i in (0..45).step_by(7) {
        let mut e = vec![0.0; 45];
        e[i] = 1.0;
        let col = sympack::condest::solve_with_factor(&g, &e);
        assert!((s.diagonal()[i] - col[i]).abs() < 1e-9);
    }
}

#[test]
fn condest_never_underestimates_observed_amplification() {
    // κ₁ ≥ the amplification we can directly exhibit with any vector.
    let a = random_spd(60, 5, 7);
    let opts = SolverOptions::default();
    let k = sympack::condest(&a, &opts).unwrap();
    let g = SymPack::factor_gather(&a, &opts).unwrap();
    let norm_a = sympack::condest::norm1(&a);
    // Amplification of a specific probe through A^{-1}.
    let probe: Vec<f64> = (0..60).map(|i| if i == 3 { 1.0 } else { 0.0 }).collect();
    let y = sympack::condest::solve_with_factor(&g, &probe);
    let amp = y.iter().map(|v| v.abs()).sum::<f64>() * norm_a;
    assert!(k + 1e-9 >= amp, "condest {k} below exhibited bound {amp}");
}

#[test]
fn all_five_solver_families_agree() {
    let a = random_spd(75, 5, 2024);
    let b = test_rhs(75);
    let opts = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        ..Default::default()
    };
    let fan_out = SymPack::factor_and_solve(&a, &b, &opts).x;
    let right_looking = sympack_baseline::baseline_factor_and_solve(&a, &b, &opts).x;
    let fan_in = sympack_baseline::fanin_factor_and_solve(&a, &b, &opts).x;
    let fan_both = sympack_baseline::fanboth_factor_and_solve(&a, &b, &opts).x;
    let multifrontal = sympack_multifrontal::multifrontal_solve(
        &a,
        &b,
        &sympack_multifrontal::MfOptions::default(),
    )
    .unwrap();
    for (name, x) in [
        ("right-looking", &right_looking),
        ("fan-in", &fan_in),
        ("fan-both", &fan_both),
        ("multifrontal", &multifrontal),
    ] {
        let d = max_abs_diff(&fan_out, x);
        assert!(d < 1e-8, "{name} diverges from fan-out by {d}");
    }
}

#[test]
fn analysis_stats_track_problem_structure() {
    use sympack_symbolic::analysis_stats;
    let dense3d = sympack_sparse::gen::flan_like(6, 6, 6);
    let sparse2d = sympack_sparse::gen::thermal_like(15, 15, 0.35, 1);
    let opts = SolverOptions::default();
    let st3 = analysis_stats(&SymPack::analyze_only(&dense3d, &opts));
    let st2 = analysis_stats(&SymPack::analyze_only(&sparse2d, &opts));
    // The denser 3D problem must have wider supernodes on average and
    // more fill relative to n.
    assert!(st3.sn_width.1 > st2.sn_width.1);
    assert!((st3.l_nnz as f64 / st3.n as f64) > (st2.l_nnz as f64 / st2.n as f64));
}

#[test]
fn gathered_factor_reconstructs_the_matrix() {
    // L·Lᵀ (on the permuted matrix) must reproduce A_perm on its pattern.
    let a = random_spd(40, 4, 11);
    let g = SymPack::factor_gather(&a, &SolverOptions::default()).unwrap();
    let l = &g.l_permuted;
    let ap = a.permute(g.perm.as_slice());
    let n = l.n();
    for c in 0..n {
        for (&r, &v) in ap.col_rows(c).iter().zip(ap.col_values(c)) {
            // (L L^T)(r, c) = sum_k L(r,k) L(c,k), k <= min(r, c) = c.
            let mut s = 0.0;
            for k in 0..=c {
                let (lr, lc) = (l.get(r, k), l.get(c, k));
                if lr != 0.0 && lc != 0.0 {
                    s += lr * lc;
                }
            }
            assert!((s - v).abs() < 1e-8 * v.abs().max(1.0), "entry ({r},{c})");
        }
    }
}

#[test]
fn vendor_gpu_presets_change_modeled_times_not_answers() {
    let a = sympack_sparse::gen::flan_like(6, 6, 6);
    let b = test_rhs(a.n());
    let mut opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 2,
        ..Default::default()
    };
    let nvidia = SymPack::factor_and_solve(&a, &b, &opts);
    // Swap the cost model via analytical thresholds for an AMD-class device.
    let amd_cost = sympack_gpu::CostModel::amd_mi250x();
    opts.thresholds = Some(sympack_gpu::analytical_thresholds(&amd_cost));
    let amd = SymPack::factor_and_solve(&a, &b, &opts);
    assert!(nvidia.relative_residual < 1e-10);
    assert!(amd.relative_residual < 1e-10);
    let d = max_abs_diff(&nvidia.x, &amd.x);
    assert!(d < 1e-9, "hardware preset changed numerics: {d}");
}
