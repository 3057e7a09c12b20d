//! Design-choice ablations called out in DESIGN.md:
//!
//! 1. **2D block-cyclic vs 1D mapping** (§3.3's stated motivation),
//! 2. **RTQ scheduling policies** (§6 future work: LIFO vs FIFO vs
//!    critical-path),
//! 3. **GPU offload thresholds** (§4.2/§6: hybrid vs CPU-only vs
//!    GPU-always),
//! 4. **memory kinds** (§5.1: native vs reference transfers inside the
//!    actual solver, not just the microbenchmark).
//!
//! The RTQ sweep runs on the fan-out solver *and* on the taxonomy baselines
//! — the shared task runtime makes the queue policy a parameter of every
//! engine, not just symPACK's.

use sympack::{ProcGrid, RtqPolicy, SolverOptions, SymPack};
use sympack_baseline::{baseline_factor_and_solve, fanboth_factor_and_solve, BaselineOptions};
use sympack_bench::gate::Args;
use sympack_bench::{fmt_secs, render_table, Problem};
use sympack_gpu::OffloadThresholds;
use sympack_pgas::MemKindsMode;
use sympack_sparse::vecops::test_rhs;

/// Physical thread scheduling perturbs the virtual makespan by a few
/// percent run-to-run; take the best of three runs per configuration, as
/// the paper does across processes-per-node choices.
fn best_of<T>(mut run: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut best = run();
    for _ in 0..2 {
        let cand = run();
        if cand.0 < best.0 {
            best = cand;
        }
    }
    best
}

fn main() {
    let quick = Args::from_env(&["--quick"], &[]).has("--quick");
    let problem = Problem::Flan;
    let a = if quick {
        problem.matrix_quick()
    } else {
        problem.matrix()
    };
    let b = test_rhs(a.n());
    let nodes = 8;
    let base = SolverOptions {
        n_nodes: nodes,
        ranks_per_node: 2,
        ..Default::default()
    };
    println!(
        "Ablations on {} (n={}), {} nodes x {} ranks\n",
        problem.name(),
        a.n(),
        nodes,
        base.ranks_per_node
    );

    // 1. Mapping.
    let p = nodes * base.ranks_per_node;
    let mut rows = vec![vec!["Mapping".into(), "facto".into(), "solve".into()]];
    for (name, grid) in [
        ("2D block-cyclic (paper)", ProcGrid::squarest(p)),
        ("1D column-cyclic", ProcGrid::one_dimensional(p)),
    ] {
        let (_, r) = best_of(|| {
            let r = SymPack::factor_and_solve(
                &a,
                &b,
                &SolverOptions {
                    grid: Some(grid),
                    ..base.clone()
                },
            );
            assert!(r.relative_residual < 1e-8);
            (r.factor_time, r)
        });
        rows.push(vec![
            name.into(),
            fmt_secs(r.factor_time),
            fmt_secs(r.solve_time),
        ]);
    }
    println!("{}", render_table(&rows));

    // 2. RTQ policy.
    let mut rows = vec![vec!["RTQ policy".into(), "facto".into(), "solve".into()]];
    for (name, policy) in [
        ("LIFO (paper)", RtqPolicy::Lifo),
        ("FIFO", RtqPolicy::Fifo),
        ("critical-path", RtqPolicy::CriticalPath),
    ] {
        let (_, r) = best_of(|| {
            let r = SymPack::factor_and_solve(
                &a,
                &b,
                &SolverOptions {
                    rtq_policy: policy,
                    ..base.clone()
                },
            );
            assert!(r.relative_residual < 1e-8);
            (r.factor_time, r)
        });
        rows.push(vec![
            name.into(),
            fmt_secs(r.factor_time),
            fmt_secs(r.solve_time),
        ]);
    }
    println!("{}", render_table(&rows));

    // 2b. RTQ policy on the baselines (same runtime, different engines).
    let bbase = BaselineOptions {
        n_nodes: nodes,
        ranks_per_node: base.ranks_per_node,
        ..Default::default()
    };
    let mut rows = vec![vec![
        "RTQ policy (baselines)".into(),
        "right-looking facto".into(),
        "fan-both facto".into(),
    ]];
    for (name, policy) in [
        ("LIFO", RtqPolicy::Lifo),
        ("FIFO", RtqPolicy::Fifo),
        ("critical-path", RtqPolicy::CriticalPath),
    ] {
        let opts = BaselineOptions {
            rtq_policy: policy,
            ..bbase.clone()
        };
        let (rl_time, _) = best_of(|| {
            let r = baseline_factor_and_solve(&a, &b, &opts);
            assert!(r.relative_residual < 1e-8);
            (r.factor_time, ())
        });
        let (fb_time, _) = best_of(|| {
            let r = fanboth_factor_and_solve(&a, &b, &opts);
            assert!(r.relative_residual < 1e-8);
            (r.factor_time, ())
        });
        rows.push(vec![name.into(), fmt_secs(rl_time), fmt_secs(fb_time)]);
    }
    println!("{}", render_table(&rows));

    // 3. Offload thresholds.
    let mut rows = vec![vec![
        "Offload policy".into(),
        "facto".into(),
        "GPU calls (all ranks)".into(),
    ]];
    for (name, thresholds, gpu) in [
        ("hybrid, tuned thresholds (paper)", None, true),
        ("CPU only", None, false),
        (
            "GPU always (no thresholds)",
            Some(OffloadThresholds::gpu_always()),
            true,
        ),
        ("thresholds x4", Some(scaled_thresholds(4)), true),
        ("thresholds /4", Some(scaled_thresholds_div(4)), true),
    ] {
        let (_, r) = best_of(|| {
            let r = SymPack::factor_and_solve(
                &a,
                &b,
                &SolverOptions {
                    thresholds: thresholds.clone(),
                    gpu,
                    ..base.clone()
                },
            );
            assert!(r.relative_residual < 1e-8);
            (r.factor_time, r)
        });
        let gpu_calls: u64 = r
            .op_counts
            .iter()
            .map(|c| {
                sympack_gpu::Op::ALL
                    .iter()
                    .map(|&op| c.get(op).1)
                    .sum::<u64>()
            })
            .sum();
        rows.push(vec![
            name.into(),
            fmt_secs(r.factor_time),
            gpu_calls.to_string(),
        ]);
    }
    println!("{}", render_table(&rows));

    // 4. Memory kinds inside the solver.
    let mut rows = vec![vec!["Memory kinds".into(), "facto".into(), "solve".into()]];
    for (name, mode) in [
        ("native (GPUDirect RDMA)", MemKindsMode::Native),
        ("reference (host-staged)", MemKindsMode::Reference),
    ] {
        let mut opts = base.clone();
        opts.net.mode = mode;
        let (_, r) = best_of(|| {
            let r = SymPack::factor_and_solve(&a, &b, &opts);
            assert!(r.relative_residual < 1e-8);
            (r.factor_time, r)
        });
        rows.push(vec![
            name.into(),
            fmt_secs(r.factor_time),
            fmt_secs(r.solve_time),
        ]);
    }
    println!("{}", render_table(&rows));
}

fn scaled_thresholds(f: usize) -> OffloadThresholds {
    let t = OffloadThresholds::default();
    OffloadThresholds {
        potrf: t.potrf * f,
        trsm: t.trsm * f,
        syrk: t.syrk * f,
        gemm: t.gemm * f,
    }
}

fn scaled_thresholds_div(f: usize) -> OffloadThresholds {
    let t = OffloadThresholds::default();
    OffloadThresholds {
        potrf: t.potrf / f,
        trsm: t.trsm / f,
        syrk: t.syrk / f,
        gemm: t.gemm / f,
    }
}
