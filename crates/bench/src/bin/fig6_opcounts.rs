//! Fig. 6: number of BLAS/LAPACK calls executed on the CPU vs the GPU for a
//! factorization and solve of the Flan stand-in, 4 ranks + 4 GPUs, default
//! offload thresholds, rank-0 data (as in the paper).

use sympack::{SolverOptions, SymPack};
use sympack_bench::gate::Args;
use sympack_bench::{render_table, Problem};
use sympack_gpu::Op;
use sympack_sparse::vecops::test_rhs;

fn main() {
    let quick = Args::from_env(&["--quick"], &[]).has("--quick");
    let p = Problem::Flan;
    let a = if quick { p.matrix_quick() } else { p.matrix() };
    let b = test_rhs(a.n());
    // Paper setup: 4 UPC++ processes, one node with 4 GPUs.
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 4,
        ..Default::default()
    };
    let r = SymPack::factor_and_solve(&a, &b, &opts);
    assert!(r.relative_residual < 1e-8);
    let rank0 = &r.op_counts[0];
    let mut rows = vec![vec![
        "Operation".to_string(),
        "CPU calls (rank 0)".to_string(),
        "GPU calls (rank 0)".to_string(),
        "GPU share".to_string(),
    ]];
    for op in Op::ALL {
        let (cpu, gpu) = rank0.get(op);
        let share = if cpu + gpu > 0 {
            100.0 * gpu as f64 / (cpu + gpu) as f64
        } else {
            0.0
        };
        rows.push(vec![
            op.name().to_string(),
            cpu.to_string(),
            gpu.to_string(),
            format!("{share:.1}%"),
        ]);
    }
    println!(
        "Fig. 6: CPU vs GPU calls, {} (n={}), 4 ranks + 4 GPUs, rank 0\n",
        p.name(),
        a.n()
    );
    println!("{}", render_table(&rows));
    // Paper observation: "for all four operation types, the majority of the
    // operations happen on the CPU" — verify and report.
    let mut all_majority_cpu = true;
    for op in Op::ALL {
        let (cpu, gpu) = rank0.get(op);
        if gpu > cpu {
            all_majority_cpu = false;
        }
    }
    println!(
        "majority of calls on CPU for every op (paper's observation): {}",
        if all_majority_cpu { "YES" } else { "NO" }
    );
    // And the aggregate across ranks for context.
    let mut total = sympack_gpu::OpCounts::default();
    for c in &r.op_counts {
        total.merge(c);
    }
    println!("total calls across all ranks: {}", total.total());
}
