//! Communication-family comparison (paper §2.3, Ashcraft's taxonomy):
//! fan-out (symPACK, 2D block-cyclic), fan-both (computation maps, 2D —
//! the original symPACK algorithm of the paper's ref. \[15\]), fan-in
//! aggregates (1D) and the right-looking panel broadcast (PaStiX-like,
//! 1D), on the same problem.
//!
//! ```text
//! cargo run --release -p sympack-bench --bin taxonomy -- [--quick] [--matrix flan|bone|thermal]
//! ```

use sympack::{SolverOptions, SymPack};
use sympack_baseline::{
    baseline_factor_and_solve, fanboth_factor_and_solve, fanin_factor_and_solve,
};
use sympack_bench::gate::Args;
use sympack_bench::{fmt_secs, render_table, Problem};
use sympack_sparse::vecops::test_rhs;

fn main() {
    let args = Args::from_env(&["--quick"], &["--matrix"]);
    let quick = args.has("--quick");
    let problem = args.parsed("--matrix", Problem::from_name);
    let problem = problem.unwrap_or(Problem::Flan);
    let a = if quick {
        problem.matrix_quick()
    } else {
        problem.matrix()
    };
    let b = test_rhs(a.n());
    println!(
        "Taxonomy comparison on {} (n={}, nnz={})\n",
        problem.name(),
        a.n(),
        a.nnz_full()
    );
    let nodes_list: &[usize] = if quick { &[1, 4] } else { &[1, 4, 16] };
    let mut rows = vec![vec![
        "Nodes".to_string(),
        "fan-out facto".to_string(),
        "fan-both facto".to_string(),
        "fan-in facto".to_string(),
        "right-looking facto".to_string(),
        "fan-out msgs".to_string(),
        "fan-both msgs".to_string(),
        "fan-in msgs".to_string(),
        "right-looking msgs".to_string(),
    ]];
    for &nodes in nodes_list {
        let ppn = 2;
        let opts = SolverOptions {
            n_nodes: nodes,
            ranks_per_node: ppn,
            ..Default::default()
        };
        let fo = SymPack::factor_and_solve(&a, &b, &opts);
        let fb = fanboth_factor_and_solve(&a, &b, &opts);
        let rl = baseline_factor_and_solve(&a, &b, &opts);
        let fi = fanin_factor_and_solve(&a, &b, &opts);
        for r in [
            fo.relative_residual,
            fb.relative_residual,
            rl.relative_residual,
            fi.relative_residual,
        ] {
            assert!(r < 1e-8);
        }
        rows.push(vec![
            nodes.to_string(),
            fmt_secs(fo.factor_time),
            fmt_secs(fb.factor_time),
            fmt_secs(fi.factor_time),
            fmt_secs(rl.factor_time),
            fo.stats.rpcs.to_string(),
            fb.stats.rpcs.to_string(),
            fi.stats.rpcs.to_string(),
            rl.stats.rpcs.to_string(),
        ]);
    }
    println!("{}", render_table(&rows));
    println!("fan-out overlaps fine-grained tasks; fan-both trades factor broadcasts");
    println!("against aggregates via a computation map; fan-in coalesces updates into");
    println!("fewer, larger, later messages; right-looking serializes on whole panels.");
}
