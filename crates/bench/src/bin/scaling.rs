//! Figs. 7–12: strong scaling of factorization and triangular solve,
//! symPACK-rs versus the right-looking baseline, on the three evaluation
//! problems.
//!
//! ```text
//! cargo run --release -p sympack-bench --bin scaling -- \
//!     [--matrix flan|bone|thermal] [--phase facto|solve|both] [--quick]
//! ```
//!
//! For each node count the harness, like the paper (§5.3), tries several
//! ranks-per-node configurations and reports the best time per solver.

use sympack::{SolverOptions, SymPack};
use sympack_baseline::baseline_factor_and_solve;
use sympack_bench::gate::Args;
use sympack_bench::{fmt_secs, render_table, Problem};
use sympack_sparse::vecops::test_rhs;

fn main() {
    let args = Args::from_env(&["--quick"], &["--matrix", "--phase"]);
    let quick = args.has("--quick");
    let matrix = args.parsed("--matrix", Problem::from_name);
    // The table's columns a phase keeps: nodes, then time, time, speedup.
    let columns: &[usize] = args
        .parsed("--phase", |p| match p {
            "facto" => Some(&[0, 1, 2, 3][..]),
            "solve" => Some(&[0, 4, 5, 6]),
            "both" => Some(&[0, 1, 2, 3, 4, 5, 6]),
            _ => None,
        })
        .unwrap_or(&[0, 1, 2, 3, 4, 5, 6]);
    let problems: Vec<Problem> = match matrix {
        Some(p) => vec![p],
        None => Problem::ALL.to_vec(),
    };
    let nodes: &[usize] = if quick {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    // The paper reports the best over several processes-per-node choices;
    // on big node counts use 1 rank/node to bound thread counts.
    for problem in problems {
        let a = if quick {
            problem.matrix_quick()
        } else {
            problem.matrix()
        };
        let b = test_rhs(a.n());
        println!(
            "\n=== {} — n={}, nnz={} ===",
            problem.name(),
            a.n(),
            a.nnz_full()
        );
        let mut rows = vec![vec![
            "Nodes".to_string(),
            "symPACK facto".to_string(),
            "PaStiX-like facto".to_string(),
            "facto speedup".to_string(),
            "symPACK solve".to_string(),
            "PaStiX-like solve".to_string(),
            "solve speedup".to_string(),
        ]];
        for &n_nodes in nodes {
            let ppn_choices: &[usize] = if n_nodes <= 4 { &[1, 2, 4] } else { &[1, 2] };
            let mut best_sp: Option<(f64, f64)> = None;
            let mut best_bl: Option<(f64, f64)> = None;
            for &ppn in ppn_choices {
                if n_nodes * ppn > 96 {
                    continue;
                }
                let opts = SolverOptions {
                    n_nodes,
                    ranks_per_node: ppn,
                    ..Default::default()
                };
                let sp = SymPack::factor_and_solve(&a, &b, &opts);
                assert!(sp.relative_residual < 1e-8, "symPACK residual blew up");
                let cand = (sp.factor_time, sp.solve_time);
                if best_sp.is_none_or(|(f, _)| cand.0 < f) {
                    best_sp = Some(cand);
                }
                let bl = baseline_factor_and_solve(&a, &b, &opts);
                assert!(bl.relative_residual < 1e-8, "baseline residual blew up");
                let cand = (bl.factor_time, bl.solve_time);
                if best_bl.is_none_or(|(f, _)| cand.0 < f) {
                    best_bl = Some(cand);
                }
            }
            let (spf, sps) = best_sp.expect("at least one configuration ran");
            let (blf, bls) = best_bl.expect("at least one configuration ran");
            rows.push(vec![
                n_nodes.to_string(),
                fmt_secs(spf),
                fmt_secs(blf),
                format!("{:.2}x", blf / spf),
                fmt_secs(sps),
                fmt_secs(bls),
                format!("{:.2}x", bls / sps),
            ]);
        }
        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|row| columns.iter().map(|&c| row[c].clone()).collect())
            .collect();
        println!("{}", render_table(&rows));
    }
    println!("(times are modeled makespans from the calibrated cost model; see EXPERIMENTS.md)");
}
