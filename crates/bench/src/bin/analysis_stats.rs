//! Structural analysis report for the evaluation problems: supernode and
//! block shape distributions, elimination-tree height/width (available
//! parallelism) and critical-path flops (the strong-scaling ceiling) — the
//! quantities that explain the scaling differences in Figs. 7-12.

use sympack::{SolverOptions, SymbolicPlan};
use sympack_bench::gate::Args;
use sympack_bench::{render_table, Problem};
use sympack_sparse::stats::matrix_stats;
use sympack_symbolic::analysis_stats;

fn main() {
    let quick = Args::from_env(&["--quick"], &[]).has("--quick");
    // Structural statistics of the inputs themselves.
    let mut mrows = vec![vec![
        "matrix".to_string(),
        "n".to_string(),
        "nnz".to_string(),
        "nnz/row".to_string(),
        "bandwidth".to_string(),
        "profile".to_string(),
        "max degree".to_string(),
        "diag-dominant rows".to_string(),
    ]];
    for p in Problem::ALL {
        let a = if quick { p.matrix_quick() } else { p.matrix() };
        let st = matrix_stats(&a);
        mrows.push(vec![
            p.name().to_string(),
            st.n.to_string(),
            st.nnz_full.to_string(),
            format!("{:.1}", st.avg_nnz_per_row),
            st.bandwidth.to_string(),
            st.profile.to_string(),
            st.degree.2.to_string(),
            format!("{}/{}", st.diagonally_dominant_rows, st.n),
        ]);
    }
    println!(
        "Input-matrix structure
"
    );
    println!("{}", render_table(&mrows));

    let mut rows = vec![vec![
        "matrix".to_string(),
        "n".to_string(),
        "supernodes".to_string(),
        "avg width".to_string(),
        "max width".to_string(),
        "blocks".to_string(),
        "avg rows".to_string(),
        "tree height".to_string(),
        "max level width".to_string(),
        "critical/total flops".to_string(),
    ]];
    let mut trows = vec![vec![
        "matrix".to_string(),
        "P".to_string(),
        "analyze".to_string(),
    ]];
    for p in Problem::ALL {
        let a = if quick { p.matrix_quick() } else { p.matrix() };
        let plans = [1, 2].map(|ranks_per_node| {
            let opts = SolverOptions {
                ranks_per_node,
                ..Default::default()
            };
            SymbolicPlan::build(&a, &opts)
        });
        for (ranks, plan) in [1, 2].iter().zip(&plans) {
            let phases = plan.phases.rows();
            if trows.len() == 1 {
                trows[0].extend(phases.iter().map(|(name, _)| name.to_string()));
            }
            let mut trow = vec![
                p.name().to_string(),
                ranks.to_string(),
                format!("{:.2}", plan.analyze_wall_ms),
            ];
            trow.extend(phases.iter().map(|(_, ms)| format!("{ms:.2}")));
            trows.push(trow);
        }
        let st = analysis_stats(&plans[0].sf);
        rows.push(vec![
            p.name().to_string(),
            st.n.to_string(),
            st.n_supernodes.to_string(),
            format!("{:.1}", st.sn_width.1),
            st.sn_width.2.to_string(),
            st.n_blocks.to_string(),
            format!("{:.1}", st.block_rows.1),
            st.tree_height.to_string(),
            st.level_widths
                .iter()
                .copied()
                .max()
                .unwrap_or(0)
                .to_string(),
            format!(
                "{:.1}%",
                100.0 * st.critical_path_flops as f64 / st.flops as f64
            ),
        ]);
    }
    println!("Structural analysis of the evaluation problems\n");
    println!("{}", render_table(&rows));
    println!("thermal's tiny supernodes and tall tree explain why it is the most");
    println!("communication-bound problem — and why the fan-out design gains most there.");
    println!("\nWhere the analysis time goes (SymbolicPlan::build, wall ms)\n");
    println!("{}", render_table(&trows));
    println!("At P = 2 on a machine with a second core the nested dissection forks its");
    println!("halves and the pattern hash runs on its own thread beside the symbolic");
    println!("phases: `pattern hash` is the hash's own time plus the pattern copy, the key");
    println!("and the thread's spawn and join, and `analyze` is the sum of the phases less");
    println!("the part of the hash that ran beside the symbolic analysis.");
}
