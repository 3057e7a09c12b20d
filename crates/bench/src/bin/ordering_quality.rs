//! Ordering-quality comparison: factor nnz/flops for each ordering strategy
//! on the three evaluation problems — the study motivating the paper's use
//! of a nested-dissection ordering.

use sympack_bench::gate::Args;
use sympack_bench::{render_table, Problem};
use sympack_ordering::{metrics, min_degree, nested_dissection, rcm, NdOptions, Permutation};

fn main() {
    let quick = Args::from_env(&["--quick"], &[]).has("--quick");
    for p in Problem::ALL {
        let a = if quick { p.matrix_quick() } else { p.matrix() };
        println!("\n=== {} (n={}) ===", p.name(), a.n());
        let mut rows = vec![vec![
            "ordering".to_string(),
            "nnz(L)".to_string(),
            "flops".to_string(),
            "time".to_string(),
        ]];
        let t0 = std::time::Instant::now();
        let nat = Permutation::identity(a.n());
        rows.push(row("natural", &a, &nat, t0));
        let t0 = std::time::Instant::now();
        let r = rcm(&a);
        rows.push(row("RCM", &a, &r, t0));
        let t0 = std::time::Instant::now();
        let md = min_degree(&a);
        rows.push(row("minimum degree", &a, &md, t0));
        let t0 = std::time::Instant::now();
        let nd = nested_dissection(&a, &NdOptions::default());
        rows.push(row("ND (level-set)", &a, &nd, t0));
        println!("{}", render_table(&rows));
    }
}

fn row(
    name: &str,
    a: &sympack_sparse::SparseSym,
    p: &Permutation,
    t0: std::time::Instant,
) -> Vec<String> {
    let nnz = metrics::factor_nnz(a, p);
    let fl = metrics::factor_flops(a, p);
    vec![
        name.to_string(),
        nnz.to_string(),
        format!("{:.3e}", fl as f64),
        format!("{:?}", t0.elapsed()),
    ]
}
