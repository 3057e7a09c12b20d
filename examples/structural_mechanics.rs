//! Structural-mechanics style workload: repeated factorizations of a 3D
//! elasticity-like stiffness matrix, as in the eigenvalue and PEXSI
//! applications the paper's §5.3 motivates ("for an application that needs
//! multiple factorizations in succession, the overall benefit imparted by
//! symPACK could be substantial").
//!
//! Simulates a shift-and-solve loop: for each shift σ, factor `A + σ·I` and
//! solve against a block of load vectors, comparing symPACK-rs against the
//! right-looking baseline.
//!
//! ```text
//! cargo run --release -p sympack-apps --example structural_mechanics
//! ```

use sympack::{SolverOptions, SymPack};
use sympack_baseline::baseline_factor_and_solve;
use sympack_sparse::gen::bone_like;
use sympack_sparse::{Coo, SparseSym};

/// `A + sigma·I` (the shifted operator of a shift-invert eigensolver step).
fn shifted(a: &SparseSym, sigma: f64) -> SparseSym {
    let n = a.n();
    let mut coo = Coo::new(n, n);
    for c in 0..n {
        for (&r, &v) in a.col_rows(c).iter().zip(a.col_values(c)) {
            let v = if r == c { v + sigma } else { v };
            coo.push(r, c, v).unwrap();
        }
    }
    coo.to_csc().to_lower_sym()
}

fn main() {
    // A 3-dof-per-node elasticity-like operator (the boneS10 analogue).
    let a = bone_like(8, 8, 8);
    println!(
        "stiffness matrix: n = {} ({} nodes x 3 dof), nnz = {}",
        a.n(),
        a.n() / 3,
        a.nnz_full()
    );
    let shifts = [0.0, 1.5, 4.0];
    let b: Vec<f64> = (0..a.n()).map(|i| ((i * 13) % 11) as f64 - 5.0).collect();
    let opts = SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        ..Default::default()
    };
    let mut total_sp = 0.0;
    let mut total_bl = 0.0;
    for &sigma in &shifts {
        let shifted_a = shifted(&a, sigma);
        let sp = SymPack::factor_and_solve(&shifted_a, &b, &opts);
        let bl = baseline_factor_and_solve(&shifted_a, &b, &opts);
        assert!(sp.relative_residual < 1e-10);
        assert!(bl.relative_residual < 1e-10);
        println!(
            "shift σ={sigma:>4}: symPACK facto+solve {:>8.3} ms | baseline {:>8.3} ms | residual {:.1e}",
            (sp.factor_time + sp.solve_time) * 1e3,
            (bl.factor_time + bl.solve_time) * 1e3,
            sp.relative_residual,
        );
        total_sp += sp.factor_time + sp.solve_time;
        total_bl += bl.factor_time + bl.solve_time;
    }
    println!(
        "\nshift loop total: symPACK {:.3} ms vs baseline {:.3} ms ({:.2}x) — the gap\ncompounds across repeated factorizations, the paper's §5.3 point.",
        total_sp * 1e3,
        total_bl * 1e3,
        total_bl / total_sp
    );
}
