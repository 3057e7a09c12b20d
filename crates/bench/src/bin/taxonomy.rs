//! Communication-family comparison (paper §2.3, Ashcraft's taxonomy):
//! fan-out (symPACK, 2D block-cyclic), fan-both (computation maps, 2D —
//! the original symPACK algorithm of the paper's ref. \[15\]), fan-in
//! aggregates (1D) and the right-looking panel broadcast (PaStiX-like,
//! 1D), on the same problems, pinned in `results/taxonomy.json`.
//!
//! ```text
//! cargo run --release -p sympack-bench --bin taxonomy -- [--quick | --check]
//! ```
//!
//! A figure suite of [`gate`]: its cheap rows are the reduced Flan stand-in
//! at 1 and 4 nodes, the full run adds the three paper-scale problems at 1,
//! 4 and 16 nodes, all at 2 ranks per node.

use sympack::SymPack;
use sympack_baseline::{
    baseline_factor_and_solve, fanboth_factor_and_solve, fanin_factor_and_solve,
};
use sympack_bench::gate::{self, sci, Row, Rows, Scorecard, Suite};
use sympack_bench::{fmt_secs, lockstep, solved, Problem, Solver};
use sympack_sparse::vecops::test_rhs;
use sympack_trace::json::Obj;

/// The four families, in the order the taxonomy predicts their message
/// counts to rise.
const FAMILIES: [(&str, Solver); 4] = [
    ("fan-in", fanin_factor_and_solve),
    ("right-looking", baseline_factor_and_solve),
    ("fan-both", fanboth_factor_and_solve),
    ("fan-out", SymPack::factor_and_solve),
];

const NODES: [usize; 3] = [1, 4, 16];

fn sweep(quick: bool, out: &mut Rows) -> Result<(), String> {
    // The reduced rows are the Flan stand-in's only.
    let (all, nodes) = (Problem::ALL, if quick { &NODES[..2] } else { &NODES[..] });
    let problems = if quick { &all[..1] } else { &all };
    for problem in problems {
        let (matrix, a) = problem.figure_matrix(quick);
        let b = test_rhs(a.n());
        for &n_nodes in nodes {
            let opts = lockstep(n_nodes, 2);
            for (family, run) in FAMILIES {
                let what = format!("{family} on {matrix} at {n_nodes} nodes");
                let r = solved(run(&a, &b, &opts), &what)?;
                out.push(Row::from(
                    Obj::new()
                        .str("matrix", &matrix)
                        .u64("nodes", n_nodes as u64)
                        .str("family", family)
                        .str("facto", &sci(r.factor_time))
                        .u64("rpcs", r.stats.rpcs),
                ));
            }
        }
    }
    Ok(())
}

/// The scorecard of §2.3's claims over the paper-scale rows.
fn scorecard(rows: &[Row]) -> Result<String, String> {
    // Per point, every family's (facto, rpcs), in FAMILIES order.
    let mut points = Vec::new();
    for problem in Problem::ALL {
        for nodes in NODES {
            let (m, n, mut fams, mut shown) = (problem.name(), nodes.to_string(), vec![], vec![]);
            for (family, _) in FAMILIES {
                let row = gate::find(rows, &[("matrix", m), ("nodes", &n), ("family", family)])?;
                let (t, rpcs) = (row.f64("facto")?, row.u64("rpcs")?);
                shown.push(format!("{family} {} / {rpcs} msgs", fmt_secs(t)));
                fams.push((t, rpcs));
            }
            points.push((format!("{m} at {n} nodes: {}", shown.join(", ")), fams));
        }
    }
    let mut card = Scorecard::default();
    let claim = "messages order fan-in < right-looking < fan-both < fan-out";
    card.every(claim, &points, |f| f.windows(2).all(|w| w[0].1 < w[1].1));
    let claim = "fan-out (this paper) factors faster than fan-both (ref. [15])";
    card.every(claim, &points, |f| f[3].0 < f[2].0);
    let claim = "right-looking factors slowest of the four";
    card.every(claim, &points, |f| f.iter().all(|g| g.0 <= f[1].0));
    Ok(card.summary())
}

fn main() -> std::process::ExitCode {
    gate::run(&Suite {
        file: "results/taxonomy.json",
        flags: &[],
        quick: |_, out| sweep(true, out),
        cheap: |_, out| sweep(true, out),
        full: |_, out| sweep(true, out).and_then(|()| sweep(false, out)),
        gate: scorecard,
    })
}
