//! Figs. 7–12: strong scaling of factorization and triangular solve,
//! symPACK-rs versus the right-looking (PaStiX-like) baseline, on the three
//! evaluation problems, pinned in `results/scaling.json`.
//!
//! ```text
//! cargo run --release -p sympack-bench --bin scaling -- [--quick | --check]
//! ```
//!
//! A figure suite of [`gate`]: its cheap rows are the reduced problems at
//! 1, 2 and 4 nodes, the full run adds the paper-scale ones at 1–64 nodes.
//! Like the paper (§5.3), a row keeps the ranks-per-node choice with the
//! solver's fastest factorization.

use sympack::SymPack;
use sympack_baseline::baseline_factor_and_solve;
use sympack_bench::gate::{self, sci, Row, Rows, Scorecard, Suite};
use sympack_bench::{fmt_secs, lockstep, solved, Problem, Solver};
use sympack_sparse::vecops::test_rhs;
use sympack_trace::json::Obj;

const SOLVERS: [(&str, Solver); 2] = [
    ("symPACK", SymPack::factor_and_solve),
    ("PaStiX-like", baseline_factor_and_solve),
];

/// The paper's node counts (Figs. 7–12).
const NODES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Every solver at every node count on every problem, at one scale; each
/// row is the ranks-per-node choice with the fastest factorization.
fn sweep(quick: bool, out: &mut Rows) -> Result<(), String> {
    let nodes = if quick { &NODES[..3] } else { &NODES[..] };
    for problem in Problem::ALL {
        let (matrix, a) = problem.figure_matrix(quick);
        let b = test_rhs(a.n());
        for &n_nodes in nodes {
            // At large node counts, 1–2 ranks per node bound the thread count.
            let ppns: &[usize] = if n_nodes <= 4 { &[1, 2, 4] } else { &[1, 2] };
            for (solver, run) in SOLVERS {
                let mut runs = vec![];
                for &ppn in ppns.iter().filter(|&&ppn| n_nodes * ppn <= 96) {
                    let what = format!("{solver} on {matrix} at {n_nodes}x{ppn}");
                    runs.push((ppn, solved(run(&a, &b, &lockstep(n_nodes, ppn)), &what)?));
                }
                // The first of equally fast choices.
                runs.sort_by(|x, y| x.1.factor_time.total_cmp(&y.1.factor_time));
                let (ppn, r) = &runs[0];
                out.push(Row::from(
                    Obj::new()
                        .str("matrix", &matrix)
                        .u64("nodes", n_nodes as u64)
                        .str("solver", solver)
                        .u64("ppn", *ppn as u64)
                        .str("facto", &sci(r.factor_time))
                        .str("solve", &sci(r.solve_time)),
                ));
            }
        }
    }
    Ok(())
}

/// The scorecard of DESIGN §4's shape targets and EXPERIMENTS.md's Figs.
/// 7–12 claims over the paper-scale rows.
fn scorecard(rows: &[Row]) -> Result<String, String> {
    // Per point, `t[solver][phase]`: solvers in SOLVERS order, phase 0 the
    // factorization and 1 the solve.
    let mut points = Vec::new();
    for problem in Problem::ALL {
        for nodes in NODES {
            let (m, n, mut t) = (problem.name(), nodes.to_string(), [[0.0; 2]; 2]);
            for (s, (solver, _)) in SOLVERS.iter().enumerate() {
                let row = gate::find(rows, &[("matrix", m), ("nodes", &n), ("solver", solver)])?;
                t[s] = [row.f64("facto")?, row.f64("solve")?];
            }
            let [f, s] = [0, 1].map(|ph| [t[0][ph], t[1][ph]].map(fmt_secs).join(" vs "));
            let at = format!("{m} at {n} nodes: facto {f}, solve {s}");
            points.push((at, (problem, nodes, t)));
        }
    }
    let t = |problem: Problem, nodes: usize| {
        let hit = points.iter().find(|(_, p)| (p.0, p.1) == (problem, nodes));
        let (_, (_, _, t)) = hit.expect("every point was read");
        *t
    };
    let gap = |problem, nodes| t(problem, nodes)[1][0] / t(problem, nodes)[0][0];
    let mut card = Scorecard::default();
    let claim = "symPACK's factorization beats PaStiX-like's at every point";
    card.every(claim, &points, |p| p.2[0][0] < p.2[1][0]);
    let claim = "symPACK's solve beats PaStiX-like's at every point";
    card.every(claim, &points, |p| p.2[0][1] < p.2[1][1]);
    let gaps = points.iter().map(|(_, p)| gap(p.0, p.1));
    let (lo, hi) = gaps.fold((f64::MAX, 0.0f64), |(lo, hi), g| (lo.min(g), hi.max(g)));
    let evidence = format!("{lo:.1}x-{hi:.1}x over {} points", points.len());
    let claim = "factorization speed-ups reach 'up to 14x'";
    card.claim(claim, hi >= 14.0, &evidence);
    let claim = "the largest factorization gap at each node count is on thermal2";
    let widest = |p: &(Problem, usize, _)| gap(p.0, p.1) <= gap(Problem::Thermal, p.1);
    card.every(claim, &points, widest);
    let gains = Problem::ALL.map(|p| {
        let [sp, bl] = [0, 1].map(|s| t(p, 1)[s][0] / t(p, 64)[s][0]);
        let at = format!("{}: symPACK {sp:.2}x, PaStiX-like {bl:.2}x", p.name());
        (at, [sp, bl])
    });
    let claim = "PaStiX-like's 1->64-node factorization gain is steeper than symPACK's";
    card.every(claim, &gains, |[sp, bl]| bl > sp);
    let (one, eight) = (t(Problem::Thermal, 1)[1][1], t(Problem::Thermal, 8)[1][1]);
    let evidence = format!("{} -> {}", fmt_secs(one), fmt_secs(eight));
    let claim = "PaStiX-like's thermal2 solve rises from 1 to 8 nodes (Fig. 12)";
    card.claim(claim, eight > one, &evidence);
    Ok(card.summary())
}

fn main() -> std::process::ExitCode {
    gate::run(&Suite {
        file: "results/scaling.json",
        flags: &[],
        quick: |_, out| sweep(true, out),
        cheap: |_, out| sweep(true, out),
        full: |_, out| sweep(true, out).and_then(|()| sweep(false, out)),
        gate: scorecard,
    })
}
