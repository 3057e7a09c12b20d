//! Experiment harness shared by the paper-reproduction binaries.
//!
//! One binary per table/figure of the paper's §5 (see `DESIGN.md` for the
//! full experiment index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — matrix characteristics |
//! | `fig5_bandwidth` | Fig. 5 — RMA get flood bandwidth, native vs reference memory kinds vs MPI |
//! | `fig6_opcounts` | Fig. 6 — CPU vs GPU BLAS/LAPACK call distribution |
//! | `scaling` | Figs. 7–12 — strong scaling of factorization & solve, symPACK vs the right-looking baseline |
//! | `taxonomy` | §2.3 — fan-out vs fan-both vs fan-in vs right-looking |
//! | `ablation` | §5.3/§6 design-choice studies: 2D vs 1D mapping, RTQ policies, offload thresholds, memory kinds |
//!
//! The binaries that gate a committed `BENCH_*.json` or `results/*.json` run
//! on [`gate`]; every binary that drives fleet traffic replays it through
//! [`replay`].

pub mod gate;
pub mod replay;

use sympack::{SolveReport, SolverOptions};
use sympack_sparse::gen;
use sympack_sparse::SparseSym;

/// The paper's three evaluation matrices, at reproduction scale.
///
/// The originals are 0.9–1.6M rows; these generators (documented in
/// `DESIGN.md`) keep their structural contrasts at a size a single machine
/// factors in seconds. `EXPERIMENTS.md` records the scale substitution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Problem {
    /// `Flan_1565` stand-in: 3D 27-point brick — heavy fill, big supernodes.
    Flan,
    /// `boneS10` stand-in: 3D elasticity with 3 dof/node.
    Bone,
    /// `thermal2` stand-in: very sparse irregular 2D conduction.
    Thermal,
    /// `audikw_1` stand-in: 3D elasticity, 3 dof/node on a 27-point stencil.
    Audikw,
}

impl Problem {
    /// All problems in the paper's order. (`audikw_1` joins through
    /// [`Problem::BLR_ZOO`] only, so the committed scaling/profile
    /// benchmarks keep their historical row sets.)
    pub const ALL: [Problem; 3] = [Problem::Flan, Problem::Bone, Problem::Thermal];

    /// The block low-rank benchmark zoo: the two vector-FEM problems whose
    /// factors carry real low-rank structure (`boneS10`, `audikw_1`) plus
    /// the two weakly-compressible controls (`Flan_1565`, `thermal2`).
    pub const BLR_ZOO: [Problem; 4] = [
        Problem::Bone,
        Problem::Audikw,
        Problem::Flan,
        Problem::Thermal,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Problem::Flan => "Flan_1565 (flan_like)",
            Problem::Bone => "boneS10 (bone_like)",
            Problem::Thermal => "thermal2 (thermal_like)",
            Problem::Audikw => "audikw_1 (audikw_like)",
        }
    }

    /// Short description (Table 1 column).
    pub fn description(&self) -> &'static str {
        match self {
            Problem::Flan => "3D model of a steel flange (27-pt brick stand-in)",
            Problem::Bone => "3D trabecular bone (3-dof elasticity stand-in)",
            Problem::Thermal => "steady state thermal (irregular 2D stand-in)",
            Problem::Audikw => "automotive crankshaft (3-dof 27-pt elasticity stand-in)",
        }
    }

    /// Generate at full experiment scale.
    pub fn matrix(&self) -> SparseSym {
        match self {
            Problem::Flan => gen::flan_like(26, 26, 26),
            Problem::Bone => gen::bone_like(14, 14, 14),
            Problem::Thermal => gen::thermal_like(110, 110, 0.35, 20230),
            Problem::Audikw => gen::audikw_like(16, 16, 16),
        }
    }

    /// Generate at a reduced scale for quick smoke runs (`--quick`).
    pub fn matrix_quick(&self) -> SparseSym {
        match self {
            Problem::Flan => gen::flan_like(7, 7, 7),
            Problem::Bone => gen::bone_like(6, 6, 5),
            Problem::Thermal => gen::thermal_like(24, 24, 0.35, 20230),
            Problem::Audikw => gen::audikw_like(6, 6, 6),
        }
    }

    /// The matrix of a figure suite's rows and the name they carry: the
    /// reduced one of `--quick`, named `"<name> quick"`, or the full one.
    pub fn figure_matrix(&self, quick: bool) -> (String, SparseSym) {
        if quick {
            (format!("{} quick", self.name()), self.matrix_quick())
        } else {
            (self.name().to_string(), self.matrix())
        }
    }

    /// Generate at the strong-scaling benchmark scale: large enough that
    /// supernode blocks carry real bandwidth (so communication structure,
    /// not just latency, decides the outcome at P ≥ 256), small enough
    /// that a P = 1024 lockstep run stays interactive.
    pub fn matrix_scaling(&self) -> SparseSym {
        match self {
            Problem::Flan => gen::flan_like(13, 13, 13),
            Problem::Bone => gen::bone_like(14, 14, 14),
            Problem::Thermal => gen::thermal_like(72, 72, 0.35, 20230),
            Problem::Audikw => gen::audikw_like(12, 12, 12),
        }
    }

    /// Generate at the block low-rank benchmark scale: deep enough
    /// elimination trees that off-diagonal panels develop numerically
    /// low-rank structure at engineering tolerances.
    pub fn matrix_blr(&self) -> SparseSym {
        match self {
            Problem::Flan => gen::flan_like(20, 20, 20),
            Problem::Bone => gen::bone_like(20, 20, 20),
            Problem::Thermal => gen::thermal_like(110, 110, 0.35, 20230),
            Problem::Audikw => gen::audikw_like(18, 18, 18),
        }
    }
}

/// A factor-and-solve entry point: the fan-out solver's or a baseline's.
pub type Solver = fn(&SparseSym, &[f64], &SolverOptions) -> SolveReport;

/// The options of a figure run: lockstep, so its virtual times reproduce.
pub fn lockstep(n_nodes: usize, ranks_per_node: usize) -> SolverOptions {
    SolverOptions {
        n_nodes,
        ranks_per_node,
        deterministic: true,
        ..Default::default()
    }
}

/// `r` when it solved its system, else why not: a figure row is only
/// recorded for a correct solve.
pub fn solved(r: SolveReport, what: &str) -> Result<SolveReport, String> {
    match r.relative_residual {
        res if res < 1e-8 => Ok(r),
        res => Err(format!("{what}: relative residual {res:e}")),
    }
}

/// Format virtual seconds for the report tables.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Render an aligned text table (first row = header).
pub fn render_table(rows: &[Vec<String>]) -> String {
    let Some(header) = rows.first() else {
        return String::new();
    };
    let mut widths = vec![0; header.len()];
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = cell.len().max(*w);
        }
    }
    let cells = |row: &Vec<String>| {
        let cells = row
            .iter()
            .zip(&widths)
            .map(|(cell, w)| format!("{cell:<w$}  "));
        cells.collect::<String>() + "\n"
    };
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let body: String = rows[1..].iter().map(cells).collect();
    cells(header) + &rule.join("  ") + "\n" + &body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problems_generate_at_both_figure_scales() {
        for p in Problem::ALL {
            let (quick, small) = p.figure_matrix(true);
            let (full, big) = p.figure_matrix(false);
            assert_eq!(quick, format!("{full} quick"));
            assert!(small.n() > 100 && big.n() > small.n(), "{p:?}");
        }
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(&[
            vec!["a".into(), "long-header".into()],
            vec!["xxx".into(), "1".into()],
        ]);
        assert!(t.contains("a    long-header"));
        assert!(t.contains("---"));
    }

    #[test]
    fn fmt_secs_picks_units() {
        assert!(fmt_secs(2.5).ends_with(" s"));
        assert!(fmt_secs(0.002).ends_with(" ms"));
        assert!(fmt_secs(2.0e-6).ends_with(" µs"));
    }
}
