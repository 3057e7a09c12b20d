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
//! | `ablation` | §5.3/§6 design-choice studies: 2D vs 1D mapping, RTQ policies, offload thresholds, memory kinds |
//!
//! The binaries that gate a committed `BENCH_*.json` run on [`gate`].

pub mod gate;

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

    /// Parse a CLI name.
    pub fn from_name(s: &str) -> Option<Problem> {
        match s.to_ascii_lowercase().as_str() {
            "flan" | "flan_1565" => Some(Problem::Flan),
            "bone" | "bones10" => Some(Problem::Bone),
            "thermal" | "thermal2" => Some(Problem::Thermal),
            "audikw" | "audikw_1" => Some(Problem::Audikw),
            _ => None,
        }
    }

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
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows[0].len();
    let mut widths = vec![0usize; cols];
    for r in rows {
        for (c, cell) in r.iter().enumerate() {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        for (c, cell) in r.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", cell, w = widths[c]));
        }
        out.push('\n');
        if i == 0 {
            for (c, w) in widths.iter().enumerate() {
                out.push_str(&"-".repeat(*w));
                if c + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problems_parse_and_generate() {
        assert_eq!(Problem::from_name("FLAN"), Some(Problem::Flan));
        assert_eq!(Problem::from_name("thermal2"), Some(Problem::Thermal));
        assert_eq!(Problem::from_name("nope"), None);
        for p in Problem::ALL {
            let m = p.matrix_quick();
            assert!(m.n() > 100, "{p:?}");
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
