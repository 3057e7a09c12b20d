//! Workloads and their generated inputs. The solver receives only what this
//! module generates from `--seed`.

use sympack::SolverOptions;
use sympack_sparse::gen::{self, XorShift64};
use sympack_sparse::SparseSym;

/// Which public API the workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The one-shot driver and the plan layer (`SymPack`, `SolvePlan`,
    /// `factor_numeric`, `solve_panel_distributed`).
    Cold,
    /// `service::Session`: one resident session refactorized and solved
    /// against, beside one tenant admitted per iteration.
    Warm,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matrix {
    /// `gen::flan_like(s, s, s)`: 27-point 3D brick, big supernodes.
    Dense3d(usize),
    /// `gen::thermal_like(s, s, 0.35, THERMAL_PATTERN_SEED)`: irregular 2D
    /// grid, tiny supernodes.
    Sparse2d(usize),
    /// `gen::bone_like(s, s, s)`: 3-dof 3D elasticity.
    Elastic(usize),
}

/// The thermal pattern's long-range edges come from a fixed seed, not from
/// `--seed`: fill (and with it every timing) moves ±3 % with the pattern,
/// which would be counted as run-to-run spread of the machine. `--seed`
/// drives the right-hand sides and the value perturbations.
const THERMAL_PATTERN_SEED: u64 = 20230;

impl Matrix {
    pub fn generate(self) -> SparseSym {
        match self {
            Matrix::Dense3d(s) => gen::flan_like(s, s, s),
            Matrix::Sparse2d(s) => gen::thermal_like(s, s, 0.35, THERMAL_PATTERN_SEED),
            Matrix::Elastic(s) => gen::bone_like(s, s, s),
        }
    }

    /// The same generator at half the linear size (an eighth of the unknowns
    /// in 3D, a quarter in 2D), for the one probe whose cost grows much
    /// faster than the solve: `SolverOptions::trace`.
    pub fn half(self) -> Matrix {
        match self {
            Matrix::Dense3d(s) => Matrix::Dense3d(s / 2),
            Matrix::Sparse2d(s) => Matrix::Sparse2d(s / 2),
            Matrix::Elastic(s) => Matrix::Elastic(s / 2),
        }
    }

    /// The same generator at a size unit tests can factor in milliseconds.
    #[cfg(test)]
    fn quick(self) -> Matrix {
        match self {
            Matrix::Dense3d(_) => Matrix::Dense3d(6),
            Matrix::Sparse2d(_) => Matrix::Sparse2d(24),
            Matrix::Elastic(_) => Matrix::Elastic(5),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub matrix: Matrix,
    /// Ranks (OS threads) of the solve.
    pub p: usize,
    pub path: Path,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold_dense3d_p1",
        matrix: Matrix::Dense3d(22),
        p: 1,
        path: Path::Cold,
    },
    Workload {
        name: "cold_sparse2d_p1",
        matrix: Matrix::Sparse2d(110),
        p: 1,
        path: Path::Cold,
    },
    Workload {
        name: "cold_dense3d_p2",
        matrix: Matrix::Dense3d(22),
        p: 2,
        path: Path::Cold,
    },
    Workload {
        name: "warm_elastic_p2",
        matrix: Matrix::Elastic(16),
        p: 2,
        path: Path::Warm,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The same workload at a size unit tests can factor in milliseconds.
    #[cfg(test)]
    pub fn quick(&self) -> &'static Workload {
        Box::leak(Box::new(Workload {
            matrix: self.matrix.quick(),
            ..*self
        }))
    }

    /// The common settings of every measured solve: CPU kernels (the
    /// simulated device changes wall time by nothing), no refinement, no
    /// solver-side tracing or telemetry, free-running ranks.
    pub fn options(&self) -> SolverOptions {
        SolverOptions {
            n_nodes: 1,
            ranks_per_node: self.p,
            gpu: false,
            refine_steps: 0,
            trace: false,
            telemetry: false,
            deterministic: false,
            ..Default::default()
        }
    }
}

/// Right-hand sides per panel solve.
pub const PANEL_RHS: usize = 16;

/// Everything a workload feeds the solver.
#[derive(Debug)]
pub struct Inputs {
    pub a: SparseSym,
    /// `a`'s stored values, concatenated by column (the layout
    /// `Session::refactorize` takes).
    pub values: Vec<f64>,
    /// The right-hand side of every one-shot solve, so that its solution can
    /// be compared bit for bit across iterations.
    pub b0: Vec<f64>,
    seed: u64,
}

impl Inputs {
    pub fn generate(matrix: Matrix, seed: u64) -> Inputs {
        let a = matrix.generate();
        let values = (0..a.n())
            .flat_map(|c| a.col_values(c).iter().copied())
            .collect();
        let mut inputs = Inputs {
            a,
            values,
            b0: Vec::new(),
            seed,
        };
        inputs.b0 = inputs.rhs(0, 0);
        inputs
    }

    fn rng(&self, iteration: u64, stream: u64) -> XorShift64 {
        // splitmix-style mixing so nearby (seed, iteration, stream) triples
        // start far apart; xorshift itself maps 0 to a fixed state.
        let mut z = self
            .seed
            .wrapping_add(iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift64::new(z ^ (z >> 31))
    }

    /// Right-hand side `j` of iteration `k`: uniform in [-1, 1).
    pub fn rhs(&self, k: u64, j: u64) -> Vec<f64> {
        let mut rng = self.rng(k, j + 1);
        (0..self.a.n())
            .map(|_| 2.0 * rng.next_f64() - 1.0)
            .collect()
    }

    /// The values of iteration `k`'s refactorization: `values · (1 + ε_k)`,
    /// ε_k uniform in [0.01, 0.06). A scalar keeps the matrix positive
    /// definite, and a factor that was not refreshed misses the residual
    /// check by eight orders of magnitude.
    pub fn perturbed_values(&self, k: u64) -> Vec<f64> {
        let scale = 1.01 + 0.05 * self.rng(k, 0).next_f64();
        self.values.iter().map(|v| v * scale).collect()
    }

    /// A matrix with `a`'s pattern and the given values.
    pub fn with_values(&self, values: Vec<f64>) -> SparseSym {
        let rows = (0..self.a.n())
            .flat_map(|c| self.a.col_rows(c).iter().copied())
            .collect();
        SparseSym::from_parts(self.a.n(), self.a.col_ptr().to_vec(), rows, values)
    }

    /// FNV-1a over the generated inputs (pattern, values, the fixed
    /// right-hand side, iteration 1's right-hand side and perturbation):
    /// printed per run so a seed can be shown to reproduce its inputs.
    pub fn fingerprint(&self) -> u64 {
        let a = &self.a;
        let pattern = std::iter::once(a.n())
            .chain(a.col_ptr().iter().copied())
            .chain((0..a.n()).flat_map(|c| a.col_rows(c).iter().copied()));
        let (rhs, perturbed) = (self.rhs(1, 0), self.perturbed_values(1));
        let floats = [&self.values, &self.b0, &rhs, &perturbed];
        fnv1a(
            pattern
                .map(|x| x as u64)
                .chain(floats.into_iter().flatten().map(|x| x.to_bits())),
        )
    }
}

/// FNV-1a over the little-endian bytes of `words`.
pub fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    words
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_reproduces_its_inputs_and_another_seed_does_not() {
        for w in &WORKLOADS {
            let m = w.quick().matrix;
            let (x, y, z) = (
                Inputs::generate(m, 20230),
                Inputs::generate(m, 20230),
                Inputs::generate(m, 7),
            );
            assert_eq!(x.fingerprint(), y.fingerprint(), "{}", w.name);
            assert_eq!(x.rhs(5, 3), y.rhs(5, 3));
            assert_eq!(x.perturbed_values(9), y.perturbed_values(9));
            assert_ne!(x.fingerprint(), z.fingerprint(), "{}", w.name);
            assert_ne!(x.rhs(5, 3), x.rhs(5, 4));
            assert_ne!(x.rhs(5, 3), x.rhs(6, 3));
        }
    }

    #[test]
    fn perturbed_values_keep_the_pattern_and_rescale_the_matrix() {
        let inputs = Inputs::generate(Matrix::Elastic(3), 20230);
        let ak = inputs.with_values(inputs.perturbed_values(4));
        assert_eq!(ak.col_ptr(), inputs.a.col_ptr());
        let scale = ak.get(0, 0) / inputs.a.get(0, 0);
        assert!((1.01..1.06).contains(&scale));
        assert!((ak.frobenius_norm() / inputs.a.frobenius_norm() - scale).abs() < 1e-12);
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(Workload::by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(Workload::by_name("nope").is_none());
    }
}
