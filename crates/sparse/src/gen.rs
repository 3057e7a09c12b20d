//! Synthetic problem generators.
//!
//! The paper's evaluation uses three SuiteSparse matrices chosen for their
//! contrasting structure (Table 1):
//!
//! | paper matrix | structure | stand-in here |
//! |---|---|---|
//! | `Flan_1565` (3D steel flange, n=1.56M) | 3D volumetric, hex elements, large supernodes | [`flan_like`] — 3D brick, 27-point stencil |
//! | `boneS10` (3D trabecular bone, n=915K) | 3D elasticity, 3 dof/node | [`bone_like`] — 3D grid with 3 coupled dof per node |
//! | `thermal2` (steady-state thermal, n=1.23M, very sparse & irregular) | 2D/3D unstructured FEM, ~7 nnz/row | [`thermal_like`] — 2D 5-point stencil + random irregular edges |
//!
//! The generators are deterministic given their parameters (a seed is part of
//! the irregular ones) so experiments are reproducible. Sizes are scaled
//! down from the paper's (documented in `EXPERIMENTS.md`); what matters for
//! reproducing the paper's *shape* results is the contrast: volumetric 3D
//! problems produce heavy fill and large dense supernodes (GPU-friendly),
//! while `thermal_like` produces little fill and tiny supernodes
//! (communication-bound).

use crate::coo::Coo;
use crate::sym::SparseSym;

/// Simple deterministic xorshift generator so `gen` needs no external RNG
/// dependency and generated problems are stable across platforms.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded constructor; a zero seed is mapped to a fixed nonzero value.
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound`.
    pub fn next_below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// 2D 5-point Laplacian on an `nx × ny` grid: the classic model problem.
/// Diagonal 4, off-diagonals −1; SPD.
pub fn laplacian_2d(nx: usize, ny: usize) -> SparseSym {
    let n = nx * ny;
    let idx = |x: usize, y: usize| y * nx + x;
    let mut coo = Coo::new(n, n);
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            coo.push(i, i, 4.0).unwrap();
            if x + 1 < nx {
                coo.push_sym(idx(x + 1, y), i, -1.0).unwrap();
            }
            if y + 1 < ny {
                coo.push_sym(idx(x, y + 1), i, -1.0).unwrap();
            }
        }
    }
    coo.to_csc().to_lower_sym()
}

/// 3D 7-point Laplacian on an `nx × ny × nz` grid. Diagonal 6,
/// off-diagonals −1; SPD.
pub fn laplacian_3d(nx: usize, ny: usize, nz: usize) -> SparseSym {
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut coo = Coo::new(n, n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                coo.push(i, i, 6.0).unwrap();
                if x + 1 < nx {
                    coo.push_sym(idx(x + 1, y, z), i, -1.0).unwrap();
                }
                if y + 1 < ny {
                    coo.push_sym(idx(x, y + 1, z), i, -1.0).unwrap();
                }
                if z + 1 < nz {
                    coo.push_sym(idx(x, y, z + 1), i, -1.0).unwrap();
                }
            }
        }
    }
    coo.to_csc().to_lower_sym()
}

/// `Flan_1565` stand-in: 3D brick with a 27-point (full 3×3×3 neighborhood)
/// stencil — the dense connectivity of hexahedral elements gives the large
/// supernodes and heavy fill that make Flan GPU-friendly.
pub fn flan_like(nx: usize, ny: usize, nz: usize) -> SparseSym {
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut coo = Coo::new(n, n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                // Count neighbors for a diagonally-dominant diagonal value.
                let mut neighbors = 0u32;
                for dz in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            if dx == 0 && dy == 0 && dz == 0 {
                                continue;
                            }
                            let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                            if xx >= 0
                                && yy >= 0
                                && zz >= 0
                                && (xx as usize) < nx
                                && (yy as usize) < ny
                                && (zz as usize) < nz
                            {
                                neighbors += 1;
                                let j = idx(xx as usize, yy as usize, zz as usize);
                                if j > i {
                                    coo.push_sym(j, i, -1.0).unwrap();
                                }
                            }
                        }
                    }
                }
                coo.push(i, i, neighbors as f64 + 1.0).unwrap();
            }
        }
    }
    coo.to_csc().to_lower_sym()
}

/// `boneS10` stand-in: 3D elasticity-like problem with 3 degrees of freedom
/// per grid node; the three dof of a node couple with each other and with the
/// dof of the 6 face neighbors, mimicking a vector-valued FEM operator.
pub fn bone_like(nx: usize, ny: usize, nz: usize) -> SparseSym {
    let nodes = nx * ny * nz;
    let n = 3 * nodes;
    let node = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut coo = Coo::new(n, n);
    let couple = |coo: &mut Coo, a: usize, b: usize, w: f64| {
        // Couple all dof pairs of nodes a and b with a small anisotropy so
        // blocks are truly dense.
        for da in 0..3usize {
            for db in 0..3usize {
                let i = 3 * a + da;
                let j = 3 * b + db;
                let v = w * (1.0 + 0.1 * (da as f64 - db as f64));
                if i > j {
                    coo.push_sym(i, j, v).unwrap();
                } else if i < j && a == b {
                    // intra-node upper pairs handled by symmetry from lower push
                }
            }
        }
    };
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let a = node(x, y, z);
                // Intra-node dense 3x3 block (diagonal + couplings).
                for d in 0..3usize {
                    coo.push(3 * a + d, 3 * a + d, 50.0 + d as f64).unwrap();
                }
                couple(&mut coo, a, a, -0.5);
                for &(dx, dy, dz) in &[(1i64, 0i64, 0i64), (0, 1, 0), (0, 0, 1)] {
                    let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                    if (xx as usize) < nx && (yy as usize) < ny && (zz as usize) < nz {
                        let b = node(xx as usize, yy as usize, zz as usize);
                        couple(&mut coo, b, a, -1.0);
                    }
                }
            }
        }
    }
    coo.to_csc().to_lower_sym()
}

/// `audikw_1` stand-in: 3D elasticity with 3 degrees of freedom per node and
/// the full 27-point (3×3×3 neighborhood) nodal connectivity of hexahedral
/// elements — combining [`flan_like`]'s dense stencil (large supernodes,
/// heavy fill) with [`bone_like`]'s vector-valued coupling. The dof×dof
/// coupling blocks follow a smooth separable profile whose weight decays
/// with neighbor distance, mimicking the smooth elastic kernel that makes
/// automotive FEM factors numerically block low-rank.
pub fn audikw_like(nx: usize, ny: usize, nz: usize) -> SparseSym {
    let nodes = nx * ny * nz;
    let n = 3 * nodes;
    let node = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    let mut coo = Coo::new(n, n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let a = node(x, y, z);
                // Intra-node dense 3×3 block: dominant diagonal plus the
                // same separable dof coupling used on the edges.
                for da in 0..3usize {
                    coo.push(3 * a + da, 3 * a + da, 60.0 + da as f64).unwrap();
                    for db in 0..da {
                        let v = -0.5 * (1.0 + 0.1 * (da as f64 - db as f64));
                        coo.push_sym(3 * a + da, 3 * a + db, v).unwrap();
                    }
                }
                for dz in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            if dx == 0 && dy == 0 && dz == 0 {
                                continue;
                            }
                            let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                            if xx < 0
                                || yy < 0
                                || zz < 0
                                || xx as usize >= nx
                                || yy as usize >= ny
                                || zz as usize >= nz
                            {
                                continue;
                            }
                            let b = node(xx as usize, yy as usize, zz as usize);
                            if b <= a {
                                continue;
                            }
                            // Weight decays smoothly with offset distance:
                            // faces 1, edges 1/2, corners 1/3.
                            let d2 = (dx * dx + dy * dy + dz * dz) as f64;
                            let w = -1.0 / d2;
                            for da in 0..3usize {
                                for db in 0..3usize {
                                    let v = w * (1.0 + 0.1 * (da as f64 - db as f64));
                                    coo.push_sym(3 * b + da, 3 * a + db, v).unwrap();
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    coo.to_csc().to_lower_sym()
}

/// `thermal2` stand-in: a 2D 5-point conduction grid plus a sprinkling of
/// random long-range edges, giving the highly irregular, very sparse
/// structure (≈7 nnz/row) the paper highlights for `thermal2`.
pub fn thermal_like(nx: usize, ny: usize, extra_edge_fraction: f64, seed: u64) -> SparseSym {
    let n = nx * ny;
    let idx = |x: usize, y: usize| y * nx + x;
    let mut coo = Coo::new(n, n);
    let mut degree = vec![0u32; n];
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            if x + 1 < nx {
                edges.push((idx(x + 1, y), i));
            }
            if y + 1 < ny {
                edges.push((idx(x, y + 1), i));
            }
        }
    }
    // Irregular long-range edges: each connects two random nodes, biased to
    // be local-ish (within a window) as in unstructured meshes.
    let mut rng = XorShift64::new(seed);
    let n_extra = ((n as f64) * extra_edge_fraction) as usize;
    for _ in 0..n_extra {
        let a = rng.next_below(n);
        let w = (nx * 4).max(8);
        let off = rng.next_below(2 * w) as i64 - w as i64;
        let b = a as i64 + off;
        if b >= 0 && (b as usize) < n && b as usize != a {
            let (hi, lo) = if a > b as usize {
                (a, b as usize)
            } else {
                (b as usize, a)
            };
            edges.push((hi, lo));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    for &(hi, lo) in &edges {
        coo.push_sym(hi, lo, -1.0).unwrap();
        degree[hi] += 1;
        degree[lo] += 1;
    }
    for (i, &deg) in degree.iter().enumerate() {
        coo.push(i, i, deg as f64 + 1.0).unwrap();
    }
    coo.to_csc().to_lower_sym()
}

/// Random sparse SPD matrix: a random symmetric pattern with `avg_degree`
/// off-diagonals per column, values in `[-1, 0)`, and a diagonal made
/// strictly dominant. Used heavily by the property tests.
pub fn random_spd(n: usize, avg_degree: usize, seed: u64) -> SparseSym {
    let mut rng = XorShift64::new(seed);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let target = n * avg_degree / 2;
    for _ in 0..target {
        let a = rng.next_below(n);
        let b = rng.next_below(n);
        if a != b {
            edges.push((a.max(b), a.min(b)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let mut coo = Coo::new(n, n);
    let mut rowsum = vec![0.0f64; n];
    for &(hi, lo) in &edges {
        let v = -(rng.next_f64() + 1e-3);
        coo.push_sym(hi, lo, v).unwrap();
        rowsum[hi] += v.abs();
        rowsum[lo] += v.abs();
    }
    for (i, &rs) in rowsum.iter().enumerate() {
        coo.push(i, i, rs + 1.0 + rng.next_f64()).unwrap();
    }
    coo.to_csc().to_lower_sym()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplacian_2d_structure() {
        let a = laplacian_2d(3, 3);
        assert_eq!(a.n(), 9);
        // center node couples to 4 neighbors
        assert_eq!(a.get(4, 4), 4.0);
        assert_eq!(a.get(4, 3), -1.0);
        assert_eq!(a.get(4, 1), -1.0);
        assert_eq!(a.get(4, 0), 0.0);
        assert!(a.to_full_csc().is_symmetric());
    }

    #[test]
    fn laplacian_3d_structure() {
        let a = laplacian_3d(2, 2, 2);
        assert_eq!(a.n(), 8);
        assert_eq!(a.get(0, 0), 6.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(0, 7), 0.0);
    }

    #[test]
    fn flan_like_has_27_point_connectivity() {
        let a = flan_like(3, 3, 3);
        assert_eq!(a.n(), 27);
        // Center node (1,1,1) = index 13 couples to all other 26 nodes.
        let full = a.to_full_csc();
        assert_eq!(full.col_rows(13).len(), 27);
        assert!(full.is_symmetric());
    }

    #[test]
    fn bone_like_triples_dof() {
        let a = bone_like(2, 2, 2);
        assert_eq!(a.n(), 24);
        assert!(a.to_full_csc().is_symmetric());
        // dof of the same node are coupled
        assert!(a.get(1, 0) != 0.0);
        assert!(a.get(2, 0) != 0.0);
    }

    #[test]
    fn thermal_like_is_sparse_and_symmetric() {
        let a = thermal_like(20, 20, 0.3, 42);
        assert_eq!(a.n(), 400);
        assert!(a.to_full_csc().is_symmetric());
        let avg = a.nnz_full() as f64 / a.n() as f64;
        assert!(avg < 8.0, "thermal-like should stay very sparse, got {avg}");
    }

    #[test]
    fn thermal_like_is_deterministic_per_seed() {
        let a = thermal_like(10, 10, 0.5, 7);
        let b = thermal_like(10, 10, 0.5, 7);
        let c = thermal_like(10, 10, 0.5, 8);
        assert_eq!(a, b);
        assert!(a != c);
    }

    #[test]
    fn random_spd_is_diagonally_dominant() {
        let a = random_spd(50, 4, 1);
        for c in 0..50 {
            let vals = a.col_values(c);
            let rows = a.col_rows(c);
            let mut off = 0.0;
            for r in 0..50 {
                if r != c {
                    off += a.get(r, c).abs();
                }
            }
            assert!(vals[0] > off, "column {c} not dominant");
            assert_eq!(rows[0], c);
        }
    }

    #[test]
    fn generators_pass_spd_smoke_via_gershgorin() {
        for a in [
            laplacian_2d(5, 4),
            laplacian_3d(3, 3, 3),
            flan_like(3, 2, 2),
        ] {
            for c in 0..a.n() {
                let mut off = 0.0;
                for r in 0..a.n() {
                    if r != c {
                        off += a.get(r, c).abs();
                    }
                }
                assert!(a.get(c, c) >= off, "Gershgorin disc crosses zero at {c}");
            }
        }
    }
}
