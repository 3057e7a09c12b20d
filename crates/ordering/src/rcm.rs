//! Reverse Cuthill-McKee ordering.
//!
//! A bandwidth-reducing ordering: BFS from a pseudo-peripheral vertex,
//! visiting neighbors in increasing-degree order, then reverse. Not the
//! paper's primary ordering, but a standard comparison point for the fill
//! metrics (nested dissection beats it badly on 2D/3D meshes, which is why
//! the paper uses Scotch).

use crate::perm::Permutation;
use sympack_sparse::graph::{BfsScratch, Graph};
use sympack_sparse::SparseSym;

/// Find a pseudo-peripheral vertex of the component containing `start`:
/// repeat BFS from the farthest vertex until eccentricity stops growing.
///
/// The last search run is the one rooted at the returned vertex, so on return
/// `bfs` holds that vertex's level structure.
pub(crate) fn pseudo_peripheral(
    g: &Graph,
    start: usize,
    mask: &[bool],
    bfs: &mut BfsScratch,
) -> usize {
    let mut far = g.bfs_levels_into(start, mask, bfs);
    let mut ecc = bfs.levels()[far];
    loop {
        let far2 = g.bfs_levels_into(far, mask, bfs);
        let ecc2 = bfs.levels()[far2];
        if ecc2 > ecc {
            ecc = ecc2;
            far = far2;
        } else {
            return far;
        }
    }
}

/// Compute the reverse Cuthill-McKee permutation (`perm[new] = old`).
pub fn rcm(a: &SparseSym) -> Permutation {
    let g = Graph::from_sym(a);
    let n = g.n();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mask = vec![true; n];
    let mut bfs = BfsScratch::new(n);
    let mut queue = std::collections::VecDeque::new();
    for comp_seed in 0..n {
        if visited[comp_seed] {
            continue;
        }
        let root = pseudo_peripheral(&g, comp_seed, &mask, &mut bfs);
        visited[root] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&w| !visited[w])
                .collect();
            nbrs.sort_by_key(|&w| g.degree(w));
            for w in nbrs {
                visited[w] = true;
                queue.push_back(w);
            }
        }
    }
    order.reverse();
    Permutation::from_vec(order)
}

/// Matrix bandwidth under a given ordering (max |new(i) − new(j)| over edges).
pub fn bandwidth(a: &SparseSym, perm: &Permutation) -> usize {
    let inv = perm.inverse();
    let mut bw = 0;
    for c in 0..a.n() {
        for &r in &a.col_rows(c)[1..] {
            let d = inv.old_of(r).abs_diff(inv.old_of(c));
            bw = bw.max(d);
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::{laplacian_2d, thermal_like};

    #[test]
    fn rcm_is_a_permutation() {
        let a = laplacian_2d(6, 5);
        rcm(&a).validate().unwrap();
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_grid() {
        // Shuffle a grid, then check RCM brings the bandwidth back down.
        let a = laplacian_2d(8, 8);
        let n = a.n();
        let shuffle: Vec<usize> = (0..n).map(|i| (i * 37) % n).collect();
        let shuffled = a.permute(&shuffle);
        let natural_bw = bandwidth(&shuffled, &Permutation::identity(n));
        let p = rcm(&shuffled);
        let rcm_bw = bandwidth(&shuffled, &p);
        assert!(
            rcm_bw < natural_bw / 2,
            "rcm bandwidth {rcm_bw} vs shuffled {natural_bw}"
        );
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let a = thermal_like(5, 2, 0.0, 1); // grid is connected, so add an isolated-ish case:
        let p = rcm(&a);
        p.validate().unwrap();
        assert_eq!(p.len(), a.n());
    }

    #[test]
    fn pseudo_peripheral_finds_path_end() {
        // Path graph 0-1-2-3-4: peripheral vertices are 0 and 4.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mask = vec![true; 5];
        let mut bfs = BfsScratch::new(5);
        let v = pseudo_peripheral(&g, 2, &mask, &mut bfs);
        // The scratch is left holding the search rooted at `v`.
        assert_eq!(bfs.levels()[v], 0);
        assert_eq!(bfs.order()[0], v);
        assert!(v == 0 || v == 4, "got {v}");
    }
}
