//! Quotient-graph minimum-degree ordering.
//!
//! A from-scratch implementation of the classical minimum-degree algorithm
//! with element absorption (the ancestor of AMD, and of the local orderings
//! Scotch applies inside small dissection leaves). The quotient graph
//! represents the partially eliminated matrix implicitly:
//!
//! * each uneliminated **variable** `v` keeps a list of adjacent variables
//!   and a list of adjacent **elements** (cliques created by eliminations);
//! * eliminating the minimum-degree variable `p` forms a new element whose
//!   vertex set is `adj(p) ∪ (∪ elements of p) \ {p}`, absorbing the old
//!   elements — storage never exceeds O(nnz(A)).
//!
//! Degrees are maintained exactly for the variables touched by each
//! elimination, with a lazy binary heap (stale entries skipped on pop).
//!
//! **Tie rule.** Each step eliminates the variable of least exact degree
//! and, among equal degrees, the one of lowest index: the heap pops
//! `(degree, index)` pairs in ascending order. The order is therefore a
//! function of the graph alone, and a graph in which every step is a tie (an
//! edgeless graph, a cycle) comes out in natural order.
//!
//! **Graphs of at most 64 vertices** — every nested-dissection leaf at the
//! default `NdOptions::leaf_size` — skip the quotient graph:
//! `min_degree_masks` keeps the explicit elimination graph as one `u64`
//! neighbour mask per vertex and applies the same rule, so it returns the
//! same order element for element.

use crate::perm::Permutation;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use sympack_sparse::graph::Graph;
use sympack_sparse::SparseSym;

struct QuotientGraph {
    /// Adjacent variables of each variable (may contain stale/eliminated
    /// entries, filtered through `eliminated` on use).
    var_adj: Vec<Vec<usize>>,
    /// Elements adjacent to each variable (indices into `elem_vars`).
    var_elems: Vec<Vec<usize>>,
    /// Vertex set of each element; empty = absorbed.
    elem_vars: Vec<Vec<usize>>,
    eliminated: Vec<bool>,
    /// Generation-stamped visit marker for set merging.
    mark: Vec<u64>,
    stamp: u64,
}

impl QuotientGraph {
    fn new(g: &Graph) -> Self {
        let n = g.n();
        QuotientGraph {
            var_adj: (0..n).map(|v| g.neighbors(v).to_vec()).collect(),
            var_elems: vec![Vec::new(); n],
            elem_vars: Vec::new(),
            eliminated: vec![false; n],
            mark: vec![0; n],
            stamp: 0,
        }
    }

    fn bump(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// The current external degree of `v`: |reachable set of v| − 1,
    /// where the reachable set merges direct variables and element members.
    fn degree(&mut self, v: usize) -> usize {
        let s = self.bump();
        self.mark[v] = s;
        let mut deg = 0;
        for i in 0..self.var_adj[v].len() {
            let w = self.var_adj[v][i];
            if !self.eliminated[w] && self.mark[w] != s {
                self.mark[w] = s;
                deg += 1;
            }
        }
        for ei in 0..self.var_elems[v].len() {
            let e = self.var_elems[v][ei];
            for wi in 0..self.elem_vars[e].len() {
                let w = self.elem_vars[e][wi];
                if !self.eliminated[w] && self.mark[w] != s {
                    self.mark[w] = s;
                    deg += 1;
                }
            }
        }
        deg
    }

    /// Eliminate `p`, returning the variables whose degrees changed.
    fn eliminate(&mut self, p: usize) -> Vec<usize> {
        debug_assert!(!self.eliminated[p]);
        self.eliminated[p] = true;
        // Gather the new element's vertex set.
        let s = self.bump();
        self.mark[p] = s;
        let mut lp: Vec<usize> = Vec::new();
        for i in 0..self.var_adj[p].len() {
            let w = self.var_adj[p][i];
            if !self.eliminated[w] && self.mark[w] != s {
                self.mark[w] = s;
                lp.push(w);
            }
        }
        let elems = std::mem::take(&mut self.var_elems[p]);
        for &e in &elems {
            for wi in 0..self.elem_vars[e].len() {
                let w = self.elem_vars[e][wi];
                if !self.eliminated[w] && self.mark[w] != s {
                    self.mark[w] = s;
                    lp.push(w);
                }
            }
            // Absorb the old element.
            self.elem_vars[e].clear();
        }
        self.var_adj[p].clear();
        let new_elem = self.elem_vars.len();
        self.elem_vars.push(lp.clone());
        // Update each member: drop absorbed elements and covered variable
        // edges, then attach the new element.
        for &v in &lp {
            self.var_elems[v].retain(|&e| !self.elem_vars[e].is_empty());
            // Variable edges inside lp are now covered by the element.
            let sv = s; // members of lp are marked with s
            self.var_adj[v].retain(|&w| !self.eliminated[w] && self.mark[w] != sv);
            self.var_elems[v].push(new_elem);
        }
        lp
    }
}

/// Compute a minimum-degree permutation (`perm[new] = old`) for the pattern
/// of `a`.
pub fn min_degree(a: &SparseSym) -> Permutation {
    let g = Graph::from_sym(a);
    min_degree_graph(&g)
}

/// Minimum-degree on an explicit graph: [`min_degree_masks`] up to
/// [`MASK_MAX`] vertices, the quotient graph above.
pub(crate) fn min_degree_graph(g: &Graph) -> Permutation {
    let n = g.n();
    if n > MASK_MAX {
        return quotient_min_degree(g);
    }
    let mut adj = [0u64; MASK_MAX];
    for (v, mask) in adj[..n].iter_mut().enumerate() {
        for &w in g.neighbors(v) {
            *mask |= 1 << w;
        }
    }
    let mut order = Vec::with_capacity(n);
    min_degree_masks(&mut adj[..n], |v| order.push(v));
    Permutation::from_vec(order)
}

/// Largest graph [`min_degree_masks`] orders: one bit per vertex of a `u64`.
pub(crate) const MASK_MAX: usize = 64;

/// Minimum degree on the explicit elimination graph of at most [`MASK_MAX`]
/// vertices. Bit `w` of `adj[v]` is set iff `v`–`w` is an edge (no self
/// bits); the masks are consumed. `emit` receives the vertices in
/// elimination order, which is the quotient graph's: the live vertex with
/// the fewest live neighbours, the lowest index on a tie.
pub(crate) fn min_degree_masks(adj: &mut [u64], mut emit: impl FnMut(usize)) {
    let n = adj.len();
    assert!(n <= MASK_MAX, "{n} vertices do not fit a u64 mask");
    let mut live = if n == MASK_MAX {
        u64::MAX
    } else {
        (1 << n) - 1
    };
    let mut deg = [0u32; MASK_MAX];
    for (d, mask) in deg.iter_mut().zip(adj.iter()) {
        *d = mask.count_ones();
    }
    while live != 0 {
        let (mut p, mut best) = (0, u32::MAX);
        let mut rest = live;
        while rest != 0 {
            let v = rest.trailing_zeros() as usize;
            if deg[v] < best {
                (p, best) = (v, deg[v]);
            }
            rest &= rest - 1;
        }
        emit(p);
        let bit = 1 << p;
        live &= !bit;
        // Eliminating p joins its neighbours into a clique and drops p.
        let nbrs = adj[p];
        let mut rest = nbrs;
        while rest != 0 {
            let w = rest.trailing_zeros() as usize;
            adj[w] = (adj[w] | nbrs) & !(bit | 1 << w);
            deg[w] = adj[w].count_ones();
            rest &= rest - 1;
        }
    }
}

/// Minimum-degree on the quotient graph: any size.
fn quotient_min_degree(g: &Graph) -> Permutation {
    let n = g.n();
    let mut qg = QuotientGraph::new(g);
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::with_capacity(n);
    let mut cur_deg = vec![0usize; n];
    for (v, deg) in cur_deg.iter_mut().enumerate() {
        *deg = qg.degree(v);
        heap.push(Reverse((*deg, v)));
    }
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((d, v))) = heap.pop() {
        if qg.eliminated[v] || d != cur_deg[v] {
            continue; // stale heap entry
        }
        order.push(v);
        let touched = qg.eliminate(v);
        for w in touched {
            let nd = qg.degree(w);
            if nd != cur_deg[w] {
                cur_deg[w] = nd;
                heap.push(Reverse((nd, w)));
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    Permutation::from_vec(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::{laplacian_2d, random_spd};

    #[test]
    fn orders_whole_graph() {
        let a = laplacian_2d(5, 5);
        let p = min_degree(&a);
        p.validate().unwrap();
        assert_eq!(p.len(), 25);
    }

    /// Both implementations on `g`: they must agree element for element.
    fn both(g: &Graph) -> Vec<usize> {
        let reference = quotient_min_degree(g);
        assert_eq!(min_degree_graph(g), reference, "n = {}", g.n());
        reference.as_slice().to_vec()
    }

    #[test]
    fn star_graph_center_goes_last() {
        // Star: center 0 connected to 1..=5. The leaves (degree 1) go first,
        // lowest index first; once leaf 4 is gone the center's degree is 1
        // too, and the tie goes to the lower index — the center, before 5.
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        assert_eq!(both(&g), [1, 2, 3, 4, 0, 5]);
    }

    #[test]
    fn every_step_a_tie_gives_natural_order() {
        // An edgeless graph, and a cycle: eliminating a vertex of a cycle
        // leaves a cycle one shorter, so every degree stays 2 (then 1, 0).
        let natural: Vec<usize> = (0..12).collect();
        assert_eq!(both(&Graph::from_edges(12, &[])), natural);
        let cycle: Vec<(usize, usize)> = (0..12).map(|i| (i, (i + 1) % 12)).collect();
        assert_eq!(both(&Graph::from_edges(12, &cycle)), natural);
    }

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    /// Edges of a random graph on `n` vertices, each pair present with
    /// probability `p_percent` / 100.
    fn random_edges(n: usize, p_percent: u64, rng: &mut Rng) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in 0..i {
                if rng.next() % 100 < p_percent {
                    edges.push((i, j));
                }
            }
        }
        edges
    }

    /// The grid graph with the given extents, numbered x fastest, cut to its
    /// first `n` vertices.
    fn grid_edges(n: usize, dims: &[usize]) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        let mut stride = 1;
        for &d in dims {
            for v in 0..n {
                if (v / stride) % d + 1 < d && v + stride < n {
                    edges.push((v, v + stride));
                }
            }
            stride *= d;
        }
        edges
    }

    /// The generated graphs on `n` vertices: random at four densities with
    /// `seeds` seeds each, path, star, cycle, complete graph, 8 × 8 and
    /// 4 × 4 × 4 grids (cut to `n`), a union of components and a graph with
    /// every third vertex isolated.
    fn zoo(n: usize, seeds: u64) -> Vec<(String, Graph)> {
        let mut out = Vec::new();
        let mut push = |name: String, edges: Vec<(usize, usize)>| {
            out.push((name, Graph::from_edges(n, &edges)));
        };
        for p in [3, 10, 30, 70] {
            for seed in 0..seeds {
                let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (seed << 16 | p << 8 | n as u64));
                push(
                    format!("random p = {p} % seed {seed}"),
                    random_edges(n, p, &mut rng),
                );
            }
        }
        push("path".into(), (1..n).map(|i| (i - 1, i)).collect());
        push("star".into(), (1..n).map(|i| (0, i)).collect());
        if n >= 3 {
            push("cycle".into(), (0..n).map(|i| (i, (i + 1) % n)).collect());
        }
        push("complete".into(), random_edges(n, 100, &mut Rng(1)));
        push("grid 8 × 8".into(), grid_edges(n, &[8, 8]));
        push("grid 4 × 4 × 4".into(), grid_edges(n, &[4, 4, 4]));
        // A random graph on the even vertices beside a path on the odd ones.
        let mut rng = Rng(0xC0FF_EE00 ^ n as u64);
        let mut union: Vec<(usize, usize)> = random_edges(n.div_ceil(2), 25, &mut rng)
            .into_iter()
            .map(|(i, j)| (2 * i, 2 * j))
            .collect();
        union.extend((3..n).step_by(2).map(|i| (i - 2, i)));
        push("components".into(), union);
        let mut rng = Rng(0x0BAD_C0DE ^ n as u64);
        let isolated = random_edges(n, 20, &mut rng)
            .into_iter()
            .filter(|&(i, j)| i % 3 != 0 && j % 3 != 0)
            .collect();
        push("every third isolated".into(), isolated);
        out
    }

    fn assert_masks_match_quotient_graph(seeds: u64) {
        for n in 0..=MASK_MAX {
            for (name, g) in zoo(n, seeds) {
                let reference = quotient_min_degree(&g);
                reference.validate().unwrap();
                assert_eq!(min_degree_graph(&g), reference, "{name}, n = {n}");
            }
        }
    }

    #[test]
    fn masks_match_the_quotient_graph_for_every_n_up_to_64() {
        assert_masks_match_quotient_graph(3);
    }

    /// Many more random graphs per n: run optimized, `--include-ignored`.
    #[test]
    #[ignore]
    fn masks_match_the_quotient_graph_wide() {
        assert_masks_match_quotient_graph(200);
    }

    #[test]
    fn path_graph_produces_no_fill() {
        // A path eliminated from its ends produces zero fill; minimum degree
        // must find such an order (all degrees ≤ 2, ends have degree 1).
        let edges: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(10, &edges);
        let p = Permutation::from_vec(both(&g));
        p.validate().unwrap();
        // Verify zero fill via the metrics module.
        let mut coo = sympack_sparse::Coo::new(10, 10);
        for i in 0..10 {
            coo.push(i, i, 4.0).unwrap();
        }
        for &(u, v) in &edges {
            coo.push_sym(v.max(u), v.min(u), -1.0).unwrap();
        }
        let a = coo.to_csc().to_lower_sym();
        let fill = crate::metrics::factor_nnz(&a, &p);
        assert_eq!(fill, a.nnz(), "path under MD must be fill-free");
    }

    #[test]
    fn md_beats_natural_on_random_problems() {
        let a = random_spd(120, 5, 3);
        let p = min_degree(&a);
        let md_nnz = crate::metrics::factor_nnz(&a, &p);
        let nat_nnz = crate::metrics::factor_nnz(&a, &Permutation::identity(a.n()));
        assert!(md_nnz <= nat_nnz, "md {md_nnz} vs natural {nat_nnz}");
    }

    #[test]
    fn handles_dense_clique() {
        // Complete graph: every order is equivalent; just check validity.
        let mut edges = Vec::new();
        for i in 0..6 {
            for j in 0..i {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(6, &edges);
        min_degree_graph(&g).validate().unwrap();
    }
}
