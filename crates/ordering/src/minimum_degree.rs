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

/// Minimum-degree on an explicit graph (used by nested dissection for its
/// leaf sub-blocks).
pub(crate) fn min_degree_graph(g: &Graph) -> Permutation {
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

    #[test]
    fn star_graph_center_goes_last() {
        // Star: center 0 connected to 1..=5. Leaves have degree 1, center 5.
        // MD eliminates leaves first; the center must come last or nearly so.
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let p = min_degree_graph(&g);
        // Ties are broken arbitrarily, so the center may swap with the very
        // last leaf once its degree has dropped to 1 — but it must never be
        // eliminated among the first four vertices (its degree only reaches
        // the minimum after most leaves are gone).
        let pos = p.as_slice().iter().position(|&v| v == 0).unwrap();
        assert!(pos >= 4, "center eliminated too early at position {pos}");
    }

    #[test]
    fn path_graph_produces_no_fill() {
        // A path eliminated from its ends produces zero fill; minimum degree
        // must find such an order (all degrees ≤ 2, ends have degree 1).
        let edges: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(10, &edges);
        let p = min_degree_graph(&g);
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
