//! Multilevel vertex-separator computation — the Scotch/METIS approach.
//!
//! The level-set separators in [`crate::nd`] are fast but can be far from
//! optimal on irregular graphs. This module implements the multilevel
//! scheme the paper's ordering tool (Scotch) uses:
//!
//! 1. **coarsen** the graph by heavy-edge matching until it is small,
//! 2. compute an **initial partition** of the coarsest graph by weighted
//!    BFS region growing,
//! 3. derive a **vertex separator** from the cut boundary,
//! 4. **project** the partition back level by level, running a pass of
//!    Fiduccia–Mattheyses-style separator refinement (Ashcraft–Liu vertex
//!    moves) at every level.
//!
//! Entry point: `multilevel_separator`, a drop-in alternative to the
//! level-set separator inside the nested-dissection recursion.

use sympack_sparse::graph::Graph;

/// A weighted graph produced by coarsening: vertex weights count collapsed
/// fine vertices; edge weights count collapsed fine edges.
#[derive(Debug, Clone)]
pub struct WGraph {
    n: usize,
    adj_ptr: Vec<usize>,
    adj: Vec<usize>,
    ewgt: Vec<u64>,
    vwgt: Vec<u64>,
}

/// Partition labels during refinement.
pub(crate) const SIDE_A: u8 = 0;
pub(crate) const SIDE_B: u8 = 1;
pub(crate) const SEP: u8 = 2;

impl WGraph {
    /// Build a unit-weighted graph from an induced subgraph of `g`.
    /// `vertices` gives the global ids; the result uses local ids `0..len`.
    pub(crate) fn induced(g: &Graph, vertices: &[usize]) -> (WGraph, Vec<usize>) {
        let mut local = vec![usize::MAX; g.n()];
        for (li, &v) in vertices.iter().enumerate() {
            local[v] = li;
        }
        let n = vertices.len();
        let mut adj_ptr = vec![0usize; n + 1];
        for (li, &v) in vertices.iter().enumerate() {
            let deg = g
                .neighbors(v)
                .iter()
                .filter(|&&w| local[w] != usize::MAX)
                .count();
            adj_ptr[li + 1] = adj_ptr[li] + deg;
        }
        let mut adj = vec![0usize; adj_ptr[n]];
        let mut pos = adj_ptr.clone();
        for (li, &v) in vertices.iter().enumerate() {
            for &w in g.neighbors(v) {
                if local[w] != usize::MAX {
                    adj[pos[li]] = local[w];
                    pos[li] += 1;
                }
            }
        }
        let ne = adj.len();
        (
            WGraph {
                n,
                adj_ptr,
                adj,
                ewgt: vec![1; ne],
                vwgt: vec![1; n],
            },
            vertices.to_vec(),
        )
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total vertex weight.
    pub(crate) fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Neighbor slice of `v` (with parallel edge-weight slice).
    fn nbrs(&self, v: usize) -> (&[usize], &[u64]) {
        let r = self.adj_ptr[v]..self.adj_ptr[v + 1];
        (&self.adj[r.clone()], &self.ewgt[r])
    }

    /// Heavy-edge matching: greedily match each unmatched vertex with its
    /// heaviest unmatched neighbor. Returns `match_of[v]` (self-matched
    /// vertices map to themselves).
    pub(crate) fn heavy_edge_matching(&self, seed: u64) -> Vec<usize> {
        let mut match_of = vec![usize::MAX; self.n];
        // Visit vertices in a seeded pseudo-random order to avoid
        // pathological sequential bias.
        let mut order: Vec<usize> = (0..self.n).collect();
        let mut state = seed | 1;
        for i in (1..self.n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        for &v in &order {
            if match_of[v] != usize::MAX {
                continue;
            }
            let (nbrs, wgts) = self.nbrs(v);
            let mut best = usize::MAX;
            let mut best_w = 0u64;
            for (&u, &w) in nbrs.iter().zip(wgts) {
                if u != v && match_of[u] == usize::MAX && w > best_w {
                    best = u;
                    best_w = w;
                }
            }
            if best != usize::MAX {
                match_of[v] = best;
                match_of[best] = v;
            } else {
                match_of[v] = v;
            }
        }
        match_of
    }

    /// Collapse matched pairs into a coarser graph. Returns the coarse graph
    /// and `coarse_of[fine_v]`.
    pub(crate) fn coarsen(&self, match_of: &[usize]) -> (WGraph, Vec<usize>) {
        let mut coarse_of = vec![usize::MAX; self.n];
        let mut nc = 0usize;
        for v in 0..self.n {
            if coarse_of[v] != usize::MAX {
                continue;
            }
            let m = match_of[v];
            coarse_of[v] = nc;
            if m != v {
                coarse_of[m] = nc;
            }
            nc += 1;
        }
        let mut vwgt = vec![0u64; nc];
        for v in 0..self.n {
            vwgt[coarse_of[v]] += self.vwgt[v];
        }
        // Aggregate edges through a per-coarse-vertex scatter map.
        let mut adj_ptr = vec![0usize; nc + 1];
        let mut adj: Vec<usize> = Vec::with_capacity(self.adj.len() / 2);
        let mut ewgt: Vec<u64> = Vec::with_capacity(self.adj.len() / 2);
        let mut mark = vec![usize::MAX; nc];
        let mut slot = vec![0usize; nc];
        // Fine vertices grouped per coarse vertex.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); nc];
        for v in 0..self.n {
            members[coarse_of[v]].push(v);
        }
        for (c, mem) in members.iter().enumerate() {
            let start = adj.len();
            for &v in mem {
                let (nbrs, wgts) = self.nbrs(v);
                for (&u, &w) in nbrs.iter().zip(wgts) {
                    let cu = coarse_of[u];
                    if cu == c {
                        continue; // internal edge collapses
                    }
                    if mark[cu] != c {
                        mark[cu] = c;
                        slot[cu] = adj.len();
                        adj.push(cu);
                        ewgt.push(w);
                    } else {
                        ewgt[slot[cu]] += w;
                    }
                }
            }
            adj_ptr[c + 1] = adj.len();
            let _ = start;
        }
        (
            WGraph {
                n: nc,
                adj_ptr,
                adj,
                ewgt,
                vwgt,
            },
            coarse_of,
        )
    }

    /// Initial bisection by weighted BFS region growing from a
    /// pseudo-peripheral vertex: grow side A until it holds half the weight.
    #[cfg(test)]
    fn grow_bisection(&self) -> Vec<u8> {
        let far0 = self.far_from(0);
        self.grow_bisection_from(self.far_from(far0))
    }

    /// Farthest vertex from `start` by BFS.
    pub(crate) fn far_from(&self, start: usize) -> usize {
        let mut seen = vec![false; self.n];
        let mut q = std::collections::VecDeque::new();
        seen[start] = true;
        q.push_back(start);
        let mut last = start;
        while let Some(v) = q.pop_front() {
            last = v;
            for &u in self.nbrs(v).0 {
                if !seen[u] {
                    seen[u] = true;
                    q.push_back(u);
                }
            }
        }
        last
    }

    /// Region-grow side A from `start` until half the weight is absorbed.
    pub(crate) fn grow_bisection_from(&self, start: usize) -> Vec<u8> {
        let mut part = vec![SIDE_B; self.n];
        if self.n == 0 {
            return part;
        }
        let half = self.total_vwgt() / 2;
        let mut grown = 0u64;
        let mut seen = vec![false; self.n];
        let mut q = std::collections::VecDeque::new();
        seen[start] = true;
        q.push_back(start);
        while let Some(v) = q.pop_front() {
            if grown >= half {
                break;
            }
            part[v] = SIDE_A;
            grown += self.vwgt[v];
            for &u in self.nbrs(v).0 {
                if !seen[u] {
                    seen[u] = true;
                    q.push_back(u);
                }
            }
        }
        // Disconnected leftovers: assign to the lighter side.
        if grown < half {
            for v in 0..self.n {
                if part[v] == SIDE_B && !seen[v] && grown < half {
                    part[v] = SIDE_A;
                    grown += self.vwgt[v];
                }
            }
        }
        part
    }

    /// Turn a bisection into a vertex separator: take the boundary vertices
    /// of the lighter boundary side.
    pub(crate) fn separator_from_cut(&self, part: &mut [u8]) {
        let mut boundary_a = Vec::new();
        let mut boundary_b = Vec::new();
        let (mut wa, mut wb) = (0u64, 0u64);
        for v in 0..self.n {
            let mut cut = false;
            for &u in self.nbrs(v).0 {
                if part[u] != part[v] {
                    cut = true;
                    break;
                }
            }
            if cut {
                if part[v] == SIDE_A {
                    boundary_a.push(v);
                    wa += self.vwgt[v];
                } else {
                    boundary_b.push(v);
                    wb += self.vwgt[v];
                }
            }
        }
        let chosen = if wa <= wb { boundary_a } else { boundary_b };
        for v in chosen {
            part[v] = SEP;
        }
    }

    /// Separator weight and side weights.
    pub fn weights(&self, part: &[u8]) -> (u64, u64, u64) {
        let (mut wa, mut wb, mut ws) = (0, 0, 0);
        for (v, &side) in part.iter().enumerate() {
            match side {
                SIDE_A => wa += self.vwgt[v],
                SIDE_B => wb += self.vwgt[v],
                _ => ws += self.vwgt[v],
            }
        }
        (wa, wb, ws)
    }

    /// One FM-style refinement sweep (Ashcraft–Liu vertex moves): move a
    /// separator vertex entirely into one side when the separator shrinks
    /// (its neighbors on the other side join the separator) and balance is
    /// preserved. Repeats until no improving move exists.
    pub(crate) fn fm_refine(&self, part: &mut [u8], max_imbalance: f64) {
        let total = self.total_vwgt() as f64;
        loop {
            let (wa, wb, _) = self.weights(part);
            let mut best: Option<(i64, usize, u8)> = None;
            for v in 0..self.n {
                if part[v] != SEP {
                    continue;
                }
                for side in [SIDE_A, SIDE_B] {
                    let other = 1 - side;
                    // Cost: other-side neighbors must enter the separator.
                    let mut incoming = 0u64;
                    for &u in self.nbrs(v).0 {
                        if part[u] == other {
                            incoming += self.vwgt[u];
                        }
                    }
                    let gain = self.vwgt[v] as i64 - incoming as i64;
                    // Balance check after the move.
                    let (na, nb) = if side == SIDE_A {
                        (wa + self.vwgt[v], wb.saturating_sub(incoming))
                    } else {
                        (wa.saturating_sub(incoming), wb + self.vwgt[v])
                    };
                    let imbalance = (na.max(nb) as f64) / total;
                    if imbalance > 0.5 + max_imbalance {
                        continue;
                    }
                    if gain > 0 && best.is_none_or(|(g, _, _)| gain > g) {
                        best = Some((gain, v, side));
                    }
                }
            }
            let Some((_, v, side)) = best else { break };
            let other = 1 - side;
            part[v] = side;
            // Other-side neighbors become separator vertices.
            for k in self.adj_ptr[v]..self.adj_ptr[v + 1] {
                let u = self.adj[k];
                if part[u] == other {
                    part[u] = SEP;
                }
            }
        }
    }

    /// Project a coarse partition to this (finer) graph via `coarse_of`.
    pub(crate) fn project(&self, coarse_part: &[u8], coarse_of: &[usize]) -> Vec<u8> {
        (0..self.n).map(|v| coarse_part[coarse_of[v]]).collect()
    }
}

/// Compute a vertex separator of the subgraph of `g` induced by `vertices`
/// using the multilevel scheme. Returns `(separator, side_a, side_b)` in
/// global vertex ids, or `None` when the subgraph is too small or the
/// separator degenerates.
pub(crate) fn multilevel_separator(
    g: &Graph,
    vertices: &[usize],
) -> Option<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    if vertices.len() < 8 {
        return None;
    }
    let (fine, globals) = WGraph::induced(g, vertices);
    // Coarsening chain.
    let mut chain: Vec<(WGraph, Vec<usize>)> = Vec::new(); // (graph, coarse_of from previous)
    let mut cur = fine;
    let mut seed = 0x5DEECE66D ^ vertices.len() as u64;
    while cur.n() > 64 {
        let matching = cur.heavy_edge_matching(seed);
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let (coarse, coarse_of) = cur.coarsen(&matching);
        if coarse.n() as f64 > 0.95 * cur.n() as f64 {
            break; // matching stalled (e.g. star graphs)
        }
        chain.push((cur, coarse_of));
        cur = coarse;
    }
    // Initial separator on the coarsest graph: several region-growing
    // starts, keep the smallest refined separator (METIS-style multi-start).
    let starts = {
        let a = cur.far_from(0);
        let b = cur.far_from(a);
        let mid = cur.n() / 2;
        [b, a, mid, cur.n() / 3]
    };
    let mut part: Option<Vec<u8>> = None;
    let mut best_sep = u64::MAX;
    for &start in &starts {
        let mut cand = cur.grow_bisection_from(start.min(cur.n() - 1));
        cur.separator_from_cut(&mut cand);
        cur.fm_refine(&mut cand, 0.15);
        let (wa, wb, ws) = cur.weights(&cand);
        if wa == 0 || wb == 0 {
            continue;
        }
        if ws < best_sep {
            best_sep = ws;
            part = Some(cand);
        }
    }
    let mut part = part?;
    // Project + refine back up the chain.
    while let Some((finer, coarse_of)) = chain.pop() {
        part = finer.project(&part, &coarse_of);
        finer.fm_refine(&mut part, 0.15);
    }
    let mut sep = Vec::new();
    let mut a = Vec::new();
    let mut b = Vec::new();
    for (li, &gv) in globals.iter().enumerate() {
        match part[li] {
            SIDE_A => a.push(gv),
            SIDE_B => b.push(gv),
            _ => sep.push(gv),
        }
    }
    if sep.is_empty() || a.is_empty() || b.is_empty() {
        return None;
    }
    Some((sep, a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::gen::{laplacian_2d, thermal_like};

    fn grid_graph(nx: usize, ny: usize) -> Graph {
        Graph::from_sym(&laplacian_2d(nx, ny))
    }

    #[test]
    fn induced_subgraph_preserves_structure() {
        let g = grid_graph(4, 4);
        let vertices: Vec<usize> = (0..8).collect(); // bottom two rows
        let (wg, globals) = WGraph::induced(&g, &vertices);
        assert_eq!(wg.n(), 8);
        assert_eq!(globals, vertices);
        // Vertex 0 has neighbors 1 and 4 inside the subgraph.
        assert_eq!(wg.nbrs(0).0, &[1, 4]);
        assert_eq!(wg.total_vwgt(), 8);
    }

    #[test]
    fn matching_is_symmetric_and_complete() {
        let g = grid_graph(6, 6);
        let (wg, _) = WGraph::induced(&g, &(0..36).collect::<Vec<_>>());
        let m = wg.heavy_edge_matching(7);
        for v in 0..36 {
            assert!(m[v] < 36);
            assert_eq!(m[m[v]], v, "matching not symmetric at {v}");
        }
    }

    #[test]
    fn coarsening_preserves_total_weight() {
        let g = grid_graph(8, 8);
        let (wg, _) = WGraph::induced(&g, &(0..64).collect::<Vec<_>>());
        let m = wg.heavy_edge_matching(3);
        let (coarse, coarse_of) = wg.coarsen(&m);
        assert_eq!(coarse.total_vwgt(), 64);
        assert!(coarse.n() < 64);
        assert!(coarse.n() >= 32);
        for &c in coarse_of.iter().take(64) {
            assert!(c < coarse.n());
        }
        // Coarse adjacency must not contain self loops.
        for c in 0..coarse.n() {
            assert!(!coarse.nbrs(c).0.contains(&c));
        }
    }

    #[test]
    fn bisection_is_roughly_balanced() {
        let g = grid_graph(10, 10);
        let (wg, _) = WGraph::induced(&g, &(0..100).collect::<Vec<_>>());
        let part = wg.grow_bisection();
        let (wa, wb, ws) = wg.weights(&part);
        assert_eq!(ws, 0);
        assert!(wa >= 30 && wb >= 30, "wa={wa} wb={wb}");
    }

    #[test]
    fn separator_disconnects_sides() {
        let g = grid_graph(9, 9);
        let vertices: Vec<usize> = (0..81).collect();
        let (sep, a, b) = multilevel_separator(&g, &vertices).unwrap();
        assert_eq!(sep.len() + a.len() + b.len(), 81);
        let in_a: std::collections::HashSet<_> = a.iter().copied().collect();
        for &v in &b {
            for &w in g.neighbors(v) {
                assert!(!in_a.contains(&w), "edge {v}-{w} crosses the separator");
            }
        }
        // Grid separator should be near sqrt(n).
        assert!(sep.len() <= 20, "separator too big: {}", sep.len());
    }

    #[test]
    fn fm_never_grows_the_separator() {
        let g = Graph::from_sym(&thermal_like(12, 12, 0.4, 3));
        let vertices: Vec<usize> = (0..g.n()).collect();
        let (wg, _) = WGraph::induced(&g, &vertices);
        let mut part = wg.grow_bisection();
        wg.separator_from_cut(&mut part);
        let (_, _, before) = wg.weights(&part);
        wg.fm_refine(&mut part, 0.15);
        let (wa, wb, after) = wg.weights(&part);
        assert!(after <= before, "fm grew separator {before} -> {after}");
        assert!(wa > 0 && wb > 0);
        // Separator property must hold after refinement.
        for v in 0..wg.n() {
            if part[v] == SIDE_A {
                for &u in wg.nbrs(v).0 {
                    assert!(part[u] != SIDE_B, "direct A-B edge after FM");
                }
            }
        }
    }

    #[test]
    fn tiny_subgraphs_decline() {
        let g = grid_graph(3, 2);
        assert!(multilevel_separator(&g, &[0, 1, 2]).is_none());
    }
}
