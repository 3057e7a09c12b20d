//! Undirected adjacency view of a symmetric sparse pattern.
//!
//! The fill-reducing orderings (nested dissection, AMD, RCM) operate on the
//! adjacency graph of the matrix: vertices are rows/columns, edges are
//! off-diagonal nonzeros. This module builds that graph (both directions
//! stored, diagonal dropped) from a [`SparseSym`].

use crate::sym::SparseSym;

/// Compressed adjacency of an undirected graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    n: usize,
    adj_ptr: Vec<usize>,
    adj: Vec<usize>,
}

impl Graph {
    /// Build the adjacency graph of a symmetric matrix pattern, dropping the
    /// diagonal and mirroring each stored lower-triangle edge.
    pub fn from_sym(a: &SparseSym) -> Self {
        let n = a.n();
        let mut deg = vec![0usize; n];
        for c in 0..n {
            for &r in &a.col_rows(c)[1..] {
                deg[c] += 1;
                deg[r] += 1;
            }
        }
        let mut adj_ptr = vec![0usize; n + 1];
        for v in 0..n {
            adj_ptr[v + 1] = adj_ptr[v] + deg[v];
        }
        let mut adj = vec![0usize; adj_ptr[n]];
        let mut next = adj_ptr.clone();
        for c in 0..n {
            for &r in &a.col_rows(c)[1..] {
                adj[next[c]] = r;
                next[c] += 1;
                adj[next[r]] = c;
                next[r] += 1;
            }
        }
        // Sort neighbor lists for deterministic traversals.
        for v in 0..n {
            adj[adj_ptr[v]..adj_ptr[v + 1]].sort_unstable();
        }
        Graph { n, adj_ptr, adj }
    }

    /// Build directly from edge list (used in tests and by the dissection
    /// recursion on subgraphs).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut deg = vec![0usize; n];
        for &(a, b) in edges {
            assert!(a < n && b < n && a != b, "invalid edge ({a},{b})");
            deg[a] += 1;
            deg[b] += 1;
        }
        let mut adj_ptr = vec![0usize; n + 1];
        for v in 0..n {
            adj_ptr[v + 1] = adj_ptr[v] + deg[v];
        }
        let mut adj = vec![0usize; adj_ptr[n]];
        let mut next = adj_ptr.clone();
        for &(a, b) in edges {
            adj[next[a]] = b;
            next[a] += 1;
            adj[next[b]] = a;
            next[b] += 1;
        }
        for v in 0..n {
            adj[adj_ptr[v]..adj_ptr[v + 1]].sort_unstable();
        }
        Graph { n, adj_ptr, adj }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Neighbors of vertex `v`, sorted.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[self.adj_ptr[v]..self.adj_ptr[v + 1]]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj_ptr[v + 1] - self.adj_ptr[v]
    }

    /// Connected components; returns `(component_id_per_vertex, count)`.
    pub fn components(&self) -> (Vec<usize>, usize) {
        let mut comp = vec![usize::MAX; self.n];
        let mut count = 0;
        let mut stack = Vec::new();
        for s in 0..self.n {
            if comp[s] != usize::MAX {
                continue;
            }
            comp[s] = count;
            stack.push(s);
            while let Some(v) = stack.pop() {
                for &w in self.neighbors(v) {
                    if comp[w] == usize::MAX {
                        comp[w] = count;
                        stack.push(w);
                    }
                }
            }
            count += 1;
        }
        (comp, count)
    }

    /// [`Graph::bfs_levels_into`] with a scratch of its own: returns
    /// `(level_per_vertex, last_visited)`.
    #[cfg(test)]
    fn bfs_levels(&self, start: usize, mask: &[bool]) -> (Vec<usize>, usize) {
        let mut scratch = BfsScratch::new(self.n);
        let last = self.bfs_levels_into(start, mask, &mut scratch);
        (scratch.level, last)
    }

    /// Breadth-first levels from `start`, restricted to vertices where
    /// `mask[v]` is true, into a reused [`BfsScratch`]: costs the size of the
    /// component searched, not of the graph. Returns the last vertex visited;
    /// the levels (`usize::MAX` for unreached vertices) stay readable in
    /// `scratch` until its next search.
    pub fn bfs_levels_into(&self, start: usize, mask: &[bool], scratch: &mut BfsScratch) -> usize {
        let BfsScratch { level, order } = scratch;
        for &v in order.iter() {
            level[v] = usize::MAX;
        }
        order.clear();
        level[start] = 0;
        order.push(start);
        // `order` doubles as the FIFO queue: vertices are visited in the
        // order they were pushed.
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &w in self.neighbors(v) {
                if mask[w] && level[w] == usize::MAX {
                    level[w] = level[v] + 1;
                    order.push(w);
                }
            }
        }
        order[order.len() - 1]
    }
}

/// Reusable state of [`Graph::bfs_levels_into`]: the level array (all
/// `usize::MAX` outside the last search) and the last search's visit order,
/// which is also what the next search resets.
#[derive(Debug)]
pub struct BfsScratch {
    level: Vec<usize>,
    order: Vec<usize>,
}

impl BfsScratch {
    /// Scratch for searches of a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        BfsScratch {
            level: vec![usize::MAX; n],
            order: Vec::new(),
        }
    }

    /// Level of every vertex in the last search (`usize::MAX` if unreached).
    pub fn levels(&self) -> &[usize] {
        &self.level
    }

    /// Vertices of the last search in the order they were visited.
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::laplacian_2d;

    #[test]
    fn from_sym_mirrors_edges() {
        let a = laplacian_2d(3, 2);
        let g = Graph::from_sym(&a);
        assert_eq!(g.n(), 6);
        // Node 0 has right neighbor 1 and up neighbor 3.
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.degree(4), 3);
        // Total directed entries = 2 * (#off-diagonal nnz in lower triangle).
        assert_eq!(g.adj.len(), 2 * (a.nnz() - a.n()));
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = Graph::from_edges(5, &[(0, 1), (3, 4)]);
        let (comp, count) = g.components();
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[3], comp[4]);
        assert!(comp[2] != comp[0] && comp[2] != comp[3]);
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mask = vec![true; 4];
        let (level, last) = g.bfs_levels(0, &mask);
        assert_eq!(level, vec![0, 1, 2, 3]);
        assert_eq!(last, 3);
    }

    #[test]
    fn bfs_into_a_reused_scratch_matches_the_allocating_wrapper() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (4, 5), (1, 3)]);
        let mask = vec![true, true, true, true, true, true, false];
        let mut scratch = BfsScratch::new(7);
        for start in [0, 4, 3, 5, 0] {
            let (level, last) = g.bfs_levels(start, &mask);
            assert_eq!(g.bfs_levels_into(start, &mask, &mut scratch), last);
            assert_eq!(scratch.levels(), &level[..]);
            assert_eq!(scratch.order().last(), Some(&last));
        }
    }

    #[test]
    fn bfs_respects_mask() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mask = vec![true, true, false, true];
        let (level, _) = g.bfs_levels(0, &mask);
        assert_eq!(level[1], 1);
        assert_eq!(level[2], usize::MAX);
        assert_eq!(level[3], usize::MAX);
    }
}
