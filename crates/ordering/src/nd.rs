//! Nested-dissection ordering.
//!
//! George's recursive vertex-separator scheme, the algorithm implemented by
//! the Scotch library that the paper uses: find a small vertex separator
//! splitting the graph into two balanced halves, order the halves
//! recursively, and number the separator vertices last. Separators are taken
//! from the middle BFS level of a pseudo-peripheral traversal and thinned to
//! the vertices actually adjacent to the far side — a level-set separator,
//! the classical construction.
//!
//! The two halves below a separator are independent, so with more than one
//! worker ([`crate::compute_ordering_on`]) the recursion orders the right half
//! of a subgraph larger than [`FORK_MIN`] on a scoped thread while the calling
//! thread orders the left. Each half writes its own output and the pieces are
//! concatenated in the serial order — left, right, separator — so the
//! permutation is the same for every worker count.

use crate::minimum_degree::{min_degree_graph, min_degree_masks, MASK_MAX};
use crate::perm::Permutation;
use crate::rcm::pseudo_peripheral;
use sympack_sparse::graph::{BfsScratch, Graph};
use sympack_sparse::SparseSym;

/// Tuning knobs for the dissection recursion.
#[derive(Debug, Clone)]
pub struct NdOptions {
    /// Subgraphs at or below this size are ordered with minimum degree
    /// instead of being dissected further.
    pub leaf_size: usize,
}

impl Default for NdOptions {
    fn default() -> Self {
        NdOptions { leaf_size: 64 }
    }
}

/// Subgraphs of at most this many vertices are never split across threads:
/// ordering one costs a few milliseconds at most, so a thread spawn and an
/// O(n) scratch would be a visible share of it.
pub const FORK_MIN: usize = 1024;

/// Compute a nested-dissection permutation (`perm[new] = old`).
pub fn nested_dissection(a: &SparseSym, opts: &NdOptions) -> Permutation {
    nested_dissection_on(a, opts, 1)
}

/// [`nested_dissection`] on up to `workers` threads (the calling thread
/// included). The result does not depend on `workers`; at one worker nothing
/// is spawned.
pub(crate) fn nested_dissection_on(a: &SparseSym, opts: &NdOptions, workers: usize) -> Permutation {
    let g = Graph::from_sym(a);
    let n = g.n();
    let mut order = Vec::with_capacity(n);
    let vertices: Vec<usize> = (0..n).collect();
    let mut scratch = Scratch::new(n);
    dissect(&g, vertices, opts, workers, &mut scratch, &mut order);
    debug_assert_eq!(order.len(), n);
    Permutation::from_vec(order)
}

/// The O(n) work arrays of the recursion, allocated once per ordering. Each
/// is all-clear between uses: whoever marks a vertex set unmarks the same set
/// when done, so a recursion node costs its own size, not the graph's.
struct Scratch {
    /// Membership in the subgraph currently being split.
    mask: Vec<bool>,
    /// Visited flags of [`masked_components`].
    seen: Vec<bool>,
    /// Global → leaf-local index of [`order_leaf`] (`usize::MAX` = outside).
    local: Vec<usize>,
    bfs: BfsScratch,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            mask: vec![false; n],
            seen: vec![false; n],
            local: vec![usize::MAX; n],
            bfs: BfsScratch::new(n),
        }
    }

    fn set_mask(&mut self, vertices: &[usize], on: bool) {
        for &v in vertices {
            self.mask[v] = on;
        }
    }
}

/// Recursively order `vertices` (a subset of `g`'s vertex set), appending the
/// resulting order (old indices) to `out`, on up to `workers` threads.
fn dissect(
    g: &Graph,
    vertices: Vec<usize>,
    opts: &NdOptions,
    workers: usize,
    scratch: &mut Scratch,
    out: &mut Vec<usize>,
) {
    if vertices.len() <= opts.leaf_size {
        order_leaf(g, &vertices, &mut scratch.local, out);
        return;
    }
    scratch.set_mask(&vertices, true);
    // The search rooted at a pseudo-peripheral vertex is the separator's
    // level structure, and settles connectivity on the way: it reached every
    // vertex, or the subgraph falls apart and each component is handled
    // separately.
    pseudo_peripheral(g, vertices[0], &scratch.mask, &mut scratch.bfs);
    if scratch.bfs.order().len() < vertices.len() {
        let comps = masked_components(g, &vertices, &scratch.mask, &mut scratch.seen);
        scratch.set_mask(&vertices, false);
        for comp in comps {
            dissect(g, comp, opts, workers, scratch, out);
        }
        return;
    }
    let sep_result = level_set_separator(g, &vertices, &scratch.mask, &scratch.bfs);
    scratch.set_mask(&vertices, false);
    let Some((sep, left, right)) = sep_result else {
        // No usable separator (e.g. clique-like subgraph): fall back to MD.
        order_leaf(g, &vertices, &mut scratch.local, out);
        return;
    };
    if workers > 1 && vertices.len() > FORK_MIN {
        // The right half gets its own scratch and output and half the
        // budget; the caller keeps the rest for the left half.
        let right_workers = workers / 2;
        let right_order = std::thread::scope(|s| {
            let forked = s.spawn(|| {
                let mut own = Vec::with_capacity(right.len());
                let mut scratch = Scratch::new(g.n());
                dissect(g, right, opts, right_workers, &mut scratch, &mut own);
                own
            });
            dissect(g, left, opts, workers - right_workers, scratch, out);
            forked.join().expect("the right half's ordering panicked")
        });
        out.extend_from_slice(&right_order);
    } else {
        dissect(g, left, opts, workers, scratch, out);
        dissect(g, right, opts, workers, scratch, out);
    }
    out.extend_from_slice(&sep);
}

/// Order a leaf subgraph with minimum degree on the induced subgraph: on
/// `u64` adjacency masks filled straight from `g` up to [`MASK_MAX`]
/// vertices, on a quotient graph above (the no-separator fallback).
/// `local` is all `usize::MAX` on entry and on return.
fn order_leaf(g: &Graph, vertices: &[usize], local: &mut [usize], out: &mut Vec<usize>) {
    for (li, &v) in vertices.iter().enumerate() {
        local[v] = li;
    }
    let index: &[usize] = local;
    // The leaf-local neighbours of leaf vertex `li`.
    let induced = move |li: usize| {
        g.neighbors(vertices[li])
            .iter()
            .map(move |&w| index[w])
            .filter(|&lw| lw != usize::MAX)
    };
    if vertices.len() <= MASK_MAX {
        let mut adj = [0u64; MASK_MAX];
        for (li, mask) in adj[..vertices.len()].iter_mut().enumerate() {
            *mask = induced(li).fold(0, |m, lw| m | 1 << lw);
        }
        min_degree_masks(&mut adj[..vertices.len()], |li| out.push(vertices[li]));
    } else {
        let edges: Vec<(usize, usize)> = (0..vertices.len())
            .flat_map(|li| {
                induced(li)
                    .filter(move |&lw| lw < li)
                    .map(move |lw| (li, lw))
            })
            .collect();
        let p = min_degree_graph(&Graph::from_edges(vertices.len(), &edges));
        out.extend(p.as_slice().iter().map(|&li| vertices[li]));
    }
    for &v in vertices {
        local[v] = usize::MAX;
    }
}

/// Connected components of the masked subgraph. `seen` is all-false on entry
/// and on return.
fn masked_components(
    g: &Graph,
    vertices: &[usize],
    mask: &[bool],
    seen: &mut [bool],
) -> Vec<Vec<usize>> {
    let mut comps = Vec::new();
    let mut stack = Vec::new();
    for &s in vertices {
        if seen[s] {
            continue;
        }
        let mut comp = Vec::new();
        seen[s] = true;
        stack.push(s);
        while let Some(v) = stack.pop() {
            comp.push(v);
            for &w in g.neighbors(v) {
                if mask[w] && !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        comps.push(comp);
    }
    for &v in vertices {
        seen[v] = false;
    }
    comps
}

/// Find a level-set vertex separator of the connected masked subgraph from
/// its level structure in `bfs` (the search rooted at a pseudo-peripheral
/// vertex).
///
/// Returns `(separator, left_part, right_part)`; `None` when the BFS has too
/// few levels to split (diameter ≤ 1).
fn level_set_separator(
    g: &Graph,
    vertices: &[usize],
    mask: &[bool],
    bfs: &BfsScratch,
) -> Option<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    let levels = bfs.levels();
    let far = *bfs.order().last().expect("a search visits its root");
    let max_level = levels[far];
    if max_level < 2 {
        return None;
    }
    // Choose the level whose removal best balances the halves: the median
    // level by vertex count.
    let half = vertices.len() / 2;
    let mut below = 0usize;
    let mut sep_level = max_level / 2;
    let mut counts = vec![0usize; max_level + 1];
    for &v in vertices.iter() {
        counts[levels[v]] += 1;
    }
    for (l, &c) in counts.iter().enumerate() {
        below += c;
        if below >= half && l >= 1 && l < max_level {
            sep_level = l;
            break;
        }
    }
    // Thin the level: keep only vertices with a neighbor strictly above.
    let mut sep = Vec::new();
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &v in vertices {
        let l = levels[v];
        if l < sep_level {
            left.push(v);
        } else if l > sep_level {
            right.push(v);
        } else {
            let has_upper = g
                .neighbors(v)
                .iter()
                .any(|&w| mask[w] && levels[w] == l + 1);
            if has_upper {
                sep.push(v);
            } else {
                left.push(v);
            }
        }
    }
    if left.is_empty() || right.is_empty() || sep.is_empty() {
        return None;
    }
    Some((sep, left, right))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::factor_nnz;
    use sympack_sparse::gen::{laplacian_2d, laplacian_3d, thermal_like};

    #[test]
    fn produces_valid_permutation() {
        let a = laplacian_2d(13, 11);
        let p = nested_dissection(&a, &NdOptions::default());
        p.validate().unwrap();
        assert_eq!(p.len(), 143);
    }

    #[test]
    fn beats_natural_ordering_on_2d_grid() {
        let a = laplacian_2d(24, 24);
        let nd = nested_dissection(&a, &NdOptions { leaf_size: 16 });
        let nd_nnz = factor_nnz(&a, &nd);
        let nat_nnz = factor_nnz(&a, &Permutation::identity(a.n()));
        assert!(
            (nd_nnz as f64) < 0.8 * nat_nnz as f64,
            "nd {nd_nnz} vs natural {nat_nnz}"
        );
    }

    #[test]
    fn beats_natural_ordering_on_3d_grid() {
        let a = laplacian_3d(8, 8, 8);
        let nd = nested_dissection(&a, &NdOptions { leaf_size: 32 });
        let nd_nnz = factor_nnz(&a, &nd);
        let nat_nnz = factor_nnz(&a, &Permutation::identity(a.n()));
        assert!(nd_nnz < nat_nnz, "nd {nd_nnz} vs natural {nat_nnz}");
    }

    #[test]
    fn handles_irregular_graphs() {
        let a = thermal_like(15, 15, 0.4, 5);
        let p = nested_dissection(&a, &NdOptions { leaf_size: 10 });
        p.validate().unwrap();
    }

    #[test]
    fn tiny_graphs_fall_through_to_leaf_ordering() {
        let a = laplacian_2d(2, 2);
        let p = nested_dissection(&a, &NdOptions::default());
        p.validate().unwrap();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn separator_splits_grid() {
        let a = laplacian_2d(9, 9);
        let g = Graph::from_sym(&a);
        let vertices: Vec<usize> = (0..81).collect();
        let mask = vec![true; 81];
        let mut bfs = BfsScratch::new(81);
        pseudo_peripheral(&g, 0, &mask, &mut bfs);
        let (sep, left, right) = level_set_separator(&g, &vertices, &mask, &bfs).unwrap();
        assert_eq!(sep.len() + left.len() + right.len(), 81);
        // A 9x9 grid has a ~9-vertex separator; allow slack but require it
        // to be far smaller than the halves.
        assert!(sep.len() <= 2 * 9, "separator too large: {}", sep.len());
        assert!(!left.is_empty() && !right.is_empty());
        // No edge may cross directly between left and right.
        let in_left: std::collections::HashSet<_> = left.iter().copied().collect();
        let in_right: std::collections::HashSet<_> = right.iter().copied().collect();
        for &v in &left {
            for &w in g.neighbors(v) {
                assert!(!in_right.contains(&w), "edge {v}-{w} crosses the separator");
            }
        }
        for &v in &right {
            for &w in g.neighbors(v) {
                assert!(!in_left.contains(&w), "edge {v}-{w} crosses the separator");
            }
        }
    }
}
