//! Elimination tree and postordering.
//!
//! The elimination tree (paper §2.2) encodes the column dependencies of the
//! factorization: `parent[j]` is the row of the first off-diagonal nonzero
//! of column `j` of `L`. Supernode detection requires the matrix to be
//! postordered — children numbered before parents, subtrees contiguous — so
//! [`postorder`] produces the reordering that the analysis composes with the
//! fill-reducing permutation.

use sympack_ordering::Permutation;
use sympack_sparse::SymPattern;

/// Elimination tree by Liu's algorithm with path compression.
/// `parent[v] == usize::MAX` marks a root.
pub fn etree(a: &SymPattern) -> Vec<usize> {
    let identity: Vec<usize> = (0..a.n()).collect();
    etree_permuted(a, &identity)
}

/// Elimination tree of `P·A·Pᵀ` without forming it: `new_of[old] = new` is
/// the inverse of the `perm[new] = old` that would permute `a`. The tree is
/// in the *new* labels.
pub fn etree_permuted(a: &SymPattern, new_of: &[usize]) -> Vec<usize> {
    let n = a.n();
    assert_eq!(new_of.len(), n);
    // Liu's algorithm must see rows in increasing order, each with its
    // columns k < row: transpose the strictly-lower entries (in their new
    // positions) into one flat CSR.
    let moved = |r: usize, c: usize| {
        let (x, y) = (new_of[r], new_of[c]);
        (x.max(y), x.min(y))
    };
    let mut row_ptr = vec![0usize; n + 1];
    for c in 0..n {
        for &r in &a.col_rows(c)[1..] {
            row_ptr[moved(r, c).0 + 1] += 1;
        }
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let mut row_cols = vec![0usize; row_ptr[n]];
    let mut next = row_ptr.clone();
    for c in 0..n {
        for &r in &a.col_rows(c)[1..] {
            let (i, k) = moved(r, c);
            row_cols[next[i]] = k;
            next[i] += 1;
        }
    }
    let mut parent = vec![usize::MAX; n];
    let mut ancestor = vec![usize::MAX; n];
    for i in 0..n {
        for &k in &row_cols[row_ptr[i]..row_ptr[i + 1]] {
            let mut v = k;
            while ancestor[v] != usize::MAX && ancestor[v] != i {
                let next = ancestor[v];
                ancestor[v] = i;
                v = next;
            }
            if ancestor[v] == usize::MAX {
                ancestor[v] = i;
                parent[v] = i;
            }
        }
    }
    parent
}

/// The tree `parent` in the labels of `post` (`post[new] = old`): the
/// elimination tree of the matrix permuted by `post`, with no second pass
/// over the matrix. A postorder is a topological order of the tree, and
/// reordering a matrix by a topological order of its elimination tree leaves
/// the filled graph — hence the tree — the same up to that relabeling (Liu,
/// "The role of elimination trees in sparse factorization", 1990).
pub fn relabel(parent: &[usize], post: &Permutation) -> Vec<usize> {
    let new_of = post.inverse();
    post.as_slice()
        .iter()
        .map(|&old| match parent[old] {
            usize::MAX => usize::MAX,
            p => new_of.old_of(p),
        })
        .collect()
}

/// Children of every vertex as one flat CSR `(ptr, children)`: the children
/// of `v` are `children[ptr[v]..ptr[v + 1]]`, ascending.
fn children_lists(parent: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let n = parent.len();
    let mut ptr = vec![0usize; n + 1];
    for &p in parent {
        if p != usize::MAX {
            ptr[p + 1] += 1;
        }
    }
    for v in 0..n {
        ptr[v + 1] += ptr[v];
    }
    let mut children = vec![0usize; ptr[n]];
    let mut next = ptr.clone();
    for (v, &p) in parent.iter().enumerate() {
        if p != usize::MAX {
            children[next[p]] = v;
            next[p] += 1;
        }
    }
    (ptr, children)
}

/// Depth-first postorder of the forest. Returns a [`Permutation`] with
/// `perm[new] = old`, i.e. `perm` lists vertices in postorder.
pub fn postorder(parent: &[usize]) -> Permutation {
    let n = parent.len();
    let (ptr, children) = children_lists(parent);
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<(usize, usize)> = Vec::new(); // (vertex, next child slot)
    for root in 0..n {
        if parent[root] != usize::MAX {
            continue;
        }
        stack.push((root, ptr[root]));
        while let Some(&mut (v, ref mut slot)) = stack.last_mut() {
            if *slot < ptr[v + 1] {
                let c = children[*slot];
                *slot += 1;
                stack.push((c, ptr[c]));
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    Permutation::from_vec(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_sparse::{Coo, SparseSym};

    fn tridiag(n: usize) -> SparseSym {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, 4.0).unwrap();
            if i + 1 < n {
                c.push_sym(i + 1, i, -1.0).unwrap();
            }
        }
        c.to_csc().to_lower_sym()
    }

    #[test]
    fn etree_of_tridiagonal_is_path() {
        let p = etree(tridiag(5).pattern());
        assert_eq!(p, vec![1, 2, 3, 4, usize::MAX]);
    }

    #[test]
    fn etree_matches_ordering_crate() {
        let a = sympack_sparse::gen::random_spd(50, 5, 21);
        assert_eq!(etree(a.pattern()), sympack_ordering::metrics::etree(&a));
    }

    #[test]
    fn postorder_puts_children_before_parents() {
        let a = sympack_sparse::gen::laplacian_2d(6, 6);
        let parent = etree(a.pattern());
        let post = postorder(&parent);
        let inv = post.inverse();
        for v in 0..parent.len() {
            if parent[v] != usize::MAX {
                assert!(
                    inv.old_of(v) < inv.old_of(parent[v]),
                    "child {v} not before parent {}",
                    parent[v]
                );
            }
        }
    }

    #[test]
    fn postorder_subtrees_are_contiguous() {
        let a = sympack_sparse::gen::random_spd(40, 4, 9);
        let parent = etree(a.pattern());
        let post = postorder(&parent);
        let inv = post.inverse();
        // Size of each subtree.
        let mut size = vec![1usize; parent.len()];
        for &v in post.as_slice() {
            if parent[v] != usize::MAX {
                size[parent[v]] += size[v];
            }
        }
        // In a postorder, vertex v occupies positions
        // [pos(v) - size(v) + 1, pos(v)] for its whole subtree.
        for v in 0..parent.len() {
            let pos = inv.old_of(v);
            assert!(pos + 1 >= size[v]);
        }
    }

    #[test]
    fn children_lists_inverse_of_parent() {
        let parent = vec![2, 2, 4, 4, usize::MAX];
        let (ptr, ch) = children_lists(&parent);
        assert_eq!(ch[ptr[2]..ptr[3]], [0, 1]);
        assert_eq!(ch[ptr[4]..ptr[5]], [2, 3]);
        assert_eq!(ptr[0], ptr[1]);
    }
}
