//! Factor structure: column counts and supernodal row patterns.

use crate::etree::postorder;
use crate::supernodes::SupernodePartition;
use sympack_sparse::SymPattern;

/// Per-column nonzero counts of `L` (diagonal included) from the elimination
/// tree `parent`, by the skeleton-graph argument of Gilbert, Ng and Peyton:
/// row `i` of `L` is the subtree of the elimination tree spanned by the
/// columns of row `i` of `A`, so column `j` gains one entry for every row
/// subtree it is a *leaf* of, loses one for every pair of consecutive leaves
/// whose paths merge at it (their least common ancestor, found by a
/// path-compressed union-find), and otherwise inherits its children's
/// counts. One pass over the entries of `A` — never over those of `L`.
pub fn col_counts(a: &SymPattern, parent: &[usize]) -> Vec<usize> {
    const NONE: usize = usize::MAX;
    let n = a.n();
    assert_eq!(parent.len(), n);
    let post = postorder(parent);
    let post = post.as_slice();
    // first[j]: postorder index of the first descendant of j. A vertex that
    // is its own first descendant is a leaf of the tree and starts at 1 (its
    // diagonal); the others start at 0.
    let mut first = vec![NONE; n];
    let mut delta = vec![0isize; n];
    for (k, &leaf) in post.iter().enumerate() {
        if first[leaf] == NONE {
            delta[leaf] = 1;
        }
        let mut j = leaf;
        while j != NONE && first[j] == NONE {
            first[j] = k;
            j = parent[j];
        }
    }
    // Per row i: the largest first[] among its leaves so far (kept as
    // `first + 1`, 0 = none yet) and the previous leaf.
    let mut max_first = vec![0usize; n];
    let mut prev_leaf = vec![NONE; n];
    let mut ancestor: Vec<usize> = (0..n).collect();
    for &j in post {
        if parent[j] != NONE {
            delta[parent[j]] -= 1; // j's own diagonal is not its parent's
        }
        for &i in &a.col_rows(j)[1..] {
            // Is j a leaf of row i's subtree?
            if first[j] < max_first[i] {
                continue;
            }
            max_first[i] = first[j] + 1;
            delta[j] += 1;
            let prev = std::mem::replace(&mut prev_leaf[i], j);
            if prev != NONE {
                // The paths of prev and j up to i merge at their least
                // common ancestor q, which would otherwise count row i twice.
                let mut q = prev;
                while q != ancestor[q] {
                    q = ancestor[q];
                }
                let mut s = prev;
                while s != q {
                    s = std::mem::replace(&mut ancestor[s], q);
                }
                delta[q] -= 1;
            }
        }
        if parent[j] != NONE {
            ancestor[j] = parent[j];
        }
    }
    // Children precede parents in any elimination tree (parent[j] > j).
    for j in 0..n {
        if parent[j] != NONE {
            delta[parent[j]] += delta[j];
        }
    }
    delta.into_iter().map(|c| c as usize).collect()
}

/// Below-diagonal row patterns of every supernode in one flat array:
/// `patterns[s]` is the sorted global rows of supernode `s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPatterns {
    /// `rows[ptr[s]..ptr[s + 1]]` is the pattern of supernode `s`.
    ptr: Vec<usize>,
    rows: Vec<usize>,
}

impl RowPatterns {
    /// No supernodes yet; `n_supernodes` and `n_rows` size the arrays.
    pub(crate) fn with_capacity(n_supernodes: usize, n_rows: usize) -> Self {
        let mut ptr = Vec::with_capacity(n_supernodes + 1);
        ptr.push(0);
        RowPatterns {
            ptr,
            rows: Vec::with_capacity(n_rows),
        }
    }

    /// One pattern per list, in order.
    #[cfg(test)]
    pub(crate) fn from_lists(lists: &[Vec<usize>]) -> Self {
        let mut p = RowPatterns::with_capacity(lists.len(), lists.iter().map(Vec::len).sum());
        for l in lists {
            p.push(l);
        }
        p
    }

    /// Append the next supernode's pattern.
    pub(crate) fn push(&mut self, rows: &[usize]) {
        self.rows.extend_from_slice(rows);
        self.ptr.push(self.rows.len());
    }

    /// Number of supernodes.
    pub fn len(&self) -> usize {
        self.ptr.len() - 1
    }

    /// True when there is no supernode.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every pattern, concatenated.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }
}

impl std::ops::Index<usize> for RowPatterns {
    type Output = [usize];

    fn index(&self, s: usize) -> &[usize] {
        &self.rows[self.ptr[s]..self.ptr[s + 1]]
    }
}

/// Below-diagonal row patterns of every supernode.
///
/// For each supernode `s`, the pattern holds the sorted global row indices of
/// the nonzero rows of `L` strictly below the supernode's last column. These
/// are the rows of the paper's off-diagonal blocks `B(·,s)`.
///
/// The standard supernodal symbolic recursion: the pattern of `s` is the
/// union of (a) the original-matrix rows of its columns and (b) the patterns
/// of its children in the supernodal elimination tree, both restricted to
/// rows past the supernode.
pub(crate) fn sn_patterns(a: &SymPattern, partition: &SupernodePartition) -> RowPatterns {
    const NONE: usize = usize::MAX;
    let n = a.n();
    let ns = partition.n_supernodes();
    let mut patterns = RowPatterns::with_capacity(ns, a.nnz());
    // Children of each supernode as an intrusive list (any order: the union
    // is sorted afterwards).
    let mut first_child = vec![NONE; ns];
    let mut next_sibling = vec![NONE; ns];
    let mut mark = vec![NONE; n];
    for s in 0..ns {
        let last = partition.last_col(s);
        let start = patterns.rows.len();
        for c in partition.cols(s) {
            for &r in &a.col_rows(c)[1..] {
                if r > last && mark[r] != s {
                    mark[r] = s;
                    patterns.rows.push(r);
                }
            }
        }
        let mut t = first_child[s];
        while t != NONE {
            for k in patterns.ptr[t]..patterns.ptr[t + 1] {
                let r = patterns.rows[k];
                if r > last && mark[r] != s {
                    mark[r] = s;
                    patterns.rows.push(r);
                }
            }
            t = next_sibling[t];
        }
        patterns.rows[start..].sort_unstable();
        if let Some(&first) = patterns.rows.get(start) {
            let parent_sn = partition.supno(first);
            debug_assert!(parent_sn > s);
            next_sibling[s] = first_child[parent_sn];
            first_child[parent_sn] = s;
        }
        patterns.ptr.push(patterns.rows.len());
    }
    patterns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::{etree, postorder};
    use crate::supernodes::supernodes;
    use sympack_sparse::gen::random_spd;

    /// Brute-force symbolic factorization: full column patterns of L.
    fn naive_patterns(a: &SymPattern) -> Vec<std::collections::BTreeSet<usize>> {
        let n = a.n();
        let mut pattern: Vec<std::collections::BTreeSet<usize>> = (0..n)
            .map(|c| a.col_rows(c).iter().copied().collect())
            .collect();
        for j in 0..n {
            let below: Vec<usize> = pattern[j].iter().copied().filter(|&r| r > j).collect();
            if let Some(&p) = below.first() {
                for &r in &below {
                    if r != p {
                        pattern[p].insert(r);
                    }
                }
            }
        }
        pattern
    }

    fn postordered(a: &SymPattern) -> SymPattern {
        let parent = etree(a);
        let post = postorder(&parent);
        a.permute(post.as_slice())
    }

    #[test]
    fn col_counts_match_naive() {
        let a = postordered(random_spd(50, 4, 33).pattern());
        let parent = etree(&a);
        let counts = col_counts(&a, &parent);
        let naive = naive_patterns(&a);
        for j in 0..a.n() {
            let expect = naive[j].iter().filter(|&&r| r >= j).count();
            assert_eq!(counts[j], expect, "column {j}");
        }
    }

    #[test]
    fn sn_patterns_match_naive_per_column() {
        let a = postordered(random_spd(60, 5, 7).pattern());
        let parent = etree(&a);
        let counts = col_counts(&a, &parent);
        let part = supernodes(&parent, &counts, 64);
        let pats = sn_patterns(&a, &part);
        let naive = naive_patterns(&a);
        for s in 0..part.n_supernodes() {
            let last = part.last_col(s);
            // The supernodal pattern must equal the below-supernode rows of
            // the *last* column of the supernode (fundamental supernodes all
            // share it).
            let expect: Vec<usize> = naive[last].iter().copied().filter(|&r| r > last).collect();
            assert_eq!(pats[s], expect, "supernode {s}");
            // And every member column's below-supernode pattern matches too.
            for c in part.cols(s) {
                let col_pat: Vec<usize> = naive[c].iter().copied().filter(|&r| r > last).collect();
                assert_eq!(col_pat, pats[s], "column {c} of supernode {s}");
            }
        }
    }
}
