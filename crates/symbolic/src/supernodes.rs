//! Supernode detection.
//!
//! A supernode (paper §2.2) is a run of consecutive columns of `L` sharing
//! the same below-diagonal structure; its diagonal block is dense. On a
//! postordered matrix, column `j+1` extends the supernode of column `j`
//! exactly when `parent[j] == j+1` and `count[j] == count[j+1] + 1` — the
//! classical fundamental-supernode test. Wide supernodes are split at
//! `max_width` so the 2D block-cyclic distribution has enough granularity.

/// Partition of the columns `0..n` into supernodes of consecutive columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupernodePartition {
    /// `sn_start[s]..sn_start[s+1]` are the columns of supernode `s`.
    sn_start: Vec<usize>,
    /// Column → supernode index.
    supno: Vec<usize>,
}

impl SupernodePartition {
    /// Build from supernode start columns (must begin at 0, be strictly
    /// increasing and end at `n`).
    pub(crate) fn from_starts(sn_start: Vec<usize>, n: usize) -> Self {
        assert!(!sn_start.is_empty() && sn_start[0] == 0);
        assert_eq!(*sn_start.last().unwrap(), n);
        for w in sn_start.windows(2) {
            assert!(w[0] < w[1], "empty supernode");
        }
        let mut supno = vec![0usize; n];
        for s in 0..sn_start.len() - 1 {
            for c in sn_start[s]..sn_start[s + 1] {
                supno[c] = s;
            }
        }
        SupernodePartition { sn_start, supno }
    }

    /// Number of supernodes.
    pub fn n_supernodes(&self) -> usize {
        self.sn_start.len() - 1
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.supno.len()
    }

    /// Supernode containing column `c`.
    pub fn supno(&self, c: usize) -> usize {
        self.supno[c]
    }

    /// First column of supernode `s`.
    pub fn first_col(&self, s: usize) -> usize {
        self.sn_start[s]
    }

    /// Last column of supernode `s` (inclusive).
    pub fn last_col(&self, s: usize) -> usize {
        self.sn_start[s + 1] - 1
    }

    /// Width (number of columns) of supernode `s`.
    pub fn width(&self, s: usize) -> usize {
        self.sn_start[s + 1] - self.sn_start[s]
    }

    /// Columns of supernode `s`.
    pub fn cols(&self, s: usize) -> std::ops::Range<usize> {
        self.sn_start[s]..self.sn_start[s + 1]
    }
}

/// Detect fundamental supernodes from the elimination tree and column
/// counts of a postordered matrix, splitting at `max_width` columns.
pub fn supernodes(parent: &[usize], counts: &[usize], max_width: usize) -> SupernodePartition {
    let n = parent.len();
    assert_eq!(counts.len(), n);
    assert!(max_width >= 1);
    let mut starts = vec![0usize];
    let mut width = 1usize;
    for j in 0..n.saturating_sub(1) {
        let extends = parent[j] == j + 1 && counts[j] == counts[j + 1] + 1 && width < max_width;
        if !extends {
            starts.push(j + 1);
            width = 1;
        } else {
            width += 1;
        }
    }
    if n > 0 {
        starts.push(n);
    } else {
        starts = vec![0];
    }
    SupernodePartition::from_starts(starts, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::{etree, postorder};
    use crate::structure::col_counts;
    use sympack_sparse::gen::laplacian_2d;
    use sympack_sparse::{Coo, SymPattern};

    fn dense_spd(n: usize) -> SymPattern {
        let mut c = Coo::new(n, n);
        for i in 0..n {
            c.push(i, i, n as f64 + 1.0).unwrap();
            for j in 0..i {
                c.push_sym(i, j, -0.5).unwrap();
            }
        }
        c.to_csc().to_lower_sym().pattern().clone()
    }

    #[test]
    fn dense_matrix_is_one_supernode() {
        let a = dense_spd(7);
        let parent = etree(&a);
        let counts = col_counts(&a, &parent);
        let p = supernodes(&parent, &counts, 128);
        assert_eq!(p.n_supernodes(), 1);
        assert_eq!(p.width(0), 7);
    }

    #[test]
    fn max_width_splits_dense_supernode() {
        let a = dense_spd(10);
        let parent = etree(&a);
        let counts = col_counts(&a, &parent);
        let p = supernodes(&parent, &counts, 4);
        assert_eq!(p.n_supernodes(), 3); // widths 4, 4, 2
        assert_eq!(p.width(0), 4);
        assert_eq!(p.width(2), 2);
    }

    #[test]
    fn diagonal_matrix_is_all_singletons() {
        let mut c = Coo::new(5, 5);
        for i in 0..5 {
            c.push(i, i, 1.0).unwrap();
        }
        let a = c.to_csc().to_lower_sym().pattern().clone();
        let parent = etree(&a);
        let counts = col_counts(&a, &parent);
        let p = supernodes(&parent, &counts, 128);
        assert_eq!(p.n_supernodes(), 5);
    }

    #[test]
    fn supno_is_consistent_with_ranges() {
        let a = laplacian_2d(6, 6).pattern().clone();
        let post = postorder(&etree(&a));
        let ap = a.permute(post.as_slice());
        let parent = etree(&ap);
        let counts = col_counts(&ap, &parent);
        let p = supernodes(&parent, &counts, 16);
        for s in 0..p.n_supernodes() {
            for c in p.cols(s) {
                assert_eq!(p.supno(c), s);
            }
            assert_eq!(p.last_col(s) + 1 - p.first_col(s), p.width(s));
        }
    }

    #[test]
    fn supernode_columns_share_structure() {
        // Verify the defining property on a real example via naive symbolic.
        let a = laplacian_2d(5, 5).pattern().clone();
        let post = postorder(&etree(&a));
        let ap = a.permute(post.as_slice());
        let parent = etree(&ap);
        let counts = col_counts(&ap, &parent);
        let p = supernodes(&parent, &counts, 128);
        // Naive fill patterns.
        let n = ap.n();
        let mut pattern: Vec<std::collections::BTreeSet<usize>> = (0..n)
            .map(|c| ap.col_rows(c).iter().copied().collect())
            .collect();
        for j in 0..n {
            let below: Vec<usize> = pattern[j].iter().copied().filter(|&r| r > j).collect();
            if let Some(&pp) = below.first() {
                for &r in &below {
                    if r != pp {
                        pattern[pp].insert(r);
                    }
                }
            }
        }
        for s in 0..p.n_supernodes() {
            let last = p.last_col(s);
            let base: Vec<usize> = pattern[last]
                .iter()
                .copied()
                .filter(|&r| r > last)
                .collect();
            for c in p.cols(s) {
                let below: Vec<usize> = pattern[c].iter().copied().filter(|&r| r > last).collect();
                assert_eq!(below, base, "column {c} differs in supernode {s}");
                // Dense inside the supernode: all rows c..=last present.
                for r in c..=last {
                    assert!(pattern[c].contains(&r), "missing ({r},{c})");
                }
            }
        }
    }
}
