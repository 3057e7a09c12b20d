//! Relaxed supernode amalgamation.
//!
//! Fundamental supernodes on very sparse matrices (the paper's `thermal2`)
//! can be tiny, which makes blocks too small to amortize BLAS-3 and task
//! overheads. Relaxed amalgamation merges a supernode into the next one
//! when the merged supernode would waste at most a bounded fraction of
//! explicit zeros — trading a little extra storage/flops for much larger
//! dense blocks. Only *adjacent* supernodes where the first's parent (in
//! the supernodal elimination tree) is the second can merge, so supernode
//! columns stay consecutive and the factorization stays correct (the merged
//! pattern is the union, a superset of every member column's true pattern).
//!
//! The tolerated fraction is graded by the merged width, after the
//! relaxed-supernode table of Ashcraft and Grimes as CHOLMOD ships it
//! (`nrelax` 4 / 16, `zrelax` 0.8): a merge up to 4 columns wide is
//! always taken, one up to 16 columns wide may hold up to 80 % explicit
//! zeros, and a wider one is held to the caller's ratio. Each block is one
//! task and one message in the fan-out, so the narrow merges are where the
//! per-block runtime cost outweighs the flops.

use crate::structure::RowPatterns;
use crate::supernodes::SupernodePartition;

/// Merged widths up to this many columns are always taken.
pub(crate) const FREE_WIDTH: usize = 4;
/// Merged widths up to this many columns tolerate [`LOOSE_ZEROS`].
pub(crate) const LOOSE_WIDTH: usize = 16;
/// Explicit-zero fraction tolerated by a merge of at most [`LOOSE_WIDTH`].
pub(crate) const LOOSE_ZEROS: f64 = 0.8;

/// The explicit-zero fraction a merged supernode `width` columns wide may
/// hold under the caller's `ratio`; it never shrinks as the width falls. A
/// ratio of 0 keeps every merge to the free ones (no explicit zero at
/// all), whatever the width.
fn allowance(width: usize, ratio: f64) -> f64 {
    if ratio <= 0.0 {
        0.0
    } else if width <= FREE_WIDTH {
        1.0
    } else if width <= LOOSE_WIDTH {
        LOOSE_ZEROS.max(ratio)
    } else {
        ratio
    }
}

/// Greedily merge chains of supernodes left-to-right.
///
/// Returns the new partition and the matching merged patterns. `ratio` is
/// the maximum tolerated fraction of explicit-zero entries in a merged
/// supernode wider than [`LOOSE_WIDTH`] (narrower merges are graded by
/// [`allowance`]); `max_width` caps merged supernode width.
pub(crate) fn amalgamate(
    partition: &SupernodePartition,
    patterns: &RowPatterns,
    ratio: f64,
    max_width: usize,
) -> (SupernodePartition, RowPatterns) {
    let ns = partition.n_supernodes();
    let n = partition.n();
    let mut new_starts: Vec<usize> = vec![0];
    let mut new_patterns = RowPatterns::with_capacity(ns, patterns.rows().len());
    // The group's pattern and the candidate merge, reused across groups.
    let mut pat: Vec<usize> = Vec::new();
    let mut merged: Vec<usize> = Vec::new();
    let mut s = 0;
    while s < ns {
        // Current group state: columns [group_first, group_last_col], pattern.
        let mut width = partition.width(s);
        pat.clear();
        pat.extend_from_slice(&patterns[s]);
        let mut nnz_members = width * (width + 1) / 2 + width * patterns[s].len();
        let mut t = s + 1;
        while t < ns {
            // Structural requirement: the group's parent supernode must be
            // exactly `t` (its first pattern row in t's columns) so merged
            // columns are consecutive AND the merge is useful.
            match pat.first() {
                Some(&first) if partition.supno(first) == t => {}
                _ => break,
            }
            let wt = partition.width(t);
            if width + wt > max_width {
                break;
            }
            // Merged pattern: (pat \ cols(t)) ∪ patterns[t]. `pat` is sorted,
            // so the rows past t's columns are a suffix.
            let t_last = partition.last_col(t);
            let tail = &pat[pat.partition_point(|&r| r <= t_last)..];
            let pt = &patterns[t];
            merged.clear();
            // Union of two sorted lists.
            let (mut i, mut j) = (0, 0);
            while i < tail.len() || j < pt.len() {
                let a = tail.get(i).copied().unwrap_or(usize::MAX);
                let b = pt.get(j).copied().unwrap_or(usize::MAX);
                match a.cmp(&b) {
                    std::cmp::Ordering::Less => {
                        merged.push(a);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(b);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push(a);
                        i += 1;
                        j += 1;
                    }
                }
            }
            let new_width = width + wt;
            let new_nnz = new_width * (new_width + 1) / 2 + new_width * merged.len();
            let old_nnz = nnz_members + wt * (wt + 1) / 2 + wt * pt.len();
            let zeros = new_nnz.saturating_sub(old_nnz);
            if (zeros as f64) > allowance(new_width, ratio) * (new_nnz as f64) {
                break;
            }
            // Accept the merge.
            width = new_width;
            std::mem::swap(&mut pat, &mut merged);
            nnz_members = old_nnz; // real entries carried forward
            t += 1;
        }
        new_starts.push(partition.first_col(s) + width);
        new_patterns.push(&pat);
        s = t;
    }
    debug_assert_eq!(*new_starts.last().unwrap(), n);
    (SupernodePartition::from_starts(new_starts, n), new_patterns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::{etree, postorder};
    use crate::structure::{col_counts, sn_patterns};
    use crate::supernodes::supernodes;
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
    fn tridiagonal_chain_merges_fully_with_generous_ratio() {
        // A tridiagonal matrix has all-singleton fundamental supernodes in a
        // parent chain; generous relaxation merges them into wide supernodes.
        let a = tridiag(12);
        let post = postorder(&etree(a.pattern()));
        let ap = a.pattern().permute(post.as_slice());
        let parent = etree(&ap);
        let counts = col_counts(&ap, &parent);
        let part = supernodes(&parent, &counts, 128);
        // Columns 0..10 are singletons; the final two columns share their
        // (empty) below-diagonal structure and fuse into one fundamental
        // supernode, leaving 11.
        assert_eq!(part.n_supernodes(), 11);
        let pats = sn_patterns(&ap, &part);
        let (merged, mpats) = amalgamate(&part, &pats, 0.9, 6);
        assert!(merged.n_supernodes() <= 3, "got {}", merged.n_supernodes());
        // Patterns must still link each supernode to a later one (or be empty).
        for s in 0..merged.n_supernodes() {
            if let Some(&first) = mpats[s].first() {
                assert!(merged.supno(first) > s);
            }
        }
    }

    #[test]
    fn zero_ratio_changes_nothing_unless_free() {
        let a = tridiag(8);
        let post = postorder(&etree(a.pattern()));
        let ap = a.pattern().permute(post.as_slice());
        let parent = etree(&ap);
        let counts = col_counts(&ap, &parent);
        let part = supernodes(&parent, &counts, 128);
        let pats = sn_patterns(&ap, &part);
        let (merged, _) = amalgamate(&part, &pats, 0.0, 128);
        // Tridiagonal merges are never free (each merge wastes one zero per
        // extra column), so nothing merges at ratio 0.
        assert_eq!(merged.n_supernodes(), part.n_supernodes());
    }

    /// Fundamental partition and patterns of `a` under its etree postorder.
    fn fundamental(a: &SparseSym) -> (SupernodePartition, RowPatterns) {
        let post = postorder(&etree(a.pattern()));
        let ap = a.pattern().permute(post.as_slice());
        let parent = etree(&ap);
        let counts = col_counts(&ap, &parent);
        let part = supernodes(&parent, &counts, 128);
        let pats = sn_patterns(&ap, &part);
        (part, pats)
    }

    #[test]
    fn any_positive_ratio_merges_a_singleton_chain_at_least_free_width_wide() {
        let (part, pats) = fundamental(&tridiag(50));
        for ratio in [1e-9, 0.01, 0.1, 0.5, 0.9] {
            let (merged, _) = amalgamate(&part, &pats, ratio, 128);
            let ns = merged.n_supernodes();
            assert!(ns < part.n_supernodes(), "ratio {ratio}: nothing merged");
            for s in 0..ns - 1 {
                assert!(
                    merged.width(s) >= FREE_WIDTH,
                    "ratio {ratio}: supernode {s} of {ns} is {} wide",
                    merged.width(s)
                );
            }
        }
    }

    #[test]
    fn explicit_zeros_stay_within_the_graded_allowance() {
        for seed in 0..12u64 {
            let a = sympack_sparse::gen::random_spd(60 + 10 * seed as usize, 3, seed);
            let (part, pats) = fundamental(&a);
            for ratio in [0.05, 0.1, 0.3, 0.6, 0.9] {
                let (merged, mpats) = amalgamate(&part, &pats, ratio, 128);
                // Real entries of each merged supernode, summed over its
                // fundamental members the way `amalgamate` counts them.
                let mut real = vec![0usize; merged.n_supernodes()];
                for s0 in 0..part.n_supernodes() {
                    let w = part.width(s0);
                    real[merged.supno(part.first_col(s0))] += w * (w + 1) / 2 + w * pats[s0].len();
                }
                for ms in 0..merged.n_supernodes() {
                    let w = merged.width(ms);
                    let stored = w * (w + 1) / 2 + w * mpats[ms].len();
                    let zeros = (stored - real[ms]) as f64;
                    let bound = if w <= FREE_WIDTH {
                        1.0
                    } else if w <= LOOSE_WIDTH {
                        LOOSE_ZEROS.max(ratio)
                    } else {
                        ratio
                    };
                    assert!(
                        zeros <= bound * stored as f64,
                        "seed {seed} ratio {ratio}: supernode {ms} ({w} wide) holds \
                         {zeros} zeros of {stored}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_width_caps_merging() {
        let a = tridiag(20);
        let post = postorder(&etree(a.pattern()));
        let ap = a.pattern().permute(post.as_slice());
        let parent = etree(&ap);
        let counts = col_counts(&ap, &parent);
        let part = supernodes(&parent, &counts, 128);
        let pats = sn_patterns(&ap, &part);
        let (merged, _) = amalgamate(&part, &pats, 0.99, 4);
        for s in 0..merged.n_supernodes() {
            assert!(merged.width(s) <= 4);
        }
    }

    #[test]
    fn merged_pattern_is_superset_of_member_tails() {
        let a = sympack_sparse::gen::random_spd(40, 4, 5);
        let post = postorder(&etree(a.pattern()));
        let ap = a.pattern().permute(post.as_slice());
        let parent = etree(&ap);
        let counts = col_counts(&ap, &parent);
        let part = supernodes(&parent, &counts, 128);
        let pats = sn_patterns(&ap, &part);
        let (merged, mpats) = amalgamate(&part, &pats, 0.4, 32);
        // For every original supernode, its pattern rows past the merged
        // supernode's last column must appear in the merged pattern.
        for s0 in 0..part.n_supernodes() {
            let first_col = part.first_col(s0);
            let ms = merged.supno(first_col);
            let mlast = merged.last_col(ms);
            let mset: std::collections::HashSet<usize> = mpats[ms].iter().copied().collect();
            for &r in &pats[s0] {
                if r > mlast {
                    assert!(mset.contains(&r), "row {r} of sn {s0} lost in merge");
                }
            }
        }
    }
}
