//! Dense-block partitioning — the paper's Algorithm 2.
//!
//! Each supernode `j`'s below-diagonal rows are grouped by the supernode
//! that owns them: the run of pattern rows falling inside supernode `i`'s
//! column range forms the dense block `B(i,j)`. Together with the diagonal
//! block `B(j,j)` these are the units the solver's tasks operate on and the
//! objects mapped 2D-block-cyclically onto processes.
//!
//! Because the pattern rows are sorted and supernodes are ranges of
//! consecutive indices, each block is a contiguous slice of the pattern
//! array — a [`BlockInfo`] only stores the target supernode and that slice's
//! offset/length.

use crate::structure::RowPatterns;
use crate::supernodes::SupernodePartition;

/// Identity of a block: `B(target, owner)` in the paper's `B(i,j)` notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// Supernode whose diagonal owns the block's rows (the paper's `i`).
    pub target: usize,
    /// Supernode the block lives in, i.e. whose columns it spans (`j`).
    pub owner: usize,
}

/// One off-diagonal dense block of a supernode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Supernode owning the block's rows (the paper's `i` in `B(i,j)`).
    pub target: usize,
    /// Offset of the block's first row within the owner's pattern array.
    pub row_offset: usize,
    /// Number of pattern rows in the block.
    pub n_rows: usize,
}

/// The full block layout of the factor: per supernode, its off-diagonal
/// blocks in ascending target order (the diagonal block is implicit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockLayout {
    /// `blocks[ptr[j]..ptr[j + 1]]` are the blocks of supernode `j`.
    ptr: Vec<usize>,
    blocks: Vec<BlockInfo>,
}

impl BlockLayout {
    /// Off-diagonal blocks of supernode `j`, ascending by target supernode.
    pub fn blocks_of(&self, j: usize) -> &[BlockInfo] {
        &self.blocks[self.ptr[j]..self.ptr[j + 1]]
    }

    /// Find the block of supernode `j` targeting supernode `i`, if any.
    pub fn find(&self, i: usize, j: usize) -> Option<&BlockInfo> {
        let v = self.blocks_of(j);
        v.binary_search_by_key(&i, |b| b.target).ok().map(|k| &v[k])
    }

    /// Total number of off-diagonal blocks.
    pub fn n_off_diagonal(&self) -> usize {
        self.blocks.len()
    }

    /// Number of supernodes covered.
    pub fn n_supernodes(&self) -> usize {
        self.ptr.len() - 1
    }
}

/// Group every supernode's pattern rows into blocks (Algorithm 2).
pub(crate) fn build_layout(partition: &SupernodePartition, patterns: &RowPatterns) -> BlockLayout {
    let ns = partition.n_supernodes();
    assert_eq!(patterns.len(), ns);
    let mut ptr = Vec::with_capacity(ns + 1);
    ptr.push(0);
    let mut blocks = Vec::new();
    for s in 0..ns {
        let pat = &patterns[s];
        let mut k = 0;
        while k < pat.len() {
            let target = partition.supno(pat[k]);
            let start = k;
            let last_col = partition.last_col(target);
            while k < pat.len() && pat[k] <= last_col {
                k += 1;
            }
            blocks.push(BlockInfo {
                target,
                row_offset: start,
                n_rows: k - start,
            });
        }
        ptr.push(blocks.len());
    }
    BlockLayout { ptr, blocks }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition(starts: Vec<usize>, n: usize) -> SupernodePartition {
        SupernodePartition::from_starts(starts, n)
    }

    #[test]
    fn groups_pattern_rows_by_supernode() {
        // Supernodes: [0,1], [2,3], [4,5,6]. Pattern of sn 0: rows 2,3,5.
        let p = partition(vec![0, 2, 4, 7], 7);
        let pats = RowPatterns::from_lists(&[vec![2, 3, 5], vec![4, 6], vec![]]);
        let layout = build_layout(&p, &pats);
        let b0 = layout.blocks_of(0);
        assert_eq!(b0.len(), 2);
        assert_eq!(
            b0[0],
            BlockInfo {
                target: 1,
                row_offset: 0,
                n_rows: 2
            }
        );
        assert_eq!(
            b0[1],
            BlockInfo {
                target: 2,
                row_offset: 2,
                n_rows: 1
            }
        );
        let b1 = layout.blocks_of(1);
        assert_eq!(b1.len(), 1);
        assert_eq!(
            b1[0],
            BlockInfo {
                target: 2,
                row_offset: 0,
                n_rows: 2
            }
        );
        assert!(layout.blocks_of(2).is_empty());
        assert_eq!(layout.n_off_diagonal(), 3);
    }

    #[test]
    fn find_locates_blocks() {
        let p = partition(vec![0, 2, 4, 7], 7);
        let pats = RowPatterns::from_lists(&[vec![2, 3, 5], vec![4, 6], vec![]]);
        let layout = build_layout(&p, &pats);
        assert!(layout.find(1, 0).is_some());
        assert!(layout.find(2, 0).is_some());
        assert!(layout.find(2, 1).is_some());
        assert!(layout.find(1, 1).is_none());
    }

    #[test]
    fn non_contiguous_rows_within_target_stay_one_block() {
        // Pattern rows 4 and 6 inside supernode [4..7): one block, 2 rows,
        // row 5 absent — blocks are index lists, not row intervals.
        let p = partition(vec![0, 4, 7], 7);
        let pats = RowPatterns::from_lists(&[vec![4, 6], vec![]]);
        let layout = build_layout(&p, &pats);
        assert_eq!(
            layout.blocks_of(0),
            &[BlockInfo {
                target: 1,
                row_offset: 0,
                n_rows: 2
            }]
        );
    }
}
