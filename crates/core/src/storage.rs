//! Distributed block storage for the factor.
//!
//! Each rank materializes exactly the blocks the 2D map assigns to it: the
//! diagonal block of supernode `j` is a dense `w×w` matrix (lower triangle
//! significant), an off-diagonal block `B(i,j)` is a dense `n_rows × w`
//! matrix whose rows are the block's slice of the supernode's row pattern.

use crate::map2d::ProcGrid;
use sympack_dense::{BlockRef, LowRankMat, Mat};
use sympack_sparse::SparseSym;
use sympack_symbolic::SymbolicFactor;

/// Key of a stored block: `(target supernode, owner supernode)`; the
/// diagonal block of `j` is `(j, j)`.
pub type BlockKey = (usize, usize);

/// A stored factor block: dense, or compressed to `U·Vᵀ` by the BLR path.
///
/// Diagonal blocks and update targets are always `Dense`; only factored
/// off-diagonal panels may be `LowRank`, and only when the solver runs with
/// a nonzero compression tolerance.
#[derive(Debug, Clone)]
pub enum Block {
    /// Full `rows × cols` storage.
    Dense(Mat),
    /// Factored `U·Vᵀ` storage holding `(rows + cols) · rank` values.
    LowRank(LowRankMat),
}

impl Block {
    /// Row count of the block this value represents.
    pub fn rows(&self) -> usize {
        match self {
            Block::Dense(m) => m.rows(),
            Block::LowRank(lr) => lr.rows(),
        }
    }

    /// Column count of the block this value represents.
    pub fn cols(&self) -> usize {
        match self {
            Block::Dense(m) => m.cols(),
            Block::LowRank(lr) => lr.cols(),
        }
    }

    /// Bytes of f64 payload actually stored (dense extent for `Dense`,
    /// factored extent for `LowRank`) — the number the memory gauge and the
    /// fleet's cache charge.
    pub fn bytes(&self) -> u64 {
        match self {
            Block::Dense(m) => (m.rows() * m.cols() * 8) as u64,
            Block::LowRank(lr) => lr.bytes(),
        }
    }

    /// True when stored in factored form.
    pub fn is_lowrank(&self) -> bool {
        matches!(self, Block::LowRank(_))
    }

    /// Borrow as a dense matrix. Panics on a low-rank block: callers on the
    /// dense-only paths (diagonal blocks, update targets) use this to state
    /// the invariant rather than silently densify.
    pub fn dense(&self) -> &Mat {
        match self {
            Block::Dense(m) => m,
            Block::LowRank(_) => panic!("block stored low-rank where dense storage is invariant"),
        }
    }

    /// Mutably borrow as a dense matrix. Panics on a low-rank block.
    pub fn dense_mut(&mut self) -> &mut Mat {
        match self {
            Block::Dense(m) => m,
            Block::LowRank(_) => panic!("block stored low-rank where dense storage is invariant"),
        }
    }

    /// Consume into a dense matrix, expanding a low-rank block.
    pub fn into_dense(self) -> Mat {
        match self {
            Block::Dense(m) => m,
            Block::LowRank(lr) => lr.to_dense(),
        }
    }

    /// Dense copy of the block, expanding a low-rank block.
    pub fn to_dense(&self) -> Mat {
        match self {
            Block::Dense(m) => m.clone(),
            Block::LowRank(lr) => lr.to_dense(),
        }
    }

    /// Borrow as a kernel operand.
    pub fn as_ref(&self) -> BlockRef<'_> {
        match self {
            Block::Dense(m) => BlockRef::Dense(m),
            Block::LowRank(lr) => BlockRef::LowRank(lr),
        }
    }
}

impl From<Mat> for Block {
    fn from(m: Mat) -> Block {
        Block::Dense(m)
    }
}

impl From<LowRankMat> for Block {
    fn from(lr: LowRankMat) -> Block {
        Block::LowRank(lr)
    }
}

/// This rank's slice of the factor: one slot per owned block, in
/// column-major order (ascending owner supernode `j`, the diagonal block
/// first, then ascending target `i`). A block's position is its *slot id* —
/// the same numbering the compiled task graph
/// ([`crate::taskgraph::LocalTasks`]) gives this rank's owned blocks, so the
/// factorization addresses slots directly. Key-addressed access
/// ([`get`](Self::get) and friends) binary-searches the sorted key table.
#[derive(Debug, Default)]
pub struct BlockStore {
    keys: Vec<BlockKey>,
    blocks: Vec<Option<Block>>,
}

/// Column-major sort key of a block: owner supernode, then target.
pub(crate) fn col_major(k: &BlockKey) -> (usize, usize) {
    (k.1, k.0)
}

impl BlockStore {
    /// Allocate every block owned by `rank` under `grid` and scatter the
    /// permuted matrix values into them.
    ///
    /// `ap` must already carry the symbolic factor's composite permutation.
    pub fn init(sf: &SymbolicFactor, ap: &SparseSym, grid: &ProcGrid, rank: usize) -> Self {
        const NOT_OWNED: usize = usize::MAX;
        let mut keys = Vec::new();
        let mut mats: Vec<Mat> = Vec::new();
        // Slot of each block of the column being filled: the diagonal at 0,
        // the k-th off-diagonal block at k + 1.
        let mut slots: Vec<usize> = Vec::new();
        for j in 0..sf.n_supernodes() {
            let w = sf.partition.width(j);
            let col_blocks = sf.layout.blocks_of(j);
            slots.clear();
            let shapes =
                std::iter::once((j, w)).chain(col_blocks.iter().map(|b| (b.target, b.n_rows)));
            for (i, n_rows) in shapes {
                slots.push(if grid.map(i, j) == rank {
                    keys.push((i, j));
                    mats.push(Mat::zeros(n_rows, w));
                    mats.len() - 1
                } else {
                    NOT_OWNED
                });
            }
            // Scatter the values of A's lower triangle in these columns.
            let first = sf.partition.first_col(j);
            let last = sf.partition.last_col(j);
            for c in sf.partition.cols(j) {
                for (&r, &v) in ap.col_rows(c).iter().zip(ap.col_values(c)) {
                    let k = if r <= last {
                        0
                    } else {
                        let t = sf.partition.supno(r);
                        1 + col_blocks
                            .binary_search_by_key(&t, |b| b.target)
                            .expect("pattern row must have a block")
                    };
                    if slots[k] == NOT_OWNED {
                        continue;
                    }
                    let ri = if k == 0 {
                        r - first
                    } else {
                        let b = &col_blocks[k - 1];
                        sf.block_rows(j, b).binary_search(&r).expect("row in block")
                    };
                    mats[slots[k]][(ri, c - first)] = v;
                }
            }
        }
        BlockStore {
            keys,
            blocks: mats.into_iter().map(|m| Some(Block::Dense(m))).collect(),
        }
    }

    /// Keys of the owned blocks; position = slot id.
    pub fn keys(&self) -> &[BlockKey] {
        &self.keys
    }

    /// Slot id of an owned block.
    fn slot_of(&self, key: BlockKey) -> Option<usize> {
        self.keys
            .binary_search_by_key(&col_major(&key), col_major)
            .ok()
    }

    /// Borrow the block in slot `id` (`None` while it is taken out).
    pub fn slot(&self, id: usize) -> Option<&Block> {
        self.blocks[id].as_ref()
    }

    /// Take the block in slot `id` out (e.g. to run a kernel without
    /// aliasing).
    pub(crate) fn take_slot(&mut self, id: usize) -> Option<Block> {
        self.blocks[id].take()
    }

    /// Put a block (back) into slot `id`; accepts dense and low-rank forms.
    pub(crate) fn put_slot(&mut self, id: usize, m: impl Into<Block>) {
        self.blocks[id] = Some(m.into());
    }

    /// Borrow an owned block.
    pub fn get(&self, key: BlockKey) -> Option<&Block> {
        self.slot(self.slot_of(key)?)
    }

    /// Mutably borrow an owned block.
    pub fn get_mut(&mut self, key: BlockKey) -> Option<&mut Block> {
        let id = self.slot_of(key)?;
        self.blocks[id].as_mut()
    }

    /// Key-addressed `take_slot`.
    pub fn take(&mut self, key: BlockKey) -> Option<Block> {
        self.take_slot(self.slot_of(key)?)
    }

    /// Key-addressed `put_slot`.
    ///
    /// # Panics
    /// Panics if this rank does not own block `key`.
    pub fn put(&mut self, key: BlockKey, m: impl Into<Block>) {
        let id = self
            .slot_of(key)
            .unwrap_or_else(|| panic!("block {key:?} is not owned by this store"));
        self.put_slot(id, m);
    }

    /// Number of block slots this rank owns.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when this rank owns nothing (tiny matrices on big grids).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterate over held blocks, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockKey, &Block)> {
        self.keys
            .iter()
            .zip(&self.blocks)
            .filter_map(|(k, b)| b.as_ref().map(|b| (k, b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_ordering::{compute_ordering, OrderingKind};
    use sympack_sparse::gen::laplacian_2d;
    use sympack_symbolic::{analyze, AnalyzeOptions};

    fn setup() -> (SymbolicFactor, SparseSym) {
        let a = laplacian_2d(6, 5);
        let ord = compute_ordering(&a, OrderingKind::NestedDissection);
        let sf = analyze(&a, &ord, &AnalyzeOptions::default());
        let ap = a.permute(sf.perm.as_slice());
        (sf, ap)
    }

    #[test]
    fn single_rank_holds_all_blocks_and_all_values() {
        let (sf, ap) = setup();
        let grid = ProcGrid::squarest(1);
        let store = BlockStore::init(&sf, &ap, &grid, 0);
        let ns = sf.n_supernodes();
        let expect = ns + sf.layout.n_off_diagonal();
        assert_eq!(store.len(), expect);
        // Every stored lower-triangle entry of A appears at the right spot.
        for j in 0..ns {
            let first = sf.partition.first_col(j);
            let last = sf.partition.last_col(j);
            for c in sf.partition.cols(j) {
                for (&r, &v) in ap.col_rows(c).iter().zip(ap.col_values(c)) {
                    if r <= last {
                        let m = store.get((j, j)).unwrap().dense();
                        assert_eq!(m[(r - first, c - first)], v);
                    } else {
                        let t = sf.partition.supno(r);
                        let b = sf.layout.find(t, j).unwrap();
                        let rows = sf.block_rows(j, b);
                        let ri = rows.binary_search(&r).unwrap();
                        let m = store.get((t, j)).unwrap().dense();
                        assert_eq!(m[(ri, c - first)], v);
                    }
                }
            }
        }
    }

    #[test]
    fn multi_rank_stores_partition_blocks_disjointly() {
        let (sf, ap) = setup();
        let grid = ProcGrid::squarest(4);
        let stores: Vec<BlockStore> = (0..4)
            .map(|r| BlockStore::init(&sf, &ap, &grid, r))
            .collect();
        let total: usize = stores.iter().map(BlockStore::len).sum();
        assert_eq!(total, sf.n_supernodes() + sf.layout.n_off_diagonal());
        // No block key appears on two ranks.
        let mut seen = std::collections::HashSet::new();
        for s in &stores {
            for (k, _) in s.iter() {
                assert!(seen.insert(*k), "block {k:?} duplicated");
            }
        }
    }
}
