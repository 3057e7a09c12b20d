//! What the supernode-granular families (right-looking, fan-in) share below
//! their schedules: factoring one supernode column, and the supernode-shaped
//! buffer both ship — a factored panel, or an aggregate of updates.

use sympack::sched::{self, Meta, Msg, TaskEngine, TaskKind};
use sympack::storage::BlockStore;
use sympack_dense::Mat;
use sympack_gpu::KernelEngine;
use sympack_pgas::Rank;
use sympack_symbolic::SymbolicFactor;

/// POTRF + all TRSMs of owned supernode `j`, each kernel charged to task
/// `key`. Returns `false` on a failed pivot — the error is recorded, the
/// job is aborting and the store is whole again.
pub(crate) fn factor_column<K: TaskKind, S: Send + 'static, Mt: Meta>(
    rt: &mut TaskEngine<K, S>,
    kernels: &mut KernelEngine,
    store: &mut BlockStore,
    sf: &SymbolicFactor,
    rank: &mut Rank<Msg<Mt>>,
    key: K,
    j: usize,
) -> bool {
    let mut diag = store.take((j, j)).expect("diag owned").into_dense();
    let first = sf.partition.first_col(j);
    let Some(secs) = sched::potrf_or_fail(rt, kernels, rank, &mut diag, first) else {
        store.put((j, j), diag);
        return false;
    };
    rt.charge(rank, key, secs);
    for bb in sf.layout.blocks_of(j) {
        let mut blk = store
            .take((bb.target, j))
            .expect("block owned")
            .into_dense();
        let (_, secs) = kernels.trsm(&mut blk, &diag);
        rt.charge(rank, key, secs);
        store.put((bb.target, j), blk);
    }
    store.put((j, j), diag);
    true
}

/// `dst += src`, over the lower triangle only for a diagonal block.
pub(crate) fn add_block(dst: &mut Mat, src: &Mat, lower: bool) {
    for c in 0..src.cols() {
        for r in if lower { c } else { 0 }..src.rows() {
            dst[(r, c)] += src[(r, c)];
        }
    }
}

/// A buffer shaped like supernode `j`: its diagonal block first, then one
/// dense block per off-diagonal block in layout order. On the wire it is the
/// blocks' column-major storage, concatenated in that order.
pub(crate) struct ColumnBuf {
    /// `mats[0]` is the diagonal block, `mats[k + 1]` the `k`-th
    /// off-diagonal block of the supernode's layout.
    pub mats: Vec<Mat>,
}

/// `(target supernode, rows)` of every block of supernode `j`, diagonal
/// first; all are `width(j)` columns wide.
fn shapes(sf: &SymbolicFactor, j: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let below = sf.layout.blocks_of(j).iter().map(|b| (b.target, b.n_rows));
    std::iter::once((j, sf.partition.width(j))).chain(below)
}

fn concat<'a>(mats: impl Iterator<Item = &'a Mat>) -> Vec<f64> {
    let mut out = Vec::new();
    for m in mats {
        out.extend_from_slice(m.as_slice());
    }
    out
}

impl ColumnBuf {
    /// An all-zero buffer (an aggregate before its first contribution).
    pub fn zeros(sf: &SymbolicFactor, j: usize) -> Self {
        let w = sf.partition.width(j);
        ColumnBuf {
            mats: shapes(sf, j).map(|(_, rows)| Mat::zeros(rows, w)).collect(),
        }
    }

    /// The wire form of this buffer.
    pub fn pack(&self) -> Vec<f64> {
        concat(self.mats.iter())
    }

    /// The wire form of owned supernode `j` as it stands in `store`.
    pub(crate) fn pack_store(sf: &SymbolicFactor, store: &BlockStore, j: usize) -> Vec<f64> {
        concat(shapes(sf, j).map(|(i, _)| store.get((i, j)).expect("block owned").dense()))
    }

    /// Rebuild a buffer of supernode `j` from its wire form.
    pub(crate) fn unpack(sf: &SymbolicFactor, j: usize, data: &[f64]) -> Self {
        let w = sf.partition.width(j);
        let mut rest = data;
        let mats = shapes(sf, j).map(|(_, rows)| {
            let (head, tail) = rest.split_at(rows * w);
            rest = tail;
            Mat::from_col_major(rows, w, head.to_vec())
        });
        ColumnBuf {
            mats: mats.collect(),
        }
    }

    /// Add this buffer into the owned blocks of supernode `j`.
    pub(crate) fn add_into(&self, sf: &SymbolicFactor, store: &mut BlockStore, j: usize) {
        for ((i, _), m) in shapes(sf, j).zip(&self.mats) {
            let dst = store.get_mut((i, j)).expect("block owned").dense_mut();
            add_block(dst, m, i == j);
        }
    }
}
