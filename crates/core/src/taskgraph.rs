//! The fan-out task graph (paper §3.2, Fig. 2) and its per-rank slice.
//!
//! Task ownership follows the block ownership of §3.3: every task runs on
//! the rank owning its *target* block, so the completion of an update task
//! decrements its panel/diagonal successor *locally*, while factored panels
//! travel between ranks (the fan-out).

use crate::map2d::{distinct_owners, ProcGrid};
use crate::sched::{Graph, TaskId, TaskKind};
use crate::storage::{col_major, BlockKey};
use sympack_symbolic::SymbolicFactor;
use sympack_trace::TraceCat;

// The RTQ policy lives in the shared runtime layer; re-exported here because
// the fan-out task graph is its historical home.
pub use crate::sched::RtqPolicy;

/// A task in the factorization DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKey {
    /// `D(j)`: factor the diagonal block of supernode `j` (POTRF).
    Diag { j: usize },
    /// `F(i,j)`: factor block `B(i,j)` (TRSM against `L(j,j)`).
    Panel { i: usize, j: usize },
    /// `U(a,j,b)`: update `B(a,b)` with `L(a,j)·L(b,j)ᵀ`
    /// (SYRK when `a == b`, GEMM otherwise).
    Update { j: usize, a: usize, b: usize },
}

impl TaskKind for TaskKey {
    fn priority_key(&self) -> (usize, usize) {
        match *self {
            TaskKey::Diag { j } => (j, 0),
            TaskKey::Panel { i, j } => (j, i),
            TaskKey::Update { j, a, b } => (b, j.max(a)),
        }
    }

    fn seed_key(&self) -> (usize, usize, usize, usize) {
        match *self {
            TaskKey::Diag { j } => (j, 0, 0, 0),
            TaskKey::Panel { i, j } => (j, 1, i, 0),
            TaskKey::Update { j, a, b } => (j, 2, a, b),
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            TaskKey::Diag { .. } => "diag",
            TaskKey::Panel { .. } => "panel",
            TaskKey::Update { .. } => "update",
        }
    }

    fn trace_label(&self) -> String {
        match *self {
            TaskKey::Diag { j } => format!("D({j})"),
            TaskKey::Panel { i, j } => format!("F({i},{j})"),
            TaskKey::Update { j, a, b } => format!("U({a},{j},{b})"),
        }
    }

    fn trace_cat(&self) -> TraceCat {
        match *self {
            TaskKey::Diag { .. } => TraceCat::Potrf,
            TaskKey::Panel { .. } => TraceCat::Trsm,
            TaskKey::Update { a, b, .. } => {
                if a == b {
                    TraceCat::Syrk
                } else {
                    TraceCat::Gemm
                }
            }
        }
    }
}

/// Dense, rank-local index of a block in a [`LocalTasks`] block table.
pub type BlockId = u32;

/// What a task reads and writes, as rank-local block ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskOps {
    /// The block the task overwrites (always owned): `B(j,j)` for `D(j)`,
    /// `B(i,j)` for `F(i,j)`, `B(a,b)` for `U(a,j,b)` — whose local
    /// successor is therefore task `target` (see [`LocalTasks`]).
    pub target: BlockId,
    /// First factored operand: `L(j,j)` for a panel task, `L(a,j)` for an
    /// update; the target itself for a diagonal task.
    pub a: BlockId,
    /// Second factored operand of an update, `L(b,j)` (equal to `a` for a
    /// SYRK); the target itself otherwise.
    pub b: BlockId,
}

/// The slice of the task graph owned by one rank, *compiled*: every task
/// and every block the rank touches gets a dense rank-local id, and all
/// scheduling structure is flat arrays over those ids. It is a pure
/// function of the sparsity pattern and the grid, so a plan builds it once
/// and every factorization shares it behind an `Arc`; the only per-
/// factorization state is a copy of `deps`.
///
/// **Blocks** `0..n_owned` are the rank's owned blocks in
/// [`BlockStore`](crate::storage::BlockStore) slot order (column-major);
/// ids from `n_owned` up are the remote factored blocks some owned task
/// consumes, also column-major. **Tasks** `0..n_owned` are the factor tasks
/// (`D`/`F`) of the owned blocks — task `l` factors block `l` — followed by
/// the owned updates in enumeration order (`j`, then `b`, then `a ≥ b`).
/// Memory is proportional to what the rank owns and consumes, never to the
/// global graph.
#[derive(Debug, Default)]
pub struct LocalTasks {
    /// Keys, initial counters and seeds of every owned task.
    pub graph: Graph<TaskKey>,
    /// Operand/target blocks of every task.
    pub ops: Vec<TaskOps>,
    /// `block id → (target, owner)`.
    pub blocks: Vec<BlockKey>,
    /// Number of owned blocks; block ids below it are store slots.
    pub n_owned: usize,
    /// `(row_offset, n_rows)` of each block inside its owner supernode's
    /// below-diagonal row pattern; `(0, 0)` for diagonal blocks.
    block_rows: Vec<(u32, u32)>,
    /// CSR over block ids: see [`consumers_of`](Self::consumers_of).
    consumer_ptr: Vec<u32>,
    consumers: Vec<TaskId>,
    /// CSR over owned block ids: see [`dests_of`](Self::dests_of).
    dest_ptr: Vec<u32>,
    dests: Vec<usize>,
}

impl LocalTasks {
    /// Enumerate the tasks owned by `rank`, compute their dependency
    /// counters (paper: "an incoming dependency counter, initially set to
    /// the number of incoming edges in the task graph") and compile the
    /// slice into id-addressed form.
    pub fn build(sf: &SymbolicFactor, grid: &ProcGrid, rank: usize) -> Self {
        const NONE: u32 = u32::MAX;
        let ns = sf.n_supernodes();
        // Global block numbering, build-time only: the diagonal of `j` at
        // `gptr[j]`, its k-th off-diagonal block at `gptr[j] + k` (k ≥ 1).
        let mut gptr = Vec::with_capacity(ns + 1);
        gptr.push(0);
        for j in 0..ns {
            gptr.push(gptr[j] + 1 + sf.layout.blocks_of(j).len());
        }
        let n_global = gptr[ns];
        assert!(n_global < NONE as usize, "block count fits u32");
        // (i, row slice) of global block `gptr[j] + k`.
        let block_at = |j: usize, k: usize| match k.checked_sub(1) {
            None => (j, (0, 0)),
            Some(k) => {
                let b = &sf.layout.blocks_of(j)[k];
                (b.target, (b.row_offset as u32, b.n_rows as u32))
            }
        };

        // The update pairs in the canonical enumeration (`j`, then `b`,
        // then `a ≥ b`): keep the owned ones with their target block, count
        // consumers per operand block and updates per target block. Only
        // the pairs this rank owns are visited: `b` in its grid column, `a`
        // in its grid row.
        let (my_row, my_col) = grid.position(rank);
        let mut n_consumers = vec![0u32; n_global];
        let mut upd_into = vec![0u32; n_global];
        let mut owned_upd: Vec<(usize, usize, usize, usize)> = Vec::new();
        for j in 0..ns {
            let col = sf.layout.blocks_of(j);
            for (bi, bb) in col.iter().enumerate() {
                if grid.col_of(bb.target) != my_col {
                    continue;
                }
                for (ai, ba) in col.iter().enumerate().skip(bi) {
                    let (a, b) = (ba.target, bb.target);
                    if grid.row_of(a) != my_row {
                        continue;
                    }
                    debug_assert_eq!(grid.map(a, b), rank);
                    let in_col_b = if a == b {
                        0
                    } else {
                        let col_b = sf.layout.blocks_of(b);
                        1 + col_b
                            .binary_search_by_key(&a, |x| x.target)
                            .expect("update target block exists")
                    };
                    owned_upd.push((j, bi, ai, gptr[b] + in_col_b));
                    upd_into[gptr[b] + in_col_b] += 1;
                    n_consumers[gptr[j] + 1 + ai] += 1;
                    if ai != bi {
                        n_consumers[gptr[j] + 1 + bi] += 1;
                    }
                }
            }
        }

        // Local block ids, column-major: the owned blocks (store slot
        // order), then the remote blocks something here consumes.
        let mut local = vec![NONE; n_global];
        let mut blocks: Vec<BlockKey> = Vec::new();
        let mut block_rows: Vec<(u32, u32)> = Vec::new();
        let mut assign = |want_owned: bool| {
            for j in 0..ns {
                for k in 0..gptr[j + 1] - gptr[j] {
                    let (i, rows) = block_at(j, k);
                    let owned = grid.map(i, j) == rank;
                    if owned != want_owned || (!owned && n_consumers[gptr[j] + k] == 0) {
                        continue;
                    }
                    local[gptr[j] + k] = blocks.len() as u32;
                    blocks.push((i, j));
                    block_rows.push(rows);
                    if owned && k > 0 {
                        // The owned panel task F(i,j) consumes L(j,j).
                        n_consumers[gptr[j]] += 1;
                    }
                }
            }
            blocks.len()
        };
        let n_owned = assign(true);
        assign(false);
        let total = n_owned + owned_upd.len();
        assert!(total < NONE as usize, "task count fits u32");

        // Consumer CSR, filled in the historical push order: panel tasks
        // into their diagonal by ascending target, update tasks into their
        // operands in enumeration order.
        let mut consumer_ptr = vec![0u32; blocks.len() + 1];
        for (g, &l) in local.iter().enumerate().filter(|(_, &l)| l != NONE) {
            consumer_ptr[l as usize + 1] = n_consumers[g];
        }
        for l in 0..blocks.len() {
            consumer_ptr[l + 1] += consumer_ptr[l];
        }
        let mut fill = consumer_ptr.clone();
        let mut consumers = vec![0 as TaskId; consumer_ptr[blocks.len()] as usize];
        let mut consume = |blk: BlockId, task: usize| {
            consumers[fill[blk as usize] as usize] = task as TaskId;
            fill[blk as usize] += 1;
        };
        let mut keys = Vec::with_capacity(total);
        let mut deps = Vec::with_capacity(total);
        let mut ops = Vec::with_capacity(total);
        // Factor tasks: global order is local order for the owned blocks.
        for (g, &target) in local.iter().enumerate() {
            if target as usize >= n_owned {
                continue;
            }
            let (i, j) = blocks[target as usize];
            let a = if i == j {
                keys.push(TaskKey::Diag { j });
                target
            } else {
                keys.push(TaskKey::Panel { i, j });
                consume(local[gptr[j]], target as usize);
                local[gptr[j]]
            };
            deps.push(upd_into[g] + u32::from(i != j));
            ops.push(TaskOps {
                target,
                a,
                b: target,
            });
        }
        for &(j, bi, ai, target) in &owned_upd {
            let col = sf.layout.blocks_of(j);
            let (a, b) = (local[gptr[j] + 1 + ai], local[gptr[j] + 1 + bi]);
            consume(a, keys.len());
            if a != b {
                consume(b, keys.len());
            }
            keys.push(TaskKey::Update {
                j,
                a: col[ai].target,
                b: col[bi].target,
            });
            // Inputs: L(a,j) and L(b,j) — one dependency when equal.
            deps.push(if a == b { 1 } else { 2 });
            ops.push(TaskOps {
                target: local[target],
                a,
                b,
            });
        }

        // Fan-out destinations of every owned block, appended straight to
        // `dests`: `listed` flags the ranks already in the current block's
        // run and is cleared after it, so no block allocates.
        let mut dest_ptr = vec![0u32; n_owned + 1];
        let mut dests = Vec::new();
        if grid.n_procs() > 1 {
            let mut listed = vec![false; grid.n_procs()];
            listed[rank] = true;
            for (l, &(i, j)) in blocks[..n_owned].iter().enumerate() {
                let start = dests.len();
                for_each_consumer_owner(sf, grid, i, j, |r| {
                    if !listed[r] {
                        listed[r] = true;
                        dests.push(r);
                    }
                });
                dests[start..].sort_unstable();
                for &r in &dests[start..] {
                    listed[r] = false;
                }
                dest_ptr[l + 1] = dests.len() as u32;
            }
        }
        LocalTasks {
            graph: Graph::new(keys, deps),
            ops,
            blocks,
            n_owned,
            block_rows,
            consumer_ptr,
            consumers,
            dest_ptr,
            dests,
        }
    }

    /// Global pattern rows of off-diagonal block `id` (empty for a
    /// diagonal block, whose rows are its supernode's own columns).
    pub fn block_rows<'a>(&self, sf: &'a SymbolicFactor, id: BlockId) -> &'a [usize] {
        let (_, j) = self.blocks[id as usize];
        let (off, n) = self.block_rows[id as usize];
        &sf.patterns[j][off as usize..(off + n) as usize]
    }

    /// Id of a consumed *remote* block (what a signal's `(i, j)` resolves
    /// to on arrival): a binary search of the column-major input range.
    pub fn input_id(&self, key: BlockKey) -> Option<BlockId> {
        self.blocks[self.n_owned..]
            .binary_search_by_key(&col_major(&key), col_major)
            .ok()
            .map(|k| (self.n_owned + k) as BlockId)
    }

    /// The owned tasks consuming factored block `id`, in the order the
    /// hashed runtime pushed them: for a diagonal `L(j,j)`, the panel tasks
    /// `F(i,j)` by ascending `i`; for a panel `L(x,j)`, `U(x,j,b)` by
    /// ascending `b < x`, then `U(x,j,x)`, then `U(a,j,x)` by ascending
    /// `a > x`. Decrement order is schedule-visible (it is RTQ push order).
    pub fn consumers_of(&self, id: BlockId) -> &[TaskId] {
        let i = id as usize;
        &self.consumers[self.consumer_ptr[i] as usize..self.consumer_ptr[i + 1] as usize]
    }

    /// Fan-out destination ranks of owned block `id` — [`fanout_dests`],
    /// computed once.
    pub fn dests_of(&self, id: BlockId) -> &[usize] {
        let i = id as usize;
        &self.dests[self.dest_ptr[i] as usize..self.dest_ptr[i + 1] as usize]
    }
}

/// The destination ranks a factored block must be fanned out to
/// (the paper's `P_F(i,j)` and `P_D(i)` sets, §3.3), ascending.
/// [`LocalTasks::dests_of`] holds the same list for every owned block.
pub fn fanout_dests(
    sf: &SymbolicFactor,
    grid: &ProcGrid,
    rank: usize,
    i: usize,
    j: usize,
) -> Vec<usize> {
    let mut owners = Vec::new();
    for_each_consumer_owner(sf, grid, i, j, |r| owners.push(r));
    let mut dests = distinct_owners(owners);
    dests.retain(|&d| d != rank);
    dests
}

/// Calls `visit` with the owner of every task consuming factored block
/// `L(i,j)`, repeats included.
fn for_each_consumer_owner(
    sf: &SymbolicFactor,
    grid: &ProcGrid,
    i: usize,
    j: usize,
    mut visit: impl FnMut(usize),
) {
    if i == j {
        // Diagonal factor L(j,j): needed by panel tasks F(t,j).
        for b in sf.layout.blocks_of(j) {
            visit(grid.map(b.target, j));
        }
    } else {
        // Panel factor L(i,j): needed by updates U(i,j,b) for targets b ≤ i
        // and U(a,j,i) for targets a ≥ i.
        for b in sf.layout.blocks_of(j) {
            let t = b.target;
            if t <= i {
                visit(grid.map(i, t));
            }
            if t >= i {
                visit(grid.map(t, i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_ordering::{compute_ordering, OrderingKind};
    use sympack_sparse::gen::laplacian_2d;
    use sympack_symbolic::{analyze, AnalyzeOptions};

    fn sf() -> SymbolicFactor {
        let a = laplacian_2d(7, 7);
        let ord = compute_ordering(&a, OrderingKind::NestedDissection);
        analyze(&a, &ord, &AnalyzeOptions::default())
    }

    #[test]
    fn single_rank_initial_ready_tasks_are_leaf_diagonals() {
        let sf = sf();
        let lt = LocalTasks::build(&sf, &ProcGrid::squarest(1), 0);
        let ready: Vec<&TaskKey> = (lt.graph.keys.iter().zip(&lt.graph.deps))
            .filter(|(_, &d)| d == 0)
            .map(|(k, _)| k)
            .collect();
        assert!(!ready.is_empty());
        for k in ready {
            match k {
                TaskKey::Diag { j } => {
                    // Leaf supernodes: nothing updates into them.
                    let has_incoming = (0..*j).any(|k| sf.layout.find(*j, k).is_some());
                    assert!(!has_incoming, "diag {j} should have no incoming updates");
                }
                other => panic!("only diagonal tasks can start ready, got {other:?}"),
            }
        }
    }

    #[test]
    fn dep_count_totals_match_edge_count() {
        // With m_j off-diagonal blocks in supernode j:
        //   update deps  = m_j (diag pairs, 1 input) + m_j(m_j−1) (off-diag
        //                  pairs, 2 inputs)             = m_j²
        //   panel deps   = m_j (diag inputs)
        //   update→target deps (into panels/diag)       = m_j(m_j+1)/2
        let sf = sf();
        let lt = LocalTasks::build(&sf, &ProcGrid::squarest(1), 0);
        let mut expect = 0usize;
        for j in 0..sf.n_supernodes() {
            let m = sf.layout.blocks_of(j).len();
            expect += m * m + m + m * (m + 1) / 2;
        }
        let total: usize = lt.graph.deps.iter().map(|&d| d as usize).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn fanout_dests_exclude_self_and_cover_consumers() {
        let sf = sf();
        let grid = ProcGrid::squarest(4);
        for j in 0..sf.n_supernodes() {
            for b in sf.layout.blocks_of(j) {
                let i = b.target;
                let owner = grid.map(i, j);
                let dests = fanout_dests(&sf, &grid, owner, i, j);
                assert!(!dests.contains(&owner));
                // Every rank with an update consuming L(i,j) is covered.
                for r in 0..4 {
                    if r == owner {
                        continue;
                    }
                    let lt = LocalTasks::build(&sf, &grid, r);
                    if lt.input_id((i, j)).is_some() {
                        assert!(dests.contains(&r), "rank {r} missing for L({i},{j})");
                    }
                }
            }
        }
    }
}
