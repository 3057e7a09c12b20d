//! The triangular solve's task graph, *compiled* once per plan — the solve
//! counterpart of [`crate::taskgraph::LocalTasks`] (DESIGN.md §5.2).
//!
//! Both sweeps' tasks, counters, block groups and fan-out destinations are
//! a pure function of the sparsity pattern and the grid, so a plan builds
//! every rank's [`SolveTasks`] in one pass over the block layout and every
//! solve shares them behind an `Arc`; the per-solve state is a copy of
//! `deps` and two value arenas. Everything per sweep is a two-element array
//! indexed by the sweep: `0` = forward (`L·y = b`), `1` = backward
//! (`Lᵀ·x = y`).

use crate::map2d::{distinct_owners, ProcGrid};
use crate::sched::{Graph, TaskId};
use crate::trisolve::SolveKey;
use std::sync::Arc;
use sympack_symbolic::SymbolicFactor;

/// A supernode whose `w × nrhs` panel a rank holds during a solve: it
/// solves it (owned diagonal) or receives it (it owns a block of that
/// column, or one targeting that supernode). A rank's panels are numbered in
/// ascending supernode order and laid out back to back in its value arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Panel {
    /// The supernode.
    pub sn: usize,
    /// Arena rows before this panel.
    pub off: usize,
    /// Supernode width.
    pub w: usize,
}

impl Panel {
    /// The panel's elements in an arena of `nrhs`-column panels
    /// (column-major, leading dimension `w`).
    pub fn elems(&self, nrhs: usize) -> std::ops::Range<usize> {
        self.off * nrhs..(self.off + self.w) * nrhs
    }
}

/// Where a message goes: the rank, and the index *at that rank* of what it
/// is for — the block group a `Y`/`X` fan-out releases, the diagonal a
/// contribution folds into — so the receiver resolves nothing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Dest {
    /// Destination rank.
    pub rank: u32,
    /// Group or diagonal index in the destination's [`SolveTasks`].
    pub idx: u32,
}

/// An owned diagonal block `L(j,j)`: its forward task is id `2k`, its
/// backward task `2k + 1`, `k` its index in [`SolveTasks::diags`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diag {
    /// Its [`BlockStore`](crate::storage::BlockStore) slot.
    pub slot: u32,
    /// The panel of `j`: the accumulator, then `Y_j` / `X_j`.
    pub panel: u32,
}

/// What the two products of an owned off-diagonal block `B(i,j)` need.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BlockOp {
    /// The block's column supernode `j`.
    pub j: u32,
    /// `(row_offset, n_rows)` of `B(i,j)` in `SymbolicFactor::patterns[j]`.
    pub rows: (u32, u32),
    /// Where `B(i,j)`'s contributions go: the owner of `L(i,i)` (forward)
    /// and of `L(j,j)` (backward), with that diagonal's index there.
    pub to: [Dest; 2],
}

fn dest(rank: usize, idx: u32) -> Dest {
    let rank = rank as u32;
    Dest { rank, idx }
}

/// CSR rows of `T`, opened in order; only the last one grows.
#[derive(Debug, Default)]
struct Csr<T> {
    ptr: Vec<u32>,
    data: Vec<T>,
}

impl<T> Csr<T> {
    fn open(&mut self) {
        self.ptr.push(self.data.len() as u32);
    }

    fn row(&self, i: usize) -> &[T] {
        let end = self.ptr.get(i + 1).map_or(self.data.len(), |&e| e as usize);
        &self.data[self.ptr[i] as usize..end]
    }
}

/// One rank's compiled slice of both solve sweeps: two tasks per owned
/// diagonal ([`Diag`]), then one per block group — the owned blocks one
/// arriving panel releases, `B(·,j)` of column `j` on `Y_j` (`FwdCol`) and
/// `B(i,·)` of row `i` on `X_i` (`BwdRow`). Group `g` is task id
/// `2·diags.len() + g`.
#[derive(Debug, Default)]
pub struct SolveTasks {
    /// Keys, initial counters (a `BwdDiag`'s includes one guard, released
    /// at the sweep switch, so a root supernode cannot start early) and
    /// seeds (the leaf `FwdDiag`s) of both sweeps' tasks.
    pub graph: Graph<SolveKey>,
    /// The panels this rank holds, ascending supernode.
    pub panels: Vec<Panel>,
    /// Operands of every owned off-diagonal block, by store slot (a
    /// diagonal's entry is unused).
    pub ops: Vec<BlockOp>,
    /// The owned diagonal blocks, ascending supernode.
    pub diags: Vec<Diag>,
    /// Per group: the panel whose arrival releases it.
    pub groups: Vec<u32>,
    /// Per group: the slots of its blocks, in release order — column `j`
    /// ascending target, row `i` ascending column.
    blocks: Csr<u32>,
    /// Per diagonal: where `Y_j` / `X_j` fans out.
    dests: [Csr<Dest>; 2],
    /// Tasks per sweep: every diagonal's, and that sweep's groups.
    sweep_len: [usize; 2],
}

/// One rank's slice while [`SolveTasks::build_all`] fills it: the diagonal
/// tasks and the group keys grow apart and are joined at the end.
#[derive(Default)]
struct Slice {
    t: SolveTasks,
    diag_keys: Vec<SolveKey>,
    diag_deps: Vec<u32>,
    group_keys: Vec<SolveKey>,
}

impl Slice {
    /// Open a group reading panel `panel` under `key`; returns its index.
    fn open_group(&mut self, key: SolveKey, panel: u32) -> u32 {
        let t = &mut self.t;
        t.groups.push(panel);
        t.blocks.open();
        t.sweep_len[key.sweep()] += 1;
        self.group_keys.push(key);
        t.groups.len() as u32 - 1
    }

    fn compile(mut self) -> Arc<SolveTasks> {
        let groups = self.group_keys.len();
        let mut keys = Vec::with_capacity(self.diag_keys.len() + groups);
        keys.extend(self.diag_keys);
        keys.extend(self.group_keys);
        let mut deps = self.diag_deps;
        deps.resize(keys.len(), 1);
        let t = &mut self.t;
        assert!(keys.len() < u32::MAX as usize, "task ids fit u32");
        t.graph = Graph::new(keys, deps);
        t.groups.shrink_to_fit();
        t.blocks.ptr.shrink_to_fit();
        let diags = t.diags.len();
        t.sweep_len = t.sweep_len.map(|g| g + diags);
        Arc::new(self.t)
    }
}

impl SolveTasks {
    /// Compile every rank's slice in one pass over the block layout (no
    /// hashing; the layout-sized scratch arrays die with the call).
    pub fn build_all(sf: &SymbolicFactor, grid: &ProcGrid) -> Vec<Arc<SolveTasks>> {
        let (ns, p) = (sf.n_supernodes(), grid.n_procs());
        // Row structure of the layout, CSR over targets: the blocks (i, k)
        // by ascending k, each with its slot at its owner. Filled as the
        // sweep passes column k, so complete for i when it gets there.
        let (mut rptr, mut owned) = (vec![0usize; ns + 1], vec![(0usize, 0usize); p]);
        for j in 0..ns {
            owned[grid.map(j, j)].0 += 1;
            for b in sf.layout.blocks_of(j) {
                rptr[b.target + 1] += 1;
                owned[grid.map(b.target, j)].1 += 1;
            }
        }
        for i in 0..ns {
            rptr[i + 1] += rptr[i];
        }
        let mut fill = rptr.clone();
        let mut row_blocks = vec![(0usize, 0u32); rptr[ns]];
        // Sized up front: a plan keeps these tables, growth slack included.
        // Every off-diagonal block sits in two groups, one per sweep.
        let sized = |&(diags, blocks): &(usize, usize)| Slice {
            t: SolveTasks {
                ops: Vec::with_capacity(diags + blocks),
                diags: Vec::with_capacity(diags),
                blocks: Csr {
                    data: Vec::with_capacity(2 * blocks),
                    ..Default::default()
                },
                ..Default::default()
            },
            diag_keys: Vec::with_capacity(2 * diags),
            diag_deps: Vec::with_capacity(2 * diags),
            ..Default::default()
        };
        let mut out: Vec<Slice> = owned.iter().map(sized).collect();
        // Panel index of the current supernode at each rank holding it.
        let mut panel_at = vec![0u32; p];
        // A block's store slot.
        let push = |t: &mut SolveTasks, op: BlockOp| {
            t.ops.push(op);
            t.ops.len() as u32 - 1
        };
        for j in 0..ns {
            let (w, col) = (sf.partition.width(j), sf.layout.blocks_of(j));
            // The blocks targeting j (complete: their columns are all < j),
            // apart from the rows still being filled for later targets.
            let (done, later) = row_blocks.split_at_mut(rptr[j + 1]);
            let row = &done[rptr[j]..];
            let owner = grid.map(j, j);
            let fan = [
                distinct_owners(col.iter().map(|b| grid.map(b.target, j))),
                distinct_owners(row.iter().map(|&(k, _)| grid.map(j, k))),
            ];
            let holders = fan.iter().flatten().copied().chain([owner]);
            for r in distinct_owners(holders) {
                let t = &mut out[r].t;
                let off = t.arena_rows();
                panel_at[r] = t.panels.len() as u32;
                t.panels.push(Panel { sn: j, off, w });
            }
            let o = &mut out[owner];
            let slot = push(&mut o.t, BlockOp::default());
            let panel = panel_at[owner];
            let me = dest(owner, o.t.diags.len() as u32);
            o.t.diags.push(Diag { slot, panel });
            o.diag_keys
                .extend([SolveKey::FwdDiag { j }, SolveKey::BwdDiag { j }]);
            // This diagonal, as the destination of its blocks' contributions.
            o.diag_deps.extend([row.len() as u32, col.len() as u32 + 1]);
            o.t.dests.iter_mut().for_each(Csr::open);
            // One group per sweep at each rank owning blocks this panel
            // releases; the diagonal fans out to exactly those groups. Only
            // a rank's last group grows, so each sweep's groups open just
            // before their blocks are placed.
            let open = |out: &mut Vec<Slice>, s: usize| {
                for &r in &fan[s] {
                    let rank = r as u32;
                    let key = [
                        SolveKey::FwdCol { j, rank },
                        SolveKey::BwdRow { i: j, rank },
                    ][s];
                    let g = out[r].open_group(key, panel_at[r]);
                    out[owner].t.dests[s].data.push(dest(r, g));
                }
            };
            // Row j, which X_j releases; their forward contributions come
            // here.
            open(&mut out, 1);
            for &(k, slot) in row {
                let t = &mut out[grid.map(j, k)].t;
                t.blocks.data.push(slot);
                t.ops[slot as usize].to[0] = me;
            }
            // Column j, which Y_j releases.
            open(&mut out, 0);
            for b in col {
                let (i, r) = (b.target, grid.map(b.target, j));
                let op = BlockOp {
                    j: j as u32,
                    rows: (b.row_offset as u32, b.n_rows as u32),
                    to: [me, me], // the first is set when the sweep reaches i
                };
                let t = &mut out[r].t;
                let slot = push(t, op);
                t.blocks.data.push(slot);
                later[fill[i] - rptr[j + 1]] = (j, slot);
                fill[i] += 1;
            }
        }
        out.into_iter().map(Slice::compile).collect()
    }

    /// The panel of owned diagonal `k`.
    pub(crate) fn diag_panel(&self, k: usize) -> Panel {
        self.panels[self.diags[k].panel as usize]
    }

    /// Task id of group `g`.
    pub fn group_id(&self, g: usize) -> TaskId {
        (2 * self.diags.len() + g) as TaskId
    }

    /// Rows of this rank's value arenas (× `nrhs` elements each).
    pub fn arena_rows(&self) -> usize {
        self.panels.last().map_or(0, |p| p.off + p.w)
    }

    /// The slots of group `g`'s blocks, in release order.
    pub fn blocks(&self, g: usize) -> &[u32] {
        self.blocks.row(g)
    }

    /// Where diagonal `k`'s solved panel fans out in `sweep`: the distinct
    /// owners, ascending, of `B(·,j)` / `B(j,·)`, each with its group that
    /// the panel releases. This rank included: a local delivery goes
    /// through the inbox too.
    pub fn dests(&self, sweep: usize, k: usize) -> &[Dest] {
        self.dests[sweep].row(k)
    }

    /// The tasks of `sweep` on this rank: a sweep is done when they ran.
    pub(crate) fn sweep_len(&self, sweep: usize) -> usize {
        self.sweep_len[sweep]
    }
}
