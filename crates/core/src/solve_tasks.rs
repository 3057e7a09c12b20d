//! The triangular solve's task graph, *compiled* once per plan — the solve
//! counterpart of [`crate::taskgraph::LocalTasks`] (DESIGN.md §5.2).
//!
//! Both sweeps' tasks, counters, release lists and fan-out destinations are
//! a pure function of the sparsity pattern and the grid, so a plan builds
//! every rank's [`SolveTasks`] in one pass over the block layout and every
//! solve shares them behind an `Arc`; the per-solve state is a copy of
//! `deps` and two value arenas. Everything per sweep is a two-element array
//! indexed by the sweep: `0` = forward (`L·y = b`), `1` = backward
//! (`Lᵀ·x = y`).

use crate::map2d::{distinct_owners, ProcGrid};
use crate::sched::Graph;
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
/// is for — the panel of a `Y`/`X` fan-out, the diagonal block's slot of a
/// contribution — so the receiver resolves nothing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Dest {
    /// Destination rank.
    pub rank: u32,
    /// Panel index or block slot in the destination's [`SolveTasks`].
    pub idx: u32,
}

/// What the two tasks of an owned block operate on.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BlockOp {
    /// Off-diagonal `B(i,j)`: the panels its GEMVs read, of `j` (`Y_j`) and
    /// of `i` (`X_i`). Diagonal `L(j,j)`: panel `j`, twice.
    pub panel: [u32; 2],
    /// `(row_offset, n_rows)` of `B(i,j)` in `SymbolicFactor::patterns[j]`.
    pub rows: (u32, u32),
    /// Where `B(i,j)`'s contributions go: the owner of `L(i,i)` (forward)
    /// and of `L(j,j)` (backward), with that diagonal's slot there.
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

/// One rank's compiled slice of both solve sweeps. An owned block's
/// [`BlockStore`](crate::storage::BlockStore) slot `l` names its two tasks,
/// ids `2l` (forward) and `2l + 1` (backward): `FwdDiag`/`BwdDiag` of a
/// diagonal block, `FwdGemv`/`BwdGemv` otherwise.
#[derive(Debug, Default)]
pub struct SolveTasks {
    /// Keys, initial counters (a `BwdDiag`'s includes one guard, released
    /// at the sweep switch, so a root supernode cannot start early) and
    /// seeds (the leaf `FwdDiag`s) of both sweeps' tasks.
    pub graph: Graph<SolveKey>,
    /// The panels this rank holds, ascending supernode.
    pub panels: Vec<Panel>,
    /// Operands of every owned block, by slot.
    pub ops: Vec<BlockOp>,
    /// Slots of the owned diagonal blocks, ascending supernode.
    pub diags: Vec<u32>,
    /// Per panel: the slots of the owned blocks `Y_sn` / `X_sn` releases.
    released: [Csr<u32>; 2],
    /// Per slot, empty off the diagonal: where `Y_j` / `X_j` fans out.
    dests: [Csr<Dest>; 2],
}

impl SolveTasks {
    /// Compile every rank's slice in one pass over the block layout (no
    /// hashing; the layout-sized scratch arrays die with the call).
    pub fn build_all(sf: &SymbolicFactor, grid: &ProcGrid) -> Vec<Arc<SolveTasks>> {
        let (ns, p) = (sf.n_supernodes(), grid.n_procs());
        // Row structure of the layout, CSR over targets: the blocks (i, k)
        // by ascending k, each with its slot at its owner. Filled as the
        // sweep passes column k, so complete for i when it gets there.
        let (mut rptr, mut owned) = (vec![0usize; ns + 1], vec![0usize; p]);
        for j in 0..ns {
            owned[grid.map(j, j)] += 1;
            for b in sf.layout.blocks_of(j) {
                rptr[b.target + 1] += 1;
                owned[grid.map(b.target, j)] += 1;
            }
        }
        for i in 0..ns {
            rptr[i + 1] += rptr[i];
        }
        let mut fill = rptr.clone();
        let mut row_blocks = vec![(0usize, 0u32); rptr[ns]];
        // Sized up front: a plan keeps these tables, growth slack included.
        let tasks = |&n: &usize| (Vec::with_capacity(2 * n), Vec::with_capacity(2 * n));
        type Tasks = (Vec<SolveKey>, Vec<u32>);
        let mut graphs: Vec<Tasks> = owned.iter().map(tasks).collect();
        let sized = |n: usize| SolveTasks {
            ops: Vec::with_capacity(n),
            ..Default::default()
        };
        let mut out: Vec<SolveTasks> = owned.into_iter().map(sized).collect();
        // Panel index of the current supernode at each rank holding it.
        let mut panel_at = vec![0u32; p];
        // A block's slot and its two tasks.
        let push =
            |t: &mut SolveTasks, g: &mut Tasks, keys: [SolveKey; 2], deps: [usize; 2], op| {
                g.0.extend(keys);
                g.1.extend(deps.map(|d| d as u32));
                t.dests.iter_mut().for_each(Csr::open);
                t.ops.push(op);
                assert!(t.ops.len() < (u32::MAX / 2) as usize, "task ids fit u32");
                t.ops.len() as u32 - 1
            };
        for j in 0..ns {
            let (w, col) = (sf.partition.width(j), sf.layout.blocks_of(j));
            let row = row_blocks[rptr[j]..rptr[j + 1]].to_vec();
            let owner = grid.map(j, j);
            let fan = [
                distinct_owners(col.iter().map(|b| grid.map(b.target, j))),
                distinct_owners(row.iter().map(|&(k, _)| grid.map(j, k))),
            ];
            let holders = fan.iter().flatten().copied().chain([owner]);
            for r in distinct_owners(holders) {
                let t = &mut out[r];
                let off = t.arena_rows();
                panel_at[r] = t.panels.len() as u32;
                t.panels.push(Panel { sn: j, off, w });
                t.released.iter_mut().for_each(Csr::open);
            }
            let (t, pa) = (&mut out[owner], panel_at[owner]);
            let diag = BlockOp {
                panel: [pa, pa],
                ..Default::default()
            };
            let keys = [SolveKey::FwdDiag { j }, SolveKey::BwdDiag { j }];
            // This diagonal, as the destination of its blocks' contributions.
            let deps = [row.len(), col.len() + 1];
            let me = dest(owner, push(t, &mut graphs[owner], keys, deps, diag));
            t.diags.push(me.idx);
            for (dests, ranks) in t.dests.iter_mut().zip(&fan) {
                dests
                    .data
                    .extend(ranks.iter().map(|&r| dest(r, panel_at[r])));
            }
            // The blocks targeting j: X_j releases them, and their forward
            // contributions come here.
            for &(k, slot) in &row {
                let r = grid.map(j, k);
                out[r].released[1].data.push(slot);
                let op = &mut out[r].ops[slot as usize];
                (op.panel[1], op.to[0]) = (panel_at[r], me);
            }
            for b in col {
                let (i, r) = (b.target, grid.map(b.target, j));
                let op = BlockOp {
                    panel: [panel_at[r], u32::MAX], // the sweep sets the second
                    rows: (b.row_offset as u32, b.n_rows as u32),
                    to: [me, me], // and the first, when it reaches i
                };
                let keys = [SolveKey::FwdGemv { i, j }, SolveKey::BwdGemv { i, j }];
                let slot = push(&mut out[r], &mut graphs[r], keys, [1, 1], op);
                out[r].released[0].data.push(slot);
                row_blocks[fill[i]] = (j, slot);
                fill[i] += 1;
            }
        }
        let compile = |(mut t, (keys, deps)): (SolveTasks, Tasks)| {
            t.graph = Graph::new(keys, deps);
            Arc::new(t)
        };
        out.into_iter().zip(graphs).map(compile).collect()
    }

    /// The panel of the owned diagonal block in `slot`.
    pub(crate) fn diag_panel(&self, slot: u32) -> Panel {
        self.panels[self.ops[slot as usize].panel[0] as usize]
    }

    /// Rows of this rank's value arenas (× `nrhs` elements each).
    pub fn arena_rows(&self) -> usize {
        self.panels.last().map_or(0, |p| p.off + p.w)
    }

    /// The slots of the owned blocks `Y_sn` (column `sn`, ascending target)
    /// / `X_sn` (row `sn`, ascending column) releases on arrival, in release
    /// order — RTQ push order, so schedule-visible.
    pub fn released_by(&self, sweep: usize, panel: usize) -> &[u32] {
        self.released[sweep].row(panel)
    }

    /// Where diagonal `slot`'s solved panel fans out in `sweep`: the distinct
    /// owners, ascending, of `B(·,j)` / `B(j,·)`, each with its panel index of
    /// `j`. This rank included: a local delivery goes through the inbox too.
    pub fn dests(&self, sweep: usize, slot: usize) -> &[Dest] {
        self.dests[sweep].row(slot)
    }
}
