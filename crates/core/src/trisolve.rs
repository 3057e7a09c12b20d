//! Distributed supernodal triangular solve: `L·y = b` then `Lᵀ·x = y`.
//!
//! The solve reuses the factor blocks exactly where the factorization left
//! them. Both sweeps are organized around the diagonal-block owners:
//!
//! * **forward**: the owner of `L(j,j)` solves its supernode once every
//!   contribution `B(j,k)·y_k` from descendant supernodes has been folded
//!   into its accumulator, then fans `y_j` out to the owners of the blocks
//!   `B(i,j)`, which compute and send their contributions onward — the same
//!   fan-out pattern as the factorization;
//! * **backward**: mirror image, descending order, using `B(i,j)ᵀ·x_i`.
//!
//! The engine is *panel-native*: a solve carries `nrhs` right-hand sides as
//! one dense `n × nrhs` column panel, every message payload is a block-row
//! panel, and the task bodies run the panel kernels from `sympack-dense`
//! ([`sympack_dense::panel`]). [`solve_panel`] is the one entry point; the
//! single-vector solve is its `nrhs = 1` case, which charges exactly the
//! costs and bytes of the original vector path. Batching amortizes
//! per-message latency and per-task overhead across the panel width — the
//! messages per sweep stay constant while their payloads grow.
//!
//! Messages ([`Msg::Solve`]) carry their panel payloads, charged full
//! latency+bandwidth cost. Like the factorization, all arithmetic is real
//! and all timing is virtual.
//!
//! Scheduling (dependency counters, the policy-driven RTQ, tracing) runs
//! through the shared [`crate::sched::TaskEngine`]: each sweep's supernode
//! solves are tasks, and so is each group of a rank's blocks that one
//! arriving panel releases (every block still charging its own time and
//! sending its own contribution); they are released by incoming messages
//! and picked under the session's [`RtqPolicy`] — the same queue the
//! factorization uses — over a task graph compiled once per plan
//! ([`SolveTasks`]).

use crate::sched::{self, Meta, Msg, RtqPolicy, TaskEngine, TaskId, TaskKind};
use crate::solve_tasks::{BlockOp, Panel, SolveTasks};
use crate::storage::{Block, BlockStore};
use crate::SolverError;
use std::ops::Range;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack_dense::panel::{
    gemm_nn_acc_raw, gemm_tn_acc_raw, is_small, trsm_left_lower_notrans_raw,
    trsm_left_lower_trans_raw,
};
use sympack_dense::{KernelConfig, Mat};
use sympack_gpu::{KernelEngine, Op};
use sympack_pgas::{Rank, Wire};
use sympack_symbolic::SymbolicFactor;
use sympack_trace::{TraceCat, TraceEvent, Tracer};

/// Dense forward substitution `L·y = rhs` (lower, non-unit diagonal).
pub fn forward_subst(l: &Mat, rhs: &mut [f64]) {
    let n = l.rows();
    assert_eq!(rhs.len(), n);
    for c in 0..n {
        let yc = rhs[c] / l[(c, c)];
        rhs[c] = yc;
        for r in c + 1..n {
            rhs[r] -= l[(r, c)] * yc;
        }
    }
}

/// Dense backward substitution `Lᵀ·x = rhs`.
pub fn backward_subst(l: &Mat, rhs: &mut [f64]) {
    let n = l.rows();
    assert_eq!(rhs.len(), n);
    for c in (0..n).rev() {
        let mut v = rhs[c];
        for r in c + 1..n {
            v -= l[(r, c)] * rhs[r];
        }
        rhs[c] = v / l[(c, c)];
    }
}

/// Knobs of one distributed solve.
#[derive(Debug, Clone, Copy)]
pub struct SolveParams {
    /// RTQ pop policy for the solve tasks (paper default: LIFO).
    pub policy: RtqPolicy,
    /// Extra per-message receive overhead (seconds). Zero for symPACK's
    /// one-sided protocol; the two-sided baselines pass a rendezvous cost.
    pub msg_overhead: f64,
    /// Collect a solve-task timeline.
    pub trace: bool,
}

/// Tasks of the triangular solve, per sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveKey {
    /// Forward-substitute supernode `j` once its contributions arrived.
    FwdDiag { j: usize },
    /// `B(i,j)·Y_j` for every block of column `j` owned by `rank`,
    /// released by the arrival of `Y_j`.
    FwdCol { j: usize, rank: u32 },
    /// Backward-substitute supernode `j`.
    BwdDiag { j: usize },
    /// `B(i,j)ᵀ·X_i` for every block of row `i` owned by `rank`, released
    /// by the arrival of `X_i`.
    BwdRow { i: usize, rank: u32 },
}

impl SolveKey {
    /// The sweep the task belongs to: `0` forward, `1` backward.
    pub(crate) fn sweep(&self) -> usize {
        matches!(self, SolveKey::BwdDiag { .. } | SolveKey::BwdRow { .. }) as usize
    }
}

impl TaskKind for SolveKey {
    fn priority_key(&self) -> (usize, usize) {
        match *self {
            // Forward critical path runs left-to-right…
            SolveKey::FwdDiag { j } => (j, 0),
            SolveKey::FwdCol { j, .. } => (j, 1),
            // …the backward sweep mirrors it right-to-left.
            SolveKey::BwdDiag { j } => (usize::MAX - j, 0),
            SolveKey::BwdRow { i, .. } => (usize::MAX - i, 1),
        }
    }

    fn seed_key(&self) -> (usize, usize, usize, usize) {
        match *self {
            SolveKey::FwdDiag { j } => (0, j, 0, 0),
            SolveKey::FwdCol { j, rank } => (1, j, rank as usize, 0),
            SolveKey::BwdDiag { j } => (2, usize::MAX - j, 0, 0),
            SolveKey::BwdRow { i, rank } => (3, usize::MAX - i, rank as usize, 0),
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            SolveKey::FwdDiag { .. } => "fwd_diag",
            SolveKey::FwdCol { .. } => "fwd_col",
            SolveKey::BwdDiag { .. } => "bwd_diag",
            SolveKey::BwdRow { .. } => "bwd_row",
        }
    }

    fn trace_label(&self) -> String {
        match *self {
            SolveKey::FwdDiag { j } => format!("Ly({j})"),
            SolveKey::FwdCol { j, rank } => format!("Gv(*,{j})@{rank}"),
            SolveKey::BwdDiag { j } => format!("Ltx({j})"),
            SolveKey::BwdRow { i, rank } => format!("Gv'({i},*)@{rank}"),
        }
    }

    fn trace_cat(&self) -> TraceCat {
        TraceCat::Solve
    }
}

/// Messages exchanged during the solve. All payloads are column-major
/// panels of `nrhs` columns. `by` is the producing task (its sweep is the
/// message's, its label the profiler's dependency edge); `group`/`diag` are
/// the receiver's own indices ([`Dest::idx`](crate::solve_tasks::Dest)).
/// A block's contribution carries its product only when it crosses ranks:
/// the local ones of a group travel as one message naming the group, and
/// the receiver forms each product where it folds it in.
#[derive(Clone)]
pub enum SolveMsg {
    /// `Y_j` / `X_j` (`w × nrhs`) is solved and fans out to the block
    /// groups that multiply it. `data` carries it from a remote owner —
    /// one allocation shared by every destination; `None` from this rank,
    /// whose arena holds it.
    Ready {
        by: SolveKey,
        group: u32,
        data: Option<Arc<[f64]>>,
    },
    /// A block's product for the owned diagonal `diag`: `B(i,j)ᵀ·X_i`
    /// (`w × nrhs`) backward; `B(i,j)·Y_j` (`m × nrhs`) forward, scattered
    /// through the block's `rows` slice of `patterns[j]` — read from the
    /// receiver's symbolic factor, charged to the message.
    Contrib {
        by: SolveKey,
        diag: u32,
        rows: (u32, u32),
        vals: Vec<f64>,
    },
    /// The contributions of group `group`'s blocks to diagonals this rank
    /// owns: `handle` forms each product from the arena and folds it in, in
    /// the group's block order; nothing travels.
    Fold { by: SolveKey, group: u32 },
}

/// Per-rank solve engine, owned by the solve for both sweeps.
pub struct SolveEngine {
    sf: Arc<SymbolicFactor>,
    tasks: Arc<SolveTasks>,
    /// This rank.
    me: u32,
    /// Right-hand sides carried through this solve (panel width).
    nrhs: usize,
    /// The RTQ pops a stack: a group runs its blocks last-released first.
    lifo: bool,
    /// The shared scheduling core: dependency counters, RTQ, inbox, tracer.
    pub rt: TaskEngine<SolveKey, SolveMsg>,
    /// The forward and the backward arena, one `w × nrhs` panel per
    /// [`Panel`] each: an owned supernode's accumulator (`b` rows forward,
    /// `Y_j` backward, minus the contributions so far) until its diagonal
    /// task turns it into `Y_j` / `X_j` in place; a received one otherwise.
    arena: [Vec<f64>; 2],
    /// The gathered `X_i` rows of a backward product.
    xsub: Vec<f64>,
    /// The product of a local contribution, formed where it is folded.
    prod: Vec<f64>,
    /// `rightᵀ·X` of a compressed block's factored product.
    lr_tmp: Vec<f64>,
    /// Executed tasks per sweep; a sweep is done at
    /// [`SolveTasks::sweep_len`].
    done: [usize; 2],
    kernels: KernelEngine,
    /// Extra per-message receive overhead (seconds).
    msg_overhead: f64,
}

/// Modeled seconds of `op(B)·X` for a stored block `B` and an
/// `nrhs`-column panel `X`: two flops per stored element per column, the
/// elements of a compressed block being its factors' ([`block_times`]).
fn block_secs(k: &KernelEngine, nrhs: usize, b: &Block) -> f64 {
    let elements = match b {
        Block::Dense(_) => b.rows() * b.cols(),
        Block::LowRank(lr) => (b.rows() + b.cols()) * lr.rank(),
    };
    let loc = k.place(Op::Gemm, elements);
    k.modeled_secs(Op::Gemm, loc, (2 * elements * nrhs) as u64)
}

/// `op(B)·X` for a stored block `B` and an `nrhs`-column panel `X` (`op` =
/// transpose when `trans`) into `out`, zeroed to the product's shape first,
/// in factored form when the block is stored compressed: `op(U·Vᵀ)·X =
/// left·(rightᵀ·X)`, `rightᵀ·X` in `tmp`.
fn block_times(
    cfg: &KernelConfig,
    nrhs: usize,
    b: &Block,
    trans: bool,
    x: &[f64],
    out: &mut Vec<f64>,
    tmp: &mut Vec<f64>,
) {
    let (m, w) = (b.rows(), b.cols());
    let (len, inner) = if trans { (w, m) } else { (m, w) };
    out.clear();
    out.resize(len * nrhs, 0.0);
    match b {
        Block::Dense(d) => {
            let gemm = [gemm_nn_acc_raw, gemm_tn_acc_raw][trans as usize];
            let (d, ld) = (d.as_slice(), d.ld());
            gemm(cfg, out, len, len, nrhs, d, ld, x, inner, inner);
        }
        Block::LowRank(lr) => {
            let r = lr.rank();
            let (left, right) = if trans {
                (lr.v(), lr.u())
            } else {
                (lr.u(), lr.v())
            };
            if r > 0 {
                tmp.clear();
                tmp.resize(r * nrhs, 0.0);
                let (rs, rld) = (right.as_slice(), right.ld());
                gemm_tn_acc_raw(cfg, tmp, r, r, nrhs, rs, rld, x, inner, inner);
                let (ls, lld) = (left.as_slice(), left.ld());
                gemm_nn_acc_raw(cfg, out, len, len, nrhs, ls, lld, tmp, r, r);
            }
        }
    }
}

/// Route a message: local push, or a payload message to `dest`.
fn send<M: Meta>(
    rt: &mut TaskEngine<SolveKey, SolveMsg>,
    msg_overhead: f64,
    rank: &mut Rank<Msg<M>>,
    dest: usize,
    msg: SolveMsg,
) {
    if dest == rank.id() {
        rt.post(msg);
        return;
    }
    let bytes = match &msg {
        SolveMsg::Ready { data, .. } => data.as_ref().map_or(0, |d| d.len() * 8),
        SolveMsg::Contrib { rows, vals, .. } => (rows.1 as usize + vals.len()) * 8,
        SolveMsg::Fold { .. } => unreachable!("a local contribution never crosses ranks"),
    };
    // Synchronization cost of the two-sided baseline's rendezvous
    // protocol: both sides block until the match completes, so the full
    // cost lands on sender *and* receiver for cross-node messages and a
    // fraction of it within a node. Zero for symPACK's one-sided path.
    let overhead = if rank.same_node(dest) {
        msg_overhead * 0.2
    } else {
        msg_overhead
    };
    rank.advance(overhead);
    rank.send(dest, Msg::Solve(msg, overhead), Wire::Payload(bytes));
}

/// Largest block, in stored entries, whose local product is folded in as
/// it is formed. Below it the buffered product's fixed cost (sizing and
/// zeroing `prod`, a second pass to fold) outweighs the direct fold's
/// strided one-chain-at-a-time loops; from 32 entries on, the buffered
/// product's vectorized loop wins. Most local blocks of
/// `thermal_like(110²)` are this small, few of `bone_like(16³)`'s
/// (EXPERIMENTS.md "PR 45" has the shares and the wall-clock pairs).
const DIRECT_FOLD: usize = 8;

/// Panel `src` to read and panel `dst` to update, of one arena (distinct
/// panels, so the two ranges are disjoint).
fn two_panels(arena: &mut [f64], src: Range<usize>, dst: Range<usize>) -> (&[f64], &mut [f64]) {
    if src.start < dst.start {
        let (head, tail) = arena.split_at_mut(dst.start);
        (&head[src], &mut tail[..dst.len()])
    } else {
        let (head, tail) = arena.split_at_mut(src.start);
        (&tail[..src.len()], &mut head[dst])
    }
}

impl SolveEngine {
    /// Per-solve set-up, nothing enumerated: a copy of the compiled
    /// counters, two zeroed arenas, and the forward seed — accumulator
    /// panels = this supernode's rows of every column of `bp` (the full
    /// permuted `n × nrhs` panel); the ready queue starts with the leaf
    /// supernode solves.
    fn new(
        me: usize,
        sf: Arc<SymbolicFactor>,
        tasks: Arc<SolveTasks>,
        bp: &[f64],
        nrhs: usize,
        kernels: KernelEngine,
        params: &SolveParams,
    ) -> Self {
        let abort = Arc::new(AtomicBool::new(false));
        let mut rt = TaskEngine::new(&tasks.graph, params.policy, abort);
        rt.tracer = params.trace.then(Tracer::new);
        let mut y = vec![0.0; tasks.arena_rows() * nrhs];
        for k in 0..tasks.diags.len() {
            let p = tasks.diag_panel(k);
            let first = sf.partition.first_col(p.sn);
            for (c, col) in y[p.elems(nrhs)].chunks_exact_mut(p.w).enumerate() {
                col.copy_from_slice(&bp[c * sf.n() + first..][..p.w]);
            }
        }
        SolveEngine {
            arena: [y, vec![0.0; tasks.arena_rows() * nrhs]],
            sf,
            tasks,
            me: me as u32,
            nrhs,
            lifo: params.policy == RtqPolicy::Lifo,
            rt,
            xsub: Vec::new(),
            prod: Vec::new(),
            lr_tmp: Vec::new(),
            done: [0; 2],
            kernels,
            msg_overhead: params.msg_overhead,
        }
    }

    /// Switch to the backward sweep: accumulators = y rows; release the
    /// guard dependency on every owned backward diagonal solve.
    fn bwd_init<M>(&mut self, rank: &mut Rank<M>) {
        let now = rank.now();
        let [y, x] = &mut self.arena;
        x.copy_from_slice(y);
        for k in 0..self.tasks.diags.len() {
            self.rt.dec_id(2 * k as TaskId + 1, now);
        }
    }

    /// The slot of the `k`-th block group `g` runs: the order in which the
    /// RTQ popped one task per block, all pushed at once by the panel's
    /// arrival — the last one first from a stack (Lifo), the first one
    /// under every other policy (Fifo pops in push order; CriticalPath and
    /// CommAware by `priority_key`, ascending within a group, the solve
    /// setting no urgency).
    fn run_order(&self, g: usize, k: usize) -> usize {
        let blocks = self.tasks.blocks(g);
        blocks[if self.lifo { blocks.len() - 1 - k } else { k }] as usize
    }

    /// Fold an incoming message into state and release dependent tasks.
    fn handle(&mut self, now: f64, store: &BlockStore, msg: SolveMsg) {
        let (t, nrhs) = (&*self.tasks, self.nrhs);
        match msg {
            SolveMsg::Ready { by, group, data } => {
                let g = group as usize;
                if let Some(data) = data {
                    let p = t.panels[t.groups[g] as usize];
                    self.arena[by.sweep()][p.elems(nrhs)].copy_from_slice(&data);
                }
                self.rt.dec_from_id(t.group_id(g), now, || by.trace_label());
            }
            SolveMsg::Contrib {
                by,
                diag,
                rows,
                vals,
            } => self.fold(now, by, diag, rows, &vals),
            SolveMsg::Fold { by, group } => {
                let (s, g) = (by.sweep(), group as usize);
                let src = t.panels[t.groups[g] as usize];
                for k in 0..t.blocks(g).len() {
                    let slot = self.run_order(g, k);
                    if self.tasks.ops[slot].to[s].rank == self.me {
                        self.fold_local(now, store, by, slot, src);
                    }
                }
            }
        }
    }

    /// Subtract the product `vals` of task `by` from the accumulator of
    /// owned diagonal `diag` — forward scattered through the block's `rows`
    /// of `patterns[j]` — and release that diagonal's task.
    fn fold(&mut self, now: f64, by: SolveKey, diag: u32, rows: (u32, u32), vals: &[f64]) {
        let (s, p) = (by.sweep(), self.tasks.diag_panel(diag as usize));
        let acc = &mut self.arena[s][p.elems(self.nrhs)];
        if let SolveKey::FwdCol { j, .. } = by {
            let (first, m) = (self.sf.partition.first_col(p.sn), rows.1 as usize);
            let rows = &self.sf.patterns[j][rows.0 as usize..][..m];
            for (acc, vals) in acc.chunks_exact_mut(p.w).zip(vals.chunks_exact(m)) {
                for (&r, v) in rows.iter().zip(vals) {
                    acc[r - first] -= v;
                }
            }
        } else {
            for (a, v) in acc.iter_mut().zip(vals) {
                *a -= v;
            }
        }
        self.release(now, by, diag);
    }

    /// One contribution of task `by` reached owned diagonal `diag`.
    fn release(&mut self, now: f64, by: SolveKey, diag: u32) {
        let id = 2 * diag + by.sweep() as TaskId;
        self.rt.dec_from_id(id, now, || by.trace_label());
    }

    /// Fold the contribution of this rank's block in `slot` (operand panel
    /// `src`) into the diagonal it targets here. A dense block of at most
    /// [`DIRECT_FOLD`] entries on the small path subtracts each product
    /// entry as it is formed — the chain of `gemm_nn_acc_raw` /
    /// `gemm_tn_acc_raw` from a zeroed output, so the bits are those of
    /// forming the product first; any other block forms it in `prod`
    /// ([`block_times`]).
    fn fold_local(&mut self, now: f64, store: &BlockStore, by: SolveKey, slot: usize, src: Panel) {
        let (s, nrhs, op) = (by.sweep(), self.nrhs, self.tasks.ops[slot]);
        let b = store.slot(slot).expect("owned block stored");
        let (m, w, cfg) = (b.rows(), b.cols(), &self.kernels.config);
        let dense = match b {
            Block::Dense(d) if m * w <= DIRECT_FOLD && is_small(cfg, m, nrhs, w) => d,
            _ => {
                let mut prod = std::mem::take(&mut self.prod);
                let rows = self.product(b, op, s, src, &mut prod);
                self.fold(now, by, op.to[s].idx, rows, &prod);
                self.prod = prod;
                return;
            }
        };
        let (d, ld) = (dense.as_slice(), dense.ld());
        let dst = self.tasks.diag_panel(op.to[s].idx as usize);
        let rows = &self.sf.patterns[op.j as usize][op.rows.0 as usize..][..m];
        let (x, acc) = two_panels(&mut self.arena[s], src.elems(nrhs), dst.elems(nrhs));
        let cols = x.chunks_exact(src.w).zip(acc.chunks_exact_mut(dst.w));
        if s == 0 {
            // acc[rows] -= B(i,j)·Y_j, one row's chain at a time.
            let first = self.sf.partition.first_col(dst.sn);
            for (y, acc) in cols {
                for (i, &r) in rows.iter().enumerate() {
                    let mut v = 0.0;
                    for (p, &yp) in y.iter().enumerate() {
                        v += d[p * ld + i] * yp;
                    }
                    acc[r - first] -= v;
                }
            }
        } else {
            // acc -= B(i,j)ᵀ·X_i[rows], reading X_i's rows in place.
            let first = self.sf.partition.first_col(src.sn);
            for (xi, acc) in cols {
                for (a, col) in acc.iter_mut().zip(d.chunks(ld)) {
                    let mut v = 0.0;
                    for (&bp, &r) in col.iter().zip(rows) {
                        v += bp * xi[r - first];
                    }
                    *a -= 0.0 + v;
                }
            }
        }
        self.release(now, by, op.to[s].idx);
    }

    /// The product of the off-diagonal block `b` (operands `op`) in sweep
    /// `s` against panel `src` into `out`: `B(i,j)·Y_j` forward,
    /// `B(i,j)ᵀ·X_i` backward over the block's rows of `X_i`, gathered
    /// first. Returns the `rows` its message carries: the block's
    /// `(row_offset, n_rows)` in `patterns[j]` forward, none backward.
    fn product(
        &mut self,
        b: &Block,
        op: BlockOp,
        s: usize,
        src: Panel,
        out: &mut Vec<f64>,
    ) -> (u32, u32) {
        let nrhs = self.nrhs;
        let operand = &self.arena[s][src.elems(nrhs)];
        let (operand, rows) = if s == 0 {
            (operand, op.rows)
        } else {
            // Gather the block's rows of X_i into a dense m × nrhs
            // sub-panel, then V = B(i,j)ᵀ · X_i[rows].
            let first = self.sf.partition.first_col(src.sn);
            let rows = &self.sf.patterns[op.j as usize][op.rows.0 as usize..][..op.rows.1 as usize];
            self.xsub.clear();
            for xi in operand.chunks_exact(src.w) {
                self.xsub.extend(rows.iter().map(|&r| xi[r - first]));
            }
            (&self.xsub[..], (0, 0))
        };
        let cfg = &self.kernels.config;
        block_times(cfg, nrhs, b, s == 1, operand, out, &mut self.lr_tmp);
        rows
    }

    /// Substitute owned diagonal `k` in place (forward with `L`, backward
    /// with `Lᵀ`) and fan the solved panel out to the groups that multiply
    /// it: `B(·,j)` forward, `B(j,·)` — every block whose rows live in
    /// supernode `j` — backward.
    fn substitute<M: Meta>(
        &mut self,
        rank: &mut Rank<Msg<M>>,
        store: &BlockStore,
        k: usize,
        key: SolveKey,
    ) {
        let (t, rt, nrhs, s) = (&*self.tasks, &mut self.rt, self.nrhs, key.sweep());
        let (slot, source) = (t.diags[k].slot as usize, t.diag_panel(k));
        let l = store.slot(slot).expect("owned block stored").dense();
        let (w, cfg) = (source.w, &self.kernels.config);
        let solved = &mut self.arena[s][source.elems(nrhs)];
        let trsm = [trsm_left_lower_notrans_raw, trsm_left_lower_trans_raw][s];
        trsm(cfg, solved, w, w, nrhs, l.as_slice(), l.ld());
        let loc = self.kernels.place(Op::Trsm, w * w);
        let secs = self
            .kernels
            .modeled_secs(Op::Trsm, loc, (w * w * nrhs) as u64);
        rt.charge(rank, key, secs);
        let mut payload: Option<Arc<[f64]>> = None;
        for dest in t.dests(s, k) {
            let remote = dest.rank as usize != rank.id();
            let data =
                remote.then(|| Arc::clone(payload.get_or_insert_with(|| Arc::from(&*solved))));
            let msg = SolveMsg::Ready {
                by: key,
                group: dest.idx,
                data,
            };
            send(rt, self.msg_overhead, rank, dest.rank as usize, msg);
        }
    }

    /// Run block group `g` in [`run_order`](Self::run_order): each block
    /// charges its modeled seconds in turn and a remote block's product is
    /// formed and sent at once — the clock and the messages of one task per
    /// block. The local products leave after the last block in one `Fold`,
    /// where the per-block messages sat in the inbox.
    fn multiply<M: Meta>(
        &mut self,
        rank: &mut Rank<Msg<M>>,
        store: &BlockStore,
        g: usize,
        key: SolveKey,
    ) {
        let (s, start, src) = (
            key.sweep(),
            rank.now(),
            self.tasks.panels[self.tasks.groups[g] as usize],
        );
        let (mut kernel, mut local) = (0.0, false);
        for k in 0..self.tasks.blocks(g).len() {
            let slot = self.run_order(g, k);
            let (op, b) = (
                self.tasks.ops[slot],
                store.slot(slot).expect("owned block stored"),
            );
            let secs = block_secs(&self.kernels, self.nrhs, b);
            rank.advance(secs);
            kernel += secs;
            let to = op.to[s];
            if to.rank == self.me {
                local = true;
                continue;
            }
            let mut vals = Vec::new();
            let rows = self.product(b, op, s, src, &mut vals);
            let msg = SolveMsg::Contrib {
                by: key,
                diag: to.idx,
                rows,
                vals,
            };
            send(&mut self.rt, self.msg_overhead, rank, to.rank as usize, msg);
        }
        self.rt.charge_since(rank, key, start, kernel);
        if local {
            let group = g as u32;
            self.rt.post(SolveMsg::Fold { by: key, group });
        }
    }

    /// Run every ready task to exhaustion: a diagonal's substitution (ids
    /// `2k`, `2k + 1`) or a block group.
    fn pump<M: Meta>(&mut self, rank: &mut Rank<Msg<M>>, store: &BlockStore) {
        while let Some((id, key, ready_at)) = self.rt.pick() {
            rank.advance_to(ready_at);
            let at = id as usize;
            match key {
                SolveKey::FwdDiag { .. } | SolveKey::BwdDiag { .. } => {
                    self.substitute(rank, store, at / 2, key)
                }
                _ => self.multiply(rank, store, at - 2 * self.tasks.diags.len(), key),
            }
            self.rt.complete(id);
            self.done[key.sweep()] += 1;
        }
    }
}

/// The solution one rank owns after a triangular solve, read in place: its
/// backward arena and the compiled tables that place each owned diagonal's
/// `w × nrhs` panel in it.
#[derive(Debug, Default)]
pub struct XArena {
    tasks: Arc<SolveTasks>,
    arena: Vec<f64>,
    nrhs: usize,
}

impl XArena {
    /// `(supernode, w × nrhs column-major panel)` per owned diagonal,
    /// ascending supernode; none when the solve never ran.
    pub fn pieces(&self) -> impl Iterator<Item = (usize, &[f64])> + '_ {
        (0..self.tasks.diags.len()).map(|k| {
            let p = self.tasks.diag_panel(k);
            (p.sn, &self.arena[p.elems(self.nrhs)])
        })
    }

    /// Add the pieces of `dx`, a solve of the same rank under the same plan
    /// (iterative refinement's correction), into these.
    pub(crate) fn add(&mut self, dx: &XArena) {
        for k in 0..self.tasks.diags.len() {
            let at = self.tasks.diag_panel(k).elems(self.nrhs);
            for (xi, di) in self.arena[at.clone()].iter_mut().zip(&dx.arena[at]) {
                *xi += di;
            }
        }
    }
}

/// What one rank gets back from a distributed solve.
#[derive(Default)]
pub struct SolveOutcome {
    /// The solution pieces owned by this rank, in the backward arena.
    pub x: XArena,
    /// Virtual time spent in the solve.
    pub elapsed: f64,
    /// Solve-task timeline (empty unless [`SolveParams::trace`]).
    pub trace: Vec<TraceEvent>,
    /// Executed solve tasks per kind on this rank.
    pub task_counts: Vec<(&'static str, u64)>,
    /// Error observed during the solve (mis-shaped input, diagnosed stall,
    /// abort).
    pub error: Option<SolverError>,
}

/// Run the distributed solve for a dense panel of `nrhs` right-hand sides.
///
/// `tasks` is this rank's compiled slice ([`SolveTasks::build_all`] over the
/// grid the factor was mapped with), `store` its factor blocks, `bp` the
/// full permuted `n × nrhs` panel, column-major and replicated on every rank
/// (as in the paper's driver). One panel solve issues the same number of
/// messages and tasks as a single-vector solve — the panel width rides along
/// in the payloads, which is where the batching win comes from.
///
/// An empty or mis-sized panel, or a store `tasks` was not compiled for,
/// comes back as [`SolverError::ShapeMismatch`] in [`SolveOutcome::error`]
/// before anything is sent: every rank runs the same check on the same
/// replicated input, so the collective exits stay aligned.
#[allow(clippy::too_many_arguments)] // one rank's view of the whole solve
pub fn solve_panel<M: Meta>(
    rank: &mut Rank<Msg<M>>,
    sf: Arc<SymbolicFactor>,
    tasks: Arc<SolveTasks>,
    store: &BlockStore,
    bp: &[f64],
    nrhs: usize,
    kernels: KernelEngine,
    params: &SolveParams,
) -> SolveOutcome {
    let start = rank.now();
    let shapes = SolverError::check_shape("right-hand sides (at least)", 1, nrhs.min(1))
        .and_then(|()| SolverError::check_shape("rhs panel entries", sf.n() * nrhs, bp.len()))
        .and_then(|()| {
            SolverError::check_shape("factor store blocks", tasks.ops.len(), store.len())
        });
    if let Err(e) = shapes {
        return SolveOutcome {
            error: Some(e),
            ..Default::default()
        };
    }
    let mut st = SolveEngine::new(rank.id(), sf, tasks, bp, nrhs, kernels, params);
    run_sweep(rank, &mut st, store, 0);
    // Backward sweep. When the forward sweep aborted (anywhere in the job),
    // this rank may be missing y pieces — skip the seed; the sweep's loop
    // exits immediately on the sticky abort.
    if !st.rt.aborted() && !rank.job_aborted() {
        st.bwd_init(rank);
    }
    run_sweep(rank, &mut st, store, 1);
    let trace = st.rt.tracer.take().map(Tracer::into_events);
    if st.rt.error.is_none() && !st.rt.aborted() && !rank.job_aborted() {
        st.rt.debug_assert_completed();
    }
    let SolveEngine {
        tasks,
        arena: [_, x],
        mut rt,
        ..
    } = st;
    SolveOutcome {
        x: XArena {
            tasks,
            arena: x,
            nrhs,
        },
        elapsed: rank.now() - start,
        trace: trace.unwrap_or_default(),
        task_counts: rt.task_counts(),
        error: rt.error.take(),
    }
}

/// All-gather the distributed per-supernode solution pieces so every rank
/// holds the full permuted `n × nrhs` panel, column-major (used by
/// iterative refinement to form the residuals). Messages ([`Msg::Piece`])
/// carry their payloads, sent in supernode × destination order, one shared
/// `w × nrhs` payload per piece; the result is identical on every rank.
pub fn allgather_solution<M: Meta>(
    rank: &mut Rank<Msg<M>>,
    sf: &SymbolicFactor,
    x: &XArena,
) -> Vec<f64> {
    // The permuted solution, and how many of its pieces are in.
    let (n, nrhs) = (sf.n(), x.nrhs);
    let mut gathered = (vec![0.0; n * nrhs], 0);
    let put = |(xp, got): &mut (Vec<f64>, usize), first: usize, piece: &[f64]| {
        for (c, col) in piece.chunks_exact(piece.len() / nrhs).enumerate() {
            xp[c * n + first..][..col.len()].copy_from_slice(col);
        }
        *got += 1;
    };
    let (me, n_ranks, ns) = (rank.id(), rank.n_ranks(), sf.n_supernodes());
    for (sn, piece) in x.pieces() {
        put(&mut gathered, sf.partition.first_col(sn), piece);
    }
    for (sn, piece) in x.pieces() {
        let (first, payload) = (sf.partition.first_col(sn), Arc::<[f64]>::from(piece));
        for dest in (0..n_ranks).filter(|&d| d != me) {
            let msg = Msg::Piece(first, Arc::clone(&payload));
            rank.send(dest, msg, Wire::Payload(piece.len() * 8));
        }
    }
    sched::run_event_loop(
        rank,
        &mut gathered,
        |_, g, msg| {
            if let Msg::Piece(first, piece) = msg {
                put(g, first, &piece);
            }
        },
        |_, g| g.1 == ns,
        |_, _| unreachable!("all-gather pieces travel on the reliable wire"),
    );
    gathered.0
}

/// Sweep `s` on the solver's one event loop: fold the messages that
/// arrived (each pays its rendezvous charge on delivery), run ready tasks,
/// fold, run what they released; then the sweep barrier.
fn run_sweep<M: Meta>(rank: &mut Rank<Msg<M>>, st: &mut SolveEngine, store: &BlockStore, s: usize) {
    sched::run_event_loop(
        rank,
        st,
        |rank, st, msg| {
            // Anything else is another phase's (a duplicate factor signal).
            if let Msg::Solve(msg, overhead) = msg {
                rank.advance(overhead);
                st.rt.post(msg);
            }
        },
        |rank, st| {
            st.pump(rank, store);
            let mut signals = st.rt.take_signals();
            if !signals.is_empty() {
                let now = rank.now();
                for msg in signals.drain(..) {
                    st.handle(now, store, msg);
                }
                st.rt.recycle_signals(signals);
            }
            st.pump(rank, store);
            st.done[s] == st.tasks.sweep_len(s) || st.rt.aborted() || rank.job_aborted()
        },
        |rank, st| {
            let sweep = ["forward", "backward"][s];
            let detail = format!("{sweep} solve sweep quiesced with unfinished tasks");
            st.rt.fail_stalled(rank, &detail);
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_subst_known_values() {
        // L = [[2,0],[1,3]]; L y = [4, 11] -> y = [2, 3].
        let l = Mat::from_row_major(2, 2, vec![2.0, 0.0, 1.0, 3.0]);
        let mut rhs = vec![4.0, 11.0];
        forward_subst(&l, &mut rhs);
        assert_eq!(rhs, vec![2.0, 3.0]);
    }

    #[test]
    fn backward_subst_known_values() {
        // L^T x = [7, 6] with L = [[2,0],[1,3]] -> x[1] = 2, x[0] = (7-2)/2.
        let l = Mat::from_row_major(2, 2, vec![2.0, 0.0, 1.0, 3.0]);
        let mut rhs = vec![7.0, 6.0];
        backward_subst(&l, &mut rhs);
        assert_eq!(rhs, vec![2.5, 2.0]);
    }

    #[test]
    fn substitutions_handle_identity() {
        let l = Mat::eye(5);
        let mut rhs: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let copy = rhs.clone();
        forward_subst(&l, &mut rhs);
        assert_eq!(rhs, copy);
        backward_subst(&l, &mut rhs);
        assert_eq!(rhs, copy);
    }

    #[test]
    fn forward_backward_substitution_invert_l() {
        let a = Mat::spd_from(7, |r, c| ((r * 3 + c) % 5) as f64 - 2.0);
        let mut l = a.clone();
        sympack_dense::potrf_cfg(&sympack_dense::KernelConfig::default(), &mut l).unwrap();
        l.zero_upper();
        let x_true: Vec<f64> = (0..7).map(|i| i as f64 - 3.0).collect();
        // b = L·Lᵀ·x
        let xt = Mat::from_col_major(7, 1, x_true.clone());
        let b = l.matmul(&l.transpose()).matmul(&xt);
        let mut rhs: Vec<f64> = b.as_slice().to_vec();
        forward_subst(&l, &mut rhs);
        backward_subst(&l, &mut rhs);
        for (got, want) in rhs.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }
}
