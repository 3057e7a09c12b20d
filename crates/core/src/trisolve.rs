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
//! ([`sympack_dense::panel`]). [`solve`] is the single-vector special case
//! (`nrhs = 1`), which charges exactly the costs and bytes of the original
//! vector path; [`solve_panel`] is the batched entry point used by
//! `sympack-service` sessions. Batching amortizes per-message latency and
//! per-task overhead across the panel width — the messages per sweep stay
//! constant while their payloads grow.
//!
//! Messages are RPCs carrying their panel payloads, charged full
//! latency+bandwidth cost. Like the factorization, all arithmetic is real
//! and all timing is virtual.
//!
//! Scheduling (dependency counters, the policy-driven RTQ, tracing) runs
//! through the shared [`crate::sched::TaskEngine`]: each sweep's supernode
//! solves and block GEMVs are tasks, released by incoming messages and
//! picked under the session's [`RtqPolicy`] — the same queue the
//! factorization uses.

use crate::map2d::{distinct_owners, ProcGrid};
use crate::sched::{self, RtqPolicy, TaskEngine, TaskKind};
use crate::storage::{Block, BlockStore};
use crate::SolverError;
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack_dense::panel::{
    gemm_nn_acc_raw, gemm_tn_acc_raw, trsm_left_lower_notrans_raw, trsm_left_lower_trans_raw,
};
use sympack_dense::Mat;
use sympack_gpu::{KernelEngine, Op};
use sympack_pgas::Rank;
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

impl Default for SolveParams {
    fn default() -> Self {
        SolveParams {
            policy: RtqPolicy::Lifo,
            msg_overhead: 0.0,
            trace: false,
        }
    }
}

/// Tasks of the triangular solve, per sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveKey {
    /// Forward-substitute supernode `j` once its contributions arrived.
    FwdDiag { j: usize },
    /// `B(i,j)·y_j`, released by the arrival of `y_j`.
    FwdGemv { i: usize, j: usize },
    /// Backward-substitute supernode `j`.
    BwdDiag { j: usize },
    /// `B(i,j)ᵀ·x_i`, released by the arrival of `x_i`.
    BwdGemv { i: usize, j: usize },
}

impl TaskKind for SolveKey {
    fn priority_key(&self) -> (usize, usize) {
        match *self {
            // Forward critical path runs left-to-right…
            SolveKey::FwdDiag { j } => (j, 0),
            SolveKey::FwdGemv { i, j } => (j, i),
            // …the backward sweep mirrors it right-to-left.
            SolveKey::BwdDiag { j } => (usize::MAX - j, 0),
            SolveKey::BwdGemv { i, j } => (usize::MAX - i, j),
        }
    }

    fn seed_key(&self) -> (usize, usize, usize, usize) {
        match *self {
            SolveKey::FwdDiag { j } => (0, j, 0, 0),
            SolveKey::FwdGemv { i, j } => (1, j, i, 0),
            SolveKey::BwdDiag { j } => (2, usize::MAX - j, 0, 0),
            SolveKey::BwdGemv { i, j } => (3, usize::MAX - i, j, 0),
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            SolveKey::FwdDiag { .. } => "fwd_diag",
            SolveKey::FwdGemv { .. } => "fwd_gemv",
            SolveKey::BwdDiag { .. } => "bwd_diag",
            SolveKey::BwdGemv { .. } => "bwd_gemv",
        }
    }

    fn trace_label(&self) -> String {
        match *self {
            SolveKey::FwdDiag { j } => format!("Ly({j})"),
            SolveKey::FwdGemv { i, j } => format!("Gv({i},{j})"),
            SolveKey::BwdDiag { j } => format!("Ltx({j})"),
            SolveKey::BwdGemv { i, j } => format!("Gv'({i},{j})"),
        }
    }

    fn trace_cat(&self) -> TraceCat {
        TraceCat::Solve
    }
}

/// Messages exchanged during the solve. All payloads are column-major
/// panels of `nrhs` columns (`nrhs = 1` for the vector solve).
pub enum SolveMsg {
    /// `Y_j` (`w × nrhs`) fanned out to block owners (forward sweep).
    YReady { j: usize, y: Vec<f64> },
    /// `B(i,j)·Y_j` (`m × nrhs`) folded into supernode `i`'s accumulator.
    /// `j` names the producing GEMV's column for profiling.
    FwdContrib {
        target: usize,
        j: usize,
        rows: Vec<usize>,
        vals: Vec<f64>,
    },
    /// `X_i` (`w × nrhs`) fanned out to block owners (backward sweep).
    XReady { i: usize, x: Vec<f64> },
    /// `B(i,j)ᵀ·X_i` (`w × nrhs`) folded into supernode `j`'s accumulator.
    /// `i` names the producing GEMV's row for profiling.
    BwdContrib {
        target: usize,
        i: usize,
        vals: Vec<f64>,
    },
}

/// Per-rank solve engine; installed as rank user state during the solve.
pub struct SolveEngine {
    sf: Arc<SymbolicFactor>,
    grid: ProcGrid,
    /// Right-hand sides carried through this solve (panel width).
    nrhs: usize,
    /// The shared scheduling core: dependency counters, RTQ, inbox, tracer.
    pub rt: TaskEngine<SolveKey, SolveMsg>,
    /// Accumulator panels (`w × nrhs`) at diagonal owners (forward: b rows,
    /// backward: y rows).
    acc: HashMap<usize, Vec<f64>>,
    /// Solved `Y_j` panels (forward) kept for the backward sweep.
    y: HashMap<usize, Vec<f64>>,
    /// Solved `X_j` panels at diagonal owners.
    pub x: HashMap<usize, Vec<f64>>,
    /// Received `Y_j` panels awaiting their GEMM tasks.
    yin: HashMap<usize, Vec<f64>>,
    /// Received `X_i` panels awaiting their GEMM tasks.
    xin: HashMap<usize, Vec<f64>>,
    /// Owned off-diagonal blocks keyed by owner supernode `j` → targets `i`.
    my_blocks_by_j: HashMap<usize, Vec<usize>>,
    /// Owned blocks keyed by target `i` (backward sweep lookup).
    my_blocks_by_i: HashMap<usize, Vec<usize>>,
    /// For each supernode `i`: the owners of blocks `B(i,j)` over all `j`
    /// (deduplicated) — the backward fan-out destination sets.
    rev_owners: Vec<Vec<usize>>,
    /// Diagonal supernodes owned by this rank.
    my_diags: Vec<usize>,
    gemvs_total: u64,
    kernels: KernelEngine,
    /// Extra per-message receive overhead (seconds).
    msg_overhead: f64,
}

impl SolveEngine {
    fn new(
        sf: Arc<SymbolicFactor>,
        grid: ProcGrid,
        rank: usize,
        nrhs: usize,
        kernels: KernelEngine,
        params: &SolveParams,
    ) -> Self {
        let ns = sf.n_supernodes();
        let mut my_blocks_by_j: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut my_blocks_by_i: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut rev_owners: Vec<Vec<usize>> = vec![Vec::new(); ns];
        let mut incoming = vec![0usize; ns];
        let mut gemvs_total = 0u64;
        for j in 0..ns {
            for b in sf.layout.blocks_of(j) {
                let owner = grid.map(b.target, j);
                rev_owners[b.target].push(owner);
                incoming[b.target] += 1;
                if owner == rank {
                    my_blocks_by_j.entry(j).or_default().push(b.target);
                    my_blocks_by_i.entry(b.target).or_default().push(j);
                    gemvs_total += 1;
                }
            }
        }
        let rev_owners = rev_owners.into_iter().map(distinct_owners).collect();
        let my_diags: Vec<usize> = (0..ns).filter(|&j| grid.map(j, j) == rank).collect();
        let mut rt = TaskEngine::new(params.policy, Arc::new(AtomicBool::new(false)));
        if params.trace {
            rt.tracer = Some(Tracer::new());
        }
        // Register both sweeps' tasks up front. Backward diagonal solves
        // carry one extra guard dependency, released at the phase switch, so
        // a root supernode (no off-diagonal blocks) cannot start early.
        for &j in &my_diags {
            rt.insert_task(SolveKey::FwdDiag { j }, incoming[j]);
            rt.insert_task(SolveKey::BwdDiag { j }, sf.layout.blocks_of(j).len() + 1);
        }
        for (&j, targets) in &my_blocks_by_j {
            for &i in targets {
                rt.insert_task(SolveKey::FwdGemv { i, j }, 1);
                rt.insert_task(SolveKey::BwdGemv { i, j }, 1);
            }
        }
        SolveEngine {
            sf,
            grid,
            nrhs,
            rt,
            acc: HashMap::new(),
            y: HashMap::new(),
            x: HashMap::new(),
            yin: HashMap::new(),
            xin: HashMap::new(),
            my_blocks_by_j,
            my_blocks_by_i,
            rev_owners,
            my_diags,
            gemvs_total,
            kernels,
            msg_overhead: params.msg_overhead,
        }
    }

    /// Cost-model seconds for a solve kernel (placement included).
    fn kernel_secs(&mut self, op: Op, elements: usize, flops: u64) -> f64 {
        let loc = self.kernels.place(op, elements);
        match loc {
            sympack_gpu::Loc::Cpu => self.kernels.cost.cpu_time(op, flops),
            sympack_gpu::Loc::Gpu => self.kernels.cost.gpu_time(op, flops),
        }
    }

    /// Route a message: local push or RPC with payload cost.
    fn send(&mut self, rank: &mut Rank, dest: usize, msg: SolveMsg) {
        if dest == rank.id() {
            self.rt.post(msg);
            return;
        }
        let bytes = match &msg {
            SolveMsg::YReady { y, .. } => y.len() * 8,
            SolveMsg::FwdContrib { rows, vals, .. } => (rows.len() + vals.len()) * 8,
            SolveMsg::XReady { x, .. } => x.len() * 8,
            SolveMsg::BwdContrib { vals, .. } => vals.len() * 8,
        };
        // Synchronization cost of the two-sided baseline's rendezvous
        // protocol: both sides block until the match completes, so the full
        // cost lands on sender *and* receiver for cross-node messages and a
        // fraction of it within a node. Zero for symPACK's one-sided path.
        let overhead = if rank.same_node(dest) {
            self.msg_overhead * 0.2
        } else {
            self.msg_overhead
        };
        rank.advance(overhead);
        // Wrap so the closure is Send: vectors move into it.
        let cell = std::sync::Mutex::new(Some(msg));
        rank.rpc_payload(dest, bytes, move |r| {
            r.advance(overhead);
            let msg = cell.lock().unwrap().take().expect("message delivered once");
            r.with_state::<SolveEngine, _>(|_, st| st.rt.post(msg));
        });
    }

    /// Seed the forward sweep: accumulator panels = this supernode's rows of
    /// every permuted RHS column; the ready queue starts with the leaf
    /// supernode solves. `bp` is the full `n × nrhs` panel, column-major.
    fn fwd_init(&mut self, bp: &[f64]) {
        let n = self.sf.n();
        for &j in &self.my_diags {
            let first = self.sf.partition.first_col(j);
            let w = self.sf.partition.width(j);
            let mut panel = vec![0.0; w * self.nrhs];
            for k in 0..self.nrhs {
                panel[k * w..(k + 1) * w].copy_from_slice(&bp[k * n + first..k * n + first + w]);
            }
            self.acc.insert(j, panel);
        }
        self.rt.seed_ready();
    }

    /// Switch to the backward sweep: accumulators = y rows; release the
    /// guard dependency on every owned backward diagonal solve.
    fn bwd_init(&mut self, rank: &mut Rank) {
        let now = rank.now();
        for &j in &self.my_diags {
            let y = self.y.get(&j).expect("forward solved").clone();
            self.acc.insert(j, y);
            self.rt.dec(SolveKey::BwdDiag { j }, now);
        }
    }

    /// Fold an incoming message into state and release dependent tasks.
    fn handle(&mut self, rank: &mut Rank, msg: SolveMsg) {
        let now = rank.now();
        match msg {
            SolveMsg::YReady { j, y } => {
                self.yin.insert(j, y);
                for &i in self.my_blocks_by_j.get(&j).into_iter().flatten() {
                    self.rt
                        .dec_from(SolveKey::FwdGemv { i, j }, now, || format!("Ly({j})"));
                }
            }
            SolveMsg::FwdContrib {
                target,
                j,
                rows,
                vals,
            } => {
                let first = self.sf.partition.first_col(target);
                let w = self.sf.partition.width(target);
                let m = rows.len();
                let acc = self
                    .acc
                    .get_mut(&target)
                    .expect("diag owner has accumulator");
                for k in 0..self.nrhs {
                    for (ri, &r) in rows.iter().enumerate() {
                        acc[k * w + (r - first)] -= vals[k * m + ri];
                    }
                }
                self.rt.dec_from(SolveKey::FwdDiag { j: target }, now, || {
                    format!("Gv({target},{j})")
                });
            }
            SolveMsg::XReady { i, x } => {
                self.xin.insert(i, x);
                for &j in self.my_blocks_by_i.get(&i).into_iter().flatten() {
                    self.rt
                        .dec_from(SolveKey::BwdGemv { i, j }, now, || format!("Ltx({i})"));
                }
            }
            SolveMsg::BwdContrib { target, i, vals } => {
                let acc = self
                    .acc
                    .get_mut(&target)
                    .expect("diag owner has accumulator");
                for (a, &v) in acc.iter_mut().zip(&vals) {
                    *a -= v;
                }
                self.rt.dec_from(SolveKey::BwdDiag { j: target }, now, || {
                    format!("Gv'({i},{target})")
                });
            }
        }
    }

    /// `op(B)·X` for a stored block `B` and an `nrhs`-column panel `X`
    /// (`op` = transpose when `trans`), in factored form when the block is
    /// stored compressed: `op(U·Vᵀ)·X = left·(rightᵀ·X)`. Returns the
    /// product panel and the kernel's modeled seconds.
    fn block_times(&mut self, b: &Block, trans: bool, x: &[f64]) -> (Vec<f64>, f64) {
        let (m, w, nrhs) = (b.rows(), b.cols(), self.nrhs);
        let (out, inner) = if trans { (w, m) } else { (m, w) };
        let cfg = &self.kernels.config;
        let mut v = vec![0.0; out * nrhs];
        let (elements, flops) = match b {
            Block::Dense(d) => {
                let gemm = if trans {
                    gemm_tn_acc_raw
                } else {
                    gemm_nn_acc_raw
                };
                let (d, ld) = (d.as_slice(), d.ld());
                gemm(cfg, &mut v, out, out, nrhs, d, ld, x, inner, inner);
                (m * w, 2 * m * w * nrhs)
            }
            Block::LowRank(lr) => {
                let r = lr.rank();
                let (left, right) = if trans {
                    (lr.v(), lr.u())
                } else {
                    (lr.u(), lr.v())
                };
                if r > 0 {
                    let mut t = vec![0.0; r * nrhs];
                    let (rs, rld) = (right.as_slice(), right.ld());
                    gemm_tn_acc_raw(cfg, &mut t, r, r, nrhs, rs, rld, x, inner, inner);
                    let (ls, lld) = (left.as_slice(), left.ld());
                    gemm_nn_acc_raw(cfg, &mut v, out, out, nrhs, ls, lld, &t, r, r);
                }
                ((m + w) * r, 2 * r * (m + w) * nrhs)
            }
        };
        (v, self.kernel_secs(Op::Gemm, elements, flops as u64))
    }

    /// Execute one picked task.
    fn exec(&mut self, rank: &mut Rank, store: &BlockStore, key: SolveKey) {
        match key {
            // Substitute supernode j (forward with L, backward with Lᵀ) and
            // fan the solved panel out to the owners of the blocks that
            // multiply it: B(i,j) forward, B(j,k) — every block whose rows
            // live in supernode j — backward.
            SolveKey::FwdDiag { j } | SolveKey::BwdDiag { j } => {
                let fwd = matches!(key, SolveKey::FwdDiag { .. });
                let l = store.get((j, j)).expect("diag factor owned").dense();
                let (w, nrhs) = (l.rows(), self.nrhs);
                let mut rhs = self.acc.remove(&j).expect("accumulator present");
                let trsm = if fwd {
                    trsm_left_lower_notrans_raw
                } else {
                    trsm_left_lower_trans_raw
                };
                trsm(
                    &self.kernels.config,
                    &mut rhs,
                    w,
                    w,
                    nrhs,
                    l.as_slice(),
                    l.ld(),
                );
                let secs = self.kernel_secs(Op::Trsm, w * w, (w * w * nrhs) as u64);
                self.rt.charge(rank, key, secs);
                let dests = if fwd {
                    let col = self.sf.layout.blocks_of(j);
                    distinct_owners(col.iter().map(|b| self.grid.map(b.target, j)))
                } else {
                    self.rev_owners[j].clone()
                };
                for d in dests {
                    let msg = if fwd {
                        SolveMsg::YReady { j, y: rhs.clone() }
                    } else {
                        SolveMsg::XReady {
                            i: j,
                            x: rhs.clone(),
                        }
                    };
                    self.send(rank, d, msg);
                }
                // Y_j is kept for the backward sweep, X_j is the answer.
                if fwd { &mut self.y } else { &mut self.x }.insert(j, rhs);
            }
            SolveKey::FwdGemv { i, j } => {
                let yj = self.yin.get(&j).expect("y_j arrived").clone();
                let b = store.get((i, j)).expect("block owned");
                let (vals, secs) = self.block_times(b, false, &yj);
                self.rt.charge(rank, key, secs);
                let binfo = self.sf.layout.find(i, j).expect("block exists");
                let rows = self.sf.block_rows(j, binfo).to_vec();
                let dest = self.grid.map(i, i);
                let target = i;
                self.send(
                    rank,
                    dest,
                    SolveMsg::FwdContrib {
                        target,
                        j,
                        rows,
                        vals,
                    },
                );
            }
            SolveKey::BwdGemv { i, j } => {
                let xi = self.xin.get(&i).expect("x_i arrived");
                let first_i = self.sf.partition.first_col(i);
                let wi = self.sf.partition.width(i);
                let b = store.get((i, j)).expect("block owned");
                let m = b.rows();
                let binfo = self.sf.layout.find(i, j).expect("block exists");
                // Gather the block's rows of X_i into a dense m × nrhs
                // sub-panel, then V = B(i,j)ᵀ · X_i[rows].
                let mut xsub = vec![0.0; m * self.nrhs];
                for k in 0..self.nrhs {
                    for (ri, &gr) in self.sf.block_rows(j, binfo).iter().enumerate() {
                        xsub[k * m + ri] = xi[k * wi + (gr - first_i)];
                    }
                }
                let (vals, secs) = self.block_times(b, true, &xsub);
                self.rt.charge(rank, key, secs);
                let dest = self.grid.map(j, j);
                let target = j;
                self.send(rank, dest, SolveMsg::BwdContrib { target, i, vals });
            }
        }
    }

    /// Run every ready task to exhaustion.
    fn pump(&mut self, rank: &mut Rank, store: &BlockStore) {
        while let Some((id, key, ready_at)) = self.rt.pick() {
            self.rt.begin(rank, ready_at);
            self.exec(rank, store, key);
            self.rt.complete(id);
        }
    }

    /// True when the given sweep's tasks have all executed on this rank.
    fn sweep_done(&self, sweep: Sweep) -> bool {
        self.rt.count_of(sweep.diag_kind) == self.my_diags.len() as u64
            && self.rt.count_of(sweep.gemv_kind) == self.gemvs_total
    }
}

/// What one rank gets back from a distributed solve.
pub struct SolveOutcome {
    /// Per-supernode solution pieces owned by this rank: a `w × nrhs`
    /// column-major panel per diagonal supernode (`w`-vectors for the
    /// single-RHS [`solve`]).
    pub x: HashMap<usize, Vec<f64>>,
    /// Virtual time spent in the solve.
    pub elapsed: f64,
    /// Solve-task timeline (empty unless [`SolveParams::trace`]).
    pub trace: Vec<TraceEvent>,
    /// Executed solve tasks per kind on this rank.
    pub task_counts: Vec<(&'static str, u64)>,
    /// Error observed during the solve (diagnosed stall, abort).
    pub error: Option<SolverError>,
}

/// Run the distributed solve for one right-hand side. `store` holds this
/// rank's factor blocks; `bp` is the full permuted right-hand side
/// (replicated, as in the paper's driver). Equivalent to [`solve_panel`]
/// with `nrhs = 1` — identical arithmetic, costs and message bytes.
pub fn solve(
    rank: &mut Rank,
    sf: Arc<SymbolicFactor>,
    grid: ProcGrid,
    store: &BlockStore,
    bp: &[f64],
    kernels: KernelEngine,
    params: &SolveParams,
) -> SolveOutcome {
    solve_panel(rank, sf, grid, store, bp, 1, kernels, params)
}

/// Run the distributed solve for a dense panel of `nrhs` right-hand sides.
///
/// `bp` is the full permuted `n × nrhs` panel, column-major and replicated
/// on every rank. The returned [`SolveOutcome::x`] pieces are `w × nrhs`
/// panels per owned diagonal supernode. One panel solve issues the same
/// number of messages and tasks as a single-vector solve — the panel width
/// rides along in the payloads, which is where the batching win comes from.
#[allow(clippy::too_many_arguments)] // mirrors `solve` plus the panel width
pub fn solve_panel(
    rank: &mut Rank,
    sf: Arc<SymbolicFactor>,
    grid: ProcGrid,
    store: &BlockStore,
    bp: &[f64],
    nrhs: usize,
    kernels: KernelEngine,
    params: &SolveParams,
) -> SolveOutcome {
    assert!(nrhs > 0, "panel solve needs at least one right-hand side");
    assert_eq!(bp.len(), sf.n() * nrhs, "rhs panel must be n × nrhs");
    let start = rank.now();
    let mut st = SolveEngine::new(sf, grid, rank.id(), nrhs, kernels, params);
    st.fwd_init(bp);
    let mut st = run_sweep(rank, st, store, FORWARD);
    // Backward sweep. When the forward sweep aborted (anywhere in the job),
    // this rank may be missing y pieces — skip the seed; the sweep's loop
    // exits immediately on the sticky abort.
    if !st.rt.aborted() && !rank.job_aborted() {
        st.bwd_init(rank);
    }
    let mut st = run_sweep(rank, st, store, BACKWARD);
    let trace = st
        .rt
        .tracer
        .take()
        .map(sympack_trace::Tracer::into_events)
        .unwrap_or_default();
    if st.rt.error.is_none() && !st.rt.aborted() && !rank.job_aborted() {
        st.rt.debug_assert_completed();
    }
    SolveOutcome {
        x: st.x,
        elapsed: rank.now() - start,
        trace,
        task_counts: st.rt.task_counts(),
        error: st.rt.error.take(),
    }
}

/// All-gather the distributed per-supernode solution pieces so every rank
/// holds the full permuted vector (used by iterative refinement to form the
/// residual). Messages are RPCs with payload cost; the result is identical
/// on every rank.
pub fn allgather_solution(
    rank: &mut Rank,
    sf: &SymbolicFactor,
    x_map: &HashMap<usize, Vec<f64>>,
) -> Vec<f64> {
    struct Gather {
        pieces: Vec<(usize, Vec<f64>)>,
    }
    let ns = sf.n_supernodes();
    let me = rank.id();
    let n_ranks = rank.n_ranks();
    rank.set_state(Gather {
        pieces: x_map.iter().map(|(k, v)| (*k, v.clone())).collect(),
    });
    // Send in supernode order: hash-map iteration order must not leak into
    // the receivers' virtual clocks (bit-determinism of the makespan).
    let mut owned: Vec<(&usize, &Vec<f64>)> = x_map.iter().collect();
    owned.sort_by_key(|(sn, _)| **sn);
    for (&sn, piece) in owned {
        for dest in (0..n_ranks).filter(|&d| d != me) {
            let payload = piece.clone();
            let cell = std::sync::Mutex::new(Some((sn, payload)));
            rank.rpc_payload(dest, piece.len() * 8, move |r| {
                let item = cell.lock().unwrap().take().expect("delivered once");
                r.with_state::<Gather, _>(|_, g| g.pieces.push(item));
            });
        }
    }
    sched::poll_until::<Gather, _>(rank, |_, g| g.pieces.len() == ns);
    let g = rank.take_state::<Gather>();
    let mut xp = vec![0.0; sf.n()];
    for (sn, piece) in g.pieces {
        let first = sf.partition.first_col(sn);
        xp[first..first + piece.len()].copy_from_slice(&piece);
    }
    rank.barrier();
    xp
}

/// One of the two sweeps: its name and the kinds of its task species.
#[derive(Clone, Copy)]
struct Sweep {
    name: &'static str,
    diag_kind: &'static str,
    gemv_kind: &'static str,
}

const FORWARD: Sweep = Sweep {
    name: "forward",
    diag_kind: "fwd_diag",
    gemv_kind: "fwd_gemv",
};

const BACKWARD: Sweep = Sweep {
    name: "backward",
    diag_kind: "bwd_diag",
    gemv_kind: "bwd_gemv",
};

/// One sweep on the solver's one event loop: run ready tasks, fold the
/// messages that arrived, run what they released; then the sweep barrier.
fn run_sweep(rank: &mut Rank, st: SolveEngine, store: &BlockStore, sweep: Sweep) -> SolveEngine {
    sched::run_event_loop(
        rank,
        st,
        |rank, st: &mut SolveEngine| {
            st.pump(rank, store);
            for msg in st.rt.take_signals() {
                st.handle(rank, msg);
            }
            st.pump(rank, store);
            st.sweep_done(sweep) || st.rt.aborted() || rank.job_aborted()
        },
        |rank, st| {
            let detail = format!("{} solve sweep quiesced with unfinished tasks", sweep.name);
            st.rt.fail_stalled(rank, &detail);
        },
    )
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
        sympack_dense::potrf(&mut l).unwrap();
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
