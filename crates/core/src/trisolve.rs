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

use crate::map2d::ProcGrid;
use crate::sched::{self, LoopExit, RtqPolicy, TaskEngine, TaskKind};
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
        for v in &mut rev_owners {
            v.sort_unstable();
            v.dedup();
        }
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
        for &j in &self.my_diags.clone() {
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
                if let Some(targets) = self.my_blocks_by_j.get(&j).cloned() {
                    for i in targets {
                        self.rt
                            .dec_from(SolveKey::FwdGemv { i, j }, now, || format!("Ly({j})"));
                    }
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
                if let Some(js) = self.my_blocks_by_i.get(&i).cloned() {
                    for j in js {
                        self.rt
                            .dec_from(SolveKey::BwdGemv { i, j }, now, || format!("Ltx({i})"));
                    }
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

    /// Execute one picked task.
    fn exec(&mut self, rank: &mut Rank, store: &BlockStore, key: SolveKey) {
        match key {
            SolveKey::FwdDiag { j } => {
                let l = store.get((j, j)).expect("diag factor owned").dense();
                let w = l.rows();
                let mut rhs = self.acc.remove(&j).expect("accumulator present");
                trsm_left_lower_notrans_raw(
                    &self.kernels.config,
                    &mut rhs,
                    w,
                    w,
                    self.nrhs,
                    l.as_slice(),
                    l.ld(),
                );
                let secs = self.kernel_secs(Op::Trsm, w * w, (w * w * self.nrhs) as u64);
                self.rt.charge(rank, key, secs);
                self.y.insert(j, rhs.clone());
                // Fan y_j out to the owners of blocks B(i,j).
                let mut dests: Vec<usize> = self
                    .sf
                    .layout
                    .blocks_of(j)
                    .iter()
                    .map(|b| self.grid.map(b.target, j))
                    .collect();
                dests.sort_unstable();
                dests.dedup();
                for d in dests {
                    let msg = SolveMsg::YReady { j, y: rhs.clone() };
                    self.send(rank, d, msg);
                }
            }
            SolveKey::FwdGemv { i, j } => {
                let yj = self.yin.get(&j).expect("y_j arrived").clone();
                let b = store.get((i, j)).expect("block owned");
                let (m, w) = (b.rows(), b.cols());
                // V = B(i,j) · Y_j — in factored form `U·(Vᵀ·Y_j)` when the
                // panel is stored compressed.
                let mut v = vec![0.0; m * self.nrhs];
                let secs = match b {
                    Block::Dense(b) => {
                        gemm_nn_acc_raw(
                            &self.kernels.config,
                            &mut v,
                            m,
                            m,
                            self.nrhs,
                            b.as_slice(),
                            b.ld(),
                            &yj,
                            w,
                            w,
                        );
                        self.kernel_secs(Op::Gemm, m * w, (2 * m * w * self.nrhs) as u64)
                    }
                    Block::LowRank(lr) => {
                        let r = lr.rank();
                        if r > 0 {
                            let mut t = vec![0.0; r * self.nrhs];
                            gemm_tn_acc_raw(
                                &self.kernels.config,
                                &mut t,
                                r,
                                r,
                                self.nrhs,
                                lr.v().as_slice(),
                                lr.v().ld(),
                                &yj,
                                w,
                                w,
                            );
                            gemm_nn_acc_raw(
                                &self.kernels.config,
                                &mut v,
                                m,
                                m,
                                self.nrhs,
                                lr.u().as_slice(),
                                lr.u().ld(),
                                &t,
                                r,
                                r,
                            );
                        }
                        self.kernel_secs(
                            Op::Gemm,
                            (m + w) * r,
                            (2 * r * (m + w) * self.nrhs) as u64,
                        )
                    }
                };
                self.rt.charge(rank, key, secs);
                let binfo = self.sf.layout.find(i, j).expect("block exists");
                let rows =
                    self.sf.patterns[j][binfo.row_offset..binfo.row_offset + binfo.n_rows].to_vec();
                let dest = self.grid.map(i, i);
                self.send(
                    rank,
                    dest,
                    SolveMsg::FwdContrib {
                        target: i,
                        j,
                        rows,
                        vals: v,
                    },
                );
            }
            SolveKey::BwdDiag { j } => {
                let l = store.get((j, j)).expect("diag factor owned").dense();
                let w = l.rows();
                let mut rhs = self.acc.remove(&j).expect("accumulator present");
                trsm_left_lower_trans_raw(
                    &self.kernels.config,
                    &mut rhs,
                    w,
                    w,
                    self.nrhs,
                    l.as_slice(),
                    l.ld(),
                );
                let secs = self.kernel_secs(Op::Trsm, w * w, (w * w * self.nrhs) as u64);
                self.rt.charge(rank, key, secs);
                self.x.insert(j, rhs.clone());
                // Fan x_j out to owners of blocks B(j, k) — every rank
                // holding a block whose rows live in supernode j.
                for d in self.rev_owners[j].clone() {
                    let msg = SolveMsg::XReady {
                        i: j,
                        x: rhs.clone(),
                    };
                    self.send(rank, d, msg);
                }
            }
            SolveKey::BwdGemv { i, j } => {
                let xi = self.xin.get(&i).expect("x_i arrived").clone();
                let first_i = self.sf.partition.first_col(i);
                let wi = self.sf.partition.width(i);
                let b = store.get((i, j)).expect("block owned");
                let (m, w) = (b.rows(), b.cols());
                let binfo = self.sf.layout.find(i, j).expect("block exists");
                let rows = &self.sf.patterns[j][binfo.row_offset..binfo.row_offset + binfo.n_rows];
                // Gather the block's rows of X_i into a dense m × nrhs
                // sub-panel, then V = B(i,j)ᵀ · X_i[rows].
                let mut xsub = vec![0.0; m * self.nrhs];
                for k in 0..self.nrhs {
                    for (ri, &gr) in rows.iter().enumerate() {
                        xsub[k * m + ri] = xi[k * wi + (gr - first_i)];
                    }
                }
                // V = B(i,j)ᵀ · X_i[rows] — `V·(Uᵀ·X)` when compressed.
                let mut v = vec![0.0; w * self.nrhs];
                let secs = match b {
                    Block::Dense(b) => {
                        gemm_tn_acc_raw(
                            &self.kernels.config,
                            &mut v,
                            w,
                            w,
                            self.nrhs,
                            b.as_slice(),
                            b.ld(),
                            &xsub,
                            m,
                            m,
                        );
                        self.kernel_secs(Op::Gemm, m * w, (2 * m * w * self.nrhs) as u64)
                    }
                    Block::LowRank(lr) => {
                        let r = lr.rank();
                        if r > 0 {
                            let mut t = vec![0.0; r * self.nrhs];
                            gemm_tn_acc_raw(
                                &self.kernels.config,
                                &mut t,
                                r,
                                r,
                                self.nrhs,
                                lr.u().as_slice(),
                                lr.u().ld(),
                                &xsub,
                                m,
                                m,
                            );
                            gemm_nn_acc_raw(
                                &self.kernels.config,
                                &mut v,
                                w,
                                w,
                                self.nrhs,
                                lr.v().as_slice(),
                                lr.v().ld(),
                                &t,
                                r,
                                r,
                            );
                        }
                        self.kernel_secs(
                            Op::Gemm,
                            (m + w) * r,
                            (2 * r * (m + w) * self.nrhs) as u64,
                        )
                    }
                };
                self.rt.charge(rank, key, secs);
                let dest = self.grid.map(j, j);
                self.send(
                    rank,
                    dest,
                    SolveMsg::BwdContrib {
                        target: j,
                        i,
                        vals: v,
                    },
                );
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
    fn phase_done(&self, phase: Phase) -> bool {
        let diags = self.my_diags.len() as u64;
        match phase {
            Phase::Forward => {
                self.rt.count_of("fwd_diag") == diags
                    && self.rt.count_of("fwd_gemv") == self.gemvs_total
            }
            Phase::Backward => {
                self.rt.count_of("bwd_diag") == diags
                    && self.rt.count_of("bwd_gemv") == self.gemvs_total
            }
        }
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
    rank.set_state(st);
    // Forward sweep.
    run_phase(rank, store, Phase::Forward);
    rank.barrier();
    // Backward sweep. When the forward sweep aborted (anywhere in the job),
    // this rank may be missing y pieces — skip the seed; the phase loop
    // exits immediately on the sticky abort.
    rank.with_state::<SolveEngine, _>(|rank, st| {
        if !st.rt.aborted() && !rank.job_aborted() {
            st.bwd_init(rank);
        }
    });
    run_phase(rank, store, Phase::Backward);
    rank.barrier();
    let mut st = rank.take_state::<SolveEngine>();
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

#[derive(PartialEq, Clone, Copy)]
enum Phase {
    Forward,
    Backward,
}

fn run_phase(rank: &mut Rank, store: &BlockStore, phase: Phase) {
    let mut stall_rounds = 0;
    loop {
        let exit = sched::poll_until_or_stall::<SolveEngine, _>(rank, |rank, st| {
            st.pump(rank, store);
            let msgs = st.rt.take_signals();
            for msg in msgs {
                st.handle(rank, msg);
            }
            st.pump(rank, store);
            st.phase_done(phase) || st.rt.aborted() || rank.job_aborted()
        });
        match exit {
            LoopExit::Finished => break,
            LoopExit::Stalled => {
                stall_rounds += 1;
                assert!(stall_rounds < 16, "solve stall handler failed to abort");
                rank.with_state::<SolveEngine, _>(|rank, st| {
                    let (done, total) = (st.rt.done_count(), st.rt.total());
                    let which = match phase {
                        Phase::Forward => "forward",
                        Phase::Backward => "backward",
                    };
                    st.rt.fail(
                        rank,
                        SolverError::Stalled {
                            rank: rank.id(),
                            done,
                            total,
                            detail: format!("{which} solve sweep quiesced with unfinished tasks"),
                        },
                    );
                });
            }
        }
    }
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
