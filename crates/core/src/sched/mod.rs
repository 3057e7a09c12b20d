//! The per-rank task runtime shared by every solver engine.
//!
//! All five engines in this repository — the fan-out factorization
//! ([`crate::engine::FactoEngine`]), the distributed triangular solve
//! ([`crate::trisolve::SolveEngine`]) and the three taxonomy baselines
//! (right-looking, fan-in, fan-both) — are event-driven loops with the same
//! skeleton (paper Figs. 3–4):
//!
//! 1. poll the runtime for incoming RPCs ([`poll_until`]),
//! 2. resolve queued `signal(ptr, meta)` notifications into data movement
//!    (one-sided `rget`, or a direct device copy for GPU-bound blocks —
//!    [`fetch`]/[`drain_signals`]),
//! 3. decrement dependency counters and move tasks whose counter reaches
//!    zero onto the ready-task queue ([`TaskEngine::dec_id`]),
//! 4. pick a ready task under the configured [`RtqPolicy`]
//!    ([`TaskEngine::pick`]) and execute it, charging its cost to the
//!    rank's virtual clock ([`TaskEngine::charge`]).
//!
//! This module owns that skeleton *once*: the RTQ, the signal inbox, the
//! dependency counters, the abort/error broadcast, the virtual-clock
//! accounting and the tracer hooks. Engines keep only their domain state
//! (block stores, kernel executors, message formats) and describe their
//! tasks to the runtime through the [`TaskKind`] trait. Baseline-specific
//! costs (the per-task runtime overhead a classical solver pays, the
//! rendezvous charge of two-sided receives) are runtime *parameters*
//! ([`TaskEngine::set_task_overhead`], [`FetchMode::Blocking`]), not
//! per-engine code.

mod comm;
mod engine;
mod fetch;
mod queue;

pub use comm::CommLayer;
pub use engine::{TaskEngine, TaskId};
pub use fetch::{drain_signals, fetch, FetchConfig, FetchMode};
pub use queue::{ReadyQueue, RtqPolicy};

use crate::engine::PublishStats;
use crate::storage::BlockStore;
use crate::SolverError;
use sympack_dense::{DenseError, Mat};
use sympack_gpu::KernelEngine;
use sympack_pgas::{GlobalPtr, Rank};
use sympack_trace::TraceCat;

/// A task species schedulable by the [`TaskEngine`].
///
/// Implementations are cheap value types (the fan-out `TaskKey`, the solve
/// sweep keys, the baselines' panel/aggregate tasks) that tell the runtime
/// how to order, count and trace them.
pub trait TaskKind: Copy + Eq + std::hash::Hash + std::fmt::Debug + Send + 'static {
    /// Urgency under [`RtqPolicy::CriticalPath`]: lower keys pop first.
    fn priority_key(&self) -> (usize, usize);

    /// Deterministic total order used to seed the initial RTQ contents
    /// (hash-map iteration order must never leak into the schedule).
    fn seed_key(&self) -> (usize, usize, usize, usize);

    /// Stable name used for per-kind executed-task accounting.
    fn kind_name(&self) -> &'static str;

    /// Timeline label for the tracer, e.g. `D(3)` or `U(5,2,4)`.
    fn trace_label(&self) -> String;

    /// Timeline category for the tracer.
    fn trace_cat(&self) -> TraceCat;
}

/// A `signal(ptr, meta)` notification: an incoming RPC advertising a remote
/// block. The runtime turns these into data movement via [`drain_signals`];
/// the engine-specific `meta` rides along untouched.
pub trait Signal: Copy + Send + 'static {
    /// Shared-heap location of the advertised payload.
    fn ptr(&self) -> GlobalPtr;

    /// Human-readable name of the advertised block/task, used to label
    /// fetch failures ("which column died?").
    fn describe(&self) -> String {
        let p = self.ptr();
        format!("block at rank {} seg {} offset {}", p.rank, p.seg, p.offset)
    }
}

/// Why a polling loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopExit {
    /// The body reported completion.
    Finished,
    /// The quiescence detector fired: nothing executed, no clock moved and
    /// no message was sent anywhere in the job for the detection window,
    /// yet the body still reports unfinished work. Under fault injection
    /// this is the signature of a dropped signal.
    Stalled,
}

/// Idle polls (with no global activity) before the quiescence detector
/// declares a stall. In deterministic lockstep mode every idle poll hands
/// the turn around the whole rotation, so a short window is conclusive; in
/// free-running mode the window must out-wait OS scheduling noise.
fn stall_threshold(rank: &Rank) -> Option<u64> {
    if rank.deterministic() {
        Some(64)
    } else if rank.faults_active() {
        Some(2_000_000)
    } else {
        // No faults, free-running: preserve the original never-give-up
        // semantics (nothing can be dropped, so quiescence implies a bug
        // that the test suite would catch as a hang, not a silent pass).
        None
    }
}

/// The event loop every engine runs: poll the runtime, let the engine work,
/// stop when it reports completion. `body` returns `true` when the engine
/// is finished (all owned tasks done, or the job aborted).
///
/// The engine must already be installed as the rank's user state (so RPC
/// closures can reach it); this is the *only* progress/poll loop definition
/// in the solver.
pub fn poll_until<E, F>(rank: &mut Rank, body: F)
where
    E: Send + 'static,
    F: FnMut(&mut Rank, &mut E) -> bool,
{
    let exit = poll_until_or_stall::<E, F>(rank, body);
    debug_assert_eq!(exit, LoopExit::Finished, "unhandled stall");
}

/// Stall-aware [`poll_until`]: returns [`LoopExit::Stalled`] instead of
/// spinning forever when the whole job has quiesced with unfinished work.
pub fn poll_until_or_stall<E, F>(rank: &mut Rank, mut body: F) -> LoopExit
where
    E: Send + 'static,
    F: FnMut(&mut Rank, &mut E) -> bool,
{
    let threshold = stall_threshold(rank);
    let mut idle: u64 = 0;
    let mut last_activity = rank.global_activity();
    loop {
        let executed = rank.progress();
        let clock_before = rank.now();
        let finished = rank.with_state::<E, _>(|rank, st| body(rank, st));
        if finished {
            return LoopExit::Finished;
        }
        let activity = rank.global_activity();
        if executed > 0 || activity != last_activity || rank.now() > clock_before {
            if idle > 0 {
                // Progress resumed: close the watchdog's stall episode.
                rank.watchdog_idle(0);
            }
            idle = 0;
            last_activity = activity;
        } else {
            idle += 1;
            // The health watchdog sees every idle poll and raises a
            // `Stalled` event at its own (lower) threshold — the diagnosis
            // always lands before the quiescence abort below fires.
            rank.watchdog_idle(idle);
            if let Some(limit) = threshold {
                if idle >= limit && rank.rpc_queue_empty() {
                    return LoopExit::Stalled;
                }
            }
        }
        if !rank.deterministic() {
            std::thread::yield_now();
        }
    }
}

/// Install `engine` as the rank's user state, poll with `body` until it
/// reports completion, synchronize on a barrier, and hand the engine back.
///
/// When the quiescence detector diagnoses a stall, `on_stall` runs once per
/// detection with the rank and engine; it is expected to record a
/// [`crate::SolverError::Stalled`] and abort the job (which makes `body`
/// report completion). The loop never hangs and never silently succeeds.
pub fn run_event_loop<E, F, G>(rank: &mut Rank, engine: E, mut body: F, mut on_stall: G) -> E
where
    E: Send + 'static,
    F: FnMut(&mut Rank, &mut E) -> bool,
    G: FnMut(&mut Rank, &mut E),
{
    rank.set_state(engine);
    let mut stall_rounds = 0;
    loop {
        match poll_until_or_stall::<E, _>(rank, &mut body) {
            LoopExit::Finished => break,
            LoopExit::Stalled => {
                stall_rounds += 1;
                assert!(
                    stall_rounds < 16,
                    "stall handler failed to terminate the event loop"
                );
                rank.with_state::<E, _>(|rank, st| on_stall(rank, st));
            }
        }
    }
    rank.barrier();
    rank.take_state::<E>()
}

/// What a factorization engine exposes to the one factor loop
/// ([`run_to_completion`]) and to the per-rank result collection
/// ([`crate::plan::RankOut::factor`]). Task kinds, message formats and
/// the `exec_*` bodies — the algorithm — stay inside the engine.
pub trait Engine: Send + 'static {
    /// The engine's task species.
    type Key: TaskKind;
    /// The engine's notification type.
    type Sig: Send + 'static;

    /// Diagnosis recorded in [`SolverError::Stalled`] when the quiescence
    /// detector fires on this engine (names what was most likely dropped).
    const STALL_DETAIL: &'static str;

    /// Resolve pending notifications, then run one ready task. Returns
    /// `true` if a task executed. A numerical failure goes through
    /// [`TaskEngine::fail`], never a panic: the job-wide abort is what ends
    /// the loop on every other rank.
    fn step(&mut self, rank: &mut Rank) -> bool;

    /// The engine's scheduling core.
    fn rt(&mut self) -> &mut TaskEngine<Self::Key, Self::Sig>;

    /// Block-publication byte accounting, for engines that keep one.
    fn publish_stats(&self) -> PublishStats {
        PublishStats::default()
    }

    /// Hand back the factor blocks and the kernel executor (call counters).
    fn into_factor(self) -> (BlockStore, KernelEngine);
}

/// POTRF of a diagonal block whose first column is `first_col` (permuted
/// ordering), for every factorization engine: the kernel's modeled seconds,
/// or — on a failed pivot — `None` after recording
/// [`SolverError::NotPositiveDefinite`] and raising the job-wide abort
/// through [`TaskEngine::fail`]. The block is left as POTRF left it; the
/// caller puts it back so the store stays whole.
pub fn potrf_or_fail<K: TaskKind, S: Send + 'static>(
    rt: &mut TaskEngine<K, S>,
    kernels: &mut KernelEngine,
    rank: &mut Rank,
    diag: &mut Mat,
    first_col: usize,
) -> Option<f64> {
    match kernels.potrf(diag) {
        Ok((_, secs)) => Some(secs),
        Err(DenseError::NotPositiveDefinite { column }) => {
            let column = first_col + column;
            rt.fail(rank, SolverError::NotPositiveDefinite { column });
            None
        }
        Err(other) => panic!("unexpected dense error: {other}"),
    }
}

/// Drive a factorization engine to completion — the only factor loop in
/// the solver. Returns the engine and the virtual time the phase took; an
/// error, if any, is left in the engine's [`TaskEngine::error`] (on the
/// rank that hit it) and every rank observes [`Rank::job_aborted`].
pub fn run_to_completion<E: Engine>(rank: &mut Rank, engine: E) -> (E, f64) {
    let start = rank.now();
    let mut engine = run_event_loop(
        rank,
        engine,
        |rank, st: &mut E| {
            // Run until we go idle, then re-poll.
            while st.step(rank) {}
            st.rt().finished() || rank.job_aborted()
        },
        |rank, st| {
            let rt = st.rt();
            let (done, total) = (rt.done_count(), rt.total());
            rt.fail(
                rank,
                SolverError::Stalled {
                    rank: rank.id(),
                    done,
                    total,
                    detail: E::STALL_DETAIL.into(),
                },
            );
        },
    );
    if !engine.rt().aborted() && !rank.job_aborted() {
        engine.rt().debug_assert_completed();
    }
    let elapsed = rank.now() - start;
    (engine, elapsed)
}
