//! The per-rank task runtime shared by every solver engine.
//!
//! All five engines in this repository — the fan-out factorization
//! ([`crate::engine::FactoEngine`]), the distributed triangular solve
//! ([`crate::trisolve::SolveEngine`]) and the three taxonomy baselines
//! (right-looking, fan-in, fan-both) — are event-driven loops with the same
//! skeleton (paper Figs. 3–4):
//!
//! 1. poll the runtime for incoming messages ([`Msg`]),
//! 2. resolve queued `signal(ptr, meta)` notifications into data movement
//!    (one-sided `rget`, or a direct device copy for GPU-bound blocks),
//! 3. decrement dependency counters and move tasks whose counter reaches
//!    zero onto the ready-task queue ([`TaskEngine::dec_id`]),
//! 4. pick a ready task under the configured [`RtqPolicy`]
//!    ([`TaskEngine::pick`]) and execute it, charging its cost to the
//!    rank's virtual clock ([`TaskEngine::charge`]),
//! 5. publish what it produced ([`CommLayer::publish`]).
//!
//! This module owns everything in that skeleton that is not the algorithm,
//! once:
//!
//! * **the loop** — `run_event_loop` drains the rank's messages ([`Msg`])
//!   into the caller's router, detects quiescence and calls the one stall
//!   failure (`TaskEngine::fail_stalled`); the factorization
//!   ([`run_to_completion`]) and both solve sweeps run on it;
//! * **the step** — [`step`]: take the queued signals, fetch each (a failure
//!   aborts the job with the signal's [`Meta::describe`]), discharge a relay
//!   duty, hand the payload to the engine, flush expired frames, pick, run,
//!   complete;
//! * **the scheduling core** — [`TaskEngine`], built over a compiled
//!   [`Graph`] and addressed by [`TaskId`]: LTQ counters, RTQ, the
//!   deduplicating inbox, abort broadcast, virtual-clock accounting, tracer
//!   and telemetry hooks;
//! * **the publication layer** — [`CommLayer`]: shared-heap allocation,
//!   byte accounting ([`PublishStats`]), flat or tree topology with leader
//!   relays, per-destination coalescing, signal delivery.
//!
//! # The engine contract
//!
//! A factorization engine *writes* its task species ([`TaskKind`]), its
//! compiled graph (a `plan::FactorGraph`, whose `compile` the plan runs once
//! per rank), its message metadata ([`Meta`]), [`Engine::exec`] (its `match
//! key`), [`Engine::on_data`] (what an arrived payload means), one accessor
//! to its [`Core`], a stall diagnosis and `into_factor`. It *builds* nothing:
//! `plan::EngineFamily::build` hands it its store, its [`Core`] over the
//! plan's graph and its kernels. It *inherits* signal dedup, fetch retry and
//! device-memory fetches, stall detection, abort broadcast, coalescing, the
//! broadcast tree, publication byte accounting, tracing and telemetry — a
//! feature added to this module reaches every engine without touching one
//! (`crates/core/tests/engine_contract.rs` shows it from the consumer side
//! with a 30-line toy engine).
//!
//! The runtime owns `ptr`, the engine owns `meta`: an engine never sees a
//! global pointer, a relay or a wire. Baseline-specific costs (the
//! per-task runtime overhead a classical solver pays, the rendezvous charge
//! of two-sided receives) are runtime *parameters*
//! ([`TaskEngine::set_task_overhead`], [`FetchMode::Blocking`] from the
//! family's `rendezvous`), not per-engine code.
//!
//! The solve engine shares the loop, the scheduling core and the stall
//! failure, but not the fetch/publish contract: its messages
//! ([`Msg::Solve`]) carry their payloads eagerly, so there is nothing to
//! fetch and nothing to host — bending [`Engine`] to cover them would make
//! the shared step branch on its caller.

mod comm;
mod engine;
mod fetch;
mod queue;
mod wall;

pub use comm::{CommLayer, PublishStats, RelayDuty};
pub(crate) use engine::count_kinds;
pub use engine::{Graph, TaskEngine, TaskId};
pub use fetch::{FetchConfig, FetchMode};
pub use queue::{ReadyQueue, RtqPolicy};
pub use wall::{LoopWall, Wall, WallClock};

use crate::storage::BlockStore;
use crate::trisolve::SolveMsg;
use crate::SolverError;
use std::sync::Arc;
use sympack_dense::{DenseError, Mat};
use sympack_gpu::KernelEngine;
use sympack_pgas::{GlobalPtr, Payload, Rank};
use sympack_trace::TraceCat;

/// A task species schedulable by the [`TaskEngine`].
///
/// Implementations are cheap value types (the fan-out `TaskKey`, the solve
/// sweep keys, the baselines' panel/aggregate tasks) that tell the runtime
/// how to order, count and trace them.
pub trait TaskKind: Copy + Eq + std::fmt::Debug + Send + 'static {
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

/// The engine-specific half of a `signal(ptr, meta)` notification: what
/// the advertised payload is. It rides the wire untouched and comes back to
/// the receiving engine's [`Engine::on_data`] with the fetched data.
pub trait Meta: Copy + Send + Sync + 'static {
    /// Human-readable name of the advertised block/task, used to label
    /// fetch failures ("which column died?").
    fn describe(&self) -> String;
}

/// A `signal(ptr, meta)` notification (paper Fig. 4, steps 3–4): the
/// runtime's pointer to the published payload plus the engine's metadata.
#[derive(Debug, Clone)]
pub struct Signal<M> {
    /// Shared-heap location of the advertised payload.
    pub ptr: GlobalPtr,
    /// What the payload is, in the publishing engine's terms.
    pub meta: M,
    /// A broadcast-tree leader's duty to forward the payload once it is here.
    pub relay: Option<RelayDuty>,
}

/// Everything a solver region (factorization, solves, all-gather) sends, as
/// values; `Mt` is the factorization engine's [`Meta`]. Each loop routes its
/// phase's variants and drops the rest (a duplicate signal, in the solve).
#[derive(Clone)]
pub enum Msg<Mt> {
    /// A `signal(ptr, meta)`, with its relay duty.
    Signal(Signal<Mt>),
    /// Signals coalesced into one wire message.
    Frame(Vec<Signal<Mt>>),
    /// A solve message, and the rendezvous its receiver pays on delivery.
    Solve(SolveMsg, f64),
    /// An all-gather piece: its first (permuted) row and its `w × nrhs` values.
    Piece(usize, Arc<[f64]>),
    /// The abort broadcast: it changes nothing at its receiver — the
    /// job-wide flag ([`Rank::signal_abort`]) ends every loop — and is sent
    /// for its latency, its fault draw and its ledger count.
    Abort,
}

/// The rank handle of the region factorization engine `E` runs in.
pub type RankOf<E> = Rank<Msg<<E as Engine>::Meta>>;

/// Why a polling loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopExit {
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
fn stall_threshold<M>(rank: &Rank<M>) -> Option<u64> {
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

/// The event loop every engine runs: drain the rank's messages into
/// `route`, let `body` work, stop when it reports completion (all owned
/// tasks done, or the job aborted) — or return [`LoopExit::Stalled`]
/// instead of spinning forever when the whole job has quiesced with
/// unfinished work.
fn poll_until_or_stall<M: Clone, S>(
    rank: &mut Rank<M>,
    state: &mut S,
    route: &mut impl FnMut(&mut Rank<M>, &mut S, M),
    body: &mut impl FnMut(&mut Rank<M>, &mut S) -> bool,
) -> LoopExit {
    let threshold = stall_threshold(rank);
    let mut idle: u64 = 0;
    let mut last_activity = rank.global_activity();
    loop {
        let executed = rank.progress(|rank, msg| route(rank, state, msg));
        let clock_before = rank.now();
        if body(rank, state) {
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

/// Poll with `route` and `body` until the engine reports completion, then
/// synchronize on a barrier — the one stall-aware event loop of the solver
/// (the factorization and each solve sweep are one call). The caller owns
/// the engine; the loop lends it to the router and the body.
///
/// When the quiescence detector diagnoses a stall, `on_stall` runs once per
/// detection with the rank and engine; it is expected to record a
/// [`crate::SolverError::Stalled`] and abort the job
/// (`TaskEngine::fail_stalled`), which makes `body` report completion.
/// The loop never hangs and never silently succeeds.
pub(crate) fn run_event_loop<M: Clone, E>(
    rank: &mut Rank<M>,
    engine: &mut E,
    mut route: impl FnMut(&mut Rank<M>, &mut E, M),
    mut body: impl FnMut(&mut Rank<M>, &mut E) -> bool,
    mut on_stall: impl FnMut(&mut Rank<M>, &mut E),
) {
    let mut stall_rounds = 0;
    while poll_until_or_stall(rank, engine, &mut route, &mut body) == LoopExit::Stalled {
        stall_rounds += 1;
        assert!(
            stall_rounds < 16,
            "stall handler failed to terminate the event loop"
        );
        on_stall(rank, engine);
    }
    rank.barrier();
}

/// The shared half of a factorization engine: its scheduling core, its
/// publication layer and its fetch path. An engine embeds one and hands it
/// out through [`Engine::core`]; [`step`] and the signal delivery of
/// [`CommLayer`] work on nothing else.
pub struct Core<K: TaskKind, M: Meta> {
    /// LTQ, RTQ, signal inbox, abort, clock accounting, tracer, telemetry.
    pub rt: TaskEngine<K, Signal<M>>,
    /// Publication: shared-heap hosting, topology, coalescing, accounting.
    pub comm: CommLayer<M>,
    /// Signal-resolution data path: host `rget`s, or direct device copies
    /// for blocks of at least `device_threshold` elements (§4.2).
    pub fetch: FetchConfig,
}

/// What a factorization engine is, to the runtime: task kinds, message
/// metas and the two bodies below — the algorithm. Everything else ([`step`],
/// [`run_to_completion`], publication, the per-rank result collection of
/// `plan::RankCtx::factor_rank`) is written once over this contract.
pub trait Engine: Sized + Send + 'static {
    /// The engine's task species.
    type Key: TaskKind;
    /// The engine's message metadata.
    type Meta: Meta;

    /// Diagnosis recorded in [`SolverError::Stalled`] when the quiescence
    /// detector fires on this engine (names what was most likely dropped).
    const STALL_DETAIL: &'static str;

    /// The engine's shared core.
    fn core(&mut self) -> &mut Core<Self::Key, Self::Meta>;

    /// Run picked task `key` (rank-local id `id`): kernels, charging
    /// ([`TaskEngine::charge`]), dependency decrements, publication. A
    /// numerical failure goes through [`TaskEngine::fail`], never a panic:
    /// the job-wide abort is what ends the loop on every other rank.
    fn exec(&mut self, rank: &mut RankOf<Self>, id: TaskId, key: Self::Key);

    /// A payload this rank was signalled about has arrived: `data` — the
    /// very buffer the publisher handed to [`CommLayer::publish`], shared,
    /// not a copy — is valid from virtual time `ready_at`. Keep it (wrapping
    /// it costs no memory: `Mat::from_shared`) and release its consumers.
    fn on_data(&mut self, rank: &mut RankOf<Self>, meta: Self::Meta, data: Payload, ready_at: f64);

    /// Hand back the factor blocks and the kernel executor (call counters).
    fn into_factor(self) -> (BlockStore, KernelEngine);
}

/// One turn of an engine (paper Fig. 4): resolve the queued notifications
/// into data movement through the shared fetch path — a signal that carried
/// a relay duty discharges it once its data has actually arrived — then run
/// one ready task. Returns `true` if a task executed.
///
/// A failed fetch aborts the job (the remaining signals are dropped) with
/// the failing signal's [`Meta::describe`] as context. Quantum-expired
/// frames flush as virtual time advances; when the rank has no ready work
/// at all, everything buffered goes out, so a held-back signal can never
/// starve the job into a false stall.
pub fn step<E: Engine>(engine: &mut E, rank: &mut RankOf<E>) -> bool {
    let core = engine.core();
    let cfg = core.fetch;
    let mut signals = core.rt.take_signals();
    if !signals.is_empty() {
        for sig in signals.drain(..) {
            match fetch::fetch(rank, &sig.ptr, &cfg) {
                Ok((data, ready_at)) => {
                    let comm = &mut engine.core().comm;
                    comm.relay(rank, &sig, &data, ready_at);
                    engine.on_data(rank, sig.meta, data, ready_at);
                }
                Err(err) => {
                    let err = fetch::with_context(err, sig.meta.describe());
                    engine.core().rt.fail(rank, err);
                    break;
                }
            }
        }
        let rt = &mut engine.core().rt;
        rt.recycle_signals(signals);
        rt.wall.lap(Wall::Signals);
    }
    let core = engine.core();
    core.comm.tick(rank);
    let Some((id, key, ready_at)) = core.rt.pick() else {
        core.comm.flush_all(rank);
        return false;
    };
    core.rt.wall.lap(Wall::Pick);
    rank.advance_to(ready_at); // a task starts once its last input is here
    engine.exec(rank, id, key);
    let rt = &mut engine.core().rt;
    rt.complete(id);
    rt.wall.lap(Wall::Bookkeeping);
    true
}

/// POTRF of a diagonal block whose first column is `first_col` (permuted
/// ordering), for every factorization engine: the kernel's modeled seconds,
/// or — on a failed pivot — `None` after recording
/// [`SolverError::NotPositiveDefinite`] and raising the job-wide abort
/// through [`TaskEngine::fail`]. The block is left as POTRF left it; the
/// caller puts it back so the store stays whole.
pub fn potrf_or_fail<K: TaskKind, S: Send + 'static, Mt: Meta>(
    rt: &mut TaskEngine<K, S>,
    kernels: &mut KernelEngine,
    rank: &mut Rank<Msg<Mt>>,
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
pub fn run_to_completion<E: Engine>(rank: &mut RankOf<E>, mut engine: E) -> (E, f64) {
    let start = rank.now();
    run_event_loop(
        rank,
        &mut engine,
        |_, st, msg| comm::deliver(&mut st.core().rt, msg),
        |rank, st| {
            // The poll that led here is progress if it brought or found
            // work, idle otherwise — known only after the steps below.
            let rt = &mut st.core().rt;
            let polled = rt.wall.split();
            let mut worked = rt.has_signals();
            // Run until we go idle, then re-poll.
            while step(st, rank) {
                worked = true;
            }
            let rt = &mut st.core().rt;
            rt.wall
                .add(if worked { Wall::Progress } else { Wall::Idle }, polled);
            rt.wall.lap(if worked { Wall::Pick } else { Wall::Idle });
            rt.finished() || rank.job_aborted()
        },
        |rank, st| st.core().rt.fail_stalled(rank, E::STALL_DETAIL),
    );
    let rt = &engine.core().rt;
    if !rt.aborted() && !rank.job_aborted() {
        rt.debug_assert_completed();
    }
    let elapsed = rank.now() - start;
    (engine, elapsed)
}
