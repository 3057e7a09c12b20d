//! The generic per-rank task engine: dependency counters, RTQ, signal
//! inbox, abort broadcast, virtual-clock accounting and tracer hooks — and
//! [`Graph`], the compiled task table every engine is built from.

use super::queue::{ReadyQueue, RtqPolicy};
use super::{Meta, Msg, Signal, TaskKind};
use crate::SolverError;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use sympack_pgas::{GlobalPtr, Rank, Wire};
use sympack_trace::{SpanKind, TraceEvent, Tracer};

/// Dense, rank-local index of a task in its engine's LTQ arrays.
pub type TaskId = u32;

/// A compiled task graph: every task's key and initial dependency counter,
/// addressed by dense [`TaskId`], and the tasks ready at the start. Built
/// once per rank per plan (inside a family's factorization graph, and the
/// solve's) and shared by every engine run over it.
#[derive(Debug)]
pub struct Graph<K> {
    /// `id → key`; shared with every engine over this graph.
    pub keys: Arc<Vec<K>>,
    /// Initial dependency counter of every task.
    pub deps: Vec<u32>,
    /// The zero-dependency tasks in [`TaskKind::seed_key`] order — what an
    /// engine over this graph seeds its RTQ with, so neither id assignment
    /// nor hash iteration can leak into the schedule.
    pub seeds: Vec<TaskId>,
}

impl<K: TaskKind> Graph<K> {
    /// Compile `(keys, deps)`, one counter per task; the only place seeds
    /// are computed.
    pub fn new(keys: Vec<K>, deps: Vec<u32>) -> Self {
        assert_eq!(keys.len(), deps.len(), "one counter per task");
        assert!(keys.len() < u32::MAX as usize, "task ids fit u32");
        let mut seeds: Vec<TaskId> = (0..keys.len() as TaskId)
            .filter(|&t| deps[t as usize] == 0)
            .collect();
        seeds.sort_by_key(|&t| keys[t as usize].seed_key());
        let keys = Arc::new(keys);
        Graph { keys, deps, seeds }
    }
}

impl<K> Default for Graph<K> {
    fn default() -> Self {
        let (keys, deps, seeds) = Default::default();
        Graph { keys, deps, seeds }
    }
}

/// The scheduling core shared by every engine: the LTQ (per-task dependency
/// counters), the RTQ, the signal inbox and the bookkeeping around them.
///
/// `K` is the engine's task species, `S` its signal (notification) type.
/// Engines embed one `TaskEngine` and route *all* scheduling through it;
/// this is the only definition of `dec_id`/`pick`/inbox draining in the
/// tree. It is built over a [`Graph`] and addressed by [`TaskId`]
/// throughout: scheduling state lives in flat arrays indexed by it.
pub struct TaskEngine<K: TaskKind, S = ()> {
    /// `id → key`; shared with the compiled graph the engine came from.
    keys: Arc<Vec<K>>,
    /// Outstanding dependencies (input arrivals + local completions) per
    /// task — the LTQ of §3.4.
    deps: Vec<u32>,
    /// Virtual time at which each task's latest input became available.
    ready_at: Vec<f64>,
    /// Per-task exactly-once flags: the invariant checker of debug builds.
    executed: Vec<bool>,
    rtq: ReadyQueue<TaskId>,
    /// Per-task urgency consulted by [`RtqPolicy::CommAware`]; empty until
    /// [`set_urgency`](Self::set_urgency) records one (absent ⇒ 0).
    urgency: Vec<u64>,
    /// Notifications delivered by message but not yet turned into gets.
    inbox: Vec<S>,
    /// The emptied buffer of the previous [`take_signals`](Self::take_signals),
    /// swapped back in by the next: the inbox ping-pongs between two
    /// allocations instead of growing and dropping one per step.
    spare_inbox: Vec<S>,
    done: usize,
    /// Fixed overhead charged to the virtual clock per executed task — the
    /// classical-runtime tax the right-looking baseline models (zero for
    /// the fan-out engine).
    task_overhead: f64,
    /// First error observed (local or broadcast from another rank).
    pub error: Option<SolverError>,
    /// Job-wide abort flag, set by whichever rank first hits an error.
    abort: Arc<AtomicBool>,
    /// Optional task-timeline collector.
    pub tracer: Option<Tracer>,
    /// Optional live-telemetry bundle: task throughput, dep-wait, RTQ
    /// depth, resident bytes and the rank's comm counters, sampled into
    /// time-series rings at task boundaries. Like the tracer, updating it
    /// never touches the virtual clock.
    pub telemetry: Option<Box<sympack_trace::telemetry::SchedTelemetry>>,
    /// Signal pointers already accepted: the inbox is idempotent, so a
    /// duplicated `signal(ptr, meta)` delivery (network retry, fault
    /// injection) is absorbed instead of double-decrementing dependants.
    seen_signals: HashSet<GlobalPtr>,
    /// Id and ready time of the task most recently returned by `pick`: the
    /// task `charge` records (its producer edge, and the profiler's
    /// dep-wait attribution).
    picked: TaskId,
    picked_ready: f64,
    /// Producer label of each task's latest-arriving dependency, by id,
    /// recorded by [`dec_from_id`](Self::dec_from_id) only while tracing
    /// (the profiler's dependency edges; allocated by the first traced
    /// decrement, empty otherwise).
    pred: Vec<Option<String>>,
    /// Resident input-buffer gauge (bytes), sampled onto exec spans.
    mem_bytes: u64,
    /// Wall-clock attribution of the factor loop; off unless started (see
    /// [`super::WallClock`]). Never touches the virtual clock.
    pub wall: super::WallClock,
}

/// Executed-task totals per kind, in stable (sorted) order, derived from
/// the executed flags by id (schedule-invariant; checked by tests). An
/// engine has a handful of kinds, so a scanned array beats a map.
pub(crate) fn count_kinds<K: TaskKind>(keys: &[K], executed: &[bool]) -> Vec<(&'static str, u64)> {
    let mut v: Vec<(&'static str, u64)> = Vec::new();
    for (key, _) in keys.iter().zip(executed).filter(|(_, &ran)| ran) {
        let kind = key.kind_name();
        match v.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => v.push((kind, 1)),
        }
    }
    v.sort_unstable();
    v
}

impl<K: TaskKind, S: Send + 'static> TaskEngine<K, S> {
    /// An engine over compiled `graph`: the key table is shared, the
    /// initial counters are copied and the RTQ starts with the graph's
    /// seeds, sized once to the graph's task count.
    pub fn new(graph: &Graph<K>, policy: RtqPolicy, abort: Arc<AtomicBool>) -> Self {
        let total = graph.keys.len();
        let mut rtq = ReadyQueue::with_capacity(policy, total);
        for &id in &graph.seeds {
            debug_assert_eq!(graph.deps[id as usize], 0, "seed has dependencies");
            rtq.push(id);
        }
        TaskEngine {
            keys: Arc::clone(&graph.keys),
            deps: graph.deps.clone(),
            ready_at: vec![0.0; total],
            executed: vec![false; total],
            rtq,
            urgency: Vec::new(),
            inbox: Vec::new(),
            spare_inbox: Vec::new(),
            done: 0,
            task_overhead: 0.0,
            error: None,
            abort,
            tracer: None,
            telemetry: None,
            seen_signals: HashSet::new(),
            picked: 0,
            picked_ready: 0.0,
            pred: Vec::new(),
            mem_bytes: 0,
            wall: super::WallClock::default(),
        }
    }

    /// Set the per-task virtual-clock overhead (baseline runtime tax).
    pub fn set_task_overhead(&mut self, secs: f64) {
        self.task_overhead = secs;
    }

    /// Record a task's urgency for [`RtqPolicy::CommAware`] scheduling
    /// (how many remote ranks its output unblocks). Advisory under every
    /// other policy; may be installed before or after the task is ready.
    pub(crate) fn set_urgency(&mut self, id: TaskId, urgency: u64) {
        if self.urgency.len() < self.keys.len() {
            self.urgency.resize(self.keys.len(), 0);
        }
        self.urgency[id as usize] = urgency;
    }

    /// Decrement one dependency of task `id`; move it to the RTQ at zero.
    pub fn dec_id(&mut self, id: TaskId, ready_at: f64) {
        let i = id as usize;
        debug_assert!(
            !self.executed[i],
            "dependency decrement of already-executed task {:?}",
            self.keys[i]
        );
        debug_assert!(self.deps[i] > 0, "over-decrement of {:?}", self.keys[i]);
        self.deps[i] -= 1;
        if ready_at > self.ready_at[i] {
            self.ready_at[i] = ready_at;
        }
        if self.deps[i] == 0 {
            self.rtq.push(id);
        }
    }

    /// [`dec_id`](Self::dec_id) that also names the producer whose arrival
    /// this decrement represents. While tracing, the label of the *latest*
    /// arrival is kept per task and stamped onto the execution span as the
    /// dependency edge for the critical-path walk. The label closure is
    /// only invoked when a tracer is installed, so the disabled path costs
    /// nothing beyond the plain decrement.
    pub fn dec_from_id(&mut self, id: TaskId, ready_at: f64, producer: impl FnOnce() -> String) {
        let i = id as usize;
        if self.tracer.is_some() && ready_at >= self.ready_at[i] {
            if self.pred.is_empty() {
                self.pred.resize(self.keys.len(), None);
            }
            self.pred[i] = Some(producer());
        }
        self.dec_id(id, ready_at);
    }

    /// Adjust the resident input-buffer gauge (bytes of fetched panels
    /// held); sampled onto exec spans as the memory high-water series.
    pub(crate) fn add_mem(&mut self, bytes: u64) {
        self.mem_bytes = self.mem_bytes.saturating_add(bytes);
    }

    /// Pick the next ready task under the RTQ policy: its id (for
    /// [`complete`](Self::complete)), its key, and the virtual time its
    /// last input became available.
    pub fn pick(&mut self) -> Option<(TaskId, K, f64)> {
        let (keys, urgency) = (&self.keys, &self.urgency);
        let id = self.rtq.pop_by(
            |&id| keys[id as usize].priority_key(),
            |&id| urgency.get(id as usize).copied().unwrap_or(0),
        )?;
        let ready_at = self.ready_at[id as usize];
        (self.picked, self.picked_ready) = (id, ready_at);
        Some((id, self.keys[id as usize], ready_at))
    }

    /// Charge an executed task's kernel time (plus the engine's per-task
    /// overhead) to the virtual clock and record it on the timeline as a
    /// typed exec span: kernel/overhead sub-spans, the ready time from the
    /// enclosing `pick`, the producer edge, and the queue-depth / resident-
    /// bytes gauges sampled at this task boundary. `key` is the picked
    /// task's.
    pub fn charge<M>(&mut self, rank: &mut Rank<M>, key: K, secs: f64) {
        let total = secs + self.task_overhead;
        rank.advance(total);
        self.record(rank, key, total, (secs, self.task_overhead));
    }

    /// Close the picked task `key`, which charged its `kernel` seconds to
    /// the clock itself, in parts, since `start` (the solve's block groups,
    /// whose blocks each charge where their messages leave): charge the
    /// per-task overhead and record one span from `start` to now, as
    /// [`charge`](Self::charge) does. What the span holds beyond its
    /// kernels — the sends between the parts, the per-task overhead — is
    /// its overhead.
    pub fn charge_since<M>(&mut self, rank: &mut Rank<M>, key: K, start: f64, kernel: f64) {
        rank.advance(self.task_overhead);
        let total = rank.now() - start;
        self.record(rank, key, total, (kernel, (total - kernel).max(0.0)));
    }

    /// The telemetry sample and the exec span of the picked task `key`,
    /// which ran the last `total` seconds: `kernel` of them in kernels,
    /// `overhead` in the runtime.
    fn record<M>(&mut self, rank: &Rank<M>, key: K, total: f64, (kernel, overhead): (f64, f64)) {
        let picked = self.picked as usize;
        debug_assert_eq!(
            self.keys[picked], key,
            "charged a task other than the picked one"
        );
        if let Some(tel) = &mut self.telemetry {
            let end = rank.now();
            // Dep-wait: how long this task sat ready before starting.
            let dep_wait = (end - total - self.picked_ready).max(0.0);
            tel.on_task(
                end,
                total,
                dep_wait,
                self.rtq.len(),
                self.mem_bytes,
                rank.comm_sample(),
            );
        }
        if let Some(tr) = &mut self.tracer {
            let end = rank.now();
            tr.push(TraceEvent {
                rank: rank.id(),
                name: key.trace_label(),
                cat: key.trace_cat(),
                kind: SpanKind::Exec,
                start: end - total,
                dur: total,
                kernel,
                overhead,
                ready_at: self.picked_ready,
                pred: self.pred.get(picked).cloned().flatten(),
                peer: None,
                bytes: self.mem_bytes,
                rtq_depth: self.rtq.len() as u32,
            });
        }
    }

    /// Mark a task executed.
    pub fn complete(&mut self, id: TaskId) {
        let i = id as usize;
        debug_assert!(
            !self.executed[i],
            "task {:?} executed more than once",
            self.keys[i]
        );
        self.executed[i] = true;
        self.done += 1;
    }

    /// Invariant check at a clean finish (debug builds): every task
    /// executed exactly once and no dependency counter is dangling.
    /// Call only when the engine finished *without* aborting.
    pub fn debug_assert_completed(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        debug_assert_eq!(
            self.done,
            self.total(),
            "engine finished with {}/{} tasks executed",
            self.done,
            self.total()
        );
        for (i, k) in self.keys.iter().enumerate() {
            debug_assert!(
                self.deps[i] == 0,
                "task {k:?} still has {} outstanding dependencies",
                self.deps[i]
            );
            debug_assert!(self.executed[i], "task {k:?} never executed");
        }
    }

    /// Executed-task totals per kind, in stable (sorted) order
    /// (schedule-invariant; checked by tests).
    pub fn task_counts(&self) -> Vec<(&'static str, u64)> {
        count_kinds(&self.keys, &self.executed)
    }

    /// The per-task executed flags, by id, for [`count_kinds`] once the
    /// engine is gone.
    pub(crate) fn into_executed(self) -> Vec<bool> {
        self.executed
    }

    /// Total owned tasks.
    pub fn total(&self) -> usize {
        self.keys.len()
    }

    /// True when every owned task has executed (or the job aborted).
    pub fn finished(&self) -> bool {
        self.done == self.total() || self.abort.load(Ordering::Relaxed)
    }

    /// True once any rank failed.
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// Record an error and abort the job: set this engine's abort flag and
    /// the job-wide one ([`Rank::signal_abort`]), which every rank's loop
    /// observes — also where engines hold per-rank flags (the solve's) —
    /// and which fault injection cannot drop. Then broadcast
    /// [`Msg::Abort`] on the reliable wire: it changes nothing at its
    /// receivers and is sent for the latency, fault draws and ledger counts
    /// of an abort broadcast.
    pub fn fail<Mt: Meta>(&mut self, rank: &mut Rank<Msg<Mt>>, err: SolverError) {
        if self.error.is_none() {
            self.error = Some(err);
        }
        self.abort.store(true, Ordering::SeqCst);
        rank.signal_abort();
        let n = rank.n_ranks();
        let me = rank.id();
        for r in (0..n).filter(|&r| r != me) {
            rank.send(r, Msg::Abort, Wire::Bare);
        }
    }

    /// The quiescence detector fired on this rank: record
    /// [`SolverError::Stalled`] with the progress so far and `detail` (what
    /// was most likely dropped), and abort the job — the one stall failure
    /// of every event loop.
    pub(crate) fn fail_stalled<Mt: Meta>(&mut self, rank: &mut Rank<Msg<Mt>>, detail: &str) {
        let stalled = SolverError::Stalled {
            rank: rank.id(),
            done: self.done,
            total: self.total(),
            detail: detail.into(),
        };
        self.fail(rank, stalled);
    }

    /// Queue an incoming signal (called by the loop's message router).
    pub fn post(&mut self, signal: S) {
        self.inbox.push(signal);
    }

    /// True when signals are queued for [`take_signals`](Self::take_signals).
    pub(crate) fn has_signals(&self) -> bool {
        !self.inbox.is_empty()
    }

    /// Take every queued signal for resolution (see [`super::step`]); hand
    /// the buffer back with [`recycle_signals`](Self::recycle_signals).
    pub(crate) fn take_signals(&mut self) -> Vec<S> {
        if self.inbox.is_empty() {
            return Vec::new();
        }
        let spare = std::mem::take(&mut self.spare_inbox);
        std::mem::replace(&mut self.inbox, spare)
    }

    /// Keep a buffer [`take_signals`](Self::take_signals) handed out for
    /// the next call (its contents are dropped, its allocation is not).
    pub(crate) fn recycle_signals(&mut self, mut taken: Vec<S>) {
        taken.clear();
        self.spare_inbox = taken;
    }
}

impl<K: TaskKind, M: Send + 'static> TaskEngine<K, Signal<M>> {
    /// Idempotent [`post`](Self::post): accept the signal only on first
    /// delivery, keyed by its global pointer (each published payload gets a
    /// fresh shared-heap allocation, so the pointer identifies the
    /// notification). Returns whether the signal was accepted. Duplicate
    /// deliveries — fault-injected or from a retrying network — are
    /// dropped here, keeping dependency decrements exactly-once.
    pub(crate) fn post_unique(&mut self, signal: Signal<M>) -> bool {
        let fresh = self.seen_signals.insert(signal.ptr);
        if fresh {
            self.inbox.push(signal);
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_trace::TraceCat;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct T(usize);

    impl TaskKind for T {
        fn priority_key(&self) -> (usize, usize) {
            (self.0, 0)
        }
        fn seed_key(&self) -> (usize, usize, usize, usize) {
            (self.0, 0, 0, 0)
        }
        fn kind_name(&self) -> &'static str {
            "t"
        }
        fn trace_label(&self) -> String {
            format!("T({})", self.0)
        }
        fn trace_cat(&self) -> TraceCat {
            TraceCat::Other
        }
    }

    /// An engine over tasks `T(v)` with `deps` outstanding, ids in order.
    fn engine<S: Send + 'static>(
        tasks: &[(usize, u32)],
        abort: &Arc<AtomicBool>,
    ) -> TaskEngine<T, S> {
        let (keys, deps) = tasks.iter().map(|&(v, d)| (T(v), d)).unzip();
        TaskEngine::new(&Graph::new(keys, deps), RtqPolicy::Lifo, Arc::clone(abort))
    }

    fn no_abort() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }

    #[test]
    fn dec_releases_at_zero_with_max_ready_time() {
        let mut e: TaskEngine<T> = engine(&[(0, 2)], &no_abort());
        assert!(e.pick().is_none());
        e.dec_id(0, 3.0);
        assert!(e.pick().is_none(), "one dependency still outstanding");
        e.dec_id(0, 1.5);
        let (_, k, ready_at) = e.pick().expect("released");
        assert_eq!(k, T(0));
        assert_eq!(ready_at, 3.0, "ready time is the max over inputs");
    }

    #[test]
    fn seeds_are_the_ready_tasks_in_seed_key_order() {
        let tasks = [(5, 0), (1, 0), (3, 0), (2, 1)];
        let (keys, deps) = tasks.iter().map(|&(v, d)| (T(v), d)).unzip();
        assert_eq!(Graph::new(keys, deps).seeds, [1, 2, 0]);
        let mut e: TaskEngine<T> = engine(&tasks, &no_abort());
        // LIFO pops the highest seed key first.
        assert_eq!(e.pick().map(|(_, k, _)| k), Some(T(5)));
        assert_eq!(e.pick().map(|(_, k, _)| k), Some(T(3)));
        assert_eq!(e.pick().map(|(_, k, _)| k), Some(T(1)));
        assert!(e.pick().is_none());
    }

    #[test]
    fn new_pushes_the_seeds_in_their_order() {
        let keys = vec![T(0), T(1), T(2), T(3)];
        let graph = Graph {
            keys: Arc::new(keys),
            deps: vec![0, 1, 0, 0],
            seeds: vec![3, 0, 2],
        };
        let mut e: TaskEngine<T> = TaskEngine::new(&graph, RtqPolicy::Fifo, no_abort());
        let popped: Vec<T> = std::iter::from_fn(|| e.pick().map(|(_, k, _)| k)).collect();
        assert_eq!(popped, [T(3), T(0), T(2)], "neither sorted nor rescanned");
    }

    #[test]
    fn finished_tracks_done_and_abort() {
        let abort = no_abort();
        let mut e: TaskEngine<T> = engine(&[(0, 0)], &abort);
        assert!(!e.finished());
        e.complete(0);
        assert!(e.finished());
        assert_eq!(e.task_counts(), vec![("t", 1)]);

        let e2: TaskEngine<T> = engine(&[(1, 1)], &abort);
        assert!(!e2.finished());
        abort.store(true, Ordering::SeqCst);
        assert!(e2.finished(), "abort short-circuits completion");
    }

    #[test]
    fn inbox_roundtrip() {
        let mut e: TaskEngine<T, usize> = engine(&[], &no_abort());
        e.post(7);
        e.post(9);
        assert_eq!(e.take_signals(), vec![7, 9]);
        assert!(e.take_signals().is_empty());
    }

    fn sig_at(offset: usize) -> Signal<()> {
        let ptr = GlobalPtr {
            rank: 0,
            seg: 1,
            offset,
            len: 4,
            kind: sympack_pgas::MemKind::Host,
        };
        Signal {
            ptr,
            meta: (),
            relay: None,
        }
    }

    #[test]
    fn post_unique_absorbs_duplicate_deliveries() {
        let mut e: TaskEngine<T, Signal<()>> = engine(&[], &no_abort());
        assert!(e.post_unique(sig_at(0)));
        assert!(!e.post_unique(sig_at(0)), "duplicate must be dropped");
        assert!(e.post_unique(sig_at(8)), "distinct pointer accepted");
        assert_eq!(e.take_signals().len(), 2);
        // Draining does not forget: a straggler duplicate arriving after
        // the original was resolved is still absorbed.
        assert!(!e.post_unique(sig_at(0)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "executed more than once")]
    fn invariant_checker_catches_double_execution() {
        let mut e: TaskEngine<T> = engine(&[(0, 0)], &no_abort());
        e.complete(0);
        e.complete(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "decrement of already-executed")]
    fn invariant_checker_catches_dec_after_execute() {
        let mut e: TaskEngine<T> = engine(&[(0, 1)], &no_abort());
        e.dec_id(0, 0.0);
        e.complete(0);
        e.dec_id(0, 0.0);
    }

    #[test]
    fn debug_assert_completed_passes_on_clean_finish() {
        let mut e: TaskEngine<T> = engine(&[(0, 0), (1, 1)], &no_abort());
        e.complete(0);
        e.dec_id(1, 1.0);
        e.complete(1);
        e.debug_assert_completed();
    }
}
