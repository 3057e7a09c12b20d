//! The per-thread rank handle: one-sided RMA, typed messages, progress,
//! virtual time.

use crate::faults::FaultPlan;
use crate::netmodel::NetModel;
use crate::ptr::{GlobalPtr, MemKind};
use crate::runtime::Shared;
use crate::segment::{DeviceOom, Payload};
use crate::stats::Ledger;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use sympack_trace::{SpanKind, TraceCat, TraceEvent, Tracer};

/// CPU overhead charged for initiating any communication operation.
const ISSUE_OVERHEAD: f64 = 0.2e-6;

/// Errors surfaced to the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PgasError {
    /// A device allocation exceeded the per-rank quota (§4.2 of the paper;
    /// the solver chooses a fallback policy).
    DeviceOom {
        /// Bytes requested.
        requested: usize,
        /// Bytes remaining under the quota.
        available: usize,
    },
}

impl std::fmt::Display for PgasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PgasError::DeviceOom {
                requested,
                available,
            } => write!(
                f,
                "device allocation of {requested} bytes failed ({available} available)"
            ),
        }
    }
}

impl std::error::Error for PgasError {}

impl From<DeviceOom> for PgasError {
    fn from(e: DeviceOom) -> Self {
        PgasError::DeviceOom {
            requested: e.requested,
            available: e.available,
        }
    }
}

/// A non-blocking one-sided get in flight: the payload plus the virtual time
/// at which it is available. Mirrors `upcxx::future<T>`. The payload is a
/// snapshot: a later write to the segment does not change it.
#[derive(Debug)]
pub struct RgetHandle {
    data: Payload,
    /// Virtual time at which the transfer completes.
    pub ready_at: f64,
}

impl RgetHandle {
    /// Block (in virtual time) until the transfer completes and take the
    /// payload: advances the rank clock to at least `ready_at`.
    pub fn wait<M>(self, rank: &mut Rank<M>) -> Payload {
        rank.advance_to(self.ready_at);
        self.data
    }

    /// Take the payload without advancing any clock. For callers that track
    /// completion times themselves (e.g. the solver records `ready_at` per
    /// dependent task to preserve communication/computation overlap).
    pub fn into_data(self) -> Payload {
        self.data
    }
}

/// How a message travels: its timing path, its fault-plan draw and its
/// ledger entry. The value itself is the region's message type `M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Control: the envelope's latency, reliable (a delay spike at most),
    /// one message and no bytes in the ledger.
    Bare,
    /// The paper's `signal(ptr, meta)`: latency only, the envelope plus
    /// [`crate::coalesce::SIGNAL_WIRE_BYTES`] in the ledger; droppable and
    /// duplicable, so the receiver must deduplicate.
    Signal,
    /// This many bytes of bulk data: latency plus transfer time, reliable.
    Payload(usize),
    /// A frame of `subs` signals, `bytes` framed: one envelope and one
    /// latency for the batch; dropped or duplicated as a unit.
    Frame { bytes: usize, subs: usize },
}

/// A message queued at its target rank, `(ready_at, wire, message)`: when
/// it is there, what it weighs on the wire (for the receiver's in-flight
/// accounting) and the value.
pub(crate) type Queued<M> = (f64, usize, M);

/// What the fault plan lets through of one outgoing message.
enum Fate<M> {
    Dropped,
    /// The message and, when duplicated, a ghost copy with its extra lag.
    Sent(M, Option<(M, f64)>),
}

/// A rank: the UPC++-process analogue. Owned by exactly one thread; all
/// cross-rank interaction goes through the shared tables and queues. `M` is
/// the one message type of the SPMD region ([`crate::Runtime::spmd`]).
pub struct Rank<M> {
    id: usize,
    shared: Arc<Shared<M>>,
    clock: f64,
    barrier_count: usize,
    /// Monotone counter feeding the fault plan's per-op decisions.
    fault_ctr: u64,
    /// The buffer each drain of [`Rank::progress`] sorts its arrivals in,
    /// kept between drains so that a busy loop allocates it once.
    drained: Vec<Queued<M>>,
    /// Comm-span recorder for the profiler. `None` (the default) records
    /// nothing; recording never touches the virtual clock either way, so
    /// enabling it cannot perturb the schedule.
    tracer: Option<Tracer>,
    /// This rank's traffic ledger: every rget, copy and message it issues,
    /// counted once. Written only by this rank's thread, so in lockstep
    /// mode it is a pure function of the schedule — bit-deterministic.
    /// `Runtime::spmd` takes it when the closure returns.
    pub(crate) ledger: Ledger,
    /// Health watchdog for the live telemetry plane. `None` (the default)
    /// observes nothing; like the tracer, observing never touches the
    /// virtual clock.
    watchdog: Option<sympack_trace::health::Watchdog>,
}

impl<M> Rank<M> {
    pub(crate) fn new(id: usize, shared: Arc<Shared<M>>) -> Self {
        Rank {
            id,
            shared,
            clock: 0.0,
            barrier_count: 0,
            fault_ctr: 0,
            drained: Vec::new(),
            tracer: None,
            ledger: Ledger::default(),
            watchdog: None,
        }
    }

    /// Install a comm-span tracer: every subsequent rget/copy/payload
    /// message or frame (and non-empty drain) records a [`SpanKind`]-typed event
    /// with peer rank and byte count. Retrieve with [`Rank::take_tracer`].
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Remove and return the comm-span tracer, if one was installed.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// Install a health watchdog: the solver's event loop feeds it
    /// idle-poll counts (via [`Rank::watchdog_idle`]) so `Stalled`-class
    /// health events are raised *before* the engine's own quiescence abort
    /// threshold. Retrieve with [`Rank::take_watchdog`].
    pub fn set_watchdog(&mut self, watchdog: sympack_trace::health::Watchdog) {
        self.watchdog = Some(watchdog);
    }

    /// Remove and return the watchdog, if one was installed.
    pub fn take_watchdog(&mut self) -> Option<sympack_trace::health::Watchdog> {
        self.watchdog.take()
    }

    /// Event-loop hook: the caller observed `idle_polls` consecutive polls
    /// with no progress. Forwards to the watchdog (if any) at the current
    /// virtual time; `idle_polls == 0` resets the stall episode.
    pub fn watchdog_idle(&mut self, idle_polls: u64) {
        if let Some(w) = &mut self.watchdog {
            w.observe_idle(self.clock, idle_polls, format_args!("rank{}", self.id));
        }
    }

    /// This rank's deterministic comm-layer view for the telemetry plane:
    /// cumulative sends/deliveries/drops/retries plus the in-flight
    /// queue depth and bytes observed at the most recent inbox drain.
    pub fn comm_sample(&self) -> sympack_trace::telemetry::CommSample {
        self.ledger.comm
    }

    /// Record one comm span `[start, end]` against `peer` (no clock cost).
    fn record_comm(
        &mut self,
        kind: SpanKind,
        name: &'static str,
        peer: usize,
        bytes: usize,
        start: f64,
        end: f64,
    ) {
        if let Some(tr) = &mut self.tracer {
            let dur = end - start;
            let mut ev = TraceEvent::basic(self.id, name.to_string(), TraceCat::Comm, start, dur);
            ev.kind = kind;
            ev.kernel = 0.0;
            ev.overhead = ISSUE_OVERHEAD.min(dur);
            ev.peer = Some(peer);
            ev.bytes = bytes as u64;
            tr.push(ev);
        }
    }

    /// This rank's id, `0..n_ranks`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Total ranks in the job.
    pub fn n_ranks(&self) -> usize {
        self.shared.config.n_ranks
    }

    /// Configured ranks per (virtual) node.
    pub fn ranks_per_node(&self) -> usize {
        self.shared.config.ranks_per_node
    }

    /// Node housing rank `r` under the configured ranks-per-node.
    pub fn node_of(&self, r: usize) -> usize {
        r / self.shared.config.ranks_per_node
    }

    /// True when `r` shares this rank's node.
    pub fn same_node(&self, r: usize) -> bool {
        self.node_of(r) == self.node_of(self.id)
    }

    /// The network cost model in effect.
    pub fn net(&self) -> &NetModel {
        &self.shared.config.net
    }

    /// True when the runtime is in deterministic lockstep mode.
    pub fn deterministic(&self) -> bool {
        self.shared.config.deterministic
    }

    /// True when a fault-injection plan is active for this job.
    pub fn faults_active(&self) -> bool {
        self.shared.config.faults.is_some()
    }

    // ----- quiescence + abort -----

    /// Current value of the job-wide activity counter: it changes whenever
    /// any rank sends, executes, or advances its clock. A polling loop that
    /// sees no change (and no local progress) for long enough may conclude
    /// the job is stalled rather than slow.
    pub fn global_activity(&self) -> u64 {
        self.shared.activity.load(Ordering::SeqCst)
    }

    fn bump_activity(&self) {
        self.shared.activity.fetch_add(1, Ordering::SeqCst);
    }

    /// Raise the job-wide abort flag; every rank observes it via
    /// [`Rank::job_aborted`]. Used to terminate all event loops after a
    /// fatal per-rank error.
    pub fn signal_abort(&self) {
        self.shared.abort.store(true, Ordering::SeqCst);
        self.bump_activity();
    }

    /// True once any rank has called [`Rank::signal_abort`].
    pub fn job_aborted(&self) -> bool {
        self.shared.abort.load(Ordering::SeqCst)
    }

    // ----- virtual time -----

    /// Current virtual time (seconds).
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Advance the clock by `dt` seconds of local work.
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0);
        if dt > 0.0 {
            self.bump_activity();
        }
        self.clock += dt;
    }

    /// Advance the clock to at least `t` (no-op if already past).
    pub fn advance_to(&mut self, t: f64) {
        if t > self.clock {
            self.bump_activity();
            self.clock = t;
        }
    }

    // ----- fault injection -----

    /// Take the next fault-op counter value (monotone per rank).
    fn next_fault_op(&mut self) -> u64 {
        let c = self.fault_ctr;
        self.fault_ctr += 1;
        c
    }

    /// Injected delay for a reliable message ([`Wire::Bare`] or
    /// [`Wire::Payload`]),
    /// which draws a fault-op counter with or without a plan.
    fn reliable_delay(&mut self) -> f64 {
        let ctr = self.next_fault_op();
        self.shared
            .config
            .faults
            .map_or(0.0, |p| p.delay(self.id, ctr))
    }

    // ----- NIC injection serialization -----

    /// Queueing delay (virtual seconds) before `bytes` can start leaving
    /// rank `src`'s NIC at this rank's current clock, claiming the NIC
    /// for the injection window. `0.0` — and no shared-state traffic —
    /// unless [`NetModel::model_injection`] is on and the transfer
    /// crosses nodes. The occupancy itself (`bytes / bandwidth`) is
    /// already part of `transfer_time`; only the wait in front of it is
    /// returned, so an idle NIC reproduces the unmodeled times exactly.
    fn nic_queue_delay(&self, src: usize, bytes: usize, same_node: bool) -> f64 {
        let occ = self.net().injection_time(bytes, same_node);
        if occ <= 0.0 {
            return 0.0;
        }
        let cell = &self.shared.nic_busy[src];
        loop {
            let cur = f64::from_bits(cell.load(Ordering::SeqCst));
            let start = cur.max(self.clock);
            let cas = cell.compare_exchange(
                cur.to_bits(),
                (start + occ).to_bits(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            if cas.is_ok() {
                return start - self.clock;
            }
        }
    }

    // ----- memory -----

    /// Allocate `len` zero elements of `kind` in this rank's shared heap.
    pub fn alloc(&mut self, kind: MemKind, len: usize) -> Result<GlobalPtr, PgasError> {
        Ok(self.shared.tables[self.id].alloc(self.id, kind, len)?)
    }

    /// Expose `data` in this rank's shared heap as a segment of `kind`
    /// without copying it — how real symPACK publishes a factor block that
    /// was allocated in the shared segment to begin with. A whole-segment
    /// [`Rank::rget`] / [`Rank::copy`] / [`Rank::read_local`] of the result
    /// shares the buffer again, at exactly the modeled cost of moving it.
    pub fn alloc_from(&mut self, kind: MemKind, data: Payload) -> Result<GlobalPtr, PgasError> {
        Ok(self.shared.tables[self.id].alloc_from(self.id, kind, data)?)
    }

    /// Free a whole allocation owned by this rank.
    ///
    /// # Panics
    /// Panics when called on another rank's allocation.
    pub fn free(&mut self, ptr: &GlobalPtr) {
        assert_eq!(ptr.rank, self.id, "free must be called by the owner");
        self.shared.tables[self.id].free(ptr);
    }

    /// Write into any segment this process can see *without* charging
    /// communication (used by owners to initialize their own data, and by
    /// tests). For a modeled transfer use [`Rank::copy`].
    pub fn write_local(&self, ptr: &GlobalPtr, data: &[f64]) {
        assert!(data.len() <= ptr.len, "payload exceeds allocation");
        let seg = self.shared.tables[ptr.rank].get(ptr.seg);
        self.ledger.copied(seg.write(ptr.offset, data));
    }

    /// Read a segment's contents without charging communication (owner-side
    /// access and test inspection). A whole-segment read shares the buffer.
    pub fn read_local(&self, ptr: &GlobalPtr) -> Payload {
        let seg = self.shared.tables[ptr.rank].get(ptr.seg);
        let (data, copied) = seg.read(ptr.offset, ptr.len);
        self.ledger.copied(copied);
        data
    }

    /// Run `f` over a mutable view of a local segment (no cost model).
    pub fn with_local_mut<T>(&self, ptr: &GlobalPtr, f: impl FnOnce(&mut [f64]) -> T) -> T {
        let seg = self.shared.tables[ptr.rank].get(ptr.seg);
        let (out, copied) = seg.with_mut(|all| f(&mut all[ptr.offset..ptr.offset + ptr.len]));
        self.ledger.copied(copied);
        out
    }

    /// Device bytes currently used / quota for this rank.
    pub fn device_usage(&self) -> (usize, usize) {
        let t = &self.shared.tables[self.id];
        (t.device_used(), t.device_quota())
    }

    // ----- one-sided RMA -----

    /// Non-blocking one-sided get: fetch `ptr`'s payload toward this rank.
    /// The returned handle carries the virtual completion time. Between the
    /// threads of this process a whole-segment get is a reference-count bump
    /// on the owner's buffer; the modeled transfer is charged regardless.
    pub fn rget(&mut self, ptr: &GlobalPtr) -> RgetHandle {
        let t0 = self.clock;
        self.clock += ISSUE_OVERHEAD;
        let same_node = self.same_node(ptr.rank);
        let t = self
            .net()
            .transfer_time(ptr.bytes(), same_node, ptr.kind, MemKind::Host);
        // The data leaves the owner's NIC: queue behind other transfers
        // it is injecting (no-op unless injection modeling is on).
        let inj = self.nic_queue_delay(ptr.rank, ptr.bytes(), same_node);
        let seg = self.shared.tables[ptr.rank].get(ptr.seg);
        let (data, copied) = seg.read(ptr.offset, ptr.len);
        self.ledger.copied(copied);
        let device = ptr.kind == MemKind::Device;
        self.ledger.totals.rgets += 1;
        self.ledger
            .transfer(ptr.rank, self.id, ptr.bytes(), same_node, device);
        let ready_at = self.clock + t + inj;
        self.record_comm(SpanKind::Rget, "rget", ptr.rank, ptr.bytes(), t0, ready_at);
        RgetHandle { data, ready_at }
    }

    /// Fault-aware [`Rank::rget`]: under an active [`crate::FaultPlan`] the
    /// attempt may time out transiently (returning `None` after charging
    /// the wasted timeout window) or suffer an injected delay spike. The
    /// caller is expected to retry with bounded backoff and surface a
    /// diagnosed error when retries are exhausted. Without faults this is
    /// exactly `Some(self.rget(ptr))`.
    pub fn try_rget(&mut self, ptr: &GlobalPtr) -> Option<RgetHandle> {
        let Some(plan) = self.shared.config.faults else {
            return Some(self.rget(ptr));
        };
        let ctr = self.next_fault_op();
        if plan.rget_times_out(self.id, ctr) {
            // The initiator pays the issue overhead plus the timeout window
            // it spent waiting before giving up on this attempt.
            let t0 = self.clock;
            self.advance(ISSUE_OVERHEAD + plan.delay_secs.max(10.0e-6));
            self.ledger.comm.rget_retries += 1;
            self.record_comm(SpanKind::Rget, "rget_timeout", ptr.rank, 0, t0, self.clock);
            return None;
        }
        let spike = plan.delay(self.id, ctr);
        let mut h = self.rget(ptr);
        h.ready_at += spike;
        Some(h)
    }

    /// `upcxx::copy()`: move data between any two memories in the system —
    /// host or device, local or remote — choosing the cost path from the
    /// endpoint kinds and locations. Returns the virtual completion time.
    pub fn copy(&mut self, src: &GlobalPtr, dst: &GlobalPtr) -> f64 {
        assert_eq!(src.len, dst.len, "copy endpoints must have equal length");
        let t0 = self.clock;
        self.clock += ISSUE_OVERHEAD;
        let same_node = self.node_of(src.rank) == self.node_of(dst.rank);
        let t = self
            .net()
            .transfer_time(src.bytes(), same_node, src.kind, dst.kind);
        let (data, read) = self.shared.tables[src.rank]
            .get(src.seg)
            .read(src.offset, src.len);
        let stored = self.shared.tables[dst.rank]
            .get(dst.seg)
            .store(dst.offset, data);
        self.ledger.copied(read + stored);
        let device = src.kind == MemKind::Device || dst.kind == MemKind::Device;
        self.ledger.totals.copies += 1;
        self.ledger
            .transfer(src.rank, dst.rank, src.bytes(), same_node, device);
        let done = self.clock + t;
        // Blame the remote endpoint (the local one is free by definition).
        let peer = if src.rank == self.id {
            dst.rank
        } else {
            src.rank
        };
        self.record_comm(SpanKind::Copy, "copy", peer, src.bytes(), t0, done);
        done
    }

    // ----- messages + progress -----

    /// Charge the issue overhead and return when a message reaches
    /// `target`, before any injected delay: the message latency, plus for
    /// `bulk` bytes their transfer time and the wait for this rank's NIC.
    fn arrival(&mut self, target: usize, bulk: Option<usize>) -> f64 {
        self.clock += ISSUE_OVERHEAD;
        let same_node = self.same_node(target);
        let at = self.clock + self.net().rpc_time(same_node);
        let Some(bytes) = bulk else {
            return at;
        };
        let inj = self.nic_queue_delay(self.id, bytes, same_node);
        at + self
            .net()
            .transfer_time(bytes, same_node, MemKind::Host, MemKind::Host)
            + inj
    }

    /// Send a reliable message: [`Wire::Bare`] without `bulk`,
    /// [`Wire::Payload`] with it (which records an `rpc` comm span).
    pub(crate) fn send_reliable(&mut self, target: usize, msg: M, bulk: Option<usize>) {
        let span = bulk.map(|_| ("rpc", self.clock));
        let ready_at = self.arrival(target, bulk) + self.reliable_delay();
        // A bare message weighs its envelope and routes no bytes.
        let (wire, routed) = bulk.map_or((self.net().rpc_envelope_bytes, 0), |b| (b, b));
        self.post(target, ready_at, wire, routed, span, Fate::Sent(msg, None));
    }

    /// The one tail every message reaches `target`'s queue through: the
    /// drop or duplicate, the ledger, the activity bump, the comm span and
    /// the push. `wire` is what `bytes_sent` and the receiver's drain count,
    /// `routed` what the byte totals and the peer cell count (0 for a bare
    /// message); `span` is `(name, start)` if the wire records one. `false`:
    /// the message was dropped.
    fn post(
        &mut self,
        target: usize,
        ready_at: f64,
        wire: usize,
        routed: usize,
        span: Option<(&'static str, f64)>,
        fate: Fate<M>,
    ) -> bool {
        let Fate::Sent(msg, ghost) = fate else {
            self.ledger.comm.sends_dropped += 1;
            return false;
        };
        let intra = self.same_node(target);
        self.ledger.transfer(self.id, target, routed, intra, false);
        self.ledger.comm.msgs_sent += 1;
        self.ledger.comm.bytes_sent += wire as u64;
        self.bump_activity();
        if let Some((name, t0)) = span {
            self.record_comm(SpanKind::Rpc, name, target, wire, t0, ready_at);
        }
        let queue = &self.shared.queues[target];
        if let Some((ghost, lag)) = ghost {
            self.ledger.totals.rpcs_duplicated += 1;
            queue.push((ready_at + lag, wire, ghost));
        }
        queue.push((ready_at, wire, msg));
        true
    }

    /// The body of [`Rank::progress`]: each message advances the clock to
    /// its arrival before `handle` runs on it.
    pub(crate) fn drain(&mut self, mut handle: impl FnMut(&mut Self, M)) -> usize {
        // In lockstep mode every progress call is a scheduling point: hand
        // the turn around the rotation *before* draining, so whatever the
        // other ranks send this round is in our queue when we drain it —
        // the interleaving becomes a pure function of the program.
        if let Some(ts) = &self.shared.turnstile {
            ts.pass(self.id);
        }
        let mut msgs = std::mem::take(&mut self.drained);
        while let Some(m) = self.shared.queues[self.id].pop() {
            msgs.push(m);
        }
        if msgs.is_empty() {
            self.drained = msgs;
            return 0;
        }
        msgs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = msgs.len();
        // In-flight accounting for the telemetry plane: whatever was
        // queued at this drain is what was "in flight" toward this rank.
        // Deterministic in lockstep mode (the turnstile makes queue
        // contents a pure function of the schedule).
        let wire: u64 = msgs.iter().map(|m| m.1 as u64).sum();
        let comm = &mut self.ledger.comm;
        comm.inflight_msgs = n as u64;
        comm.inflight_bytes = wire;
        comm.delivered_msgs += n as u64;
        comm.delivered_bytes += wire;
        self.bump_activity();
        let t0 = self.clock;
        for (ready_at, _, msg) in msgs.drain(..) {
            self.advance_to(ready_at);
            handle(self, msg);
        }
        self.drained = msgs;
        // Drain span: the clock motion spent consuming the inbox (message
        // arrival waits; handler work is charged by the handlers).
        if self.tracer.is_some() && self.clock > t0 {
            let end = self.clock;
            if let Some(tr) = &mut self.tracer {
                let mut ev =
                    TraceEvent::basic(self.id, format!("drain({n})"), TraceCat::Comm, t0, end - t0);
                ev.kind = SpanKind::Rpc;
                ev.kernel = 0.0;
                tr.push(ev);
            }
        }
        n
    }

    /// True when no incoming messages are queued (racy; for idle detection
    /// use the solver's own completion counting).
    pub fn rpc_queue_empty(&self) -> bool {
        self.shared.queues[self.id].is_empty()
    }

    /// Barrier across all ranks: physical synchronization plus virtual-clock
    /// agreement (every rank leaves with the maximum clock).
    pub fn barrier(&mut self) {
        // Lockstep mode: park in the turnstile first, handing the turn to a
        // rank still short of the barrier (otherwise the physical barrier
        // below would deadlock with everyone waiting for a parked rank).
        if let Some(ts) = &self.shared.turnstile {
            ts.barrier_enter(self.id);
        }
        let slot = self.barrier_count % 2;
        self.barrier_count += 1;
        self.shared.clock_max[slot].fetch_max(self.clock.to_bits(), Ordering::SeqCst);
        self.shared.barrier.wait();
        self.clock = f64::from_bits(self.shared.clock_max[slot].load(Ordering::SeqCst));
        self.shared.barrier.wait();
        if self.id == 0 {
            self.shared.clock_max[slot].store(0, Ordering::SeqCst);
        }
        // Resume the rotation from the lowest live rank.
        if let Some(ts) = &self.shared.turnstile {
            ts.wait_turn(self.id);
        }
    }
}

/// Sending and delivering need a message that can be copied: the fault
/// plan may duplicate a signal or a frame in flight.
impl<M: Clone> Rank<M> {
    /// Send `msg` to rank `target`, whose next [`Rank::progress`] hands it
    /// to its handler, no earlier (in virtual time) than `wire` delivers it.
    pub fn send(&mut self, target: usize, msg: M, wire: Wire) {
        match wire {
            Wire::Bare => self.send_reliable(target, msg, None),
            Wire::Payload(bytes) => self.send_reliable(target, msg, Some(bytes)),
            Wire::Signal => {
                let at = self.arrival(target, None);
                // Latency-only in time, but the ledger sees the envelope and
                // the `signal(ptr, meta)` record: what frames amortize.
                let wire = self.net().rpc_envelope_bytes + crate::coalesce::SIGNAL_WIRE_BYTES;
                let (delay, fate) =
                    self.droppable(msg, FaultPlan::drops_signal, FaultPlan::duplicates_signal);
                self.post(target, at + delay, wire, wire, None, fate);
            }
            Wire::Frame { bytes, subs } => {
                let span = Some(("frame", self.clock));
                // The frame pays one envelope for the whole batch — in time
                // and in the byte ledger — where flat signals pay one each.
                let wire = self.net().rpc_envelope_bytes + bytes;
                let at = self.arrival(target, Some(wire));
                let (delay, fate) =
                    self.droppable(msg, FaultPlan::drops_frame, FaultPlan::duplicates_frame);
                if self.post(target, at + delay, wire, wire, span, fate) {
                    self.ledger.totals.frames += 1;
                    self.ledger.totals.frame_subs += subs as u64;
                }
            }
        }
    }

    /// The fault plan's injected delay and verdict for a droppable message
    /// (a signal or a frame). Only under a plan does this draw a fault-op
    /// counter, so a fault-free run spends none on droppable messages.
    fn droppable(
        &mut self,
        msg: M,
        drop_if: fn(&FaultPlan, usize, u64) -> bool,
        dup_if: fn(&FaultPlan, usize, u64) -> bool,
    ) -> (f64, Fate<M>) {
        let Some(plan) = self.shared.config.faults else {
            return (0.0, Fate::Sent(msg, None));
        };
        let ctr = self.next_fault_op();
        let fate = if drop_if(&plan, self.id, ctr) {
            Fate::Dropped
        } else {
            // The ghost copy arrives strictly later, as a straggler would.
            let lag = plan.delay_secs.max(1.0e-6);
            let ghost = dup_if(&plan, self.id, ctr).then(|| (msg.clone(), lag));
            Fate::Sent(msg, ghost)
        };
        (plan.delay(self.id, ctr), fate)
    }

    /// Hand every queued incoming message to `handle`, in virtual-arrival
    /// order, and return how many there were — UPC++'s `progress()`, which
    /// the paper's poll function calls.
    pub fn progress(&mut self, handle: impl FnMut(&mut Self, M)) -> usize {
        self.drain(handle)
    }
}
