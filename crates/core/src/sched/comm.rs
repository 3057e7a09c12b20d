//! The publication layer: the paper's `signal(ptr, meta)` for every
//! factorization engine (Fig. 4 steps 1–2), and everything between an
//! engine saying "this payload, to these ranks" and the receiving engine's
//! inbox.
//!
//! [`CommLayer::publish`] exposes the payload in the publisher's shared heap
//! — the buffer the engine hands over *becomes* the segment, nothing is
//! staged (the runtime owns `ptr`; the engine only names its `meta`) — counts the
//! bytes ([`PublishStats`]), and signals the remote destinations — flat, or
//! through a k-ary tree over node groups whose leaders re-host the block and
//! relay it onward ([`BcastTopology::Tree`]). A signal is a value,
//! [`Msg::Signal`]; the one delivery function ([`deliver`]) that puts it in
//! the receiving engine's inbox, the relay duty it may carry and the
//! re-host-and-forward that discharges the duty exist once, for every
//! [`super::Engine`]; no engine contains wire, relay or accounting code.
//!
//! With coalescing on, signals bound for the same rank within a scheduling
//! quantum are buffered and shipped as one [`Msg::Frame`] over
//! [`Wire::Frame`], each of whose signals is delivered like a flat one —
//! inbox semantics are unchanged, only the wire pattern differs (one
//! latency and one header per batch instead of per signal). Off (the
//! default), every signal is its own [`Wire::Signal`] message. Flush
//! triggers, in order of authority:
//!
//! * **size threshold** — pushing a sub that would overflow
//!   [`CoalesceConfig::max_bytes`] (or reach `max_subs`) flushes immediately;
//! * **quantum expiry** — [`CommLayer::tick`], called once per engine step,
//!   flushes destinations whose frame has been open longer than
//!   [`CoalesceConfig::quantum_secs`] of virtual time;
//! * **engine idle** — [`CommLayer::flush_all`], called when the engine
//!   runs out of ready work, drains everything so a buffered signal can
//!   never cause a false stall while the job waits on it.

use super::{Meta, Msg, Signal, TaskEngine, TaskKind};
use std::sync::Arc;
use sympack_pgas::coalesce::{
    plan_tree, Batch, BcastPlan, BcastTopology, CoalesceConfig, Coalescer, SIGNAL_WIRE_BYTES,
};
use sympack_pgas::{GlobalPtr, MemKind, Payload, Rank, Wire};

/// A relay obligation: the rank holding it is the leader at tree position
/// `pos` of `plan` and must forward the block (re-hosted locally) to its
/// node members and child leaders once the data arrives.
#[derive(Debug, Clone)]
pub struct RelayDuty {
    plan: Arc<BcastPlan>,
    pos: usize,
}

/// Per-rank publication accounting: payload bytes this rank placed in its
/// shared heap for consumers to fetch, split by stored form. For a
/// compressed publication, `lr_dense_equiv_bytes` records what the same
/// block would have cost dense — the basis of the compression ratio the
/// profiler reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Payload bytes of dense publications.
    pub dense_bytes: u64,
    /// Payload bytes of compressed (`[U|V]`) block publications.
    pub lr_bytes: u64,
    /// Dense-equivalent bytes of the compressed publications.
    pub lr_dense_equiv_bytes: u64,
    /// Payloads published dense.
    pub dense_blocks: u64,
    /// Blocks published compressed.
    pub lr_blocks: u64,
}

impl PublishStats {
    /// Merge another rank's stats into this one.
    pub fn merge(&mut self, other: &PublishStats) {
        self.dense_bytes += other.dense_bytes;
        self.lr_bytes += other.lr_bytes;
        self.lr_dense_equiv_bytes += other.lr_dense_equiv_bytes;
        self.dense_blocks += other.dense_blocks;
        self.lr_blocks += other.lr_blocks;
    }

    /// Total payload bytes published (any form).
    pub fn published_bytes(&self) -> u64 {
        self.dense_bytes + self.lr_bytes
    }
}

/// The per-rank publication front-end an engine's [`super::Core`] carries; `Mt` is
/// the engine's [`Meta`].
pub struct CommLayer<Mt> {
    /// Per-destination signal coalescing; `None` = one message per signal.
    co: Option<Coalescer<Signal<Mt>>>,
    /// Wire pattern of a publication: flat owner→targets, or a k-ary tree
    /// over node groups with leader relays.
    topology: BcastTopology,
    stats: PublishStats,
    /// Relay duties whose payload this rank has fetched but not yet
    /// forwarded, in the order their signals arrived.
    held: Vec<Held<Mt>>,
}

/// A relay duty waiting for its leader's next progress point at or after
/// `ready_at`, when the fetched payload is here.
struct Held<Mt> {
    ready_at: f64,
    meta: Mt,
    data: Payload,
    duty: RelayDuty,
}

impl<Mt: Meta> CommLayer<Mt> {
    /// A layer publishing over `topology`, with coalescing on
    /// (`Some(config)`) or pass-through (`None`).
    pub fn new(coalesce: Option<CoalesceConfig>, topology: BcastTopology) -> Self {
        CommLayer {
            co: coalesce.map(Coalescer::new),
            topology,
            stats: PublishStats::default(),
            held: Vec::new(),
        }
    }

    /// What this rank has published so far.
    pub fn stats(&self) -> PublishStats {
        self.stats
    }

    /// Publish `payload` to the ranks in `dests` (the local rank, if
    /// listed, is skipped — its consumers read the data in place): expose
    /// the buffer in the shared heap as it is — a frozen block
    /// (`Mat::share`) or a `Vec` moved in, never a copy — and
    /// `signal(ptr, meta)` every remote destination's engine; what their
    /// fetch hands to [`super::Engine::on_data`] is this same buffer.
    /// `lr_dense_equiv` is `None` for a dense
    /// payload; for a compressed one it is the element count the same block
    /// would have had dense (every hop downstream moves, and is charged
    /// for, the payload's reduced size).
    ///
    /// Under [`BcastTopology::Tree`] the publisher only signals its own
    /// node's consumers plus the first `arity` remote-node leaders; the
    /// leaders re-host and relay onward, so the publisher's NIC serves
    /// O(arity) remote pulls instead of O(targets).
    pub fn publish(
        &mut self,
        rank: &mut Rank<Msg<Mt>>,
        payload: impl Into<Payload>,
        lr_dense_equiv: Option<usize>,
        dests: &[usize],
        meta: Mt,
    ) {
        let me = rank.id();
        if dests.iter().all(|&d| d == me) {
            return;
        }
        let payload = payload.into();
        let bytes = (payload.len() * 8) as u64;
        match lr_dense_equiv {
            None => {
                self.stats.dense_blocks += 1;
                self.stats.dense_bytes += bytes;
            }
            Some(elements) => {
                self.stats.lr_blocks += 1;
                self.stats.lr_bytes += bytes;
                self.stats.lr_dense_equiv_bytes += (elements * 8) as u64;
            }
        }
        let ptr = host(rank, payload);
        match self.topology {
            BcastTopology::Flat => {
                for &dest in dests.iter().filter(|&&d| d != me) {
                    self.signal(rank, dest, ptr, meta, None);
                }
            }
            BcastTopology::Tree { arity } => {
                let plan = Arc::new(plan_tree(me, dests, arity, rank.ranks_per_node()));
                for &dest in &plan.direct {
                    self.signal(rank, dest, ptr, meta, None);
                }
                for pos in plan.root_children() {
                    self.signal(rank, plan.leaders[pos], ptr, meta, Some((&plan, pos)));
                }
            }
        }
    }

    /// The payload behind `arrived` is fetched, valid from `ready_at`: if
    /// its signal carried a relay duty, hold the duty for
    /// [`CommLayer::relay_due`]. The leader's clock does not move here: its
    /// own ready work runs meanwhile, and the forward leaves at its first
    /// progress point after the payload arrived.
    pub(super) fn hold(&mut self, arrived: &Signal<Mt>, data: &Payload, ready_at: f64) {
        if let Some(duty) = &arrived.relay {
            self.held.push(Held {
                ready_at,
                meta: arrived.meta,
                data: Payload::clone(data),
                duty: duty.clone(),
            });
        }
    }

    /// Discharge every held relay duty whose payload is here by `until`,
    /// earliest arrival first: advance the clock to the arrival (the
    /// payload cannot leave this rank before it came), re-host the payload
    /// (the same buffer again) in this rank's shared heap and signal the
    /// leader's node members (flat) plus its child leaders (who inherit
    /// relay duties of their own). A rank about to start a task passes the
    /// task's start time, an idle rank `f64::INFINITY`.
    pub(super) fn relay_due(&mut self, rank: &mut Rank<Msg<Mt>>, until: f64) {
        if self.held.is_empty() {
            return;
        }
        let mut held = std::mem::take(&mut self.held);
        held.sort_by(|a, b| a.ready_at.total_cmp(&b.ready_at));
        let due = held.partition_point(|h| h.ready_at <= until);
        for Held {
            ready_at,
            meta,
            data,
            duty: RelayDuty { plan, pos },
        } in held.drain(..due)
        {
            rank.advance_to(ready_at);
            let ptr = host(rank, data);
            for &dest in &plan.members[pos] {
                self.signal(rank, dest, ptr, meta, None);
            }
            for child in plan.children_of(pos) {
                self.signal(rank, plan.leaders[child], ptr, meta, Some((&plan, child)));
            }
        }
        self.held = held;
    }

    /// Ship one `signal(ptr, meta)` toward `dest`'s engine, through the
    /// coalescer when it is on. Signals ride the droppable/duplicable wire:
    /// the receiving inbox deduplicates by pointer ([`deliver`]) and the
    /// stall detector diagnoses drops. With `leader_of = Some((plan, pos))`,
    /// `dest` is the leader at tree position `pos` and is also assigned the
    /// duty to relay onward.
    fn signal(
        &mut self,
        rank: &mut Rank<Msg<Mt>>,
        dest: usize,
        ptr: GlobalPtr,
        meta: Mt,
        leader_of: Option<(&Arc<BcastPlan>, usize)>,
    ) {
        let relay = leader_of.map(|(plan, pos)| RelayDuty {
            plan: Arc::clone(plan),
            pos,
        });
        let sig = Signal { ptr, meta, relay };
        match &mut self.co {
            None => rank.send(dest, Msg::Signal(sig), Wire::Signal),
            Some(co) => {
                let now = rank.now();
                if let Some(batch) = co.push(dest, SIGNAL_WIRE_BYTES, sig, now) {
                    dispatch(rank, batch);
                }
            }
        }
    }

    /// Flush destinations whose quantum has expired at the rank's current
    /// virtual time. Called once per engine step.
    pub(super) fn tick(&mut self, rank: &mut Rank<Msg<Mt>>) {
        if let Some(co) = &mut self.co {
            let now = rank.now();
            for batch in co.take_expired(now) {
                dispatch(rank, batch);
            }
        }
    }

    /// Flush everything (engine idle / out of ready work).
    pub(super) fn flush_all(&mut self, rank: &mut Rank<Msg<Mt>>) {
        if let Some(co) = &mut self.co {
            for batch in co.take_all() {
                dispatch(rank, batch);
            }
        }
    }
}

/// Deliver one message to the factorization's inbox, the one way a signal
/// reaches it: each signal is accepted on first delivery only, with its
/// relay duty, so a duplicate never relays twice. Nothing else is this
/// phase's (the abort changes nothing here).
pub(super) fn deliver<K: TaskKind, Mt: Meta>(rt: &mut TaskEngine<K, Signal<Mt>>, msg: Msg<Mt>) {
    match msg {
        Msg::Signal(sig) => {
            rt.post_unique(sig);
        }
        Msg::Frame(sigs) => {
            for sig in sigs {
                rt.post_unique(sig);
            }
        }
        Msg::Solve(..) | Msg::Piece(..) | Msg::Abort => {}
    }
}

/// Expose `payload` in this rank's shared heap for consumers to fetch.
fn host<M>(rank: &mut Rank<M>, payload: Payload) -> GlobalPtr {
    rank.alloc_from(MemKind::Host, payload)
        .expect("host allocation cannot fail")
}

/// Ship one flushed batch as a single frame. A fault-injected duplicate
/// replays every signal in it, which the inbox's pointer dedup absorbs.
fn dispatch<Mt: Meta>(rank: &mut Rank<Msg<Mt>>, batch: Batch<Signal<Mt>>) {
    let (bytes, subs) = (batch.wire_bytes, batch.subs.len());
    let sigs = batch.subs.into_iter().map(|(_, sig)| sig).collect();
    rank.send(batch.dest, Msg::Frame(sigs), Wire::Frame { bytes, subs });
}
