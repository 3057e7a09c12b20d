//! Communication and operation counters: one ledger per rank.

use std::cell::Cell;
use std::collections::BTreeMap;

use sympack_trace::profile::CommMatrix;
use sympack_trace::telemetry::CommSample;

/// One rank's traffic ledger. Every `rget`, `copy` and RPC is counted here
/// once, by the rank that issues it, with plain single-owner writes, so a
/// lockstep run reproduces it bit for bit. `Runtime::spmd` sums the ledgers
/// into `RunReport::{stats, comm}`; `Rank::comm_sample` reads `comm`.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// The telemetry view. Its `msgs_sent`, `sends_dropped` and
    /// `rget_retries` are also the snapshot's `rpcs`, `rpcs_dropped` and
    /// `rget_timeouts`.
    pub comm: CommSample,
    /// The snapshot's remaining counters (`rpcs`, `rpcs_dropped`,
    /// `rget_timeouts` and `copied_bytes` stay 0 here).
    pub totals: StatsSnapshot,
    /// See [`StatsSnapshot::copied_bytes`]; a `Cell` because the segment
    /// operations that copy are reachable from `&Rank`.
    copied_bytes: Cell<u64>,
    /// `(src, dst)` → (bytes, messages) over the transfers this rank
    /// issued: only the pairs it touched, O(P) unless it copies between
    /// many pairs of other ranks' segments.
    peers: BTreeMap<(usize, usize), (u64, u64)>,
}

impl Ledger {
    /// Count one src → dst message of `bytes` (0 for a bare RPC), routed
    /// to the intra-node or network total and, when either end is device
    /// memory, to the device total too.
    pub fn transfer(&mut self, src: usize, dst: usize, bytes: usize, intra: bool, device: bool) {
        let bytes = bytes as u64;
        let t = &mut self.totals;
        if intra {
            t.intra_bytes += bytes;
        } else {
            t.net_bytes += bytes;
        }
        if device {
            t.device_bytes += bytes;
        }
        let cell = self.peers.entry((src, dst)).or_default();
        cell.0 += bytes;
        cell.1 += 1;
    }

    /// Count bytes a segment operation really copied.
    pub fn copied(&self, bytes: usize) {
        let c = &self.copied_bytes;
        c.set(c.get() + bytes as u64);
    }

    /// Sum the ranks' ledgers into the run's totals and `n × n` matrix.
    pub fn sum(ledgers: &[Ledger], n: usize) -> (StatsSnapshot, CommMatrix) {
        let mut s = StatsSnapshot::default();
        let mut m = CommMatrix::empty(n);
        for l in ledgers {
            let t = &l.totals;
            s.rgets += t.rgets;
            s.copies += t.copies;
            s.rpcs += l.comm.msgs_sent;
            s.net_bytes += t.net_bytes;
            s.intra_bytes += t.intra_bytes;
            s.device_bytes += t.device_bytes;
            s.rpcs_dropped += l.comm.sends_dropped;
            s.rpcs_duplicated += t.rpcs_duplicated;
            s.rget_timeouts += l.comm.rget_retries;
            s.frames += t.frames;
            s.frame_subs += t.frame_subs;
            s.copied_bytes += l.copied_bytes.get();
            for (&(src, dst), &(bytes, msgs)) in &l.peers {
                m.bytes[src * n + dst] += bytes;
                m.msgs[src * n + dst] += msgs;
            }
        }
        (s, m)
    }
}

/// A run's communication counters, summed over the ranks' ledgers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// One-sided gets issued.
    pub rgets: u64,
    /// `copy()` operations issued.
    pub copies: u64,
    /// RPCs sent (all four flavours; dropped ones excluded).
    pub rpcs: u64,
    /// Bytes crossing the (virtual) network.
    pub net_bytes: u64,
    /// Bytes moved within a node.
    pub intra_bytes: u64,
    /// Bytes moved to/from device memory.
    pub device_bytes: u64,
    /// Signals and frames dropped by fault injection.
    pub rpcs_dropped: u64,
    /// Signals and frames duplicated by fault injection.
    pub rpcs_duplicated: u64,
    /// rget attempts that timed out transiently under fault injection.
    pub rget_timeouts: u64,
    /// Coalesced frames sent.
    pub frames: u64,
    /// Sub-messages carried inside coalesced frames.
    pub frame_subs: u64,
    /// Bytes the segment operations really `memcpy`'d (partial-range
    /// reads, writes, copy-on-write), counted by the rank that ran them —
    /// unlike the modeled bytes above, charged whether or not a buffer was
    /// handed over by reference. For tests and tools, not a model output:
    /// it is in no profile, telemetry or fingerprint document.
    pub copied_bytes: u64,
}
