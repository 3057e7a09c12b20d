//! Communication and operation counters.

use std::sync::atomic::{AtomicU64, Ordering};

use sympack_trace::profile::CommMatrix;

/// Shared atomic counters, one set per runtime.
///
/// Beyond the global totals, a runtime-sized instance (see
/// `Stats::for_ranks`) keeps a per-peer (src, dst) byte/message matrix
/// fed by the same `record_transfer` path, exported with
/// `Stats::snapshot_matrix` for the profiler's comm-matrix view. The
/// `Default` instance has an empty matrix (peer recording is skipped), so
/// existing call sites keep working.
#[derive(Debug, Default)]
pub struct Stats {
    /// One-sided gets issued.
    pub rgets: AtomicU64,
    /// `copy()` operations issued.
    pub copies: AtomicU64,
    /// RPCs sent.
    pub rpcs: AtomicU64,
    /// Bytes crossing the (virtual) network.
    pub net_bytes: AtomicU64,
    /// Bytes moved within a node.
    pub intra_bytes: AtomicU64,
    /// Bytes moved to/from device memory.
    pub device_bytes: AtomicU64,
    /// Signal RPCs dropped by fault injection.
    pub rpcs_dropped: AtomicU64,
    /// Signal RPCs duplicated by fault injection.
    pub rpcs_duplicated: AtomicU64,
    /// rget attempts that timed out transiently under fault injection.
    pub rget_timeouts: AtomicU64,
    /// Coalesced frames sent.
    pub frames: AtomicU64,
    /// Sub-messages carried inside coalesced frames.
    pub frame_subs: AtomicU64,
    /// Bytes the segment operations really `memcpy`'d in this process
    /// (partial-range reads, writes, copy-on-write) — as opposed to the
    /// modeled bytes above, which are charged whether or not the buffer was
    /// handed over by reference. A ledger for tests and tools, not a model
    /// output: it is in no profile, telemetry or fingerprint document.
    pub copied_bytes: AtomicU64,
    /// Number of ranks the per-peer matrix is sized for (0 = disabled).
    n_ranks: usize,
    /// Bytes moved src→dst, row-major `src·n + dst`.
    peer_bytes: Vec<AtomicU64>,
    /// Messages sent src→dst, row-major `src·n + dst`.
    peer_msgs: Vec<AtomicU64>,
}

impl Stats {
    /// Counters with a per-peer matrix sized for `n` ranks.
    pub(crate) fn for_ranks(n: usize) -> Stats {
        Stats {
            n_ranks: n,
            peer_bytes: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            peer_msgs: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            ..Stats::default()
        }
    }

    pub(crate) fn record_transfer(
        &self,
        src: usize,
        dst: usize,
        bytes: usize,
        same_node: bool,
        device: bool,
    ) {
        if same_node {
            self.intra_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        } else {
            self.net_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
        if device {
            self.device_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
        if src < self.n_ranks && dst < self.n_ranks {
            let i = src * self.n_ranks + dst;
            self.peer_bytes[i].fetch_add(bytes as u64, Ordering::Relaxed);
            self.peer_msgs[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one src→dst message that carries no payload (signal RPCs).
    pub(crate) fn record_msg(&self, src: usize, dst: usize) {
        if src < self.n_ranks && dst < self.n_ranks {
            self.peer_msgs[src * self.n_ranks + dst].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy of the per-peer (src, dst) traffic matrix.
    pub(crate) fn snapshot_matrix(&self) -> CommMatrix {
        CommMatrix {
            n: self.n_ranks,
            bytes: self
                .peer_bytes
                .iter()
                .map(|x| x.load(Ordering::Relaxed))
                .collect(),
            msgs: self
                .peer_msgs
                .iter()
                .map(|x| x.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            rgets: self.rgets.load(Ordering::Relaxed),
            copies: self.copies.load(Ordering::Relaxed),
            rpcs: self.rpcs.load(Ordering::Relaxed),
            net_bytes: self.net_bytes.load(Ordering::Relaxed),
            intra_bytes: self.intra_bytes.load(Ordering::Relaxed),
            device_bytes: self.device_bytes.load(Ordering::Relaxed),
            rpcs_dropped: self.rpcs_dropped.load(Ordering::Relaxed),
            rpcs_duplicated: self.rpcs_duplicated.load(Ordering::Relaxed),
            rget_timeouts: self.rget_timeouts.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            frame_subs: self.frame_subs.load(Ordering::Relaxed),
            copied_bytes: self.copied_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of [`Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub rgets: u64,
    pub copies: u64,
    pub rpcs: u64,
    pub net_bytes: u64,
    pub intra_bytes: u64,
    pub device_bytes: u64,
    pub rpcs_dropped: u64,
    pub rpcs_duplicated: u64,
    pub rget_timeouts: u64,
    pub frames: u64,
    pub frame_subs: u64,
    /// Bytes really copied by segment operations (see [`Stats::copied_bytes`]).
    pub copied_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_bytes() {
        let s = Stats::default();
        s.record_transfer(0, 1, 100, false, false);
        s.record_transfer(1, 0, 50, true, true);
        let snap = s.snapshot();
        assert_eq!(snap.net_bytes, 100);
        assert_eq!(snap.intra_bytes, 50);
        assert_eq!(snap.device_bytes, 50);
        // The default instance has no matrix; recording must not panic.
        assert_eq!(s.snapshot_matrix().n, 0);
    }

    #[test]
    fn sized_stats_fill_the_peer_matrix() {
        let s = Stats::for_ranks(3);
        s.record_transfer(0, 2, 100, false, false);
        s.record_transfer(0, 2, 28, false, false);
        s.record_transfer(2, 1, 8, true, false);
        s.record_msg(1, 0);
        let m = s.snapshot_matrix();
        assert_eq!(m.n, 3);
        assert_eq!(m.bytes_between(0, 2), 128);
        assert_eq!(m.msgs_between(0, 2), 2);
        assert_eq!(m.bytes_between(2, 1), 8);
        assert_eq!(m.msgs_between(1, 0), 1);
        assert_eq!(m.total_bytes(), 136);
        // Out-of-range peers are ignored, not a panic.
        s.record_transfer(7, 0, 1, false, false);
        assert_eq!(s.snapshot_matrix().total_bytes(), 136);
        assert_eq!(s.snapshot().net_bytes, 129);
    }
}
