//! The communication cost model.
//!
//! Transfer time follows the classical latency/bandwidth (postal) model
//! `T(s) = L + s/B`, with parameters per path:
//!
//! * network legs (inter-node) are calibrated to one HPE Slingshot-11 NIC as
//!   measured in the paper's Fig. 5 — ~25 GB/s limiting wire speed, ~23 GB/s
//!   achievable, ~2.5 µs small-transfer latency;
//! * intra-node transfers model shared-memory copies (~100 GB/s, sub-µs);
//! * host↔device legs model PCIe/NVLink staging (~16 GB/s effective).
//!
//! **Memory kinds** (paper §4.1/Fig. 5): with [`MemKindsMode::Native`],
//! transfers touching device memory across the network go directly via
//! GPUDirect RDMA — a single network leg. With [`MemKindsMode::Reference`],
//! they are staged through intermediate host buffers — the network leg plus
//! a host↔device leg plus extra software latency — which is what the
//! `-disable-kind-cuda-uva` reference implementation in the paper does.

use crate::ptr::MemKind;

/// Which memory-kinds implementation the model simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKindsMode {
    /// GPUDirect-RDMA zero-copy path (GASNet-EX "native" memory kinds).
    Native,
    /// Transfers staged through bounce buffers in host memory.
    Reference,
}

/// Calibrated latency/bandwidth parameters. All times in seconds, all
/// bandwidths in bytes/second.
#[derive(Debug, Clone)]
pub struct NetModel {
    /// Inter-node small-message latency (one-sided RMA initiation).
    pub net_latency: f64,
    /// Inter-node achievable bandwidth per NIC.
    pub net_bandwidth: f64,
    /// Intra-node (cross-rank, same node) latency.
    pub intra_latency: f64,
    /// Intra-node bandwidth.
    pub intra_bandwidth: f64,
    /// Host↔device staging latency (driver + DMA setup).
    pub pcie_latency: f64,
    /// Host↔device bandwidth.
    pub pcie_bandwidth: f64,
    /// Extra per-transfer software overhead of the reference (staged)
    /// memory-kinds implementation.
    pub reference_overhead: f64,
    /// Latency of delivering and executing a remote procedure call.
    pub rpc_latency: f64,
    /// Modeled wire footprint of one message *envelope* — packet headers
    /// plus active-message metadata — charged once per RPC/signal/frame in
    /// the byte accounting. This is what per-destination coalescing
    /// amortizes: `n` flat signals pay `n` envelopes, one frame carrying
    /// `n` sub-signals pays a single envelope plus per-sub headers.
    /// (Timing of bare signals is unchanged — latency-only, the historical
    /// model — only the byte ledger sees the envelope.)
    pub rpc_envelope_bytes: usize,
    /// Memory-kinds implementation in effect.
    pub mode: MemKindsMode,
    /// Model NIC injection serialization at the data's source: concurrent
    /// transfers leaving one rank queue on its NIC instead of enjoying
    /// infinite fan-out. Off by default (the historical behavior); the
    /// strong-scaling benchmarks enable it so a flat broadcast honestly
    /// pays O(targets) serialization at the owner.
    pub model_injection: bool,
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel {
            net_latency: 2.5e-6,
            net_bandwidth: 23.0e9,
            intra_latency: 0.6e-6,
            intra_bandwidth: 100.0e9,
            pcie_latency: 6.0e-6,
            pcie_bandwidth: 16.0e9,
            // Per-transfer software cost of the staged path, calibrated so
            // the native/reference flood-bandwidth ratio lands at the
            // paper's ~5.9x (8 KiB) and ~2.3x (≥1 MiB) marks.
            reference_overhead: 1.2e-6,
            rpc_latency: 3.0e-6,
            // Ethernet/InfiniBand-class packet + AM header footprint.
            rpc_envelope_bytes: 128,
            mode: MemKindsMode::Native,
            model_injection: false,
        }
    }
}

impl NetModel {
    /// Time for one transfer of `bytes` from a `src_kind` memory to a
    /// `dst_kind` memory, between ranks on the same node (`same_node`) or
    /// across the network.
    pub(crate) fn transfer_time(
        &self,
        bytes: usize,
        same_node: bool,
        src_kind: MemKind,
        dst_kind: MemKind,
    ) -> f64 {
        let b = bytes as f64;
        let device_involved = src_kind == MemKind::Device || dst_kind == MemKind::Device;
        if same_node {
            // Same-node transfers: shared-memory or PCIe copy.
            if device_involved {
                self.pcie_latency + b / self.pcie_bandwidth
            } else {
                self.intra_latency + b / self.intra_bandwidth
            }
        } else {
            let wire = self.net_latency + b / self.net_bandwidth;
            if !device_involved {
                return wire;
            }
            match self.mode {
                // GPUDirect RDMA: the NIC reads/writes device memory
                // directly — one zero-copy leg at full wire speed.
                MemKindsMode::Native => wire,
                // Reference: stage through a host bounce buffer — the wire
                // leg, plus a PCIe leg per device endpoint, plus software
                // overhead for the extra copies and synchronization.
                MemKindsMode::Reference => {
                    let mut t = wire + self.reference_overhead;
                    if src_kind == MemKind::Device {
                        t += self.pcie_latency + b / self.pcie_bandwidth;
                    }
                    if dst_kind == MemKind::Device {
                        t += self.pcie_latency + b / self.pcie_bandwidth;
                    }
                    t
                }
            }
        }
    }

    /// NIC occupancy of injecting `bytes` onto the wire at the source —
    /// the serialization window during which the source NIC cannot start
    /// another cross-node transfer. `0.0` when injection modeling is off
    /// or the transfer stays on-node (shared-memory copies don't occupy
    /// the NIC).
    pub(crate) fn injection_time(&self, bytes: usize, same_node: bool) -> f64 {
        if !self.model_injection || same_node {
            0.0
        } else {
            bytes as f64 / self.net_bandwidth
        }
    }

    /// Latency of an RPC (enqueue at the target; execution cost is separate).
    pub(crate) fn rpc_time(&self, same_node: bool) -> f64 {
        if same_node {
            self.intra_latency + 1.0e-6
        } else {
            self.rpc_latency
        }
    }

    /// Effective bandwidth (bytes/s) of a flooded window of transfers —
    /// `window` transfers in flight amortize the latency, as in the flood
    /// microbenchmarks behind Fig. 5.
    pub fn flood_bandwidth(
        &self,
        bytes: usize,
        window: usize,
        same_node: bool,
        src_kind: MemKind,
        dst_kind: MemKind,
    ) -> f64 {
        // Pipelining hides latency of all but the first transfer; the data
        // legs serialize on the narrowest link.
        let single = self.transfer_time(bytes, same_node, src_kind, dst_kind);
        let b = bytes as f64;
        let device_involved = src_kind == MemKind::Device || dst_kind == MemKind::Device;
        let serial = if same_node {
            if device_involved {
                b / self.pcie_bandwidth
            } else {
                b / self.intra_bandwidth
            }
        } else {
            match (self.mode, device_involved) {
                (_, false) | (MemKindsMode::Native, true) => b / self.net_bandwidth,
                // Staged path: wire leg and PCIe leg contend per message and
                // the stage-and-forward software serializes them.
                (MemKindsMode::Reference, true) => {
                    b / self.net_bandwidth + b / self.pcie_bandwidth + self.reference_overhead
                }
            }
        };
        let total = single + serial * (window.saturating_sub(1)) as f64;
        (window as f64 * b) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominates_small_transfers() {
        let m = NetModel::default();
        let t16 = m.transfer_time(16, false, MemKind::Host, MemKind::Host);
        assert!((t16 - m.net_latency) / m.net_latency < 0.01);
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let m = NetModel::default();
        let bytes = 64 << 20;
        let t = m.transfer_time(bytes, false, MemKind::Host, MemKind::Host);
        let bw = bytes as f64 / t;
        assert!(bw > 0.95 * m.net_bandwidth);
    }

    #[test]
    fn native_beats_reference_for_device_transfers() {
        let mut m = NetModel::default();
        for bytes in [1 << 10, 8 << 10, 1 << 20, 4 << 20] {
            m.mode = MemKindsMode::Native;
            let tn = m.transfer_time(bytes, false, MemKind::Host, MemKind::Device);
            m.mode = MemKindsMode::Reference;
            let tr = m.transfer_time(bytes, false, MemKind::Host, MemKind::Device);
            assert!(
                tr > tn,
                "bytes={bytes}: reference {tr} should exceed native {tn}"
            );
        }
    }

    #[test]
    fn host_only_transfers_ignore_mode() {
        let mut m = NetModel {
            mode: MemKindsMode::Native,
            ..Default::default()
        };
        let a = m.transfer_time(4096, false, MemKind::Host, MemKind::Host);
        m.mode = MemKindsMode::Reference;
        let b = m.transfer_time(4096, false, MemKind::Host, MemKind::Host);
        assert_eq!(a, b);
    }

    #[test]
    fn intra_node_is_faster_than_network() {
        let m = NetModel::default();
        for bytes in [256, 64 << 10, 4 << 20] {
            let intra = m.transfer_time(bytes, true, MemKind::Host, MemKind::Host);
            let net = m.transfer_time(bytes, false, MemKind::Host, MemKind::Host);
            assert!(intra < net, "bytes={bytes}");
        }
    }

    #[test]
    fn flood_bandwidth_exceeds_single_shot_effective_bandwidth() {
        let m = NetModel::default();
        let bytes = 8 << 10;
        let single_bw =
            bytes as f64 / m.transfer_time(bytes, false, MemKind::Host, MemKind::Device);
        let flood = m.flood_bandwidth(bytes, 64, false, MemKind::Host, MemKind::Device);
        assert!(flood > single_bw);
        assert!(flood <= m.net_bandwidth * 1.001);
    }

    #[test]
    fn fig5_shape_native_vs_reference_ratio() {
        // The paper reports the native/reference bandwidth ratio as ~5.9x at
        // 8 KiB and ~2.3x above 1 MiB. Check the calibration lands near
        // those marks (±40%).
        let mut m = NetModel::default();
        let ratio = |m: &mut NetModel, bytes: usize| {
            m.mode = MemKindsMode::Native;
            let n = m.flood_bandwidth(bytes, 64, false, MemKind::Host, MemKind::Device);
            m.mode = MemKindsMode::Reference;
            let r = m.flood_bandwidth(bytes, 64, false, MemKind::Host, MemKind::Device);
            n / r
        };
        let r8k = ratio(&mut m, 8 << 10);
        assert!((3.5..=8.5).contains(&r8k), "8KiB ratio {r8k}");
        let r4m = ratio(&mut m, 4 << 20);
        assert!((1.5..=3.2).contains(&r4m), "4MiB ratio {r4m}");
        assert!(r8k > r4m, "ratio must shrink with payload size");
    }
}
