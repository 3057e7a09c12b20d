//! Runtime construction: spawn ranks, run the SPMD closure, collect results.

use crate::faults::FaultPlan;
use crate::netmodel::NetModel;
use crate::rank::{Queued, Rank};
use crate::segment::SegmentTable;
use crate::stats::{Ledger, StatsSnapshot};
use crate::sync::SegQueue;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use sympack_trace::profile::CommMatrix;

/// Job-wide configuration.
#[derive(Debug, Clone)]
pub struct PgasConfig {
    /// Number of ranks (UPC++ processes).
    pub n_ranks: usize,
    /// Ranks per (virtual) node — determines which transfers cross the
    /// network. The paper runs up to 64 ranks/node on Perlmutter.
    pub ranks_per_node: usize,
    /// Communication cost model.
    pub net: NetModel,
    /// Per-rank device-memory quota in bytes (each process's share of its
    /// GPU, §4.2). Use `usize::MAX` for unlimited.
    pub device_quota: usize,
    /// Optional seeded fault injection on the signal/rget paths.
    pub faults: Option<FaultPlan>,
    /// Run ranks in deterministic lockstep (round-robin turnstile) instead
    /// of free-running threads: same inputs ⇒ bit-identical schedules,
    /// clocks and makespan. Slower; meant for fuzzing and repro.
    pub deterministic: bool,
}

impl PgasConfig {
    /// A convenient single-node configuration with `n_ranks` ranks.
    pub fn single_node(n_ranks: usize) -> Self {
        PgasConfig {
            n_ranks,
            ranks_per_node: n_ranks.max(1),
            net: NetModel::default(),
            device_quota: usize::MAX,
            faults: None,
            deterministic: false,
        }
    }

    /// A multi-node configuration.
    pub fn multi_node(n_nodes: usize, ranks_per_node: usize) -> Self {
        PgasConfig {
            n_ranks: n_nodes * ranks_per_node,
            ranks_per_node,
            net: NetModel::default(),
            device_quota: usize::MAX,
            faults: None,
            deterministic: false,
        }
    }
}

/// Round-robin turnstile for deterministic lockstep execution: exactly one
/// rank runs at a time, and the turn rotates in rank order at explicit
/// yield points (`Rank::progress` and `Rank::barrier`). With a fixed
/// rotation the interleaving of sends and drains is a pure function of the
/// program, which makes virtual clocks — and therefore the makespan —
/// bit-reproducible.
pub(crate) struct Turnstile {
    state: Mutex<TState>,
    /// One condvar per rank: handing the turn to rank `r` notifies only
    /// `cvs[r]`. With a single shared condvar every turn change woke all
    /// P waiters just to have P−1 go back to sleep — a thundering herd
    /// that made lockstep runs quadratic in rank count and unusable at
    /// the strong-scaling P=1024 mark.
    cvs: Vec<Condvar>,
}

struct TState {
    /// Rank currently holding the turn.
    current: usize,
    /// Ranks whose closure has returned; skipped by the rotation.
    retired: Vec<bool>,
    /// Ranks parked at a barrier; skipped until the barrier opens.
    parked: Vec<bool>,
    /// Arrivals at the currently filling barrier.
    arrivals: usize,
}

impl TState {
    /// Next rank after `from` (exclusive, wrapping) that can hold the turn.
    fn next_live(&self, from: usize) -> Option<usize> {
        let n = self.retired.len();
        (1..=n)
            .map(|d| (from + d) % n)
            .find(|&r| !self.retired[r] && !self.parked[r])
    }
}

impl Turnstile {
    fn new(n: usize) -> Self {
        Turnstile {
            state: Mutex::new(TState {
                current: 0,
                retired: vec![false; n],
                parked: vec![false; n],
                arrivals: 0,
            }),
            cvs: (0..n).map(|_| Condvar::new()).collect(),
        }
    }

    /// Block until it is `id`'s turn.
    pub(crate) fn wait_turn(&self, id: usize) {
        let mut st = self.state.lock().unwrap();
        while st.current != id {
            st = self.cvs[id].wait(st).unwrap();
        }
    }

    /// Hand the turn to the next live rank and wait for it to come back.
    /// No-op (turn retained) when no other rank can run.
    pub(crate) fn pass(&self, id: usize) {
        let mut st = self.state.lock().unwrap();
        debug_assert_eq!(st.current, id, "pass() without holding the turn");
        if let Some(next) = st.next_live(id) {
            st.current = next;
            self.cvs[next].notify_one();
            while st.current != id {
                st = self.cvs[id].wait(st).unwrap();
            }
        }
    }

    /// Park `id` at a barrier and hand the turn onward. The last arriver
    /// unparks everyone and resets the turn to the lowest live rank, so the
    /// post-barrier rotation order is schedule-independent.
    pub(crate) fn barrier_enter(&self, id: usize) {
        let mut st = self.state.lock().unwrap();
        st.parked[id] = true;
        st.arrivals += 1;
        if st.arrivals == st.retired.len() {
            st.arrivals = 0;
            st.parked.iter_mut().for_each(|p| *p = false);
            st.current = (0..st.retired.len()).find(|&r| !st.retired[r]).unwrap_or(0);
        } else {
            let next = st
                .next_live(id)
                .expect("barrier underfilled yet no runnable rank");
            st.current = next;
        }
        self.cvs[st.current].notify_one();
    }

    /// Permanently remove `id` from the rotation (its closure returned).
    fn retire(&self, id: usize) {
        let mut st = self.state.lock().unwrap();
        st.retired[id] = true;
        if st.current == id {
            if let Some(next) = st.next_live(id) {
                st.current = next;
                self.cvs[next].notify_one();
            }
        }
    }
}

/// Shared cross-rank structures of a region whose message type is `M`.
pub(crate) struct Shared<M> {
    pub config: PgasConfig,
    pub tables: Vec<SegmentTable>,
    pub queues: Vec<SegQueue<Queued<M>>>,
    pub barrier: Barrier,
    /// Double-buffered max-clock cells for the barrier's virtual-time
    /// agreement (f64 bits; non-negative floats order correctly as u64).
    pub clock_max: [AtomicU64; 2],
    /// Global activity counter for quiescence detection: bumped whenever a
    /// message is sent or executed or a clock moves. A stretch of polling
    /// with no change anywhere means the job is stalled, not slow.
    pub activity: AtomicU64,
    /// Job-level abort flag: any rank may raise it to terminate every
    /// rank's event loop (cross-rank error propagation).
    pub abort: AtomicBool,
    /// Lockstep scheduler, present iff `config.deterministic`.
    pub turnstile: Option<Turnstile>,
    /// Per-rank NIC busy-until virtual times (f64 bits), used only when
    /// [`NetModel::model_injection`] is on: concurrent cross-node
    /// transfers leaving one rank serialize on its NIC.
    pub nic_busy: Vec<AtomicU64>,
}

/// Result of a run: per-rank return values, the virtual makespan, final
/// clocks and communication counters.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-rank closure results, indexed by rank.
    pub results: Vec<R>,
    /// Maximum final virtual clock over all ranks — the modeled runtime of
    /// the SPMD region (what the scaling figures plot).
    pub makespan: f64,
    /// Final virtual clock of each rank.
    pub final_clocks: Vec<f64>,
    /// Communication counters accumulated during the run.
    pub stats: StatsSnapshot,
    /// Per-peer (src, dst) traffic matrix accumulated during the run.
    pub comm: CommMatrix,
}

/// The runtime: spawns one thread per rank and runs an SPMD closure.
pub struct Runtime;

impl Runtime {
    /// Run `f` on `config.n_ranks` ranks (one OS thread each) and collect
    /// the results; `M` is the type of every message the region sends.
    ///
    /// # Panics
    /// Propagates panics from rank closures.
    pub fn spmd<M, R, F>(config: PgasConfig, f: F) -> RunReport<R>
    where
        M: Send,
        R: Send,
        F: Fn(&mut Rank<M>) -> R + Sync,
    {
        let n = config.n_ranks;
        assert!(n >= 1, "need at least one rank");
        assert!(config.ranks_per_node >= 1);
        let turnstile = config.deterministic.then(|| Turnstile::new(n));
        let shared = Arc::new(Shared {
            tables: (0..n)
                .map(|_| SegmentTable::new(config.device_quota))
                .collect(),
            queues: (0..n).map(|_| SegQueue::new()).collect(),
            barrier: Barrier::new(n),
            clock_max: [AtomicU64::new(0), AtomicU64::new(0)],
            activity: AtomicU64::new(0),
            abort: AtomicBool::new(false),
            turnstile,
            nic_busy: (0..n).map(|_| AtomicU64::new(0)).collect(),
            config,
        });
        let (outs, ledgers): (Vec<(R, f64)>, Vec<Ledger>) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|id| {
                    let shared = Arc::clone(&shared);
                    let f = &f;
                    scope.spawn(move || {
                        if let Some(ts) = &shared.turnstile {
                            ts.wait_turn(id);
                        }
                        let mut rank = Rank::new(id, Arc::clone(&shared));
                        let r = f(&mut rank);
                        let clock = rank.now();
                        let ledger = std::mem::take(&mut rank.ledger);
                        drop(rank);
                        if let Some(ts) = &shared.turnstile {
                            ts.retire(id);
                        }
                        ((r, clock), ledger)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .unzip()
        });
        let (results, final_clocks): (_, Vec<f64>) = outs.into_iter().unzip();
        let makespan = final_clocks.iter().copied().fold(0.0, f64::max);
        let (stats, comm) = Ledger::sum(&ledgers, n);
        RunReport {
            results,
            makespan,
            final_clocks,
            stats,
            comm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptr::{GlobalPtr, MemKind};
    use crate::rank::Wire;

    #[test]
    fn ranks_see_their_ids_and_topology() {
        let report = Runtime::spmd(PgasConfig::multi_node(2, 3), |rank: &mut Rank<()>| {
            (rank.id(), rank.n_ranks(), rank.node_of(rank.id()))
        });
        assert_eq!(report.results.len(), 6);
        for (i, &(id, n, node)) in report.results.iter().enumerate() {
            assert_eq!(id, i);
            assert_eq!(n, 6);
            assert_eq!(node, i / 3);
        }
    }

    #[test]
    fn rget_moves_real_data_and_charges_time() {
        let report = Runtime::spmd(
            PgasConfig::multi_node(2, 1),
            |rank: &mut Rank<GlobalPtr>| {
                // Rank 0 allocates and fills; rank 1 fetches one-sidedly.
                if rank.id() == 0 {
                    let ptr = rank.alloc(MemKind::Host, 4).unwrap();
                    rank.write_local(&ptr, &[1.0, 2.0, 3.0, 4.0]);
                    // Hand the pointer over in a message.
                    rank.send(1, ptr, Wire::Bare);
                    rank.barrier();
                    0.0
                } else {
                    rank.barrier(); // rank 0 must have enqueued before we drain…
                    let before = rank.now();
                    let fetch = |r: &mut Rank<GlobalPtr>, ptr: GlobalPtr| {
                        let data = r.rget(&ptr).wait(r);
                        assert_eq!(*data, vec![1.0, 2.0, 3.0, 4.0]);
                    };
                    while rank.progress(fetch) == 0 {
                        std::thread::yield_now();
                    }
                    rank.now() - before
                }
            },
        );
        // Rank 1 paid network latency + transfer time for 32 bytes.
        assert!(report.results[1] > 2.0e-6, "charged {}", report.results[1]);
        assert_eq!(report.stats.rgets, 1);
        assert_eq!(report.stats.rpcs, 1);
        assert!(report.stats.net_bytes >= 32);
    }

    #[test]
    fn barrier_synchronizes_virtual_clocks() {
        let report = Runtime::spmd(PgasConfig::single_node(4), |rank: &mut Rank<()>| {
            rank.advance(rank.id() as f64); // ranks at times 0,1,2,3
            rank.barrier();
            let t1 = rank.now();
            rank.barrier();
            (t1, rank.now())
        });
        for &(t1, t2) in &report.results {
            assert_eq!(t1, 3.0);
            assert_eq!(t2, 3.0);
        }
        assert_eq!(report.makespan, 3.0);
    }

    #[test]
    fn repeated_barriers_reset_correctly() {
        let report = Runtime::spmd(PgasConfig::single_node(3), |rank: &mut Rank<()>| {
            let mut clocks = Vec::new();
            for round in 0..5 {
                rank.advance(if rank.id() == round % 3 { 1.0 } else { 0.1 });
                rank.barrier();
                clocks.push(rank.now());
            }
            clocks
        });
        // All ranks agree after each barrier, and clocks are increasing.
        for round in 0..5 {
            let c0 = report.results[0][round];
            for r in &report.results {
                assert_eq!(r[round], c0);
            }
            if round > 0 {
                assert!(report.results[0][round] > report.results[0][round - 1]);
            }
        }
    }

    #[test]
    fn copy_between_device_and_remote_host() {
        let mut config = PgasConfig::multi_node(2, 1);
        config.device_quota = 1 << 20;
        let report = Runtime::spmd(config, |rank: &mut Rank<GlobalPtr>| {
            if rank.id() == 0 {
                let host = rank.alloc(MemKind::Host, 8).unwrap();
                rank.write_local(&host, &[7.0; 8]);
                rank.send(1, host, Wire::Bare);
                rank.barrier();
            } else {
                rank.barrier();
                let pull = |r: &mut Rank<GlobalPtr>, host: GlobalPtr| {
                    let dev = r.alloc(MemKind::Device, 8).unwrap();
                    let done = r.copy(&host, &dev);
                    r.advance_to(done);
                    assert_eq!(*r.read_local(&dev), vec![7.0; 8]);
                };
                while rank.progress(pull) == 0 {
                    std::thread::yield_now();
                }
            }
            rank.now()
        });
        assert_eq!(report.stats.copies, 1);
        assert!(report.stats.device_bytes >= 64);
    }

    #[test]
    fn device_quota_produces_oom() {
        let mut config = PgasConfig::single_node(1);
        config.device_quota = 64; // 8 elements
        let report = Runtime::spmd(config, |rank: &mut Rank<()>| {
            let ok = rank.alloc(MemKind::Device, 8);
            let oom = rank.alloc(MemKind::Device, 1);
            (ok.is_ok(), oom.is_err())
        });
        assert_eq!(report.results[0], (true, true));
    }

    #[test]
    fn typed_messages_arrive_in_order_and_handlers_send() {
        let report = Runtime::spmd(PgasConfig::multi_node(3, 1), |rank: &mut Rank<u64>| {
            let mut got = Vec::new();
            if rank.id() == 0 {
                // A megabyte payload first: it lands after the bare
                // messages sent behind it, and one drain sorts them so.
                rank.send(1, 99, Wire::Payload(1 << 20));
                for v in [10, 20, 30] {
                    rank.send(1, v, Wire::Bare);
                }
            }
            rank.barrier(); // everything rank 0 sent is queued at rank 1
            if rank.id() == 1 {
                // The handler sends: each value goes on to rank 2, plus one.
                let n = rank.progress(|r, v| {
                    got.push(v);
                    r.send(2, v + 1, Wire::Bare);
                });
                assert_eq!(n, 4, "one drain takes everything queued");
            }
            rank.barrier();
            if rank.id() == 2 {
                rank.progress(|_, v| got.push(v));
            }
            got
        });
        assert_eq!(report.results[0], []);
        assert_eq!(report.results[1], [10, 20, 30, 99]);
        assert_eq!(report.results[2], [11, 21, 31, 100]);
        assert_eq!(report.stats.rpcs, 8);
    }

    #[test]
    fn deterministic_mode_reproduces_clocks_bit_exactly() {
        // A racy ping-pong workload: every rank messages every other rank,
        // and handlers charge work. In free-running mode the drain
        // interleaving (hence per-rank clocks) may vary; in lockstep mode
        // two runs must agree to the bit.
        let run_once = || {
            let mut config = PgasConfig::multi_node(2, 2);
            config.deterministic = true;
            let report = Runtime::spmd(config, |rank: &mut Rank<usize>| {
                rank.barrier();
                let me = rank.id();
                for t in 0..rank.n_ranks() {
                    if t != me {
                        rank.send(t, me, Wire::Bare);
                    }
                }
                let expect = (rank.n_ranks() - 1) as u64;
                let mut got = 0u64;
                while got < expect {
                    rank.progress(|r, from| {
                        r.advance(1.0e-6 * (from as f64 + 1.0));
                        got += 1;
                    });
                }
                rank.barrier();
                rank.now()
            });
            (report.makespan.to_bits(), report.final_clocks)
        };
        let (m1, c1) = run_once();
        let (m2, c2) = run_once();
        assert_eq!(m1, m2, "makespan must be bit-identical");
        assert_eq!(c1, c2, "per-rank clocks must be identical");
    }

    #[test]
    fn job_abort_flag_reaches_every_rank() {
        let report = Runtime::spmd(PgasConfig::single_node(3), |rank: &mut Rank<()>| {
            rank.barrier();
            if rank.id() == 1 {
                rank.signal_abort();
            }
            while !rank.job_aborted() {
                std::thread::yield_now();
            }
            rank.job_aborted()
        });
        assert!(report.results.iter().all(|&a| a));
    }
}

#[cfg(test)]
mod payload_tests {
    use super::*;
    use crate::ptr::{GlobalPtr, MemKind};
    use crate::rank::Wire;

    /// The virtual time at which rank 1 takes delivery of a `bytes` payload
    /// rank 0 sent it at time 0.
    fn payload_delivered_at(config: PgasConfig, bytes: usize) -> f64 {
        let report = Runtime::spmd(config, |rank: &mut Rank<()>| {
            if rank.id() == 0 {
                rank.send(1, (), Wire::Payload(bytes));
                rank.barrier();
                0.0
            } else {
                rank.barrier();
                let mut seen_at = 0.0;
                while rank.progress(|r, ()| seen_at = r.now()) == 0 {
                    std::thread::yield_now();
                }
                seen_at
            }
        });
        report.results[1]
    }

    #[test]
    fn rpc_payload_charges_transfer_cost() {
        // 1 MiB payload across the network.
        let seen_at = payload_delivered_at(PgasConfig::multi_node(2, 1), 1 << 20);
        // Delivery time must include ~ 1MiB / 23 GB/s ≈ 45 µs of wire time.
        assert!(seen_at > 40.0e-6, "payload undercharged: {seen_at}");
    }

    #[test]
    fn rpc_payload_intra_node_is_cheaper() {
        let bytes = 256 << 10;
        let intra = payload_delivered_at(PgasConfig::single_node(2), bytes);
        let net = payload_delivered_at(PgasConfig::multi_node(2, 1), bytes);
        assert!(intra < net);
    }

    #[test]
    fn stats_capture_flood_traffic() {
        let report = Runtime::spmd(
            PgasConfig::multi_node(2, 1),
            |rank: &mut Rank<GlobalPtr>| {
                if rank.id() == 0 {
                    let ptr = rank.alloc(MemKind::Host, 128).unwrap();
                    rank.send(1, ptr, Wire::Bare);
                }
                rank.barrier();
                if rank.id() == 1 {
                    let flood = |r: &mut Rank<GlobalPtr>, ptr: GlobalPtr| {
                        for _ in 0..10 {
                            let h = r.rget(&ptr);
                            let _ = h.wait(r);
                        }
                    };
                    while rank.progress(flood) == 0 {
                        std::thread::yield_now();
                    }
                }
                rank.barrier();
            },
        );
        assert_eq!(report.stats.rgets, 10);
        assert_eq!(report.stats.net_bytes, 10 * 128 * 8);
        // Per-peer attribution: rank 1 pulled everything from rank 0's
        // segment, and rank 0 sent one message to rank 1.
        assert_eq!(report.comm.n, 2);
        assert_eq!(report.comm.bytes_between(0, 1), 10 * 128 * 8);
        assert_eq!(report.comm.bytes_between(1, 0), 0);
        assert_eq!(report.comm.msgs_between(0, 1), 11);
    }

    #[test]
    fn rank_tracer_records_comm_spans_without_clock_cost() {
        use sympack_trace::SpanKind;
        let run = |traced: bool| {
            Runtime::spmd(PgasConfig::multi_node(2, 1), move |rank: &mut Rank<()>| {
                if traced {
                    rank.set_tracer(sympack_trace::Tracer::new());
                }
                let ptr = rank.alloc(MemKind::Host, 64).unwrap();
                rank.barrier();
                let peer = 1 - rank.id();
                let h = rank.rget(&ptr);
                let _ = h.wait(rank);
                rank.send(peer, (), Wire::Payload(64 * 8));
                rank.barrier();
                while rank.progress(|_, ()| {}) == 0 {
                    std::thread::yield_now();
                }
                rank.barrier();
                let events = rank
                    .take_tracer()
                    .map(sympack_trace::Tracer::into_events)
                    .unwrap_or_default();
                (rank.now(), events)
            })
        };
        let traced = run(true);
        let plain = run(false);
        // Bit-identical virtual clocks with the tracer on and off.
        assert_eq!(traced.final_clocks, plain.final_clocks);
        let (_, events) = &traced.results[0];
        let kind = |k: SpanKind| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(kind(SpanKind::Rget), 1);
        assert!(kind(SpanKind::Rpc) >= 1);
        let rget = events.iter().find(|e| e.kind == SpanKind::Rget).unwrap();
        assert_eq!(rget.bytes, 64 * 8);
        assert_eq!(rget.peer, Some(0)); // rank 0 fetched its own segment
        assert!(rget.dur > 0.0);
        assert!(plain.results[0].1.is_empty());
    }
}
