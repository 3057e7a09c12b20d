//! Pins the comm ledger: every `StatsSnapshot` field, every comm-matrix
//! cell, the final clocks and each rank's `comm_sample()` of one lockstep
//! run that issues every kind of traffic the runtime counts — `rget`,
//! `try_rget` (with timeouts), a host → device `copy`, a `copy` between two
//! segments remote to the issuing rank, and a message over each of the four
//! wires under a fault plan that drops, duplicates and delays. The constants were
//! captured before the counters moved into per-rank ledgers; a sum of the
//! same increments is the same sum, so none of them may move.

use sympack_pgas::{
    FaultPlan, GlobalPtr, MemKind, PgasConfig, Rank, RunReport, Runtime, StatsSnapshot, Wire,
};
use sympack_trace::telemetry::CommSample;

const P: usize = 4;
const LEN: usize = 24;

/// What the run's messages say.
#[derive(Clone)]
enum Note {
    /// Rank `.0`'s host segment.
    Ptr(usize, GlobalPtr),
    /// A flat signal: one delivery.
    Signal,
    /// A frame: ten deliveries.
    Frame,
    /// A payload: its handler charges 0.1 µs of work.
    Payload,
}

/// Per-rank state: the peers' host segments and the signal deliveries seen.
struct Seen {
    ptrs: Vec<Option<GlobalPtr>>,
    signals: u64,
}

impl Seen {
    fn handle(&mut self, rank: &mut Rank<Note>, note: Note) {
        match note {
            Note::Ptr(from, ptr) => self.ptrs[from] = Some(ptr),
            Note::Signal => self.signals += 1,
            Note::Frame => self.signals += 10,
            Note::Payload => rank.advance(1.0e-7),
        }
    }
}

/// Per-rank result: the comm sample, the signal deliveries seen and the
/// clock bits once every message was sent (before the drains agree them).
type Out = (CommSample, u64, u64);

fn run() -> RunReport<Out> {
    let mut config = PgasConfig::multi_node(2, P / 2);
    config.deterministic = true;
    config.device_quota = 1 << 20;
    config.faults = Some(FaultPlan {
        seed: 0x5EED_1ED6,
        drop_prob: 0.2,
        dup_prob: 0.3,
        delay_prob: 0.3,
        delay_secs: 20.0e-6,
        rget_fail_prob: 0.3,
    });
    Runtime::spmd(config, |rank: &mut Rank<Note>| {
        let me = rank.id();
        let mut seen = Seen {
            ptrs: vec![None; P],
            signals: 0,
        };
        let host = rank.alloc(MemKind::Host, LEN + me).unwrap();
        let fill: Vec<f64> = (0..LEN + me).map(|i| (me * 100 + i) as f64).collect();
        rank.write_local(&host, &fill);
        let dev = rank.alloc(MemKind::Device, LEN + me).unwrap();
        seen.ptrs[me] = Some(host);
        rank.barrier();

        // Bare messages hand every peer this rank's host segment.
        for t in (0..P).filter(|&t| t != me) {
            rank.send(t, Note::Ptr(me, host), Wire::Bare);
        }
        while seen.ptrs.iter().any(Option::is_none) {
            rank.progress(|r, note| seen.handle(r, note));
        }
        rank.barrier();
        let ptrs: Vec<GlobalPtr> = seen.ptrs.iter().map(|p| p.unwrap()).collect();

        // One-sided gets: a whole segment, then a fault-aware partial one
        // retried until it lands.
        let whole = rank.rget(&ptrs[(me + 1) % P]);
        let _ = whole.wait(rank);
        let part = ptrs[(me + 2) % P].slice(2, 8);
        let mut attempts = 0;
        let got = loop {
            attempts += 1;
            if let Some(h) = rank.try_rget(&part) {
                break h.wait(rank);
            }
        };
        assert_eq!(got[0], (((me + 2) % P) * 100 + 2) as f64);
        assert!(attempts <= 16);

        // Host → device on this rank, then a copy between two segments
        // neither of which this rank owns.
        let done = rank.copy(&host, &dev);
        rank.advance_to(done);
        let src = ptrs[(me + 1) % P].slice(0, 4);
        let dst = ptrs[(me + 2) % P].slice(8 + me, 4);
        let done = rank.copy(&src, &dst);
        rank.advance_to(done);
        let _ = rank.read_local(&host.slice(1, 3));

        // Signals (drop / duplicate eligible), a payload and frames.
        for round in 0..4 {
            for t in (0..P).filter(|&t| t != me) {
                rank.send(t, Note::Signal, Wire::Signal);
            }
            let next = (me + 1 + round) % P;
            if next != me {
                let (bytes, subs) = (96 + 8 * round, 2 + round);
                rank.send(next, Note::Frame, Wire::Frame { bytes, subs });
            }
        }
        let bytes = 64 * (me + 1);
        rank.send((me + 3) % P, Note::Payload, Wire::Payload(bytes));
        let sent_at = rank.now().to_bits();
        for _ in 0..3 {
            rank.barrier();
            rank.progress(|r, note| seen.handle(r, note));
        }
        (rank.comm_sample(), seen.signals, sent_at)
    })
}

fn sample(v: [u64; 8]) -> CommSample {
    CommSample {
        msgs_sent: v[0],
        bytes_sent: v[1],
        sends_dropped: v[2],
        rget_retries: v[3],
        delivered_msgs: v[4],
        delivered_bytes: v[5],
        inflight_msgs: v[6],
        inflight_bytes: v[7],
    }
}

#[test]
fn every_counter_matches_the_capture() {
    let report = run();
    assert_eq!(
        report.stats,
        StatsSnapshot {
            rgets: 8,
            copies: 8,
            rpcs: 67,
            net_bytes: 7696,
            intra_bytes: 4480,
            device_bytes: 816,
            rpcs_dropped: 9,
            rpcs_duplicated: 16,
            rget_timeouts: 3,
            frames: 10,
            frame_subs: 28,
            copied_bytes: 1816,
        }
    );
    assert_eq!(report.comm.n, P);
    #[rustfmt::skip]
    assert_eq!(
        report.comm.bytes,
        [192, 960, 1000, 1024, 504, 200, 960, 824, 1000, 1104, 208, 960, 960, 824, 1240, 216]
    );
    #[rustfmt::skip]
    assert_eq!(report.comm.msgs, [1, 7, 7, 7, 4, 1, 7, 6, 7, 7, 1, 7, 7, 6, 7, 1]);
    let clocks: Vec<u64> = report.final_clocks.iter().map(|c| c.to_bits()).collect();
    assert_eq!(clocks, [0x3f25_b0c7_3d57_6a20; P]);
    let expect: [(CommSample, u64, u64); P] = [
        (
            sample([18, 3080, 1, 0, 20, 3480, 17, 3096]),
            43,
            0x3f15_b9ad_331c_f182,
        ),
        (
            sample([14, 2376, 5, 0, 21, 3672, 18, 3288]),
            35,
            0x3f18_2f16_8747_5dae,
        ),
        (
            sample([18, 3144, 1, 0, 22, 3976, 19, 3592]),
            45,
            0x3f13_d6f8_0d25_e22f,
        ),
        (
            sample([17, 3096, 2, 3, 20, 3480, 17, 3096]),
            52,
            0x3f1e_7030_e61a_958c,
        ),
    ];
    for (r, (got, want)) in report.results.iter().zip(&expect).enumerate() {
        assert_eq!(got, want, "rank {r}");
    }
}

#[test]
fn the_per_rank_samples_sum_to_the_run_totals() {
    let report = run();
    let s = report.stats;
    // The plan really dropped, duplicated and timed out something.
    assert!(s.rpcs_dropped > 0 && s.rpcs_duplicated > 0 && s.rget_timeouts > 0);
    let sum = |f: fn(&CommSample) -> u64| report.results.iter().map(|(c, ..)| f(c)).sum::<u64>();
    assert_eq!(sum(|c| c.msgs_sent), s.rpcs);
    assert_eq!(sum(|c| c.sends_dropped), s.rpcs_dropped);
    assert_eq!(sum(|c| c.rget_retries), s.rget_timeouts);
    // Every sent message lands in one matrix cell (rgets and copies too).
    let msgs: u64 = report.comm.msgs.iter().sum();
    assert_eq!(msgs, s.rpcs + s.rgets + s.copies);
    let bytes: u64 = report.comm.bytes.iter().sum();
    assert_eq!(bytes, s.net_bytes + s.intra_bytes);
}
