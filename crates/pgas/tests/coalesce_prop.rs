//! Property tests for the per-destination coalescing layer: the frame
//! codec, the [`Coalescer`] flush policy, and end-to-end byte conservation
//! through the runtime's transfer ledger.
//!
//! There is no property-testing dependency in the workspace, so each test
//! drives many randomized trials from a seeded xorshift generator — the
//! failures print the seed, and re-running with it is exact.

use sympack_pgas::coalesce::{
    frame_wire_bytes, pack_frame, unpack_frame, Batch, CoalesceConfig, Coalescer,
    FRAME_HEADER_BYTES, SIGNAL_WIRE_BYTES, SUB_HEADER_BYTES,
};
use sympack_pgas::{NetModel, PgasConfig, Rank, Runtime, Wire};

/// Deterministic xorshift64* stream.
struct Xor(u64);

impl Xor {
    fn new(seed: u64) -> Self {
        Xor(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn random_subs(rng: &mut Xor, max_subs: usize, max_len: usize) -> Vec<Vec<u8>> {
    let n = rng.below(max_subs + 1);
    (0..n)
        .map(|_| {
            let len = rng.below(max_len + 1); // empty payloads included
            (0..len).map(|_| rng.next() as u8).collect()
        })
        .collect()
}

#[test]
fn frame_roundtrip_is_byte_identical() {
    let mut rng = Xor::new(0x5EED_0001);
    for trial in 0..500 {
        let subs = random_subs(&mut rng, 20, 300);
        let buf = pack_frame(&subs);
        assert_eq!(
            buf.len(),
            frame_wire_bytes(subs.iter().map(|s| s.len())),
            "trial {trial}: wire-size formula must match the codec exactly"
        );
        let back = unpack_frame(&buf).expect("well-formed frame");
        assert_eq!(back, subs, "trial {trial}: round trip must be identical");
    }
}

#[test]
fn unpack_rejects_every_truncation_and_bad_magic() {
    let mut rng = Xor::new(0x5EED_0002);
    for trial in 0..100 {
        let subs = random_subs(&mut rng, 8, 64);
        let buf = pack_frame(&subs);
        // Every strict prefix must error, never panic and never "succeed"
        // with silently fewer sub-frames.
        for cut in 0..buf.len() {
            assert!(
                unpack_frame(&buf[..cut]).is_err(),
                "trial {trial}: truncation to {cut}/{} bytes must be rejected",
                buf.len()
            );
        }
        // Corrupted magic is rejected.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(unpack_frame(&bad).is_err(), "trial {trial}: magic check");
        // Trailing junk is rejected (a frame is exactly its declared subs).
        let mut long = buf.clone();
        long.push(0);
        assert!(unpack_frame(&long).is_err(), "trial {trial}: trailing byte");
    }
}

/// `(dest, push id, payload bytes)` for every sub pushed during a drive.
type Pushed = Vec<(usize, u64, usize)>;

/// Exercise a coalescer with a random push/expire schedule and return every
/// emitted batch in emission order, tagged with the virtual time bucket.
fn drive(
    rng: &mut Xor,
    cfg: CoalesceConfig,
    n_dests: usize,
    n_pushes: usize,
) -> (Vec<Batch<u64>>, Pushed) {
    let mut co: Coalescer<u64> = Coalescer::new(cfg);
    let mut out = Vec::new();
    let mut pushed = Vec::new(); // (dest, id, payload)
    let mut now = 0.0;
    for id in 0..n_pushes as u64 {
        let dest = rng.below(n_dests);
        let payload = match rng.below(20) {
            0 => 0,             // empty sub
            1 => cfg.max_bytes, // oversized: exceeds the frame cap alone
            _ => 8 + rng.below(SIGNAL_WIRE_BYTES * 2),
        };
        pushed.push((dest, id, payload));
        out.extend(co.push(dest, payload, id, now));
        if rng.below(4) == 0 {
            now += cfg.quantum_secs * 0.4;
            out.extend(co.take_expired(now));
        }
    }
    out.extend(co.take_all());
    assert!(co.is_empty(), "take_all must drain everything");
    (out, pushed)
}

#[test]
fn coalescer_loses_nothing_and_preserves_per_dest_order() {
    let mut rng = Xor::new(0x5EED_0003);
    for trial in 0..200 {
        let cfg = CoalesceConfig {
            quantum_secs: 1.0e-6 + rng.below(50) as f64 * 1.0e-6,
            max_bytes: 256 + rng.below(1024),
            max_subs: 1 + rng.below(16),
        };
        let n_dests = 1 + rng.below(6);
        let (batches, pushed) = drive(&mut rng, cfg, n_dests, 200);
        // Rebuild the per-destination delivery order.
        let mut delivered: Vec<Vec<u64>> = vec![Vec::new(); 8];
        for b in &batches {
            for &(_, id) in &b.subs {
                delivered[b.dest].push(id);
            }
        }
        let total: usize = delivered.iter().map(|d| d.len()).sum();
        assert_eq!(
            total,
            pushed.len(),
            "trial {trial}: no sub lost or duplicated"
        );
        for (dest, ids) in delivered.iter().enumerate() {
            let expect: Vec<u64> = pushed
                .iter()
                .filter(|&&(d, _, _)| d == dest)
                .map(|&(_, id, _)| id)
                .collect();
            assert_eq!(
                ids, &expect,
                "trial {trial}: dest {dest} must see push order (no (src,dst) reordering)"
            );
        }
    }
}

#[test]
fn flush_thresholds_bound_every_emitted_frame() {
    let mut rng = Xor::new(0x5EED_0004);
    for trial in 0..200 {
        let cfg = CoalesceConfig {
            quantum_secs: 5.0e-6,
            max_bytes: 128 + rng.below(512),
            max_subs: 1 + rng.below(8),
        };
        let (batches, _) = drive(&mut rng, cfg, 4, 300);
        for b in &batches {
            assert!(!b.subs.is_empty(), "trial {trial}: empty frame emitted");
            assert!(
                b.subs.len() <= cfg.max_subs,
                "trial {trial}: frame holds {} subs > cap {}",
                b.subs.len(),
                cfg.max_subs
            );
            // A frame may exceed the byte cap only when a single sub is
            // itself oversized — the coalescer never *aggregates* past it.
            assert!(
                b.wire_bytes <= cfg.max_bytes || b.subs.len() == 1,
                "trial {trial}: aggregated frame of {} subs is {} B > cap {}",
                b.subs.len(),
                b.wire_bytes,
                cfg.max_bytes
            );
        }
    }
}

#[test]
fn batch_wire_bytes_match_the_codec_exactly() {
    let mut rng = Xor::new(0x5EED_0005);
    for _ in 0..100 {
        let cfg = CoalesceConfig::default();
        let (batches, pushed) = drive(&mut rng, cfg, 5, 150);
        // Conservation: every pushed payload byte is accounted once, plus
        // exactly one sub header per sub and one frame header per frame.
        let payload_total: usize = pushed.iter().map(|&(_, _, p)| p).sum();
        let wire_total: usize = batches.iter().map(|b| b.wire_bytes).sum();
        assert_eq!(
            wire_total,
            payload_total + SUB_HEADER_BYTES * pushed.len() + FRAME_HEADER_BYTES * batches.len()
        );
        for b in &batches {
            // The modeled wire size equals what the codec would really pack.
            let real: Vec<Vec<u8>> = b.subs.iter().map(|&(p, _)| vec![0u8; p]).collect();
            assert_eq!(b.wire_bytes, pack_frame(&real).len());
        }
    }
}

/// End-to-end conservation through the runtime ledger: every signal and
/// every frame lands in the (src, dst) comm matrix with its full modeled
/// wire size (envelope + payload), and the matrix total equals the global
/// net + intra counters — the invariant `scaling_bench` asserts at P ≤ 1024,
/// here pinned at unit scale where the expected sum is computable by hand.
#[test]
fn runtime_ledger_conserves_coalesced_bytes() {
    let mut rng = Xor::new(0x5EED_0006);
    for _ in 0..10 {
        let n_signals = 1 + rng.below(20);
        let frame_subs: Vec<usize> = (0..1 + rng.below(6)).map(|_| 1 + rng.below(10)).collect();
        let mut config = PgasConfig::multi_node(2, 2);
        config.deterministic = true;
        let frame_subs_run = frame_subs.clone();
        let report = Runtime::spmd(config, move |rank: &mut Rank<()>| {
            if rank.id() == 0 {
                for i in 0..n_signals {
                    let target = 1 + i % 3; // mix of intra (1) and net (2, 3)
                    rank.send(target, (), Wire::Signal);
                }
                for &subs in &frame_subs_run {
                    let bytes = frame_wire_bytes(std::iter::repeat_n(SIGNAL_WIRE_BYTES, subs));
                    rank.send(3, (), Wire::Frame { bytes, subs });
                }
            }
            rank.barrier();
            while rank.progress(|_, ()| {}) > 0 {}
            rank.barrier();
        });
        let env = NetModel::default().rpc_envelope_bytes;
        let expect_signals = n_signals * (env + SIGNAL_WIRE_BYTES);
        let expect_frames: usize = frame_subs
            .iter()
            .map(|&s| env + frame_wire_bytes(std::iter::repeat_n(SIGNAL_WIRE_BYTES, s)))
            .sum();
        let ledger = report.stats.net_bytes + report.stats.intra_bytes;
        assert_eq!(ledger, (expect_signals + expect_frames) as u64);
        assert_eq!(
            report.comm.total_bytes(),
            ledger,
            "comm matrix conserves bytes"
        );
        assert_eq!(report.stats.frames, frame_subs.len() as u64);
        assert_eq!(
            report.stats.frame_subs,
            frame_subs.iter().sum::<usize>() as u64
        );
    }
}
