//! A segment's storage is a shared buffer: whole-segment `rget` / `copy` /
//! `read_local` hand out a handle on it instead of copying. These tests pin
//! what must *not* change because of that — snapshot semantics, lifetime
//! safety, the device quota, the modeled counters — and the real-copy ledger
//! that shows the hand-over happened.

use std::sync::Arc;
use sympack_pgas::{GlobalPtr, MemKind, Payload, PgasConfig, PgasError, Rank, Runtime, Wire};

fn one_rank<T: Send>(quota: usize, body: impl Fn(&mut Rank<()>) -> T + Sync) -> (T, u64) {
    let mut config = PgasConfig::single_node(1);
    config.device_quota = quota;
    let mut report = Runtime::spmd(config, body);
    (report.results.remove(0), report.stats.copied_bytes)
}

#[test]
fn an_rget_issued_before_a_write_still_sees_the_old_bytes() {
    type Writer = fn(&mut Rank<()>, &GlobalPtr);
    let writers: [(&str, Writer); 2] = [
        ("write_local", |r, p| r.write_local(p, &[9.0, 9.0])),
        ("with_local_mut", |r, p| {
            r.with_local_mut(p, |s| s[..2].fill(9.0))
        }),
    ];
    for (name, write) in writers {
        let ((), copied) = one_rank(0, |rank| {
            let owners: Payload = Arc::new(vec![1.0, 2.0, 3.0, 4.0]);
            let ptr = rank.alloc_from(MemKind::Host, Arc::clone(&owners)).unwrap();
            let early = rank.rget(&ptr);
            let early_part = rank.rget(&ptr.slice(1, 2));
            write(rank, &ptr);
            let late = rank.rget(&ptr);
            assert_eq!(*early.wait(rank), vec![1.0, 2.0, 3.0, 4.0], "{name}");
            assert_eq!(*early_part.wait(rank), vec![2.0, 3.0], "{name}");
            assert_eq!(*late.wait(rank), vec![9.0, 9.0, 3.0, 4.0], "{name}");
            // The owner's own handle is a snapshot too.
            assert_eq!(*owners, vec![1.0, 2.0, 3.0, 4.0], "{name}");
        });
        // One partial read (16 B), one copy-on-write (32 B); write_local
        // also counts the 16 B it wrote.
        let written = if name == "with_local_mut" { 0 } else { 16 };
        assert_eq!(copied, 16 + 32 + written, "{name}");
    }
}

#[test]
fn whole_segment_transfers_share_the_buffer_and_copy_nothing() {
    let ((), copied) = one_rank(usize::MAX, |rank| {
        let owners: Payload = Arc::new((0..4096).map(f64::from).collect());
        let host = rank.alloc_from(MemKind::Host, Arc::clone(&owners)).unwrap();
        assert!(Arc::ptr_eq(&rank.rget(&host).wait(rank), &owners));
        assert!(Arc::ptr_eq(&rank.read_local(&host), &owners));
        let dev = rank.alloc(MemKind::Device, 4096).unwrap();
        let done = rank.copy(&host, &dev);
        assert!(done > rank.now(), "the transfer is still charged");
        assert!(Arc::ptr_eq(&rank.read_local(&dev), &owners));
        rank.free(&dev);
        rank.free(&host);
        assert_eq!(owners[4095], 4095.0, "freeing segments frees no holder");
    });
    assert_eq!(copied, 0);
}

#[test]
fn device_quota_accounting_is_unchanged_by_sharing() {
    let quota = 100 * 8;
    let mut config = PgasConfig::single_node(1);
    config.device_quota = quota;
    let report = Runtime::spmd(config, |rank: &mut Rank<()>| {
        let host = rank
            .alloc_from(MemKind::Host, Arc::new(vec![7.0; 60]))
            .unwrap();
        assert_eq!(rank.device_usage(), (0, quota), "host memory is free");
        let dev = rank.alloc(MemKind::Device, 60).unwrap();
        assert_eq!(rank.device_usage().0, 480);
        rank.copy(&host, &dev);
        assert_eq!(rank.device_usage().0, 480, "adopting a buffer is no charge");
        let oom = rank.alloc(MemKind::Device, 60).unwrap_err();
        let expect = PgasError::DeviceOom {
            requested: 480,
            available: 320,
        };
        assert_eq!(oom, expect);
        assert_eq!(
            rank.alloc_from(MemKind::Device, Arc::new(vec![0.0; 60])),
            Err(expect),
            "a segment around a buffer is charged like any other"
        );
        assert_eq!(*rank.read_local(&dev), vec![7.0; 60]);
        rank.free(&dev);
        assert_eq!(rank.device_usage().0, 0);
        assert!(rank.alloc(MemKind::Device, 100).is_ok());
    });
    assert_eq!(report.stats.copies, 1);
    assert_eq!(report.stats.device_bytes, 480);
    assert_eq!(report.stats.copied_bytes, 0);
}

#[test]
fn a_fetched_payload_outlives_its_segment_and_a_straggling_signal_is_inert() {
    // Rank 0 publishes a buffer and signals rank 1 twice — the second copy
    // of the signal is a straggler that arrives after rank 1's phase is
    // over and after rank 0 freed the segment.
    let report = Runtime::spmd(
        PgasConfig::multi_node(2, 1),
        |rank: &mut Rank<GlobalPtr>| {
            if rank.id() == 0 {
                let ptr = rank
                    .alloc_from(MemKind::Host, Arc::new(vec![3.5; 256]))
                    .unwrap();
                rank.send(1, ptr, Wire::Signal);
                rank.barrier(); // rank 1 resolves the first delivery
                rank.barrier();
                rank.free(&ptr);
                rank.send(1, ptr, Wire::Signal);
                rank.barrier(); // rank 1 drains the straggler
                Vec::new()
            } else {
                let mut got = Vec::new();
                rank.barrier();
                let mut fetch =
                    |r: &mut Rank<GlobalPtr>, ptr: GlobalPtr| got.push(r.rget(&ptr).wait(r));
                while rank.progress(&mut fetch) == 0 {
                    std::thread::yield_now();
                }
                rank.barrier();
                rank.barrier();
                // The phase that fetched is over: its successor drops the signal.
                while rank.progress(|_, _| {}) == 0 {
                    std::thread::yield_now();
                }
                got
            }
        },
    );
    // Read after the region (and with it every segment table) is gone.
    let got = &report.results[1];
    assert_eq!(got.len(), 1, "the straggler fetched nothing");
    assert_eq!(*got[0], vec![3.5; 256]);
    assert_eq!(report.stats.rgets, 1);
    assert_eq!(report.stats.copied_bytes, 0);
}
