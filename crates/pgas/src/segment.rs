//! Per-rank shared segment tables.
//!
//! Each rank owns a table of segments other ranks may access one-sidedly.
//! Physical safety comes from a `RwLock` per segment; *logical* correctness
//! (readers only read data that was completely produced) is the protocol's
//! job, exactly as in a real PGAS system.

use crate::ptr::{GlobalPtr, MemKind};
use crate::sync::{Mutex, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One shared allocation.
pub struct Segment {
    /// Memory kind the segment was allocated in.
    pub kind: MemKind,
    /// Element storage.
    pub data: RwLock<Vec<f64>>,
}

/// Segment slots and the indices of the empty ones, under one lock.
#[derive(Default)]
struct Slots {
    segs: Vec<Option<Arc<Segment>>>,
    /// Every `None` index of `segs`, most recently freed last: allocation
    /// pops one instead of scanning the table (publications are only freed
    /// when their region ends, so the scan grew with every live segment).
    free: Vec<usize>,
}

/// A rank's table of shared segments plus its device-memory quota.
pub struct SegmentTable {
    slots: Mutex<Slots>,
    /// Bytes of device memory currently allocated by this rank.
    device_used: AtomicUsize,
    /// Per-rank device memory quota in bytes (the paper's per-process share
    /// of a GPU's memory, §4.2).
    device_quota: usize,
}

/// Error returned when a device allocation exceeds the quota — the situation
/// the paper's fallback options (§4.2) deal with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceOom {
    /// Bytes requested by the failing allocation.
    pub requested: usize,
    /// Bytes still available under the quota.
    pub available: usize,
}

impl SegmentTable {
    /// Create an empty table with the given device quota (bytes).
    pub fn new(device_quota: usize) -> Self {
        SegmentTable {
            slots: Mutex::new(Slots::default()),
            device_used: AtomicUsize::new(0),
            device_quota,
        }
    }

    /// Allocate `len` elements of `kind` for rank `rank`, returning the
    /// global pointer. Device allocations respect the quota.
    pub fn alloc(&self, rank: usize, kind: MemKind, len: usize) -> Result<GlobalPtr, DeviceOom> {
        let bytes = len * std::mem::size_of::<f64>();
        if kind == MemKind::Device {
            // Reserve quota with a CAS loop so concurrent allocs can't
            // oversubscribe the device.
            let mut used = self.device_used.load(Ordering::Relaxed);
            loop {
                if used + bytes > self.device_quota {
                    return Err(DeviceOom {
                        requested: bytes,
                        available: self.device_quota.saturating_sub(used),
                    });
                }
                match self.device_used.compare_exchange_weak(
                    used,
                    used + bytes,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(u) => used = u,
                }
            }
        }
        let seg = Arc::new(Segment {
            kind,
            data: RwLock::new(vec![0.0; len]),
        });
        let mut slots = self.slots.lock();
        // Reuse a free slot if any.
        let idx = slots.free.pop().unwrap_or_else(|| {
            slots.segs.push(None);
            slots.segs.len() - 1
        });
        slots.segs[idx] = Some(seg);
        Ok(GlobalPtr {
            rank,
            seg: idx,
            offset: 0,
            len,
            kind,
        })
    }

    /// Free a segment (whole allocations only).
    pub fn free(&self, ptr: &GlobalPtr) {
        let mut slots = self.slots.lock();
        if let Some(seg) = slots.segs[ptr.seg].take() {
            // Only a slot that held a segment joins the free list, so a
            // repeated free cannot make one index available twice.
            slots.free.push(ptr.seg);
            if seg.kind == MemKind::Device {
                let bytes = seg.data.read().len() * std::mem::size_of::<f64>();
                self.device_used.fetch_sub(bytes, Ordering::Relaxed);
            }
        }
    }

    /// Fetch the segment behind a pointer.
    ///
    /// # Panics
    /// Panics when the segment was freed (a use-after-free at the protocol
    /// level — always a solver bug worth failing loudly on).
    pub fn get(&self, seg: usize) -> Arc<Segment> {
        self.slots.lock().segs[seg]
            .as_ref()
            .expect("segment was freed")
            .clone()
    }

    /// Device bytes currently in use.
    pub fn device_used(&self) -> usize {
        self.device_used.load(Ordering::Relaxed)
    }

    /// Device quota in bytes.
    pub fn device_quota(&self) -> usize {
        self.device_quota
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_read_back() {
        let t = SegmentTable::new(1 << 20);
        let p = t.alloc(3, MemKind::Host, 16).unwrap();
        assert_eq!(p.rank, 3);
        assert_eq!(p.len, 16);
        let seg = t.get(p.seg);
        seg.data.write()[5] = 2.5;
        assert_eq!(seg.data.read()[5], 2.5);
    }

    #[test]
    fn device_quota_enforced() {
        let t = SegmentTable::new(100 * 8);
        let a = t.alloc(0, MemKind::Device, 60);
        assert!(a.is_ok());
        let b = t.alloc(0, MemKind::Device, 60);
        let err = b.unwrap_err();
        assert_eq!(err.requested, 480);
        assert_eq!(err.available, 320);
        // Freeing releases quota.
        t.free(&a.unwrap());
        assert!(t.alloc(0, MemKind::Device, 100).is_ok());
    }

    #[test]
    fn host_allocations_ignore_quota() {
        let t = SegmentTable::new(0);
        assert!(t.alloc(0, MemKind::Host, 1000).is_ok());
        assert!(t.alloc(0, MemKind::Device, 1).is_err());
    }

    #[test]
    fn slots_are_reused_after_free() {
        let t = SegmentTable::new(0);
        let a = t.alloc(0, MemKind::Host, 4).unwrap();
        let slot = a.seg;
        t.free(&a);
        let b = t.alloc(0, MemKind::Host, 4).unwrap();
        assert_eq!(b.seg, slot);
    }

    #[test]
    fn repeated_free_does_not_issue_a_slot_twice() {
        let t = SegmentTable::new(0);
        let a = t.alloc(0, MemKind::Host, 4).unwrap();
        t.free(&a);
        t.free(&a);
        let b = t.alloc(0, MemKind::Host, 4).unwrap();
        let c = t.alloc(0, MemKind::Host, 4).unwrap();
        assert_eq!(b.seg, a.seg);
        assert_ne!(c.seg, b.seg, "two live segments share a slot");
    }

    #[test]
    #[should_panic(expected = "segment was freed")]
    fn use_after_free_panics() {
        let t = SegmentTable::new(0);
        let a = t.alloc(0, MemKind::Host, 4).unwrap();
        t.free(&a);
        t.get(a.seg);
    }
}
