//! Per-rank shared segment tables.
//!
//! Each rank owns a table of segments other ranks may access one-sidedly.
//! Physical safety comes from a `RwLock` per segment; *logical* correctness
//! (readers only read data that was completely produced) is the protocol's
//! job, exactly as in a real PGAS system.
//!
//! A segment's storage is a [`Payload`] — a reference-counted buffer — so
//! data crosses ranks of this one address space without being copied: a
//! segment can be created *around* a buffer its owner already holds
//! (`SegmentTable::alloc_from`), a whole-segment read hands out another
//! handle on it, and a whole-segment store adopts the incoming one. Writes
//! are copy-on-write, so a handle read earlier keeps the bytes it was read
//! with — the snapshot semantics of a real `rget`.

use crate::ptr::{GlobalPtr, MemKind};
use crate::sync::{Mutex, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An immutable, reference-counted `f64` buffer: what a segment stores and
/// what the one-sided reads return. Cloning it shares the memory.
pub type Payload = Arc<Vec<f64>>;

/// One shared allocation of `len` elements.
pub(crate) struct Segment {
    /// Memory kind the segment was allocated in.
    pub kind: MemKind,
    len: usize,
    /// Element storage; `None` until first written (reads as zeros), so a
    /// segment that is only ever the destination of a whole-segment store
    /// never allocates a buffer of its own.
    data: RwLock<Option<Payload>>,
}

impl Segment {
    /// The elements `[offset, offset + len)` as they are now, and how many
    /// bytes were copied to produce them: none when the range is the whole
    /// segment (the buffer is shared), the range's size otherwise.
    pub fn read(&self, offset: usize, len: usize) -> (Payload, usize) {
        match &*self.data.read() {
            Some(buf) if offset == 0 && len == self.len => (Arc::clone(buf), 0),
            Some(buf) => (Arc::new(buf[offset..offset + len].to_vec()), len * 8),
            None => {
                assert!(offset + len <= self.len, "read past the allocation");
                (Arc::new(vec![0.0; len]), 0)
            }
        }
    }

    /// Run `f` over the segment's elements, mutably. Copy-on-write: when
    /// another handle on the buffer exists it is copied first and that
    /// handle keeps the old bytes. Returns `f`'s result and the bytes copied.
    pub(crate) fn with_mut<T>(&self, f: impl FnOnce(&mut [f64]) -> T) -> (T, usize) {
        let mut guard = self.data.write();
        let buf = guard.get_or_insert_with(|| Arc::new(vec![0.0; self.len]));
        let copied = if Arc::get_mut(buf).is_some() {
            0
        } else {
            self.len * 8
        };
        (f(Arc::make_mut(buf).as_mut_slice()), copied)
    }

    /// Overwrite the elements from `offset` with `data` (copy-on-write, see
    /// [`Segment::with_mut`]). Returns the bytes copied.
    pub fn write(&self, offset: usize, data: &[f64]) -> usize {
        let ((), cow) = self.with_mut(|all| all[offset..offset + data.len()].copy_from_slice(data));
        cow + data.len() * 8
    }

    /// Store `data` at `offset`. A payload that covers the whole segment is
    /// adopted as its storage (no copy); anything else is a [`write`](Self::write).
    /// Returns the bytes copied.
    pub fn store(&self, offset: usize, data: Payload) -> usize {
        if offset == 0 && data.len() == self.len {
            *self.data.write() = Some(data);
            0
        } else {
            self.write(offset, &data)
        }
    }
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
pub(crate) struct SegmentTable {
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

    /// Allocate `len` zero elements of `kind` for rank `rank`, returning the
    /// global pointer. Device allocations respect the quota.
    pub fn alloc(&self, rank: usize, kind: MemKind, len: usize) -> Result<GlobalPtr, DeviceOom> {
        self.insert(rank, kind, len, None)
    }

    /// Allocate a segment of `kind` whose storage *is* `data`: nothing is
    /// copied, the caller's other handles on the buffer stay valid, and the
    /// quota is charged exactly as for [`alloc`](Self::alloc) of its length.
    pub fn alloc_from(
        &self,
        rank: usize,
        kind: MemKind,
        data: Payload,
    ) -> Result<GlobalPtr, DeviceOom> {
        self.insert(rank, kind, data.len(), Some(data))
    }

    fn insert(
        &self,
        rank: usize,
        kind: MemKind,
        len: usize,
        data: Option<Payload>,
    ) -> Result<GlobalPtr, DeviceOom> {
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
            len,
            data: RwLock::new(data),
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
                let bytes = seg.len * std::mem::size_of::<f64>();
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
    pub(crate) fn device_used(&self) -> usize {
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
        assert_eq!(
            *seg.read(0, 16).0,
            vec![0.0; 16],
            "unwritten reads as zeros"
        );
        seg.with_mut(|all| all[5] = 2.5);
        assert_eq!(seg.read(0, 16).0[5], 2.5);
        assert_eq!(*seg.read(4, 3).0, vec![0.0, 2.5, 0.0]);
    }

    #[test]
    fn whole_segment_reads_share_and_writes_copy_first() {
        let t = SegmentTable::new(0);
        let mine: Payload = Arc::new(vec![1.0, 2.0, 3.0, 4.0]);
        let p = t.alloc_from(0, MemKind::Host, Arc::clone(&mine)).unwrap();
        let seg = t.get(p.seg);
        let (got, copied) = seg.read(0, 4);
        assert!(
            Arc::ptr_eq(&got, &mine) && copied == 0,
            "no copy on the way"
        );
        let (part, copied) = seg.read(1, 2);
        assert_eq!((&part[..], copied), (&[2.0, 3.0][..], 16));
        // A write after the read: the earlier handles keep the old bytes.
        assert_eq!(seg.write(0, &[9.0]), 32 + 8, "one CoW copy + the write");
        assert_eq!(*got, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(*seg.read(0, 4).0, vec![9.0, 2.0, 3.0, 4.0]);
        // Now sole holder of its new buffer: the next write copies nothing.
        assert_eq!(seg.write(1, &[8.0]), 8);
        // A whole-segment store adopts the incoming buffer.
        let other: Payload = Arc::new(vec![5.0; 4]);
        assert_eq!(seg.store(0, Arc::clone(&other)), 0);
        assert!(Arc::ptr_eq(&seg.read(0, 4).0, &other));
        assert_eq!(seg.store(2, Arc::new(vec![6.0])), 32 + 8);
        assert_eq!(*other, vec![5.0; 4]);
    }

    #[test]
    fn a_segment_around_a_buffer_charges_the_device_quota_like_alloc() {
        let t = SegmentTable::new(100 * 8);
        let a = t
            .alloc_from(0, MemKind::Device, Arc::new(vec![1.0; 60]))
            .unwrap();
        assert_eq!(t.device_used(), 480);
        let err = t
            .alloc_from(0, MemKind::Device, Arc::new(vec![1.0; 60]))
            .unwrap_err();
        assert_eq!((err.requested, err.available), (480, 320));
        // A shared store into a device segment does not change its charge.
        let d = t.alloc(0, MemKind::Device, 40).unwrap();
        t.get(d.seg).store(0, Arc::new(vec![2.0; 40]));
        assert_eq!(t.device_used(), 800);
        t.free(&a);
        t.free(&d);
        assert_eq!(t.device_used(), 0);
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
