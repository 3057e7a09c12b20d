//! Minimal std-only synchronization shims.
//!
//! The runtime needs three primitives: a mutex and an rwlock whose guards
//! come back directly from `lock()`/`read()`/`write()` (no `Result`
//! plumbing at every call site), and a multi-producer queue for RPC
//! injection. All three wrap `std::sync` — a poisoned lock means a rank
//! thread already panicked, so propagating the panic is the right call.

use std::collections::VecDeque;
use std::sync::{self, LockResult};

/// Mutex whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub(crate) struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn lock(&self) -> sync::MutexGuard<'_, T> {
        unpoison(self.0.lock())
    }
}

/// RwLock whose `read()`/`write()` return guards directly.
#[derive(Debug, Default)]
pub(crate) struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        unpoison(self.0.read())
    }

    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        unpoison(self.0.write())
    }
}

fn unpoison<G>(r: LockResult<G>) -> G {
    match r {
        Ok(g) => g,
        Err(_) => panic!("lock poisoned: a rank thread panicked while holding it"),
    }
}

/// Unbounded MPMC FIFO queue (the RPC injection queue). A locked
/// `VecDeque` is plenty at the contention levels of a per-rank inbox.
#[derive(Debug, Default)]
pub(crate) struct SegQueue<T> {
    inner: Mutex<VecDeque<T>>,
}

impl<T> SegQueue<T> {
    pub fn new() -> Self {
        SegQueue {
            inner: Mutex::new(VecDeque::new()),
        }
    }

    pub fn push(&self, value: T) {
        self.inner.lock().push_back(value);
    }

    pub fn pop(&self) -> Option<T> {
        self.inner.lock().pop_front()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn queue_is_fifo() {
        let q = SegQueue::new();
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn queue_works_across_threads() {
        let q = Arc::new(SegQueue::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..100 {
                        q.push(t * 100 + i);
                    }
                });
            }
        });
        let mut seen = 0;
        while q.pop().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 400);
    }

    #[test]
    fn rwlock_guards() {
        let l = RwLock::new(5usize);
        assert_eq!(*l.read(), 5);
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
        let m = Mutex::new(vec![1, 2]);
        m.lock().push(3);
        assert_eq!(m.lock().len(), 3);
    }
}
