//! Closure messages: a region whose messages are code, run on the target at
//! its next `progress()`, with one type-erased state slot per rank. The
//! solver's regions are typed ([`Runtime::spmd`]); the wall-clock
//! benchmark's `rget_flood` probe (`perf/src/probes.rs`) is written against
//! this surface, which goes when that probe moves. A closure travels over
//! [`crate::Wire::Bare`] through the tail and drain typed messages take.

use crate::rank::Rank;
use crate::runtime::{PgasConfig, RunReport, Runtime};
use std::any::Any;
use std::cell::RefCell;

/// A closure message, run once on the target rank.
pub struct Thunk(Box<Code>);
type Code = dyn FnOnce(&mut Rank<Thunk>) + Send;

thread_local! {
    /// The state slot of the rank this thread runs (a rank is a thread).
    static STATE: RefCell<Option<Box<dyn Any>>> = const { RefCell::new(None) };
}

impl Runtime {
    /// [`Runtime::spmd`] over closure messages.
    pub fn run<R: Send>(
        config: PgasConfig,
        f: impl Fn(&mut Rank<Thunk>) -> R + Sync,
    ) -> RunReport<R> {
        Runtime::spmd(config, f)
    }
}

impl Rank<Thunk> {
    /// Send `func` to run on rank `target` at its next `progress()`.
    pub fn rpc(&mut self, target: usize, func: impl FnOnce(&mut Self) + Send + 'static) {
        self.send_reliable(target, Thunk(Box::new(func)), None);
    }

    /// Run every queued closure, in virtual-arrival order; how many ran.
    pub fn progress(&mut self) -> usize {
        self.drain(|rank, Thunk(func)| func(rank))
    }

    /// Install this rank's state.
    pub fn set_state<T: 'static>(&mut self, state: T) {
        STATE.with(|s| *s.borrow_mut() = Some(Box::new(state)));
    }

    /// Run `f` on the rank and its state, a `T`.
    pub fn with_state<T: 'static, R>(&mut self, f: impl FnOnce(&mut Self, &mut T) -> R) -> R {
        let mut state = self.take_state();
        let r = f(self, &mut state);
        self.set_state(state);
        r
    }

    /// Remove and return the state, a `T`.
    pub fn take_state<T: 'static>(&mut self) -> T {
        let state = STATE.with(|s| s.borrow_mut().take());
        *state
            .expect("no user state installed")
            .downcast()
            .expect("user state has a different type")
    }
}

#[cfg(test)]
mod tests {
    use crate::{GlobalPtr, MemKind, PgasConfig, Runtime};

    /// The benchmark probe's shape: a closure hands a pointer into the
    /// target's state, which the target then fetches from.
    #[test]
    fn a_closure_reaches_the_targets_state() {
        let report = Runtime::run(PgasConfig::multi_node(2, 1), |rank| {
            if rank.id() == 0 {
                let ptr = rank.alloc(MemKind::Host, 4).unwrap();
                rank.write_local(&ptr, &[1.0, 2.0, 3.0, 4.0]);
                rank.rpc(1, move |r| {
                    r.with_state::<Vec<GlobalPtr>, _>(|_, v| v.push(ptr))
                });
                rank.barrier();
                0.0
            } else {
                rank.set_state(Vec::<GlobalPtr>::new());
                rank.barrier();
                while rank.progress() == 0 {
                    std::thread::yield_now();
                }
                let ptr = rank.take_state::<Vec<GlobalPtr>>()[0];
                rank.rget(&ptr).wait(rank)[3]
            }
        });
        assert_eq!(report.results[1], 4.0);
        assert_eq!(report.stats.rpcs, 1);
        let floor = Runtime::run(PgasConfig::single_node(2), |rank| rank.id());
        assert_eq!(floor.results, [0, 1]);
    }
}
