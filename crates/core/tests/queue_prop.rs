//! Property tests for [`sympack::sched::ReadyQueue`] and the
//! [`sympack::sched::TaskEngine`] that schedules through it.
//!
//! Randomized over a house xorshift64* generator (the workspace carries no
//! external crates, so no proptest): for arbitrary push sequences, every
//! policy must pop a permutation of what was pushed, `CriticalPath` must
//! pop in non-decreasing `priority_key` order, and the popped *multiset*
//! must be identical across policies — the policy chooses an order, never
//! the set of work that runs. And an engine over a compiled task table must
//! schedule exactly like one built by key insertion.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack::sched::{ReadyQueue, RtqPolicy, TaskEngine, TaskId, TaskKind};
use sympack_trace::TraceCat;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct T(usize);

impl TaskKind for T {
    fn priority_key(&self) -> (usize, usize) {
        (self.0, 0)
    }
    fn seed_key(&self) -> (usize, usize, usize, usize) {
        (self.0, 0, 0, 0)
    }
    fn kind_name(&self) -> &'static str {
        "t"
    }
    fn trace_label(&self) -> String {
        format!("T({})", self.0)
    }
    fn trace_cat(&self) -> TraceCat {
        TraceCat::Other
    }
}

/// xorshift64* — deterministic per seed, no external crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

const POLICIES: [RtqPolicy; 3] = [RtqPolicy::Lifo, RtqPolicy::Fifo, RtqPolicy::CriticalPath];

/// A random push sequence (duplicates included: ties exercise the
/// `CriticalPath` first-minimum rule).
fn random_pushes(rng: &mut Rng) -> Vec<T> {
    let len = rng.below(32);
    (0..len).map(|_| T(rng.below(10))).collect()
}

fn drain(mut q: ReadyQueue<T>) -> Vec<T> {
    let mut out = Vec::new();
    while let Some(t) = q.pop_by(TaskKind::priority_key, |_| 0) {
        out.push(t);
    }
    out
}

#[test]
fn every_policy_pops_a_permutation_of_the_pushes() {
    for case in 0..40u64 {
        let mut rng = Rng::new(case);
        let pushes = random_pushes(&mut rng);
        for policy in POLICIES {
            let mut q = ReadyQueue::new(policy);
            for &t in &pushes {
                q.push(t);
            }
            assert_eq!(q.len(), pushes.len());
            let popped = drain(q);
            let mut want = pushes.clone();
            let mut got = popped.clone();
            want.sort_by_key(|t| t.0);
            got.sort_by_key(|t| t.0);
            assert_eq!(
                got, want,
                "case {case} {policy:?}: popped {popped:?} is not a permutation of {pushes:?}"
            );
        }
    }
}

#[test]
fn critical_path_pops_in_priority_order() {
    for case in 0..40u64 {
        let mut rng = Rng::new(0xC0FFEE ^ case);
        let pushes = random_pushes(&mut rng);
        let mut q = ReadyQueue::new(RtqPolicy::CriticalPath);
        for &t in &pushes {
            q.push(t);
        }
        let popped = drain(q);
        for w in popped.windows(2) {
            assert!(
                w[0].priority_key() <= w[1].priority_key(),
                "case {case}: {:?} popped before {:?}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn interleaved_push_pop_never_changes_the_popped_set() {
    // Interleave pushes and pops under a shared random script; across
    // policies the union of popped + left-over tasks must be the same
    // multiset (and all pushed tasks must be accounted for exactly once).
    for case in 0..40u64 {
        let mut rng = Rng::new(0xDEAD_BEEF ^ case);
        let script: Vec<Option<T>> = (0..48)
            .map(|_| {
                if rng.below(3) < 2 {
                    Some(T(rng.below(10)))
                } else {
                    None // a pop
                }
            })
            .collect();
        let mut outcomes: Vec<Vec<T>> = Vec::new();
        for policy in POLICIES {
            let mut q = ReadyQueue::new(policy);
            let mut seen = Vec::new();
            for step in &script {
                match step {
                    Some(t) => q.push(*t),
                    None => {
                        if let Some(t) = q.pop_by(TaskKind::priority_key, |_| 0) {
                            seen.push(t);
                        } else {
                            assert!(q.is_empty());
                        }
                    }
                }
            }
            seen.extend(drain(q));
            seen.sort_by_key(|t| t.0);
            outcomes.push(seen);
        }
        let mut pushed: Vec<T> = script.iter().flatten().copied().collect();
        pushed.sort_by_key(|t| t.0);
        for (policy, seen) in POLICIES.iter().zip(&outcomes) {
            assert_eq!(
                seen, &pushed,
                "case {case} {policy:?}: tasks lost or invented by the queue"
            );
        }
    }
}

#[test]
fn compiled_and_inserted_engines_schedule_alike() {
    // The same random DAG slice (distinct keys, random counters, a random
    // decrement script) through both constructors: identical pick sequence
    // under every policy, and the on-demand estimate — summed in id order
    // over the unexecuted tasks — agrees bit for bit along the way.
    let est = |_: TaskId, k: &T| 0.1 * k.0 as f64;
    for case in 0..40u64 {
        let mut rng = Rng::new(0x5EED ^ case);
        let n = 1 + rng.below(24);
        let keys: Vec<T> = (0..n).map(|i| T(100 * rng.below(5) + i)).collect();
        let deps: Vec<u32> = (0..n).map(|_| rng.below(3) as u32).collect();
        for policy in POLICIES {
            let abort = Arc::new(AtomicBool::new(false));
            let mut c: TaskEngine<T> = TaskEngine::from_compiled(
                Arc::new(keys.clone()),
                &deps,
                policy,
                Arc::clone(&abort),
            );
            let mut i: TaskEngine<T> = TaskEngine::new(policy, abort);
            for (k, &d) in keys.iter().zip(&deps) {
                i.insert_task(*k, d as usize);
            }
            c.seed_ready();
            i.seed_ready();
            let mut left = deps.clone();
            let mut executed = 0;
            while executed < n {
                // Release one pending dependency (id- vs key-addressed),
                // then run whatever is ready.
                if let Some(t) = (0..n).find(|&t| left[t] > 0) {
                    left[t] -= 1;
                    c.dec_id(t as TaskId, executed as f64);
                    i.dec(keys[t], executed as f64);
                }
                loop {
                    let (pc, pi) = (c.pick(), i.pick());
                    assert_eq!(pc, pi, "case {case} {policy:?}");
                    let Some((id, ..)) = pc else { break };
                    c.complete(id);
                    i.complete(id);
                    executed += 1;
                    assert_eq!(
                        c.estimated_remaining(est).to_bits(),
                        i.estimated_remaining(est).to_bits()
                    );
                }
            }
            assert!(c.finished() && i.finished());
            assert_eq!(c.estimated_remaining(est), 0.0);
            c.debug_assert_completed();
            i.debug_assert_completed();
        }
    }
}
