//! Property tests for [`sympack::sched::ReadyQueue`] and the
//! [`sympack::sched::TaskEngine`] that schedules through it.
//!
//! Randomized over a house xorshift64* generator (the workspace carries no
//! external crates, so no proptest): for arbitrary push sequences, every
//! policy must pop a permutation of what was pushed, `CriticalPath` must
//! pop in non-decreasing `priority_key` order, and the popped *multiset*
//! must be identical across policies — the policy chooses an order, never
//! the set of work that runs. And the ids a [`sympack::sched::Graph`] gives
//! its tasks must not leak into the schedule: the same tasks compiled in two
//! id orders pick the same keys.

mod common;

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use sympack::sched::{Graph, ReadyQueue, RtqPolicy, TaskEngine, TaskId, TaskKind};
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
fn ids_cannot_leak_into_the_schedule() {
    // The same random tasks (distinct keys, random counters) compiled in two
    // id orders — identity and a seeded shuffle — and driven by the same
    // decrement script, issued by key through each side's id table: the
    // seeds are the zero-dependency tasks in seed-key order, both engines
    // pick the same keys under every policy, and both finish.
    let cases = 40 + common::chaos_seed_budget();
    for case in 0..cases {
        let mut rng = Rng::new(0x5EED ^ case);
        let n = 1 + rng.below(24);
        let keys: Vec<T> = (0..n).map(|i| T(100 * rng.below(5) + i)).collect();
        let deps: Vec<u32> = (0..n).map(|_| rng.below(3) as u32).collect();
        let mut order: Vec<usize> = (0..n).collect();
        for k in (1..n).rev() {
            order.swap(k, rng.below(k + 1));
        }
        let mut ready: Vec<T> = (0..n).filter(|&t| deps[t] == 0).map(|t| keys[t]).collect();
        ready.sort_by_key(T::seed_key);
        // Per side: the graph, and the id of task `t` (index into `keys`).
        let sides: Vec<(Graph<T>, Vec<TaskId>)> = [(0..n).collect(), order]
            .into_iter()
            .map(|order: Vec<usize>| {
                let mut id_of = vec![0; n];
                for (id, &t) in order.iter().enumerate() {
                    id_of[t] = id as TaskId;
                }
                let (k, d) = order.iter().map(|&t| (keys[t], deps[t])).unzip();
                (Graph::new(k, d), id_of)
            })
            .collect();
        for (graph, _) in &sides {
            let seeds: Vec<T> = graph
                .seeds
                .iter()
                .map(|&id| graph.keys[id as usize])
                .collect();
            assert_eq!(seeds, ready, "case {case}: seeds");
        }
        for policy in POLICIES.into_iter().chain([RtqPolicy::CommAware]) {
            let abort = Arc::new(AtomicBool::new(false));
            let mut engines: Vec<TaskEngine<T>> = sides
                .iter()
                .map(|(graph, _)| TaskEngine::new(graph, policy, Arc::clone(&abort)))
                .collect();
            let mut picked = [Vec::new(), Vec::new()];
            let mut left = deps.clone();
            let mut executed = 0;
            while executed < n {
                // Release one pending dependency, then run whatever is ready.
                let next = (0..n).find(|&t| left[t] > 0);
                if let Some(t) = next {
                    left[t] -= 1;
                }
                for ((e, (_, id_of)), seen) in engines.iter_mut().zip(&sides).zip(&mut picked) {
                    if let Some(t) = next {
                        e.dec_id(id_of[t], executed as f64);
                    }
                    while let Some((id, key, _)) = e.pick() {
                        e.complete(id);
                        seen.push(key);
                    }
                }
                assert_eq!(picked[0], picked[1], "case {case} {policy:?}");
                executed = picked[0].len();
            }
            for e in &engines {
                assert!(e.finished(), "case {case} {policy:?}");
                e.debug_assert_completed();
            }
        }
    }
}
