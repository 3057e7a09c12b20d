//! The ready-task queue (RTQ) and its pop policies.

use std::cmp::Reverse;
use std::collections::VecDeque;

/// Order in which ready tasks are picked from the RTQ.
///
/// The paper executes "whichever one is at the top of the queue" (LIFO) and
/// defers a comparison of policies to future work (§6) — the scheduling
/// ablation bench runs that comparison, for the fan-out engine and for the
/// baselines alike (they all schedule through the same [`ReadyQueue`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtqPolicy {
    /// Stack order — the paper's behavior.
    Lifo,
    /// Queue order.
    Fifo,
    /// Prefer tasks on lower-numbered target supernodes (closer to the
    /// critical path of the left-to-right elimination).
    CriticalPath,
    /// Overlap-driven: prefer tasks whose outputs unblock the most remote
    /// ranks (the per-task *urgency* installed via
    /// `TaskEngine::set_urgency` — the
    /// fan-out engine uses the remote consumer count of each factor task),
    /// breaking ties by
    /// [`TaskKind::priority_key`](super::TaskKind::priority_key). Tasks with no urgency recorded rank
    /// lowest, so pure-local work yields to communication-critical work.
    CommAware,
}

/// The RTQ: a deque of ready tasks popped under an [`RtqPolicy`].
///
/// Elements are whatever handle the caller schedules by — the
/// [`TaskEngine`](super::TaskEngine) queues dense task ids — so the two
/// scanning policies take the ordering functions at
/// [`pop_by`](Self::pop_by) instead of the queue owning a per-key side table.
///
/// Backed by a `VecDeque` so that *every* policy pops in O(1) amortized
/// (`CriticalPath` still scans for the minimum, but removes with
/// `swap_remove_back`): the historical `Vec::remove(0)` FIFO pop was O(n)
/// per task. Push/pop order is element-for-element identical to the old
/// `Vec` implementation (`push` ≡ `push_back`, LIFO `pop` ≡ `pop_back`,
/// FIFO `remove(0)` ≡ `pop_front`, `swap_remove` ≡ `swap_remove_back`), so
/// schedules — and therefore modeled makespans — are unchanged.
#[derive(Debug)]
pub struct ReadyQueue<T> {
    q: VecDeque<T>,
    policy: RtqPolicy,
}

impl<T> ReadyQueue<T> {
    /// An empty queue popping under `policy`.
    pub fn new(policy: RtqPolicy) -> Self {
        Self::with_capacity(policy, 0)
    }

    /// An empty queue popping under `policy`, with room for `capacity`
    /// tasks: a queue sized to its graph never regrows.
    pub(crate) fn with_capacity(policy: RtqPolicy, capacity: usize) -> Self {
        ReadyQueue {
            q: VecDeque::with_capacity(capacity),
            policy,
        }
    }

    /// The queue's pop policy.
    pub fn policy(&self) -> RtqPolicy {
        self.policy
    }

    /// Number of ready tasks waiting.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when no task is ready.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Enqueue a task that became ready.
    pub fn push(&mut self, task: T) {
        self.q.push_back(task);
    }

    /// Pop the next task according to the policy. `priority` is the
    /// element's [`TaskKind::priority_key`](super::TaskKind::priority_key)
    /// (consulted by `CriticalPath` and `CommAware`), `urgency` its
    /// remote-consumer count (`CommAware` only; 0 = none recorded).
    pub fn pop_by(
        &mut self,
        priority: impl Fn(&T) -> (usize, usize),
        urgency: impl Fn(&T) -> u64,
    ) -> Option<T> {
        match self.policy {
            RtqPolicy::Lifo => self.q.pop_back(),
            RtqPolicy::Fifo => self.q.pop_front(),
            RtqPolicy::CriticalPath => {
                let (idx, _) = self.q.iter().enumerate().min_by_key(|(_, t)| priority(t))?;
                self.q.swap_remove_back(idx)
            }
            RtqPolicy::CommAware => {
                // min_by_key returns the *first* minimal element, so ties
                // resolve deterministically toward the oldest entry.
                let (idx, _) = self
                    .q
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| (Reverse(urgency(t)), priority(t)))?;
                self.q.swap_remove_back(idx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::TaskKind;
    use super::*;
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

    fn pop(q: &mut ReadyQueue<T>, urgency: &[(usize, u64)]) -> Option<T> {
        q.pop_by(TaskKind::priority_key, |t| {
            urgency
                .iter()
                .find(|(v, _)| *v == t.0)
                .map_or(0, |&(_, u)| u)
        })
    }

    fn drain(mut q: ReadyQueue<T>) -> Vec<usize> {
        let mut out = Vec::new();
        while let Some(T(v)) = pop(&mut q, &[]) {
            out.push(v);
        }
        out
    }

    #[test]
    fn lifo_pops_stack_order() {
        let mut q = ReadyQueue::new(RtqPolicy::Lifo);
        for v in [3, 1, 4, 1, 5] {
            q.push(T(v));
        }
        assert_eq!(drain(q), vec![5, 1, 4, 1, 3]);
    }

    #[test]
    fn fifo_pops_queue_order() {
        let mut q = ReadyQueue::new(RtqPolicy::Fifo);
        for v in [3, 1, 4, 1, 5] {
            q.push(T(v));
        }
        assert_eq!(drain(q), vec![3, 1, 4, 1, 5]);
    }

    #[test]
    fn critical_path_pops_minimum_priority() {
        let mut q = ReadyQueue::new(RtqPolicy::CriticalPath);
        for v in [3, 1, 4, 2, 5] {
            q.push(T(v));
        }
        assert_eq!(drain(q), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn comm_aware_prefers_urgent_tasks_then_priority() {
        let mut q = ReadyQueue::new(RtqPolicy::CommAware);
        for v in [3, 1, 4, 2, 5] {
            q.push(T(v));
        }
        // Task 4 unblocks 3 remote ranks, task 2 unblocks 1; the rest none.
        let urgency = [(4, 3), (2, 1)];
        let order: Vec<usize> = std::iter::from_fn(|| pop(&mut q, &urgency).map(|t| t.0)).collect();
        assert_eq!(order, vec![4, 2, 1, 3, 5]);
    }

    #[test]
    fn comm_aware_without_urgencies_degrades_to_priority_order() {
        let mut q = ReadyQueue::new(RtqPolicy::CommAware);
        for v in [3, 1, 4, 2, 5] {
            q.push(T(v));
        }
        assert_eq!(drain(q), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn critical_path_swap_remove_matches_vec_semantics() {
        // Ties: min_by_key returns the first minimal element, and removal
        // swaps the back element into the hole — exactly Vec::swap_remove.
        let mut q = ReadyQueue::new(RtqPolicy::CriticalPath);
        let mut v: Vec<T> = Vec::new();
        for x in [7, 2, 9, 2, 8, 1, 1] {
            q.push(T(x));
            v.push(T(x));
        }
        while !v.is_empty() {
            let (idx, _) = v
                .iter()
                .enumerate()
                .min_by_key(|(_, k)| k.priority_key())
                .unwrap();
            let want = v.swap_remove(idx);
            assert_eq!(pop(&mut q, &[]), Some(want));
        }
        assert_eq!(pop(&mut q, &[]), None);
    }
}
