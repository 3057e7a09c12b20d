//! The compiled task graph ([`sympack::taskgraph::LocalTasks`]) against a
//! naive reference, and the schedule it drives against the hashed runtime
//! it replaced.
//!
//! * `compiled_graph_matches_the_naive_enumeration`: for random and
//!   adversarial sparsity patterns × grids P ∈ {1, 2, 3, 4, 6}, every rank's
//!   compiled slice equals a hash-map enumeration of the §3.2 dependency
//!   rules written here — task multiset, initial counters, consumer lists
//!   *including order*, update → successor, operand/target blocks, fan-out
//!   destinations, block-id layout.
//! * `schedule_is_identical_to_the_hashed_runtime`: the fingerprint of the
//!   executed task sequence (with ready times, producer edges and the gauges
//!   sampled at every task boundary), the virtual makespan and the factor
//!   bits equals the golden corpus captured from the commit before the
//!   compiled graph existed.

mod common;
#[path = "../../../tests/golden/mod.rs"]
mod golden;

use common::patterns;
use golden::{Fingerprint, SOLVER};
use std::collections::{HashMap, HashSet};
use sympack::storage::{BlockKey, BlockStore};
use sympack::taskgraph::{fanout_dests, LocalTasks, TaskKey};
use sympack::{ProcGrid, RtqPolicy, SolverOptions, SymPack};
use sympack_ordering::OrderingKind;
use sympack_sparse::gen::{random_spd, thermal_like};
use sympack_sparse::vecops::test_rhs;
use sympack_sparse::SparseSym;
use sympack_symbolic::SymbolicFactor;
use sympack_trace::SpanKind;

/// One rank's slice by the §3.2 rules, in hash maps.
#[derive(Default)]
struct Reference {
    deps: HashMap<TaskKey, u32>,
    /// Consumers of factored block `(i, j)`, in decrement order.
    consumers: HashMap<BlockKey, Vec<TaskKey>>,
}

fn reference(sf: &SymbolicFactor, grid: &ProcGrid, rank: usize) -> Reference {
    let mut r = Reference::default();
    let mut updates_into: HashMap<BlockKey, u32> = HashMap::new();
    for j in 0..sf.n_supernodes() {
        let targets: Vec<usize> = sf.layout.blocks_of(j).iter().map(|b| b.target).collect();
        // U(a,j,b) for every pair a ≥ b of j's targets, run by the owner of
        // B(a,b); it waits for L(a,j) and L(b,j) and feeds B(a,b)'s task.
        for (bi, &b) in targets.iter().enumerate() {
            for &a in &targets[bi..] {
                *updates_into.entry((a, b)).or_default() += 1;
                if grid.map(a, b) != rank {
                    continue;
                }
                let key = TaskKey::Update { j, a, b };
                r.deps.insert(key, if a == b { 1 } else { 2 });
                r.consumers.entry((a, j)).or_default().push(key);
                if a != b {
                    r.consumers.entry((b, j)).or_default().push(key);
                }
            }
        }
    }
    for j in 0..sf.n_supernodes() {
        let into = |k: BlockKey| updates_into.get(&k).copied().unwrap_or(0);
        // D(j) waits for every update into B(j,j); F(i,j) for L(j,j) and
        // every update into B(i,j).
        if grid.map(j, j) == rank {
            r.deps.insert(TaskKey::Diag { j }, into((j, j)));
        }
        for b in sf.layout.blocks_of(j) {
            if grid.map(b.target, j) == rank {
                let key = TaskKey::Panel { i: b.target, j };
                r.deps.insert(key, 1 + into((b.target, j)));
                r.consumers.entry((j, j)).or_default().push(key);
            }
        }
    }
    r
}

fn check_rank(name: &str, sf: &SymbolicFactor, ap: &SparseSym, grid: &ProcGrid, rank: usize) {
    let ctx = format!("{name}, P={}, rank {rank}", grid.n_procs());
    let lt = LocalTasks::build(sf, grid, rank);
    let want = reference(sf, grid, rank);
    let keys = &lt.graph.keys;

    // Task ids are dense, rank-local and name each owned task exactly once;
    // the factor task of owned block `l` is task `l`.
    assert_eq!(keys.len(), want.deps.len(), "{ctx}: task count");
    assert_eq!(lt.graph.deps.len(), keys.len(), "{ctx}");
    let id_of: HashMap<TaskKey, u32> = keys
        .iter()
        .enumerate()
        .map(|(id, k)| (*k, id as u32))
        .collect();
    assert_eq!(id_of.len(), keys.len(), "{ctx}: duplicate task key");
    for (id, key) in keys.iter().enumerate() {
        assert_eq!(
            Some(&lt.graph.deps[id]),
            want.deps.get(key),
            "{ctx}: counter of {key:?}"
        );
    }

    // Block ids: the store's slots first, then the consumed remote blocks,
    // column-major, each exactly once and each actually consumed.
    let blocks = &lt.blocks;
    let n_owned = lt.n_owned;
    assert_eq!(
        BlockStore::init(sf, ap, grid, rank).keys(),
        &blocks[..n_owned],
        "{ctx}: owned ids are store slots"
    );
    let inputs = &blocks[n_owned..];
    assert!(
        inputs
            .windows(2)
            .all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)),
        "{ctx}: inputs column-major"
    );
    let distinct: HashSet<&BlockKey> = blocks.iter().collect();
    assert_eq!(distinct.len(), blocks.len(), "{ctx}: duplicate block");
    let remote_consumed: HashSet<BlockKey> = want
        .consumers
        .keys()
        .filter(|&&(i, j)| grid.map(i, j) != rank)
        .copied()
        .collect();
    assert_eq!(
        inputs.iter().copied().collect::<HashSet<_>>(),
        remote_consumed,
        "{ctx}: input set"
    );
    for (id, &(i, j)) in blocks.iter().enumerate() {
        let id = id as u32;
        // Consumer lists, order included.
        let got: Vec<TaskKey> = lt
            .consumers_of(id)
            .iter()
            .map(|&t| keys[t as usize])
            .collect();
        let expect = want.consumers.get(&(i, j)).cloned().unwrap_or_default();
        assert_eq!(got, expect, "{ctx}: consumers of L({i},{j})");
        if (id as usize) < n_owned {
            assert_eq!(
                lt.dests_of(id),
                fanout_dests(sf, grid, rank, i, j),
                "{ctx}: fan-out of L({i},{j})"
            );
            assert_eq!(lt.input_id((i, j)), None, "{ctx}");
        } else {
            assert_eq!(lt.input_id((i, j)), Some(id), "{ctx}");
        }
        if i != j {
            let b = sf.layout.find(i, j).expect("block in layout");
            assert_eq!(
                lt.block_rows(sf, id),
                sf.block_rows(j, b),
                "{ctx}: rows of B({i},{j})"
            );
        }
    }

    // Operands, targets and successors.
    for (id, key) in keys.iter().enumerate() {
        let ops = lt.ops[id];
        let blk = |b: u32| blocks[b as usize];
        assert!(
            (ops.target as usize) < n_owned,
            "{ctx}: {key:?} target owned"
        );
        match *key {
            TaskKey::Diag { j } => assert_eq!(blk(ops.target), (j, j), "{ctx}: {key:?}"),
            TaskKey::Panel { i, j } => {
                assert_eq!(blk(ops.target), (i, j), "{ctx}: {key:?}");
                assert_eq!(blk(ops.a), (j, j), "{ctx}: {key:?} diagonal operand");
            }
            TaskKey::Update { j, a, b } => {
                assert_eq!(blk(ops.target), (a, b), "{ctx}: {key:?}");
                assert_eq!(blk(ops.a), (a, j), "{ctx}: {key:?}");
                assert_eq!(blk(ops.b), (b, j), "{ctx}: {key:?}");
                let succ = if a == b {
                    TaskKey::Diag { j: b }
                } else {
                    TaskKey::Panel { i: a, j: b }
                };
                // The successor is the factor task of the target block, which
                // carries the block's id.
                assert_eq!(keys[ops.target as usize], succ, "{ctx}: {key:?} successor");
            }
        }
    }
}

#[test]
fn compiled_graph_matches_the_naive_enumeration() {
    for (name, a) in patterns() {
        for ordering in [OrderingKind::NestedDissection, OrderingKind::Natural] {
            let opts = SolverOptions {
                ordering,
                ..Default::default()
            };
            let sf = SymPack::analyze_only(&a, &opts);
            let ap = a.permute(sf.perm.as_slice());
            for p in [1usize, 2, 3, 4, 6] {
                let grid = ProcGrid::squarest(p);
                let mut total = 0;
                for rank in 0..p {
                    check_rank(&name, &sf, &ap, &grid, rank);
                    total += LocalTasks::build(&sf, &grid, rank).graph.keys.len();
                }
                // Every task of the global graph is owned exactly once
                // (keys are rank-disjoint because owners are).
                let global = LocalTasks::build(&sf, &ProcGrid::squarest(1), 0)
                    .graph
                    .keys
                    .len();
                assert_eq!(total, global, "{name}, P={p}: tasks partition");
            }
        }
    }
}

/// One factorization's schedule and result: per rank, every executed
/// factorization task in execution order — label, producer edge and RTQ
/// depth in `schedule`, the resident input-buffer bytes sampled at its
/// boundary in `traffic`, its ready time in `virtual` — then the virtual
/// makespan in `virtual` and the bits of the gathered factor in `bits`.
fn schedule_fingerprint(a: &SparseSym, policy: RtqPolicy, p: usize) -> Fingerprint {
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: p,
        rtq_policy: policy,
        deterministic: p > 1,
        trace: true,
        ..Default::default()
    };
    let b = test_rhs(a.n());
    let r = SymPack::try_factor_and_solve_multi(a, &[b], &opts).expect("factorization");
    let mut fp = Fingerprint::new(&SOLVER);
    for rank in 0..p {
        for ev in r.trace.iter().filter(|ev| {
            ev.rank == rank
                && ev.kind == SpanKind::Exec
                && ["D(", "F(", "U("].iter().any(|s| ev.name.starts_with(s))
        }) {
            fp.fold("schedule", &(rank as u64));
            fp.fold("schedule", ev.name.as_str());
            fp.fold("virtual", &ev.ready_at);
            fp.fold("schedule", ev.pred.as_deref().unwrap_or("-"));
            fp.fold("traffic", &ev.bytes);
            fp.fold("schedule", &(ev.rtq_depth as u64));
        }
    }
    fp.fold("virtual", &r.factor_time);
    let untraced = SolverOptions {
        trace: false,
        ..opts
    };
    let g = SymPack::factor_gather(a, &untraced).expect("gather");
    for c in 0..g.l_permuted.n() {
        fp.fold("bits", g.l_permuted.col_values(c));
    }
    fp
}

/// `schedule_fingerprint` of {`random_spd(120,5,3)`, `thermal_like(12,12,
/// 0.3,5)`} × {Lifo, Fifo, CriticalPath, CommAware} × P ∈ {1, 2, 4} against
/// the `schedule` corpus (`tests/golden/schedule.txt`, which says where the
/// cases were captured).
#[test]
fn schedule_is_identical_to_the_hashed_runtime() {
    let mats = [
        ("random_spd(120,5,3)", random_spd(120, 5, 3)),
        ("thermal_like(12,12,0.3,5)", thermal_like(12, 12, 0.3, 5)),
    ];
    let policies = [
        RtqPolicy::Lifo,
        RtqPolicy::Fifo,
        RtqPolicy::CriticalPath,
        RtqPolicy::CommAware,
    ];
    let mut cases = Vec::new();
    for (name, a) in &mats {
        for policy in policies {
            for p in [1usize, 2, 4] {
                let case = format!("{name} {policy:?} P={p}");
                cases.push((case, schedule_fingerprint(a, policy, p)));
            }
        }
    }
    golden::check("schedule", cases);
}
