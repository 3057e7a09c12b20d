//! The compiled triangular solve ([`sympack::solve_tasks::SolveTasks`])
//! against a naive reference, and the schedule it drives against the hashed
//! solve engine it replaced.
//!
//! * `solve_schedule_is_identical_to_the_hashed_engine`: the fingerprint of
//!   one traced panel solve — every span of every rank in timeline order
//!   (task label, virtual start/duration, ready time, producer edge, RTQ
//!   depth; for the message spans peer and charged bytes), the virtual
//!   makespan and the solution bits, in the `schedule` / `traffic` /
//!   `virtual` / `bits` columns — equals the golden corpus captured from the
//!   commit before the compiled solve existed.
//! * `compiled_solve_matches_the_naive_enumeration`: over the pattern zoo ×
//!   P ∈ {1, 2, 3, 4, 6}, every rank's compiled slice equals a hash-map
//!   enumeration of the solve's dependency rules written here.

mod common;
#[path = "../../../tests/golden/mod.rs"]
mod golden;

use common::patterns;
use golden::{Fingerprint, SOLVER};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use sympack::map2d::distinct_owners;
use sympack::plan::{factor_numeric, solve_panel_distributed};
use sympack::sched::TaskKind;
use sympack::solve_tasks::{Dest, SolveTasks};
use sympack::storage::BlockStore;
use sympack::trisolve::SolveKey;
use sympack::{BlrConfig, ProcGrid, RtqPolicy, SolvePlan, SolverOptions, SymPack};
use sympack_ordering::OrderingKind;
use sympack_sparse::gen::{bone_like, random_spd, thermal_like};
use sympack_sparse::SparseSym;
use sympack_symbolic::SymbolicFactor;

/// One traced `n × nrhs` panel solve under lockstep: per rank, every span
/// in timeline order — task label, name, producer edge and RTQ depth in
/// `schedule`; peer and charged bytes in `traffic`; virtual start, duration
/// and ready time, then the solve makespan, in `virtual` — and the solution
/// in `bits`.
fn solve_fingerprint(
    a: &SparseSym,
    blr: BlrConfig,
    policy: RtqPolicy,
    p: usize,
    nrhs: usize,
) -> Fingerprint {
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: p,
        rtq_policy: policy,
        deterministic: true,
        trace: true,
        blr,
        ..Default::default()
    };
    let plan = SolvePlan::new(a, &opts);
    let nf = factor_numeric(&plan, &Arc::new(plan.permute(a))).expect("factorization");
    if blr.enabled() {
        let stored = nf.stores.iter().flat_map(|s| s.iter());
        assert!(
            stored.filter(|(_, b)| b.is_lowrank()).count() > 0,
            "the BLR row solves against no compressed block"
        );
    }
    let n = a.n();
    let mut bp = vec![0.0; n * nrhs];
    for (k, col) in bp.chunks_mut(n).enumerate() {
        let b: Vec<f64> = (0..n).map(|i| ((i + 3 * k) as f64 * 0.37).cos()).collect();
        col.copy_from_slice(&plan.sf().perm.apply_vec(&b));
    }
    let s = solve_panel_distributed(&plan, &nf.stores, &bp, nrhs).expect("solve");
    let mut fp = Fingerprint::new(&SOLVER);
    for rank in 0..p {
        for ev in s.trace.iter().filter(|ev| ev.rank == rank) {
            fp.fold("schedule", &(rank as u64));
            fp.fold("schedule", ev.kind.label());
            fp.fold("schedule", ev.name.as_str());
            fp.fold("virtual", &ev.start);
            fp.fold("virtual", &ev.dur);
            fp.fold("virtual", &ev.ready_at);
            fp.fold("schedule", ev.pred.as_deref().unwrap_or("-"));
            fp.fold("traffic", &ev.peer.map_or(u64::MAX, |r| r as u64));
            fp.fold("traffic", &ev.bytes);
            fp.fold("schedule", &(ev.rtq_depth as u64));
        }
    }
    fp.fold("virtual", &s.solve_time);
    fp.fold("bits", s.xp.as_slice());
    fp
}

/// `solve_fingerprint` of {`random_spd(120,5,3)`, `thermal_like(12,12,0.3,
/// 5)`, `bone_like(6,6,5)` factored with BLR compression} × {Lifo, Fifo,
/// CriticalPath} × P ∈ {1, 2, 4} × nrhs ∈ {1, 16}, against the `solve`
/// corpus (`tests/golden/solve.txt`, which says where each case was
/// captured).
#[test]
fn solve_schedule_is_identical_to_the_hashed_engine() {
    let compress = BlrConfig {
        tol: 1e-8,
        min_block: 8,
        max_rank: usize::MAX,
    };
    let mats = [
        (
            "random_spd(120,5,3)",
            random_spd(120, 5, 3),
            BlrConfig::default(),
        ),
        (
            "thermal_like(12,12,0.3,5)",
            thermal_like(12, 12, 0.3, 5),
            BlrConfig::default(),
        ),
        ("bone_like(6,6,5)+blr", bone_like(6, 6, 5), compress),
    ];
    let policies = [RtqPolicy::Lifo, RtqPolicy::Fifo, RtqPolicy::CriticalPath];
    let mut cases = Vec::new();
    for (name, a, blr) in &mats {
        for policy in policies {
            for p in [1usize, 2, 4] {
                for nrhs in [1usize, 16] {
                    let case = format!("solve {name} {policy:?} P={p} nrhs={nrhs}");
                    cases.push((case, solve_fingerprint(a, *blr, policy, p, nrhs)));
                }
            }
        }
    }
    golden::check("solve", cases);
}

/// Solve makespan and solution bits of the one-shot driver with two
/// refinement steps (the `allgather_solution` + correction-solve path) on
/// `thermal_like(12,12,0.3,5)` at P ∈ {1, 2, 4} under lockstep, against the
/// `solve` corpus.
#[test]
fn refined_solve_is_bit_identical() {
    let a = thermal_like(12, 12, 0.3, 5);
    let b = sympack_sparse::vecops::test_rhs(a.n());
    let cases: Vec<(String, Fingerprint)> = [1usize, 2, 4]
        .into_iter()
        .map(|p| {
            let opts = SolverOptions {
                n_nodes: 1,
                ranks_per_node: p,
                deterministic: true,
                refine_steps: 2,
                ..Default::default()
            };
            let r = SymPack::try_factor_and_solve(&a, &b, &opts).expect("refined solve");
            let mut fp = Fingerprint::new(&["virtual", "bits"]);
            fp.fold("virtual", &r.solve_time);
            fp.fold("bits", r.x.as_slice());
            (format!("refined thermal_like(12,12,0.3,5) P={p}"), fp)
        })
        .collect();
    golden::check("solve", cases);
}

/// One rank's slice of the solve by its dependency rules, in hash maps.
#[derive(Default)]
struct Reference {
    deps: HashMap<SolveKey, u32>,
    /// `j → (i, j)`: the blocks `Y_j` releases here, in release order.
    by_y: HashMap<usize, Vec<(usize, usize)>>,
    /// `i → (i, j)`: the blocks `X_i` releases here, in release order.
    by_x: HashMap<usize, Vec<(usize, usize)>>,
}

fn reference(sf: &SymbolicFactor, grid: &ProcGrid, rank: usize) -> Reference {
    let mut r = Reference::default();
    let mut incoming: HashMap<usize, u32> = HashMap::new();
    for j in 0..sf.n_supernodes() {
        for b in sf.layout.blocks_of(j) {
            let i = b.target;
            // B(i,j) sends one contribution to supernode i going forward.
            *incoming.entry(i).or_default() += 1;
            if grid.map(i, j) == rank {
                r.by_y.entry(j).or_default().push((i, j));
                r.by_x.entry(i).or_default().push((i, j));
            }
        }
    }
    // One task per (sweep, panel) with blocks to release here; each waits
    // for the one panel its blocks multiply.
    let rank = rank as u32;
    for &j in r.by_y.keys() {
        r.deps.insert(SolveKey::FwdCol { j, rank }, 1);
    }
    for &i in r.by_x.keys() {
        r.deps.insert(SolveKey::BwdRow { i, rank }, 1);
    }
    for j in (0..sf.n_supernodes()).filter(|&j| grid.map(j, j) == rank as usize) {
        // Forward: one contribution per block targeting j. Backward: one per
        // block of column j, plus the guard released at the sweep switch.
        let fwd = incoming.get(&j).copied().unwrap_or(0);
        r.deps.insert(SolveKey::FwdDiag { j }, fwd);
        let bwd = sf.layout.blocks_of(j).len() as u32 + 1;
        r.deps.insert(SolveKey::BwdDiag { j }, bwd);
    }
    r
}

fn check_solve_rank(
    name: &str,
    sf: &SymbolicFactor,
    ap: &SparseSym,
    grid: &ProcGrid,
    all: &[Arc<SolveTasks>],
    rank: usize,
) {
    let ctx = format!("{name}, P={}, rank {rank}", grid.n_procs());
    let (t, want) = (&all[rank], reference(sf, grid, rank));
    let keys = &t.graph.keys;

    // Dense ids, each owned task exactly once, with the rules' counters.
    assert_eq!(keys.len(), want.deps.len(), "{ctx}: task count");
    assert_eq!(t.graph.deps.len(), keys.len(), "{ctx}");
    let distinct: HashSet<&SolveKey> = keys.iter().collect();
    assert_eq!(distinct.len(), keys.len(), "{ctx}: duplicate task key");
    for (id, key) in keys.iter().enumerate() {
        let got = Some(&t.graph.deps[id]);
        assert_eq!(got, want.deps.get(key), "{ctx}: counter of {key:?}");
    }

    // The seeds are the zero-dependency tasks in seed-key order.
    let mut seeds: Vec<u32> = (0..keys.len() as u32)
        .filter(|&id| t.graph.deps[id as usize] == 0)
        .collect();
    seeds.sort_by_key(|&id| keys[id as usize].seed_key());
    assert_eq!(t.graph.seeds, seeds, "{ctx}: seed order");

    // Panels: ascending, back to back in the arena, each one needed here.
    let (mut off, mut holds) = (0, HashSet::new());
    for (l, p) in t.panels.iter().enumerate() {
        assert!(l == 0 || t.panels[l - 1].sn < p.sn, "{ctx}: ascending");
        let w = sf.partition.width(p.sn);
        assert_eq!((p.off, p.w), (off, w), "{ctx}: panel {l}");
        off += p.w;
        holds.insert(p.sn);
    }
    assert_eq!(t.arena_rows(), off, "{ctx}");
    let needed: HashSet<usize> = (want.by_y.keys().chain(want.by_x.keys()).copied())
        .chain((0..sf.n_supernodes()).filter(|&j| grid.map(j, j) == rank))
        .collect();
    assert_eq!(holds, needed, "{ctx}: panel set");

    // Diagonals first, two ids each; then one id per group, whose panel and
    // blocks (release order included) are the rule's.
    let store = BlockStore::init(sf, ap, grid, rank);
    let block = |slot: u32| store.keys()[slot as usize];
    let sn_at = |r: u32, panel: u32| all[r as usize].panels[panel as usize].sn;
    for (k, d) in t.diags.iter().enumerate() {
        let j = sn_at(rank as u32, d.panel);
        let keys = [SolveKey::FwdDiag { j }, SolveKey::BwdDiag { j }];
        assert_eq!([keys_at(t, 2 * k), keys_at(t, 2 * k + 1)], keys, "{ctx}");
        assert_eq!(block(d.slot), (j, j), "{ctx}: slot of L({j},{j})");
    }
    assert_eq!(
        t.group_id(0) as usize,
        2 * t.diags.len(),
        "{ctx}: group ids follow"
    );
    for (g, &panel) in t.groups.iter().enumerate() {
        let sn = t.panels[panel as usize].sn;
        let blocks: Vec<(usize, usize)> = t.blocks(g).iter().map(|&s| block(s)).collect();
        let (rule, want_key) = match keys_at(t, t.group_id(g) as usize) {
            SolveKey::FwdCol { j, rank: r } => (&want.by_y, (j, r, 0)),
            SolveKey::BwdRow { i, rank: r } => (&want.by_x, (i, r, 1)),
            key => panic!("{ctx}: group {g} is {key:?}"),
        };
        assert_eq!(
            (want_key.0, want_key.1),
            (sn, rank as u32),
            "{ctx}: group {g}"
        );
        assert_eq!(
            Some(&blocks),
            rule.get(&sn),
            "{ctx}: sweep {} blocks of {sn}",
            want_key.2
        );
    }

    // One op per store slot; destinations name the receiver's own group /
    // diagonal of the right supernode.
    assert_eq!(t.ops.len(), store.len(), "{ctx}: one op per owned block");
    let diag_at = |to: Dest| {
        let there = &all[to.rank as usize];
        sn_at(to.rank, there.diags[to.idx as usize].panel)
    };
    let group_at = |to: Dest| {
        keys_at(
            &all[to.rank as usize],
            all[to.rank as usize].group_id(to.idx as usize) as usize,
        )
    };
    let mut diags = Vec::new();
    for (slot, (op, &(i, j))) in t.ops.iter().zip(store.keys()).enumerate() {
        if i == j {
            diags.push(slot as u32);
            let k = t
                .diags
                .iter()
                .position(|d| d.slot == slot as u32)
                .expect("diagonal");
            let col = sf.layout.blocks_of(j).iter().map(|b| grid.map(b.target, j));
            let row = (0..j).filter(|&k| sf.layout.find(j, k).is_some());
            let fan = [
                distinct_owners(col),
                distinct_owners(row.map(|k| grid.map(j, k))),
            ];
            for (sweep, want) in fan.iter().enumerate() {
                let got = t.dests(sweep, k);
                let ranks: Vec<usize> = got.iter().map(|d| d.rank as usize).collect();
                assert_eq!(&ranks, want, "{ctx}: sweep {sweep} fan-out of {j}");
                for &d in got {
                    let rank = d.rank;
                    let key = [
                        SolveKey::FwdCol { j, rank },
                        SolveKey::BwdRow { i: j, rank },
                    ];
                    assert_eq!(group_at(d), key[sweep], "{ctx}: {d:?} is {:?}", key[sweep]);
                }
            }
        } else {
            assert_eq!(op.j as usize, j, "{ctx}: column of B({i},{j})");
            let b = sf.layout.find(i, j).expect("block in layout");
            let rows = (b.row_offset as u32, b.n_rows as u32);
            assert_eq!(op.rows, rows, "{ctx}: rows of B({i},{j})");
            let owners = [grid.map(i, i), grid.map(j, j)];
            assert_eq!(op.to.map(|d| d.rank as usize), owners, "{ctx}");
            assert_eq!(op.to.map(diag_at), [i, j], "{ctx}: targets of B({i},{j})");
        }
    }
    let slots: Vec<u32> = t.diags.iter().map(|d| d.slot).collect();
    assert_eq!(slots, diags, "{ctx}: diagonal slots");
}

/// The key of task `id` in `t`.
fn keys_at(t: &SolveTasks, id: usize) -> SolveKey {
    t.graph.keys[id]
}

#[test]
fn compiled_solve_matches_the_naive_enumeration() {
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
                let all = SolveTasks::build_all(&sf, &grid);
                assert_eq!(all.len(), p, "{name}: one slice per rank");
                for rank in 0..p {
                    check_solve_rank(&name, &sf, &ap, &grid, &all, rank);
                }
                // Every supernode is substituted, every block multiplied, on
                // exactly one rank, once per sweep.
                let diags: usize = all.iter().map(|t| t.diags.len()).sum();
                let ops: usize = all.iter().map(|t| t.ops.len()).sum();
                let blocks = sf.n_supernodes() + sf.layout.n_off_diagonal();
                assert_eq!((diags, ops), (sf.n_supernodes(), blocks), "{name}, P={p}");
                let grouped: usize = all
                    .iter()
                    .flat_map(|t| (0..t.groups.len()).map(move |g| t.blocks(g).len()))
                    .sum();
                let n_off = sf.layout.n_off_diagonal();
                assert_eq!(grouped, 2 * n_off, "{name}, P={p}");
            }
        }
    }
}

/// The solve runs one task per owned diagonal and sweep, and one per
/// (sweep, panel, rank) that owns blocks the panel releases: on
/// `thermal_like(60, 60, 0.35, 1)` at P ∈ {1, 2}, the executed solve tasks
/// of a one-shot run, per kind, are `ns` substitutions per sweep and, per
/// sweep, the distinct owners of each column's / row's blocks summed over
/// the supernodes — counted here from the layout alone.
#[test]
fn one_solve_task_per_diagonal_and_per_released_group() {
    let a = thermal_like(60, 60, 0.35, 1);
    let b = sympack_sparse::vecops::test_rhs(a.n());
    for p in [1usize, 2] {
        let opts = SolverOptions {
            n_nodes: 1,
            ranks_per_node: p,
            deterministic: true,
            ..Default::default()
        };
        let r = SymPack::try_factor_and_solve(&a, &b, &opts).expect("solve");
        let plan = SolvePlan::new(&a, &opts);
        let (sf, grid) = (plan.sf(), ProcGrid::squarest(p));
        let ns = sf.n_supernodes();
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); ns];
        let mut cols = 0;
        for j in 0..ns {
            let owners = sf.layout.blocks_of(j).iter().map(|b| grid.map(b.target, j));
            cols += distinct_owners(owners).len();
            for blk in sf.layout.blocks_of(j) {
                rows[blk.target].push(grid.map(blk.target, j));
            }
        }
        let rows: usize = rows.into_iter().map(|o| distinct_owners(o).len()).sum();
        let count = |kind: &str| {
            let found = r.task_counts.iter().find(|(k, _)| k == kind);
            found.map_or(0, |&(_, n)| n as usize)
        };
        let got = ["fwd_diag", "bwd_diag", "fwd_col", "bwd_row"].map(count);
        assert_eq!(
            got,
            [ns, ns, cols, rows],
            "P={p}: executed solve tasks per kind"
        );
        let total: usize = plan
            .symbolic
            .solve_tasks
            .iter()
            .map(|t| t.graph.keys.len())
            .sum();
        assert_eq!(
            got.iter().sum::<usize>(),
            total,
            "P={p}: every compiled task ran"
        );
        assert!(cols < sf.layout.n_off_diagonal(), "P={p}: nothing grouped");
    }
}
