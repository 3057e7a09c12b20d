//! The compiled triangular solve ([`sympack::solve_tasks::SolveTasks`])
//! against a naive reference, and the schedule it drives against the hashed
//! solve engine it replaced.
//!
//! * `solve_schedule_is_identical_to_the_hashed_engine`: an FNV-1a
//!   fingerprint of one traced panel solve — every span of every rank in
//!   timeline order (task label, virtual start/duration, ready time,
//!   producer edge, RTQ depth; for the message spans peer and charged
//!   bytes), the virtual makespan and the solution bits — equals constants
//!   captured from the commit before the compiled solve existed.
//! * `compiled_solve_matches_the_naive_enumeration`: over the pattern zoo ×
//!   P ∈ {1, 2, 3, 4, 6}, every rank's compiled slice equals a hash-map
//!   enumeration of the solve's dependency rules written here.

mod common;

use common::{fnv, patterns, FNV_OFFSET};
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

/// FNV-1a over one traced `n × nrhs` panel solve under lockstep.
fn solve_fingerprint(
    a: &SparseSym,
    blr: BlrConfig,
    policy: RtqPolicy,
    p: usize,
    nrhs: usize,
) -> u64 {
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
    let mut h = FNV_OFFSET;
    for rank in 0..p {
        for ev in s.trace.iter().filter(|ev| ev.rank == rank) {
            fnv(&mut h, &(rank as u64).to_le_bytes());
            fnv(&mut h, ev.kind.label().as_bytes());
            fnv(&mut h, ev.name.as_bytes());
            fnv(&mut h, &ev.start.to_bits().to_le_bytes());
            fnv(&mut h, &ev.dur.to_bits().to_le_bytes());
            fnv(&mut h, &ev.ready_at.to_bits().to_le_bytes());
            fnv(&mut h, ev.pred.as_deref().unwrap_or("-").as_bytes());
            fnv(
                &mut h,
                &(ev.peer.map_or(u64::MAX, |r| r as u64)).to_le_bytes(),
            );
            fnv(&mut h, &ev.bytes.to_le_bytes());
            fnv(&mut h, &(ev.rtq_depth as u64).to_le_bytes());
        }
    }
    fnv(&mut h, &s.solve_time.to_bits().to_le_bytes());
    for v in &s.xp {
        fnv(&mut h, &v.to_bits().to_le_bytes());
    }
    h
}

/// `solve_fingerprint` of {`random_spd(120,5,3)`, `thermal_like(12,12,0.3,
/// 5)`, `bone_like(6,6,5)` factored with BLR compression} × {Lifo, Fifo,
/// CriticalPath} × P ∈ {1, 2, 4} × nrhs ∈ {1, 16}, in that nesting order,
/// as printed by this test at commit 3830156 (the last one with the hashed
/// `SolveEngine`) — except the 18 `bone_like` rows (36–53), re-pinned when
/// the packed dense core went from `mul` + `add` to fused multiply-add: the
/// only matrix here whose supernodes reach the packed path. Only their
/// solution bits moved; every span, byte count, compressed-block count and
/// both makespans of those rows are unchanged (EXPERIMENTS.md "PR 19").
const PARENT_FINGERPRINTS: [u64; 54] = [
    0x6577c1db00b620a1,
    0x37b369cce773f1f4,
    0xea12c32b0c0f5bcf,
    0xa0ad89429cb70683,
    0x2d327cd497ac76ba,
    0x68ce95d3b39b77c8,
    0xc93a60b820eec13c,
    0xfd5177a1c97b5cd7,
    0x447dba3dc7241a17,
    0xa0fe9efdb8c87361,
    0xf5f316edb0df2f75,
    0x084003abd3d8b93d,
    0xf254ec0d75974107,
    0x52bf40550dbb38b2,
    0xed9d5dbe47122932,
    0x202bce5941c15e50,
    0x3bfc4392d9b5ae79,
    0x06cdbb8b12ab46c6,
    0x05b574ea96d1409c,
    0xa1a6491bd9500e2b,
    0xb85878e70b2a116f,
    0x63ffe9e12927464f,
    0xa6ecbcbf6ca8dca4,
    0x223569dc955368c6,
    0x881c28a761408bf9,
    0x2c21156416bdd969,
    0xdc80e8cac1e7fb6b,
    0x74dd7c53a27354ff,
    0x4a2a8300aedabccf,
    0x689f95859aae5b33,
    0xa08549b82168bf55,
    0xa41233ec1c94cb2a,
    0x099fcf61814c1de6,
    0x57c5f4821cee0f1a,
    0xe53915c21791c643,
    0xbe507d6ffce3e8ae,
    0xa74f67071d2a0539,
    0x898af047a4cb1929,
    0x9d7486eca9ffab76,
    0x29ffdaa405e6fb58,
    0x3567efefafb772a9,
    0xd8d75425ab64b0cb,
    0x069ff09e7566ce21,
    0xec1032d201b236a5,
    0xa782a38c4085ea70,
    0x1831428f3fd56096,
    0xd64af4b427f35cae,
    0xfbdcc35b4f1423da,
    0xf678299053048810,
    0x99e54fcc4c7a1318,
    0xe3cdf07572323b0f,
    0xcebc9bc4be1f3770,
    0xc130ecbeb0c5834e,
    0x9c288e52e1c99524,
];

#[test]
fn solve_schedule_is_identical_to_the_hashed_engine() {
    let compress = BlrConfig {
        tol: 1e-8,
        min_block: 8,
        max_rank: usize::MAX,
    };
    let mats = [
        (random_spd(120, 5, 3), BlrConfig::default()),
        (thermal_like(12, 12, 0.3, 5), BlrConfig::default()),
        (bone_like(6, 6, 5), compress),
    ];
    let policies = [RtqPolicy::Lifo, RtqPolicy::Fifo, RtqPolicy::CriticalPath];
    let mut got = Vec::new();
    for (a, blr) in &mats {
        for policy in policies {
            for p in [1usize, 2, 4] {
                for nrhs in [1usize, 16] {
                    got.push(solve_fingerprint(a, *blr, policy, p, nrhs));
                }
            }
        }
    }
    assert_eq!(
        got, PARENT_FINGERPRINTS,
        "solve schedule, clock or solution bits changed; got {got:#018x?}"
    );
}

/// Solve makespan and solution bits of the one-shot driver with two
/// refinement steps (the `allgather_solution` + correction-solve path) on
/// `thermal_like(12,12,0.3,5)` at P ∈ {1, 2, 4} under lockstep, captured at
/// commit 3830156.
const PARENT_REFINED: [u64; 3] = [0xc85be4c764e47a38, 0x71ccc4c8e19bfb8c, 0xe1db729f25249d51];

#[test]
fn refined_solve_is_bit_identical() {
    let a = thermal_like(12, 12, 0.3, 5);
    let b = sympack_sparse::vecops::test_rhs(a.n());
    let got: Vec<u64> = [1usize, 2, 4]
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
            let mut h = FNV_OFFSET;
            fnv(&mut h, &r.solve_time.to_bits().to_le_bytes());
            for v in &r.x {
                fnv(&mut h, &v.to_bits().to_le_bytes());
            }
            h
        })
        .collect();
    assert_eq!(
        got, PARENT_REFINED,
        "refinement clock or solution bits changed; got {got:#018x?}"
    );
}

/// One rank's slice of the solve by its dependency rules, in hash maps.
#[derive(Default)]
struct Reference {
    deps: HashMap<SolveKey, u32>,
    /// `j → FwdGemv`s released by `Y_j`, in decrement order.
    by_y: HashMap<usize, Vec<SolveKey>>,
    /// `i → BwdGemv`s released by `X_i`, in decrement order.
    by_x: HashMap<usize, Vec<SolveKey>>,
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
                // Each GEMV waits for the one panel it multiplies.
                r.deps.insert(SolveKey::FwdGemv { i, j }, 1);
                r.deps.insert(SolveKey::BwdGemv { i, j }, 1);
                r.by_y
                    .entry(j)
                    .or_default()
                    .push(SolveKey::FwdGemv { i, j });
                r.by_x
                    .entry(i)
                    .or_default()
                    .push(SolveKey::BwdGemv { i, j });
            }
        }
    }
    for j in (0..sf.n_supernodes()).filter(|&j| grid.map(j, j) == rank) {
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
    let key_of = |slot: u32, sweep: usize| keys[2 * slot as usize + sweep];

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
        // Release lists, order included.
        for (sweep, rule) in [&want.by_y, &want.by_x].into_iter().enumerate() {
            let released = t.released_by(sweep, l).iter();
            let got: Vec<SolveKey> = released.map(|&slot| key_of(slot, sweep)).collect();
            let want = rule.get(&p.sn).cloned().unwrap_or_default();
            assert_eq!(got, want, "{ctx}: sweep {sweep} releases of {}", p.sn);
        }
    }
    assert_eq!(t.arena_rows(), off, "{ctx}");
    let needed: HashSet<usize> = (want.by_y.keys().chain(want.by_x.keys()).copied())
        .chain((0..sf.n_supernodes()).filter(|&j| grid.map(j, j) == rank))
        .collect();
    assert_eq!(holds, needed, "{ctx}: panel set");

    // One op per store slot; its tasks carry the block's key; destinations
    // name the receiver's own panel / diagonal slot of the right supernode.
    let store = BlockStore::init(sf, ap, grid, rank);
    assert_eq!(t.ops.len(), store.len(), "{ctx}: one op per owned block");
    let sn_at = |r: u32, panel: u32| all[r as usize].panels[panel as usize].sn;
    let diag_at = |to: Dest| {
        let there = &all[to.rank as usize];
        assert!(there.diags.contains(&to.idx), "{ctx}: {to:?} is a diagonal");
        sn_at(to.rank, there.ops[to.idx as usize].panel[0])
    };
    let mut diags = Vec::new();
    for (slot, (op, &(i, j))) in t.ops.iter().zip(store.keys()).enumerate() {
        let panels = op.panel.map(|l| t.panels[l as usize].sn);
        if i == j {
            diags.push(slot as u32);
            let keys = [SolveKey::FwdDiag { j }, SolveKey::BwdDiag { j }];
            assert_eq!([0, 1].map(|s| key_of(slot as u32, s)), keys, "{ctx}");
            assert_eq!(panels, [j, j], "{ctx}: panel of L({j},{j})");
            let col = sf.layout.blocks_of(j).iter().map(|b| grid.map(b.target, j));
            let row = (0..j).filter(|&k| sf.layout.find(j, k).is_some());
            let fan = [
                distinct_owners(col),
                distinct_owners(row.map(|k| grid.map(j, k))),
            ];
            for (sweep, want) in fan.iter().enumerate() {
                let got = t.dests(sweep, slot);
                let ranks: Vec<usize> = got.iter().map(|d| d.rank as usize).collect();
                assert_eq!(&ranks, want, "{ctx}: sweep {sweep} fan-out of {j}");
                for d in got {
                    assert_eq!(sn_at(d.rank, d.idx), j, "{ctx}: {d:?} is panel {j}");
                }
            }
        } else {
            let keys = [SolveKey::FwdGemv { i, j }, SolveKey::BwdGemv { i, j }];
            assert_eq!([0, 1].map(|s| key_of(slot as u32, s)), keys, "{ctx}");
            assert_eq!(panels, [j, i], "{ctx}: Y/X sources of B({i},{j})");
            let b = sf.layout.find(i, j).expect("block in layout");
            let rows = (b.row_offset as u32, b.n_rows as u32);
            assert_eq!(op.rows, rows, "{ctx}: rows of B({i},{j})");
            let owners = [grid.map(i, i), grid.map(j, j)];
            assert_eq!(op.to.map(|d| d.rank as usize), owners, "{ctx}");
            assert_eq!(op.to.map(diag_at), [i, j], "{ctx}: targets of B({i},{j})");
            for sweep in 0..2 {
                assert!(
                    t.dests(sweep, slot).is_empty(),
                    "{ctx}: B({i},{j}) fans out"
                );
            }
        }
    }
    assert_eq!(t.diags, diags, "{ctx}: diagonal slots");
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
                // exactly one rank.
                let diags: usize = all.iter().map(|t| t.diags.len()).sum();
                let ops: usize = all.iter().map(|t| t.ops.len()).sum();
                let blocks = sf.n_supernodes() + sf.layout.n_off_diagonal();
                assert_eq!((diags, ops), (sf.n_supernodes(), blocks), "{name}, P={p}");
            }
        }
    }
}
