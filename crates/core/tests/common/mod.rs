//! Helpers shared by the compiled-graph property tests
//! (`taskgraph_compiled_prop`, `solve_compiled_prop`, `queue_prop`): the
//! adversarial pattern zoo and the chaos job's case budget.

#![allow(dead_code)] // each test binary uses its own subset

use sympack_sparse::gen::random_spd;
use sympack_sparse::SparseSym;

/// A diagonally dominant matrix with the given strictly-lower edges.
pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> SparseSym {
    let mut cols: Vec<Vec<usize>> = (0..n).map(|c| vec![c]).collect();
    let mut degree = vec![0usize; n];
    for &(r, c) in edges {
        let (r, c) = (r.max(c), r.min(c));
        if r != c && !cols[c].contains(&r) {
            cols[c].push(r);
            degree[r] += 1;
            degree[c] += 1;
        }
    }
    let (mut col_ptr, mut row_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    for (c, rows) in cols.iter_mut().enumerate() {
        rows.sort_unstable();
        for &r in rows.iter() {
            row_idx.push(r);
            values.push(if r == c { degree[c] as f64 + 1.0 } else { -1.0 });
        }
        col_ptr.push(row_idx.len());
    }
    SparseSym::from_parts(n, col_ptr, row_idx, values)
}

/// The pattern zoo: random matrices plus the shapes that break indexing
/// schemes — empty supernode columns, one consumer of everything, several
/// elimination-tree roots, no off-diagonal block at all. `CHAOS_SEED_BUDGET`
/// (the chaos job's knob; unset = 0 here) adds that many more random
/// matrices, so the nightly sweep checks a wider zoo than a PR run.
pub fn patterns() -> Vec<(String, SparseSym)> {
    let n = 24;
    let mut v = vec![
        ("random_spd(40,3,1)", random_spd(40, 3, 1)),
        ("random_spd(60,5,2)", random_spd(60, 5, 2)),
        ("random_spd(35,8,3)", random_spd(35, 8, 3)),
        (
            "arrow",
            from_edges(n, &(0..n - 1).map(|c| (n - 1, c)).collect::<Vec<_>>()),
        ),
        (
            "one dense row",
            from_edges(n, &(0..n).map(|c| (n / 2, c)).collect::<Vec<_>>()),
        ),
        ("pure diagonal", from_edges(n, &[])),
        (
            "long chain",
            from_edges(64, &(1..64).map(|r| (r, r - 1)).collect::<Vec<_>>()),
        ),
        ("n = 1", from_edges(1, &[])),
    ];
    // Three components: a clique, a chain and an isolated vertex.
    let mut edges = Vec::new();
    for r in 0..6 {
        for c in 0..r {
            edges.push((r, c));
        }
    }
    edges.extend((7..15).map(|r| (r, r - 1)));
    v.push(("disconnected components", from_edges(16, &edges)));
    let mut v: Vec<(String, SparseSym)> = v.into_iter().map(|(k, a)| (k.into(), a)).collect();
    for seed in 0..chaos_seed_budget() {
        let (n, deg) = (30 + 7 * (seed as usize % 5), 3 + seed as usize % 4);
        let name = format!("random_spd({n},{deg},{})", 1000 + seed);
        v.push((name, random_spd(n, deg, 1000 + seed)));
    }
    v
}

/// `CHAOS_SEED_BUDGET`: how many cases the chaos job adds to a randomized
/// sweep (unset = 0 here).
pub fn chaos_seed_budget() -> u64 {
    let budget = std::env::var("CHAOS_SEED_BUDGET").ok();
    budget.and_then(|s| s.parse().ok()).unwrap_or(0)
}
