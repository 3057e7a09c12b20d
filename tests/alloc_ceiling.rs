//! Allocation ceilings of a solver session's phases.
//!
//! A counting `#[global_allocator]` (so this binary holds this one test and
//! nothing else) counts every `alloc`, `alloc_zeroed` and `realloc` the
//! process makes while one phase runs: `Session::new`, the first solve, a
//! warm one-RHS solve, a 16-RHS panel solve and `refactorize`, on
//! `flan_like(16³)` and `thermal_like(60, 60, 0.35, 1)` at P ∈ {1, 2},
//! under deterministic lockstep so that the counts repeat.
//!
//! The triangular solve streams the factor: the one-RHS solve at P = 1
//! stays under [`WARM_SOLVE_P1`] allocations however many blocks the factor
//! has. Every other row is a ceiling at the count measured when it was
//! pinned (a failure prints every count): a phase that starts allocating
//! per task or per message again fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use sympack::SolverOptions;
use sympack_service::{RhsPanel, Session};
use sympack_sparse::{gen, SparseSym};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments to `System` unchanged, so the
// caller's side of each `GlobalAlloc` contract is `System`'s; the counter
// is the only addition and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let r = f();
    (r, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

/// A warm one-RHS solve at P = 1 allocates at most this many times, on
/// every matrix: the solve's set-up and hand-back, nothing per task.
const WARM_SOLVE_P1: u64 = 128;

const PHASES: [&str; 5] = [
    "Session::new",
    "first solve",
    "warm solve",
    "16-RHS panel",
    "refactorize",
];

/// `(matrix, P, ceiling per phase)`, phases in [`PHASES`] order: the counts
/// of a release and a debug build alike, under the test harness's output
/// capture, which costs every spawned rank thread two allocations (run with
/// `--nocapture`, a phase reads two fewer per rank thread it spawned).
const CEILINGS: [(&str, usize, [u64; 5]); 4] = [
    ("flan_like(16³)", 1, [8383, 70, 70, 85, 5038]),
    ("flan_like(16³)", 2, [16140, 2875, 2875, 2903, 12609]),
    (
        "thermal_like(60, 60, 0.35, 1)",
        1,
        [13672, 73, 73, 85, 7830],
    ),
    (
        "thermal_like(60, 60, 0.35, 1)",
        2,
        [24034, 4222, 4222, 4247, 17993],
    ),
];

fn matrix(name: &str) -> SparseSym {
    match name {
        "flan_like(16³)" => gen::flan_like(16, 16, 16),
        "thermal_like(60, 60, 0.35, 1)" => gen::thermal_like(60, 60, 0.35, 1),
        other => unreachable!("no matrix {other}"),
    }
}

/// The five phases' allocation counts on `a` at `p` ranks.
fn phase_counts(a: &SparseSym, p: usize) -> [u64; 5] {
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: p,
        deterministic: true,
        ..Default::default()
    };
    let n = a.n();
    let b: Vec<f64> = (0..n).map(|i| ((i + 1) as f64 * 0.37).sin()).collect();
    let panel: Vec<f64> = (0..16 * n).map(|i| ((i + 3) as f64 * 0.11).cos()).collect();
    let panel = [RhsPanel::new(n, 16, panel)];
    let values: Vec<f64> = (0..n)
        .flat_map(|c| a.col_values(c))
        .map(|v| 1.5 * v)
        .collect();

    let (mut session, new) = counted(|| Session::new(a, &opts).expect("session"));
    let (x, first) = counted(|| session.solve(&b).expect("first solve"));
    assert!(a.relative_residual(&x, &b) < 1e-10);
    let (x, warm) = counted(|| session.solve(&b).expect("warm solve"));
    assert!(a.relative_residual(&x, &b) < 1e-10);
    let (out, batch) = counted(|| session.solve_batch(&panel).expect("panel solve"));
    assert!(a.relative_residual(out.panels[0].column(15), panel[0].column(15)) < 1e-10);
    let (_, refactor) = counted(|| session.refactorize(&values).expect("refactorize"));
    [new, first, warm, batch, refactor]
}

#[test]
fn session_phases_stay_under_their_allocation_ceilings() {
    let mut over = Vec::new();
    for (name, p, ceilings) in CEILINGS {
        let counts = phase_counts(&matrix(name), p);
        println!("{name} P={p}: {counts:?}");
        for ((phase, count), ceiling) in PHASES.iter().zip(counts).zip(ceilings) {
            if count > ceiling {
                over.push(format!("{name} P={p} {phase}: {count} > {ceiling}"));
            }
        }
        if p == 1 && counts[2] > WARM_SOLVE_P1 {
            over.push(format!(
                "{name} warm solve: {} > {WARM_SOLVE_P1}",
                counts[2]
            ));
        }
    }
    assert!(
        over.is_empty(),
        "allocation ceilings exceeded:\n{}\n(counts printed above)",
        over.join("\n")
    );
}
