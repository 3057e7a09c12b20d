//! Block low-rank (BLR) compression benchmark: residual, factorization
//! makespan, published bytes and factor memory across a tolerance sweep,
//! versus the exact dense factorization.
//!
//! ```text
//! cargo run --release -p sympack-bench --bin blr_bench            # full sweep → BENCH_blr.json
//! cargo run --release -p sympack-bench --bin blr_bench -- --quick # small-matrix smoke (CI PR job)
//! cargo run --release -p sympack-bench --bin blr_bench -- --check # regression gate vs committed JSON
//! ```
//!
//! Every run is deterministic lockstep, so the recorded makespans, byte
//! counts and residuals are bit-stable: the full sweep rewrites
//! `BENCH_blr.json` reproducibly, and `--check` re-derives the cheap rows
//! and compares them byte-for-byte against the committed file before
//! validating the headline gates on the committed rows:
//!
//! * at `tol = 1e-8`, BLR achieves ≥ 1.3× factorization speedup and ≥ 2×
//!   published-byte reduction vs dense on at least two zoo matrices at
//!   P = 4, with relative residual ≤ 10× tol;
//! * dense rows (`tol = 0`) publish zero compressed blocks.
//!
//! The zoo pairs the two vector-FEM problems whose factors carry real
//! low-rank structure (`boneS10`, `audikw_1`) with two weakly-compressible
//! controls (`Flan_1565`, `thermal2`) that exercise the decline path.

use sympack::{BlrConfig, SolverOptions, SymPack};
use sympack_bench::gate::{self, sci, Args, Row, Rows, Suite};
use sympack_bench::Problem;
use sympack_sparse::gen;
use sympack_sparse::vecops::test_rhs;
use sympack_sparse::SparseSym;
use sympack_trace::json::Obj;

/// Rank layout of every run: P = 4 as 2 nodes × 2 ranks, CPU execution.
/// BLR pays off on CPU ranks, where update flops price at CPU rates; on
/// GPU ranks the dense updates are already throughput-cheap and the win
/// is bytes, not time (§14 of DESIGN.md).
const N_NODES: usize = 2;
const RPN: usize = 2;

/// Analyze options of the sweep: wider supernodes + amalgamation grow the
/// off-diagonal panels past the compression floor.
const MAX_SN_WIDTH: usize = 192;
const AMALGAMATION: f64 = 0.3;

/// Compression floor: panels with either dimension below this stay dense.
const MIN_BLOCK: usize = 16;

/// Refinement steps in approximate mode (tol > 0). Dense rows keep the
/// paper's refinement-off configuration so their results stay bit-identical
/// to the exact solver.
const REFINE_STEPS: usize = 2;

/// The tolerance sweep (0 = exact dense mode).
const TOLS: [f64; 5] = [0.0, 1e-10, 1e-8, 1e-6, 1e-4];

/// Headline-gate thresholds at `GATE_TOL`.
const GATE_TOL: f64 = 1e-8;
const GATE_SPEEDUP: f64 = 1.3;
const GATE_BYTES: f64 = 2.0;
const GATE_RESID_FACTOR: f64 = 10.0;

fn solver_options(tol: f64) -> SolverOptions {
    SolverOptions {
        n_nodes: N_NODES,
        ranks_per_node: RPN,
        deterministic: true,
        gpu: false,
        analyze: sympack_symbolic::AnalyzeOptions {
            max_sn_width: MAX_SN_WIDTH,
            amalgamation_ratio: AMALGAMATION,
        },
        blr: BlrConfig {
            tol,
            min_block: MIN_BLOCK,
            max_rank: usize::MAX,
        },
        refine_steps: if tol > 0.0 { REFINE_STEPS } else { 0 },
        ..Default::default()
    }
}

/// The `tol` field: `{:e}`, so the sweep's tolerances read `0e0`, `1e-8`.
fn tol_text(tol: f64) -> String {
    format!("{tol:e}")
}

/// Run one factor+solve and return its row of `BENCH_blr.json`.
fn run_config(problem: Problem, a: &SparseSym, tol: f64) -> Row {
    let b = test_rhs(a.n());
    let opts = solver_options(tol);
    let r = SymPack::try_factor_and_solve(a, &b, &opts)
        .unwrap_or_else(|e| panic!("{} tol={tol:e}: {e}", problem.name()));
    let mut publish = sympack::PublishStats::default();
    for p in &r.publish {
        publish.merge(p);
    }
    let mut blr = sympack_gpu::BlrCounters::default();
    for c in &r.blr_counts {
        blr.merge(c);
    }
    Row::from(
        Obj::new()
            .str("matrix", problem.name())
            .str("tol", &tol_text(tol))
            .u64("p", (N_NODES * RPN) as u64)
            .str("factor_time", &sci(r.factor_time))
            .str("solve_time", &sci(r.solve_time))
            .str("residual", &sci(r.relative_residual))
            // Bytes actually published (compressed blocks at `[U|V]` size).
            .u64("published_bytes", publish.published_bytes())
            // Dense-equivalent bytes of the same publications.
            .u64(
                "published_dense_equiv",
                publish.dense_bytes + publish.lr_dense_equiv_bytes,
            )
            // Retained factor memory across ranks (stored block size).
            .u64("factor_bytes", r.factor_bytes)
            .u64("net_bytes", r.stats.net_bytes)
            .u64("lr_blocks", publish.lr_blocks)
            .u64("dense_blocks", publish.dense_blocks)
            .u64("compressed", blr.compressed)
            .u64("declined", blr.declined)
            .u64("lr_updates", blr.lr_updates)
            .u64("recompressed", blr.recompressed),
    )
}

/// Smaller instances for the CI smoke: same structure, a few seconds total.
fn quick_matrix(problem: Problem) -> SparseSym {
    match problem {
        Problem::Bone => gen::bone_like(10, 10, 10),
        Problem::Audikw => gen::audikw_like(8, 8, 8),
        Problem::Flan => gen::flan_like(10, 10, 10),
        Problem::Thermal => gen::thermal_like(48, 48, 0.35, 20230),
    }
}

/// The residual bound of approximate mode at `GATE_TOL`.
fn residual_ok(residual: f64) -> bool {
    residual <= GATE_RESID_FACTOR * GATE_TOL
}

/// CI PR smoke: small instances, dense vs tol=1e-8. Compression must engage
/// on the two rank-structured problems and every residual must clear the
/// gate.
fn quick(_: &Args, out: &mut Rows) -> Result<(), String> {
    for problem in Problem::BLR_ZOO {
        let name = problem.name();
        let a = quick_matrix(problem);
        let dense = run_config(problem, &a, 0.0);
        let blr = run_config(problem, &a, GATE_TOL);
        let (db, bb) = (dense.u64("published_bytes")?, blr.u64("published_bytes")?);
        let (dense_lr, blr_lr) = (dense.u64("lr_blocks")?, blr.u64("lr_blocks")?);
        let residual = blr.f64("residual")?;
        out.push(dense);
        out.push(blr);
        if dense_lr != 0 {
            return Err(format!("{name}: dense mode must not compress"));
        }
        if !residual_ok(residual) {
            return Err(format!("{name}: quick residual {residual:.2e}"));
        }
        if matches!(problem, Problem::Bone | Problem::Audikw) {
            if bb >= db {
                return Err(format!("{name}: compression must reduce published bytes"));
            }
            if blr_lr == 0 {
                return Err(format!("{name}: no blocks compressed"));
            }
        }
    }
    Ok(())
}

/// `problems` × `tols`, in file order.
fn sweep(problems: &[Problem], tols: &[f64], out: &mut Rows) -> Result<(), String> {
    for &problem in problems {
        let a = problem.matrix_blr();
        for &tol in tols {
            out.push(run_config(problem, &a, tol));
        }
    }
    Ok(())
}

/// The headline gate, on each (dense, blr) pair at `GATE_TOL`: speedup,
/// published-byte reduction and residual, on at least two zoo matrices.
fn gate(rows: &[Row]) -> Result<String, String> {
    let mut passes = 0;
    for problem in Problem::BLR_ZOO {
        let name = problem.name();
        let find = |tol| gate::find(rows, &[("matrix", name), ("tol", &tol_text(tol))]);
        let (dense, blr) = (find(0.0)?, find(GATE_TOL)?);
        let speedup = dense.f64("factor_time")? / blr.f64("factor_time")?;
        let (db, bb) = (dense.u64("published_bytes")?, blr.u64("published_bytes")?);
        let reduction = db as f64 / bb.max(1) as f64;
        let residual = blr.f64("residual")?;
        let resid_ok = residual_ok(residual);
        println!(
            "  gate {name}: speedup {speedup:.2}x, published bytes {db} -> {bb} \
             ({reduction:.2}x), residual {residual:.2e} ({})",
            if resid_ok { "ok" } else { "TOO LARGE" },
        );
        passes += u32::from(speedup >= GATE_SPEEDUP && reduction >= GATE_BYTES && resid_ok);
    }
    if passes < 2 {
        return Err(format!(
            "BLR gate: need >= 2 matrices passing at tol={GATE_TOL:e}, got {passes}"
        ));
    }
    Ok(format!("{passes}/4 matrices"))
}

fn main() -> std::process::ExitCode {
    gate::run(&Suite {
        file: "BENCH_blr.json",
        flags: &[],
        quick,
        // The two weakly-compressible controls, dense and at the gate
        // tolerance.
        cheap: |_, out| sweep(&[Problem::Flan, Problem::Thermal], &[0.0, GATE_TOL], out),
        full: |_, out| sweep(&Problem::BLR_ZOO, &TOLS, out),
        gate,
    })
}
