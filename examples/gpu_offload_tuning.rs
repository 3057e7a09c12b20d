//! GPU offload-threshold tuning, the knob §4.2 exposes: "symPACK also
//! allows the user to specify each threshold manually".
//!
//! Sweeps a scale factor over the default per-op thresholds on a 3D problem
//! and prints the modeled factorization time and the CPU/GPU call split at
//! each point — a miniature of the brute-force tuning the authors describe,
//! and of the analytical-threshold future work of §6. Also exercises the
//! device-OOM fallback options.
//!
//! ```text
//! cargo run --release -p sympack-apps --example gpu_offload_tuning
//! ```

use sympack::{SolverError, SolverOptions, SymPack};
use sympack_gpu::{analytical_thresholds, CostModel, OffloadThresholds, OomPolicy, Op};
use sympack_sparse::gen::flan_like;
use sympack_sparse::vecops::test_rhs;

fn main() {
    let a = flan_like(14, 14, 14);
    let b = test_rhs(a.n());
    println!(
        "tuning on a 3D 27-point brick: n = {}, nnz = {}\n",
        a.n(),
        a.nnz_full()
    );
    println!(
        "{:>18} {:>12} {:>10} {:>10}",
        "threshold scale", "facto", "GPU calls", "CPU calls"
    );
    let base = OffloadThresholds::default();
    let mut best = (f64::INFINITY, 0.0);
    for scale in [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let t = OffloadThresholds {
            potrf: (base.potrf as f64 * scale) as usize,
            trsm: (base.trsm as f64 * scale) as usize,
            syrk: (base.syrk as f64 * scale) as usize,
            gemm: (base.gemm as f64 * scale) as usize,
        };
        let opts = SolverOptions {
            n_nodes: 1,
            ranks_per_node: 4,
            thresholds: Some(t),
            ..Default::default()
        };
        let r = SymPack::factor_and_solve(&a, &b, &opts);
        assert!(r.relative_residual < 1e-10);
        let (mut gpu, mut cpu) = (0u64, 0u64);
        for c in &r.op_counts {
            for op in Op::ALL {
                let (cc, gg) = c.get(op);
                cpu += cc;
                gpu += gg;
            }
        }
        println!(
            "{:>17}x {:>9.3} ms {:>10} {:>10}",
            scale,
            r.factor_time * 1e3,
            gpu,
            cpu
        );
        if r.factor_time < best.0 {
            best = (r.factor_time, scale);
        }
    }
    println!(
        "\nbest scale: {}x — too-low thresholds drown in kernel-launch overhead,\ntoo-high ones leave the GPU idle (the §4.2 trade-off).",
        best.1
    );

    // No sweep at all (§6): thresholds derived from a device's cost model,
    // here for another vendor's GPU than the hand-tuned defaults assume.
    let derived = analytical_thresholds(&CostModel::amd_mi250x());
    println!(
        "
analytical thresholds for an MI250X-class device (elements): \
         potrf {} trsm {} syrk {} gemm {}",
        derived.potrf, derived.trsm, derived.syrk, derived.gemm
    );

    // Device-OOM fallbacks (§4.2): tiny quota forces the paths.
    println!("\ndevice-OOM fallback options with a 16 KiB per-rank quota:");
    let mut opts = SolverOptions {
        ranks_per_node: 2,
        ..Default::default()
    };
    opts.device_quota = 16 << 10;
    opts.oom_policy = OomPolicy::CpuFallback;
    let r = SymPack::try_factor_and_solve(&a, &b, &opts).expect("CpuFallback must succeed");
    println!(
        "  CpuFallback: completed, residual {:.1e}",
        r.relative_residual
    );
    opts.oom_policy = OomPolicy::Abort;
    match SymPack::try_factor_and_solve(&a, &b, &opts) {
        Err(SolverError::DeviceOom { requested, available, context }) => println!(
            "  Abort: factorization terminated fetching {context} (requested {requested} B, {available} B free) — rerun with more device memory"
        ),
        Ok(_) => println!("  Abort: quota was never exceeded on this problem"),
        Err(e) => panic!("unexpected error: {e}"),
    }
}
