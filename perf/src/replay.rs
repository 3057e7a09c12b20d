//! Kernel replay: the factorization's exact POTRF/TRSM/SYRK/GEMM shape
//! multiset, issued through the solver's kernel dispatcher on synthetic
//! blocks with nothing else around it — no scheduler, no PGAS, no assembly.
//! Its wall time is the kernel share of `factor_s`; the seconds the
//! dispatcher returns are what the cost model charges for the same calls.

use std::time::Instant;
use sympack::{make_kernels, SolverOptions};
use sympack_dense::{flops, Mat};
use sympack_gpu::Op;
use sympack_symbolic::SymbolicFactor;

/// Every kernel call of a factorization of `sf`, as `(op, m, n, k)`: the
/// engine's `D(j)`, `F(i,j)` and `U(a,j,b)` tasks in supernode order.
pub fn for_each_kernel(sf: &SymbolicFactor, mut f: impl FnMut(Op, usize, usize, usize)) {
    for j in 0..sf.n_supernodes() {
        let w = sf.partition.width(j);
        f(Op::Potrf, w, w, w);
        let blocks = sf.layout.blocks_of(j);
        for b in blocks {
            f(Op::Trsm, b.n_rows, w, w);
        }
        for (bi, bb) in blocks.iter().enumerate() {
            f(Op::Syrk, bb.n_rows, bb.n_rows, w);
            for ba in &blocks[bi + 1..] {
                f(Op::Gemm, ba.n_rows, bb.n_rows, w);
            }
        }
    }
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct Replay {
    /// Wall seconds inside kernel calls per op, in the order POTRF, TRSM,
    /// SYRK, GEMM; the timer's own cost subtracted.
    pub wall: [f64; 4],
    /// Calls per op, in the same order.
    pub calls: [u64; 4],
    /// Flops of all calls by the dense crate's formulas.
    pub flops: u64,
    /// Seconds the dispatcher's cost model returned for the same calls.
    pub modeled: f64,
}

impl Replay {
    pub fn total_wall(&self) -> f64 {
        self.wall.iter().sum()
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// Wall seconds one `Instant::now()` + `elapsed()` pair costs.
fn timer_cost() -> f64 {
    const REPS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(Instant::now().elapsed());
    }
    t.elapsed().as_secs_f64() / f64::from(REPS)
}

/// A `rows × cols` block of 0.01 with `diag` on the diagonal, in a recycled
/// buffer. 0.01 off and `n + 1` on the diagonal is positive definite; 1 on
/// the diagonal is a well-conditioned triangle.
fn block(buf: &mut Vec<f64>, rows: usize, cols: usize, diag: f64) -> Mat {
    let mut data = std::mem::take(buf);
    data.clear();
    data.resize(rows * cols, 0.01);
    for i in 0..rows.min(cols) {
        data[i * rows + i] = diag;
    }
    Mat::from_col_major(rows, cols, data)
}

/// Replay the kernel calls of `sf` through `make_kernels(opts)`.
pub fn replay(sf: &SymbolicFactor, opts: &SolverOptions) -> Replay {
    let mut kernels = make_kernels(opts);
    let mut out = Replay::default();
    let (mut c_buf, mut a_buf, mut b_buf) = (Vec::new(), Vec::new(), Vec::new());
    for_each_kernel(sf, |op, m, n, k| {
        // (index into the per-op arrays, wall seconds, modeled seconds, flops)
        let (i, secs, modeled, flops) = match op {
            Op::Potrf => {
                let mut a = block(&mut c_buf, m, m, m as f64 + 1.0);
                let t = Instant::now();
                let r = kernels
                    .potrf(&mut a)
                    .expect("synthetic block is positive definite");
                let secs = t.elapsed().as_secs_f64();
                c_buf = a.into_vec();
                (0, secs, r.1, flops::potrf(m))
            }
            Op::Trsm => {
                let mut b = block(&mut c_buf, m, n, 0.01);
                let l = block(&mut a_buf, n, n, 1.0);
                let t = Instant::now();
                let r = kernels.trsm(&mut b, &l);
                let secs = t.elapsed().as_secs_f64();
                (c_buf, a_buf) = (b.into_vec(), l.into_vec());
                (1, secs, r.1, flops::trsm(m, n))
            }
            Op::Syrk => {
                let mut c = block(&mut c_buf, m, m, 0.01);
                let a = block(&mut a_buf, m, k, 0.01);
                let t = Instant::now();
                let r = kernels.syrk(&mut c, &a);
                let secs = t.elapsed().as_secs_f64();
                (c_buf, a_buf) = (c.into_vec(), a.into_vec());
                (2, secs, r.1, flops::syrk(m, k))
            }
            Op::Gemm => {
                let mut c = block(&mut c_buf, m, n, 0.01);
                let a = block(&mut a_buf, m, k, 0.01);
                let b = block(&mut b_buf, n, k, 0.01);
                let t = Instant::now();
                let r = kernels.gemm(&mut c, &a, &b);
                let secs = t.elapsed().as_secs_f64();
                (c_buf, a_buf, b_buf) = (c.into_vec(), a.into_vec(), b.into_vec());
                (3, secs, r.1, flops::gemm(m, n, k))
            }
        };
        out.wall[i] += secs;
        out.calls[i] += 1;
        out.modeled += modeled;
        out.flops += flops;
    });
    let per_call = timer_cost();
    for (wall, calls) in out.wall.iter_mut().zip(out.calls) {
        *wall = (*wall - per_call * calls as f64).max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;
    use std::sync::Arc;
    use sympack::plan::factor_numeric;
    use sympack::SolvePlan;

    /// The replay is the engine's real kernel multiset, not an
    /// approximation: per-op call counts equal what a real factorization
    /// counted (summed over ranks), and the flops equal the symbolic total.
    #[test]
    fn replay_issues_exactly_the_calls_a_real_factorization_makes() {
        for w in &WORKLOADS {
            let a = w.quick().matrix.generate();
            let opts = w.options();
            let plan = SolvePlan::new(&a, &opts);
            let nf = factor_numeric(&plan, &Arc::new(plan.permute(&a))).expect("factorization");
            let mut real = sympack_gpu::OpCounts::default();
            nf.op_counts.iter().for_each(|c| real.merge(c));
            let replayed = replay(plan.sf(), &opts);
            for (i, op) in [Op::Potrf, Op::Trsm, Op::Syrk, Op::Gemm]
                .into_iter()
                .enumerate()
            {
                assert_eq!(
                    (replayed.calls[i], 0),
                    real.get(op),
                    "{} {}",
                    w.name,
                    op.name()
                );
            }
            assert_eq!(replayed.total_calls(), real.total(), "{}", w.name);
            assert_eq!(replayed.flops, plan.sf().flops, "{}", w.name);
            assert!(replayed.modeled > 0.0 && replayed.total_wall() > 0.0);
        }
    }
}
