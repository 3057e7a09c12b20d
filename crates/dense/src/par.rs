//! Thread-parallel variants of the dense kernels.
//!
//! The distributed solver runs one PGAS rank per thread, so its kernels stay
//! sequential. The *shared-memory* execution path (one rank, many cores — the
//! paper's single-node configuration) instead uses these variants, which
//! split the target matrix into independent column panels and update them on
//! scoped `std::thread` workers. Data-race freedom is structural: each panel
//! is a disjoint `&mut` chunk of the column-major buffer handed to exactly
//! one worker.
//!
//! The sequential-fallback decision — below how many flops forking workers
//! loses to just running the packed sequential kernel — comes from the
//! caller's [`KernelConfig::par_flop_threshold`] (default 2 Mflop, measured
//! on the `kernel_roofline` sweep; see `results/kernel_roofline.txt`).
//!
//! Two rules bound the live thread count:
//!
//! 1. At most [`num_threads`] workers exist per kernel call — chunk lists are
//!    statically partitioned across a fixed worker set, never spawned
//!    one-thread-per-chunk.
//! 2. The budget is *rank-aware*: `sympack_pgas::Runtime` registers its rank
//!    threads through [`rank_scope`], and [`num_threads`] divides the
//!    hardware parallelism by the number of live ranks, so a distributed run
//!    whose engine also enables intra-task parallelism never oversubscribes
//!    the machine.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::config::KernelConfig;
use crate::gemm::gemm_nt_raw;
use crate::mat::Mat;
use crate::microkernel::{gemm_packed_shared_a, Dest};
use crate::pack::{ApackFull, Operand};

/// Count of PGAS rank threads currently live (see [`rank_scope`]).
static ACTIVE_RANKS: AtomicUsize = AtomicUsize::new(0);

/// RAII guard registering `n` live rank threads; see [`rank_scope`].
pub struct RankScope {
    n: usize,
}

impl Drop for RankScope {
    fn drop(&mut self) {
        ACTIVE_RANKS.fetch_sub(self.n, Ordering::Relaxed);
    }
}

/// Register `nranks` concurrently running rank threads for the lifetime of
/// the returned guard. While any ranks are registered, [`num_threads`]
/// divides the hardware thread budget evenly among them so nested kernel
/// parallelism cannot oversubscribe the machine. Scopes nest additively
/// (two concurrent runtimes simply add their rank counts).
pub fn rank_scope(nranks: usize) -> RankScope {
    ACTIVE_RANKS.fetch_add(nranks, Ordering::Relaxed);
    RankScope { n: nranks }
}

/// Worker budget for the shared-memory kernels: hardware parallelism divided
/// by the number of live PGAS ranks (at least 1).
pub fn num_threads() -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ranks = ACTIVE_RANKS.load(Ordering::Relaxed).max(1);
    (hw / ranks).max(1)
}

/// Split `buf` into chunks of `chunk_len` elements and run `f` on each chunk
/// from a pool of at most `nworkers` scoped threads. `f` receives
/// `(chunk_index, chunk)`; the last chunk may be short. Unlike a naive
/// spawn-per-chunk loop, the live thread count is bounded by `nworkers`
/// regardless of how many chunks the split produces.
fn par_chunks_mut<F>(buf: &mut [f64], chunk_len: usize, nworkers: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if nworkers <= 1 {
        for (idx, chunk) in buf.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }
    let mut chunks: Vec<(usize, &mut [f64])> = buf.chunks_mut(chunk_len).enumerate().collect();
    let per_worker = chunks.len().div_ceil(nworkers);
    std::thread::scope(|s| {
        for run in chunks.chunks_mut(per_worker) {
            let f = &f;
            s.spawn(move || {
                for (idx, chunk) in run.iter_mut() {
                    f(*idx, chunk);
                }
            });
        }
    });
}

/// Parallel `C ← C − A·Bᵀ` under an explicit config: column panels of `C`
/// are updated concurrently.
///
/// The `A` operand is packed **once** into `mr`-strip format
/// (`pack::ApackFull`, built under the same `cfg` the consumers run
/// under) and shared read-only by every column-panel worker, instead of each
/// worker re-packing the same `A` block inside its own sequential GEMM.
/// Per-element accumulation order (ascending `k`, one `cfg.kc`-block at a
/// time) is identical to the sequential packed kernel and independent of the
/// worker count.
pub fn gemm_nt_par_cfg(cfg: &KernelConfig, c: &mut Mat, a: &Mat, b: &Mat) {
    assert_eq!(a.cols(), b.cols(), "gemm_nt_par: inner dimensions differ");
    assert_eq!(c.rows(), a.rows(), "gemm_nt_par: row dimensions differ");
    assert_eq!(c.cols(), b.rows(), "gemm_nt_par: column dimensions differ");
    gemm_nt_par_impl(cfg, c, a, b, num_threads());
}

/// Parallel `C ← C − A·Bᵀ` under the default config.
pub fn gemm_nt_par(c: &mut Mat, a: &Mat, b: &Mat) {
    gemm_nt_par_cfg(&KernelConfig::default(), c, a, b);
}

fn gemm_nt_par_impl(cfg: &KernelConfig, c: &mut Mat, a: &Mat, b: &Mat, nworkers: usize) {
    let (m, n, k) = (c.rows(), c.cols(), a.cols());
    if crate::flops::gemm(m, n, k) < cfg.par_flop_threshold || n < 2 || nworkers < 2 {
        crate::gemm::gemm_nt_cfg(cfg, c, a, b);
        return;
    }
    let ldc = c.ld();
    let (lda, ldb) = (a.ld(), b.ld());
    let mut abuf = Vec::new();
    let apack = ApackFull::pack(cfg, &mut abuf, Operand::Xk(a.as_slice(), lda), m, k);
    let nchunks = nworkers.min(n);
    let cols_per = n.div_ceil(nchunks);
    par_chunks_mut(
        c.as_mut_slice(),
        cols_per * ldc,
        nworkers,
        |chunk, cpanel| {
            let j0 = chunk * cols_per;
            let jn = cols_per.min(n - j0);
            // Panel of C covers columns j0..j0+jn; the matching operand is
            // rows j0..j0+jn of B.
            let d = Dest {
                c: cpanel,
                ldc,
                sub: true,
                lower: false,
            };
            let rows_of_b = Operand::Xk(&b.as_slice()[j0..], ldb);
            gemm_packed_shared_a(cfg, d, (m, jn), &apack, rows_of_b);
        },
    );
}

/// Parallel `C ← C − A·Aᵀ` (lower triangle) under an explicit config: the
/// triangle is split into column panels whose below-diagonal parts are
/// independent.
pub fn syrk_lower_par_cfg(cfg: &KernelConfig, c: &mut Mat, a: &Mat) {
    assert_eq!(c.rows(), c.cols(), "syrk_lower_par: C must be square");
    assert_eq!(a.rows(), c.rows(), "syrk_lower_par: A rows must match C");
    syrk_lower_par_impl(cfg, c, a, num_threads());
}

/// Parallel `C ← C − A·Aᵀ` (lower triangle) under the default config.
pub fn syrk_lower_par(c: &mut Mat, a: &Mat) {
    syrk_lower_par_cfg(&KernelConfig::default(), c, a);
}

fn syrk_lower_par_impl(cfg: &KernelConfig, c: &mut Mat, a: &Mat, nworkers: usize) {
    let (n, k) = (c.rows(), a.cols());
    if crate::flops::syrk(n, k) < cfg.par_flop_threshold || n < 2 || nworkers < 2 {
        crate::syrk::syrk_lower_cfg(cfg, c, a);
        return;
    }
    let ldc = c.ld();
    let lda = a.ld();
    let nchunks = nworkers.min(n);
    let cols_per = n.div_ceil(nchunks);
    par_chunks_mut(
        c.as_mut_slice(),
        cols_per * ldc,
        nworkers,
        |chunk, cpanel| {
            let j0 = chunk * cols_per;
            let jn = cols_per.min(n - j0);
            // Columns j0..j0+jn of the lower triangle: rows j0..n.
            // Work on the sub-triangle starting at (j0, j0): within the panel
            // buffer, the (j0 + i)-th row of column j lives at offset
            // j_local * ldc + row. Use the sequential SYRK on the diagonal
            // part and GEMM for the strictly-below rows, both via raw calls.
            // Diagonal jn x jn sub-triangle at rows j0..j0+jn:
            crate::syrk::syrk_lower_raw(
                cfg,
                &mut cpanel[j0..],
                ldc,
                jn,
                &a.as_slice()[j0..],
                lda,
                k,
            );
            // Rows j0+jn..n of this panel: full GEMM block.
            let m = n - j0 - jn;
            if m > 0 {
                gemm_nt_raw(
                    cfg,
                    &mut cpanel[j0 + jn..],
                    ldc,
                    m,
                    jn,
                    &a.as_slice()[j0 + jn..],
                    lda,
                    &a.as_slice()[j0..],
                    lda,
                    k,
                );
            }
        },
    );
}

/// Parallel `X · Lᵀ = B` in place under an explicit config: the rows of `B`
/// are independent, so the row dimension is split across threads (each
/// thread runs the sequential blocked TRSM on its horizontal strip).
pub fn trsm_right_lower_trans_par_cfg(cfg: &KernelConfig, b: &mut Mat, l: &Mat) {
    assert_eq!(l.rows(), l.cols(), "trsm_par: L must be square");
    assert_eq!(b.cols(), l.rows(), "trsm_par: B columns must match L order");
    trsm_right_lower_trans_par_impl(cfg, b, l, num_threads());
}

/// Parallel `X · Lᵀ = B` in place under the default config.
pub fn trsm_right_lower_trans_par(b: &mut Mat, l: &Mat) {
    trsm_right_lower_trans_par_cfg(&KernelConfig::default(), b, l);
}

fn trsm_right_lower_trans_par_impl(cfg: &KernelConfig, b: &mut Mat, l: &Mat, nworkers: usize) {
    let (m, n) = (b.rows(), b.cols());
    if crate::flops::trsm(m, n) < cfg.par_flop_threshold || m < 2 || nworkers < 2 {
        crate::trsm::trsm_right_lower_trans_cfg(cfg, b, l);
        return;
    }
    // Rows are independent but interleaved in column-major storage, so we
    // split by copying horizontal strips out, solving, and copying back.
    // At most `nworkers` strips exist, so the spawn loop below is bounded.
    let nthreads = nworkers.min(m);
    let rows_per = m.div_ceil(nthreads);
    let ldb = b.ld();
    let bslice = b.as_mut_slice();
    // Gather strips.
    let mut strips: Vec<(usize, Vec<f64>)> = (0..m)
        .step_by(rows_per)
        .map(|r0| {
            let rn = rows_per.min(m - r0);
            let mut s = vec![0.0; rn * n];
            for j in 0..n {
                s[j * rn..j * rn + rn].copy_from_slice(&bslice[j * ldb + r0..j * ldb + r0 + rn]);
            }
            (r0, s)
        })
        .collect();
    std::thread::scope(|scope| {
        for (r0, s) in strips.iter_mut() {
            let rn = rows_per.min(m - *r0);
            scope.spawn(move || {
                crate::trsm::trsm_right_lower_trans_raw(cfg, s, rn, rn, n, l.as_slice(), l.ld());
            });
        }
    });
    for (r0, s) in strips {
        let rn = rows_per.min(m - r0);
        for j in 0..n {
            bslice[j * ldb + r0..j * ldb + r0 + rn].copy_from_slice(&s[j * rn..j * rn + rn]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{gemm_ref, potrf_ref, syrk_ref, trsm_ref};

    #[test]
    fn gemm_par_matches_reference() {
        for &(m, n, k) in &[(3, 5, 4), (80, 90, 70), (257, 129, 65)] {
            let a = Mat::from_fn(m, k, |r, c| ((r * 3 + c) % 7) as f64 - 3.0);
            let b = Mat::from_fn(n, k, |r, c| ((r + c * 2) % 5) as f64 - 2.0);
            let mut c1 = Mat::from_fn(m, n, |r, c| (r + c) as f64);
            let mut c2 = c1.clone();
            gemm_nt_par(&mut c1, &a, &b);
            gemm_ref(&mut c2, &a, &b);
            assert!(c1.max_abs_diff(&c2) < 1e-9, "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn gemm_par_multi_worker_matches_reference_and_is_deterministic() {
        // Force the multi-worker shared-A path regardless of the host's core
        // count; the result must match the oracle and be bit-identical to
        // the sequential packed kernel (same per-element accumulation order).
        let cfg = KernelConfig::default();
        let (m, n, k) = (160, 120, 140);
        let a = Mat::from_fn(m, k, |r, c| ((r * 3 + c) % 7) as f64 - 3.0);
        let b = Mat::from_fn(n, k, |r, c| ((r + c * 2) % 5) as f64 - 2.0);
        let c0 = Mat::from_fn(m, n, |r, c| (r + c) as f64);
        let mut cpar = c0.clone();
        gemm_nt_par_impl(&cfg, &mut cpar, &a, &b, 4);
        let mut cref = c0.clone();
        gemm_ref(&mut cref, &a, &b);
        assert!(cpar.max_abs_diff(&cref) < 1e-9);
        let mut cseq = c0.clone();
        crate::gemm::gemm_nt(&mut cseq, &a, &b);
        assert_eq!(cpar.as_slice(), cseq.as_slice(), "par != seq bitwise");
        let mut cpar3 = c0.clone();
        gemm_nt_par_impl(&cfg, &mut cpar3, &a, &b, 3);
        assert_eq!(
            cpar.as_slice(),
            cpar3.as_slice(),
            "worker count changed bits"
        );
    }

    #[test]
    fn gemm_par_non_default_config_matches_sequential_bitwise() {
        // A non-default (but same-kc) blocking must stay bit-identical
        // between the parallel shared-A path and the sequential packed
        // kernel under the same config.
        let (mr, nr) = KernelConfig::default().resolve_isa().unwrap().tile();
        let cfg = KernelConfig {
            mc: 5 * mr,
            nc: 9 * nr,
            par_flop_threshold: 1,
            ..Default::default()
        };
        cfg.validate().unwrap();
        let (m, n, k) = (150, 110, 130);
        let a = Mat::from_fn(m, k, |r, c| ((r * 3 + c) % 7) as f64 - 3.0);
        let b = Mat::from_fn(n, k, |r, c| ((r + c * 2) % 5) as f64 - 2.0);
        let c0 = Mat::from_fn(m, n, |r, c| (r + c) as f64);
        let mut cpar = c0.clone();
        gemm_nt_par_impl(&cfg, &mut cpar, &a, &b, 4);
        let mut cseq = c0.clone();
        crate::gemm::gemm_nt_cfg(&cfg, &mut cseq, &a, &b);
        assert_eq!(cpar.as_slice(), cseq.as_slice(), "par != seq bitwise");
    }

    #[test]
    fn syrk_par_matches_reference() {
        for &(n, k) in &[(5, 3), (90, 40), (200, 64)] {
            let a = Mat::from_fn(n, k, |r, c| ((r * 5 + c) % 9) as f64 - 4.0);
            let mut c1 = Mat::from_fn(n, n, |r, c| (r * 2 + c) as f64 * 0.5);
            let mut c2 = c1.clone();
            syrk_lower_par(&mut c1, &a);
            syrk_ref(&mut c2, &a);
            for j in 0..n {
                for i in j..n {
                    assert!(
                        (c1[(i, j)] - c2[(i, j)]).abs() < 1e-9,
                        "n={n} k={k} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn syrk_par_multi_worker_matches_reference() {
        let cfg = KernelConfig::default();
        let (n, k) = (220, 80);
        let a = Mat::from_fn(n, k, |r, c| ((r * 5 + c) % 9) as f64 - 4.0);
        let mut c1 = Mat::from_fn(n, n, |r, c| (r * 2 + c) as f64 * 0.5);
        let mut c2 = c1.clone();
        syrk_lower_par_impl(&cfg, &mut c1, &a, 4);
        syrk_ref(&mut c2, &a);
        for j in 0..n {
            for i in j..n {
                assert!((c1[(i, j)] - c2[(i, j)]).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn trsm_par_matches_reference() {
        for &(m, n) in &[(4, 3), (120, 60), (301, 97)] {
            let spd = Mat::spd_from(n, |r, c| ((r + c * 3) % 7) as f64);
            let l = potrf_ref(&spd).unwrap();
            let b0 = Mat::from_fn(m, n, |r, c| ((r * 2 + c) % 11) as f64 - 5.0);
            let mut b = b0.clone();
            trsm_right_lower_trans_par(&mut b, &l);
            let expect = trsm_ref(&l, &b0);
            assert!(b.max_abs_diff(&expect) < 1e-8, "m={m} n={n}");
        }
    }

    #[test]
    fn trsm_par_multi_worker_matches_reference() {
        let cfg = KernelConfig::default();
        let (m, n) = (310, 100);
        let spd = Mat::spd_from(n, |r, c| ((r + c * 3) % 7) as f64);
        let l = potrf_ref(&spd).unwrap();
        let b0 = Mat::from_fn(m, n, |r, c| ((r * 2 + c) % 11) as f64 - 5.0);
        let mut b = b0.clone();
        trsm_right_lower_trans_par_impl(&cfg, &mut b, &l, 4);
        let expect = trsm_ref(&l, &b0);
        assert!(b.max_abs_diff(&expect) < 1e-8);
    }

    #[test]
    fn rank_scope_divides_thread_budget() {
        let base = num_threads();
        {
            // Registering more ranks than cores floors the budget at 1.
            let _guard = rank_scope(1024);
            assert_eq!(num_threads(), 1);
            {
                let _inner = rank_scope(2);
                assert_eq!(num_threads(), 1, "nested scopes add");
            }
        }
        assert_eq!(num_threads(), base, "guard drop restores the budget");
    }

    #[test]
    fn par_chunks_mut_bounds_workers_and_visits_every_chunk() {
        let mut buf = vec![0.0; 103];
        // 11 chunks, 3 workers: every chunk must be visited exactly once.
        par_chunks_mut(&mut buf, 10, 3, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v += 1.0 + idx as f64;
            }
        });
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, 1.0 + (i / 10) as f64, "element {i}");
        }
    }
}
