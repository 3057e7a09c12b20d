//! The update kernel every factorization engine runs: form the product
//! `−L(a,j)·L(b,j)ᵀ` and scatter-add it into the target — block `(a,b)` of
//! a store (fan-out, right-looking, the local targets of fan-in) or an
//! aggregation buffer of the same shape (fan-in's remote targets, fan-both).

use crate::sched::{Wall, WallClock};
use sympack_dense::{BlockRef, Mat};
use sympack_gpu::KernelEngine;

/// Reusable storage of [`apply_update`]: the product temporary and the row
/// map of the scatter. One per engine, so an update allocates nothing once
/// the largest product has been seen.
#[derive(Debug, Default)]
pub struct UpdateScratch {
    work: Vec<f64>,
    row_map: Vec<usize>,
}

/// `U(a,j,b)`: subtract `L(a,j)·L(b,j)ᵀ` from `target`, the dense `(a,b)`
/// block (or a zero-initialised aggregate of it). Returns the modeled
/// seconds of the product, for the caller to charge.
///
/// `rows_a` / `rows_b` are the global rows of the two operands (sorted
/// slices of supernode `j`'s pattern); `first_b` is the first column of
/// supernode `b`, whose columns are the target's. `target_rows` are the
/// global rows of the target block — or `None` when the target is the
/// diagonal block of `b`: then `a = b`, `la` is ignored, the product is a
/// SYRK of `lb` and only its lower triangle is added. Operands may be
/// stored compressed; the target never is. `wall` is the calling engine's
/// loop attribution: the product is its kernel time, the rest its scatter.
#[allow(clippy::too_many_arguments)] // two operands, three row lists, a target
pub fn apply_update(
    kernels: &mut KernelEngine,
    scratch: &mut UpdateScratch,
    wall: &mut WallClock,
    la: BlockRef<'_>,
    lb: BlockRef<'_>,
    rows_a: &[usize],
    rows_b: &[usize],
    target_rows: Option<&[usize]>,
    first_b: usize,
    target: &mut Mat,
) -> f64 {
    wall.lap(Wall::Bookkeeping);
    let syrk = target_rows.is_none();
    let (ma, nb) = (if syrk { lb.rows() } else { la.rows() }, lb.rows());
    let mut buf = std::mem::take(&mut scratch.work);
    buf.clear();
    buf.resize(ma * nb, 0.0);
    let mut temp = Mat::from_col_major(ma, nb, buf);
    let (_loc, secs) = if syrk {
        kernels.syrk_any(&mut temp, lb)
    } else {
        kernels.gemm_any(&mut temp, la, lb)
    };
    wall.lap(Wall::Kernel);
    // Row map: where each row of the product lands in the target.
    let row_map = &mut scratch.row_map;
    row_map.clear();
    match target_rows {
        None => row_map.extend(rows_b.iter().map(|&r| r - first_b)),
        Some(target_rows) => {
            // Rows of L(a,j) within supernode a are a subset of the target
            // block's rows (symbolic containment); both lists ascend, so
            // one forward walk finds them all.
            let mut t = 0;
            for &r in rows_a {
                while target_rows[t] != r {
                    t += 1;
                }
                row_map.push(t);
                t += 1;
            }
        }
    }
    let ld = target.ld();
    let (dst, src) = (target.as_mut_slice(), temp.as_slice());
    for (ci, &gc) in rows_b.iter().enumerate() {
        // SYRK fills the lower triangle only: rows from the diagonal.
        let r0 = if syrk { ci } else { 0 };
        let tcol = &mut dst[(gc - first_b) * ld..][..ld];
        let scol = &src[ci * ma..][..ma];
        for (&tr, &v) in row_map[r0..].iter().zip(&scol[r0..]) {
            tcol[tr] += v;
        }
    }
    scratch.work = temp.into_vec();
    wall.lap(Wall::Scatter);
    secs
}
