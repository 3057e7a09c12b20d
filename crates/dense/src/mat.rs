//! Column-major dense matrix container.
//!
//! [`Mat`] is the owning container used throughout the solver for supernode
//! block payloads. The raw kernels in this crate operate on `&[f64]`/`&mut
//! [f64]` slices with an explicit leading dimension (BLAS style) so that they
//! can also run on sub-panels of a larger supernode buffer; `Mat` provides
//! safe construction, indexing and comparison on top.
//!
//! # Owned or shared storage
//!
//! A matrix starts out owning its buffer. [`Mat::share`] *freezes* it: the
//! `Vec` moves into an `Arc` (the elements are not touched) and every holder
//! of that `Arc` — another rank's [`Mat::from_shared`], a communication
//! segment — reads the same memory. A factored block is immutable from the
//! moment it is published, so that is all a publication needs. Should a
//! holder write after all, the first mutable access takes the buffer back
//! when it is the last holder and copies it otherwise, so two matrices never
//! alias mutably and every `&Mat` / `&mut Mat` API behaves as if each matrix
//! owned its data. Owned matrices pay one predictable branch per access and
//! no atomic; making every buffer an `Arc` with `Arc::make_mut` on each
//! mutable access measured 2–4 % on a single-rank factorization.

use std::fmt;
use std::sync::Arc;

/// A frozen buffer plus where its elements are, so that reading a shared
/// matrix is one pointer away, like reading an owned one. Through the `Arc`
/// alone it is two — the `Arc`'s heap cell, then the `Vec`'s buffer — and the
/// first is a cache miss per block visit. The triangular solve visits every
/// published block twice: at P = 2 on a 10 k-unknown 3D brick its wall time
/// read +10.6 % against owned blocks through the `Arc` and +4.9 % with the
/// cached address (EXPERIMENTS.md "PR 22").
#[derive(Clone)]
struct Frozen {
    buf: Arc<Vec<f64>>,
    /// `buf.as_ptr()`. The length is not kept: a `Mat` knows it, and two
    /// words here fit beside the niche of the owned arm's `Vec`, so `Mat` is
    /// no larger than it was when it only ever owned.
    elems: *const f64,
}

// SAFETY: `elems` points into `buf`'s heap buffer and is only ever read
// (`Frozen::as_slice`); `buf` is an `Arc<Vec<f64>>`, which is `Send + Sync`,
// and keeps that buffer alive and unmodified as long as this value exists.
unsafe impl Send for Frozen {}
// SAFETY: as above — shared access only ever reads immutable elements.
unsafe impl Sync for Frozen {}

impl Frozen {
    fn new(buf: Arc<Vec<f64>>) -> Self {
        let elems = buf.as_ptr();
        Frozen { buf, elems }
    }

    /// The first `len` elements.
    ///
    /// # Safety
    /// `len` must not exceed the buffer's length.
    #[inline]
    unsafe fn as_slice(&self, len: usize) -> &[f64] {
        // SAFETY: `elems` is `buf`'s pointer and the caller bounds `len` by
        // its length. A `Vec` inside an `Arc` cannot be mutated,
        // reallocated or freed while `self.buf` holds a reference:
        // `Arc::get_mut` / `make_mut` / `try_unwrap` on any other handle
        // fail or copy as long as this one exists, and this module unwraps
        // `buf` only by consuming `self`.
        unsafe { std::slice::from_raw_parts(self.elems, len) }
    }
}

/// Column-major element storage: this matrix's alone, or frozen and shared.
#[derive(Clone)]
enum Storage {
    Owned(Vec<f64>),
    Shared(Frozen),
}

impl Storage {
    /// The elements as a `Vec` of the caller's own: shared storage is taken
    /// back when this was its last holder and copied otherwise.
    fn into_owned(self) -> Vec<f64> {
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(f) => Arc::try_unwrap(f.buf).unwrap_or_else(|a| (*a).clone()),
        }
    }
}

/// A dense column-major `rows × cols` matrix of `f64`.
#[derive(Clone)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Storage,
}

impl PartialEq for Mat {
    fn eq(&self, other: &Mat) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.as_slice() == other.as_slice()
    }
}

impl Mat {
    /// Create a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat::from_col_major(rows, cols, vec![0.0; rows * cols])
    }

    /// Create an identity matrix of order `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix from a column-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "column-major buffer length mismatch"
        );
        Mat {
            rows,
            cols,
            data: Storage::Owned(data),
        }
    }

    /// Create a matrix over a shared column-major buffer without copying it
    /// (the receiving side of [`Mat::share`]).
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_shared(rows: usize, cols: usize, data: Arc<Vec<f64>>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "column-major buffer length mismatch"
        );
        Mat {
            rows,
            cols,
            data: Storage::Shared(Frozen::new(data)),
        }
    }

    /// Freeze the storage and hand out a second handle on it: the buffer
    /// moves into an `Arc` as it is (already shared storage just gains a
    /// holder). The matrix keeps reading it; a later mutable access copies
    /// it first unless every other holder is gone by then.
    pub fn share(&mut self) -> Arc<Vec<f64>> {
        let buf = match &mut self.data {
            Storage::Shared(f) => return Arc::clone(&f.buf),
            Storage::Owned(v) => Arc::new(std::mem::take(v)),
        };
        self.data = Storage::Shared(Frozen::new(Arc::clone(&buf)));
        buf
    }

    /// Copy-on-write: make shared storage this matrix's alone — taken back
    /// when this is its last holder, copied otherwise.
    #[cold]
    fn unshare(&mut self) {
        let data = std::mem::replace(&mut self.data, Storage::Owned(Vec::new()));
        self.data = Storage::Owned(data.into_owned());
    }

    /// Create a matrix from a row-major data vector (convenient in tests).
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major buffer length mismatch");
        let mut m = Mat::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = data[r * cols + c];
            }
        }
        m
    }

    /// Build a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Mat::zeros(rows, cols);
        for c in 0..cols {
            for r in 0..rows {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension of the underlying storage (equals `rows`).
    #[inline]
    pub fn ld(&self) -> usize {
        self.rows
    }

    /// Borrow the column-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        match &self.data {
            Storage::Owned(v) => v,
            // SAFETY: both constructors of shared storage (`from_shared`,
            // `share` of an owned matrix, itself built by `from_col_major`)
            // establish `buf.len() == rows * cols`, and no method changes
            // `rows`, `cols` or the buffer afterwards.
            Storage::Shared(f) => unsafe { f.as_slice(self.rows * self.cols) },
        }
    }

    /// Mutably borrow the column-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        if let Storage::Shared(_) = self.data {
            self.unshare();
        }
        match &mut self.data {
            Storage::Owned(v) => v,
            Storage::Shared(_) => unreachable!("storage was unshared above"),
        }
    }

    /// Consume into the column-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data.into_owned()
    }

    /// The transpose of this matrix.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Naive dense product `self * other` (test/reference use only).
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul inner dimension mismatch");
        let mut out = Mat::zeros(self.rows, other.cols);
        for j in 0..other.cols {
            for k in 0..self.cols {
                let bkj = other[(k, j)];
                if bkj == 0.0 {
                    continue;
                }
                for i in 0..self.rows {
                    out[(i, j)] += self[(i, k)] * bkj;
                }
            }
        }
        out
    }

    /// Zero out the strict upper triangle (useful after a lower Cholesky,
    /// whose kernels leave the upper triangle untouched).
    pub fn zero_upper(&mut self) {
        let n = self.cols.min(self.rows);
        for c in 1..n {
            for r in 0..c.min(self.rows) {
                self[(r, c)] = 0.0;
            }
        }
    }

    /// Max-absolute-difference between two equally-sized matrices.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Make a symmetric positive definite matrix `G·Gᵀ + n·I` from a seed
    /// generator closure producing entries of `G` (test helper).
    pub fn spd_from(n: usize, mut g: impl FnMut(usize, usize) -> f64) -> Mat {
        let gm = Mat::from_fn(n, n, &mut g);
        let mut a = gm.matmul(&gm.transpose());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.as_slice()[c * self.rows + r]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        let i = c * self.rows + r;
        &mut self.as_mut_slice()[i]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(12) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(12) {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Mat::from_row_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 1)], 5.0);
        // column-major layout: first column is [1,4]
        assert_eq!(&m.as_slice()[..2], &[1.0, 4.0]);
    }

    /// The same 3 × 2 matrix over owned and over shared storage.
    fn owned_and_shared() -> (Mat, Mat, Arc<Vec<f64>>) {
        let owned = Mat::from_fn(3, 2, |r, c| (10 * r + c) as f64);
        let buf = Arc::new(owned.as_slice().to_vec());
        (owned, Mat::from_shared(3, 2, Arc::clone(&buf)), buf)
    }

    #[test]
    fn share_freezes_in_place_and_a_later_write_leaves_the_other_holder_intact() {
        let mut m = Mat::from_fn(4, 3, |r, c| (r + 4 * c) as f64);
        let before = m.clone();
        let at = m.as_slice().as_ptr();
        let held = m.share();
        assert_eq!(held.as_ptr(), at, "freezing moved the elements");
        assert_eq!(m.as_slice().as_ptr(), at);
        assert!(
            Arc::ptr_eq(&held, &m.share()),
            "sharing twice is one buffer"
        );
        let other = Mat::from_shared(4, 3, Arc::clone(&held));
        m[(1, 2)] = -7.0;
        assert_eq!(m[(1, 2)], -7.0);
        assert_ne!(m.as_slice().as_ptr(), at, "the write copied first");
        assert_eq!(other, before);
        assert_eq!(*held, before.as_slice());
    }

    #[test]
    fn shared_storage_does_not_grow_the_matrix() {
        // Every block header is visited by every task that reads the block;
        // on the workloads with tiny supernodes its size is measurable.
        let owned_only = std::mem::size_of::<(usize, usize, Vec<f64>)>();
        assert!(std::mem::size_of::<Mat>() <= owned_only);
    }

    #[test]
    fn the_last_holder_of_shared_storage_takes_it_back_without_copying() {
        let mut m = Mat::from_fn(5, 5, |r, c| (r * c) as f64);
        let at = m.as_slice().as_ptr();
        drop(m.share());
        m.as_mut_slice()[0] = 1.0;
        assert_eq!(m.as_slice().as_ptr(), at);
        drop(m.share());
        let taken = m.into_vec();
        assert_eq!(taken.as_ptr(), at);
    }

    #[test]
    fn owned_and_shared_storage_behave_identically() {
        let (owned, shared, buf) = owned_and_shared();
        assert_eq!(owned, shared);
        assert_eq!(shared, owned);
        assert_eq!(shared.clone(), owned.clone());
        assert_eq!(shared[(2, 1)], 21.0);
        assert_eq!(owned.fro_norm(), shared.fro_norm());
        assert_eq!(owned.max_abs_diff(&shared), 0.0);
        assert_eq!(owned.transpose(), shared.transpose());
        // IndexMut and as_mut_slice: same result, the shared buffer intact.
        let (mut a, mut b) = (owned.clone(), shared.clone());
        a[(0, 1)] = 5.0;
        b[(0, 1)] = 5.0;
        a.as_mut_slice()[2] += 1.0;
        b.as_mut_slice()[2] += 1.0;
        assert_eq!(a, b);
        assert_ne!(a, owned);
        assert_eq!(*buf, owned.as_slice());
        assert_eq!(shared, owned, "a clone's write reached its source");
        // into_vec with and without another holder.
        assert_eq!(shared.into_vec(), owned.clone().into_vec());
        assert_eq!(*buf, owned.as_slice());
        // A shape mismatch is unequal whatever the storage.
        let flat = Mat::from_shared(2, 3, buf);
        assert_ne!(flat, owned);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn from_shared_rejects_a_mis_sized_buffer() {
        Mat::from_shared(2, 2, Arc::new(vec![0.0; 3]));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Mat::from_fn(3, 5, |r, c| (r * 7 + c) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity() {
        let m = Mat::from_fn(4, 4, |r, c| (r + 2 * c) as f64);
        let i = Mat::eye(4);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn matmul_known_values() {
        let a = Mat::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_row_major(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_row_major(2, 2, vec![19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn zero_upper_clears_strict_upper_triangle() {
        let mut m = Mat::from_fn(3, 3, |_, _| 1.0);
        m.zero_upper();
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(m[(0, 2)], 0.0);
        assert_eq!(m[(1, 2)], 0.0);
        assert_eq!(m[(1, 0)], 1.0);
        assert_eq!(m[(2, 2)], 1.0);
    }

    #[test]
    fn spd_from_is_symmetric_with_heavy_diagonal() {
        let a = Mat::spd_from(5, |r, c| ((r * 3 + c * 5) % 7) as f64 - 3.0);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(a[(i, j)], a[(j, i)]);
            }
            assert!(a[(i, i)] >= 5.0);
        }
    }

    #[test]
    fn fro_norm_matches_hand_computation() {
        let m = Mat::from_row_major(1, 2, vec![3.0, 4.0]);
        assert!((m.fro_norm() - 5.0).abs() < 1e-15);
    }
}
