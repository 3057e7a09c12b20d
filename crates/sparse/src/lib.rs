//! Sparse-matrix substrate for symPACK-rs.
//!
//! The paper evaluates on symmetric positive definite matrices from the
//! SuiteSparse collection, read in Rutherford-Boeing (symPACK) or Matrix
//! Market (PaStiX) format, with a fill-reducing ordering applied before the
//! factorization. This crate provides:
//!
//! * [`coo::Coo`] — triplet assembly with duplicate summation,
//! * [`csc::Csc`] — general compressed-sparse-column storage,
//! * [`sym::SparseSym`] — the symmetric lower-triangular view consumed by the
//!   solvers, and [`sym::SymPattern`], its value-free half (all the analysis
//!   phase reads),
//! * [`io`] — Matrix Market and Rutherford-Boeing readers/writers,
//! * [`gen`] — synthetic stand-ins for the paper's three test matrices
//!   (`Flan_1565`, `boneS10`, `thermal2`) plus general grid Laplacians and
//!   random SPD problems,
//! * [`graph`] — the adjacency view used by the ordering algorithms,
//! * [`stats`] — structural statistics (bandwidth, profile, degrees),
//! * [`vecops`] — dense-vector helpers (norms, residuals).

pub mod coo;
pub mod csc;
pub mod gen;
pub mod graph;
pub mod io;
pub mod stats;
pub mod sym;
pub mod vecops;

pub use coo::Coo;
pub use csc::Csc;
pub use sym::{SparseSym, SymPattern};

/// Errors produced while assembling or reading sparse matrices.
#[derive(Debug)]
pub enum SparseError {
    /// An entry's row or column index is out of bounds.
    IndexOutOfBounds { row: usize, col: usize, n: usize },
    /// Parse or structural error in a matrix file.
    Format(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::IndexOutOfBounds { row, col, n } => {
                write!(f, "entry ({row},{col}) out of bounds for dimension {n}")
            }
            SparseError::Format(msg) => write!(f, "format error: {msg}"),
            SparseError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e)
    }
}
