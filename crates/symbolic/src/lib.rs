//! Symbolic factorization for symPACK-rs.
//!
//! Everything the paper's §3.1 does before any floating-point work:
//!
//! 1. [`etree::etree_permuted`] — elimination tree of the permuted matrix,
//!    plus [`etree::postorder`] so that supernodes occupy consecutive columns
//!    (the postordered matrix's tree is [`etree::relabel`], not a second
//!    pass),
//! 2. [`structure::col_counts`] — per-column factor nonzero counts,
//! 3. [`supernodes::supernodes`] — fundamental supernode detection with
//!    optional relaxed amalgamation,
//! 4. `structure::sn_patterns` — the supernodal row patterns of `L`,
//! 5. [`blocks`] — the paper's Algorithm 2: partition each supernode's rows
//!    into dense blocks `B(i,j)` indexed by (target supernode `i`, owning
//!    supernode `j`), the unit on which the solver's tasks operate,
//! 6. [`analyze`] — the one-call driver producing a [`SymbolicFactor`].
//!
//! The analysis is pattern-only: it reads a [`SymPattern`], never a value,
//! and permutes that pattern once, by the composite permutation. Values are
//! permuted once too, later, by whoever factors them (`SolvePlan::permute`).

pub mod amalgamate;
pub mod blocks;
pub mod etree;
pub mod stats;
pub mod structure;
pub mod supernodes;

pub use blocks::{BlockId, BlockInfo, BlockLayout};
pub use stats::{analysis_stats, AnalysisStats};
pub use structure::{col_counts, RowPatterns};
pub use supernodes::{supernodes, SupernodePartition};

use std::time::Instant;
use sympack_ordering::Permutation;
use sympack_sparse::{SparseSym, SymPattern};

/// Options controlling the analysis phase.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Upper bound on supernode width (columns); wide supernodes are split
    /// so the 2D block-cyclic distribution has enough blocks to balance.
    pub max_sn_width: usize,
    /// Relaxed amalgamation: merge a child supernode into its parent when
    /// the merged supernode wastes at most this fraction of explicit zeros.
    /// The fraction bounds merges wider than 16 columns; narrower ones are
    /// graded by width (always up to 4 columns, up to 80 % explicit zeros or
    /// this fraction, whichever is larger, up to 16; see [`amalgamate`]).
    /// `0.0` disables amalgamation (fundamental supernodes only).
    pub amalgamation_ratio: f64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            max_sn_width: 128,
            amalgamation_ratio: 0.1,
        }
    }
}

/// The complete output of the analysis phase, consumed by the numeric
/// factorization of `sympack` (and the baseline solver).
#[derive(Debug, Clone)]
pub struct SymbolicFactor {
    /// The composite permutation actually applied to the matrix
    /// (fill-reducing ordering composed with the etree postorder);
    /// `perm[new] = old` relative to the *original* matrix.
    pub perm: Permutation,
    /// Supernode partition of the permuted matrix's columns.
    pub partition: SupernodePartition,
    /// Supernodal elimination tree: `sn_parent[s]` or `usize::MAX` for roots.
    pub sn_parent: Vec<usize>,
    /// Below-diagonal row pattern of each supernode (global rows, sorted):
    /// `patterns[s]` is a slice of one flat array.
    pub patterns: RowPatterns,
    /// Dense-block layout (Algorithm 2).
    pub layout: BlockLayout,
    /// Total nonzeros of `L` including the diagonal.
    pub l_nnz: usize,
    /// Factorization flops (multiply-adds) implied by the structure.
    pub flops: u64,
}

impl SymbolicFactor {
    /// Number of supernodes.
    pub fn n_supernodes(&self) -> usize {
        self.partition.n_supernodes()
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.partition.n()
    }

    /// Global rows (sorted) of off-diagonal block `b` of supernode `j`: the
    /// block's contiguous slice of the supernode's row pattern.
    pub fn block_rows(&self, j: usize, b: &BlockInfo) -> &[usize] {
        &self.patterns[j][b.row_offset..b.row_offset + b.n_rows]
    }
}

/// Wall-clock milliseconds of each phase of one [`analyze_timed`] call, in
/// the order they run. Diagnostic only: never part of a deterministic
/// document.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AnalyzePhases {
    /// Elimination tree of the ordered matrix, its postorder, the composite
    /// permutation and the relabeled tree.
    pub etree_ms: f64,
    /// The one permutation of the pattern (by the composite permutation).
    pub permute_ms: f64,
    /// Column counts of `L`.
    pub col_counts_ms: f64,
    /// Fundamental supernodes plus relaxed amalgamation.
    pub supernodes_ms: f64,
    /// Supernodal row patterns.
    pub patterns_ms: f64,
    /// Supernodal tree, Algorithm-2 block layout and the cost totals.
    pub layout_ms: f64,
}

/// A lap timer for the phase breakdowns: [`Lap::ms`] returns the wall-clock
/// milliseconds since the previous call (or the start) and restarts.
#[derive(Debug)]
pub struct Lap(Instant);

impl Lap {
    /// Start timing now.
    pub fn start() -> Self {
        Lap(Instant::now())
    }

    /// Milliseconds since the last lap; starts the next one.
    pub fn ms(&mut self) -> f64 {
        let now = Instant::now();
        let ms = (now - self.0).as_secs_f64() * 1e3;
        self.0 = now;
        ms
    }
}

/// Run the full analysis: order by `ordering`, postorder the elimination
/// tree, detect (and optionally amalgamate) supernodes, compute row patterns
/// and the Algorithm-2 block layout.
///
/// Returns the symbolic factor; the composite permutation it contains must be
/// used to permute the numeric values before factorization.
///
/// # Panics
/// Panics when `ordering` is not a permutation of `a`'s order.
pub fn analyze(a: &SparseSym, ordering: &Permutation, opts: &AnalyzeOptions) -> SymbolicFactor {
    analyze_timed(a, ordering, opts).0
}

/// [`analyze`], also reporting where the time went.
pub fn analyze_timed(
    a: &SparseSym,
    ordering: &Permutation,
    opts: &AnalyzeOptions,
) -> (SymbolicFactor, AnalyzePhases) {
    let a: &SymPattern = a.pattern();
    assert_eq!(
        ordering.len(),
        a.n(),
        "ordering length must match the matrix"
    );
    let mut lap = Lap::start();
    let mut phases = AnalyzePhases::default();
    // 1. Elimination tree of the ordered matrix (read through the ordering,
    // not formed), its postorder, and the composite of the two. The tree of
    // the postordered matrix is the first tree relabeled.
    let parent = etree::etree_permuted(a, ordering.inverse().as_slice());
    let post = etree::postorder(&parent);
    let perm = post.compose(ordering);
    let parent = etree::relabel(&parent, &post);
    phases.etree_ms = lap.ms();
    // 2. The one permutation: the pattern, by the composite.
    let ap = a.permute(perm.as_slice());
    phases.permute_ms = lap.ms();
    // 3. Column counts and supernodes on the postordered pattern.
    let counts = structure::col_counts(&ap, &parent);
    phases.col_counts_ms = lap.ms();
    let mut partition = supernodes::supernodes(&parent, &counts, opts.max_sn_width);
    phases.supernodes_ms = lap.ms();
    // 4. Supernodal patterns (needed before amalgamation decides fill).
    let mut patterns = structure::sn_patterns(&ap, &partition);
    phases.patterns_ms = lap.ms();
    if opts.amalgamation_ratio > 0.0 {
        (partition, patterns) = amalgamate::amalgamate(
            &partition,
            &patterns,
            opts.amalgamation_ratio,
            opts.max_sn_width,
        );
    }
    phases.supernodes_ms += lap.ms();
    // 5. Supernodal elimination tree: parent supernode = supernode of the
    // first below-diagonal pattern row.
    let ns = partition.n_supernodes();
    let mut sn_parent = vec![usize::MAX; ns];
    for s in 0..ns {
        if let Some(&first) = patterns[s].first() {
            sn_parent[s] = partition.supno(first);
        }
    }
    // 6. Blocks (Algorithm 2) + cost totals.
    let layout = blocks::build_layout(&partition, &patterns);
    let mut l_nnz = 0usize;
    let mut flops = 0u64;
    for s in 0..ns {
        let w = partition.width(s);
        let h = patterns[s].len();
        l_nnz += w * (w + 1) / 2 + h * w;
        let cc = (h + w) as u64;
        // sum over the w columns: each column j (local) has (w - j + h)
        // entries below+including diagonal; flops ~ sum of squares.
        for j in 0..w as u64 {
            let len = cc - j;
            flops += len * len;
        }
    }
    phases.layout_ms = lap.ms();
    let sf = SymbolicFactor {
        perm,
        partition,
        sn_parent,
        patterns,
        layout,
        l_nnz,
        flops,
    };
    (sf, phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_ordering::{compute_ordering, OrderingKind};
    use sympack_sparse::gen::{laplacian_2d, random_spd};

    #[test]
    fn analyze_produces_consistent_structure() {
        let a = laplacian_2d(8, 8);
        let ord = compute_ordering(&a, OrderingKind::NestedDissection);
        let sf = analyze(&a, &ord, &AnalyzeOptions::default());
        sf.perm.validate().unwrap();
        assert_eq!(sf.n(), 64);
        // Every column belongs to exactly one supernode.
        let mut seen = 0;
        for s in 0..sf.n_supernodes() {
            seen += sf.partition.width(s);
        }
        assert_eq!(seen, 64);
        // Patterns contain only rows strictly below the supernode.
        for s in 0..sf.n_supernodes() {
            let last_col = sf.partition.last_col(s);
            for &r in &sf.patterns[s] {
                assert!(r > last_col);
            }
        }
        assert!(sf.l_nnz >= a.nnz());
        assert!(sf.flops > 0);
    }

    #[test]
    fn supernodal_parents_follow_patterns() {
        let a = random_spd(60, 5, 11);
        let ord = compute_ordering(&a, OrderingKind::MinDegree);
        let sf = analyze(&a, &ord, &AnalyzeOptions::default());
        for s in 0..sf.n_supernodes() {
            match sf.patterns[s].first() {
                Some(&first) => assert_eq!(sf.sn_parent[s], sf.partition.supno(first)),
                None => assert_eq!(sf.sn_parent[s], usize::MAX),
            }
        }
    }

    #[test]
    fn amalgamation_never_increases_supernode_count() {
        let a = laplacian_2d(10, 10);
        let ord = compute_ordering(&a, OrderingKind::NestedDissection);
        let none = analyze(
            &a,
            &ord,
            &AnalyzeOptions {
                amalgamation_ratio: 0.0,
                ..Default::default()
            },
        );
        let some = analyze(
            &a,
            &ord,
            &AnalyzeOptions {
                amalgamation_ratio: 0.3,
                ..Default::default()
            },
        );
        assert!(some.n_supernodes() <= none.n_supernodes());
        // Amalgamation may add explicit zeros but never loses structure.
        assert!(some.l_nnz >= none.l_nnz);
    }
}
