//! 2D block-cyclic mapping of blocks to processes (paper §3.3).
//!
//! Block `B(i,j)` (target supernode `i`, owner supernode `j`) is assigned to
//! process `map(i,j) = (i mod pr)·pc + (j mod pc)` on a near-square `pr×pc`
//! process grid. A 2D distribution avoids the serial bottlenecks a 1D
//! row/column-cyclic map suffers (the baseline solver uses 1D precisely to
//! exhibit that contrast).

/// A `pr × pc` process grid. Grid position `(gr, gc)` is rank `gr·pc + gc`,
/// so a node holding `rpn` consecutive ranks spans a strip of one grid row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcGrid {
    pr: usize,
    pc: usize,
}

impl ProcGrid {
    /// The most-square grid with `p` processes (`pr·pc = p`, `pr ≤ pc`,
    /// maximizing `pr`).
    pub fn squarest(p: usize) -> Self {
        assert!(p >= 1);
        let mut pr = (p as f64).sqrt() as usize;
        while pr > 1 && !p.is_multiple_of(pr) {
            pr -= 1;
        }
        ProcGrid {
            pr: pr.max(1),
            pc: p / pr.max(1),
        }
    }

    /// Explicit grid dimensions.
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr >= 1 && pc >= 1);
        ProcGrid { pr, pc }
    }

    /// A 1D row-cyclic "grid" (`1 × p`) — the ablation comparison.
    pub fn one_dimensional(p: usize) -> Self {
        ProcGrid { pr: 1, pc: p }
    }

    /// Grid rows.
    pub fn pr(&self) -> usize {
        self.pr
    }

    /// Grid columns.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Total processes.
    pub fn n_procs(&self) -> usize {
        self.pr * self.pc
    }

    /// Owner of block `B(i,j)`.
    #[inline]
    pub fn map(&self, i: usize, j: usize) -> usize {
        self.row_of(i) * self.pc + self.col_of(j)
    }

    /// Grid position `(row, col)` of rank `r`: it owns block `B(i,j)`
    /// exactly when `row_of(i) == row` and `col_of(j) == col`.
    pub fn position(&self, r: usize) -> (usize, usize) {
        (r / self.pc, r % self.pc)
    }

    /// Grid row holding block row `i`.
    #[inline]
    pub fn row_of(&self, i: usize) -> usize {
        i % self.pr
    }

    /// Grid column holding block column `j`.
    #[inline]
    pub fn col_of(&self, j: usize) -> usize {
        j % self.pc
    }
}

/// The distinct ranks among `owners`, ascending — a destination list
/// (a rank that owns several interested blocks hears about a payload once).
pub fn distinct_owners(owners: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut dests: Vec<usize> = owners.into_iter().collect();
    dests.sort_unstable();
    dests.dedup();
    dests
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squarest_prefers_square() {
        assert_eq!(ProcGrid::squarest(16), ProcGrid::new(4, 4));
        assert_eq!(ProcGrid::squarest(12), ProcGrid::new(3, 4));
        assert_eq!(ProcGrid::squarest(7), ProcGrid::new(1, 7));
        assert_eq!(ProcGrid::squarest(1), ProcGrid::new(1, 1));
    }

    #[test]
    fn map_stays_in_range_and_cycles() {
        let g = ProcGrid::squarest(6); // 2x3
        for i in 0..20 {
            for j in 0..20 {
                let p = g.map(i, j);
                assert!(p < 6);
                assert_eq!(p, g.map(i + 2, j + 3), "cyclic in both dims");
            }
        }
    }

    #[test]
    fn a_rank_owns_its_grid_row_times_its_grid_column() {
        for g in [
            ProcGrid::new(2, 3),
            ProcGrid::new(3, 2),
            ProcGrid::new(1, 4),
        ] {
            for (i, j) in (0..9).flat_map(|i| (0..9).map(move |j| (i, j))) {
                for r in 0..g.n_procs() {
                    let owns = (g.row_of(i), g.col_of(j)) == g.position(r);
                    assert_eq!(owns, g.map(i, j) == r, "{g:?}: B({i},{j}), rank {r}");
                }
            }
        }
    }

    #[test]
    fn two_d_map_spreads_a_column_over_pr_processes() {
        let g = ProcGrid::new(4, 4);
        let owners: std::collections::HashSet<usize> = (0..16).map(|i| g.map(i, 3)).collect();
        assert_eq!(owners.len(), 4); // pr distinct owners within one column
    }

    #[test]
    fn one_dimensional_puts_whole_column_on_one_process() {
        let g = ProcGrid::one_dimensional(8);
        for i in 0..32 {
            assert_eq!(g.map(i, 5), g.map(0, 5));
        }
    }
}
