//! 2D block-cyclic mapping of blocks to processes (paper §3.3).
//!
//! Block `B(i,j)` (target supernode `i`, owner supernode `j`) is assigned to
//! process `map(i,j) = (i mod pr)·pc + (j mod pc)` on a near-square `pr×pc`
//! process grid. A 2D distribution avoids the serial bottlenecks a 1D
//! row/column-cyclic map suffers (the baseline solver uses 1D precisely to
//! exhibit that contrast).

/// A `pr × pc` process grid, with an optional node-aware tile layout.
///
/// The default (row-major) layout numbers grid position `(gr, gc)` as rank
/// `gr·pc + gc`, so a node holding `rpn` consecutive ranks spans a strip
/// of one grid row. The *tiled* layout instead numbers ranks so each node
/// owns a contiguous `tr × tc` tile of the grid: both the row set and the
/// column set of a broadcast then cluster onto few nodes, which is what
/// makes a node-grouped broadcast tree actually shrink network traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcGrid {
    pr: usize,
    pc: usize,
    /// Node-tile shape; `(1, 1)` means the historical row-major layout.
    tr: usize,
    tc: usize,
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
            tr: 1,
            tc: 1,
        }
    }

    /// Explicit grid dimensions.
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr >= 1 && pc >= 1);
        ProcGrid {
            pr,
            pc,
            tr: 1,
            tc: 1,
        }
    }

    /// A 1D row-cyclic "grid" (`1 × p`) — the ablation comparison.
    pub fn one_dimensional(p: usize) -> Self {
        ProcGrid {
            pr: 1,
            pc: p,
            tr: 1,
            tc: 1,
        }
    }

    /// The squarest grid over `p` ranks with node-aware placement: each
    /// group of `ranks_per_node` consecutive rank ids is laid out as the
    /// most-square `tr × tc` tile of grid positions that divides the grid.
    /// Falls back to the row-major layout when no such tile shape exists
    /// (e.g. `ranks_per_node` does not divide `p`).
    ///
    /// The mapping is a bijection on rank ids, so load balance and the
    /// block-cyclic structure are untouched — only *which* rank sits at
    /// which grid position changes. Broadcast consumers (a grid row and a
    /// grid column) hit `tr + tc` ranks per node-tile instead of sharing
    /// nodes only along rows, so a node-grouped [`BcastTopology::Tree`]
    /// gets average group sizes near `min(tr, tc)` on dense fan-outs.
    ///
    /// [`BcastTopology::Tree`]: sympack_pgas::coalesce::BcastTopology::Tree
    pub fn node_tiled(p: usize, ranks_per_node: usize) -> Self {
        let base = Self::squarest(p);
        if !p.is_multiple_of(ranks_per_node.max(1)) {
            return base;
        }
        // Squarest tile factorization tr × tc = rpn that divides pr × pc.
        let rpn = ranks_per_node.max(1);
        let mut best: Option<(usize, usize)> = None;
        for tr in 1..=rpn {
            if !rpn.is_multiple_of(tr) {
                continue;
            }
            let tc = rpn / tr;
            if !base.pr.is_multiple_of(tr) || !base.pc.is_multiple_of(tc) {
                continue;
            }
            let balance = tr.abs_diff(tc);
            if best.is_none_or(|(btr, btc)| balance < btr.abs_diff(btc)) {
                best = Some((tr, tc));
            }
        }
        match best {
            Some((tr, tc)) => ProcGrid { tr, tc, ..base },
            None => base,
        }
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
        let gr = i % self.pr;
        let gc = j % self.pc;
        if self.tr == 1 && self.tc == 1 {
            return gr * self.pc + gc;
        }
        // Tiled layout: tile-major, then row-major within the tile.
        let tiles_per_row = self.pc / self.tc;
        let tile = (gr / self.tr) * tiles_per_row + gc / self.tc;
        tile * (self.tr * self.tc) + (gr % self.tr) * self.tc + (gc % self.tc)
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
    fn two_d_map_spreads_a_column_over_pr_processes() {
        let g = ProcGrid::new(4, 4);
        let owners: std::collections::HashSet<usize> = (0..16).map(|i| g.map(i, 3)).collect();
        assert_eq!(owners.len(), 4); // pr distinct owners within one column
    }

    #[test]
    fn node_tiled_is_a_bijection_on_grid_positions() {
        let g = ProcGrid::node_tiled(64, 16); // 8x8 grid, 4x4 tiles
        let ranks: std::collections::HashSet<usize> = (0..8)
            .flat_map(|i| (0..8).map(move |j| (i, j)))
            .map(|(i, j)| g.map(i, j))
            .collect();
        assert_eq!(ranks.len(), 64);
        assert!(ranks.iter().all(|&r| r < 64));
    }

    #[test]
    fn node_tiled_clusters_rows_and_columns_on_nodes() {
        let rpn = 16;
        let g = ProcGrid::node_tiled(64, rpn); // 8x8 grid, 4x4 tiles
                                               // A grid column (fixed j, varying i) spans pr = 8 ranks; tiled
                                               // placement puts them on pr/tr = 2 nodes instead of 8.
        let col_nodes: std::collections::HashSet<usize> =
            (0..8).map(|i| g.map(i, 3) / rpn).collect();
        assert_eq!(col_nodes.len(), 2);
        // Same for a grid row.
        let row_nodes: std::collections::HashSet<usize> =
            (0..8).map(|j| g.map(3, j) / rpn).collect();
        assert_eq!(row_nodes.len(), 2);
        // Row-major layout, by contrast, spreads the column over twice as
        // many nodes (stride-pc ranks land two per 16-rank node).
        let flat = ProcGrid::squarest(64);
        let flat_col: std::collections::HashSet<usize> =
            (0..8).map(|i| flat.map(i, 3) / rpn).collect();
        assert_eq!(flat_col.len(), 4);
    }

    #[test]
    fn node_tiled_falls_back_to_row_major_when_indivisible() {
        assert_eq!(ProcGrid::node_tiled(12, 5), ProcGrid::squarest(12));
        assert_eq!(ProcGrid::node_tiled(7, 4), ProcGrid::squarest(7));
    }

    #[test]
    fn one_dimensional_puts_whole_column_on_one_process() {
        let g = ProcGrid::one_dimensional(8);
        for i in 0..32 {
            assert_eq!(g.map(i, 5), g.map(0, 5));
        }
    }
}
