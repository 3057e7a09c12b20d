//! Per-destination message coalescing and hierarchical-broadcast planning.
//!
//! Two independent pieces live here, both pure (no runtime state), so the
//! comm layer in `sympack-core` and the property tests can share them:
//!
//! 1. **Frame codec + coalescer.** Small control messages (dependency
//!    signals) bound for the same rank within a scheduling quantum are
//!    packed into one *frame*: a fixed header plus length-prefixed
//!    sub-frames. [`Coalescer`] buffers per destination and decides when a
//!    frame must flush (size threshold, quantum expiry, or explicit drain).
//!    Wire accounting is exact by construction:
//!    `frame bytes = FRAME_HEADER_BYTES + Σ (SUB_HEADER_BYTES + sub bytes)`,
//!    which is the conservation invariant the property tests pin down.
//!
//! 2. **Broadcast-tree planning.** The fan-out algorithm's owner→targets
//!    broadcast is restructured as a k-ary tree over *node groups*: targets
//!    on the owner's node are signalled directly, each remote node elects a
//!    leader (its lowest target rank), and the leaders form a k-ary tree
//!    rooted at the owner. A leader re-hosts the block it fetched and
//!    relays signals to its node members and child leaders, so the owner's
//!    NIC serves O(arity) remote pulls instead of O(targets).
//!
//! The leader tree uses the shifted-heap layout: with leaders sorted
//! ascending in a vector, the root (the block owner, *outside* the vector)
//! feeds positions `0..arity`, and position `i` feeds positions
//! `arity*(i+1) .. arity*(i+1)+arity`. Every position has exactly one
//! parent and the layout covers any leader count, power-of-arity or not.

use std::collections::BTreeMap;

/// Fixed per-frame header: magic (u32) + sub-frame count (u32).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Per-sub-frame header: payload length prefix (u32).
pub const SUB_HEADER_BYTES: usize = 4;

/// Modeled wire size of one dependency signal's metadata — the paper's
/// `signal(ptr, meta)` payload: a global pointer, block coordinates, and
/// dimensions. Shared by every engine so flat signals and coalesced
/// sub-frames charge identical payload bytes.
pub const SIGNAL_WIRE_BYTES: usize = 48;

/// Magic marker leading every packed frame.
const FRAME_MAGIC: u32 = 0x5359_4D46; // "SYMF"

/// Exact wire size of a frame holding sub-payloads of the given sizes.
pub fn frame_wire_bytes(sub_sizes: impl IntoIterator<Item = usize>) -> usize {
    FRAME_HEADER_BYTES
        + sub_sizes
            .into_iter()
            .map(|s| SUB_HEADER_BYTES + s)
            .sum::<usize>()
}

/// Pack sub-payloads into one framed byte buffer (length-prefixed).
pub fn pack_frame(subs: &[Vec<u8>]) -> Vec<u8> {
    let total = frame_wire_bytes(subs.iter().map(|s| s.len()));
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&(subs.len() as u32).to_le_bytes());
    for s in subs {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s);
    }
    debug_assert_eq!(out.len(), total);
    out
}

/// Unpack a framed buffer back into its sub-payloads. Errors (rather than
/// panics) on truncation or corruption so fuzzed inputs are safe.
pub fn unpack_frame(buf: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Err(format!("frame truncated: {} header bytes", buf.len()));
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if magic != FRAME_MAGIC {
        return Err(format!("bad frame magic {magic:#x}"));
    }
    let count = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
    let mut subs = Vec::with_capacity(count);
    let mut at = FRAME_HEADER_BYTES;
    for i in 0..count {
        if at + SUB_HEADER_BYTES > buf.len() {
            return Err(format!("sub-frame {i} header truncated at {at}"));
        }
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        at += SUB_HEADER_BYTES;
        if at + len > buf.len() {
            return Err(format!("sub-frame {i} payload truncated at {at}"));
        }
        subs.push(buf[at..at + len].to_vec());
        at += len;
    }
    if at != buf.len() {
        return Err(format!(
            "{} trailing bytes after {count} sub-frames",
            buf.len() - at
        ));
    }
    Ok(subs)
}

/// Knobs for the coalescing layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoalesceConfig {
    /// Scheduling quantum: a destination's open frame flushes once it has
    /// been pending this long in virtual time.
    pub quantum_secs: f64,
    /// Flush a destination's frame before its wire size would exceed this.
    pub max_bytes: usize,
    /// Flush a destination's frame once it holds this many sub-frames.
    pub max_subs: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            // Comparable to the RPC latency itself: long enough to batch
            // the burst of signals a completing task fans out, short
            // enough that a critical-path signal is never held hostage.
            quantum_secs: 2.0e-6,
            max_bytes: 8 * 1024,
            max_subs: 64,
        }
    }
}

/// One flushed frame: the destination plus its sub-items in send order.
/// `wire_bytes` is the exact framed size (header + per-sub overhead).
#[derive(Debug)]
pub struct Batch<T> {
    pub dest: usize,
    /// `(payload_bytes, item)` pairs in the order they were pushed.
    pub subs: Vec<(usize, T)>,
    pub wire_bytes: usize,
}

struct PendingDest<T> {
    subs: Vec<(usize, T)>,
    /// Sum of sub payload bytes (headers accounted separately).
    payload_bytes: usize,
    /// Virtual time the first sub was buffered.
    opened_at: f64,
}

impl<T> PendingDest<T> {
    fn wire_bytes(&self) -> usize {
        FRAME_HEADER_BYTES + self.payload_bytes + SUB_HEADER_BYTES * self.subs.len()
    }

    fn into_batch(self, dest: usize) -> Batch<T> {
        let wire = self.wire_bytes();
        Batch {
            dest,
            subs: self.subs,
            wire_bytes: wire,
        }
    }
}

/// Per-destination buffer of pending sub-messages. Generic over the item
/// type so the codec tests use raw bytes while the engines buffer signal
/// values. Destinations are kept in a `BTreeMap` so every drain is in
/// deterministic (ascending-rank) order.
pub struct Coalescer<T> {
    cfg: CoalesceConfig,
    pending: BTreeMap<usize, PendingDest<T>>,
}

impl<T> Coalescer<T> {
    pub fn new(cfg: CoalesceConfig) -> Self {
        Coalescer {
            cfg,
            pending: BTreeMap::new(),
        }
    }

    pub fn config(&self) -> &CoalesceConfig {
        &self.cfg
    }

    /// True when no destination has a pending frame.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Sub-frames currently pending toward `dest`.
    #[cfg(test)]
    fn pending_for(&self, dest: usize) -> usize {
        self.pending.get(&dest).map_or(0, |p| p.subs.len())
    }

    /// Buffer one sub-message of `payload_bytes` toward `dest` at virtual
    /// time `now`. Returns a full frame to send *first* when appending
    /// would breach the size threshold, and the threshold-triggered frame
    /// when the append itself fills the frame. Order within a destination
    /// is always push order.
    pub fn push(
        &mut self,
        dest: usize,
        payload_bytes: usize,
        item: T,
        now: f64,
    ) -> Option<Batch<T>> {
        let mut flushed = None;
        if let Some(p) = self.pending.get(&dest) {
            if p.wire_bytes() + SUB_HEADER_BYTES + payload_bytes > self.cfg.max_bytes {
                let p = self.pending.remove(&dest).expect("checked above");
                flushed = Some(p.into_batch(dest));
            }
        }
        let p = self.pending.entry(dest).or_insert_with(|| PendingDest {
            subs: Vec::new(),
            payload_bytes: 0,
            opened_at: now,
        });
        p.subs.push((payload_bytes, item));
        p.payload_bytes += payload_bytes;
        if p.subs.len() >= self.cfg.max_subs {
            let p = self.pending.remove(&dest).expect("just inserted");
            debug_assert!(flushed.is_none(), "size flush empties the slot first");
            flushed = Some(p.into_batch(dest));
        }
        flushed
    }

    /// Drain every destination whose frame has been open for at least the
    /// configured quantum by time `now`, in ascending destination order.
    pub fn take_expired(&mut self, now: f64) -> Vec<Batch<T>> {
        let expired: Vec<usize> = self
            .pending
            .iter()
            .filter(|(_, p)| now - p.opened_at >= self.cfg.quantum_secs)
            .map(|(&d, _)| d)
            .collect();
        expired
            .into_iter()
            .map(|d| {
                let p = self.pending.remove(&d).expect("collected above");
                p.into_batch(d)
            })
            .collect()
    }

    /// Drain everything (engine-idle flush), ascending destination order.
    pub fn take_all(&mut self) -> Vec<Batch<T>> {
        let dests: Vec<usize> = self.pending.keys().copied().collect();
        dests
            .into_iter()
            .map(|d| {
                let p = self.pending.remove(&d).expect("keyed above");
                p.into_batch(d)
            })
            .collect()
    }
}

/// Broadcast topology for the fan-out engine's block publication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BcastTopology {
    /// Owner signals every consumer directly (the pre-aggregation wire
    /// pattern): O(targets) signals and O(targets) remote pulls of the
    /// owner's block.
    #[default]
    Flat,
    /// k-ary tree over node groups: the owner feeds up to `arity` node
    /// leaders, leaders re-host and relay onward. O(log targets) depth,
    /// and each source NIC serves O(arity + ranks-per-node) pulls.
    Tree {
        /// Children per tree position; clamped to ≥ 1.
        arity: usize,
    },
}

/// A planned hierarchical broadcast: who the owner signals directly, the
/// leader tree, and each leader's same-node members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BcastPlan {
    /// Consumers on the owner's own node (plus any stray leaderless case):
    /// signalled flat by the owner.
    pub direct: Vec<usize>,
    /// One leader per remote consumer node, ascending; tree positions are
    /// indices into this vector.
    pub leaders: Vec<usize>,
    /// `members[i]`: the non-leader consumers on leader `i`'s node, which
    /// leader `i` signals after re-hosting the block.
    pub members: Vec<Vec<usize>>,
    /// Children per tree position (≥ 1).
    pub arity: usize,
}

impl BcastPlan {
    /// Tree positions the owner (the root, outside `leaders`) feeds.
    pub fn root_children(&self) -> std::ops::Range<usize> {
        0..self.arity.min(self.leaders.len())
    }

    /// Tree positions fed by the leader at position `pos`.
    pub fn children_of(&self, pos: usize) -> std::ops::Range<usize> {
        let lo = (self.arity * (pos + 1)).min(self.leaders.len());
        let hi = (self.arity * (pos + 1) + self.arity).min(self.leaders.len());
        lo..hi
    }

    /// Every rank the plan delivers to, in no particular order.
    #[cfg(test)]
    fn all_targets(&self) -> Vec<usize> {
        let mut v = self.direct.clone();
        v.extend_from_slice(&self.leaders);
        for m in &self.members {
            v.extend_from_slice(m);
        }
        v
    }
}

/// Plan a hierarchical broadcast from `owner` to `dests` (deduplicated;
/// `owner` itself, if listed, is skipped) with `ranks_per_node` ranks per
/// node.
pub fn plan_tree(owner: usize, dests: &[usize], arity: usize, ranks_per_node: usize) -> BcastPlan {
    let arity = arity.max(1);
    let rpn = ranks_per_node.max(1);
    let node_of = |r: usize| r / rpn;
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut direct = Vec::new();
    for &d in dests.iter().filter(|&&d| d != owner) {
        if node_of(d) == node_of(owner) {
            direct.push(d);
        } else {
            groups.entry(node_of(d)).or_default().push(d);
        }
    }
    direct.sort_unstable();
    let mut leaders = Vec::with_capacity(groups.len());
    let mut members = Vec::with_capacity(groups.len());
    for (_, mut g) in groups {
        g.sort_unstable();
        leaders.push(g[0]);
        members.push(g[1..].to_vec());
    }
    BcastPlan {
        direct,
        leaders,
        members,
        arity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_byte_identically() {
        let subs: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![], vec![0xFF; 300], vec![42]];
        let wire = pack_frame(&subs);
        assert_eq!(wire.len(), frame_wire_bytes(subs.iter().map(|s| s.len())));
        assert_eq!(unpack_frame(&wire).unwrap(), subs);
    }

    #[test]
    fn unpack_rejects_corruption() {
        let wire = pack_frame(&[vec![1, 2, 3]]);
        assert!(unpack_frame(&wire[..wire.len() - 1]).is_err());
        let mut bad_magic = wire.clone();
        bad_magic[0] ^= 0x40;
        assert!(unpack_frame(&bad_magic).is_err());
        let mut trailing = wire.clone();
        trailing.push(0);
        assert!(unpack_frame(&trailing).is_err());
    }

    #[test]
    fn coalescer_respects_size_threshold() {
        let cfg = CoalesceConfig {
            quantum_secs: 1.0,
            max_bytes: 64,
            max_subs: 1000,
        };
        let mut co = Coalescer::new(cfg);
        let mut flushed = Vec::new();
        for i in 0..20 {
            if let Some(b) = co.push(3, 10, i, 0.0) {
                flushed.push(b);
            }
        }
        flushed.extend(co.take_all());
        let total: usize = flushed.iter().map(|b| b.subs.len()).sum();
        assert_eq!(total, 20, "no sub lost");
        for b in &flushed {
            assert!(
                b.wire_bytes <= cfg.max_bytes,
                "frame of {} bytes",
                b.wire_bytes
            );
            assert_eq!(
                b.wire_bytes,
                frame_wire_bytes(b.subs.iter().map(|&(s, _)| s))
            );
        }
        // Order within the destination is push order across frames.
        let order: Vec<i32> = flushed
            .iter()
            .flat_map(|b| b.subs.iter().map(|&(_, v)| v))
            .collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn coalescer_quantum_expiry_only_drains_old_frames() {
        let cfg = CoalesceConfig {
            quantum_secs: 10.0,
            max_bytes: 1 << 20,
            max_subs: 1000,
        };
        let mut co = Coalescer::new(cfg);
        co.push(1, 8, "old", 0.0);
        co.push(2, 8, "new", 6.0);
        let drained = co.take_expired(11.0);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].dest, 1);
        assert_eq!(co.pending_for(2), 1);
        assert_eq!(co.take_expired(16.0).len(), 1);
        assert!(co.is_empty());
    }

    #[test]
    fn coalescer_max_subs_flushes_exactly() {
        let cfg = CoalesceConfig {
            quantum_secs: 1.0,
            max_bytes: 1 << 20,
            max_subs: 4,
        };
        let mut co = Coalescer::new(cfg);
        let mut batches = Vec::new();
        for i in 0..9 {
            if let Some(b) = co.push(0, 1, i, 0.0) {
                batches.push(b);
            }
        }
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|b| b.subs.len() == 4));
        assert_eq!(co.pending_for(0), 1);
    }

    fn check_exactly_once(owner: usize, dests: &[usize], arity: usize, rpn: usize) {
        let plan = plan_tree(owner, dests, arity, rpn);
        let mut got = plan.all_targets();
        got.sort_unstable();
        let mut want = dests.to_vec();
        want.sort_unstable();
        assert_eq!(got, want, "owner {owner} arity {arity} rpn {rpn}");
        // Every tree position has exactly one parent.
        let m = plan.leaders.len();
        let mut fed = vec![0usize; m];
        for pos in plan.root_children() {
            fed[pos] += 1;
        }
        for pos in 0..m {
            for c in plan.children_of(pos) {
                fed[c] += 1;
            }
        }
        assert!(fed.iter().all(|&f| f == 1), "parent counts {fed:?}");
    }

    #[test]
    fn tree_plan_delivers_exactly_once() {
        for arity in [2usize, 4, 8] {
            for n_dests in [1usize, 2, 3, 5, 7, 12, 31, 63, 100] {
                for rpn in [1usize, 2, 4] {
                    let dests: Vec<usize> = (1..=n_dests).collect();
                    check_exactly_once(0, &dests, arity, rpn);
                }
            }
        }
    }

    #[test]
    fn tree_plan_separates_same_node_targets() {
        // Owner 0, rpn 4: ranks 1-3 share the owner's node.
        let dests = [1, 2, 3, 4, 5, 6, 8, 9, 12];
        let plan = plan_tree(0, &dests, 2, 4);
        assert_eq!(plan.direct, vec![1, 2, 3]);
        assert_eq!(plan.leaders, vec![4, 8, 12]);
        assert_eq!(plan.members, vec![vec![5, 6], vec![9], vec![]]);
        // Root feeds positions 0,1; position 0 feeds position 2.
        assert_eq!(plan.root_children(), 0..2);
        assert_eq!(plan.children_of(0), 2..3);
        assert_eq!(plan.children_of(1), 3..3);
    }

    #[test]
    fn tree_plan_handles_non_power_of_two_group_counts() {
        for arity in [2usize, 4, 8] {
            for n_nodes in [3usize, 5, 6, 7, 9, 11, 13] {
                let rpn = 3;
                // One consumer per remote node plus partial groups.
                let dests: Vec<usize> = (rpn..rpn * n_nodes)
                    .filter(|r| r % 2 == 0 || r % rpn == 0)
                    .collect();
                check_exactly_once(0, &dests, arity, rpn);
            }
        }
    }
}
