//! Post-mortem analysis of a span timeline: the solver flight recorder.
//!
//! A [`Profile`] is assembled from one run's merged [`TraceEvent`] spans
//! plus the runtime's communication matrix and makespan. It computes:
//!
//! * the **critical path** over the *executed* task DAG — a backward walk
//!   from the last-finishing task, following resource edges (the task sat
//!   ready while its rank ran something else → blame the previous task on
//!   that rank) and dependency edges (the task waited for an input → blame
//!   the producer named in `pred`, or, lacking a label, the latest task
//!   finishing before the ready time). Path intervals are non-overlapping
//!   by construction, so the path length is a lower bound on the makespan;
//! * **per-rank wait attribution** — every second of `[0, makespan]` on a
//!   rank is classified as kernel-busy, runtime overhead, dep-wait,
//!   fetch-wait (the part of a dependency gap covered by that rank's own
//!   comm spans) or queue-idle, and the five classes sum back to the
//!   makespan exactly (asserted in tests to 1e-9);
//! * the **P×P communication matrix** and queue-depth / resident-bytes
//!   series sampled at task boundaries.
//!
//! Profiles serialize to a self-contained JSON document (schema
//! `sympack-profile-v1`, hand-rolled writer, parsed back by
//! [`crate::json`]) consumed by the `sympack-prof` CLI: `report` renders
//! the text summary, `chrome` exports the span lanes, `diff` compares two
//! profiles with thresholds for CI regression gating.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::json::{self, JsonValue};
use crate::{json_escape, SpanKind, TraceCat, TraceEvent};

/// Schema tag written into every profile document.
pub const SCHEMA: &str = "sympack-profile-v1";

/// P×P communication matrix in row-major (src·n + dst) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommMatrix {
    /// Number of ranks (matrix is `n × n`).
    pub n: usize,
    /// Bytes moved src→dst.
    pub bytes: Vec<u64>,
    /// Messages sent src→dst (signals, payload RPCs, transfers).
    pub msgs: Vec<u64>,
}

impl CommMatrix {
    /// An all-zero `n × n` matrix.
    pub fn empty(n: usize) -> CommMatrix {
        CommMatrix {
            n,
            bytes: vec![0; n * n],
            msgs: vec![0; n * n],
        }
    }

    /// Bytes moved from `src` to `dst` (0 when out of range).
    pub fn bytes_between(&self, src: usize, dst: usize) -> u64 {
        if src < self.n && dst < self.n {
            self.bytes[src * self.n + dst]
        } else {
            0
        }
    }

    /// Messages sent from `src` to `dst` (0 when out of range).
    pub fn msgs_between(&self, src: usize, dst: usize) -> u64 {
        if src < self.n && dst < self.n {
            self.msgs[src * self.n + dst]
        } else {
            0
        }
    }

    /// Total bytes over all pairs.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total messages over all pairs.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Pairs sorted by descending byte volume, excluding zero entries.
    fn top_pairs(&self, k: usize) -> Vec<(usize, usize, u64, u64)> {
        let mut pairs: Vec<(usize, usize, u64, u64)> = (0..self.n)
            .flat_map(|s| (0..self.n).map(move |d| (s, d)))
            .filter_map(|(s, d)| {
                let b = self.bytes[s * self.n + d];
                let m = self.msgs[s * self.n + d];
                (b > 0 || m > 0).then_some((s, d, b, m))
            })
            .collect();
        pairs.sort_by(|a, b| b.2.cmp(&a.2).then(b.3.cmp(&a.3)).then(a.0.cmp(&b.0)));
        pairs.truncate(k);
        pairs
    }
}

/// Why a task is on the critical path (the edge that led to it from its
/// successor in the walk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CritEdge {
    /// First task of the path (no blocking predecessor found).
    Seed,
    /// Successor waited on this task's output (dependency edge).
    Dep,
    /// Successor was ready but its rank was running this task
    /// (resource edge).
    Resource,
}

impl CritEdge {
    /// Stable lowercase label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            CritEdge::Seed => "seed",
            CritEdge::Dep => "dep",
            CritEdge::Resource => "resource",
        }
    }

    /// Inverse of [`CritEdge::label`].
    pub fn parse(s: &str) -> Option<CritEdge> {
        Some(match s {
            "seed" => CritEdge::Seed,
            "dep" => CritEdge::Dep,
            "resource" => CritEdge::Resource,
            _ => return None,
        })
    }
}

/// One task on the critical path, in execution order.
#[derive(Debug, Clone)]
pub struct CritTask {
    pub name: String,
    pub rank: usize,
    pub cat: TraceCat,
    pub start: f64,
    pub dur: f64,
    /// How the walk reached this task from its successor on the path.
    pub edge: CritEdge,
}

/// Exhaustive per-rank classification of `[0, makespan]`.
#[derive(Debug, Clone, Default)]
pub struct RankBreakdown {
    pub rank: usize,
    /// Seconds in task kernels (charged work minus runtime overhead).
    pub busy: f64,
    /// Seconds of runtime overhead inside task intervals.
    pub overhead: f64,
    /// Seconds waiting on dependencies not covered by own comm spans.
    pub dep_wait: f64,
    /// Seconds of dependency gaps covered by this rank's comm spans
    /// (blocking fetches, retry windows).
    pub fetch_wait: f64,
    /// Seconds with an empty ready queue and nothing in flight.
    pub idle: f64,
    /// Number of task executions.
    pub tasks: usize,
    /// Maximum ready-queue depth sampled at task boundaries.
    pub peak_rtq: u32,
    /// Maximum resident input-buffer bytes sampled at task boundaries.
    pub peak_bytes: u64,
}

impl RankBreakdown {
    /// Sum of all five time classes (should equal the makespan).
    pub fn total(&self) -> f64 {
        self.busy + self.overhead + self.dep_wait + self.fetch_wait + self.idle
    }
}

/// Per-rank block-publication byte accounting in BLR mode: what each rank
/// shipped dense vs compressed, and what the compressed publications would
/// have cost dense (the basis of the compression ratio).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlrRank {
    pub rank: usize,
    /// Payload bytes of dense block publications.
    pub dense_bytes: u64,
    /// Payload bytes of compressed (`[U|V]`) block publications.
    pub lr_bytes: u64,
    /// Dense-equivalent bytes of the compressed publications.
    pub lr_dense_equiv_bytes: u64,
    /// Blocks published dense.
    pub dense_blocks: u64,
    /// Blocks published compressed.
    pub lr_blocks: u64,
}

impl BlrRank {
    /// Total payload bytes this rank actually published (any form).
    pub fn published(&self) -> u64 {
        self.dense_bytes + self.lr_bytes
    }

    /// What the same publications would have cost with every block dense.
    pub fn dense_equiv(&self) -> u64 {
        self.dense_bytes + self.lr_dense_equiv_bytes
    }
}

/// A complete per-run profile: the analyzable flight-recorder output.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Engine the run used (`fanout`, `rightlooking`, `fanin`, ...).
    pub engine: String,
    pub n_ranks: usize,
    /// Achieved makespan (virtual seconds).
    pub makespan: f64,
    /// Critical path tasks in execution order.
    pub crit: Vec<CritTask>,
    /// Sum of durations along the critical path (lower bound on makespan).
    pub crit_len: f64,
    /// Critical-path time per category.
    pub crit_by_cat: Vec<(TraceCat, f64)>,
    /// Per-rank time attribution, indexed by rank.
    pub ranks: Vec<RankBreakdown>,
    /// P×P communication matrix.
    pub comm: CommMatrix,
    /// Per-rank publication accounting — populated (by the driver) only
    /// when the run used BLR compression, so dense-mode profile documents
    /// are byte-identical to their pre-BLR form.
    pub blr: Vec<BlrRank>,
    /// The full span list (sorted by start), for Chrome export and series.
    pub spans: Vec<TraceEvent>,
}

/// Comparison slack: absolute + relative to the run's makespan.
fn eps_for(makespan: f64) -> f64 {
    1e-12 + 1e-9 * makespan.abs()
}

impl Profile {
    /// Assemble a profile from one run's merged span list.
    pub fn build(
        engine: &str,
        events: &[TraceEvent],
        makespan: f64,
        n_ranks: usize,
        comm: CommMatrix,
    ) -> Profile {
        let mut spans: Vec<TraceEvent> = events.to_vec();
        spans.sort_by(|a, b| {
            a.start
                .total_cmp(&b.start)
                .then(a.end().total_cmp(&b.end()))
        });
        let eps = eps_for(makespan);
        let (crit, crit_len, crit_by_cat) = critical_path(&spans, eps);
        let ranks = (0..n_ranks)
            .map(|r| rank_breakdown(r, &spans, makespan))
            .collect();
        Profile {
            engine: engine.to_string(),
            n_ranks,
            makespan,
            crit,
            crit_len,
            crit_by_cat,
            ranks,
            comm,
            blr: Vec::new(),
            spans,
        }
    }
}

/// Backward critical-path walk over the executed DAG. Returns the path in
/// execution order, its length, and per-category totals.
fn critical_path(spans: &[TraceEvent], eps: f64) -> (Vec<CritTask>, f64, Vec<(TraceCat, f64)>) {
    let execs: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].kind == SpanKind::Exec)
        .collect();
    if execs.is_empty() {
        return (Vec::new(), 0.0, Vec::new());
    }

    // Index: per-rank exec spans and per-label exec spans, both ascending
    // by end time (spans are already sorted by start; re-sort by end).
    let mut by_rank: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut by_end: Vec<usize> = execs.clone();
    by_end.sort_by(|&a, &b| spans[a].end().total_cmp(&spans[b].end()));
    for &i in &by_end {
        by_rank.entry(spans[i].rank).or_default().push(i);
        by_name.entry(spans[i].name.as_str()).or_default().push(i);
    }

    // Latest event in `ids` (ascending by end) ending at or before `t`,
    // excluding `not`.
    let last_before = |ids: &[usize], t: f64, not: usize| -> Option<usize> {
        ids.iter()
            .rev()
            .find(|&&i| i != not && spans[i].end() <= t + eps)
            .copied()
    };

    let mut cur = *by_end.last().unwrap();
    let mut visited: HashSet<usize> = HashSet::new();
    // (span index, edge explaining why this task waited: how it connects
    // to its predecessor on the path)
    let mut path: Vec<(usize, CritEdge)> = Vec::new();
    for _ in 0..=execs.len() {
        if !visited.insert(cur) {
            break; // eps slop on zero-duration spans could cycle; stop
        }
        let e = &spans[cur];
        // Decide the predecessor and the edge kind before recording.
        let step = if e.start > e.ready_at + eps {
            // Ready before it started: the rank was busy (resource edge).
            last_before(&by_rank[&e.rank], e.start, cur).map(|p| (p, CritEdge::Resource))
        } else {
            // Started as soon as ready: waiting on the producer. Try the
            // labeled dependency first; lacking one (flat producers),
            // blame the latest task finishing before the ready time.
            e.pred
                .as_ref()
                .and_then(|pred| by_name.get(pred.as_str()))
                .and_then(|ids| last_before(ids, e.ready_at.min(e.start), cur))
                .or_else(|| last_before(&by_end, e.ready_at.min(e.start), cur))
                .map(|p| (p, CritEdge::Dep))
        };
        match step {
            Some((p, edge)) => {
                path.push((cur, edge));
                cur = p;
            }
            None => {
                path.push((cur, CritEdge::Seed));
                break;
            }
        }
    }

    path.reverse();
    let tasks: Vec<CritTask> = path
        .iter()
        .map(|&(i, edge)| {
            let e = &spans[i];
            CritTask {
                name: e.name.clone(),
                rank: e.rank,
                cat: e.cat,
                start: e.start,
                dur: e.dur,
                edge,
            }
        })
        .collect();
    let len = tasks.iter().map(|t| t.dur).sum();
    let mut by_cat: HashMap<&str, (TraceCat, f64)> = HashMap::new();
    for t in &tasks {
        by_cat.entry(t.cat.label()).or_insert((t.cat, 0.0)).1 += t.dur;
    }
    let mut by_cat: Vec<(TraceCat, f64)> = by_cat.into_values().collect();
    by_cat.sort_by(|a, b| b.1.total_cmp(&a.1));
    (tasks, len, by_cat)
}

/// Classify every second of `[0, makespan]` on `rank`. The five classes
/// sum to the makespan exactly (up to fp rounding).
fn rank_breakdown(rank: usize, spans: &[TraceEvent], makespan: f64) -> RankBreakdown {
    let mut out = RankBreakdown {
        rank,
        ..RankBreakdown::default()
    };

    // Union of this rank's comm intervals (merged, ascending) — the part
    // of a dependency gap they cover is fetch-wait, not dep-wait.
    let mut comm: Vec<(f64, f64)> = spans
        .iter()
        .filter(|e| e.rank == rank && !matches!(e.kind, SpanKind::Exec | SpanKind::Request))
        .map(|e| (e.start, e.end()))
        .collect();
    comm.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut comm_union: Vec<(f64, f64)> = Vec::with_capacity(comm.len());
    for (s, e) in comm {
        match comm_union.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => comm_union.push((s, e)),
        }
    }
    let overlap = |a: f64, b: f64| -> f64 {
        comm_union
            .iter()
            .map(|&(s, e)| (e.min(b) - s.max(a)).max(0.0))
            .sum()
    };

    let mut prev_end = 0.0f64;
    for e in spans {
        if e.rank != rank || e.kind != SpanKind::Exec {
            continue;
        }
        out.tasks += 1;
        out.peak_rtq = out.peak_rtq.max(e.rtq_depth);
        out.peak_bytes = out.peak_bytes.max(e.bytes);
        let gap = (e.start - prev_end).max(0.0);
        if gap > 0.0 {
            // The leading part of the gap up to the ready time is waiting
            // on inputs; split it by comm coverage. The rest is idle.
            let dep_raw = (e.ready_at - prev_end).clamp(0.0, gap);
            let fetch = overlap(prev_end, prev_end + dep_raw).min(dep_raw);
            out.fetch_wait += fetch;
            out.dep_wait += dep_raw - fetch;
            out.idle += gap - dep_raw;
        }
        let covered = e.end() - e.start.max(prev_end);
        if covered > 0.0 {
            let ov = e.overhead.clamp(0.0, covered);
            out.overhead += ov;
            out.busy += covered - ov;
        }
        prev_end = prev_end.max(e.end());
    }
    out.idle += (makespan - prev_end).max(0.0);
    out
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

/// Shortest-roundtrip f64 formatting (Rust's `Display` is exact).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn u64_list(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

impl Profile {
    /// Serialize as a self-contained JSON document (schema
    /// [`SCHEMA`]), parseable by [`Profile::from_json`].
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096 + 160 * self.spans.len());
        s.push_str(&format!(
            "{{\n\"schema\":\"{}\",\n\"engine\":\"{}\",\n\"n_ranks\":{},\n\"makespan\":{},\n",
            SCHEMA,
            json_escape(&self.engine),
            self.n_ranks,
            num(self.makespan)
        ));
        // Critical path.
        let tasks: Vec<String> = self
            .crit
            .iter()
            .map(|t| {
                format!(
                    "{{\"name\":\"{}\",\"rank\":{},\"cat\":\"{}\",\"start\":{},\"dur\":{},\"edge\":\"{}\"}}",
                    json_escape(&t.name),
                    t.rank,
                    t.cat.label(),
                    num(t.start),
                    num(t.dur),
                    t.edge.label()
                )
            })
            .collect();
        let by_cat: Vec<String> = self
            .crit_by_cat
            .iter()
            .map(|(c, secs)| format!("[\"{}\",{}]", c.label(), num(*secs)))
            .collect();
        s.push_str(&format!(
            "\"critical_path\":{{\"length\":{},\"by_cat\":[{}],\"tasks\":[\n{}\n]}},\n",
            num(self.crit_len),
            by_cat.join(","),
            tasks.join(",\n")
        ));
        // Per-rank attribution.
        let ranks: Vec<String> = self
            .ranks
            .iter()
            .map(|r| {
                format!(
                    "{{\"rank\":{},\"busy\":{},\"overhead\":{},\"dep_wait\":{},\"fetch_wait\":{},\"idle\":{},\"tasks\":{},\"peak_rtq\":{},\"peak_bytes\":{}}}",
                    r.rank,
                    num(r.busy),
                    num(r.overhead),
                    num(r.dep_wait),
                    num(r.fetch_wait),
                    num(r.idle),
                    r.tasks,
                    r.peak_rtq,
                    r.peak_bytes
                )
            })
            .collect();
        s.push_str(&format!("\"ranks\":[\n{}\n],\n", ranks.join(",\n")));
        // Comm matrix.
        s.push_str(&format!(
            "\"comm\":{{\"n\":{},\"bytes\":{},\"msgs\":{}}},\n",
            self.comm.n,
            u64_list(&self.comm.bytes),
            u64_list(&self.comm.msgs)
        ));
        // BLR publication accounting — only present for compressed runs,
        // keeping dense-mode documents byte-identical to the old schema.
        if !self.blr.is_empty() {
            let rows: Vec<String> = self
                .blr
                .iter()
                .map(|b| {
                    format!(
                        "{{\"rank\":{},\"dense_bytes\":{},\"lr_bytes\":{},\"lr_dense_equiv_bytes\":{},\"dense_blocks\":{},\"lr_blocks\":{}}}",
                        b.rank,
                        b.dense_bytes,
                        b.lr_bytes,
                        b.lr_dense_equiv_bytes,
                        b.dense_blocks,
                        b.lr_blocks
                    )
                })
                .collect();
            s.push_str(&format!("\"blr\":[\n{}\n],\n", rows.join(",\n")));
        }
        // Spans.
        let spans: Vec<String> = self.spans.iter().map(span_to_json).collect();
        s.push_str(&format!("\"spans\":[\n{}\n]\n}}\n", spans.join(",\n")));
        s
    }

    /// Parse a document produced by [`Profile::to_json`].
    pub fn from_json(text: &str) -> Result<Profile, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(|v| v.as_str())
            .ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}' (want {SCHEMA})"));
        }
        let engine = doc
            .get("engine")
            .and_then(|v| v.as_str())
            .unwrap_or("unknown")
            .to_string();
        let n_ranks = doc
            .get("n_ranks")
            .and_then(|v| v.as_u64())
            .ok_or("missing n_ranks")? as usize;
        let makespan = doc
            .get("makespan")
            .and_then(|v| v.as_f64())
            .ok_or("missing makespan")?;
        let cp = doc.get("critical_path").ok_or("missing critical_path")?;
        let crit_len = cp
            .get("length")
            .and_then(|v| v.as_f64())
            .ok_or("missing critical_path.length")?;
        let crit_by_cat = cp
            .get("by_cat")
            .and_then(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .filter_map(|pair| {
                let items = pair.as_array()?;
                let cat = TraceCat::parse(items.first()?.as_str()?)?;
                Some((cat, items.get(1)?.as_f64()?))
            })
            .collect();
        let crit = cp
            .get("tasks")
            .and_then(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .filter_map(|t| {
                Some(CritTask {
                    name: t.get("name")?.as_str()?.to_string(),
                    rank: t.get("rank")?.as_u64()? as usize,
                    cat: TraceCat::parse(t.get("cat")?.as_str()?)?,
                    start: t.get("start")?.as_f64()?,
                    dur: t.get("dur")?.as_f64()?,
                    edge: CritEdge::parse(t.get("edge")?.as_str()?)?,
                })
            })
            .collect();
        let ranks = doc
            .get("ranks")
            .and_then(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .filter_map(|r| {
                Some(RankBreakdown {
                    rank: r.get("rank")?.as_u64()? as usize,
                    busy: r.get("busy")?.as_f64()?,
                    overhead: r.get("overhead")?.as_f64()?,
                    dep_wait: r.get("dep_wait")?.as_f64()?,
                    fetch_wait: r.get("fetch_wait")?.as_f64()?,
                    idle: r.get("idle")?.as_f64()?,
                    tasks: r.get("tasks")?.as_u64()? as usize,
                    peak_rtq: r.get("peak_rtq")?.as_u64()? as u32,
                    peak_bytes: r.get("peak_bytes")?.as_u64()?,
                })
            })
            .collect();
        let comm = match doc.get("comm") {
            Some(c) => CommMatrix {
                n: c.get("n").and_then(|v| v.as_u64()).unwrap_or(0) as usize,
                bytes: u64s(c.get("bytes")),
                msgs: u64s(c.get("msgs")),
            },
            None => CommMatrix::default(),
        };
        let blr = doc
            .get("blr")
            .and_then(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .filter_map(|b| {
                Some(BlrRank {
                    rank: b.get("rank")?.as_u64()? as usize,
                    dense_bytes: b.get("dense_bytes")?.as_u64()?,
                    lr_bytes: b.get("lr_bytes")?.as_u64()?,
                    lr_dense_equiv_bytes: b.get("lr_dense_equiv_bytes")?.as_u64()?,
                    dense_blocks: b.get("dense_blocks")?.as_u64()?,
                    lr_blocks: b.get("lr_blocks")?.as_u64()?,
                })
            })
            .collect();
        let spans = doc
            .get("spans")
            .and_then(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .filter_map(span_from_json)
            .collect();
        Ok(Profile {
            engine,
            n_ranks,
            makespan,
            crit,
            crit_len,
            crit_by_cat,
            ranks,
            comm,
            blr,
            spans,
        })
    }
}

fn u64s(v: Option<&JsonValue>) -> Vec<u64> {
    v.and_then(|v| v.as_array())
        .unwrap_or(&[])
        .iter()
        .filter_map(|x| x.as_u64())
        .collect()
}

fn span_to_json(e: &TraceEvent) -> String {
    let mut s = format!(
        "{{\"rank\":{},\"name\":\"{}\",\"cat\":\"{}\",\"kind\":\"{}\",\"start\":{},\"dur\":{},\"kernel\":{},\"overhead\":{},\"ready\":{}",
        e.rank,
        json_escape(&e.name),
        e.cat.label(),
        e.kind.label(),
        num(e.start),
        num(e.dur),
        num(e.kernel),
        num(e.overhead),
        num(e.ready_at)
    );
    if let Some(p) = &e.pred {
        s.push_str(&format!(",\"pred\":\"{}\"", json_escape(p)));
    }
    if let Some(p) = e.peer {
        s.push_str(&format!(",\"peer\":{p}"));
    }
    if e.bytes > 0 {
        s.push_str(&format!(",\"bytes\":{}", e.bytes));
    }
    if e.rtq_depth > 0 {
        s.push_str(&format!(",\"rtq\":{}", e.rtq_depth));
    }
    s.push('}');
    s
}

fn span_from_json(v: &JsonValue) -> Option<TraceEvent> {
    Some(TraceEvent {
        rank: v.get("rank")?.as_u64()? as usize,
        name: v.get("name")?.as_str()?.to_string(),
        cat: TraceCat::parse(v.get("cat")?.as_str()?)?,
        kind: SpanKind::parse(v.get("kind")?.as_str()?)?,
        start: v.get("start")?.as_f64()?,
        dur: v.get("dur")?.as_f64()?,
        kernel: v.get("kernel")?.as_f64()?,
        overhead: v.get("overhead")?.as_f64()?,
        ready_at: v.get("ready")?.as_f64()?,
        pred: v.get("pred").and_then(|p| p.as_str()).map(str::to_string),
        peer: v.get("peer").and_then(|p| p.as_u64()).map(|p| p as usize),
        bytes: v.get("bytes").and_then(|b| b.as_u64()).unwrap_or(0),
        rtq_depth: v.get("rtq").and_then(|b| b.as_u64()).unwrap_or(0) as u32,
    })
}

// ---------------------------------------------------------------------------
// Text report + diff
// ---------------------------------------------------------------------------

/// Human-scale time formatting.
fn fmt_time(secs: f64) -> String {
    let a = secs.abs();
    if a >= 1.0 {
        format!("{secs:.3} s")
    } else if a >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{:.2} us", secs * 1e6)
    }
}

/// Human-scale byte formatting.
fn fmt_bytes(b: u64) -> String {
    let b = b as f64;
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} KB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

impl Profile {
    /// Render the text report: headline, critical path (top-k tasks by
    /// duration), per-rank wait attribution, imbalance and comm hotspots.
    pub fn render_report(&self, top_k: usize) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "== sympack profile: engine={} ranks={} ==\n",
            self.engine, self.n_ranks
        ));
        s.push_str(&format!(
            "makespan {}   critical path {} ({:.1}% of makespan, {} tasks)\n",
            fmt_time(self.makespan),
            fmt_time(self.crit_len),
            pct(self.crit_len, self.makespan),
            self.crit.len()
        ));
        if self.crit_len > 0.0 {
            let by_cat: Vec<String> = self
                .crit_by_cat
                .iter()
                .map(|(c, secs)| format!("{} {:.1}%", c.label(), pct(*secs, self.crit_len)))
                .collect();
            s.push_str(&format!(
                "critical path by category: {}\n",
                by_cat.join("  ")
            ));
        }

        s.push_str(&format!(
            "\ntop {} critical-path tasks by duration:\n",
            top_k
        ));
        let mut by_dur: Vec<&CritTask> = self.crit.iter().collect();
        by_dur.sort_by(|a, b| b.dur.total_cmp(&a.dur));
        for t in by_dur.iter().take(top_k) {
            s.push_str(&format!(
                "  rank {:<3} {:<16} {:<6} {:>12}  ({:.1}% of path)  [{}]\n",
                t.rank,
                t.name,
                t.cat.label(),
                fmt_time(t.dur),
                pct(t.dur, self.crit_len),
                t.edge.label()
            ));
        }

        s.push_str(
            "\nper-rank time attribution (% of makespan):\n\
             rank     busy overhead dep-wait fetch-wait   idle  tasks  rtq-peak   mem-peak\n",
        );
        for r in &self.ranks {
            s.push_str(&format!(
                "{:>4} {:>7.1}% {:>7.1}% {:>7.1}% {:>9.1}% {:>5.1}% {:>6} {:>9} {:>10}\n",
                r.rank,
                pct(r.busy, self.makespan),
                pct(r.overhead, self.makespan),
                pct(r.dep_wait, self.makespan),
                pct(r.fetch_wait, self.makespan),
                pct(r.idle, self.makespan),
                r.tasks,
                r.peak_rtq,
                fmt_bytes(r.peak_bytes)
            ));
        }
        let busies: Vec<f64> = self.ranks.iter().map(|r| r.busy).collect();
        if !busies.is_empty() {
            let max = busies.iter().cloned().fold(0.0f64, f64::max);
            let mean = busies.iter().sum::<f64>() / busies.len() as f64;
            if mean > 0.0 {
                s.push_str(&format!(
                    "imbalance: max busy / mean busy = {:.2}\n",
                    max / mean
                ));
            }
        }

        s.push_str(&format!(
            "\ncomm matrix: {} total in {} messages\n",
            fmt_bytes(self.comm.total_bytes()),
            self.comm.total_msgs()
        ));
        if self.comm.n > 0 && self.comm.n <= 16 {
            s.push_str("bytes src→dst:\n        ");
            for d in 0..self.comm.n {
                s.push_str(&format!("{:>10}", format!("d{d}")));
            }
            s.push('\n');
            for src in 0..self.comm.n {
                s.push_str(&format!("  s{src:<4} "));
                for dst in 0..self.comm.n {
                    s.push_str(&format!(
                        "{:>10}",
                        fmt_bytes(self.comm.bytes_between(src, dst))
                    ));
                }
                s.push('\n');
            }
        }
        let hot = self.comm.top_pairs(3);
        if !hot.is_empty() {
            s.push_str("hottest pairs: ");
            let items: Vec<String> = hot
                .iter()
                .map(|(src, dst, b, m)| format!("r{src}→r{dst} {} ({m} msgs)", fmt_bytes(*b)))
                .collect();
            s.push_str(&items.join("  "));
            s.push('\n');
        }

        // BLR compression summary (only present for compressed runs).
        if !self.blr.is_empty() {
            s.push_str(
                "\nblock publications (dense vs low-rank):\n\
                 rank  dense-blocks  lr-blocks  dense-bytes     lr-bytes  dense-equiv  ratio\n",
            );
            let mut tot = BlrRank::default();
            for b in &self.blr {
                let ratio = b.dense_equiv() as f64 / b.published().max(1) as f64;
                s.push_str(&format!(
                    "{:>4} {:>13} {:>10} {:>12} {:>12} {:>12} {:>5.2}x\n",
                    b.rank,
                    b.dense_blocks,
                    b.lr_blocks,
                    fmt_bytes(b.dense_bytes),
                    fmt_bytes(b.lr_bytes),
                    fmt_bytes(b.dense_equiv()),
                    ratio
                ));
                tot.dense_bytes += b.dense_bytes;
                tot.lr_bytes += b.lr_bytes;
                tot.lr_dense_equiv_bytes += b.lr_dense_equiv_bytes;
                tot.dense_blocks += b.dense_blocks;
                tot.lr_blocks += b.lr_blocks;
            }
            s.push_str(&format!(
                "total published {} vs {} dense-equivalent: {:.2}x compression\n",
                fmt_bytes(tot.published()),
                fmt_bytes(tot.dense_equiv()),
                tot.dense_equiv() as f64 / tot.published().max(1) as f64
            ));
        }

        // Serving workloads: attribute request latency to tenants, not just
        // ranks. Request spans are named `{tenant}/job-{id}` (the fleet
        // layer) with `kernel` carrying the service portion, so the
        // remainder of each span is queue/scheduling wait charged to the
        // tenant that suffered it.
        #[derive(Default)]
        struct TenantAgg {
            latencies: Vec<f64>,
            service: f64,
            wait: f64,
        }
        let mut tenants: BTreeMap<&str, TenantAgg> = BTreeMap::new();
        for e in self.spans.iter().filter(|e| e.kind == SpanKind::Request) {
            let tenant = e.name.split_once('/').map_or("-", |(t, _)| t);
            let agg = tenants.entry(tenant).or_default();
            agg.latencies.push(e.dur);
            agg.service += e.kernel;
            agg.wait += (e.dur - e.kernel).max(0.0);
        }
        if !tenants.is_empty() {
            let quantile = |sorted: &[f64], q: f64| -> f64 {
                let idx = (q * (sorted.len() - 1) as f64).round() as usize;
                sorted[idx]
            };
            s.push_str(
                "\nper-tenant requests (latency = completion − arrival, \
                 wait = latency − service):\n\
                 tenant           reqs      p50-lat      p99-lat      service         wait\n",
            );
            for (tenant, agg) in &tenants {
                let mut lat = agg.latencies.clone();
                lat.sort_by(f64::total_cmp);
                s.push_str(&format!(
                    "{:<14} {:>6} {:>12} {:>12} {:>12} {:>12}\n",
                    tenant,
                    lat.len(),
                    fmt_time(quantile(&lat, 0.50)),
                    fmt_time(quantile(&lat, 0.99)),
                    fmt_time(agg.service),
                    fmt_time(agg.wait),
                ));
            }
        }
        s
    }
}

/// Regression thresholds for [`diff`], in percent growth.
#[derive(Debug, Clone, Copy)]
pub struct DiffThresholds {
    /// Allowed makespan growth (%) before the diff counts as a regression.
    pub makespan_pct: f64,
    /// Allowed critical-path growth (%).
    pub crit_pct: f64,
    /// Allowed published-byte growth (%) — gated only when both profiles
    /// carry BLR publication accounting, so dense-vs-dense diffs are
    /// unaffected.
    pub published_pct: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            makespan_pct: 5.0,
            crit_pct: 5.0,
            published_pct: 10.0,
        }
    }
}

/// Result of comparing two profiles.
#[derive(Debug, Clone)]
pub struct ProfileDiff {
    /// Rendered comparison table.
    pub report: String,
    /// True when makespan or critical-path growth exceeded its threshold.
    pub regressed: bool,
}

fn growth_pct(old: f64, new: f64) -> f64 {
    if old > 0.0 {
        100.0 * (new - old) / old
    } else {
        0.0
    }
}

/// Compare two profiles; `new` regresses when its makespan or critical
/// path grew beyond the thresholds relative to `old`.
pub fn diff(old: &Profile, new: &Profile, thr: &DiffThresholds) -> ProfileDiff {
    let mut s = String::new();
    let mut regressed = false;
    s.push_str(&format!(
        "profile diff: {} ({} ranks) → {} ({} ranks)\n",
        old.engine, old.n_ranks, new.engine, new.n_ranks
    ));
    let mut line = |label: &str, o: f64, n: f64, thr_pct: Option<f64>| {
        let g = growth_pct(o, n);
        let mut row = format!(
            "  {:<14} {:>12} → {:<12} ({:+.2}%)",
            label,
            fmt_time(o),
            fmt_time(n),
            g
        );
        if let Some(t) = thr_pct {
            if g > t {
                row.push_str(&format!("  REGRESSED (> {t:.1}%)"));
                regressed = true;
            }
        }
        row.push('\n');
        s.push_str(&row);
    };
    line(
        "makespan",
        old.makespan,
        new.makespan,
        Some(thr.makespan_pct),
    );
    line(
        "critical path",
        old.crit_len,
        new.crit_len,
        Some(thr.crit_pct),
    );
    let mean_busy = |p: &Profile| {
        if p.ranks.is_empty() {
            0.0
        } else {
            p.ranks.iter().map(|r| r.busy).sum::<f64>() / p.ranks.len() as f64
        }
    };
    line("mean busy", mean_busy(old), mean_busy(new), None);
    s.push_str(&format!(
        "  {:<14} {:>12} → {:<12} ({:+.2}%)\n",
        "comm bytes",
        fmt_bytes(old.comm.total_bytes()),
        fmt_bytes(new.comm.total_bytes()),
        growth_pct(old.comm.total_bytes() as f64, new.comm.total_bytes() as f64)
    ));
    // Published-byte gate: compare BLR publication accounting when both
    // runs recorded it (compressed runs). A compression regression shows
    // up as published-byte growth even when the makespan holds steady.
    if !old.blr.is_empty() && !new.blr.is_empty() {
        let pub_of = |p: &Profile| p.blr.iter().map(|b| b.published()).sum::<u64>() as f64;
        let ratio_of = |p: &Profile| {
            let de: u64 = p.blr.iter().map(|b| b.dense_equiv()).sum();
            let pb: u64 = p.blr.iter().map(|b| b.published()).sum();
            de as f64 / pb.max(1) as f64
        };
        let (po, pn) = (pub_of(old), pub_of(new));
        let g = growth_pct(po, pn);
        let mut row = format!(
            "  {:<14} {:>12} → {:<12} ({:+.2}%)  compression {:.2}x → {:.2}x",
            "published",
            fmt_bytes(po as u64),
            fmt_bytes(pn as u64),
            g,
            ratio_of(old),
            ratio_of(new)
        );
        if g > thr.published_pct {
            row.push_str(&format!("  REGRESSED (> {:.1}%)", thr.published_pct));
            regressed = true;
        }
        row.push('\n');
        s.push_str(&row);
    }
    s.push_str(if regressed {
        "verdict: REGRESSION past threshold\n"
    } else {
        "verdict: within thresholds\n"
    });
    ProfileDiff {
        report: s,
        regressed,
    }
}

/// Assert the profile's structural invariants; returns an error string
/// naming the first violation. Used by tests and by `sympack-prof report`.
pub fn check_invariants(p: &Profile) -> Result<(), String> {
    let tol = 1e-9 * p.makespan.abs() + 1e-9;
    if p.crit_len > p.makespan + tol {
        return Err(format!(
            "critical path {} exceeds makespan {}",
            p.crit_len, p.makespan
        ));
    }
    // Path intervals must be non-overlapping and in time order.
    for w in p.crit.windows(2) {
        if w[1].start + tol < w[0].start + w[0].dur {
            return Err(format!(
                "critical path overlaps: {} ends {} after {} starts {}",
                w[0].name,
                w[0].start + w[0].dur,
                w[1].name,
                w[1].start
            ));
        }
    }
    for r in &p.ranks {
        let total = r.total();
        if (total - p.makespan).abs() > tol.max(1e-9 * total.abs()) {
            return Err(format!(
                "rank {} time identity broken: busy+overhead+waits+idle = {} vs makespan {}",
                r.rank, total, p.makespan
            ));
        }
        if r.busy < -tol
            || r.overhead < -tol
            || r.dep_wait < -tol
            || r.fetch_wait < -tol
            || r.idle < -tol
        {
            return Err(format!("rank {} has a negative time class", r.rank));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        rank: usize,
        name: &str,
        start: f64,
        dur: f64,
        ready: f64,
        pred: Option<&str>,
    ) -> TraceEvent {
        let mut e = TraceEvent::basic(rank, name.to_string(), TraceCat::Gemm, start, dur);
        e.ready_at = ready;
        e.pred = pred.map(str::to_string);
        e
    }

    /// Chain a(0..1) on r0 → b(1..2) on r1 → c(2..3) on r0: the path must
    /// recover all three via dep edges.
    #[test]
    fn critical_path_follows_dep_chain() {
        let events = vec![
            ev(0, "a", 0.0, 1.0, 0.0, None),
            ev(1, "b", 1.0, 1.0, 1.0, Some("a")),
            ev(0, "c", 2.0, 1.0, 2.0, Some("b")),
        ];
        let p = Profile::build("test", &events, 3.0, 2, CommMatrix::empty(2));
        let names: Vec<&str> = p.crit.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(p.crit[1].edge, CritEdge::Dep);
        assert!((p.crit_len - 3.0).abs() < 1e-12);
        check_invariants(&p).unwrap();
    }

    /// A task ready at t=0 but run second (rank busy) must produce a
    /// resource edge to the task that occupied the rank.
    #[test]
    fn critical_path_takes_resource_edge() {
        let events = vec![
            ev(0, "first", 0.0, 2.0, 0.0, None),
            ev(0, "second", 2.0, 1.0, 0.0, None),
        ];
        let p = Profile::build("test", &events, 3.0, 1, CommMatrix::empty(1));
        let names: Vec<&str> = p.crit.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["first", "second"]);
        assert_eq!(p.crit[1].edge, CritEdge::Resource);
        check_invariants(&p).unwrap();
    }

    #[test]
    fn rank_identity_classifies_gaps() {
        // r0: task at [0,1] (ready 0), comm span [1,1.5], task at [2,3]
        // ready at 1.8 → gap [1,2] = fetch 0.5 + dep 0.3 + idle 0.2.
        let mut comm = TraceEvent::basic(0, "rget".into(), TraceCat::Comm, 1.0, 0.5);
        comm.kind = SpanKind::Rget;
        let events = vec![
            ev(0, "a", 0.0, 1.0, 0.0, None),
            comm,
            ev(0, "b", 2.0, 1.0, 1.8, Some("a")),
        ];
        let p = Profile::build("test", &events, 3.0, 1, CommMatrix::empty(1));
        let r = &p.ranks[0];
        assert!((r.fetch_wait - 0.5).abs() < 1e-12, "fetch {}", r.fetch_wait);
        assert!((r.dep_wait - 0.3).abs() < 1e-12, "dep {}", r.dep_wait);
        assert!((r.idle - 0.2).abs() < 1e-12, "idle {}", r.idle);
        assert!((r.busy - 2.0).abs() < 1e-12);
        check_invariants(&p).unwrap();
    }

    #[test]
    fn json_roundtrip_preserves_profile() {
        let mut e = ev(0, "weird\"name\\", 0.0, 1.0, 0.0, Some("p\"q"));
        e.bytes = 42;
        e.peer = Some(3);
        let events = vec![e, ev(1, "b", 1.0, 0.5, 1.0, None)];
        let mut comm = CommMatrix::empty(2);
        comm.bytes[1] = 100; // 0→1
        comm.msgs[1] = 2;
        let p = Profile::build("fanout", &events, 1.5, 2, comm);
        let q = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(q.engine, p.engine);
        assert_eq!(q.n_ranks, p.n_ranks);
        assert_eq!(q.makespan, p.makespan);
        assert_eq!(q.crit_len, p.crit_len);
        assert_eq!(q.spans.len(), p.spans.len());
        assert_eq!(q.spans[0].name, p.spans[0].name);
        assert_eq!(q.spans[0].bytes, p.spans[0].bytes);
        assert_eq!(q.comm.bytes_between(0, 1), 100);
        assert_eq!(q.ranks.len(), 2);
        assert_eq!(q.ranks[0].tasks, 1);
        check_invariants(&q).unwrap();
    }

    #[test]
    fn diff_flags_makespan_regression() {
        let events = vec![ev(0, "a", 0.0, 1.0, 0.0, None)];
        let old = Profile::build("t", &events, 1.0, 1, CommMatrix::empty(1));
        let mut new = old.clone();
        new.makespan *= 1.2;
        let d = diff(&old, &new, &DiffThresholds::default());
        assert!(d.regressed, "{}", d.report);
        let d2 = diff(&old, &old, &DiffThresholds::default());
        assert!(!d2.regressed, "{}", d2.report);
    }

    #[test]
    fn report_contains_sections() {
        let events = vec![
            ev(0, "a", 0.0, 1.0, 0.0, None),
            ev(1, "b", 1.0, 1.0, 1.0, Some("a")),
        ];
        let mut comm = CommMatrix::empty(2);
        comm.bytes[1] = 512;
        comm.msgs[1] = 1;
        let p = Profile::build("fanout", &events, 2.0, 2, comm);
        let rep = p.render_report(5);
        assert!(rep.contains("critical path"), "{rep}");
        assert!(rep.contains("per-rank time attribution"), "{rep}");
        assert!(rep.contains("comm matrix"), "{rep}");
        assert!(rep.contains("r0→r1"), "{rep}");
    }

    #[test]
    fn report_breaks_requests_down_by_tenant() {
        // Two tenants' request spans plus one background exec span: the
        // per-tenant section must appear, group by the name prefix, and
        // split latency into service (kernel) vs wait (the remainder).
        let mut alice0 = TraceEvent::basic(0, "alice/job-0".into(), TraceCat::Solve, 0.0, 2.0);
        alice0.kind = SpanKind::Request;
        alice0.kernel = 0.5; // 1.5 of wait
        let mut alice1 = TraceEvent::basic(0, "alice/job-1".into(), TraceCat::Solve, 1.0, 4.0);
        alice1.kind = SpanKind::Request;
        alice1.kernel = 1.0;
        let mut bob = TraceEvent::basic(1, "bob/job-0".into(), TraceCat::Solve, 0.0, 1.0);
        bob.kind = SpanKind::Request;
        bob.kernel = 1.0; // pure service, no wait
        let events = vec![alice0, alice1, bob, ev(0, "a", 0.0, 1.0, 0.0, None)];
        let p = Profile::build("fleet", &events, 5.0, 2, CommMatrix::empty(2));
        let rep = p.render_report(5);
        assert!(rep.contains("per-tenant requests"), "{rep}");
        // BTreeMap ordering: alice before bob, one row each.
        let alice_at = rep.find("alice").unwrap();
        let bob_at = rep.find("bob").unwrap();
        assert!(alice_at < bob_at, "{rep}");
        let alice_row = rep.lines().find(|l| l.starts_with("alice")).unwrap();
        // 2 requests, p50 = p99 = 4s (nearest rank over [2,4] rounds up),
        // service 0.5+1.0, wait 1.5+3.0.
        assert!(alice_row.contains(" 2 "), "{alice_row}");
        assert!(alice_row.contains("4.000 s"), "{alice_row}");
        assert!(alice_row.contains("1.500 s"), "{alice_row}");
        assert!(alice_row.contains("4.500 s"), "{alice_row}");
        let bob_row = rep.lines().find(|l| l.starts_with("bob")).unwrap();
        assert!(bob_row.contains("0.00 us"), "zero wait: {bob_row}");
        // A profile with no request spans keeps the section out entirely.
        let plain = Profile::build(
            "fanout",
            &[ev(0, "a", 0.0, 1.0, 0.0, None)],
            1.0,
            1,
            CommMatrix::empty(1),
        );
        assert!(!plain.render_report(5).contains("per-tenant requests"));
    }

    #[test]
    fn blr_section_roundtrips_and_renders() {
        let events = vec![ev(0, "a", 0.0, 1.0, 0.0, None)];
        let mut p = Profile::build("fanout", &events, 1.0, 2, CommMatrix::empty(2));
        // Dense runs leave the section out entirely: the document must be
        // byte-identical to the pre-BLR schema and the report silent.
        assert!(!p.to_json().contains("\"blr\""));
        assert!(!p.render_report(5).contains("block publications"));
        p.blr = vec![
            BlrRank {
                rank: 0,
                dense_bytes: 8_000,
                lr_bytes: 2_000,
                lr_dense_equiv_bytes: 10_000,
                dense_blocks: 4,
                lr_blocks: 6,
            },
            BlrRank {
                rank: 1,
                dense_bytes: 1_000,
                lr_bytes: 0,
                lr_dense_equiv_bytes: 0,
                dense_blocks: 2,
                lr_blocks: 0,
            },
        ];
        let q = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(q.blr, p.blr);
        let rep = p.render_report(5);
        assert!(rep.contains("block publications"), "{rep}");
        // total published 11 KB vs 19 KB dense-equivalent → 1.73x.
        assert!(rep.contains("1.73x compression"), "{rep}");
    }

    #[test]
    fn diff_gates_published_bytes() {
        let events = vec![ev(0, "a", 0.0, 1.0, 0.0, None)];
        let mut old = Profile::build("t", &events, 1.0, 1, CommMatrix::empty(1));
        old.blr = vec![BlrRank {
            rank: 0,
            dense_bytes: 1_000,
            lr_bytes: 1_000,
            lr_dense_equiv_bytes: 5_000,
            dense_blocks: 1,
            lr_blocks: 1,
        }];
        let mut new = old.clone();
        // Compression got worse: same makespan, 50% more published bytes.
        new.blr[0].lr_bytes = 2_000;
        let d = diff(&old, &new, &DiffThresholds::default());
        assert!(d.regressed, "{}", d.report);
        assert!(d.report.contains("published"), "{}", d.report);
        let same = diff(&old, &old, &DiffThresholds::default());
        assert!(!same.regressed, "{}", same.report);
        // Profiles without the section (dense runs) are never gated on it.
        let plain = Profile::build("t", &events, 1.0, 1, CommMatrix::empty(1));
        let d2 = diff(&plain, &plain, &DiffThresholds::default());
        assert!(!d2.report.contains("published"), "{}", d2.report);
    }

    #[test]
    fn empty_profile_is_well_formed() {
        let p = Profile::build("t", &[], 0.0, 2, CommMatrix::empty(2));
        assert!(p.crit.is_empty());
        assert_eq!(p.crit_len, 0.0);
        check_invariants(&p).unwrap();
        let q = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(q.n_ranks, 2);
    }
}
