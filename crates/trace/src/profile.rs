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
//! `sympack-profile-v1`, written and parsed back by [`crate::json`])
//! consumed by the `sympack-prof` CLI: `report` renders the text summary
//! and checks the invariants, `chrome` exports the span lanes. The
//! committed `BENCH_profile.json` is one such document, and
//! `tests/profile.rs` requires the timeline's deterministic run to
//! reproduce it byte for byte.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::json::{self, Arr, JsonValue, Obj};
use crate::{SpanKind, TraceCat, TraceEvent};

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

impl Profile {
    /// Serialize as a self-contained JSON document (schema
    /// [`SCHEMA`]), parseable by [`Profile::from_json`].
    pub fn to_json(&self) -> String {
        let by_cat = self.crit_by_cat.iter().map(|(c, secs)| {
            let pair = Arr::new().str(c.label()).f64(*secs);
            pair.finish()
        });
        let tasks = self.crit.iter().map(|t| {
            Obj::new()
                .str("name", &t.name)
                .u64("rank", t.rank as u64)
                .str("cat", t.cat.label())
                .f64("start", t.start)
                .f64("dur", t.dur)
                .str("edge", t.edge.label())
                .finish()
        });
        let critical_path = Obj::new()
            .f64("length", self.crit_len)
            .raw("by_cat", &by_cat.collect::<Arr>().finish())
            .raw("tasks", &tasks.collect::<Arr>().finish_lines());
        let ranks = self.ranks.iter().map(|r| {
            Obj::new()
                .u64("rank", r.rank as u64)
                .f64("busy", r.busy)
                .f64("overhead", r.overhead)
                .f64("dep_wait", r.dep_wait)
                .f64("fetch_wait", r.fetch_wait)
                .f64("idle", r.idle)
                .u64("tasks", r.tasks as u64)
                .u64("peak_rtq", r.peak_rtq.into())
                .u64("peak_bytes", r.peak_bytes)
                .finish()
        });
        let counts = |xs: &[u64]| xs.iter().fold(Arr::new(), |a, &x| a.u64(x)).finish();
        let comm = Obj::new()
            .u64("n", self.comm.n as u64)
            .raw("bytes", &counts(&self.comm.bytes))
            .raw("msgs", &counts(&self.comm.msgs));
        let mut doc = Obj::new()
            .str("schema", SCHEMA)
            .str("engine", &self.engine)
            .u64("n_ranks", self.n_ranks as u64)
            .f64("makespan", self.makespan)
            .raw("critical_path", &critical_path.finish())
            .raw("ranks", &ranks.collect::<Arr>().finish_lines())
            .raw("comm", &comm.finish());
        // BLR publication accounting — only present for compressed runs,
        // keeping dense-mode documents byte-identical to the old schema.
        if !self.blr.is_empty() {
            let rows = self.blr.iter().map(|b| {
                Obj::new()
                    .u64("rank", b.rank as u64)
                    .u64("dense_bytes", b.dense_bytes)
                    .u64("lr_bytes", b.lr_bytes)
                    .u64("lr_dense_equiv_bytes", b.lr_dense_equiv_bytes)
                    .u64("dense_blocks", b.dense_blocks)
                    .u64("lr_blocks", b.lr_blocks)
                    .finish()
            });
            doc = doc.raw("blr", &rows.collect::<Arr>().finish_lines());
        }
        let spans = self.spans.iter().map(span_to_json).collect::<Arr>();
        doc.raw("spans", &spans.finish_lines()).finish_lines() + "\n"
    }

    /// Parse a document produced by [`Profile::to_json`]. A section or a
    /// field the writer always emits that is missing or malformed is an
    /// error naming it; only the `blr` section and a span's `pred`, `peer`,
    /// `bytes` and `rtq` may be absent.
    pub fn from_json(text: &str) -> Result<Profile, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let doc = Fields {
            v: &doc,
            at: "profile".to_string(),
        };
        let schema = doc.str("schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}' (want {SCHEMA})"));
        }
        let cp = doc.obj("critical_path")?;
        let crit_by_cat = cp.read("by_cat", |v| {
            let pair = |p: &JsonValue| match p.as_array()? {
                [cat, secs] => Some((TraceCat::parse(cat.as_str()?)?, secs.as_f64()?)),
                _ => None,
            };
            v.as_array()?.iter().map(pair).collect()
        })?;
        let crit = cp.items("tasks")?.into_iter().map(|t| {
            Ok(CritTask {
                name: t.str("name")?.to_string(),
                rank: t.u64("rank")? as usize,
                cat: t.label("cat", TraceCat::parse)?,
                start: t.f64("start")?,
                dur: t.f64("dur")?,
                edge: t.label("edge", CritEdge::parse)?,
            })
        });
        let ranks = doc.items("ranks")?.into_iter().map(|r| {
            Ok(RankBreakdown {
                rank: r.u64("rank")? as usize,
                busy: r.f64("busy")?,
                overhead: r.f64("overhead")?,
                dep_wait: r.f64("dep_wait")?,
                fetch_wait: r.f64("fetch_wait")?,
                idle: r.f64("idle")?,
                tasks: r.u64("tasks")? as usize,
                peak_rtq: r.u64("peak_rtq")? as u32,
                peak_bytes: r.u64("peak_bytes")?,
            })
        });
        let comm = doc.obj("comm")?;
        let counts = |key| {
            comm.read(key, |v| {
                v.as_array()?.iter().map(JsonValue::as_u64).collect()
            })
        };
        let blr = match doc.v.get("blr") {
            Some(_) => doc.items("blr")?,
            None => Vec::new(),
        };
        let blr = blr.into_iter().map(|b| {
            Ok(BlrRank {
                rank: b.u64("rank")? as usize,
                dense_bytes: b.u64("dense_bytes")?,
                lr_bytes: b.u64("lr_bytes")?,
                lr_dense_equiv_bytes: b.u64("lr_dense_equiv_bytes")?,
                dense_blocks: b.u64("dense_blocks")?,
                lr_blocks: b.u64("lr_blocks")?,
            })
        });
        Ok(Profile {
            engine: doc.str("engine")?.to_string(),
            n_ranks: doc.u64("n_ranks")? as usize,
            makespan: doc.f64("makespan")?,
            crit: crit.collect::<Result<_, String>>()?,
            crit_len: cp.f64("length")?,
            crit_by_cat,
            ranks: ranks.collect::<Result<_, String>>()?,
            comm: CommMatrix {
                n: comm.u64("n")? as usize,
                bytes: counts("bytes")?,
                msgs: counts("msgs")?,
            },
            blr: blr.collect::<Result<_, String>>()?,
            spans: doc
                .items("spans")?
                .iter()
                .map(span_from_json)
                .collect::<Result<_, String>>()?,
        })
    }
}

/// A JSON object being read, named by its path in the document
/// (`profile.spans[3]`) so every error says which element it is about.
struct Fields<'a> {
    v: &'a JsonValue,
    at: String,
}

impl<'a> Fields<'a> {
    /// The field `key` as `read` takes it, or an error naming the field.
    fn read<T>(&self, key: &str, read: impl Fn(&'a JsonValue) -> Option<T>) -> Result<T, String> {
        let at = &self.at;
        let v = self
            .v
            .get(key)
            .ok_or_else(|| format!("{at}: missing \"{key}\""))?;
        read(v).ok_or_else(|| format!("{at}.{key} is malformed"))
    }

    /// A field the writer emits only where it has a value.
    fn optional<T>(
        &self,
        key: &str,
        read: impl Fn(&'a JsonValue) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.v.get(key).map(|_| self.read(key, read)).transpose()
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.read(key, JsonValue::as_f64)
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.read(key, JsonValue::as_u64)
    }

    fn str(&self, key: &str) -> Result<&'a str, String> {
        self.read(key, JsonValue::as_str)
    }

    /// A string field naming one of a fixed set of labels.
    fn label<T>(&self, key: &str, parse: fn(&str) -> Option<T>) -> Result<T, String> {
        self.read(key, |v| v.as_str().and_then(parse))
    }

    fn obj(&self, key: &str) -> Result<Fields<'a>, String> {
        let v = self.read(key, Some)?;
        let at = format!("{}.{key}", self.at);
        Ok(Fields { v, at })
    }

    /// The elements of an array field, each named `key[i]`.
    fn items(&self, key: &str) -> Result<Vec<Fields<'a>>, String> {
        let items = self.read(key, JsonValue::as_array)?.iter().enumerate();
        let at = |i| format!("{}.{key}[{i}]", self.at);
        Ok(items.map(|(i, v)| Fields { v, at: at(i) }).collect())
    }
}

fn span_to_json(e: &TraceEvent) -> String {
    let mut s = Obj::new()
        .u64("rank", e.rank as u64)
        .str("name", &e.name)
        .str("cat", e.cat.label())
        .str("kind", e.kind.label())
        .f64("start", e.start)
        .f64("dur", e.dur)
        .f64("kernel", e.kernel)
        .f64("overhead", e.overhead)
        .f64("ready", e.ready_at);
    if let Some(p) = &e.pred {
        s = s.str("pred", p);
    }
    if let Some(p) = e.peer {
        s = s.u64("peer", p as u64);
    }
    if e.bytes > 0 {
        s = s.u64("bytes", e.bytes);
    }
    if e.rtq_depth > 0 {
        s = s.u64("rtq", e.rtq_depth.into());
    }
    s.finish()
}

fn span_from_json(v: &Fields) -> Result<TraceEvent, String> {
    Ok(TraceEvent {
        rank: v.u64("rank")? as usize,
        name: v.str("name")?.to_string(),
        cat: v.label("cat", TraceCat::parse)?,
        kind: v.label("kind", SpanKind::parse)?,
        start: v.f64("start")?,
        dur: v.f64("dur")?,
        kernel: v.f64("kernel")?,
        overhead: v.f64("overhead")?,
        ready_at: v.f64("ready")?,
        pred: v.optional("pred", |p| p.as_str().map(str::to_string))?,
        peer: v.optional("peer", JsonValue::as_u64)?.map(|p| p as usize),
        bytes: v.optional("bytes", JsonValue::as_u64)?.unwrap_or(0),
        rtq_depth: v.optional("rtq", JsonValue::as_u64)?.unwrap_or(0) as u32,
    })
}

// ---------------------------------------------------------------------------
// Text report
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

    /// A small profile's document, as `to_json` lays it out.
    fn document() -> String {
        let mut e = ev(1, "b", 1.0, 0.5, 1.0, Some("a"));
        e.rtq_depth = 2;
        let events = vec![ev(0, "a", 0.0, 1.0, 0.0, None), e];
        Profile::build("fanout", &events, 1.5, 2, CommMatrix::empty(2)).to_json()
    }

    #[test]
    fn a_missing_section_is_an_error_that_names_it() {
        let doc = document();
        Profile::from_json(&doc).unwrap();
        for section in ["critical_path", "ranks", "comm", "spans"] {
            let renamed = doc.replace(&format!("\n\"{section}\":"), "\n\"renamed\":");
            assert_ne!(renamed, doc, "{section}");
            let err = Profile::from_json(&renamed).unwrap_err();
            assert!(
                err.contains(&format!("missing \"{section}\"")),
                "{section}: {err}"
            );
        }
    }

    #[test]
    fn an_element_it_cannot_parse_is_an_error_that_names_it() {
        let doc = document();
        for (from, to, named) in [
            (
                ",\"dur\":0.5,\"kernel\"",
                ",\"kernel\"",
                "profile.spans[1]: missing \"dur\"",
            ),
            (
                "\"kind\":\"exec\"",
                "\"kind\":\"nap\"",
                "profile.spans[0].kind",
            ),
            ("\"rtq\":2", "\"rtq\":\"deep\"", "profile.spans[1].rtq"),
            (
                "\"peak_rtq\":0",
                "\"peak_rtq\":-1.5",
                "profile.ranks[0].peak_rtq",
            ),
            (
                "{\"rank\":1,\"busy\"",
                "{\"busy\"",
                "profile.ranks[1]: missing \"rank\"",
            ),
            (
                "\"edge\":\"seed\"",
                "\"edge\":7",
                "profile.critical_path.tasks[0].edge",
            ),
            (
                "[\"gemm\",",
                "[\"gem\",",
                "profile.critical_path.by_cat is malformed",
            ),
        ] {
            let broken = doc.replacen(from, to, 1);
            assert_ne!(broken, doc, "{from}");
            let err = Profile::from_json(&broken).unwrap_err();
            assert!(err.contains(named), "{from} → {to}: {err}");
        }
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
