//! Execution tracing for the solvers: per-rank task timelines in virtual
//! time, exportable as a Chrome/Perfetto trace (`chrome://tracing`,
//! `ui.perfetto.dev`) for visualizing the fan-out schedule — which tasks
//! overlapped, where ranks idled, how communication hid behind compute.
//!
//! The [`profile`] module turns a span timeline into an analyzable
//! [`profile::Profile`]: critical path over the executed task DAG, per-rank
//! wait attribution, P×P communication matrix and queue/memory series —
//! the input format of the `sympack-prof` CLI. [`json`] is the minimal
//! hand-rolled JSON reader and the single writer: every document here, the
//! profiles and Chrome traces included, is written by its `Obj` and `Arr`.
//!
//! The [`telemetry`] module is the *live* counterpart to the post-hoc
//! profile: a lock-cheap instrument registry (counters / gauges /
//! log-bucketed histograms) sampled into time-series rings on the virtual
//! clock, beside the exact-quantile `Histogram` the fleet's serving
//! documents keep, and [`health`] is the rule-based watchdog that turns those
//! signals into typed `HealthEvent`s (stalls, queue saturation, eviction
//! thrash, SLO burn) — the data plane behind `sympack-top`.

pub mod health;
pub mod json;
pub mod profile;
pub mod telemetry;

use json::{Arr, Obj};

/// Category of a traced interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCat {
    /// Diagonal factorization (POTRF).
    Potrf,
    /// Panel factorization (TRSM).
    Trsm,
    /// Symmetric update (SYRK).
    Syrk,
    /// General update (GEMM).
    Gemm,
    /// Communication (get/copy wait).
    Comm,
    /// Triangular-solve work.
    Solve,
    /// Anything else.
    Other,
}

impl TraceCat {
    /// Stable lowercase label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            TraceCat::Potrf => "potrf",
            TraceCat::Trsm => "trsm",
            TraceCat::Syrk => "syrk",
            TraceCat::Gemm => "gemm",
            TraceCat::Comm => "comm",
            TraceCat::Solve => "solve",
            TraceCat::Other => "other",
        }
    }
}

/// What kind of interval a [`TraceEvent`] describes. `Exec` spans are task
/// executions on a rank's virtual clock; the comm kinds are one-sided
/// transfers issued by that rank; `Request` spans are serving-layer jobs
/// (arrival → completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A scheduled task execution (the `charge` path).
    Exec,
    /// A one-sided get (blocking fetch or retry window).
    Rget,
    /// A host↔device or host↔host copy.
    Copy,
    /// An active message (signal or payload RPC).
    Rpc,
    /// A serving-layer request (arrival to completion).
    Request,
}

impl SpanKind {
    /// Stable lowercase label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Exec => "exec",
            SpanKind::Rget => "rget",
            SpanKind::Copy => "copy",
            SpanKind::Rpc => "rpc",
            SpanKind::Request => "request",
        }
    }

    /// Inverse of [`SpanKind::label`].
    pub fn parse(s: &str) -> Option<SpanKind> {
        Some(match s {
            "exec" => SpanKind::Exec,
            "rget" => SpanKind::Rget,
            "copy" => SpanKind::Copy,
            "rpc" => SpanKind::Rpc,
            "request" => SpanKind::Request,
            _ => return None,
        })
    }
}

impl TraceCat {
    /// Inverse of [`TraceCat::label`].
    pub fn parse(s: &str) -> Option<TraceCat> {
        Some(match s {
            "potrf" => TraceCat::Potrf,
            "trsm" => TraceCat::Trsm,
            "syrk" => TraceCat::Syrk,
            "gemm" => TraceCat::Gemm,
            "comm" => TraceCat::Comm,
            "solve" => TraceCat::Solve,
            "other" => TraceCat::Other,
            _ => return None,
        })
    }
}

/// One traced interval on one rank, in virtual seconds.
///
/// Beyond the flat (`rank`, `name`, `cat`, `start`, `dur`) timeline the
/// event carries the typed-span fields the profiler consumes. Every field
/// past `dur` has a neutral default (see [`TraceEvent::basic`]) so flat
/// producers keep working unchanged.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Rank the interval executed on.
    pub rank: usize,
    /// Human-readable label, e.g. `D(12)` or `U(3,7,5)`.
    pub name: String,
    /// Category for coloring/filtering.
    pub cat: TraceCat,
    /// Kind of span (task execution, one-sided transfer, request).
    pub kind: SpanKind,
    /// Virtual start time (seconds).
    pub start: f64,
    /// Duration (seconds).
    pub dur: f64,
    /// Kernel sub-span within an `Exec` interval (seconds of modeled
    /// compute; `dur - kernel` before `overhead` is other charged work).
    pub kernel: f64,
    /// Runtime overhead sub-span within the interval (seconds).
    pub overhead: f64,
    /// When the task became runnable (last dependency arrival). For comm
    /// spans this equals `start`.
    pub ready_at: f64,
    /// Label of the producer whose arrival made the task runnable, when
    /// the runtime knows it (dependency edge for the critical-path walk).
    pub pred: Option<String>,
    /// Peer rank for comm spans (`src` for gets, `dst` for puts/rpc).
    pub peer: Option<usize>,
    /// Payload bytes for comm spans; resident input-buffer bytes sampled
    /// at completion for `Exec` spans (memory high-water series).
    pub bytes: u64,
    /// Ready-queue depth sampled when the task finished (`Exec` only).
    pub rtq_depth: u32,
}

impl TraceEvent {
    /// A flat event with neutral span fields: an `Exec` interval whose
    /// kernel time is the whole duration and that was ready at `start`.
    pub fn basic(rank: usize, name: String, cat: TraceCat, start: f64, dur: f64) -> TraceEvent {
        TraceEvent {
            rank,
            name,
            cat,
            kind: SpanKind::Exec,
            start,
            dur,
            kernel: dur,
            overhead: 0.0,
            ready_at: start,
            pred: None,
            peer: None,
            bytes: 0,
            rtq_depth: 0,
        }
    }

    /// End of the interval.
    pub fn end(&self) -> f64 {
        self.start + self.dur
    }
}

/// A per-rank event collector.
#[derive(Debug, Default, Clone)]
pub struct Tracer {
    events: Vec<TraceEvent>,
}

impl Tracer {
    /// New empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Record one flat interval (neutral span fields, see
    /// [`TraceEvent::basic`]).
    pub fn record(
        &mut self,
        rank: usize,
        name: impl Into<String>,
        cat: TraceCat,
        start: f64,
        dur: f64,
    ) {
        self.events
            .push(TraceEvent::basic(rank, name.into(), cat, start, dur));
    }

    /// Record a fully-specified span.
    pub fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consume into the event list.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

/// Merge per-rank event lists into one timeline sorted by start time.
pub fn merge(mut lists: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let mut all: Vec<TraceEvent> = lists.drain(..).flatten().collect();
    all.sort_by(|a, b| a.start.total_cmp(&b.start));
    all
}

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize a timeline as Chrome trace-event JSON (phase `X` complete
/// events; virtual seconds mapped to microseconds; one "process" per rank,
/// with task executions on thread 0, comm spans on thread 1 and serving
/// requests on thread 2 so the lanes do not overlap in the viewer).
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let rows = events.iter().map(|e| {
        let tid = match e.kind {
            SpanKind::Exec => 0,
            SpanKind::Request => 2,
            _ => 1,
        };
        let mut args = Obj::new().str("kind", e.kind.label());
        if e.bytes > 0 {
            args = args.u64("bytes", e.bytes);
        }
        if let Some(p) = e.peer {
            args = args.u64("peer", p as u64);
        }
        if e.kind == SpanKind::Exec && e.kernel != e.dur {
            args = args.f64("kernel_us", e.kernel * 1e6);
        }
        Obj::new()
            .str("name", &e.name)
            .str("cat", e.cat.label())
            .str("ph", "X")
            .f64("ts", e.start * 1e6)
            .f64("dur", e.dur * 1e6)
            .u64("pid", e.rank as u64)
            .u64("tid", tid)
            .raw("args", &args.finish())
            .finish()
    });
    let events = rows.collect::<Arr>().finish_lines();
    Obj::new().raw("traceEvents", &events).finish()
}

/// Per-rank busy-time summary from a timeline.
pub fn busy_fractions(events: &[TraceEvent], makespan: f64, n_ranks: usize) -> Vec<f64> {
    let mut busy = vec![0.0f64; n_ranks];
    for e in events {
        if e.rank < n_ranks {
            busy[e.rank] += e.dur;
        }
    }
    busy.iter()
        .map(|b| if makespan > 0.0 { b / makespan } else { 0.0 })
        .collect()
}

/// Total time per category (seconds).
pub fn time_by_category(events: &[TraceEvent]) -> Vec<(TraceCat, f64)> {
    let cats = [
        TraceCat::Potrf,
        TraceCat::Trsm,
        TraceCat::Syrk,
        TraceCat::Gemm,
        TraceCat::Comm,
        TraceCat::Solve,
        TraceCat::Other,
    ];
    cats.iter()
        .map(|&c| (c, events.iter().filter(|e| e.cat == c).map(|e| e.dur).sum()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge_sorts_by_start() {
        let mut t0 = Tracer::new();
        t0.record(0, "D(1)", TraceCat::Potrf, 2.0, 0.5);
        let mut t1 = Tracer::new();
        t1.record(1, "U(1,2,3)", TraceCat::Gemm, 1.0, 0.25);
        let merged = merge(vec![t0.into_events(), t1.into_events()]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].name, "U(1,2,3)");
        assert_eq!(merged[1].name, "D(1)");
    }

    #[test]
    fn chrome_json_is_valid_shape() {
        let mut t = Tracer::new();
        t.record(0, "D(0)", TraceCat::Potrf, 0.0, 1e-6);
        t.record(3, "F(1,0)", TraceCat::Trsm, 1e-6, 2e-6);
        let json = to_chrome_json(&t.into_events());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"D(0)\""));
        assert!(json.contains("\"cat\":\"potrf\""));
        assert!(json.contains("\"pid\":3"));
        assert!(json.trim_end().ends_with("]}"));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut t = Tracer::new();
        t.record(0, "weird\"name\\x", TraceCat::Other, 0.0, 1.0);
        let json = to_chrome_json(&t.into_events());
        assert!(json.contains("weird\\\"name\\\\x"));
    }

    #[test]
    fn busy_fractions_sum_durations() {
        let mut t = Tracer::new();
        t.record(0, "a", TraceCat::Gemm, 0.0, 2.0);
        t.record(0, "b", TraceCat::Gemm, 2.0, 2.0);
        t.record(1, "c", TraceCat::Gemm, 0.0, 1.0);
        let f = busy_fractions(&t.into_events(), 8.0, 2);
        assert_eq!(f, vec![0.5, 0.125]);
    }

    #[test]
    fn category_totals() {
        let mut t = Tracer::new();
        t.record(0, "a", TraceCat::Gemm, 0.0, 2.0);
        t.record(1, "b", TraceCat::Potrf, 0.0, 1.5);
        t.record(0, "c", TraceCat::Gemm, 2.0, 1.0);
        let by_cat = time_by_category(&t.into_events());
        let gemm = by_cat.iter().find(|(c, _)| *c == TraceCat::Gemm).unwrap().1;
        let potrf = by_cat
            .iter()
            .find(|(c, _)| *c == TraceCat::Potrf)
            .unwrap()
            .1;
        assert_eq!(gemm, 3.0);
        assert_eq!(potrf, 1.5);
    }
}
