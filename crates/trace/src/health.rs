//! Rule-based health watchdog over the telemetry plane.
//!
//! A [`Watchdog`] consumes periodic [`WatchSample`]s (the fleet's
//! sampling ticks) and idle-poll notifications (the task engines' event
//! loop), evaluates a small set of fixed thresholds, and emits typed
//! [`HealthEvent`]s — *observations*, never interventions: the watchdog
//! raises `Stalled` strictly before the engine's own quiescence abort
//! threshold so an operator (or `sympack-top`) sees the condition while the
//! runtime is still deciding, but recovery/abort stays the runtime's job.
//!
//! Events are edge-triggered: one event per episode per subject, so a
//! saturated queue that stays saturated for a thousand ticks produces one
//! `QueueSaturated` event, and a second event only after it drains and
//! saturates again. All timestamps are virtual-clock seconds, which makes
//! the event stream bit-deterministic under the lockstep scheduler.

use crate::json::{Arr, Obj};
use crate::{TraceCat, TraceEvent};

/// How urgent a health event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Critical,
}

impl Severity {
    /// Stable lowercase label (JSON / exposition).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// The condition classes the watchdog knows how to detect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthKind {
    /// Work remains but nothing is progressing (dropped notification,
    /// starved subtree). Raised from idle-poll counts or sampling ticks,
    /// below the engine's own quiescence-abort threshold.
    Stalled,
    /// A bounded admission queue is at or above the saturation fraction —
    /// the next submit bursts will be rejected.
    QueueSaturated,
    /// The LRU factor cache is evicting faster than the thrash limit —
    /// tenants keep re-materializing each other's factors.
    EvictionThrash,
    /// A tenant is burning SLO error budget faster than allowed.
    SloBurn,
}

impl HealthKind {
    /// Stable label (JSON / exposition / trace-event names).
    pub fn label(self) -> &'static str {
        match self {
            HealthKind::Stalled => "stalled",
            HealthKind::QueueSaturated => "queue_saturated",
            HealthKind::EvictionThrash => "eviction_thrash",
            HealthKind::SloBurn => "slo_burn",
        }
    }
}

/// One typed health observation.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEvent {
    pub kind: HealthKind,
    pub severity: Severity,
    /// Virtual-clock time the condition was detected.
    pub at: f64,
    /// What the condition is about (`rank3`, a tenant name, `fleet`).
    pub subject: String,
    /// Human-readable diagnosis with the triggering numbers.
    pub detail: String,
}

impl HealthEvent {
    /// Serialize as a JSON object (via the shared `trace::json` writer).
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("kind", self.kind.label())
            .str("severity", self.severity.label())
            .f64("at", self.at)
            .str("subject", &self.subject)
            .str("detail", &self.detail)
            .finish()
    }

    /// Render as a zero-duration marker span for the trace stream, so
    /// health events land in Chrome exports next to the work they diagnose.
    pub fn to_trace_event(&self, rank: usize) -> TraceEvent {
        TraceEvent::basic(
            rank,
            format!("health/{}/{}", self.kind.label(), self.subject),
            TraceCat::Other,
            self.at,
            0.0,
        )
    }
}

/// Serialize a slice of events as a JSON array.
pub fn health_events_json(events: &[HealthEvent]) -> String {
    let mut arr = Arr::new();
    for e in events {
        arr.push(e.to_json());
    }
    arr.finish()
}

/// Idle event-loop polls (no progress, queue empty) before `Stalled` is
/// raised from the engine path: a quarter of the way to the deterministic
/// engine's quiescence abort (64 idle polls), so the health stream always
/// names a stall before the run dies of it.
const STALL_IDLE_POLLS: u64 = 16;
/// Consecutive sampling ticks with backlog but zero progress before
/// `Stalled` is raised from the sampling path.
const STALL_TICKS: u64 = 3;
/// Queue fill fraction (depth / capacity) at which `QueueSaturated` is
/// raised.
const QUEUE_SATURATION: f64 = 0.9;
/// Evictions within one sampling tick at which `EvictionThrash` is raised.
const EVICTION_THRASH: u64 = 4;
/// SLO burn rate (observed bad fraction / allowed bad fraction) at which
/// `SloBurn` is raised; 1.0 = burning exactly the error budget.
const SLO_BURN_LIMIT: f64 = 1.0;

/// One sampling-tick observation handed to [`Watchdog::observe`].
/// Counters (`progress`, `evictions`) are cumulative; the watchdog
/// differences them internally.
#[derive(Debug, Clone)]
pub struct WatchSample<'a> {
    /// Virtual-clock time of this tick.
    pub now: f64,
    /// Cumulative units of completed work (jobs served, tasks done).
    pub progress: u64,
    /// Work currently waiting (queued jobs / unfinished tasks).
    pub backlog: u64,
    /// Fill fraction of the fullest bounded queue, 0..=1.
    pub queue_frac: f64,
    /// Cumulative factor-cache evictions.
    pub evictions: u64,
    /// Per-subject SLO burn rates (tenant name, burn).
    pub burn: &'a [(&'a str, f64)],
}

/// The watchdog itself: owns the per-condition episode state and the
/// emitted events.
#[derive(Debug, Clone, Default)]
pub struct Watchdog {
    events: Vec<HealthEvent>,
    // Episode state (edge triggering).
    last_progress: u64,
    stall_ticks: u64,
    tick_stalled: bool,
    idle_stalled: bool,
    saturated: bool,
    last_evictions: u64,
    thrashing: bool,
    burning: Vec<String>,
}

impl Watchdog {
    /// New watchdog with no events and no episode open.
    pub fn new() -> Self {
        Watchdog::default()
    }

    /// Evaluate every tick-based rule against one sample.
    pub fn observe(&mut self, s: &WatchSample<'_>) {
        // Stalled progress: backlog exists but the progress counter froze.
        if s.backlog > 0 && s.progress == self.last_progress {
            self.stall_ticks += 1;
            if !self.tick_stalled && self.stall_ticks >= STALL_TICKS {
                self.tick_stalled = true;
                self.push(
                    HealthKind::Stalled,
                    Severity::Critical,
                    s.now,
                    "scheduler".to_string(),
                    format!(
                        "{} backlog items, no progress for {} ticks",
                        s.backlog, self.stall_ticks
                    ),
                );
            }
        } else {
            self.stall_ticks = 0;
            self.tick_stalled = false;
        }
        self.last_progress = s.progress;

        // Queue saturation.
        if s.queue_frac >= QUEUE_SATURATION {
            if !self.saturated {
                self.saturated = true;
                self.push(
                    HealthKind::QueueSaturated,
                    Severity::Warning,
                    s.now,
                    "admission".to_string(),
                    format!("fullest queue at {:.0}% of capacity", s.queue_frac * 100.0),
                );
            }
        } else {
            self.saturated = false;
        }

        // Eviction thrash (per-tick delta of a cumulative counter).
        let delta = s.evictions.saturating_sub(self.last_evictions);
        self.last_evictions = s.evictions;
        if delta >= EVICTION_THRASH {
            if !self.thrashing {
                self.thrashing = true;
                self.push(
                    HealthKind::EvictionThrash,
                    Severity::Warning,
                    s.now,
                    "factor_cache".to_string(),
                    format!("{delta} evictions in one tick"),
                );
            }
        } else {
            self.thrashing = false;
        }

        // SLO burn, per subject.
        for &(subject, burn) in s.burn {
            let pos = self.burning.iter().position(|b| b == subject);
            if burn >= SLO_BURN_LIMIT {
                if pos.is_none() {
                    self.burning.push(subject.to_string());
                    self.push(
                        HealthKind::SloBurn,
                        Severity::Critical,
                        s.now,
                        subject.to_string(),
                        format!("error budget burning at {burn:.2}x the allowed rate"),
                    );
                }
            } else if let Some(p) = pos {
                self.burning.remove(p);
            }
        }
    }

    /// Engine-loop path: called with the event loop's consecutive idle-poll
    /// count. Raises one `Stalled` event per idle episode once the count
    /// reaches `STALL_IDLE_POLLS` (16) — strictly below the engine's own
    /// quiescence-abort threshold, so the diagnosis precedes the abort.
    /// `subject` is rendered only when that event is pushed.
    pub fn observe_idle(&mut self, now: f64, idle_polls: u64, subject: impl std::fmt::Display) {
        if idle_polls == 0 {
            self.idle_stalled = false;
            return;
        }
        if !self.idle_stalled && idle_polls >= STALL_IDLE_POLLS {
            self.idle_stalled = true;
            self.push(
                HealthKind::Stalled,
                Severity::Critical,
                now,
                subject.to_string(),
                format!("no progress for {idle_polls} consecutive idle polls"),
            );
        }
    }

    fn push(
        &mut self,
        kind: HealthKind,
        severity: Severity,
        at: f64,
        subject: String,
        detail: String,
    ) {
        self.events.push(HealthEvent {
            kind,
            severity,
            at,
            subject,
            detail,
        });
    }

    /// Events emitted so far.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// Consume the watchdog, returning its events.
    pub fn into_events(self) -> Vec<HealthEvent> {
        self.events
    }

    /// True if any emitted event has this kind.
    #[cfg(test)]
    fn has(&self, kind: HealthKind) -> bool {
        self.events.iter().any(|e| e.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(now: f64, progress: u64, backlog: u64) -> WatchSample<'static> {
        WatchSample {
            now,
            progress,
            backlog,
            queue_frac: 0.0,
            evictions: 0,
            burn: &[],
        }
    }

    #[test]
    fn stall_is_edge_triggered_on_frozen_progress() {
        let mut w = Watchdog::default();
        w.observe(&tick(0.0, 5, 3));
        for i in 1..10 {
            w.observe(&tick(i as f64, 5, 3));
        }
        let stalls: Vec<_> = w
            .events()
            .iter()
            .filter(|e| e.kind == HealthKind::Stalled)
            .collect();
        assert_eq!(stalls.len(), 1, "one event per episode");
        assert_eq!(stalls[0].at, 3.0);
        // Progress resumes, then freezes again: second episode, second event.
        w.observe(&tick(10.0, 6, 2));
        for i in 11..15 {
            w.observe(&tick(i as f64, 6, 2));
        }
        assert_eq!(
            w.events()
                .iter()
                .filter(|e| e.kind == HealthKind::Stalled)
                .count(),
            2
        );
    }

    #[test]
    fn empty_backlog_never_stalls() {
        let mut w = Watchdog::default();
        for i in 0..20 {
            w.observe(&tick(i as f64, 7, 0));
        }
        assert!(!w.has(HealthKind::Stalled));
    }

    #[test]
    fn idle_poll_stall_fires_once_per_episode_and_before_64() {
        let mut w = Watchdog::default();
        for polls in 1..=63 {
            w.observe_idle(polls as f64, polls, "rank2");
        }
        let stalls: Vec<_> = w
            .events()
            .iter()
            .filter(|e| e.kind == HealthKind::Stalled)
            .collect();
        assert_eq!(stalls.len(), 1);
        // Raised at the rule threshold — well before the deterministic
        // engine's quiescence abort at 64 idle polls.
        assert_eq!(stalls[0].at, STALL_IDLE_POLLS as f64);
        const { assert!(STALL_IDLE_POLLS < 64) };
        assert_eq!(stalls[0].subject, "rank2");
    }

    #[test]
    fn saturation_thrash_and_burn_detect_and_clear() {
        let mut w = Watchdog::default();
        let mut s = tick(1.0, 1, 1);
        s.queue_frac = 0.95;
        s.evictions = 6;
        s.burn = &[("alice", 2.5), ("bob", 0.1)];
        w.observe(&s);
        assert!(w.has(HealthKind::QueueSaturated));
        assert!(w.has(HealthKind::EvictionThrash));
        let burns: Vec<_> = w
            .events()
            .iter()
            .filter(|e| e.kind == HealthKind::SloBurn)
            .collect();
        assert_eq!(burns.len(), 1);
        assert_eq!(burns[0].subject, "alice");
        // Conditions persist next tick: no new events (edge triggering).
        let n = w.events().len();
        let mut s2 = tick(2.0, 2, 1);
        s2.queue_frac = 0.95;
        s2.evictions = 12;
        s2.burn = &[("alice", 2.5)];
        w.observe(&s2);
        assert_eq!(w.events().len(), n);
    }

    #[test]
    fn events_serialize_as_json_array() {
        let mut w = Watchdog::default();
        w.observe_idle(0.5, 99, "rank0");
        let json = health_events_json(w.events());
        let v = crate::json::parse(&json).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("kind").unwrap().as_str(), Some("stalled"));
        assert_eq!(arr[0].get("severity").unwrap().as_str(), Some("critical"));
        assert_eq!(arr[0].get("at").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn trace_marker_carries_kind_and_subject() {
        let e = HealthEvent {
            kind: HealthKind::SloBurn,
            severity: Severity::Critical,
            at: 2.0,
            subject: "carol".to_string(),
            detail: String::new(),
        };
        let ev = e.to_trace_event(1);
        assert_eq!(ev.name, "health/slo_burn/carol");
        assert_eq!(ev.rank, 1);
        assert_eq!(ev.dur, 0.0);
    }
}
