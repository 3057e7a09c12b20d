//! Live telemetry plane: a lock-cheap instrument registry sampled into
//! fixed-capacity time-series rings on the virtual clock.
//!
//! Where [`crate::profile`] reconstructs a run *after* it completes, this
//! module is the *during*: counters, gauges and log-bucketed histograms
//! that the pgas layer, the task engines and the fleet update
//! inline, plus periodic ring samples so `sympack-top` can show queue
//! depth, bytes in flight and SLO burn as time series.
//!
//! Design rules:
//!
//! - **Lock-cheap.** A [`Telemetry`] registry is owned by exactly one
//!   component (a rank's engine, a fleet) — the same single-owner
//!   discipline as [`crate::Tracer`] — so every update is a plain
//!   `Vec`-indexed add with zero synchronization. Cross-owner aggregation
//!   happens on immutable [`TelemetrySnapshot`]s, which merge.
//! - **Virtual clocks only.** Sampling records `(virtual_time, value)`
//!   pairs and never advances any clock, so enabling telemetry cannot
//!   perturb a schedule, and snapshots from deterministic runs are
//!   bit-identical across repeats.
//! - **Deterministic buckets.** [`LogHistogram`] derives its bucket index
//!   from the f64 bit pattern (exponent + top two mantissa bits — four
//!   sub-buckets per octave), not from `log2`, so bucketing is exact bit
//!   math on every platform.

use crate::health::HealthEvent;
use crate::json::{Arr, Obj};

/// Schema tag stamped on every snapshot document.
pub const SNAPSHOT_SCHEMA: &str = "sympack-telemetry-v1";

// ----- exact histogram -----

/// A sample distribution with exact quantiles: every sample is kept (a
/// fleet tenant records thousands of jobs, not millions). The fleet's
/// serving documents need a p50/p99 that is an observed value, pinned to
/// the bit by BENCH_fleet.json, which a [`LogHistogram`] bucket cannot
/// give; it is also the oracle of the log histogram's property tests.
#[derive(Debug, Default, Clone)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// New empty distribution.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Exact quantile `q ∈ [0, 1]` by nearest-rank on the sorted samples
    /// (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let idx = ((q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round()) as usize;
        sorted[idx]
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// JSON object with count/mean/p50/p99/max.
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("count", self.count() as u64)
            .f64("mean", self.mean())
            .f64("p50", self.p50())
            .f64("p99", self.p99())
            .f64("max", self.max())
            .finish()
    }
}

// ----- log-bucketed histogram -----

/// A log-bucketed histogram: ~19% relative bucket width (4 sub-buckets per
/// power of two), sparse storage, mergeable, with exact min/max/sum/count.
///
/// Unlike [`Histogram`] (which keeps every sample for exact quantiles in
/// the fleet's serving documents), this is the live-plane
/// distribution: constant memory no matter how many samples, and quantiles
/// by linear interpolation *within* a bucket, clamped to the exact observed
/// min/max so interpolation can never escape the data range at the bucket
/// edges. Quantiles of an empty histogram are 0.0, never NaN.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogHistogram {
    buckets: std::collections::BTreeMap<u16, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Bucket index for a sample: 0 for anything ≤ 0 (and NaN), 1 for
/// subnormals, then `2 + 4·(biased_exponent − 1) + top-2-mantissa-bits`.
fn log_bucket(v: f64) -> u16 {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let bits = v.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    if exp == 0 {
        return 1; // subnormal
    }
    let sub = (bits >> 50) & 0x3;
    (2 + (exp - 1) * 4 + sub) as u16
}

/// Inclusive-lower / exclusive-upper bounds of a bucket.
fn log_bucket_bounds(idx: u16) -> (f64, f64) {
    match idx {
        0 => (0.0, 0.0),
        1 => (0.0, f64::MIN_POSITIVE),
        _ => {
            let k = (idx - 2) as u64;
            let (exp, sub) = (k / 4 + 1, k % 4);
            let lo = f64::from_bits((exp << 52) | (sub << 50));
            let hi = if sub == 3 {
                f64::from_bits((exp + 1) << 52)
            } else {
                f64::from_bits((exp << 52) | ((sub + 1) << 50))
            };
            (lo, hi)
        }
    }
}

impl LogHistogram {
    /// New empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        *self.buckets.entry(log_bucket(v)).or_insert(0) += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Quantile `q ∈ [0, 1]`: walk the cumulative bucket counts to the
    /// bucket containing rank `q·count`, interpolate linearly inside it,
    /// and clamp to the exact observed `[min, max]` — so `quantile(0)` is
    /// the true minimum, `quantile(1)` the true maximum, and interpolation
    /// at a bucket edge can never leave the data range. Returns 0.0 (not
    /// NaN) when empty. Monotone in `q` by construction.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (&idx, &c) in &self.buckets {
            let prev = cum;
            cum += c;
            if cum as f64 >= target {
                let (lo, hi) = log_bucket_bounds(idx);
                let frac = if c == 0 {
                    0.0
                } else {
                    ((target - prev as f64) / c as f64).clamp(0.0, 1.0)
                };
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Fold another histogram into this one.
    pub fn merge_from(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        for (&idx, &c) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += c;
        }
    }

    /// JSON object: summary stats plus the sparse `[bucket, count]` pairs
    /// (enough to reconstruct and re-merge the distribution).
    pub fn to_json(&self) -> String {
        let mut buckets = Arr::new();
        for (&idx, &c) in &self.buckets {
            buckets.push(format!("[{idx},{c}]"));
        }
        Obj::new()
            .u64("count", self.count)
            .f64("mean", self.mean())
            .f64("p50", self.p50())
            .f64("p99", self.p99())
            .f64("min", self.min())
            .f64("max", self.max())
            .raw("buckets", &buckets.finish())
            .finish()
    }
}

// ----- time-series ring -----

/// A fixed-capacity ring of `(virtual_time, value)` samples: the newest
/// `cap` samples survive, older ones fall off the front. Pushing a sample
/// at the same timestamp as the newest one overwrites it (one value per
/// instant).
#[derive(Debug, Clone)]
pub struct SeriesRing {
    cap: usize,
    data: std::collections::VecDeque<(f64, f64)>,
}

impl SeriesRing {
    /// New ring holding at most `cap` samples.
    pub fn new(cap: usize) -> Self {
        SeriesRing {
            cap: cap.max(1),
            data: std::collections::VecDeque::new(),
        }
    }

    /// Record `(t, v)`, evicting the oldest sample at capacity.
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(last) = self.data.back_mut() {
            if last.0 == t {
                last.1 = v;
                return;
            }
        }
        if self.data.len() == self.cap {
            self.data.pop_front();
        }
        self.data.push_back((t, v));
    }

    /// Samples, oldest first.
    fn points(&self) -> Vec<(f64, f64)> {
        self.data.iter().copied().collect()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

// ----- instrument registry -----

/// Identity of one instrument: metric name plus label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct InstrumentKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl InstrumentKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        InstrumentKey {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Prometheus-style rendering: `name{k="v",...}` (bare name when no
    /// labels). `extra` label pairs are appended (quantile labels).
    pub fn render(&self, extra: &[(&str, &str)]) -> String {
        if self.labels.is_empty() && extra.is_empty() {
            return self.name.clone();
        }
        let mut parts: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", crate::json_escape(v)))
            .collect();
        parts.extend(
            extra
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", crate::json_escape(v))),
        );
        format!("{}{{{}}}", self.name, parts.join(","))
    }

    fn labels_json(&self) -> String {
        let mut o = Obj::new();
        for (k, v) in &self.labels {
            o = o.str(k, v);
        }
        o.finish()
    }
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy)]
pub struct CounterId(usize);
/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy)]
pub struct GaugeId(usize);
/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy)]
pub struct HistId(usize);

#[derive(Debug, Clone)]
struct CounterSlot {
    key: InstrumentKey,
    value: u64,
    ring: SeriesRing,
}

#[derive(Debug, Clone)]
struct GaugeSlot {
    key: InstrumentKey,
    value: f64,
    ring: SeriesRing,
}

#[derive(Debug, Clone)]
struct HistSlot {
    key: InstrumentKey,
    hist: LogHistogram,
    /// Ring of the sample count over time — observation throughput.
    ring: SeriesRing,
}

/// The registry: typed instruments addressed by copyable ids, updated by a
/// single owner with plain indexed stores (no locks anywhere), sampled
/// into per-instrument [`SeriesRing`]s on the owner's virtual clock.
#[derive(Debug, Clone)]
pub struct Telemetry {
    counters: Vec<CounterSlot>,
    gauges: Vec<GaugeSlot>,
    hists: Vec<HistSlot>,
    ring_cap: usize,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// New registry with the default ring capacity (256 samples).
    pub fn new() -> Self {
        Telemetry::with_ring_capacity(256)
    }

    /// New registry whose rings keep the newest `cap` samples.
    fn with_ring_capacity(cap: usize) -> Self {
        Telemetry {
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            ring_cap: cap,
        }
    }

    /// Register (or look up) a counter.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        let key = InstrumentKey::new(name, labels);
        if let Some(i) = self.counters.iter().position(|s| s.key == key) {
            return CounterId(i);
        }
        self.counters.push(CounterSlot {
            key,
            value: 0,
            ring: SeriesRing::new(self.ring_cap),
        });
        CounterId(self.counters.len() - 1)
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        let key = InstrumentKey::new(name, labels);
        if let Some(i) = self.gauges.iter().position(|s| s.key == key) {
            return GaugeId(i);
        }
        self.gauges.push(GaugeSlot {
            key,
            value: 0.0,
            ring: SeriesRing::new(self.ring_cap),
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> HistId {
        let key = InstrumentKey::new(name, labels);
        if let Some(i) = self.hists.iter().position(|s| s.key == key) {
            return HistId(i);
        }
        self.hists.push(HistSlot {
            key,
            hist: LogHistogram::new(),
            ring: SeriesRing::new(self.ring_cap),
        });
        HistId(self.hists.len() - 1)
    }

    /// Add to a counter.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].value += by;
    }

    /// Ingest an externally maintained cumulative total (monotone: the
    /// stored value never decreases).
    fn set_counter_total(&mut self, id: CounterId, total: u64) {
        let slot = &mut self.counters[id.0];
        slot.value = slot.value.max(total);
    }

    /// Set a gauge.
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].value = v;
    }

    /// Record a histogram observation.
    pub fn observe(&mut self, id: HistId, v: f64) {
        self.hists[id.0].hist.record(v);
    }

    /// Sampling tick: record every instrument's current value into its
    /// ring at virtual time `now`. Never touches any clock.
    pub fn sample(&mut self, now: f64) {
        for s in &mut self.counters {
            s.ring.push(now, s.value as f64);
        }
        for s in &mut self.gauges {
            s.ring.push(now, s.value);
        }
        for s in &mut self.hists {
            s.ring.push(now, s.hist.count() as f64);
        }
    }

    /// Immutable snapshot, instruments sorted by key.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        for s in &self.counters {
            snap.counters.push((s.key.clone(), s.value));
            snap.series.push((s.key.clone(), s.ring.points()));
        }
        for s in &self.gauges {
            snap.gauges.push((s.key.clone(), s.value));
            snap.series.push((s.key.clone(), s.ring.points()));
        }
        for s in &self.hists {
            snap.hists.push((s.key.clone(), s.hist.clone()));
            snap.series.push((s.key.clone(), s.ring.points()));
        }
        snap.sort();
        snap
    }

    /// Prometheus-style text exposition of the current state.
    ///
    /// ```
    /// let mut t = sympack_trace::telemetry::Telemetry::new();
    /// let served = t.counter("jobs_served_total", &[("tenant", "a")]);
    /// t.inc(served, 2);
    /// assert!(t.render_text().contains("jobs_served_total{tenant=\"a\"} 2"));
    /// ```
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

// ----- snapshots -----

/// An immutable, mergeable copy of a registry's state: counters, gauges,
/// histograms and the sampled time series, each keyed by
/// [`InstrumentKey`] and sorted for deterministic output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    pub counters: Vec<(InstrumentKey, u64)>,
    pub gauges: Vec<(InstrumentKey, f64)>,
    pub hists: Vec<(InstrumentKey, LogHistogram)>,
    pub series: Vec<(InstrumentKey, Vec<(f64, f64)>)>,
}

impl TelemetrySnapshot {
    fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.hists.sort_by(|a, b| a.0.cmp(&b.0));
        self.series.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Merge another snapshot in: same-key counters add, same-key gauges
    /// keep the maximum, same-key histograms merge bucketwise, same-key
    /// series interleave sorted by time. Distinctly labeled instruments
    /// (the per-rank case) simply concatenate.
    pub fn merge_from(&mut self, other: &TelemetrySnapshot) {
        for (k, v) in &other.counters {
            match self.counters.iter_mut().find(|(sk, _)| sk == k) {
                Some((_, sv)) => *sv += v,
                None => self.counters.push((k.clone(), *v)),
            }
        }
        for (k, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(sk, _)| sk == k) {
                Some((_, sv)) => *sv = sv.max(*v),
                None => self.gauges.push((k.clone(), *v)),
            }
        }
        for (k, h) in &other.hists {
            match self.hists.iter_mut().find(|(sk, _)| sk == k) {
                Some((_, sh)) => sh.merge_from(h),
                None => self.hists.push((k.clone(), h.clone())),
            }
        }
        for (k, pts) in &other.series {
            match self.series.iter_mut().find(|(sk, _)| sk == k) {
                Some((_, sp)) => {
                    sp.extend(pts.iter().copied());
                    sp.sort_by(|a, b| a.0.total_cmp(&b.0));
                }
                None => self.series.push((k.clone(), pts.clone())),
            }
        }
        self.sort();
    }

    /// Merge a sequence of snapshots (per-rank fan-in).
    pub fn merged(snaps: impl IntoIterator<Item = TelemetrySnapshot>) -> TelemetrySnapshot {
        let mut out = TelemetrySnapshot::default();
        for s in snaps {
            out.merge_from(&s);
        }
        out
    }

    /// Prometheus-style text exposition: `# TYPE` headers, one line per
    /// instrument, histograms as summaries with quantile labels.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for (k, v) in &self.counters {
            if k.name != last_name {
                out.push_str(&format!("# TYPE {} counter\n", k.name));
                last_name = &k.name;
            }
            out.push_str(&format!("{} {v}\n", k.render(&[])));
        }
        last_name = "";
        for (k, v) in &self.gauges {
            if k.name != last_name {
                out.push_str(&format!("# TYPE {} gauge\n", k.name));
                last_name = &k.name;
            }
            out.push_str(&format!("{} {}\n", k.render(&[]), crate::json::fmt_f64(*v)));
        }
        last_name = "";
        for (k, h) in &self.hists {
            if k.name != last_name {
                out.push_str(&format!("# TYPE {} summary\n", k.name));
                last_name = &k.name;
            }
            for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "{} {}\n",
                    k.render(&[("quantile", label)]),
                    crate::json::fmt_f64(h.quantile(q))
                ));
            }
            let sum_key = InstrumentKey {
                name: format!("{}_sum", k.name),
                labels: k.labels.clone(),
            };
            let count_key = InstrumentKey {
                name: format!("{}_count", k.name),
                labels: k.labels.clone(),
            };
            out.push_str(&format!(
                "{} {}\n",
                sum_key.render(&[]),
                crate::json::fmt_f64(h.mean() * h.count() as f64)
            ));
            out.push_str(&format!("{} {}\n", count_key.render(&[]), h.count()));
        }
        out
    }

    /// JSON object with `counters` / `gauges` / `histograms` / `series`
    /// sections (no schema header — wrap with [`TelemetryReport::to_json`]
    /// or a fleet document for a complete snapshot file).
    pub fn to_json(&self) -> String {
        let mut counters = Arr::new();
        for (k, v) in &self.counters {
            counters.push(
                Obj::new()
                    .str("name", &k.name)
                    .raw("labels", &k.labels_json())
                    .u64("value", *v)
                    .finish(),
            );
        }
        let mut gauges = Arr::new();
        for (k, v) in &self.gauges {
            gauges.push(
                Obj::new()
                    .str("name", &k.name)
                    .raw("labels", &k.labels_json())
                    .f64("value", *v)
                    .finish(),
            );
        }
        let mut hists = Arr::new();
        for (k, h) in &self.hists {
            hists.push(
                Obj::new()
                    .str("name", &k.name)
                    .raw("labels", &k.labels_json())
                    .raw("hist", &h.to_json())
                    .finish(),
            );
        }
        let mut series = Arr::new();
        for (k, pts) in &self.series {
            let mut points = Arr::new();
            for (t, v) in pts {
                points.push(format!(
                    "[{},{}]",
                    crate::json::fmt_f64(*t),
                    crate::json::fmt_f64(*v)
                ));
            }
            series.push(
                Obj::new()
                    .str("name", &k.name)
                    .raw("labels", &k.labels_json())
                    .raw("points", &points.finish())
                    .finish(),
            );
        }
        Obj::new()
            .raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("histograms", &hists.finish())
            .raw("series", &series.finish())
            .finish()
    }
}

// ----- SLO tracking -----

/// A latency objective: `target` fraction of requests must finish within
/// `objective_secs` (virtual). The default is effectively "no objective"
/// (infinite latency allowed), so tenants opt in explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Latency objective in virtual seconds.
    pub objective_secs: f64,
    /// Required fraction of requests within the objective (e.g. 0.99).
    pub target: f64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            objective_secs: f64::MAX,
            target: 0.99,
        }
    }
}

impl SloPolicy {
    /// A concrete objective.
    pub fn new(objective_secs: f64, target: f64) -> Self {
        SloPolicy {
            objective_secs,
            target: target.clamp(0.0, 1.0),
        }
    }
}

/// Tracks one subject's compliance against an [`SloPolicy`]: every
/// recorded latency is classified good/bad, and the burn rate compares the
/// observed bad fraction against the allowed error budget.
#[derive(Debug, Clone)]
pub struct SloTracker {
    policy: SloPolicy,
    good: u64,
    bad: u64,
}

impl SloTracker {
    /// New tracker under `policy`.
    pub fn new(policy: SloPolicy) -> Self {
        SloTracker {
            policy,
            good: 0,
            bad: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> SloPolicy {
        self.policy
    }

    /// Classify one request latency; returns true when within objective.
    pub fn record(&mut self, latency_secs: f64) -> bool {
        let good = latency_secs <= self.policy.objective_secs;
        if good {
            self.good += 1;
        } else {
            self.bad += 1;
        }
        good
    }

    /// Requests recorded.
    pub fn total(&self) -> u64 {
        self.good + self.bad
    }

    /// Fraction of requests within objective (1.0 when no traffic).
    fn compliance(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            1.0
        } else {
            self.good as f64 / total as f64
        }
    }

    /// Error-budget burn rate: observed bad fraction over the allowed bad
    /// fraction `1 − target`. 1.0 means burning exactly the budget; > 1
    /// means the objective will be missed if the rate holds. 0 when no
    /// traffic.
    pub fn burn_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let bad_frac = self.bad as f64 / total as f64;
        let budget = (1.0 - self.policy.target).max(1e-12);
        bad_frac / budget
    }

    /// JSON object with the policy and the derived figures.
    pub fn to_json(&self) -> String {
        Obj::new()
            .f64("objective_secs", self.policy.objective_secs)
            .f64("target", self.policy.target)
            .u64("good", self.good)
            .u64("bad", self.bad)
            .f64("compliance", self.compliance())
            .f64("burn_rate", self.burn_rate())
            .finish()
    }
}

// ----- typed instrument bundles -----

/// A deterministic per-rank view of the comm layer: the pgas rank's own
/// ledger (single-threaded writes, so lockstep runs reproduce it bit for
/// bit). `inflight_*` are the queue depth/bytes at the last inbox drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommSample {
    /// RPC messages this rank sent (all flavors).
    pub msgs_sent: u64,
    /// Wire bytes this rank sent.
    pub bytes_sent: u64,
    /// Messages the fault plan dropped at send time.
    pub sends_dropped: u64,
    /// rget attempts that timed out and were retried.
    pub rget_retries: u64,
    /// Messages delivered to this rank's inbox (executed by `progress`).
    pub delivered_msgs: u64,
    /// Wire bytes delivered to this rank's inbox.
    pub delivered_bytes: u64,
    /// Messages found in flight at the last inbox drain.
    pub inflight_msgs: u64,
    /// Wire bytes found in flight at the last inbox drain.
    pub inflight_bytes: u64,
}

/// The scheduler-side instrument bundle one task engine owns: task
/// throughput, dependency wait, ready-queue depth, resident bytes, and the
/// rank's comm counters, all labeled `rank="N"` and sampled at task
/// boundaries.
#[derive(Debug, Clone)]
pub struct SchedTelemetry {
    tel: Telemetry,
    tasks: CounterId,
    dep_wait: HistId,
    task_secs: HistId,
    rtq: GaugeId,
    mem: GaugeId,
    sent_msgs: CounterId,
    sent_bytes: CounterId,
    dropped: CounterId,
    retries: CounterId,
    inflight_msgs: GaugeId,
    inflight_bytes: GaugeId,
}

impl SchedTelemetry {
    /// New bundle for one rank.
    pub fn new(rank: usize) -> Self {
        let mut tel = Telemetry::new();
        let r = rank.to_string();
        let labels: &[(&str, &str)] = &[("rank", r.as_str())];
        SchedTelemetry {
            tasks: tel.counter("sympack_sched_tasks_total", labels),
            dep_wait: tel.histogram("sympack_sched_dep_wait_seconds", labels),
            task_secs: tel.histogram("sympack_sched_task_seconds", labels),
            rtq: tel.gauge("sympack_sched_rtq_depth", labels),
            mem: tel.gauge("sympack_sched_mem_bytes", labels),
            sent_msgs: tel.counter("sympack_pgas_msgs_sent_total", labels),
            sent_bytes: tel.counter("sympack_pgas_bytes_sent_total", labels),
            dropped: tel.counter("sympack_pgas_sends_dropped_total", labels),
            retries: tel.counter("sympack_pgas_rget_retries_total", labels),
            inflight_msgs: tel.gauge("sympack_pgas_inflight_msgs", labels),
            inflight_bytes: tel.gauge("sympack_pgas_inflight_bytes", labels),
            tel,
        }
    }

    /// Task-boundary hook: one task of `secs` virtual seconds just
    /// finished at `now` after waiting `dep_wait` past readiness, with
    /// `rtq_depth` tasks still ready and `mem_bytes` resident. `comm` is
    /// the rank's current comm view. Samples every ring at `now`.
    pub fn on_task(
        &mut self,
        now: f64,
        secs: f64,
        dep_wait: f64,
        rtq_depth: usize,
        mem_bytes: u64,
        comm: CommSample,
    ) {
        self.tel.inc(self.tasks, 1);
        self.tel.observe(self.task_secs, secs);
        self.tel.observe(self.dep_wait, dep_wait);
        self.tel.set(self.rtq, rtq_depth as f64);
        self.tel.set(self.mem, mem_bytes as f64);
        self.tel.set_counter_total(self.sent_msgs, comm.msgs_sent);
        self.tel.set_counter_total(self.sent_bytes, comm.bytes_sent);
        self.tel.set_counter_total(self.dropped, comm.sends_dropped);
        self.tel.set_counter_total(self.retries, comm.rget_retries);
        self.tel.set(self.inflight_msgs, comm.inflight_msgs as f64);
        self.tel
            .set(self.inflight_bytes, comm.inflight_bytes as f64);
        self.tel.sample(now);
    }

    /// The registry (read access for exposition).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Snapshot the current state.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.tel.snapshot()
    }
}

// ----- whole-run report -----

/// Everything a telemetry-enabled solver run hands back: the per-rank
/// snapshots merged into one, plus the health events the watchdogs raised.
/// Returned even when the run itself failed (a stalled run's telemetry is
/// the most interesting kind).
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    pub snapshot: TelemetrySnapshot,
    pub health: Vec<HealthEvent>,
}

impl TelemetryReport {
    /// Merge per-rank snapshots and health streams into one report.
    /// Health events sort by (time, subject, kind label) for deterministic
    /// output.
    pub fn from_ranks(
        snaps: impl IntoIterator<Item = TelemetrySnapshot>,
        health: impl IntoIterator<Item = HealthEvent>,
    ) -> Self {
        let mut h: Vec<HealthEvent> = health.into_iter().collect();
        h.sort_by(|a, b| {
            a.at.total_cmp(&b.at)
                .then_with(|| a.subject.cmp(&b.subject))
                .then_with(|| a.kind.label().cmp(b.kind.label()))
        });
        TelemetryReport {
            snapshot: TelemetrySnapshot::merged(snaps),
            health: h,
        }
    }

    /// Complete snapshot document (schema header, kind `solver`).
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("schema", SNAPSHOT_SCHEMA)
            .str("kind", "solver")
            .raw("telemetry", &self.snapshot.to_json())
            .raw("health", &crate::health::health_events_json(&self.health))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_on_known_samples() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), 50.5);
        assert_eq!(h.max(), 100.0);
        assert_eq!(h.p50(), 51.0); // nearest rank on 0-based index 49.5 → 50
        assert_eq!(h.p99(), 99.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn log_buckets_contain_their_samples() {
        // Deterministic pseudo-random walk over many magnitudes.
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..4000 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let v = (x >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            let scaled = v * 10f64.powi((x % 37) as i32 - 18);
            if scaled <= 0.0 {
                continue;
            }
            let idx = log_bucket(scaled);
            let (lo, hi) = log_bucket_bounds(idx);
            assert!(
                lo <= scaled && scaled < hi,
                "sample {scaled:e} outside bucket {idx} [{lo:e},{hi:e})"
            );
        }
        assert_eq!(log_bucket(0.0), 0);
        assert_eq!(log_bucket(-3.0), 0);
        assert_eq!(log_bucket(f64::MIN_POSITIVE / 2.0), 1);
    }

    #[test]
    fn log_histogram_quantiles_interpolate_within_data_range() {
        let mut h = LogHistogram::new();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.quantile(0.0), 1.0); // clamped to exact min
        assert_eq!(h.quantile(1.0), 1000.0); // clamped to exact max
        let p50 = h.p50();
        assert!(
            (400.0..=600.0).contains(&p50),
            "p50 {p50} far from true median 500 (19% bucket width)"
        );
        let p99 = h.p99();
        assert!((900.0..=1000.0).contains(&p99), "p99 {p99}");
        // Relative error of a log-bucketed quantile is bounded by the
        // bucket width (one octave / 4 sub-buckets ≈ 19%).
        assert!((p50 - 500.0).abs() / 500.0 < 0.2);
    }

    #[test]
    fn empty_log_histogram_is_zero_not_nan() {
        let h = LogHistogram::new();
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(!h.p50().is_nan());
    }

    #[test]
    fn log_histogram_merge_matches_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for i in 1..=50 {
            a.record(i as f64 * 0.1);
            both.record(i as f64 * 0.1);
        }
        for i in 1..=30 {
            b.record(i as f64 * 10.0);
            both.record(i as f64 * 10.0);
        }
        a.merge_from(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn series_ring_caps_and_collapses_same_instant() {
        let mut r = SeriesRing::new(4);
        for i in 0..10 {
            r.push(i as f64, (i * i) as f64);
        }
        let pts = r.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0], (6.0, 36.0));
        assert_eq!(pts[3], (9.0, 81.0));
        r.push(9.0, 100.0); // same instant: overwrite, not append
        assert_eq!(r.points().len(), 4);
        assert_eq!(r.points()[3], (9.0, 100.0));
    }

    #[test]
    fn registry_roundtrip_and_dedup() {
        let mut t = Telemetry::new();
        let c = t.counter("x_total", &[("rank", "0")]);
        let c2 = t.counter("x_total", &[("rank", "0")]);
        assert_eq!(c.0, c2.0);
        let c_other = t.counter("x_total", &[("rank", "1")]);
        assert_ne!(c.0, c_other.0);
        t.inc(c, 3);
        t.set_counter_total(c, 2); // monotone: no decrease
        assert_eq!(t.counters[c.0].value, 3);
        t.set_counter_total(c, 7);
        assert_eq!(t.counters[c.0].value, 7);
        let g = t.gauge("depth", &[]);
        t.set(g, 4.5);
        assert_eq!(t.gauges[g.0].value, 4.5);
        let h = t.histogram("lat", &[]);
        t.observe(h, 0.25);
        assert_eq!(t.hists[h.0].hist.count(), 1);
    }

    #[test]
    fn snapshot_merges_per_rank_and_same_key() {
        let mut a = Telemetry::new();
        let ca = a.counter("t_total", &[("rank", "0")]);
        a.inc(ca, 5);
        a.sample(1.0);
        let mut b = Telemetry::new();
        let cb = b.counter("t_total", &[("rank", "1")]);
        b.inc(cb, 7);
        b.sample(2.0);
        let merged = TelemetrySnapshot::merged([a.snapshot(), b.snapshot()]);
        assert_eq!(merged.counters.len(), 2);
        // Same-key merge: counters add.
        let again = TelemetrySnapshot::merged([merged.clone(), merged.clone()]);
        assert_eq!(again.counters[0].1, 10);
        assert_eq!(again.counters[1].1, 14);
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let mut t = Telemetry::new();
        let c = t.counter("sympack_tasks_total", &[("rank", "0")]);
        t.inc(c, 42);
        let g = t.gauge("sympack_depth", &[]);
        t.set(g, 3.0);
        let h = t.histogram("sympack_lat_seconds", &[("tenant", "a")]);
        t.observe(h, 0.5);
        let text = t.render_text();
        assert!(text.contains("# TYPE sympack_tasks_total counter"));
        assert!(text.contains("sympack_tasks_total{rank=\"0\"} 42"));
        assert!(text.contains("# TYPE sympack_depth gauge"));
        assert!(text.contains("sympack_depth 3"));
        assert!(text.contains("# TYPE sympack_lat_seconds summary"));
        assert!(text.contains("sympack_lat_seconds{tenant=\"a\",quantile=\"0.5\"}"));
        assert!(text.contains("sympack_lat_seconds_count{tenant=\"a\"} 1"));
    }

    #[test]
    fn snapshot_json_parses_and_has_sections() {
        let mut t = Telemetry::new();
        let c = t.counter("c_total", &[]);
        t.inc(c, 1);
        let h = t.histogram("h_seconds", &[]);
        t.observe(h, 2.0);
        t.sample(0.5);
        t.sample(1.5);
        let json = t.snapshot().to_json();
        let v = crate::json::parse(&json).unwrap();
        assert_eq!(v.get("counters").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("histograms").unwrap().as_array().unwrap().len(), 1);
        let series = v.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 2);
        let pts = series[0].get("points").unwrap().as_array().unwrap();
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn slo_tracker_burn_math() {
        let mut s = SloTracker::new(SloPolicy::new(1.0, 0.99));
        assert_eq!(s.burn_rate(), 0.0);
        assert_eq!(s.compliance(), 1.0);
        for _ in 0..98 {
            s.record(0.5);
        }
        s.record(2.0);
        s.record(3.0);
        // 2 bad / 100 total = 2% bad against a 1% budget → burn 2.0.
        assert!((s.burn_rate() - 2.0).abs() < 1e-12);
        assert!((s.compliance() - 0.98).abs() < 1e-12);
        let v = crate::json::parse(&s.to_json()).unwrap();
        assert_eq!(v.get("bad").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn sched_bundle_records_and_snapshots() {
        let mut st = SchedTelemetry::new(3);
        st.on_task(
            1.0,
            0.1,
            0.02,
            5,
            1024,
            CommSample {
                msgs_sent: 4,
                bytes_sent: 512,
                inflight_msgs: 2,
                inflight_bytes: 256,
                ..Default::default()
            },
        );
        st.on_task(2.0, 0.2, 0.0, 4, 2048, CommSample::default());
        let snap = st.snapshot();
        let tasks = snap
            .counters
            .iter()
            .find(|(k, _)| k.name == "sympack_sched_tasks_total")
            .unwrap();
        assert_eq!(tasks.1, 2);
        assert_eq!(tasks.0.labels, vec![("rank".to_string(), "3".to_string())]);
        // Monotone counters ingested from the comm sample never decrease.
        let sent = snap
            .counters
            .iter()
            .find(|(k, _)| k.name == "sympack_pgas_msgs_sent_total")
            .unwrap();
        assert_eq!(sent.1, 4);
    }

    #[test]
    fn report_json_has_schema_and_sorted_health() {
        use crate::health::{HealthEvent, HealthKind, Severity};
        let ev = |at: f64, subject: &str| HealthEvent {
            kind: HealthKind::Stalled,
            severity: Severity::Critical,
            at,
            subject: subject.to_string(),
            detail: String::new(),
        };
        let r = TelemetryReport::from_ranks(
            [TelemetrySnapshot::default()],
            [ev(2.0, "rank1"), ev(1.0, "rank0")],
        );
        assert_eq!(r.health[0].at, 1.0);
        let v = crate::json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SNAPSHOT_SCHEMA));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("solver"));
        assert_eq!(v.get("health").unwrap().as_array().unwrap().len(), 2);
    }
}
