//! Seeded property tests for the trace crate: Chrome export always emits
//! valid JSON (checked with the crate's own parser), `merge` is a stable
//! sort by start time, and profiles built from random synthetic schedules
//! uphold the structural invariants (critical path bounded by the makespan,
//! per-rank time classes summing to the makespan) and round-trip through
//! the profile JSON codec bit-identically.

use sympack_trace::profile::{check_invariants, CommMatrix, Profile};
use sympack_trace::telemetry::{Histogram, LogHistogram, Telemetry};
use sympack_trace::{json, merge, to_chrome_json, SpanKind, TraceCat, TraceEvent};

/// xorshift64* — deterministic, no external crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const CATS: [TraceCat; 7] = [
    TraceCat::Potrf,
    TraceCat::Trsm,
    TraceCat::Syrk,
    TraceCat::Gemm,
    TraceCat::Comm,
    TraceCat::Solve,
    TraceCat::Other,
];

/// Names that stress the JSON escaper: quotes, backslashes, control
/// characters, unicode, empty.
const NASTY_NAMES: [&str; 7] = [
    "D(3)",
    "panel \"q\"",
    "back\\slash",
    "",
    "π-λ-Ж",
    "ctrl\n\ttab",
    "U(1,2,3)",
];

fn random_event(rng: &mut Rng) -> TraceEvent {
    let start = rng.f64() * 1e-3;
    let dur = rng.f64() * 1e-4;
    let mut e = TraceEvent::basic(
        rng.below(8),
        NASTY_NAMES[rng.below(NASTY_NAMES.len())].to_string(),
        CATS[rng.below(CATS.len())],
        start,
        dur,
    );
    e.kind = [
        SpanKind::Exec,
        SpanKind::Rget,
        SpanKind::Copy,
        SpanKind::Rpc,
        SpanKind::Request,
    ][rng.below(5)];
    if rng.below(2) == 0 {
        e.bytes = rng.next() % (1 << 20);
    }
    if rng.below(3) == 0 {
        e.peer = Some(rng.below(8));
    }
    if e.kind == SpanKind::Exec && rng.below(2) == 0 {
        e.kernel = dur * rng.f64();
        e.overhead = dur - e.kernel;
    }
    e
}

#[test]
fn chrome_export_is_valid_json_for_random_timelines() {
    for seed in 0..50 {
        let mut rng = Rng::new(seed);
        let n = rng.below(40);
        let events: Vec<TraceEvent> = (0..n).map(|_| random_event(&mut rng)).collect();
        let doc = to_chrome_json(&events);
        let parsed = json::parse(&doc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let rows = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("seed {seed}: no traceEvents array"));
        assert_eq!(rows.len(), events.len(), "seed {seed}");
        for (row, ev) in rows.iter().zip(&events) {
            let name = row.get("name").and_then(|v| v.as_str()).expect("name");
            assert_eq!(name, ev.name, "seed {seed}: name must survive escaping");
            let kind = row
                .get("args")
                .and_then(|a| a.get("kind"))
                .and_then(|v| v.as_str())
                .expect("args.kind");
            assert_eq!(kind, ev.kind.label(), "seed {seed}");
        }
    }
}

#[test]
fn chrome_export_of_empty_timeline_is_valid_json() {
    let doc = to_chrome_json(&[]);
    let parsed = json::parse(&doc).expect("empty timeline parses");
    let rows = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents");
    assert!(rows.is_empty());
}

#[test]
fn merge_sorts_by_start_and_keeps_equal_starts_stable() {
    for seed in 0..30 {
        let mut rng = Rng::new(1000 + seed);
        let n_lists = 1 + rng.below(5);
        let lists: Vec<Vec<TraceEvent>> = (0..n_lists)
            .map(|rank| {
                (0..rng.below(30))
                    .map(|i| {
                        let mut e = random_event(&mut rng);
                        // Quantized starts force plenty of exact ties.
                        e.start = (rng.below(10) as f64) * 1e-4;
                        e.rank = rank;
                        e.name = format!("r{rank}-{i}");
                        e
                    })
                    .collect()
            })
            .collect();
        let flat_order: Vec<String> = lists
            .iter()
            .flatten()
            .map(|e| e.name.clone())
            .collect::<Vec<_>>();
        let merged = merge(lists);
        for w in merged.windows(2) {
            assert!(w[0].start <= w[1].start, "seed {seed}: not sorted");
        }
        // Stability: within an equal-start group, events keep the flattened
        // input order.
        let pos = |name: &str| flat_order.iter().position(|n| n == name).unwrap();
        for w in merged.windows(2) {
            if w[0].start == w[1].start {
                assert!(
                    pos(&w[0].name) < pos(&w[1].name),
                    "seed {seed}: tie between {} and {} reordered",
                    w[0].name,
                    w[1].name
                );
            }
        }
    }
}

/// A random but well-formed schedule: per rank a chain of non-overlapping
/// Exec spans (random gaps, ready times and preds) plus comm spans, the
/// shape real engine traces have.
fn random_schedule(rng: &mut Rng) -> (Vec<TraceEvent>, f64, usize, CommMatrix) {
    let n_ranks = 1 + rng.below(4);
    let mut events = Vec::new();
    let mut makespan = 0.0f64;
    let mut comm = CommMatrix::empty(n_ranks);
    for rank in 0..n_ranks {
        let mut t = rng.f64() * 1e-5;
        let n_tasks = 1 + rng.below(25);
        for i in 0..n_tasks {
            let gap = rng.f64() * 2e-5;
            let start = t + gap;
            // Ready anywhere in the gap (dep wait), or before the previous
            // task ended (resource wait).
            let ready_at = t - rng.f64() * 1e-5 + rng.f64() * (gap + 1e-5);
            let dur = 1e-7 + rng.f64() * 3e-5;
            let mut e = TraceEvent::basic(
                rank,
                format!("T({rank},{i})"),
                CATS[rng.below(4)],
                start,
                dur,
            );
            e.ready_at = ready_at.max(0.0);
            e.overhead = dur * rng.f64() * 0.3;
            e.kernel = dur - e.overhead;
            e.rtq_depth = rng.below(20) as u32;
            e.bytes = rng.next() % (1 << 16);
            if i > 0 && rng.below(2) == 0 {
                // Dep label pointing at some earlier task on a random rank.
                e.pred = Some(format!("T({},{})", rng.below(n_ranks), rng.below(i)));
            }
            if rng.below(3) == 0 {
                // A comm span somewhere inside the dep gap.
                let peer = rng.below(n_ranks);
                let cdur = rng.f64() * gap;
                let mut c = TraceEvent::basic(
                    rank,
                    "rget".to_string(),
                    TraceCat::Comm,
                    t + (gap - cdur) * rng.f64(),
                    cdur,
                );
                c.kind = SpanKind::Rget;
                c.peer = Some(peer);
                c.bytes = rng.next() % (1 << 12);
                comm.bytes[peer * n_ranks + rank] += c.bytes;
                comm.msgs[peer * n_ranks + rank] += 1;
                events.push(c);
            }
            events.push(e);
            t = start + dur;
        }
        makespan = makespan.max(t);
    }
    // Sometimes the makespan extends past the last task (barrier tail).
    if rng.below(2) == 0 {
        makespan += rng.f64() * 1e-5;
    }
    (events, makespan, n_ranks, comm)
}

#[test]
fn random_schedules_uphold_profile_invariants() {
    for seed in 0..60 {
        let mut rng = Rng::new(31 * seed + 7);
        let (events, makespan, n_ranks, comm) = random_schedule(&mut rng);
        let p = Profile::build("prop", &events, makespan, n_ranks, comm);
        check_invariants(&p).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(p.crit_len <= p.makespan + 1e-12 + 1e-9 * p.makespan);
        assert!(!p.crit.is_empty());
    }
}

#[test]
fn random_profiles_roundtrip_through_json_bit_identically() {
    for seed in 0..20 {
        let mut rng = Rng::new(97 * seed + 13);
        let (mut events, makespan, n_ranks, comm) = random_schedule(&mut rng);
        // Inject escaper-hostile names into some spans.
        for (i, e) in events.iter_mut().enumerate() {
            if i % 5 == 0 {
                e.name = NASTY_NAMES[i % NASTY_NAMES.len()].to_string();
            }
        }
        let p = Profile::build("prop \"escaped\"", &events, makespan, n_ranks, comm);
        let doc = p.to_json();
        let p2 = Profile::from_json(&doc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(doc, p2.to_json(), "seed {seed}: roundtrip not stable");
        assert_eq!(p.n_ranks, p2.n_ranks);
        assert_eq!(p.spans.len(), p2.spans.len());
        check_invariants(&p2).unwrap_or_else(|e| panic!("seed {seed} reparsed: {e}"));
    }
}

/// Random latency-like samples: mostly small positive values with the
/// occasional large outlier, zero, and exact repeats — the shapes that
/// stress bucket-edge interpolation.
fn random_samples(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.below(8) {
            0 => 0.0,
            1 => rng.f64() * 1e3,         // outlier
            2 => 1e-6,                    // exact repeat magnet
            _ => 1e-6 + rng.f64() * 1e-2, // typical latency
        })
        .collect()
}

#[test]
fn exact_histogram_quantiles_are_monotone_and_bounded() {
    for seed in 0..60 {
        let mut rng = Rng::new(211 * seed + 5);
        let mut h = Histogram::new();
        let n = 1 + rng.below(200);
        let samples = random_samples(&mut rng, n);
        for &s in &samples {
            h.record(s);
        }
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile(q);
            assert!(
                v >= prev,
                "seed {seed}: quantile({q}) = {v} < quantile({}) = {prev}",
                (i as f64 - 1.0) / 100.0
            );
            assert!(
                (lo..=hi).contains(&v),
                "seed {seed}: quantile({q}) = {v} outside observed [{lo}, {hi}]"
            );
            prev = v;
        }
    }
}

#[test]
fn log_histogram_quantiles_are_monotone_and_bounded() {
    for seed in 0..60 {
        let mut rng = Rng::new(389 * seed + 11);
        let mut h = LogHistogram::new();
        let n = 1 + rng.below(200);
        let samples = random_samples(&mut rng, n);
        for &s in &samples {
            h.record(s);
        }
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile(q);
            assert!(v >= prev, "seed {seed}: quantile({q}) = {v} not monotone");
            // Interpolated values are clamped to the observed range, never
            // a raw bucket edge outside it.
            assert!(
                v >= lo - 1e-12 && v <= hi + 1e-12,
                "seed {seed}: quantile({q}) = {v} outside observed [{lo}, {hi}]"
            );
            prev = v;
        }
        assert_eq!(h.quantile(0.0), lo, "seed {seed}: q=0 is the minimum");
        assert_eq!(h.quantile(1.0), hi, "seed {seed}: q=1 is the maximum");
    }
}

#[test]
fn empty_histograms_quantile_to_zero_not_nan() {
    let h = Histogram::new();
    assert_eq!(h.p50(), 0.0);
    assert_eq!(h.p99(), 0.0);
    assert_eq!(h.quantile(0.25), 0.0);
    let lh = LogHistogram::new();
    assert_eq!(lh.p50(), 0.0);
    assert_eq!(lh.p99(), 0.0);
    assert_eq!(lh.quantile(0.0), 0.0);
    assert_eq!(lh.quantile(1.0), 0.0);
}

#[test]
fn log_histogram_merge_matches_recording_the_union() {
    for seed in 0..30 {
        let mut rng = Rng::new(577 * seed + 3);
        let na = rng.below(100);
        let a = random_samples(&mut rng, na);
        let nb = rng.below(100);
        let b = random_samples(&mut rng, nb);
        let mut ha = LogHistogram::new();
        let mut hb = LogHistogram::new();
        let mut hu = LogHistogram::new();
        for &s in &a {
            ha.record(s);
            hu.record(s);
        }
        for &s in &b {
            hb.record(s);
            hu.record(s);
        }
        ha.merge_from(&hb);
        assert_eq!(ha.count(), hu.count(), "seed {seed}");
        // Bucketized shape is exactly the union; the mean may differ by an
        // ULP because merging regroups the floating-point sum.
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                ha.quantile(q).to_bits(),
                hu.quantile(q).to_bits(),
                "seed {seed}: quantile({q}) merge != union"
            );
        }
        assert_eq!(ha.min().to_bits(), hu.min().to_bits(), "seed {seed}");
        assert_eq!(ha.max().to_bits(), hu.max().to_bits(), "seed {seed}");
        assert!(
            (ha.mean() - hu.mean()).abs() <= 1e-12 * hu.mean().abs().max(1.0),
            "seed {seed}: merged mean {} far from union mean {}",
            ha.mean(),
            hu.mean()
        );
    }
}

#[test]
fn telemetry_snapshot_json_roundtrips_through_the_writer() {
    for seed in 0..20 {
        let mut rng = Rng::new(733 * seed + 17);
        let mut tel = Telemetry::new();
        let c = tel.counter("prop_total", &[("rank", "0")]);
        let g = tel.gauge("prop_depth", &[]);
        let h = tel.histogram("prop_latency_seconds", &[("tenant", "π \"q\"")]);
        for tick in 0..rng.below(20) {
            tel.inc(c, rng.next() % 100);
            tel.set(g, rng.f64() * 50.0);
            let n = rng.below(10);
            for &s in &random_samples(&mut rng, n) {
                tel.observe(h, s);
            }
            tel.sample(tick as f64 * 1e-3);
        }
        let doc = tel.snapshot().to_json();
        let v = json::parse(&doc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let v2 = json::parse(&json::write(&v)).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(v, v2, "seed {seed}: writer round-trip changed the tree");
    }
}
