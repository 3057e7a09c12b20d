//! The in-memory span recorder of the traced run, and the timer of every run.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Recorder::span`]. The call is always timed and its duration kept as a
//! sample under the span's name — that is all an untraced run does. A traced
//! run also keeps the span itself (name, start, end, parent, iteration), so
//! the two kinds of run execute the same body and differ only in this
//! bookkeeping; the ratio of their iteration times is `bench.span_overhead`.
//!
//! The recorder also measures the machine. The benchmark runs on shared
//! virtual machines whose speed moves by 20 % and more, from one 100 ms to the
//! next and for minutes at a time (hypervisor steal, a neighbour on the
//! sibling hyperthread); every phase of every workload slows by the same
//! factor, and so does a fixed loop that shares no code with the solver.
//! Before every span at depth 0 or 1 (a probe, an iteration, a phase of an
//! iteration) the recorder times one 1 ms pass of that loop, as the span
//! `reference`. [`machine_speed`] of a run is the nominal pass time over the
//! median pass of the run, and a run reports its timings in *reference
//! seconds*: wall seconds × machine speed. That cancels the drift and nothing
//! else: a slower solver is slower against the same loop. Samples and spans
//! themselves stay in wall seconds.

use std::collections::BTreeMap;
use std::time::Instant;
use sympack_trace::json::{Arr, Obj};

/// Wall seconds one pass of the reference loop takes at nominal machine
/// speed: its median on the machine the benchmark was defined on (2-core Xeon
/// 2.1 GHz VM) in its fast state, so that reference seconds read as that
/// machine's wall seconds.
const NOMINAL_PASS_S: f64 = 0.0015;
const PASS_STEPS: usize = 1 << 18;
/// 1 MiB of `f64`: spills a private L2, so cache pressure from neighbours
/// shows as well as stolen cycles.
const BUFFER_LEN: usize = 1 << 17;

/// One pass of the reference loop: four independent chains of multiply-adds,
/// each fed by its own pseudo-random loads and stores. Fixed work, none of
/// the solver's code. Four chains, because one dependent chain leaves most of
/// the core idle and so hardly notices a neighbour on the sibling hyperthread,
/// which the solver's kernels feel in full: over 20 minutes of 30 s windows,
/// `SolvePlan::new` and `factor_numeric` moved by 7 % and 9 % (cv), by 3.6 %
/// and 4.7 % against one chain, and by 1.7 % and 2.6 % against four.
fn reference_pass(buf: &mut [f64]) -> f64 {
    let mask = buf.len() - 1;
    let mut acc = [1.0f64; 4];
    let mut state = [1u64, 2, 3, 4];
    for _ in 0..PASS_STEPS {
        for (acc, state) in acc.iter_mut().zip(&mut state) {
            *state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (*state >> 33) as usize & mask;
            *acc = *acc * 0.999_999 + buf[j];
            buf[j] = *acc * 0.5;
        }
    }
    acc.iter().sum()
}

/// One recorded span. Times are seconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, `None` at top level.
    pub parent: Option<usize>,
    /// The iteration the span belongs to, `None` for one-off probes.
    pub iteration: Option<u64>,
}

#[derive(Debug)]
pub struct Recorder {
    tracing: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: Option<u64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Open spans, in both modes.
    depth: usize,
    reference_buf: Vec<f64>,
}

impl Recorder {
    /// A recorder that keeps durations only (`tracing == false`) or
    /// durations and spans.
    pub fn new(tracing: bool) -> Recorder {
        Recorder {
            tracing,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: None,
            samples: BTreeMap::new(),
            depth: 0,
            reference_buf: vec![1.0; BUFFER_LEN],
        }
    }

    /// Tag the spans recorded from now on with an iteration id.
    pub fn set_iteration(&mut self, iteration: Option<u64>) {
        self.iteration = iteration;
    }

    /// Run `f` as the span `name`; returns its result and its wall seconds.
    /// Spans opened inside `f` become children. At depth 0 or 1 one pass of
    /// the reference loop runs first, as a sibling span `reference`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        if self.depth <= 1 {
            let mut buf = std::mem::take(&mut self.reference_buf);
            self.timed("reference", |_| {
                std::hint::black_box(reference_pass(&mut buf))
            });
            self.reference_buf = buf;
        }
        self.timed(name, f)
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        self.depth += 1;
        let (out, secs) = if self.tracing {
            let id = self.spans.len();
            self.spans.push(Span {
                name,
                start: 0.0,
                end: 0.0,
                parent: self.open.last().copied(),
                iteration: self.iteration,
            });
            self.open.push(id);
            let start = self.epoch.elapsed().as_secs_f64();
            let out = f(self);
            let end = self.epoch.elapsed().as_secs_f64();
            self.open.pop();
            self.spans[id].start = start;
            self.spans[id].end = end;
            (out, end - start)
        } else {
            let t = Instant::now();
            let out = f(self);
            (out, t.elapsed().as_secs_f64())
        };
        self.depth -= 1;
        self.samples.entry(name).or_default().push(secs);
        (out, secs)
    }

    /// Durations recorded under `name`, in call order (empty if none).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every sample name with its durations.
    pub fn all_samples(&self) -> impl Iterator<Item = (&'static str, &[f64])> {
        self.samples.iter().map(|(k, v)| (*k, v.as_slice()))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: every span with its self time, as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let selfs = self_times(&self.spans);
        let mut arr = Arr::new();
        for (id, (s, self_s)) in self.spans.iter().zip(&selfs).enumerate() {
            let mut o = Obj::new()
                .u64("id", id as u64)
                .str("name", s.name)
                .f64("start_s", s.start)
                .f64("end_s", s.end)
                .f64("self_s", *self_s);
            o = match s.parent {
                Some(p) => o.u64("parent", p as u64),
                None => o.raw("parent", "null"),
            };
            o = match s.iteration {
                Some(k) => o.u64("iteration", k),
                None => o.raw("iteration", "null"),
            };
            arr.push(o.finish());
        }
        Obj::new()
            .str("workload", workload)
            .u64("seed", seed)
            .raw("spans", &arr.finish())
            .finish()
    }
}

/// Machine speed over a run, 1 = nominal: the nominal time of a reference pass
/// over the median of the passes the run's recorders timed.
pub fn machine_speed(recorders: &[&Recorder]) -> f64 {
    let passes: Vec<f64> = recorders
        .iter()
        .flat_map(|r| r.samples("reference"))
        .copied()
        .collect();
    NOMINAL_PASS_S / crate::stats::median(&passes)
}

/// Self time of every span: its duration minus the part its direct children
/// cover. Children of one parent run one after another on the bench thread,
/// so their durations add.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut selfs: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] -= s.end - s.start;
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_trace::json;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            iteration: Some(1),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // iteration [0,10] ⊃ factor [1,6] ⊃ {permute [1,2], numeric [2,5.5]},
        // and a sibling solve [6,9].
        let spans = vec![
            span("iteration", 0.0, 10.0, None),
            span("factor", 1.0, 6.0, Some(0)),
            span("permute", 1.0, 2.0, Some(1)),
            span("numeric", 2.0, 5.5, Some(1)),
            span("solve", 6.0, 9.0, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![2.0, 0.5, 1.0, 3.5, 3.0]);
        // Self times of a tree add up to its root.
        assert_eq!(selfs.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn recorder_links_parents_and_keeps_samples_in_both_modes() {
        for tracing in [false, true] {
            let mut rec = Recorder::new(tracing);
            rec.set_iteration(Some(3));
            let (v, outer) = rec.span("outer", |rec| {
                rec.span("inner", |rec| rec.span("leaf", |_| 1).0).0 + rec.span("inner", |_| 2).0
            });
            assert_eq!(v, 3);
            assert_eq!(rec.samples("inner").len(), 2);
            assert_eq!(rec.samples("outer"), &[outer]);
            assert!(rec.samples("absent").is_empty());
            // One reference pass before `outer` and each `inner`, none
            // before `leaf` at depth 2.
            assert_eq!(rec.samples("reference").len(), 3);
            assert!(machine_speed(&[&rec]) > 0.0);
            if tracing {
                let shape: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
                let expected = [
                    ("reference", None),
                    ("outer", None),
                    ("reference", Some(1)),
                    ("inner", Some(1)),
                    ("leaf", Some(3)),
                    ("reference", Some(1)),
                    ("inner", Some(1)),
                ];
                assert_eq!(shape, expected);
                let s = rec.spans();
                assert!(s.iter().all(|s| s.iteration == Some(3)));
                assert!(s[1].start <= s[2].start && s[6].end <= s[1].end);
                assert!(self_times(s)[1] >= 0.0);
            } else {
                assert!(rec.spans().is_empty());
            }
        }
    }

    #[test]
    fn span_file_round_trips_through_the_trace_crate_parser() {
        let mut rec = Recorder::new(true);
        rec.span("probe", |_| ());
        rec.set_iteration(Some(7));
        rec.span("iteration", |rec| rec.span("solve", |_| ()));
        let doc = json::parse(&rec.to_json("cold_dense3d_p1", 20230)).expect("valid JSON");
        assert_eq!(
            doc.get("workload").and_then(|v| v.as_str()),
            Some("cold_dense3d_p1")
        );
        assert_eq!(doc.get("seed").and_then(|v| v.as_u64()), Some(20230));
        let spans = doc.get("spans").and_then(|v| v.as_array()).expect("spans");
        let names: Vec<_> = spans
            .iter()
            .map(|s| s.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(
            names,
            [
                "reference",
                "probe",
                "reference",
                "iteration",
                "reference",
                "solve"
            ]
        );
        assert_eq!(spans[1].get("iteration"), Some(&json::JsonValue::Null));
        assert_eq!(spans[1].get("parent"), Some(&json::JsonValue::Null));
        assert_eq!(spans[5].get("parent").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(spans[5].get("iteration").and_then(|v| v.as_u64()), Some(7));
        for (s, rec_span) in spans.iter().zip(rec.spans()) {
            let end = s.get("end_s").and_then(|v| v.as_f64()).expect("end_s");
            assert_eq!(end, rec_span.end);
        }
        // Writer and parser are inverse on the whole document.
        assert_eq!(json::parse(&json::write(&doc)).expect("re-parse"), doc);
    }
}
