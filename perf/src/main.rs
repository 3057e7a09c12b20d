//! `perf_bench`: the wall-clock, layer-by-layer benchmark of the real solve.
//!
//! ```text
//! perf_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]   one run, one process
//! perf_bench [--repeat N] [--seed N] [--seconds S]                      the whole suite
//! ```
//!
//! A run prints a table of its samples and, as the last line of standard
//! output, one JSON object `{correct, attempted, failed, metrics}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See README.md for what every name means.

mod bench;
mod inputs;
mod metrics;
mod probes;
mod replay;
mod spans;
mod stats;
mod suite;

use bench::{Bench, Ops};
use inputs::Workload;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use spans::{machine_speed, Recorder};
use stats::{median, percentile, tail_percentile};
use std::process::ExitCode;
use std::time::Instant;
use sympack_trace::json::Obj;

/// Default `--seed`; 7 is the documented held-out seed.
const DEFAULT_SEED: u64 = 20230;
/// Default `--seconds`, the `run_seconds` of `/BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Share of `--seconds` a traced run spends on iterations before its probes.
const TRACED_ITERATION_SHARE: f64 = 0.4;
/// Where a traced run writes its spans, relative to the repo root.
const OUT_DIR: &str = "perf/out";

/// What one run measured.
struct Outcome {
    ops: Ops,
    metrics: Metrics,
    /// Samples of the measured iterations; in a traced run, their spans and
    /// the probes' too.
    rec: Recorder,
}

/// `VmHWM` of this process: the peak resident set so far, in bytes.
fn peak_rss_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kib * 1024.0
}

/// One run of one workload in this process. `Err` when nothing could be
/// measured (a set-up or probe operation failed).
fn run(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    // Set-up: inputs, solver state and one untimed warm-up iteration. An
    // untraced run sets up several times and reports the median.
    let mut setups = Vec::new();
    let mut warm_ups = Vec::new();
    let mut bench = None;
    for _ in 0..if traced { 1 } else { SETUP_REPEATS } {
        // The previous set-up's state is freed first; its counts go on.
        let ops = bench.take().map_or_else(Ops::default, |b: Bench| b.ops);
        let t = Instant::now();
        let mut fresh =
            Bench::set_up(workload, seed, ops).map_err(|e| format!("set-up failed: {e}"))?;
        let mut warm_up = Recorder::new(false);
        fresh.iteration(&mut warm_up, 0);
        setups.push(t.elapsed().as_secs_f64());
        warm_ups.push(warm_up);
        bench = Some(fresh);
    }
    let mut bench = bench.expect("at least one set-up");
    println!(
        "workload {} seed {seed} n {} nnz {} P {} inputs_fnv {:016x}",
        workload.name,
        bench.inputs.a.n(),
        bench.inputs.a.nnz(),
        workload.p,
        bench.inputs.fingerprint(),
    );

    // The time-boxed closed loop. A traced run alternates traced and plain
    // iterations so that their ratio is taken under the same conditions.
    let mut rec = Recorder::new(traced);
    let mut plain = Recorder::new(false);
    let (window, min_iterations) = if traced {
        (seconds * TRACED_ITERATION_SHARE, 4)
    } else {
        (seconds, 1)
    };
    let start = Instant::now();
    let mut k = 0;
    while k < min_iterations || start.elapsed().as_secs_f64() < window {
        k += 1;
        bench.iteration(
            if traced && k % 2 == 0 {
                &mut plain
            } else {
                &mut rec
            },
            k,
        );
    }

    let metrics = if traced {
        let first_iteration_s = warm_ups[0].samples("iteration")[0];
        probes::per_layer(&mut bench, &mut rec, &plain, first_iteration_s)
            .ok_or("a probe operation failed")?
    } else {
        // Reference seconds: wall seconds × the run's machine speed.
        let mut recorders: Vec<&Recorder> = warm_ups.iter().collect();
        recorders.push(&rec);
        let speed = machine_speed(&recorders);
        let med = |name: &str| speed * median(rec.samples(name));
        let mut m = Metrics::default();
        m.set("setup_s", speed * median(&setups));
        m.set("time_to_solution_s", med("one_shot"));
        m.set("analyze_s", med("analyze"));
        m.set("factor_s", med("factor"));
        m.set("solve_s", med("solve"));
        m.set(
            "solve_p90_s",
            speed * percentile(rec.samples("solve"), 90.0),
        );
        m.set("refactor_s", med("refactor"));
        m.set("solve_panel_s", med("panel"));
        m.set("peak_rss_bytes", peak_rss_bytes());
        m
    };
    Ok(Outcome {
        ops: bench.ops,
        metrics,
        rec,
    })
}

/// Write the spans of a traced run to `perf/out/trace-<workload>.json`.
fn write_spans(rec: &Recorder, workload: &str, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/trace-{workload}.json");
    std::fs::write(&path, rec.to_json(workload, seed))?;
    println!("{} spans written to {path}", rec.spans().len());
    Ok(())
}

/// Every timing as median, the highest percentile with at least ten samples
/// beyond it, and the sample count.
fn print_samples(rec: &Recorder) {
    println!(
        "machine speed {:.4} (1 = nominal); the samples below are wall seconds, the metrics wall seconds × speed",
        machine_speed(&[rec]),
    );
    println!(
        "{:<18} {:>7} {:>12} {:>18}",
        "span", "samples", "median_s", "tail_s"
    );
    for (name, samples) in rec.all_samples() {
        let tail = tail_percentile(samples.len()).map_or("-".to_string(), |p| {
            format!("p{p} {:.6}", percentile(samples, p))
        });
        println!(
            "{name:<18} {:>7} {:>12.6} {tail:>18}",
            samples.len(),
            median(samples)
        );
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
            }
            "--trace" => args.traced = value.parse::<u8>().map_err(|_| bad("0 or 1"))? != 0,
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad("a count"))?;
                if !(1..=20).contains(&args.repeat) {
                    return Err(bad("a count from 1 to 20"));
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_bench: {e}\nusage: perf_bench [--workload NAME [--trace 0|1]] [--seed N] [--seconds S] [--repeat N]");
            return ExitCode::from(2);
        }
    };
    let Some(name) = &args.workload else {
        return suite::run(args.repeat, args.seed, args.seconds);
    };
    let Some(workload) = Workload::by_name(name) else {
        let names: Vec<&str> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perf_bench: unknown workload {name}; one of {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    match run(workload, args.seed, args.seconds, args.traced) {
        Ok(Outcome { ops, metrics, rec }) => {
            print_samples(&rec);
            if args.traced {
                if let Err(e) = write_spans(&rec, workload.name, args.seed) {
                    eprintln!("perf_bench: {OUT_DIR}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            let declared: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
            let line = Obj::new()
                .bool("correct", ops.failed == 0)
                .u64("attempted", ops.attempted)
                .u64("failed", ops.failed)
                .raw("metrics", &metrics.to_json(declared))
                .finish();
            println!("{line}");
            if ops.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perf_bench: {}: {e}", workload.name);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inputs::WORKLOADS;

    /// Both kinds of run, on every workload at quick scale, measure exactly
    /// the declared metrics (`to_json` panics otherwise) with every
    /// operation correct.
    #[test]
    fn every_run_reports_every_declared_metric() {
        for w in &WORKLOADS {
            let quick = w.quick();
            for (traced, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let out = run(quick, 7, 0.05, traced).expect("run");
                assert_eq!(out.ops.failed, 0, "{}", w.name);
                assert!(out.ops.attempted > 0);
                let doc = sympack_trace::json::parse(&out.metrics.to_json(declared)).expect("JSON");
                for (name, _) in declared {
                    let v = doc
                        .get(name)
                        .and_then(|m| m.get("value"))
                        .and_then(|v| v.as_f64());
                    assert!(v.is_some_and(f64::is_finite), "{} {name}: {v:?}", w.name);
                }
                for (name, _) in &END_TO_END {
                    if !traced {
                        assert!(
                            out.metrics.get(name).is_some_and(|v| v > 0.0),
                            "{} {name}",
                            w.name
                        );
                    }
                }
            }
        }
    }
}
