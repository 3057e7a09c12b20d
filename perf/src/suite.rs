//! The whole benchmark in one command: every workload untraced, then traced,
//! one process per run; the tables; and with `--repeat N` the set-to-set
//! spread of every end-to-end metric against its bound.

use crate::inputs::{Workload, WORKLOADS};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::spread;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use sympack_trace::json::{self, JsonValue};

/// The metrics of one run, by name.
type Values = BTreeMap<String, f64>;

/// Run one workload in a child process; echo its report and parse its result
/// line. `Err` when the child failed an operation or printed no result.
fn child(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, result) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    let doc = json::parse(result).map_err(|e| format!("{}: no result line ({e})", w.name))?;
    let count = |k: &str| doc.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    println!(
        "operations: {} attempted, {} failed\n",
        count("attempted"),
        count("failed")
    );
    if !out.status.success() || doc.get("correct") != Some(&JsonValue::Bool(true)) {
        return Err(format!("{}: operations failed ({})", w.name, out.status));
    }
    let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{}: result line without metrics", w.name));
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// `bound` of every end-to-end metric, from `/BENCHMARK.json` in the current
/// directory (the repo root): the file is the one place bounds are fixed.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json: end_to_end")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("end_to_end name")?;
            let bound = m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or("end_to_end bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

fn cell(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v:.0}"),
        Some(v) if (1e-3..1e6).contains(&v.abs()) => format!("{v:.4}"),
        Some(v) => format!("{v:.3e}"),
    }
}

/// One row per metric, one column per workload. A wall-clock value from a
/// workload with more ranks than the machine has cores is `unresolved`.
fn table(title: &str, declared: &[(&str, &str)], runs: &[Values], cores: usize) {
    println!("## {title}\n");
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    println!("| metric | unit | {} |", names.join(" | "));
    println!("|---|---|{}", "---:|".repeat(names.len()));
    for (name, unit) in declared {
        let cells: Vec<String> = WORKLOADS
            .iter()
            .zip(runs)
            .map(|(w, values)| {
                let timed = !matches!(*unit, "count" | "bytes");
                if timed && w.p > cores {
                    "unresolved".to_string()
                } else {
                    cell(values.get(*name).copied())
                }
            })
            .collect();
        println!("| `{name}` | {unit} | {} |", cells.join(" | "));
    }
    println!();
}

/// The Factor | Solve | residual table of SNIPPETS.md 3, one per workload,
/// with what each timing includes.
fn method_table(w: &Workload, e2e: &Values, layer: &Values) {
    let get = |v: &Values, k: &str| cell(v.get(k).copied());
    let residual = format!(
        "{:.1e}",
        layer.get("core.max_residual").copied().unwrap_or(f64::NAN)
    );
    println!("### {} — seconds, P = {}\n", w.name, w.p);
    println!("| method | Factor | Solve | total | residual | the timing includes |");
    println!("|---|---:|---:|---:|---:|---|");
    println!(
        "| fan-out, phase by phase | {} | {} | - | {residual} | Factor: values in → factor resident; Solve: 1 RHS, permutes included; no analysis ({} s apart) |",
        get(e2e, "factor_s"),
        get(e2e, "solve_s"),
        get(e2e, "analyze_s"),
    );
    println!(
        "| fan-out, one call | - | - | {} | {residual} | analysis + factor + solve + the solver's own residual |",
        get(e2e, "time_to_solution_s"),
    );
    for (method, key) in [
        ("right-looking", "baseline.rightlooking_s"),
        ("fan-in", "baseline.fanin_s"),
        ("fan-both", "baseline.fanboth_s"),
    ] {
        println!(
            "| {method}, one call | - | - | {} | ≤ 1e-10 | analysis + factor + solve + residual |",
            get(layer, key)
        );
    }
    println!(
        "| multifrontal (serial) | {} | - | - | - | Factor carries its own ordering + analysis; no solve |\n",
        get(layer, "multifrontal.factor_s"),
    );
}

/// Run the suite. Non-zero exit on a failed operation, and with `repeat ≥ 2`
/// when two sets disagree on an end-to-end metric by more than its bound.
pub fn run(repeat: usize, seed: u64, seconds: f64) -> ExitCode {
    match suite(repeat, seed, seconds) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn suite(repeat: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    let bounds = bounds()?;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("# perf_bench: {cores} cores, seed {seed}, {seconds} s per run, {repeat} set(s)\n");

    // sets[s][w]: set `s` runs every workload untraced under seed + s.
    let mut sets: Vec<Vec<Values>> = Vec::new();
    for s in 0..repeat as u64 {
        sets.push(
            WORKLOADS
                .iter()
                .map(|w| child(w, seed + s, seconds, false))
                .collect::<Result<_, _>>()?,
        );
    }
    let layers: Vec<Values> = WORKLOADS
        .iter()
        .map(|w| child(w, seed, seconds, true))
        .collect::<Result<_, _>>()?;

    table(
        "End-to-end metrics (untraced, first set)",
        &END_TO_END,
        &sets[0],
        cores,
    );
    let by_name = |name: &str| {
        WORKLOADS
            .iter()
            .position(|w| w.name == name)
            .expect("workload")
    };
    let (p1, p2) = (
        &sets[0][by_name("cold_dense3d_p1")],
        &sets[0][by_name("cold_dense3d_p2")],
    );
    if cores >= 2 {
        for metric in ["time_to_solution_s", "factor_s"] {
            println!(
                "speed-up P = 1 → 2 on cold_dense3d, `{metric}`: {:.3}×",
                p1[metric] / p2[metric]
            );
        }
        println!();
    }
    table("Per-layer metrics (traced)", &PER_LAYER, &layers, cores);
    println!("## Factor | Solve | residual\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        method_table(w, &sets[0][i], &layers[i]);
    }
    if repeat < 2 {
        return Ok(true);
    }

    println!("## Spread of {repeat} sets against the bound\n");
    println!(
        "| workload | metric | {} | spread | bound | |",
        (1..=repeat)
            .map(|s| format!("set {s}"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("|---|---|{}---:|---:|---|", "---:|".repeat(repeat));
    let mut agree = true;
    for (i, w) in WORKLOADS.iter().enumerate() {
        for (name, unit) in &END_TO_END {
            let values: Vec<f64> = sets.iter().map(|set| set[i][*name]).collect();
            let cells: Vec<String> = values.iter().map(|&v| cell(Some(v))).collect();
            let (share, bound) = (spread(&values), bounds[*name]);
            let verdict = if *unit == "s" && w.p > cores {
                "unresolved"
            } else if share <= bound {
                "ok"
            } else {
                agree = false;
                "OVER"
            };
            println!(
                "| {} | `{name}` | {} | {share:.4} | {bound} | {verdict} |",
                w.name,
                cells.join(" | ")
            );
        }
    }
    Ok(agree)
}
