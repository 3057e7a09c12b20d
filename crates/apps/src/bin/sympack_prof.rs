//! `sympack-prof` — offline analyzer for solver flight-recorder profiles.
//!
//! Consumes the Profile JSON documents every engine — the fan-out and the
//! three baselines alike — emits when run with `SolverOptions::trace` on (or
//! the `timeline` bench's `--profile-json` flag):
//!
//! ```text
//! sympack-prof report profile.json [--top N]       text report to stdout
//! sympack-prof chrome profile.json [-o out.json]   Chrome trace export
//! sympack-prof diff old.json new.json \
//!     [--makespan-pct X] [--crit-pct X] \
//!     [--published-pct X]                          exit 1 on regression
//! ```
//!
//! `report` prints the makespan, critical path (top-k tasks), per-rank wait
//! attribution, imbalance and communication hotspots, and verifies the
//! profile's structural invariants. `diff` compares two profiles and exits
//! nonzero when the new makespan or critical path grew past the thresholds
//! (percent growth, default 5) — CI's regression gate.

use std::process::ExitCode;
use sympack_apps::take_flag;
use sympack_trace::profile::{check_invariants, diff, DiffThresholds, Profile};

const USAGE: &str = "usage:
  sympack-prof report <profile.json> [--top N]
  sympack-prof chrome <profile.json> [-o <out.json>]
  sympack-prof diff <old.json> <new.json> [--makespan-pct X] [--crit-pct X] [--published-pct X]";

fn load(path: &str) -> Result<Profile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Profile::from_json(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn run() -> Result<ExitCode, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return Err(USAGE.into());
    }
    let cmd = argv.remove(0);
    match cmd.as_str() {
        "report" => {
            let top: usize = match take_flag(&mut argv, "--top")? {
                Some(v) => v.parse().map_err(|_| "bad --top".to_string())?,
                None => 10,
            };
            let [path] = argv.as_slice() else {
                return Err(USAGE.into());
            };
            let p = load(path)?;
            print!("{}", p.render_report(top));
            if let Err(e) = check_invariants(&p) {
                eprintln!("warning: profile invariant violated: {e}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "chrome" => {
            let out = take_flag(&mut argv, "-o")?;
            let [path] = argv.as_slice() else {
                return Err(USAGE.into());
            };
            let p = load(path)?;
            let json = sympack_trace::to_chrome_json(&p.spans);
            match out {
                Some(dest) => {
                    std::fs::write(&dest, json).map_err(|e| format!("write {dest}: {e}"))?;
                    eprintln!("wrote {} spans to {dest}", p.spans.len());
                }
                None => print!("{json}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let mut thr = DiffThresholds::default();
            if let Some(v) = take_flag(&mut argv, "--makespan-pct")? {
                thr.makespan_pct = v.parse().map_err(|_| "bad --makespan-pct".to_string())?;
            }
            if let Some(v) = take_flag(&mut argv, "--crit-pct")? {
                thr.crit_pct = v.parse().map_err(|_| "bad --crit-pct".to_string())?;
            }
            if let Some(v) = take_flag(&mut argv, "--published-pct")? {
                thr.published_pct = v.parse().map_err(|_| "bad --published-pct".to_string())?;
            }
            let [old_path, new_path] = argv.as_slice() else {
                return Err(USAGE.into());
            };
            let (old, new) = (load(old_path)?, load(new_path)?);
            let d = diff(&old, &new, &thr);
            print!("{}", d.report);
            Ok(if d.regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
