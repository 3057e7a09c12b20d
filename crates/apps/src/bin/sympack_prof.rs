//! `sympack-prof` — offline analyzer for solver flight-recorder profiles.
//!
//! Consumes the Profile JSON documents every engine — the fan-out and the
//! three baselines alike — emits when run with `SolverOptions::trace` on (or
//! the `timeline` bench's `--profile-json` flag):
//!
//! ```text
//! sympack-prof report profile.json [--top N]       text report to stdout
//! sympack-prof chrome profile.json [-o out.json]   Chrome trace export
//! ```
//!
//! `report` prints the makespan, critical path (top-k tasks), per-rank wait
//! attribution, imbalance and communication hotspots, then checks the
//! profile's structural invariants and exits 1 when one is broken. A
//! document that does not parse also exits 1; a command line it does not
//! take prints the usage and exits 2.

use std::process::ExitCode;
use sympack_apps::{refuse, take_flag};
use sympack_trace::profile::{check_invariants, Profile};

const USAGE: &str = "usage:
  sympack-prof report <profile.json> [--top N]
  sympack-prof chrome <profile.json> [-o <out.json>]";

fn load(path: &str) -> Result<Profile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Profile::from_json(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// The one path argument left once the flags are taken.
fn path(argv: &[String]) -> &str {
    match argv {
        [path] => path,
        _ => refuse(USAGE, "expected one profile path"),
    }
}

fn run() -> Result<(), String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        refuse(USAGE, "no command");
    }
    let cmd = argv.remove(0);
    match cmd.as_str() {
        "report" => {
            let top: usize = match take_flag(&mut argv, "--top", USAGE) {
                Some(v) => v.parse().unwrap_or_else(|_| refuse(USAGE, "bad --top")),
                None => 10,
            };
            let p = load(path(&argv))?;
            print!("{}", p.render_report(top));
            check_invariants(&p).map_err(|e| format!("profile invariant violated: {e}"))
        }
        "chrome" => {
            let out = take_flag(&mut argv, "-o", USAGE);
            let p = load(path(&argv))?;
            let json = sympack_trace::to_chrome_json(&p.spans);
            match out {
                Some(dest) => {
                    std::fs::write(&dest, json).map_err(|e| format!("write {dest}: {e}"))?;
                    eprintln!("wrote {} spans to {dest}", p.spans.len());
                }
                None => print!("{json}"),
            }
            Ok(())
        }
        other => refuse(USAGE, &format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
