//! `sympack-tune` — kernel calibration front-end.
//!
//! ```text
//! sympack-tune calibrate [--quick] [--out profile.json]   sweep, print, save
//! sympack-tune show <profile.json>                        print a saved profile
//! ```
//!
//! `calibrate` runs the `sympack_tune::calibrate` sweep (full budget, or
//! the CI smoke budget with `--quick`), prints the chosen configuration and
//! measured machine constants as a table, and writes the profile JSON
//! (format documented in the `sympack-tune` crate). Load it back into a
//! solver with `KernelProfile::load` → `SolverOptions::kernel_config` /
//! `CostModel`.
//!
//! A missing or corrupt profile, or a profile it cannot write, exits 1; a
//! command line it does not take prints the usage and exits 2.

use std::path::Path;
use std::process::ExitCode;
use sympack_apps::{refuse, take_flag};
use sympack_tune::{calibrate, KernelProfile, TuneBudget};

const USAGE: &str = "usage:
  sympack-tune calibrate [--quick] [--out <profile.json>]
  sympack-tune show <profile.json>";

fn print_profile(p: &KernelProfile) {
    println!("machine:");
    println!("  isa             {}", p.isa);
    println!("  mem bandwidth   {:.2} GB/s", p.mem_bandwidth / 1e9);
    println!("rates (sustained, sequential):");
    for (name, rate) in [
        ("gemm", p.gemm_rate),
        ("syrk", p.syrk_rate),
        ("trsm", p.trsm_rate),
        ("potrf", p.potrf_rate),
    ] {
        println!("  {name:6}          {:.2} GF/s", rate / 1e9);
    }
    println!("config:");
    let default = sympack::KernelConfig::default();
    for ((name, v), (_, d)) in p.config.fields().iter().zip(default.fields()) {
        if *v == d {
            println!("  {name:20} {v}");
        } else {
            println!("  {name:20} {v}   (default {d})");
        }
    }
}

fn run() -> Result<(), String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        refuse(USAGE, "no command");
    }
    let cmd = argv.remove(0);
    match cmd.as_str() {
        "calibrate" => {
            let quick = argv.iter().any(|a| a == "--quick");
            argv.retain(|a| a != "--quick");
            let out = take_flag(&mut argv, "--out", USAGE).unwrap_or("profile.json".into());
            if !argv.is_empty() {
                refuse(USAGE, "unexpected arguments");
            }
            let budget = if quick {
                TuneBudget::quick()
            } else {
                TuneBudget::full()
            };
            let p = calibrate(&budget);
            print_profile(&p);
            p.save(Path::new(&out)).map_err(|e| e.to_string())?;
            println!("\nwrote {out}");
            Ok(())
        }
        "show" => {
            let [path] = argv.as_slice() else {
                refuse(USAGE, "expected one profile path");
            };
            let p = KernelProfile::load(Path::new(path)).map_err(|e| e.to_string())?;
            print_profile(&p);
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
