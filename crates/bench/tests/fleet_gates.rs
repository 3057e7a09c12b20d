//! The fleet-traffic and paper-figure suites hold their committed files:
//! `--check` re-derives the cheap rows (the quick fleet mix, the telemetry
//! rows with the seeded fleet mix among them, the quick figure tables),
//! requires each to equal a committed row, and runs the gate — for a
//! figure suite, the scorecard of the paper's claims.

use std::process::Command;

fn check(exe: &str) {
    let out = Command::new(exe).arg("--check").output().expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{exe} --check:\n{stdout}\n{stderr}");
    assert!(stdout.contains("check gate passed"), "{exe}:\n{stdout}");
}

#[test]
fn fleet_bench_check_passes() {
    check(env!("CARGO_BIN_EXE_fleet_bench"));
}

#[test]
fn telemetry_bench_check_passes() {
    check(env!("CARGO_BIN_EXE_telemetry_bench"));
}

#[test]
fn scaling_check_passes() {
    check(env!("CARGO_BIN_EXE_scaling"));
}

#[test]
fn taxonomy_check_passes() {
    check(env!("CARGO_BIN_EXE_taxonomy"));
}

#[test]
fn ablation_check_passes() {
    check(env!("CARGO_BIN_EXE_ablation"));
}
