//! The fleet-traffic suites hold their committed files: `--check` re-derives
//! the quick fleet mix and the telemetry rows (the seeded fleet mix among
//! them), requires each to equal a committed row, and runs the gate.

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
