//! A mistyped flag must not fall through to the full sweep: every binary on
//! the shared argument parser prints its usage, exits 2, runs no case and
//! leaves the committed file alone.

use std::path::Path;
use std::process::Command;

fn run(exe: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(exe).args(args).output().expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flag_exits_2_before_any_work_or_write() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let bins = [
        (env!("CARGO_BIN_EXE_scaling_bench"), "BENCH_scaling.json"),
        (env!("CARGO_BIN_EXE_blr_bench"), "BENCH_blr.json"),
        (env!("CARGO_BIN_EXE_fleet_bench"), "BENCH_fleet.json"),
        (
            env!("CARGO_BIN_EXE_telemetry_bench"),
            "BENCH_telemetry.json",
        ),
        (env!("CARGO_BIN_EXE_kernel_roofline"), "BENCH_kernels.json"),
    ];
    for (exe, file) in bins {
        let mtime = || {
            std::fs::metadata(root.join(file))
                .unwrap()
                .modified()
                .unwrap()
        };
        let before = mtime();
        // `--compare` was `kernel_roofline`'s deleted comparison mode.
        let cases = [
            &["--chek"][..],
            &["--check", "--bogus"],
            &["quick"],
            &["--compare", "mc=64"],
        ];
        for args in cases {
            let (code, stdout, stderr) = run(exe, args);
            assert_eq!(code, Some(2), "{exe} {args:?}: {stderr}");
            assert!(stderr.contains("unknown argument"), "{exe}: {stderr}");
            assert!(stderr.contains("usage:"), "{exe}: {stderr}");
            assert_eq!(stdout, "", "{exe} {args:?} did some work");
        }
        assert_eq!(mtime(), before, "{exe} touched {file}");
    }
}

/// The report binaries take `--quick` only; a mistyped one used to run the
/// minutes-long full sweep.
#[test]
fn report_binaries_reject_a_mistyped_quick() {
    let bins = [
        env!("CARGO_BIN_EXE_analysis_stats"),
        env!("CARGO_BIN_EXE_ordering_quality"),
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_fig6_opcounts"),
        env!("CARGO_BIN_EXE_ablation"),
        env!("CARGO_BIN_EXE_session_amortization"),
    ];
    for exe in bins {
        for args in [&["--quik"][..], &["--quick", "--bogus"], &["quick"]] {
            let (code, stdout, stderr) = run(exe, args);
            assert_eq!(code, Some(2), "{exe} {args:?}: {stderr}");
            assert!(stderr.contains("unknown argument"), "{exe}: {stderr}");
            assert!(stderr.contains("usage: [--quick]"), "{exe}: {stderr}");
            assert_eq!(stdout, "", "{exe} {args:?} did some work");
        }
    }
}

#[test]
fn a_value_flag_without_its_value_is_a_usage_error() {
    let (code, stdout, stderr) = run(env!("CARGO_BIN_EXE_fleet_bench"), &["--metrics-json"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--metrics-json needs a value"), "{stderr}");
    assert_eq!(stdout, "");
}

/// The report binaries that run the baselines take more than `--quick`; a
/// mistyped flag used to run the full sweep, and an unknown matrix panicked.
#[test]
fn baseline_report_binaries_reject_bad_flags_and_values() {
    let taxonomy = env!("CARGO_BIN_EXE_taxonomy");
    let scaling = env!("CARGO_BIN_EXE_scaling");
    let timeline = env!("CARGO_BIN_EXE_timeline");
    for exe in [taxonomy, scaling, timeline] {
        for args in [&["--quik"][..], &["--quick", "--bogus"], &["quick"]] {
            let (code, stdout, stderr) = run(exe, args);
            assert_eq!(code, Some(2), "{exe} {args:?}: {stderr}");
            assert!(stderr.contains("unknown argument"), "{exe}: {stderr}");
            assert!(stderr.contains("usage: [--quick"), "{exe}: {stderr}");
            assert_eq!(stdout, "", "{exe} {args:?} did some work");
        }
    }
    for (exe, args) in [
        (taxonomy, &["--quick", "--matrix", "nope"][..]),
        (scaling, &["--quick", "--matrix", "nope"]),
        (scaling, &["--quick", "--phase", "factor"]),
    ] {
        let (code, stdout, stderr) = run(exe, args);
        assert_eq!(code, Some(2), "{exe} {args:?}: {stderr}");
        assert!(stderr.contains("unknown value"), "{exe}: {stderr}");
        assert!(!stderr.contains("panicked"), "{exe}: {stderr}");
        assert_eq!(stdout, "", "{exe} {args:?} did some work");
    }
}
