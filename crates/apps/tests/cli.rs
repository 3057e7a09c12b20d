//! `run_sympack2d` end to end: both solver branches run every right-hand
//! side, and a matrix the solver rejects is an exit code, not a panic.
//! `sympack-prof report` on the committed profile: a broken invariant exits
//! 1, a command line it does not take exits 2. `sympack-tune` keeps the same
//! two codes: 1 for a profile it cannot read, 2 for a command line.

use std::path::Path;
use std::process::Command;
use sympack_trace::profile::Profile;

/// Run the binary `exe` on `args`: its exit code, stdout and stderr.
fn exec(exe: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    exec(env!("CARGO_BIN_EXE_run_sympack2d"), args)
}

#[test]
fn every_solver_branch_solves_every_right_hand_side() {
    for branch in [&[][..], &["-baseline"]] {
        let mut args = vec!["-gen", "flan:4", "-nrhs", "2"];
        args.extend_from_slice(branch);
        let (code, stdout, stderr) = run(&args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        let solves: Vec<&str> = stdout.lines().filter(|l| l.starts_with("solve ")).collect();
        assert_eq!(solves.len(), 2, "{args:?}:\n{stdout}");
        for line in solves {
            let residual: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(residual < 1e-10, "{args:?}: {line}");
        }
    }
}

#[test]
fn an_indefinite_matrix_exits_1_without_a_panic() {
    // tridiag(-1, 2, -1) of order 6 with the fourth pivot negated.
    let mut mtx = String::from("%%MatrixMarket matrix coordinate real symmetric\n6 6 11\n");
    for i in 1..=6 {
        let d = if i == 4 { -2.0 } else { 2.0 };
        mtx.push_str(&format!("{i} {i} {d}\n"));
        if i < 6 {
            mtx.push_str(&format!("{} {i} -1.0\n", i + 1));
        }
    }
    let dir = std::env::temp_dir().join(format!("run_sympack2d_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("indefinite.mtx");
    std::fs::write(&path, mtx).unwrap();
    for branch in [&[][..], &["-baseline"]] {
        let mut args = vec!["-in", path.to_str().unwrap()];
        args.extend_from_slice(branch);
        let (code, _, stderr) = run(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("not positive definite"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

fn prof(args: &[&str]) -> (Option<i32>, String, String) {
    exec(env!("CARGO_BIN_EXE_sympack-prof"), args)
}

fn committed_profile() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.join("BENCH_profile.json")
        .to_str()
        .unwrap()
        .to_string()
}

#[test]
fn report_exits_1_on_a_broken_invariant() {
    let committed = committed_profile();
    let (code, stdout, stderr) = prof(&["report", &committed, "--top", "3"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("per-rank time attribution"), "{stdout}");

    // Rank 0's busy tripled: its five time classes no longer sum to the
    // makespan.
    let text = std::fs::read_to_string(&committed).unwrap();
    let mut p = Profile::from_json(&text).unwrap();
    p.ranks[0].busy *= 3.0;
    let broken = Path::new(env!("CARGO_TARGET_TMPDIR")).join("profile_busy_tripled.json");
    std::fs::write(&broken, p.to_json()).unwrap();
    let (code, stdout, stderr) = prof(&["report", broken.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.contains("per-rank time attribution"), "{stdout}");
    assert!(stderr.contains("rank 0 time identity broken"), "{stderr}");
}

#[test]
fn a_command_line_prof_does_not_take_exits_2() {
    let committed = committed_profile();
    for args in [
        &[][..],
        &["bogus"],
        &["report"],
        &["report", &committed, "--top"],
        &["report", &committed, "--top", "many"],
        &["report", &committed, &committed],
        &["chrome", &committed, "-o"],
        &["diff", &committed, &committed],
    ] {
        let (code, stdout, stderr) = prof(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    // A file that is not there is not a usage error.
    let (code, _, stderr) = prof(&["report", "no/such/profile.json"]);
    assert_eq!(code, Some(1), "{stderr}");
}

#[test]
fn tune_exits_2_on_a_command_line_and_1_on_a_profile_it_cannot_read() {
    let tune = |args: &[&str]| exec(env!("CARGO_BIN_EXE_sympack-tune"), args);
    for args in [
        &[][..],
        &["bogus"],
        &["show"],
        &["show", "a.json", "b.json"],
        &["calibrate", "--quick", "--out"],
        &["calibrate", "--quik"],
    ] {
        let (code, stdout, stderr) = tune(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    let corrupt = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tune_corrupt_profile.json");
    std::fs::write(&corrupt, "{\"schema\":").unwrap();
    for path in ["no/such/profile.json", corrupt.to_str().unwrap()] {
        let (code, stdout, stderr) = tune(&["show", path]);
        assert_eq!(code, Some(1), "{path}: {stderr}");
        assert!(stdout.is_empty(), "{path}: {stdout}");
        assert!(!stderr.contains("usage:"), "{path}: {stderr}");
    }
}
