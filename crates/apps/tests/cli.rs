//! `run_sympack2d` end to end: both solver branches run every right-hand
//! side, and a matrix the solver rejects is an exit code, not a panic.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_run_sympack2d"))
        .args(args)
        .output()
        .expect("spawn run_sympack2d");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
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
