//! `sympack-top` end to end: `--live` replays a deterministic fleet and
//! writes a snapshot that `--replay --check` accepts, twice byte for byte;
//! an argument it does not take is a usage error before any work.

use std::path::Path;
use std::process::Command;

fn top(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sympack-top"))
        .args(args)
        .output()
        .expect("spawn sympack-top");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn live_snapshots_replay_and_check_byte_for_byte() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let paths = ["top_live_1.json", "top_live_2.json"].map(|f| dir.join(f));
    let paths = paths.each_ref().map(|p| p.to_str().unwrap());
    for path in paths {
        let (code, stdout, stderr) = top(&["--live", "--tenants", "3", "--json", path]);
        assert_eq!(code, Some(0), "{stderr}");
        assert!(stdout.contains("=== round 2 ==="), "{stdout}");
        assert!(stdout.contains("=== final ==="), "{stdout}");
    }
    let (code, stdout, stderr) = top(&["--replay", paths[0], "--check", "--against", paths[1]]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
}

#[test]
fn a_bad_command_line_does_no_work() {
    for (args, exit) in [
        (&["--bogus"][..], 2),
        (&["--live", "--tenants", "many"], 2),
        (&["--live", "--replay", "x.json"], 1),
        (&["--live", "--check"], 1),
        (&["--replay", "x.json", "--tenants", "3"], 1),
        (&[], 1),
    ] {
        let (code, stdout, stderr) = top(args);
        assert_eq!(code, Some(exit), "{args:?}: {stderr}");
        assert!(stderr.contains("usage") || stderr.contains("unknown value"));
        assert_eq!(stdout, "", "{args:?} did some work");
    }
}
