//! Guard against deleted names growing back.
//!
//! The packed-dispatch threshold used to be the pub const
//! `GEMM_PACK_MIN_FLOPS`; it now lives in `KernelConfig::pack_min_flops` and
//! is threaded through every call. The thread-parallel kernel fork (its
//! module, its dispatch threshold in both spellings, the solver option that
//! selected it and the rank-count guard the PGAS runtime held for it) is
//! gone: a rank is the only unit of parallelism. This test scans every Rust
//! source of the repository and fails if one of those identifiers reappears
//! anywhere — no caller can reach a name that does not exist, and this keeps
//! it that way.

use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn legacy_threshold_constants_do_not_exist_anywhere() {
    // crates/dense/tests -> workspace root is two levels up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "perf"] {
        rust_sources(&root.join(dir), &mut files);
    }
    assert!(
        files.len() > 20,
        "scan looks wrong: only {} source files under {}",
        files.len(),
        root.display()
    );
    let me = Path::new(file!())
        .file_name()
        .expect("test file name")
        .to_owned();
    let mut offenders = Vec::new();
    for f in files {
        if f.file_name() == Some(me.as_os_str()) {
            continue; // the identifiers above are the only allowed mentions
        }
        let text = std::fs::read_to_string(&f).expect("readable source");
        for needle in [
            "GEMM_PACK_MIN_FLOPS",
            "PAR_FLOP_THRESHOLD",
            "par_flop_threshold",
            "intra_parallel",
            "rank_scope",
            "mod par;",
        ] {
            if text.contains(needle) {
                offenders.push(format!("{}: {needle}", f.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "deleted names resurfaced:\n{}",
        offenders.join("\n")
    );
}
