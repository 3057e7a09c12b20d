//! Guard against the engine skeleton re-growing per-engine copies.
//!
//! `sympack::sched` owns the step, the signal drain, the publication layer
//! (shared-heap hosting, signal delivery, relays) and the stall-aware
//! loop; `sympack::update` owns the update product + scatter. The engine
//! files — the fan-out, the solve and the three baselines — must not define
//! or reach around any of them. This test scans their sources, scans every
//! shipping source for the places a thread is started, and scans the
//! runtime and the scheduler for messages that are code.

use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            out.extend(rust_sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).expect("readable source")
}

/// The name of the last function opened in `head`: the one a match at the
/// end of `head` sits in.
fn enclosing_fn(head: &str) -> &str {
    head.rfind("fn ").map_or("?", |f| {
        let rest = &head[f + 3..];
        let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'));
        &rest[..end.unwrap_or(rest.len())]
    })
}

#[test]
fn engines_contain_no_copy_of_the_shared_skeleton() {
    // crates/core -> workspace root is two levels up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let core = root.join("crates/core/src");
    let mut engines = vec![core.join("engine.rs"), core.join("trisolve.rs")];
    engines.extend(rust_sources(&root.join("crates/baseline/src")));
    assert!(engines.len() >= 6, "scan looks wrong: {engines:?}");

    let forbidden = [
        "fn drain_pending",
        "fn step(",
        "Msg::Signal",
        "Msg::Frame",
        "post_unique(",
        "alloc_from(MemKind::Host",
        "poll_until_or_stall",
        "fn run_phase",
        "BcastPlan",
        "plan_tree",
        "relay",
        "Relay",
        "gemm_any(",
        "syrk_any(",
        "fn publish_stats",
    ];
    let mut offenders = Vec::new();
    for file in &engines {
        let text = read(file);
        for needle in forbidden {
            if text.contains(needle) {
                offenders.push(format!("{}: {needle}", file.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "engine files re-grew code that belongs to sympack::sched / sympack::update:\n{}",
        offenders.join("\n")
    );

    // Defined exactly once, in the shared modules.
    let shared: Vec<PathBuf> = rust_sources(&core)
        .into_iter()
        .chain(rust_sources(&root.join("crates/baseline/src")))
        .collect();
    let definitions = |needle: &str| -> Vec<String> {
        let hits = shared.iter().filter(|f| read(f).contains(needle));
        hits.map(|f| f.display().to_string()).collect()
    };
    for (needle, home) in [
        ("fn step<", "sched/mod.rs"),
        ("fn deliver<", "sched/comm.rs"),
        ("alloc_from(MemKind::Host", "sched/comm.rs"),
        ("fn poll_until_or_stall<", "sched/mod.rs"),
        ("gemm_any(", "update.rs"),
    ] {
        let found = definitions(needle);
        assert!(
            found.len() == 1 && found[0].ends_with(home),
            "`{needle}` must appear in {home} only, found in {found:?}"
        );
    }
}

/// One parallelism (DESIGN.md §9): a rank is a thread of
/// `pgas::Runtime::spmd`, and the only other threads in shipping code are the
/// analysis prologue's two forks — nested dissection's right half and the
/// pattern hash beside the symbolic analysis. Test modules may start threads.
#[test]
fn threads_start_only_in_the_runtime_and_the_analysis_forks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = rust_sources(&root.join("examples"));
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        files.extend(rust_sources(&krate.expect("dir entry").path().join("src")));
    }
    assert!(files.len() > 50, "scan looks wrong: {} files", files.len());
    let mut starts = Vec::new();
    for file in &files {
        let text = read(file);
        let shipping = text
            .split("#[cfg(test)]\nmod ")
            .next()
            .expect("non-test part");
        for needle in [
            "thread::scope",
            "thread::spawn",
            "thread::Builder",
            "use std::thread",
        ] {
            for (at, _) in shipping.match_indices(needle) {
                // The function the thread is started from.
                let name = enclosing_fn(&shipping[..at]);
                let path = file.strip_prefix(&root).expect("walked from the root");
                starts.push(format!("{} {name}", path.display()));
            }
        }
    }
    starts.sort();
    assert_eq!(
        starts,
        [
            "crates/core/src/plan.rs analyze",
            "crates/ordering/src/nd.rs dissect",
            "crates/pgas/src/runtime.rs spmd",
        ],
        "a thread is started outside the runtime and the two analysis forks"
    );
}

/// Messages are values (DESIGN.md §5.3): the runtime and the scheduler ship
/// no code and keep no type-erased state. The one exception is
/// `crates/pgas/src/thunk.rs`, the closure-message region the wall-clock
/// benchmark's `rget_flood` probe (`perf/src/probes.rs`) is written
/// against; nothing in the workspace but its own tests speaks it.
#[test]
fn messages_are_values_not_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let thunk = Path::new("crates/pgas/src/thunk.rs");
    let mut offenders = Vec::new();
    let mut scoped = rust_sources(&root.join("crates/pgas/src"));
    scoped.extend(rust_sources(&root.join("crates/core/src/sched")));
    assert!(scoped.len() >= 15, "scan looks wrong: {scoped:?}");
    for file in scoped.iter().filter(|f| !f.ends_with(thunk)) {
        let text = read(file);
        let code = text.split("#[cfg(test)]").next().expect("non-test part");
        for needle in ["Box<dyn", "dyn Any"] {
            if code.contains(needle) {
                offenders.push(format!("{}: {needle}", file.display()));
            }
        }
    }
    let mut files = rust_sources(&root.join("crates"));
    files.extend(rust_sources(&root.join("tests")));
    files.extend(rust_sources(&root.join("examples")));
    let this = Path::new("crates/core/tests/one_engine_skeleton.rs");
    for file in files
        .iter()
        .filter(|f| !f.ends_with(thunk) && !f.ends_with(this))
    {
        let text = read(file);
        for needle in [
            "Thunk",
            "Runtime::run(",
            ".rpc(",
            "rpc_signal(",
            "rpc_payload(",
            "rpc_frame(",
            "set_state(",
            "with_state(",
            "with_state::<",
            "take_state",
        ] {
            if text.contains(needle) {
                offenders.push(format!("{}: {needle}", file.display()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "a message is code again, or rank state is type-erased:\n{}",
        offenders.join("\n")
    );
}

/// The solve runs over the plan's compiled `SolveTasks` and nothing else:
/// no hash map, no key-addressed decrement, no layout search.
#[test]
fn the_solve_engine_is_id_addressed_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/trisolve.rs");
    let text = read(&root);
    let engine = text.split("#[cfg(test)]").next().expect("non-test part");
    for needle in ["HashMap", ".dec_from(", "layout.find"] {
        assert!(!engine.contains(needle), "trisolve.rs re-grew `{needle}`");
    }
}

/// Every engine is built over a compiled `sched::Graph` and addresses its
/// tasks by id: no key registration, no key index, no key-addressed
/// decrement, no per-run seed scan — in the runtime or in any engine. The
/// baselines count distinct ranks in arrays, not in hash sets.
#[test]
fn every_engine_is_id_addressed_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let core = root.join("crates/core/src");
    let baselines = rust_sources(&root.join("crates/baseline/src"));
    let mut files = vec![
        core.join("engine.rs"),
        core.join("sched/engine.rs"),
        core.join("trisolve.rs"),
    ];
    files.extend(baselines.iter().cloned());
    assert!(files.len() >= 8, "scan looks wrong: {files:?}");
    for file in &files {
        let text = read(file);
        let code = text.split("#[cfg(test)]").next().expect("non-test part");
        let mut needles = vec!["insert_task", "seed_ready", "id_of(", ".dec(", "seed_from"];
        if baselines.contains(file) {
            needles.push("HashSet");
        }
        for needle in needles {
            let name = file.strip_prefix(&root).unwrap_or(file).display();
            assert!(!code.contains(needle), "{name} re-grew `{needle}`");
        }
    }
}

/// One construction path (`plan::EngineFamily::build`): an engine is put
/// together from a store, a scheduling core, its plan's compiled graph and
/// the kernels, and builds none of them. In the fan-out's engine and the
/// baselines, a graph, a `TaskEngine` or a store is built inside a family's
/// `FactorGraph::compile` or not at all.
#[test]
fn engines_build_nothing_outside_their_graph_compile() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = vec![root.join("crates/core/src/engine.rs")];
    files.extend(rust_sources(&root.join("crates/baseline/src")));
    assert!(files.len() >= 5, "scan looks wrong: {files:?}");
    let mut offenders = Vec::new();
    for file in &files {
        let text = read(file);
        let code = text.split("#[cfg(test)]").next().expect("non-test part");
        for needle in ["TaskEngine::new(", "BlockStore::init(", "Graph::new("] {
            for (at, _) in code.match_indices(needle) {
                let name = enclosing_fn(&code[..at]);
                if name != "compile" {
                    let path = file.strip_prefix(&root).unwrap_or(file).display();
                    offenders.push(format!("{path}: `{needle}` in fn {name}"));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "an engine builds what plan::EngineFamily::build or its graph's compile builds:\n{}",
        offenders.join("\n")
    );
}
