//! Task-timeline export: run a traced factorization and write a
//! Chrome/Perfetto trace (`results/timeline.json`) plus the assembled
//! flight-recorder profile — critical path, per-rank wait attribution and
//! comm matrix — the observability view of the fan-out scheduler (which
//! tasks overlapped, where ranks idled, who talked to whom). The shared
//! task runtime traces the baselines too, so a right-looking timeline
//! (`results/timeline_baseline.json`) is emitted alongside for a
//! side-by-side of the two schedules.
//!
//! ```text
//! cargo run --release -p sympack-bench --bin timeline -- \
//!     [--quick] [--out PATH] [--profile-json PATH]
//! cargo run --release -p sympack-bench --bin timeline -- --wall [--quick]
//! ```
//!
//! Both traced runs are lockstep, so their virtual times and the documents
//! are bit-stable across runs and machines. `--profile-json PATH` writes
//! the fan-out run's Profile JSON (schema `sympack-profile-v1`) for
//! `sympack-prof` — how the committed `BENCH_profile.json` baseline is made.
//!
//! `--wall` instead prints where the *real* time of the factor loop goes:
//! each rank's wall-clock attribution (`NumericFactor::loop_wall`, read
//! under `telemetry`) beside its virtual busy / overhead / wait split, for
//! the two P = 2 matrices of `perf/` at P ∈ {1, 2} under `perf/`'s options.
//! The timed loops run free; the traced factorization that supplies the
//! virtual columns runs in lockstep.

use std::sync::Arc;
use sympack::plan::{factor_numeric, SolvePlan};
use sympack::sched::{LoopWall, Wall};
use sympack::{SolverOptions, SymPack};
use sympack_baseline::baseline_factor_and_solve;
use sympack_bench::gate::Args;
use sympack_bench::{lockstep, render_table, Problem, Solver};
use sympack_sparse::vecops::test_rhs;
use sympack_sparse::{gen, SparseSym};
use sympack_trace::profile::{CommMatrix, Profile};
use sympack_trace::TraceEvent;

/// Print busy fractions and the per-category kernel-time split of a trace.
fn summarize(trace: &[TraceEvent], makespan: f64, n_ranks: usize) {
    // Busy = task execution only; comm spans overlap exec spans and would
    // double-count.
    let exec: Vec<TraceEvent> = trace
        .iter()
        .filter(|e| e.kind == sympack_trace::SpanKind::Exec)
        .cloned()
        .collect();
    let busy = sympack_trace::busy_fractions(&exec, makespan, n_ranks);
    let mut rows = vec![vec!["rank".to_string(), "busy fraction".to_string()]];
    for (rk, f) in busy.iter().enumerate() {
        rows.push(vec![rk.to_string(), format!("{:.1}%", f * 100.0)]);
    }
    println!("{}", render_table(&rows));
    let mut rows = vec![vec!["kernel".to_string(), "total time".to_string()]];
    for (cat, t) in sympack_trace::time_by_category(trace) {
        if t > 0.0 {
            rows.push(vec![cat.label().to_string(), format!("{:.3} ms", t * 1e3)]);
        }
    }
    println!("{}", render_table(&rows));
}

/// Write `content` at `out`, creating parent directories.
fn write_file(out: &str, content: &str, what: &str) {
    if let Some(dir) = std::path::Path::new(out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(out, content).expect("write output");
    println!("{what} written to {out}");
}

/// Factorizations per (matrix, P) of [`wall_report`]; the one whose loop
/// wall is the median is printed.
const WALL_REPS: usize = 5;

/// `--wall`: one table per (matrix, P) — a row per rank, the wall-clock
/// milliseconds of every [`Wall`] bucket (they sum to `loop`), then the
/// virtual attribution of a second, traced factorization as shares of the
/// virtual makespan.
fn wall_report(quick: bool) {
    let matrices: [(&str, SparseSym); 2] = if quick {
        [
            ("flan_like(7,7,7)", gen::flan_like(7, 7, 7)),
            ("bone_like(6,6,5)", gen::bone_like(6, 6, 5)),
        ]
    } else {
        [
            ("flan_like(22,22,22)", gen::flan_like(22, 22, 22)),
            ("bone_like(16,16,16)", gen::bone_like(16, 16, 16)),
        ]
    };
    for (name, a) in &matrices {
        for p in [1, 2] {
            let opts = SolverOptions {
                n_nodes: 1,
                ranks_per_node: p,
                gpu: false,
                refine_steps: 0,
                telemetry: true,
                ..Default::default()
            };
            let plan = SolvePlan::new(a, &opts);
            let ap = Arc::new(plan.permute(a));
            // One factor alive at a time, as in a refactorization loop: what
            // the allocator recycles decides where first-touch page faults
            // land, so a pile of live factors would be measured instead.
            let mut runs: Vec<Vec<LoopWall>> = (0..WALL_REPS)
                .map(|_| factor_numeric(&plan, &ap).expect("factorization").loop_wall)
                .collect();
            let loop_ms = |w: &Vec<LoopWall>| w.iter().map(|r| r.loop_ms()).fold(0.0, f64::max);
            runs.sort_by(|x, y| loop_ms(x).total_cmp(&loop_ms(y)));
            let walls = &runs[WALL_REPS / 2];
            let traced = SolvePlan::from_symbolic(
                Arc::clone(&plan.symbolic),
                &SolverOptions {
                    trace: true,
                    telemetry: false,
                    deterministic: true,
                    ..opts.clone()
                },
            );
            let tf = factor_numeric(&traced, &ap).expect("traced factorization");
            let prof = Profile::build("fanout", &tf.trace, tf.factor_time, p, CommMatrix::empty(p));
            let mut header = vec!["rank".to_string(), "loop ms".to_string()];
            header.extend(Wall::ALL.iter().map(|w| w.name().to_string()));
            header.extend(
                [
                    "v.busy",
                    "v.overhead",
                    "v.dep-wait",
                    "v.fetch-wait",
                    "v.idle",
                ]
                .map(str::to_string),
            );
            let mut rows = vec![header];
            for (r, w) in walls.iter().enumerate() {
                let mut row = vec![r.to_string(), format!("{:.1}", w.loop_ms())];
                row.extend(Wall::ALL.iter().map(|&b| format!("{:.1}", w.get(b))));
                let v = &prof.ranks[r];
                row.extend(
                    [v.busy, v.overhead, v.dep_wait, v.fetch_wait, v.idle]
                        .map(|s| format!("{:.1}%", 100.0 * s / prof.makespan)),
                );
                rows.push(row);
            }
            println!(
                "{name}, P = {p}: median of {WALL_REPS} factor loops (wall ms per rank; \
                 virtual makespan {:.1} ms)\n{}",
                prof.makespan * 1e3,
                render_table(&rows)
            );
        }
    }
}

fn main() {
    let args = Args::from_env(&["--quick", "--wall"], &["--out", "--profile-json"]);
    let quick = args.has("--quick");
    if args.has("--wall") {
        wall_report(quick);
        return;
    }
    let out = args.value("--out").unwrap_or("results/timeline.json");
    let bout = match out.strip_suffix(".json") {
        Some(stem) => format!("{stem}_baseline.json"),
        None => format!("{out}_baseline"),
    };
    let (_, a) = Problem::Bone.figure_matrix(quick);
    let b = test_rhs(a.n());
    let mut opts = lockstep(4, 2);
    opts.trace = true;
    let n_ranks = opts.n_nodes * opts.ranks_per_node;
    // The right-looking baseline runs through the same traced runtime.
    let runs: [(&str, Solver, &str); 2] = [
        ("fan-out", SymPack::factor_and_solve, out),
        ("right-looking baseline", baseline_factor_and_solve, &bout),
    ];
    for (i, (name, run, path)) in runs.into_iter().enumerate() {
        let r = run(&a, &b, &opts);
        assert!(r.relative_residual < 1e-8, "{name}");
        println!(
            "{}{name}: traced {} tasks over {n_ranks} ranks, factorization makespan {:.3} ms\n",
            if i > 0 { "\n" } else { "" },
            r.trace.len(),
            r.factor_time * 1e3
        );
        summarize(&r.trace, r.factor_time, n_ranks);
        let chrome = sympack_trace::to_chrome_json(&r.trace);
        write_file(
            path,
            &chrome,
            "Chrome trace (open in chrome://tracing or ui.perfetto.dev)",
        );
        let profile = r.profile.expect("trace: true assembles the profile");
        sympack_trace::profile::check_invariants(&profile).expect("profile invariants");
        println!("\n{}", profile.render_report(10));
        if let (0, Some(json)) = (i, args.value("--profile-json")) {
            write_file(json, &profile.to_json(), "Profile JSON (for sympack-prof)");
        }
    }
}
