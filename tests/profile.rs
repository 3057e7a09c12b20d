//! Flight-recorder integration tests: every engine on the shared runtime
//! yields a structurally sound profile at P = 4, profiles survive the JSON
//! codec, span recording is free — a deterministic run with tracing on
//! reproduces the trace-off virtual clocks bit-identically — and the
//! timeline's deterministic run reproduces the committed
//! `BENCH_profile.json` byte for byte.

use sympack::{SolverOptions, SymPack};
use sympack_baseline::{
    baseline_factor_and_solve, fanboth_factor_and_solve, fanin_factor_and_solve,
};
use sympack_sparse::gen;
use sympack_sparse::vecops::test_rhs;
use sympack_trace::profile::{check_invariants, Profile};
use sympack_trace::{SpanKind, TraceCat};

fn matrix() -> sympack_sparse::SparseSym {
    gen::random_spd(120, 5, 42)
}

/// Every engine's options: P = 4, traced, in lockstep.
fn traced_opts() -> SolverOptions {
    SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        trace: true,
        deterministic: true,
        ..Default::default()
    }
}

/// Run every engine traced at P = 4 and hand back its profile.
fn all_profiles() -> Vec<Profile> {
    let a = matrix();
    let b = test_rhs(a.n());
    let fanout = SymPack::factor_and_solve(&a, &b, &traced_opts())
        .profile
        .expect("fanout profile");
    let rl = baseline_factor_and_solve(&a, &b, &traced_opts())
        .profile
        .expect("rightlooking profile");
    let fi = fanin_factor_and_solve(&a, &b, &traced_opts())
        .profile
        .expect("fanin profile");
    let fb = fanboth_factor_and_solve(&a, &b, &traced_opts())
        .profile
        .expect("fanboth profile");
    vec![fanout, rl, fi, fb]
}

#[test]
fn every_engine_profile_upholds_invariants_at_p4() {
    for p in all_profiles() {
        check_invariants(&p).unwrap_or_else(|e| panic!("{}: {e}", p.engine));
        assert_eq!(p.n_ranks, 4, "{}", p.engine);
        assert!(p.makespan > 0.0, "{}", p.engine);
        assert!(!p.crit.is_empty(), "{}", p.engine);
        assert!(p.crit_len > 0.0 && p.crit_len <= p.makespan, "{}", p.engine);
        // Rich span fields flow through: exec spans with kernel/ready data,
        // comm spans with peers and bytes, and a populated comm matrix.
        assert!(
            p.spans.iter().any(|e| e.kind == SpanKind::Exec),
            "{}: no exec spans",
            p.engine
        );
        assert!(
            p.spans
                .iter()
                .any(|e| e.kind != SpanKind::Exec && e.peer.is_some()),
            "{}: no comm spans",
            p.engine
        );
        assert!(p.comm.n == 4, "{}", p.engine);
        assert!(p.comm.total_msgs() > 0, "{}: empty comm matrix", p.engine);
        // The report renders every advertised section.
        let report = p.render_report(5);
        for section in [
            "critical path",
            "per-rank time attribution",
            "imbalance",
            "comm matrix",
        ] {
            assert!(report.contains(section), "{}: missing {section}", p.engine);
        }
        // At least one dependency edge on the critical path; all engines
        // record pred labels through dec_from_id.
        assert!(
            p.crit
                .iter()
                .any(|t| t.edge == sympack_trace::profile::CritEdge::Dep),
            "{}: no dep edges on the critical path",
            p.engine
        );
    }
}

#[test]
fn fanout_profile_covers_the_solve_engine_too() {
    // The triangular-solve engine runs inside the fan-out driver; its spans
    // (fifth engine on the shared runtime) must appear in the same profile.
    let profiles = all_profiles();
    let fanout = &profiles[0];
    assert_eq!(fanout.engine, "fanout");
    assert!(
        fanout
            .spans
            .iter()
            .any(|e| e.kind == SpanKind::Exec && e.cat == TraceCat::Solve),
        "no solve-engine exec spans in the fan-out profile"
    );
    assert!(
        fanout
            .spans
            .iter()
            .any(|e| e.kind == SpanKind::Exec && e.cat == TraceCat::Potrf),
        "no factorization exec spans in the fan-out profile"
    );
    // Engines are distinct per profile.
    let names: Vec<&str> = profiles.iter().map(|p| p.engine.as_str()).collect();
    assert_eq!(names, ["fanout", "rightlooking", "fanin", "fanboth"]);
}

#[test]
fn engine_profiles_roundtrip_through_json() {
    for p in all_profiles() {
        let doc = p.to_json();
        let p2 = Profile::from_json(&doc).unwrap_or_else(|e| panic!("{}: {e}", p.engine));
        assert_eq!(doc, p2.to_json(), "{}: unstable roundtrip", p.engine);
        check_invariants(&p2).unwrap_or_else(|e| panic!("{} reparsed: {e}", p.engine));
    }
}

/// The command that rewrites `BENCH_profile.json`, run from the repository
/// root; `committed_profile_is_reproduced_byte_for_byte` repeats its
/// settings.
const REGENERATE: &str = "cargo run --release -p sympack-bench --bin timeline -- \
                          --quick --profile-json BENCH_profile.json";

/// The timeline's `--quick` run — `bone_like(6,6,5)` at 4
/// nodes × 2 ranks, traced, in lockstep, default options, `test_rhs` — must
/// write exactly the committed `BENCH_profile.json`. The document holds
/// every span's virtual start, duration and producer, so any change to the
/// fan-out schedule, the cost model or the profile writer shows here. A
/// change that was meant rewrites the file with `REGENERATE` and is read in
/// its `git diff`; there is no bless switch.
#[test]
fn committed_profile_is_reproduced_byte_for_byte() {
    let a = gen::bone_like(6, 6, 5);
    let b = test_rhs(a.n());
    let opts = SolverOptions {
        n_nodes: 4,
        ranks_per_node: 2,
        trace: true,
        deterministic: true,
        ..Default::default()
    };
    let fresh = SymPack::factor_and_solve(&a, &b, &opts)
        .profile
        .expect("trace: true assembles the profile")
        .to_json();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = std::fs::read_to_string(root.join("BENCH_profile.json"))
        .expect("BENCH_profile.json is committed");
    if fresh == committed {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_profile.json");
    std::fs::write(&out, &fresh).expect("write the fresh profile");
    // Split on every '\n' (not `lines`), so two different texts always
    // differ at some line, a missing final newline included.
    let fresh_lines: Vec<&str> = fresh.split('\n').collect();
    let committed_lines: Vec<&str> = committed.split('\n').collect();
    let at = (0..)
        .find(|&i| fresh_lines.get(i) != committed_lines.get(i))
        .expect("different texts differ at some line");
    let (new, old) = (fresh_lines.get(at), committed_lines.get(at));
    panic!(
        "BENCH_profile.json differs from a fresh run at line {}:\n\
         committed: {}\n\
         fresh:     {}\n\
         The fresh document is {}. If the change was meant, regenerate \
         the file from the repository root with\n  {REGENERATE}\n\
         and read its git diff.",
        at + 1,
        old.unwrap_or(&"<end of file>"),
        new.unwrap_or(&"<end of file>"),
        out.display(),
    );
}

#[test]
fn tracing_does_not_perturb_deterministic_clocks() {
    let a = matrix();
    let b = test_rhs(a.n());
    let run = |trace: bool| {
        let opts = SolverOptions {
            trace,
            ..traced_opts()
        };
        SymPack::factor_and_solve(&a, &b, &opts)
    };
    let traced = run(true);
    let plain = run(false);
    assert_eq!(
        traced.factor_time.to_bits(),
        plain.factor_time.to_bits(),
        "recording spans changed the factorization makespan"
    );
    assert_eq!(
        traced.solve_time.to_bits(),
        plain.solve_time.to_bits(),
        "recording spans changed the solve makespan"
    );
    assert!(plain.trace.is_empty() && plain.profile.is_none());
    assert!(!traced.trace.is_empty() && traced.profile.is_some());

    // Baselines inherit the same guarantee through the shared runtime.
    let brun = |trace: bool| {
        let opts = SolverOptions {
            trace,
            ..traced_opts()
        };
        baseline_factor_and_solve(&a, &b, &opts)
    };
    let btraced = brun(true);
    let bplain = brun(false);
    assert_eq!(btraced.factor_time.to_bits(), bplain.factor_time.to_bits());
    assert_eq!(btraced.solve_time.to_bits(), bplain.solve_time.to_bits());
}

#[test]
fn blr_runs_carry_publication_accounting_in_the_profile() {
    // A traced BLR run must attach the per-rank publication section (dense
    // vs low-rank bytes), render the compression summary and survive the
    // JSON codec; a dense run's document stays byte-identical to the
    // pre-BLR schema (no `blr` key).
    let a = gen::bone_like(6, 6, 5);
    let b = test_rhs(a.n());
    let dense = SymPack::factor_and_solve(&a, &b, &traced_opts())
        .profile
        .expect("dense profile");
    assert!(dense.blr.is_empty());
    assert!(!dense.to_json().contains("\"blr\""));
    let opts = SolverOptions {
        blr: sympack::BlrConfig {
            tol: 1e-6,
            min_block: 8,
            max_rank: usize::MAX,
        },
        refine_steps: 2,
        ..traced_opts()
    };
    let r = SymPack::factor_and_solve(&a, &b, &opts);
    let p = r.profile.expect("blr profile");
    assert_eq!(p.blr.len(), 4, "one entry per rank");
    let lr_blocks: u64 = p.blr.iter().map(|x| x.lr_blocks).sum();
    assert!(lr_blocks > 0, "BLR run published no compressed blocks");
    let published: u64 = p.blr.iter().map(|x| x.published()).sum();
    let dense_equiv: u64 = p.blr.iter().map(|x| x.dense_equiv()).sum();
    assert!(
        published < dense_equiv,
        "compression must shrink publications"
    );
    // Profile section must agree with the report's own accounting.
    let report_published: u64 = r.publish.iter().map(|s| s.published_bytes()).sum();
    assert_eq!(published, report_published);
    let q = Profile::from_json(&p.to_json()).expect("codec");
    assert_eq!(q.blr, p.blr);
    assert!(p.render_report(5).contains("block publications"));
}
