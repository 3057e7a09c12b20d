//! Flight-recorder integration tests: every engine on the shared runtime
//! yields a structurally sound profile at P = 4, the diff gate flags
//! regressions past its thresholds, profiles survive the JSON codec, and
//! span recording is free — a deterministic run with tracing on reproduces
//! the trace-off virtual clocks bit-identically.

use sympack::{SolverOptions, SymPack};
use sympack_baseline::{
    baseline_factor_and_solve, fanboth_factor_and_solve, fanin_factor_and_solve, BaselineOptions,
};
use sympack_sparse::gen;
use sympack_sparse::vecops::test_rhs;
use sympack_trace::profile::{check_invariants, diff, DiffThresholds, Profile};
use sympack_trace::{SpanKind, TraceCat};

fn matrix() -> sympack_sparse::SparseSym {
    gen::random_spd(120, 5, 42)
}

fn fanout_opts() -> SolverOptions {
    SolverOptions {
        n_nodes: 2,
        ranks_per_node: 2,
        trace: true,
        deterministic: true,
        ..Default::default()
    }
}

fn baseline_opts() -> BaselineOptions {
    BaselineOptions {
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
    let fanout = SymPack::factor_and_solve(&a, &b, &fanout_opts())
        .profile
        .expect("fanout profile");
    let rl = baseline_factor_and_solve(&a, &b, &baseline_opts())
        .profile
        .expect("rightlooking profile");
    let fi = fanin_factor_and_solve(&a, &b, &baseline_opts())
        .profile
        .expect("fanin profile");
    let fb = fanboth_factor_and_solve(&a, &b, &baseline_opts())
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

#[test]
fn diff_gate_flags_regressions_past_threshold() {
    let a = matrix();
    let b = test_rhs(a.n());
    let base = SymPack::factor_and_solve(&a, &b, &fanout_opts())
        .profile
        .expect("profile");
    // Identical profiles: within thresholds.
    let same = diff(&base, &base, &DiffThresholds::default());
    assert!(!same.regressed, "{}", same.report);
    // A 10% slower makespan regresses at the default 5% threshold…
    let mut slow = base.clone();
    slow.makespan *= 1.10;
    let d = diff(&base, &slow, &DiffThresholds::default());
    assert!(d.regressed, "{}", d.report);
    assert!(d.report.contains("REGRESSED"));
    // …but passes a loosened gate (the CLI's --makespan-pct knob).
    let loose = DiffThresholds {
        makespan_pct: 25.0,
        crit_pct: 25.0,
        ..Default::default()
    };
    assert!(!diff(&base, &slow, &loose).regressed);
    // Critical-path growth alone also trips the gate.
    let mut crit = base.clone();
    crit.crit_len *= 1.10;
    assert!(diff(&base, &crit, &DiffThresholds::default()).regressed);
}

#[test]
fn tracing_does_not_perturb_deterministic_clocks() {
    let a = matrix();
    let b = test_rhs(a.n());
    let run = |trace: bool| {
        let opts = SolverOptions {
            trace,
            ..fanout_opts()
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
        let opts = BaselineOptions {
            trace,
            ..baseline_opts()
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
    // vs low-rank bytes), render the compression summary, survive the JSON
    // codec, and trip the diff gate on published-byte growth; a dense run's
    // document stays byte-identical to the pre-BLR schema (no `blr` key).
    let a = gen::bone_like(6, 6, 5);
    let b = test_rhs(a.n());
    let dense = SymPack::factor_and_solve(&a, &b, &fanout_opts())
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
        ..fanout_opts()
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
    // Doubling the published bytes regresses past the default 10% gate.
    let mut worse = p.clone();
    for x in &mut worse.blr {
        x.lr_bytes *= 2;
    }
    let d = diff(&p, &worse, &DiffThresholds::default());
    assert!(d.regressed, "{}", d.report);
}
