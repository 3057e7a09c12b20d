//! Design-choice ablations called out in DESIGN.md, pinned in
//! `results/ablation.json`:
//!
//! 1. **2D block-cyclic vs 1D mapping** (§3.3's stated motivation),
//! 2. **RTQ scheduling policies** (§6 future work: LIFO vs FIFO vs
//!    critical-path), on the fan-out solver *and* on the taxonomy
//!    baselines — the shared task runtime makes the queue policy a
//!    parameter of every engine, not just symPACK's,
//! 3. **GPU offload thresholds** (§4.2/§6: hybrid vs CPU-only vs
//!    GPU-always),
//! 4. **memory kinds** (§5.1: native vs reference transfers inside the
//!    actual solver, not just the microbenchmark).
//!
//! ```text
//! cargo run --release -p sympack-bench --bin ablation -- [--quick | --check]
//! ```
//!
//! A figure suite of [`gate`]: its cheap rows are the five studies on the
//! reduced Flan stand-in, the full run adds them on the paper-scale one.

use sympack::{ProcGrid, RtqPolicy, SolverOptions, SymPack};
use sympack_baseline::baseline_factor_and_solve as right_looking;
use sympack_baseline::fanboth_factor_and_solve as fan_both;
use sympack_bench::gate::{self, sci, Row, Rows, Scorecard, Suite};
use sympack_bench::{fmt_secs, lockstep, solved, Problem, Solver};
use sympack_gpu::{OffloadThresholds, Op, OpCounts};
use sympack_pgas::MemKindsMode;
use sympack_sparse::vecops::test_rhs;
use sympack_trace::json::Obj;

type Edit<'a> = &'a dyn Fn(&mut SolverOptions);

const POLICIES: [(&str, RtqPolicy); 3] = [
    ("LIFO", RtqPolicy::Lifo),
    ("FIFO", RtqPolicy::Fifo),
    ("critical-path", RtqPolicy::CriticalPath),
];

/// The default offload thresholds with every entry mapped by `f`.
fn thresholds(f: impl Fn(usize) -> usize) -> Option<OffloadThresholds> {
    let mut t = OffloadThresholds::default();
    for entry in [&mut t.potrf, &mut t.trsm, &mut t.syrk, &mut t.gemm] {
        *entry = f(*entry);
    }
    Some(t)
}

/// Every study's configurations, in file order, on the Flan stand-in at
/// 8 nodes × 2 ranks. A study's first configuration is the paper's.
fn sweep(quick: bool, out: &mut Rows) -> Result<(), String> {
    let (matrix, a) = Problem::Flan.figure_matrix(quick);
    let b = test_rhs(a.n());
    let gpu = |c: &OpCounts| Op::ALL.map(|op| c.get(op).1).iter().sum::<u64>();
    let mut row = |study: &str, config: &str, run: Solver, edit: Edit| {
        let mut opts = lockstep(8, 2);
        edit(&mut opts);
        let r = solved(run(&a, &b, &opts), &format!("{study} {config}"))?;
        out.push(Row::from(
            Obj::new()
                .str("matrix", &matrix)
                .str("study", study)
                .str("config", config)
                .str("facto", &sci(r.factor_time))
                .str("solve", &sci(r.solve_time))
                .u64("gpu_calls", r.op_counts.iter().map(gpu).sum()),
        ));
        Ok::<_, String>(())
    };
    let fan_out: Solver = SymPack::factor_and_solve;
    let (squarest, column) = (ProcGrid::squarest(16), ProcGrid::one_dimensional(16));
    row("mapping", "2D block-cyclic (paper)", fan_out, &|o| {
        o.grid = Some(squarest)
    })?;
    row("mapping", "1D column-cyclic", fan_out, &|o| {
        o.grid = Some(column)
    })?;
    let rtq: [(&str, &str, Solver); 3] = [
        ("rtq policy", "", fan_out),
        ("rtq policy (baselines)", "right-looking, ", right_looking),
        ("rtq policy (baselines)", "fan-both, ", fan_both),
    ];
    for (study, family, run) in rtq {
        for (name, policy) in POLICIES {
            let config = format!("{family}{name}");
            row(study, &config, run, &|o| o.rtq_policy = policy)?;
        }
    }
    let always = Some(OffloadThresholds::gpu_always());
    let offload: [(&str, Edit); 5] = [
        ("hybrid, tuned thresholds (paper)", &|_| ()),
        ("CPU only", &|o| o.gpu = false),
        ("GPU always (no thresholds)", &|o| {
            o.thresholds = always.clone()
        }),
        ("thresholds x4", &|o| o.thresholds = thresholds(|t| t * 4)),
        ("thresholds /4", &|o| o.thresholds = thresholds(|t| t / 4)),
    ];
    for (config, edit) in offload {
        row("offload policy", config, fan_out, edit)?;
    }
    let (native, reference) = (MemKindsMode::Native, MemKindsMode::Reference);
    row("memory kinds", "native (GPUDirect RDMA)", fan_out, &|o| {
        o.net.mode = native
    })?;
    row("memory kinds", "reference (host-staged)", fan_out, &|o| {
        o.net.mode = reference
    })
}

/// The scorecard of EXPERIMENTS.md's ablation claims over the paper-scale
/// rows.
fn scorecard(rows: &[Row]) -> Result<String, String> {
    let m = Problem::Flan.name();
    // The `n` paper-scale configurations of a study, in file order: each
    // one's text and its (facto, solve).
    let study = |study: &str, n: usize| -> Result<Vec<(String, [f64; 2])>, String> {
        let rows = rows
            .iter()
            .filter(|r| r.text("matrix") == Ok(m) && r.text("study") == Ok(study));
        let config = |r: &Row| {
            let t = [r.f64("facto")?, r.f64("solve")?];
            let text = format!("{} {}", r.text("config")?, t.map(fmt_secs).join(" / "));
            Ok((text, t))
        };
        let configs = rows.map(config).collect::<Result<Vec<_>, String>>()?;
        match configs.len() == n {
            true => Ok(configs),
            false => Err(format!("{study}: {} rows for {m}, not {n}", configs.len())),
        }
    };
    // The paper's configuration against each other one.
    let versus = |configs: Vec<(String, [f64; 2])>| {
        let (paper, t) = &configs[0];
        let vs = configs[1..]
            .iter()
            .map(|(other, o)| (format!("{paper} vs {other}"), [*t, *o]));
        vs.collect::<Vec<_>>()
    };
    let mut card = Scorecard::default();
    let claim = "the 2D map factors faster than the 1D map (§3.3)";
    card.every(claim, &versus(study("mapping", 2)?), |[p, o]| p[0] < o[0]);
    let rtq = study("rtq policy", 3)?;
    let gain = 1.0 - rtq[2].1[0] / rtq[0].1[0];
    let claim = "critical-path gains ~20 % over LIFO, to the nearest 5 % (§6)";
    let evidence = format!("{:.1} %: {}, {}", 100.0 * gain, rtq[0].0, rtq[2].0);
    card.claim(claim, (gain * 20.0).round() >= 4.0, &evidence);
    let claim = "hybrid offload at the tuned thresholds factors fastest (§4.2)";
    let offload = versus(study("offload policy", 5)?);
    card.every(claim, &offload, |[p, o]| p[0] < o[0]);
    let claim = "native memory kinds are no slower than reference in either phase (§5.1)";
    let kinds = versus(study("memory kinds", 2)?);
    card.every(claim, &kinds, |[p, o]| p[0] <= o[0] && p[1] <= o[1]);
    Ok(card.summary())
}

fn main() -> std::process::ExitCode {
    gate::run(&Suite {
        file: "results/ablation.json",
        flags: &[],
        quick: |_, out| sweep(true, out),
        cheap: |_, out| sweep(true, out),
        full: |_, out| sweep(true, out).and_then(|()| sweep(false, out)),
        gate: scorecard,
    })
}
