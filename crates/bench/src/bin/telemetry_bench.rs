//! Telemetry-plane bench: proves the live instruments are free (in virtual
//! time), deterministic (byte-identical snapshots at a fixed seed and rank
//! count) and cheap (wall-clock sampling overhead within budget), and
//! records the evidence in `BENCH_telemetry.json`.
//!
//! ```text
//! cargo run --release -p sympack-bench --bin telemetry_bench             # full sweep → BENCH_telemetry.json
//! cargo run --release -p sympack-bench --bin telemetry_bench -- --quick  # determinism gates only (CI PR job)
//! cargo run --release -p sympack-bench --bin telemetry_bench -- --check  # gate vs committed JSON
//! ```
//!
//! Three row families:
//!
//! * `fanout` — a deterministic-lockstep factor+solve at P ranks, run once
//!   without telemetry and twice with it. Gates: the two telemetry
//!   snapshots are byte-identical, and the factor/solve makespans are
//!   bit-equal to the untelemetered run (instruments never touch a virtual
//!   clock). The row pins the snapshot length and FNV-1a fingerprint.
//! * `fleet` — a seeded tenant mix replayed through the shared fleet
//!   replay (every job's residual checked) and `Fleet::telemetry_json`,
//!   run twice; same byte-identity gate, plus the watchdog/SLO document
//!   structure.
//! * `overhead` — wall-clock cost of the telemetry plane: repeated
//!   factor+solve with and without instruments, best-of-N each. The
//!   committed percentage is validated (≤ the budget) by `--check` without
//!   re-measuring, so the gate never flakes on machine noise.
//!
//! Deterministic rows print floats as full-precision scientific strings;
//! `--check` re-derives them and compares byte-for-byte against the
//! committed file.

use sympack::{SolverOptions, SymPack};
use sympack_bench::gate::{self, sci, Args, Row, Rows, Suite};
use sympack_bench::replay::{replay, Event, Mix, Tenant};
use sympack_fleet::FleetConfig;
use sympack_sparse::gen::laplacian_2d;
use sympack_trace::json::Obj;
use sympack_trace::telemetry::SloPolicy;

/// Wall-clock overhead budget for the telemetry plane, percent.
const OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// FNV-1a over the snapshot bytes: a cheap deterministic fingerprint that
/// makes snapshot drift visible in the committed row without committing
/// the whole document.
fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn solver_opts(p: usize, telemetry: bool) -> SolverOptions {
    SolverOptions {
        n_nodes: 1,
        ranks_per_node: p,
        deterministic: true,
        telemetry,
        ..Default::default()
    }
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i + 1) as f64 * 0.17).sin()).collect()
}

/// One deterministic factor+solve with telemetry, gated against its
/// untelemetered twin and its own replay. Returns the row.
fn fanout_case(p: usize) -> Row {
    let a = laplacian_2d(20, 20);
    let b = vec![rhs(a.n())];

    let base = SymPack::try_factor_and_solve_multi(&a, &b, &solver_opts(p, false))
        .expect("baseline solve");
    let run = |_: usize| {
        let (result, tel) = SymPack::try_factor_and_solve_observed(&a, &b, &solver_opts(p, true));
        let report = result.expect("telemetry solve");
        let tel = tel.expect("telemetry requested");
        (report, tel.to_json())
    };
    let (r1, doc1) = run(0);
    let (r2, doc2) = run(1);

    // Gate 1: snapshots replay byte-for-byte at a fixed seed and P.
    assert_eq!(doc1, doc2, "fanout p={p}: snapshot not deterministic");
    // Gate 2: telemetry never moves a virtual clock — modeled times are
    // bit-equal with instruments on, off, and on again.
    assert_eq!(
        base.factor_time.to_bits(),
        r1.factor_time.to_bits(),
        "fanout p={p}: telemetry changed the factor makespan"
    );
    assert_eq!(
        base.solve_times[0].to_bits(),
        r1.solve_times[0].to_bits(),
        "fanout p={p}: telemetry changed the solve makespan"
    );
    assert_eq!(r1.factor_time.to_bits(), r2.factor_time.to_bits());
    assert!(
        doc1.contains("sympack_sched_tasks_total"),
        "fanout p={p}: scheduler instruments missing"
    );

    Row::from(
        Obj::new()
            .str("case", "fanout")
            .u64("ranks", p as u64)
            .str("factor_time", &sci(r1.factor_time))
            .str("solve_time", &sci(r1.solve_times[0]))
            .bool("clock_invariant", true)
            .u64("snapshot_bytes", doc1.len() as u64)
            .str("snapshot_fnv", &format!("{:016x}", fnv64(&doc1))),
    )
}

/// One seeded fleet mix, replayed; returns its telemetry document.
fn fleet_mix() -> Result<String, String> {
    let a = laplacian_2d(8, 8);
    let small = laplacian_2d(6, 6);
    let mats = [&a, &small, &a, &small];
    let tenants = (0..mats.len())
        .map(|i| Tenant {
            name: format!("t{i}"),
            matrix: mats[i],
            weight: 1.0 + (i % 2) as f64,
            // A tight-but-feasible objective on even tenants, an impossible
            // one on tenant 3 so the SLO/health machinery shows up in the
            // document.
            slo: Some(SloPolicy::new(if i == 3 { 1e-9 } else { 1.0 }, 0.99)),
        })
        .collect();
    let mut events = Vec::new();
    for round in 0..3 {
        for (t, m) in mats.iter().enumerate() {
            for k in 0..(t % 2) + 1 {
                let at = round as f64 * 0.05 + k as f64 * 0.001 + t as f64 * 0.0001;
                events.push(Event::Submit {
                    tenant: t,
                    at,
                    rhs: rhs(m.n()),
                });
            }
        }
        events.push(Event::Step);
    }
    events.push(Event::Drain);
    let config = FleetConfig {
        shards: 2,
        factor_budget_bytes: 0,
        max_pending_per_tenant: 16,
        max_batch: 4,
        quantum: 2.0,
    };
    let mix = Mix { tenants, events };
    Ok(replay(&solver_opts(2, false), config, mix, |_, _| {})?.telemetry_json())
}

/// The fleet determinism gate and its row.
fn fleet_case() -> Result<Row, String> {
    let doc1 = fleet_mix()?;
    let doc2 = fleet_mix()?;
    assert_eq!(doc1, doc2, "fleet: telemetry document not deterministic");
    assert!(
        doc1.contains("\"kind\":\"fleet\""),
        "fleet: wrong document kind"
    );
    assert!(
        doc1.contains("\"slo_burn\""),
        "fleet: impossible objective must raise an SloBurn health event"
    );
    let health_events = doc1.matches("\"kind\":\"slo_burn\"").count();
    Ok(Row::from(
        Obj::new()
            .str("case", "fleet")
            .u64("tenants", 4)
            .u64("slo_burn_events", health_events as u64)
            .u64("snapshot_bytes", doc1.len() as u64)
            .str("snapshot_fnv", &format!("{:016x}", fnv64(&doc1))),
    ))
}

/// Wall-clock overhead of the telemetry plane (full mode only; the value
/// is machine-dependent, so `--check` validates the committed number
/// against the budget instead of re-measuring).
fn overhead_case() -> Row {
    let a = laplacian_2d(48, 48);
    let b = vec![rhs(a.n())];
    let runs = 9;
    let wall = |telemetry: bool| -> f64 {
        let opts = solver_opts(2, telemetry);
        (0..runs)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let r = SymPack::try_factor_and_solve_multi(&a, &b, &opts).expect("solve");
                assert!(r.relative_residuals[0] < 1e-10);
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    // Interleave a warmup of each flavor before timing; best-of-N on a
    // problem large enough (~50ms) that scheduler jitter stays well under
    // the budget being measured.
    wall(false);
    wall(true);
    let base = wall(false);
    let tel = wall(true);
    let overhead_pct = ((tel / base - 1.0) * 100.0).max(0.0);
    println!("overhead: baseline {base:.4}s, telemetry {tel:.4}s ({overhead_pct:.2}%)");
    Row::from(
        Obj::new()
            .str("case", "overhead")
            .u64("runs", runs)
            .str("overhead_pct", &format!("{overhead_pct:.2}"))
            .str("budget_pct", &format!("{OVERHEAD_BUDGET_PCT:.2}")),
    )
}

/// Every determinism and clock-invariance gate, no wall-clock measurement
/// (debug builds and shared runners are too noisy): the CI PR smoke, and
/// the rows `--check` re-derives.
fn deterministic(_: &Args, out: &mut Rows) -> Result<(), String> {
    for p in [1, 2, 4] {
        out.push(fanout_case(p));
    }
    out.push(fleet_case()?);
    Ok(())
}

/// The recorded overhead figure must be inside the budget. `--check`
/// reads the committed one: it was measured by the full sweep, and
/// re-measuring there would flake.
fn gate(rows: &[Row]) -> Result<String, String> {
    let pct = gate::find(rows, &[("case", "overhead")])?.f64("overhead_pct")?;
    if pct > OVERHEAD_BUDGET_PCT {
        return Err(format!(
            "telemetry overhead {pct}% over the {OVERHEAD_BUDGET_PCT}% budget"
        ));
    }
    Ok(format!("committed overhead {pct}%"))
}

fn main() -> std::process::ExitCode {
    gate::run(&Suite {
        file: "BENCH_telemetry.json",
        flags: &[],
        quick: deterministic,
        cheap: deterministic,
        full: |args, out| {
            deterministic(args, out)?;
            out.push(overhead_case());
            Ok(())
        },
        gate,
    })
}
