//! `sympack-top` — a `top(1)`-style view of a solver run or tenant fleet.
//!
//! Reads the deterministic telemetry snapshot documents the stack emits
//! (`Fleet::telemetry_json`, `SymPack::try_factor_and_solve_observed` →
//! `TelemetryReport::to_json`, or the `--telemetry-json` flag of
//! `fleet_bench`) and renders ranks, tenants, queues and health as tables:
//!
//! ```text
//! sympack-top --replay <snapshot.json> [--check] [--against <other.json>]
//! sympack-top --live [--tenants N] [--rounds N] [--json <out.json>]
//! ```
//!
//! `--replay` renders a saved snapshot. With `--check` it validates the
//! document instead (schema header, known kind, nondecreasing series
//! timestamps, writer round-trip) and exits nonzero on any violation —
//! with `--against` it additionally requires the two files to be
//! byte-identical, CI's snapshot-determinism gate. `--live` replays a small
//! seeded in-process fleet (through `sympack_bench::replay`, which checks
//! every job's residual) and renders its telemetry (optionally dumping
//! the snapshot JSON for a later `--replay`).

use std::process::ExitCode;
use sympack::SolverOptions;
use sympack_bench::gate::Args;
use sympack_bench::replay::{replay, Event, Mix, Tenant};
use sympack_fleet::FleetConfig;
use sympack_trace::json::{self, JsonValue};
use sympack_trace::telemetry::{SloPolicy, SNAPSHOT_SCHEMA};

const USAGE: &str = "usage:
  sympack-top --replay <snapshot.json> [--check] [--against <other.json>]
  sympack-top --live [--tenants N] [--rounds N] [--json <out.json>]";

fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

/// Validate one snapshot document; returns the list of violations.
fn check_doc(doc: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let v = match json::parse(doc) {
        Ok(v) => v,
        Err(e) => return vec![format!("malformed JSON: {e:?}")],
    };
    match v.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == SNAPSHOT_SCHEMA => {}
        Some(s) => errs.push(format!(
            "unknown schema {s:?} (expected {SNAPSHOT_SCHEMA:?})"
        )),
        None => errs.push("missing schema header".into()),
    }
    match v.get("kind").and_then(JsonValue::as_str) {
        Some("fleet") | Some("solver") => {}
        Some(k) => errs.push(format!("unknown document kind {k:?}")),
        None => errs.push("missing document kind".into()),
    }
    if let Some(series) = v
        .get("telemetry")
        .and_then(|t| t.get("series"))
        .and_then(JsonValue::as_array)
    {
        for entry in series {
            let name = text(entry, "name").to_string();
            let Some(pts) = entry.get("points").and_then(JsonValue::as_array) else {
                errs.push(format!("series {name:?} has no points array"));
                continue;
            };
            let mut last = f64::NEG_INFINITY;
            for p in pts {
                let Some(pair) = p.as_array().filter(|a| a.len() == 2) else {
                    errs.push(format!("series {name:?} has a malformed point"));
                    break;
                };
                let t = pair[0].as_f64().unwrap_or(f64::NAN);
                if t.is_nan() || t < last {
                    errs.push(format!(
                        "series {name:?} timestamps go backwards ({last} -> {t})"
                    ));
                    break;
                }
                last = t;
            }
        }
    }
    // Writer round-trip: re-rendering the parsed tree and parsing again
    // must reproduce the same tree (catches nondeterministic emitters).
    if errs.is_empty() {
        match json::parse(&json::write(&v)) {
            Ok(v2) if v2 == v => {}
            Ok(_) => errs.push("writer round-trip changed the document".into()),
            Err(e) => errs.push(format!("re-rendered document failed to parse: {e:?}")),
        }
    }
    errs
}

/// Render the per-tenant table of a `kind: fleet` document.
fn render_fleet(v: &JsonValue) -> String {
    let mut out = String::new();
    let cache = v.get("cache");
    out.push_str(&format!(
        "fleet  makespan {:.6}s  resident {} B (budget {} B, high-water {})  evictions {}  remat {}\n",
        num(v, "makespan"),
        cache.map_or(0.0, |c| num(c, "resident_bytes")),
        cache.map_or(0.0, |c| num(c, "factor_budget_bytes")),
        cache.map_or(0.0, |c| num(c, "resident_high_water_bytes")),
        cache.map_or(0.0, |c| num(c, "factor_evictions")),
        cache.map_or(0.0, |c| num(c, "rematerializations")),
    ));
    out.push_str(&format!(
        "{:<12} {:>5} {:>4} {:>5} {:>7} {:>6} {:>11} {:>11} {:>7} {:>6}\n",
        "TENANT", "SHARD", "RES", "PEND", "SERVED", "EVICT", "P50(s)", "P99(s)", "SLO%", "BURN"
    ));
    if let Some(tenants) = v.get("tenants").and_then(JsonValue::as_array) {
        for t in tenants {
            let lat = t.get("latency");
            let slo = t.get("slo");
            out.push_str(&format!(
                "{:<12} {:>5} {:>4} {:>5} {:>7} {:>6} {:>11.3e} {:>11.3e} {:>7.2} {:>6.2}\n",
                text(t, "tenant"),
                num(t, "shard"),
                if t.get("resident").map(|r| r == &JsonValue::Bool(true)) == Some(true) {
                    "yes"
                } else {
                    "no"
                },
                num(t, "pending"),
                num(t, "jobs_served"),
                num(t, "evictions"),
                lat.map_or(0.0, |l| num(l, "p50")),
                lat.map_or(0.0, |l| num(l, "p99")),
                slo.map_or(100.0, |s| num(s, "compliance") * 100.0),
                slo.map_or(0.0, |s| num(s, "burn_rate")),
            ));
        }
    }
    out
}

/// Render the per-rank table of a `kind: solver` document from its
/// rank-labeled counters and gauges.
fn render_solver(v: &JsonValue) -> String {
    let mut out = String::new();
    let tel = v.get("telemetry");
    // rank label -> (tasks, sent msgs, sent bytes, rtq, inflight msgs)
    let mut ranks: Vec<(String, [f64; 5])> = Vec::new();
    fn slot(ranks: &mut Vec<(String, [f64; 5])>, label: String) -> usize {
        match ranks.iter().position(|(r, _)| *r == label) {
            Some(i) => i,
            None => {
                ranks.push((label, [0.0; 5]));
                ranks.len() - 1
            }
        }
    }
    let column = |name: &str| -> Option<usize> {
        match name {
            "sympack_sched_tasks_total" => Some(0),
            "sympack_pgas_msgs_sent_total" => Some(1),
            "sympack_pgas_bytes_sent_total" => Some(2),
            "sympack_sched_rtq_depth" => Some(3),
            "sympack_pgas_inflight_msgs" => Some(4),
            _ => None,
        }
    };
    for section in ["counters", "gauges"] {
        let Some(entries) = tel
            .and_then(|t| t.get(section))
            .and_then(JsonValue::as_array)
        else {
            continue;
        };
        for e in entries {
            let Some(col) = column(text(e, "name")) else {
                continue;
            };
            let rank = e
                .get("labels")
                .and_then(|l| l.get("rank"))
                .and_then(JsonValue::as_str)
                .unwrap_or("?")
                .to_string();
            let i = slot(&mut ranks, rank);
            ranks[i].1[col] = num(e, "value");
        }
    }
    ranks.sort_by_key(|(r, _)| r.parse::<u64>().unwrap_or(u64::MAX));
    out.push_str(&format!(
        "{:<6} {:>9} {:>10} {:>12} {:>6} {:>9}\n",
        "RANK", "TASKS", "SENT-MSGS", "SENT-BYTES", "RTQ", "INFLIGHT"
    ));
    for (rank, c) in &ranks {
        out.push_str(&format!(
            "{:<6} {:>9} {:>10} {:>12} {:>6} {:>9}\n",
            rank, c[0], c[1], c[2], c[3], c[4]
        ));
    }
    out
}

/// Render the health-event table shared by both document kinds.
fn render_health(v: &JsonValue) -> String {
    let mut out = String::new();
    let events = v.get("health").and_then(JsonValue::as_array);
    match events {
        Some(evs) if !evs.is_empty() => {
            out.push_str(&format!(
                "{:<12} {:<10} {:<14} {:<14} {}\n",
                "T(s)", "SEVERITY", "KIND", "SUBJECT", "DETAIL"
            ));
            for e in evs {
                out.push_str(&format!(
                    "{:<12.6} {:<10} {:<14} {:<14} {}\n",
                    num(e, "at"),
                    text(e, "severity"),
                    text(e, "kind"),
                    text(e, "subject"),
                    text(e, "detail"),
                ));
            }
        }
        _ => out.push_str("health: ok (no events)\n"),
    }
    out
}

fn render(doc: &str) -> Result<String, String> {
    let v = json::parse(doc).map_err(|e| format!("malformed snapshot: {e:?}"))?;
    let mut out = String::new();
    match v.get("kind").and_then(JsonValue::as_str) {
        Some("fleet") => out.push_str(&render_fleet(&v)),
        Some("solver") => out.push_str(&render_solver(&v)),
        other => return Err(format!("unknown document kind {other:?}")),
    }
    out.push('\n');
    out.push_str(&render_health(&v));
    Ok(out)
}

/// `--live`: replay a deterministic in-process fleet and render its
/// telemetry after every round.
fn live(tenants: usize, rounds: usize, json_out: Option<&str>) -> Result<ExitCode, String> {
    let a = sympack_sparse::gen::laplacian_2d(10, 10);
    let b = sympack_sparse::vecops::test_rhs(a.n());
    let tenants: Vec<Tenant> = (0..tenants.max(1))
        .map(|i| Tenant {
            name: format!("tenant{i}"),
            matrix: &a,
            weight: 1.0 + (i % 3) as f64,
            slo: Some(SloPolicy::new(5e-3 * (1 + i % 4) as f64, 0.99)),
        })
        .collect();
    let mut events = Vec::new();
    for round in 0..rounds.max(1) {
        // A fixed, seedless workload: tenant i submits (i mod 3) + 1 jobs
        // per round at staggered virtual arrivals.
        for i in 0..tenants.len() {
            for k in 0..(i % 3) + 1 {
                let at = round as f64 * 0.01 + k as f64 * 0.001;
                let rhs = b.clone();
                events.push(Event::Submit { tenant: i, at, rhs });
            }
        }
        events.push(Event::Step);
    }
    events.push(Event::Drain);
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 2,
        deterministic: true,
        ..Default::default()
    };
    let config = FleetConfig {
        shards: 2,
        max_batch: 4,
        ..Default::default()
    };
    let mut docs = Vec::new();
    let fleet = replay(&opts, config, &Mix { tenants, events }, |fleet, event| {
        if matches!(event, Event::Step) {
            docs.push(fleet.telemetry_json());
        }
    })?;
    for (round, doc) in docs.iter().enumerate() {
        print!("\n=== round {round} ===\n{}", render(doc)?);
    }
    let doc = fleet.telemetry_json();
    print!("\n=== final ===\n{}", render(&doc)?);
    if let Some(path) = json_out {
        std::fs::write(path, &doc).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote snapshot to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, String> {
    let args = Args::from_env(
        &["--live", "--check"],
        &["--tenants", "--rounds", "--json", "--replay", "--against"],
    );
    let count = |flag| args.parsed(flag, |v| v.parse().ok());
    // A flag of the other mode is a usage error, not silently ignored.
    let live_flags = ["--tenants", "--rounds", "--json"].map(|f| args.value(f).is_some());
    let replay_flags = [args.has("--check"), args.value("--against").is_some()];
    match (args.has("--live"), args.value("--replay")) {
        (true, None) if !replay_flags.contains(&true) => live(
            count("--tenants").unwrap_or(4),
            count("--rounds").unwrap_or(3),
            args.value("--json"),
        ),
        (false, Some(path)) if !live_flags.contains(&true) => {
            replay_doc(path, args.has("--check"), args.value("--against"))
        }
        _ => Err(USAGE.into()),
    }
}

/// `--replay`: render a saved snapshot, or validate it (`--check`).
fn replay_doc(path: &str, check: bool, against: Option<&str>) -> Result<ExitCode, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if check {
        let mut errs = check_doc(&doc);
        if let Some(other) = against {
            let doc2 = std::fs::read_to_string(other).map_err(|e| format!("read {other}: {e}"))?;
            errs.extend(check_doc(&doc2));
            if doc != doc2 {
                errs.push(format!(
                    "snapshots differ: {path} and {other} are not byte-identical"
                ));
            }
        }
        return if errs.is_empty() {
            println!("ok: {path}");
            Ok(ExitCode::SUCCESS)
        } else {
            for e in &errs {
                eprintln!("check failed: {e}");
            }
            Ok(ExitCode::FAILURE)
        };
    }
    print!("{}", render(&doc)?);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
