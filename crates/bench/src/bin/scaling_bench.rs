//! Strong-scaling harness for the communication-aggregation layer:
//! per-destination signal coalescing + hierarchical (tree) broadcast
//! versus the historical flat fan-out, at large virtual rank counts.
//!
//! ```text
//! cargo run --release -p sympack-bench --bin scaling_bench            # full sweep → BENCH_scaling.json
//! cargo run --release -p sympack-bench --bin scaling_bench -- --quick # P=64 smoke + byte assertion (CI PR job)
//! cargo run --release -p sympack-bench --bin scaling_bench -- --check # regression gate vs committed JSON
//! ```
//!
//! Every run is deterministic lockstep with NIC-injection modeling on, so
//! the recorded makespans and byte counts are bit-stable: the full sweep
//! rewrites `BENCH_scaling.json` reproducibly, and `--check` re-derives
//! the cheap rows and compares them byte-for-byte against the committed
//! file before validating the scaling invariants on the expensive rows:
//!
//! * tree broadcast moves ≥ 2× fewer net bytes than flat at P = 256 on at
//!   least two zoo matrices, with makespan no worse (≤ 1.02×);
//! * comm-matrix byte totals equal `net_bytes + intra_bytes` exactly at
//!   every P (frame/rget conservation).

use sympack::{BcastTopology, CoalesceConfig, SolverOptions, SymPack};
use sympack_bench::gate::{self, sci, Args, Row, Rows, Suite};
use sympack_bench::Problem;
use sympack_pgas::NetModel;
use sympack_sparse::vecops::test_rhs;
use sympack_trace::json::Obj;

/// Target ranks per node for the sweep: a dual-socket 128-core node, the
/// class of machine the paper's Perlmutter runs use per-node rank counts
/// toward. Fat nodes are what make node-grouped broadcast pay: the more
/// consumers share a node, the more remote fetches collapse into one
/// leader fetch plus intra-node forwards.
const RPN: usize = 128;

/// Node count for a sweep at `p` ranks: `p / RPN` nodes, floored at two
/// so even the small P = 64 row crosses a real network boundary instead
/// of degenerating to a single-node (all-intra) run.
fn nodes_for(p: usize) -> (usize, usize) {
    let n_nodes = (p / RPN).max(2);
    assert!(p.is_multiple_of(n_nodes));
    (n_nodes, p / n_nodes)
}

/// Tree fan-out per position.
const ARITY: usize = 4;

/// Coalescing quantum for the sweep. Longer than the library default: at
/// hundreds of ranks the fan-out bursts are deep enough that holding
/// sub-frames 20 µs packs several per frame (amortizing the per-message
/// envelope) without stalling the critical path.
const QUANTUM_SECS: f64 = 20.0e-6;

/// Makespan slack for the "no worse" gate: relay hops may add latency in
/// the pipeline tail, but never more than this factor.
const MAKESPAN_SLACK: f64 = 1.02;

/// Run one factor+solve at `p` ranks under `topology` and return its row
/// of `BENCH_scaling.json`. Tree runs enable coalescing too — the full
/// aggregation layer — while flat is the historical wire pattern.
fn run_config(problem: Problem, p: usize, tree: bool) -> Row {
    let a = problem.matrix_scaling();
    let b = test_rhs(a.n());
    let (n_nodes, rpn) = nodes_for(p);
    let opts = SolverOptions {
        n_nodes,
        ranks_per_node: rpn,
        net: NetModel {
            model_injection: true,
            ..NetModel::default()
        },
        deterministic: true,
        trace: true,
        bcast: if tree {
            BcastTopology::Tree { arity: ARITY }
        } else {
            BcastTopology::Flat
        },
        coalesce: tree.then(|| CoalesceConfig {
            quantum_secs: QUANTUM_SECS,
            ..CoalesceConfig::default()
        }),
        // Tree runs schedule comm-aware: tasks whose broadcasts fan widest
        // go first, so relay hops overlap with local factor work instead
        // of serializing behind it.
        rtq_policy: if tree {
            sympack::RtqPolicy::CommAware
        } else {
            SolverOptions::default().rtq_policy
        },
        ..Default::default()
    };
    let r = SymPack::factor_and_solve(&a, &b, &opts);
    assert!(
        r.relative_residual < 1e-8,
        "{} P={p} tree={tree}: residual {}",
        problem.name(),
        r.relative_residual
    );
    let profile = r.profile.as_ref().expect("trace enabled");
    // Byte conservation: the P×P comm matrix must account for every byte
    // the global counters saw, at every rank count.
    let matrix_total: u64 = profile.comm.bytes.iter().sum();
    assert_eq!(
        matrix_total,
        r.stats.net_bytes + r.stats.intra_bytes,
        "{} P={p} tree={tree}: comm matrix loses bytes",
        problem.name()
    );
    // Max per-rank *network* egress: the NIC-serialization hot spot the
    // tree exists to flatten.
    let node_of = |rank: usize| rank / rpn;
    let max_rank_net_bytes = (0..p)
        .map(|src| {
            (0..p)
                .filter(|&dst| node_of(dst) != node_of(src))
                .map(|dst| profile.comm.bytes_between(src, dst))
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    Row::from(
        Obj::new()
            .str("matrix", problem.name())
            .u64("p", p as u64)
            .str("topology", if tree { "tree" } else { "flat" })
            .str("makespan", &sci(r.factor_time))
            .u64("net_bytes", r.stats.net_bytes)
            .u64("intra_bytes", r.stats.intra_bytes)
            .u64("max_rank_net_bytes", max_rank_net_bytes)
            .str("crit_len", &sci(profile.crit_len))
            .u64("frames", r.stats.frames)
            .u64("frame_subs", r.stats.frame_subs),
    )
}

/// CI PR smoke: one matrix at P = 64, flat vs tree, bytes must drop.
fn quick(_: &Args, out: &mut Rows) -> Result<(), String> {
    let flat = run_config(Problem::Thermal, 64, false);
    let tree = run_config(Problem::Thermal, 64, true);
    let shrank = tree.u64("net_bytes")? < flat.u64("net_bytes")?;
    let framed = tree.u64("frames")? > 0;
    out.push(flat);
    out.push(tree);
    if !shrank {
        return Err("tree broadcast must reduce net bytes at P=64".into());
    }
    if !framed {
        return Err("coalescing must have shipped framed messages".into());
    }
    Ok(())
}

/// The sweep over `ps`, in file order.
fn sweep(ps: &[usize], out: &mut Rows) -> Result<(), String> {
    for problem in Problem::ALL {
        for &p in ps {
            for tree in [false, true] {
                out.push(run_config(problem, p, tree));
            }
        }
    }
    Ok(())
}

/// The headline gate, on each (flat, tree) pair at P = 256: ≥ 2× net-byte
/// reduction with makespan no worse, on at least two zoo matrices.
fn gate(rows: &[Row]) -> Result<String, String> {
    let mut passes = 0;
    for problem in Problem::ALL {
        let name = problem.name();
        let find = |topology: &str| {
            let hit = rows.iter().find(|r| {
                r.text("matrix") == Ok(name)
                    && r.u64("p") == Ok(256)
                    && r.text("topology") == Ok(topology)
            });
            hit.ok_or(format!("{name}: P=256 {topology} row missing"))
        };
        let (flat, tree) = (find("flat")?, find("tree")?);
        let (fb, tb) = (flat.u64("net_bytes")?, tree.u64("net_bytes")?);
        let (fm, tm) = (flat.f64("makespan")?, tree.f64("makespan")?);
        let reduction = fb as f64 / tb.max(1) as f64;
        let makespan_ok = tm <= fm * MAKESPAN_SLACK;
        println!(
            "  gate {name} P=256: net bytes {fb} -> {tb} ({reduction:.2}x), \
             makespan {fm:.3e} -> {tm:.3e} ({})",
            if makespan_ok { "ok" } else { "WORSE" },
        );
        passes += u32::from(reduction >= 2.0 && makespan_ok);
    }
    if passes < 2 {
        return Err(format!(
            "scaling gate: need >= 2 matrices with >= 2x reduction at P=256, got {passes}"
        ));
    }
    Ok(format!("{passes}/3 matrices at >= 2x"))
}

fn main() -> std::process::ExitCode {
    gate::run(&Suite {
        file: "BENCH_scaling.json",
        flags: &[],
        quick,
        cheap: |_, out| sweep(&[64], out),
        full: |_, out| sweep(&[64, 256, 1024], out),
        gate,
    })
}
