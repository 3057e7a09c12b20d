//! `run_sympack2d` — the CLI driver, mirroring the benchmarking program of
//! the paper's artifact (`driver/run_sympack2D`):
//!
//! ```text
//! run_sympack2d -in <matrix.rb|matrix.mtx> -nrhs 1 -ordering SCOTCH \
//!               -nodes 4 -ppn 2 [-nogpu] [-baseline] [-gen flan|bone|thermal[:scale]]
//! ```
//!
//! Reads a Rutherford-Boeing (`.rb`/`.rsa`) or Matrix Market (`.mtx`) file —
//! the two formats the artifact uses — or generates one of the paper's
//! stand-in problems, then factors and solves, printing the same summary the
//! paper's driver reports (ordering, structure, factorization time, solve
//! time, residual). `-ordering SCOTCH` maps to this workspace's
//! nested-dissection implementation (the algorithm Scotch provides).

use std::process::ExitCode;
use sympack::{MultiSolveReport, SolverError, SolverOptions, SymPack};
use sympack_baseline::try_baseline_factor_and_solve_multi;
use sympack_ordering::OrderingKind;
use sympack_sparse::{gen, SparseSym};

struct Args {
    input: Option<String>,
    generate: Option<String>,
    nrhs: usize,
    ordering: OrderingKind,
    nodes: usize,
    ppn: usize,
    gpu: bool,
    baseline: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: None,
        generate: None,
        nrhs: 1,
        ordering: OrderingKind::NestedDissection,
        nodes: 1,
        ppn: 2,
        gpu: true,
        baseline: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> Result<String, String> {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "-in" => {
                args.input = Some(need(i)?);
                i += 2;
            }
            "-gen" => {
                args.generate = Some(need(i)?);
                i += 2;
            }
            "-nrhs" => {
                args.nrhs = need(i)?.parse().map_err(|_| "bad -nrhs".to_string())?;
                i += 2;
            }
            "-ordering" => {
                args.ordering = match need(i)?.to_ascii_uppercase().as_str() {
                    "SCOTCH" | "ND" | "NESTED_DISSECTION" => OrderingKind::NestedDissection,
                    "MMD" | "AMD" | "MD" => OrderingKind::MinDegree,
                    "RCM" => OrderingKind::Rcm,
                    "NATURAL" | "NONE" => OrderingKind::Natural,
                    other => return Err(format!("unknown ordering {other}")),
                };
                i += 2;
            }
            "-nodes" => {
                args.nodes = need(i)?.parse().map_err(|_| "bad -nodes".to_string())?;
                i += 2;
            }
            "-ppn" => {
                args.ppn = need(i)?.parse().map_err(|_| "bad -ppn".to_string())?;
                i += 2;
            }
            "-nogpu" => {
                args.gpu = false;
                i += 1;
            }
            "-baseline" => {
                args.baseline = true;
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.input.is_none() && args.generate.is_none() {
        return Err("one of -in <file> or -gen <problem> is required".into());
    }
    Ok(args)
}

fn load_matrix(args: &Args) -> Result<SparseSym, String> {
    if let Some(path) = &args.input {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        if path.ends_with(".mtx") {
            let m = sympack_sparse::io::mm::read(file).map_err(|e| e.to_string())?;
            if !m.is_symmetric() {
                return Err("matrix is not symmetric".into());
            }
            Ok(m.to_lower_sym())
        } else {
            sympack_sparse::io::rb::read(file).map_err(|e| e.to_string())
        }
    } else {
        let spec = args.generate.as_deref().expect("checked");
        let (name, scale) = match spec.split_once(':') {
            Some((n, s)) => (n, s.parse::<usize>().map_err(|_| "bad scale")?),
            None => (spec, 12),
        };
        match name {
            "flan" => Ok(gen::flan_like(scale, scale, scale)),
            "bone" => Ok(gen::bone_like(scale, scale, scale)),
            "thermal" => Ok(gen::thermal_like(scale * 6, scale * 6, 0.35, 20230)),
            other => Err(format!("unknown generator {other}")),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: run_sympack2d (-in <file> | -gen flan|bone|thermal[:scale]) \
                 [-nrhs N] [-ordering SCOTCH|MMD|RCM|NATURAL] [-nodes N] [-ppn N] [-nogpu] [-baseline]"
            );
            return ExitCode::FAILURE;
        }
    };
    let a = match load_matrix(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("matrix: n = {}, nnz = {}", a.n(), a.nnz_full());
    let bs: Vec<Vec<f64>> = (0..args.nrhs)
        .map(|k| {
            (0..a.n())
                .map(|i| ((i * (k + 3) + 1) % 17) as f64 - 8.0)
                .collect()
        })
        .collect();
    let opts = SolverOptions {
        ordering: args.ordering,
        n_nodes: args.nodes,
        ranks_per_node: args.ppn,
        gpu: args.gpu,
        ..Default::default()
    };
    type Run = fn(&SparseSym, &[Vec<f64>], &SolverOptions) -> Result<MultiSolveReport, SolverError>;
    let (solver, run): (&str, Run) = if args.baseline {
        let name = "right-looking baseline (PaStiX-like), 1D mapping";
        (name, try_baseline_factor_and_solve_multi)
    } else {
        let name = "symPACK-rs (fan-out, 2D block-cyclic)";
        (name, SymPack::try_factor_and_solve_multi)
    };
    match run(&a, &bs, &opts) {
        Ok(r) => {
            println!("solver: {solver}");
            println!(
                "supernodes: {}, nnz(L) = {}, flops = {:.3e}",
                r.n_supernodes, r.l_nnz, r.flops as f64
            );
            println!("factorization time: {:.6} s (modeled)", r.factor_time);
            for (k, t) in r.solve_times.iter().enumerate() {
                println!(
                    "solve {k}: {:.6} s (modeled), residual {:.3e}",
                    t, r.relative_residuals[k]
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("factorization failed: {e}");
            ExitCode::FAILURE
        }
    }
}
