//! Wall-clock roofline benchmark for the dense kernel engine.
//!
//! Sweeps the four factorization kernels (GEMM, POTRF, TRSM, SYRK) over
//! square and skinny supernode-shaped problems, reporting achieved Gflop/s
//! and arithmetic intensity (flops per byte of operand/result footprint —
//! the x-axis of a roofline plot) per shape and code path. For GEMM the
//! sweep covers two variants: the pre-packing loop nest
//! (`gemm_nt_unpacked_raw`, the pre-PR baseline) and the packed
//! register-blocked engine.
//!
//! Everything that runs on the packed core (packed GEMM, SYRK, TRSM) is
//! measured **once per microkernel ISA the machine has**, forced through
//! `IsaSelect` (variant `packed@avx512`, `blocked@avx2+fma`, …; an ISA the
//! machine lacks is reported and skipped). The run exits non-zero when a
//! wider ISA is slower than a narrower one on packed GEMM at n = 256: the
//! dispatch order `avx512 → avx2+fma → portable` is a claim about speed,
//! and this is where it is checked.
//!
//! Two appendix sweeps justify the constants of `sympack_dense`:
//!
//! * AVX-512 register-tile scan: the microkernel loop alone on packed
//!   strips for 8×8, 16×8, 24×8 and 32×4 tiles — the measurement behind
//!   `Isa::tile`'s 16×8,
//! * small-size scan: unpacked vs forced-packed GEMM around
//!   `pack_min_flops` — `sympack_tune::crossover_scan`, the scan
//!   `calibrate` fits that threshold from.
//!
//! Every row is timed by `sympack_tune::median_secs`, the calibration
//! sweep's timer. `--config k=v,...` runs the whole sweep under a
//! non-default [`KernelConfig`] (field overrides by name, e.g.
//! `mc=96,kc=192`).
//!
//! Output: `BENCH_kernels.json` (a [`RooflineReport`])
//! and a human-readable table in `results/kernel_roofline.txt`, or the
//! paths `--json` / `--out` name. `--quick` shrinks sizes and repetitions
//! for the CI smoke job and writes only the files `--json` / `--out` name.

use std::fmt::Write as _;

use sympack_bench::gate::Args;
use sympack_dense::config::{IsaSelect, KernelConfig};
use sympack_dense::flops;
use sympack_dense::gemm::{gemm_nt_packed_raw, gemm_nt_unpacked_raw};
use sympack_dense::microkernel;
use sympack_dense::potrf::potrf_raw;
use sympack_dense::syrk::syrk_lower_raw;
use sympack_dense::trsm::trsm_right_lower_trans_raw;
use sympack_trace::json::{Arr, Obj};
use sympack_tune::{crossover_scan, fill, median_secs, spd, CROSSOVER_SIZES};

/// Parse `k=v,...` field overrides on top of the default config; exits with
/// a usage message on unknown fields, bad values, or invalid combinations.
fn parse_config(spec: &str) -> KernelConfig {
    let mut cfg = KernelConfig::default();
    for pair in spec.split(',').filter(|p| !p.is_empty()) {
        let Some((name, value)) = pair.split_once('=') else {
            eprintln!("bad --config entry {pair:?}: expected field=value");
            std::process::exit(2);
        };
        let Ok(v) = value.trim().parse::<u64>() else {
            eprintln!("bad --config value in {pair:?}: expected an integer");
            std::process::exit(2);
        };
        if let Err(e) = cfg.set_field(name.trim(), v) {
            eprintln!("bad --config entry {pair:?}: {e}");
            std::process::exit(2);
        }
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid --config: {e}");
        std::process::exit(2);
    }
    cfg
}

/// `cfg` forced to each microkernel ISA this machine has, narrowest first,
/// with the ISA's name. ISAs the machine lacks (or whose register tile does
/// not divide a `--config` blocking) are reported, never skipped silently.
fn forced_isas(cfg: &KernelConfig, txt: &mut String) -> Vec<(&'static str, KernelConfig)> {
    let mut out = Vec::new();
    for isa in [IsaSelect::Portable, IsaSelect::Avx2Fma, IsaSelect::Avx512] {
        let forced = KernelConfig { isa, ..cfg.clone() };
        match forced.validate().and_then(|()| forced.resolve_isa()) {
            Ok(resolved) => out.push((resolved.name(), forced)),
            Err(e) => {
                let _ = writeln!(txt, "skipped {isa:?}: {e}");
            }
        }
    }
    out
}

/// AVX-512 register-tile scan: Gflop/s of the microkernel loop alone — one
/// macro-kernel sweep of a packed 96 × 256 `A` block against a packed
/// 256 × 64 `B` block (L2-resident, like an `mc × kc` block of the real
/// core), `C -= acc` per tile — for each candidate `mr × nr`. Same fused
/// arithmetic as `sympack_dense::microkernel`; only the tile differs.
#[cfg(target_arch = "x86_64")]
mod tile_scan {
    use std::arch::x86_64::*;

    pub const M: usize = 96;
    pub const N: usize = 64;
    pub const KB: usize = 256;

    macro_rules! sweep {
        ($name:ident, $vecs:literal, $nr:literal) => {
            /// # Safety
            /// Requires `avx512f`; `pa`/`pb`/`c` hold `M·KB`, `KB·N`, `M·N`.
            #[target_feature(enable = "avx512f")]
            pub unsafe fn $name(pa: &[f64], pb: &[f64], c: &mut [f64]) {
                const MR: usize = 8 * $vecs;
                assert!(pa.len() == M * KB && pb.len() == KB * N && c.len() == M * N);
                for (js, b) in pb.chunks_exact(KB * $nr).enumerate() {
                    for (is, a) in pa.chunks_exact(KB * MR).enumerate() {
                        let mut v = [[_mm512_setzero_pd(); $vecs]; $nr];
                        for (a, b) in a.chunks_exact(MR).zip(b.chunks_exact($nr)) {
                            let mut av = [_mm512_setzero_pd(); $vecs];
                            for (i, x) in av.iter_mut().enumerate() {
                                // SAFETY: `a` holds MR = 8·vecs elements.
                                *x = unsafe { _mm512_loadu_pd(a.as_ptr().add(8 * i)) };
                            }
                            for j in 0..$nr {
                                let bj = _mm512_set1_pd(b[j]);
                                for i in 0..$vecs {
                                    v[j][i] = _mm512_fmadd_pd(av[i], bj, v[j][i]);
                                }
                            }
                        }
                        for j in 0..$nr {
                            for i in 0..$vecs {
                                let at = (js * $nr + j) * M + is * MR + 8 * i;
                                let col = &mut c[at..at + 8];
                                // SAFETY: `col` holds 8 elements.
                                unsafe {
                                    let old = _mm512_loadu_pd(col.as_ptr());
                                    _mm512_storeu_pd(col.as_mut_ptr(), _mm512_sub_pd(old, v[j][i]));
                                }
                            }
                        }
                    }
                }
            }
        };
    }
    sweep!(tile_8x8, 1, 8);
    sweep!(tile_16x8, 2, 8);
    sweep!(tile_24x8, 3, 8);
    sweep!(tile_32x4, 4, 4);

    /// One tile sweep; see the macro for the contract.
    pub type Sweep = unsafe fn(&[f64], &[f64], &mut [f64]);
    pub const TILES: [(&str, Sweep); 4] = [
        ("8x8", tile_8x8),
        ("16x8", tile_16x8),
        ("24x8", tile_24x8),
        ("32x4", tile_32x4),
    ];
}

/// One wall-clock measurement of a dense kernel at one problem shape.
#[derive(Debug)]
struct KernelSample {
    /// Kernel name (`gemm_nt`, `potrf`, `trsm`, `syrk`, ...).
    kernel: String,
    /// Code-path variant (`unpacked`, `packed`, `par`, ...).
    variant: String,
    /// Problem shape; unused dimensions are 0.
    m: usize,
    n: usize,
    k: usize,
    /// Median wall-clock seconds per call.
    secs: f64,
    /// Exact flop count of one call.
    flops: u64,
    /// Bytes of matrix data touched at least once (operand + result
    /// footprints, not cache-aware traffic).
    bytes: u64,
}

impl KernelSample {
    /// Achieved rate in Gflop/s.
    fn gflops(&self) -> f64 {
        if self.secs > 0.0 {
            self.flops as f64 / self.secs / 1e9
        } else {
            0.0
        }
    }

    /// Arithmetic intensity in flops per byte of footprint — the x-axis of a
    /// roofline plot.
    fn arithmetic_intensity(&self) -> f64 {
        if self.bytes > 0 {
            self.flops as f64 / self.bytes as f64
        } else {
            0.0
        }
    }

    /// Serialize as a JSON object.
    fn to_json(&self) -> String {
        Obj::new()
            .str("kernel", &self.kernel)
            .str("variant", &self.variant)
            .u64("m", self.m as u64)
            .u64("n", self.n as u64)
            .u64("k", self.k as u64)
            .f64("secs", self.secs)
            .u64("flops", self.flops)
            .u64("bytes", self.bytes)
            .f64("gflops", self.gflops())
            .f64("ai", self.arithmetic_intensity())
            .finish()
    }
}

/// A full roofline run: machine context plus every sample, serialized to
/// `BENCH_kernels.json`.
#[derive(Debug)]
struct RooflineReport {
    /// Instruction set the microkernel dispatched to (`avx2+fma`, ...).
    isa: String,
    /// All recorded samples, in measurement order.
    samples: Vec<KernelSample>,
}

impl RooflineReport {
    /// The sample for `(kernel, variant)` at shape `(m, n, k)`, if recorded.
    fn find(
        &self,
        kernel: &str,
        variant: &str,
        m: usize,
        n: usize,
        k: usize,
    ) -> Option<&KernelSample> {
        self.samples.iter().find(|s| {
            s.kernel == kernel && s.variant == variant && s.m == m && s.n == n && s.k == k
        })
    }

    /// Serialize as a JSON object.
    fn to_json(&self) -> String {
        let samples: Arr = self.samples.iter().map(KernelSample::to_json).collect();
        Obj::new()
            .str("isa", &self.isa)
            .raw("samples", &samples.finish())
            .finish()
    }
}

struct Ctx {
    report: RooflineReport,
    txt: String,
    samples: usize,
}

impl Ctx {
    /// Time `f` and record it as one row; its Gflop/s.
    fn record<F: FnMut()>(
        &mut self,
        kernel: &str,
        variant: &str,
        mnk: (usize, usize, usize),
        flop: u64,
        bytes: u64,
        f: F,
    ) -> f64 {
        let secs = median_secs(f, self.samples);
        self.push(kernel, variant, mnk, flop, bytes, secs)
    }

    /// Add a timed row to the report and the text table; its Gflop/s.
    fn push(
        &mut self,
        kernel: &str,
        variant: &str,
        (m, n, k): (usize, usize, usize),
        flops: u64,
        bytes: u64,
        secs: f64,
    ) -> f64 {
        let s = KernelSample {
            kernel: kernel.into(),
            variant: variant.into(),
            m,
            n,
            k,
            secs,
            flops,
            bytes,
        };
        let gf = s.gflops();
        let _ = writeln!(
            self.txt,
            "{kernel:8} {variant:16} m={m:5} n={n:5} k={k:5}  {gf:7.2} GF/s  ai={ai:6.1}",
            ai = s.arithmetic_intensity()
        );
        self.report.samples.push(s);
        gf
    }
}

fn main() {
    let args = Args::from_env(&["--quick"], &["--config", "--json", "--out"]);
    let quick = args.has("--quick");
    let cfg = args.value("--config").map(parse_config).unwrap_or_default();
    // The full sweep refreshes the committed files; `--quick` writes only
    // what it is told to.
    let json_path = args
        .value("--json")
        .or((!quick).then_some("BENCH_kernels.json"));
    let txt_path = args
        .value("--out")
        .or((!quick).then_some("results/kernel_roofline.txt"));
    let samples = if quick { 3 } else { 7 };

    let mut ctx = Ctx {
        report: RooflineReport {
            isa: microkernel::isa_name().to_string(),
            samples: Vec::new(),
        },
        txt: String::new(),
        samples,
    };
    let _ = writeln!(
        ctx.txt,
        "kernel roofline ({} mode): isa={}\n\
         rates are median wall-clock over {samples} windows; ai = flops per\n\
         byte of operand/result footprint (8 bytes per f64, each matrix\n\
         counted once, destinations twice for read+write).\n",
        if quick { "quick" } else { "full" },
        microkernel::isa_name(),
    );

    // ---- GEMM: square and skinny supernode shapes, two variants. ----
    let square: &[usize] = if quick {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    let skinny: &[(usize, usize, usize)] = if quick {
        &[(512, 64, 64)]
    } else {
        // Tall-panel × small-separator shapes typical of supernodal updates.
        &[(2048, 128, 128), (4096, 64, 64), (1024, 256, 64)]
    };
    let mut shapes: Vec<(usize, usize, usize)> = square.iter().map(|&s| (s, s, s)).collect();
    shapes.extend_from_slice(skinny);

    let isas = forced_isas(&cfg, &mut ctx.txt);
    let auto = microkernel::isa_name();
    let packed_auto = format!("packed@{auto}");
    let mut gemm_512_packed = 0.0_f64;
    for &(m, n, k) in &shapes {
        let a = fill(m * k, 1);
        let b = fill(n * k, 2);
        let mut c = vec![0.0; m * n];
        let flop = flops::gemm(m, n, k);
        let bytes = 8 * (m * k + n * k + 2 * m * n) as u64;
        ctx.record("gemm_nt", "unpacked", (m, n, k), flop, bytes, || {
            gemm_nt_unpacked_raw(&mut c, m, m, n, &a, m, &b, n, k)
        });
        for (name, forced) in &isas {
            let variant = format!("packed@{name}");
            let gf = ctx.record("gemm_nt", &variant, (m, n, k), flop, bytes, || {
                gemm_nt_packed_raw(forced, &mut c, m, m, n, &a, m, &b, n, k)
            });
            if *name == auto && (m, n, k) == (512, 512, 512) {
                gemm_512_packed = gf;
            }
        }
    }

    // Headline speedups: packed engine vs the pre-PR unpacked loop nest.
    let _ = writeln!(ctx.txt, "\n{packed_auto} speedup over unpacked baseline:");
    for &(m, n, k) in &shapes {
        let (Some(u), Some(p)) = (
            ctx.report.find("gemm_nt", "unpacked", m, n, k),
            ctx.report.find("gemm_nt", &packed_auto, m, n, k),
        ) else {
            continue;
        };
        let _ = writeln!(
            ctx.txt,
            "  m={m:5} n={n:5} k={k:5}  {:4.2}x",
            p.gflops() / u.gflops()
        );
    }

    // The dispatch order is a claim about speed: check it where both sides
    // of a comparison exist (n = 256 is in the quick and the full sweep).
    let at_256: Vec<(&str, f64)> = isas
        .iter()
        .filter_map(|(name, _)| {
            let s = ctx
                .report
                .find("gemm_nt", &format!("packed@{name}"), 256, 256, 256)?;
            Some((*name, s.gflops()))
        })
        .collect();
    let mut isa_order_holds = true;
    for pair in at_256.windows(2) {
        let ((narrow, gn), (wide, gw)) = (pair[0], pair[1]);
        let ok = gw >= gn;
        isa_order_holds &= ok;
        let _ = writeln!(
            ctx.txt,
            "isa order at n=256: {wide} {gw:.2} GF/s vs {narrow} {gn:.2} GF/s  {}",
            if ok { "ok" } else { "VIOLATED" }
        );
    }

    // ---- Factorization kernels. ----
    let factor_sizes: &[usize] = if quick { &[128, 256] } else { &[128, 256, 512] };
    for &n in factor_sizes {
        let l = spd(n);
        // POTRF (re-copies the SPD input each call; the copy is timed but is
        // O(n²) against the O(n³) factorization).
        let mut buf = l.clone();
        ctx.record(
            "potrf",
            "blocked",
            (0, n, 0),
            flops::potrf(n),
            8 * 2 * (n * n) as u64,
            || {
                buf.copy_from_slice(&l);
                potrf_raw(&cfg, &mut buf, n, n).unwrap();
            },
        );
        // TRSM: tall panel m = 4n against the factored diagonal block.
        let mut lf = l.clone();
        potrf_raw(&cfg, &mut lf, n, n).unwrap();
        let m = 4 * n;
        let b0 = fill(m * n, 5);
        let mut b = b0.clone();
        // SYRK: n×n lower update by an n×k panel, k = n.
        let k = n;
        let ap = fill(n * k, 6);
        let mut cs = vec![0.0; n * n];
        for (name, forced) in &isas {
            let variant = format!("blocked@{name}");
            ctx.record(
                "trsm",
                &variant,
                (m, n, 0),
                flops::trsm(m, n),
                8 * (2 * m * n + n * n / 2) as u64,
                || {
                    b.copy_from_slice(&b0);
                    trsm_right_lower_trans_raw(forced, &mut b, m, m, n, &lf, n);
                },
            );
            ctx.record(
                "syrk",
                &variant,
                (0, n, k),
                flops::syrk(n, k),
                8 * (n * k + n * n) as u64,
                || syrk_lower_raw(forced, &mut cs, n, n, &ap, n, k),
            );
        }
    }

    // Factored-kernel efficiency against the packed GEMM rate at n = 512.
    if !quick && gemm_512_packed > 0.0 {
        let _ = writeln!(
            ctx.txt,
            "\nfactor-kernel rate vs packed gemm at n=512 ({gemm_512_packed:.2} GF/s):"
        );
        let blocked_auto = format!("blocked@{auto}");
        for (kernel, variant, m, n, k) in [
            ("potrf", "blocked", 0usize, 512usize, 0usize),
            ("trsm", blocked_auto.as_str(), 2048, 512, 0),
            ("syrk", blocked_auto.as_str(), 0, 512, 512),
        ] {
            if let Some(s) = ctx.report.find(kernel, variant, m, n, k) {
                let _ = writeln!(
                    ctx.txt,
                    "  {kernel:6} {:6.2} GF/s  ({:5.1}% of gemm)",
                    s.gflops(),
                    100.0 * s.gflops() / gemm_512_packed
                );
            }
        }
    }

    // ---- Appendix 1: AVX-512 register-tile scan (Isa::tile). ----
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        use tile_scan::{KB, M, N, TILES};
        let _ = writeln!(
            ctx.txt,
            "\navx512 register-tile scan (microkernel loop only, packed {M}x{KB} A block x \
             {KB}x{N} B block; the core uses 16x8 — 24x8 does not divide mc = 128):"
        );
        let (pa, pb) = (fill(M * KB, 1), fill(KB * N, 2));
        let mut c = vec![0.0; M * N];
        let flop = flops::gemm(M, N, KB);
        for (name, sweep) in TILES {
            // SAFETY: avx512f was detected above; the buffers have the
            // lengths the sweep asserts.
            ctx.record("tile", name, (M, N, KB), flop, 0, || unsafe {
                sweep(&pa, &pb, &mut c)
            });
        }
    }

    // ---- Appendix 2: pack/no-pack crossover scan (pack_min_flops). ----
    let _ = writeln!(
        ctx.txt,
        "\npack crossover scan (unpacked vs forced-packed; dispatch threshold \
         pack_min_flops = {}):",
        cfg.pack_min_flops
    );
    // Quick: every other size from 16 to 32.
    let sizes: Vec<usize> = if quick {
        CROSSOVER_SIZES[2..7].iter().step_by(2).copied().collect()
    } else {
        CROSSOVER_SIZES.to_vec()
    };
    for (n, tu, tp) in crossover_scan(&cfg, &sizes, samples) {
        let (flop, bytes) = (flops::gemm(n, n, n), 8 * 4 * (n * n) as u64);
        ctx.push("gemm_nt", "xover-unpacked", (n, n, n), flop, bytes, tu);
        ctx.push("gemm_nt", "xover-packed", (n, n, n), flop, bytes, tp);
        let _ = writeln!(
            ctx.txt,
            "  n={n:3} ({flop:7} flop): packed/unpacked = {:4.2}x",
            tu / tp
        );
    }

    print!("{}", ctx.txt);
    if let Some(path) = txt_path {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, &ctx.txt).expect("write text report");
        println!("wrote {path}");
    }
    if let Some(path) = json_path {
        std::fs::write(path, ctx.report.to_json()).expect("write json report");
        println!("wrote {path}");
    }
    if !isa_order_holds {
        eprintln!("a wider ISA is slower than a narrower one on packed gemm at n=256");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kernel: &str, variant: &str, (m, n, k): (usize, usize, usize)) -> KernelSample {
        KernelSample {
            kernel: kernel.into(),
            variant: variant.into(),
            m,
            n,
            k,
            secs: 0.0,
            flops: 0,
            bytes: 0,
        }
    }

    #[test]
    fn kernel_sample_rates_and_json() {
        let s = KernelSample {
            secs: 0.001,
            flops: 2 * 256 * 256 * 256,
            bytes: 8 * 3 * 256 * 256 + 8 * 256 * 256,
            ..sample("gemm_nt", "packed", (256, 256, 256))
        };
        assert!((s.gflops() - 33.554432).abs() < 1e-9);
        assert!(s.arithmetic_intensity() > 10.0);
        let json = s.to_json();
        assert!(json.contains("\"kernel\":\"gemm_nt\""));
        assert!(json.contains("\"variant\":\"packed\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn roofline_report_find_and_json_balance() {
        // The document layout of BENCH_kernels.json, byte for byte.
        let samples = vec![
            KernelSample {
                secs: 0.5,
                flops: 1000,
                bytes: 800,
                ..sample("potrf", "blocked", (0, 128, 0))
            },
            KernelSample {
                secs: 1.7e-4,
                flops: 2 * 256 * 256 * 96,
                bytes: 8 * (256 * 96 * 2 + 256 * 256),
                ..sample("gemm_nt", "packed@avx2+fma", (256, 256, 96))
            },
            KernelSample {
                flops: 10,
                ..sample("x", "y\"z", (0, 0, 0))
            },
        ];
        let r = RooflineReport {
            isa: "avx2+fma".into(),
            samples,
        };
        assert!(r.find("potrf", "blocked", 0, 128, 0).is_some());
        assert!(r.find("potrf", "naive", 0, 128, 0).is_none());
        assert_eq!(
            r.to_json(),
            concat!(
                r#"{"isa":"avx2+fma","samples":[{"kernel":"potrf","variant":"blocked","#,
                r#""m":0,"n":128,"k":0,"secs":0.5,"flops":1000,"bytes":800,"#,
                r#""gflops":0.000002,"ai":1.25},{"kernel":"gemm_nt","#,
                r#""variant":"packed@avx2+fma","m":256,"n":256,"k":96,"secs":0.00017,"#,
                r#""flops":12582912,"bytes":917504,"gflops":74.0171294117647,"#,
                r#""ai":13.714285714285714},{"kernel":"x","variant":"y\"z","m":0,"n":0,"#,
                r#""k":0,"secs":0,"flops":10,"bytes":0,"gflops":0,"ai":0}]}"#
            )
        );
    }

    #[test]
    fn zero_time_and_zero_bytes_are_guarded() {
        let s = KernelSample {
            flops: 10,
            ..sample("x", "y", (0, 0, 0))
        };
        assert_eq!(s.gflops(), 0.0);
        assert_eq!(s.arithmetic_intensity(), 0.0);
    }
}
