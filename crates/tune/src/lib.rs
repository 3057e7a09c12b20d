//! One-shot kernel calibration: measure this machine, fit a
//! [`KernelProfile`], persist it, and turn it into the runtime knobs the
//! solver consumes — a [`sympack_dense::KernelConfig`] for the kernels and
//! a [`sympack_gpu::CostModel`] carrying the measured CPU rates.
//!
//! The sweep ([`calibrate`]) times the packed GEMM engine over a grid of
//! supernode-shaped problems under a set of candidate cache blockings and
//! keeps the fastest; it then measures the sustained per-operation rates
//! (GEMM/SYRK/TRSM/POTRF) and the streaming memory bandwidth under the
//! chosen blocking, and re-derives the dispatch threshold `pack_min_flops`
//! from the pack/no-pack crossover scan. [`TuneBudget`] scales the sweep:
//! [`TuneBudget::quick`] is the CI smoke budget (a few hundred
//! milliseconds), [`TuneBudget::full`] the real one.
//!
//! This crate is also the one place that times a dense kernel: the timer
//! ([`median_secs`]), the operand builders ([`fill`], [`spd`]) and the
//! crossover scan ([`crossover_scan`] over [`CROSSOVER_SIZES`]) are the
//! ones `kernel_roofline` and `session_amortization`'s wall-clock table use.
//!
//! A solver that wants this machine's numbers measures once and reuses the
//! file afterwards:
//!
//! ```no_run
//! use sympack_tune::{KernelProfile, TuneBudget, TuneError};
//!
//! fn tuned() -> Result<(), TuneError> {
//!     let cache = std::path::Path::new("kernel-profile.json");
//!     let profile = KernelProfile::load_or_calibrate(cache, &TuneBudget::full())?;
//!     // `SolverOptions::kernel_config` takes the first; the second is the
//!     // kernel cost model with this machine's CPU rates.
//!     let (_config, _cost) = (profile.config.clone(), profile.cost_model());
//!     Ok(())
//! }
//! ```
//!
//! # Profile file format
//!
//! [`KernelProfile::to_json`] writes a single compact JSON object (one
//! line, through `sympack_trace::json::Obj`):
//!
//! ```json
//! {"schema":"sympack-kernel-profile-v2","isa":"avx512","mem_bandwidth":21474836480,"rates":{"gemm":9100000000,"syrk":8200000000,"trsm":5500000000,"potrf":3900000000},"config":{"mc":128,"kc":256,"nc":512,"pack_min_flops":28672}}
//! ```
//!
//! `schema` is the versioned magic (a v1 file, which also carried a worker
//! count, a parallel-dispatch threshold and nine blocking fields that are
//! now constants of `sympack-dense`, does not load); `isa` is the
//! resolved microkernel ISA the measurements were taken with;
//! `mem_bandwidth` in bytes/second; `rates` in flops/second per operation;
//! `config` holds every [`KernelConfig::fields`] entry by name. The ISA
//! *selection* is pinned to `Auto` on load, and the blocking is validated
//! against the register tile `Auto` resolves to here — so a profile only
//! describes the machine it was measured on:
//! [`KernelProfile::load_or_calibrate`] re-measures one whose `isa` is not
//! this machine's.
//!
//! Writing uses Rust's shortest-round-trip `{}` float formatting and the
//! loader parses with `str::parse::<f64>`, so a save → load → save cycle is
//! byte-identical — the property CI's tune-smoke job checks. The loader
//! ignores whitespace, so a profile saved in the earlier indented layout
//! loads unchanged.

use std::fmt;
use std::path::Path;
use std::time::Instant;

use sympack_dense::config::KernelConfig;
use sympack_dense::gemm::{gemm_nt_packed_raw, gemm_nt_unpacked_raw};
use sympack_dense::potrf::potrf_raw;
use sympack_dense::syrk::syrk_lower_raw;
use sympack_dense::trsm::trsm_right_lower_trans_raw;
use sympack_dense::{flops, microkernel};
use sympack_gpu::CostModel;
use sympack_trace::json::{parse, JsonValue, Obj};

/// Versioned magic of the profile file format.
pub const SCHEMA: &str = "sympack-kernel-profile-v2";

/// What went wrong loading a profile.
#[derive(Debug)]
pub enum TuneError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file is not valid JSON.
    Json(String),
    /// The JSON parsed but is not a profile this version understands
    /// (wrong schema, missing field, invalid config).
    Schema(String),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Io(e) => write!(f, "profile io: {e}"),
            TuneError::Json(e) => write!(f, "profile json: {e}"),
            TuneError::Schema(e) => write!(f, "profile schema: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<std::io::Error> for TuneError {
    fn from(e: std::io::Error) -> Self {
        TuneError::Io(e)
    }
}

/// A fitted per-machine kernel profile: the chosen configuration plus the
/// measured machine constants.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Resolved microkernel ISA the measurements were taken with.
    pub isa: String,
    /// Measured streaming memory bandwidth (bytes/second).
    pub mem_bandwidth: f64,
    /// Sustained GEMM rate (flops/second) under the chosen config.
    pub gemm_rate: f64,
    /// Sustained SYRK rate.
    pub syrk_rate: f64,
    /// Sustained TRSM rate.
    pub trsm_rate: f64,
    /// Sustained POTRF rate.
    pub potrf_rate: f64,
    /// The winning kernel configuration.
    pub config: KernelConfig,
}

impl KernelProfile {
    /// The kernel cost model implied by this profile: per-op CPU rates from
    /// the measurements, GPU constants left at their defaults (the sweep is
    /// CPU-side). The measured bandwidth is reported, not modeled.
    pub fn cost_model(&self) -> CostModel {
        CostModel {
            cpu_gemm: self.gemm_rate,
            cpu_syrk: self.syrk_rate,
            cpu_trsm: self.trsm_rate,
            cpu_potrf: self.potrf_rate,
            ..CostModel::default()
        }
    }

    /// Serialize to the versioned JSON document (see the module docs for
    /// the format). Byte-stable: `from_json(to_json()).to_json()` returns
    /// the same bytes.
    pub fn to_json(&self) -> String {
        let rates = Obj::new()
            .f64("gemm", self.gemm_rate)
            .f64("syrk", self.syrk_rate)
            .f64("trsm", self.trsm_rate)
            .f64("potrf", self.potrf_rate);
        let config = self
            .config
            .fields()
            .into_iter()
            .fold(Obj::new(), |o, (k, v)| o.u64(k, v));
        let doc = Obj::new()
            .str("schema", SCHEMA)
            .str("isa", &self.isa)
            .f64("mem_bandwidth", self.mem_bandwidth)
            .raw("rates", &rates.finish())
            .raw("config", &config.finish());
        doc.finish() + "\n"
    }

    /// Parse a document produced by [`KernelProfile::to_json`].
    ///
    /// # Errors
    /// [`TuneError::Json`] for malformed JSON, [`TuneError::Schema`] for a
    /// wrong/missing schema string, missing fields, or a config that fails
    /// [`KernelConfig::validate`].
    pub fn from_json(text: &str) -> Result<KernelProfile, TuneError> {
        let doc = parse(text).map_err(|e| TuneError::Json(e.to_string()))?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| TuneError::Schema("missing `schema`".into()))?;
        if schema != SCHEMA {
            return Err(TuneError::Schema(format!(
                "unsupported schema `{schema}` (expected `{SCHEMA}`)"
            )));
        }
        let f64_at = |v: &JsonValue, key: &str| -> Result<f64, TuneError> {
            v.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| TuneError::Schema(format!("missing numeric `{key}`")))
        };
        let rates = doc
            .get("rates")
            .ok_or_else(|| TuneError::Schema("missing `rates`".into()))?;
        let cfg_obj = doc
            .get("config")
            .ok_or_else(|| TuneError::Schema("missing `config`".into()))?;
        let mut config = KernelConfig::default();
        for (name, _) in KernelConfig::default().fields() {
            let v = cfg_obj
                .get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| TuneError::Schema(format!("config field `{name}`: no count")))?;
            config.set_field(name, v).map_err(TuneError::Schema)?;
        }
        config
            .validate()
            .map_err(|e| TuneError::Schema(e.to_string()))?;
        Ok(KernelProfile {
            isa: doc
                .get("isa")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| TuneError::Schema("missing `isa`".into()))?
                .to_string(),
            mem_bandwidth: f64_at(&doc, "mem_bandwidth")?,
            gemm_rate: f64_at(rates, "gemm")?,
            syrk_rate: f64_at(rates, "syrk")?,
            trsm_rate: f64_at(rates, "trsm")?,
            potrf_rate: f64_at(rates, "potrf")?,
            config,
        })
    }

    /// Write the profile to `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), TuneError> {
        std::fs::write(path, self.to_json())?;
        Ok(())
    }

    /// Load a profile from `path`.
    ///
    /// # Errors
    /// See [`KernelProfile::from_json`] plus [`TuneError::Io`].
    pub fn load(path: &Path) -> Result<KernelProfile, TuneError> {
        KernelProfile::from_json(&std::fs::read_to_string(path)?)
    }

    /// Load the cached profile at `path`, or calibrate under `budget` and
    /// cache the result there. A stale/corrupt cache (wrong schema, old
    /// version, bad JSON, or measured under another microkernel ISA — its
    /// rates are another kernel's and its blocking was fitted to another
    /// register tile) is silently re-calibrated and overwritten, not an
    /// error — the cache is an optimization.
    ///
    /// # Errors
    /// Only write failures surface; calibration itself cannot fail.
    pub fn load_or_calibrate(path: &Path, budget: &TuneBudget) -> Result<KernelProfile, TuneError> {
        if let Ok(p) = KernelProfile::load(path) {
            if p.isa == microkernel::isa_name() {
                return Ok(p);
            }
        }
        let p = calibrate(budget);
        p.save(path)?;
        Ok(p)
    }
}

/// How much time the calibration sweep may spend.
#[derive(Debug, Clone)]
pub struct TuneBudget {
    /// Timing windows per measurement (median taken).
    pub samples: usize,
    /// Edge length of the rate-measurement problems.
    pub rate_size: usize,
    /// Shape grid the candidate configs compete on.
    pub shapes: Vec<(usize, usize, usize)>,
    /// Candidate `(mc, kc, nc)` cache blockings (the default blocking is
    /// always added to the field).
    pub candidates: Vec<(usize, usize, usize)>,
}

impl TuneBudget {
    /// CI smoke budget: one tiny shape, two candidates, ~100 ms total.
    pub fn quick() -> TuneBudget {
        TuneBudget {
            samples: 2,
            rate_size: 96,
            shapes: vec![(96, 96, 96)],
            candidates: vec![(64, 64, 128)],
        }
    }

    /// The real sweep: square + tall-panel shapes, a 2-axis blocking grid.
    pub fn full() -> TuneBudget {
        TuneBudget {
            samples: 5,
            rate_size: 384,
            shapes: SHAPES.to_vec(),
            candidates: vec![
                (64, 128, 256),
                (64, 256, 512),
                (128, 128, 512),
                (128, 512, 512),
                (256, 256, 512),
                (256, 512, 1024),
            ],
        }
    }
}

/// The GEMM shapes [`TuneBudget::full`] races the candidate blockings on:
/// square and tall-panel × small-separator supernode updates.
const SHAPES: [(usize, usize, usize); 4] = [
    (256, 256, 256),
    (512, 512, 512),
    (1024, 128, 128),
    (2048, 64, 64),
];

/// The square GEMM sizes the pack/no-pack crossover scan times.
pub const CROSSOVER_SIZES: [usize; 9] = [8, 12, 16, 20, 24, 28, 32, 40, 48];

/// `n` deterministic operand values in [-2, 2.5]; `seed` shifts the pattern.
pub fn fill(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|v| (((v * 13 + seed * 7) % 19) as f64) * 0.25 - 2.0)
        .collect()
}

/// Diagonally dominant symmetric `n × n` matrix, column-major: the POTRF
/// input, and once factored the TRSM one.
pub fn spd(n: usize) -> Vec<f64> {
    let mut a = fill(n * n, 3);
    for i in 0..n {
        a[i * n + i] = a[i * n + i].abs() + 4.0 * n as f64;
    }
    for j in 0..n {
        for i in 0..j {
            a[j * n + i] = a[i * n + j];
        }
    }
    a
}

/// Median wall-clock seconds per call of `f` over `samples` timing windows.
pub fn median_secs<F: FnMut()>(mut f: F, samples: usize) -> f64 {
    // Warm-up, timed: sizes the repetition count so every sample window is
    // a few milliseconds long — single-call windows are pure scheduler
    // noise for the small shapes the threshold scans use.
    let t0 = Instant::now();
    f();
    let warm = t0.elapsed().as_secs_f64();
    let reps = ((0.004 / warm.max(1e-9)) as usize).clamp(1, 20_000);
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Time the square GEMM of every size `n` in `sizes` through the unpacked
/// loop nest and through the packed core under `cfg`: one `(n, unpacked
/// seconds, packed seconds)` row per size, in order.
pub fn crossover_scan(
    cfg: &KernelConfig,
    sizes: &[usize],
    samples: usize,
) -> Vec<(usize, f64, f64)> {
    sizes
        .iter()
        .map(|&n| {
            let a = fill(n * n, 1);
            let b = fill(n * n, 2);
            let mut c = vec![0.0; n * n];
            let tu = median_secs(
                || gemm_nt_unpacked_raw(&mut c, n, n, n, &a, n, &b, n, n),
                samples,
            );
            let tp = median_secs(
                || gemm_nt_packed_raw(cfg, &mut c, n, n, n, &a, n, &b, n, n),
                samples,
            );
            (n, tu, tp)
        })
        .collect()
}

/// The calibrated `pack_min_flops`: the flop count of the first scanned size
/// at which the packed core is no slower than the unpacked loop nest, or the
/// default threshold when packing never wins in the scan (e.g. under
/// emulation).
fn pack_min_flops(scan: &[(usize, f64, f64)]) -> u64 {
    scan.iter()
        .find(|&&(_, unpacked, packed)| packed <= unpacked)
        .map_or(KernelConfig::default().pack_min_flops, |&(n, ..)| {
            flops::gemm(n, n, n)
        })
}

/// Seconds the packed GEMM engine spends on `shapes` under `cfg`.
fn sweep_secs(cfg: &KernelConfig, shapes: &[(usize, usize, usize)], samples: usize) -> f64 {
    shapes
        .iter()
        .map(|&(m, n, k)| {
            let a = fill(m * k, 1);
            let b = fill(n * k, 2);
            let mut c = vec![0.0; m * n];
            median_secs(
                || gemm_nt_packed_raw(cfg, &mut c, m, m, n, &a, m, &b, n, k),
                samples,
            )
        })
        .sum()
}

/// Streaming memory bandwidth (bytes/second) via a large out-of-cache copy:
/// each element is read once and written once.
fn measure_bandwidth(samples: usize) -> f64 {
    let n = 4 << 20; // 32 MB per buffer: far beyond L2, beyond most L3 slices
    let src = fill(n, 1);
    let mut dst = vec![0.0f64; n];
    let secs = median_secs(
        || {
            dst.copy_from_slice(&src);
            std::hint::black_box(&mut dst);
        },
        samples,
    );
    (16 * n) as f64 / secs
}

/// Run the calibration sweep and fit a [`KernelProfile`].
///
/// Deterministic in *structure* (always returns a valid profile with the
/// budget's candidate set considered), measured in *values* — rates and the
/// winning config depend on the machine and its load.
pub fn calibrate(budget: &TuneBudget) -> KernelProfile {
    // 1. Candidate cache blockings compete on the shape grid.
    let mut candidates: Vec<KernelConfig> = vec![KernelConfig::default()];
    for &(mc, kc, nc) in &budget.candidates {
        let c = KernelConfig {
            mc,
            kc,
            nc,
            ..Default::default()
        };
        if c.validate().is_ok() {
            candidates.push(c);
        }
    }
    let mut best = 0usize;
    let mut best_secs = f64::INFINITY;
    for (i, c) in candidates.iter().enumerate() {
        let secs = sweep_secs(c, &budget.shapes, budget.samples);
        if secs < best_secs {
            best_secs = secs;
            best = i;
        }
    }
    let mut config = candidates.swap_remove(best);

    // 2. Machine constants under the winning blocking.
    let mem_bandwidth = measure_bandwidth(budget.samples);
    let n = budget.rate_size;
    let a = fill(n * n, 1);
    let b = fill(n * n, 2);
    let mut c = vec![0.0; n * n];
    let gemm_rate = flops::gemm(n, n, n) as f64
        / median_secs(
            || gemm_nt_packed_raw(&config, &mut c, n, n, n, &a, n, &b, n, n),
            budget.samples,
        );
    let mut cs = vec![0.0; n * n];
    let syrk_rate = flops::syrk(n, n) as f64
        / median_secs(
            || syrk_lower_raw(&config, &mut cs, n, n, &a, n, n),
            budget.samples,
        );
    let spd = spd(n);
    let mut buf = spd.clone();
    let potrf_rate = flops::potrf(n) as f64
        / median_secs(
            || {
                buf.copy_from_slice(&spd);
                potrf_raw(&config, &mut buf, n, n).expect("spd input");
            },
            budget.samples,
        );
    let mut lf = spd.clone();
    potrf_raw(&config, &mut lf, n, n).expect("spd input");
    let m = 2 * n;
    let b0 = fill(m * n, 5);
    let mut bt = b0.clone();
    let trsm_rate = flops::trsm(m, n) as f64
        / median_secs(
            || {
                bt.copy_from_slice(&b0);
                trsm_right_lower_trans_raw(&config, &mut bt, m, m, n, &lf, n);
            },
            budget.samples,
        );

    // 3. Dispatch threshold from the measured machine.
    config.pack_min_flops =
        pack_min_flops(&crossover_scan(&config, &CROSSOVER_SIZES, budget.samples));

    KernelProfile {
        isa: microkernel::isa_name().to_string(),
        mem_bandwidth,
        gemm_rate,
        syrk_rate,
        trsm_rate,
        potrf_rate,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> KernelProfile {
        KernelProfile {
            isa: "avx2+fma".into(),
            mem_bandwidth: 21474836480.5,
            gemm_rate: 9.123456789012e9,
            syrk_rate: 0.1 + 8.0e9,
            trsm_rate: 5.5e9,
            potrf_rate: 3.9e9,
            config: KernelConfig {
                mc: 64,
                kc: 192,
                pack_min_flops: 13_824,
                ..Default::default()
            },
        }
    }

    #[test]
    fn json_roundtrip_is_byte_identical() {
        let p = sample_profile();
        let j1 = p.to_json();
        let q = KernelProfile::from_json(&j1).unwrap();
        assert_eq!(q, p);
        assert_eq!(q.to_json(), j1, "save → load → save must be byte-stable");
    }

    #[test]
    fn profile_saved_in_the_indented_layout_loads_and_resaves_compact() {
        // `sample_profile()` as the indented writer of earlier versions
        // saved it.
        let pretty = r#"{
  "schema": "sympack-kernel-profile-v2",
  "isa": "avx2+fma",
  "mem_bandwidth": 21474836480.5,
  "rates": {"gemm": 9123456789.012, "syrk": 8000000000.1, "trsm": 5500000000, "potrf": 3900000000},
  "config": {"mc": 64, "kc": 192, "nc": 512, "pack_min_flops": 13824}
}
"#;
        let compact = concat!(
            r#"{"schema":"sympack-kernel-profile-v2","isa":"avx2+fma","mem_bandwidth":21474836480.5,"#,
            r#""rates":{"gemm":9123456789.012,"syrk":8000000000.1,"trsm":5500000000,"potrf":3900000000},"#,
            r#""config":{"mc":64,"kc":192,"nc":512,"pack_min_flops":13824}}"#,
            "\n"
        );
        let p = KernelProfile::from_json(pretty).unwrap();
        assert_eq!(p, sample_profile());
        assert_eq!(p.to_json(), compact);
        assert_eq!(KernelProfile::from_json(compact).unwrap(), p);
    }

    #[test]
    fn pack_min_flops_is_the_first_size_where_packing_is_no_slower() {
        let at = |n| flops::gemm(n, n, n);
        // Ties count as a win for the packed core.
        assert_eq!(
            pack_min_flops(&[(8, 1.0, 2.0), (12, 1.0, 1.0), (16, 1.0, 0.5)]),
            at(12)
        );
        // The first win decides, even when a larger size loses again.
        assert_eq!(
            pack_min_flops(&[(8, 1.0, 0.9), (12, 1.0, 1.5), (16, 1.0, 0.5)]),
            at(8)
        );
        let default = KernelConfig::default().pack_min_flops;
        assert_eq!(pack_min_flops(&[(8, 1.0, 2.0), (48, 1.0, 1.1)]), default);
        assert_eq!(pack_min_flops(&[]), default);
    }

    #[test]
    fn crossover_scan_times_every_size_in_order() {
        let scan = crossover_scan(&KernelConfig::default(), &[8, 16], 1);
        assert_eq!(scan.iter().map(|r| r.0).collect::<Vec<_>>(), [8, 16]);
        assert!(scan.iter().all(|&(_, tu, tp)| tu > 0.0 && tp > 0.0));
    }

    #[test]
    fn wrong_schema_and_missing_fields_are_typed_rejections() {
        let bad = sample_profile().to_json().replace(SCHEMA, "bogus-v0");
        assert!(matches!(
            KernelProfile::from_json(&bad),
            Err(TuneError::Schema(_))
        ));
        assert!(matches!(
            KernelProfile::from_json("{not json"),
            Err(TuneError::Json(_))
        ));
        let no_rates = sample_profile().to_json().replace("\"rates\"", "\"ratez\"");
        assert!(matches!(
            KernelProfile::from_json(&no_rates),
            Err(TuneError::Schema(_))
        ));
    }

    #[test]
    fn invalid_config_in_profile_is_rejected() {
        // mc = 65 is a multiple of no register tile's strip height.
        let j = sample_profile().to_json().replace("\"mc\":64", "\"mc\":65");
        assert!(matches!(
            KernelProfile::from_json(&j),
            Err(TuneError::Schema(_))
        ));
    }

    #[test]
    fn a_fractional_config_field_is_not_truncated() {
        let mc = |v: &str| {
            let j = sample_profile()
                .to_json()
                .replace("\"mc\":64", &format!("\"mc\":{v}"));
            KernelProfile::from_json(&j).map(|p| p.config.mc)
        };
        assert_eq!(mc("96").unwrap(), 96);
        match mc("96.5") {
            Err(TuneError::Schema(e)) => assert!(e.contains("`mc`"), "{e}"),
            other => panic!("expected a schema error, got {other:?}"),
        }
    }

    #[test]
    fn cost_model_carries_measured_rates() {
        let p = sample_profile();
        let m = p.cost_model();
        assert_eq!(m.cpu_gemm, p.gemm_rate);
        assert_eq!(m.cpu_potrf, p.potrf_rate);
        // GPU side untouched.
        assert_eq!(m.gpu_gemm, CostModel::default().gpu_gemm);
    }

    #[test]
    fn quick_calibration_runs_end_to_end() {
        let p = calibrate(&TuneBudget::quick());
        p.config.validate().unwrap();
        assert!(p.gemm_rate > 0.0 && p.syrk_rate > 0.0);
        assert!(p.trsm_rate > 0.0 && p.potrf_rate > 0.0);
        assert!(p.mem_bandwidth > 0.0);
        assert!(!p.isa.is_empty());
        // And the fitted profile round-trips bit-stably through its file:
        // save → load → save writes the same bytes.
        let dir = std::env::temp_dir().join(format!("sympack-tune-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (first, second) = (dir.join("first.json"), dir.join("second.json"));
        p.save(&first).unwrap();
        let loaded = KernelProfile::load(&first).unwrap();
        assert_eq!(loaded, p);
        loaded.save(&second).unwrap();
        assert_eq!(
            std::fs::read(&first).unwrap(),
            std::fs::read(&second).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_or_calibrate_caches_and_reloads_byte_identically() {
        let dir = std::env::temp_dir().join(format!("sympack-tune-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        let _ = std::fs::remove_file(&path);
        let p1 = KernelProfile::load_or_calibrate(&path, &TuneBudget::quick()).unwrap();
        let bytes1 = std::fs::read_to_string(&path).unwrap();
        // Second call must load the cache, not re-measure.
        let p2 = KernelProfile::load_or_calibrate(&path, &TuneBudget::quick()).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p2.to_json(), bytes1);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn profile_from_another_isa_is_remeasured_and_overwritten() {
        let dir = std::env::temp_dir().join(format!("sympack-tune-isa-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        // A cache written on a machine with another microkernel: blocking
        // fitted to an 8×4 tile (valid there, not under 16×8) and rates no
        // kernel of this machine produced.
        let here = microkernel::isa_name();
        let elsewhere = if here == "portable" {
            "avx512"
        } else {
            "portable"
        };
        let other_isa = KernelProfile {
            isa: elsewhere.into(),
            gemm_rate: 1.0,
            config: KernelConfig {
                mc: 72,
                nc: 36,
                ..Default::default()
            },
            ..sample_profile()
        };
        // A cache of this machine under the previous schema magic (v1 files
        // carry keys this version no longer has): re-measured whole, never
        // read key by key with the unknown ones dropped.
        let v1 = KernelProfile {
            isa: here.into(),
            gemm_rate: 1.0,
            ..sample_profile()
        }
        .to_json()
        .replace(SCHEMA, "sympack-kernel-profile-v1");
        for stale in [other_isa.to_json(), v1] {
            std::fs::write(&path, stale).unwrap();
            let p = KernelProfile::load_or_calibrate(&path, &TuneBudget::quick()).unwrap();
            assert_eq!(p.isa, here);
            assert!(p.gemm_rate > 1.0, "rates must be re-measured");
            p.config.validate().unwrap();
            let cached = KernelProfile::load(&path).unwrap();
            assert_eq!(cached, p, "the stale cache must be overwritten");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
