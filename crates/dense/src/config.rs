//! Runtime kernel configuration.
//!
//! What is data is what the tuner fits: the BLIS cache blocking of the
//! packed core (`mc/kc/nc`) and the flop count at which packing starts to
//! pay (`pack_min_flops`), plus the ISA selection. They live in one
//! [`KernelConfig`] value that callers construct once, validate, and thread
//! explicitly through every dense entry point. Everything else that blocks a
//! loop is a constant beside the loop that reads it — [`crate::gemm::NB`] /
//! [`KB`](crate::gemm::KB), [`crate::syrk::DB`], [`crate::trsm::JB`] /
//! [`SJ`](crate::trsm::SJ) / [`RS`](crate::trsm::RS), [`crate::potrf::PB`] /
//! [`IB`](crate::potrf::IB), [`crate::panel::SB`] — because nothing outside
//! a test ever computed a second value for one. The register tile is not
//! configuration either: it is a property of the ISA the config resolves to
//! ([`Isa::tile`]), and [`KernelConfig::validate`] checks the cache blocks
//! against that tile.
//!
//! [`KernelConfig::default`] is what the deterministic test suites pin.
//! Calibrated configs come from the `sympack-tune` sweep (see `crates/tune`).

use crate::microkernel::Isa;
use std::fmt;

/// Instruction-set selection policy for the microkernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaSelect {
    /// The widest ISA the machine has (the default; every ISA computes the
    /// same bits, so this only chooses speed).
    Auto,
    /// Force the baseline scalar/SSE2 code path.
    Portable,
    /// Require AVX2+FMA; validation fails where the features are missing.
    Avx2Fma,
    /// Require AVX-512F; validation fails where the feature is missing.
    Avx512,
}

/// Typed rejection of an invalid [`KernelConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A blocking parameter is zero.
    ZeroBlock {
        /// Name of the offending field.
        field: &'static str,
    },
    /// A cache block is not a whole number of register tiles of the ISA the
    /// config resolves to on this machine.
    NotMultiple {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: usize,
        /// The required divisor (`mr` or `nr` of the tile).
        of: usize,
        /// Name of the resolved ISA whose tile imposes the divisor.
        isa: &'static str,
    },
    /// The requested ISA is not available on this machine.
    IsaUnavailable {
        /// Name of the requested ISA.
        requested: &'static str,
    },
    /// A block low-rank compression parameter is out of range
    /// (see [`crate::lowrank::BlrConfig::validate`]).
    InvalidBlr {
        /// Name of the offending field.
        field: &'static str,
        /// Why the value was rejected.
        why: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroBlock { field } => {
                write!(f, "kernel config: `{field}` must be nonzero")
            }
            ConfigError::NotMultiple {
                field,
                value,
                of,
                isa,
            } => write!(
                f,
                "kernel config: `{field}` = {value} must be a multiple of {of} \
                 (register tile of the `{isa}` microkernel)"
            ),
            ConfigError::IsaUnavailable { requested } => write!(
                f,
                "kernel config: ISA `{requested}` is not available on this machine"
            ),
            ConfigError::InvalidBlr { field, why } => {
                write!(f, "blr config: `{field}` {why}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Runtime cache blocking and packed-dispatch configuration for the dense
/// kernels: the four numbers `sympack-tune` fits, and the ISA selection.
///
/// Construct (or start from [`KernelConfig::default`]), adjust fields, then
/// [`validate`](KernelConfig::validate) before handing the value to a kernel
/// engine. All dense `_cfg` entry points assume a validated config; the
/// convenience wrappers without a config argument use the default.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelConfig {
    /// Row cache block of the packed GEMM core: the packed `mc × kc` A panel
    /// stays L2-resident. Must be a multiple of the resolved tile's `mr`.
    pub mc: usize,
    /// Inner-product cache block: one packed A strip (`mr × kc`) plus one
    /// packed B strip (`kc × nr`) should fit in L1 together.
    pub kc: usize,
    /// Column cache block bounding the packed B panel (`kc × nc`). Must be a
    /// multiple of the resolved tile's `nr`.
    pub nc: usize,
    /// Below this flop count a GEMM-shaped call runs the unpacked loop nest
    /// (packing would not amortize).
    pub pack_min_flops: u64,
    /// Microkernel instruction-set selection.
    pub isa: IsaSelect,
}

impl Default for KernelConfig {
    fn default() -> Self {
        // The deterministic test suites pin these values.
        KernelConfig {
            mc: 128,
            kc: 256,
            nc: 512,
            pack_min_flops: 28 * 1024,
            isa: IsaSelect::Auto,
        }
    }
}

impl KernelConfig {
    /// Check the blocking invariants the kernels rely on.
    ///
    /// # Errors
    /// [`ConfigError::ZeroBlock`] for a zero cache block,
    /// [`ConfigError::IsaUnavailable`] when a forced ISA is missing on this
    /// machine, and [`ConfigError::NotMultiple`] when `mc` is not a
    /// multiple of `mr`, or `nc` of `nr`, of the resolved ISA's
    /// [`Isa::tile`] — so a blocking tuned under one ISA can be invalid
    /// under another.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, v) in [("mc", self.mc), ("kc", self.kc), ("nc", self.nc)] {
            if v == 0 {
                return Err(ConfigError::ZeroBlock { field });
            }
        }
        let isa = self.resolve_isa()?;
        let (mr, nr) = isa.tile();
        for (field, value, of) in [("mc", self.mc, mr), ("nc", self.nc, nr)] {
            if !value.is_multiple_of(of) {
                return Err(ConfigError::NotMultiple {
                    field,
                    value,
                    of,
                    isa: isa.name(),
                });
            }
        }
        Ok(())
    }

    /// Resolve the ISA selection policy to a concrete microkernel ISA.
    ///
    /// # Errors
    /// [`ConfigError::IsaUnavailable`] when a forced ISA is missing.
    pub fn resolve_isa(&self) -> Result<Isa, ConfigError> {
        let requested = match self.isa {
            IsaSelect::Auto => return Ok(crate::microkernel::isa()),
            IsaSelect::Portable => Isa::Portable.name(),
            IsaSelect::Avx2Fma => "avx2+fma",
            IsaSelect::Avx512 => "avx512",
        };
        // By name: the wide variants of `Isa` only exist on x86-64.
        Isa::ALL
            .iter()
            .copied()
            .find(|i| i.name() == requested && i.available())
            .ok_or(ConfigError::IsaUnavailable { requested })
    }

    /// The resolved ISA of a *validated* config.
    ///
    /// # Panics
    /// Panics when a forced ISA is unavailable — call
    /// [`validate`](KernelConfig::validate) first.
    #[inline]
    pub(crate) fn isa(&self) -> Isa {
        self.resolve_isa().expect("validated config")
    }

    /// `(name, value)` pairs of the cache blocks and the dispatch threshold,
    /// in a fixed order — the serialization and table-printing order of the
    /// tuning profile.
    pub fn fields(&self) -> [(&'static str, u64); 4] {
        [
            ("mc", self.mc as u64),
            ("kc", self.kc as u64),
            ("nc", self.nc as u64),
            ("pack_min_flops", self.pack_min_flops),
        ]
    }

    /// Set a field by its [`fields`](KernelConfig::fields) name (profile
    /// deserialization and `--config k=v` command lines). Unknown names are
    /// rejected so typos cannot silently tune nothing.
    ///
    /// # Errors
    /// A human-readable message for unknown field names.
    pub fn set_field(&mut self, name: &str, value: u64) -> Result<(), String> {
        let v = value as usize;
        match name {
            "mc" => self.mc = v,
            "kc" => self.kc = v,
            "nc" => self.nc = v,
            "pack_min_flops" => self.pack_min_flops = value,
            other => return Err(format!("unknown kernel config field `{other}`")),
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_historical_constants() {
        use crate::{gemm, panel, potrf, syrk, trsm};
        let c = KernelConfig::default();
        c.validate().unwrap();
        assert_eq!((c.mc, c.kc, c.nc), (128, 256, 512));
        assert_eq!(c.pack_min_flops, 28 * 1024);
        // The blocking constants carry the defaults of the fields they
        // replaced, which the pinned fingerprints were captured under.
        assert_eq!((gemm::NB, gemm::KB, syrk::DB), (64, 128, 48));
        assert_eq!((trsm::JB, trsm::SJ, trsm::RS), (64, 16, 128));
        assert_eq!((potrf::PB, potrf::IB, panel::SB), (48, 8, 64));
    }

    #[test]
    fn zero_blocks_are_rejected_with_typed_error() {
        for field in ["mc", "kc", "nc"] {
            let mut c = KernelConfig::default();
            c.set_field(field, 0).unwrap();
            match c.validate() {
                Err(ConfigError::ZeroBlock { field: f }) => assert_eq!(f, field),
                other => panic!("{field}=0: expected ZeroBlock, got {other:?}"),
            }
        }
    }

    /// The default config forced to each ISA this machine has, with the
    /// resolution; the rest are reported, never skipped silently. Shared by
    /// the unit tests of `microkernel` and `pack`.
    pub(crate) fn forced_isas() -> Vec<(KernelConfig, Isa)> {
        let mut out = Vec::new();
        for isa in [IsaSelect::Portable, IsaSelect::Avx2Fma, IsaSelect::Avx512] {
            let cfg = KernelConfig {
                isa,
                ..Default::default()
            };
            match cfg.resolve_isa() {
                Ok(resolved) => out.push((cfg, resolved)),
                Err(e) => println!("skipped {isa:?}: {e}"),
            }
        }
        out
    }

    /// Sizes on both sides of a blocking constant and past its second block:
    /// what the kernels' unit tests cross each constant with.
    pub(crate) fn edges(c: usize) -> [usize; 4] {
        [c - 1, c, c + 1, 2 * c + 3]
    }

    /// A valid non-default config for this machine's widest ISA: cache blocks
    /// a few register tiles wide and the packed core forced on, so modest
    /// shapes cross every `mc`/`kc`/`nc` edge. Shared by the kernels' unit
    /// tests.
    pub(crate) fn tiny_blocks() -> KernelConfig {
        let (mr, nr) = crate::microkernel::isa().tile();
        let cfg = KernelConfig {
            mc: 2 * mr,
            kc: 16,
            nc: 3 * nr,
            pack_min_flops: 0,
            ..Default::default()
        };
        cfg.validate().unwrap();
        cfg
    }

    #[test]
    fn misaligned_cache_blocks_are_rejected() {
        for (base, resolved) in forced_isas() {
            let isa = base.isa;
            let (mr, nr) = resolved.tile();
            for (field, bad) in [("mc", mr + 1), ("nc", nr + 1)] {
                let mut c = base.clone();
                c.set_field(field, bad as u64).unwrap();
                match c.validate() {
                    Err(ConfigError::NotMultiple {
                        field: f,
                        of,
                        isa: name,
                        ..
                    }) => {
                        assert_eq!(f, field);
                        assert_eq!(of, if field == "nc" { nr } else { mr });
                        assert_eq!(name, resolved.name());
                    }
                    other => panic!("{isa:?} {field}: expected NotMultiple, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn default_blocking_is_valid_under_every_isa_and_tiles_are_per_isa() {
        for (c, resolved) in forced_isas() {
            let isa = c.isa;
            c.validate().unwrap();
            // A blocking tuned under the 8×4 tiles (mc = 72, nc = 36) is a
            // typed error under a wider tile, never a panic in a kernel.
            let c = KernelConfig {
                mc: 72,
                nc: 36,
                isa,
                ..Default::default()
            };
            match (resolved.tile().0, c.validate()) {
                (8, Ok(())) => {}
                (16, Err(ConfigError::NotMultiple { field, of, .. })) => {
                    assert_eq!((field, of), ("mc", 16));
                }
                (mr, other) => panic!("{isa:?} (mr = {mr}): {other:?}"),
            }
        }
        // Auto resolves to the widest available ISA.
        let auto = KernelConfig::default().resolve_isa().unwrap();
        assert!(forced_isas()
            .iter()
            .all(|(_, r)| r.tile().0 <= auto.tile().0));
    }

    #[test]
    fn portable_isa_is_always_available() {
        let c = KernelConfig {
            isa: IsaSelect::Portable,
            ..Default::default()
        };
        c.validate().unwrap();
        assert_eq!(c.resolve_isa().unwrap(), Isa::Portable);
    }

    #[test]
    fn field_roundtrip_covers_every_field() {
        let mut c = KernelConfig::default();
        for (name, v) in KernelConfig::default().fields() {
            c.set_field(name, v + 8).unwrap();
        }
        for ((_, got), (_, orig)) in c.fields().iter().zip(KernelConfig::default().fields()) {
            assert_eq!(*got, orig + 8);
        }
        assert!(c.set_field("bogus", 1).is_err());
    }

    #[test]
    fn error_display_names_the_field() {
        let e = ConfigError::ZeroBlock { field: "kc" };
        assert!(e.to_string().contains("kc"));
        let e = ConfigError::NotMultiple {
            field: "mc",
            value: 9,
            of: 8,
            isa: "portable",
        };
        assert!(e.to_string().contains("multiple of 8"));
        assert!(e.to_string().contains("`portable`"));
    }
}
