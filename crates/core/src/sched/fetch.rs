//! The data-movement half of signal resolution (paper Fig. 4 step 5): turn
//! an advertised remote block into local data — a one-sided `rget` into
//! host memory, or, for GPU-bound blocks, a direct `copy()` into device
//! memory (the memory-kinds path of §4.2).

use crate::SolverError;
use sympack_gpu::OomPolicy;
use sympack_pgas::{GlobalPtr, MemKind, Payload, Rank};

/// How a fetched payload's arrival is charged to the virtual clock.
#[derive(Debug, Clone, Copy)]
pub enum FetchMode {
    /// One-sided: take the payload immediately and report the virtual time
    /// it becomes valid, without blocking the clock — the engine tracks
    /// per-task readiness itself to preserve communication/computation
    /// overlap (the fan-out path).
    NonBlocking,
    /// Two-sided flavored: block the virtual clock until the payload has
    /// arrived, then charge an MPI-style rendezvous `overhead` per message
    /// (the right-looking / fan-in baselines).
    Blocking {
        /// Per-message rendezvous charge, in seconds.
        overhead: f64,
    },
}

/// Configuration of the fetch path, copied per engine from its options.
#[derive(Debug, Clone, Copy)]
pub struct FetchConfig {
    /// Fetch into device memory when enabled and the block is large enough.
    pub device_enabled: bool,
    /// Blocks with at least this many elements take the device path.
    pub device_threshold: usize,
    /// Device-OOM fallback policy (§4.2).
    pub oom_policy: OomPolicy,
    /// Clock-accounting mode.
    pub mode: FetchMode,
}

impl FetchConfig {
    /// The fetch path of a factorization engine: when its kernels run with
    /// the GPU enabled, blocks of at least 64×64 elements go straight to
    /// device memory (§4.2); everything else is a host `rget`.
    pub fn for_engine(gpu_enabled: bool, oom_policy: OomPolicy, mode: FetchMode) -> Self {
        FetchConfig {
            device_enabled: gpu_enabled,
            device_threshold: 64 * 64,
            oom_policy,
            mode,
        }
    }
}

/// Bounded retry budget for transiently failing one-sided gets (fault
/// injection): the first attempt plus this many retries.
const MAX_FETCH_ATTEMPTS: u32 = 5;

/// Initial retry backoff (virtual seconds), doubling per attempt.
const FETCH_BACKOFF_BASE: f64 = 10.0e-6;

/// Fetch the payload behind `ptr` according to `cfg`. Returns the data and
/// the virtual time at which it is valid. This is the only
/// `rget`/device-copy resolution path in the solver. Either way the payload
/// is the publisher's buffer, shared: the device path reserves its quota
/// with an (unmaterialized) device segment, `copy()`s into it — a hand-over
/// for a whole segment — and reads the buffer back out before freeing it.
///
/// Under fault injection an rget attempt may time out transiently; the
/// fetch retries with bounded exponential backoff (charged to the virtual
/// clock) and surfaces [`SolverError::FetchTimeout`] when the budget runs
/// out — the caller routes that into the abort broadcast.
pub fn fetch<M>(
    rank: &mut Rank<M>,
    ptr: &GlobalPtr,
    cfg: &FetchConfig,
) -> Result<(Payload, f64), SolverError> {
    if cfg.device_enabled && ptr.len >= cfg.device_threshold {
        match rank.alloc(MemKind::Device, ptr.len) {
            Ok(dev) => {
                let done_at = rank.copy(ptr, &dev);
                let v = rank.read_local(&dev);
                rank.free(&dev);
                return Ok((v, done_at));
            }
            Err(e) => match cfg.oom_policy {
                // Fall through to the host rget below.
                OomPolicy::CpuFallback => {}
                OomPolicy::Abort => {
                    let sympack_pgas::PgasError::DeviceOom {
                        requested,
                        available,
                    } = e;
                    return Err(SolverError::DeviceOom {
                        requested,
                        available,
                        context: String::new(),
                    });
                }
            },
        }
    }
    let mut backoff = FETCH_BACKOFF_BASE;
    let mut handle = None;
    for _attempt in 0..MAX_FETCH_ATTEMPTS {
        match rank.try_rget(ptr) {
            Some(h) => {
                handle = Some(h);
                break;
            }
            None => {
                // Transient timeout: wait out the backoff window and retry.
                rank.advance(backoff);
                backoff *= 2.0;
            }
        }
    }
    let Some(h) = handle else {
        return Err(SolverError::FetchTimeout {
            attempts: MAX_FETCH_ATTEMPTS,
            context: String::new(),
        });
    };
    match cfg.mode {
        FetchMode::NonBlocking => {
            let ready = h.ready_at;
            Ok((h.into_data(), ready))
        }
        FetchMode::Blocking { overhead } => {
            let data = h.wait(rank);
            rank.advance(overhead);
            Ok((data, rank.now()))
        }
    }
}

/// Attach a signal's description to a fetch error's context slot, so the
/// report names the task/column that died.
pub(super) fn with_context(mut err: SolverError, ctx: String) -> SolverError {
    if let SolverError::DeviceOom { context, .. } | SolverError::FetchTimeout { context, .. } =
        &mut err
    {
        *context = ctx;
    }
    err
}
