//! A PGAS runtime substrate modeled on UPC++ (the library symPACK uses).
//!
//! The paper's communication paradigm (§3.4) relies on four UPC++ features:
//! global pointers to remote memory, one-sided RMA (`rget`), remote
//! procedure calls drained by `progress()`, and *memory kinds* — global
//! pointers into GPU memory with `upcxx::copy()` moving data between any two
//! memories in the system (§4.1).
//!
//! There is no UPC++/GASNet-EX ecosystem in Rust, and this reproduction runs
//! on one machine, so this crate substitutes a faithful single-process
//! model (documented in `DESIGN.md`):
//!
//! * **ranks are OS threads** inside one process; every rank owns a shared
//!   segment table that other ranks can read/write one-sidedly,
//! * **messages are values** of the region's one type `M`
//!   ([`Runtime::spmd`]): [`Rank::send`] queues one at the target over a
//!   [`Wire`], whose [`Rank::progress`] hands it to the draining loop's
//!   handler — UPC++'s RPC semantics, the procedure named, not shipped,
//! * **data really arrives** (the factorization is numerically real) — by
//!   reference where the whole of a segment is moved, since all ranks share
//!   one address space ([`Payload`]), by copy otherwise — while
//!   *time* is **virtual**: each rank advances a logical clock by a
//!   calibrated cost model ([`netmodel::NetModel`]) for every transfer and
//!   by caller-supplied kernel costs for compute. Messages carry their
//!   virtual availability time; consuming one advances the receiver's clock
//!   to at least that time. The run's makespan is the maximum final clock,
//!   which is what the strong-scaling experiments report.
//! * **memory kinds** are modeled by tagging segments `Host` or `Device` and
//!   routing transfers through the matching cost path: `Native` (GPUDirect
//!   RDMA, single zero-copy leg) or `Reference` (staged through host
//!   memory, extra legs + latency), reproducing the paper's Fig. 5 contrast.

pub mod coalesce;
pub mod faults;
pub mod netmodel;
pub mod ptr;
pub mod rank;
pub mod runtime;
pub mod segment;
mod stats;
mod sync;
mod thunk;

pub use coalesce::{BcastPlan, BcastTopology, CoalesceConfig, Coalescer};
pub use faults::FaultPlan;
pub use netmodel::{MemKindsMode, NetModel};
pub use ptr::{GlobalPtr, MemKind};
pub use rank::{PgasError, Rank, RgetHandle, Wire};
pub use runtime::{PgasConfig, RunReport, Runtime};
pub use segment::Payload;
pub use stats::StatsSnapshot;
pub use sympack_trace::profile::CommMatrix;
