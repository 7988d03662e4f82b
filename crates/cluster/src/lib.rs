#![warn(missing_docs)]

//! Simulated GPU cluster substrate.
//!
//! The paper runs on the LLNL *Ray* CORAL early-access machine: nodes with
//! 2 MPI ranks × 2 P100 GPUs (NVLink intra-node, 100 Gb/s EDR InfiniBand
//! inter-node, all NIC–GPU traffic staged through CPU memory). None of that
//! hardware is available here, so this crate *is* the machine:
//!
//! * [`topology`] — the `prank × pgpu` device grid and id arithmetic;
//! * [`collectives`] — MPI-like collectives executed over real data:
//!   two-phase bit-or allreduce (local GPU→GPU0 reduce, then cross-rank),
//!   barriers, local all-to-all. The BSP loop that calls them is
//!   `gcbfs_core::driver`; this crate holds no superstep engine;
//! * [`cost`] — the analytic network + device cost model that converts the
//!   *measured byte volumes and edge workloads* of a run into modeled Ray
//!   time. All scaling figures in the paper are regenerated against this
//!   model; real wall-clock of the Rust execution is reported separately.
//! * [`fault`] — the deterministic fault-injection layer (the "chaos
//!   fabric"): seeded message drops, scheduled fail-stop GPU losses,
//!   delegate-mask corruption, and NIC degradation windows, with typed
//!   detection errors surfaced at superstep boundaries. A
//!   fail-stopped GPU is dead at the first superstep barrier it misses,
//!   the same rule the real-process backend in `gcbfs-core` applies to a
//!   worker whose connection closed.
//!
//! The four runtime phases and the one fold of a superstep's per-GPU
//! phase times into its cluster timing (`PhaseTag`, `PhaseTimes`,
//! `IterationTiming::from_lanes`) are not here: they live in
//! `gcbfs-trace`, the dependency-free leaf crate this one builds on.

pub mod collectives;
pub mod cost;
pub mod fault;
pub mod topology;

pub use cost::{CostModel, DeviceModel, NetworkModel};
pub use fault::{FaultError, FaultInjector, FaultPlan};
pub use topology::{GpuId, Topology};
