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
//! * [`timing`] — phase accounting (computation / local communication /
//!   remote normal exchange / remote delegate reduce) with the
//!   stream-overlap rule of Fig. 3.

//! * [`fault`] — the deterministic fault-injection layer (the "chaos
//!   fabric"): seeded message drop/duplication/delay, scheduled fail-stop
//!   GPU losses, delegate-mask corruption, and NIC degradation windows,
//!   with typed detection errors surfaced at superstep boundaries.

//! * [`membership`] — elastic cluster membership on top of the fault
//!   layer: the simulator's modeled phi-accrual failure detector over
//!   per-superstep heartbeats (suspected vs confirmed-dead), the member
//!   lifecycle state machine, and the hot-spare pool that lets recovery
//!   restore *balance*, not just liveness. The real-process backend in
//!   `gcbfs-core` needs no detector: its workers are child processes, and
//!   one is dead when it exits.

pub mod collectives;
pub mod cost;
pub mod fault;
pub mod membership;
pub mod timing;
pub mod topology;

pub use cost::{CostModel, DeviceModel, NetworkModel};
pub use fault::{FaultError, FaultInjector, FaultPlan, JitteredBackoff};
pub use membership::{HeartbeatStatus, MemberState, Membership, MembershipConfig, MembershipEvent};
pub use timing::{IterationTiming, Phase, PhaseTimes};
pub use topology::{GpuId, Topology};
