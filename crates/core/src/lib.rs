#![warn(missing_docs)]

//! The paper's contribution: degree-separated distributed (DO)BFS.
//!
//! Pipeline (paper section → module):
//!
//! * §III-A vertex separation by out-degree → [`separation`];
//! * §III-B edge distributor (Algorithm 1) → [`distributor`];
//! * §III-C four-subgraph per-GPU storage with 32-bit local ids and the
//!   Table I memory accounting → [`subgraph`];
//! * §IV local computation: previsit + visit kernels on the delegate and
//!   normal streams → [`kernels`];
//! * §IV-B per-subgraph direction optimization with the `BV ≈ |U|(q+s)/q`
//!   workload estimator → [`direction`];
//! * §V communication: two-phase delegate mask reduction and point-to-point
//!   normal vertex exchange with binning / local-all2all / uniquify →
//!   [`comm`] (collectives live in `gcbfs-cluster`);
//! * §IV–V the BSP superstep loop (boundary → compute → reduce → exchange
//!   → commit → verify → record) → [`driver`], over the traversal steps
//!   both backends run on the GPUs they host → [`superstep`]; modeled Ray
//!   time per step → `pricing` (sim only); §VI per-iteration statistics
//!   and Graph500 TEPS reporting → [`stats`];
//! * §VI-D generalization: one value-carrying superstep (`propagate`)
//!   under [`msbfs`], [`sssp`], [`components`], [`pagerank`],
//!   [`betweenness`] and [`async_bfs`];
//! * delegate visited bitmasks → [`masks`]; run options → [`config`];
//! * resilience: checkpoint/restart → [`checkpoint`], retry and
//!   degraded-mode policy → [`recovery`], and the loop's optional fault
//!   layer that drives both → `chaos` (fault injection itself lives in
//!   `gcbfs_cluster::fault`);
//! * correctness armor: tiered online superstep verification and the
//!   distributed Graph500-style end-of-run validator → [`verify`];
//! * the backend seam and the real multi-process runtime → [`backend`],
//!   [`procrt`].

pub mod assemble;
pub mod async_bfs;
pub mod backend;
pub mod betweenness;
mod chaos;
pub mod checkpoint;
pub mod comm;
pub mod components;
pub mod config;
pub mod direction;
pub mod distributor;
pub mod driver;
pub mod incremental;
pub mod kernels;
pub mod masks;
pub mod msbfs;
pub mod mutation;
pub mod pagerank;
mod pricing;
pub mod procrt;
mod propagate;
pub mod recovery;
pub mod separation;
pub mod sssp;
pub mod stats;
pub mod subgraph;
pub mod superstep;
pub mod trace;
pub mod verify;

pub use config::BfsConfig;
pub use driver::{BfsResult, BuildError, DistributedGraph, RunError};
pub use incremental::{EvolvingGraph, RepairReport};
pub use mutation::{MutationBatch, MutationLog, MutationOp};
pub use recovery::RecoveryConfig;
pub use separation::Separation;
pub use stats::{FaultStats, RunStats};
pub use verify::{DistributedValidation, VerificationMode};

/// Depth marker for unreached vertices (matches `gcbfs_graph::reference`).
pub const UNREACHED: u32 = u32::MAX;
