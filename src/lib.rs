#![warn(missing_docs)]

//! # gpu-cluster-bfs
//!
//! A Rust reproduction of *Scalable Breadth-First Search on a GPU Cluster*
//! (Pan, Pearce, Owens; IPDPS 2018) on a simulated GPU cluster.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] — generators (RMAT, power-law, web-like), CSR, reference BFS;
//! * [`cluster`] — the simulated GPU cluster: topology, collectives, and the
//!   network/device cost model that plays the role of the LLNL *Ray*
//!   machine;
//! * [`core`] — the paper's contribution: degree separation, the edge
//!   distributor, four-subgraph storage, direction-optimized local
//!   traversal, and the scalable communication model;
//! * [`baseline`] — single-processor BFS/DOBFS and 1D/2D-partitioned
//!   distributed baselines for comparison;
//! * [`obs`] — structured observability: typed spans in modeled-time
//!   coordinates, the metrics registry, Chrome-trace/JSON-lines exporters,
//!   and the critical-path analyzer;
//! * [`serve`] — the multi-tenant traversal serving layer: admission
//!   queue with token-bucket rate limits and weighted-fair scheduling,
//!   the MS-BFS batching scheduler, and deterministic SLO metrics.
//!
//! ## Quickstart
//!
//! ```
//! use gpu_cluster_bfs::prelude::*;
//!
//! // A scale-10 Graph500 RMAT graph (1024 vertices, ~32k directed edges).
//! let graph = RmatConfig::graph500(10).generate();
//!
//! // A simulated cluster: 2 ranks x 2 GPUs, Ray-like cost model.
//! let topology = Topology::new(2, 2);
//!
//! // Distributed direction-optimized BFS with degree threshold 16.
//! let config = BfsConfig::new(16).with_direction_optimization(true);
//! let dist = DistributedGraph::build(&graph, topology, &config).unwrap();
//! let result = dist.run(0, &config).unwrap();
//!
//! // Validate against the sequential reference.
//! let csr = Csr::from_edge_list(&graph);
//! assert_eq!(result.depths, gpu_cluster_bfs::graph::reference::bfs_depths(&csr, 0));
//! ```

pub use gcbfs_baseline as baseline;
pub use gcbfs_cluster as cluster;
pub use gcbfs_compress as compress;
pub use gcbfs_core as core;
pub use gcbfs_graph as graph;
pub use gcbfs_serve as serve;
pub use gcbfs_trace as obs;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use gcbfs_cluster::cost::{CostModel, DeviceModel, NetworkModel};
    pub use gcbfs_cluster::topology::Topology;
    pub use gcbfs_core::config::BfsConfig;
    pub use gcbfs_core::driver::{BfsResult, DistributedGraph};
    pub use gcbfs_core::incremental::{EvolvingGraph, RepairReport};
    pub use gcbfs_core::mutation::{MutationBatch, MutationLog};
    pub use gcbfs_core::pagerank::PageRankConfig;
    pub use gcbfs_core::verify::{DistributedValidation, VerificationMode};
    pub use gcbfs_graph::{Csr, EdgeList, PowerLawConfig, RmatConfig, WebGraphConfig};
    pub use gcbfs_serve::{BatchPolicy, TenantSpec, TraversalService, WorkloadSpec};
}
