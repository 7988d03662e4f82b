#![warn(missing_docs)]

//! Graph substrate for the GPU-cluster BFS reproduction.
//!
//! This crate provides everything the paper's evaluation needs below the
//! BFS algorithm itself:
//!
//! * [`EdgeList`] and [`Csr`] — the standard graph representations the paper
//!   deliberately sticks to (§II-D);
//! * [`rmat`] — a Graph500-conformant RMAT generator (edge factor 16,
//!   `A,B,C,D = 0.57, 0.19, 0.19, 0.05`, deterministic vertex-id hashing);
//! * [`powerlaw`] — a Chung–Lu power-law generator standing in for the
//!   Friendster social graph (Figs. 12–13);
//! * [`webgraph`] — a long-tail web-like generator standing in for the
//!   WDC 2012 hyperlink graph (§VI-D);
//! * [`reference`](mod@reference) — a sequential reference BFS and a Graph500-style
//!   validator used as ground truth by every test in the workspace;
//! * [`builders`] — small deterministic graphs (paths, stars, grids, …) for
//!   unit tests;
//! * [`stats`] — degree statistics used when choosing the degree threshold.
//!
//! Vertex ids are global `u64` throughout this crate; the 32-bit local-id
//! machinery the paper uses on each GPU lives in `gcbfs-core`.

pub mod betweenness;
pub mod builders;
pub mod components;
pub mod csr;
pub mod delta;
pub mod edgelist;
pub mod io;
pub mod pagerank;
pub mod permute;
pub mod powerlaw;
pub mod reference;
pub mod rmat;
pub mod stats;
pub mod webgraph;
pub mod weighted;

pub use csr::Csr;
pub use delta::{CompactionStats, CsrDelta};
pub use edgelist::{EdgeList, VertexId};
pub use permute::VertexPermutation;
pub use powerlaw::PowerLawConfig;
pub use reference::{validate_depths, ValidationError};
pub use rmat::RmatConfig;
pub use webgraph::WebGraphConfig;
