//! The five workloads: what graph, what configuration, what one op is.
//!
//! Inputs are a pure function of `--seed`; the program under test only
//! ever receives the generated `EdgeList`. README.md records why each
//! workload exists and which layer does the work in it.

use gcbfs_cluster::topology::Topology;
use gcbfs_compress::CompressionMode;
use gcbfs_core::config::BfsConfig;
use gcbfs_graph::permute::splitmix64;
use gcbfs_graph::rmat::RmatConfig;
use gcbfs_graph::webgraph::WebGraphConfig;
use gcbfs_graph::EdgeList;

/// Sources per MS-BFS op (the lane width `serve` dispatches).
pub const BATCH: usize = 64;

/// How a workload's input graph is generated.
#[derive(Clone, Copy, Debug)]
pub enum GraphSpec {
    /// Graph500 RMAT of the given scale.
    Rmat(u32),
    /// The §VI-D WDC analogue: an RMAT core plus long chains.
    Web { core_scale: u32, chain_length: u64 },
}

impl GraphSpec {
    pub fn generate(self, seed: u64) -> EdgeList {
        match self {
            Self::Rmat(scale) => RmatConfig::graph500(scale).with_seed(seed).generate(),
            Self::Web { core_scale, chain_length } => {
                WebGraphConfig { chain_length, seed, ..WebGraphConfig::wdc_like(core_scale) }
                    .generate()
            }
        }
    }
}

/// What one timed op calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `DistributedGraph::run(src, &cfg)`.
    Single,
    /// `DistributedGraph::run_multi_source(&srcs64, &cfg)`.
    Batch,
    /// `ProcBackend::run(&graph, topo, src, &cfg, false)`.
    Proc,
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the long form is in README.md.
    pub why: &'static str,
    pub graph: GraphSpec,
    /// The `--smoke` stand-in (scale <= 12).
    pub smoke_graph: GraphSpec,
    pub ranks: u32,
    pub gpus_per_rank: u32,
    pub op: OpKind,
    /// Distinct ops cycled through by the timed loop (sources, or source
    /// sets for [`OpKind::Batch`]).
    pub distinct_ops: usize,
    config: fn() -> BfsConfig,
}

impl Workload {
    pub fn topology(&self) -> Topology {
        Topology::new(self.ranks, self.gpus_per_rank)
    }

    pub fn config(&self) -> BfsConfig {
        (self.config)()
    }

    /// Sources per op.
    pub fn sources_per_op(&self) -> usize {
        if self.op == OpKind::Batch {
            BATCH
        } else {
            1
        }
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "rmat20_dobfs",
        why: "ROADMAP's canonical point (RMAT 20, 16 GPUs, TH 64, DO on): kernel-bound, so a kernel or assembly gain shows here and nowhere else",
        graph: GraphSpec::Rmat(20),
        smoke_graph: GraphSpec::Rmat(12),
        ranks: 4,
        gpus_per_rank: 4,
        op: OpKind::Single,
        distinct_ops: 8,
        config: || BfsConfig::new(64),
    },
    Workload {
        name: "rmat17_topdown_codec",
        why: "RMAT 17, TH 1024, DO off, adaptive codecs, uniquify + local all2all: most edges are nn, so the exchange and the codecs are the op",
        graph: GraphSpec::Rmat(17),
        smoke_graph: GraphSpec::Rmat(11),
        ranks: 4,
        gpus_per_rank: 4,
        op: OpKind::Single,
        distinct_ops: 8,
        config: || {
            BfsConfig::new(1024)
                .with_direction_optimization(false)
                .with_compression(CompressionMode::Adaptive)
                .with_uniquify(true)
                .with_local_all2all(true)
        },
    },
    Workload {
        name: "web_longtail",
        why: "WDC-like core 14 with 300-vertex chains, TH 256: hundreds of near-empty supersteps, so per-superstep fixed cost (driver loop, fan-outs, collectives) is the op",
        graph: GraphSpec::Web { core_scale: 14, chain_length: 300 },
        smoke_graph: GraphSpec::Web { core_scale: 8, chain_length: 40 },
        ranks: 4,
        gpus_per_rank: 4,
        op: OpKind::Single,
        distinct_ops: 64,
        config: || BfsConfig::new(256),
    },
    Workload {
        name: "rmat16_msbfs64",
        why: "RMAT 16, TH 64, 64 sources per op through run_multi_source (what serve dispatches): the second hand-written superstep loop, bit-lanes per vertex",
        graph: GraphSpec::Rmat(16),
        smoke_graph: GraphSpec::Rmat(10),
        ranks: 4,
        gpus_per_rank: 4,
        op: OpKind::Batch,
        distinct_ops: 2,
        config: || BfsConfig::new(64),
    },
    Workload {
        name: "rmat14_proc2",
        why: "RMAT 14 on 4x2 GPUs through ProcBackend with min(2,nproc) worker processes: the only real-process path; an op is spawn, handshake, ship, traverse, reap",
        graph: GraphSpec::Rmat(14),
        smoke_graph: GraphSpec::Rmat(10),
        ranks: 4,
        gpus_per_rank: 2,
        op: OpKind::Proc,
        distinct_ops: 8,
        config: || BfsConfig::new(32),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seeded splitmix pick of `count` distinct vertices whose out-degree
/// satisfies `want` (the paper's "random sources that ran more than one
/// iteration" when `want` is non-isolated).
fn pick_vertices(degrees: &[u64], count: usize, seed: u64, want: fn(u64) -> bool) -> Vec<u64> {
    let n = degrees.len() as u64;
    let mut picked = Vec::with_capacity(count);
    let mut state = seed;
    for _ in 0..n * 4 + 1000 {
        if picked.len() == count {
            break;
        }
        state = splitmix64(state);
        let v = state % n;
        if want(degrees[v as usize]) && !picked.contains(&v) {
            picked.push(v);
        }
    }
    assert_eq!(picked.len(), count, "graph has too few eligible vertices");
    picked
}

/// `count` distinct non-isolated sources.
pub fn pick_sources(degrees: &[u64], count: usize, seed: u64) -> Vec<u64> {
    pick_vertices(degrees, count, seed, |d| d > 0)
}

/// One isolated vertex: a BFS from it is a single superstep, which is
/// what isolates the proc runtime's fixed cost.
pub fn pick_isolated(degrees: &[u64], seed: u64) -> u64 {
    pick_vertices(degrees, 1, seed ^ 0x150_1a7ed, |d| d == 0)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_are_seeded_distinct_and_connected() {
        let g = GraphSpec::Rmat(8).generate(3);
        let degrees = g.out_degrees();
        let a = pick_sources(&degrees, 8, 3);
        assert_eq!(a, pick_sources(&degrees, 8, 3));
        assert_ne!(a, pick_sources(&degrees, 8, 4));
        assert!(a.iter().all(|&v| degrees[v as usize] > 0));
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8);
        assert_eq!(degrees[pick_isolated(&degrees, 3) as usize], 0);
    }

    #[test]
    fn same_seed_same_graph_other_seed_other_graph() {
        for spec in [GraphSpec::Rmat(8), GraphSpec::Web { core_scale: 6, chain_length: 10 }] {
            assert_eq!(spec.generate(1).edges, spec.generate(1).edges);
            assert_ne!(spec.generate(1).edges, spec.generate(2).edges);
        }
    }
}
