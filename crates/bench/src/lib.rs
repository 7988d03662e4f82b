#![warn(missing_docs)]

//! Shared harness for `gcbfs-bench`, the one binary that regenerates
//! every table and figure of the paper plus the repo's acceptance sweeps
//! (`gcbfs-bench <exhibit>`; see `src/exhibit/` and DESIGN.md's
//! per-experiment index). Exhibits share this harness: the `GCBFS_*`
//! knobs parsed once, the geometric-mean-over-sources protocol of
//! §VI-A3, and plain-text table output. Sources come from the graph's
//! own picker, `EdgeList::hub` and `EdgeList::source_pool`.
//!
//! Environment knobs (all optional; a numeric one that is set but is not
//! a positive integer is an error naming it, never a silent default):
//!
//! * `GCBFS_SOURCES` — BFS sources per data point (default 8; paper: 140);
//! * `GCBFS_SCALE` — base RMAT scale override for the per-exhibit defaults;
//! * `GCBFS_MAX_GPUS` — cap on simulated GPUs in scaling sweeps;
//! * `GCBFS_PROFILE_OUT` / `GCBFS_JSONL_OUT` — files `profile_trace`
//!   writes its Chrome trace / JSON-lines trace to.

use gcbfs_core::config::BfsConfig;
use gcbfs_core::driver::DistributedGraph;
use gcbfs_core::stats::geometric_mean;
use gcbfs_trace::PhaseTimes;

/// What every exhibit imports: this harness and the workspace types the
/// exhibits have in common.
pub mod prelude {
    pub use crate::{f2, ms, pct, per_gpu_scale, print_table, ray_factor, run_many, Knobs};
    pub use gcbfs_cluster::cost::CostModel;
    pub use gcbfs_cluster::topology::Topology;
    pub use gcbfs_core::config::BfsConfig;
    pub use gcbfs_core::driver::{BfsResult, DistributedGraph};
    pub use gcbfs_graph::{rmat::RmatConfig, Csr, EdgeList, PowerLawConfig, WebGraphConfig};
}

/// The `GCBFS_*` environment knobs, parsed once per run.
#[derive(Debug)]
pub struct Knobs {
    /// `GCBFS_SOURCES`: BFS sources per data point (default 8).
    pub sources: usize,
    /// `GCBFS_SCALE`: replaces each exhibit's default scale.
    pub scale: Option<u32>,
    /// `GCBFS_MAX_GPUS`: replaces each scaling sweep's largest GPU count.
    pub max_gpus: Option<u32>,
    /// `GCBFS_PROFILE_OUT`: where `profile_trace` writes its Chrome trace.
    pub profile_out: Option<String>,
    /// `GCBFS_JSONL_OUT`: where `profile_trace` writes its JSON-lines trace.
    pub jsonl_out: Option<String>,
}

impl Knobs {
    /// Reads the knobs from the process environment.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
    }

    /// Reads the knobs through `var`, which returns a variable's value if
    /// it is set. An unset knob keeps its default; a numeric knob that is
    /// set but is not a positive integer is an error naming the variable
    /// and value.
    pub fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        Ok(Self {
            sources: knob(&var, "GCBFS_SOURCES")?.map_or(8, |n| n as usize),
            scale: knob(&var, "GCBFS_SCALE")?,
            max_gpus: knob(&var, "GCBFS_MAX_GPUS")?,
            profile_out: var("GCBFS_PROFILE_OUT"),
            jsonl_out: var("GCBFS_JSONL_OUT"),
        })
    }
}

/// Parses the numeric knob `name`, if `var` has it set: zero sources, a
/// scale-0 graph or a cap of zero GPUs leaves an exhibit nothing to run.
fn knob(var: &impl Fn(&str) -> Option<String>, name: &str) -> Result<Option<u32>, String> {
    var(name)
        .map(|v| match v.parse::<std::num::NonZeroU32>() {
            Ok(n) => Ok(n.get()),
            Err(_) => Err(format!("{name} must be a positive integer, got {v:?}")),
        })
        .transpose()
}

/// The paper's per-GPU RMAT scale on Ray.
pub const PAPER_PER_GPU_SCALE: u32 = 26;

/// Workload scale-down factor for a run whose per-GPU graph is
/// `per_gpu_scale`: feed this to `CostModel::ray_scaled` and multiply
/// resulting TEPS by it to obtain Ray-equivalent throughput (see that
/// method's docs for why this preserves the paper's shapes).
pub fn ray_factor(per_gpu_scale: u32) -> f64 {
    2f64.powi(PAPER_PER_GPU_SCALE.saturating_sub(per_gpu_scale) as i32)
}

/// Per-GPU scale of a run: total scale minus log2 of the GPU count.
pub fn per_gpu_scale(total_scale: u32, gpus: u32) -> u32 {
    total_scale.saturating_sub(gpus.ilog2())
}

/// Aggregated outcome of running BFS from several sources.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Geometric-mean GTEPS over sources (modeled time).
    pub gteps: f64,
    /// Mean modeled elapsed milliseconds.
    pub elapsed_ms: f64,
    /// Mean phase totals (milliseconds) — the stacked bars of Figs. 8/10.
    pub phases_ms: PhaseTimes,
    /// Mean iteration count `S`.
    pub iterations: f64,
}

/// Runs BFS from each source and aggregates per the paper's protocol.
pub fn run_many(
    dist: &DistributedGraph,
    config: &BfsConfig,
    sources: &[u64],
    graph500_edges: u64,
) -> RunSummary {
    assert!(!sources.is_empty());
    let mut rates = Vec::with_capacity(sources.len());
    let mut elapsed = 0.0;
    let mut phases = PhaseTimes::zero();
    let mut iterations = 0.0;
    let mut used = 0usize;
    for &s in sources {
        let r = dist.run(s, config).expect("valid source");
        // Paper: only runs with more than one iteration count.
        if r.iterations() <= 1 {
            continue;
        }
        rates.push(r.gteps(graph500_edges));
        elapsed += r.modeled_seconds() * 1e3;
        phases = phases.combine(&r.stats.phase_totals());
        iterations += r.iterations() as f64;
        used += 1;
    }
    assert!(used > 0, "every source finished in one iteration; pick better sources");
    let k = used as f64;
    RunSummary {
        gteps: geometric_mean(&rates),
        elapsed_ms: elapsed / k,
        phases_ms: PhaseTimes {
            computation: phases.computation * 1e3 / k,
            local_comm: phases.local_comm * 1e3 / k,
            remote_normal: phases.remote_normal * 1e3 / k,
            remote_delegate: phases.remote_delegate * 1e3 / k,
        },
        iterations: iterations / k,
    }
}

/// Prints a fixed-width table: header row then data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line: Vec<String> = headers.iter().zip(&widths).map(|(h, w)| format!("{h:>w$}")).collect();
    println!("{}", line.join("  "));
    for row in rows {
        let line: Vec<String> = row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        println!("{}", line.join("  "));
    }
}

/// Converts seconds to milliseconds.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage with 2 decimals.
pub fn pct(x: f64) -> String {
    format!("{x:.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_cluster::topology::Topology;
    use gcbfs_graph::rmat::RmatConfig;

    #[test]
    fn run_many_aggregates() {
        let cfg = RmatConfig::graph500(8);
        let g = cfg.generate();
        let config = BfsConfig::new(8);
        let dist = DistributedGraph::build(&g, Topology::new(2, 1), &config).unwrap();
        let sources = g.source_pool(4, 7);
        let summary = run_many(&dist, &config, &sources, cfg.graph500_edges());
        assert!(summary.gteps > 0.0);
        assert!(summary.iterations > 1.0);
        assert!(summary.elapsed_ms > 0.0);
    }

    fn parse(vars: &[(&str, &str)]) -> Result<Knobs, String> {
        Knobs::parse(|name| vars.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string()))
    }

    #[test]
    fn unset_knobs_keep_their_defaults() {
        let k = parse(&[]).unwrap();
        assert_eq!((k.sources, k.scale, k.max_gpus), (8, None, None));
        assert_eq!((k.profile_out, k.jsonl_out), (None, None));
    }

    #[test]
    fn set_knobs_are_read() {
        let k = parse(&[
            ("GCBFS_SOURCES", "6"),
            ("GCBFS_SCALE", "12"),
            ("GCBFS_MAX_GPUS", "128"),
            ("GCBFS_PROFILE_OUT", "p.json"),
            ("GCBFS_JSONL_OUT", "t.jsonl"),
        ])
        .unwrap();
        assert_eq!((k.sources, k.scale, k.max_gpus), (6, Some(12), Some(128)));
        assert_eq!(k.profile_out.as_deref(), Some("p.json"));
        assert_eq!(k.jsonl_out.as_deref(), Some("t.jsonl"));
    }

    #[test]
    fn a_set_knob_that_does_not_parse_is_an_error_naming_it() {
        for (name, value) in [
            ("GCBFS_SOURCES", "0"),
            ("GCBFS_SCALE", "0"),
            ("GCBFS_MAX_GPUS", "0"),
            ("GCBFS_SCALE", "abc"),
            ("GCBFS_SOURCES", "2.5"),
            ("GCBFS_SOURCES", ""),
            ("GCBFS_MAX_GPUS", "-4"),
            ("GCBFS_SCALE", "4294967296"),
        ] {
            let err = parse(&[(name, value)]).unwrap_err();
            assert!(err.contains(name) && err.contains(&format!("{value:?}")), "{err}");
        }
    }
}
