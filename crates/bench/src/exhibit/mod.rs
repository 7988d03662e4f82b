//! The exhibits `gcbfs-bench` runs, one module each, named after the
//! table or figure they regenerate (DESIGN.md's per-experiment index).

use gcbfs_bench::Knobs;

mod ablation_direction;
mod backend_sweep;
mod comm_model_scaling;
mod compression_sweep;
mod ext_async_comparison;
mod ext_pagerank_scaling;
mod fault_sweep;
mod fig01_context;
mod fig05_edge_distribution;
mod fig06_threshold_sweep;
mod fig07_suggested_thresholds;
mod fig08_options;
mod fig09_weak_scaling;
mod fig10_breakdown;
mod fig11_strong_scaling;
mod fig12_friendster_distribution;
mod fig13_friendster_rate;
mod graph500_run;
mod incremental_sweep;
mod kernel_sweep;
mod net_sweep;
mod parallel_speedup;
mod profile_trace;
mod serve_sweep;
mod table1_memory;
mod table2_comparison;
mod verify_sweep;
mod wdc_longtail;

/// An exhibit's entry point, given its `--smoke` mode: `None` for the
/// full run, `Some("")` for a bare `--smoke` (see [`SMOKE`]).
pub type Run = fn(&Knobs, Option<&str>);

/// The modes of an exhibit with one smoke run: a bare `--smoke`.
const SMOKE: &[&str] = &[""];

/// Every exhibit, the `--smoke` modes it takes (none: it takes no
/// `--smoke`; a bare `--smoke` means the first), and its entry point.
pub const EXHIBITS: &[(&str, &[&str], Run)] = &[
    ("net_sweep", &[], net_sweep::run),
    ("table1_memory", &[], table1_memory::run),
    ("table2_comparison", &[], table2_comparison::run),
    ("fig01_context", &[], fig01_context::run),
    ("fig05_edge_distribution", &[], fig05_edge_distribution::run),
    ("fig06_threshold_sweep", &[], fig06_threshold_sweep::run),
    ("fig07_suggested_thresholds", &[], fig07_suggested_thresholds::run),
    ("fig08_options", &[], fig08_options::run),
    ("fig09_weak_scaling", SMOKE, fig09_weak_scaling::run),
    ("fig10_breakdown", &[], fig10_breakdown::run),
    ("fig11_strong_scaling", &[], fig11_strong_scaling::run),
    ("fig12_friendster_distribution", &[], fig12_friendster_distribution::run),
    ("fig13_friendster_rate", &[], fig13_friendster_rate::run),
    ("wdc_longtail", &[], wdc_longtail::run),
    ("comm_model_scaling", &[], comm_model_scaling::run),
    ("ablation_direction", &[], ablation_direction::run),
    ("ext_pagerank_scaling", &[], ext_pagerank_scaling::run),
    ("ext_async_comparison", &[], ext_async_comparison::run),
    ("graph500_run", &[], graph500_run::run),
    ("fault_sweep", &["all", "spread", "spare", "sdc", "loss"], fault_sweep::run),
    ("compression_sweep", SMOKE, compression_sweep::run),
    ("parallel_speedup", SMOKE, parallel_speedup::run),
    ("profile_trace", SMOKE, profile_trace::run),
    ("kernel_sweep", SMOKE, kernel_sweep::run),
    ("verify_sweep", SMOKE, verify_sweep::run),
    ("incremental_sweep", SMOKE, incremental_sweep::run),
    ("serve_sweep", SMOKE, serve_sweep::run),
    ("backend_sweep", SMOKE, backend_sweep::run),
];
