//! Drives the `gcbfs-bench` binary: two cheap exhibits still print their
//! committed `results/*.txt` byte for byte, and every malformed
//! invocation exits with status 2 before running anything.

use std::process::{Command, Output};

/// Every exhibit `gcbfs-bench` runs.
const EXHIBITS: [&str; 28] = [
    "ablation_direction",
    "backend_sweep",
    "comm_model_scaling",
    "compression_sweep",
    "ext_async_comparison",
    "ext_pagerank_scaling",
    "fault_sweep",
    "fig01_context",
    "fig05_edge_distribution",
    "fig06_threshold_sweep",
    "fig07_suggested_thresholds",
    "fig08_options",
    "fig09_weak_scaling",
    "fig10_breakdown",
    "fig11_strong_scaling",
    "fig12_friendster_distribution",
    "fig13_friendster_rate",
    "graph500_run",
    "incremental_sweep",
    "kernel_sweep",
    "net_sweep",
    "parallel_speedup",
    "profile_trace",
    "serve_sweep",
    "table1_memory",
    "table2_comparison",
    "verify_sweep",
    "wdc_longtail",
];

/// Runs `gcbfs-bench args` with exactly the `GCBFS_*` knobs in `knobs`.
fn bench(args: &[&str], knobs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gcbfs-bench"));
    for (name, _) in std::env::vars() {
        if name.starts_with("GCBFS_") && name != "GCBFS_THREADS" {
            cmd.env_remove(name);
        }
    }
    cmd.args(args).envs(knobs.iter().copied()).output().expect("spawn gcbfs-bench")
}

#[test]
fn cheap_exhibits_reproduce_their_committed_results() {
    for name in ["net_sweep", "ext_async_comparison"] {
        let out = bench(&[name], &[("GCBFS_SOURCES", "6")]);
        assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(out.stderr.is_empty(), "{name} wrote to stderr");
        let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("committed result");
        assert_eq!(String::from_utf8_lossy(&out.stdout), committed, "{name} drifted from {path}");
    }
}

#[test]
fn no_arguments_lists_every_exhibit() {
    let out = bench(&[], &[]);
    assert!(out.status.success());
    let listing = String::from_utf8_lossy(&out.stdout);
    for name in EXHIBITS {
        assert!(listing.lines().any(|l| l.trim().starts_with(name)), "{name} missing");
    }
    assert!(listing.contains("fault_sweep [--smoke [all|spread|spare|rejoin|sdc]]"));
    assert!(listing.contains("kernel_sweep [--smoke]\n"));
    assert!(listing.contains("net_sweep\n"));
}

#[test]
fn malformed_invocations_exit_2_without_running() {
    // A tiny scale keeps a regression that runs the exhibit cheap.
    let tiny = [("GCBFS_SCALE", "8")];
    for args in [
        &["no_such_exhibit"][..],
        &["kernel_sweep", "--smok"],
        &["kernel_sweep", "--smoke", "all"],
        &["kernel_sweep", "--smoke", ""],
        &["net_sweep", "--smoke"],
        &["net_sweep", "extra"],
        &["fault_sweep", "--smoke", "bogus"],
        &["fault_sweep", "--smoke", "sdc", "extra"],
        &["fault_sweep", "sdc"],
        &["worker", "--socket", "/nonexistent"],
        &["worker", "--socket", "/nonexistent", "--worker", "one"],
    ] {
        let out = bench(args, &tiny);
        assert_eq!(out.status.code(), Some(2), "{args:?} exited {:?}", out.status);
        assert!(out.stdout.is_empty(), "{args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
        assert!(!out.stderr.is_empty(), "{args:?} exited silently");
    }
}

#[test]
fn a_knob_that_does_not_parse_exits_2_naming_it() {
    for (name, value) in [("GCBFS_SCALE", "abc"), ("GCBFS_SOURCES", "2.5"), ("GCBFS_MAX_GPUS", "")]
    {
        let out = bench(&["net_sweep"], &[(name, value)]);
        assert_eq!(out.status.code(), Some(2), "{name}={value:?}");
        assert!(out.stdout.is_empty(), "{name}={value:?} still ran");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(name) && err.contains(&format!("{value:?}")), "{err}");
    }
}
