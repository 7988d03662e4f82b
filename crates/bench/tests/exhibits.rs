//! Drives the `gcbfs-bench` binary: every committed `results/*.txt` is
//! named after an exhibit it lists, two cheap exhibits still print their
//! files byte for byte, the message-loss gate passes at a small scale, and
//! every malformed invocation exits with status 2 before running anything.

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
fn every_committed_result_is_an_exhibit_the_binary_lists() {
    // `run_all_figures.sh` regenerates whatever `results/*.txt` holds, so
    // a stray or misnamed file would otherwise fail only there.
    let listing = String::from_utf8_lossy(&bench(&[], &[]).stdout).into_owned();
    let listed: Vec<&str> =
        listing.lines().filter_map(|l| l.strip_prefix("  ")?.split(' ').next()).collect();
    let dir = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let files: Vec<String> = std::fs::read_dir(&dir)
        .expect("results directory")
        .map(|e| e.expect("directory entry").file_name().into_string().expect("UTF-8"))
        .filter(|name| name != "README.md")
        .collect();
    for name in &files {
        let stem = name.strip_suffix(".txt").unwrap_or_else(|| panic!("results/{name}"));
        assert!(listed.contains(&stem), "results/{name} names no exhibit gcbfs-bench lists");
    }
    // The modeled sweeps are committed beside the paper's exhibits, so the
    // drift gate checks their numbers too.
    for sweep in ["kernel_sweep", "verify_sweep", "serve_sweep", "incremental_sweep"] {
        assert!(files.contains(&format!("{sweep}.txt")), "results/{sweep}.txt is not committed");
    }
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
fn the_message_loss_gate_passes_at_a_small_scale() {
    let out = bench(&["fault_sweep", "--smoke", "loss"], &[("GCBFS_SCALE", "10")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("all message-loss plans recovered to bit-exact depths"), "{stdout}");
}

#[test]
fn no_arguments_lists_every_exhibit() {
    let out = bench(&[], &[]);
    assert!(out.status.success());
    let listing = String::from_utf8_lossy(&out.stdout);
    for name in EXHIBITS {
        assert!(listing.lines().any(|l| l.trim().starts_with(name)), "{name} missing");
    }
    assert!(listing.contains("fault_sweep [--smoke [all|spread|spare|sdc|loss]]"));
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
    // A zero count leaves an exhibit nothing to run: each of these once
    // panicked mid-run or printed an empty table.
    for (exhibit, name, value) in [
        ("net_sweep", "GCBFS_SCALE", "abc"),
        ("net_sweep", "GCBFS_SOURCES", "2.5"),
        ("net_sweep", "GCBFS_MAX_GPUS", ""),
        ("table2_comparison", "GCBFS_SOURCES", "0"),
        ("fig06_threshold_sweep", "GCBFS_SCALE", "0"),
        ("fig09_weak_scaling", "GCBFS_MAX_GPUS", "0"),
    ] {
        let out = bench(&[exhibit], &[(name, value)]);
        assert_eq!(out.status.code(), Some(2), "{name}={value:?}");
        assert!(out.stdout.is_empty(), "{name}={value:?} still ran");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(name) && err.contains(&format!("{value:?}")), "{err}");
    }
}
