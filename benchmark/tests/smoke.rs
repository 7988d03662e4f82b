//! Drives the built `benchmark` executable end to end at smoke scale
//! (every graph at scale <= 12, one round of ops per workload): all five
//! workloads, both passes, the probe's bit-exactness gate, the proc
//! workload's worker mode — so `cargo test` covers the harness itself.

use gcbfs_trace::json::Json;
use std::process::{Command, Output};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark")).args(args).output().expect("benchmark runs")
}

/// The result object a single-workload run prints last.
fn result_of(args: &[&str]) -> Json {
    let out = benchmark(args);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{args:?} exited with {}:\n{stdout}", out.status);
    Json::parse(stdout.trim_end().lines().last().unwrap()).expect("last line is JSON")
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

const WORKLOADS: [&str; 5] =
    ["rmat20_dobfs", "rmat17_topdown_codec", "web_longtail", "rmat16_msbfs64", "rmat14_proc2"];

#[test]
fn every_workload_passes_end_to_end() {
    for workload in WORKLOADS {
        let r = result_of(&["--workload", workload, "--seed", "5", "--trace", "0", "--smoke"]);
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(r.get("failed").and_then(Json::as_num), Some(0.0), "{workload}");
        assert!(r.get("attempted").and_then(Json::as_num).unwrap() >= 8.0, "{workload}");
        let Some(Json::Obj(metrics)) = r.get("metrics") else { panic!("no metrics") };
        assert_eq!(metrics.len(), 8, "{workload}");
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_num).unwrap();
            assert!(v.is_finite() && v > 0.0, "{workload} {name} = {v}");
        }
    }
}

#[test]
fn every_workload_passes_traced_and_the_probe_is_bit_exact() {
    for workload in WORKLOADS {
        // A diverged probe is a failed op, which makes the run exit non-zero.
        let r = result_of(&["--workload", workload, "--seed", "5", "--trace", "1", "--smoke"]);
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(r.get("failed").and_then(Json::as_num), Some(0.0), "{workload}");
        match workload {
            "rmat14_proc2" => {
                assert!(metric(&r, "procrt.setup_wire_share") > 0.5);
                assert!(metric(&r, "procrt.frames_sent") > 0.0);
            }
            "rmat16_msbfs64" => assert!(metric(&r, "msbfs.supersteps") >= 2.0),
            _ => {
                assert!(metric(&r, "trace.probed_ops") >= 8.0, "{workload}");
                assert!(metric(&r, "driver.supersteps") >= 2.0, "{workload}");
                assert!(metric(&r, "kernels.edges_examined") > 0.0, "{workload}");
            }
        }
    }
}

#[test]
fn traced_counts_and_modeled_numbers_repeat_exactly() {
    let a = result_of(&["--workload", "rmat17_topdown_codec", "--trace", "1", "--smoke"]);
    let b = result_of(&["--workload", "rmat17_topdown_codec", "--trace", "1", "--smoke"]);
    for name in [
        "separation.delegates",
        "kernels.edges_examined",
        "collectives.mask_bytes",
        "comm.nn_updates_sent",
        "comm.remote_bytes",
        "compress.codec_bitmap",
        "driver.supersteps",
    ] {
        assert_eq!(metric(&a, name), metric(&b, name), "{name}");
    }
    let a = result_of(&["--workload", "rmat17_topdown_codec", "--trace", "0", "--smoke"]);
    let b = result_of(&["--workload", "rmat17_topdown_codec", "--trace", "0", "--smoke"]);
    for name in ["modeled_gteps", "wire_bytes_per_op", "graph_bytes_per_edge"] {
        assert_eq!(metric(&a, name), metric(&b, name), "{name}");
    }
}

#[test]
fn all_workloads_in_one_command_and_the_spread_mode() {
    let out = benchmark(&["--smoke"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}");
    for workload in WORKLOADS {
        assert!(stdout.contains(&format!("== {workload} |")), "{workload} missing:\n{stdout}");
    }
    // Deterministic metrics have spread 0; wall metrics at smoke scale are
    // far too short to be steady, so only the report's shape is checked.
    let out = benchmark(&["--smoke", "--spread", "2"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("== spread over 2 sets"), "{stdout}");
    assert!(stdout.contains("modeled_gteps"), "{stdout}");
}

#[test]
fn bad_command_lines_exit_two_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--bogus"], &["worker", "--socket", "x"]] {
        let out = benchmark(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
