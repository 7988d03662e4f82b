//! End-to-end tests of the `gcbfs` CLI binary: generate → info → bfs →
//! pagerank pipelines over both file formats, plus error handling.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gcbfs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcbfs")).args(args).output().expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gcbfs-test-{}-{}", std::process::id(), name));
    p
}

#[test]
fn generate_info_bfs_pipeline_binary_format() {
    let file = tmp("pipeline.bin");
    let path = file.to_str().unwrap();

    let gen = gcbfs(&["generate", "rmat", "--scale", "9", "--out", path]);
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));

    let info = gcbfs(&["info", path]);
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("vertices      512"), "{text}");
    assert!(text.contains("symmetric     true"), "{text}");

    let bfs =
        gcbfs(&["bfs", path, "--ranks", "2", "--gpus", "2", "--threshold", "8", "--validate"]);
    assert!(bfs.status.success(), "{}", String::from_utf8_lossy(&bfs.stderr));
    let text = String::from_utf8_lossy(&bfs.stdout);
    assert!(text.contains("validation: OK"), "{text}");
    assert!(text.contains("GTEPS"), "{text}");

    std::fs::remove_file(&file).ok();
}

#[test]
fn text_format_and_parents() {
    let file = tmp("graph.txt");
    let path = file.to_str().unwrap();
    let gen = gcbfs(&["generate", "powerlaw", "--scale", "9", "--out", path]);
    assert!(gen.status.success());
    let content = std::fs::read_to_string(&file).unwrap();
    assert!(content.starts_with("# gcbfs edge list"));

    let bfs = gcbfs(&["bfs", path, "--threshold", "8", "--parents", "--validate"]);
    assert!(bfs.status.success(), "{}", String::from_utf8_lossy(&bfs.stderr));
    let text = String::from_utf8_lossy(&bfs.stdout);
    assert!(text.contains("parent tree built"), "{text}");
    assert!(text.contains("validation: OK"), "{text}");

    std::fs::remove_file(&file).ok();
}

#[test]
fn pagerank_command() {
    let file = tmp("pr.bin");
    let path = file.to_str().unwrap();
    assert!(gcbfs(&["generate", "web", "--scale", "8", "--out", path]).status.success());
    let pr = gcbfs(&["pagerank", path, "--iterations", "20"]);
    assert!(pr.status.success(), "{}", String::from_utf8_lossy(&pr.stderr));
    let text = String::from_utf8_lossy(&pr.stdout);
    assert!(text.contains("top 10:"), "{text}");
    std::fs::remove_file(&file).ok();
}

#[test]
fn components_and_betweenness_commands() {
    let file = tmp("algos.bin");
    let path = file.to_str().unwrap();
    assert!(gcbfs(&["generate", "rmat", "--scale", "8", "--out", path]).status.success());
    let cc = gcbfs(&["components", path]);
    assert!(cc.status.success(), "{}", String::from_utf8_lossy(&cc.stderr));
    assert!(String::from_utf8_lossy(&cc.stdout).contains("largest components:"));
    let bc = gcbfs(&["betweenness", path, "--samples", "4"]);
    assert!(bc.status.success(), "{}", String::from_utf8_lossy(&bc.stderr));
    assert!(String::from_utf8_lossy(&bc.stdout).contains("top 10 by betweenness:"));
    let sp = gcbfs(&["sssp", path, "--max-weight", "8"]);
    assert!(sp.status.success(), "{}", String::from_utf8_lossy(&sp.stderr));
    assert!(String::from_utf8_lossy(&sp.stdout).contains("edges relaxed"));
    std::fs::remove_file(&file).ok();
}

#[test]
fn bfs_trace_flag() {
    let file = tmp("trace.bin");
    let path = file.to_str().unwrap();
    assert!(gcbfs(&["generate", "rmat", "--scale", "8", "--out", path]).status.success());
    let out = gcbfs(&["bfs", path, "--trace"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("frontier"), "{text}");
    assert!(text.contains("S = "), "{text}");
    std::fs::remove_file(&file).ok();
}

#[test]
fn bfs_profile_flag_writes_valid_chrome_trace() {
    let file = tmp("profile.bin");
    let out = tmp("profile.json");
    let path = file.to_str().unwrap();
    let out_path = out.to_str().unwrap();
    assert!(gcbfs(&["generate", "rmat", "--scale", "8", "--out", path]).status.success());

    let run = gcbfs(&["bfs", path, "--trace", "--profile", out_path]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let text = String::from_utf8_lossy(&run.stdout);
    assert!(text.contains("profile: wrote"), "{text}");
    assert!(text.contains("critical path:"), "{text}");

    // The written file is a schema-valid Chrome trace_event document.
    let written = std::fs::read_to_string(&out).expect("profile file written");
    let events =
        gpu_cluster_bfs::obs::json::validate_chrome_trace(&written).expect("schema-valid trace");
    assert!(events > 0, "trace must contain events");

    // Profiling must not change the human-readable --trace output: the
    // per-iteration table is identical with observability off.
    let plain = gcbfs(&["bfs", path, "--trace"]);
    assert!(plain.status.success());
    let plain_text = String::from_utf8_lossy(&plain.stdout);
    let table = |s: &str| -> String {
        s.lines()
            .skip_while(|l| !l.starts_with("iter"))
            .take_while(|l| !l.starts_with("profile:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(table(&text), table(&plain_text), "--trace output changed under --profile");

    std::fs::remove_file(&file).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn bfs_options_accepted() {
    let file = tmp("opts.bin");
    let path = file.to_str().unwrap();
    assert!(gcbfs(&["generate", "rmat", "--scale", "8", "--out", path]).status.success());
    let bfs = gcbfs(&[
        "bfs",
        path,
        "--no-do",
        "--local-all2all",
        "--uniquify",
        "--nonblocking",
        "--source",
        "3",
        "--validate",
    ]);
    assert!(bfs.status.success(), "{}", String::from_utf8_lossy(&bfs.stderr));
    std::fs::remove_file(&file).ok();
}

#[test]
fn errors_are_reported() {
    // Unknown command.
    let out = gcbfs(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    // Missing file.
    let out = gcbfs(&["info", "/nonexistent/graph.bin"]);
    assert!(!out.status.success());
    // Source out of range.
    let file = tmp("err.bin");
    let path = file.to_str().unwrap();
    assert!(gcbfs(&["generate", "rmat", "--scale", "8", "--out", path]).status.success());
    let out = gcbfs(&["bfs", path, "--source", "999999"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    // Bad option value.
    let out = gcbfs(&["bfs", path, "--threshold", "banana"]);
    assert!(!out.status.success());
    std::fs::remove_file(&file).ok();
}

#[test]
fn a_binary_header_claiming_more_edges_than_the_file_holds_is_refused() {
    // Magic, n = 4, m = u64::MAX, and no edge: the reader must not reserve
    // memory for the claimed count before any edge arrives.
    let file = tmp("hostile.bin");
    let mut bytes = b"GCBFSEL1".to_vec();
    bytes.extend_from_slice(&4u64.to_le_bytes());
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&file, &bytes).unwrap();
    let out = gcbfs(&["info", file.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot parse"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_file(&file).ok();
}

#[test]
fn runs_on_a_graph_with_no_vertices_are_refused() {
    // No vertex means no hub and no source pool: each run is a typed
    // refusal, not a panic on an empty degree list or a `% 0`.
    let file = tmp("no-vertices.txt");
    std::fs::write(&file, "# vertices 0\n").unwrap();
    let path = file.to_str().unwrap();
    for run in [
        &["bfs", path][..],
        &["bfs", path, "--backend", "proc", "--procs", "1"],
        &["bfs", path, "--mutate", "1"],
        &["sssp", path],
        &["serve", path],
    ] {
        let out = gcbfs(run);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{run:?}: {stderr}");
        assert_eq!(stderr.lines().filter(|l| l.starts_with("error:")).count(), 1, "{stderr}");
        assert!(!stderr.contains("panicked"), "{run:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{run:?}");
    }
    std::fs::remove_file(&file).ok();
}

#[test]
fn a_mutating_run_refuses_what_its_repair_path_would_ignore() {
    // The repair batches run untraced and unverified, so `--trace` and
    // online verification are refused like fault injection, before any run.
    let file = tmp("mutate-refusals.bin");
    let path = file.to_str().unwrap();
    assert!(gcbfs(&["generate", "rmat", "--scale", "8", "--out", path]).status.success());
    for (flags, what) in [
        (&["--trace"][..], "--trace"),
        (&["--verify", "checksums"], "--verify checksums|full"),
        (&["--verify", "full"], "--verify checksums|full"),
        (&["--fail", "1:1"], "fault injection"),
    ] {
        let mut run = vec!["bfs", path, "--mutate", "1"];
        run.extend_from_slice(flags);
        let out = gcbfs(&run);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{run:?}: {stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors, [format!("error: --mutate cannot be combined with {what}")], "{run:?}");
        assert!(out.stdout.is_empty(), "{run:?} ran before failing");
    }
    // `--verify off` is the default and stays accepted.
    let out = gcbfs(&["bfs", path, "--mutate", "1", "--verify", "off"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_file(&file).ok();
}

#[test]
fn a_zero_max_weight_is_refused() {
    // Weights start at 1: `--max-weight 0` is a typed refusal naming the
    // option, not a panic.
    let file = tmp("zero-weight.bin");
    let path = file.to_str().unwrap();
    assert!(gcbfs(&["generate", "rmat", "--scale", "8", "--out", path]).status.success());
    let out = gcbfs(&["sssp", path, "--max-weight", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--max-weight"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
    std::fs::remove_file(&file).ok();
}

#[test]
fn options_a_command_does_not_read_are_rejected() {
    let file = tmp("unread.bin");
    let path = file.to_str().unwrap();
    assert!(gcbfs(&["generate", "rmat", "--scale", "8", "--out", path]).status.success());
    let rejected = |args: &[&str], name: &str| {
        let out = gcbfs(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr.contains(&format!("does not take --{name}")), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before failing");
    };
    // A typo must not silently run at the default TH.
    rejected(&["bfs", path, "--thresold", "8"], "thresold");
    // Proc-only options without `--backend proc`.
    rejected(&["bfs", path, "--kill", "1:1"], "kill");
    rejected(&["bfs", path, "--procs", "2"], "procs");
    // Sim-only options on the proc backend.
    rejected(&["bfs", path, "--backend", "proc", "--fail", "0:1"], "fail");
    // Single-buddy hosting is gone, flag included.
    rejected(&["bfs", path, "--hosting", "buddy"], "hosting");
    // So is live rejoin.
    rejected(&["bfs", path, "--rejoin", "1:2"], "rejoin");
    rejected(&["pagerank", path, "--source", "3"], "source");
    std::fs::remove_file(&file).ok();
}

#[test]
fn fault_plans_naming_gpus_the_run_lacks_are_refused() {
    let file = tmp("nogpu.bin");
    let path = file.to_str().unwrap();
    assert!(gcbfs(&["generate", "rmat", "--scale", "8", "--out", path]).status.success());
    let out = gcbfs(&["bfs", path, "--ranks", "2", "--gpus", "2", "--fail", "99:1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a fail-stop of GPU 99 on 4 GPUs must not run clean");
    assert!(stderr.contains("fail-stop names GPU 99, but the run has 4 GPUs"), "{stderr}");
    assert!(out.stdout.is_empty(), "it ran before failing");
    // The last GPU the run has dies and is recovered.
    let out = gcbfs(&["bfs", path, "--ranks", "2", "--gpus", "2", "--fail", "3:1", "--validate"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        stdout.contains(
            "resilience: 1 fail-stop(s), 0 spare absorption(s), 1 spreading(s), 1 rollback(s)"
        ),
        "{stdout}"
    );
    std::fs::remove_file(&file).ok();
}

#[test]
fn a_kill_of_a_slot_the_proc_run_lacks_is_refused() {
    let file = tmp("noslot.bin");
    let path = file.to_str().unwrap();
    assert!(gcbfs(&["generate", "rmat", "--scale", "8", "--out", path]).status.success());
    // Two worker slots; slot 3 does not exist, and the refusal comes before
    // anything spawns.
    let out = gcbfs(&[
        "bfs",
        path,
        "--ranks",
        "2",
        "--gpus",
        "2",
        "--backend",
        "proc",
        "--procs",
        "2",
        "--kill",
        "3:1",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a kill of slot 3 on 2 slots must not run");
    assert!(stderr.contains("ProcOptions::kill"), "{stderr}");
    assert!(out.stdout.is_empty(), "it ran before failing");
    std::fs::remove_file(&file).ok();
}

#[test]
fn malformed_options_are_rejected() {
    let file = tmp("malformed.bin");
    let path = file.to_str().unwrap();
    assert!(gcbfs(&["generate", "rmat", "--scale", "8", "--out", path]).status.success());
    let rejected = |args: &[&str], why: &str| {
        let out = gcbfs(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before failing");
    };
    // A switch given a value must not run without validating.
    rejected(&["bfs", path, "--validate", "1"], "--validate takes no value, got 1");
    // An option given no value must not run at its default.
    rejected(&["bfs", path, "--threshold"], "--threshold needs a value");
    rejected(&["bfs", path, "--threshold", "--validate"], "--threshold needs a value");
    // A repeated name is ambiguous, whichever occurrence would win.
    rejected(&["bfs", path, "--threshold", "4", "--threshold", "100"], "--threshold given more");
    rejected(&["bfs", path, "--parents", "--parents"], "--parents given more");
    std::fs::remove_file(&file).ok();
}

#[test]
fn deterministic_generation_via_seed() {
    let a = tmp("seed-a.bin");
    let b = tmp("seed-b.bin");
    let c = tmp("seed-c.bin");
    for (f, seed) in [(&a, "7"), (&b, "7"), (&c, "8")] {
        assert!(gcbfs(&[
            "generate",
            "rmat",
            "--scale",
            "8",
            "--seed",
            seed,
            "--out",
            f.to_str().unwrap()
        ])
        .status
        .success());
    }
    let bytes_a = std::fs::read(&a).unwrap();
    assert_eq!(bytes_a, std::fs::read(&b).unwrap());
    assert_ne!(bytes_a, std::fs::read(&c).unwrap());
    for f in [a, b, c] {
        std::fs::remove_file(f).ok();
    }
}
