//! The ledger: every run appends one JSON document to
//! `results/runs.jsonl` — never overwrites — stamped with what is needed
//! to tell two entries apart: git sha, seed, cores, pool width, rustc
//! version, per-metric sample counts, unix time.

use crate::harness::{package_dir, results_dir};
use crate::metrics::Metric;
use gcbfs_trace::json::escape;
use std::io::Write;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// What identifies one run in the ledger.
pub struct RunStamp<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// First line of `program args...`'s standard output, or "unknown" (the
/// driver's checkout is not a git repository; a host may lack the tool).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn entry(stamp: &RunStamp<'_>, metrics: &[Metric]) -> String {
    let unix_time = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
                m.name, m.value, m.unit, m.samples
            )
        })
        .collect();
    format!(
        "{{\"unix_time\":{unix_time},\"git_sha\":\"{}\",\"rustc\":\"{}\",\"nproc\":{nproc},\"pool_width\":{},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"traced\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        escape(&first_line_of("git", &["rev-parse", "HEAD"])),
        escape(&first_line_of("rustc", &["--version"])),
        rayon::current_num_threads(),
        stamp.workload,
        stamp.seed,
        stamp.seconds,
        stamp.traced,
        stamp.correct,
        stamp.attempted,
        stamp.failed,
        body.join(",")
    )
}

/// Writes `results/<file>`, replacing it.
pub fn write(file: &str, contents: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(results_dir())?;
    std::fs::write(results_dir().join(file), contents)
}

/// Appends `line` to `results/<file>`.
pub fn append(file: &str, line: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(results_dir())?;
    let path = results_dir().join(file);
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    // One write per document, so concurrent runs cannot interleave lines.
    f.write_all(format!("{line}\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_trace::json::Json;

    #[test]
    fn entries_are_stamped_json() {
        let stamp = RunStamp {
            workload: "w",
            seed: 7,
            seconds: 1.5,
            traced: false,
            correct: true,
            attempted: 9,
            failed: 0,
        };
        let metrics = [Metric { name: "wall_ms_p50", value: 1.25, unit: "ms", samples: 160 }];
        let doc = Json::parse(&entry(&stamp, &metrics)).expect("valid JSON");
        for key in ["unix_time", "nproc", "pool_width", "seed", "attempted"] {
            assert!(doc.get(key).and_then(Json::as_num).is_some(), "{key}");
        }
        for key in ["git_sha", "rustc", "workload"] {
            assert!(doc.get(key).and_then(Json::as_str).is_some(), "{key}");
        }
        let m = doc.get("metrics").and_then(|m| m.get("wall_ms_p50")).unwrap();
        assert_eq!(m.get("samples").and_then(Json::as_num), Some(160.0));
    }
}
