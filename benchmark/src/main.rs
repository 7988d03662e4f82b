//! The repo's benchmark: wall-clock, closed loop, one op in flight.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!           [--spread N] [--smoke]
//! ```
//!
//! With `--workload` the workload runs in this process and the last line
//! of standard output is the result object `BENCHMARK.json`'s driver
//! reads. Without it every workload runs, each in a fresh child process
//! of this executable so peak RSS and cold set-up are per workload.
//! README.md has the why.

mod endtoend;
mod harness;
mod ledger;
mod metrics;
mod probe;
mod spans;
mod stats;
mod traced;
mod workloads;

use gcbfs_trace::json::Json;
use harness::{Gate, Inputs, ScratchDir};
use metrics::{Metric, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// The timed phase of a `--smoke` run: one round of each workload's ops.
const SMOKE_SECONDS: f64 = 0.0;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--spread N] [--smoke]";

#[derive(Clone, Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    spread: Option<usize>,
    smoke: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Self {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            spread: None,
            smoke: false,
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| {
                it.next().ok_or_else(|| format!("{arg} needs {what}")).map(String::as_str)
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    let known = || WORKLOADS.map(|w| w.name).join(", ");
                    out.workload =
                        Some(workloads::find(name).ok_or_else(|| {
                            format!("unknown workload {name}; one of: {}", known())
                        })?);
                }
                "--seed" => {
                    out.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    let s: f64 =
                        value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(format!("--seconds: {s} is not a duration"));
                    }
                    out.seconds = Some(s);
                }
                "--spread" => {
                    let n: usize =
                        value("a count")?.parse().map_err(|e| format!("--spread: {e}"))?;
                    if n < 2 {
                        return Err("--spread needs at least 2 sets".into());
                    }
                    out.spread = Some(n);
                }
                // The driver passes `--trace 0|1`; by hand a bare `--trace`
                // means 1.
                "--trace" => {
                    out.trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                        Some(v) => v == "1",
                        None => true,
                    };
                }
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if out.spread.is_some() && (out.workload.is_some() || out.trace) {
            return Err(
                "--spread runs every workload's end-to-end pass; drop --workload/--trace".into()
            );
        }
        Ok(out)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS })
    }
}

/// Hidden worker mode: `benchmark worker --socket PATH --worker N`, and
/// nothing else.
fn worker_mode(args: &[String]) -> ExitCode {
    let parsed = match args {
        [s, path, w, slot] if s == "--socket" && w == "--worker" => {
            slot.parse::<u32>().ok().map(|slot| (path, slot))
        }
        _ => None,
    };
    let Some((socket, slot)) = parsed else {
        eprintln!("worker mode takes exactly: --socket PATH --worker N");
        return ExitCode::from(2);
    };
    match gcbfs_core::procrt::worker::run_worker(std::path::Path::new(socket), slot) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("worker {slot}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every metric by name with its unit, sample count and direction; a
/// layer metric also with the end-to-end metric and workload it should
/// move.
fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("== {title} ==");
    for m in metrics {
        let (better, moves) = match PER_LAYER.iter().find(|l| l.name == m.name) {
            Some(l) => (l.better, format!("  -> {}", l.moves)),
            None => {
                let spec = END_TO_END.iter().find(|e| e.name == m.name);
                (spec.expect("a listed metric").better, String::new())
            }
        };
        println!(
            "{:<32} {:>18.6} {:<9} n={:<6} {} is better{moves}",
            m.name,
            m.value,
            m.unit,
            m.samples,
            better.label()
        );
    }
}

/// Runs one workload in this process. The last line printed is the
/// result object.
fn run_one(workload: &'static Workload, args: &Args) -> ExitCode {
    let seconds = args.seconds();
    let mut gate = Gate::new(workload.name);
    let scratch = match ScratchDir::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot create the run's scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let inputs = Inputs::generate(workload, args.seed, args.smoke);
    let pass = if args.trace { "traced (layer probe)" } else { "end-to-end (probe off)" };
    println!("{}: {}", workload.name, workload.why);
    let title = format!(
        "{} | seed {} | {seconds} s | {pass} | n={} m={} | pool {} of {} cores",
        workload.name,
        args.seed,
        inputs.graph.num_vertices,
        inputs.graph.num_edges(),
        rayon::current_num_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut span_summary = Vec::new();
    let metrics = if args.trace {
        let traced = traced::run(&inputs, seconds, args.seed, scratch.path(), &mut gate);
        if let (Some(doc), false) = (&traced.trace_json, args.smoke) {
            let file = format!("trace_{}.json", workload.name);
            if let Err(e) = ledger::write(&file, doc) {
                eprintln!("cannot write {file}: {e}");
            }
        }
        span_summary = traced.span_summary;
        traced.metrics
    } else {
        endtoend::run(&inputs, seconds, scratch.path(), &mut gate)
    };
    drop(scratch);

    // Hygiene: the proc runtime reaps its workers on every path.
    let leaked = harness::live_children();
    if !leaked.is_empty() {
        gate.fail(format!("child processes outlive the run: {leaked:?}"));
    }
    let expected = if args.trace { PER_LAYER.len() } else { END_TO_END.len() };
    if metrics.len() != expected {
        gate.fail("the pass produced no metrics".into());
    }

    print_metrics(&title, &metrics);
    for line in &span_summary {
        println!("{line}");
    }
    println!(
        "ops attempted {} failed {} failed_ops_share {}",
        gate.attempted,
        gate.failed,
        gate.failed as f64 / gate.attempted.max(1) as f64
    );
    if !args.smoke {
        let stamp = ledger::RunStamp {
            workload: workload.name,
            seed: args.seed,
            seconds,
            traced: args.trace,
            correct: gate.correct(),
            attempted: gate.attempted,
            failed: gate.failed,
        };
        if let Err(e) = ledger::append("runs.jsonl", &ledger::entry(&stamp, &metrics)) {
            eprintln!("cannot append to the ledger: {e}");
        }
    }
    println!(
        "{}",
        metrics::result_line(gate.correct(), gate.attempted.max(1), gate.failed, &metrics)
    );
    if gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in a fresh child process of this executable, echoing
/// its output; returns its metrics when it exited zero with a result.
fn run_child(workload: &Workload, args: &Args) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().ok()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (human, result) = text.trim_end().rsplit_once('\n').unwrap_or(("", text.trim_end()));
    println!("{human}");
    if !output.status.success() {
        println!("FAILED [{}] exited with {}", workload.name, output.status);
        return None;
    }
    let doc = Json::parse(result).ok()?;
    let Json::Obj(members) = doc.get("metrics")? else { return None };
    members.iter().map(|(name, m)| Some((name.clone(), m.get("value")?.as_num()?))).collect()
}

/// Every workload once, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let failures = WORKLOADS.iter().filter(|w| run_child(w, args).is_none()).count();
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{failures} workload(s) failed");
        ExitCode::FAILURE
    }
}

/// `--spread N`: the end-to-end pass N times, workloads interleaved
/// (A..E, A..E, ...) so each samples the host at N separate times; then
/// per (metric, workload) the median, min-max, (max-min)/median and the
/// spread the driver holds against the metric's bound (interquartile
/// range over median). Like the driver, it reports `setup_s` but does not
/// fail on it. Written to `results/spread.json`.
fn run_spread(sets: usize, args: &Args) -> ExitCode {
    // samples[workload][metric] across sets.
    let mut samples = vec![vec![Vec::<f64>::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut ok = true;
    for set in 0..sets {
        println!("---- set {} of {sets} ----", set + 1);
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let Some(metrics) = run_child(workload, args) else {
                ok = false;
                continue;
            };
            for (m, spec) in END_TO_END.iter().enumerate() {
                match metrics.iter().find(|(name, _)| name == spec.name) {
                    Some((_, value)) => samples[w][m].push(*value),
                    None => ok = false,
                }
            }
        }
    }
    println!(
        "== spread over {sets} sets: median [min .. max] (max-min)/median | iqr/median vs bound =="
    );
    let mut rows = Vec::new();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, spec) in END_TO_END.iter().enumerate() {
            let v = &samples[w][m];
            if v.len() < 2 {
                continue; // a run failed; `ok` is already false
            }
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mid = stats::median(v);
            let range = (hi - lo) / mid;
            let spread = stats::quartile_spread(v);
            let verdict = match (spread <= spec.bound, spec.name) {
                (true, _) => "ok",
                (false, "setup_s") => "exceeds (not held)",
                (false, _) => {
                    ok = false;
                    "EXCEEDS"
                }
            };
            println!(
                "{:<22} {:<22} {mid:>16.4} [{lo:.4} .. {hi:.4}] {:<6} {range:.4} | {spread:.4} vs {} {verdict}",
                workload.name, spec.name, spec.unit, spec.bound,
            );
            rows.push(format!(
                "{{\"workload\":\"{}\",\"metric\":\"{}\",\"unit\":\"{}\",\"median\":{mid},\"min\":{lo},\"max\":{hi},\"range_over_median\":{range},\"iqr_over_median\":{spread},\"bound\":{},\"verdict\":\"{verdict}\"}}",
                workload.name, spec.name, spec.unit, spec.bound
            ));
        }
    }
    if !args.smoke {
        let doc = format!(
            "{{\"sets\":{sets},\"seed\":{},\"seconds\":{},\"pass\":{ok},\"rows\":[\n{}\n]}}\n",
            args.seed,
            args.seconds(),
            rows.join(",\n")
        );
        if let Err(e) = ledger::write("spread.json", &doc) {
            eprintln!("cannot write spread.json: {e}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("spread check failed");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        return worker_mode(&argv[1..]);
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.workload, args.spread) {
        (Some(workload), _) => run_one(workload, &args),
        (None, Some(sets)) => run_spread(sets, &args),
        (None, None) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        Args::parse(&argv)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload web_longtail --seed 9 --seconds 15 --trace 1").unwrap();
        assert_eq!(a.workload.unwrap().name, "web_longtail");
        assert_eq!((a.seed, a.seconds(), a.trace), (9, 15.0, true));
        assert!(!parse("--workload web_longtail --trace 0").unwrap().trace);
        // By hand: a bare flag, in any position.
        assert!(parse("--trace --seed 3").unwrap().trace);
        assert_eq!(parse("--trace --seed 3").unwrap().seed, 3);
        assert_eq!(parse("").unwrap().seconds(), DEFAULT_SECONDS);
        assert_eq!(parse("--smoke").unwrap().seconds(), SMOKE_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--seconds",
            "--spread 1",
            "--spread 3 --trace",
            "--bogus",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }
}
