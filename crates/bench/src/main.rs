//! `gcbfs-bench` — regenerates one exhibit per run: a table or figure of
//! the paper, or one of the repo's acceptance sweeps.
//!
//! ```text
//! gcbfs-bench <exhibit> [--smoke [mode]]
//! ```
//!
//! With no arguments it lists the exhibits and the `--smoke` modes each
//! takes. An unknown exhibit, an argument the exhibit does not take, or
//! a `GCBFS_*` knob that does not parse (see the library docs) exits
//! with status 2. The hidden `worker --socket PATH --worker N` entry is
//! the proc-backend worker that `backend_sweep` spawns from this binary.

use std::process::ExitCode;

use gcbfs_bench::Knobs;
use gcbfs_core::procrt;

mod exhibit;

use exhibit::{Run, EXHIBITS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        println!("usage: gcbfs-bench <exhibit> [--smoke [mode]]\n\nexhibits:");
        for &(name, modes, _) in EXHIBITS {
            println!("  {name}{}", smoke_usage(modes));
        }
        return ExitCode::SUCCESS;
    };
    if name == "worker" {
        return worker(rest);
    }
    match parse(name, rest).and_then(|(run, smoke)| Ok((run, smoke, Knobs::from_env()?))) {
        Ok((run, smoke, knobs)) => {
            run(&knobs, smoke);
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Finds exhibit `name` and checks the arguments after it against the
/// `--smoke` modes it takes, returning its entry point and smoke mode.
fn parse<'a>(name: &str, rest: &'a [String]) -> Result<(Run, Option<&'a str>), String> {
    let &(_, modes, run) = EXHIBITS
        .iter()
        .find(|(n, ..)| *n == name)
        .ok_or_else(|| format!("unknown exhibit: {name} (run with no arguments for the list)"))?;
    let smoke = match rest {
        [] => None,
        [flag] if flag == "--smoke" && !modes.is_empty() => Some(modes[0]),
        [flag, mode] if flag == "--smoke" && modes.len() > 1 && modes.contains(&mode.as_str()) => {
            Some(mode.as_str())
        }
        _ => {
            return Err(format!(
                "{name} does not take `{}`; usage: gcbfs-bench {name}{}",
                rest.join(" "),
                smoke_usage(modes)
            ))
        }
    };
    Ok((run, smoke))
}

/// How an exhibit taking `modes` is invoked after its name.
fn smoke_usage(modes: &[&str]) -> String {
    match modes {
        [] => String::new(),
        [_] => " [--smoke]".into(),
        _ => format!(" [--smoke [{}]]", modes.join("|")),
    }
}

/// The hidden proc-backend worker: `worker --socket PATH --worker N`,
/// exactly as the coordinator spawns it.
fn worker(args: &[String]) -> ExitCode {
    let parsed = match args {
        [s, socket, w, id] if s == "--socket" && w == "--worker" => {
            id.parse::<u32>().ok().map(|id| (socket, id))
        }
        _ => None,
    };
    let Some((socket, id)) = parsed else {
        eprintln!("error: worker takes --socket PATH --worker N");
        return ExitCode::from(2);
    };
    match procrt::worker::run_worker(std::path::Path::new(socket), id) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("worker {id}: {e}");
            ExitCode::FAILURE
        }
    }
}
