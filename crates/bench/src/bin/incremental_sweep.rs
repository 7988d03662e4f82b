//! Incremental-repair bench: what the delta-update path buys on an
//! evolving graph.
//!
//! For each cell of {batch fraction} x {locality}, applies one seeded
//! mutation batch to a converged BFS answer and compares the modeled
//! cost of the depth-repair waves (plus overlay maintenance) against a
//! from-scratch recompute of the mutated graph, asserting the repaired
//! depths are bit-exact either way. Emits the `BENCH_incremental.json`
//! trajectory future PRs regress against.
//!
//! Environment knobs: `GCBFS_SCALE` (default 20), `GCBFS_GPUS` (default
//! 16), `GCBFS_TH`. `GCBFS_JSON_OUT=/path.json` writes the JSON
//! document to a file.
//!
//! `--smoke` additionally asserts the acceptance gates: every cell
//! bit-exact, and repair at least 3x cheaper than recompute on every
//! batch at or below 1% of the edges.
//!
//! Usage: `cargo run --release --bin incremental_sweep [-- --smoke]`

use gcbfs_bench::{env_or, f2, print_table};
use gcbfs_cluster::topology::Topology;
use gcbfs_core::config::BfsConfig;
use gcbfs_core::incremental::EvolvingGraph;
use gcbfs_core::mutation::MutationLog;
use gcbfs_graph::rmat::RmatConfig;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = env_or("GCBFS_SCALE", 20) as u32;
    let gpus = env_or("GCBFS_GPUS", 16) as u32;
    let th = env_or("GCBFS_TH", BfsConfig::suggested_rmat_threshold(scale + 13).max(8));
    let topo = if gpus >= 2 { Topology::new(gpus / 2, 2) } else { Topology::new(1, 1) };
    let p = topo.num_gpus() as usize;
    let config = BfsConfig::new(th);
    let graph = RmatConfig::graph500(scale).generate();
    let undirected_edges = graph.num_edges() / 2;
    let degrees = graph.out_degrees();
    let source = degrees.iter().enumerate().max_by_key(|&(_, d)| d).unwrap().0 as u64;
    println!("Incremental sweep: RMAT scale {scale}, TH {th}, {p} GPUs, source {source}");

    let mut base = EvolvingGraph::new(&graph, topo, &config);
    let initial = base.initial_run(source).expect("initial run");
    let full_seconds = initial.modeled_seconds();
    println!(
        "initial BFS: {} iterations, {} reached, modeled {} ms (the recompute price)",
        initial.iterations(),
        initial.reached(),
        f2(full_seconds * 1e3)
    );

    let fractions = [1e-4f64, 1e-3, 1e-2];
    let localities = [0.0f64, 0.9];
    let mut rows = Vec::new();
    let mut cell_json = Vec::new();
    let mut small_batch_speedup = f64::INFINITY;
    let mut all_bit_exact = true;
    for (i, &frac) in fractions.iter().enumerate() {
        for (j, &locality) in localities.iter().enumerate() {
            let ops = ((undirected_edges as f64 * frac) as usize).max(1);
            let seed = 0xbf5 + (i * localities.len() + j) as u64;
            let log = MutationLog::random(seed, &graph, 1, ops, locality);
            // Each cell mutates its own copy of the converged state so
            // cells stay independent and the batch is always measured
            // against the same baseline.
            let mut evolving = base.clone();
            let report = evolving.apply_batch(&log.batches[0]);
            let repair_seconds = report.modeled_seconds();
            let truth = evolving.recompute().expect("recompute");
            let recompute_seconds = truth.modeled_seconds();
            let bit_exact = evolving.depths() == truth.depths.as_slice();
            all_bit_exact &= bit_exact;
            let speedup = recompute_seconds / repair_seconds.max(1e-12);
            if frac <= 0.01 {
                small_batch_speedup = small_batch_speedup.min(speedup);
            }
            rows.push(vec![
                format!("{frac:.0e}"),
                format!("{locality}"),
                format!("{ops}"),
                format!("{}", report.waves),
                format!("{}", report.invalidated + report.resettled),
                f2(repair_seconds * 1e3),
                f2(recompute_seconds * 1e3),
                f2(speedup),
                if bit_exact { "yes".into() } else { "NO".into() },
            ]);
            cell_json.push(format!(
                "{{\"batch_frac\":{frac},\"locality\":{locality},\"ops\":{ops},\
                 \"waves\":{},\"touched\":{},\"repair_ms\":{},\"recompute_ms\":{},\
                 \"speedup\":{speedup},\"bit_exact\":{bit_exact}}}",
                report.waves,
                report.invalidated + report.resettled,
                repair_seconds * 1e3,
                recompute_seconds * 1e3
            ));
        }
    }
    print_table(
        &format!("repair vs recompute (scale {scale}, {p} GPUs)"),
        &[
            "batch",
            "locality",
            "ops",
            "waves",
            "touched",
            "repair ms",
            "recompute ms",
            "speedup",
            "bit-exact",
        ],
        &rows,
    );
    println!(
        "\nsmallest repair-vs-recompute advantage at batches <= 1% of edges: {}x",
        f2(small_batch_speedup)
    );

    let doc = format!(
        "{{\"bench\":\"incremental\",\"scale\":{scale},\"gpus\":{p},\"th\":{th},\
         \"full_recompute_ms\":{},\"cells\":[{}],\
         \"small_batch_speedup\":{small_batch_speedup},\"bit_exact\":{all_bit_exact}}}",
        full_seconds * 1e3,
        cell_json.join(",")
    );
    println!("\n{doc}");
    if let Ok(path) = std::env::var("GCBFS_JSON_OUT") {
        std::fs::write(&path, &doc).expect("write GCBFS_JSON_OUT");
        println!("json written to {path}");
    }
    if smoke {
        assert!(all_bit_exact, "a repaired cell diverged from its recompute");
        assert!(
            small_batch_speedup >= 3.0,
            "repair only {}x faster than recompute at batches <= 1% of edges (gate: 3x)",
            f2(small_batch_speedup)
        );
        println!(
            "\nsmoke: all cells bit-exact, repair >= {}x recompute at small batches",
            f2(small_batch_speedup)
        );
    }
}
