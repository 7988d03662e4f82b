//! Host-pool self-speedup sweep: wall-clock scaling of the simulator itself.
//!
//! Not a paper figure — the paper's numbers are modeled GPU/network time —
//! but the harness that produces them is a multi-threaded host program, and
//! this sweep certifies its two load-bearing properties at once:
//!
//! 1. **Determinism**: for every (scale, source) the depth vector is
//!    bit-identical at every thread count. The pool's fixed length-only
//!    chunking and ordered chunk-index merges make this hold by
//!    construction (DESIGN.md §5d); this exhibit re-checks it end to end
//!    through graph generation, edge distribution, and the BFS driver.
//! 2. **Self-speedup**: the same workload gets genuinely faster with more
//!    worker threads. The headline claim is ≥2× at 4 threads vs 1 on the
//!    RMAT scale-20 / 16-GPU configuration, asserted only when the host
//!    actually has ≥4 cores (thread counts above the core count are still
//!    measured — oversubscription must not break determinism — but prove
//!    nothing about scaling).
//!
//! Output: a fixed-width table per scale. Its wall-clock columns move
//! from run to run, so no results file is committed.
//!
//! Usage: `gcbfs-bench parallel_speedup [--smoke]` — scales 18 and 20 at
//! 1, 2, 4 and 8 threads, best of 3 repetitions; `--smoke` shrinks to
//! scale 12, threads 1, 2 and 4, one repetition, for CI.

use gcbfs_bench::prelude::*;
use std::time::Instant;

/// One measured cell of the sweep; its depths are asserted bit-exact
/// against every other cell of its scale.
struct Cell {
    scale: u32,
    threads: usize,
    wall_ms: f64,
    /// Harness throughput: undirected edges traversed per wall-clock
    /// second across all sources (the simulator's own GTEPS, distinct
    /// from the modeled-GPU GTEPS kernel_sweep tracks).
    gteps: f64,
    speedup: f64,
}

/// Builds the distributed graph and runs BFS from every source, returning
/// the concatenated depth vectors (the determinism witness) and the
/// wall-clock seconds of the whole pipeline (generation is excluded: it
/// runs once outside, so each thread count times the same bytes).
fn run_pipeline(
    graph: &EdgeList,
    topo: Topology,
    config: &BfsConfig,
    sources: &[u64],
) -> (Vec<u32>, f64) {
    let start = Instant::now();
    let dist = DistributedGraph::build(graph, topo, config).expect("build");
    let mut depths = Vec::new();
    for &s in sources {
        let r = dist.run(s, config).expect("valid source");
        depths.extend_from_slice(&r.depths);
    }
    (depths, start.elapsed().as_secs_f64())
}

fn sweep_scale(scale: u32, threads: &[usize], reps: usize) -> Vec<Cell> {
    let topo = Topology::new(4, 4); // 16 GPUs, the paper's full-Ray shape
    let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
    let config = BfsConfig::new(th).with_local_all2all(true).with_uniquify(true);
    let graph = RmatConfig::graph500(scale).generate();
    let m_half = graph.num_edges() / 2;
    let sources = graph.source_pool(2, 0x5eed + scale as u64);

    let mut cells = Vec::new();
    let mut reference: Option<Vec<u32>> = None;
    let mut base_ms = 0f64;
    for &t in threads {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(t).build().expect("pool");
        // Best-of-`reps` wall time; depths captured from the first rep
        // (every rep is asserted identical anyway).
        let mut best = f64::INFINITY;
        let mut depths = Vec::new();
        for rep in 0..reps {
            let (d, secs) = pool.install(|| run_pipeline(&graph, topo, &config, &sources));
            best = best.min(secs);
            if rep == 0 {
                depths = d;
            } else {
                assert_eq!(d, depths, "scale {scale}: depths drifted between reps at {t} threads");
            }
        }
        let wall_ms = best * 1e3;
        let gteps = (m_half * sources.len() as u64) as f64 / best / 1e9;
        match &reference {
            None => {
                reference = Some(depths);
                base_ms = wall_ms;
            }
            Some(reference) => assert_eq!(
                &depths, reference,
                "scale {scale}: depth vector differs at {t} threads vs {} threads",
                threads[0],
            ),
        }
        cells.push(Cell { scale, threads: t, wall_ms, gteps, speedup: base_ms / wall_ms });
    }
    cells
}

pub fn run(_: &Knobs, smoke: Option<&str>) {
    let smoke = smoke.is_some();
    let (scales, threads, reps): (&[u32], &[usize], usize) =
        if smoke { (&[12], &[1, 2, 4], 1) } else { (&[18, 20], &[1, 2, 4, 8], 3) };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "Parallel self-speedup{}: RMAT scales {scales:?}, 16 GPUs, threads {threads:?}, \
         best of {reps}, host cores {cores}",
        if smoke { " (smoke)" } else { "" },
    );

    let mut all = Vec::new();
    for &scale in scales {
        let cells = sweep_scale(scale, threads, reps);
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|c| {
                vec![
                    c.threads.to_string(),
                    f2(c.wall_ms),
                    f2(c.gteps),
                    f2(c.speedup),
                    "bit-exact".into(),
                ]
            })
            .collect();
        print_table(
            &format!("scale {scale}, 16 GPUs"),
            &["threads", "wall ms", "GTEPS", "speedup", "depths"],
            &rows,
        );
        all.extend(cells);
    }

    // The headline assertion: ≥2.1× at 4 threads on the largest scale —
    // raised from 2.0× after the word-parallel kernel overhaul (less
    // per-vertex bookkeeping leaves proportionally more parallelizable
    // work). Only meaningful when the host actually has
    // the cores. A 1-core CI runner still verifies determinism above;
    // it cannot prove scaling.
    if !smoke && cores >= 4 {
        let top = *scales.iter().max().expect("at least one scale");
        if let Some(c) = all.iter().find(|c| c.scale == top && c.threads == 4) {
            assert!(
                c.speedup >= 2.1,
                "scale {top}: expected >=2.1x self-speedup at 4 threads, got {:.2}x",
                c.speedup,
            );
            println!(
                "\nself-speedup at 4 threads on scale {top}: {:.2}x (>=2.1x required)",
                c.speedup
            );
        }
    } else {
        println!("\nspeedup assertion skipped (smoke={smoke}, cores={cores}); determinism checked");
    }
}
