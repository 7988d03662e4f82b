//! Figure 10: runtime breakdown along the weak-scaling curve for the
//! `*×2×2` setup, DOBFS (left) and BFS (right)
//! (paper: scales 26–33; default here: scales 12–18 with a scale-12 graph
//! per GPU).
//!
//! Expected shape (paper): computation grows slowly (≈4× over 7 scales for
//! DOBFS, ≈3× for BFS); communication grows slightly faster; the sum of
//! parts exceeds elapsed because of overlap (~10%). The pipeline runs
//! with compute/comm overlap on, so the `hidden` column shows how much
//! wire time disappears behind compute at each point on the curve.
//!
//! Usage: `gcbfs-bench fig10_breakdown`. Environment knobs: `GCBFS_SCALE`
//! (per-GPU scale, default 12), `GCBFS_MAX_GPUS` (default 64),
//! `GCBFS_SOURCES`.

use gcbfs_bench::prelude::*;

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    let per_gpu_scale = k.scale.unwrap_or(12);
    let max_gpus = k.max_gpus.unwrap_or(64);
    println!(
        "Fig. 10 reproduction: breakdown along weak scaling, *x2x2, scale-{per_gpu_scale} per GPU \
         (paper: scales 26-33)"
    );

    for use_do in [true, false] {
        let mut rows = Vec::new();
        let mut gpus = 1u32;
        while gpus <= max_gpus {
            let scale = per_gpu_scale + gpus.ilog2();
            let cfg = RmatConfig::graph500(scale);
            let graph = cfg.generate();
            let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
            let topo =
                if gpus == 1 { Topology::new(1, 1) } else { Topology::new((gpus / 2).max(1), 2) };
            // Paper: scales 28-30 unblocking, 31-33 blocking.
            let blocking = gpus >= 32;
            let config = BfsConfig::new(th)
                .with_direction_optimization(use_do)
                .with_blocking_reduce(blocking)
                .with_overlap(true)
                .with_cost_model(CostModel::ray_scaled(ray_factor(per_gpu_scale)));
            let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
            let sources = graph.source_pool(k.sources, 0xf10 + gpus as u64);
            let s = run_many(&dist, &config, &sources, cfg.graph500_edges());
            let hidden = s.phases_ms.sum() - s.elapsed_ms;
            let comm = s.phases_ms.sum() - s.phases_ms.computation;
            let hidden_pct = if comm > 0.0 { hidden / comm * 100.0 } else { 0.0 };
            rows.push(vec![
                scale.to_string(),
                gpus.to_string(),
                f2(s.phases_ms.computation),
                f2(s.phases_ms.local_comm),
                f2(s.phases_ms.remote_normal),
                f2(s.phases_ms.remote_delegate),
                f2(s.elapsed_ms),
                f2(s.phases_ms.sum()),
                format!("{} ({})", f2(hidden), pct(hidden_pct)),
            ]);
            gpus *= 2;
        }
        print_table(
            &format!(
                "Fig. 10 — {} breakdown along weak scaling (ms, modeled)",
                if use_do { "DOBFS" } else { "BFS" }
            ),
            &[
                "scale",
                "GPUs",
                "Computation",
                "Local Comm",
                "Remote Normal",
                "Remote Delegate",
                "elapsed",
                "sum of parts",
                "hidden (of comm)",
            ],
            &rows,
        );
    }
    println!(
        "\nShape check: computation grows only a few x across the whole sweep; \
         communication grows slightly faster; sum of parts > elapsed because the \
         pipeline hides wire time behind compute (the hidden column)."
    );
}
