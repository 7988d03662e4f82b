//! Figure 8: effect of the option set {DO, L, U, IR, BR} on the runtime
//! breakdown, for `*×2×2` and `*×1×4` hardware configurations
//! (paper: RMAT scale 32 with TH = 128 on 64 GPUs; default here: scale 16
//! with TH = 32 on 16 GPUs).
//!
//! Expected shape (paper): DO cuts computation ~3×; L and U add a little
//! local time without much global benefit (TH is low, few duplicates);
//! BR beats IR at this GPU count.
//!
//! Usage: `gcbfs-bench fig08_options`. Environment knobs: `GCBFS_SCALE`
//! (default 17), `GCBFS_SOURCES`.

use gcbfs_bench::prelude::*;

pub fn run(k: &Knobs, _smoke: Option<&str>) {
    let scale = k.scale.unwrap_or(17);
    // The paper used TH 128 for its scale-32 graph; the equivalent
    // plateau threshold for our actual scale-17 degree distribution comes
    // from the same suggested-TH rule (Fig. 6/7 calibration).
    let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
    let cfg = RmatConfig::graph500(scale);
    println!(
        "Fig. 8 reproduction: RMAT scale {scale}, TH {th}, 64 GPUs \
         (paper: scale 32, TH 128, 64 GPUs)"
    );
    let graph = cfg.generate();
    let sources = graph.source_pool(k.sources, 0xf18);
    let cost = CostModel::ray_scaled(ray_factor(per_gpu_scale(scale, 64)));

    // Option sets in the paper's presentation order.
    let base = || BfsConfig::new(th).with_cost_model(cost);
    let options: Vec<(&str, BfsConfig)> = vec![
        ("BFS+BR", base().with_direction_optimization(false)),
        ("DO+BR", base()),
        ("DO+L+BR", base().with_local_all2all(true)),
        ("DO+L+U+BR", base().with_local_all2all(true).with_uniquify(true)),
        ("DO+IR", base().with_blocking_reduce(false)),
        (
            "DO+L+U+IR",
            base().with_local_all2all(true).with_uniquify(true).with_blocking_reduce(false),
        ),
    ];

    for (label, topo) in [
        ("16x2x2", Topology::from_paper_notation(16, 2, 2)),
        ("16x1x4", Topology::from_paper_notation(16, 1, 4)),
    ] {
        let mut rows = Vec::new();
        for (name, config) in &options {
            let dist = DistributedGraph::build(&graph, topo, config).expect("build");
            let s = run_many(&dist, config, &sources, cfg.graph500_edges());
            rows.push(vec![
                name.to_string(),
                f2(s.phases_ms.computation),
                f2(s.phases_ms.local_comm),
                f2(s.phases_ms.remote_normal),
                f2(s.phases_ms.remote_delegate),
                f2(s.elapsed_ms),
            ]);
        }
        print_table(
            &format!("Fig. 8 — runtime breakdown by option set, {label} (ms, modeled)"),
            &[
                "options",
                "Computation",
                "Local Comm",
                "Remote Normal",
                "Remote Delegate",
                "elapsed",
            ],
            &rows,
        );
    }
    println!(
        "\nShape check: DO cuts Computation ~3x vs BFS; L/U shift small amounts into \
         Local Comm; BR keeps Remote Delegate lower than IR at this rank count; \
         the sum of parts exceeds elapsed because phases overlap."
    );
}
