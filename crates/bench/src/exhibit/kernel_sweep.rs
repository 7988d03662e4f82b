//! Kernel-variant bench: what the raw-speed overhaul buys.
//!
//! Runs the same traversal under the {scalar, word-parallel} kernel
//! variants with the compute/comm overlap pipeline off and on, and
//! reports GTEPS plus modeled elapsed per cell; the full run's output is
//! the committed `results/kernel_sweep.txt`, which the exhibit drift gate
//! compares byte for byte. The scalar variant prices per-bit mask probing on a derated device; the
//! word-parallel default is the seed's charge model bit-for-bit.
//!
//! Usage: `gcbfs-bench kernel_sweep [--smoke]` — 16 GPUs at the scale's
//! suggested threshold. Environment knob: `GCBFS_SCALE` (default 20).
//!
//! `--smoke` additionally asserts the acceptance gates: word-parallel
//! must be at least 1.5x the scalar GTEPS, the overlap pipeline must
//! hide at least half of the nn-exchange wire seconds on a
//! direction-switching run, and depths must be bit-exact across the
//! whole matrix.

use gcbfs_bench::prelude::*;
use gcbfs_core::kernels::KernelVariant;
use gcbfs_core::trace::{direction_trajectory, is_single_switch, Kernel};

pub fn run(k: &Knobs, smoke: Option<&str>) {
    let smoke = smoke.is_some();
    let scale = k.scale.unwrap_or(20);
    let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
    let topo = Topology::new(8, 2);
    let p = topo.num_gpus() as usize;
    let config = BfsConfig::new(th);
    let graph = RmatConfig::graph500(scale).generate();
    let m_half = graph.num_edges() / 2;
    let source = graph.hub().expect("graph has vertices");
    println!("Kernel sweep: RMAT scale {scale}, TH {th}, {p} GPUs, source {source}");

    let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
    let mut rows = Vec::new();
    let mut baseline_depths = Vec::new();
    // Per (variant, overlap) cell: modeled seconds, plus the word-parallel
    // runs' wire seconds for the overlap gate.
    let mut modeled = Vec::new();
    let mut word_wire_seconds = 0.0f64;
    let mut trajectory = String::new();
    for variant in [KernelVariant::Scalar, KernelVariant::WordParallel] {
        for overlap in [false, true] {
            let cfg = config.with_kernel_variant(variant).with_overlap(overlap);
            let r = dist.run(source, &cfg).expect("clean run");
            if baseline_depths.is_empty() {
                baseline_depths = r.depths.clone();
            } else {
                assert_eq!(
                    r.depths,
                    baseline_depths,
                    "variant {} overlap {overlap} changed depths",
                    variant.label()
                );
            }
            if variant == KernelVariant::WordParallel && !overlap {
                word_wire_seconds =
                    r.stats.records.iter().map(|rec| rec.timing.phases.remote_normal).sum::<f64>();
                trajectory = direction_trajectory(&r, Kernel::Dd);
            }
            let s = r.modeled_seconds();
            rows.push(vec![
                variant.label().into(),
                if overlap { "on" } else { "off" }.into(),
                f2(r.gteps(m_half)),
                f2(s * 1e3),
            ]);
            modeled.push(s);
        }
    }
    print_table(
        &format!("kernel variants (scale {scale}, {p} GPUs)"),
        &["variant", "overlap", "GTEPS", "modeled ms"],
        &rows,
    );

    // modeled[]: [scalar/off, scalar/on, word/off, word/on].
    let speedup = modeled[0] / modeled[2];
    let hidden = modeled[2] - modeled[3];
    let hidden_frac = if word_wire_seconds > 0.0 { hidden / word_wire_seconds } else { 0.0 };
    println!(
        "\nword-parallel vs scalar: {}x; overlap hides {} of {} ms nn-exchange wire time \
         (trajectory {trajectory})",
        f2(speedup),
        pct(hidden_frac * 100.0),
        f2(word_wire_seconds * 1e3)
    );

    if smoke {
        assert!(
            speedup >= 1.5,
            "word-parallel speedup {}x below the 1.5x acceptance gate",
            f2(speedup)
        );
        assert!(
            trajectory.contains('B') && is_single_switch(&trajectory),
            "gate run must switch direction once (dd trajectory {trajectory})"
        );
        assert!(
            hidden_frac >= 0.5,
            "overlap hides only {} of the nn-exchange wire seconds (gate: 50%)",
            pct(hidden_frac * 100.0)
        );
        println!(
            "\nsmoke: {}x word-parallel speedup, {} of wire hidden, depths bit-exact",
            f2(speedup),
            pct(hidden_frac * 100.0)
        );
    }
}
