//! Verification-tier bench: what the correctness armor costs.
//!
//! Runs the same traversal under online verification `Off`, `Checksums`,
//! and `Full` and reports GTEPS plus modeled elapsed per tier, then runs
//! seeded silent-data-corruption plans under `Full` and reports the
//! detection counts. The full run's output is the committed
//! `results/verify_sweep.txt`, which the exhibit drift gate compares byte
//! for byte.
//!
//! Usage: `gcbfs-bench verify_sweep [--smoke]` — 16 GPUs at the scale's
//! suggested threshold, five SDC plans. Environment knob: `GCBFS_SCALE`
//! (default 20).
//!
//! `--smoke` additionally asserts the acceptance bound: `Full`-tier
//! overhead must stay within 10% of the `Off`-tier modeled elapsed.

use gcbfs_bench::prelude::*;
use gcbfs_cluster::fault::FaultPlan;
use gcbfs_core::verify::VerificationMode;

pub fn run(k: &Knobs, smoke: Option<&str>) {
    let smoke = smoke.is_some();
    let scale = k.scale.unwrap_or(20);
    let seeds = 5u64;
    let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
    let topo = Topology::new(8, 2);
    let p = topo.num_gpus() as usize;
    let config = BfsConfig::new(th);
    let graph = RmatConfig::graph500(scale).generate();
    let m_half = graph.num_edges() / 2;
    let source = graph.hub().expect("graph has vertices");
    println!("Verification sweep: RMAT scale {scale}, TH {th}, {p} GPUs, source {source}");

    let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
    let tiers = [VerificationMode::Off, VerificationMode::Checksums, VerificationMode::Full];
    let mut rows = Vec::new();
    let mut elapsed = Vec::new();
    let mut off_depths = Vec::new();
    for mode in tiers {
        let r = dist.run(source, &config.with_verification(mode)).expect("clean run");
        if mode == VerificationMode::Off {
            off_depths = r.depths.clone();
        } else {
            assert_eq!(r.depths, off_depths, "verification perturbed a clean traversal");
        }
        let s = r.modeled_seconds();
        rows.push(vec![
            mode.label().into(),
            f2(r.gteps(m_half)),
            f2(s * 1e3),
            pct((s / elapsed.first().copied().unwrap_or(s) - 1.0) * 100.0),
        ]);
        elapsed.push(s);
    }
    let overhead = elapsed[2] / elapsed[0] - 1.0;
    print_table(
        &format!("verification tiers (clean run, scale {scale}, {p} GPUs)"),
        &["tier", "GTEPS", "modeled ms", "vs off"],
        &rows,
    );

    // Detection counts: seeded SDC plans under Full, every recovered run
    // bit-exact against the Off-tier depths.
    let full = config.with_verification(VerificationMode::Full);
    let horizon = off_depths.iter().filter(|&&d| d != u32::MAX).max().copied().unwrap_or(1) + 1;
    let (mut injected, mut detected, mut reexecs) = (0u64, 0u64, 0u64);
    for seed in 0..seeds {
        let plan = FaultPlan::random_sdc(seed, p, horizon);
        let r = dist.run_with_faults(source, &full, &plan).expect("verified recovery");
        assert_eq!(r.depths, off_depths, "seed {seed}: recovery must be bit-exact");
        let f = &r.stats.fault;
        assert!(
            f.injected_sdc == 0 || f.sdc_detections > 0,
            "seed {seed}: a fired SDC event slipped past Full"
        );
        injected += f.injected_sdc;
        detected += f.sdc_detections;
        reexecs += f.sdc_reexecutions;
    }
    println!(
        "\nSDC under Full: {seeds} plans, {injected} event(s) fired, {detected} detection(s), \
         {reexecs} re-execution(s), all depths bit-exact"
    );

    if smoke {
        assert!(
            overhead <= 0.10,
            "Full verification overhead {} exceeds the 10% acceptance bound",
            pct(overhead * 100.0)
        );
        println!("\nsmoke: Full overhead {} within the 10% bound", pct(overhead * 100.0));
    }
}
