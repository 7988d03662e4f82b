//! Resilience sweep: the price of surviving faults.
//!
//! Not a paper figure — the paper measures fault-free runs — but the
//! natural operational question its scale raises: what does BFS cost when
//! the cluster misbehaves? Three sweeps, all verified bit-exact against
//! the fault-free depths:
//!
//! 1. **Message-loss intensity**: drop probabilities from 0 to 20% per
//!    in-flight update. An update is delivered once or lost, and a loss
//!    retries the whole exchange, so the overhead is exchange
//!    retransmissions with exponential backoff.
//! 2. **Checkpoint cadence vs fail-stop**: a GPU dies mid-run; sparser
//!    checkpoints are cheaper up front but waste more work at rollback.
//! 3. **Random chaos plans**: seeded mixed plans ([`FaultPlan::random`])
//!    as a smoke-level reproduction of the recovery property test.
//! 4. **Chaos with compression on** (bit-exact under retransmission).
//! 5. **Availability vs MTTF**: periodic fail-stops at a given
//!    mean-time-to-failure (in iterations), round-robin victims until
//!    `p - 1` have died; reports the surviving GTEPS, recovery bill, and
//!    availability fraction.
//!
//! Usage: `gcbfs-bench fault_sweep [--smoke [all|spread|spare|sdc|loss]]`.
//! The full run takes `GCBFS_SCALE` (default 13) and ten random plans
//! in sweep 3.
//!
//! `--smoke [spread|spare|all]` (bare `--smoke`: `all`) instead runs the
//! fail-stop acceptance checks at scale `GCBFS_SCALE` (default 20) on a
//! 16-GPU grid: each death must be recovered by exactly one rollback,
//! spare absorption must keep the post-recovery per-iteration time
//! within 5% of fault-free, and spreading must keep the degraded
//! per-iteration time within the analytic `(p+1)/p` bound (plus 10% for
//! the comm-lane reassignment).
//! `--smoke sdc` instead runs the correctness-armor acceptance gate: ten
//! seeded random silent-data-corruption plans at scale `GCBFS_SCALE`
//! (default 18) on the same 16-GPU grid, under `Full` online
//! verification — every plan whose events fire must be detected and
//! recover to bit-exact fault-free depths.
//! `--smoke loss` instead runs the message-loss gate at scale
//! `GCBFS_SCALE` (default 18) on the same 16-GPU grid: depths must be
//! bit-exact at drop probabilities 0.05, 0.2 and 1.0, and at 1.0 every
//! superstep whose exchange delivered any update must retry exactly
//! [`MAX_RETRIES`] times before the reliable path takes it.

use gcbfs_bench::prelude::*;
use gcbfs_cluster::fault::{degraded_bound, FaultPlan};
use gcbfs_core::recovery::{RecoveryConfig, MAX_RETRIES};
use gcbfs_core::stats::FaultStats;
use gcbfs_core::verify::VerificationMode;

/// Seeded plans in sweeps 3 and `--smoke sdc`.
const SEEDS: u64 = 10;

/// Mean modeled per-iteration time over a run's final (post-replay)
/// iteration records.
fn per_iteration_seconds(r: &BfsResult) -> f64 {
    let sum: f64 = r.stats.records.iter().map(|rec| rec.timing.elapsed()).sum();
    sum / r.stats.records.len().max(1) as f64
}

/// The `--smoke` mode: fail-stop acceptance checks on a 16-GPU grid, one
/// recovery trajectory per invocation (or `all`).
fn smoke(k: &Knobs, mode: &str) {
    let scale = k.scale.unwrap_or(20);
    let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
    let topo = Topology::new(8, 2);
    let config = BfsConfig::new(th);
    let graph = RmatConfig::graph500(scale).generate();
    let source = graph.hub().expect("graph has vertices");
    println!(
        "Fail-stop smoke [{mode}]: RMAT scale {scale}, TH {th}, {} GPUs, source {source}",
        topo.num_gpus()
    );

    let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
    let clean = dist.run(source, &config).expect("fault-free run");
    let clean_iter_s = per_iteration_seconds(&clean);
    println!(
        "fault-free: {} iterations, {} ms modeled, {} ms/iter",
        clean.iterations(),
        f2(ms(clean.modeled_seconds())),
        f2(ms(clean_iter_s))
    );
    let fail_iter = (clean.iterations() / 3).max(1);
    let p = topo.num_gpus() as usize;

    let run_mode = |spares: u32| {
        let topo = Topology::new(8, 2).with_spares(spares);
        let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
        let plan = FaultPlan::new(0xe1a5).with_fail_stop(5, fail_iter);
        let r = dist.run_with_faults(source, &config, &plan).expect("recovered");
        assert_eq!(r.depths, clean.depths, "recovery must be bit-exact");
        let f = &r.stats.fault;
        assert_eq!((f.fail_stops, f.rollbacks), (1, 1), "one death, one rollback");
        r
    };

    let mut rows = Vec::new();
    let mut record = |name: &str, r: &BfsResult| {
        let iter_s = per_iteration_seconds(r);
        let f = &r.stats.fault;
        rows.push(vec![
            name.into(),
            f.spare_absorptions.to_string(),
            f.spread_hostings.to_string(),
            f.degraded_iterations.to_string(),
            f2(ms(iter_s)),
            format!("{:.3}", iter_s / clean_iter_s),
            f2(ms(f.recovery_seconds)),
            "ok".into(),
        ]);
        iter_s
    };

    let all = mode == "all";
    if all || mode == "spread" {
        let r = run_mode(0);
        assert_eq!(r.stats.fault.spread_hostings, 1);
        let s = record("spread", &r);
        // The water-filled plan must stay within the analytic bound
        // (p+1)/p, with headroom for the comm-lane reassignment.
        let bound = degraded_bound(p - 1);
        assert!(
            s / clean_iter_s <= bound * 1.10,
            "spread degraded per-iteration {:.3}x exceeds (p+1)/p bound {bound:.3}",
            s / clean_iter_s
        );
    }
    if all || mode == "spare" {
        let r = run_mode(1);
        let f = &r.stats.fault;
        assert_eq!(f.spare_absorptions, 1, "the free spare absorbs the death");
        assert_eq!(f.degraded_iterations, 0, "spare absorption never degrades");
        let s = record("spare", &r);
        assert!(
            (s - clean_iter_s).abs() <= 0.05 * clean_iter_s,
            "spare-absorbed per-iteration {} ms vs fault-free {} ms: more than 5% apart",
            ms(s),
            ms(clean_iter_s)
        );
    }

    print_table(
        &format!("fail-stop smoke (fail GPU 5 at iteration {fail_iter})"),
        &["mode", "spares", "spread", "degraded", "ms/iter", "vs clean", "rec ms", "depths"],
        &rows,
    );
    println!("\nall fail-stop trajectories recovered to bit-exact depths");
}

/// The `--smoke sdc` mode: the correctness-armor acceptance gate. Seeded
/// random silent-data-corruption plans run under `Full` online
/// verification on a 16-GPU grid; every plan whose events fire must be
/// detected (100% detection) and recover to bit-exact fault-free depths.
fn smoke_sdc(k: &Knobs) {
    let scale = k.scale.unwrap_or(18);
    let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
    let topo = Topology::new(8, 2);
    let p = topo.num_gpus() as usize;
    let config = BfsConfig::new(th);
    let graph = RmatConfig::graph500(scale).generate();
    let source = graph.hub().expect("graph has vertices");
    println!("SDC smoke: RMAT scale {scale}, TH {th}, {p} GPUs, {SEEDS} seeded plans");

    let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
    let clean = dist.run(source, &config).expect("fault-free run");
    let full = config.with_verification(VerificationMode::Full);
    // Schedule events inside the traversal actually run.
    let horizon = clean.iterations().max(2);

    let mut rows = Vec::new();
    let mut fired_plans = 0u64;
    for seed in 0..SEEDS {
        let plan = FaultPlan::random_sdc(seed, p, horizon);
        let r = dist.run_with_faults(source, &full, &plan).expect("verified recovery");
        assert_eq!(r.depths, clean.depths, "seed {seed}: recovered depths must be bit-exact");
        let f = &r.stats.fault;
        if f.injected_sdc > 0 {
            fired_plans += 1;
            assert!(f.sdc_detections > 0, "seed {seed}: a fired SDC event slipped past Full");
        } else {
            assert_eq!(f.sdc_detections, 0, "seed {seed}: detection without any fired event");
        }
        rows.push(vec![
            seed.to_string(),
            f.injected_sdc.to_string(),
            f.sdc_detections.to_string(),
            f.sdc_reexecutions.to_string(),
            f.rollbacks.to_string(),
            f2(ms(f.recovery_seconds)),
            "ok".into(),
        ]);
    }
    assert!(fired_plans > 0, "no plan fired any event: widen the horizon");
    print_table(
        "SDC smoke (Full tier, seeded random plans)",
        &["seed", "injected", "detected", "reexec", "rollbacks", "rec ms", "depths"],
        &rows,
    );
    println!("\nall fired SDC plans detected under Full and recovered to bit-exact depths");
}

/// The `--smoke loss` mode: the message-loss gate. Drop-only plans on a
/// 16-GPU grid must recover bit-exact depths; at drop probability 1 every
/// attempt of an exchange that carries an update loses one, so each such
/// superstep retries [`MAX_RETRIES`] times and then takes the reliable
/// path.
fn smoke_loss(k: &Knobs) {
    let scale = k.scale.unwrap_or(18);
    let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
    let topo = Topology::new(8, 2);
    let p = topo.num_gpus() as usize;
    let config = BfsConfig::new(th);
    let graph = RmatConfig::graph500(scale).generate();
    let source = graph.hub().expect("graph has vertices");
    println!("Message-loss smoke: RMAT scale {scale}, TH {th}, {p} GPUs, source {source}");

    let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
    let clean = dist.run(source, &config).expect("fault-free run");
    let base_s = clean.modeled_seconds();
    let mut rows = Vec::new();
    for drop in [0.05, 0.2, 1.0] {
        let plan = FaultPlan::new(0x1055).with_message_drops(drop);
        let r = dist.run_with_faults(source, &config, &plan).expect("recovered");
        assert_eq!(r.depths, clean.depths, "drop {drop}: recovery must be bit-exact");
        let f = &r.stats.fault;
        let exchanging = r.stats.records.iter().filter(|rec| rec.nn_updates_sent > 0).count();
        if drop == 1.0 {
            assert_eq!(
                f.retries,
                MAX_RETRIES as u64 * exchanging as u64,
                "drop 1: every exchange that delivers an update retries {MAX_RETRIES} times"
            );
        }
        let overhead = 100.0 * f.overhead_seconds() / base_s;
        rows.push(vec![
            format!("{drop}"),
            f.injected_drops.to_string(),
            exchanging.to_string(),
            f.retries.to_string(),
            f2(ms(f.recovery_seconds)),
            pct(overhead),
            "ok".into(),
        ]);
    }
    print_table(
        "message-loss smoke (drop-only plans)",
        &["drop p", "drops", "exchanging", "retries", "rec ms", "overhead", "depths"],
        &rows,
    );
    println!("\nall message-loss plans recovered to bit-exact depths");
}

pub fn run(k: &Knobs, smoke_mode: Option<&str>) {
    match smoke_mode {
        Some("sdc") => return smoke_sdc(k),
        Some("loss") => return smoke_loss(k),
        Some(mode) => return smoke(k, mode),
        None => {}
    }
    let scale = k.scale.unwrap_or(13);
    let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
    let topo = Topology::new(2, 2);
    let config = BfsConfig::new(th);
    let graph = RmatConfig::graph500(scale).generate();
    let source = graph.hub().expect("graph has vertices");

    println!("Fault sweep: RMAT scale {scale}, TH {th}, {} GPUs, source {source}", topo.num_gpus());
    let dist = DistributedGraph::build(&graph, topo, &config).expect("build");
    let clean = dist.run(source, &config).expect("fault-free run");
    let base_s = clean.modeled_seconds();
    println!("fault-free: {} iterations, {} ms modeled", clean.iterations(), f2(ms(base_s)));

    let overhead = |f: &FaultStats| 100.0 * f.overhead_seconds() / base_s;

    // ---- Sweep 1: message-loss intensity. ----
    let mut rows = Vec::new();
    for intensity in [0.0, 0.01, 0.05, 0.10, 0.20] {
        let plan = FaultPlan::new(0xc0ffee).with_message_drops(intensity);
        let r = dist.run_with_faults(source, &config, &plan).expect("recovered");
        assert_eq!(r.depths, clean.depths, "recovery must be bit-exact");
        let f = &r.stats.fault;
        rows.push(vec![
            pct(intensity * 100.0),
            f.injected_drops.to_string(),
            f.retries.to_string(),
            f2(ms(f.recovery_seconds)),
            f2(ms(f.checkpoint_seconds)),
            pct(overhead(f)),
            "ok".into(),
        ]);
    }
    print_table(
        "message-loss intensity (drop p)",
        &["p", "drops", "retries", "rec ms", "ckpt ms", "overhead", "depths"],
        &rows,
    );

    // ---- Sweep 2: checkpoint cadence vs a mid-run fail-stop. ----
    let fail_iter = (clean.iterations() / 2).max(1);
    let mut rows = Vec::new();
    for interval in [1u32, 2, 4, 8, 0] {
        let cfg =
            config.with_recovery(RecoveryConfig::default().with_checkpoint_interval(interval));
        let plan = FaultPlan::new(1).with_fail_stop(1, fail_iter);
        let r = dist.run_with_faults(source, &cfg, &plan).expect("recovered");
        assert_eq!(r.depths, clean.depths, "recovery must be bit-exact");
        let f = &r.stats.fault;
        rows.push(vec![
            if interval == 0 { "iter-0 only".into() } else { format!("every {interval}") },
            f.checkpoints_taken.to_string(),
            f.rollbacks.to_string(),
            f.degraded_iterations.to_string(),
            f2(ms(f.checkpoint_seconds)),
            f2(ms(f.recovery_seconds)),
            pct(overhead(f)),
            "ok".into(),
        ]);
    }
    print_table(
        &format!("checkpoint cadence vs fail-stop of GPU 1 at iteration {fail_iter}"),
        &["cadence", "ckpts", "rollbacks", "degraded", "ckpt ms", "rec ms", "overhead", "depths"],
        &rows,
    );

    // ---- Sweep 3: random chaos plans. ----
    let mut rows = Vec::new();
    for seed in 0..SEEDS {
        let plan = FaultPlan::random(seed, topo.num_gpus() as usize, clean.iterations());
        let r = dist.run_with_faults(source, &config, &plan).expect("recovered");
        assert_eq!(r.depths, clean.depths, "recovery must be bit-exact");
        let f = &r.stats.fault;
        rows.push(vec![
            seed.to_string(),
            format!("{}d/{}c/{}f", f.injected_drops, f.injected_corruptions, f.fail_stops),
            f.retries.to_string(),
            f.rollbacks.to_string(),
            pct(overhead(f)),
            "ok".into(),
        ]);
    }
    print_table(
        "random chaos plans (faults = drops/corruptions/fail-stops)",
        &["seed", "faults", "retries", "rollbacks", "overhead", "depths"],
        &rows,
    );

    // ---- Sweep 4: chaos with compression on. ----
    // Retransmissions re-encode deterministically and rollbacks reset the
    // differential-mask baseline, so the compressed wire must recover to
    // the same depths as the raw one — while still saving bytes.
    let cfg = config.with_compression(gcbfs_compress::CompressionMode::Adaptive);
    let mut rows = Vec::new();
    for seed in 0..SEEDS.min(5) {
        let plan = FaultPlan::random(seed, topo.num_gpus() as usize, clean.iterations());
        let r = dist.run_with_faults(source, &cfg, &plan).expect("recovered");
        assert_eq!(r.depths, clean.depths, "compressed recovery must be bit-exact");
        let f = &r.stats.fault;
        rows.push(vec![
            seed.to_string(),
            f.retries.to_string(),
            f.rollbacks.to_string(),
            r.stats.total_remote_bytes().to_string(),
            r.stats.total_bytes_saved().to_string(),
            format!("{:.3}", r.stats.compression_ratio()),
            pct(overhead(f)),
            "ok".into(),
        ]);
    }
    print_table(
        "random chaos plans with adaptive compression",
        &["seed", "retries", "rollbacks", "rbytes", "saved", "ratio", "overhead", "depths"],
        &rows,
    );

    // ---- Sweep 5: availability vs MTTF. ----
    // Periodic fail-stops: one GPU dies every `mttf` iterations
    // (round-robin victims) until `p - 1` have died, each spread over the
    // survivors. Reports the GTEPS that survives the losses and the
    // availability fraction (time not spent checkpointing or recovering).
    let (horizon, p) = (clean.iterations(), topo.num_gpus() as usize);
    let mut rows = Vec::new();
    for mttf in [0u32, 3, 2, 1] {
        let mut plan = FaultPlan::new(0xa11ce);
        if mttf > 0 {
            // First loss after one clean iteration, then every `mttf`:
            // BFS horizons are short, so an iteration-scale MTTF is the
            // regime where losses actually land inside the run.
            let mut t = 1;
            for victim in 1..p {
                if t >= horizon {
                    break;
                }
                plan = plan.with_fail_stop(victim, t);
                t += mttf;
            }
        }
        let r = dist.run_with_faults(source, &config, &plan).expect("recovered");
        assert_eq!(r.depths, clean.depths, "recovery must be bit-exact");
        let f = &r.stats.fault;
        let total = r.modeled_seconds();
        let gteps = r.stats.total_edges_examined() as f64 / total / 1e9;
        let availability = 1.0 - (f.recovery_seconds + f.checkpoint_seconds) / total;
        rows.push(vec![
            if mttf == 0 { "inf".into() } else { format!("{mttf} iters") },
            f.fail_stops.to_string(),
            f.degraded_iterations.to_string(),
            format!("{gteps:.3}"),
            f2(ms(f.recovery_seconds)),
            pct(100.0 * availability),
            "ok".into(),
        ]);
    }
    print_table(
        "availability vs MTTF (round-robin fail-stops until p - 1 have died)",
        &["MTTF", "fails", "degraded", "GTEPS", "rec ms", "avail", "depths"],
        &rows,
    );
    println!("\nall plans recovered to bit-exact depths (raw and compressed wire)");
}
