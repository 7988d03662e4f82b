//! §VI-A1 network microbenchmark: effective bandwidth vs message size.
//!
//! The paper swept MPI message sizes from 128 kB to 16 MB between 32 nodes
//! and found ~4 MB optimal for data larger than 2 MB. This exhibit sweeps
//! the same range against the network model and reports the effective
//! per-message throughput, confirming the model reproduces that optimum.
//!
//! Usage: `gcbfs-bench net_sweep`.

use gcbfs_bench::prelude::*;
use gcbfs_cluster::cost::NetworkModel;

pub fn run(_: &Knobs, _smoke: Option<&str>) {
    let net = NetworkModel::ray();
    println!("§VI-A1 reproduction: message-size sweep (modeled Ray InfiniBand + staging)");

    let mut rows = Vec::new();
    let mut best = (0u64, 0.0f64);
    for exp in 17..=24 {
        let bytes = 1u64 << exp; // 128 kB .. 16 MB
        let time = net.p2p_time(bytes, false);
        let throughput = bytes as f64 / time / 1e9;
        if throughput > best.1 {
            best = (bytes, throughput);
        }
        rows.push(vec![
            format!("{} kB", bytes / 1024),
            format!("{:.1}", time * 1e6),
            f2(throughput),
            f2(net.effective_internode_bandwidth(bytes) / 1e9),
        ]);
    }
    print_table(
        "Message-size sweep",
        &["message", "time (us)", "end-to-end GB/s", "wire GB/s"],
        &rows,
    );
    println!(
        "\nOptimum: {} kB at {:.2} GB/s (paper: ~4 MB optimal for data > 2 MB).",
        best.0 / 1024,
        best.1
    );
    assert!(
        (2 * 1024 * 1024..=8 * 1024 * 1024).contains(&best.0),
        "model optimum drifted away from ~4 MB"
    );
}
