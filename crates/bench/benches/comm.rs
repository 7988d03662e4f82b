//! Criterion microbenchmarks: the communication substrate (real
//! wall-clock of the simulated collectives and exchange).

use criterion::{criterion_group, criterion_main, Criterion};
use gcbfs_cluster::collectives::allreduce_or;
use gcbfs_cluster::cost::CostModel;
use gcbfs_cluster::topology::{GpuId, Topology};
use gcbfs_compress::CompressionMode;
use gcbfs_core::comm::{exchange_normals_with, prepare_sends};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_allreduce(c: &mut Criterion) {
    let cost = CostModel::ray();
    let mut g = c.benchmark_group("allreduce");
    for words in [1024usize, 16 * 1024] {
        let topo = Topology::new(8, 2);
        let masks: Vec<Vec<u64>> =
            (0..16).map(|i| (0..words as u64).map(|w| w.wrapping_mul(i + 1)).collect()).collect();
        g.bench_function(format!("or_16gpus_{}kB", words * 8 / 1024), |b| {
            b.iter(|| black_box(allreduce_or(topo, &cost, &masks, true)))
        });
    }
    g.finish();
}

fn bench_exchange(c: &mut Criterion) {
    let cost = CostModel::ray();
    let topo = Topology::new(4, 4);
    // 16 GPUs, each sending 10k updates round-robin.
    let sends: Vec<Vec<(GpuId, u32)>> = (0..16)
        .map(|g| {
            (0..10_000u32)
                .map(|i| {
                    let dest = topo.unflat((g + 1 + i as usize) % 16);
                    (dest, i % 4096)
                })
                .collect()
        })
        .collect();
    let mut grp = c.benchmark_group("exchange");
    grp.sample_size(20);
    for (name, l, u) in
        [("plain", false, false), ("local_a2a", true, false), ("a2a_uniquify", true, true)]
    {
        grp.bench_function(name, |b| {
            b.iter(|| {
                black_box(exchange_normals_with(
                    &topo,
                    &cost,
                    sends.clone(),
                    l,
                    u,
                    CompressionMode::Off,
                ))
            })
        });
    }
    grp.finish();
}

/// The uniquify stage at `rmat17_topdown_codec`'s shape: 4×4 GPUs, ~90k
/// `nn` updates per GPU, local all2all on. Slots are drawn uniformly from
/// 4,500 per destination, so each post-regroup bucket of ~22.5k updates
/// keeps ~20 % of them (the workload's `comm.uniquify_kept_share`).
fn bench_uniquify(c: &mut Criterion) {
    let topo = Topology::new(4, 4);
    let mut rng = StdRng::seed_from_u64(17);
    let sends: Vec<Vec<(GpuId, u32)>> = (0..16)
        .map(|_| {
            (0..90_000)
                .map(|_| (topo.unflat(rng.random_range(0..16)), rng.random_range(0..4_500)))
                .collect()
        })
        .collect();
    let mut grp = c.benchmark_group("uniquify");
    grp.sample_size(20);
    grp.bench_function("prepare_rmat17_shape", |b| {
        b.iter(|| black_box(prepare_sends(&topo, sends.clone(), true, true)))
    });
    grp.finish();
}

criterion_group!(benches, bench_allreduce, bench_exchange, bench_uniquify);
criterion_main!(benches);
