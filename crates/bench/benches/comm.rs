//! Criterion microbenchmarks: the communication substrate (real
//! wall-clock of the simulated collectives and exchange).

use criterion::{criterion_group, criterion_main, Criterion};
use gcbfs_cluster::collectives::allreduce_or;
use gcbfs_cluster::cost::CostModel;
use gcbfs_cluster::topology::{GpuId, Topology};
use gcbfs_compress::CompressionMode;
use gcbfs_core::comm::exchange_normals_with;
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

criterion_group!(benches, bench_allreduce, bench_exchange);
criterion_main!(benches);
