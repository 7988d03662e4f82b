//! Golden ledger for the `nn` point-to-point exchange (§V-B).
//!
//! Every cell runs one observed BFS on RMAT 10 and records what the
//! exchange decides and charges: supersteps, remote bytes and the bytes
//! compression saved, per-codec message counts, the bits of
//! `modeled_seconds`, an FNV-1a hash of the depths and one of the run's
//! exported JSON-lines trace. The trace carries every per-peer
//! `MessageRecord` (src, dst, raw and wire bytes) and, in the overlap
//! cell, the encode / transfer / decode stage spans, so a change to how
//! blocks are grouped, encoded, priced or ordered moves a row.
//!
//! Regenerate with `GCBFS_BLESS=1` only after an intentional model
//! change.
//!
//! Below the ledger, uniquify's host implementation is checked element
//! for element against the tuple sort + dedup the model prices.

use gpu_cluster_bfs::cluster::topology::GpuId;
use gpu_cluster_bfs::compress::{CompressionMode, FrontierCodec, MaskCodec};
use gpu_cluster_bfs::core::comm::prepare_sends;
use gpu_cluster_bfs::obs::jsonl::export_jsonl;
use gpu_cluster_bfs::obs::ObservabilityConfig;
use gpu_cluster_bfs::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

const GOLDEN: &str = include_str!("golden/exchange_ledger.txt");

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn row(graph: &EdgeList, source: u64, topo: Topology, config: BfsConfig, name: &str) -> String {
    let config = config.with_observability(ObservabilityConfig::Full);
    let dist = DistributedGraph::build(graph, topo, &config).unwrap();
    let r = dist.run(source, &config).unwrap();
    let c = r.stats.codec_totals();
    format!(
        "{name} steps={} remote_bytes={} saved={} codecs={},{},{}/{},{},{} modeled={:016x} \
         depths={:016x} trace={:016x}",
        r.iterations(),
        r.stats.total_remote_bytes(),
        r.stats.total_bytes_saved(),
        c.raw32,
        c.varint_delta,
        c.bitmap,
        c.raw_mask,
        c.rle_mask,
        c.sparse_index,
        r.modeled_seconds().to_bits(),
        fnv1a(r.depths.iter().flat_map(|d| d.to_le_bytes())),
        fnv1a(export_jsonl(r.observed.as_ref().unwrap()).into_bytes()),
    )
}

fn ledger() -> String {
    let graph = RmatConfig::graph500(10).generate();
    let source = graph.hub().unwrap();
    let modes = [
        ("off", CompressionMode::Off),
        ("adaptive", CompressionMode::Adaptive),
        (
            "varint+sparse",
            CompressionMode::Fixed(FrontierCodec::VarintDelta, MaskCodec::SparseIndex),
        ),
        ("bitmap+rle", CompressionMode::Fixed(FrontierCodec::Bitmap, MaskCodec::RleMask)),
    ];
    let mut out = String::new();
    for (ranks, gpus) in [(2, 2), (4, 2)] {
        for (label, mode) in modes {
            for lu in [false, true] {
                let config = BfsConfig::new(32)
                    .with_compression(mode)
                    .with_local_all2all(lu)
                    .with_uniquify(lu);
                let name = format!("{ranks}x{gpus} {label} {}", if lu { "L+U" } else { "plain" });
                writeln!(out, "{}", row(&graph, source, Topology::new(ranks, gpus), config, &name))
                    .unwrap();
            }
        }
    }
    let overlap = BfsConfig::new(32)
        .with_compression(CompressionMode::Adaptive)
        .with_local_all2all(true)
        .with_uniquify(true)
        .with_overlap(true);
    writeln!(out, "{}", row(&graph, source, Topology::new(4, 2), overlap, "4x2 adaptive L+U+O"))
        .unwrap();
    out
}

#[test]
fn exchange_ledger_matches_the_committed_fixture() {
    let got = ledger();
    if std::env::var("GCBFS_BLESS").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exchange_ledger.txt");
        std::fs::write(path, &got).unwrap();
        return;
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "ledger row count drifted");
    for (g, want) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(g, want, "exchange ledger row drifted");
    }
}

/// The system allocator, recording the largest single request this test
/// binary makes, so the sparse-bucket case can show that no bitmap was
/// sized by an outlying slot.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when the caller meets the
// `GlobalAlloc` contract; the only other work is an atomic max.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

type Sends = Vec<Vec<(GpuId, u32)>>;

/// `prepare_sends` with uniquify on must equal the same pipeline with it
/// off followed by a tuple sort + dedup per holder, in every field.
fn assert_uniquify_matches_sort_dedup(topo: &Topology, sends: Sends, local_all2all: bool) {
    let got = prepare_sends(topo, sends.clone(), local_all2all, true);
    let mut want = prepare_sends(topo, sends, local_all2all, false);
    for list in &mut want.held {
        list.sort_unstable_by_key(|&(dest, slot)| (topo.flat(dest), slot));
        list.dedup();
    }
    assert_eq!(got.held, want.held, "held lists");
    assert_eq!(got.send_lens, want.send_lens);
    assert_eq!(got.moved_items, want.moved_items);
    assert_eq!(got.moved_counts, want.moved_counts);
    assert_eq!(got.pre_uniquify_lens, want.pre_uniquify_lens);
}

/// Up to `max_len` updates per GPU in `hosted`, to random destinations
/// with slots below `slot_bound`; every other GPU's list is empty.
fn random_sends(
    topo: &Topology,
    hosted: &[usize],
    max_len: u32,
    slot_bound: u32,
    rng: &mut StdRng,
) -> Sends {
    let p = topo.num_gpus() as usize;
    let mut sends: Sends = vec![Vec::new(); p];
    for &g in hosted {
        let len = rng.random_range(0..max_len + 1);
        sends[g] = (0..len)
            .map(|_| {
                let dest = topo.unflat(rng.random_range(0..p));
                (dest, rng.random_range(0..slot_bound))
            })
            .collect();
    }
    sends
}

#[test]
fn uniquify_matches_a_tuple_sort_and_dedup() {
    let mut rng = StdRng::seed_from_u64(0x756e_6971);
    for (ranks, gpus) in [(2, 2), (4, 4)] {
        let topo = Topology::new(ranks, gpus);
        let p = topo.num_gpus() as usize;
        let all: Vec<usize> = (0..p).collect();
        // Rank 0 alone: the proc-hosted shape, foreign lists empty.
        let rank0: Vec<usize> = (0..gpus as usize).collect();
        for local_all2all in [false, true] {
            let check =
                |sends: Sends| assert_uniquify_matches_sort_dedup(&topo, sends, local_all2all);
            // Dense buckets take the bitmap, sparse ones the sort.
            for slot_bound in [8, 1_000, 1 << 20, u32::MAX] {
                for hosted in [&all, &rank0] {
                    for max_len in [1, 50, 2_000] {
                        check(random_sends(&topo, hosted, max_len, slot_bound, &mut rng));
                    }
                }
            }
            check(vec![Vec::new(); p]);
            check((0..p).map(|g| vec![(topo.unflat(p - 1 - g), g as u32)]).collect());
            // All duplicates, one destination per holder.
            check((0..p).map(|g| vec![(topo.unflat((g + 1) % p), 7); 300]).collect());
            // One sparse bucket: two slots, the larger one near u32::MAX.
            let mut sends: Sends = vec![Vec::new(); p];
            let dest = topo.unflat(p - 1);
            sends[0] = vec![(dest, u32::MAX - 1), (dest, 3), (dest, u32::MAX - 1)];
            check(sends);
        }
    }
    // A bitmap over the sparse bucket's range would be a 512 MiB request.
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < 64 << 20, "largest allocation {largest} bytes");
}
