//! Communication-compression sweep: what the codec layer buys on the wire.
//!
//! Not a paper figure — the paper ships its §V-B raw wire format (4 bytes
//! per nn update, `d/8` bytes per mask message) — but the natural question
//! its communication analysis raises: how much of that traffic is
//! entropy? For each RMAT scale the sweep runs every compression mode
//! over the same build and sources:
//!
//! * `off` — the paper's raw format (the seed baseline, bit-for-bit);
//! * `fixed(raw32/rawmask)` — the codec envelope with no compression:
//!   isolates header + floor overhead;
//! * `fixed(varint/sparse)` and `fixed(bitmap/rle)` — each codec family
//!   on its own;
//! * `adaptive` — per-message density-driven selection, the analogue of
//!   the paper's direction-optimization crossover (§IV-B).
//!
//! Every mode is verified to produce depths bit-identical to `off`, and on
//! each scale the densest iteration must ship strictly fewer bytes under
//! `adaptive` than under the raw32 envelope while paying nonzero codec
//! time — compression is modeled as work, not as a free discount.
//!
//! Usage: `gcbfs-bench compression_sweep [--smoke]` — RMAT scales 14, 17
//! and 20 at each scale's suggested threshold; `--smoke` shrinks to
//! scales 10 and 12 for CI.

use gcbfs_bench::prelude::*;
use gcbfs_compress::{CompressionMode, FrontierCodec, MaskCodec};
use gcbfs_core::trace::compression_trajectory;

fn modes() -> Vec<CompressionMode> {
    vec![
        CompressionMode::Off,
        CompressionMode::Fixed(FrontierCodec::Raw32, MaskCodec::RawMask),
        CompressionMode::Fixed(FrontierCodec::VarintDelta, MaskCodec::SparseIndex),
        CompressionMode::Fixed(FrontierCodec::Bitmap, MaskCodec::RleMask),
        CompressionMode::Adaptive,
    ]
}

/// Index of the iteration that transmits the most nn updates — the dense
/// regime where compression must pay for itself. Taken from the
/// uncompressed reference so every mode is compared on the same iteration.
fn dense_iteration(reference: &BfsResult) -> usize {
    reference
        .stats
        .records
        .iter()
        .enumerate()
        .max_by_key(|(_, rec)| rec.nn_updates_sent)
        .expect("a run has at least one iteration")
        .0
}

fn sweep_scale(scale: u32) -> (u64, u64) {
    let th = BfsConfig::suggested_rmat_threshold(scale + 13).max(8);
    let topo = Topology::new(2, 2);
    let base = BfsConfig::new(th).with_local_all2all(true).with_uniquify(true);
    let graph = RmatConfig::graph500(scale).generate();
    let source = hub_source(&graph);
    let dist = DistributedGraph::build(&graph, topo, &base).expect("build");

    let reference = dist.run(source, &base).expect("off-mode run");
    let dense_iter = dense_iteration(&reference);
    let mut rows = Vec::new();
    let mut dense_raw32 = None;
    let mut dense_adaptive = None;
    let mut adaptive_saved = 0u64;
    let mut adaptive_wire = 0u64;
    for mode in modes() {
        let config = base.with_compression(mode);
        let r = dist.run(source, &config).expect("compressed run");
        assert_eq!(r.depths, reference.depths, "depths must be bit-exact under {mode}");
        assert_eq!(r.iterations(), reference.iterations(), "iteration count drifted under {mode}");
        let s = &r.stats;
        let dense_bytes = s.records[dense_iter].remote_bytes;
        match mode {
            CompressionMode::Fixed(FrontierCodec::Raw32, _) => dense_raw32 = Some(dense_bytes),
            CompressionMode::Adaptive => {
                dense_adaptive = Some((dense_bytes, s.total_codec_seconds()));
                adaptive_saved = s.total_bytes_saved();
                adaptive_wire = s.total_remote_bytes();
            }
            _ => {}
        }
        rows.push(vec![
            mode.label(),
            r.iterations().to_string(),
            s.total_remote_bytes().to_string(),
            s.total_bytes_saved().to_string(),
            format!("{:.3}", s.compression_ratio()),
            format!("{:.3}", s.total_codec_seconds() * 1e3),
            f2(r.modeled_seconds() * 1e3),
            format!("{dense_iter}:{dense_bytes}"),
            compression_trajectory(&r),
            "ok".into(),
        ]);
    }
    print_table(
        &format!("scale {scale}, TH {th}, {} GPUs, source {source}", topo.num_gpus()),
        &[
            "mode",
            "iters",
            "rbytes",
            "saved",
            "ratio",
            "codec ms",
            "elap ms",
            "dense it:B",
            "trajectory",
            "depths",
        ],
        &rows,
    );

    // The headline property: on the densest iteration the adaptive wire
    // beats the raw32 envelope outright, and the codec work is charged.
    let raw32 = dense_raw32.expect("raw32 mode ran");
    let (adaptive, codec_s) = dense_adaptive.expect("adaptive mode ran");
    assert!(
        adaptive < raw32,
        "scale {scale}: dense iteration must compress (adaptive {adaptive} vs raw32 {raw32})"
    );
    assert!(codec_s > 0.0, "scale {scale}: codec time must be nonzero when compression runs");
    (adaptive_saved, adaptive_wire)
}

pub fn run(_: &Knobs, smoke: Option<&str>) {
    let smoke = smoke.is_some();
    let scales: &[u32] = if smoke { &[10, 12] } else { &[14, 17, 20] };
    println!(
        "Compression sweep{}: RMAT scales {scales:?}, modes off / raw32 / varint / bitmap / \
         adaptive",
        if smoke { " (smoke)" } else { "" },
    );
    let mut total_saved = 0u64;
    let mut total_wire = 0u64;
    for &scale in scales {
        let (saved, wire) = sweep_scale(scale);
        total_saved += saved;
        total_wire += wire;
    }
    println!(
        "\nall modes bit-exact on every scale; adaptive saved {total_saved} of {} raw remote \
         bytes ({:.1}%)",
        total_wire + total_saved,
        100.0 * total_saved as f64 / (total_wire + total_saved).max(1) as f64,
    );
}
