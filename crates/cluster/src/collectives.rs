//! MPI-like collectives executed over real data, with modeled cost.
//!
//! The paper's delegate communication (§V-A) is a two-phase reduction of
//! the delegate bitmasks: GPUs of one MPI rank push their masks to GPU0
//! over NVLink and GPU0 reduces in parallel (local phase), then the GPU0
//! host threads run an `MPI_(I)Allreduce` across ranks (global phase), and
//! every GPU in the rank consumes the result. [`allreduce_or`] performs
//! exactly that dataflow on the simulated cluster and reports the modeled
//! time of both phases separately (they land in different phases of the
//! Fig. 8/10 breakdown).
//!
//! Its global phase is built from one [`MaskContribution`] per rank:
//! [`rank_contributions`] forms them in wire form and
//! [`reduce_contributions`] decodes and ORs them. Proc workers call the
//! same two functions and the coordinator relays the contributions
//! unopened, so the sim prices exactly the mask bytes the proc ships.
//!
//! [`local_all2all_regroup`] implements the *Local All2all* optimization of
//! §V-B: regroup traffic inside each rank so that vertices bound for GPU `x`
//! of any rank are all held by the local GPU `x`, cutting the number of
//! cross-rank communication pairs from `p²` to `p²/pgpu`.

use crate::cost::{CostModel, KernelKind};
use crate::topology::{GpuId, Topology};
use gcbfs_compress::{
    decode_mask_into, mask_header, CodecCounts, CompressionMode, DecodeError, WireBody,
};
use gcbfs_trace::CollectiveHop;
use rayon::prelude::*;

/// Result of a two-phase bit-or allreduce.
#[derive(Clone, Debug)]
pub struct AllreduceOutcome {
    /// The OR of all input masks; every GPU consumes this.
    pub reduced: Vec<u64>,
    /// Modeled time of the intra-rank reduce + broadcast (NVLink).
    pub local_time: f64,
    /// Modeled time of the cross-rank allreduce (InfiniBand), including
    /// any codec work on the global phase's critical path.
    pub global_time: f64,
    /// Bytes moved per rank pair in the global phase as charged to the
    /// wire: the paper's `d/8` per tree edge uncompressed, or the largest
    /// encoded rank contribution (floored at the transport envelope)
    /// under a compressing mode — the tree round waits for its slowest
    /// edge.
    pub bytes_per_message: u64,
    /// The uncompressed `d/8` message size; equals
    /// [`Self::bytes_per_message`] when compression is off.
    pub raw_bytes_per_message: u64,
    /// Critical-path codec time of the global phase (one encode plus one
    /// decode of the full mask; ranks codec in parallel). Zero when
    /// compression is off. Already included in [`Self::global_time`].
    pub codec_seconds: f64,
    /// Which mask codec each rank's global-phase contribution used.
    pub codec_counts: CodecCounts,
}

impl AllreduceOutcome {
    /// Raw-minus-wire per-message savings (0 when compression is off).
    pub fn bytes_saved_per_message(&self) -> u64 {
        self.raw_bytes_per_message.saturating_sub(self.bytes_per_message)
    }
}

/// The per-hop wire picture of the global allreduce phase, for the
/// observability subsystem.
///
/// The cost model charges `2 · bytes_per_message · num_ranks` remote
/// bytes for the collective — a ring allreduce: a reduce pass of
/// `num_ranks` hops `r → (r+1) mod num_ranks` followed by a broadcast
/// pass of the same shape, each hop carrying one per-message payload.
/// This function materializes exactly those hops, so the sum of the
/// returned `wire_bytes` equals the bytes the driver charges for the
/// mask reduction, hop for hop. A single-rank cluster reduces locally
/// and produces no hops.
pub fn mask_reduce_hops(num_ranks: u32, outcome: &AllreduceOutcome) -> Vec<CollectiveHop> {
    if num_ranks <= 1 {
        return Vec::new();
    }
    let mut hops = Vec::with_capacity(2 * num_ranks as usize);
    for _pass in 0..2 {
        for r in 0..num_ranks {
            hops.push(CollectiveHop {
                src_rank: r,
                dst_rank: (r + 1) % num_ranks,
                raw_bytes: outcome.raw_bytes_per_message,
                wire_bytes: outcome.bytes_per_message,
            });
        }
    }
    hops
}

/// Two-phase bit-or allreduce of one `u64` mask word vector per GPU.
///
/// `blocking` selects `MPI_Allreduce` (true) vs `MPI_Iallreduce` (false)
/// for the global phase; the flavors reduce identically but cost
/// differently (§VI-B).
///
/// # Panics
/// Panics if mask lengths differ or the GPU count does not match the
/// topology.
pub fn allreduce_or(
    topology: Topology,
    cost: &CostModel,
    masks: &[Vec<u64>],
    blocking: bool,
) -> AllreduceOutcome {
    allreduce_or_compressed(topology, cost, masks, blocking, CompressionMode::Off, None)
}

/// [`allreduce_or`] with an optional compression mode on the global
/// (InfiniBand) phase — the §V-A `d/8`-byte messages are this simulator's
/// second remote-byte producer. The *local* NVLink phase always moves raw
/// masks.
///
/// The global phase is the one the proc backend ships: the
/// [`rank_contributions`] encoded against `reference`, reduced by
/// [`reduce_contributions`]. Per-message wire cost is the largest
/// contribution's (a tree round waits for its slowest edge), an encoded
/// one floored at the transport envelope.
///
/// # Panics
/// Panics if mask lengths differ, the GPU count does not match the
/// topology, or `reference` has a different width than the masks.
pub fn allreduce_or_compressed(
    topology: Topology,
    cost: &CostModel,
    masks: &[Vec<u64>],
    blocking: bool,
    mode: CompressionMode,
    reference: Option<&[u64]>,
) -> AllreduceOutcome {
    let p = topology.num_gpus() as usize;
    assert_eq!(masks.len(), p, "one mask per GPU required");
    let words = masks.first().map(Vec::len).unwrap_or(0);
    assert!(masks.iter().all(|m| m.len() == words), "mask lengths must agree");

    let flats: Vec<usize> = (0..p).collect();
    let contributions = rank_contributions(topology, mode, reference, &flats, masks);
    let raw_bytes = (words * 8) as u64;
    let local_time = cost.network.local_reduce_time(raw_bytes, topology.gpus_per_rank())
        + cost.network.local_broadcast_time(raw_bytes, topology.gpus_per_rank());
    let nranks = topology.num_ranks();
    let bytes_per_message =
        contributions.iter().map(MaskContribution::wire_bytes).max().unwrap_or(0);
    let mut codec_counts = CodecCounts::default();
    for c in &contributions {
        if let WireBody::Encoded(bytes) = &c.body {
            codec_counts.record_mask(mask_header(bytes).expect("an own encoding has a header").0);
        }
    }
    let (global_time, codec_seconds) = if codec_counts.mask_total() > 0 {
        // One encode + one decode of the full mask sits on the critical
        // path; ranks codec their contributions in parallel.
        let codec_seconds = cost.device.kernel_time(KernelKind::Compress, raw_bytes)
            + cost.device.kernel_time(KernelKind::Decompress, raw_bytes);
        let wire = cost.network.allreduce_time_floored(bytes_per_message, nranks, blocking);
        (wire + codec_seconds, codec_seconds)
    } else {
        (cost.network.allreduce_time(raw_bytes, nranks, blocking), 0.0)
    };
    let reduced = reduce_contributions(nranks, words, reference, &contributions)
        .expect("own contributions reduce");
    AllreduceOutcome {
        reduced,
        local_time,
        global_time,
        bytes_per_message,
        raw_bytes_per_message: raw_bytes,
        codec_seconds,
        codec_counts,
    }
}

/// One rank's share of the global mask reduction: the OR of its GPUs'
/// masks, already in wire form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaskContribution {
    /// The contributing rank.
    pub rank: u32,
    /// Raw words, or one mask-codec encoding against the shared reference.
    pub body: WireBody<u64>,
}

impl MaskContribution {
    /// Bytes the body occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.body.wire_bytes()
    }
}

/// `rank`'s contribution of `words`: raw when `mode` is off, otherwise
/// encoded against `reference` with the codec `mode` picks — the only
/// place a mask codec is chosen and run.
pub fn contribute(
    mode: CompressionMode,
    reference: Option<&[u64]>,
    rank: u32,
    words: Vec<u64>,
) -> MaskContribution {
    let body = match mode.mask_codec(reference, &words) {
        Some(c) => WireBody::Encoded(c.encode(reference, &words).expect("mask encode cannot fail")),
        None => WireBody::Raw(words),
    };
    MaskContribution { rank, body }
}

/// One [`contribute`]d mask per rank of `flats` (ascending GPU flats;
/// `masks[i]` is GPU `flats[i]`'s): the OR of the rank's GPU masks — the
/// local phase. A single-rank grid never compresses, since its reduction
/// never leaves the rank.
pub fn rank_contributions<M: AsRef<[u64]> + Sync>(
    topology: Topology,
    mode: CompressionMode,
    reference: Option<&[u64]>,
    flats: &[usize],
    masks: &[M],
) -> Vec<MaskContribution> {
    let pgpu = topology.gpus_per_rank() as usize;
    let wide = masks.first().is_some_and(|m| !m.as_ref().is_empty());
    let mode = if topology.num_ranks() > 1 && wide { mode } else { CompressionMode::Off };
    let mut rest = masks;
    let ranks: Vec<(u32, &[M])> = flats
        .chunk_by(|a, b| a / pgpu == b / pgpu)
        .map(|run| {
            let (head, tail) = rest.split_at(run.len());
            rest = tail;
            ((run[0] / pgpu) as u32, head)
        })
        .collect();
    ranks
        .into_par_iter()
        .map(|(rank, rank_masks)| {
            let mut acc = rank_masks[0].as_ref().to_vec();
            for m in &rank_masks[1..] {
                acc.iter_mut().zip(m.as_ref()).for_each(|(a, &b)| *a |= b);
            }
            contribute(mode, reference, rank, acc)
        })
        .collect()
}

/// Why a list of mask contributions does not reduce, naming the rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceError {
    /// A rank outside the grid.
    RankOutOfRange(u32),
    /// A second contribution from one rank.
    RepeatedRank(u32),
    /// A body (or an encoded body's header) of another width than the mask.
    WrongWidth(u32),
    /// An encoded body that does not decode.
    Undecodable(u32, DecodeError),
}

/// The OR of `contributions`, `width` words wide, encoded bodies decoded
/// against `reference`.
///
/// # Errors
/// A rank outside a `num_ranks`-rank grid, a repeated rank, a body of the
/// wrong width (an encoded one's header is checked before it can drive an
/// allocation), or an encoded body that does not decode.
pub fn reduce_contributions(
    num_ranks: u32,
    width: usize,
    reference: Option<&[u64]>,
    contributions: &[MaskContribution],
) -> Result<Vec<u64>, ReduceError> {
    let mut seen = vec![false; num_ranks as usize];
    let mut reduced = vec![0u64; width];
    let mut decoded = Vec::new();
    for &MaskContribution { rank, ref body } in contributions {
        let seen = seen.get_mut(rank as usize).ok_or(ReduceError::RankOutOfRange(rank))?;
        if std::mem::replace(seen, true) {
            return Err(ReduceError::RepeatedRank(rank));
        }
        let words = match body {
            WireBody::Raw(words) => words,
            WireBody::Encoded(bytes) => {
                let undecodable = |e| ReduceError::Undecodable(rank, e);
                if mask_header(bytes).map_err(undecodable)?.1 as usize != width {
                    return Err(ReduceError::WrongWidth(rank));
                }
                decoded.clear();
                decode_mask_into(bytes, reference, &mut decoded).map_err(undecodable)?;
                &decoded
            }
        };
        if words.len() != width {
            return Err(ReduceError::WrongWidth(rank));
        }
        reduced.iter_mut().zip(words).for_each(|(a, &b)| *a |= b);
    }
    Ok(reduced)
}

/// Generic two-phase element-wise allreduce: intra-rank reduce (NVLink, to
/// GPU0) then cross-rank tree reduce — the collective skeleton behind the
/// bit-or mask reduction and its §VI-D generalizations ("more bits of
/// state for delegates"): sum for PageRank scores, min for component
/// labels, and so on.
///
/// `op` must be associative and commutative for the result to be
/// independent of the grid shape.
///
/// # Panics
/// Panics if vector lengths differ or the GPU count does not match.
pub fn allreduce_with<T, F>(
    topology: Topology,
    cost: &CostModel,
    values: &[Vec<T>],
    blocking: bool,
    op: F,
) -> AllreduceValueOutcome<T>
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Send + Sync,
{
    let p = topology.num_gpus() as usize;
    assert_eq!(values.len(), p, "one vector per GPU required");
    let len = values.first().map(Vec::len).unwrap_or(0);
    assert!(values.iter().all(|v| v.len() == len), "vector lengths must agree");

    let pgpu = topology.gpus_per_rank() as usize;
    let per_rank: Vec<Vec<T>> = values
        .par_chunks(pgpu)
        .map(|rank_values| {
            let mut acc = rank_values[0].clone();
            for v in &rank_values[1..] {
                for (a, &b) in acc.iter_mut().zip(v) {
                    *a = op(*a, b);
                }
            }
            acc
        })
        .collect();
    let mut iter = per_rank.into_iter();
    let mut reduced = iter.next().unwrap_or_default();
    for rank_vals in iter {
        for (a, b) in reduced.iter_mut().zip(rank_vals) {
            *a = op(*a, b);
        }
    }

    let bytes = (len * std::mem::size_of::<T>()) as u64;
    let local_time = cost.network.local_reduce_time(bytes, topology.gpus_per_rank())
        + cost.network.local_broadcast_time(bytes, topology.gpus_per_rank());
    let global_time = cost.network.allreduce_time(bytes, topology.num_ranks(), blocking);
    AllreduceValueOutcome { reduced, local_time, global_time, bytes_per_message: bytes }
}

/// Two-phase **sum** allreduce of one `f64` vector per GPU (PageRank's
/// delegate scores; 8 bytes per element instead of the mask's 1 bit).
pub fn allreduce_sum(
    topology: Topology,
    cost: &CostModel,
    values: &[Vec<f64>],
    blocking: bool,
) -> AllreduceValueOutcome<f64> {
    allreduce_with(topology, cost, values, blocking, |a, b| a + b)
}

/// Two-phase **min** allreduce of one `u64` vector per GPU (component
/// labels in label-propagation connected components).
pub fn allreduce_min(
    topology: Topology,
    cost: &CostModel,
    values: &[Vec<u64>],
    blocking: bool,
) -> AllreduceValueOutcome<u64> {
    allreduce_with(topology, cost, values, blocking, u64::min)
}

/// Result of a two-phase value allreduce.
#[derive(Clone, Debug)]
pub struct AllreduceValueOutcome<T> {
    /// The element-wise reduction of all inputs; every GPU consumes this.
    pub reduced: Vec<T>,
    /// Modeled time of the intra-rank phase.
    pub local_time: f64,
    /// Modeled time of the cross-rank phase.
    pub global_time: f64,
    /// Bytes per message in the global phase.
    pub bytes_per_message: u64,
}

/// Outcome of the local-all2all regrouping.
#[derive(Clone, Debug)]
pub struct RegroupOutcome<T> {
    /// Items per GPU after regrouping: GPU `(r, g)` now holds exactly the
    /// items (from anywhere in rank `r`) whose destination GPU slot is `g`.
    pub items: Vec<Vec<(GpuId, T)>>,
    /// Items that crossed a GPU boundary inside their rank.
    pub moved_items: u64,
    /// Exact per-peer transfer counts: `moved_counts[from][to]` is the
    /// number of items GPU `from` shipped to GPU `to` (flat indices; the
    /// diagonal — items kept in place — is always zero). Only same-rank
    /// entries can be non-zero, since regrouping never leaves a rank.
    pub moved_counts: Vec<Vec<u64>>,
}

/// Who holds an item `sender` addressed to `dest` after the local all2all:
/// the GPU in the sender's rank whose slot matches the destination's.
pub fn regroup_holder(sender: GpuId, dest: GpuId) -> GpuId {
    GpuId { rank: sender.rank, gpu: dest.gpu }
}

/// The *Local All2all* optimization (§V-B): within each rank, exchange
/// items so that every item destined for GPU slot `g` (of any rank) is held
/// by the local GPU `g`. Afterwards cross-rank traffic only flows between
/// equal GPU slots.
pub fn local_all2all_regroup<T: Send>(
    topology: Topology,
    per_gpu_items: Vec<Vec<(GpuId, T)>>,
) -> RegroupOutcome<T> {
    let p = topology.num_gpus() as usize;
    assert_eq!(per_gpu_items.len(), p, "one item list per GPU required");
    let mut items: Vec<Vec<(GpuId, T)>> = (0..p).map(|_| Vec::new()).collect();
    let mut moved = 0u64;
    let mut moved_counts = vec![vec![0u64; p]; p];
    for (flat, list) in per_gpu_items.into_iter().enumerate() {
        let holder = topology.unflat(flat);
        for (dest, payload) in list {
            let new_holder = regroup_holder(holder, dest);
            let new_flat = topology.flat(new_holder);
            if new_holder != holder {
                moved += 1;
                moved_counts[flat][new_flat] += 1;
            }
            items[new_flat].push((dest, payload));
        }
    }
    RegroupOutcome { items, moved_items: moved, moved_counts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_ors_all_masks() {
        let topo = Topology::new(2, 2);
        let cost = CostModel::ray();
        let masks = vec![vec![0b0001u64], vec![0b0010], vec![0b0100], vec![0b1000]];
        let out = allreduce_or(topo, &cost, &masks, true);
        assert_eq!(out.reduced, vec![0b1111]);
        assert!(out.local_time > 0.0);
        assert!(out.global_time > 0.0);
        assert_eq!(out.bytes_per_message, 8);
    }

    #[test]
    fn allreduce_single_gpu_is_identity_and_free() {
        let topo = Topology::new(1, 1);
        let cost = CostModel::ray();
        let out = allreduce_or(topo, &cost, &[vec![42, 7]], false);
        assert_eq!(out.reduced, vec![42, 7]);
        assert_eq!(out.local_time, 0.0);
        assert_eq!(out.global_time, 0.0);
    }

    #[test]
    fn allreduce_multi_word() {
        let topo = Topology::new(2, 1);
        let cost = CostModel::ray();
        let out = allreduce_or(topo, &cost, &[vec![1, 0, u64::MAX], vec![2, 4, 0]], true);
        assert_eq!(out.reduced, vec![3, 4, u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "lengths must agree")]
    fn allreduce_rejects_ragged_masks() {
        let topo = Topology::new(2, 1);
        let cost = CostModel::ray();
        let _ = allreduce_or(topo, &cost, &[vec![1], vec![1, 2]], true);
    }

    #[test]
    fn allreduce_sum_adds_everything() {
        let topo = Topology::new(2, 2);
        let cost = CostModel::ray();
        let values = vec![vec![1.0, 0.5], vec![2.0, 0.0], vec![3.0, -1.0], vec![4.0, 0.25]];
        let out = allreduce_sum(topo, &cost, &values, true);
        assert_eq!(out.reduced, vec![10.0, -0.25]);
        assert_eq!(out.bytes_per_message, 16);
        assert!(out.global_time > 0.0);
    }

    #[test]
    fn allreduce_min_takes_minimum() {
        let topo = Topology::new(3, 1);
        let cost = CostModel::ray();
        let values = vec![vec![5u64, 9, 1], vec![3, 9, 2], vec![7, 8, 0]];
        let out = allreduce_min(topo, &cost, &values, true);
        assert_eq!(out.reduced, vec![3, 8, 0]);
        assert_eq!(out.bytes_per_message, 24);
    }

    #[test]
    fn allreduce_with_is_grid_shape_independent() {
        let cost = CostModel::ray();
        let values: Vec<Vec<u64>> =
            (0..8).map(|g| (0..5).map(|i| (g * 7 + i * 3) % 11).collect()).collect();
        let flat = allreduce_min(Topology::new(8, 1), &cost, &values, true).reduced;
        let square = allreduce_min(Topology::new(2, 4), &cost, &values, true).reduced;
        assert_eq!(flat, square);
    }

    #[test]
    fn allreduce_empty_vectors() {
        let topo = Topology::new(2, 1);
        let cost = CostModel::ray();
        let out = allreduce_sum(topo, &cost, &[vec![], vec![]], true);
        assert!(out.reduced.is_empty());
        assert_eq!(out.bytes_per_message, 0);
    }

    #[test]
    fn allreduce_sum_costs_8x_the_mask() {
        // §VI-D: PageRank's delegate state is 64x the BFS bit per delegate;
        // for the same element count the sum reduce moves 8x the bytes of
        // a u64-word mask holding 64 delegates each.
        let topo = Topology::new(4, 1);
        let cost = CostModel::ray();
        let masks = vec![vec![0u64; 128]; 4]; // 128 words = 8192 delegates
        let scores = vec![vec![0f64; 8192]; 4]; // same delegates as f64
        let or = allreduce_or(topo, &cost, &masks, true);
        let sum = allreduce_sum(topo, &cost, &scores, true);
        assert_eq!(sum.bytes_per_message, 64 * or.bytes_per_message);
        assert!(sum.global_time > or.global_time);
    }

    #[test]
    fn compressed_allreduce_reduces_identically() {
        let topo = Topology::new(4, 2);
        let cost = CostModel::ray();
        let masks: Vec<Vec<u64>> =
            (0..8).map(|g| (0..64).map(|w| ((g + w) % 7 == 0) as u64).collect()).collect();
        let reference = allreduce_or(topo, &cost, &masks, true);
        for mode in [
            CompressionMode::Adaptive,
            CompressionMode::Fixed(
                gcbfs_compress::FrontierCodec::Raw32,
                gcbfs_compress::MaskCodec::RleMask,
            ),
            CompressionMode::Fixed(
                gcbfs_compress::FrontierCodec::Raw32,
                gcbfs_compress::MaskCodec::SparseIndex,
            ),
        ] {
            let out = allreduce_or_compressed(topo, &cost, &masks, true, mode, None);
            assert_eq!(out.reduced, reference.reduced, "mode {mode} changed the reduction");
            assert_eq!(out.raw_bytes_per_message, reference.bytes_per_message);
            assert!(out.codec_counts.mask_total() as u32 == topo.num_ranks());
        }
    }

    #[test]
    fn sparse_masks_shrink_the_global_message() {
        let topo = Topology::new(8, 1);
        let cost = CostModel::ray();
        // 4096 delegates, a handful set: the RLE/sparse regime.
        let mut masks = vec![vec![0u64; 64]; 8];
        for (g, m) in masks.iter_mut().enumerate() {
            m[g * 7] = 1 << (g * 3);
        }
        let raw = allreduce_or(topo, &cost, &masks, true);
        let out =
            allreduce_or_compressed(topo, &cost, &masks, true, CompressionMode::Adaptive, None);
        assert!(
            out.bytes_per_message < raw.bytes_per_message,
            "compressed {} must beat raw {}",
            out.bytes_per_message,
            raw.bytes_per_message
        );
        assert!(out.bytes_saved_per_message() > 0);
        assert!(out.codec_seconds > 0.0);
        assert_eq!(out.reduced, raw.reduced);
    }

    #[test]
    fn differential_encoding_uses_prev_reduction() {
        let topo = Topology::new(4, 1);
        let cost = CostModel::ray();
        // A saturated-ish mask that barely changed since last iteration:
        // sparse-index against prev crushes it, plain RLE cannot.
        let prev: Vec<u64> = (0..256).map(|w| (w as u64).wrapping_mul(0x9e37_79b9)).collect();
        let mut masks = vec![prev.clone(); 4];
        masks[2][100] |= 1 << 40;
        let with_prev = allreduce_or_compressed(
            topo,
            &cost,
            &masks,
            true,
            CompressionMode::Adaptive,
            Some(&prev),
        );
        let without_prev =
            allreduce_or_compressed(topo, &cost, &masks, true, CompressionMode::Adaptive, None);
        assert!(with_prev.bytes_per_message < without_prev.bytes_per_message);
        assert!(with_prev.codec_counts.sparse_index > 0);
        assert_eq!(with_prev.reduced, without_prev.reduced);
    }

    #[test]
    fn off_mode_is_bitwise_the_baseline() {
        let topo = Topology::new(2, 2);
        let cost = CostModel::ray();
        let masks = vec![vec![0b0001u64], vec![0b0010], vec![0b0100], vec![0b1000]];
        let out =
            allreduce_or_compressed(topo, &cost, &masks, true, CompressionMode::Off, Some(&[0]));
        let base = allreduce_or(topo, &cost, &masks, true);
        assert_eq!(out.reduced, base.reduced);
        assert_eq!(out.global_time, base.global_time);
        assert_eq!(out.bytes_per_message, base.bytes_per_message);
        assert_eq!(out.codec_seconds, 0.0);
    }

    fn raw(rank: u32, words: &[u64]) -> MaskContribution {
        MaskContribution { rank, body: WireBody::Raw(words.to_vec()) }
    }

    #[test]
    fn contributions_reduce_to_the_or_under_every_mode() {
        let reference = [0b0011u64, 0];
        let words = [[0b0111u64, 1], [0b1011, 0], [0b0011, 1 << 63]];
        for mode in [CompressionMode::Off, CompressionMode::Adaptive] {
            for reference in [None, Some(&reference[..])] {
                let cs: Vec<_> = (0..3)
                    .map(|r| contribute(mode, reference, r as u32, words[r].to_vec()))
                    .collect();
                assert_eq!(cs.iter().all(|c| matches!(c.body, WireBody::Raw(_))), !mode.is_on());
                let reduced = reduce_contributions(3, 2, reference, &cs).unwrap();
                assert_eq!(reduced, vec![0b1111, 1 | 1 << 63], "{mode}");
            }
        }
        assert_eq!(reduce_contributions(3, 2, None, &[]).unwrap(), vec![0, 0]);
    }

    #[test]
    fn hostile_contribution_lists_are_typed_errors() {
        use ReduceError::*;
        let reduce = |cs: &[MaskContribution]| reduce_contributions(2, 2, None, cs).unwrap_err();
        assert_eq!(reduce(&[raw(2, &[0, 0])]), RankOutOfRange(2));
        assert_eq!(reduce(&[raw(1, &[0, 0]), raw(1, &[1, 0])]), RepeatedRank(1));
        assert_eq!(reduce(&[raw(0, &[0])]), WrongWidth(0));
        // An encoded body whose header claims another width is refused
        // before its (hostile) count drives any allocation.
        let wide = contribute(CompressionMode::Adaptive, None, 0, vec![0; 3]);
        assert_eq!(reduce(&[wide]), WrongWidth(0));
        let huge = WireBody::Encoded(vec![0x12, 0xff, 0xff, 0xff, 0xff]);
        assert_eq!(reduce(&[MaskContribution { rank: 1, body: huge }]), WrongWidth(1));
        let good = contribute(CompressionMode::Adaptive, None, 1, vec![1, 1 << 40]);
        let WireBody::Encoded(bytes) = &good.body else { panic!("adaptive encodes") };
        let mut tagged = bytes.clone();
        tagged[0] = 0x7f;
        let bad_tag = MaskContribution { rank: 1, body: WireBody::Encoded(tagged) };
        assert_eq!(reduce(&[bad_tag]), Undecodable(1, DecodeError::UnknownTag(0x7f)));
        for len in 0..bytes.len() {
            let cut = MaskContribution { rank: 1, body: WireBody::Encoded(bytes[..len].to_vec()) };
            assert!(matches!(reduce(&[cut]), Undecodable(1, _)), "truncated to {len}");
        }
        assert_eq!(reduce(&[good.clone(), good]), RepeatedRank(1));
    }

    #[test]
    fn rank_contributions_or_within_each_hosted_rank() {
        let topo = Topology::new(4, 2);
        let masks = [vec![1u64], vec![2], vec![4], vec![8]];
        // Ranks 1 and 3 of a round-robin host: flats 2, 3, 6, 7.
        let cs = rank_contributions(topo, CompressionMode::Off, None, &[2, 3, 6, 7], &masks);
        assert_eq!(cs, vec![raw(1, &[3]), raw(3, &[12])]);
        // A single-rank grid reduces locally and never encodes.
        let one = Topology::new(1, 2);
        let cs = rank_contributions(one, CompressionMode::Adaptive, None, &[0, 1], &masks[..2]);
        assert_eq!(cs, vec![raw(0, &[3])]);
    }

    #[test]
    fn mask_hops_sum_to_charged_collective_bytes() {
        let topo = Topology::new(4, 2);
        let cost = CostModel::ray();
        let masks: Vec<Vec<u64>> = (0..8).map(|g| vec![1u64 << g; 16]).collect();
        let out = allreduce_or(topo, &cost, &masks, true);
        let hops = mask_reduce_hops(topo.num_ranks(), &out);
        // Ring allreduce: reduce pass + broadcast pass, one hop per rank each.
        assert_eq!(hops.len(), 2 * topo.num_ranks() as usize);
        let wire: u64 = hops.iter().map(|h| h.wire_bytes).sum();
        assert_eq!(wire, 2 * out.bytes_per_message * topo.num_ranks() as u64);
        let raw: u64 = hops.iter().map(|h| h.raw_bytes).sum();
        assert_eq!(raw, 2 * out.raw_bytes_per_message * topo.num_ranks() as u64);
        assert!(hops.iter().all(|h| h.src_rank != h.dst_rank && h.dst_rank < 4));
    }

    #[test]
    fn mask_hops_empty_on_single_rank() {
        let topo = Topology::new(1, 4);
        let cost = CostModel::ray();
        let masks = vec![vec![1u64]; 4];
        let out = allreduce_or(topo, &cost, &masks, true);
        assert!(mask_reduce_hops(1, &out).is_empty());
    }

    #[test]
    fn regroup_moves_items_to_matching_slot() {
        let topo = Topology::new(2, 2);
        // GPU (0,0) holds items for (1,1) and (0,0); GPU (1,1) for (0,0).
        let mut per_gpu: Vec<Vec<(GpuId, u32)>> = vec![Vec::new(); 4];
        per_gpu[0].push((GpuId { rank: 1, gpu: 1 }, 10));
        per_gpu[0].push((GpuId { rank: 0, gpu: 0 }, 11));
        per_gpu[3].push((GpuId { rank: 0, gpu: 0 }, 12));
        let out = local_all2all_regroup(topo, per_gpu);
        // Item 10 moved (0,0) -> (0,1); item 12 moved (1,1) -> (1,0).
        assert_eq!(out.moved_items, 2);
        // Exact per-peer counts: one item each on those two edges, nothing
        // else, and a zero diagonal.
        assert_eq!(out.moved_counts[0][1], 1);
        assert_eq!(out.moved_counts[3][2], 1);
        let total: u64 = out.moved_counts.iter().flatten().sum();
        assert_eq!(total, out.moved_items);
        assert!((0..4).all(|g| out.moved_counts[g][g] == 0));
        assert_eq!(
            out.items[topo.flat(GpuId { rank: 0, gpu: 1 })],
            vec![(GpuId { rank: 1, gpu: 1 }, 10)]
        );
        assert_eq!(
            out.items[topo.flat(GpuId { rank: 1, gpu: 0 })],
            vec![(GpuId { rank: 0, gpu: 0 }, 12)]
        );
    }

    #[test]
    fn regroup_cuts_communication_pairs() {
        // After regrouping, distinct (holder, destination-GPU) cross-rank
        // pairs only connect equal slots: p^2/pgpu pairs, the paper's claim.
        let topo = Topology::new(3, 2);
        let mut per_gpu: Vec<Vec<(GpuId, u8)>> = vec![Vec::new(); 6];
        for holder in per_gpu.iter_mut() {
            for dest in topo.gpus() {
                holder.push((dest, 0));
            }
        }
        let out = local_all2all_regroup(topo, per_gpu);
        let mut pairs = std::collections::HashSet::new();
        for (flat, list) in out.items.iter().enumerate() {
            let holder = topo.unflat(flat);
            for (dest, _) in list {
                if dest.rank != holder.rank {
                    pairs.insert((flat, topo.flat(*dest)));
                }
            }
        }
        let p = topo.num_gpus() as usize;
        // After regrouping, cross-rank pairs connect equal slots only:
        // p * (prank - 1), far fewer than the p * (p - 1) unrestricted pairs.
        assert_eq!(pairs.len(), p * (topo.num_ranks() as usize - 1));
        assert!(pairs.len() < p * p - p, "regrouping must shrink the pair count");
    }

    #[test]
    fn regroup_empty_is_empty() {
        let topo = Topology::new(2, 2);
        let out: RegroupOutcome<u8> = local_all2all_regroup(topo, vec![Vec::new(); 4]);
        assert_eq!(out.moved_items, 0);
        assert!(out.items.iter().all(Vec::is_empty));
    }
}
