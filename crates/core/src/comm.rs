//! Normal-vertex exchange (§V-B, Fig. 4): the one implementation of the
//! `nn` point-to-point message, for both backends.
//!
//! Only `nn` visits produce direct remote normal-vertex updates; everything
//! else rides the delegate mask reduction or is local by construction. The
//! exchange pipeline per iteration is: *bin & convert* (group by
//! destination GPU; ids already 32-bit destination-local) → optional
//! *local all2all* (regroup inside each rank so cross-rank pairs connect
//! equal GPU slots) → optional *uniquify* (drop duplicate destinations),
//! all in [`prepare_sends`] → [`form_blocks`]: one [`Block`] per
//! `(source, destination)` pair, its body already in wire form (raw slots,
//! or one frontier-codec encoding on a cross-rank pair under a compressing
//! mode) → *remote exchange* → [`deliver_blocks`]: decode and concatenate
//! by ascending source.
//!
//! The model prices uniquify as the GPU's sort-unique: one more binning
//! pass over the held items. The host instead bins by destination and
//! dedups each bucket through a slot bitmap (see [`prepare_sends`]); its
//! held lists are exactly what a tuple sort + dedup leaves, so the blocks,
//! and every priced byte, are the same.
//!
//! The sim's [`exchange_normals_with`] prices exactly those blocks with the
//! cost model (`MPI_Isend`/`Irecv` as modeled point-to-point transfers with
//! exact byte counts); the proc backend's
//! [`HostedGroup`](crate::superstep::HostedGroup) forms and delivers them
//! through the same two functions and ships them unchanged, so the bytes
//! the model charges are the bytes a socket carries.

use crate::procrt::protocol::ProtocolError;
use gcbfs_cluster::collectives::{local_all2all_regroup, regroup_holder};
use gcbfs_cluster::cost::{CostModel, KernelKind};
use gcbfs_cluster::topology::{GpuId, Topology};
use gcbfs_compress::{
    decode_frontier_into, frontier_header, CodecCounts, CompressionMode, WireBody, HEADER_BYTES,
};
use gcbfs_trace::MessageRecord;
use rayon::prelude::*;

/// Bytes per exchanged normal-vertex update: one 32-bit destination-local
/// id (§V-B's "4|Enn| bytes total volume").
pub const BYTES_PER_UPDATE: u64 = 4;

/// Result of one iteration's normal-vertex exchange.
#[derive(Clone, Debug)]
pub struct ExchangeResult {
    /// Delivered updates per destination GPU (destination-local slots), in
    /// deterministic order (by sending GPU, then send order; within one
    /// compressed message, sorted by slot — the codecs ship sorted ids).
    pub delivered: Vec<Vec<u32>>,
    /// Modeled per-GPU local-communication time: binning/conversion,
    /// local-all2all moves, uniquify, and codec encode/decode work.
    pub local_time: Vec<f64>,
    /// The *encode stage* share of [`Self::local_time`]: everything that
    /// must finish before lane `g`'s bytes can hit the wire (binning,
    /// local-all2all moves, uniquify, codec encode). Used by the overlap
    /// pipeline's stage spans; per lane, `encode_time + decode_time`
    /// equals `local_time` up to summation order.
    pub encode_time: Vec<f64>,
    /// The *decode stage* share of [`Self::local_time`]: codec decode of
    /// messages received by lane `g`, payable only after the transfer.
    pub decode_time: Vec<f64>,
    /// Modeled per-GPU remote time: max of NIC send and receive occupancy.
    pub remote_time: Vec<f64>,
    /// Bytes that crossed rank boundaries, *as charged to the wire*:
    /// compressed bytes (floored per message) when compression is on, the
    /// paper's raw `4|Enn|` otherwise.
    pub remote_bytes: u64,
    /// What the same cross-rank messages would have cost uncompressed
    /// (`items × 4`, no headers). Equals [`Self::remote_bytes`] when
    /// compression is off.
    pub raw_remote_bytes: u64,
    /// Bytes moved intra-rank (local all2all and same-rank sends); NVLink
    /// traffic is never compressed — at 40 GB/s the codec work would cost
    /// more than the bytes it saves.
    pub local_bytes: u64,
    /// Updates before uniquification.
    pub items_before: u64,
    /// Updates actually transmitted.
    pub items_sent: u64,
    /// Modeled codec time summed over all GPUs (already folded into
    /// [`Self::local_time`]; reported separately for the stats).
    pub codec_seconds: f64,
    /// Which frontier codec each cross-rank message used.
    pub codec_counts: CodecCounts,
    /// One record per modeled point-to-point transfer, in charging order:
    /// `(src, dst)` are flat GPU indices, `wire_bytes` is the exact value
    /// charged to [`Self::remote_bytes`] / [`Self::local_bytes`], so the
    /// cross-rank records always sum to `remote_bytes` and the intra-rank
    /// ones to the exchange's share of `local_bytes`. Same-GPU deliveries
    /// (possible after regrouping) model no transfer and record nothing.
    pub messages: Vec<MessageRecord>,
}

/// Moves a dead member's per-lane exchange time onto its hosts,
/// share-weighted — the communication counterpart of the driver's
/// degraded-mode computation move. A host driving `share` of the dead
/// partition also drives `share` of its binning/conversion work and NIC
/// occupancy, serially after its own; the dead lane is zeroed so the
/// cluster-wide fold (a per-lane max) never reads a ghost.
///
/// Shares normally sum to 1, so the total time charged across lanes is
/// conserved.
pub fn reassign_lane_times(
    local_time: &mut [f64],
    remote_time: &mut [f64],
    dead: usize,
    hosts: &[(usize, f64)],
) {
    let local = std::mem::replace(&mut local_time[dead], 0.0);
    let remote = std::mem::replace(&mut remote_time[dead], 0.0);
    for &(host, share) in hosts {
        local_time[host] += local * share;
        remote_time[host] += remote * share;
    }
}

impl ExchangeResult {
    /// Raw-minus-wire byte savings of this exchange (0 when compression
    /// is off or the raw fallbacks dominated).
    pub fn bytes_saved(&self) -> u64 {
        self.raw_remote_bytes.saturating_sub(self.remote_bytes)
    }
}

/// The *value* half of the exchange pipeline — bin, optional local
/// all2all regrouping, optional uniquify — with the stage statistics the
/// cost model charges from. [`form_blocks`] turns the held lists into the
/// blocks both backends move; only the modeled exchange consults the
/// [`CostModel`].
#[derive(Clone, Debug)]
pub struct PreparedSends {
    /// Post-pipeline held lists: `held[g]` is what holder `g` transmits.
    pub held: Vec<Vec<(GpuId, u32)>>,
    /// Original send-list length per GPU (the binning kernel's workload).
    pub send_lens: Vec<u64>,
    /// Items the regrouping moved between same-rank GPUs (0 without
    /// local all2all).
    pub moved_items: u64,
    /// Per (holder, peer) regrouping move counts (empty without local
    /// all2all): the per-peer NVLink message volumes.
    pub moved_counts: Vec<Vec<u64>>,
    /// Held-list length per holder *before* uniquify: the workload the
    /// model charges for the GPU's sort-unique. Equals the final length
    /// when uniquify is off.
    pub pre_uniquify_lens: Vec<u64>,
}

/// Runs bin → regroup → uniquify on `sends` without touching the cost
/// model. `sends[g]` may be empty for GPUs a caller does not host (the
/// proc backend prepares only its own ranks; regrouping never crosses
/// ranks, so foreign empties stay empty).
///
/// With uniquify on, the regroup is folded into it: each group of senders
/// that share holders (a whole rank under local all2all, else one GPU) is
/// one `unique_group` task on the host pool, and the regrouped lists are
/// never materialised. The results are identical at any thread count.
pub fn prepare_sends(
    topo: &Topology,
    sends: Vec<Vec<(GpuId, u32)>>,
    use_local_all2all: bool,
    use_uniquify: bool,
) -> PreparedSends {
    let p = topo.num_gpus() as usize;
    assert_eq!(sends.len(), p, "one send list per GPU required");
    let send_lens: Vec<u64> = sends.iter().map(|s| s.len() as u64).collect();

    if use_uniquify {
        let width = if use_local_all2all { topo.gpus_per_rank() as usize } else { 1 };
        let groups: Vec<UniqueGroup> = sends
            .par_chunks(width)
            .enumerate()
            .map(|(i, senders)| unique_group(topo, i * width, senders, use_local_all2all))
            .collect();
        let mut held = Vec::with_capacity(p);
        let mut moved_counts = Vec::new();
        let mut pre_uniquify_lens = Vec::with_capacity(p);
        for group in groups {
            held.extend(group.held);
            moved_counts.extend(group.moved_counts);
            pre_uniquify_lens.extend(group.pre_uniquify_lens);
        }
        let moved_items = moved_counts.iter().flatten().sum();
        return PreparedSends { held, send_lens, moved_items, moved_counts, pre_uniquify_lens };
    }

    // Local all2all: regroup within ranks; moved items ride NVLink.
    let (held, moved_items, moved_counts) = if use_local_all2all {
        let regrouped = local_all2all_regroup(*topo, sends);
        (regrouped.items, regrouped.moved_items, regrouped.moved_counts)
    } else {
        (sends, 0, Vec::new())
    };
    let pre_uniquify_lens = held.iter().map(|l| l.len() as u64).collect();
    PreparedSends { held, send_lens, moved_items, moved_counts, pre_uniquify_lens }
}

/// A bucket whose slot range needs at most this many bitmap words per
/// item it holds is deduplicated through a bitmap; sparser buckets sort.
const DENSE_WORDS_PER_ITEM: usize = 4;

/// One sender group's share of [`PreparedSends`]: rows for the group's
/// GPUs, in flat order.
struct UniqueGroup {
    held: Vec<Vec<(GpuId, u32)>>,
    moved_counts: Vec<Vec<u64>>,
    pre_uniquify_lens: Vec<u64>,
}

/// Uniquifies the items of `senders` (flat GPUs `first..`), regrouping
/// them first when `regroup`. The result equals regrouping, then a tuple
/// sort by (flat destination, slot) + `dedup` per holder.
///
/// A counting pass sizes one bucket per destination. A dense bucket gets a
/// bitmap and emits its set bits word by word; a sparse one — few slots
/// over a wide range — gets its raw slots, sorted and deduplicated, so no
/// bitmap outgrows its bucket. Buckets are emitted to their holders in
/// ascending destination order.
fn unique_group(
    topo: &Topology,
    first: usize,
    senders: &[Vec<(GpuId, u32)>],
    regroup: bool,
) -> UniqueGroup {
    let p = topo.num_gpus() as usize;
    // Destination `d`'s holder, as an index into the group.
    let sender = topo.unflat(first);
    let holder: Vec<usize> = (0..p)
        .map(
            |d| if regroup { topo.flat(regroup_holder(sender, topo.unflat(d))) - first } else { 0 },
        )
        .collect();

    let mut lens = vec![0usize; p];
    let mut max = vec![0u32; p];
    let mut moved_counts = vec![vec![0u64; p]; if regroup { senders.len() } else { 0 }];
    let mut pre_uniquify_lens = vec![0u64; senders.len()];
    for (s, list) in senders.iter().enumerate() {
        for &(dest, slot) in list {
            let d = topo.flat(dest);
            lens[d] += 1;
            max[d] = max[d].max(slot);
            let h = holder[d];
            pre_uniquify_lens[h] += 1;
            if h != s {
                moved_counts[s][first + h] += 1;
            }
        }
    }

    let words = |d: usize| max[d] as usize / 64 + 1;
    let dense: Vec<bool> = (0..p).map(|d| words(d) <= DENSE_WORDS_PER_ITEM * lens[d]).collect();
    let mut at = vec![0usize; p];
    let (mut bit_len, mut slot_len) = (0, 0);
    for d in (0..p).filter(|&d| lens[d] > 0) {
        if dense[d] {
            at[d] = bit_len;
            bit_len += words(d);
        } else {
            at[d] = slot_len;
            slot_len += lens[d];
        }
    }
    let mut bits = vec![0u64; bit_len];
    let mut slots = vec![0u32; slot_len];
    let mut next = at.clone();
    for &(dest, slot) in senders.iter().flatten() {
        let d = topo.flat(dest);
        if dense[d] {
            bits[at[d] + slot as usize / 64] |= 1 << (slot % 64);
        } else {
            slots[next[d]] = slot;
            next[d] += 1;
        }
    }

    let mut held = vec![Vec::new(); senders.len()];
    for d in (0..p).filter(|&d| lens[d] > 0) {
        let (dest, out) = (topo.unflat(d), &mut held[holder[d]]);
        if dense[d] {
            for (w, &word) in bits[at[d]..at[d] + words(d)].iter().enumerate() {
                let mut set = word;
                while set != 0 {
                    out.push((dest, (w * 64) as u32 + set.trailing_zeros()));
                    set &= set - 1;
                }
            }
        } else {
            let bucket = &mut slots[at[d]..next[d]];
            bucket.sort_unstable();
            out.extend(bucket.chunk_by(|a, b| a == b).map(|run| (dest, run[0])));
        }
    }
    UniqueGroup { held, moved_counts, pre_uniquify_lens }
}

/// How one (source, destination) exchange message travels — the routing
/// decision [`form_blocks`] applies for both backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessagePath {
    /// Source and destination are the same GPU (possible after
    /// regrouping): no transfer at all.
    SameGpu,
    /// Shipped raw: intra-rank (NVLink is never compressed) or the run
    /// has compression off.
    Raw {
        /// True when source and destination share a rank.
        intra: bool,
    },
    /// Cross-rank under a compressing mode: sort, encode.
    Compressed,
}

/// Classifies the `(src, dst)` flat-GPU pair under `mode`. The decision
/// depends only on the *logical* topology — the proc backend applies it
/// unchanged even when re-homing moves a partition to a different host
/// process, which is what keeps wire images identical across backends.
pub fn message_path(topo: &Topology, src_flat: usize, dst_flat: usize, on: bool) -> MessagePath {
    if src_flat == dst_flat {
        return MessagePath::SameGpu;
    }
    let intra = topo.same_rank(topo.unflat(src_flat), topo.unflat(dst_flat));
    if intra || !on {
        MessagePath::Raw { intra }
    } else {
        MessagePath::Compressed
    }
}

/// One `(source, destination)` batch of `nn` updates, its body already in
/// the form it travels in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Flat index of the sending GPU.
    pub src: usize,
    /// Flat index of the receiving GPU.
    pub dst: usize,
    /// The updates.
    pub body: BlockBody,
}

/// The wire form of a [`Block`]'s destination-local slots: raw, 4 bytes
/// per slot in send order (same-GPU and intra-rank pairs, and every pair
/// when compression is off), or one frontier-codec encoding of the sorted
/// slots (a cross-rank pair under a compressing mode).
pub type BlockBody = WireBody<u32>;

impl Block {
    /// Bytes the body occupies on the wire: what the modeled exchange
    /// charges and what a socket carries.
    pub fn wire_bytes(&self) -> u64 {
        self.body.wire_bytes()
    }
}

/// Groups `prep`'s held lists into one [`Block`] per non-empty
/// `(source, destination)` pair, in (source, destination) order. A pair
/// [`message_path`] routes through a codec is sorted and encoded with the
/// codec `mode` picks for it; every other pair keeps its slots raw.
pub fn form_blocks(topo: &Topology, prep: PreparedSends, mode: CompressionMode) -> Vec<Block> {
    let p = topo.num_gpus() as usize;
    // At most one block per item and per (source, destination) pair.
    let items: usize = prep.held.iter().map(Vec::len).sum();
    let mut blocks = Vec::with_capacity(items.min(p * p));
    // Destination buckets, allocated once and reused across senders.
    let mut by_dest: Vec<Vec<u32>> = vec![Vec::new(); p];
    for (src, list) in prep.held.into_iter().enumerate() {
        // Group contiguously by destination (stable: preserves send order).
        for (dest, slot) in list {
            by_dest[topo.flat(dest)].push(slot);
        }
        for (dst, slots) in by_dest.iter_mut().enumerate() {
            if slots.is_empty() {
                continue;
            }
            let body = if message_path(topo, src, dst, mode.is_on()) == MessagePath::Compressed {
                // Delta codecs need sorted ids; the sort rides the encode
                // kernel charge.
                slots.sort_unstable();
                let codec = mode.frontier_codec(slots).expect("a compressing mode picks a codec");
                BlockBody::Encoded(codec.encode(slots).expect("sorted input cannot be rejected"))
            } else {
                BlockBody::Raw(slots.clone())
            };
            slots.clear();
            blocks.push(Block { src, dst, body });
        }
    }
    blocks
}

/// Delivers `blocks` to the GPUs `hosted` (ascending flat indices): one
/// list per hosted GPU, the decoded bodies of its blocks concatenated by
/// ascending source.
///
/// # Errors
/// A block from a GPU outside the grid, for a GPU not hosted, two blocks
/// for one `(src, dst)` pair, or an encoded body that does not decode.
pub fn deliver_blocks(
    topo: &Topology,
    hosted: &[usize],
    mut blocks: Vec<Block>,
) -> Result<Vec<Vec<u32>>, ProtocolError> {
    let p = topo.num_gpus() as usize;
    // Formed blocks are already in this order, so on the sim path the
    // sort is one linear scan.
    blocks.sort_unstable_by_key(|b| (b.src, b.dst));
    if blocks.windows(2).any(|w| (w[0].src, w[0].dst) == (w[1].src, w[1].dst)) {
        return Err(ProtocolError::new("two blocks for one (src, dst) pair"));
    }
    // Check every block and size every list before copying any. An
    // encoded count is capped at 8 ids per payload byte, the densest a
    // codec decodes, so a hostile header cannot drive the reservation.
    let mut lens = vec![0; hosted.len()];
    let mut at = Vec::with_capacity(blocks.len());
    for b in &blocks {
        if b.src >= p {
            return Err(ProtocolError::new(format!("block from gpu {} outside the grid", b.src)));
        }
        let i = hosted.binary_search(&b.dst).map_err(|_| {
            ProtocolError::new(format!("block for gpu {}, which this group does not host", b.dst))
        })?;
        lens[i] += match &b.body {
            BlockBody::Raw(slots) => slots.len(),
            BlockBody::Encoded(bytes) => {
                frontier_header(bytes).map_or(0, |(_, items)| (items as usize).min(8 * bytes.len()))
            }
        };
        at.push(i);
    }
    let mut delivered: Vec<Vec<u32>> = lens.into_iter().map(Vec::with_capacity).collect();
    for (Block { src, dst, body }, i) in blocks.into_iter().zip(at) {
        match body {
            BlockBody::Raw(slots) => delivered[i].extend_from_slice(&slots),
            BlockBody::Encoded(bytes) => {
                decode_frontier_into(&bytes, &mut delivered[i]).map_err(|e| {
                    ProtocolError::new(format!("block {src} -> {dst} does not decode: {e}"))
                })?;
            }
        }
    }
    Ok(delivered)
}

/// Performs the exchange for one iteration.
///
/// `sends[g]` are the `(destination GPU, destination-local slot)` updates
/// produced by GPU `g`'s `nn` visit. Self-addressed updates are not
/// expected (local `nn` discoveries are applied in the visit kernel), but
/// are delivered correctly if present.
///
/// The stages are charged, then [`form_blocks`] builds the blocks and each
/// transfer is charged at its block's [`Block::wire_bytes`] — an encoded
/// block floored at the transport envelope, its encode and decode work
/// charged per raw byte — and [`deliver_blocks`] decodes them at the
/// receivers. Delivered content is exactly what survived a real
/// encode/decode roundtrip, so bit-exactness is enforced by construction
/// rather than assumed.
pub fn exchange_normals_with(
    topo: &Topology,
    cost: &CostModel,
    sends: Vec<Vec<(GpuId, u32)>>,
    use_local_all2all: bool,
    use_uniquify: bool,
    mode: CompressionMode,
) -> ExchangeResult {
    let p = topo.num_gpus() as usize;
    assert_eq!(sends.len(), p, "one send list per GPU required");
    let items_before: u64 = sends.iter().map(|s| s.len() as u64).sum();

    let prep = prepare_sends(topo, sends, use_local_all2all, use_uniquify);

    let mut local_time = vec![0f64; p];
    let mut encode_time = vec![0f64; p];
    let mut decode_time = vec![0f64; p];
    let mut local_bytes = 0u64;

    // Bin & convert: each GPU groups its updates; charged to the binning
    // kernel (the 64→32-bit conversion happened in the visit kernel, the
    // paper charges both to "extra local computation ... done on GPUs").
    for (g, &n) in prep.send_lens.iter().enumerate() {
        let t = cost.device.kernel_time(KernelKind::Binning, n);
        local_time[g] += t;
        encode_time[g] += t;
    }

    if use_local_all2all {
        local_bytes += prep.moved_items * BYTES_PER_UPDATE;
        // Each holder pays one NVLink message per peer it actually shipped
        // items to, with the exact per-peer volume reported by the
        // regrouping (one `MPI_Isend`-like transfer per (holder, peer)
        // pair, as the paper's implementation batches them).
        for (g, peers) in prep.moved_counts.iter().enumerate() {
            for (peer, &count) in peers.iter().enumerate() {
                if peer != g && count > 0 {
                    let t = cost.network.p2p_time(count * BYTES_PER_UPDATE, true);
                    local_time[g] += t;
                    encode_time[g] += t;
                }
            }
        }
    }

    if use_uniquify {
        // The GPU's sort-unique, charged as another binning pass over the
        // held items (the host's bin + bitmap computes the same lists).
        for (g, &n) in prep.pre_uniquify_lens.iter().enumerate() {
            let t = cost.device.kernel_time(KernelKind::Binning, n);
            local_time[g] += t;
            encode_time[g] += t;
        }
    }

    let items_sent: u64 = prep.held.iter().map(|s| s.len() as u64).sum();
    let blocks = form_blocks(topo, prep, mode);

    // Remote exchange: one modeled transfer per block, in (source,
    // destination) order.
    let mut send_time = vec![0f64; p];
    let mut recv_time = vec![0f64; p];
    let mut remote_bytes = 0u64;
    let mut raw_remote_bytes = 0u64;
    let mut codec_seconds = 0f64;
    let mut codec_counts = CodecCounts::default();
    let mut messages: Vec<MessageRecord> = Vec::new();
    for b in &blocks {
        let (g, d) = (b.src, b.dst);
        if g == d {
            continue; // already at its destination after regrouping
        }
        let wire_bytes = b.wire_bytes();
        let (raw_bytes, intra, t) = match &b.body {
            BlockBody::Raw(_) => {
                // NVLink or uncompressed run: the paper's raw format.
                let intra = topo.same_rank(topo.unflat(g), topo.unflat(d));
                (wire_bytes, intra, cost.network.p2p_time(wire_bytes, intra))
            }
            BlockBody::Encoded(bytes) => {
                let (codec, items) = frontier_header(bytes).expect("a formed block has a header");
                let raw_bytes = items as u64 * BYTES_PER_UPDATE;
                debug_assert!(
                    wire_bytes - HEADER_BYTES as u64 <= raw_bytes,
                    "codec fallback bound violated: payload {} > raw {raw_bytes}",
                    wire_bytes - HEADER_BYTES as u64,
                );
                // Encode charged to the sender, decode to the receiver,
                // both per raw byte (the codecs stream the raw image once).
                let enc = cost.device.kernel_time(KernelKind::Compress, raw_bytes);
                let dec = cost.device.kernel_time(KernelKind::Decompress, raw_bytes);
                local_time[g] += enc;
                local_time[d] += dec;
                encode_time[g] += enc;
                decode_time[d] += dec;
                codec_seconds += enc + dec;
                codec_counts.record_frontier(codec);
                (raw_bytes, false, cost.network.p2p_time_floored(wire_bytes, false))
            }
        };
        send_time[g] += t;
        recv_time[d] += t;
        if intra {
            local_bytes += wire_bytes;
        } else {
            remote_bytes += wire_bytes;
            raw_remote_bytes += raw_bytes;
        }
        messages.push(MessageRecord { src: g as u32, dst: d as u32, raw_bytes, wire_bytes, intra });
    }
    let remote_time: Vec<f64> = send_time.iter().zip(&recv_time).map(|(&s, &r)| s.max(r)).collect();
    let all: Vec<usize> = (0..p).collect();
    let delivered = deliver_blocks(topo, &all, blocks).expect("formed blocks deliver");

    ExchangeResult {
        delivered,
        local_time,
        encode_time,
        decode_time,
        remote_time,
        remote_bytes,
        raw_remote_bytes,
        local_bytes,
        items_before,
        items_sent,
        codec_seconds,
        codec_counts,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_compress::FrontierCodec;

    fn topo22() -> Topology {
        Topology::new(2, 2)
    }

    fn gid(rank: u32, gpu: u32) -> GpuId {
        GpuId { rank, gpu }
    }

    #[test]
    fn plain_exchange_delivers_everything() {
        let topo = topo22();
        let cost = CostModel::ray();
        let mut sends: Vec<Vec<(GpuId, u32)>> = vec![Vec::new(); 4];
        sends[0] = vec![(gid(1, 0), 7), (gid(1, 1), 9)];
        sends[3] = vec![(gid(0, 0), 1)];
        let ex = exchange_normals_with(&topo, &cost, sends, false, false, CompressionMode::Off);
        assert_eq!(ex.delivered[topo.flat(gid(1, 0))], vec![7]);
        assert_eq!(ex.delivered[topo.flat(gid(1, 1))], vec![9]);
        assert_eq!(ex.delivered[0], vec![1]);
        assert_eq!(ex.items_before, 3);
        assert_eq!(ex.items_sent, 3);
        assert_eq!(ex.remote_bytes, 3 * BYTES_PER_UPDATE);
        assert!(ex.remote_time[0] > 0.0 && ex.remote_time[3] > 0.0);
    }

    #[test]
    fn same_rank_sends_count_as_local_bytes() {
        let topo = topo22();
        let cost = CostModel::ray();
        let mut sends: Vec<Vec<(GpuId, u32)>> = vec![Vec::new(); 4];
        sends[0] = vec![(gid(0, 1), 3)];
        let ex = exchange_normals_with(&topo, &cost, sends, false, false, CompressionMode::Off);
        assert_eq!(ex.remote_bytes, 0);
        assert_eq!(ex.local_bytes, BYTES_PER_UPDATE);
        assert_eq!(ex.delivered[1], vec![3]);
    }

    #[test]
    fn uniquify_drops_duplicates() {
        let topo = topo22();
        let cost = CostModel::ray();
        let mut sends: Vec<Vec<(GpuId, u32)>> = vec![Vec::new(); 4];
        sends[0] = vec![(gid(1, 0), 7), (gid(1, 0), 7), (gid(1, 0), 8)];
        let ex =
            exchange_normals_with(&topo, &cost, sends.clone(), false, true, CompressionMode::Off);
        assert_eq!(ex.items_before, 3);
        assert_eq!(ex.items_sent, 2);
        let mut got = ex.delivered[topo.flat(gid(1, 0))].clone();
        got.sort_unstable();
        assert_eq!(got, vec![7, 8]);
        // Without uniquify the duplicate flows.
        let ex2 = exchange_normals_with(&topo, &cost, sends, false, false, CompressionMode::Off);
        assert_eq!(ex2.items_sent, 3);
    }

    #[test]
    fn local_all2all_keeps_cross_rank_pairs_slot_aligned() {
        let topo = topo22();
        let cost = CostModel::ray();
        // GPU (0,0) targets (1,1): without regrouping this is a
        // slot-mismatched pair; with it, the item first hops to (0,1).
        let mut sends: Vec<Vec<(GpuId, u32)>> = vec![Vec::new(); 4];
        sends[0] = vec![(gid(1, 1), 5)];
        let ex = exchange_normals_with(&topo, &cost, sends, true, false, CompressionMode::Off);
        assert_eq!(ex.delivered[topo.flat(gid(1, 1))], vec![5]);
        assert!(ex.local_bytes >= BYTES_PER_UPDATE, "regroup hop must be local");
        assert_eq!(ex.remote_bytes, BYTES_PER_UPDATE);
    }

    #[test]
    fn regroup_to_own_slot_skips_the_wire() {
        let topo = topo22();
        let cost = CostModel::ray();
        // (0,0) -> (0,1): after regrouping the item sits on (0,1) already.
        let mut sends: Vec<Vec<(GpuId, u32)>> = vec![Vec::new(); 4];
        sends[0] = vec![(gid(0, 1), 4)];
        let ex = exchange_normals_with(&topo, &cost, sends, true, false, CompressionMode::Off);
        assert_eq!(ex.delivered[1], vec![4]);
        assert_eq!(ex.remote_bytes, 0);
    }

    #[test]
    fn empty_exchange_is_free() {
        let topo = topo22();
        let cost = CostModel::ray();
        let ex = exchange_normals_with(
            &topo,
            &cost,
            vec![Vec::new(); 4],
            true,
            true,
            CompressionMode::Off,
        );
        assert_eq!(ex.items_before, 0);
        assert!(ex.delivered.iter().all(Vec::is_empty));
        assert!(ex.remote_time.iter().all(|&t| t == 0.0));
        assert!(ex.local_time.iter().all(|&t| t == 0.0));
    }

    #[test]
    fn delivery_is_ordered_by_sender() {
        let topo = Topology::new(3, 1);
        let cost = CostModel::ray();
        let mut sends: Vec<Vec<(GpuId, u32)>> = vec![Vec::new(); 3];
        sends[2] = vec![(gid(0, 0), 20)];
        sends[1] = vec![(gid(0, 0), 10)];
        let ex = exchange_normals_with(&topo, &cost, sends, false, false, CompressionMode::Off);
        assert_eq!(ex.delivered[0], vec![10, 20]);
    }

    fn dense_sends(n: u32) -> Vec<Vec<(GpuId, u32)>> {
        let mut sends: Vec<Vec<(GpuId, u32)>> = vec![Vec::new(); 4];
        sends[0] = (0..n).map(|i| (gid(1, 0), i)).collect();
        sends[3] = (0..n).map(|i| (gid(0, 1), 1000 * i)).collect();
        sends
    }

    #[test]
    fn compressed_exchange_delivers_the_same_multiset() {
        let topo = topo22();
        let cost = CostModel::ray();
        let reference = exchange_normals_with(
            &topo,
            &cost,
            dense_sends(500),
            false,
            false,
            CompressionMode::Off,
        );
        for mode in [
            CompressionMode::Adaptive,
            CompressionMode::Fixed(FrontierCodec::Raw32, gcbfs_compress::MaskCodec::RawMask),
            CompressionMode::Fixed(FrontierCodec::VarintDelta, gcbfs_compress::MaskCodec::RleMask),
            CompressionMode::Fixed(FrontierCodec::Bitmap, gcbfs_compress::MaskCodec::SparseIndex),
        ] {
            let ex = exchange_normals_with(&topo, &cost, dense_sends(500), false, false, mode);
            for (got, want) in ex.delivered.iter().zip(&reference.delivered) {
                let mut a = got.clone();
                let mut b = want.clone();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "mode {mode} changed delivered content");
            }
            assert_eq!(ex.items_sent, reference.items_sent);
            assert_eq!(ex.raw_remote_bytes, reference.remote_bytes);
        }
    }

    #[test]
    fn dense_messages_compress_and_charge_codec_time() {
        let topo = topo22();
        let cost = CostModel::ray();
        let raw = exchange_normals_with(
            &topo,
            &cost,
            dense_sends(2000),
            false,
            false,
            CompressionMode::Off,
        );
        let ex = exchange_normals_with(
            &topo,
            &cost,
            dense_sends(2000),
            false,
            false,
            CompressionMode::Adaptive,
        );
        assert!(
            ex.remote_bytes < raw.remote_bytes,
            "adaptive {} must beat raw {}",
            ex.remote_bytes,
            raw.remote_bytes
        );
        assert!(ex.bytes_saved() > 0);
        assert!(ex.codec_seconds > 0.0, "codec work must be charged");
        assert!(ex.codec_counts.frontier_total() >= 2, "both cross-rank messages counted");
        // Dense contiguous ids → bitmap; strided ids → varint: the
        // selector must pick at least two codecs across these messages.
        assert!(ex.codec_counts.distinct_frontier_codecs() >= 2);
    }

    #[test]
    fn off_mode_reports_raw_equals_wire() {
        let topo = topo22();
        let cost = CostModel::ray();
        let ex = exchange_normals_with(
            &topo,
            &cost,
            dense_sends(100),
            false,
            false,
            CompressionMode::Off,
        );
        assert_eq!(ex.remote_bytes, ex.raw_remote_bytes);
        assert_eq!(ex.bytes_saved(), 0);
        assert_eq!(ex.codec_seconds, 0.0);
        assert_eq!(ex.codec_counts.frontier_total(), 0);
    }

    #[test]
    fn tiny_compressed_messages_pay_the_wire_floor() {
        let topo = topo22();
        let cost = CostModel::ray();
        let mut sends: Vec<Vec<(GpuId, u32)>> = vec![Vec::new(); 4];
        sends[0] = vec![(gid(1, 0), 7)]; // one cross-rank item: 4 raw bytes
        let raw =
            exchange_normals_with(&topo, &cost, sends.clone(), false, false, CompressionMode::Off);
        let ex =
            exchange_normals_with(&topo, &cost, sends, false, false, CompressionMode::Adaptive);
        // Encoded is 5-byte header + 4-byte payload: larger than raw but
        // bounded by HEADER_BYTES, and the transfer is charged at the
        // 64-byte transport floor, so the modeled time cannot undercut the
        // smallest legal wire message.
        assert_eq!(ex.remote_bytes, raw.remote_bytes + HEADER_BYTES as u64);
        let floor = cost.network.message_floor_bytes.ceil() as u64;
        let floor_time = cost.network.p2p_time(floor, false);
        assert!(ex.remote_time[0] >= floor_time);
    }

    #[test]
    fn message_records_sum_to_charged_bytes() {
        let topo = topo22();
        let cost = CostModel::ray();
        for mode in [CompressionMode::Off, CompressionMode::Adaptive] {
            let mut sends = dense_sends(300);
            sends[1] = vec![(gid(0, 0), 2), (gid(1, 1), 3)]; // intra + cross extras
            let ex = exchange_normals_with(&topo, &cost, sends, false, false, mode);
            let cross: u64 = ex.messages.iter().filter(|m| !m.intra).map(|m| m.wire_bytes).sum();
            assert_eq!(cross, ex.remote_bytes, "mode {mode}");
            let cross_raw: u64 = ex.messages.iter().filter(|m| !m.intra).map(|m| m.raw_bytes).sum();
            assert_eq!(cross_raw, ex.raw_remote_bytes, "mode {mode}");
            let intra: u64 = ex.messages.iter().filter(|m| m.intra).map(|m| m.wire_bytes).sum();
            assert_eq!(
                intra, ex.local_bytes,
                "mode {mode}: no regrouping, so all local \
                 bytes are intra-rank sends"
            );
            for m in &ex.messages {
                assert_ne!(m.src, m.dst, "same-GPU deliveries record no message");
            }
        }
    }

    #[test]
    fn stage_times_partition_local_time() {
        let topo = topo22();
        let cost = CostModel::ray();
        for mode in [CompressionMode::Off, CompressionMode::Adaptive] {
            let ex = exchange_normals_with(&topo, &cost, dense_sends(2000), true, true, mode);
            for g in 0..4 {
                let sum = ex.encode_time[g] + ex.decode_time[g];
                assert!(
                    (sum - ex.local_time[g]).abs() <= 1e-12 * ex.local_time[g].max(1.0),
                    "mode {mode}, lane {g}: encode {} + decode {} != local {}",
                    ex.encode_time[g],
                    ex.decode_time[g],
                    ex.local_time[g]
                );
            }
            if mode.is_on() {
                assert!(ex.decode_time.iter().any(|&t| t > 0.0), "decode must be charged");
            } else {
                assert!(ex.decode_time.iter().all(|&t| t == 0.0), "raw runs decode nothing");
            }
        }
    }

    #[test]
    fn intra_rank_messages_stay_raw_under_compression() {
        let topo = topo22();
        let cost = CostModel::ray();
        let mut sends: Vec<Vec<(GpuId, u32)>> = vec![Vec::new(); 4];
        sends[0] = (0..256).map(|i| (gid(0, 1), i)).collect();
        let ex =
            exchange_normals_with(&topo, &cost, sends, false, false, CompressionMode::Adaptive);
        assert_eq!(ex.local_bytes, 256 * BYTES_PER_UPDATE, "NVLink bytes must stay raw");
        assert_eq!(ex.remote_bytes, 0);
        assert_eq!(ex.codec_counts.frontier_total(), 0);
        assert_eq!(ex.codec_seconds, 0.0);
    }
}
