//! Checkpoint/restart: one sealed image of one GPU's mutable BFS state,
//! the one store of them both backends commit to, and the delta a commit
//! is made of.
//!
//! The BSP structure makes consistent snapshots cheap: at a superstep
//! boundary no messages are in flight, so the per-GPU worker state (local
//! and delegate depths, the visited-delegate mask, both frontiers,
//! direction-optimization state, and parent records) *is* the global
//! state. [`GpuStateImage`] is that state for one GPU, sealed with an
//! FNV-1a digest of a fixed little-endian encoding of its fields — the
//! only fold over GPU state in the crate. A [`Store`] holds the committed
//! iteration and one image per GPU: the sim's fault layer rolls back from
//! it, the proc round resumes workers from it, both once its seals verify.
//!
//! A commit is a [`StateDelta`] folded onto the store: BFS state only
//! grows (a depth is written once, a visited bit only ever set), so the
//! state entering iteration `k` is the state at the commit plus the
//! vertices settled since, the direction bytes and the frontier. A proc
//! worker ships its saves and final state as deltas since its last `Begin`
//! or save ([`crate::procrt::protocol`] carries the codec); the sim folds
//! its group's delta in process; the coordinator resumes a worker with a
//! delta from iteration 0, whose base is the all-unreached state.
//! `StateDelta::of` is the one builder, over a worker's state or a
//! committed image alike, and [`StateDelta::fold`] the one way back: it
//! rebuilds the whole images from the base ones and checks each against
//! the seal taken of the state the delta was built from, so a folded
//! store holds exactly what a whole-image checkpoint would have.
//!
//! Cost accounting: a real implementation writes each GPU's state through
//! the CPU staging buffers to host memory (Ray has no NIC–GPU RDMA, so
//! this is the same `cudaMemcpyAsync` path every inter-node byte already
//! takes — §VI-A2). [`modeled_seconds`] charges exactly that: the largest
//! per-GPU image ([`worker_bytes`]) over the staging bandwidth (all GPUs
//! copy concurrently), whatever the delta carried. The charge lands in
//! [`FaultStats::checkpoint_seconds`](crate::stats::FaultStats), which
//! [`RunStats::modeled_elapsed`](crate::stats::RunStats) includes.

use crate::assemble::GpuStateView;
use crate::direction::Direction;
use crate::kernels::{GpuWorker, NO_PARENT};
use crate::masks::DelegateMask;
use crate::procrt::protocol::ProtocolError;
use crate::separation::Separation;
use crate::UNREACHED;
use gcbfs_cluster::cost::CostModel;
use gcbfs_cluster::topology::{GpuId, Topology};
use gcbfs_compress::Fnv1a;
use rayon::prelude::*;

/// A snapshot failed its integrity seal: the state at rest (or as
/// decoded off a socket) no longer matches the FNV-1a digest taken at
/// capture.
///
/// Surfaced as a typed error instead of silently replaying bad state —
/// a corrupted checkpoint would otherwise *poison* the bit-exactness
/// contract for the rest of the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointCorrupt {
    /// Flat index of the GPU whose snapshot failed verification.
    pub gpu: usize,
    /// Digest recorded at capture time.
    pub expected: u64,
    /// Digest of the snapshot as found at restore time.
    pub actual: u64,
}

impl std::fmt::Display for CheckpointCorrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint snapshot of GPU {} failed its integrity seal \
             (expected {:#018x}, got {:#018x})",
            self.gpu, self.expected, self.actual
        )
    }
}

impl std::error::Error for CheckpointCorrupt {}

/// A sealed image of one GPU's mutable BFS state — the unit of
/// checkpointing, restore and final-state collection in both backends.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuStateImage {
    /// Flat GPU index in the topology.
    pub gpu_flat: u32,
    /// Whether parent arrays are present.
    pub track_parents: bool,
    /// Depths of owned normal slots.
    pub depths_local: Vec<u32>,
    /// Replicated delegate depths.
    pub delegate_depths: Vec<u32>,
    /// Visited-mask bit count.
    pub visited_bits: u32,
    /// Visited-mask words.
    pub visited_words: Vec<u64>,
    /// Normal frontier (depth == current iteration).
    pub frontier: Vec<u32>,
    /// Delegate frontier (depth == current iteration).
    pub new_delegates: Vec<u32>,
    /// `dd`/`dn`/`nd` direction-state snapshot.
    pub directions: [Direction; 3],
    /// Encoded parents of owned normal slots (empty when untracked).
    pub parents_local: Vec<u64>,
    /// Per-delegate parent candidates (empty when untracked).
    pub delegate_parent_candidate: Vec<u64>,
    /// Retained remote `nn` parent proposals.
    pub remote_parent_log: Vec<(GpuId, u32, u64, u32)>,
    /// The [`Self::seal`] over the fields above, taken at capture.
    pub digest: u64,
}

impl GpuStateImage {
    /// Snapshots and seals one worker's state as GPU `gpu_flat`.
    pub fn capture(gpu_flat: u32, w: &GpuWorker) -> Self {
        Self {
            gpu_flat,
            track_parents: w.track_parents,
            depths_local: w.depths_local.clone(),
            delegate_depths: w.delegate_depths.clone(),
            visited_bits: w.visited_mask.num_bits(),
            visited_words: w.visited_mask.words().to_vec(),
            frontier: w.frontier.clone(),
            new_delegates: w.new_delegates.clone(),
            directions: [w.dir_dd.current(), w.dir_dn.current(), w.dir_nd.current()],
            parents_local: w.parents_local.clone(),
            delegate_parent_candidate: w.delegate_parent_candidate.clone(),
            remote_parent_log: w.remote_parent_log.clone(),
            digest: StateFields::of(gpu_flat, w).seal(),
        }
    }

    /// FNV-1a over the image's encoding (every field but the digest), so
    /// any byte flipped at rest or on a socket changes it.
    pub fn seal(&self) -> u64 {
        self.fields().seal()
    }

    /// The image's fields but the digest, borrowed.
    pub(crate) fn fields(&self) -> StateFields<'_> {
        StateFields {
            gpu_flat: self.gpu_flat,
            track_parents: self.track_parents,
            depths_local: &self.depths_local,
            delegate_depths: &self.delegate_depths,
            visited_bits: self.visited_bits,
            visited_words: &self.visited_words,
            frontier: &self.frontier,
            new_delegates: &self.new_delegates,
            directions: self.directions,
            parents_local: &self.parents_local,
            delegate_parent_candidate: &self.delegate_parent_candidate,
            remote_parent_log: &self.remote_parent_log,
        }
    }

    /// Recomputes the seal and compares it with the capture-time digest.
    pub fn verify(&self) -> Result<(), CheckpointCorrupt> {
        let actual = self.seal();
        if actual == self.digest {
            Ok(())
        } else {
            Err(CheckpointCorrupt { gpu: self.gpu_flat as usize, expected: self.digest, actual })
        }
    }

    /// Installs the image into a worker whose subgraphs match its GPU.
    /// Callers verify the seal first.
    pub fn install(&self, w: &mut GpuWorker) {
        w.depths_local.clone_from(&self.depths_local);
        w.delegate_depths.clone_from(&self.delegate_depths);
        w.visited_mask = DelegateMask::from_words(self.visited_bits, self.visited_words.clone());
        w.frontier.clone_from(&self.frontier);
        w.new_delegates.clone_from(&self.new_delegates);
        w.dir_dd.restore_current(self.directions[0]);
        w.dir_dn.restore_current(self.directions[1]);
        w.dir_nd.restore_current(self.directions[2]);
        w.track_parents = self.track_parents;
        w.parents_local.clone_from(&self.parents_local);
        w.delegate_parent_candidate.clone_from(&self.delegate_parent_candidate);
        w.remote_parent_log.clone_from(&self.remote_parent_log);
    }

    /// A borrowing assembly view of this image.
    pub fn view(&self) -> GpuStateView<'_> {
        GpuStateView {
            depths_local: &self.depths_local,
            delegate_depths: &self.delegate_depths,
            delegate_parent_candidate: &self.delegate_parent_candidate,
            parents_local: &self.parents_local,
            remote_parent_log: &self.remote_parent_log,
        }
    }
}

/// One GPU's state as [`GpuStateImage`] lays it out, every field but the
/// digest, borrowed from an image or straight from a worker: what the
/// seal folds and a delta is built from.
pub(crate) struct StateFields<'a> {
    pub(crate) gpu_flat: u32,
    pub(crate) track_parents: bool,
    pub(crate) depths_local: &'a [u32],
    pub(crate) delegate_depths: &'a [u32],
    pub(crate) visited_bits: u32,
    pub(crate) visited_words: &'a [u64],
    pub(crate) frontier: &'a [u32],
    pub(crate) new_delegates: &'a [u32],
    pub(crate) directions: [Direction; 3],
    pub(crate) parents_local: &'a [u64],
    pub(crate) delegate_parent_candidate: &'a [u64],
    pub(crate) remote_parent_log: &'a [(GpuId, u32, u64, u32)],
}

impl<'a> StateFields<'a> {
    /// Worker `w`'s state as GPU `gpu_flat`.
    pub(crate) fn of(gpu_flat: u32, w: &'a GpuWorker) -> Self {
        Self {
            gpu_flat,
            track_parents: w.track_parents,
            depths_local: &w.depths_local,
            delegate_depths: &w.delegate_depths,
            visited_bits: w.visited_mask.num_bits(),
            visited_words: w.visited_mask.words(),
            frontier: &w.frontier,
            new_delegates: &w.new_delegates,
            directions: [w.dir_dd.current(), w.dir_dn.current(), w.dir_nd.current()],
            parents_local: &w.parents_local,
            delegate_parent_candidate: &w.delegate_parent_candidate,
            remote_parent_log: &w.remote_parent_log,
        }
    }

    /// FNV-1a over the fields' encoding, hashed as it is written.
    fn seal(&self) -> u64 {
        let mut h = Fnv1a::default();
        self.encode(&mut h);
        h.finish()
    }

    /// This GPU's part of a delta entering `iter` whose levels start at
    /// `first`, beside the settled `delegates`: its remote parent proposals
    /// from entry `log_from` on, and the seal of the whole state.
    fn delta(&self, first: u32, iter: u32, delegates: &[Level], log_from: usize) -> GpuDelta {
        let levels = Level::of(self.depths_local, first, iter);
        let (mut parents, mut candidates, mut remote_parent_log) = Default::default();
        if self.track_parents {
            let slots = levels.iter().flat_map(|l| &l.ids);
            parents = slots.map(|&s| self.parents_local[s as usize]).collect();
            let settled = delegates.iter().flat_map(|l| &l.ids);
            let candidate = |&x: &u32| (x, self.delegate_parent_candidate[x as usize]);
            candidates = settled.map(candidate).filter(|&(_, c)| c != NO_PARENT).collect();
            remote_parent_log = self.remote_parent_log[log_from..].to_vec();
        }
        GpuDelta {
            gpu_flat: self.gpu_flat,
            directions: self.directions,
            levels,
            frontier: self.frontier.to_vec(),
            parents,
            candidates,
            remote_parent_log,
            digest: self.seal(),
        }
    }
}

/// The slots of one GPU, or the delegates, that settled at one depth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Level {
    /// The BFS depth they settled at.
    pub depth: u32,
    /// Slot or delegate ids, strictly ascending.
    pub ids: Vec<u32>,
}

impl Level {
    /// The ids whose depth in `depths` lies in `first..=last`, one level
    /// per depth, empty levels left out.
    pub(crate) fn of(depths: &[u32], first: u32, last: u32) -> Vec<Self> {
        let mut levels: Vec<Self> =
            (first..=last).map(|depth| Self { depth, ids: Vec::new() }).collect();
        for (id, &d) in depths.iter().enumerate() {
            if (first..=last).contains(&d) {
                levels[(d - first) as usize].ids.push(id as u32);
            }
        }
        levels.retain(|l| !l.ids.is_empty());
        levels
    }
}

/// One hosted GPU's part of a [`StateDelta`].
#[derive(Clone, Debug, PartialEq)]
pub struct GpuDelta {
    /// Flat GPU index in the topology.
    pub gpu_flat: u32,
    /// `dd`/`dn`/`nd` direction state entering the delta's iteration.
    pub directions: [Direction; 3],
    /// Normal slots settled in the window, by level, ascending.
    pub levels: Vec<Level>,
    /// The normal frontier in its exact order: it decides which parent
    /// wins in the next superstep.
    pub frontier: Vec<u32>,
    /// When parents are tracked: the parent of every slot in `levels`, in
    /// their order.
    pub parents: Vec<u64>,
    /// When parents are tracked: this GPU's parent candidate for each
    /// delegate settled in the window that it proposed one for, in the
    /// order of the delta's delegate levels.
    pub candidates: Vec<(u32, u64)>,
    /// When parents are tracked: the remote `nn` proposals logged in the
    /// window (the suffix of the image's log).
    pub remote_parent_log: Vec<(GpuId, u32, u64, u32)>,
    /// The [`GpuStateImage::seal`] of the whole state the delta folds to.
    pub digest: u64,
}

/// What a set of GPUs settled between two iterations — the one form GPU
/// state crosses the proc wire in: a worker's checkpoint and final state
/// (since its last `Begin` or save), and a resume (since iteration 0).
///
/// The visited words and the delegate frontier are not shipped: they
/// follow from the delegate depths, which every GPU holds identically
/// after each reduction, so the worker sends its newly settled delegates
/// once, not per GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct StateDelta {
    /// The iteration it folds from: the worker's last `Begin` or save, or
    /// 0 for a resume.
    pub base: u32,
    /// The iteration the folded images enter.
    pub iter: u32,
    /// Whether parent records ride along.
    pub track_parents: bool,
    /// Delegates settled in the window, by level.
    pub delegates: Vec<Level>,
    /// One entry per GPU it covers, none repeated.
    pub gpus: Vec<GpuDelta>,
}

impl StateDelta {
    /// The delta from `base` to `iter` of each GPU's state in `gpus`,
    /// given with the length of its remote parent log at the base, whose
    /// levels start at `first`: 0 when the base folded onto is
    /// all-unreached, else `base + 1`. The delegates are read off the first
    /// GPU: every GPU holds them identically.
    pub(crate) fn of(
        base: u32,
        first: u32,
        iter: u32,
        track_parents: bool,
        gpus: &[(StateFields<'_>, usize)],
    ) -> Self {
        let delegates =
            gpus.first().map_or_else(Vec::new, |(g, _)| Level::of(g.delegate_depths, first, iter));
        let gpus = gpus
            .par_iter()
            .map(|(g, log_from)| g.delta(first, iter, &delegates, *log_from))
            .collect();
        Self { base, iter, track_parents, delegates, gpus }
    }

    /// Folds the delta onto `store`, the images entering iteration
    /// `committed` of the GPUs it covers and maybe more, found by flat (the
    /// base images' digests are not read), and returns the whole sealed
    /// image of every GPU it covers, in its order. `store` is not touched.
    ///
    /// # Errors
    /// A base other than `committed`; an iteration before the base; a GPU
    /// without a base image; a parent flag other than the base image's; a
    /// level outside the window
    /// (past the base, or from 0 when the base is 0, through `iter`) or
    /// out of order; a slot or delegate outside the grid or already
    /// settled; parents that do not match the settled slots; a candidate
    /// for a delegate that did not settle in the window; a frontier entry
    /// not at depth `iter`; a fold that does not reproduce the worker's
    /// seal.
    pub fn fold(
        &self,
        committed: u32,
        store: &[GpuStateImage],
    ) -> Result<Vec<GpuStateImage>, ProtocolError> {
        if self.base != committed {
            let (base, iter) = (self.base, self.iter);
            return Err(ProtocolError::new(format!(
                "delta from iteration {base} to {iter}, but the commit is at {committed}"
            )));
        }
        if self.iter < self.base {
            let (base, iter) = (self.base, self.iter);
            return Err(ProtocolError::new(format!("delta to iteration {iter} from {base}")));
        }
        self.gpus.iter().map(|gpu| self.fold_gpu(gpu, store)).collect()
    }

    fn fold_gpu(
        &self,
        gpu: &GpuDelta,
        store: &[GpuStateImage],
    ) -> Result<GpuStateImage, ProtocolError> {
        let flat = gpu.gpu_flat;
        let err = |detail: String| ProtocolError::new(format!("gpu {flat}: {detail}"));
        let Some(mut img) = store.iter().find(|img| img.gpu_flat == flat).cloned() else {
            return Err(err("no base image".into()));
        };
        if img.track_parents != self.track_parents {
            return Err(err("parent tracking differs from the base image's".into()));
        }
        // A store entering iteration 0 may be all-unreached (`Begin` seeds
        // the source), so a delta from there may start at depth 0; past
        // it, the image entering the base holds every depth up to it.
        let first = if self.base == 0 { 0 } else { self.base + 1 };
        let window = first..=self.iter;
        let settle = |what: &str, depths: &mut [u32], levels: &[Level]| {
            let mut last = None;
            for level in levels {
                let d = level.depth;
                if !window.contains(&d) || last >= Some(d) {
                    return Err(format!("{what} level {d} outside or out of order in {window:?}"));
                }
                last = Some(d);
                let n = depths.len();
                for &id in &level.ids {
                    match depths.get_mut(id as usize) {
                        None => return Err(format!("{what} {id} outside the grid's {n}")),
                        Some(at) if *at != UNREACHED => {
                            return Err(format!("{what} {id} is already settled"))
                        }
                        Some(at) => *at = d,
                    }
                }
            }
            Ok(())
        };
        settle("delegate", &mut img.delegate_depths, &self.delegates).map_err(err)?;
        settle("slot", &mut img.depths_local, &gpu.levels).map_err(err)?;
        for x in self.delegates.iter().flat_map(|l| &l.ids) {
            img.visited_words[*x as usize / 64] |= 1 << (x % 64);
        }
        if self.track_parents {
            let slots = gpu.levels.iter().flat_map(|l| &l.ids);
            if slots.clone().count() != gpu.parents.len() {
                return Err(err(format!("{} parents for the settled slots", gpu.parents.len())));
            }
            for (&slot, &parent) in slots.zip(&gpu.parents) {
                img.parents_local[slot as usize] = parent;
            }
            for &(x, candidate) in &gpu.candidates {
                if !img.delegate_depths.get(x as usize).is_some_and(|d| window.contains(d)) {
                    return Err(err(format!(
                        "candidate for delegate {x}, not settled in the window"
                    )));
                }
                img.delegate_parent_candidate[x as usize] = candidate;
            }
            img.remote_parent_log.extend_from_slice(&gpu.remote_parent_log);
        }
        let at_iter = |s: &&u32| img.depths_local.get(**s as usize) == Some(&self.iter);
        if let Some(s) = gpu.frontier.iter().find(|s| !at_iter(s)) {
            return Err(err(format!("frontier entry {s} is not at depth {}", self.iter)));
        }
        img.frontier.clone_from(&gpu.frontier);
        img.new_delegates = (0..img.delegate_depths.len() as u32)
            .filter(|&x| img.delegate_depths[x as usize] == self.iter)
            .collect();
        img.directions = gpu.directions;
        img.digest = gpu.digest;
        img.verify().map_err(|e| err(format!("fold: {e}")))?;
        Ok(img)
    }
}

/// The committed checkpoint of a run, the one both backends keep: the
/// iteration it enters and one sealed image per GPU, by flat. It moves
/// only by a commit of the images deltas fold to on it
/// ([`StateDelta::fold`]), and is replayed only after its seals verify
/// ([`Self::install`], [`Self::resume`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Store {
    iter: u32,
    images: Vec<GpuStateImage>,
}

impl Store {
    /// The store entering iteration 0 with nothing reached, as fresh
    /// workers hold it: the base of the first delta. Unsealed (digest 0):
    /// it is never replayed, and a fold seals what it builds.
    pub(crate) fn unreached(topo: &Topology, separation: &Separation, parents: bool) -> Self {
        let d = separation.num_delegates() as usize;
        let untracked = |len| if parents { vec![NO_PARENT; len] } else { Vec::new() };
        let image = |gpu_flat: u32| {
            let owner = topo.unflat(gpu_flat as usize);
            let n = topo.owned_count(owner, separation.num_vertices()) as usize;
            GpuStateImage {
                gpu_flat,
                track_parents: parents,
                depths_local: vec![UNREACHED; n],
                delegate_depths: vec![UNREACHED; d],
                visited_bits: d as u32,
                visited_words: vec![0; d.div_ceil(64)],
                frontier: Vec::new(),
                new_delegates: Vec::new(),
                directions: [Direction::Forward; 3],
                parents_local: untracked(n),
                delegate_parent_candidate: untracked(d),
                remote_parent_log: Vec::new(),
                digest: 0,
            }
        };
        Self { iter: 0, images: (0..topo.num_gpus()).map(image).collect() }
    }

    /// Sealed images of the whole grid, by flat, entering `iter`.
    pub(crate) fn sealed(iter: u32, images: Vec<GpuStateImage>) -> Self {
        Self { iter, images }
    }

    /// The iteration the committed images enter.
    pub fn iter(&self) -> u32 {
        self.iter
    }

    /// The committed images, by flat.
    pub fn images(&self) -> &[GpuStateImage] {
        &self.images
    }

    /// Commits `folded` as the state entering `iter`: the folds of one
    /// barrier, whose senders host disjoint GPUs, so one image per GPU
    /// means every GPU's.
    ///
    /// # Errors
    /// Not one image per GPU; nothing is committed then.
    pub(crate) fn commit(
        &mut self,
        iter: u32,
        mut folded: Vec<GpuStateImage>,
    ) -> Result<(), ProtocolError> {
        let p = self.images.len();
        if folded.len() != p {
            return Err(ProtocolError::new(format!("state of {} of {p} gpus", folded.len())));
        }
        folded.sort_unstable_by_key(|img| img.gpu_flat);
        (self.iter, self.images) = (iter, folded);
        Ok(())
    }

    /// Re-seals every image and compares it with its digest.
    pub fn verify(&self) -> Result<(), CheckpointCorrupt> {
        self.images.iter().try_for_each(GpuStateImage::verify)
    }

    /// Verifies every seal, then installs each image into `workers`, by
    /// flat; on a broken seal no worker is modified.
    ///
    /// # Panics
    /// If `workers` is not one per stored GPU.
    pub fn install(&self, workers: &mut [GpuWorker]) -> Result<(), CheckpointCorrupt> {
        assert_eq!(workers.len(), self.images.len(), "worker count must not change");
        self.verify()?;
        self.images.iter().zip(workers).for_each(|(img, w)| img.install(w));
        Ok(())
    }

    /// The committed images of the GPUs `flats`, once their seals verify,
    /// as a delta from iteration 0: a resuming worker folds it onto its
    /// all-unreached images.
    ///
    /// # Errors
    /// A stored image of those GPUs that fails its seal.
    pub fn resume(&self, flats: &[usize]) -> Result<StateDelta, CheckpointCorrupt> {
        let images: Vec<_> = flats.iter().map(|&f| &self.images[f]).collect();
        images.iter().try_for_each(|img| img.verify())?;
        let parents = images.first().is_some_and(|img| img.track_parents);
        let gpus: Vec<_> = images.iter().map(|img| (img.fields(), 0)).collect();
        Ok(StateDelta::of(0, 0, self.iter, parents, &gpus))
    }

    /// At-rest tamper hook for fault injection: XORs `xor` into visited
    /// mask word `word % len` of GPU `gpu`'s image *without* updating the
    /// seal, so the damage is exactly what [`Self::verify`] must detect.
    /// Returns true if any bits actually flipped.
    pub(crate) fn corrupt_mask_word(&mut self, gpu: usize, word: usize, xor: u64) -> bool {
        let Some(words) = self.images.get_mut(gpu).map(|img| &mut img.visited_words) else {
            return false;
        };
        if words.is_empty() || xor == 0 {
            return false;
        }
        let len = words.len();
        words[word % len] ^= xor;
        true
    }
}

/// Bytes of mutable BFS state in one worker's image (what a real
/// checkpoint would serialize to host memory).
pub fn worker_bytes(w: &GpuWorker) -> u64 {
    let depths = (w.depths_local.len() + w.delegate_depths.len()) as u64 * 4;
    let mask = w.visited_mask.byte_size();
    let frontiers = (w.frontier.len() + w.new_delegates.len()) as u64 * 4;
    let parents = if w.track_parents {
        (w.parents_local.len() + w.delegate_parent_candidate.len()) as u64 * 8
            + w.remote_parent_log.len() as u64 * 24
    } else {
        0
    };
    // Direction state: a handful of scalars per kernel.
    let direction = 3 * 32;
    depths + mask + frontiers + parents + direction
}

/// Modeled time to take (or restore) a checkpoint of `workers`: every GPU
/// copies its state through the CPU staging path concurrently, so the
/// slowest (largest) image gates the boundary.
pub fn modeled_seconds(workers: &[GpuWorker], cost: &CostModel) -> f64 {
    let worst = workers.iter().map(worker_bytes).max().unwrap_or(0);
    if worst == 0 {
        return 0.0;
    }
    worst as f64 / cost.network.staging_bandwidth + cost.network.intranode_latency
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BfsConfig;
    use crate::direction::DirectionState;
    use crate::subgraph::GpuSubgraphs;
    use std::sync::Arc;

    fn worker() -> GpuWorker {
        let config = BfsConfig::new(3);
        let sg = Arc::new(GpuSubgraphs::build(8, 2, &Default::default()));
        GpuWorker::new(
            GpuId { rank: 0, gpu: 0 },
            sg,
            DirectionState::new(config.dd_factors, true),
            DirectionState::new(config.dn_factors, true),
            DirectionState::new(config.nd_factors, true),
        )
    }

    fn store(iter: u32, workers: &[GpuWorker]) -> Store {
        let images = workers.iter().enumerate();
        Store::sealed(iter, images.map(|(f, w)| GpuStateImage::capture(f as u32, w)).collect())
    }

    #[test]
    fn install_roundtrip() {
        let mut workers = vec![worker(), worker()];
        workers[0].depths_local[3] = 2;
        workers[0].frontier.push(3);
        workers[0].dir_dn.restore_current(Direction::Backward);
        workers[1].visited_mask.set(1);
        let cp = store(5, &workers);
        assert_eq!(cp.iter(), 5);
        assert_eq!(cp.images()[1].gpu_flat, 1);

        // Mutate past the checkpoint, then roll back.
        workers[0].depths_local[3] = 9;
        workers[0].frontier.clear();
        workers[0].dir_dn.restore_current(Direction::Forward);
        workers[1].visited_mask.set(0);
        cp.install(&mut workers).expect("an intact store installs");
        assert_eq!(workers[0].depths_local[3], 2);
        assert_eq!(workers[0].frontier, vec![3]);
        assert_eq!(workers[0].dir_dn.current(), Direction::Backward);
        assert!(workers[1].visited_mask.get(1));
        assert!(!workers[1].visited_mask.get(0));
    }

    #[test]
    fn a_commit_is_one_image_per_gpu_by_flat_or_nothing() {
        let workers = [worker(), worker(), worker()];
        let mut cp = store(0, &workers);
        let before = cp.clone();
        let images = |flats: &[u32]| {
            flats.iter().map(|&f| GpuStateImage::capture(f, &workers[0])).collect::<Vec<_>>()
        };
        let err = cp.commit(4, images(&[0, 2])).unwrap_err();
        assert!(err.detail.contains("state of 2 of 3 gpus"), "{err}");
        assert_eq!(cp, before, "a refused commit commits nothing");
        cp.commit(4, images(&[2, 0, 1])).unwrap();
        assert_eq!(cp.iter(), 4);
        assert_eq!(cp.images(), &images(&[0, 1, 2])[..], "committed by flat");
    }

    #[test]
    fn snapshot_bytes_scale_with_state() {
        let w = worker();
        let small = worker_bytes(&w);
        assert!(small > 0);
        let mut big = worker();
        big.frontier.extend(0..1000);
        assert!(worker_bytes(&big) >= small + 4000);
        // Parent tracking inflates the snapshot.
        let mut tracked = worker();
        tracked.enable_parent_tracking();
        assert!(worker_bytes(&tracked) > small);
    }

    #[test]
    fn modeled_cost_is_positive_and_gated_by_largest() {
        let cost = gcbfs_cluster::CostModel::ray();
        let mut a = worker();
        a.frontier.extend(0..10_000);
        let b = worker();
        let big = modeled_seconds(&[a.clone(), b.clone()], &cost);
        let small = modeled_seconds(&[b.clone(), b], &cost);
        assert!(big > small);
        assert!(small > 0.0);
        // Adding an equally-sized second GPU does not slow the boundary:
        // copies are concurrent.
        assert!((modeled_seconds(&[a.clone(), a], &cost) - big).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "worker count")]
    fn install_rejects_changed_cluster() {
        let cp = store(0, &[worker(), worker()]);
        let _ = cp.install(&mut [worker()]);
    }

    #[test]
    fn tampered_snapshot_is_detected_and_leaves_workers_untouched() {
        let mut workers = vec![worker(), worker()];
        workers[1].visited_mask.set(1);
        let mut cp = store(2, &workers);
        assert!(cp.verify().is_ok());
        assert!(cp.resume(&[0, 1]).is_ok());
        // Word indices wrap into the mask.
        assert!(cp.corrupt_mask_word(1, 7, 0b100));
        let err = cp.verify().expect_err("tamper must break the seal");
        assert_eq!(err.gpu, 1);
        assert_ne!(err.expected, err.actual);
        // Install and resume must refuse and must not half-apply state.
        workers[0].depths_local[3] = 7;
        let before = workers[0].depths_local.clone();
        let err2 = cp.install(&mut workers).expect_err("corrupt checkpoint must not restore");
        assert_eq!(err2, err);
        assert_eq!(workers[0].depths_local, before, "no partial restore");
        assert_eq!(cp.resume(&[1]).unwrap_err(), err);
        assert!(cp.resume(&[0]).is_ok(), "GPU 0's image is intact");
        let msg = err.to_string();
        assert!(msg.contains("GPU 1") && msg.contains("integrity"), "{msg}");
    }

    #[test]
    fn zero_xor_or_bad_gpu_does_not_tamper() {
        let mut cp = store(0, &[worker()]);
        assert!(!cp.corrupt_mask_word(0, 0, 0), "zero xor flips nothing");
        assert!(!cp.corrupt_mask_word(9, 0, 1), "out-of-range gpu ignored");
        assert!(cp.verify().is_ok());
    }

    #[test]
    fn seal_is_deterministic_and_state_sensitive() {
        let seal = |w: &GpuWorker| GpuStateImage::capture(0, w).digest;
        assert_eq!(seal(&worker()), seal(&worker()));
        let mut c = worker();
        c.depths_local[0] = 5;
        assert_ne!(seal(&worker()), seal(&c));
        let mut d = worker();
        d.visited_mask.set(1);
        assert_ne!(seal(&worker()), seal(&d));
        let mut e = worker();
        e.dir_dd.restore_current(Direction::Backward);
        assert_ne!(seal(&worker()), seal(&e), "direction state is sealed too");
        // The seal taken off a worker is its image's, re-sealed.
        for w in [worker(), c, d, e] {
            let img = GpuStateImage::capture(3, &w);
            assert_eq!(img.seal(), StateFields::of(3, &w).seal());
        }
    }
}
