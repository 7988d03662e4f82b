//! Checkpoint/restart: one sealed image of one GPU's mutable BFS state,
//! used by both backends.
//!
//! The BSP structure makes consistent snapshots cheap: at a superstep
//! boundary no messages are in flight, so the per-GPU worker state (local
//! and delegate depths, the visited-delegate mask, both frontiers,
//! direction-optimization state, and parent records) *is* the global
//! state. [`GpuStateImage`] is that state for one GPU, sealed with an
//! FNV-1a digest of its wire encoding — the only fold over GPU state in
//! the crate. The sim's [`Checkpoint`] holds one image per GPU and
//! restores them after a fail-stop loss; the proc backend's coordinator
//! keeps the committed images its workers shipped and sends each worker
//! the ones it hosts in a single `Restore` round
//! ([`crate::procrt::protocol`] carries the wire codec).
//!
//! Cost accounting: a real implementation writes each GPU's state through
//! the CPU staging buffers to host memory (Ray has no NIC–GPU RDMA, so
//! this is the same `cudaMemcpyAsync` path every inter-node byte already
//! takes — §VI-A2). [`Checkpoint::modeled_seconds`] charges exactly that:
//! the largest per-GPU snapshot over the staging bandwidth (all GPUs copy
//! concurrently). The charge lands in
//! [`FaultStats::checkpoint_seconds`](crate::stats::FaultStats), which
//! [`RunStats::modeled_elapsed`](crate::stats::RunStats) includes, so
//! resilience is never free in reported numbers.

use crate::assemble::GpuStateView;
use crate::direction::Direction;
use crate::kernels::GpuWorker;
use crate::masks::DelegateMask;
use crate::procrt::protocol::WireWriter;
use gcbfs_cluster::cost::CostModel;
use gcbfs_cluster::topology::GpuId;
use gcbfs_compress::fnv1a;

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
        let mut img = Self {
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
            digest: 0,
        };
        img.digest = img.seal();
        img
    }

    /// FNV-1a over the image's canonical wire encoding (every field but
    /// the digest), so any byte flipped at rest or on a socket changes it.
    pub fn seal(&self) -> u64 {
        let mut w = WireWriter::default();
        self.encode_fields(&mut w);
        fnv1a(&w.buf)
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

/// A consistent snapshot of the whole cluster's BFS state at one superstep
/// boundary, plus the bookkeeping needed to roll the statistics back.
///
/// [`restore`](Checkpoint::restore) verifies every image's seal and
/// refuses to replay corrupted state.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The iteration the snapshot was taken *before* (restoring resumes at
    /// this iteration).
    pub iter: u32,
    /// Number of committed [`IterationRecord`](crate::stats::IterationRecord)s
    /// at capture time; rollback truncates the record list to this length.
    pub records_len: usize,
    /// One sealed image per GPU, in flat order.
    images: Vec<GpuStateImage>,
    /// [`Self::worker_bytes`] of the largest snapshot — what gates the
    /// boundary.
    worst_bytes: u64,
}

impl Checkpoint {
    /// Captures the state of all workers (indexed by flat GPU) entering
    /// iteration `iter`. The graph itself (the four subgraphs) is
    /// immutable during a run and is not part of the snapshot.
    pub fn capture(iter: u32, workers: &[GpuWorker], records_len: usize) -> Self {
        Self {
            iter,
            records_len,
            images: workers
                .iter()
                .enumerate()
                .map(|(flat, w)| GpuStateImage::capture(flat as u32, w))
                .collect(),
            worst_bytes: workers.iter().map(Self::worker_bytes).max().unwrap_or(0),
        }
    }

    /// Verifies every image's seal and installs each into its worker. On a
    /// seal mismatch *no* worker is modified and the typed
    /// [`CheckpointCorrupt`] error identifies the bad snapshot.
    ///
    /// # Panics
    /// Panics if the worker count changed since capture.
    pub fn restore(&self, workers: &mut [GpuWorker]) -> Result<(), CheckpointCorrupt> {
        assert_eq!(workers.len(), self.images.len(), "worker count must not change");
        self.verify()?;
        for (img, w) in self.images.iter().zip(workers) {
            img.install(w);
        }
        Ok(())
    }

    /// Re-seals every stored image and compares against the digests taken
    /// at capture.
    pub fn verify(&self) -> Result<(), CheckpointCorrupt> {
        self.images.iter().try_for_each(GpuStateImage::verify)
    }

    /// The sealed per-GPU images, in flat order.
    pub fn images(&self) -> &[GpuStateImage] {
        &self.images
    }

    /// At-rest tamper hook for fault injection: XORs `xor` into visited
    /// mask word `word % len` of GPU `gpu`'s image *without* updating the
    /// seal, so the damage is exactly what [`Self::restore`] must detect.
    /// Returns true if any bits actually flipped.
    pub fn corrupt_mask_word(&mut self, gpu: usize, word: usize, xor: u64) -> bool {
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

    /// Bytes of mutable BFS state in one worker's snapshot (what a real
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

    /// Modeled time to take (or restore) this checkpoint: every GPU copies
    /// its state through the CPU staging path concurrently, so the slowest
    /// (largest) snapshot gates the boundary.
    pub fn modeled_seconds(&self, cost: &CostModel) -> f64 {
        if self.worst_bytes == 0 {
            return 0.0;
        }
        self.worst_bytes as f64 / cost.network.staging_bandwidth + cost.network.intranode_latency
    }
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

    #[test]
    fn capture_restore_roundtrip() {
        let mut workers = vec![worker(), worker()];
        workers[0].depths_local[3] = 2;
        workers[0].frontier.push(3);
        workers[0].dir_dn.restore_current(Direction::Backward);
        workers[1].visited_mask.set(1);
        let cp = Checkpoint::capture(5, &workers, 4);
        assert_eq!(cp.iter, 5);
        assert_eq!(cp.records_len, 4);
        assert_eq!(cp.images().len(), 2);
        assert_eq!(cp.images()[1].gpu_flat, 1);

        // Mutate past the checkpoint, then roll back.
        workers[0].depths_local[3] = 9;
        workers[0].frontier.clear();
        workers[0].dir_dn.restore_current(Direction::Forward);
        workers[1].visited_mask.set(0);
        cp.restore(&mut workers).expect("intact checkpoint restores");
        assert_eq!(workers[0].depths_local[3], 2);
        assert_eq!(workers[0].frontier, vec![3]);
        assert_eq!(workers[0].dir_dn.current(), Direction::Backward);
        assert!(workers[1].visited_mask.get(1));
        assert!(!workers[1].visited_mask.get(0));
    }

    #[test]
    fn snapshot_bytes_scale_with_state() {
        let w = worker();
        let small = Checkpoint::worker_bytes(&w);
        assert!(small > 0);
        let mut big = worker();
        big.frontier.extend(0..1000);
        assert!(Checkpoint::worker_bytes(&big) >= small + 4000);
        // Parent tracking inflates the snapshot.
        let mut tracked = worker();
        tracked.enable_parent_tracking();
        assert!(Checkpoint::worker_bytes(&tracked) > small);
    }

    #[test]
    fn modeled_cost_is_positive_and_gated_by_largest() {
        let cost = gcbfs_cluster::CostModel::ray();
        let mut a = worker();
        a.frontier.extend(0..10_000);
        let b = worker();
        let cp_big = Checkpoint::capture(0, &[a.clone(), b.clone()], 0);
        let cp_small = Checkpoint::capture(0, &[b.clone(), b], 0);
        assert!(cp_big.modeled_seconds(&cost) > cp_small.modeled_seconds(&cost));
        assert!(cp_small.modeled_seconds(&cost) > 0.0);
        // Adding an equally-sized second GPU does not slow the boundary:
        // copies are concurrent.
        let cp_two_big = Checkpoint::capture(0, &[a.clone(), a], 0);
        assert!((cp_two_big.modeled_seconds(&cost) - cp_big.modeled_seconds(&cost)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "worker count")]
    fn restore_rejects_changed_cluster() {
        let workers = vec![worker(), worker()];
        let cp = Checkpoint::capture(0, &workers, 0);
        let mut one = vec![worker()];
        let _ = cp.restore(&mut one);
    }

    #[test]
    fn tampered_snapshot_is_detected_and_leaves_workers_untouched() {
        let mut workers = vec![worker(), worker()];
        workers[1].visited_mask.set(1);
        let mut cp = Checkpoint::capture(2, &workers, 1);
        assert!(cp.verify().is_ok());
        // Word indices wrap into the mask.
        assert!(cp.corrupt_mask_word(1, 7, 0b100));
        let err = cp.verify().expect_err("tamper must break the seal");
        assert_eq!(err.gpu, 1);
        assert_ne!(err.expected, err.actual);
        // restore must refuse and must not half-apply state.
        workers[0].depths_local[3] = 7;
        let before = workers[0].depths_local.clone();
        let err2 = cp.restore(&mut workers).expect_err("corrupt checkpoint must not restore");
        assert_eq!(err2, err);
        assert_eq!(workers[0].depths_local, before, "no partial restore");
        let msg = err.to_string();
        assert!(msg.contains("GPU 1") && msg.contains("integrity"), "{msg}");
    }

    #[test]
    fn zero_xor_or_bad_gpu_does_not_tamper() {
        let workers = vec![worker()];
        let mut cp = Checkpoint::capture(0, &workers, 0);
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
    }
}
