//! The BFS superstep's traversal steps over a *hosted subset* of GPUs —
//! the only copy of them.
//!
//! The paper's loop (§IV–V) is: per-GPU visit kernels → delegate-mask
//! OR-reduce → `nn` exchange → commit into the next frontiers. Everything
//! in it that touches a [`GpuWorker`] lives here, on a [`HostedGroup`]:
//! the sim driver ([`crate::driver`]) instantiates one group over all `p`
//! GPUs and prices the collectives with the cost model; each proc worker
//! ([`crate::procrt::worker`]) instantiates one over the flats it hosts
//! and moves the same values over sockets. What differs between the two
//! is only who carries the mask contributions and the `nn` blocks; both
//! are formed and consumed by the functions the model prices
//! ([`rank_contributions`] / [`reduce_contributions`], [`form_blocks`] /
//! [`deliver_blocks`]).

use crate::checkpoint::GpuStateImage;
use crate::comm::{deliver_blocks, form_blocks, prepare_sends, Block};
use crate::config::BfsConfig;
use crate::direction::DirectionState;
use crate::driver::DistributedGraph;
use crate::kernels::{GpuWorker, LocalIterationOutput};
use crate::masks::DelegateMask;
use crate::procrt::protocol::ProtocolError;
use crate::separation::Separation;
use gcbfs_cluster::collectives::{rank_contributions, reduce_contributions, MaskContribution};
use gcbfs_cluster::topology::{GpuId, Topology};
use gcbfs_compress::CompressionMode;
use gcbfs_graph::VertexId;
use rayon::prelude::*;
use std::sync::Arc;

/// The GPUs one process hosts, with the traversal steps over them.
#[derive(Clone, Debug)]
pub struct HostedGroup {
    topo: Topology,
    num_delegates: u32,
    /// Hosted flat GPU indices, ascending; `workers[i]` is GPU `flats[i]`.
    flats: Vec<usize>,
    /// Per-GPU BFS state, parallel to the hosted flats. A group over all
    /// `p` GPUs is indexed by flat directly.
    pub workers: Vec<GpuWorker>,
    /// True once a reduction was consumed since the traversal started or
    /// was last restored: from then on every visited mask equals the last
    /// reduced mask, which every rank holds — the mask codec's reference.
    pub(crate) reference_held: bool,
}

impl HostedGroup {
    /// Builds fresh workers for `flats`.
    ///
    /// # Errors
    /// A flat outside the grid or listed twice (a repeated flat would run
    /// that GPU's kernels twice per superstep and drop one output).
    pub fn new(
        dist: &DistributedGraph,
        config: &BfsConfig,
        track_parents: bool,
        flats: &[usize],
    ) -> Result<Self, ProtocolError> {
        let mut group = Self {
            topo: dist.topology,
            num_delegates: dist.separation.num_delegates(),
            flats: Vec::with_capacity(flats.len()),
            workers: Vec::with_capacity(flats.len()),
            reference_held: false,
        };
        for &flat in flats {
            if group.index_of(flat).is_some() {
                return Err(ProtocolError::new(format!("flat gpu {flat} hosted twice")));
            }
            group.host(dist, config, track_parents, flat)?;
        }
        Ok(group)
    }

    /// The worker of `flat`, built fresh if this group does not host it
    /// yet (a proc worker adopting a dead peer's partition).
    ///
    /// # Errors
    /// `flat` is outside the grid.
    pub fn host(
        &mut self,
        dist: &DistributedGraph,
        config: &BfsConfig,
        track_parents: bool,
        flat: usize,
    ) -> Result<&mut GpuWorker, ProtocolError> {
        let p = self.topo.num_gpus() as usize;
        if flat >= p {
            return Err(ProtocolError::new(format!("flat gpu {flat} out of range (p = {p})")));
        }
        let at = match self.flats.binary_search(&flat) {
            Ok(at) => at,
            Err(at) => {
                let dir = |f| DirectionState::new(f, config.direction_optimization);
                let mut w = GpuWorker::new(
                    self.topo.unflat(flat),
                    Arc::clone(&dist.subgraphs[flat]),
                    dir(config.dd_factors),
                    dir(config.dn_factors),
                    dir(config.nd_factors),
                );
                w.per_kernel_direction = config.per_kernel_direction;
                w.kernel_variant = config.kernel_variant;
                if track_parents {
                    w.enable_parent_tracking();
                }
                self.flats.insert(at, flat);
                self.workers.insert(at, w);
                at
            }
        };
        Ok(&mut self.workers[at])
    }

    /// Hosted flat GPU indices, ascending.
    pub fn flats(&self) -> &[usize] {
        &self.flats
    }

    fn index_of(&self, flat: usize) -> Option<usize> {
        self.flats.binary_search(&flat).ok()
    }

    /// True if this group hosts `flat`.
    pub fn hosts(&self, flat: usize) -> bool {
        self.index_of(flat).is_some()
    }

    /// Sealed images of every hosted GPU, in flat order.
    pub fn capture(&self) -> Vec<GpuStateImage> {
        self.flats
            .iter()
            .zip(&self.workers)
            .map(|(&f, w)| GpuStateImage::capture(f as u32, w))
            .collect()
    }

    /// Installs verified `images` — one for every GPU this group hosts,
    /// plus any it adopts, which are built fresh first.
    ///
    /// # Errors
    /// A hosted GPU without an image (it would keep state from an aborted
    /// superstep), or an image for a flat outside the grid. Checked before
    /// anything is installed.
    pub fn restore(
        &mut self,
        dist: &DistributedGraph,
        config: &BfsConfig,
        track_parents: bool,
        images: &[GpuStateImage],
    ) -> Result<(), ProtocolError> {
        let p = self.topo.num_gpus() as usize;
        if let Some(&flat) =
            self.flats.iter().find(|&&f| !images.iter().any(|i| i.gpu_flat as usize == f))
        {
            return Err(ProtocolError::new(format!("restore is missing hosted gpu {flat}")));
        }
        if let Some(img) = images.iter().find(|i| i.gpu_flat as usize >= p) {
            return Err(ProtocolError::new(format!(
                "restore image for gpu {} out of range",
                img.gpu_flat
            )));
        }
        for img in images {
            img.install(self.host(dist, config, track_parents, img.gpu_flat as usize)?);
        }
        self.reference_held = false;
        Ok(())
    }

    /// Seeds `source` at depth 0: a delegate source folds into every
    /// hosted GPU's mask; a normal source seeds only its owner, if hosted.
    pub fn seed_source(&mut self, separation: &Separation, source: VertexId) {
        if let Some(did) = separation.delegate_id(source) {
            let mut seed = DelegateMask::new(self.num_delegates);
            seed.set(did);
            self.workers.par_iter_mut().for_each(|w| w.consume_reduced_mask(&seed, 0));
            return;
        }
        let topo = self.topo;
        if let Some(at) = self.index_of(topo.flat(topo.vertex_owner(source))) {
            let w = &mut self.workers[at];
            let slot = topo.local_index(source);
            w.depths_local[slot as usize] = 0;
            w.frontier.push(slot);
        }
    }

    /// Termination counts entering a superstep: the hosted normal
    /// frontier total and the (replicated) delegate frontier length.
    pub fn frontier_counts(&self) -> (u64, u64) {
        let frontier = self.workers.iter().map(|w| w.frontier.len() as u64).sum();
        (frontier, self.workers.first().map_or(0, |w| w.new_delegates.len() as u64))
    }

    /// Local computation on every hosted GPU, in parallel.
    pub fn compute(&mut self, iter: u32) -> Vec<LocalIterationOutput> {
        let topo = self.topo;
        self.workers.par_iter_mut().map(|w| w.run_iteration(iter, &topo)).collect()
    }

    /// True if some hosted GPU set a delegate bit this superstep — the
    /// reduction runs only then. Every output mask is a superset of the
    /// shared visited mask, so changed contributions alone reconstruct
    /// the exact global OR.
    pub fn mask_changed(&self, outputs: &[LocalIterationOutput]) -> bool {
        self.num_delegates > 0
            && outputs
                .iter()
                .zip(&self.workers)
                .any(|(o, w)| o.output_mask.differs_from(&w.visited_mask))
    }

    /// The mask codec's reference under `mode`: the shared visited mask,
    /// once `reference_held` and only if compression is on.
    pub fn mask_reference(&self, mode: CompressionMode) -> Option<&[u64]> {
        let held = mode.is_on() && self.reference_held;
        self.workers.first().filter(|_| held).map(|w| w.visited_mask.words())
    }

    /// The hosted ranks' [`rank_contributions`] to the reduction, or none
    /// when no hosted GPU set a new bit.
    pub fn mask_contributions(
        &self,
        outputs: &[LocalIterationOutput],
        mode: CompressionMode,
    ) -> Vec<MaskContribution> {
        if !self.mask_changed(outputs) {
            return Vec::new();
        }
        let masks: Vec<&[u64]> = outputs.iter().map(|o| o.output_mask.words()).collect();
        rank_contributions(self.topo, mode, self.mask_reference(mode), &self.flats, &masks)
    }

    /// Reduces every rank's `contributions` ([`reduce_contributions`]) and
    /// consumes the result at `depth`; none means no reduction ran.
    ///
    /// # Errors
    /// A foreign or repeated rank, a body of the wrong width, or one that
    /// does not decode.
    pub fn consume_contributions(
        &mut self,
        contributions: &[MaskContribution],
        mode: CompressionMode,
        depth: u32,
    ) -> Result<(), ProtocolError> {
        if contributions.is_empty() {
            return Ok(());
        }
        let (ranks, width) = (self.topo.num_ranks(), (self.num_delegates as usize).div_ceil(64));
        let words = reduce_contributions(ranks, width, self.mask_reference(mode), contributions)
            .map_err(|e| ProtocolError::new(format!("mask contributions: {e:?}")))?;
        self.consume_reduced(&DelegateMask::from_words(self.num_delegates, words), depth);
        Ok(())
    }

    /// Every hosted GPU consumes the globally reduced mask: newly set
    /// delegates settle at `depth` and form the next delegate frontier.
    pub fn consume_reduced(&mut self, reduced: &DelegateMask, depth: u32) {
        self.workers.par_iter_mut().for_each(|w| w.consume_reduced_mask(reduced, depth));
        self.reference_held = true;
    }

    /// Takes the hosted GPUs' remote `nn` updates as one send list per
    /// grid GPU (empty for GPUs hosted elsewhere).
    pub fn take_sends(&self, outputs: &mut [LocalIterationOutput]) -> Vec<Vec<(GpuId, u32)>> {
        let mut sends = vec![Vec::new(); self.topo.num_gpus() as usize];
        for (&flat, out) in self.flats.iter().zip(outputs) {
            sends[flat] = std::mem::take(&mut out.remote_nn);
        }
        sends
    }

    /// The hosted GPUs' `nn` updates as the blocks the modeled exchange
    /// prices: the shared bin → regroup → uniquify pipeline, then
    /// [`form_blocks`] (regrouping never crosses ranks, so a group of whole
    /// ranks forms exactly its share).
    pub fn outgoing_blocks(
        &self,
        outputs: &mut [LocalIterationOutput],
        config: &BfsConfig,
    ) -> Vec<Block> {
        let sends = self.take_sends(outputs);
        let prep = prepare_sends(&self.topo, sends, config.local_all2all, config.uniquify);
        form_blocks(&self.topo, prep, config.compression)
    }

    /// Received blocks as one delivery list per hosted GPU, by
    /// [`deliver_blocks`]: ascending source order, as in the modeled
    /// exchange.
    ///
    /// # Errors
    /// See [`deliver_blocks`]: a foreign or out-of-grid endpoint, two
    /// blocks for one pair, or a body that does not decode.
    pub fn deliveries(&self, blocks: Vec<Block>) -> Result<Vec<Vec<u32>>, ProtocolError> {
        deliver_blocks(&self.topo, &self.flats, blocks)
    }

    /// Forms the next frontiers: each hosted GPU's local discoveries plus
    /// the remote updates `delivered` to it (parallel to the hosted
    /// flats) that settle a vertex at `next_depth`.
    pub fn commit(
        &mut self,
        outputs: &mut [LocalIterationOutput],
        delivered: &[Vec<u32>],
        next_depth: u32,
    ) {
        for ((w, out), updates) in self.workers.iter_mut().zip(outputs).zip(delivered) {
            debug_assert!(w.frontier.is_empty());
            w.frontier = std::mem::take(&mut out.next_frontier);
            // The reduction is done with this iteration's output mask;
            // hand its buffer back to the worker for reuse.
            w.recycle_output_mask(std::mem::replace(&mut out.output_mask, DelegateMask::new(0)));
            for &slot in updates {
                if let Some(s) = w.apply_remote_update(slot, next_depth) {
                    w.frontier.push(s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::BlockBody;
    use gcbfs_graph::builders;

    #[test]
    fn constructor_rejects_out_of_range_and_repeated_flats() {
        let config = BfsConfig::new(4);
        let dist =
            DistributedGraph::build(&builders::grid(4, 4), Topology::new(2, 2), &config).unwrap();
        let ok = HostedGroup::new(&dist, &config, false, &[2, 3]).unwrap();
        assert_eq!(ok.flats(), &[2, 3]);
        let err = HostedGroup::new(&dist, &config, false, &[0, 4]).unwrap_err();
        assert!(err.detail.contains("out of range"), "{err}");
        let err = HostedGroup::new(&dist, &config, false, &[1, 3, 1]).unwrap_err();
        assert!(err.detail.contains("hosted twice"), "{err}");
    }

    #[test]
    fn host_is_idempotent_and_keeps_flats_sorted() {
        let config = BfsConfig::new(4);
        let dist =
            DistributedGraph::build(&builders::grid(4, 4), Topology::new(2, 2), &config).unwrap();
        let mut group = HostedGroup::new(&dist, &config, true, &[3]).unwrap();
        group.host(&dist, &config, true, 1).unwrap().frontier.push(7);
        assert_eq!(group.flats(), &[1, 3]);
        assert_eq!(group.host(&dist, &config, true, 1).unwrap().frontier, vec![7]);
        assert!(group.workers.iter().all(|w| w.track_parents));
        assert!(group.host(&dist, &config, true, 9).is_err());
    }

    #[test]
    fn deliveries_order_by_source_and_reject_foreign_or_duplicate_blocks() {
        let config = BfsConfig::new(4);
        let dist =
            DistributedGraph::build(&builders::grid(4, 4), Topology::new(2, 2), &config).unwrap();
        let group = HostedGroup::new(&dist, &config, false, &[2, 3]).unwrap();
        let block =
            |src, dst, slots: &[u32]| Block { src, dst, body: BlockBody::Raw(slots.to_vec()) };
        let got = group
            .deliveries(vec![block(3, 2, &[9]), block(0, 3, &[4]), block(1, 2, &[5, 6])])
            .unwrap();
        assert_eq!(got, vec![vec![5, 6, 9], vec![4]]);
        assert!(group.deliveries(vec![block(2, 0, &[1])]).is_err());
        assert!(group.deliveries(vec![block(0, 2, &[1]), block(0, 2, &[2])]).is_err());
        assert!(group.deliveries(vec![block(4, 2, &[1])]).is_err(), "sender outside the grid");
    }
}
