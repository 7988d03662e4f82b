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

use crate::checkpoint::{CheckpointCorrupt, GpuStateImage, StateDelta, StateFields, Store};
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
    /// resumed: from then on every visited mask equals the last
    /// reduced mask, which every rank holds — the mask codec's reference.
    pub(crate) reference_held: bool,
    track_parents: bool,
    /// The iteration the next [`Self::delta`] folds from (0 when seeded,
    /// else the last restore, resume or delta), the level it ships from (0
    /// when seeded, else one past the base) and each hosted GPU's remote
    /// parent-log length there.
    base: u32,
    next_level: u32,
    base_logs: Vec<usize>,
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
        let (topo, p) = (dist.topology, dist.topology.num_gpus() as usize);
        let mut flats = flats.to_vec();
        flats.sort_unstable();
        if let Some(&flat) = flats.iter().find(|&&f| f >= p) {
            return Err(ProtocolError::new(format!("flat gpu {flat} out of range (p = {p})")));
        }
        if let Some(pair) = flats.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(ProtocolError::new(format!("flat gpu {} hosted twice", pair[0])));
        }
        let dir = |f| DirectionState::new(f, config.direction_optimization);
        let workers = flats
            .iter()
            .map(|&flat| {
                let mut w = GpuWorker::new(
                    topo.unflat(flat),
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
                w
            })
            .collect();
        let num_delegates = dist.separation.num_delegates();
        let base_logs = vec![0; flats.len()];
        Ok(Self {
            topo,
            num_delegates,
            flats,
            workers,
            reference_held: false,
            track_parents,
            base: 0,
            next_level: 0,
            base_logs,
        })
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

    /// What the hosted GPUs settled since the base — the seed, the last
    /// restore or resume, or the last delta — as the state entering `iter`;
    /// `iter` becomes the next delta's base. Both backends commit it onto a
    /// [`Store`]: the proc workers over the wire, the sim in process. Each
    /// GPU's entry carries the seal of its whole state, which the delta's
    /// fold must reproduce.
    pub fn delta(&mut self, iter: u32) -> StateDelta {
        let hosted = self.flats.iter().zip(&self.workers).zip(&self.base_logs);
        let gpus: Vec<_> =
            hosted.map(|((&f, w), &log)| (StateFields::of(f as u32, w), log)).collect();
        let delta = StateDelta::of(self.base, self.next_level, iter, self.track_parents, &gpus);
        self.rebase(iter);
        delta
    }

    fn rebase(&mut self, iter: u32) {
        (self.base, self.next_level) = (iter, iter + 1);
        self.base_logs = self.workers.iter().map(|w| w.remote_parent_log.len()).collect();
    }

    /// Rolls a group over the whole grid back to `store` once its seals
    /// verify ([`Store::install`]) and drops the mask codec's reference;
    /// the commit becomes the next delta's base.
    pub(crate) fn restore(&mut self, store: &Store) -> Result<(), CheckpointCorrupt> {
        store.install(&mut self.workers)?;
        self.reference_held = false;
        self.rebase(store.iter());
        Ok(())
    }

    /// Resumes the fresh group from `resume`, a delta from iteration 0 with
    /// exactly one entry for every GPU it hosts: folds it onto their
    /// all-unreached images, installs them and drops the mask codec's
    /// reference; the delta's iteration becomes the next delta's base.
    ///
    /// # Errors
    /// An entry for a GPU the group does not host, or a hosted GPU without
    /// exactly one; a delta that does not fold from 0
    /// ([`StateDelta::fold`]). Checked before anything is installed.
    pub fn resume(&mut self, resume: &StateDelta) -> Result<(), ProtocolError> {
        if let Some(g) = resume.gpus.iter().find(|g| !self.hosts(g.gpu_flat as usize)) {
            let flat = g.gpu_flat;
            return Err(ProtocolError::new(format!("resume of gpu {flat}, which is not hosted")));
        }
        let covers = |f: &usize| resume.gpus.iter().filter(|g| g.gpu_flat as usize == *f).count();
        if let Some(flat) = self.flats.iter().find(|f| covers(f) != 1) {
            return Err(ProtocolError::new(format!("not one resume of hosted gpu {flat}")));
        }
        for img in resume.fold(0, &self.capture())? {
            let at = self.index_of(img.gpu_flat as usize).expect("checked above");
            img.install(&mut self.workers[at]);
        }
        self.reference_held = false;
        self.rebase(resume.iter);
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
impl HostedGroup {
    /// Superstep `iter` of a group hosting every GPU, driven in process the
    /// way a proc worker drives its share.
    pub(crate) fn step(&mut self, iter: u32, config: &BfsConfig) {
        let mode = config.compression;
        let mut outputs = self.compute(iter);
        let contributions = self.mask_contributions(&outputs, mode);
        let blocks = self.outgoing_blocks(&mut outputs, config);
        self.consume_contributions(&contributions, mode, iter + 1).unwrap();
        let delivered = self.deliveries(blocks).unwrap();
        self.commit(&mut outputs, &delivered, iter + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::BlockBody;
    use gcbfs_graph::builders;
    use gcbfs_graph::rmat::RmatConfig;

    #[test]
    fn every_commit_folded_from_the_groups_deltas_is_its_capture() {
        // Parents tracked (the sim's fault runs never track them): every
        // superstep commits, then runs, rolls back to the commit and runs
        // again, so every delta after the first folds from a restore.
        let graph = RmatConfig::graph500(8).generate();
        let (topo, config) = (Topology::new(2, 2), BfsConfig::new(8));
        let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
        let (sep, degrees) = (&dist.separation, graph.out_degrees());
        let by_degree = |delegate: bool| {
            let of_kind = |v: &u64| sep.delegate_id(*v).is_some() == delegate;
            (0..sep.num_vertices()).filter(of_kind).max_by_key(|&v| degrees[v as usize]).unwrap()
        };
        for source in [by_degree(true), by_degree(false)] {
            let mut group = HostedGroup::new(&dist, &config, true, &[0, 1, 2, 3]).unwrap();
            group.seed_source(sep, source);
            let mut store = Store::unreached(&topo, sep, true);
            let mut iter = 0;
            while group.frontier_counts() != (0, 0) {
                let folded = group.delta(iter).fold(store.iter(), store.images()).unwrap();
                store.commit(iter, folded).unwrap();
                assert_eq!(store.images(), group.capture(), "source {source}, commit {iter}");
                group.step(iter, &config);
                group.restore(&store).unwrap();
                assert_eq!(store.images(), group.capture(), "source {source}, restore {iter}");
                group.step(iter, &config);
                iter += 1;
            }
            let logged = store.images().iter().any(|img| !img.remote_parent_log.is_empty());
            assert!(iter > 2 && logged, "source {source}: {iter} supersteps, no remote parent");
        }
    }

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
    fn a_resume_covers_each_hosted_gpu_exactly_once_or_installs_nothing() {
        let config = BfsConfig::new(4);
        let dist =
            DistributedGraph::build(&builders::grid(4, 4), Topology::new(2, 2), &config).unwrap();
        let mut seeded = HostedGroup::new(&dist, &config, true, &[3, 1]).unwrap();
        seeded.seed_source(&dist.separation, 15);
        let images = seeded.capture();
        let good = seeded.delta(0);
        let foreign = HostedGroup::new(&dist, &config, true, &[2]).unwrap().delta(0).gpus;
        let with = |gpus: Vec<_>| StateDelta { gpus, ..good.clone() };
        let (one, three) = (good.gpus[0].clone(), good.gpus[1].clone());
        let mut group = HostedGroup::new(&dist, &config, true, &[1, 3]).unwrap();
        let fresh = group.capture();
        let refused = [
            (with(vec![one.clone()]), "not one resume of hosted gpu 3"),
            (with(vec![one.clone(), three.clone(), one.clone()]), "not one resume of hosted gpu 1"),
            (with([&good.gpus[..], &foreign[..]].concat()), "gpu 2, which is not hosted"),
            (with([&good.gpus[..1], &foreign[..]].concat()), "gpu 2, which is not hosted"),
            (StateDelta { base: 1, ..good.clone() }, "but the commit is at 0"),
        ];
        for (resume, detail) in refused {
            let err = group.resume(&resume).unwrap_err();
            assert!(err.detail.contains(detail), "{err}");
            assert_eq!(group.capture(), fresh, "a refusal installs nothing");
        }
        group.resume(&with(vec![three, one])).unwrap();
        assert_eq!(group.capture(), images);
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
