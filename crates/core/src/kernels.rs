//! Local computation: the previsit and visit kernels of §IV (Fig. 3).
//!
//! Each GPU runs two streams per iteration. The *normal stream* previsits
//! the input normal frontier and spawns the `nn` and `nd` visit kernels;
//! the *delegate stream* previsits the newly visited delegates and spawns
//! the `dd` and `dn` visit kernels. The `dd`, `dn`, `nd` kernels may each
//! run forward (push) or backward (pull) per §IV-B; `nn` is always forward.
//!
//! On the real machine these are CUDA kernels with merge-based (`dd`) or
//! thread-warp-block (`nn`/`nd`/`dn`) load balancing; here they are
//! sequential loops whose *workload counters* (edges examined, vertices
//! previsited) feed the device cost model.

use crate::direction::{backward_workload, Direction, DirectionState};
use crate::masks::DelegateMask;
use crate::subgraph::GpuSubgraphs;
use crate::UNREACHED;
use gcbfs_cluster::cost::{DeviceModel, KernelKind};
use gcbfs_cluster::topology::{GpuId, Topology};
use gcbfs_trace::{DirTag, KernelEvent, KernelTag, StreamTag};
use std::sync::Arc;

/// Parent marker for vertices whose parent is unknown (or unreached).
pub const NO_PARENT: u64 = u64::MAX;

/// Tag bit marking a recorded parent as a delegate id rather than a global
/// vertex id; decoded through the separation at assembly time. (Delegate
/// ids are 32-bit, so tagged values never collide with `NO_PARENT`.)
pub const DELEGATE_PARENT_TAG: u64 = 1 << 63;

/// Throughput factor the scalar kernel variant pays on the visit and
/// previsit paths: per-bit mask probes reach a fifth of the word-parallel
/// kernels' effective bandwidth — uncoalesced single-bit loads serialize
/// a 64-lane popcount word into dependent byte transactions.
pub const SCALAR_DERATE: f64 = 0.2;

/// Which bottom-up / previsit kernel implementation a worker runs.
///
/// Both variants run one traversal — backward pulls intersect whole u64
/// words (`candidates & !visited`, trailing-zeros iteration), which probes
/// the same delegates in the same order as a bit-serial scan — so depths,
/// parents and *edge* counters are bit-identical. The variant is pricing:
///
/// * [`Scalar`](Self::Scalar) prices the pre-overhaul bit-serial
///   reference: backward pulls and direction-optimization scans charge
///   one previsit probe per delegate *bit*, and its visit kernels run on
///   a [`derated`](DeviceModel::derated) device.
/// * [`WordParallel`](Self::WordParallel) (default) charges one probe per
///   64-delegate *word*, and the full device rates apply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelVariant {
    /// Priced as the bit-serial reference kernels (regression baseline).
    Scalar,
    /// Word-at-a-time bitmap intersection kernels.
    #[default]
    WordParallel,
}

impl KernelVariant {
    /// Stable label for benches and JSON artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::WordParallel => "word-parallel",
        }
    }

    /// The device model this variant's kernels achieve on `base` silicon.
    pub fn device_model(&self, base: &DeviceModel) -> DeviceModel {
        match self {
            KernelVariant::WordParallel => *base,
            KernelVariant::Scalar => base.derated(SCALAR_DERATE),
        }
    }
}

/// Workload counters of one GPU's iteration, split by stream, feeding the
/// device cost model and the run statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelWork {
    /// Vertices scanned by the normal-stream previsit.
    pub normal_previsit_vertices: u64,
    /// Vertices scanned by the delegate-stream previsit.
    pub delegate_previsit_vertices: u64,
    /// Edges examined by the `nn` visit.
    pub nn_edges: u64,
    /// Edges examined by the `nd` visit (either direction).
    pub nd_edges: u64,
    /// Edges examined by the `dn` visit (either direction).
    pub dn_edges: u64,
    /// Edges examined by the `dd` visit (either direction).
    pub dd_edges: u64,
}

impl KernelWork {
    /// Total edges examined — the measured traversal workload (`m'` plus
    /// the delegate parent-search term of §IV-B).
    pub fn total_edges(&self) -> u64 {
        self.nn_edges + self.nd_edges + self.dn_edges + self.dd_edges
    }
}

/// Directions the three DO kernels chose this iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChosenDirections {
    /// Direction of the `dd` visit.
    pub dd: Direction,
    /// Direction of the `dn` visit.
    pub dn: Direction,
    /// Direction of the `nd` visit.
    pub nd: Direction,
}

/// Output of one GPU's local computation for one iteration.
#[derive(Clone, Debug)]
pub struct LocalIterationOutput {
    /// Local normal vertices discovered this iteration (depth `iter + 1`),
    /// via the `dn` visit or local `nn` updates.
    pub next_frontier: Vec<u32>,
    /// Remote `nn` updates: `(destination GPU, destination local slot)`.
    /// Already converted to 32-bit destination-local ids (§V-B).
    pub remote_nn: Vec<(GpuId, u32)>,
    /// The visited-delegate mask including bits newly set here; input to
    /// the global reduction.
    pub output_mask: DelegateMask,
    /// Workload counters.
    pub work: KernelWork,
    /// Directions chosen by the DO kernels.
    pub directions: ChosenDirections,
}

/// Maps a kernel's traversal [`Direction`] to the trace vocabulary.
fn dir_tag(dir: Direction) -> DirTag {
    match dir {
        Direction::Forward => DirTag::Forward,
        Direction::Backward => DirTag::Backward,
    }
}

impl LocalIterationOutput {
    /// This GPU's six kernels for the iteration, each priced once with
    /// [`DeviceModel::kernel_time`]: the normal stream's previsit, `nn`
    /// and `nd` visits, then the delegate stream's previsit, `dd` and `dn`
    /// visits. The driver sums each stream's three `seconds` in this order
    /// into the computation phase, and the observability sink lays the
    /// same events out sequentially per stream, so each stream's end
    /// lands exactly on that sum.
    ///
    /// The sum of `work` over the `visit_*` events is exactly
    /// [`KernelWork::total_edges`] — the invariant `tests/observability.rs`
    /// checks against the per-iteration records.
    pub fn kernel_events(&self, dev: &DeviceModel) -> [KernelEvent; 6] {
        let w = &self.work;
        let d = self.directions;
        [
            KernelEvent {
                tag: KernelTag::PrevisitNormal,
                dir: DirTag::NotApplicable,
                stream: StreamTag::Normal,
                work: w.normal_previsit_vertices,
                seconds: dev.kernel_time(KernelKind::Previsit, w.normal_previsit_vertices),
            },
            KernelEvent {
                tag: KernelTag::VisitNn,
                dir: DirTag::Forward, // nn never direction-optimizes (§IV-B)
                stream: StreamTag::Normal,
                work: w.nn_edges,
                seconds: dev.kernel_time(KernelKind::DynamicVisit, w.nn_edges),
            },
            KernelEvent {
                tag: KernelTag::VisitNd,
                dir: dir_tag(d.nd),
                stream: StreamTag::Normal,
                work: w.nd_edges,
                seconds: dev.kernel_time(KernelKind::DynamicVisit, w.nd_edges),
            },
            KernelEvent {
                tag: KernelTag::PrevisitDelegate,
                dir: DirTag::NotApplicable,
                stream: StreamTag::Delegate,
                work: w.delegate_previsit_vertices,
                seconds: dev.kernel_time(KernelKind::Previsit, w.delegate_previsit_vertices),
            },
            KernelEvent {
                tag: KernelTag::VisitDd,
                dir: dir_tag(d.dd),
                stream: StreamTag::Delegate,
                work: w.dd_edges,
                seconds: dev.kernel_time(KernelKind::MergeVisit, w.dd_edges),
            },
            KernelEvent {
                tag: KernelTag::VisitDn,
                dir: dir_tag(d.dn),
                stream: StreamTag::Delegate,
                work: w.dn_edges,
                seconds: dev.kernel_time(KernelKind::DynamicVisit, w.dn_edges),
            },
        ]
    }
}

/// The per-GPU BFS state and kernel implementations.
#[derive(Clone, Debug)]
pub struct GpuWorker {
    /// This GPU's identity.
    pub gpu: GpuId,
    /// The four subgraphs and reverse-traversal aids (shared: one build
    /// serves many BFS runs from different sources).
    pub subgraphs: Arc<GpuSubgraphs>,
    /// Depth of each owned local vertex slot (delegate-owned slots stay
    /// `UNREACHED`; delegates live in `delegate_depths`).
    pub depths_local: Vec<u32>,
    /// Depth of every delegate (replicated, consistent across GPUs after
    /// each reduction).
    pub delegate_depths: Vec<u32>,
    /// Delegates visited through the end of the previous iteration.
    pub visited_mask: DelegateMask,
    /// Input normal frontier: local slots with depth == current iteration.
    pub frontier: Vec<u32>,
    /// Input delegate frontier: delegate ids with depth == current
    /// iteration (identical on every GPU).
    pub new_delegates: Vec<u32>,
    /// Direction state of the `dd` kernel.
    pub dir_dd: DirectionState,
    /// Direction state of the `dn` kernel.
    pub dir_dn: DirectionState,
    /// Direction state of the `nd` kernel.
    pub dir_nd: DirectionState,
    /// When false, a single combined FV/BV comparison (through `dir_dd`)
    /// drives all three kernels — the global-direction ablation.
    pub per_kernel_direction: bool,
    /// Which kernel implementation (and probe-cost accounting) runs.
    pub kernel_variant: KernelVariant,
    /// Whether to record BFS-tree parent information (§VI-A3: local for
    /// everything except remote `nn` destinations).
    pub track_parents: bool,
    /// Parent of each owned local slot: a global vertex id, a
    /// [`DELEGATE_PARENT_TAG`]-tagged delegate id, or [`NO_PARENT`].
    pub parents_local: Vec<u64>,
    /// This GPU's parent candidate for each delegate (same encoding).
    pub delegate_parent_candidate: Vec<u64>,
    /// Retained remote `nn` updates for the end-of-run parent exchange:
    /// `(destination GPU, destination slot, parent global id, proposed depth)`.
    pub remote_parent_log: Vec<(GpuId, u32, u64, u32)>,
    /// Per-worker reusable buffers for the iteration hot path. Pure scratch:
    /// cleared before every use, never part of algorithm state (checkpoints
    /// ignore it). Eliminates the per-iteration `Vec`/mask allocations that
    /// dominated the allocator profile once the host pool made iterations
    /// genuinely concurrent.
    pub scratch: KernelScratch,
}

/// Reusable per-worker buffers for [`GpuWorker::run_iteration`].
///
/// Because each `GpuWorker` is processed by exactly one task per iteration
/// (per-GPU fan-out), worker-owned scratch is automatically race-free and
/// schedule-independent — unlike thread-local scratch, which would tie buffer
/// contents to the (nondeterministic) task-to-thread assignment.
#[derive(Clone, Debug, Default)]
pub struct KernelScratch {
    /// The second of the two frontier buffers that alternate: each
    /// iteration fills it as `next_frontier` and parks the consumed input
    /// frontier's buffer here in its place.
    spare_frontier: Vec<u32>,
    /// Recycled backing store for the iteration output mask (returned by the
    /// driver after the reduction consumed it).
    spare_mask: Option<DelegateMask>,
}

impl GpuWorker {
    /// Creates a worker with empty frontiers and everything unreached.
    pub fn new(
        gpu: GpuId,
        subgraphs: Arc<GpuSubgraphs>,
        dir_dd: DirectionState,
        dir_dn: DirectionState,
        dir_nd: DirectionState,
    ) -> Self {
        let num_local = subgraphs.num_local as usize;
        let d = subgraphs.num_delegates;
        Self {
            gpu,
            subgraphs,
            depths_local: vec![UNREACHED; num_local],
            delegate_depths: vec![UNREACHED; d as usize],
            visited_mask: DelegateMask::new(d),
            frontier: Vec::new(),
            new_delegates: Vec::new(),
            dir_dd,
            dir_dn,
            dir_nd,
            per_kernel_direction: true,
            kernel_variant: KernelVariant::default(),
            track_parents: false,
            parents_local: Vec::new(),
            delegate_parent_candidate: Vec::new(),
            remote_parent_log: Vec::new(),
            scratch: KernelScratch::default(),
        }
    }

    /// Enables BFS-tree parent recording (allocates the parent arrays).
    pub fn enable_parent_tracking(&mut self) {
        self.track_parents = true;
        self.parents_local = vec![NO_PARENT; self.depths_local.len()];
        self.delegate_parent_candidate = vec![NO_PARENT; self.delegate_depths.len()];
    }

    /// Runs one iteration of local computation (both streams), consuming
    /// `self.frontier` / `self.new_delegates` (depth == `iter`) and
    /// producing depth-`iter + 1` discoveries.
    pub fn run_iteration(&mut self, iter: u32, topo: &Topology) -> LocalIterationOutput {
        let mut work = KernelWork::default();
        // Reuse the recycled mask buffer when the driver returned one (see
        // `recycle_output_mask`); clone only on the first iteration.
        let mut output_mask = match self.scratch.spare_mask.take() {
            Some(mut m) if m.num_bits() == self.visited_mask.num_bits() => {
                m.copy_from(&self.visited_mask);
                m
            }
            _ => self.visited_mask.clone(),
        };
        let mut remote_nn: Vec<(GpuId, u32)> = Vec::new();
        let next_depth = iter + 1;

        // ---- Previsit: forward workloads (FV). ----
        // nn never direction-optimizes, so only nd's forward workload is
        // tracked on the normal stream.
        let sg = &*self.subgraphs;
        let fv_nd: u64 = self.frontier.iter().map(|&u| sg.nd.out_degree(u) as u64).sum();
        let (mut fv_dd, mut fv_dn) = (0u64, 0u64);
        for &x in &self.new_delegates {
            fv_dd += sg.dd.out_degree(x) as u64;
            fv_dn += sg.dn.out_degree(x) as u64;
        }
        let q_norm = self.frontier.len() as u64;
        let q_del = self.new_delegates.len() as u64;
        work.normal_previsit_vertices += q_norm;
        work.delegate_previsit_vertices += q_del;

        // ---- Direction decisions (only scanned when DO is on). ----
        let directions = if self.dir_dd.enabled() || self.dir_dn.enabled() || self.dir_nd.enabled()
        {
            let unvisited_dd = sg.dd_source_mask.andnot_count(&self.visited_mask);
            let unvisited_dn = sg.dn_source_mask.andnot_count(&self.visited_mask);
            let unvisited_nd_sources = sg
                .nd_sources
                .iter()
                .filter(|&&u| self.depths_local[u as usize] == UNREACHED)
                .count() as u64;
            // The source-list/mask scans are real previsit work (§IV-B:
            // they "provide more accurate workload prediction"). The
            // word-parallel variant pays one popcount per 64-delegate word;
            // the scalar reference probes every delegate bit individually.
            work.delegate_previsit_vertices += match self.kernel_variant {
                KernelVariant::WordParallel => (sg.num_delegates as u64).div_ceil(64),
                KernelVariant::Scalar => sg.num_delegates as u64,
            };
            work.normal_previsit_vertices += sg.nd_sources.len() as u64;

            let bv_dd = backward_workload(unvisited_dd, q_del, unvisited_dd);
            let bv_dn = backward_workload(unvisited_nd_sources, q_del, unvisited_dn);
            let bv_nd = backward_workload(unvisited_dn, q_norm, unvisited_nd_sources);
            if self.per_kernel_direction {
                // A kernel with an empty input frontier neither runs nor
                // re-decides: there is no workload to compare.
                ChosenDirections {
                    dd: if q_del > 0 {
                        self.dir_dd.decide(fv_dd as f64, bv_dd)
                    } else {
                        self.dir_dd.current()
                    },
                    dn: if q_del > 0 {
                        self.dir_dn.decide(fv_dn as f64, bv_dn)
                    } else {
                        self.dir_dn.current()
                    },
                    nd: if q_norm > 0 {
                        self.dir_nd.decide(fv_nd as f64, bv_nd)
                    } else {
                        self.dir_nd.current()
                    },
                }
            } else {
                // Global-direction ablation: one decision for everything,
                // using the summed workloads and the dd factor pair.
                let fv = (fv_dd + fv_dn + fv_nd) as f64;
                let bv = [bv_dd, bv_dn, bv_nd].into_iter().filter(|b| b.is_finite()).sum::<f64>();
                let bv = if bv == 0.0 { f64::INFINITY } else { bv };
                let dir = self.dir_dd.decide(fv, bv);
                ChosenDirections { dd: dir, dn: dir, nd: dir }
            }
        } else {
            ChosenDirections {
                dd: Direction::Forward,
                dn: Direction::Forward,
                nd: Direction::Forward,
            }
        };

        // The visits read `frontier` and `new_delegates` in place and fill
        // the spare buffer; the input buffer becomes the next spare once
        // they are done (the driver installs `next_frontier` as the new
        // frontier, so the two buffers alternate without allocating).
        let mut next_frontier = std::mem::take(&mut self.scratch.spare_frontier);
        next_frontier.clear();

        // ---- Normal stream visits: nn (forward only), then nd. ----
        for &u in &self.frontier {
            let u_global = topo.global_id(self.gpu, u);
            for &v_global in sg.nn.neighbors(u) {
                work.nn_edges += 1;
                let owner = topo.vertex_owner(v_global);
                let slot = topo.local_index(v_global);
                if owner == self.gpu {
                    if self.depths_local[slot as usize] == UNREACHED {
                        self.depths_local[slot as usize] = next_depth;
                        next_frontier.push(slot);
                        if self.track_parents {
                            self.parents_local[slot as usize] = u_global;
                        }
                    }
                } else {
                    remote_nn.push((owner, slot));
                    if self.track_parents {
                        self.remote_parent_log.push((owner, slot, u_global, next_depth));
                    }
                }
            }
        }
        match directions.nd {
            Direction::Forward => {
                for &u in &self.frontier {
                    for &x in sg.nd.neighbors(u) {
                        work.nd_edges += 1;
                        if output_mask.set(x) && self.track_parents {
                            self.delegate_parent_candidate[x as usize] =
                                topo.global_id(self.gpu, u);
                        }
                    }
                }
            }
            Direction::Backward if q_norm > 0 => {
                // Unvisited delegates with local dn edges pull from normal
                // parents (the dn subgraph holds the parent lists, §IV-B).
                // With no newly visited normals there are no parents to
                // find, and the guard keeps the empty pull from counting
                // the edges it would scan.
                // The scalar pricing charges a per-bit probe of every delegate.
                if self.kernel_variant == KernelVariant::Scalar {
                    work.normal_previsit_vertices += sg.num_delegates as u64;
                }
                // Candidate words: sources not yet in the output mask, one
                // intersection per 64 delegates. A hit only ever sets the
                // candidate's *own* bit, so the per-word snapshot probes
                // exactly the same delegates, in the same order, as the
                // bit-serial scan the scalar pricing charges for.
                for wi in 0..output_mask.num_words() {
                    let cand = sg.dn_source_mask.word(wi) & !output_mask.word(wi);
                    for x in DelegateMask::word_bits(wi, cand) {
                        for &u in sg.dn.neighbors(x) {
                            work.nd_edges += 1;
                            if self.depths_local[u as usize] == iter {
                                if output_mask.set(x) && self.track_parents {
                                    self.delegate_parent_candidate[x as usize] =
                                        topo.global_id(self.gpu, u);
                                }
                                break;
                            }
                        }
                    }
                }
            }
            // Empty parent frontier: nothing to pull.
            Direction::Backward => {}
        }

        // ---- Delegate stream visits: dd, then dn. ----
        match directions.dd {
            Direction::Forward => {
                for &x in &self.new_delegates {
                    for &y in sg.dd.neighbors(x) {
                        work.dd_edges += 1;
                        if output_mask.set(y) && self.track_parents {
                            self.delegate_parent_candidate[y as usize] =
                                DELEGATE_PARENT_TAG | x as u64;
                        }
                    }
                }
            }
            Direction::Backward if q_del > 0 => {
                if self.kernel_variant == KernelVariant::Scalar {
                    work.delegate_previsit_vertices += sg.num_delegates as u64;
                }
                // Same word-at-a-time snapshot argument as the nd pull: a
                // hit sets only the candidate's own bit.
                for wi in 0..output_mask.num_words() {
                    let cand = sg.dd_source_mask.word(wi) & !output_mask.word(wi);
                    for y in DelegateMask::word_bits(wi, cand) {
                        for &x in sg.dd.neighbors(y) {
                            work.dd_edges += 1;
                            if self.delegate_depths[x as usize] == iter {
                                if output_mask.set(y) && self.track_parents {
                                    self.delegate_parent_candidate[y as usize] =
                                        DELEGATE_PARENT_TAG | x as u64;
                                }
                                break;
                            }
                        }
                    }
                }
            }
            Direction::Backward => {}
        }
        match directions.dn {
            Direction::Forward => {
                for &x in &self.new_delegates {
                    for &u in sg.dn.neighbors(x) {
                        work.dn_edges += 1;
                        if self.depths_local[u as usize] == UNREACHED {
                            self.depths_local[u as usize] = next_depth;
                            next_frontier.push(u);
                            if self.track_parents {
                                self.parents_local[u as usize] = DELEGATE_PARENT_TAG | x as u64;
                            }
                        }
                    }
                }
            }
            Direction::Backward if q_del > 0 => {
                // Unvisited nd-sources pull from delegate parents via their
                // own nd rows (§IV-B). With no newly visited delegates there
                // are no parents to find.
                for &u in &sg.nd_sources {
                    if self.depths_local[u as usize] != UNREACHED {
                        continue;
                    }
                    for &x in sg.nd.neighbors(u) {
                        work.dn_edges += 1;
                        if self.delegate_depths[x as usize] == iter {
                            self.depths_local[u as usize] = next_depth;
                            next_frontier.push(u);
                            if self.track_parents {
                                self.parents_local[u as usize] = DELEGATE_PARENT_TAG | x as u64;
                            }
                            break;
                        }
                    }
                }
            }
            Direction::Backward => {}
        }

        self.frontier.clear();
        std::mem::swap(&mut self.frontier, &mut self.scratch.spare_frontier);
        self.new_delegates.clear();
        LocalIterationOutput { next_frontier, remote_nn, output_mask, work, directions }
    }

    /// Hands an iteration's output mask buffer back for reuse. Called by the
    /// driver once the reduction has consumed it; purely an allocation
    /// optimization, with no effect on algorithm state.
    pub fn recycle_output_mask(&mut self, mask: DelegateMask) {
        self.scratch.spare_mask = Some(mask);
    }

    /// Applies a received remote `nn` update (destination-local slot) with
    /// depth `depth`; returns the slot if it was newly visited.
    pub fn apply_remote_update(&mut self, slot: u32, depth: u32) -> Option<u32> {
        let d = &mut self.depths_local[slot as usize];
        if *d == UNREACHED {
            *d = depth;
            Some(slot)
        } else {
            None
        }
    }

    /// Consumes the globally reduced mask: delegates whose bit is newly set
    /// get depth `depth` and become the next delegate frontier.
    pub fn consume_reduced_mask(&mut self, reduced: &DelegateMask, depth: u32) {
        debug_assert!(self.new_delegates.is_empty());
        for x in reduced.new_bits(&self.visited_mask) {
            self.delegate_depths[x as usize] = depth;
            self.new_delegates.push(x);
        }
        // In-place copy: same value as `clone()`, reusing the existing
        // buffer on the hot path.
        if self.visited_mask.num_bits() == reduced.num_bits() {
            self.visited_mask.copy_from(reduced);
        } else {
            self.visited_mask = reduced.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwitchFactors;
    use crate::distributor::distribute;
    use crate::separation::Separation;
    use gcbfs_graph::builders;

    fn forward_only() -> DirectionState {
        DirectionState::new(SwitchFactors::new(0.5), false)
    }

    /// One-GPU worker for the double-star graph with hubs as delegates.
    fn single_gpu_worker() -> (GpuWorker, Topology, Separation) {
        let g = builders::double_star(3);
        let topo = Topology::new(1, 1);
        let degrees = g.out_degrees();
        let sep = Separation::from_degrees(&degrees, 3);
        let dist = distribute(&g, &sep, &degrees, &topo);
        let sg = GpuSubgraphs::build(
            topo.owned_count(topo.unflat(0), g.num_vertices),
            sep.num_delegates(),
            &dist.per_gpu[0],
        );
        let w = GpuWorker::new(
            topo.unflat(0),
            Arc::new(sg),
            forward_only(),
            forward_only(),
            forward_only(),
        );
        (w, topo, sep)
    }

    #[test]
    fn forward_iteration_from_delegate_source() {
        let (mut w, topo, sep) = single_gpu_worker();
        // Seed: delegate for global vertex 0 (hub) at depth 0.
        let src = sep.delegate_id(0).unwrap();
        let mut seed = DelegateMask::new(w.visited_mask.num_bits());
        seed.set(src);
        w.consume_reduced_mask(&seed, 0);
        assert_eq!(w.new_delegates, vec![src]);

        let out = w.run_iteration(0, &topo);
        // Hub 0 reaches hub 1 (dd) and its three leaves (dn).
        let other = sep.delegate_id(1).unwrap();
        assert!(out.output_mask.get(other));
        assert_eq!(out.next_frontier.len(), 3);
        assert!(out.remote_nn.is_empty(), "single GPU has no remote updates");
        assert!(out.work.dd_edges >= 1);
        assert!(out.work.dn_edges >= 3);
        for &slot in &out.next_frontier {
            assert_eq!(w.depths_local[slot as usize], 1);
        }
    }

    #[test]
    fn normal_frontier_pushes_nd_and_nn() {
        let (mut w, topo, sep) = single_gpu_worker();
        // Seed a leaf: global vertex 2 (leaf of hub 0) at depth 0.
        let slot = topo.local_index(2);
        w.depths_local[slot as usize] = 0;
        w.frontier.push(slot);
        let out = w.run_iteration(0, &topo);
        // Leaf 2 reaches hub 0 via nd...
        assert!(out.output_mask.get(sep.delegate_id(0).unwrap()));
        // ...and its nn neighbor (leaf 5 = 2 + leaves) locally.
        let nn_slot = topo.local_index(5);
        assert!(out.next_frontier.contains(&nn_slot));
        assert_eq!(w.depths_local[nn_slot as usize], 1);
        assert!(out.work.nn_edges >= 1 && out.work.nd_edges >= 1);
    }

    #[test]
    fn remote_updates_cross_gpus() {
        let g = builders::double_star(3);
        let topo = Topology::new(2, 1);
        let degrees = g.out_degrees();
        let sep = Separation::from_degrees(&degrees, 3);
        let dist = distribute(&g, &sep, &degrees, &topo);
        let mut workers: Vec<GpuWorker> = (0..2)
            .map(|i| {
                let sg = GpuSubgraphs::build(
                    topo.owned_count(topo.unflat(i), g.num_vertices),
                    sep.num_delegates(),
                    &dist.per_gpu[i],
                );
                GpuWorker::new(
                    topo.unflat(i),
                    Arc::new(sg),
                    forward_only(),
                    forward_only(),
                    forward_only(),
                )
            })
            .collect();
        // Seed leaf 2 (owner: rank 0 since 2 % 2 == 0).
        let owner = topo.vertex_owner(2);
        let flat = topo.flat(owner);
        let slot = topo.local_index(2);
        workers[flat].depths_local[slot as usize] = 0;
        workers[flat].frontier.push(slot);
        let out = workers[flat].run_iteration(0, &topo);
        // Leaf 2's nn neighbor is leaf 5, owned by rank 1: a remote update.
        assert_eq!(out.remote_nn.len(), 1);
        let (dest, dslot) = out.remote_nn[0];
        assert_eq!(dest, topo.vertex_owner(5));
        assert_eq!(dslot, topo.local_index(5));
        // Deliver it.
        let dflat = topo.flat(dest);
        assert_eq!(workers[dflat].apply_remote_update(dslot, 1), Some(dslot));
        assert_eq!(workers[dflat].apply_remote_update(dslot, 1), None, "duplicate dropped");
    }

    #[test]
    fn backward_dn_pulls_from_new_delegates() {
        let (mut w, topo, sep) = single_gpu_worker();
        // Force the dn kernel backward by fabricating its state.
        w.dir_dn = {
            let mut s = DirectionState::new(
                SwitchFactors { forward_to_backward: 0.0, backward_to_forward: 0.0 },
                true,
            );
            // Any positive FV flips it backward immediately.
            s.decide(1.0, 0.5);
            s
        };
        let src = sep.delegate_id(0).unwrap();
        let mut seed = DelegateMask::new(w.visited_mask.num_bits());
        seed.set(src);
        w.consume_reduced_mask(&seed, 0);
        let out = w.run_iteration(0, &topo);
        assert_eq!(out.directions.dn, Direction::Backward);
        // The three leaves of hub 0 must still be discovered, via pull.
        let expected: Vec<u32> = (2..5).map(|v| topo.local_index(v)).collect();
        let mut got = out.next_frontier.clone();
        got.sort_unstable();
        let mut exp = expected.clone();
        exp.sort_unstable();
        assert_eq!(got, exp);
    }

    #[test]
    fn consume_reduced_mask_sets_depths_once() {
        let (mut w, _topo, _sep) = single_gpu_worker();
        let mut m = DelegateMask::new(w.visited_mask.num_bits());
        m.set(0);
        w.consume_reduced_mask(&m, 3);
        assert_eq!(w.delegate_depths[0], 3);
        assert_eq!(w.new_delegates, vec![0]);
        // Re-consuming the same mask yields no new delegates.
        w.new_delegates.clear();
        let m2 = m.clone();
        w.consume_reduced_mask(&m2, 4);
        assert!(w.new_delegates.is_empty());
        assert_eq!(w.delegate_depths[0], 3, "depth must not be overwritten");
    }

    #[test]
    fn empty_iteration_is_a_no_op() {
        let (mut w, topo, _sep) = single_gpu_worker();
        let out = w.run_iteration(0, &topo);
        assert!(out.next_frontier.is_empty());
        assert!(out.remote_nn.is_empty());
        assert_eq!(out.work.total_edges(), 0);
    }

    #[test]
    fn kernel_events_cover_total_edges_and_stream_sums() {
        use gcbfs_cluster::cost::CostModel;
        let (mut w, topo, sep) = single_gpu_worker();
        let src = sep.delegate_id(0).unwrap();
        let mut seed = DelegateMask::new(w.visited_mask.num_bits());
        seed.set(src);
        w.consume_reduced_mask(&seed, 0);
        let out = w.run_iteration(0, &topo);
        let dev = CostModel::ray().device;
        let events = out.kernel_events(&dev);
        assert_eq!(events.len(), 6);
        // Visit events' edge counts sum to the iteration's total edges.
        let edge_sum: u64 = events.iter().filter(|e| e.tag.counts_edges()).map(|e| e.work).sum();
        assert_eq!(edge_sum, out.work.total_edges());
        // Per-stream seconds sum to the same values the driver charges.
        let stream_sum = |s: StreamTag| -> f64 {
            events.iter().filter(|e| e.stream == s).map(|e| e.seconds).sum()
        };
        let normal = dev.kernel_time(KernelKind::Previsit, out.work.normal_previsit_vertices)
            + dev.kernel_time(KernelKind::DynamicVisit, out.work.nn_edges)
            + dev.kernel_time(KernelKind::DynamicVisit, out.work.nd_edges);
        let delegate = dev.kernel_time(KernelKind::Previsit, out.work.delegate_previsit_vertices)
            + dev.kernel_time(KernelKind::MergeVisit, out.work.dd_edges)
            + dev.kernel_time(KernelKind::DynamicVisit, out.work.dn_edges);
        assert_eq!(stream_sum(StreamTag::Normal), normal);
        assert_eq!(stream_sum(StreamTag::Delegate), delegate);
        // Direction tags mirror the chosen directions.
        let dd = events.iter().find(|e| e.tag == KernelTag::VisitDd).unwrap();
        assert_eq!(dd.dir, dir_tag(out.directions.dd));
    }

    /// Forces a kernel's direction state backward (any positive FV flips
    /// it immediately with zero switch factors).
    fn force_backward() -> DirectionState {
        let mut s = DirectionState::new(
            SwitchFactors { forward_to_backward: 0.0, backward_to_forward: 0.0 },
            true,
        );
        s.decide(1.0, 0.5);
        s
    }

    #[test]
    fn scalar_and_word_parallel_backward_pulls_are_bit_identical() {
        // Both variants run the same backward dd/nd/dn iteration from a
        // delegate seed; depths, frontiers, masks, parents, and *edge*
        // counters must match exactly. Only the probe accounting differs.
        let mut outs = Vec::new();
        let mut workers = Vec::new();
        for variant in [KernelVariant::Scalar, KernelVariant::WordParallel] {
            let (mut w, topo, sep) = single_gpu_worker();
            w.kernel_variant = variant;
            w.enable_parent_tracking();
            w.dir_dd = force_backward();
            w.dir_dn = force_backward();
            w.dir_nd = force_backward();
            let src = sep.delegate_id(0).unwrap();
            let mut seed = DelegateMask::new(w.visited_mask.num_bits());
            seed.set(src);
            w.consume_reduced_mask(&seed, 0);
            outs.push(w.run_iteration(0, &topo));
            workers.push(w);
        }
        let (s, p) = (&outs[0], &outs[1]);
        assert_eq!(s.directions, p.directions);
        assert_eq!(s.next_frontier, p.next_frontier);
        assert_eq!(s.output_mask, p.output_mask);
        assert_eq!(workers[0].depths_local, workers[1].depths_local);
        assert_eq!(workers[0].delegate_parent_candidate, workers[1].delegate_parent_candidate);
        assert_eq!(workers[0].parents_local, workers[1].parents_local);
        assert_eq!(s.work.total_edges(), p.work.total_edges());
        assert_eq!(s.work.nd_edges, p.work.nd_edges);
        assert_eq!(s.work.dd_edges, p.work.dd_edges);
        // The scalar reference pays strictly more previsit probe work:
        // per-bit DO scans plus per-bit backward candidate scans.
        assert!(
            s.work.delegate_previsit_vertices > p.work.delegate_previsit_vertices,
            "scalar {} vs word-parallel {}",
            s.work.delegate_previsit_vertices,
            p.work.delegate_previsit_vertices
        );
    }

    #[test]
    fn scalar_variant_prices_kernels_on_a_derated_device() {
        use gcbfs_cluster::cost::CostModel;
        let base = CostModel::ray().device;
        let word = KernelVariant::WordParallel.device_model(&base);
        let scalar = KernelVariant::Scalar.device_model(&base);
        assert_eq!(word.dynamic_visit_edges_per_sec, base.dynamic_visit_edges_per_sec);
        assert_eq!(
            scalar.dynamic_visit_edges_per_sec,
            base.dynamic_visit_edges_per_sec * SCALAR_DERATE
        );
        assert_eq!(
            scalar.merge_visit_edges_per_sec,
            base.merge_visit_edges_per_sec * SCALAR_DERATE
        );
        assert_eq!(
            scalar.previsit_vertices_per_sec,
            base.previsit_vertices_per_sec * SCALAR_DERATE
        );
        // Fixed-function paths are untouched by the kernel rewrite.
        assert_eq!(scalar.mask_bytes_per_sec, base.mask_bytes_per_sec);
        assert_eq!(scalar.binning_items_per_sec, base.binning_items_per_sec);
        assert_eq!(scalar.kernel_launch_overhead, base.kernel_launch_overhead);
        assert_eq!(KernelVariant::Scalar.label(), "scalar");
        assert_eq!(KernelVariant::default(), KernelVariant::WordParallel);
    }

    #[test]
    fn next_frontier_recycles_the_input_frontier_buffer() {
        // Two frontier buffers alternate: after one warm-up superstep, each
        // superstep's output lands in the previous superstep's input
        // buffer, so no superstep allocates a frontier.
        let (mut w, topo, _sep) = single_gpu_worker();
        let slot = topo.local_index(2);
        w.depths_local[slot as usize] = 0;
        w.frontier.reserve(64);
        w.frontier.push(slot);
        let mut input = (w.frontier.as_ptr(), w.frontier.capacity());
        let mut out = w.run_iteration(0, &topo);
        assert!(w.frontier.is_empty());
        for iter in 1..4 {
            // Keep the frontier non-empty so every superstep walks one.
            let mut next = std::mem::take(&mut out.next_frontier);
            next.clear();
            next.push(slot);
            w.frontier = next;
            let this_input = (w.frontier.as_ptr(), w.frontier.capacity());
            out = w.run_iteration(iter, &topo);
            assert!(w.frontier.is_empty());
            assert_eq!((out.next_frontier.as_ptr(), out.next_frontier.capacity()), input);
            input = this_input;
        }
    }

    #[test]
    fn zero_delegate_graph_works() {
        // Path graph with threshold high enough for no delegates at all.
        let g = builders::path(6);
        let topo = Topology::new(1, 1);
        let degrees = g.out_degrees();
        let sep = Separation::from_degrees(&degrees, 100);
        assert_eq!(sep.num_delegates(), 0);
        let dist = distribute(&g, &sep, &degrees, &topo);
        let sg = GpuSubgraphs::build(6, 0, &dist.per_gpu[0]);
        let mut w = GpuWorker::new(
            topo.unflat(0),
            Arc::new(sg),
            forward_only(),
            forward_only(),
            forward_only(),
        );
        w.depths_local[0] = 0;
        w.frontier.push(0);
        let out = w.run_iteration(0, &topo);
        assert_eq!(out.next_frontier, vec![topo.local_index(1)]);
    }
}
