//! Online superstep verification and the distributed end-of-run validator
//! — the detection half of the silent-data-corruption (SDC) defense layer.
//!
//! The chaos fabric's FNV seals guard bytes *in flight* and *at rest*, but
//! a bit flipped inside a kernel — a wrong settled depth, a spurious
//! delegate-mask bit, a bad reduction word — never crosses a sealed
//! channel and propagates silently into a plausible-but-wrong BFS tree.
//! This module closes that gap with two mechanisms:
//!
//! 1. **Per-superstep checks** ([`VerificationMode`], [`VerifyState`]),
//!    run by the driver at every superstep boundary and charged to the
//!    cost model as bandwidth-bound scans:
//!    * `mask-conservation` (Checksums+): every GPU's contributed mask
//!      words must be a subset of the broadcast reduced words — the OR
//!      reduction can only *add* bits, so a dropped bit is corruption.
//!    * `frontier-conservation` (Checksums+): the number of vertices
//!      settled at the new depth must equal the number of next-frontier
//!      entries, cluster-wide — every settle enqueues exactly one work
//!      item, so a mismatch means a depth or a work item was corrupted.
//!    * `mask-exact` (Full): the reduced words must equal the OR of the
//!      contributions exactly — catches *spurious* bits the subset check
//!      cannot see.
//!    * `shadow-digest` (Full): an ABFT-style XOR-fold over
//!      `(slot, depth)` settle events, maintained incrementally as
//!      depths settle through legitimate paths and cross-checked against
//!      a recomputation from the actual depth arrays. Any depth flip —
//!      old or new, settled or unsettled — perturbs exactly one side.
//!    * `depth-monotonicity` (Full): level `d+1` settles only out of
//!      level `d`: no settled depth may exceed the current frontier
//!      depth, and every frontier entry must carry exactly it.
//!
//! 2. **A distributed end-of-run validator**
//!    ([`DistributedGraph::validate_distributed`]) enforcing the
//!    Graph500 tree/depth invariants from each GPU's own edge partition
//!    — no reference CSR anywhere, exactly as a real cluster would have
//!    to do it. Normal vertices own their complete adjacency (`nn` ∪
//!    `nd` rows on their owner, guaranteed by symmetric doubling);
//!    delegate parents are established by per-GPU *evidence* masks
//!    OR-reduced across the cluster, mirroring the visited-mask
//!    collective the traversal itself uses.
//!
//! Detection feeds the escalation ladder in `chaos.rs`: re-execute the
//! superstep from device-side shadow state, then roll back to the last
//! checkpoint, then surface
//! [`FaultError::SdcUnrecoverable`](gcbfs_cluster::fault::FaultError::SdcUnrecoverable).

use crate::driver::DistributedGraph;
use crate::kernels::GpuWorker;
use crate::separation::Separation;
use crate::UNREACHED;
use gcbfs_cluster::cost::{CostModel, KernelKind};
use gcbfs_cluster::topology::Topology;
use gcbfs_graph::reference::ValidationError;
use gcbfs_graph::VertexId;

/// How much online verification a run performs. `Off` is bit-identical to
/// a run without the verification layer (no checks, no charges, no extra
/// piggyback bytes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerificationMode {
    /// No online checks. Zero overhead, zero protection.
    #[default]
    Off,
    /// Cheap ABFT checksums and conservation counts piggybacked on the
    /// per-iteration termination allreduce: catches dropped reduction
    /// bits and lost/spurious frontier work items.
    Checksums,
    /// Everything in `Checksums` plus exact reduction cross-check,
    /// shadow settle digests, and depth-monotonicity scans: catches any
    /// single-bit corruption of settled state.
    Full,
}

impl VerificationMode {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Checksums => "checksums",
            Self::Full => "full",
        }
    }

    /// True unless `Off`.
    pub fn is_on(self) -> bool {
        self != Self::Off
    }

    /// True for the `Full` tier.
    pub fn is_full(self) -> bool {
        self == Self::Full
    }

    /// Size of the per-iteration blocking sync payload with this tier's
    /// verification sums piggybacked: the bare 8-byte termination flag,
    /// plus 16 bytes of conservation counts (`Checksums`), plus 16 more
    /// bytes of digest cross-check (`Full`).
    pub fn sync_bytes(self) -> u64 {
        match self {
            Self::Off => 8,
            Self::Checksums => 24,
            Self::Full => 40,
        }
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer. The
/// verification layer's digests must not depend on `gcbfs-cluster`'s
/// private fault-stream hash — a digest sharing the corruptor's hash
/// could in principle be blind to exactly the corruptions it injects.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash of one settle event. XOR-folding these is order-independent, so
/// the incremental shadow and the end-of-superstep recomputation agree no
/// matter which legitimate path settled each slot.
#[inline]
fn settle_hash(slot: u32, depth: u32) -> u64 {
    mix64(((slot as u64) << 32) | depth as u64)
}

/// The driver-side shadow of every settle event, updated on each
/// legitimate settle path (seeding, kernel discovery, remote update,
/// delegate-mask consumption). Models the redundant
/// device-side accumulator an ABFT kernel would maintain; checkpoints
/// snapshot it alongside the state it shadows so rollback rewinds both.
#[derive(Clone, Debug)]
pub struct VerifyState {
    /// Per-GPU XOR-fold of `settle_hash(slot, depth)` over settled
    /// normal slots.
    local_digests: Vec<u64>,
    /// XOR-fold over settled delegates (replicated state, tracked once).
    delegate_digest: u64,
}

impl VerifyState {
    /// A fresh shadow for `num_gpus` empty partitions.
    pub fn new(num_gpus: usize) -> Self {
        Self { local_digests: vec![0; num_gpus], delegate_digest: 0 }
    }

    /// A shadow that has seen `source` settle at depth 0.
    pub fn seeded(topo: &Topology, separation: &Separation, source: VertexId) -> Self {
        let mut vs = Self::new(topo.num_gpus() as usize);
        match separation.delegate_id(source) {
            Some(did) => vs.fold_delegate(did, 0),
            None => {
                vs.fold_local(topo.flat(topo.vertex_owner(source)), topo.local_index(source), 0)
            }
        }
        vs
    }

    /// Folds the normal settles of one superstep: every path that settled
    /// a local vertex pushed it onto the owner's frontier exactly once
    /// (local discovery or applied remote update), so folding the
    /// next-frontier lists at `depth` mirrors the settled state by
    /// construction.
    pub fn fold_frontiers(&mut self, workers: &[GpuWorker], depth: u32) {
        for (g, w) in workers.iter().enumerate() {
            for &slot in &w.frontier {
                self.fold_local(g, slot, depth);
            }
        }
    }

    /// Folds the settle of normal `slot` on `gpu` at `depth`.
    pub fn fold_local(&mut self, gpu: usize, slot: u32, depth: u32) {
        self.local_digests[gpu] ^= settle_hash(slot, depth);
    }

    /// Folds the settle of delegate `id` at `depth`.
    pub fn fold_delegate(&mut self, id: u32, depth: u32) {
        self.delegate_digest ^= settle_hash(id, depth);
    }
}

/// Cross-checks one delegate-mask reduction: each contribution must be a
/// subset of the reduced words (Checksums+), and under `Full` the reduced
/// words must equal the OR of the contributions exactly. Returns the name
/// of the first violated check.
pub fn check_mask_reduction(
    mode: VerificationMode,
    contributions: &[Vec<u64>],
    reduced: &[u64],
) -> Option<&'static str> {
    if !mode.is_on() {
        return None;
    }
    for words in contributions {
        if words.iter().zip(reduced).any(|(&w, &r)| w & !r != 0) {
            return Some("mask-conservation");
        }
    }
    if mode.is_full() {
        let exact = reduced.iter().enumerate().all(|(i, &r)| {
            let or: u64 =
                contributions.iter().map(|w| w.get(i).copied().unwrap_or(0)).fold(0, |a, b| a | b);
            or == r
        });
        if !exact {
            return Some("mask-exact");
        }
    }
    None
}

/// End-of-superstep verification over the workers' settled state, after
/// the next frontiers have been formed at `next_depth`. Returns the name
/// of the first violated check, in escalating-cost order.
pub fn check_superstep(
    mode: VerificationMode,
    state: &VerifyState,
    workers: &[GpuWorker],
    next_depth: u32,
) -> Option<&'static str> {
    if !mode.is_on() {
        return None;
    }
    // Conservation: every vertex settled at `next_depth` enqueued exactly
    // one next-frontier work item, cluster-wide (the per-GPU counts ride
    // the termination allreduce).
    let settled: u64 = workers
        .iter()
        .map(|w| w.depths_local.iter().filter(|&&d| d == next_depth).count() as u64)
        .sum();
    let listed: u64 = workers.iter().map(|w| w.frontier.len() as u64).sum();
    if settled != listed {
        return Some("frontier-conservation");
    }
    if !mode.is_full() {
        return None;
    }
    for (g, w) in workers.iter().enumerate() {
        let mut digest = 0u64;
        for (slot, &d) in w.depths_local.iter().enumerate() {
            if d != UNREACHED {
                if d > next_depth {
                    return Some("depth-monotonicity");
                }
                digest ^= settle_hash(slot as u32, d);
            }
        }
        if digest != state.local_digests[g] {
            return Some("shadow-digest");
        }
        if w.frontier.iter().any(|&s| w.depths_local[s as usize] != next_depth) {
            return Some("depth-monotonicity");
        }
    }
    // Delegate depths are replicated; one recomputation covers them.
    let mut ddigest = 0u64;
    for (id, &d) in workers[0].delegate_depths.iter().enumerate() {
        if d != UNREACHED {
            if d > next_depth {
                return Some("depth-monotonicity");
            }
            ddigest ^= settle_hash(id as u32, d);
        }
    }
    if ddigest != state.delegate_digest {
        return Some("shadow-digest");
    }
    None
}

/// Bytes one GPU's fused verification kernel scans this superstep: its
/// contributed + reduced mask words when a reduction ran (both tiers),
/// plus — under `Full` — its local depth array, the replicated delegate
/// depths, and its next frontier. Charged at the mask-ops bandwidth as a
/// single fused kernel launch.
pub fn scan_bytes(
    mode: VerificationMode,
    mask_reduced: bool,
    mask_bytes: u64,
    num_local: usize,
    num_delegates: u32,
    frontier_len: usize,
) -> u64 {
    let mut bytes = 0u64;
    if !mode.is_on() {
        return bytes;
    }
    if mask_reduced {
        bytes += 2 * mask_bytes;
    }
    bytes += 4 * num_local as u64; // settled-count scan (conservation)
    if mode.is_full() {
        bytes += 4 * num_local as u64; // digest + monotonicity re-scan
        bytes += 4 * num_delegates as u64;
        bytes += 4 * frontier_len as u64;
    }
    bytes
}

/// Summary of one distributed end-of-run validation: what was checked,
/// what it would have cost on the modeled cluster, and every invariant
/// violation found (capped at [`DistributedValidation::MAX_REPORTED`]
/// reported instances; `error_count` is exact).
#[derive(Clone, Debug)]
pub struct DistributedValidation {
    /// Vertices reached from the source.
    pub reached: u64,
    /// Deepest settled level.
    pub max_depth: u32,
    /// Directed edges scanned across all partitions.
    pub checked_edges: u64,
    /// Vertex entries scanned (local slots plus replicated delegates).
    pub checked_vertices: u64,
    /// Depth lookups that crossed a partition boundary (charged to the
    /// modeled wire as bulk 8-byte request/reply pairs).
    pub remote_lookups: u64,
    /// Modeled cluster seconds the validation pass would take (reported
    /// separately from the traversal time, as Graph500 does).
    pub modeled_seconds: f64,
    /// Total invariant violations found.
    pub error_count: u64,
    /// The first [`Self::MAX_REPORTED`] violations, in discovery order.
    pub errors: Vec<ValidationError>,
}

impl DistributedValidation {
    /// Cap on individually reported violations.
    pub const MAX_REPORTED: usize = 32;

    /// True when every invariant held.
    pub fn is_ok(&self) -> bool {
        self.error_count == 0
    }

    fn push(&mut self, e: ValidationError) {
        self.error_count += 1;
        if self.errors.len() < Self::MAX_REPORTED {
            self.errors.push(e);
        }
    }
}

impl DistributedGraph {
    /// Validates a depth vector against the Graph500 invariants using
    /// only the per-GPU edge partitions — the check a real cluster runs,
    /// with no reference CSR anywhere:
    ///
    /// * the source has depth 0 and nothing else does;
    /// * every edge out of a reached vertex reaches a vertex within one
    ///   level (symmetric doubling makes one directed scan sufficient);
    /// * every reached normal vertex has a neighbor one level shallower
    ///   in its owner-local `nn` ∪ `nd` rows;
    /// * every reached delegate has such a neighbor somewhere in the
    ///   cluster, established by OR-reducing per-GPU evidence masks.
    pub fn validate_distributed(
        &self,
        source: VertexId,
        depths: &[u32],
        cost: &CostModel,
    ) -> DistributedValidation {
        let topo = self.topology;
        let d = self.separation.num_delegates();
        let mut out = DistributedValidation {
            reached: 0,
            max_depth: 0,
            checked_edges: 0,
            checked_vertices: 0,
            remote_lookups: 0,
            modeled_seconds: 0.0,
            error_count: 0,
            errors: Vec::new(),
        };
        if depths.len() as u64 != self.num_vertices {
            out.push(ValidationError::WrongLength {
                expected: self.num_vertices as usize,
                actual: depths.len(),
            });
            return out;
        }
        for (v, &dv) in depths.iter().enumerate() {
            if dv == UNREACHED {
                continue;
            }
            out.reached += 1;
            out.max_depth = out.max_depth.max(dv);
            if dv == 0 && v as u64 != source {
                out.push(ValidationError::ExtraRoot { vertex: v as u64 });
            }
        }
        if depths[source as usize] != 0 {
            out.push(ValidationError::SourceDepth { actual: depths[source as usize] });
        }

        // Replicated delegate depths, as every GPU holds them.
        let ddepth: Vec<u32> =
            (0..d).map(|x| depths[self.separation.original(x) as usize]).collect();
        // Per-GPU parent evidence for delegates, OR-reduced below.
        let mut evidence = vec![false; d as usize];
        let mut worst_gpu_seconds = 0.0f64;

        for (g, sg) in self.subgraphs.iter().enumerate() {
            let gpu = topo.unflat(g);
            let mut edges_g = 0u64;
            let mut remote_g = 0u64;
            for slot in 0..sg.num_local {
                let u = topo.global_id(gpu, slot);
                if self.separation.is_delegate(u) {
                    // Delegate-owned slot: the normal rows are empty by
                    // construction; its edges live in `dn`/`dd` below.
                    continue;
                }
                let du = depths[u as usize];
                let mut has_parent = du == 0;
                for &v in sg.nn.neighbors(slot) {
                    edges_g += 1;
                    if topo.flat(topo.vertex_owner(v)) != g {
                        remote_g += 1;
                    }
                    let dv = depths[v as usize];
                    check_edge(&mut out, u, du, v, dv);
                    has_parent |= du != UNREACHED && dv != UNREACHED && dv + 1 == du;
                }
                for &x in sg.nd.neighbors(slot) {
                    edges_g += 1;
                    let dx = ddepth[x as usize];
                    check_edge(&mut out, u, du, self.separation.original(x), dx);
                    has_parent |= du != UNREACHED && dx != UNREACHED && dx + 1 == du;
                    // The mirror of this edge establishes the delegate's
                    // parent when the normal endpoint is one shallower.
                    if dx != UNREACHED && du != UNREACHED && du + 1 == dx {
                        evidence[x as usize] = true;
                    }
                }
                if du != UNREACHED && !has_parent {
                    out.push(ValidationError::NoParent { vertex: u, depth: du });
                }
            }
            for x in 0..d {
                let dx = ddepth[x as usize];
                let vx = self.separation.original(x);
                for &slot in sg.dn.neighbors(x) {
                    edges_g += 1;
                    let u = topo.global_id(gpu, slot);
                    let du = depths[u as usize];
                    check_edge(&mut out, vx, dx, u, du);
                    if dx != UNREACHED && du != UNREACHED && du + 1 == dx {
                        evidence[x as usize] = true;
                    }
                }
                for &y in sg.dd.neighbors(x) {
                    edges_g += 1;
                    let dy = ddepth[y as usize];
                    check_edge(&mut out, vx, dx, self.separation.original(y), dy);
                    if dx != UNREACHED && dy != UNREACHED && dy + 1 == dx {
                        evidence[x as usize] = true;
                    }
                    if dy != UNREACHED && dx != UNREACHED && dx + 1 == dy {
                        evidence[y as usize] = true;
                    }
                }
            }
            let vertices_g = sg.num_local as u64 + d as u64;
            out.checked_edges += edges_g;
            out.checked_vertices += vertices_g;
            out.remote_lookups += remote_g;
            // Edge scans run at the dynamic-visit rate, vertex scans at
            // the previsit rate; remote lookups ship as bulk 8-byte
            // request/reply pairs.
            let t = cost.device.kernel_time(KernelKind::DynamicVisit, edges_g)
                + cost.device.kernel_time(KernelKind::Previsit, vertices_g)
                + cost.network.p2p_time(16 * remote_g, false);
            worst_gpu_seconds = worst_gpu_seconds.max(t);
        }

        // OR-reduce the evidence masks (one mask-sized allreduce, same
        // collective shape as the visited-mask reduction).
        for x in 0..d as usize {
            let dx = ddepth[x];
            if dx != UNREACHED && dx >= 1 && !evidence[x] {
                out.push(ValidationError::NoParent {
                    vertex: self.separation.original(x as u32),
                    depth: dx,
                });
            }
        }
        let mask_bytes = (d as u64).div_ceil(64) * 8;
        out.modeled_seconds = worst_gpu_seconds
            + cost.network.allreduce_time(mask_bytes.max(8), topo.num_ranks(), true);
        out
    }
}

/// One directed-edge invariant check: a reached vertex may not point at
/// an unreached one (symmetric graphs explore every edge), and settled
/// endpoints may differ by at most one level. Unreached sources are
/// covered by the mirror edge.
fn check_edge(out: &mut DistributedValidation, a: u64, da: u32, b: u64, db: u32) {
    if da == UNREACHED {
        return;
    }
    if db == UNREACHED {
        out.push(ValidationError::ReachabilityLeak { from: a, to: b });
    } else if db > da + 1 {
        out.push(ValidationError::EdgeSpansLevels { from: a, to: b, from_depth: da, to_depth: db });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BfsConfig;
    use gcbfs_cluster::topology::Topology;
    use gcbfs_graph::builders;
    use gcbfs_graph::rmat::RmatConfig;

    #[test]
    fn mode_defaults_off_with_stable_labels() {
        assert_eq!(VerificationMode::default(), VerificationMode::Off);
        assert!(!VerificationMode::Off.is_on());
        assert!(VerificationMode::Checksums.is_on() && !VerificationMode::Checksums.is_full());
        assert!(VerificationMode::Full.is_full());
        assert_eq!(VerificationMode::Off.label(), "off");
        assert_eq!(VerificationMode::Checksums.label(), "checksums");
        assert_eq!(VerificationMode::Full.label(), "full");
        assert_eq!(VerificationMode::Off.sync_bytes(), 8, "Off must not grow the sync payload");
        assert!(VerificationMode::Full.sync_bytes() > VerificationMode::Checksums.sync_bytes());
    }

    #[test]
    fn mask_checks_catch_dropped_and_spurious_bits() {
        let contributions = vec![vec![0b1010u64, 0], vec![0b0001, 1 << 63]];
        let good = vec![0b1011u64, 1 << 63];
        for mode in [VerificationMode::Checksums, VerificationMode::Full] {
            assert_eq!(check_mask_reduction(mode, &contributions, &good), None);
        }
        // A dropped contributed bit violates conservation in both tiers.
        let dropped = vec![0b0011u64, 1 << 63];
        for mode in [VerificationMode::Checksums, VerificationMode::Full] {
            assert_eq!(
                check_mask_reduction(mode, &contributions, &dropped),
                Some("mask-conservation")
            );
        }
        // A spurious bit is invisible to the subset check but not to Full.
        let spurious = vec![0b1111u64, 1 << 63];
        assert_eq!(
            check_mask_reduction(VerificationMode::Checksums, &contributions, &spurious),
            None
        );
        assert_eq!(
            check_mask_reduction(VerificationMode::Full, &contributions, &spurious),
            Some("mask-exact")
        );
        assert_eq!(check_mask_reduction(VerificationMode::Off, &contributions, &dropped), None);
    }

    #[test]
    fn scan_bytes_scale_with_tier() {
        assert_eq!(scan_bytes(VerificationMode::Off, true, 64, 100, 10, 5), 0);
        let c = scan_bytes(VerificationMode::Checksums, true, 64, 100, 10, 5);
        assert_eq!(c, 2 * 64 + 4 * 100);
        let f = scan_bytes(VerificationMode::Full, true, 64, 100, 10, 5);
        assert_eq!(f, c + 4 * 100 + 4 * 10 + 4 * 5);
        // No reduction this superstep: the mask term vanishes.
        assert_eq!(scan_bytes(VerificationMode::Checksums, false, 64, 100, 10, 5), 400);
    }

    #[test]
    fn distributed_validator_accepts_a_clean_run() {
        let graph = RmatConfig::graph500(8).generate();
        let config = BfsConfig::new(8);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let r = dist.run(1, &config).unwrap();
        let v = dist.validate_distributed(1, &r.depths, &config.cost);
        assert!(v.is_ok(), "clean run must validate: {:?}", v.errors);
        assert!(v.reached > 0 && v.checked_edges > 0 && v.checked_vertices > 0);
        assert_eq!(
            v.max_depth,
            r.depths.iter().filter(|&&d| d != UNREACHED).max().copied().unwrap()
        );
        assert!(v.modeled_seconds > 0.0, "validation work is priced");
    }

    #[test]
    fn distributed_validator_flags_each_invariant() {
        let graph = builders::double_star(4);
        let config = BfsConfig::new(3);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 2), &config).unwrap();
        let r = dist.run(0, &config).unwrap();
        let cost = &config.cost;

        // Wrong source depth.
        let mut bad = r.depths.clone();
        bad[0] = 3;
        let v = dist.validate_distributed(0, &bad, cost);
        assert!(!v.is_ok());
        assert!(v.errors.iter().any(|e| matches!(e, ValidationError::SourceDepth { actual: 3 })));

        // A second root out of nowhere.
        let mut bad = r.depths.clone();
        let victim = (1..bad.len()).find(|&v| bad[v] > 1).unwrap();
        bad[victim] = 0;
        let v = dist.validate_distributed(0, &bad, cost);
        assert!(v.errors.iter().any(
            |e| matches!(e, ValidationError::ExtraRoot { vertex } if *vertex == victim as u64)
        ));

        // An unreached hole in a reached neighborhood.
        let mut bad = r.depths.clone();
        let victim = (1..bad.len()).find(|&v| bad[v] != UNREACHED).unwrap();
        bad[victim] = UNREACHED;
        let v = dist.validate_distributed(0, &bad, cost);
        assert!(v.errors.iter().any(|e| matches!(e, ValidationError::ReachabilityLeak { .. })));

        // A depth deeper than any neighbor allows.
        let mut bad = r.depths.clone();
        let victim = (1..bad.len()).find(|&v| bad[v] != UNREACHED && bad[v] > 0).unwrap();
        bad[victim] += 7;
        let v = dist.validate_distributed(0, &bad, cost);
        assert!(
            v.errors.iter().any(|e| matches!(
                e,
                ValidationError::EdgeSpansLevels { .. } | ValidationError::NoParent { .. }
            )),
            "an isolated deep vertex violates span or parent rules: {:?}",
            v.errors
        );

        // Wrong length short-circuits.
        let v = dist.validate_distributed(0, &r.depths[1..], cost);
        assert!(matches!(v.errors[0], ValidationError::WrongLength { .. }));
    }

    #[test]
    fn error_reporting_caps_but_counts_everything() {
        let graph = builders::path(80);
        let config = BfsConfig::new(100);
        let dist = DistributedGraph::build(&graph, Topology::new(2, 1), &config).unwrap();
        let r = dist.run(0, &config).unwrap();
        // Zero every reached depth: each non-source vertex becomes a
        // spurious extra root — far more violations than the report cap.
        let bad: Vec<u32> = r.depths.iter().map(|&d| if d == UNREACHED { d } else { 0 }).collect();
        let v = dist.validate_distributed(0, &bad, &config.cost);
        assert!(v.error_count > DistributedValidation::MAX_REPORTED as u64);
        assert_eq!(v.errors.len(), DistributedValidation::MAX_REPORTED);
    }

    #[test]
    fn shadow_digest_recomputation_matches_incremental_fold() {
        let mut s = VerifyState::new(2);
        s.fold_local(0, 3, 1);
        s.fold_local(0, 9, 2);
        s.fold_local(1, 3, 1);
        s.fold_delegate(0, 0);
        let mut recomputed = 0u64;
        for (slot, depth) in [(3u32, 1u32), (9, 2)] {
            recomputed ^= settle_hash(slot, depth);
        }
        assert_eq!(s.local_digests[0], recomputed, "fold order does not matter");
        assert_ne!(s.local_digests[0], s.local_digests[1], "slots hash with their depths");
        // Any single-bit flip of a depth perturbs the fold.
        assert_ne!(recomputed ^ settle_hash(3, 1) ^ settle_hash(3, 1 ^ 4), recomputed);
    }
}
