//! Cluster topology: `prank` MPI ranks × `pgpu` GPUs per rank.
//!
//! The paper denotes hardware configurations as
//! `nodes × ranks-per-node × GPUs-per-rank` (e.g. `31×2×2` = 124 GPUs).
//! For everything the algorithms care about, only the totals matter:
//! `prank = nodes · ranks-per-node` and `pgpu`. Rank boundaries decide which
//! transfers ride NVLink (intra-rank/node) versus InfiniBand, and the
//! two-phase delegate reduction runs local-then-global across them.

/// Identity of one simulated GPU: which MPI rank owns it and its index
/// within the rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpuId {
    /// Owning MPI rank.
    pub rank: u32,
    /// Index within the rank.
    pub gpu: u32,
}

/// A `prank × pgpu` device grid, plus an optional pool of hot-spare
/// devices that hold no partition until recovery promotes one to replace
/// a dead primary.
///
/// Spares are deliberately *outside* the `p = prank · pgpu` grid: all
/// vertex-ownership arithmetic (`P(v)`, `G(v)`, local indices) is a
/// function of the primary grid only, so adding or draining spares never
/// changes the partition — which is what makes spare absorption a pure
/// data movement with bit-identical BFS results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    prank: u32,
    pgpu: u32,
    spares: u32,
}

impl Topology {
    /// Creates a topology with `prank` MPI ranks of `pgpu` GPUs each and
    /// no hot spares.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(prank: u32, pgpu: u32) -> Self {
        assert!(prank > 0 && pgpu > 0, "topology dimensions must be positive");
        Self { prank, pgpu, spares: 0 }
    }

    /// Adds `spares` hot-spare devices to the pool. Spares are not part
    /// of the primary grid: they own no vertices and carry no partition
    /// until recovery promotes one.
    pub fn with_spares(mut self, spares: u32) -> Self {
        self.spares = spares;
        self
    }

    /// Number of hot-spare devices.
    pub fn num_spares(&self) -> u32 {
        self.spares
    }

    /// Parses the paper's `nodes×rpn×gpr` notation into a topology
    /// (`prank = nodes · rpn`).
    pub fn from_paper_notation(nodes: u32, ranks_per_node: u32, gpus_per_rank: u32) -> Self {
        Self::new(nodes * ranks_per_node, gpus_per_rank)
    }

    /// Number of MPI ranks.
    pub fn num_ranks(&self) -> u32 {
        self.prank
    }

    /// GPUs per MPI rank.
    pub fn gpus_per_rank(&self) -> u32 {
        self.pgpu
    }

    /// Total GPU count `p = prank · pgpu`.
    pub fn num_gpus(&self) -> u32 {
        self.prank * self.pgpu
    }

    /// Flat index of a GPU in `0..num_gpus()`, grouped by rank.
    pub fn flat(&self, id: GpuId) -> usize {
        debug_assert!(id.rank < self.prank && id.gpu < self.pgpu);
        (id.rank * self.pgpu + id.gpu) as usize
    }

    /// Inverse of [`Topology::flat`].
    pub fn unflat(&self, index: usize) -> GpuId {
        debug_assert!(index < self.num_gpus() as usize);
        GpuId { rank: index as u32 / self.pgpu, gpu: index as u32 % self.pgpu }
    }

    /// Iterates over all GPU ids in flat order.
    pub fn gpus(&self) -> impl Iterator<Item = GpuId> + '_ {
        (0..self.num_gpus() as usize).map(move |i| self.unflat(i))
    }

    /// Whether two GPUs share an MPI rank (and thus the fast local fabric).
    pub fn same_rank(&self, a: GpuId, b: GpuId) -> bool {
        a.rank == b.rank
    }

    /// Owning MPI rank of global vertex `v`: `P(v) = v mod prank`
    /// (Algorithm 1).
    pub fn vertex_rank(&self, v: u64) -> u32 {
        (v % self.prank as u64) as u32
    }

    /// Owning GPU within the rank: `G(v) = (v / prank) mod pgpu`
    /// (Algorithm 1).
    pub fn vertex_gpu(&self, v: u64) -> u32 {
        ((v / self.prank as u64) % self.pgpu as u64) as u32
    }

    /// Owning GPU id of global vertex `v`.
    pub fn vertex_owner(&self, v: u64) -> GpuId {
        GpuId { rank: self.vertex_rank(v), gpu: self.vertex_gpu(v) }
    }

    /// Local index of `v` on its owning GPU: vertices owned by one GPU are
    /// `v = (k·pgpu + gpu)·prank + rank`, so the dense local index is
    /// `k = v / p`. This is what keeps local normal ids 32-bit (§III-B).
    pub fn local_index(&self, v: u64) -> u32 {
        (v / self.num_gpus() as u64) as u32
    }

    /// Reconstructs the global vertex id from its owner and local index.
    pub fn global_id(&self, owner: GpuId, local: u32) -> u64 {
        (local as u64 * self.pgpu as u64 + owner.gpu as u64) * self.prank as u64 + owner.rank as u64
    }

    /// Number of vertices a GPU owns out of a global vertex range `0..n`
    /// (the `n/p` bound of §III-B, exact per GPU).
    pub fn owned_count(&self, owner: GpuId, n: u64) -> u32 {
        // Count k with global_id(owner, k) < n.
        let p = self.num_gpus() as u64;
        let base = owner.gpu as u64 * self.prank as u64 + owner.rank as u64;
        if base >= n {
            0
        } else {
            ((n - base - 1) / p + 1) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let t = Topology::from_paper_notation(31, 2, 2);
        assert_eq!(t.num_ranks(), 62);
        assert_eq!(t.gpus_per_rank(), 2);
        assert_eq!(t.num_gpus(), 124);
    }

    #[test]
    fn flat_roundtrip() {
        let t = Topology::new(3, 4);
        for i in 0..12 {
            assert_eq!(t.flat(t.unflat(i)), i);
        }
        assert_eq!(t.gpus().count(), 12);
    }

    #[test]
    fn ownership_matches_algorithm_1() {
        let t = Topology::new(4, 2);
        // P(v) = v mod 4, G(v) = (v/4) mod 2.
        assert_eq!(t.vertex_owner(13), GpuId { rank: 1, gpu: 1 });
        assert_eq!(t.vertex_owner(5), GpuId { rank: 1, gpu: 1 });
        assert_eq!(t.vertex_owner(4), GpuId { rank: 0, gpu: 1 });
        assert_eq!(t.vertex_owner(3), GpuId { rank: 3, gpu: 0 });
    }

    #[test]
    fn global_local_roundtrip() {
        let t = Topology::new(3, 2);
        for v in 0..1000u64 {
            let owner = t.vertex_owner(v);
            let local = t.local_index(v);
            assert_eq!(t.global_id(owner, local), v);
        }
    }

    #[test]
    fn owned_count_partitions_n() {
        let t = Topology::new(3, 2);
        for n in [0u64, 1, 5, 6, 7, 100, 101] {
            let total: u64 = t.gpus().map(|g| t.owned_count(g, n) as u64).sum();
            assert_eq!(total, n, "n = {n}");
        }
    }

    #[test]
    fn owned_count_is_balanced() {
        let t = Topology::new(4, 4);
        let n = 1u64 << 16;
        let counts: Vec<u32> = t.gpus().map(|g| t.owned_count(g, n)).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn same_rank_detection() {
        let t = Topology::new(2, 2);
        assert!(t.same_rank(GpuId { rank: 0, gpu: 0 }, GpuId { rank: 0, gpu: 1 }));
        assert!(!t.same_rank(GpuId { rank: 0, gpu: 0 }, GpuId { rank: 1, gpu: 0 }));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = Topology::new(0, 2);
    }

    #[test]
    fn spares_do_not_perturb_the_grid() {
        let base = Topology::new(2, 2);
        let spared = Topology::new(2, 2).with_spares(3);
        assert_eq!(spared.num_spares(), 3);
        assert_eq!(spared.num_gpus(), base.num_gpus());
        for v in 0..200u64 {
            assert_eq!(spared.vertex_owner(v), base.vertex_owner(v));
            assert_eq!(spared.local_index(v), base.local_index(v));
        }
    }
}
