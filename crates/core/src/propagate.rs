//! The value-carrying superstep: §VI-D's generalization ("more bits of
//! state for delegates … associative values for normal vertices") as one
//! engine. A step pushes a `Copy` value from every frontier vertex along
//! its `nn`/`nd`/`dn`/`dd` rows, combines what arrives at each destination
//! with an associative `combine`, reduces the delegate side with
//! [`allreduce_with`], routes remote `nn` proposals point to point and
//! prices the lot on the modeled ledger. Multi-source BFS, SSSP,
//! components, PageRank, betweenness and async BFS are programs over it
//! (DESIGN.md §5a tabulates them). Single-source BFS stays on
//! [`crate::superstep`]: its delegate state is one bit and its
//! direction-optimized pull kernels have no min/sum analogue.
//!
//! The contract the programs and `tests/algorithm_ledger.rs` rely on:
//!
//! * **Walk order.** Per GPU: normal frontier entries in list order, each
//!   over its `nn` then `nd` row; then delegate frontier entries in list
//!   order, each over `dd` then `dn`.
//! * **Delivery order.** A destination folds its local proposals in walk
//!   order, then remote ones by ascending source GPU (each in that
//!   source's walk order), so `f64` sums are bit-stable at any pool width;
//!   an [`Inbox`] lists entries ascending.
//! * **Ledger.** `computation` is the slowest GPU's visit (+ previsit)
//!   kernel; a delegate reduce adds its local and global times and
//!   `2 · bytes · ranks` remote bytes; each GPU's remote `nn` updates
//!   ([`UPDATE_BYTES`] apiece) are priced as one aggregated message of
//!   `max(sent, received)`; a step's seconds follow [`IterationTiming`].

use crate::driver::BuildError;
use crate::separation::Separation;
use crate::subgraph::{Entry, GpuSubgraphs};
use gcbfs_cluster::collectives::{allreduce_with, AllreduceValueOutcome};
use gcbfs_cluster::cost::{CostModel, KernelKind, NetworkModel};
use gcbfs_cluster::timing::{IterationTiming, PhaseTimes};
use gcbfs_cluster::topology::Topology;
use gcbfs_graph::VertexId;
use rayon::prelude::*;
use std::sync::Arc;

/// Wire size of one remote `nn` proposal: a 4-byte slot and an 8-byte value.
pub(crate) const UPDATE_BYTES: u64 = 12;

/// The pricing facts that differ between programs, named at the call site.
#[derive(Clone, Copy)]
pub(crate) struct Pricing<'a> {
    /// Machine model.
    pub cost: &'a CostModel,
    /// Blocking vs non-blocking delegate reduce (decides the overlap rule).
    pub blocking_reduce: bool,
    /// The step discovers its frontier and whether it was the last one:
    /// charge the previsit kernel and the 8-byte termination allreduce.
    pub discovers_frontier: bool,
    /// Price `nn` updates at the intra-node rate.
    pub p2p_intra_node: bool,
}

impl<'a> Pricing<'a> {
    /// The common BSP step: frontier discovery charged, inter-node
    /// point-to-point.
    pub fn bsp(cost: &'a CostModel, blocking_reduce: bool) -> Self {
        Self { cost, blocking_reduce, discovers_frontier: true, p2p_intra_node: false }
    }
}

/// When, and over what, a step reduces the delegate proposals.
pub(crate) enum Reduce<'a, V> {
    /// All `d` values, every step (nothing to reduce when `d == 0`).
    EveryStep,
    /// Skip the collective on steps where the predicate holds for no
    /// `(delegate, proposal)` on any GPU — nobody has news.
    SkipIdle(&'a dyn Fn(usize, V) -> bool),
    /// `d + 1` values, every step: one scalar per GPU rides along as the
    /// last element (read it back at `reduced[d]`).
    WithScalar(&'a [V]),
}

/// Modeled totals of a run, one [`Ledger::record`] per step.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    pub steps: u32,
    pub edges: u64,
    pub remote_bytes: u64,
    pub phases: PhaseTimes,
    pub modeled_seconds: f64,
    /// Seconds of each step, in order; sums to `modeled_seconds`.
    pub step_seconds: Vec<f64>,
}

impl Ledger {
    /// Closes one step that took `seconds` with the given phase split.
    pub fn record(&mut self, phases: PhaseTimes, seconds: f64) {
        self.steps += 1;
        self.phases = self.phases.combine(&phases);
        self.modeled_seconds += seconds;
        self.step_seconds.push(seconds);
    }
}

/// One GPU's reusable incoming side.
struct Lane<V> {
    /// Combined incoming value per owned slot; `identity` when untouched.
    acc: Vec<V>,
    /// Slots whose `acc` left `identity` this step.
    touched: Vec<u32>,
    /// Edges walked this step.
    edges: u64,
}

impl<V: Copy + PartialEq> Lane<V> {
    #[inline]
    fn fold(&mut self, slot: u32, value: V, identity: V, combine: &impl Fn(V, V) -> V) {
        let a = &mut self.acc[slot as usize];
        if *a == identity {
            self.touched.push(slot);
        }
        *a = combine(*a, value);
    }
}

/// What one GPU's owned slots — or the replicated delegates — received
/// this step.
pub(crate) struct Inbox<'a, V> {
    acc: &'a [V],
    touched: &'a [u32],
}

impl<V: Copy> Inbox<'_, V> {
    /// `(index, combined value)` of every entry that received something,
    /// ascending. On the delegate side every delegate is listed, those
    /// nobody proposed to with the identity.
    pub fn touched(&self) -> impl Iterator<Item = (usize, V)> + '_ {
        self.touched.iter().map(|&i| (i as usize, self.acc[i as usize]))
    }

    /// Combined value at `index` (the identity if nothing arrived).
    pub fn get(&self, index: usize) -> V {
        self.acc[index]
    }
}

/// The engine: frontiers in, combined values and a priced ledger out.
pub(crate) struct Superstep<'g, V, N, L, C, A> {
    topo: Topology,
    rows: &'g [Arc<GpuSubgraphs<N, L>>],
    identity: V,
    combine: C,
    along: A,
    /// `(slot, value)` each GPU's active slots push next step.
    pub normal_frontier: Vec<Vec<(u32, V)>>,
    /// `(delegate, value)` the active delegates push (replicated state:
    /// every GPU walks its local portion of their rows).
    pub delegate_frontier: Vec<(u32, V)>,
    lanes: Vec<Lane<V>>,
    /// `outbox[from][to]`: remote `nn` proposals in `from`'s walk order.
    outbox: Vec<Vec<Vec<(u32, V)>>>,
    /// Dense delegate proposals per GPU, the allreduce's input.
    delegate_acc: Vec<Vec<V>>,
    /// The reduced delegate proposals awaiting [`Superstep::deliver`]
    /// (all `identity` once delivered, or if the reduce was skipped).
    pub reduced: Vec<V>,
    /// `0..d`: the delegate side's inbox lists every delegate.
    all_delegates: Vec<u32>,
    pub ledger: Ledger,
}

impl<'g, V, N, L, C, A> Superstep<'g, V, N, L, C, A>
where
    V: Copy + PartialEq + Send + Sync,
    N: Entry<Col = u64>,
    L: Entry<Col = u32, Edge = N::Edge>,
    C: Fn(V, V) -> V + Sync,
    A: Fn(V, N::Edge) -> V + Sync,
{
    /// An idle engine over `rows` (one per GPU, flat order). `combine`
    /// must be associative with `identity` neutral; `along` carries a
    /// pushed value across one edge.
    pub fn new(
        topo: Topology,
        rows: &'g [Arc<GpuSubgraphs<N, L>>],
        num_delegates: u32,
        identity: V,
        combine: C,
        along: A,
    ) -> Self {
        let (p, d) = (rows.len(), num_delegates as usize);
        Self {
            topo,
            rows,
            identity,
            combine,
            along,
            normal_frontier: vec![Vec::new(); p],
            delegate_frontier: Vec::new(),
            lanes: rows
                .iter()
                .map(|g| Lane {
                    acc: vec![identity; g.num_local as usize],
                    touched: Vec::new(),
                    edges: 0,
                })
                .collect(),
            outbox: vec![vec![Vec::new(); p]; p],
            delegate_acc: vec![vec![identity; d]; p],
            reduced: vec![identity; d],
            all_delegates: (0..num_delegates).collect(),
            ledger: Ledger::default(),
        }
    }

    /// Seeds `v` (in range) as a proposal nobody sent: the next
    /// [`Superstep::deliver`] settles it like any other.
    pub fn inject(&mut self, separation: &Separation, v: VertexId, value: V) {
        match separation.delegate_id(v) {
            Some(x) => {
                let r = &mut self.reduced[x as usize];
                *r = (self.combine)(*r, value);
            }
            None => self.lanes[self.topo.flat(self.topo.vertex_owner(v))].fold(
                self.topo.local_index(v),
                value,
                self.identity,
                &self.combine,
            ),
        }
    }

    /// Whether any vertex is active.
    pub fn has_frontier(&self) -> bool {
        !self.delegate_frontier.is_empty() || self.normal_frontier.iter().any(|f| !f.is_empty())
    }

    /// Pushes the frontiers along all four subgraphs: local proposals are
    /// folded, remote ones binned by destination, delegate ones
    /// accumulated densely. Nothing is priced.
    pub fn walk(&mut self) {
        let (topo, rows, identity) = (self.topo, self.rows, self.identity);
        let (combine, along) = (&self.combine, &self.along);
        let (normal, delegates) = (&self.normal_frontier, &self.delegate_frontier);
        self.lanes
            .par_iter_mut()
            .zip(self.outbox.par_iter_mut())
            .zip(self.delegate_acc.par_iter_mut())
            .enumerate()
            .for_each(|(flat, ((lane, outbox), dacc))| {
                let g = &*rows[flat];
                let gpu = topo.unflat(flat);
                dacc.fill(identity);
                let mut edges = 0u64;
                for &(u, value) in &normal[flat] {
                    for (v_global, e) in g.nn.neighbors(u).iter().map(Entry::split) {
                        edges += 1;
                        let pushed = along(value, e);
                        let owner = topo.vertex_owner(v_global);
                        let slot = topo.local_index(v_global);
                        if owner == gpu {
                            lane.fold(slot, pushed, identity, combine);
                        } else {
                            outbox[topo.flat(owner)].push((slot, pushed));
                        }
                    }
                    for (x, e) in g.nd.neighbors(u).iter().map(Entry::split) {
                        edges += 1;
                        let a = &mut dacc[x as usize];
                        *a = combine(*a, along(value, e));
                    }
                }
                for &(x, value) in delegates {
                    for (y, e) in g.dd.neighbors(x).iter().map(Entry::split) {
                        edges += 1;
                        let a = &mut dacc[y as usize];
                        *a = combine(*a, along(value, e));
                    }
                    for (u, e) in g.dn.neighbors(x).iter().map(Entry::split) {
                        edges += 1;
                        lane.fold(u, along(value, e), identity, combine);
                    }
                }
                lane.edges = edges;
            });
    }

    /// Edges the last walk examined, cluster-wide.
    pub fn edges_walked(&self) -> u64 {
        self.lanes.iter().map(|l| l.edges).sum()
    }

    /// Remote `nn` proposals the last walk produced, cluster-wide.
    pub fn updates_sent(&self) -> u64 {
        self.outbox.iter().flatten().map(|b| b.len() as u64).sum()
    }

    /// The slowest GPU's kernel time for the last walk.
    pub fn kernel_seconds(&self, cost: &CostModel, previsit: bool) -> f64 {
        let mut slowest = 0.0f64;
        for (lane, frontier) in self.lanes.iter().zip(&self.normal_frontier) {
            let mut t = cost.device.kernel_time(KernelKind::DynamicVisit, lane.edges);
            if previsit {
                let vertices = (frontier.len() + self.delegate_frontier.len()) as u64;
                t += cost.device.kernel_time(KernelKind::Previsit, vertices);
            }
            slowest = slowest.max(t);
        }
        slowest
    }

    /// The slowest GPU's point-to-point time for the last walk's remote
    /// proposals: one aggregated message of `max(sent, received)` per GPU
    /// (contributions to many peers coalesce per §VI-A1).
    pub fn p2p_seconds(&self, net: &NetworkModel, bytes_per_update: u64, intra_node: bool) -> f64 {
        let mut slowest = 0.0f64;
        for (flat, boxes) in self.outbox.iter().enumerate() {
            let sent: usize = boxes.iter().map(Vec::len).sum();
            let received: usize = self.outbox.iter().map(|from| from[flat].len()).sum();
            let bytes = bytes_per_update * sent.max(received) as u64;
            slowest = slowest.max(net.p2p_time(bytes, intra_node));
        }
        slowest
    }

    /// Reduces the last walk's delegate proposals into `reduced` and
    /// returns the collective's modeled bill.
    pub fn allreduce(&mut self, cost: &CostModel, blocking: bool) -> AllreduceValueOutcome<V> {
        let mut outcome =
            allreduce_with(self.topo, cost, &self.delegate_acc, blocking, &self.combine);
        self.reduced = std::mem::take(&mut outcome.reduced);
        outcome
    }

    /// One BSP superstep up to (not including) delivery: walk, delegate
    /// reduce, and the ledger entry.
    pub fn step(&mut self, pricing: &Pricing<'_>, reduce: Reduce<'_, V>) {
        self.walk();
        let cost = pricing.cost;
        let ranks = self.topo.num_ranks();
        let d = self.all_delegates.len();
        let mut phases = PhaseTimes::zero();
        phases.computation = self.kernel_seconds(cost, pricing.discovers_frontier);
        self.ledger.edges += self.edges_walked();

        let run_reduce = match reduce {
            Reduce::EveryStep => d > 0,
            Reduce::SkipIdle(news) => {
                self.delegate_acc.iter().any(|acc| acc.iter().enumerate().any(|(x, &v)| news(x, v)))
            }
            Reduce::WithScalar(scalars) => {
                for (acc, &s) in self.delegate_acc.iter_mut().zip(scalars) {
                    acc.push(s);
                }
                true
            }
        };
        if run_reduce {
            let outcome = self.allreduce(cost, pricing.blocking_reduce);
            phases.local_comm += outcome.local_time;
            phases.remote_delegate += outcome.global_time;
            if ranks > 1 {
                self.ledger.remote_bytes += 2 * outcome.bytes_per_message * ranks as u64;
            }
            self.delegate_acc.iter_mut().for_each(|acc| acc.truncate(d));
        }
        if pricing.discovers_frontier {
            phases.remote_delegate += cost.network.allreduce_time(8, ranks, true);
        }

        phases.remote_normal =
            self.p2p_seconds(&cost.network, UPDATE_BYTES, pricing.p2p_intra_node);
        self.ledger.remote_bytes += UPDATE_BYTES * self.updates_sent();

        let timing =
            IterationTiming { phases, blocking_reduce: pricing.blocking_reduce, overlap: false };
        self.ledger.record(phases, timing.elapsed());
    }

    /// Delivers the last walk (or the injected seeds). Every GPU folds
    /// the remote proposals addressed to it after its local ones; then
    /// `settle` reads each [`Inbox`] — one per GPU in parallel, and the
    /// reduced values for the delegates — updates that side's program
    /// state and pushes what the newly active entries send next step onto
    /// its (cleared) frontier.
    pub fn deliver<S: Send>(
        &mut self,
        gpus: &mut [S],
        delegates: &mut S,
        settle: impl Fn(&mut S, Inbox<'_, V>, &mut Vec<(u32, V)>) + Sync,
    ) {
        let identity = self.identity;
        let (combine, outbox) = (&self.combine, &self.outbox);
        self.lanes
            .par_iter_mut()
            .zip(self.normal_frontier.par_iter_mut())
            .zip(gpus.par_iter_mut())
            .enumerate()
            .for_each(|(flat, ((lane, next), state))| {
                for from in outbox {
                    for &(slot, value) in &from[flat] {
                        lane.fold(slot, value, identity, combine);
                    }
                }
                // A proposal equal to the identity can list a slot twice.
                lane.touched.sort_unstable();
                lane.touched.dedup();
                next.clear();
                settle(state, Inbox { acc: &lane.acc, touched: &lane.touched }, next);
                for &slot in &lane.touched {
                    lane.acc[slot as usize] = identity;
                }
                lane.touched.clear();
            });
        self.outbox.iter_mut().flatten().for_each(Vec::clear);
        self.delegate_frontier.clear();
        let inbox = Inbox { acc: &self.reduced, touched: &self.all_delegates };
        settle(delegates, inbox, &mut self.delegate_frontier);
        self.reduced.fill(identity);
    }
}

/// Rejects the first source outside `0..num_vertices`.
pub(crate) fn check_sources(sources: &[VertexId], num_vertices: u64) -> Result<(), BuildError> {
    match sources.iter().find(|&&s| s >= num_vertices) {
        Some(&source) => Err(BuildError::SourceOutOfRange { source, num_vertices }),
        None => Ok(()),
    }
}

/// Assembles a global per-vertex vector from per-GPU slot arrays (flat
/// order) and the replicated delegate array, which overrides the unused
/// slots the delegates' ids own.
pub(crate) fn assemble<T: Copy + Default>(
    topo: &Topology,
    separation: &Separation,
    locals: impl IntoIterator<Item = impl AsRef<[T]>>,
    delegates: &[T],
) -> Vec<T> {
    let mut out = vec![T::default(); separation.num_vertices() as usize];
    for (flat, local) in locals.into_iter().enumerate() {
        let gpu = topo.unflat(flat);
        for (slot, &value) in local.as_ref().iter().enumerate() {
            out[topo.global_id(gpu, slot as u32) as usize] = value;
        }
    }
    for (x, &value) in delegates.iter().enumerate() {
        out[separation.original(x as u32) as usize] = value;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BfsConfig;
    use crate::driver::DistributedGraph;
    use gcbfs_graph::builders;

    /// The delivery-order contract, observed through a left fold that
    /// spells its order out (digit concatenation).
    #[test]
    fn local_proposals_fold_before_remote_ones_by_ascending_source() {
        let graph = builders::complete(8);
        let config = BfsConfig::new(u64::MAX);
        let topo = Topology::new(2, 2);
        let dist = DistributedGraph::build(&graph, topo, &config).unwrap();
        let concat = |a: u64, b: u64| if b == 0 { a } else { a * 10 + b };
        let mut eng = Superstep::new(topo, &dist.subgraphs, 0, 0u64, concat, |v, ()| v);
        // Each GPU owns two vertices; its slot 0 pushes the digit flat + 1
        // to the other seven.
        for flat in 0..4 {
            eng.normal_frontier[flat].push((0, flat as u64 + 1));
        }
        eng.walk();
        assert_eq!((eng.edges_walked(), eng.updates_sent()), (28, 24));
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); 4];
        eng.deliver(&mut seen, &mut Vec::new(), |seen, inbox, _| {
            *seen = inbox.touched().map(|(_, digits)| digits).collect();
        });
        // Slot 0 hears the three other GPUs; slot 1 its own slot 0 first.
        assert_eq!(seen, [[234, 1234], [134, 2134], [124, 3124], [123, 4123]]);
    }
}
