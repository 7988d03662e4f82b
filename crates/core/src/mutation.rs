//! Seeded edge-mutation logs for evolving graphs.
//!
//! The incremental path (ROADMAP item 2) consumes streaming edge
//! mutations in *batches*: an ordered list of directed add/delete ops
//! applied atomically between queries. The whole workspace assumes
//! symmetric graphs, so the generator and the CLI only ever emit
//! *undirected* mutations (both directions of each edge in one batch);
//! the op list itself stays directed so the repair engine and the
//! [`CsrDelta`](gcbfs_graph::CsrDelta) overlay see exactly what they
//! apply.
//!
//! [`MutationLog::random`] is fully seeded (splitmix64 chains, the same
//! generator family as the RMAT code) and maintains its own view of the
//! evolving edge set, so deletions always target edges that exist at
//! application time and the log replays identically everywhere. The
//! `locality` knob concentrates a batch's mutations inside a small
//! id-window around a per-batch anchor vertex — local batches touch few
//! partitions and should repair in fewer, cheaper waves, which is exactly
//! what the `incremental_sweep` bench measures.

use gcbfs_graph::permute::splitmix64;
use gcbfs_graph::EdgeList;
use std::collections::BTreeSet;

/// One directed edge mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationOp {
    /// Insert one occurrence of the directed edge `u → v`.
    Add {
        /// Source endpoint.
        u: u64,
        /// Target endpoint.
        v: u64,
    },
    /// Remove one occurrence of the directed edge `u → v` (a no-op if the
    /// edge is absent; the repair engine counts those separately).
    Delete {
        /// Source endpoint.
        u: u64,
        /// Target endpoint.
        v: u64,
    },
}

/// An ordered batch of mutations, applied atomically between queries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MutationBatch {
    /// The ops, in application order.
    pub ops: Vec<MutationOp>,
}

impl MutationBatch {
    /// An empty batch (a charged no-op for the repair engine).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of directed ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch carries no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends both directions of an undirected edge insertion.
    pub fn add_undirected(&mut self, u: u64, v: u64) {
        self.ops.push(MutationOp::Add { u, v });
        self.ops.push(MutationOp::Add { u: v, v: u });
    }

    /// Appends both directions of an undirected edge deletion.
    pub fn delete_undirected(&mut self, u: u64, v: u64) {
        self.ops.push(MutationOp::Delete { u, v });
        self.ops.push(MutationOp::Delete { u: v, v: u });
    }

    /// Concatenates `other` after this batch — batch merge is op-list
    /// concatenation, which is what makes the metamorphic
    /// batch-by-batch vs merged-batch test well-defined.
    pub fn merge(&mut self, other: &MutationBatch) {
        self.ops.extend_from_slice(&other.ops);
    }
}

/// A sequence of mutation batches.
#[derive(Clone, Debug, Default)]
pub struct MutationLog {
    /// The batches, in application order.
    pub batches: Vec<MutationBatch>,
}

impl MutationLog {
    /// All batches folded into one (op order preserved).
    pub fn merged(&self) -> MutationBatch {
        let mut merged = MutationBatch::new();
        for b in &self.batches {
            merged.merge(b);
        }
        merged
    }

    /// Generates a seeded log of `num_batches` batches with
    /// `undirected_per_batch` undirected mutations each (2× that in
    /// directed ops), against the evolving edge set starting from
    /// `graph`.
    ///
    /// Each mutation is a coin-flip between an insertion of a currently
    /// absent edge and a deletion of a currently present one (insertions
    /// only when the deletable pool is empty, and vice versa), so every
    /// delete in the log hits a live edge. `locality ∈ [0, 1]` is the
    /// probability that a mutation is drawn from a small id-window around
    /// the batch's anchor vertex instead of uniformly.
    pub fn random(
        seed: u64,
        graph: &EdgeList,
        num_batches: usize,
        undirected_per_batch: usize,
        locality: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&locality), "locality must be in [0, 1]");
        let n = graph.num_vertices;
        assert!(n >= 2, "mutation log needs at least two vertices");
        // The generator's own view of the live undirected edge set,
        // normalized to (min, max) pairs. BTreeSet keeps the deletable
        // pool deterministic; self-loops are never generated.
        let mut live: BTreeSet<(u64, u64)> = graph
            .edges
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        let window = (n / 64).clamp(16, 4096).min(n);
        let mut state = splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            state = splitmix64(state);
            state
        };
        let mut batches = Vec::with_capacity(num_batches);
        for _ in 0..num_batches {
            let anchor = next() % n;
            let mut batch = MutationBatch::new();
            for _ in 0..undirected_per_batch {
                let local = ((next() >> 11) as f64 / (1u64 << 53) as f64) < locality;
                let pick = |r: u64| {
                    if local {
                        anchor.saturating_sub(window / 2) + r % window
                    } else {
                        r % n
                    }
                };
                let want_delete = next() & 1 == 1;
                let deleted = if want_delete && !live.is_empty() {
                    // Deterministic pick: the first live edge at or after a
                    // random probe point (wrapping), filtered for locality.
                    let probe = (pick(next()).min(n - 1), next() % n);
                    let chosen = live.range(probe..).next().or_else(|| live.iter().next()).copied();
                    if let Some((u, v)) = chosen {
                        live.remove(&(u, v));
                        batch.delete_undirected(u, v);
                        true
                    } else {
                        false
                    }
                } else {
                    false
                };
                if !deleted {
                    // Insert a currently absent non-loop edge; bounded
                    // retries keep generation total even on dense pockets.
                    for _ in 0..64 {
                        let u = pick(next()).min(n - 1);
                        let v = pick(next()).min(n - 1);
                        if u == v {
                            continue;
                        }
                        let key = (u.min(v), u.max(v));
                        if live.insert(key) {
                            batch.add_undirected(key.0, key.1);
                            break;
                        }
                    }
                }
            }
            batches.push(batch);
        }
        Self { batches }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcbfs_graph::builders;

    #[test]
    fn undirected_helpers_emit_both_directions() {
        let mut b = MutationBatch::new();
        b.add_undirected(1, 2);
        b.delete_undirected(3, 4);
        assert_eq!(
            b.ops,
            vec![
                MutationOp::Add { u: 1, v: 2 },
                MutationOp::Add { u: 2, v: 1 },
                MutationOp::Delete { u: 3, v: 4 },
                MutationOp::Delete { u: 4, v: 3 },
            ]
        );
    }

    #[test]
    fn merge_is_concatenation() {
        let mut a = MutationBatch::new();
        a.add_undirected(0, 1);
        let mut b = MutationBatch::new();
        b.delete_undirected(0, 1);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.len(), 4);
        assert_eq!(&merged.ops[..2], &a.ops[..]);
        assert_eq!(&merged.ops[2..], &b.ops[..]);
    }

    #[test]
    fn log_merged_preserves_order() {
        let g = builders::cycle(32);
        let log = MutationLog::random(7, &g, 3, 4, 0.0);
        let merged = log.merged();
        let concat: Vec<_> = log.batches.iter().flat_map(|b| b.ops.iter().copied()).collect();
        assert_eq!(merged.ops, concat);
    }

    #[test]
    fn random_log_is_deterministic() {
        let g = builders::grid(8, 8);
        let a = MutationLog::random(42, &g, 4, 8, 0.5);
        let b = MutationLog::random(42, &g, 4, 8, 0.5);
        assert_eq!(a.batches.len(), 4);
        for (x, y) in a.batches.iter().zip(&b.batches) {
            assert_eq!(x, y);
        }
        let c = MutationLog::random(43, &g, 4, 8, 0.5);
        assert!(a.batches.iter().zip(&c.batches).any(|(x, y)| x != y), "seed must matter");
    }

    #[test]
    fn random_log_deletes_only_live_edges() {
        // Replay the log against an undirected multiset view and check
        // every delete hits a live edge and every add is fresh.
        let g = builders::grid(6, 6);
        let log = MutationLog::random(11, &g, 6, 10, 0.8);
        let mut live: BTreeSet<(u64, u64)> =
            g.edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        let mut saw_add = false;
        let mut saw_delete = false;
        for batch in &log.batches {
            for pair in batch.ops.chunks(2) {
                match pair[0] {
                    MutationOp::Add { u, v } => {
                        assert_eq!(pair[1], MutationOp::Add { u: v, v: u });
                        assert!(live.insert((u.min(v), u.max(v))), "add of a live edge");
                        saw_add = true;
                    }
                    MutationOp::Delete { u, v } => {
                        assert_eq!(pair[1], MutationOp::Delete { u: v, v: u });
                        assert!(live.remove(&(u.min(v), u.max(v))), "delete of a dead edge");
                        saw_delete = true;
                    }
                }
            }
        }
        assert!(saw_add && saw_delete, "log should mix adds and deletes");
    }

    #[test]
    fn locality_concentrates_mutations() {
        let g = builders::cycle(4096);
        let spread = |log: &MutationLog| {
            log.batches
                .iter()
                .map(|b| {
                    let ids: Vec<u64> = b
                        .ops
                        .iter()
                        .map(|op| match *op {
                            MutationOp::Add { u, .. } | MutationOp::Delete { u, .. } => u,
                        })
                        .collect();
                    ids.iter().max().unwrap() - ids.iter().min().unwrap()
                })
                .sum::<u64>()
        };
        let local = MutationLog::random(5, &g, 4, 16, 1.0);
        let global = MutationLog::random(5, &g, 4, 16, 0.0);
        assert!(
            spread(&local) < spread(&global),
            "local batches must span a narrower id range: {} vs {}",
            spread(&local),
            spread(&global)
        );
    }
}
