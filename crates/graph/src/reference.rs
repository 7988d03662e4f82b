//! Sequential reference BFS and Graph500-style result validation.
//!
//! Every distributed run in the workspace is checked against
//! [`bfs_depths`]; [`validate_depths`] additionally implements the
//! structural checks Graph500 applies to submitted results (adapted to the
//! hop-distance output the paper produces instead of a parent tree, §VI-A3).

use crate::csr::Csr;
use crate::edgelist::VertexId;
use std::collections::VecDeque;

/// Depth marker for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

/// Parent marker for vertices without a parent (unreached).
pub const NO_PARENT: u64 = u64::MAX;

/// Sequential BFS returning hop distances from `source` (`UNREACHED` for
/// unreachable vertices).
pub fn bfs_depths(graph: &Csr, source: VertexId) -> Vec<u32> {
    let n = graph.num_vertices() as usize;
    let mut depths = vec![UNREACHED; n];
    let mut queue = VecDeque::new();
    depths[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let next = depths[u as usize] + 1;
        for &v in graph.neighbors(u) {
            if depths[v as usize] == UNREACHED {
                depths[v as usize] = next;
                queue.push_back(v);
            }
        }
    }
    depths
}

/// Sequential BFS returning `(depths, parents)`; the source is its own
/// parent, unreached vertices have [`NO_PARENT`] (Graph500's tree output).
pub fn bfs_tree(graph: &Csr, source: VertexId) -> (Vec<u32>, Vec<u64>) {
    let n = graph.num_vertices() as usize;
    let mut depths = vec![UNREACHED; n];
    let mut parents = vec![NO_PARENT; n];
    let mut queue = VecDeque::new();
    depths[source as usize] = 0;
    parents[source as usize] = source;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let next = depths[u as usize] + 1;
        for &v in graph.neighbors(u) {
            if depths[v as usize] == UNREACHED {
                depths[v as usize] = next;
                parents[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    (depths, parents)
}

/// Validates a BFS parent tree against hop distances (the Graph500 tree
/// checks): the source is its own parent; every other reached vertex has a
/// parent that is a real neighbor exactly one level shallower; unreached
/// vertices have no parent.
pub fn validate_parents(
    graph: &Csr,
    source: VertexId,
    depths: &[u32],
    parents: &[u64],
) -> Result<(), ValidationError> {
    let n = graph.num_vertices() as usize;
    if parents.len() != n {
        return Err(ValidationError::WrongLength { expected: n, actual: parents.len() });
    }
    for v in 0..n as u64 {
        let d = depths[v as usize];
        let p = parents[v as usize];
        if d == UNREACHED {
            if p != NO_PARENT {
                return Err(ValidationError::ParentOfUnreached { vertex: v, parent: p });
            }
            continue;
        }
        if v == source {
            if p != source {
                return Err(ValidationError::BadSourceParent { parent: p });
            }
            continue;
        }
        if p == NO_PARENT || p >= n as u64 {
            return Err(ValidationError::MissingParent { vertex: v });
        }
        if depths[p as usize] + 1 != d {
            return Err(ValidationError::ParentDepthMismatch {
                vertex: v,
                parent: p,
                vertex_depth: d,
                parent_depth: depths[p as usize],
            });
        }
        // Neighbor lists are sorted: binary-search for the tree edge.
        if graph.neighbors(p).binary_search(&v).is_err() {
            return Err(ValidationError::ParentNotNeighbor { vertex: v, parent: p });
        }
    }
    Ok(())
}

/// Why a depth assignment is not a valid BFS result. Field names are
/// self-describing; the variant docs state the violated rule.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ValidationError {
    /// The source does not have depth 0.
    SourceDepth { actual: u32 },
    /// Some vertex other than the source has depth 0.
    ExtraRoot { vertex: VertexId },
    /// An edge connects depths differing by more than 1.
    EdgeSpansLevels { from: VertexId, to: VertexId, from_depth: u32, to_depth: u32 },
    /// An edge leaves a reached vertex for an unreached one (impossible in
    /// a symmetric graph).
    ReachabilityLeak { from: VertexId, to: VertexId },
    /// A reached non-source vertex has no neighbor one level shallower.
    NoParent { vertex: VertexId, depth: u32 },
    /// Output length does not match the vertex count.
    WrongLength { expected: usize, actual: usize },
    /// An unreached vertex carries a parent.
    ParentOfUnreached { vertex: VertexId, parent: u64 },
    /// The source is not its own parent.
    BadSourceParent { parent: u64 },
    /// A reached non-source vertex has no (valid) parent id.
    MissingParent { vertex: VertexId },
    /// A parent is not exactly one level shallower.
    ParentDepthMismatch { vertex: VertexId, parent: VertexId, vertex_depth: u32, parent_depth: u32 },
    /// The claimed tree edge does not exist in the graph.
    ParentNotNeighbor { vertex: VertexId, parent: VertexId },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SourceDepth { actual } => write!(f, "source depth is {actual}, expected 0"),
            Self::ExtraRoot { vertex } => {
                write!(f, "vertex {vertex} has depth 0 but is not the source")
            }
            Self::EdgeSpansLevels { from, to, from_depth, to_depth } => {
                write!(f, "edge {from}->{to} spans depths {from_depth}->{to_depth}")
            }
            Self::ReachabilityLeak { from, to } => {
                write!(f, "reached vertex {from} has unreached neighbor {to}")
            }
            Self::NoParent { vertex, depth } => {
                write!(f, "vertex {vertex} at depth {depth} has no parent at depth {}", depth - 1)
            }
            Self::WrongLength { expected, actual } => {
                write!(f, "depth vector length {actual}, expected {expected}")
            }
            Self::ParentOfUnreached { vertex, parent } => {
                write!(f, "unreached vertex {vertex} has parent {parent}")
            }
            Self::BadSourceParent { parent } => {
                write!(f, "source's parent is {parent}, expected itself")
            }
            Self::MissingParent { vertex } => write!(f, "vertex {vertex} has no valid parent"),
            Self::ParentDepthMismatch { vertex, parent, vertex_depth, parent_depth } => write!(
                f,
                "vertex {vertex} (depth {vertex_depth}) has parent {parent} at depth {parent_depth}"
            ),
            Self::ParentNotNeighbor { vertex, parent } => {
                write!(f, "claimed tree edge {parent}->{vertex} is not in the graph")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates `depths` as a BFS hop-distance assignment from `source` on the
/// **symmetric** graph `graph`:
///
/// 1. the source has depth 0 and is the only depth-0 vertex;
/// 2. every edge connects depths differing by at most 1;
/// 3. no reached vertex has an unreached neighbor;
/// 4. every reached non-source vertex has a neighbor one level shallower.
///
/// Together with symmetry these force `depths` to equal the true hop
/// distances, so the check is complete, not just necessary.
pub fn validate_depths(
    graph: &Csr,
    source: VertexId,
    depths: &[u32],
) -> Result<(), ValidationError> {
    let n = graph.num_vertices() as usize;
    if depths.len() != n {
        return Err(ValidationError::WrongLength { expected: n, actual: depths.len() });
    }
    if depths[source as usize] != 0 {
        return Err(ValidationError::SourceDepth { actual: depths[source as usize] });
    }
    for (v, &d) in depths.iter().enumerate() {
        if d == 0 && v as u64 != source {
            return Err(ValidationError::ExtraRoot { vertex: v as u64 });
        }
    }
    for u in 0..n as u64 {
        let du = depths[u as usize];
        let mut has_parent = du == 0 || du == UNREACHED;
        for &v in graph.neighbors(u) {
            let dv = depths[v as usize];
            if du != UNREACHED && dv == UNREACHED {
                return Err(ValidationError::ReachabilityLeak { from: u, to: v });
            }
            if du != UNREACHED && dv != UNREACHED && du.abs_diff(dv) > 1 {
                return Err(ValidationError::EdgeSpansLevels {
                    from: u,
                    to: v,
                    from_depth: du,
                    to_depth: dv,
                });
            }
            if du != UNREACHED && du > 0 && dv == du - 1 {
                has_parent = true;
            }
        }
        if !has_parent {
            return Err(ValidationError::NoParent { vertex: u, depth: du });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::edgelist::EdgeList;

    #[test]
    fn bfs_on_path() {
        let g = builders::path(5);
        let csr = Csr::from_edge_list(&g);
        assert_eq!(bfs_depths(&csr, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_depths(&csr, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = EdgeList::new(4, vec![(0, 1), (1, 0)]);
        let csr = Csr::from_edge_list(&g);
        let d = bfs_depths(&csr, 0);
        assert_eq!(d, vec![0, 1, UNREACHED, UNREACHED]);
    }

    #[test]
    fn validate_accepts_reference() {
        let g = builders::grid(4, 5);
        let csr = Csr::from_edge_list(&g);
        let d = bfs_depths(&csr, 7);
        validate_depths(&csr, 7, &d).unwrap();
    }

    #[test]
    fn validate_rejects_wrong_source_depth() {
        let g = builders::path(3);
        let csr = Csr::from_edge_list(&g);
        let err = validate_depths(&csr, 0, &[1, 1, 2]).unwrap_err();
        assert_eq!(err, ValidationError::SourceDepth { actual: 1 });
    }

    #[test]
    fn validate_rejects_extra_root() {
        let g = builders::path(3);
        let csr = Csr::from_edge_list(&g);
        let err = validate_depths(&csr, 0, &[0, 0, 1]).unwrap_err();
        assert_eq!(err, ValidationError::ExtraRoot { vertex: 1 });
    }

    #[test]
    fn validate_rejects_level_skip() {
        let g = builders::path(3);
        let csr = Csr::from_edge_list(&g);
        let err = validate_depths(&csr, 0, &[0, 1, 3]).unwrap_err();
        assert!(matches!(err, ValidationError::EdgeSpansLevels { .. }));
    }

    #[test]
    fn validate_rejects_reachability_leak() {
        let g = builders::path(3);
        let csr = Csr::from_edge_list(&g);
        let err = validate_depths(&csr, 0, &[0, 1, UNREACHED]).unwrap_err();
        assert_eq!(err, ValidationError::ReachabilityLeak { from: 1, to: 2 });
    }

    #[test]
    fn validate_rejects_orphan_level() {
        // depth 2 with no depth-1 neighbor: vertex 2 on a path colored 0,2,2
        // triggers EdgeSpansLevels first, so build a disconnected-looking
        // depth instead: 4-cycle with depths 0,1,2,2 is valid, 0,1,2,3 is not.
        let g = builders::cycle(4);
        let csr = Csr::from_edge_list(&g);
        validate_depths(&csr, 0, &[0, 1, 2, 1]).unwrap();
        let err = validate_depths(&csr, 0, &[0, 1, 2, 3]).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::EdgeSpansLevels { .. } | ValidationError::NoParent { .. }
        ));
    }

    #[test]
    fn validate_rejects_wrong_length() {
        let g = builders::path(3);
        let csr = Csr::from_edge_list(&g);
        let err = validate_depths(&csr, 0, &[0, 1]).unwrap_err();
        assert_eq!(err, ValidationError::WrongLength { expected: 3, actual: 2 });
    }

    #[test]
    fn bfs_tree_matches_depths_and_validates() {
        let g = builders::grid(4, 4);
        let csr = Csr::from_edge_list(&g);
        let (depths, parents) = bfs_tree(&csr, 5);
        assert_eq!(depths, bfs_depths(&csr, 5));
        validate_parents(&csr, 5, &depths, &parents).unwrap();
        assert_eq!(parents[5], 5);
    }

    #[test]
    fn bfs_tree_unreached_have_no_parent() {
        let mut g = builders::path(3);
        g.num_vertices = 5;
        let csr = Csr::from_edge_list(&g);
        let (depths, parents) = bfs_tree(&csr, 0);
        assert_eq!(parents[3], NO_PARENT);
        assert_eq!(parents[4], NO_PARENT);
        validate_parents(&csr, 0, &depths, &parents).unwrap();
    }

    #[test]
    fn validate_parents_rejects_fake_edge() {
        let g = builders::path(4);
        let csr = Csr::from_edge_list(&g);
        let depths = vec![0, 1, 2, 3];
        // Vertex 3 claims parent 1 — depth mismatch first.
        let err = validate_parents(&csr, 0, &depths, &[0, 0, 1, 1]).unwrap_err();
        assert!(matches!(err, ValidationError::ParentDepthMismatch { .. }));
        // Right depth, wrong adjacency: diamond 0-{1,2}-3 plus a pendant 4;
        // vertex 3 (depth 2) claims parent 4 (depth 1, but not a neighbor).
        let mut diamond = crate::EdgeList::new(5, vec![(0, 1), (0, 2), (1, 3), (2, 3), (0, 4)]);
        diamond.symmetrize();
        let c = Csr::from_edge_list(&diamond);
        let (d, mut p) = bfs_tree(&c, 0);
        p[3] = 4;
        let err = validate_parents(&c, 0, &d, &p).unwrap_err();
        assert!(matches!(err, ValidationError::ParentNotNeighbor { vertex: 3, parent: 4 }));
    }

    #[test]
    fn validate_parents_rejects_parent_on_unreached() {
        let mut g = builders::path(2);
        g.num_vertices = 3;
        let csr = Csr::from_edge_list(&g);
        let err = validate_parents(&csr, 0, &[0, 1, UNREACHED], &[0, 0, 0]).unwrap_err();
        assert!(matches!(err, ValidationError::ParentOfUnreached { .. }));
    }

    #[test]
    fn validate_parents_rejects_bad_source() {
        let g = builders::path(2);
        let csr = Csr::from_edge_list(&g);
        let err = validate_parents(&csr, 0, &[0, 1], &[1, 0]).unwrap_err();
        assert!(matches!(err, ValidationError::BadSourceParent { .. }));
    }
}
